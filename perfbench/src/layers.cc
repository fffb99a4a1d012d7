// Layer probes: each times calls into one module's public functions on
// inputs drawn from the workload's own viewports, single-threaded unless
// stated, so a change to one layer shows in that layer's number.
#include <algorithm>
#include <cstdio>

#include "common.h"
#include "core/leaf_kernel.h"
#include "core/tile_refiner.h"
#include "serve/resilient_renderer.h"
#include "trace.h"
#include "viz/parallel_render.h"

namespace pb {
namespace {

volatile double g_sink = 0.0;  // keeps timed results alive

// Random pixel centres over the workload's grids.
std::vector<kdv::Point> SamplePixels(const ProbeInput& in, Rng* rng,
                                     size_t count) {
  std::vector<kdv::Point> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const kdv::PixelGrid& g = in.grids[rng->Below(in.grids.size())];
    out.push_back(g.PixelCenter(static_cast<int>(rng->Below(g.width())),
                                static_cast<int>(rng->Below(g.height()))));
  }
  return out;
}

// Rects spanned by the pixel centres of random 16x16 chunks of the grids:
// the query regions a tile-shared render with default tile_rows would use.
std::vector<kdv::Rect> SampleChunks(const ProbeInput& in, Rng* rng,
                                    size_t count) {
  constexpr int kChunk = 16;
  std::vector<kdv::Rect> out;
  for (size_t i = 0; i < count; ++i) {
    const kdv::PixelGrid& g = in.grids[rng->Below(in.grids.size())];
    const int x0 = static_cast<int>(rng->Below(g.width() / kChunk)) * kChunk;
    const int y0 = static_cast<int>(rng->Below(g.height() / kChunk)) * kChunk;
    kdv::Rect r(2);
    r.Expand(g.PixelCenter(x0, y0));
    r.Expand(g.PixelCenter(x0 + kChunk - 1, y0 + kChunk - 1));
    out.push_back(r);
  }
  return out;
}

// Median over `reps` timed passes of fn(), in ns per unit of work.
template <typename Fn>
double MedianNsPer(int reps, double units, Fn fn) {
  std::vector<double> ns;
  for (int r = 0; r < reps; ++r) {
    const double t0 = Now();
    fn();
    ns.push_back((Now() - t0) * 1e9 / units);
  }
  return Median(ns);
}

}  // namespace

void RunLayerProbes(const ProbeInput& in, Report* report) {
  Span probes("probes");
  const kdv::KdeEvaluator& eval = *in.eval;
  const kdv::KdTree& tree = eval.tree();
  const kdv::NodeBounds& bounds = *eval.bounds();
  Rng rng(SubSeed(in.seed, 77));

  // bounds: per-pixel and region bound evaluation over (node, query) pairs.
  std::vector<int32_t> nodes, leaves;
  for (int i = 0; i < 512; ++i) {
    nodes.push_back(static_cast<int32_t>(rng.Below(tree.num_nodes())));
  }
  for (int32_t id = 0; id < static_cast<int32_t>(tree.num_nodes()); ++id) {
    if (tree.node(id).IsLeaf()) leaves.push_back(id);
  }
  const std::vector<kdv::Point> pixels = SamplePixels(in, &rng, 128);
  {
    Span s("bounds.Evaluate");
    report->Metric(
        "bounds.eval_ns",
        MedianNsPer(5, static_cast<double>(nodes.size() * pixels.size()), [&] {
          double acc = 0.0;
          for (const kdv::Point& q : pixels) {
            for (int32_t id : nodes) {
              acc += bounds.Evaluate(tree.node(id).stats, q).upper;
            }
          }
          g_sink = acc;
        }),
        "ns");
  }
  const std::vector<kdv::Rect> chunks = SampleChunks(in, &rng, 64);
  {
    Span s("bounds.EvaluateRegion");
    report->Metric(
        "bounds.region_eval_ns",
        MedianNsPer(5, static_cast<double>(nodes.size() * chunks.size()), [&] {
          double acc = 0.0;
          for (const kdv::Rect& r : chunks) {
            for (int32_t id : nodes) {
              acc += bounds.EvaluateRegion(tree.node(id).stats, r).upper;
            }
          }
          g_sink = acc;
        }),
        "ns");
  }

  // core: single-thread scratch refinement per pixel.
  {
    const std::vector<kdv::Point> qs = SamplePixels(in, &rng, 1000);
    kdv::RefinementStream scratch = eval.MakeScratch();
    const kdv::QueryControl control;
    std::vector<double> us;
    for (const kdv::Point& q : qs) {
      Span s(in.tau_mode ? "core.EvaluateTau" : "core.EvaluateEps");
      const double t0 = Now();
      if (in.tau_mode) {
        g_sink = eval.EvaluateTau(q, in.tau, control, &scratch).lower;
      } else {
        g_sink = eval.EvaluateEps(q, in.eps, control, &scratch).estimate;
      }
      us.push_back((Now() - t0) * 1e6);
    }
    report->Metric("core.eps_px_us_p50", in.tau_mode ? 0.0 : Quantile(us, 0.5),
                   "us");
    report->Metric("core.eps_px_us_p99", in.tau_mode ? 0.0 : Quantile(us, 0.99),
                   "us");
    report->Metric("core.tau_px_us_p50", in.tau_mode ? Quantile(us, 0.5) : 0.0,
                   "us");
  }

  // core: SoA leaf kernel over random leaves.
  {
    Span s("core.LeafSumSoA");
    double points = 0.0;
    std::vector<int32_t> picked;
    for (int i = 0; i < 2048; ++i) {
      picked.push_back(leaves[rng.Below(leaves.size())]);
      points += static_cast<double>(tree.node(picked.back()).count());
    }
    const kdv::KernelParams& params = eval.params();
    report->Metric("core.leaf_ns_per_point",
                   MedianNsPer(5, points * 4, [&] {
                     double acc = 0.0;
                     for (size_t p = 0; p < 4; ++p) {
                       for (int32_t id : picked) {
                         const kdv::KdTree::Node& n = tree.node(id);
                         acc += kdv::LeafSumSoA(tree, params, n.begin, n.end,
                                                pixels[(id + p) % pixels.size()]);
                       }
                     }
                     g_sink = acc;
                   }),
                   "ns");
  }

  // core: one shared-traversal region pass per chunk (TileRefiner defaults).
  {
    const kdv::TileRefiner refiner(&tree, eval.params(), eval.bounds());
    std::vector<double> us;
    double region_evals = 0.0, decided = 0.0;
    for (const kdv::Rect& r : chunks) {
      Span s(in.tau_mode ? "core.TileRefiner.BuildTau"
                         : "core.TileRefiner.BuildEps");
      const double t0 = Now();
      kdv::TileFrontier f =
          in.tau_mode ? refiner.BuildTau(r, in.tau) : refiner.BuildEps(r, in.eps);
      us.push_back((Now() - t0) * 1e6);
      region_evals += static_cast<double>(f.nodes_visited);
      decided += f.decided ? 1.0 : 0.0;
    }
    report->Metric("core.tile_pass_us", Median(us), "us");
    report->Metric("core.tile_region_evals", region_evals / chunks.size(),
                   "count");
    report->Metric("core.tiles_decided_share", decided / chunks.size(),
                   "share");
  }

  // viz: whole frames at 1 and kFrameThreads threads, alternating.
  {
    std::vector<double> ms1, msn;
    const size_t frames = std::min<size_t>(4, in.grids.size());
    for (size_t i = 0; i < frames; ++i) {
      for (int pass = 0; pass < 2; ++pass) {
        const bool serial = (pass == 0) == (i % 2 == 0);
        kdv::RenderOptions opts;
        opts.num_threads = serial ? 1 : kFrameThreads;
        Span s(in.tau_mode ? "viz.RenderTauFrameParallel"
                           : "viz.RenderEpsFrameParallel");
        const double t0 = Now();
        if (in.tau_mode) {
          g_sink = kdv::RenderTauFrameParallel(eval, in.grids[i], in.tau, opts,
                                               in.pool, kdv::QueryControl(),
                                               nullptr)
                       .values[0];
        } else {
          g_sink = kdv::RenderEpsFrameParallel(eval, in.grids[i], in.eps, opts,
                                               in.pool, kdv::QueryControl(),
                                               nullptr)
                       .values[0];
        }
        (serial ? ms1 : msn).push_back((Now() - t0) * 1e3);
      }
    }
    report->Metric("viz.frame_ms_1t", Median(ms1), "ms");
    report->Metric("viz.frame_ms_4t", Median(msn), "ms");
    report->Metric("viz.parallel_efficiency",
                   Median(ms1) / (kFrameThreads * Median(msn)), "share");
  }

  // approx: the GridKde coarse tier, cold (a fresh renderer builds its
  // GridKde for the grid's domain, as the service does for each new tile).
  {
    const kdv::ResilientRenderer renderer(&eval);
    Span s("serve.ResilientRenderer.RenderCoarseOnly");
    const double t0 = Now();
    kdv::RenderOutcome o =
        renderer.RenderCoarseOnly(in.grids[0], kdv::ResilientRenderOptions());
    report->Metric("approx.coarse_frame_ms", (Now() - t0) * 1e3, "ms");
    g_sink = o.frame.values[0];
  }
}

}  // namespace pb
