// viewport-eps and hotspot-tau: one closed-loop user panning and zooming
// over the crime analogue, rendering a seeded list of distinct viewports
// as εKDV frames (ε = 0.01) or τKDV masks (τ = mean density of the full
// domain) with kFrameThreads frame threads.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common.h"
#include "core/kdv_runner.h"
#include "obs/metrics.h"
#include "trace.h"
#include "viz/parallel_render.h"

namespace pb {
namespace {

constexpr int kEpsWidth = 120, kEpsHeight = 120;
constexpr int kTauWidth = 320, kTauHeight = 240;
constexpr int kTauGridWidth = 80, kTauGridHeight = 60;  // τ choice grid
constexpr int kCountFrames = 16;  // frames behind the exact counters
constexpr int kSamplesPerFrame = 3;

struct FrameCtx {
  const kdv::KdeEvaluator* eval = nullptr;
  kdv::Executor* pool = nullptr;
  bool tau_mode = false;
  double tau = 0.0;
  int width = 0;
  int height = 0;
};

// Distinct viewports: zoom 1x-8x of the data bounds, pixel aspect square,
// 7 of every 8 centred on a data point and 1 on a uniform point of the
// bounds. Sampling is stratified so every seed renders the same mix, and
// only the draws within strata depend on the seed: zoom is log-uniform
// over kZoomStrata strata cycled frame by frame, and each block of kBlock
// frames visits kSpatialStrata strata of the points (contiguous runs of
// the kd-tree's spatial order) plus the uniform centres, in seeded order.
std::vector<kdv::Rect> MakeViewports(const kdv::Workbench& bench,
                                     uint64_t seed, int width, int height,
                                     size_t count) {
  constexpr int kZoomStrata = 8;
  constexpr size_t kBlock = 64, kSpatialStrata = 56;
  Rng rng(SubSeed(seed, 1));
  const kdv::Rect& data = bench.data_bounds();
  const kdv::PointSet& points = bench.tree().points();
  std::vector<size_t> slots(kBlock);
  std::vector<kdv::Rect> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    if (i % kBlock == 0) {
      for (size_t j = 0; j < kBlock; ++j) slots[j] = j;
      for (size_t j = kBlock; j > 1; --j) {
        std::swap(slots[j - 1], slots[rng.Below(j)]);
      }
    }
    const double stratum =
        (static_cast<double>(i % kZoomStrata) + rng.Uniform()) / kZoomStrata;
    const double zoom = std::exp(stratum * std::log(8.0));
    const double w = data.Length(0) / zoom;
    const double h = w * height / width;
    const size_t slot = slots[i % kBlock];
    double cx, cy;
    if (slot < kSpatialStrata) {
      const double u = (static_cast<double>(slot) + rng.Uniform()) /
                       static_cast<double>(kSpatialStrata);
      const kdv::Point& p = points[std::min(
          points.size() - 1, static_cast<size_t>(u * points.size()))];
      cx = p[0];
      cy = p[1];
    } else {
      cx = rng.Uniform(data.lo(0), data.hi(0));
      cy = rng.Uniform(data.lo(1), data.hi(1));
    }
    kdv::Rect r(2);
    r.set_lo(0, cx - w / 2);
    r.set_hi(0, cx + w / 2);
    r.set_lo(1, cy - h / 2);
    r.set_hi(1, cy + h / 2);
    out.push_back(r);
  }
  return out;
}

struct FrameSetup {
  Dataset data;
  double tau = 0.0;
  SetupTimes times;
};

FrameSetup SetupOnce(bool tau_mode, kdv::Executor* pool) {
  Span span("setup");
  FrameSetup s;
  const double t0 = Now();
  kdv::PointSet points;
  {
    Span g("data.GenerateMixture");
    points = GenerateCrime();
  }
  const double t1 = Now();
  {
    Span b("index.Workbench");
    s.data = BuildDataset(std::move(points));
  }
  const double t2 = Now();
  if (tau_mode) {
    // τ = mean density of the full-domain grid, certified to ε = 0.01.
    Span t("viz.RenderEpsFrameParallel");
    kdv::PixelGrid grid(kTauGridWidth, kTauGridHeight,
                        s.data.bench->data_bounds());
    kdv::RenderOptions opts;
    opts.num_threads = kFrameThreads;
    kdv::DensityFrame f = kdv::RenderEpsFrameParallel(
        *s.data.eval, grid, kEps, opts, pool, kdv::QueryControl(), nullptr);
    double sum = 0.0;
    for (double v : f.values) sum += v;
    s.tau = sum / static_cast<double>(f.values.size());
  }
  s.times.generate_s = t1 - t0;
  s.times.build_s = t2 - t1;
  s.times.total_s = Now() - t0;
  return s;
}

// Renders one viewport, returning its wall time in ms. Appends
// `samples_per_frame` seeded pixels to *samples and the frame's work to
// *stats; *ok is false for a non-OK or incomplete frame.
double RenderOne(const FrameCtx& ctx, const kdv::Rect& viewport, size_t index,
                 uint64_t seed, kdv::BatchStats* stats,
                 std::vector<PixelSample>* samples, bool* ok) {
  const kdv::PixelGrid grid(ctx.width, ctx.height, viewport);
  kdv::RenderOptions opts;
  opts.num_threads = kFrameThreads;
  kdv::BatchStats st;
  std::vector<double> values;
  const double t0 = Now();
  if (ctx.tau_mode) {
    Span s("viz.RenderTauFrameParallel", index + 1);
    kdv::BinaryFrame f = kdv::RenderTauFrameParallel(
        *ctx.eval, grid, ctx.tau, opts, ctx.pool, kdv::QueryControl(), &st);
    values.assign(f.values.begin(), f.values.end());
  } else {
    Span s("viz.RenderEpsFrameParallel", index + 1);
    kdv::DensityFrame f = kdv::RenderEpsFrameParallel(
        *ctx.eval, grid, kEps, opts, ctx.pool, kdv::QueryControl(), &st);
    values = std::move(f.values);
  }
  const double ms = (Now() - t0) * 1e3;
  *ok = st.status.ok() && st.completed;
  Rng rng(SubSeed(seed, 1000 + index));
  for (int k = 0; k < kSamplesPerFrame; ++k) {
    const int x = static_cast<int>(rng.Below(grid.width()));
    const int y = static_cast<int>(rng.Below(grid.height()));
    samples->push_back({ctx.eval, grid.PixelCenter(x, y),
                        values[grid.PixelIndex(x, y)],
                        ctx.tau_mode ? 0.0 : kEps, index});
  }
  if (stats != nullptr) AddWork(stats, st);
  return ms;
}

// Checks every kept pixel against EvaluateExact; returns the frames with a
// violation. εKDV: |est - F| <= ε·F. τKDV: mask == (F >= τ), pixels whose
// exact value ties τ to 1e-12 relative excepted (summation order).
std::vector<bool> CheckSamples(const FrameCtx& ctx,
                               const std::vector<PixelSample>& samples,
                               size_t frames) {
  const std::vector<double> exact = ExactValues(samples);
  std::vector<bool> bad(frames, false);
  for (size_t i = 0; i < samples.size(); ++i) {
    const PixelSample& s = samples[i];
    bool ok;
    if (ctx.tau_mode) {
      const bool hot = exact[i] >= ctx.tau;
      ok = (s.value != 0.0) == hot ||
           std::abs(exact[i] - ctx.tau) <= 1e-12 * ctx.tau;
    } else {
      ok = std::isfinite(s.value) &&
           std::abs(s.value - exact[i]) <= s.eps * exact[i] * (1.0 + 1e-9);
    }
    if (!ok) {
      std::fprintf(stderr,
                   "certificate violation: frame %zu value=%.17g exact=%.17g\n",
                   s.op, s.value, exact[i]);
      bad[s.op] = true;
    }
  }
  return bad;
}

}  // namespace

int RunFrameWorkload(const Args& args, bool tau_mode, Report* report) {
  Tracer::SetEnabled(args.trace);
  kdv::ThreadPool::Options popts;
  popts.num_threads = kFrameThreads - 1;
  popts.max_queue = 2 * kFrameThreads + 2;
  kdv::ThreadPool pool(popts);

  // Set-up, repeated; the last one is used.
  std::vector<double> total, gen, build;
  FrameSetup setup;
  const int repeats = args.counters_only ? 1 : kSetupRepeats;
  for (int r = 0; r < repeats; ++r) {
    setup = FrameSetup();
    setup = SetupOnce(tau_mode, &pool);
    total.push_back(setup.times.total_s);
    gen.push_back(setup.times.generate_s);
    build.push_back(setup.times.build_s);
  }

  FrameCtx ctx;
  ctx.eval = setup.data.eval.get();
  ctx.pool = &pool;
  ctx.tau_mode = tau_mode;
  ctx.tau = setup.tau;
  ctx.width = tau_mode ? kTauWidth : kEpsWidth;
  ctx.height = tau_mode ? kTauHeight : kEpsHeight;
  const std::vector<kdv::Rect> viewports =
      MakeViewports(*setup.data.bench, args.seed, ctx.width, ctx.height, 4096);
  report->Config("dataset", "crime analogue, CrimeSpec(1.0)");
  report->Config("points", static_cast<double>(setup.data.bench->num_points()));
  report->Config("method", "QUAD, Gaussian kernel, Workbench defaults");
  report->Config("frame", std::to_string(ctx.width) + "x" +
                              std::to_string(ctx.height));
  report->Config("frame_threads", static_cast<double>(kFrameThreads));
  report->Config("render_options", "RenderOptions defaults (tile_rows 16, "
                                   "tile_shared off, no frontier cache)");
  if (tau_mode) {
    report->Config("tau", setup.tau);
  } else {
    report->Config("eps", kEps);
  }

  std::vector<PixelSample> samples;
  std::vector<bool> frame_ok;
  double frame_seconds = 0.0;  // summed frame time of the timed window

  if (args.counters_only || args.trace) {
    // Exact work counters over the first kCountFrames viewports; in the
    // traced run each frame is also rendered untraced, in alternating
    // order, to measure the tracing overhead.
    kdv::obs::MetricsRegistry::Global().Reset();
    kdv::BatchStats counted;
    double traced_ms = 0.0, untraced_ms = 0.0;
    for (size_t i = 0; i < static_cast<size_t>(kCountFrames); ++i) {
      bool ok = true;
      for (int pass = 0; pass < (args.trace ? 2 : 1); ++pass) {
        const bool traced = args.trace && ((pass == 0) == (i % 2 == 0));
        Tracer::SetEnabled(traced);
        std::vector<PixelSample> scratch;
        bool pass_ok = true;
        const double ms = RenderOne(ctx, viewports[i], i, args.seed,
                                    traced || !args.trace ? &counted : nullptr,
                                    traced || !args.trace ? &samples : &scratch,
                                    &pass_ok);
        ok = ok && pass_ok;
        (traced ? traced_ms : untraced_ms) += ms;
      }
      frame_ok.push_back(ok);
    }
    Tracer::SetEnabled(args.trace);
    ReportWork(counted, report);
    if (args.counters_only) return 0;
    report->Snapshot("frames");

    report->Metric("data.generate_s", Median(gen), "s");
    report->Metric("index.build_s", Median(build), "s");
    report->Metric("viz.frontier_cache_hit_share",
                   static_cast<double>(counted.frontier_cache_hits) /
                       kCountFrames,
                   "share");
    report->Metric("bench.trace_overhead_share",
                   traced_ms / untraced_ms - 1.0, "share");

    ProbeInput in;
    in.eval = ctx.eval;
    for (size_t i = 0; i < static_cast<size_t>(kCountFrames); ++i) {
      in.grids.emplace_back(ctx.width, ctx.height, viewports[i]);
    }
    in.tau_mode = tau_mode;
    in.tau = ctx.tau;
    in.seed = args.seed;
    in.pool = &pool;
    RunLayerProbes(in, report);
  } else {
    // Untraced run: warm up on two viewports outside the measured list,
    // then render the list until the time is up.
    const std::vector<kdv::Rect> warm = MakeViewports(
        *setup.data.bench, args.seed ^ 0xA5A5, ctx.width, ctx.height, 2);
    for (size_t i = 0; i < warm.size(); ++i) {
      std::vector<PixelSample> scratch;
      bool ok = true;
      RenderOne(ctx, warm[i], i, args.seed, nullptr, &scratch, &ok);
    }
    kdv::obs::MetricsRegistry::Global().Reset();
    std::vector<double> frame_ms;
    const double start = Now();
    for (size_t i = 0; i < viewports.size() && Now() - start < args.seconds;
         ++i) {
      bool ok = true;
      frame_ms.push_back(
          RenderOne(ctx, viewports[i], i, args.seed, nullptr, &samples, &ok));
      frame_ok.push_back(ok);
    }
    report->Snapshot("frames");
    report->Config("frames", static_cast<double>(frame_ms.size()));
    report->Metric("setup_s", Median(total), "s");
    report->Metric("peak_rss_mb", PeakRssMb(), "MB");
    report->Metric("latency_p50_ms", Quantile(frame_ms, 0.5), "ms");
    report->Metric("latency_p90_ms", Quantile(frame_ms, 0.9), "ms");
    frame_seconds = 0.0;
    for (double ms : frame_ms) frame_seconds += ms / 1e3;
  }

  // Exact check of the kept pixels, after the timed window, every run.
  const std::vector<bool> bad = CheckSamples(ctx, samples, frame_ok.size());
  double certified_frames = 0.0;
  for (size_t i = 0; i < frame_ok.size(); ++i) {
    report->Attempt(frame_ok[i] && !bad[i]);
    if (frame_ok[i] && !bad[i]) certified_frames += 1.0;
  }
  if (!args.trace) {
    report->Metric("certified_px_per_s",
                   certified_frames * ctx.width * ctx.height / frame_seconds,
                   "1/s");
  } else {
    report->Metric("bench.failed_share",
                   static_cast<double>(report->failed) / report->attempted,
                   "share");
  }
  return 0;
}

}  // namespace pb
