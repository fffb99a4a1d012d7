// tile-serve: an open loop of 64x64 map-tile requests (zoom 0-3 over the
// crime bounds, Zipf-popular) into RenderService at three fixed Poisson
// rates, with SwapEvaluator alternating between the crime index and crime
// plus a seeded 1% appended batch every kSwapEvery seconds.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <future>
#include <map>
#include <thread>

#include "common.h"
#include "obs/metrics.h"
#include "serve/render_service.h"
#include "serve/resilient_renderer.h"
#include "trace.h"

namespace pb {
namespace {

constexpr int kTile = 64;
constexpr int kMaxZoom = 3;
constexpr double kServeEps = 0.05;
constexpr double kLimitSeconds = 1.0;  // request budget and latency limit
constexpr int kWorkers = 3;
// Assumed popularity exponent: inside the 0.64-0.83 range Breslau et al.
// (INFOCOM 1999) measured for web-proxy request streams; no map-tile
// trace is in the repository to take it from.
constexpr double kZipfS = 0.8;
constexpr double kSwapEvery = 2.5;     // seconds of schedule time
constexpr double kPostSwapWindow = 0.5;
constexpr int kCountTiles = 8;         // renders behind the exact counters
// Offered rates, requests/s: ~20%, 40% and 120% of the capacity of
// kWorkers workers on this tile mix (~20 req/s, see README.md), and each
// step's share of the run. The end-to-end metrics come from the middle
// step, so it runs longest; at higher middle loads its p90 swung by 15-30%
// across seeds, mostly with the machine's speed amplified by queueing.
constexpr double kRates[3] = {4.0, 8.0, 25.0};
constexpr double kStepShare[3] = {0.2, 0.6, 0.2};
constexpr const char* kStepNames[3] = {"low", "mid", "high"};

struct ServeSetup {
  Dataset base;      // crime
  Dataset appended;  // crime + seeded 1% batch
  SetupTimes times;
};

// New events near existing ones: 1% of the points, each a random crime
// point jittered by a Gaussian of 0.2% of the data extent.
kdv::PointSet AppendBatch(const kdv::PointSet& points, uint64_t seed) {
  Rng rng(SubSeed(seed, 3));
  kdv::PointSet out = points;
  const size_t n = points.size() / 100;
  for (size_t i = 0; i < n; ++i) {
    kdv::Point p = points[rng.Below(points.size())];
    for (int d = 0; d < 2; ++d) {
      const double u1 = std::max(rng.Uniform(), 1e-300), u2 = rng.Uniform();
      p[d] += 0.002 * std::sqrt(-2.0 * std::log(u1)) *
              std::cos(2.0 * M_PI * u2);
    }
    out.push_back(p);
  }
  return out;
}

ServeSetup SetupOnce(uint64_t seed) {
  Span span("setup");
  ServeSetup s;
  const double t0 = Now();
  kdv::PointSet points;
  {
    Span g("data.GenerateMixture");
    points = GenerateCrime();
  }
  kdv::PointSet grown = AppendBatch(points, seed);
  const double t1 = Now();
  {
    Span b("index.Workbench");
    s.base = BuildDataset(std::move(points));
    s.appended = BuildDataset(std::move(grown));
  }
  const double t2 = Now();
  s.times.generate_s = t1 - t0;
  s.times.build_s = t2 - t1;
  s.times.total_s = t2 - t0;
  return s;
}

// Every tile of zoom levels 0..kMaxZoom over `bounds`.
std::vector<kdv::PixelGrid> MakeTiles(const kdv::Rect& bounds) {
  std::vector<kdv::PixelGrid> tiles;
  for (int z = 0; z <= kMaxZoom; ++z) {
    const int n = 1 << z;
    const double w = bounds.Length(0) / n, h = bounds.Length(1) / n;
    for (int ty = 0; ty < n; ++ty) {
      for (int tx = 0; tx < n; ++tx) {
        kdv::Rect r(2);
        r.set_lo(0, bounds.lo(0) + tx * w);
        r.set_hi(0, bounds.lo(0) + (tx + 1) * w);
        r.set_lo(1, bounds.lo(1) + ty * h);
        r.set_hi(1, bounds.lo(1) + (ty + 1) * h);
        tiles.emplace_back(kTile, kTile, r);
      }
    }
  }
  return tiles;
}

// Zipf(kZipfS) popularity over a ranking that puts coarser zoom levels
// first, with the order inside each level seeded. Both the exponent and
// the coarse-first ranking are assumptions, not taken from a tile trace
// (README.md, "Request mix"). `tiles` is MakeTiles' level-major list.
class TileSampler {
 public:
  TileSampler(size_t tiles, uint64_t seed) : rng_(SubSeed(seed, 4)) {
    Rng perm(SubSeed(seed, 5));
    for (size_t i = 0; i < tiles; ++i) rank_.push_back(i);
    for (size_t level = 0, begin = 0; begin < tiles; ++level) {
      const size_t end = std::min(tiles, begin + (size_t{1} << (2 * level)));
      for (size_t i = end; i > begin + 1; --i) {
        std::swap(rank_[i - 1], rank_[begin + perm.Below(i - begin)]);
      }
      begin = end;
    }
    double acc = 0.0;
    for (size_t r = 0; r < tiles; ++r) {
      acc += 1.0 / std::pow(static_cast<double>(r + 1), kZipfS);
      cdf_.push_back(acc);
    }
    for (double& c : cdf_) c /= acc;
  }
  size_t Next() {
    const double u = rng_.Uniform();
    const size_t r = std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin();
    return rank_[std::min(r, rank_.size() - 1)];
  }

 private:
  Rng rng_;
  std::vector<size_t> rank_;
  std::vector<double> cdf_;
};

struct Request {
  size_t tile = 0;
  int step = 0;
  double due = 0.0;     // scheduled send time, seconds since run start
  double lag = 0.0;     // submit time - due
  bool shed = false;
  bool post_swap = false;
  uint64_t id = 0;
  std::future<kdv::ServeOutcome> future;
  // Filled once the outcome is collected.
  double latency = 0.0;  // from the due time to completion
  double queue = 0.0;
  double exec = 0.0;
  bool ok = false;
  bool certified_in_limit = false;
  kdv::QualityTier tier = kdv::QualityTier::kFlat;
};

// Seeded Poisson arrivals conditioned on their count: round(rate * span)
// sorted uniform times in [start, start + span).
std::vector<double> Arrivals(Rng* rng, double rate, double start, double span) {
  const size_t n = static_cast<size_t>(std::llround(rate * span));
  std::vector<double> t;
  for (size_t i = 0; i < n; ++i) t.push_back(start + rng->Uniform() * span);
  std::sort(t.begin(), t.end());
  return t;
}

// Sleeps until steady-clock time `t` (seconds, as Now()).
void SleepUntil(double t) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(t))));
}

}  // namespace

int RunServeWorkload(const Args& args, Report* report) {
  Tracer::SetEnabled(args.trace);
  std::vector<double> total, gen, build;
  ServeSetup setup;
  const int repeats = args.counters_only ? 1 : kSetupRepeats;
  for (int r = 0; r < repeats; ++r) {
    setup = ServeSetup();
    setup = SetupOnce(args.seed);
    total.push_back(setup.times.total_s);
    gen.push_back(setup.times.generate_s);
    build.push_back(setup.times.build_s);
  }
  const kdv::KdeEvaluator* evals[2] = {setup.base.eval.get(),
                                       setup.appended.eval.get()};
  const std::vector<kdv::PixelGrid> tiles =
      MakeTiles(setup.base.bench->data_bounds());
  TileSampler sampler(tiles.size(), args.seed);

  kdv::RenderService::Options sopts;
  sopts.num_threads = kWorkers;
  sopts.intra_frame_threads = 1;
  report->Config("dataset", "crime analogue, CrimeSpec(1.0), + 1% batch");
  report->Config("points", static_cast<double>(setup.base.bench->num_points()));
  report->Config("method", "QUAD, Gaussian kernel, Workbench defaults");
  report->Config("tile", "64x64, zoom 0-3, Zipf s=0.8 over coarse-first levels");
  report->Config("service", "RenderService defaults, num_threads 3, "
                            "intra_frame_threads 1");
  report->Config("request", "eps 0.05, budget 1 s, degrade on");
  report->Config("rates_rps", std::to_string(kRates[0]) + "," +
                                  std::to_string(kRates[1]) + "," +
                                  std::to_string(kRates[2]));
  report->Config("swap_every_s", kSwapEvery);

  kdv::ServeRequestOptions ropts;
  ropts.eps = kServeEps;
  ropts.budget_seconds = kLimitSeconds;
  ropts.degrade = true;

  if (args.counters_only || args.trace) {
    // Exact work counters over the first kCountTiles requested tiles,
    // rendered unbudgeted on the crime index; in the traced run each is
    // rendered again untraced, in alternating order, for the tracing
    // overhead.
    const kdv::ResilientRenderer renderer(evals[0]);
    kdv::ResilientRenderOptions o;
    o.eps = kServeEps;
    TileSampler first(tiles.size(), args.seed);
    kdv::BatchStats counted;
    double traced_ms = 0.0, untraced_ms = 0.0;
    std::vector<kdv::PixelGrid> grids;
    for (int i = 0; i < kCountTiles; ++i) {
      const kdv::PixelGrid& g = tiles[first.Next()];
      grids.push_back(g);
      for (int pass = 0; pass < (args.trace ? 2 : 1); ++pass) {
        const bool traced = args.trace && ((pass == 0) == (i % 2 == 0));
        Tracer::SetEnabled(traced);
        const double t0 = Now();
        kdv::RenderOutcome out;
        {
          Span s("serve.ResilientRenderer.Render", i + 1);
          out = renderer.Render(g, o);
        }
        (traced ? traced_ms : untraced_ms) += (Now() - t0) * 1e3;
        if (traced || !args.trace) AddWork(&counted, out.stats);
      }
    }
    Tracer::SetEnabled(args.trace);
    ReportWork(counted, report);
    if (args.counters_only) return 0;
    report->Metric("data.generate_s", Median(gen), "s");
    report->Metric("index.build_s", Median(build), "s");
    report->Metric("bench.trace_overhead_share",
                   traced_ms / untraced_ms - 1.0, "share");

    // serve: what ResilientRenderer adds over a raw single-thread frame,
    // and what one unloaded RenderService request adds over the renderer.
    {
      kdv::RenderService idle(evals[0], sopts);
      std::vector<double> renderer_extra, service_extra;
      for (const kdv::PixelGrid& g : grids) {
        double t0 = Now();
        {
          Span s("viz.RenderEpsFrameParallel");
          kdv::RenderEpsFrameParallel(*evals[0], g, kServeEps,
                                      kdv::RenderOptions(), nullptr,
                                      kdv::QueryControl(), nullptr);
        }
        const double raw = Now() - t0;
        t0 = Now();
        {
          Span s("serve.ResilientRenderer.Render");
          renderer.Render(g, o);
        }
        const double res = Now() - t0;
        t0 = Now();
        {
          Span s("serve.RenderService.SubmitAndWait");
          kdv::ServeRequestOptions unbudgeted;
          unbudgeted.eps = kServeEps;
          auto f = idle.Submit(g, unbudgeted);
          if (f.ok()) f.value().get();
        }
        const double svc = Now() - t0;
        renderer_extra.push_back((res - raw) * 1e3);
        service_extra.push_back((svc - res) * 1e3);
      }
      report->Metric("serve.renderer_overhead_ms", Median(renderer_extra),
                     "ms");
      report->Metric("serve.service_overhead_ms", Median(service_extra), "ms");
    }

    ProbeInput in;
    in.eval = evals[0];
    in.grids = grids;
    in.eps = kServeEps;
    in.seed = args.seed;
    kdv::ThreadPool::Options popts;
    popts.num_threads = kFrameThreads - 1;
    popts.max_queue = 2 * kFrameThreads + 2;
    kdv::ThreadPool pool(popts);
    in.pool = &pool;
    RunLayerProbes(in, report);
  }

  // The open loop: three rate steps, drained in between.
  kdv::RenderService service(evals[0], sopts);
  std::map<uint64_t, const kdv::KdeEvaluator*> epoch_eval;
  epoch_eval[service.stats().epoch] = evals[0];
  Rng arrivals(SubSeed(args.seed, 6));
  std::vector<Request> requests;
  std::vector<PixelSample> samples;
  std::vector<double> swap_ms, step_wall(3, 0.0);
  bool growing[3] = {false, false, false};
  std::vector<double> swap_times;
  int next_eval = 1;
  double next_swap = kSwapEvery;
  const double run_start = Now();
  double timeline = 0.0;  // schedule time consumed by finished steps
  uint64_t next_id = 1;
  for (int step = 0; step < 3; ++step) {
    kdv::obs::MetricsRegistry::Global().Reset();
    const size_t first = requests.size();
    const double step_start = Now() - run_start;
    const double offset = step_start - timeline;  // drain time so far
    std::vector<size_t> backlog;                  // in-flight at each send
    const double step_span = args.seconds * kStepShare[step];
    for (double due : Arrivals(&arrivals, kRates[step], timeline, step_span)) {
      // Swaps are due on the same timeline as the sends.
      while (next_swap <= due) {
        SleepUntil(run_start + offset + next_swap);
        const double t0 = Now();
        {
          Span s("serve.RenderService.SwapEvaluator");
          service.SwapEvaluator(evals[next_eval]);
        }
        swap_ms.push_back((Now() - t0) * 1e3);
        swap_times.push_back(next_swap + offset);
        epoch_eval[service.stats().epoch] = evals[next_eval];
        next_eval ^= 1;
        next_swap += kSwapEvery;
      }
      Request r;
      r.tile = sampler.Next();
      r.step = step;
      r.due = due + offset;
      r.id = next_id++;
      r.post_swap = !swap_times.empty() &&
                    r.due - swap_times.back() < kPostSwapWindow;
      SleepUntil(run_start + r.due);
      const double submit = Now() - run_start;
      r.lag = submit - r.due;
      backlog.push_back(service.in_flight());
      {
        Span s("serve.RenderService.Submit", r.id);
        auto f = service.Submit(tiles[r.tile], ropts);
        if (f.ok()) {
          r.future = std::move(f).value();
        } else {
          r.shed = true;
        }
      }
      requests.push_back(std::move(r));
    }
    // Backlog grows when the last third of sends saw clearly more requests
    // in flight than the first third.
    const size_t third = backlog.size() / 3;
    double head = 0.0, tail = 0.0;
    for (size_t i = 0; i < third; ++i) {
      head += static_cast<double>(backlog[i]);
      tail += static_cast<double>(backlog[backlog.size() - 1 - i]);
    }
    growing[step] =
        third > 0 && (tail - head) / static_cast<double>(third) > kWorkers;
    for (size_t i = first; i < requests.size(); ++i) {
      Request& r = requests[i];
      if (r.shed) continue;
      kdv::ServeOutcome out = r.future.get();
      const double submit = r.due + r.lag;
      r.latency = r.lag + out.total_seconds;
      r.queue = out.queue_seconds;
      r.exec = out.total_seconds - out.queue_seconds;
      r.ok = out.ok();
      r.tier = out.render.tier;
      r.certified_in_limit = r.ok && r.tier == kdv::QualityTier::kCertified &&
                             r.latency <= kLimitSeconds;
      // Certified frames are checked against the evaluator of the epoch
      // they ran on; every other frame must at least be finite.
      if (r.tier == kdv::QualityTier::kCertified) {
        auto e = epoch_eval.find(out.epoch);
        const kdv::PixelGrid& g = tiles[r.tile];
        Rng pick(SubSeed(args.seed, 2000 + r.id));
        for (int k = 0; k < 2; ++k) {
          const int x = static_cast<int>(pick.Below(kTile));
          const int y = static_cast<int>(pick.Below(kTile));
          samples.push_back({e == epoch_eval.end() ? nullptr : e->second,
                             g.PixelCenter(x, y),
                             out.render.frame.values[g.PixelIndex(x, y)],
                             out.render.certified_eps, i});
        }
      } else {
        for (double v : out.render.frame.values) {
          if (!std::isfinite(v)) r.ok = false;
        }
      }
      Tracer::Record("serve.request", run_start + r.due,
                     run_start + submit + out.total_seconds, 0, r.id);
    }
    step_wall[step] = Now() - run_start - step_start;
    timeline += step_span;
    report->Config(std::string("backlog_growing_") + kStepNames[step],
                   growing[step] ? 1.0 : 0.0);
    report->Snapshot(kStepNames[step]);
  }
  const kdv::ServiceStats stats = service.stats();
  service.Stop();

  // Exact check of the kept pixels, after the run.
  std::vector<bool> bad(requests.size(), false);
  const std::vector<double> exact = ExactValues(samples);
  for (size_t i = 0; i < samples.size(); ++i) {
    const PixelSample& s = samples[i];
    const bool ok = s.eval != nullptr && s.eps > 0.0 &&
                    std::abs(s.value - exact[i]) <=
                        s.eps * exact[i] * (1.0 + 1e-9);
    if (!ok) {
      std::fprintf(stderr,
                   "certificate violation: request %zu value=%.17g "
                   "exact=%.17g\n",
                   s.op, s.value, exact[i]);
      bad[s.op] = true;
    }
  }

  // Per-step aggregates. A shed request misses the limit.
  std::vector<double> lat_mid, queue_mid, exec_mid, post_swap, lag;
  double in_limit[3] = {0, 0, 0}, sent[3] = {0, 0, 0};
  double shed = 0.0, served = 0.0, degraded = 0.0, exec_s_mid = 0.0;
  double tiers[4] = {0, 0, 0, 0};
  for (size_t i = 0; i < requests.size(); ++i) {
    const Request& r = requests[i];
    sent[r.step] += 1.0;
    lag.push_back(r.lag * 1e3);
    if (r.shed) {
      shed += 1.0;
      continue;
    }
    report->Attempt(r.ok && !bad[i]);
    served += 1.0;
    tiers[static_cast<int>(r.tier)] += 1.0;
    if (r.tier != kdv::QualityTier::kCertified) degraded += 1.0;
    if (r.certified_in_limit && !bad[i]) in_limit[r.step] += 1.0;
    if (r.step == 1) {
      lat_mid.push_back(r.latency * 1e3);
      queue_mid.push_back(r.queue * 1e3);
      exec_mid.push_back(r.exec * 1e3);
      exec_s_mid += r.exec;
    }
    if (r.post_swap) post_swap.push_back(r.latency * 1e3);
  }
  // Sheds are attempts too, but not failures: they count as misses above.
  report->attempted += static_cast<uint64_t>(shed);
  double max_rate = 0.0;
  for (int step = 0; step < 3; ++step) {
    report->Config(std::string("in_limit_share_") + kStepNames[step],
                   in_limit[step] / std::max(1.0, sent[step]));
    if (sent[step] > 0 && in_limit[step] >= 0.95 * sent[step] &&
        !growing[step]) {
      max_rate = kRates[step];
    }
  }
  const double goodput = in_limit[2] / step_wall[2];
  const double all = std::max(1.0, served + shed);
  report->Config("requests", all);

  if (!args.trace) {
    report->Metric("setup_s", Median(total), "s");
    report->Metric("peak_rss_mb", PeakRssMb(), "MB");
    report->Metric("latency_p50_ms", Quantile(lat_mid, 0.5), "ms");
    report->Metric("latency_p90_ms", Quantile(lat_mid, 0.9), "ms");
    // Certified-within-limit pixels per second a worker spent executing:
    // set by the service's own speed, not by the offered rate.
    report->Metric("certified_px_per_s",
                   in_limit[1] * kTile * kTile / std::max(1e-9, exec_s_mid),
                   "1/s");
    return 0;
  }
  report->Metric("viz.frontier_cache_hit_share",
                 static_cast<double>(stats.frontier_cache_hits) /
                     std::max<uint64_t>(1, stats.completed),
                 "share");
  report->Metric("serve.queue_wait_ms_p50", Quantile(queue_mid, 0.5), "ms");
  report->Metric("serve.queue_wait_ms_p90", Quantile(queue_mid, 0.9), "ms");
  report->Metric("serve.exec_ms_p50", Quantile(exec_mid, 0.5), "ms");
  report->Metric("serve.shed_share", shed / all, "share");
  report->Metric("serve.retries", static_cast<double>(stats.retries), "count");
  const double denom = std::max(1.0, served);
  report->Metric("serve.tier_certified_share", tiers[0] / denom, "share");
  report->Metric("serve.tier_progressive_share", tiers[1] / denom, "share");
  report->Metric("serve.tier_coarse_share", tiers[2] / denom, "share");
  report->Metric("serve.tier_flat_share", tiers[3] / denom, "share");
  report->Metric("serve.swap_ms", Median(swap_ms), "ms");
  report->Metric("serve.post_swap_p90_ms", Quantile(post_swap, 0.9), "ms");
  report->Metric("serve.goodput_rps", goodput, "1/s");
  report->Metric("serve.max_rate_rps", max_rate, "1/s");
  report->Metric("serve.degraded_share", degraded / denom, "share");
  report->Metric("bench.gen_lag_ms_p99", Quantile(lag, 0.99), "ms");
  report->Metric("bench.failed_share",
                 static_cast<double>(report->failed) /
                     std::max<uint64_t>(1, report->attempted),
                 "share");
  return 0;
}

}  // namespace pb
