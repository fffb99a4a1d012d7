// Intra-frame rendering throughput of the frame engine
// (viz/parallel_render.h): the `serial` row is the engine at one thread with
// no pool, swept against more frame threads and against the shared-traversal
// tile refiner (--tile-shared analogue), plus the AoS-vs-SoA leaf-kernel
// microbenchmark that underpins the EXACT method. Prints pixels/sec tables
// and writes BENCH_frame.json for machine consumption — CI's perf smoke
// parses it.
//
// The benchmark doubles as an exactness check: every per-pixel engine frame
// is compared bitwise against per-pixel evaluation (one fresh-stream
// EvaluateEps / EvaluateTau call per pixel), every SoA leaf sum against its
// AoS oracle, and every tile-shared frame against the
// EvaluateExact oracle on a pixel sample (the tile-shared path returns
// different — but still certified — estimates, so the check is the ε
// certificate itself, not bit equality). Any violation fails the run with a
// non-zero exit.
//
// Scaling knobs: KDV_BENCH_SCALE (dataset cardinality, bench_common.h),
// KDV_BENCH_FRAME_PIXELS (square frame edge; default sweeps 512 and 1024),
// KDV_BENCH_FRAME_REPS (timed repetitions, best-of, default 3),
// KDV_BENCH_DIR (directory for BENCH_frame.json, default ".").
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"

namespace {

using kdv::BatchStats;
using kdv::BinaryFrame;
using kdv::DensityFrame;
using kdv::KdeEvaluator;
using kdv::PixelGrid;
using kdv::QueryControl;
using kdv::RenderOptions;
using kdv::ThreadPool;

std::vector<int> FramePixelsList() {
  const char* env = std::getenv("KDV_BENCH_FRAME_PIXELS");
  if (env != nullptr) {
    int v = std::atoi(env);
    if (v >= 16) return {v};
  }
  return {512, 1024};
}

int FrameReps() {
  const char* env = std::getenv("KDV_BENCH_FRAME_REPS");
  if (env != nullptr) {
    int v = std::atoi(env);
    if (v >= 1) return v;
  }
  return 3;
}

std::string BenchDir() {
  const char* env = std::getenv("KDV_BENCH_DIR");
  if (env != nullptr && env[0] != '\0') return env;
  return ".";
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool SameBits(const std::vector<uint8_t>& a, const std::vector<uint8_t>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size()) == 0);
}

struct FrameTiming {
  double eps_seconds = 0.0;  // best-of-reps wall time
  double tau_seconds = 0.0;
  uint64_t eps_nodes_visited = 0;  // per-pixel bound evaluations
  uint64_t tau_nodes_visited = 0;
  uint64_t tile_nodes_visited = 0;  // region bound evaluations (tile pass)
  uint64_t tiles_decided = 0;
  bool identical = true;  // engine output matched the per-pixel reference
  bool certified = true;  // tile-shared output satisfied its certificate
};

std::unique_ptr<ThreadPool> MakePool(int threads) {
  if (kdv::ResolveRenderThreads(threads) <= 1) return nullptr;
  ThreadPool::Options popts;
  popts.num_threads =
      static_cast<size_t>(kdv::ResolveRenderThreads(threads) - 1);
  popts.max_queue = 2 * popts.num_threads + 2;
  return std::make_unique<ThreadPool>(popts);
}

// Certificate oracle for the tile-shared path: on a deterministic pixel
// sample, the εKDV estimate must satisfy |est - F| <= eps·F and the τKDV
// mask must match the exact classification. Exact sums are expensive, so the
// sample is capped; stride keeps it spread over the whole frame.
bool CheckCertificates(const KdeEvaluator& evaluator, const PixelGrid& grid,
                       double eps, double tau, const DensityFrame& eps_frame,
                       const BinaryFrame& tau_frame) {
  const size_t total = static_cast<size_t>(grid.width()) * grid.height();
  const size_t sample = 256;
  const size_t stride = std::max<size_t>(1, total / sample);
  for (size_t i = 0; i < total; i += stride) {
    const int x = static_cast<int>(i) % grid.width();
    const int y = static_cast<int>(i) / grid.width();
    const double exact = evaluator.EvaluateExact(grid.PixelCenter(x, y));
    const double est = eps_frame.values[i];
    if (std::abs(est - exact) > eps * exact + 1e-12) {
      std::fprintf(stderr,
                   "certificate violation at pixel %zu: est=%.17g exact=%.17g "
                   "eps=%g\n",
                   i, est, exact, eps);
      return false;
    }
    const bool hot = exact >= tau;
    if ((tau_frame.values[i] != 0) != hot && exact != tau) {
      std::fprintf(stderr,
                   "tau misclassification at pixel %zu: exact=%.17g tau=%.17g "
                   "mask=%d\n",
                   i, exact, tau, static_cast<int>(tau_frame.values[i]));
      return false;
    }
  }
  return true;
}

// Renders the eps and tau frames `reps` times at `threads` frame threads
// and keeps the best wall time of each. Per-pixel engine frames are checked
// bitwise against the per-pixel references; tile-shared frames are checked
// against the certificate oracle instead.
FrameTiming TimeFrames(const KdeEvaluator& evaluator, const PixelGrid& grid,
                       double eps, double tau, int threads, bool tile_shared,
                       int reps, const DensityFrame* eps_baseline,
                       const BinaryFrame* tau_baseline) {
  FrameTiming timing;
  std::unique_ptr<ThreadPool> pool = MakePool(threads);
  RenderOptions options;
  options.num_threads = threads;
  options.tile_shared = tile_shared;
  QueryControl control;  // no deadline, not cancellable

  for (int rep = 0; rep < reps; ++rep) {
    BatchStats eps_stats;
    DensityFrame eps_frame = kdv::RenderEpsFrameParallel(
        evaluator, grid, eps, options, pool.get(), control, &eps_stats);
    BatchStats tau_stats;
    BinaryFrame tau_frame = kdv::RenderTauFrameParallel(
        evaluator, grid, tau, options, pool.get(), control, &tau_stats);
    if (rep == 0 || eps_stats.seconds < timing.eps_seconds) {
      timing.eps_seconds = eps_stats.seconds;
    }
    if (rep == 0 || tau_stats.seconds < timing.tau_seconds) {
      timing.tau_seconds = tau_stats.seconds;
    }
    if (rep == 0) {
      timing.eps_nodes_visited = eps_stats.nodes_visited;
      timing.tau_nodes_visited = tau_stats.nodes_visited;
      timing.tile_nodes_visited =
          eps_stats.tile_nodes_visited + tau_stats.tile_nodes_visited;
      timing.tiles_decided = eps_stats.tiles_decided + tau_stats.tiles_decided;
      if (tile_shared) {
        timing.certified = CheckCertificates(evaluator, grid, eps, tau,
                                             eps_frame, tau_frame);
      }
    }
    if (!tile_shared && eps_baseline != nullptr &&
        !SameBits(eps_frame.values, eps_baseline->values)) {
      timing.identical = false;
    }
    if (tau_baseline != nullptr &&
        !SameBits(tau_frame.values, tau_baseline->values)) {
      // τKDV masks must agree bit-for-bit even tile-shared: both paths are
      // certified classifiers of the same predicate.
      timing.identical = false;
    }
  }
  return timing;
}

struct LeafTiming {
  double aos_seconds = 0.0;
  double soa_seconds = 0.0;
  uint64_t point_sums = 0;  // queries x points per timed pass
  bool identical = true;
};

// Times whole-root LeafSumAoS vs LeafSumSoA (the EXACT method's inner loop)
// over the grid's pixel centers, best-of-reps, checking bit-equality of
// every pair of sums.
LeafTiming TimeLeafKernels(const kdv::KdTree& tree,
                           const kdv::KernelParams& params,
                           const PixelGrid& grid, int reps) {
  // Enough queries to dominate timer overhead, few enough that the AoS
  // pass stays fast at full scale.
  std::vector<kdv::Point> queries = grid.AllPixelCenters();
  const size_t max_queries = 4096;
  if (queries.size() > max_queries) queries.resize(max_queries);
  const uint32_t n = static_cast<uint32_t>(tree.num_points());

  LeafTiming timing;
  timing.point_sums = static_cast<uint64_t>(queries.size()) * n;
  std::vector<double> aos_sums(queries.size());
  std::vector<double> soa_sums(queries.size());
  for (int rep = 0; rep < reps; ++rep) {
    kdv::Timer aos_timer;
    for (size_t i = 0; i < queries.size(); ++i) {
      aos_sums[i] = kdv::LeafSumAoS(tree, params, 0, n, queries[i]);
    }
    double aos_seconds = aos_timer.ElapsedSeconds();
    kdv::Timer soa_timer;
    for (size_t i = 0; i < queries.size(); ++i) {
      soa_sums[i] = kdv::LeafSumSoA(tree, params, 0, n, queries[i]);
    }
    double soa_seconds = soa_timer.ElapsedSeconds();
    if (rep == 0 || aos_seconds < timing.aos_seconds) {
      timing.aos_seconds = aos_seconds;
    }
    if (rep == 0 || soa_seconds < timing.soa_seconds) {
      timing.soa_seconds = soa_seconds;
    }
    if (!SameBits(aos_sums, soa_sums)) timing.identical = false;
  }
  return timing;
}

double PixelsPerSec(const PixelGrid& grid, double seconds) {
  return seconds > 0.0
             ? static_cast<double>(grid.width()) * grid.height() / seconds
             : 0.0;
}

double PixelsPerSec(int px, double seconds) {
  return seconds > 0.0 ? static_cast<double>(px) * px / seconds : 0.0;
}

struct Sweep {
  int threads;
  bool tile_shared;
  FrameTiming timing;
};

struct ResolutionReport {
  int px = 0;
  double tau = 0.0;
  FrameTiming serial;
  std::vector<Sweep> sweeps;
};

}  // namespace

int main() {
  using namespace kdv;
  kdv_bench::PrintHeader(
      "Frame", "intra-frame parallel + tile-shared rendering, 1 vs N frame "
               "threads (crime analogue, eps=0.05, tau=mean density)");

  const std::vector<int> pixel_sweep = FramePixelsList();
  const int reps = FrameReps();
  Workbench bench(GenerateMixture(CrimeSpec(kdv_bench::BenchScale())),
                  KernelType::kGaussian);
  KdeEvaluator evaluator = bench.MakeEvaluator(Method::kQuad);
  const double eps = 0.05;

  std::printf("n=%zu, reps=%d (best-of), hardware threads %u, simd %s\n",
              bench.num_points(), reps, std::thread::hardware_concurrency(),
              SimdLevelName(ActiveSimdLevel()));

  const int thread_counts[] = {1, 2, 4, 8};
  const int shared_threads[] = {1, 8};
  std::vector<ResolutionReport> reports;
  bool all_identical = true;
  bool all_certified = true;

  for (int px : pixel_sweep) {
    ResolutionReport report;
    report.px = px;
    PixelGrid grid(px, px, bench.data_bounds());
    report.tau = EstimateDensityStats(evaluator, grid, /*stride=*/8).mean;
    const double tau = report.tau;

    // Bit-exactness oracle: per-pixel evaluation, independent of the engine.
    DensityFrame eps_baseline(px, px);
    BinaryFrame tau_baseline(px, px);
    for (int py = 0; py < px; ++py) {
      for (int x = 0; x < px; ++x) {
        const Point q = grid.PixelCenter(x, py);
        eps_baseline.values[grid.PixelIndex(x, py)] =
            evaluator.EvaluateEps(q, eps).estimate;
        tau_baseline.values[grid.PixelIndex(x, py)] =
            evaluator.EvaluateTau(q, tau).above_threshold ? 1 : 0;
      }
    }
    // Timing reference: the engine at one thread, no pool.
    report.serial = TimeFrames(evaluator, grid, eps, tau, /*threads=*/1,
                               /*tile_shared=*/false, reps, &eps_baseline,
                               &tau_baseline);

    std::printf("\n-- frame %dx%d --\n", px, px);
    std::printf("%14s %14s %14s %10s %12s %6s\n", "config", "eps px/sec",
                "tau px/sec", "eps spdup", "node evals", "ok");
    std::printf("%14s %14.0f %14.0f %10.2f %12llu %6s\n", "serial",
                PixelsPerSec(grid, report.serial.eps_seconds),
                PixelsPerSec(grid, report.serial.tau_seconds), 1.0,
                static_cast<unsigned long long>(
                    report.serial.eps_nodes_visited),
                report.serial.identical ? "yes" : "NO");
    all_identical = all_identical && report.serial.identical;

    for (int threads : thread_counts) {
      FrameTiming t = TimeFrames(evaluator, grid, eps, tau, threads,
                                 /*tile_shared=*/false, reps, &eps_baseline,
                                 &tau_baseline);
      all_identical = all_identical && t.identical;
      report.sweeps.push_back({threads, false, t});
      char label[32];
      std::snprintf(label, sizeof(label), "par-%d", threads);
      std::printf("%14s %14.0f %14.0f %10.2f %12llu %6s\n", label,
                  PixelsPerSec(grid, t.eps_seconds),
                  PixelsPerSec(grid, t.tau_seconds),
                  t.eps_seconds > 0.0
                      ? report.serial.eps_seconds / t.eps_seconds
                      : 0.0,
                  static_cast<unsigned long long>(t.eps_nodes_visited),
                  t.identical ? "yes" : "NO");
    }
    for (int threads : shared_threads) {
      FrameTiming t = TimeFrames(evaluator, grid, eps, tau, threads,
                                 /*tile_shared=*/true, reps,
                                 /*eps_baseline=*/nullptr, &tau_baseline);
      all_identical = all_identical && t.identical;
      all_certified = all_certified && t.certified;
      report.sweeps.push_back({threads, true, t});
      char label[32];
      std::snprintf(label, sizeof(label), "shared-%d", threads);
      std::printf("%14s %14.0f %14.0f %10.2f %12llu %6s\n", label,
                  PixelsPerSec(grid, t.eps_seconds),
                  PixelsPerSec(grid, t.tau_seconds),
                  t.eps_seconds > 0.0
                      ? report.serial.eps_seconds / t.eps_seconds
                      : 0.0,
                  static_cast<unsigned long long>(t.eps_nodes_visited),
                  t.identical && t.certified ? "yes" : "NO");
    }
    reports.push_back(std::move(report));
  }

  PixelGrid leaf_grid(reports.front().px, reports.front().px,
                      bench.data_bounds());
  LeafTiming leaf = TimeLeafKernels(bench.tree(), bench.params(), leaf_grid,
                                    reps);
  all_identical = all_identical && leaf.identical;
  const double aos_pps =
      leaf.aos_seconds > 0.0 ? leaf.point_sums / leaf.aos_seconds : 0.0;
  const double soa_pps =
      leaf.soa_seconds > 0.0 ? leaf.point_sums / leaf.soa_seconds : 0.0;
  std::printf("\nleaf kernel (EXACT whole-root sum, %llu point-sums/pass):\n",
              static_cast<unsigned long long>(leaf.point_sums));
  std::printf("%10s %14.3g points/sec\n", "AoS", aos_pps);
  std::printf("%10s %14.3g points/sec (%.2fx, bitwise %s)\n", "SoA", soa_pps,
              leaf.aos_seconds > 0.0 && leaf.soa_seconds > 0.0
                  ? leaf.aos_seconds / leaf.soa_seconds
                  : 0.0,
              leaf.identical ? "equal" : "UNEQUAL");

  // Stream to a temp and publish atomically: a crashed or interrupted bench
  // never leaves a truncated BENCH_frame.json for CI to parse.
  const std::string json_path = BenchDir() + "/BENCH_frame.json";
  const std::string json_temp = kdv::TempPathFor(json_path);
  std::FILE* json = std::fopen(json_temp.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_temp.c_str());
    return 1;
  }
  std::fprintf(json, "{\"bench\":\"frame_parallel\",");
  std::fprintf(json, "\"build\":\"%s\",\"simd\":\"%s\",",
               kdv::BuildStamp().c_str(),
               SimdLevelName(ActiveSimdLevel()));
  std::fprintf(json, "\"dataset\":\"crime\",\"scale\":%.6g,",
               kdv_bench::BenchScale());
  std::fprintf(json, "\"num_points\":%zu,\"reps\":%d,", bench.num_points(),
               reps);
  std::fprintf(json, "\"hardware_threads\":%u,",
               std::thread::hardware_concurrency());
  std::fprintf(json, "\"eps\":%.6g,", eps);
  std::fprintf(json, "\"bitwise_identical\":%s,",
               all_identical ? "true" : "false");
  std::fprintf(json, "\"certified\":%s,", all_certified ? "true" : "false");
  std::fprintf(json, "\"resolutions\":[");
  for (size_t r = 0; r < reports.size(); ++r) {
    const ResolutionReport& report = reports[r];
    std::fprintf(json, "%s{\"width\":%d,\"height\":%d,\"tau\":%.17g,",
                 r == 0 ? "" : ",", report.px, report.px, report.tau);
    std::fprintf(json,
                 "\"serial\":{\"eps_pixels_per_sec\":%.3f,"
                 "\"tau_pixels_per_sec\":%.3f,"
                 "\"eps_nodes_visited\":%llu,\"tau_nodes_visited\":%llu},",
                 PixelsPerSec(report.px, report.serial.eps_seconds),
                 PixelsPerSec(report.px, report.serial.tau_seconds),
                 static_cast<unsigned long long>(
                     report.serial.eps_nodes_visited),
                 static_cast<unsigned long long>(
                     report.serial.tau_nodes_visited));
    std::fprintf(json, "\"sweeps\":[");
    for (size_t i = 0; i < report.sweeps.size(); ++i) {
      const Sweep& s = report.sweeps[i];
      std::fprintf(
          json,
          "%s{\"threads\":%d,\"tile_shared\":%s,"
          "\"eps_pixels_per_sec\":%.3f,\"tau_pixels_per_sec\":%.3f,"
          "\"eps_speedup\":%.4f,\"tau_speedup\":%.4f,"
          "\"eps_nodes_visited\":%llu,\"tau_nodes_visited\":%llu,"
          "\"tile_nodes_visited\":%llu,\"tiles_decided\":%llu}",
          i == 0 ? "" : ",", s.threads, s.tile_shared ? "true" : "false",
          PixelsPerSec(report.px, s.timing.eps_seconds),
          PixelsPerSec(report.px, s.timing.tau_seconds),
          s.timing.eps_seconds > 0.0
              ? report.serial.eps_seconds / s.timing.eps_seconds
              : 0.0,
          s.timing.tau_seconds > 0.0
              ? report.serial.tau_seconds / s.timing.tau_seconds
              : 0.0,
          static_cast<unsigned long long>(s.timing.eps_nodes_visited),
          static_cast<unsigned long long>(s.timing.tau_nodes_visited),
          static_cast<unsigned long long>(s.timing.tile_nodes_visited),
          static_cast<unsigned long long>(s.timing.tiles_decided));
    }
    std::fprintf(json, "]}");
  }
  std::fprintf(json, "],");
  // Observability block: the process metric registry after the sweeps —
  // per-stage duration quantiles and the bound-evals-per-pixel histogram
  // the renders recorded (pre-escaped JSON from JsonWriter).
  std::fprintf(json, "\"metrics\":%s,",
               kdv_bench::MetricsBlockJson().c_str());
  std::fprintf(json,
               "\"leaf_kernel\":{\"aos_points_per_sec\":%.3f,"
               "\"soa_points_per_sec\":%.3f,\"soa_speedup\":%.4f}}\n",
               aos_pps, soa_pps,
               leaf.aos_seconds > 0.0 && leaf.soa_seconds > 0.0
                   ? leaf.aos_seconds / leaf.soa_seconds
                   : 0.0);
  std::fclose(json);
  kdv::Status published = kdv::AtomicPublish(json_temp, json_path);
  if (!published.ok()) {
    std::fprintf(stderr, "cannot publish %s: %s\n", json_path.c_str(),
                 published.ToString().c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", json_path.c_str());

  if (!all_identical || !all_certified) {
    std::fprintf(stderr,
                 "FAIL: parallel/SoA output diverged from its baseline or a "
                 "tile-shared certificate was violated\n");
    return 1;
  }
  return 0;
}
