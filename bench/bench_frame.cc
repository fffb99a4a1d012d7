// Intra-frame rendering throughput of the frame engine
// (viz/parallel_render.h) against a one-thread per-pixel loop (one
// root-seeded EvaluateEps / EvaluateTau per pixel, no engine), swept over
// frame threads — the `serial` row is the engine at one thread with no
// pool — plus the AoS-vs-SoA leaf-kernel microbenchmark that underpins the
// EXACT method. Prints pixels/sec tables and writes BENCH_frame.json for
// machine consumption — CI's perf smoke parses it.
//
// The benchmark doubles as an exactness check, and any violation fails the
// run with a non-zero exit:
//   * bitwise_identical — every engine frame equals the independent chunk
//     oracle of tests/chunk_oracle.h (per chunk: one region pass, then a
//     seeded evaluation or the decided fill per pixel) byte for byte; EXACT
//     frames equal per-pixel
//     EvaluateExact; every SoA leaf sum equals its AoS oracle;
//   * certified — εKDV estimates meet |est - F| <= eps·F against
//     EvaluateExact on a pixel sample, and τKDV masks equal the per-pixel
//     masks.
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

#include "../tests/chunk_oracle.h"
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
  bool identical = true;  // engine output matched the chunk oracle
};

std::unique_ptr<ThreadPool> MakePool(int threads) {
  if (kdv::ResolveRenderThreads(threads) <= 1) return nullptr;
  ThreadPool::Options popts;
  popts.num_threads =
      static_cast<size_t>(kdv::ResolveRenderThreads(threads) - 1);
  popts.max_queue = 2 * popts.num_threads + 2;
  return std::make_unique<ThreadPool>(popts);
}

// Certificate oracle on a deterministic pixel sample: the εKDV estimate
// must satisfy |est - F| <= eps·F against EvaluateExact. Exact sums are
// expensive, so the sample is capped; stride keeps it spread over the
// whole frame.
bool CheckEpsCertificates(const KdeEvaluator& evaluator,
                          const PixelGrid& grid, double eps,
                          const DensityFrame& eps_frame) {
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
  }
  return true;
}

// The one-thread per-pixel loop the engine is measured against: a
// root-seeded EvaluateEps / EvaluateTau per pixel with one reused scratch
// stream. Fills the per-pixel τ mask the engine's masks must equal.
FrameTiming TimePerPixel(const KdeEvaluator& evaluator, const PixelGrid& grid,
                         double eps, double tau, int reps,
                         BinaryFrame* tau_mask) {
  FrameTiming timing;
  kdv::RefinementStream scratch = evaluator.MakeScratch();
  const QueryControl control;
  for (int rep = 0; rep < reps; ++rep) {
    BatchStats eps_stats, tau_stats;
    kdv::Timer eps_timer;
    for (int y = 0; y < grid.height(); ++y) {
      for (int x = 0; x < grid.width(); ++x) {
        kdv::AccumulateQueryStats(
            &eps_stats, evaluator.EvaluateEps(grid.PixelCenter(x, y), eps,
                                              control, &scratch));
      }
    }
    const double eps_seconds = eps_timer.ElapsedSeconds();
    kdv::Timer tau_timer;
    for (int y = 0; y < grid.height(); ++y) {
      for (int x = 0; x < grid.width(); ++x) {
        kdv::TauResult r = evaluator.EvaluateTau(grid.PixelCenter(x, y), tau,
                                                 control, &scratch);
        kdv::AccumulateQueryStats(&tau_stats, r);
        tau_mask->values[grid.PixelIndex(x, y)] = r.above_threshold ? 1 : 0;
      }
    }
    const double tau_seconds = tau_timer.ElapsedSeconds();
    if (rep == 0 || eps_seconds < timing.eps_seconds) {
      timing.eps_seconds = eps_seconds;
    }
    if (rep == 0 || tau_seconds < timing.tau_seconds) {
      timing.tau_seconds = tau_seconds;
    }
    timing.eps_nodes_visited = eps_stats.nodes_visited;
    timing.tau_nodes_visited = tau_stats.nodes_visited;
  }
  return timing;
}

// Renders the eps and tau frames `reps` times at `threads` frame threads
// and keeps the best wall time of each; every frame is checked bitwise
// against the chunk oracle.
FrameTiming TimeFrames(const KdeEvaluator& evaluator, const PixelGrid& grid,
                       double eps, double tau, int threads, int reps,
                       const DensityFrame& eps_oracle,
                       const BinaryFrame& tau_oracle) {
  FrameTiming timing;
  std::unique_ptr<ThreadPool> pool = MakePool(threads);
  RenderOptions options;
  options.num_threads = threads;
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
    }
    if (!SameBits(eps_frame.values, eps_oracle.values) ||
        !SameBits(tau_frame.values, tau_oracle.values)) {
      timing.identical = false;
    }
  }
  return timing;
}

// EXACT frames keep the per-pixel contract: at every swept thread count the
// engine's frame equals per-pixel EvaluateExact bitwise. Run on a small
// grid — every pixel is a full scan.
bool ExactFramesIdentical(const KdeEvaluator& exact, const kdv::Rect& domain,
                          const int* thread_counts, size_t num_counts) {
  const PixelGrid grid(48, 36, domain);
  DensityFrame reference(grid.width(), grid.height());
  for (int y = 0; y < grid.height(); ++y) {
    for (int x = 0; x < grid.width(); ++x) {
      reference.values[grid.PixelIndex(x, y)] =
          exact.EvaluateExact(grid.PixelCenter(x, y));
    }
  }
  for (size_t i = 0; i < num_counts; ++i) {
    std::unique_ptr<ThreadPool> pool = MakePool(thread_counts[i]);
    RenderOptions options;
    options.num_threads = thread_counts[i];
    DensityFrame frame = kdv::RenderExactFrameParallel(
        exact, grid, options, pool.get(), QueryControl(), nullptr);
    if (!SameBits(frame.values, reference.values)) return false;
  }
  return true;
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
  FrameTiming timing;
};

struct ResolutionReport {
  int px = 0;
  double tau = 0.0;
  FrameTiming per_pixel;
  FrameTiming serial;
  std::vector<Sweep> sweeps;
};

void PrintRow(const char* label, const PixelGrid& grid, const FrameTiming& t,
              const FrameTiming& per_pixel, bool ok) {
  std::printf("%14s %14.0f %14.0f %10.2f %12llu %6s\n", label,
              PixelsPerSec(grid, t.eps_seconds),
              PixelsPerSec(grid, t.tau_seconds),
              t.eps_seconds > 0.0 ? per_pixel.eps_seconds / t.eps_seconds
                                  : 0.0,
              static_cast<unsigned long long>(t.eps_nodes_visited),
              ok ? "yes" : "NO");
}

}  // namespace

int main() {
  using namespace kdv;
  kdv_bench::PrintHeader(
      "Frame", "frame engine vs one-thread per-pixel loop, 1 vs N frame "
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
  std::vector<ResolutionReport> reports;
  bool all_identical = true;
  bool all_certified = true;

  for (int px : pixel_sweep) {
    ResolutionReport report;
    report.px = px;
    PixelGrid grid(px, px, bench.data_bounds());
    report.tau = EstimateDensityStats(evaluator, grid, /*stride=*/8).mean;
    const double tau = report.tau;

    // Bit-exactness oracle, independent of the engine.
    DensityFrame eps_oracle(px, px);
    BinaryFrame tau_oracle(px, px);
    eps_oracle.values =
        ChunkOracleEps(evaluator, grid, eps, RenderOptions().tile_rows);
    tau_oracle.values =
        ChunkOracleTau(evaluator, grid, tau, RenderOptions().tile_rows);
    const bool certified =
        CheckEpsCertificates(evaluator, grid, eps, eps_oracle);
    // Speed reference, and the per-pixel τ mask the engine's must equal.
    BinaryFrame tau_mask(px, px);
    report.per_pixel = TimePerPixel(evaluator, grid, eps, tau, reps,
                                    &tau_mask);
    const bool masks_equal = SameBits(tau_mask.values, tau_oracle.values);
    if (!masks_equal) {
      std::fprintf(stderr, "τ mask differs from the per-pixel mask\n");
    }
    all_certified = all_certified && certified && masks_equal;
    // Timing reference: the engine at one thread, no pool.
    report.serial = TimeFrames(evaluator, grid, eps, tau, /*threads=*/1,
                               reps, eps_oracle, tau_oracle);
    all_identical = all_identical && report.serial.identical;

    std::printf("\n-- frame %dx%d --\n", px, px);
    std::printf("%14s %14s %14s %10s %12s %6s\n", "config", "eps px/sec",
                "tau px/sec", "vs pixel", "node evals", "ok");
    PrintRow("per-pixel", grid, report.per_pixel, report.per_pixel,
             certified && masks_equal);
    PrintRow("serial", grid, report.serial, report.per_pixel,
             report.serial.identical);
    for (int threads : thread_counts) {
      FrameTiming t = TimeFrames(evaluator, grid, eps, tau, threads, reps,
                                 eps_oracle, tau_oracle);
      all_identical = all_identical && t.identical;
      report.sweeps.push_back({threads, t});
      char label[32];
      std::snprintf(label, sizeof(label), "par-%d", threads);
      PrintRow(label, grid, t, report.per_pixel, t.identical);
    }
    reports.push_back(std::move(report));
  }

  KdeEvaluator exact = bench.MakeEvaluator(Method::kExact);
  const bool exact_identical =
      ExactFramesIdentical(exact, bench.data_bounds(), thread_counts,
                           sizeof(thread_counts) / sizeof(thread_counts[0]));
  std::printf("\nEXACT frames vs per-pixel EvaluateExact: bitwise %s\n",
              exact_identical ? "equal" : "UNEQUAL");
  all_identical = all_identical && exact_identical;

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
    for (const auto& [name, t] :
         {std::pair<const char*, const FrameTiming*>{"per_pixel",
                                                     &report.per_pixel},
          {"serial", &report.serial}}) {
      std::fprintf(json,
                   "\"%s\":{\"eps_pixels_per_sec\":%.3f,"
                   "\"tau_pixels_per_sec\":%.3f,"
                   "\"eps_nodes_visited\":%llu,\"tau_nodes_visited\":%llu},",
                   name, PixelsPerSec(report.px, t->eps_seconds),
                   PixelsPerSec(report.px, t->tau_seconds),
                   static_cast<unsigned long long>(t->eps_nodes_visited),
                   static_cast<unsigned long long>(t->tau_nodes_visited));
    }
    std::fprintf(json, "\"sweeps\":[");
    for (size_t i = 0; i < report.sweeps.size(); ++i) {
      const Sweep& s = report.sweeps[i];
      std::fprintf(
          json,
          "%s{\"threads\":%d,"
          "\"eps_pixels_per_sec\":%.3f,\"tau_pixels_per_sec\":%.3f,"
          "\"eps_speedup\":%.4f,\"tau_speedup\":%.4f,"
          "\"eps_nodes_visited\":%llu,\"tau_nodes_visited\":%llu,"
          "\"tile_nodes_visited\":%llu,\"tiles_decided\":%llu}",
          i == 0 ? "" : ",", s.threads,
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
                 "FAIL: engine/SoA output diverged from its oracle or a "
                 "certificate was violated\n");
    return 1;
  }
  return 0;
}
