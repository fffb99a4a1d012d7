// Determinism and robustness suite for the intra-frame parallel renderer
// and the SoA/scratch machinery beneath it.
//
// The load-bearing property is the frame contract of viz/parallel_render.h:
// a pixel's value depends only on its chunk geometry and its own center.
// For bounded methods on 2-d indexes an engine frame must equal the
// independent chunk oracle (tests/chunk_oracle.h: a per-chunk region pass,
// then one seeded evaluation per pixel) byte for byte, for every operation,
// thread count, tile size and pixel order, while its ε certificates hold
// against EvaluateExact and its τ masks equal the per-pixel masks. EXACT
// frames stay bit-identical to per-pixel evaluation. Beneath it, two
// refactors carry the same contract at smaller scope: the SoA leaf kernel
// must match the AoS scalar loop bitwise, and a Reset() scratch stream must
// be indistinguishable from a freshly constructed one.
//
// Everything here runs clean under ThreadSanitizer; CI's tsan job pulls the
// suite in via `ctest -L concurrency`.
#include "viz/parallel_render.h"

#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "chunk_oracle.h"
#include "core/evaluator.h"
#include "core/leaf_kernel.h"
#include "core/refinement_stream.h"
#include "data/datasets.h"
#include "stats/density_stats.h"
#include "index/kdtree.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "workbench/workbench.h"

namespace kdv {
namespace {

PointSet TestDataset(size_t n = 1500, uint64_t seed = 21) {
  MixtureSpec spec;
  spec.n = n;
  spec.num_clusters = 4;
  spec.seed = seed;
  return GenerateMixture(spec);
}

std::unique_ptr<Workbench> MakeBench(
    KernelType kernel = KernelType::kGaussian) {
  StatusOr<std::unique_ptr<Workbench>> bench =
      Workbench::Create(TestDataset(), kernel);
  EXPECT_TRUE(bench.ok()) << bench.status().ToString();
  return *std::move(bench);
}

uint64_t Bits(double v) {
  uint64_t out;
  std::memcpy(&out, &v, sizeof(out));
  return out;
}

// Bitwise frame comparison: memcmp, not operator==, so -0.0 vs 0.0 or NaN
// payload differences cannot hide.
::testing::AssertionResult FramesBitIdentical(
    const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "size mismatch: " << a.size() << " vs " << b.size();
  }
  if (std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) != 0) {
    for (size_t i = 0; i < a.size(); ++i) {
      if (Bits(a[i]) != Bits(b[i])) {
        return ::testing::AssertionFailure()
               << "first divergence at pixel " << i << ": " << a[i] << " vs "
               << b[i];
      }
    }
  }
  return ::testing::AssertionSuccess();
}

// Independent per-pixel references: one fresh-stream evaluator call per
// pixel, with the work counters of each call summed by hand.
void CountQuery(BatchStats* stats, uint64_t iterations, uint64_t points,
                uint64_t nodes, bool numeric_fault) {
  ++stats->queries;
  stats->iterations += iterations;
  stats->points_scanned += points;
  stats->nodes_visited += nodes;
  if (numeric_fault) ++stats->numeric_faults;
}

std::vector<uint8_t> PerPixelTau(const KdeEvaluator& evaluator,
                                 const PixelGrid& grid, double tau,
                                 BatchStats* stats) {
  std::vector<uint8_t> out(grid.num_pixels());
  for (int py = 0; py < grid.height(); ++py) {
    for (int px = 0; px < grid.width(); ++px) {
      TauResult r = evaluator.EvaluateTau(grid.PixelCenter(px, py), tau);
      out[grid.PixelIndex(px, py)] = r.above_threshold ? 1 : 0;
      CountQuery(stats, r.iterations, r.points_scanned, r.node_evals,
                 r.numeric_fault);
    }
  }
  return out;
}

std::vector<double> PerPixelExact(const KdeEvaluator& evaluator,
                                  const PixelGrid& grid, BatchStats* stats) {
  std::vector<double> out(grid.num_pixels());
  for (int py = 0; py < grid.height(); ++py) {
    for (int px = 0; px < grid.width(); ++px) {
      out[grid.PixelIndex(px, py)] =
          evaluator.EvaluateExact(grid.PixelCenter(px, py));
      CountQuery(stats, 0, evaluator.tree().num_points(), 0, false);
    }
  }
  return out;
}

// Every pixel within ε of EvaluateExact (plus a rounding slack).
::testing::AssertionResult WithinEps(const KdeEvaluator& evaluator,
                                     const PixelGrid& grid, double eps,
                                     const std::vector<double>& values) {
  for (int py = 0; py < grid.height(); ++py) {
    for (int px = 0; px < grid.width(); ++px) {
      const double exact = evaluator.EvaluateExact(grid.PixelCenter(px, py));
      const double v = values[grid.PixelIndex(px, py)];
      if (!(std::abs(v - exact) <= eps * exact * (1.0 + 1e-9))) {
        return ::testing::AssertionFailure()
               << "pixel (" << px << "," << py << "): value " << v
               << " exact " << exact << " eps " << eps;
      }
    }
  }
  return ::testing::AssertionSuccess();
}

// ---------------------------------------------------------------------------
// Engine frame == chunk oracle, bitwise
// ---------------------------------------------------------------------------

struct ParallelCase {
  int num_threads;
  int tile_rows;
};

std::string CaseName(const ::testing::TestParamInfo<ParallelCase>& info) {
  return "t" + std::to_string(info.param.num_threads) + "_rows" +
         std::to_string(info.param.tile_rows);
}

class ParallelEquivalenceTest : public ::testing::TestWithParam<ParallelCase> {
};

TEST_P(ParallelEquivalenceTest, EpsFrameBitIdenticalToChunkOracle) {
  const ParallelCase param = GetParam();
  auto bench = MakeBench();
  KdeEvaluator evaluator = bench->MakeEvaluator(Method::kQuad);
  PixelGrid grid(40, 30, bench->data_bounds());

  BatchStats ref_stats;
  const std::vector<double> reference =
      ChunkOracleEps(evaluator, grid, 0.05, param.tile_rows, &ref_stats);
  EXPECT_TRUE(WithinEps(evaluator, grid, 0.05, reference));

  ThreadPool pool({/*num_threads=*/4, /*max_queue=*/64});
  RenderOptions options;
  options.num_threads = param.num_threads;
  options.tile_rows = param.tile_rows;
  BatchStats stats;
  DensityFrame parallel = RenderEpsFrameParallel(
      evaluator, grid, 0.05, options, &pool, QueryControl(), &stats);

  EXPECT_TRUE(FramesBitIdentical(reference, parallel.values));
  EXPECT_TRUE(stats.completed);
  // Per-item accounting merged in item order must equal the oracle's sums.
  EXPECT_EQ(stats.queries, ref_stats.queries);
  EXPECT_EQ(stats.iterations, ref_stats.iterations);
  EXPECT_EQ(stats.points_scanned, ref_stats.points_scanned);
  EXPECT_EQ(stats.nodes_visited, ref_stats.nodes_visited);
  EXPECT_EQ(stats.numeric_faults, ref_stats.numeric_faults);
  EXPECT_EQ(stats.tile_nodes_visited, ref_stats.tile_nodes_visited);
  EXPECT_EQ(stats.tiles_decided, ref_stats.tiles_decided);

  // The same frame through a caller-given pixel order (reversed row-major)
  // is the same bytes and work, and marks every pixel evaluated.
  std::vector<uint32_t> order(grid.num_pixels());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<uint32_t>(order.size() - 1 - i);
  }
  BatchStats ordered_stats;
  std::vector<uint8_t> evaluated;
  DensityFrame ordered =
      RenderEpsFrameInOrder(evaluator, grid, 0.05, order, options, &pool,
                            QueryControl(), &ordered_stats, &evaluated);
  EXPECT_TRUE(FramesBitIdentical(reference, ordered.values));
  EXPECT_TRUE(ordered_stats.completed);
  EXPECT_EQ(ordered_stats.queries, ref_stats.queries);
  EXPECT_EQ(ordered_stats.iterations, ref_stats.iterations);
  EXPECT_EQ(ordered_stats.nodes_visited, ref_stats.nodes_visited);
  EXPECT_EQ(ordered_stats.tile_nodes_visited, ref_stats.tile_nodes_visited);
  EXPECT_EQ(evaluated, std::vector<uint8_t>(grid.num_pixels(), 1));
}

TEST_P(ParallelEquivalenceTest, TauFrameBitIdenticalToChunkOracle) {
  const ParallelCase param = GetParam();
  auto bench = MakeBench();
  KdeEvaluator evaluator = bench->MakeEvaluator(Method::kQuad);
  PixelGrid grid(40, 30, bench->data_bounds());
  const double tau = 0.3;

  BatchStats ref_stats;
  const std::vector<uint8_t> reference =
      ChunkOracleTau(evaluator, grid, tau, param.tile_rows, &ref_stats);
  BatchStats per_pixel_stats;
  EXPECT_EQ(reference, PerPixelTau(evaluator, grid, tau, &per_pixel_stats));

  ThreadPool pool({/*num_threads=*/4, /*max_queue=*/64});
  RenderOptions options;
  options.num_threads = param.num_threads;
  options.tile_rows = param.tile_rows;
  BatchStats stats;
  BinaryFrame parallel = RenderTauFrameParallel(
      evaluator, grid, tau, options, &pool, QueryControl(), &stats);

  EXPECT_EQ(reference, parallel.values);
  EXPECT_TRUE(stats.completed);
  EXPECT_EQ(stats.queries, ref_stats.queries);
  EXPECT_EQ(stats.iterations, ref_stats.iterations);
  EXPECT_EQ(stats.points_scanned, ref_stats.points_scanned);
  EXPECT_EQ(stats.nodes_visited, ref_stats.nodes_visited);
  EXPECT_EQ(stats.tile_nodes_visited, ref_stats.tile_nodes_visited);
  EXPECT_EQ(stats.tiles_decided, ref_stats.tiles_decided);
}

TEST_P(ParallelEquivalenceTest, ExactFrameBitIdenticalToPerPixel) {
  const ParallelCase param = GetParam();
  auto bench = MakeBench();
  KdeEvaluator evaluator = bench->MakeEvaluator(Method::kExact);
  PixelGrid grid(24, 18, bench->data_bounds());

  BatchStats ref_stats;
  const std::vector<double> reference =
      PerPixelExact(evaluator, grid, &ref_stats);

  ThreadPool pool({/*num_threads=*/4, /*max_queue=*/64});
  RenderOptions options;
  options.num_threads = param.num_threads;
  options.tile_rows = param.tile_rows;
  BatchStats stats;
  DensityFrame parallel = RenderExactFrameParallel(
      evaluator, grid, options, &pool, QueryControl(), &stats);

  EXPECT_TRUE(FramesBitIdentical(reference, parallel.values));
  EXPECT_TRUE(stats.completed);
  EXPECT_EQ(stats.queries, ref_stats.queries);
  EXPECT_EQ(stats.points_scanned, ref_stats.points_scanned);
}

INSTANTIATE_TEST_SUITE_P(
    ThreadAndTileSweep, ParallelEquivalenceTest,
    ::testing::Values(ParallelCase{1, 16},   // caller renders every band
                      ParallelCase{2, 16},   // fewer helpers than tiles
                      ParallelCase{4, 5},    // uneven tile split
                      ParallelCase{8, 1},    // one row per tile
                      ParallelCase{8, 64},   // one tile bigger than the frame
                      ParallelCase{0, 16}),  // hardware autodetect
    CaseName);

// A pool with no free capacity sheds every helper; the caller renders the
// whole frame itself and the result is still bit-identical to the chunk
// oracle.
TEST(ParallelRenderTest, SaturatedPoolDegradesToCallerOnly) {
  auto bench = MakeBench();
  KdeEvaluator evaluator = bench->MakeEvaluator(Method::kQuad);
  PixelGrid grid(32, 24, bench->data_bounds());

  BatchStats ref_stats;
  const std::vector<double> reference =
      ChunkOracleEps(evaluator, grid, 0.05, /*tile_rows=*/4, &ref_stats);

  // One parked worker plus a full one-slot queue: every TrySubmit from the
  // renderer is rejected with kResourceExhausted.
  ThreadPool pool({/*num_threads=*/1, /*max_queue=*/1});
  std::atomic<bool> release{false};
  auto park = [&release] {
    while (!release.load()) {
      std::this_thread::yield();
    }
  };
  ASSERT_TRUE(pool.TrySubmit(park).ok());
  while (pool.queue_depth() > 0) {
    std::this_thread::yield();  // wait for the worker to pick up the parker
  }
  ASSERT_TRUE(pool.TrySubmit(park).ok());  // fills the single queue slot

  RenderOptions options;
  options.num_threads = 8;
  options.tile_rows = 4;
  BatchStats stats;
  DensityFrame parallel = RenderEpsFrameParallel(
      evaluator, grid, 0.05, options, &pool, QueryControl(), &stats);
  release.store(true);
  pool.Stop();

  EXPECT_TRUE(FramesBitIdentical(reference, parallel.values));
  EXPECT_TRUE(stats.completed);
  EXPECT_EQ(stats.queries, ref_stats.queries);
}

// ---------------------------------------------------------------------------
// Cancellation / deadline mid-frame
// ---------------------------------------------------------------------------

TEST(ParallelRenderTest, CancelledFrameIsMarkedIncomplete) {
  auto bench = MakeBench();
  KdeEvaluator evaluator = bench->MakeEvaluator(Method::kQuad);
  PixelGrid grid(40, 30, bench->data_bounds());

  CancelToken cancel;
  cancel.RequestCancel();
  QueryControl control;
  control.cancel = &cancel;

  ThreadPool pool({/*num_threads=*/4, /*max_queue=*/64});
  RenderOptions options;
  options.num_threads = 4;
  options.tile_rows = 4;
  BatchStats stats;
  DensityFrame frame = RenderEpsFrameParallel(evaluator, grid, 0.05, options,
                                              &pool, control, &stats);

  EXPECT_FALSE(stats.completed);
  EXPECT_TRUE(stats.cancelled);
  EXPECT_FALSE(stats.deadline_expired);
  EXPECT_EQ(stats.queries, 0u);
  // The partial frame is still well-formed: right size, only finite pixels.
  ASSERT_EQ(frame.values.size(), grid.num_pixels());
  for (double v : frame.values) EXPECT_TRUE(std::isfinite(v));
}

TEST(ParallelRenderTest, DeadlineMidFrameIsMarkedExpired) {
  auto bench = MakeBench();
  KdeEvaluator evaluator = bench->MakeEvaluator(Method::kQuad);
  PixelGrid grid(64, 48, bench->data_bounds());

  // A nanosecond budget expires before the first per-pixel poll, whatever
  // the scheduler does; the frame must come back partial and flagged.
  Deadline deadline(1e-9);
  QueryControl control;
  control.deadline = &deadline;

  ThreadPool pool({/*num_threads=*/4, /*max_queue=*/64});
  RenderOptions options;
  options.num_threads = 4;
  options.tile_rows = 4;
  BatchStats stats;
  DensityFrame frame = RenderEpsFrameParallel(evaluator, grid, 0.05, options,
                                              &pool, control, &stats);

  EXPECT_FALSE(stats.completed);
  EXPECT_TRUE(stats.deadline_expired);
  ASSERT_EQ(frame.values.size(), grid.num_pixels());
  for (double v : frame.values) EXPECT_TRUE(std::isfinite(v));
}

// Cancellation racing a running frame: either the frame completed before the
// cancel landed, or it is marked cancelled — never a third state, and never
// a TSAN report.
TEST(ParallelRenderTest, ConcurrentCancellationLeavesConsistentStats) {
  auto bench = MakeBench();
  KdeEvaluator evaluator = bench->MakeEvaluator(Method::kQuad);
  PixelGrid grid(96, 72, bench->data_bounds());

  CancelToken cancel;
  QueryControl control;
  control.cancel = &cancel;

  ThreadPool pool({/*num_threads=*/4, /*max_queue=*/64});
  RenderOptions options;
  options.num_threads = 4;
  options.tile_rows = 2;

  BatchStats stats;
  DensityFrame frame;
  std::thread renderer([&] {
    frame = RenderEpsFrameParallel(evaluator, grid, 0.01, options, &pool,
                                   control, &stats);
  });
  cancel.RequestCancel();
  renderer.join();

  if (!stats.completed) {
    EXPECT_TRUE(stats.cancelled);
  }
  ASSERT_EQ(frame.values.size(), grid.num_pixels());
  for (double v : frame.values) EXPECT_TRUE(std::isfinite(v));
}

// ---------------------------------------------------------------------------
// Chunk region passes
// ---------------------------------------------------------------------------

// The chunk-oracle contract holds for every bound family (Gaussian QUAD,
// the polynomial-exact and distance-kernel bounds) across thread x tile
// configurations, and τ masks equal the per-pixel masks.
TEST(ChunkContractTest, EveryKernelBitIdenticalToChunkOracle) {
  const KernelType kernels[] = {KernelType::kGaussian,
                                KernelType::kEpanechnikov,
                                KernelType::kExponential};
  for (KernelType kernel : kernels) {
    auto bench = MakeBench(kernel);
    KdeEvaluator evaluator = bench->MakeEvaluator(Method::kQuad);
    PixelGrid grid(40, 30, bench->data_bounds());

    BatchStats ref_stats;
    const std::vector<uint8_t> reference_tau =
        PerPixelTau(evaluator, grid, 0.3, &ref_stats);

    ThreadPool pool({/*num_threads=*/4, /*max_queue=*/64});
    for (const ParallelCase& c :
         {ParallelCase{1, 16}, ParallelCase{4, 5}, ParallelCase{8, 1}}) {
      RenderOptions options;
      options.num_threads = c.num_threads;
      options.tile_rows = c.tile_rows;
      BatchStats stats;
      DensityFrame parallel = RenderEpsFrameParallel(
          evaluator, grid, 0.05, options, &pool, QueryControl(), &stats);
      EXPECT_TRUE(FramesBitIdentical(
          ChunkOracleEps(evaluator, grid, 0.05, c.tile_rows),
          parallel.values))
          << KernelTypeName(kernel) << " t" << c.num_threads;
      BinaryFrame parallel_tau = RenderTauFrameParallel(
          evaluator, grid, 0.3, options, &pool, QueryControl(), &stats);
      EXPECT_EQ(reference_tau, parallel_tau.values);
    }
  }
}

// Low density: a tight bandwidth and a viewport reaching one data span past
// the data on every side put most pixels at F <= 1e-25, while a chunk's
// region uppers still come from its nearest corner, up to ~1e-12 — the
// regime where subtracting region intervals from running totals left a
// residue far above ε·F. Every εKDV pixel is checked against EvaluateExact,
// and τ masks against the exact classification at tiny τ.
TEST(ChunkContractTest, LowDensityFramesKeepCertificates) {
  Workbench::Options wopts;
  wopts.gamma_override = 100.0;
  StatusOr<std::unique_ptr<Workbench>> created =
      Workbench::Create(TestDataset(), KernelType::kGaussian, wopts);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<Workbench> bench = *std::move(created);
  KdeEvaluator evaluator = bench->MakeEvaluator(Method::kQuad);
  const Rect& data = bench->data_bounds();
  const double span0 = data.hi(0) - data.lo(0);
  const double span1 = data.hi(1) - data.lo(1);
  Rect viewport(2);
  viewport.Expand(Point{data.lo(0) - span0, data.lo(1) - span1});
  viewport.Expand(Point{data.hi(0) + span0, data.hi(1) + span1});
  PixelGrid grid(48, 36, viewport);

  std::vector<double> exact(grid.num_pixels());
  size_t low = 0;
  for (int py = 0; py < grid.height(); ++py) {
    for (int px = 0; px < grid.width(); ++px) {
      const size_t i = grid.PixelIndex(px, py);
      exact[i] = evaluator.EvaluateExact(grid.PixelCenter(px, py));
      if (exact[i] <= 1e-25) ++low;
    }
  }
  ASSERT_GT(low, grid.num_pixels() / 4) << "the frame is not low-density";

  const double eps = 0.01;
  ThreadPool pool({/*num_threads=*/4, /*max_queue=*/64});
  for (const ParallelCase& c : {ParallelCase{1, 16}, ParallelCase{4, 8}}) {
    RenderOptions options;
    options.num_threads = c.num_threads;
    options.tile_rows = c.tile_rows;
    BatchStats stats;
    DensityFrame frame = RenderEpsFrameParallel(
        evaluator, grid, eps, options, &pool, QueryControl(), &stats);
    EXPECT_GT(stats.tile_nodes_visited, 0u);
    EXPECT_TRUE(WithinEps(evaluator, grid, eps, frame.values))
        << " t" << c.num_threads;
    for (double tau : {1e-30, 1e-40, 1e-50}) {
      BinaryFrame mask = RenderTauFrameParallel(
          evaluator, grid, tau, options, &pool, QueryControl(), &stats);
      for (size_t i = 0; i < exact.size(); ++i) {
        if (std::abs(exact[i] - tau) <= 1e-9 * tau) continue;  // tie
        ASSERT_EQ(mask.values[i], exact[i] >= tau ? 1 : 0)
            << "pixel " << i << " exact " << exact[i] << " tau " << tau;
      }
    }
  }
}

// Engine frames return different (but still certified) estimates from
// root-seeded evaluation: every pixel must satisfy the ε certificate
// against the exact oracle, the τ mask must match the exact classification,
// and at thresholds around the mean density (τ = μ + kσ) it must equal the
// per-pixel τ mask exactly. Swept over kernels, grid shapes (down to single
// pixels and one-row/one-column strips), thread counts and chunk shapes.
TEST(ChunkContractTest, FramesSatisfyCertificatesEverywhere) {
  struct Input {
    KernelType kernel;
    int width;
    int height;
  };
  const Input inputs[] = {
      {KernelType::kGaussian, 40, 30},   {KernelType::kEpanechnikov, 40, 30},
      {KernelType::kExponential, 40, 30}, {KernelType::kTriangular, 40, 30},
      {KernelType::kCosine, 40, 30},     {KernelType::kGaussian, 1, 1},
      {KernelType::kGaussian, 7, 3},     {KernelType::kGaussian, 1, 16},
      {KernelType::kGaussian, 33, 2},
  };
  const double eps = 0.05;
  const double tau = 0.3;
  for (const Input& in : inputs) {
    SCOPED_TRACE(std::string(KernelTypeName(in.kernel)) + " " +
                 std::to_string(in.width) + "x" + std::to_string(in.height));
    auto bench = MakeBench(in.kernel);
    KdeEvaluator evaluator = bench->MakeEvaluator(Method::kQuad);
    PixelGrid grid(in.width, in.height, bench->data_bounds());

    std::vector<double> exact(grid.num_pixels());
    for (int y = 0; y < grid.height(); ++y) {
      for (int x = 0; x < grid.width(); ++x) {
        exact[static_cast<size_t>(y) * grid.width() + x] =
            evaluator.EvaluateExact(grid.PixelCenter(x, y));
      }
    }
    const MeanStd density = EstimateDensityStats(evaluator, grid, /*stride=*/1);
    std::vector<double> sweep_taus;
    std::vector<std::vector<uint8_t>> per_pixel_masks;
    for (double k : {-0.3, -0.1, 0.0, 0.1, 0.3}) {
      sweep_taus.push_back(std::max(density.mean + k * density.stddev, 1e-12));
      BatchStats ref_stats;
      per_pixel_masks.push_back(
          PerPixelTau(evaluator, grid, sweep_taus.back(), &ref_stats));
    }

    ThreadPool pool({/*num_threads=*/4, /*max_queue=*/64});
    for (const ParallelCase& c :
         {ParallelCase{1, 16}, ParallelCase{4, 8}, ParallelCase{8, 3}}) {
      RenderOptions options;
      options.num_threads = c.num_threads;
      options.tile_rows = c.tile_rows;
      BatchStats stats;
      DensityFrame frame = RenderEpsFrameParallel(
          evaluator, grid, eps, options, &pool, QueryControl(), &stats);
      ASSERT_EQ(frame.values.size(), exact.size());
      for (size_t i = 0; i < exact.size(); ++i) {
        const double slack = 1e-9 * (1.0 + exact[i]);
        ASSERT_LE(std::abs(frame.values[i] - exact[i]),
                  eps * exact[i] + slack)
            << " t" << c.num_threads << " pixel " << i;
      }
      EXPECT_GT(stats.tile_nodes_visited, 0u);

      BinaryFrame mask = RenderTauFrameParallel(
          evaluator, grid, tau, options, &pool, QueryControl(), &stats);
      for (size_t i = 0; i < exact.size(); ++i) {
        const double slack = 1e-9 * (1.0 + exact[i]);
        if (exact[i] > tau + slack) {
          ASSERT_EQ(mask.values[i], 1) << "pixel " << i;
        } else if (exact[i] < tau - slack) {
          ASSERT_EQ(mask.values[i], 0) << "pixel " << i;
        }
      }

      for (size_t t = 0; t < sweep_taus.size(); ++t) {
        BinaryFrame swept =
            RenderTauFrameParallel(evaluator, grid, sweep_taus[t], options,
                                   &pool, QueryControl(), &stats);
        EXPECT_EQ(swept.values, per_pixel_masks[t])
            << " t" << c.num_threads << " tau=" << sweep_taus[t];
      }
    }
  }
}

// A τ above any possible density is answered by the region bounds alone:
// every chunk is decided "below" and no pixel runs per-pixel refinement.
TEST(ChunkContractTest, TauAboveEveryDensityDecidesEveryChunk) {
  auto bench = MakeBench();
  KdeEvaluator evaluator = bench->MakeEvaluator(Method::kQuad);
  PixelGrid grid(48, 36, bench->data_bounds());
  const double tau = 1e9 * evaluator.params().weight *
                     static_cast<double>(evaluator.tree().num_points());

  RenderOptions options;
  options.tile_rows = 8;
  BatchStats stats;
  BinaryFrame mask = RenderTauFrameParallel(evaluator, grid, tau, options,
                                            nullptr, QueryControl(), &stats);
  for (uint8_t v : mask.values) EXPECT_EQ(v, 0);
  const uint64_t chunks = ((36 + 7) / 8) * ((48 + 7) / 8);
  EXPECT_TRUE(stats.completed);
  EXPECT_EQ(stats.tiles_decided, chunks);
  EXPECT_EQ(stats.nodes_visited, 0u);
  EXPECT_EQ(stats.iterations, 0u);
  EXPECT_EQ(stats.queries, grid.num_pixels());
}

// A cache hit must substitute the stored frontiers verbatim: same frame
// bits, zero additional region-pass work.
TEST(ChunkContractTest, FrontierCacheHitReproducesFrameBitwise) {
  auto bench = MakeBench();
  KdeEvaluator evaluator = bench->MakeEvaluator(Method::kQuad);
  PixelGrid grid(40, 30, bench->data_bounds());

  FrontierCache cache;
  RenderOptions options;
  options.num_threads = 1;
  options.frontier_cache = &cache;
  options.cache_epoch = 7;

  BatchStats cold_stats;
  DensityFrame cold = RenderEpsFrameParallel(
      evaluator, grid, 0.05, options, nullptr, QueryControl(), &cold_stats);
  EXPECT_EQ(cold_stats.frontier_cache_hits, 0u);
  EXPECT_GT(cold_stats.tile_nodes_visited, 0u);

  BatchStats warm_stats;
  DensityFrame warm = RenderEpsFrameParallel(
      evaluator, grid, 0.05, options, nullptr, QueryControl(), &warm_stats);
  EXPECT_GT(warm_stats.frontier_cache_hits, 0u);
  EXPECT_EQ(warm_stats.tile_nodes_visited, 0u);
  EXPECT_TRUE(FramesBitIdentical(cold.values, warm.values));

  // A different epoch is a different key: the stale frontiers must not be
  // served to a hot-swapped index generation.
  options.cache_epoch = 8;
  BatchStats swap_stats;
  DensityFrame swapped = RenderEpsFrameParallel(
      evaluator, grid, 0.05, options, nullptr, QueryControl(), &swap_stats);
  EXPECT_EQ(swap_stats.frontier_cache_hits, 0u);
  EXPECT_GT(swap_stats.tile_nodes_visited, 0u);
  EXPECT_TRUE(FramesBitIdentical(cold.values, swapped.values));
}

// ---------------------------------------------------------------------------
// Runtime SIMD dispatch
// ---------------------------------------------------------------------------

// Every dispatch level must produce bit-identical sums and frames: the
// level is a throughput knob, never a results knob. Restores the active
// level on scope exit so test order cannot leak a pinned level.
class SimdLevelGuard {
 public:
  SimdLevelGuard() : saved_(ActiveSimdLevel()) {}
  ~SimdLevelGuard() { SetSimdLevel(saved_); }

 private:
  SimdLevel saved_;
};

TEST(SimdDispatchTest, AllLevelsBitIdentical) {
  SimdLevelGuard guard;
  auto bench = MakeBench();
  KdeEvaluator evaluator = bench->MakeEvaluator(Method::kQuad);
  PixelGrid grid(40, 30, bench->data_bounds());

  SetSimdLevel(SimdLevel::kScalar);
  ASSERT_EQ(ActiveSimdLevel(), SimdLevel::kScalar);
  DensityFrame baseline = RenderEpsFrameParallel(evaluator, grid, 0.05, {},
                                                 nullptr, {}, nullptr);

  const KdTree& tree = evaluator.tree();
  const KdTree::Node& root = tree.node(tree.root());
  Rng rng(11);
  std::vector<Point> queries;
  for (int i = 0; i < 64; ++i) {
    queries.push_back(Point{rng.Uniform(-0.2, 1.2), rng.Uniform(-0.2, 1.2)});
  }
  std::vector<double> scalar_sums;
  for (const Point& q : queries) {
    scalar_sums.push_back(
        LeafSumSoA(tree, evaluator.params(), root.begin, root.end, q));
  }

  for (SimdLevel level : {SimdLevel::kSse2, SimdLevel::kAvx2}) {
    SetSimdLevel(level);
    if (ActiveSimdLevel() != level) continue;  // not supported by this host
    for (size_t i = 0; i < queries.size(); ++i) {
      ASSERT_EQ(Bits(scalar_sums[i]),
                Bits(LeafSumSoA(tree, evaluator.params(), root.begin,
                                root.end, queries[i])))
          << "level " << SimdLevelName(level) << " query " << i;
    }
    DensityFrame frame = RenderEpsFrameParallel(evaluator, grid, 0.05, {},
                                                nullptr, {}, nullptr);
    EXPECT_TRUE(FramesBitIdentical(baseline.values, frame.values))
        << "level " << SimdLevelName(level);
  }
}

TEST(SimdDispatchTest, SetLevelClampsToHardwareMax) {
  SimdLevelGuard guard;
  SetSimdLevel(SimdLevel::kAvx2);
  EXPECT_LE(static_cast<int>(ActiveSimdLevel()),
            static_cast<int>(MaxSupportedSimdLevel()));
  SetSimdLevel(SimdLevel::kScalar);
  EXPECT_EQ(ActiveSimdLevel(), SimdLevel::kScalar);
}

// ---------------------------------------------------------------------------
// SoA leaf kernel vs AoS scalar loop
// ---------------------------------------------------------------------------

TEST(LeafKernelTest, SoAMatchesAoSBitwiseOnEveryLeaf) {
  const KernelType kernels[] = {
      KernelType::kGaussian, KernelType::kEpanechnikov,
      KernelType::kExponential, KernelType::kQuartic, KernelType::kUniform,
  };
  Rng rng(77);
  for (int dim : {2, 3, 5}) {
    PointSet pts;
    for (int i = 0; i < 700; ++i) {
      Point p(dim);
      for (int d = 0; d < dim; ++d) p[d] = rng.Uniform(-1.0, 1.0);
      pts.push_back(p);
    }
    KdTree tree(std::move(pts), {/*leaf_size=*/37});  // chunk-unaligned leaves
    for (KernelType kernel : kernels) {
      KernelParams params;
      params.type = kernel;
      params.gamma = 2.5;
      params.weight = 1.0 / 700.0;
      for (int qi = 0; qi < 8; ++qi) {
        Point q(dim);
        for (int d = 0; d < dim; ++d) q[d] = rng.Uniform(-1.5, 1.5);
        for (size_t n = 0; n < tree.num_nodes(); ++n) {
          const KdTree::Node& node = tree.node(static_cast<int32_t>(n));
          if (!node.IsLeaf()) continue;
          const double aos = LeafSumAoS(tree, params, node.begin, node.end, q);
          const double soa = LeafSumSoA(tree, params, node.begin, node.end, q);
          ASSERT_EQ(Bits(aos), Bits(soa))
              << "dim=" << dim << " kernel=" << KernelTypeName(kernel)
              << " node=" << n << ": " << aos << " vs " << soa;
        }
        // Whole-tree scan (the EXACT method path) spans many chunks.
        const KdTree::Node& root = tree.node(tree.root());
        ASSERT_EQ(Bits(LeafSumAoS(tree, params, root.begin, root.end, q)),
                  Bits(LeafSumSoA(tree, params, root.begin, root.end, q)));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Scratch stream reuse
// ---------------------------------------------------------------------------

TEST(ScratchReuseTest, ResetStreamMatchesFreshEvaluationBitwise) {
  auto bench = MakeBench();
  KdeEvaluator evaluator = bench->MakeEvaluator(Method::kQuad);
  Rng rng(13);

  RefinementStream scratch = evaluator.MakeScratch();
  QueryControl control;
  for (int i = 0; i < 200; ++i) {
    Point q{rng.Uniform(-0.2, 1.2), rng.Uniform(-0.2, 1.2)};

    EvalResult fresh = evaluator.EvaluateEps(q, 0.05);
    EvalResult reused = evaluator.EvaluateEps(q, 0.05, control, &scratch);
    ASSERT_EQ(Bits(fresh.estimate), Bits(reused.estimate)) << "query " << i;
    ASSERT_EQ(Bits(fresh.lower), Bits(reused.lower));
    ASSERT_EQ(Bits(fresh.upper), Bits(reused.upper));
    ASSERT_EQ(fresh.iterations, reused.iterations);
    ASSERT_EQ(fresh.points_scanned, reused.points_scanned);
    ASSERT_EQ(fresh.converged, reused.converged);

    TauResult tau_fresh = evaluator.EvaluateTau(q, 0.3);
    TauResult tau_reused = evaluator.EvaluateTau(q, 0.3, control, &scratch);
    ASSERT_EQ(tau_fresh.above_threshold, tau_reused.above_threshold);
    ASSERT_EQ(Bits(tau_fresh.lower), Bits(tau_reused.lower));
    ASSERT_EQ(Bits(tau_fresh.upper), Bits(tau_reused.upper));
    ASSERT_EQ(tau_fresh.iterations, tau_reused.iterations);
  }
}

}  // namespace
}  // namespace kdv
