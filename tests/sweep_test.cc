// Cross-cutting property sweeps: parameterized guarantees over ε, τ
// monotonicity, and determinism of whole pipelines.
#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "quadkdv.h"

namespace kdv {
namespace {

// ---------------------------------------------------------------------------
// ε sweep: the (1±ε) guarantee holds for every requested ε.
// ---------------------------------------------------------------------------

class EpsSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(EpsSweepTest, GuaranteeHoldsAtEveryEps) {
  const double eps = GetParam();
  Workbench bench(GenerateMixture(CrimeSpec(0.002)), KernelType::kGaussian);
  KdeEvaluator quad = bench.MakeEvaluator(Method::kQuad);
  KdeEvaluator exact = bench.MakeEvaluator(Method::kExact);

  Rng rng(1);
  for (int i = 0; i < 25; ++i) {
    Point q{rng.NextDouble(), rng.NextDouble()};
    double truth = exact.EvaluateExact(q);
    EvalResult r = quad.EvaluateEps(q, eps);
    if (truth > 1e-12) {
      EXPECT_LE(std::abs(r.estimate - truth) / truth, eps + 1e-9)
          << "eps=" << eps;
    }
  }
}

TEST_P(EpsSweepTest, WorkDecreasesWithLooserEps) {
  const double eps = GetParam();
  Workbench bench(GenerateMixture(HomeSpec(0.003)), KernelType::kGaussian);
  KdeEvaluator quad = bench.MakeEvaluator(Method::kQuad);
  Point q = bench.data_bounds().Center();
  uint64_t work_here = quad.EvaluateEps(q, eps).iterations;
  uint64_t work_tighter = quad.EvaluateEps(q, eps / 4.0).iterations;
  EXPECT_LE(work_here, work_tighter);
}

INSTANTIATE_TEST_SUITE_P(EpsValues, EpsSweepTest,
                         ::testing::Values(0.001, 0.01, 0.02, 0.05, 0.1,
                                           0.5));

// ---------------------------------------------------------------------------
// τ monotonicity: raising the threshold can only shrink the hot region.
// ---------------------------------------------------------------------------

TEST(TauSweepPropertyTest, HotAreaIsMonotoneInTau) {
  Workbench bench(GenerateMixture(CrimeSpec(0.002)), KernelType::kGaussian);
  PixelGrid grid(32, 24, bench.data_bounds());
  KdeEvaluator quad = bench.MakeEvaluator(Method::kQuad);
  MeanStd stats = EstimateDensityStats(quad, grid, /*stride=*/2);

  size_t prev_hot = grid.num_pixels() + 1;
  for (double tau : TauSweep(stats)) {
    BinaryFrame mask = RenderTauFrameParallel(quad, grid, tau, {}, nullptr, {},
                                              nullptr);
    size_t hot = 0;
    for (uint8_t v : mask.values) hot += v;
    EXPECT_LE(hot, prev_hot) << "tau=" << tau;
    prev_hot = hot;
  }
}

TEST(TauSweepPropertyTest, HotSetIsNestedNotJustSmaller) {
  Workbench bench(GenerateMixture(CrimeSpec(0.002)), KernelType::kGaussian);
  PixelGrid grid(24, 18, bench.data_bounds());
  KdeEvaluator quad = bench.MakeEvaluator(Method::kQuad);
  MeanStd stats = EstimateDensityStats(quad, grid, /*stride=*/2);

  BinaryFrame lo_mask =
      RenderTauFrameParallel(quad, grid, stats.mean - 0.2 * stats.stddev, {},
                             nullptr, {}, nullptr);
  BinaryFrame hi_mask =
      RenderTauFrameParallel(quad, grid, stats.mean + 0.2 * stats.stddev, {},
                             nullptr, {}, nullptr);
  for (size_t i = 0; i < lo_mask.values.size(); ++i) {
    if (hi_mask.values[i] != 0) {
      EXPECT_NE(lo_mask.values[i], 0) << "pixel " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Determinism: identical inputs give bit-identical outputs.
// ---------------------------------------------------------------------------

TEST(DeterminismTest, FramesAreBitIdenticalAcrossRuns) {
  auto run_once = [] {
    Workbench bench(GenerateMixture(CrimeSpec(0.002)),
                    KernelType::kGaussian);
    PixelGrid grid(24, 18, bench.data_bounds());
    KdeEvaluator quad = bench.MakeEvaluator(Method::kQuad);
    return RenderEpsFrameParallel(quad, grid, 0.01, {}, nullptr, {}, nullptr);
  };
  DensityFrame a = run_once();
  DensityFrame b = run_once();
  ASSERT_EQ(a.values.size(), b.values.size());
  for (size_t i = 0; i < a.values.size(); ++i) {
    EXPECT_EQ(a.values[i], b.values[i]) << i;
  }
}

TEST(DeterminismTest, ZorderPipelineIsDeterministic) {
  auto run_once = [] {
    Workbench bench(GenerateMixture(HomeSpec(0.002)), KernelType::kGaussian);
    KdeEvaluator z = bench.MakeZorderEvaluator(0.05);
    return z.EvaluateExact(bench.data_bounds().Center());
  };
  EXPECT_EQ(run_once(), run_once());
}

// ---------------------------------------------------------------------------
// Cross-kernel sanity: KDV output scales sanely with gamma.
// ---------------------------------------------------------------------------

TEST(GammaScalingTest, SmallerBandwidthSharpensPeaks) {
  // Larger gamma (smaller bandwidth) concentrates density: the max/mean
  // ratio of the frame grows.
  PointSet points = GenerateMixture(CrimeSpec(0.002));
  double base_gamma =
      MakeScottParams(KernelType::kGaussian, points).gamma;

  double prev_ratio = 0.0;
  for (double scale : {0.5, 2.0, 8.0}) {
    Workbench::Options options;
    options.gamma_override = base_gamma * scale;
    Workbench bench(PointSet(points), KernelType::kGaussian, options);
    PixelGrid grid(24, 18, bench.data_bounds());
    KdeEvaluator quad = bench.MakeEvaluator(Method::kQuad);
    DensityFrame frame = RenderEpsFrameParallel(quad, grid, 0.01, {}, nullptr,
                                                {}, nullptr);
    MeanStd stats = ComputeMeanStd(frame.values);
    double peak = 0.0;
    for (double v : frame.values) peak = std::max(peak, v);
    double ratio = peak / std::max(stats.mean, 1e-30);
    EXPECT_GT(ratio, prev_ratio) << "gamma scale " << scale;
    prev_ratio = ratio;
  }
}

// ---------------------------------------------------------------------------
// Leaf-size invariance: results do not depend on index granularity.
// ---------------------------------------------------------------------------

class LeafSizeTest : public ::testing::TestWithParam<size_t> {};

TEST_P(LeafSizeTest, TauMaskIndependentOfLeafSize) {
  Workbench::Options options;
  options.leaf_size = GetParam();
  Workbench bench(GenerateMixture(CrimeSpec(0.002)), KernelType::kGaussian,
                  options);
  PixelGrid grid(16, 12, bench.data_bounds());
  KdeEvaluator quad = bench.MakeEvaluator(Method::kQuad);
  KdeEvaluator exact = bench.MakeEvaluator(Method::kExact);

  DensityFrame truth = RenderExactFrameParallel(exact, grid, {}, nullptr, {},
                                                nullptr);
  MeanStd stats = ComputeMeanStd(truth.values);
  BinaryFrame mask = RenderTauFrameParallel(quad, grid, stats.mean, {}, nullptr,
                                            {}, nullptr);
  for (size_t i = 0; i < mask.values.size(); ++i) {
    if (std::abs(truth.values[i] - stats.mean) < 1e-12) continue;
    EXPECT_EQ(mask.values[i] != 0, truth.values[i] >= stats.mean);
  }
}

INSTANTIATE_TEST_SUITE_P(LeafSizes, LeafSizeTest,
                         ::testing::Values(1, 4, 16, 64, 256, 4096));

}  // namespace
}  // namespace kdv
