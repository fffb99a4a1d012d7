// Cross-module integration tests: the full paper pipeline on small inputs.
// Every method must produce the same color map (εKDV) / hotspot mask (τKDV)
// as the exact baseline, across kernels, and the progressive framework must
// converge to the same frame.
#include <cmath>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "quadkdv.h"

namespace kdv {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  IntegrationTest()
      : points_(GenerateMixture(CrimeSpec(0.0015))) {}

  PointSet points_;
};

TEST_F(IntegrationTest, AllEpsMethodsAgreeWithExactWithinEps) {
  const double eps = 0.01;
  Workbench bench(PointSet(points_), KernelType::kGaussian);
  PixelGrid grid(20, 16, bench.data_bounds());

  KdeEvaluator exact = bench.MakeEvaluator(Method::kExact);
  DensityFrame truth = RenderExactFrameParallel(exact, grid, {}, nullptr, {},
                                                nullptr);

  for (Method method : {Method::kAkde, Method::kKarl, Method::kQuad}) {
    KdeEvaluator evaluator = bench.MakeEvaluator(method);
    DensityFrame frame = RenderEpsFrameParallel(evaluator, grid, eps, {},
                                                nullptr, {}, nullptr);
    EXPECT_LE(MaxRelativeError(frame.values, truth.values, 1e-12),
              eps + 1e-6)
        << MethodName(method);
  }
}

TEST_F(IntegrationTest, TauMasksIdenticalAcrossBoundMethods) {
  Workbench bench(PointSet(points_), KernelType::kGaussian);
  PixelGrid grid(20, 16, bench.data_bounds());

  KdeEvaluator quad = bench.MakeEvaluator(Method::kQuad);
  MeanStd stats = EstimateDensityStats(quad, grid, /*stride=*/2);
  double tau = stats.mean;

  KdeEvaluator tkdc = bench.MakeEvaluator(Method::kTkdc);
  KdeEvaluator karl = bench.MakeEvaluator(Method::kKarl);

  BinaryFrame m_quad = RenderTauFrameParallel(quad, grid, tau, {}, nullptr, {},
                                              nullptr);
  BinaryFrame m_tkdc = RenderTauFrameParallel(tkdc, grid, tau, {}, nullptr, {},
                                              nullptr);
  BinaryFrame m_karl = RenderTauFrameParallel(karl, grid, tau, {}, nullptr, {},
                                              nullptr);

  EXPECT_EQ(BinaryMismatchRate(m_quad.values, m_tkdc.values), 0.0);
  EXPECT_EQ(BinaryMismatchRate(m_quad.values, m_karl.values), 0.0);
  // A meaningful tau splits the frame into both classes.
  size_t above = 0;
  for (uint8_t v : m_quad.values) above += v;
  EXPECT_GT(above, 0u);
  EXPECT_LT(above, m_quad.values.size());
}

TEST_F(IntegrationTest, OtherKernelsEndToEnd) {
  for (KernelType kernel : {KernelType::kTriangular, KernelType::kCosine,
                            KernelType::kExponential}) {
    Workbench bench(PointSet(points_), kernel);
    PixelGrid grid(16, 12, bench.data_bounds());

    KdeEvaluator exact = bench.MakeEvaluator(Method::kExact);
    KdeEvaluator quad = bench.MakeEvaluator(Method::kQuad);

    DensityFrame truth = RenderExactFrameParallel(exact, grid, {}, nullptr, {},
                                                  nullptr);
    DensityFrame approx = RenderEpsFrameParallel(quad, grid, 0.01, {}, nullptr,
                                                 {}, nullptr);
    // Relative guarantee where density is nonzero; zero stays zero.
    for (size_t i = 0; i < truth.values.size(); ++i) {
      if (truth.values[i] > 1e-12) {
        EXPECT_LE(std::abs(approx.values[i] - truth.values[i]) /
                      truth.values[i],
                  0.0101)
            << KernelTypeName(kernel);
      } else {
        EXPECT_LE(approx.values[i], 1e-9) << KernelTypeName(kernel);
      }
    }
  }
}

TEST_F(IntegrationTest, ZorderPipelineQualityIsStatistical) {
  Workbench bench(PointSet(points_), KernelType::kGaussian);
  PixelGrid grid(16, 12, bench.data_bounds());

  KdeEvaluator exact = bench.MakeEvaluator(Method::kExact);
  DensityFrame truth = RenderExactFrameParallel(exact, grid, {}, nullptr, {},
                                                nullptr);

  KdeEvaluator zorder = bench.MakeZorderEvaluator(0.05);
  DensityFrame frame = RenderEpsFrameParallel(zorder, grid, 0.05, {}, nullptr,
                                              {}, nullptr);
  // Probabilistic method: no deterministic per-pixel bound, but the average
  // error over the frame must be modest.
  EXPECT_LT(AverageRelativeError(frame.values, truth.values,
                                 1e-3 * ComputeMeanStd(truth.values).mean),
            0.5);
}

TEST_F(IntegrationTest, ProgressiveQuadReachesEpsQuality) {
  Workbench bench(PointSet(points_), KernelType::kGaussian);
  PixelGrid grid(16, 12, bench.data_bounds());

  KdeEvaluator exact = bench.MakeEvaluator(Method::kExact);
  KdeEvaluator quad = bench.MakeEvaluator(Method::kQuad);
  DensityFrame truth = RenderExactFrameParallel(exact, grid, {}, nullptr, {},
                                                nullptr);

  ProgressiveResult full = RenderProgressive(quad, grid, 0.01, 0.0);
  ASSERT_TRUE(full.stats.completed);
  EXPECT_LE(MaxRelativeError(full.frame.values, truth.values, 1e-12),
            0.0101);
}

TEST_F(IntegrationTest, EndToEndImagePipelineWritesArtifacts) {
  Workbench bench(PointSet(points_), KernelType::kGaussian);
  PixelGrid grid(32, 24, bench.data_bounds());
  KdeEvaluator quad = bench.MakeEvaluator(Method::kQuad);

  DensityFrame frame = RenderEpsFrameParallel(quad, grid, 0.01, {}, nullptr, {},
                                              nullptr);
  std::string heat_path = ::testing::TempDir() + "/kdv_heat.ppm";
  ASSERT_TRUE(RenderHeatMap(frame).WritePpm(heat_path));

  MeanStd stats = ComputeMeanStd(frame.values);
  std::string tau_path = ::testing::TempDir() + "/kdv_tau.ppm";
  ASSERT_TRUE(RenderThresholdMap(frame, stats.mean).WritePpm(tau_path));

  std::remove(heat_path.c_str());
  std::remove(tau_path.c_str());
}

TEST_F(IntegrationTest, HigherDimensionalKdeViaPca) {
  // The §7.7 pipeline: take a higher-dim dataset, PCA to d dims, run εKDE
  // point queries.
  MixtureSpec spec;
  spec.n = 3000;
  spec.dim = 6;
  spec.seed = 31;
  PointSet high = GenerateMixture(spec);

  for (int d : {2, 3, 4}) {
    PointSet projected = PcaProject(high, d);
    Workbench bench(PointSet(projected), KernelType::kGaussian);
    KdeEvaluator exact = bench.MakeEvaluator(Method::kExact);
    KdeEvaluator quad = bench.MakeEvaluator(Method::kQuad);

    Rng rng(32);
    for (int i = 0; i < 10; ++i) {
      Point q(d);
      for (int j = 0; j < d; ++j) q[j] = rng.Uniform(-1.0, 1.0);
      double truth = exact.EvaluateExact(q);
      double est = quad.EvaluateEps(q, 0.01).estimate;
      if (truth > 1e-12) {
        EXPECT_LE(std::abs(est - truth) / truth, 0.0101) << "d=" << d;
      }
    }
  }
}

}  // namespace
}  // namespace kdv
