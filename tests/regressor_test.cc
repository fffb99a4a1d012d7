#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "data/datasets.h"
#include "regress/kernel_regressor.h"
#include "util/random.h"

namespace kdv {
namespace {

// ---------------------------------------------------------------------------
// KernelRegressor end to end
// ---------------------------------------------------------------------------

struct RegressionData {
  PointSet xs;
  std::vector<double> ys;
};

double SmoothTarget(const Point& p) {
  return 2.0 + std::sin(3.0 * p[0]) * std::cos(2.0 * p[1]);
}

// Smooth non-negative target y = 2 + sin(3x) * cos(2y') over uniform xs.
RegressionData MakeData(int n, uint64_t seed) {
  Rng rng(seed);
  RegressionData data;
  for (int i = 0; i < n; ++i) {
    Point p{rng.NextDouble(), rng.NextDouble()};
    data.xs.push_back(p);
    data.ys.push_back(SmoothTarget(p));
  }
  return data;
}

// Brute-force Nadaraya–Watson over the caller's data in its input order:
// independent of the tree, its permutation and the regressor's copy of y.
double OracleEstimate(const RegressionData& data, const KernelParams& params,
                      const Point& q, bool* defined) {
  double numer = 0.0, denom = 0.0;
  for (size_t i = 0; i < data.xs.size(); ++i) {
    double k = params.EvalSquaredDistance(SquaredDistance(q, data.xs[i]));
    numer += data.ys[i] * k;
    denom += k;
  }
  *defined = denom > 0.0;
  return *defined ? numer / denom : 0.0;
}

// Every estimate of `reg` on `queries` is defined exactly where the oracle
// is, and certified to (1 ± eps) of it. Returns the number of failures.
int CountCertificateFailures(const KernelRegressor& reg,
                             const RegressionData& data,
                             const PointSet& queries, double eps) {
  int failures = 0;
  for (const Point& q : queries) {
    bool defined = false;
    const double exact = OracleEstimate(data, reg.params(), q, &defined);
    const KernelRegressor::Result r = reg.Estimate(q, eps);
    bool ok = r.defined == defined && std::isfinite(r.estimate);
    if (ok && defined) {
      ok = r.converged &&
           std::abs(r.estimate - exact) <= eps * exact * (1.0 + 1e-9) &&
           r.lower <= exact * (1.0 + 1e-9) && r.upper >= exact * (1.0 - 1e-9);
    }
    if (!ok) ++failures;
  }
  return failures;
}

TEST(KernelRegressorTest, MatchesExactWithinEps) {
  RegressionData data = MakeData(3000, 5);
  for (Method method : {Method::kAkde, Method::kKarl, Method::kQuad}) {
    KernelRegressor::Options options;
    options.method = method;
    KernelRegressor reg(PointSet(data.xs), std::vector<double>(data.ys),
                        options);
    Rng rng(6);
    for (int i = 0; i < 25; ++i) {
      Point q{rng.NextDouble(), rng.NextDouble()};
      bool defined = true;
      double exact = reg.EstimateExact(q, &defined);
      ASSERT_TRUE(defined);
      KernelRegressor::Result r = reg.Estimate(q, 0.01);
      EXPECT_TRUE(r.converged) << MethodName(method);
      EXPECT_TRUE(r.defined);
      EXPECT_LE(r.lower, exact * (1 + 1e-9) + 1e-12) << MethodName(method);
      EXPECT_GE(r.upper, exact * (1 - 1e-9) - 1e-12) << MethodName(method);
      EXPECT_NEAR(r.estimate, exact, 0.011 * exact) << MethodName(method);
    }
  }
}

TEST(KernelRegressorTest, ExactMethodIsBruteForce) {
  RegressionData data = MakeData(500, 7);
  KernelRegressor::Options options;
  options.method = Method::kExact;
  KernelRegressor reg(PointSet(data.xs), std::vector<double>(data.ys),
                      options);
  Point q{0.4, 0.6};
  KernelRegressor::Result r = reg.Estimate(q, 0.01);
  EXPECT_NEAR(r.estimate, reg.EstimateExact(q), 1e-12);
  EXPECT_EQ(r.points_scanned, 500u);
}

TEST(KernelRegressorTest, QuadPrunesMoreThanAkde) {
  RegressionData data = MakeData(20000, 8);
  KernelRegressor::Options quad_options;
  quad_options.method = Method::kQuad;
  KernelRegressor quad(PointSet(data.xs), std::vector<double>(data.ys),
                       quad_options);
  KernelRegressor::Options akde_options;
  akde_options.method = Method::kAkde;
  KernelRegressor akde(PointSet(data.xs), std::vector<double>(data.ys),
                       akde_options);

  Rng rng(9);
  uint64_t quad_pts = 0, akde_pts = 0;
  for (int i = 0; i < 20; ++i) {
    Point q{rng.NextDouble(), rng.NextDouble()};
    quad_pts += quad.Estimate(q, 0.01).points_scanned;
    akde_pts += akde.Estimate(q, 0.01).points_scanned;
  }
  EXPECT_LT(quad_pts, akde_pts);
}

TEST(KernelRegressorTest, RecoversSmoothFunction) {
  // With dense samples and a smooth target, NW regression approximates the
  // target function at interior points.
  RegressionData data = MakeData(20000, 10);
  KernelRegressor reg(PointSet(data.xs), std::vector<double>(data.ys),
                      KernelRegressor::Options{});
  Rng rng(11);
  for (int i = 0; i < 10; ++i) {
    Point q{rng.Uniform(0.2, 0.8), rng.Uniform(0.2, 0.8)};
    double truth = SmoothTarget(q);
    EXPECT_NEAR(reg.Estimate(q, 0.01).estimate, truth, 0.2);
  }
}

TEST(KernelRegressorTest, UndefinedOutsideFiniteSupport) {
  RegressionData data = MakeData(300, 12);
  KernelRegressor::Options options;
  options.kernel = KernelType::kTriangular;
  KernelRegressor reg(PointSet(data.xs), std::vector<double>(data.ys),
                      options);
  KernelRegressor::Result r = reg.Estimate(Point{50.0, 50.0}, 0.01);
  EXPECT_FALSE(r.defined);
  EXPECT_DOUBLE_EQ(r.estimate, 0.0);
}

TEST(KernelRegressorTest, NonGaussianKernelsAgreeWithExact) {
  RegressionData data = MakeData(2000, 13);
  for (KernelType kernel : {KernelType::kTriangular, KernelType::kCosine,
                            KernelType::kExponential}) {
    KernelRegressor::Options options;
    options.kernel = kernel;
    KernelRegressor reg(PointSet(data.xs), std::vector<double>(data.ys),
                        options);
    Rng rng(14);
    for (int i = 0; i < 15; ++i) {
      Point q{rng.NextDouble(), rng.NextDouble()};
      bool defined = true;
      double exact = reg.EstimateExact(q, &defined);
      if (!defined) continue;
      KernelRegressor::Result r = reg.Estimate(q, 0.01);
      EXPECT_NEAR(r.estimate, exact, 0.011 * std::max(exact, 1e-12))
          << KernelTypeName(kernel);
    }
  }
}

TEST(KernelRegressorTest, ConstantTargetsGiveConstantEstimate) {
  Rng rng(15);
  PointSet xs;
  std::vector<double> ys;
  for (int i = 0; i < 1000; ++i) {
    xs.push_back(Point{rng.NextDouble(), rng.NextDouble()});
    ys.push_back(3.5);
  }
  KernelRegressor reg(std::move(xs), std::move(ys),
                      KernelRegressor::Options{});
  for (int i = 0; i < 10; ++i) {
    Point q{rng.NextDouble(), rng.NextDouble()};
    EXPECT_NEAR(reg.Estimate(q, 0.01).estimate, 3.5, 3.5 * 0.011);
  }
}

// The targets are the input indices, so a target attached to the wrong
// point after the tree's permutation moves the estimate far outside eps.
TEST(KernelRegressorTest, MatchesInputOrderOracle) {
  RegressionData data = MakeData(2000, 16);
  for (size_t i = 0; i < data.ys.size(); ++i) {
    data.ys[i] = static_cast<double>(i);
  }
  Rng rng(17);
  PointSet queries;
  for (int i = 0; i < 40; ++i) {
    queries.push_back(Point{rng.NextDouble(), rng.NextDouble()});
  }
  for (Method method : {Method::kAkde, Method::kKarl, Method::kQuad}) {
    KernelRegressor::Options options;
    options.method = method;
    options.leaf_size = 8;
    KernelRegressor reg(PointSet(data.xs), std::vector<double>(data.ys),
                        options);
    EXPECT_EQ(CountCertificateFailures(reg, data, queries, 0.01), 0)
        << MethodName(method);
  }
}

// A tight bandwidth over a viewport reaching well past the data: node
// upper bounds there sit many orders of magnitude above N and D, where
// add-then-subtract running totals used to break the certificate (and the
// defined flag).
TEST(KernelRegressorTest, FarFieldEstimatesKeepTheirCertificate) {
  MixtureSpec spec;
  spec.n = 1500;
  spec.num_clusters = 4;
  spec.seed = 21;
  RegressionData data;
  data.xs = GenerateMixture(spec);
  Rect box(2);
  for (const Point& p : data.xs) {
    box.Expand(p);
    data.ys.push_back(SmoothTarget(p));
  }
  const int kCols = 48, kRows = 36;
  const double pad_x = 0.3 * (box.hi(0) - box.lo(0));
  const double pad_y = 0.3 * (box.hi(1) - box.lo(1));
  const double x0 = box.lo(0) - pad_x, y0 = box.lo(1) - pad_y;
  const double w = box.hi(0) - box.lo(0) + 2.0 * pad_x;
  const double h = box.hi(1) - box.lo(1) + 2.0 * pad_y;
  PointSet queries;
  for (int r = 0; r < kRows; ++r) {
    for (int c = 0; c < kCols; ++c) {
      queries.push_back(Point{x0 + (c + 0.5) * w / kCols,
                              y0 + (r + 0.5) * h / kRows});
    }
  }
  for (double gamma : {1000.0, 5000.0}) {
    for (Method method : {Method::kKarl, Method::kQuad}) {
      KernelRegressor::Options options;
      options.method = method;
      options.gamma_override = gamma;
      KernelRegressor reg(PointSet(data.xs), std::vector<double>(data.ys),
                          options);
      EXPECT_EQ(CountCertificateFailures(reg, data, queries, 0.01), 0)
          << MethodName(method) << " gamma " << gamma;
    }
  }
}

TEST(KernelRegressorTest, AllZeroTargetsGiveExactZero) {
  RegressionData data = MakeData(1000, 18);
  std::fill(data.ys.begin(), data.ys.end(), 0.0);
  for (KernelType kernel :
       {KernelType::kGaussian, KernelType::kTriangular, KernelType::kCosine,
        KernelType::kExponential, KernelType::kEpanechnikov,
        KernelType::kQuartic, KernelType::kUniform}) {
    for (Method method : {Method::kAkde, Method::kKarl, Method::kQuad}) {
      KernelRegressor::Options options;
      options.kernel = kernel;
      options.method = method;
      KernelRegressor reg(PointSet(data.xs), std::vector<double>(data.ys),
                          options);
      Rng rng(19);
      for (int i = 0; i < 10; ++i) {
        Point q{rng.Uniform(-0.5, 1.5), rng.Uniform(-0.5, 1.5)};
        KernelRegressor::Result r = reg.Estimate(q, 0.01);
        EXPECT_EQ(r.estimate, 0.0) << KernelTypeName(kernel) << "/"
                                   << MethodName(method);
        EXPECT_EQ(r.lower, 0.0);
        EXPECT_EQ(r.upper, 0.0);
        EXPECT_TRUE(r.converged);
        if (options.method == Method::kKarl &&
            kernel != KernelType::kGaussian) {
          continue;  // no KARL bounds: the exact scan answers
        }
        EXPECT_EQ(r.iterations, 0u) << KernelTypeName(kernel) << "/"
                                    << MethodName(method);
      }
    }
  }
}

// Targets that vanish on half the domain: whole subtrees have zero mass in
// the numerator, and the estimate must stay finite and certified.
TEST(KernelRegressorTest, HalfZeroTargetsStayWithinEps) {
  RegressionData data = MakeData(3000, 20);
  for (size_t i = 0; i < data.xs.size(); ++i) {
    if (data.xs[i][0] < 0.5) data.ys[i] = 0.0;
  }
  Rng rng(21);
  PointSet queries;
  for (int i = 0; i < 30; ++i) {
    queries.push_back(Point{rng.NextDouble(), rng.NextDouble()});
  }
  for (KernelType kernel : {KernelType::kGaussian, KernelType::kTriangular,
                            KernelType::kEpanechnikov}) {
    for (Method method : {Method::kAkde, Method::kKarl, Method::kQuad}) {
      if (method == Method::kKarl && kernel != KernelType::kGaussian) continue;
      KernelRegressor::Options options;
      options.kernel = kernel;
      options.method = method;
      KernelRegressor reg(PointSet(data.xs), std::vector<double>(data.ys),
                          options);
      EXPECT_EQ(CountCertificateFailures(reg, data, queries, 0.01), 0)
          << KernelTypeName(kernel) << "/" << MethodName(method);
    }
  }
}

}  // namespace
}  // namespace kdv
