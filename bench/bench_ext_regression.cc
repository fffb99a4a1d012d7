// Extension benchmark: Nadaraya–Watson kernel regression with certified
// bounds (paper §8 future work). Measures queries/sec to certify (1±ε)
// regression estimates under each bound family, sweeping ε — the regression
// analogue of Fig. 14 — then the refinement iterations QUAD needs per
// kernel (deterministic, so a regression in the bounds shows as a count).
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "regress/kernel_regressor.h"

int main() {
  using namespace kdv;
  kdv_bench::PrintHeader("Extension",
                         "kernel regression: certified NW estimates, "
                         "varying ε (Gaussian kernel)");

  const size_t n = std::max<size_t>(
      2000, static_cast<size_t>(2000000 * kdv_bench::BenchScale()));
  Rng rng(31);
  PointSet xs;
  std::vector<double> ys;
  for (size_t i = 0; i < n; ++i) {
    Point p{rng.NextDouble(), rng.NextDouble()};
    xs.push_back(p);
    ys.push_back(
        std::max(4.0 + 2.0 * std::sin(5.0 * p[0]) + std::cos(3.0 * p[1]) +
                     rng.Gaussian(0.0, 0.2),
                 0.0));
  }

  const int kQueries = 400;
  PointSet queries;
  for (int i = 0; i < kQueries; ++i) {
    queries.push_back(Point{rng.NextDouble(), rng.NextDouble()});
  }

  std::printf("\n%zu samples, %d queries\n", n, kQueries);
  std::printf("%-8s %12s %12s %12s %12s\n", "eps", "EXACT", "aKDE", "KARL",
              "QUAD");

  for (double eps : {0.01, 0.02, 0.05}) {
    std::printf("%-8.2f", eps);
    for (Method method :
         {Method::kExact, Method::kAkde, Method::kKarl, Method::kQuad}) {
      KernelRegressor::Options options;
      options.method = method;
      KernelRegressor reg(PointSet(xs), std::vector<double>(ys), options);
      Timer timer;
      double checksum = 0.0;
      for (const Point& q : queries) {
        checksum += reg.Estimate(q, eps).estimate;
      }
      double qps = kQueries / std::max(timer.ElapsedSeconds(), 1e-9);
      std::printf(" %12.1f", qps);
      (void)checksum;
    }
    std::printf("\n");
  }
  std::printf("\n(values are queries/sec; higher is better)\n");

  std::printf("\nQUAD, eps = 0.01: total iterations over the %d queries\n",
              kQueries);
  for (KernelType kernel :
       {KernelType::kGaussian, KernelType::kTriangular, KernelType::kCosine,
        KernelType::kExponential, KernelType::kEpanechnikov,
        KernelType::kQuartic, KernelType::kUniform}) {
    KernelRegressor::Options options;
    options.kernel = kernel;
    KernelRegressor reg(PointSet(xs), std::vector<double>(ys), options);
    uint64_t iterations = 0;
    for (const Point& q : queries) {
      iterations += reg.Estimate(q, 0.01).iterations;
    }
    std::printf("%-14s %12llu\n", KernelTypeName(kernel),
                static_cast<unsigned long long>(iterations));
  }
  return 0;
}
