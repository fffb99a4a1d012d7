// Figure 17: response time vs dataset size on the hep analogue:
// (a) εKDV with ε = 0.01 (aKDE, KARL, QUAD, Z-order) and
// (b) τKDV with τ = μ (tKDC, KARL, QUAD).
// The paper samples hep down to 1M/3M/5M/7M; we sweep the same fractions of
// the bench-scaled hep cardinality.
#include <cstdio>
#include <vector>

#include "bench_common.h"

int main() {
  using namespace kdv;
  kdv_bench::PrintHeader("Figure 17",
                         "response time (s) vs dataset size (hep analogue)");

  MixtureSpec hep = HepSpec(kdv_bench::BenchScale());
  PointSet full = GenerateMixture(hep);
  const std::vector<double> fractions = {1.0 / 7, 3.0 / 7, 5.0 / 7, 1.0};
  const double eps = 0.01;

  std::FILE* csv = std::fopen("fig17.csv", "w");
  if (csv != nullptr) std::fprintf(csv, "op,n,method,seconds\n");

  std::printf("\n(a) εKDV, eps=0.01\n");
  std::printf("%-10s %10s %10s %10s %10s\n", "n", "aKDE", "KARL", "QUAD",
              "Z-order");
  for (double frac : fractions) {
    size_t n = static_cast<size_t>(full.size() * frac);
    PointSet subset = SamplePoints(full, n, /*seed=*/99);
    Workbench bench(std::move(subset), KernelType::kGaussian);
    PixelGrid grid = kdv_bench::MakeGrid(bench.data_bounds());

    double secs[4];
    const Method methods[] = {Method::kAkde, Method::kKarl, Method::kQuad};
    for (int i = 0; i < 3; ++i) {
      KdeEvaluator evaluator = bench.MakeEvaluator(methods[i]);
      BatchStats stats;
      RenderEpsFrameParallel(evaluator, grid, eps, {}, nullptr, {}, &stats);
      secs[i] = stats.seconds;
      if (csv != nullptr) {
        std::fprintf(csv, "eps,%zu,%s,%.6f\n", n, MethodName(methods[i]),
                     stats.seconds);
      }
    }
    {
      KdeEvaluator zorder = bench.MakeZorderEvaluator(eps);
      BatchStats stats;
      RenderEpsFrameParallel(zorder, grid, eps, {}, nullptr, {}, &stats);
      secs[3] = stats.seconds;
      if (csv != nullptr) {
        std::fprintf(csv, "eps,%zu,Z-order,%.6f\n", n, stats.seconds);
      }
    }
    std::printf("%-10zu %10.3f %10.3f %10.3f %10.3f\n", n, secs[0], secs[1],
                secs[2], secs[3]);
  }

  std::printf("\n(b) τKDV, tau=mu\n");
  std::printf("%-10s %10s %10s %10s\n", "n", "tKDC", "KARL", "QUAD");
  for (double frac : fractions) {
    size_t n = static_cast<size_t>(full.size() * frac);
    PointSet subset = SamplePoints(full, n, /*seed=*/99);
    Workbench bench(std::move(subset), KernelType::kGaussian);
    PixelGrid grid = kdv_bench::MakeGrid(bench.data_bounds());

    KdeEvaluator quad = bench.MakeEvaluator(Method::kQuad);
    double tau = EstimateDensityStats(quad, grid, /*stride=*/8).mean;

    double secs[3];
    const Method methods[] = {Method::kTkdc, Method::kKarl, Method::kQuad};
    for (int i = 0; i < 3; ++i) {
      KdeEvaluator evaluator = bench.MakeEvaluator(methods[i]);
      BatchStats stats;
      RenderTauFrameParallel(evaluator, grid, tau, {}, nullptr, {}, &stats);
      secs[i] = stats.seconds;
      if (csv != nullptr) {
        std::fprintf(csv, "tau,%zu,%s,%.6f\n", n, MethodName(methods[i]),
                     stats.seconds);
      }
    }
    std::printf("%-10zu %10.3f %10.3f %10.3f\n", n, secs[0], secs[1],
                secs[2]);
  }

  if (csv != nullptr) std::fclose(csv);
  std::printf("\nwrote fig17.csv\n");
  return 0;
}
