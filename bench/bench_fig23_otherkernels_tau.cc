// Figure 23: τKDV response time for triangular and cosine kernels on the
// crime and hep analogues (tKDC vs QUAD), sweeping τ ∈ {μ±kσ}. Paper result:
// QUAD outperforms tKDC by at least one order of magnitude.
#include <cstdio>
#include <vector>

#include "bench_common.h"

int main() {
  using namespace kdv;
  kdv_bench::PrintHeader("Figure 23",
                         "τKDV response time (s) for triangular / cosine "
                         "kernels, varying τ");

  const KernelType kernels[] = {KernelType::kTriangular, KernelType::kCosine};
  const MixtureSpec specs[] = {CrimeSpec(kdv_bench::BenchScale()),
                               HepSpec(kdv_bench::BenchScale())};
  const double ks[] = {-0.2, -0.1, 0.0, 0.1, 0.2};

  std::FILE* csv = std::fopen("fig23.csv", "w");
  if (csv != nullptr) std::fprintf(csv, "dataset,kernel,k,method,seconds\n");

  for (const MixtureSpec& spec : specs) {
    PointSet points = GenerateMixture(spec);
    for (KernelType kernel : kernels) {
      Workbench bench(PointSet(points), kernel);
      PixelGrid grid = kdv_bench::MakeGrid(bench.data_bounds());

      KdeEvaluator quad = bench.MakeEvaluator(Method::kQuad);
      MeanStd stats = EstimateDensityStats(quad, grid, /*stride=*/8);

      std::printf("\n(%s, %s kernel, n=%zu, mu=%.4g, sigma=%.4g)\n",
                  spec.name.c_str(), KernelTypeName(kernel),
                  bench.num_points(), stats.mean, stats.stddev);
      std::printf("%-12s %10s %10s\n", "tau", "tKDC", "QUAD");

      for (double k : ks) {
        double tau = std::max(stats.mean + k * stats.stddev, 1e-12);
        double secs[2];
        {
          KdeEvaluator tkdc = bench.MakeEvaluator(Method::kTkdc);
          BatchStats bstats;
          RenderTauFrameParallel(tkdc, grid, tau, {}, nullptr, {}, &bstats);
          secs[0] = bstats.seconds;
        }
        {
          BatchStats bstats;
          RenderTauFrameParallel(quad, grid, tau, {}, nullptr, {}, &bstats);
          secs[1] = bstats.seconds;
        }
        std::printf("mu%+.1fsigma   %10.3f %10.3f\n", k, secs[0], secs[1]);
        if (csv != nullptr) {
          std::fprintf(csv, "%s,%s,%.1f,tKDC,%.6f\n", spec.name.c_str(),
                       KernelTypeName(kernel), k, secs[0]);
          std::fprintf(csv, "%s,%s,%.1f,QUAD,%.6f\n", spec.name.c_str(),
                       KernelTypeName(kernel), k, secs[1]);
        }
      }
    }
  }
  if (csv != nullptr) std::fclose(csv);
  std::printf("\nwrote fig23.csv\n");
  return 0;
}
