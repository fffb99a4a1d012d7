// Figure 22: εKDV response time for triangular and cosine kernels on the
// crime and hep analogues (aKDE, Z-order, QUAD; KARL is not applicable to
// distance-argument kernels, paper §5.1). Paper result: QUAD is at least an
// order of magnitude faster than aKDE and beats Z-order especially at small
// ε.
#include <cstdio>
#include <vector>

#include "bench_common.h"

int main() {
  using namespace kdv;
  kdv_bench::PrintHeader("Figure 22",
                         "εKDV response time (s) for triangular / cosine "
                         "kernels, varying ε");

  const std::vector<double> eps_values = {0.01, 0.02, 0.03, 0.04, 0.05};
  const KernelType kernels[] = {KernelType::kTriangular, KernelType::kCosine};
  const MixtureSpec specs[] = {CrimeSpec(kdv_bench::BenchScale()),
                               HepSpec(kdv_bench::BenchScale())};

  std::FILE* csv = std::fopen("fig22.csv", "w");
  if (csv != nullptr) std::fprintf(csv, "dataset,kernel,eps,method,seconds\n");

  for (const MixtureSpec& spec : specs) {
    PointSet points = GenerateMixture(spec);
    for (KernelType kernel : kernels) {
      Workbench bench(PointSet(points), kernel);
      PixelGrid grid = kdv_bench::MakeGrid(bench.data_bounds());
      std::printf("\n(%s, %s kernel, n=%zu; KARL unsupported)\n",
                  spec.name.c_str(), KernelTypeName(kernel),
                  bench.num_points());
      std::printf("%-8s %10s %10s %10s\n", "eps", "aKDE", "QUAD", "Z-order");

      for (double eps : eps_values) {
        double secs[3];
        {
          KdeEvaluator akde = bench.MakeEvaluator(Method::kAkde);
          BatchStats stats;
          RenderEpsFrameParallel(akde, grid, eps, {}, nullptr, {}, &stats);
          secs[0] = stats.seconds;
        }
        {
          KdeEvaluator quad = bench.MakeEvaluator(Method::kQuad);
          BatchStats stats;
          RenderEpsFrameParallel(quad, grid, eps, {}, nullptr, {}, &stats);
          secs[1] = stats.seconds;
        }
        {
          KdeEvaluator zorder = bench.MakeZorderEvaluator(eps);
          BatchStats stats;
          RenderEpsFrameParallel(zorder, grid, eps, {}, nullptr, {}, &stats);
          secs[2] = stats.seconds;
        }
        std::printf("%-8.2f %10.3f %10.3f %10.3f\n", eps, secs[0], secs[1],
                    secs[2]);
        if (csv != nullptr) {
          std::fprintf(csv, "%s,%s,%g,aKDE,%.6f\n", spec.name.c_str(),
                       KernelTypeName(kernel), eps, secs[0]);
          std::fprintf(csv, "%s,%s,%g,QUAD,%.6f\n", spec.name.c_str(),
                       KernelTypeName(kernel), eps, secs[1]);
          std::fprintf(csv, "%s,%s,%g,Z-order,%.6f\n", spec.name.c_str(),
                       KernelTypeName(kernel), eps, secs[2]);
        }
      }
    }
  }
  if (csv != nullptr) std::fclose(csv);
  std::printf("\nwrote fig22.csv\n");
  return 0;
}
