// Figure 14: εKDV response time vs relative error ε on the four datasets
// (aKDE, KARL, QUAD, Z-order). Paper result: QUAD is at least one order of
// magnitude faster than every competitor at every ε.
#include <cstdio>
#include <vector>

#include "bench_common.h"

int main() {
  using namespace kdv;
  kdv_bench::PrintHeader(
      "Figure 14", "εKDV response time (s), varying ε, Gaussian kernel");

  const std::vector<double> eps_values = {0.01, 0.02, 0.03, 0.04, 0.05};
  std::FILE* csv = std::fopen("fig14.csv", "w");
  if (csv != nullptr) std::fprintf(csv, "dataset,eps,method,seconds\n");

  for (const MixtureSpec& spec : PaperDatasetSpecs(kdv_bench::BenchScale())) {
    Workbench bench(GenerateMixture(spec), KernelType::kGaussian);
    PixelGrid grid = kdv_bench::MakeGrid(bench.data_bounds());
    std::printf("\n(%s, n=%zu)\n", spec.name.c_str(), bench.num_points());
    std::printf("%-8s %10s %10s %10s %10s\n", "eps", "aKDE", "KARL", "QUAD",
                "Z-order");

    for (double eps : eps_values) {
      double secs[4];
      const Method methods[] = {Method::kAkde, Method::kKarl, Method::kQuad};
      for (int i = 0; i < 3; ++i) {
        KdeEvaluator evaluator = bench.MakeEvaluator(methods[i]);
        BatchStats stats;
        RenderEpsFrameParallel(evaluator, grid, eps, {}, nullptr, {}, &stats);
        secs[i] = stats.seconds;
        if (csv != nullptr) {
          std::fprintf(csv, "%s,%g,%s,%.6f\n", spec.name.c_str(), eps,
                       MethodName(methods[i]), stats.seconds);
        }
      }
      {
        KdeEvaluator zorder = bench.MakeZorderEvaluator(eps);
        BatchStats stats;
        RenderEpsFrameParallel(zorder, grid, eps, {}, nullptr, {}, &stats);
        secs[3] = stats.seconds;
        if (csv != nullptr) {
          std::fprintf(csv, "%s,%g,Z-order,%.6f\n", spec.name.c_str(), eps,
                       stats.seconds);
        }
      }
      std::printf("%-8.2f %10.3f %10.3f %10.3f %10.3f\n", eps, secs[0],
                  secs[1], secs[2], secs[3]);
    }
  }
  if (csv != nullptr) std::fclose(csv);
  std::printf("\nwrote fig14.csv\n");
  return 0;
}
