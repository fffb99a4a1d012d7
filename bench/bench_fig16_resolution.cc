// Figure 16: εKDV response time vs screen resolution (ε = 0.01). The paper
// sweeps 320x240 .. 2560x1920; we sweep the same 4:3 ladder scaled around
// KDV_BENCH_PIXELS. Paper result: QUAD wins at every resolution and time
// grows ~linearly in pixel count for all methods.
#include <cstdio>
#include <vector>

#include "bench_common.h"

int main() {
  using namespace kdv;
  kdv_bench::PrintHeader("Figure 16",
                         "εKDV response time (s), varying resolution, "
                         "eps=0.01, Gaussian kernel");

  const int base = kdv_bench::BenchPixelsX();
  const std::vector<int> widths = {base / 4, base / 2, base, base * 2};
  const double eps = 0.01;

  std::FILE* csv = std::fopen("fig16.csv", "w");
  if (csv != nullptr) std::fprintf(csv, "dataset,width,method,seconds\n");

  for (const MixtureSpec& spec : PaperDatasetSpecs(kdv_bench::BenchScale())) {
    Workbench bench(GenerateMixture(spec), KernelType::kGaussian);
    std::printf("\n(%s, n=%zu)\n", spec.name.c_str(), bench.num_points());
    std::printf("%-12s %10s %10s %10s %10s\n", "resolution", "aKDE", "KARL",
                "QUAD", "Z-order");

    for (int w : widths) {
      PixelGrid grid = kdv_bench::MakeGrid(bench.data_bounds(), w);
      double secs[4];
      const Method methods[] = {Method::kAkde, Method::kKarl, Method::kQuad};
      for (int i = 0; i < 3; ++i) {
        KdeEvaluator evaluator = bench.MakeEvaluator(methods[i]);
        BatchStats stats;
        RenderEpsFrameParallel(evaluator, grid, eps, {}, nullptr, {}, &stats);
        secs[i] = stats.seconds;
        if (csv != nullptr) {
          std::fprintf(csv, "%s,%d,%s,%.6f\n", spec.name.c_str(), w,
                       MethodName(methods[i]), stats.seconds);
        }
      }
      {
        KdeEvaluator zorder = bench.MakeZorderEvaluator(eps);
        BatchStats stats;
        RenderEpsFrameParallel(zorder, grid, eps, {}, nullptr, {}, &stats);
        secs[3] = stats.seconds;
        if (csv != nullptr) {
          std::fprintf(csv, "%s,%d,Z-order,%.6f\n", spec.name.c_str(), w,
                       stats.seconds);
        }
      }
      char res[32];
      std::snprintf(res, sizeof(res), "%dx%d", w, w * 3 / 4);
      std::printf("%-12s %10.3f %10.3f %10.3f %10.3f\n", res, secs[0],
                  secs[1], secs[2], secs[3]);
    }
  }
  if (csv != nullptr) std::fclose(csv);
  std::printf("\nwrote fig16.csv\n");
  return 0;
}
