// Figure 21: QUAD-based progressive visualization of the home analogue at
// five time budgets. Writes one PPM per timestamp (the paper's strip of five
// frames) and reports how much of the frame was refined at each budget.
#include <cstdio>
#include <vector>

#include "bench_common.h"

int main() {
  using namespace kdv;
  kdv_bench::PrintHeader("Figure 21",
                         "QUAD progressive frames at five timestamps (home "
                         "analogue)");

  Workbench bench(GenerateMixture(HomeSpec(kdv_bench::BenchScale())),
                  KernelType::kGaussian);
  PixelGrid grid = kdv_bench::MakeGrid(bench.data_bounds());
  KdeEvaluator quad = bench.MakeEvaluator(Method::kQuad);

  DensityFrame truth = RenderEpsFrameParallel(quad, grid, 0.001, {}, nullptr,
                                              {}, nullptr);
  const double floor = 1e-6 * ComputeMeanStd(truth.values).mean;

  const std::vector<double> budgets = {0.005, 0.02, 0.05, 0.2, 0.5};
  std::printf("%-10s %14s %14s   %s\n", "budget(s)", "pixels", "avg rel err",
              "image");
  for (double budget : budgets) {
    ProgressiveResult r = RenderProgressive(quad, grid, 0.01, budget);
    char path[64];
    std::snprintf(path, sizeof(path), "fig21_t%.3f.ppm", budget);
    RenderHeatMap(r.frame).WritePpm(path);
    std::printf("%-10.3f %8llu/%zu %14.5f   %s%s\n", budget,
                static_cast<unsigned long long>(r.pixels_evaluated),
                grid.num_pixels(),
                AverageRelativeError(r.frame.values, truth.values, floor),
                path, r.stats.completed ? " (completed)" : "");
  }
  return 0;
}
