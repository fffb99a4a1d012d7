// Anytime traffic-hotspot monitoring (paper §6 / Fig. 21): the progressive
// framework streams coarse-to-fine εKDV frames; an operator can stop as soon
// as the picture is good enough. This example renders frames at increasing
// time budgets and reports their quality against the fully refined frame.
//
//   ./traffic_progressive [out_prefix]
#include <cstdio>
#include <string>
#include <vector>

#include "quadkdv.h"

int main(int argc, char** argv) {
  const std::string prefix = argc > 1 ? argv[1] : "traffic";

  // Traffic accidents cluster along a few corridors: reuse the many-hotspot
  // crime-style mixture at El-nino scale.
  kdv::MixtureSpec spec = kdv::CrimeSpec(0.15);
  spec.name = "traffic";
  spec.seed = 2024;
  kdv::PointSet points = kdv::GenerateMixture(spec);
  std::printf("traffic-analogue dataset: %zu incidents\n", points.size());

  kdv::Workbench bench(std::move(points), kdv::KernelType::kGaussian);
  kdv::PixelGrid grid(256, 192, bench.data_bounds());
  kdv::KdeEvaluator quad = bench.MakeEvaluator(kdv::Method::kQuad);

  // Ground truth for quality reporting: the completed progressive run.
  kdv::ProgressiveResult full =
      kdv::RenderProgressive(quad, grid, 0.01, /*budget=*/0.0);
  std::printf("full frame: %llu pixels in %.3f s\n",
              static_cast<unsigned long long>(full.pixels_evaluated),
              full.stats.seconds);

  const std::vector<double> budgets = {0.02, 0.05, 0.2, 0.5};
  for (double budget : budgets) {
    kdv::ProgressiveResult partial =
        kdv::RenderProgressive(quad, grid, 0.01, budget);
    double err = kdv::AverageRelativeError(partial.frame.values,
                                           full.frame.values, 1e-12);
    std::printf(
        "budget %.2fs: %6llu/%zu pixels evaluated, avg rel err %.4f%s\n",
        budget,
        static_cast<unsigned long long>(partial.pixels_evaluated),
        grid.num_pixels(), err, partial.stats.completed ? " (completed)" : "");

    char path[256];
    std::snprintf(path, sizeof(path), "%s_t%.2fs.ppm", prefix.c_str(),
                  budget);
    if (!kdv::RenderHeatMap(partial.frame).WritePpm(path)) {
      std::fprintf(stderr, "failed to write %s\n", path);
      return 1;
    }
  }
  std::printf("wrote %zu progressive frames with prefix '%s'\n",
              budgets.size(), prefix.c_str());
  return 0;
}
