// Quickstart: synthesize a clustered 2-d dataset, run εKDV with QUAD, and
// write the color map as a PPM image.
//
//   ./quickstart [output.ppm]
#include <cstdio>
#include <string>

#include "quadkdv.h"

int main(int argc, char** argv) {
  const std::string output = argc > 1 ? argv[1] : "quickstart_heatmap.ppm";

  // 1. A dataset: ~27k points mimicking the paper's crime data (Table 5).
  kdv::PointSet points = kdv::GenerateMixture(kdv::CrimeSpec(0.1));
  std::printf("dataset: %zu points\n", points.size());

  // 2. Validate + index it and pick the Gaussian kernel with Scott's-rule
  //    bandwidth. Create() returns a Status instead of aborting on bad data.
  kdv::StatusOr<std::unique_ptr<kdv::Workbench>> bench_or =
      kdv::Workbench::Create(std::move(points), kdv::KernelType::kGaussian);
  if (!bench_or.ok()) {
    std::fprintf(stderr, "quickstart: %s\n",
                 bench_or.status().ToString().c_str());
    return 1;
  }
  kdv::Workbench& bench = **bench_or;
  std::printf("ingest: %s\n", bench.ingest_report().Summary().c_str());
  std::printf("kernel: %s, gamma=%.4g, weight=%.4g\n",
              kdv::KernelTypeName(bench.kernel()), bench.params().gamma,
              bench.params().weight);

  // 3. εKDV with the QUAD bounds at 320x240.
  kdv::KdeEvaluator quad = bench.MakeEvaluator(kdv::Method::kQuad);
  kdv::PixelGrid grid(320, 240, bench.data_bounds());
  kdv::BatchStats stats;
  kdv::DensityFrame frame = kdv::RenderEpsFrameParallel(quad, grid, 0.01, {},
                                                        nullptr, {}, &stats);
  std::printf("rendered %llu pixels in %.3f s (%.1f refinement steps/pixel)\n",
              static_cast<unsigned long long>(stats.queries), stats.seconds,
              static_cast<double>(stats.iterations) /
                  static_cast<double>(stats.queries));

  // 4. Write the heat map.
  if (!kdv::RenderHeatMap(frame).WritePpm(output)) {
    std::fprintf(stderr, "failed to write %s\n", output.c_str());
    return 1;
  }
  std::printf("wrote %s\n", output.c_str());
  return 0;
}
