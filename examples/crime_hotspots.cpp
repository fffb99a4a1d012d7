// Hotspot detection (the paper's motivating criminology scenario, Fig. 1-2):
// τKDV renders a two-color map marking regions whose kernel density exceeds
// a threshold. Compares the tKDC baseline against QUAD on the same mask.
//
//   ./crime_hotspots [out_prefix]
#include <cstdio>
#include <string>

#include "quadkdv.h"

int main(int argc, char** argv) {
  const std::string prefix = argc > 1 ? argv[1] : "crime";

  kdv::PointSet points = kdv::GenerateMixture(kdv::CrimeSpec(0.1));
  std::printf("crime-analogue dataset: %zu incident locations\n",
              points.size());

  kdv::StatusOr<std::unique_ptr<kdv::Workbench>> bench_or =
      kdv::Workbench::Create(std::move(points), kdv::KernelType::kGaussian);
  if (!bench_or.ok()) {
    std::fprintf(stderr, "crime_hotspots: %s\n",
                 bench_or.status().ToString().c_str());
    return 1;
  }
  kdv::Workbench& bench = **bench_or;
  kdv::PixelGrid grid(320, 240, bench.data_bounds());

  // Thresholds placed around the density statistics (paper §7.2):
  // μ - 0.1σ, μ, μ + 0.1σ.
  kdv::KdeEvaluator quad = bench.MakeEvaluator(kdv::Method::kQuad);
  kdv::MeanStd stats = kdv::EstimateDensityStats(quad, grid, /*stride=*/8);
  std::printf("density stats over screen: mean=%.4g stddev=%.4g\n",
              stats.mean, stats.stddev);

  kdv::KdeEvaluator tkdc = bench.MakeEvaluator(kdv::Method::kTkdc);

  const double ks[] = {-0.1, 0.0, 0.1};
  for (double k : ks) {
    double tau = stats.mean + k * stats.stddev;

    kdv::BatchStats quad_stats;
    kdv::BinaryFrame mask = kdv::RenderTauFrameParallel(
        quad, grid, tau, {}, nullptr, {}, &quad_stats);
    kdv::BatchStats tkdc_stats;
    kdv::BinaryFrame mask_ref = kdv::RenderTauFrameParallel(
        tkdc, grid, tau, {}, nullptr, {}, &tkdc_stats);

    size_t hot = 0;
    for (uint8_t v : mask.values) hot += v;
    double mismatch = kdv::BinaryMismatchRate(mask.values, mask_ref.values);
    std::printf(
        "tau = mu%+.1fsigma: %5.1f%% hot pixels | QUAD %6.3fs vs tKDC %6.3fs "
        "(speedup %.1fx, mask mismatch %.2g)\n",
        k, 100.0 * hot / mask.values.size(), quad_stats.seconds,
        tkdc_stats.seconds,
        tkdc_stats.seconds / (quad_stats.seconds > 0 ? quad_stats.seconds
                                                     : 1e-9),
        mismatch);

    char path[256];
    std::snprintf(path, sizeof(path), "%s_hotspots_k%+.1f.ppm",
                  prefix.c_str(), k);
    if (!kdv::RenderThresholdMap(mask).WritePpm(path)) {
      std::fprintf(stderr, "failed to write %s\n", path);
      return 1;
    }
    std::printf("  wrote %s\n", path);
  }
  return 0;
}
