// Figure 2: the paper's illustration of the three operations on one dataset
// — (a) exact KDV, (b) εKDV with ε = 0.01 (visually identical), (c) τKDV
// two-color map. Writes the three PPMs and quantifies the (in)visibility of
// the differences.
#include <cstdio>

#include "bench_common.h"

int main() {
  using namespace kdv;
  kdv_bench::PrintHeader("Figure 2",
                         "exact KDV vs εKDV (ε=0.01) vs τKDV illustration "
                         "(crime analogue)");

  Workbench bench(GenerateMixture(CrimeSpec(kdv_bench::BenchScale())),
                  KernelType::kGaussian);
  PixelGrid grid = kdv_bench::MakeGrid(bench.data_bounds());

  KdeEvaluator exact = bench.MakeEvaluator(Method::kExact);
  BatchStats exact_stats;
  DensityFrame truth = RenderExactFrameParallel(exact, grid, {}, nullptr, {},
                                                &exact_stats);
  RenderHeatMap(truth).WritePpm("fig2a_exact.ppm");

  KdeEvaluator quad = bench.MakeEvaluator(Method::kQuad);
  BatchStats eps_stats;
  DensityFrame approx = RenderEpsFrameParallel(quad, grid, 0.01, {}, nullptr,
                                               {}, &eps_stats);
  RenderHeatMap(approx).WritePpm("fig2b_ekdv.ppm");

  MeanStd stats = ComputeMeanStd(truth.values);
  double tau = stats.mean + 0.1 * stats.stddev;
  BatchStats tau_stats;
  BinaryFrame mask = RenderTauFrameParallel(quad, grid, tau, {}, nullptr, {},
                                            &tau_stats);
  RenderThresholdMap(mask).WritePpm("fig2c_tkdv.ppm");

  double max_err = MaxRelativeError(approx.values, truth.values,
                                    1e-6 * stats.mean);
  size_t hot = 0;
  for (uint8_t v : mask.values) hot += v;

  std::printf("(a) exact KDV:   %.3fs -> fig2a_exact.ppm\n",
              exact_stats.seconds);
  std::printf("(b) εKDV (QUAD): %.3fs (%.0fx faster), max rel err %.2g "
              "-> fig2b_ekdv.ppm\n",
              eps_stats.seconds,
              exact_stats.seconds / std::max(eps_stats.seconds, 1e-9),
              max_err);
  std::printf("(c) τKDV (QUAD): %.3fs, tau=%.4g, %.1f%% hot pixels "
              "-> fig2c_tkdv.ppm\n",
              tau_stats.seconds, tau,
              100.0 * static_cast<double>(hot) /
                  static_cast<double>(mask.values.size()));
  return 0;
}
