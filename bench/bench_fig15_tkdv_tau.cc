// Figure 15: τKDV response time vs threshold τ ∈ {μ±kσ} on the four
// datasets (tKDC, KARL, QUAD). Paper result: QUAD wins by at least one order
// of magnitude for every τ.
#include <cstdio>
#include <vector>

#include "bench_common.h"

int main() {
  using namespace kdv;
  kdv_bench::PrintHeader(
      "Figure 15", "τKDV response time (s), varying τ, Gaussian kernel");

  std::FILE* csv = std::fopen("fig15.csv", "w");
  if (csv != nullptr) std::fprintf(csv, "dataset,k,method,seconds\n");

  for (const MixtureSpec& spec : PaperDatasetSpecs(kdv_bench::BenchScale())) {
    Workbench bench(GenerateMixture(spec), KernelType::kGaussian);
    PixelGrid grid = kdv_bench::MakeGrid(bench.data_bounds());

    KdeEvaluator quad = bench.MakeEvaluator(Method::kQuad);
    MeanStd stats = EstimateDensityStats(quad, grid, /*stride=*/8);
    std::vector<double> taus = TauSweep(stats);
    const double ks[] = {-0.3, -0.2, -0.1, 0.0, 0.1, 0.2, 0.3};

    std::printf("\n(%s, n=%zu, mu=%.4g, sigma=%.4g)\n", spec.name.c_str(),
                bench.num_points(), stats.mean, stats.stddev);
    std::printf("%-12s %10s %10s %10s\n", "tau", "tKDC", "KARL", "QUAD");

    for (size_t t = 0; t < taus.size(); ++t) {
      double secs[3];
      const Method methods[] = {Method::kTkdc, Method::kKarl, Method::kQuad};
      for (int i = 0; i < 3; ++i) {
        KdeEvaluator evaluator = bench.MakeEvaluator(methods[i]);
        BatchStats bstats;
        RenderTauFrameParallel(evaluator, grid, taus[t], {}, nullptr, {},
                               &bstats);
        secs[i] = bstats.seconds;
        if (csv != nullptr) {
          std::fprintf(csv, "%s,%.1f,%s,%.6f\n", spec.name.c_str(), ks[t],
                       MethodName(methods[i]), bstats.seconds);
        }
      }
      std::printf("mu%+.1fsigma   %10.3f %10.3f %10.3f\n", ks[t], secs[0],
                  secs[1], secs[2]);
    }
  }
  if (csv != nullptr) std::fclose(csv);
  std::printf("\nwrote fig15.csv\n");
  return 0;
}
