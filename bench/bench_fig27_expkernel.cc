// Figure 27 (appendix §9.7): exponential kernel — εKDV response time on the
// crime and hep analogues (aKDE, Z-order, QUAD) and τKDV response time
// (tKDC, QUAD). Paper result: QUAD keeps its ≥1 order-of-magnitude lead; on
// hep the paper's tKDC exceeded the 2-hour budget entirely.
#include <cstdio>
#include <vector>

#include "bench_common.h"

int main() {
  using namespace kdv;
  kdv_bench::PrintHeader("Figure 27",
                         "exponential kernel: εKDV and τKDV response time "
                         "(s)");

  const MixtureSpec specs[] = {CrimeSpec(kdv_bench::BenchScale()),
                               HepSpec(kdv_bench::BenchScale())};
  const std::vector<double> eps_values = {0.01, 0.02, 0.03, 0.04, 0.05};
  const double ks[] = {-0.2, -0.1, 0.0, 0.1, 0.2};

  std::FILE* csv = std::fopen("fig27.csv", "w");
  if (csv != nullptr) std::fprintf(csv, "dataset,op,x,method,seconds\n");

  for (const MixtureSpec& spec : specs) {
    Workbench bench(GenerateMixture(spec), KernelType::kExponential);
    PixelGrid grid = kdv_bench::MakeGrid(bench.data_bounds());

    std::printf("\n(%s, exponential kernel, n=%zu) — εKDV\n",
                spec.name.c_str(), bench.num_points());
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
        std::fprintf(csv, "%s,eps,%g,aKDE,%.6f\n", spec.name.c_str(), eps,
                     secs[0]);
        std::fprintf(csv, "%s,eps,%g,QUAD,%.6f\n", spec.name.c_str(), eps,
                     secs[1]);
        std::fprintf(csv, "%s,eps,%g,Z-order,%.6f\n", spec.name.c_str(), eps,
                     secs[2]);
      }
    }

    KdeEvaluator quad = bench.MakeEvaluator(Method::kQuad);
    MeanStd stats = EstimateDensityStats(quad, grid, /*stride=*/8);
    std::printf("\n(%s, exponential kernel) — τKDV (mu=%.4g, sigma=%.4g)\n",
                spec.name.c_str(), stats.mean, stats.stddev);
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
        std::fprintf(csv, "%s,tau,%.1f,tKDC,%.6f\n", spec.name.c_str(), k,
                     secs[0]);
        std::fprintf(csv, "%s,tau,%.1f,QUAD,%.6f\n", spec.name.c_str(), k,
                     secs[1]);
      }
    }
  }
  if (csv != nullptr) std::fclose(csv);
  std::printf("\nwrote fig27.csv\n");
  return 0;
}
