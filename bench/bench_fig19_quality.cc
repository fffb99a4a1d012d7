// Figure 19: visualization quality of εKDV (ε = 0.01) across methods on the
// home analogue. All deterministic-guarantee methods (aKDE, KARL, QUAD)
// produce color maps indistinguishable from exact KDV; Z-order is close but
// only probabilistically bounded. Writes one PPM per method and prints the
// error table.
#include <cstdio>
#include <string>

#include "bench_common.h"

int main() {
  using namespace kdv;
  kdv_bench::PrintHeader("Figure 19",
                         "εKDV quality across methods (home analogue, "
                         "eps=0.01)");

  Workbench bench(GenerateMixture(HomeSpec(kdv_bench::BenchScale())),
                  KernelType::kGaussian);
  PixelGrid grid = kdv_bench::MakeGrid(bench.data_bounds());
  const double eps = 0.01;

  KdeEvaluator exact = bench.MakeEvaluator(Method::kExact);
  BatchStats exact_stats;
  DensityFrame truth = RenderExactFrameParallel(exact, grid, {}, nullptr, {},
                                                &exact_stats);
  RenderHeatMap(truth).WritePpm("fig19_exact.ppm");
  std::printf("%-10s %10s %14s %14s   %s\n", "method", "time(s)",
              "avg rel err", "max rel err", "image");
  std::printf("%-10s %10.3f %14s %14s   %s\n", "EXACT", exact_stats.seconds,
              "0", "0", "fig19_exact.ppm");

  const double floor = 1e-6 * ComputeMeanStd(truth.values).mean;

  for (Method method : {Method::kAkde, Method::kKarl, Method::kQuad}) {
    KdeEvaluator evaluator = bench.MakeEvaluator(method);
    BatchStats stats;
    DensityFrame frame = RenderEpsFrameParallel(evaluator, grid, eps, {},
                                                nullptr, {}, &stats);
    std::string path =
        std::string("fig19_") + MethodName(method) + ".ppm";
    RenderHeatMap(frame).WritePpm(path);
    std::printf("%-10s %10.3f %14.6g %14.6g   %s\n", MethodName(method),
                stats.seconds,
                AverageRelativeError(frame.values, truth.values, floor),
                MaxRelativeError(frame.values, truth.values, floor),
                path.c_str());
  }
  {
    KdeEvaluator zorder = bench.MakeZorderEvaluator(eps);
    BatchStats stats;
    DensityFrame frame = RenderEpsFrameParallel(zorder, grid, eps, {}, nullptr,
                                                {}, &stats);
    RenderHeatMap(frame).WritePpm("fig19_zorder.ppm");
    std::printf("%-10s %10.3f %14.6g %14.6g   %s\n", "Z-order", stats.seconds,
                AverageRelativeError(frame.values, truth.values, floor),
                MaxRelativeError(frame.values, truth.values, floor),
                "fig19_zorder.ppm");
  }
  std::printf("\n(deterministic methods respect max rel err <= eps; Z-order "
              "is probabilistic)\n");
  return 0;
}
