// Ecological modeling with non-Gaussian kernels (paper §5 / Table 4):
// pollution-style data visualized with triangular, cosine and exponential
// kernels — the kernels KARL cannot accelerate but QUAD can. Renders one
// εKDV map per kernel and reports QUAD vs aKDE timings.
//
//   ./multi_kernel_ecology [out_prefix]
#include <cstdio>
#include <string>

#include "quadkdv.h"

int main(int argc, char** argv) {
  const std::string prefix = argc > 1 ? argv[1] : "ecology";

  // Pollution readings: smooth wide plumes (El-nino-like structure).
  kdv::MixtureSpec spec = kdv::ElNinoSpec(0.15);
  spec.name = "pollution";
  kdv::PointSet points = kdv::GenerateMixture(spec);
  std::printf("pollution-analogue dataset: %zu sensor readings\n",
              points.size());

  const kdv::KernelType kernels[] = {kdv::KernelType::kTriangular,
                                     kdv::KernelType::kCosine,
                                     kdv::KernelType::kExponential};
  for (kdv::KernelType kernel : kernels) {
    kdv::Workbench bench(kdv::PointSet(points), kernel);
    kdv::PixelGrid grid(240, 180, bench.data_bounds());

    // KARL is not applicable here (paper §5.1) — Table 6 in code:
    if (bench.Supports(kdv::Method::kKarl)) {
      std::fprintf(stderr, "unexpected: KARL should not support %s\n",
                   kdv::KernelTypeName(kernel));
      return 1;
    }

    kdv::KdeEvaluator quad = bench.MakeEvaluator(kdv::Method::kQuad);
    kdv::KdeEvaluator akde = bench.MakeEvaluator(kdv::Method::kAkde);

    kdv::BatchStats quad_stats;
    kdv::DensityFrame frame = kdv::RenderEpsFrameParallel(
        quad, grid, 0.01, {}, nullptr, {}, &quad_stats);
    kdv::BatchStats akde_stats;
    kdv::DensityFrame ref = kdv::RenderEpsFrameParallel(
        akde, grid, 0.01, {}, nullptr, {}, &akde_stats);

    double disagreement =
        kdv::AverageRelativeError(frame.values, ref.values, 1e-12);
    std::printf(
        "%-12s QUAD %6.3fs vs aKDE %6.3fs (speedup %5.1fx, frame delta "
        "%.2g)\n",
        kdv::KernelTypeName(kernel), quad_stats.seconds, akde_stats.seconds,
        akde_stats.seconds /
            (quad_stats.seconds > 0 ? quad_stats.seconds : 1e-9),
        disagreement);

    std::string path =
        prefix + "_" + kdv::KernelTypeName(kernel) + ".ppm";
    if (!kdv::RenderHeatMap(frame).WritePpm(path)) {
      std::fprintf(stderr, "failed to write %s\n", path.c_str());
      return 1;
    }
    std::printf("  wrote %s\n", path.c_str());
  }
  return 0;
}
