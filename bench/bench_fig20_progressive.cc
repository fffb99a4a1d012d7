// Figure 20: average relative error of the progressive visualization
// framework under increasing time budgets, for EXACT, aKDE, KARL, Z-order
// and QUAD on all four datasets. Paper result: at every timestamp QUAD has
// evaluated more pixels than any competitor and therefore shows the lowest
// error; it reaches near-εKDV quality within fractions of a second.
#include <cstdio>
#include <vector>

#include "bench_common.h"

int main() {
  using namespace kdv;
  kdv_bench::PrintHeader("Figure 20",
                         "progressive framework: avg rel error vs time "
                         "budget (eps=0.01)");

  // Budgets follow the paper's geometric ladder, shrunk by one step since
  // the bench datasets are smaller.
  const std::vector<double> budgets = {0.002, 0.01, 0.05, 0.25, 1.25};
  const double eps = 0.01;

  std::FILE* csv = std::fopen("fig20.csv", "w");
  if (csv != nullptr) std::fprintf(csv, "dataset,budget,method,avg_rel_err\n");

  for (const MixtureSpec& spec : PaperDatasetSpecs(kdv_bench::BenchScale())) {
    Workbench bench(GenerateMixture(spec), KernelType::kGaussian);
    PixelGrid grid = kdv_bench::MakeGrid(bench.data_bounds());

    // Reference frame: tightly certified εKDV (ε = 0.001) with QUAD.
    KdeEvaluator quad = bench.MakeEvaluator(Method::kQuad);
    DensityFrame truth = RenderEpsFrameParallel(quad, grid, 0.001, {}, nullptr,
                                                {}, nullptr);
    const double floor = 1e-6 * ComputeMeanStd(truth.values).mean;

    std::printf("\n(%s, n=%zu)\n", spec.name.c_str(), bench.num_points());
    std::printf("%-10s %12s %12s %12s %12s %12s\n", "budget(s)", "EXACT",
                "aKDE", "KARL", "Z-order", "QUAD");

    for (double budget : budgets) {
      std::printf("%-10.3f", budget);
      struct Entry {
        const char* name;
        KdeEvaluator evaluator;
      };
      std::vector<Entry> entries;
      entries.push_back({"EXACT", bench.MakeEvaluator(Method::kExact)});
      entries.push_back({"aKDE", bench.MakeEvaluator(Method::kAkde)});
      entries.push_back({"KARL", bench.MakeEvaluator(Method::kKarl)});
      entries.push_back({"Z-order", bench.MakeZorderEvaluator(eps)});
      entries.push_back({"QUAD", bench.MakeEvaluator(Method::kQuad)});
      for (Entry& e : entries) {
        ProgressiveResult r =
            RenderProgressive(e.evaluator, grid, eps, budget);
        double err =
            AverageRelativeError(r.frame.values, truth.values, floor);
        std::printf(" %12.5f", err);
        if (csv != nullptr) {
          std::fprintf(csv, "%s,%g,%s,%.8f\n", spec.name.c_str(), budget,
                       e.name, err);
        }
      }
      std::printf("\n");
    }
  }
  if (csv != nullptr) std::fclose(csv);
  std::printf("\nwrote fig20.csv\n");
  return 0;
}
