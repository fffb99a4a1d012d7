// Micro-benchmarks (google-benchmark): per-node bound evaluation costs,
// validating the paper's complexity claims — O(d) for aKDE/KARL and the
// distance-kernel QUAD bounds, O(d^2) for the Gaussian QUAD bounds — plus
// the aggregate-statistics primitives and index build.
//
// BM_BoundEvaluate re-evaluates one hot NodeStats, so it prices the
// arithmetic only; BM_TreeSweepQuadGaussian sweeps every node of a crime
// tree and also pays for fetching each node record, so it is the one that
// sees the record layout. Smoke run:
//   bench_micro_bounds --benchmark_filter=TreeSweep --benchmark_min_time=0.05
#include <map>
#include <memory>
#include <vector>

#include <benchmark/benchmark.h>

#include "quadkdv.h"

namespace {

kdv::PointSet RandomPoints(int n, int dim, uint64_t seed) {
  kdv::Rng rng(seed);
  kdv::PointSet pts;
  for (int i = 0; i < n; ++i) {
    kdv::Point p(dim);
    for (int j = 0; j < dim; ++j) p[j] = rng.NextDouble();
    pts.push_back(p);
  }
  return pts;
}

struct Fixture {
  explicit Fixture(int dim)
      : points(RandomPoints(256, dim, 7)),
        stats(kdv::NodeStats::Compute(points.data(), points.size())),
        query(dim) {
    kdv::Rng rng(11);
    for (int j = 0; j < dim; ++j) query[j] = rng.Uniform(-1.0, 2.0);
  }
  kdv::PointSet points;
  kdv::NodeStats stats;
  kdv::Point query;
};

void BM_SumSquaredDistances(benchmark::State& state) {
  Fixture f(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.stats.SumSquaredDistances(f.query));
  }
}
BENCHMARK(BM_SumSquaredDistances)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

void BM_SumQuarticDistances(benchmark::State& state) {
  Fixture f(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.stats.SumQuarticDistances(f.query));
  }
}
BENCHMARK(BM_SumQuarticDistances)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

template <kdv::Method M, kdv::KernelType K>
void BM_BoundEvaluate(benchmark::State& state) {
  Fixture f(static_cast<int>(state.range(0)));
  kdv::KernelParams params;
  params.type = K;
  params.gamma = 2.0;
  params.weight = 1.0;
  std::unique_ptr<kdv::NodeBounds> bounds = kdv::MakeNodeBounds(M, params);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bounds->Evaluate(f.stats, f.query));
  }
}

BENCHMARK(BM_BoundEvaluate<kdv::Method::kAkde, kdv::KernelType::kGaussian>)
    ->Arg(2)
    ->Arg(8)
    ->Arg(16);
BENCHMARK(BM_BoundEvaluate<kdv::Method::kKarl, kdv::KernelType::kGaussian>)
    ->Arg(2)
    ->Arg(8)
    ->Arg(16);
BENCHMARK(BM_BoundEvaluate<kdv::Method::kQuad, kdv::KernelType::kGaussian>)
    ->Arg(2)
    ->Arg(8)
    ->Arg(16);
BENCHMARK(
    BM_BoundEvaluate<kdv::Method::kQuad, kdv::KernelType::kTriangular>)
    ->Arg(2)
    ->Arg(8)
    ->Arg(16);
BENCHMARK(BM_BoundEvaluate<kdv::Method::kQuad, kdv::KernelType::kCosine>)
    ->Arg(2)
    ->Arg(8)
    ->Arg(16);
BENCHMARK(
    BM_BoundEvaluate<kdv::Method::kQuad, kdv::KernelType::kExponential>)
    ->Arg(2)
    ->Arg(8)
    ->Arg(16);

// QUAD-Gaussian bounds over every node of a 2-d crime tree, in node-id
// order, one query per sweep (cycling over a few points of the data
// bounds). The argument is the crime scale in percent of the paper's 271k
// points; at 100 the node array (32,767 records) is several MB, so records
// stream in from memory rather than sit in L1/L2.
void BM_TreeSweepQuadGaussian(benchmark::State& state) {
  static std::map<int64_t, std::unique_ptr<kdv::KdTree>> trees;
  std::unique_ptr<kdv::KdTree>& tree = trees[state.range(0)];
  if (tree == nullptr) {
    tree = std::make_unique<kdv::KdTree>(kdv::GenerateMixture(
        kdv::CrimeSpec(static_cast<double>(state.range(0)) / 100.0)));
  }
  const kdv::KernelParams params =
      kdv::MakeScottParams(kdv::KernelType::kGaussian, tree->points());
  std::unique_ptr<kdv::NodeBounds> bounds =
      kdv::MakeNodeBounds(kdv::Method::kQuad, params);
  const kdv::Rect box = tree->node(tree->root()).stats.mbr();
  std::vector<kdv::Point> queries;
  kdv::Rng rng(5);
  for (int i = 0; i < 16; ++i) {
    queries.push_back(kdv::Point{rng.Uniform(box.lo(0), box.hi(0)),
                                 rng.Uniform(box.lo(1), box.hi(1))});
  }
  const int32_t num_nodes = static_cast<int32_t>(tree->num_nodes());
  size_t sweep = 0;
  for (auto _ : state) {
    const kdv::Point& q = queries[sweep++ % queries.size()];
    double acc = 0.0;
    for (int32_t id = 0; id < num_nodes; ++id) {
      acc += bounds->Evaluate(tree->node(id).stats, q).upper;
    }
    benchmark::DoNotOptimize(acc);
  }
  const double evals = static_cast<double>(state.iterations()) * num_nodes;
  state.SetItemsProcessed(static_cast<int64_t>(evals));
  state.counters["ns_per_node"] = benchmark::Counter(
      evals * 1e-9, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.counters["nodes"] = num_nodes;
}
BENCHMARK(BM_TreeSweepQuadGaussian)->Arg(10)->Arg(100);

void BM_KdTreeBuild(benchmark::State& state) {
  kdv::PointSet pts = RandomPoints(static_cast<int>(state.range(0)), 2, 3);
  for (auto _ : state) {
    kdv::KdTree tree{kdv::PointSet(pts)};
    benchmark::DoNotOptimize(tree.num_nodes());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_KdTreeBuild)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_EpsQueryQuad(benchmark::State& state) {
  kdv::PointSet pts =
      kdv::GenerateMixture(kdv::CrimeSpec(0.01));
  kdv::Workbench bench(std::move(pts), kdv::KernelType::kGaussian);
  kdv::KdeEvaluator quad = bench.MakeEvaluator(kdv::Method::kQuad);
  kdv::Point q = bench.data_bounds().Center();
  for (auto _ : state) {
    benchmark::DoNotOptimize(quad.EvaluateEps(q, 0.01));
  }
}
BENCHMARK(BM_EpsQueryQuad);

}  // namespace

BENCHMARK_MAIN();
