// High-level facade: dataset -> index -> method -> εKDV/τKDV frames.
//
// A Workbench owns one indexed dataset plus the bound-function objects for
// every method, and hands out ready-to-use KdeEvaluators. This is the
// entry-point API used by the examples and benchmarks:
//
//   kdv::Workbench bench(points, kdv::KernelType::kGaussian);
//   kdv::KdeEvaluator quad = bench.MakeEvaluator(kdv::Method::kQuad);
//   kdv::DensityFrame frame = kdv::RenderEpsFrameParallel(
//       quad, grid, 0.01, {}, nullptr, {}, nullptr);
#ifndef QUADKDV_WORKBENCH_WORKBENCH_H_
#define QUADKDV_WORKBENCH_WORKBENCH_H_

#include <map>
#include <memory>
#include <utility>

#include "bounds/node_bounds.h"
#include "core/evaluator.h"
#include "data/validate.h"
#include "geom/rect.h"
#include "index/kdtree.h"
#include "kernel/kernel.h"
#include "util/status.h"

namespace kdv {

// Query-parameter validation for the public entry points (Workbench,
// kdvtool). Each returns OK or InvalidArgument with a message naming the
// parameter; none of them abort. ε, τ, and γ must all be finite and > 0 —
// ε = 0 would demand exact bounds from the refinement loop, τ = 0 makes
// every pixel trivially "above threshold", and γ <= 0 is not a bandwidth.
Status ValidateEps(double eps);
Status ValidateTau(double tau);
Status ValidateGamma(double gamma);

class Workbench {
 public:
  struct Options {
    size_t leaf_size = 32;
    // If >= 0, overrides Scott's-rule gamma; weight stays 1/n.
    double gamma_override = -1.0;
    BoundsOptions bounds;
    // Ingestion policy applied by Create() before indexing.
    ValidateOptions validate;
  };

  // Validating factory: runs ValidatePointSet under options.validate, then
  // indexes the surviving points. Returns InvalidArgument for unusable data
  // (empty, or rejected under the configured policy) and for a non-finite
  // or zero options.gamma_override (negative means "unset" and is fine);
  // degenerate-but-usable geometry (single point, all-identical,
  // zero-variance dimension) succeeds with the degeneracy recorded in
  // ingest_report() — Scott's rule falls back to a unit bandwidth, so
  // densities stay finite.
  static StatusOr<std::unique_ptr<Workbench>> Create(PointSet points,
                                                     KernelType kernel,
                                                     Options options);
  static StatusOr<std::unique_ptr<Workbench>> Create(PointSet points,
                                                     KernelType kernel) {
    return Create(std::move(points), kernel, Options());
  }

  // Indexes `points` and derives kernel parameters (Scott's rule).
  // Pre-validated trusted inputs only: aborts on an empty set and indexes
  // NaN/Inf coordinates as-is. Untrusted data goes through Create().
  Workbench(PointSet points, KernelType kernel)
      : Workbench(std::move(points), kernel, Options()) {}
  Workbench(PointSet points, KernelType kernel, Options options);

  Workbench(const Workbench&) = delete;
  Workbench& operator=(const Workbench&) = delete;

  const KdTree& tree() const { return *tree_; }
  const KernelParams& params() const { return params_; }
  const Rect& data_bounds() const { return data_bounds_; }
  // What ingestion saw; only meaningful for Create()-built workbenches
  // (default-empty otherwise).
  const IngestReport& ingest_report() const { return ingest_report_; }
  KernelType kernel() const { return params_.type; }
  size_t num_points() const { return tree_->num_points(); }

  // True if `method` supports this kernel for the bound-based framework
  // (paper Table 6). kExact is always supported.
  bool Supports(Method method) const;

  // Returns an evaluator running `method` over the full dataset. The
  // Workbench keeps ownership of the underlying tree and bound function;
  // the evaluator is valid as long as the Workbench lives. Must not be
  // called with kZorder (see MakeZorderEvaluator) or an unsupported method.
  //
  // NOT thread-safe: this lazily builds and caches the bound function for
  // `method` (and MakeZorderEvaluator caches sampled trees), mutating the
  // Workbench. Create every evaluator you need BEFORE spawning serving
  // threads; the returned evaluators themselves are safe to share
  // concurrently (see KdeEvaluator).
  KdeEvaluator MakeEvaluator(Method method);

  // Z-order baseline: draws the ε-determined coreset, indexes it, and
  // returns an exact-scan evaluator over the weighted sample (paper §2,
  // "dataset sampling" camp; δ = 0.2 as in the experiments). The sampled
  // tree is cached per sample size.
  KdeEvaluator MakeZorderEvaluator(double eps, double delta = 0.2);

 private:
  std::unique_ptr<KdTree> tree_;
  KernelParams params_;
  Rect data_bounds_;
  Options options_;
  IngestReport ingest_report_;
  std::map<Method, std::unique_ptr<NodeBounds>> bounds_cache_;

  struct ZorderContext {
    std::unique_ptr<KdTree> tree;
    KernelParams params;
  };
  std::map<size_t, ZorderContext> zorder_cache_;  // keyed by sample size
};

}  // namespace kdv

#endif  // QUADKDV_WORKBENCH_WORKBENCH_H_
