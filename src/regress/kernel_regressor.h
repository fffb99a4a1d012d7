// Nadaraya–Watson kernel regression with certified bounds (paper §8 future
// work: "apply QUAD to other kernel-based machine learning models").
//
// The estimator at a query q is the ratio of two kernel aggregations,
//   R(q) = N(q) / D(q),  N(q) = Σ y_i K(q, p_i),  D(q) = Σ K(q, p_i),
// with non-negative targets y_i. N is a kernel aggregation over the same
// points weighted by y, so each kd-tree node carries a second, y-weighted
// NodeStats record (mass Σ y_i) and one NodeBounds object bounds both: D on
// the tree's own records, N on the weighted ones. One best-first refinement
// maintains certified intervals on N and D simultaneously; the ratio
// interval [lbN/ubD, ubN/lbD] tightens until the requested relative error
// is certified — QUAD's tighter bounds certify earlier.
#ifndef QUADKDV_REGRESS_KERNEL_REGRESSOR_H_
#define QUADKDV_REGRESS_KERNEL_REGRESSOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "bounds/node_bounds.h"
#include "index/kdtree.h"
#include "kernel/kernel.h"

namespace kdv {

class KernelRegressor {
 public:
  struct Options {
    Method method = Method::kQuad;
    KernelType kernel = KernelType::kGaussian;
    size_t leaf_size = 32;
    double gamma_override = -1.0;  // >= 0 overrides Scott's rule
    BoundsOptions bounds;
  };

  struct Result {
    double estimate = 0.0;       // midpoint of the certified ratio interval
    double lower = 0.0;          // certified ratio bounds
    double upper = 0.0;
    bool converged = false;      // certified to the requested eps
    bool defined = true;         // false if D(q) == 0 (no kernel mass at q)
    uint64_t iterations = 0;
    uint64_t points_scanned = 0;
  };

  // xs: sample locations; ys: non-negative targets, one per location.
  KernelRegressor(PointSet xs, std::vector<double> ys, const Options& options);

  KernelRegressor(const KernelRegressor&) = delete;
  KernelRegressor& operator=(const KernelRegressor&) = delete;

  const KdTree& tree() const { return *tree_; }
  const KernelParams& params() const { return params_; }

  // Certified (1±eps) estimate of R(q).
  Result Estimate(const Point& q, double eps) const;

  // Brute-force Nadaraya–Watson, for validation. Returns 0 and sets
  // *defined = false (if non-null) when D(q) underflows to zero.
  double EstimateExact(const Point& q, bool* defined = nullptr) const;

 private:
  Options options_;
  std::unique_ptr<KdTree> tree_;
  std::vector<double> y_;               // targets in tree order
  std::vector<NodeStats> numer_stats_;  // per node, points weighted by y
  KernelParams params_;
  std::unique_ptr<NodeBounds> bounds_;  // null for Method::kExact
};

}  // namespace kdv

#endif  // QUADKDV_REGRESS_KERNEL_REGRESSOR_H_
