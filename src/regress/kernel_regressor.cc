#include "regress/kernel_regressor.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "util/check.h"

namespace kdv {

namespace {

// Node entry carrying bounds for both aggregations.
struct QueueEntry {
  double priority = 0.0;
  int32_t node = -1;
  BoundPair numer;
  BoundPair denom;
};

struct PriorityLess {
  bool operator()(const QueueEntry& a, const QueueEntry& b) const {
    return a.priority < b.priority;
  }
};

// Bounds on N and D: a sum of node intervals and exact leaf sums.
struct Totals {
  double lb_n = 0.0;
  double ub_n = 0.0;
  double lb_d = 0.0;
  double ub_d = 0.0;

  void Add(const QueueEntry& e) {
    lb_n += e.numer.lower;
    ub_n += e.numer.upper;
    lb_d += e.denom.lower;
    ub_d += e.denom.upper;
  }
  void Subtract(const QueueEntry& e) {
    lb_n -= e.numer.lower;
    ub_n -= e.numer.upper;
    lb_d -= e.denom.lower;
    ub_d -= e.denom.upper;
  }
};

// The intervals of the queued nodes, summed afresh.
Totals SumQueued(const std::vector<QueueEntry>& heap) {
  Totals t;
  for (const QueueEntry& e : heap) t.Add(e);
  return t;
}

// Exact leaf sums of N and D plus the queued nodes' intervals.
Totals Compose(double exact_n, double exact_d, const Totals& queued) {
  return Totals{exact_n + queued.lb_n, exact_n + queued.ub_n,
                exact_d + queued.lb_d, exact_d + queued.ub_d};
}

// The ratio interval [lbN/ubD, ubN/lbD] the totals certify.
std::pair<double, double> RatioBounds(const Totals& t) {
  double lo = t.ub_d > 0.0 ? t.lb_n / t.ub_d : 0.0;
  double hi = t.lb_d > 0.0 ? t.ub_n / t.lb_d
                           : (t.ub_n > 0.0 ? std::numeric_limits<double>::max()
                                           : 0.0);
  return {lo, std::max(hi, lo)};
}

}  // namespace

KernelRegressor::KernelRegressor(PointSet xs, std::vector<double> ys,
                                 const Options& options)
    : options_(options) {
  KDV_CHECK_MSG(!xs.empty(), "KernelRegressor requires data");
  KDV_CHECK_MSG(xs.size() == ys.size(), "one target per sample required");

  params_ = MakeScottParams(options_.kernel, xs);
  params_.weight = 1.0;  // N and D are raw sums; the ratio cancels weights
  if (options_.gamma_override >= 0.0) params_.gamma = options_.gamma_override;

  KdTree::Options tree_options;
  tree_options.leaf_size = options_.leaf_size;
  tree_ = std::make_unique<KdTree>(std::move(xs), tree_options);
  y_.resize(ys.size());
  for (size_t i = 0; i < y_.size(); ++i) {
    y_[i] = ys[tree_->original_index(i)];
    KDV_CHECK_MSG(y_[i] >= 0.0, "regression targets must be non-negative");
  }
  const Point* points = tree_->points().data();
  numer_stats_.reserve(tree_->num_nodes());
  for (size_t id = 0; id < tree_->num_nodes(); ++id) {
    const KdTree::Node& node = tree_->node(static_cast<int32_t>(id));
    numer_stats_.push_back(NodeStats::Compute(
        points + node.begin, node.count(), y_.data() + node.begin));
  }
  bounds_ = MakeNodeBounds(options_.method, params_, options_.bounds);
}

double KernelRegressor::EstimateExact(const Point& q, bool* defined) const {
  const PointSet& pts = tree_->points();
  double numer = 0.0;
  double denom = 0.0;
  for (size_t i = 0; i < pts.size(); ++i) {
    double k = params_.EvalSquaredDistance(SquaredDistance(q, pts[i]));
    numer += y_[i] * k;
    denom += k;
  }
  if (defined != nullptr) *defined = denom > 0.0;
  return denom > 0.0 ? numer / denom : 0.0;
}

KernelRegressor::Result KernelRegressor::Estimate(const Point& q,
                                                  double eps) const {
  KDV_CHECK(eps >= 0.0);
  Result result;

  if (bounds_ == nullptr) {
    bool defined = true;
    result.estimate = EstimateExact(q, &defined);
    result.lower = result.upper = result.estimate;
    result.defined = defined;
    result.converged = true;
    result.points_scanned = tree_->num_points();
    return result;
  }

  auto node_bounds = [&](int32_t id) {
    QueueEntry e;
    e.node = id;
    const NodeStats& stats = tree_->node(id).stats;
    const NodeStats& numer_stats = numer_stats_[id];
    // A node whose targets are all zero adds exactly nothing to N (and its
    // bounds would divide by its zero mass).
    if (numer_stats.mass() > 0.0) e.numer = bounds_->Evaluate(numer_stats, q);
    e.denom = bounds_->Evaluate(stats, q);
    // Numerator and denominator gaps are commensurable after scaling the
    // denominator gap by the node's mean target value.
    double mean_y = numer_stats.mass() / stats.mass();
    e.priority = (e.numer.upper - e.numer.lower) +
                 mean_y * (e.denom.upper - e.denom.lower);
    return e;
  };

  // Leaf sums are exact and kept apart from the queued nodes' intervals.
  // The running totals of the queue gain and lose every node's interval, so
  // far from the data (a node's upper bound can be many orders of magnitude
  // above N or D) their rounding residue can exceed the interval itself.
  // They only propose a stop; the stop is confirmed, and the final interval
  // computed, on fresh sums of the queue.
  double exact_n = 0.0, exact_d = 0.0;
  Totals queued;
  std::vector<QueueEntry> heap;
  auto push = [&](const QueueEntry& e) {
    queued.Add(e);
    heap.push_back(e);
    std::push_heap(heap.begin(), heap.end(), PriorityLess());
  };
  // No kernel mass anywhere, or the ratio is certified.
  auto stops = [&](const Totals& t) {
    if (t.ub_d <= 0.0) return true;
    auto [lo, hi] = RatioBounds(t);
    return hi <= (1.0 + eps) * lo;
  };

  const PointSet& pts = tree_->points();
  push(node_bounds(tree_->root()));
  while (!heap.empty()) {
    if (stops(Compose(exact_n, exact_d, queued))) {
      queued = SumQueued(heap);
      if (stops(Compose(exact_n, exact_d, queued))) break;
    }
    std::pop_heap(heap.begin(), heap.end(), PriorityLess());
    const QueueEntry top = heap.back();
    heap.pop_back();
    queued.Subtract(top);
    ++result.iterations;

    const KdTree::Node& node = tree_->node(top.node);
    if (node.IsLeaf()) {
      for (uint32_t i = node.begin; i < node.end; ++i) {
        double k = params_.EvalSquaredDistance(SquaredDistance(q, pts[i]));
        exact_n += y_[i] * k;
        exact_d += k;
      }
      result.points_scanned += node.count();
    } else {
      push(node_bounds(node.left));
      push(node_bounds(node.right));
    }
  }

  Totals t = Compose(exact_n, exact_d, SumQueued(heap));
  if (t.ub_n < t.lb_n) t.ub_n = t.lb_n;
  if (t.ub_d < t.lb_d) t.ub_d = t.lb_d;
  auto [lo, hi] = RatioBounds(t);
  result.defined = t.ub_d > 0.0;
  result.lower = lo;
  result.upper = hi;
  result.estimate = result.defined ? 0.5 * (lo + hi) : 0.0;
  result.converged =
      !result.defined || hi <= (1.0 + eps) * lo || heap.empty();
  return result;
}

}  // namespace kdv
