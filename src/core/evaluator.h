// Best-first refinement engine for kernel aggregation queries.
//
// This is the shared algorithm of §3.2 (aKDE / tKDC / KARL / QUAD all run
// it): per query point q, a priority queue holds index nodes ordered by
// bound gap UB - LB; running totals (lb, ub) over all live nodes shrink as
// nodes are popped and replaced by their children (or by exact leaf sums),
// and the query stops as soon as the operation's termination test holds:
//   εKDV:  ub <= (1+ε) * lb
//   τKDV:  lb >= τ  or  ub <= τ
//
// Every evaluation accepts an optional QueryControl (deadline +
// cancellation), polled cooperatively every control.check_interval
// refinement iterations, and reports numeric faults (NaN/Inf or inverted
// bound intervals) instead of propagating non-finite values: the returned
// estimate is always finite.
#ifndef QUADKDV_CORE_EVALUATOR_H_
#define QUADKDV_CORE_EVALUATOR_H_

#include <cstdint>
#include <vector>

#include "bounds/node_bounds.h"
#include "core/refinement_stream.h"
#include "core/tile_frontier.h"
#include "geom/point.h"
#include "index/kdtree.h"
#include "kernel/kernel.h"
#include "util/cancel.h"

namespace kdv {

// Outcome of one per-pixel evaluation.
struct EvalResult {
  double lower = 0.0;       // certified lower bound on F_P(q), finite
  double upper = 0.0;       // certified upper bound on F_P(q), finite
  double estimate = 0.0;    // returned density value R(q), finite
  uint64_t iterations = 0;  // refinement steps (queue pops)
  uint64_t points_scanned = 0;  // points evaluated exactly in leaves
  uint64_t node_evals = 0;  // per-node bound evaluations (traversal work)
  bool converged = false;   // termination test satisfied (or fully refined)
  bool interrupted = false;  // stopped early by deadline/cancellation
  bool numeric_fault = false;  // bound math misbehaved; interval was clamped
};

// Outcome of one τKDV classification.
struct TauResult {
  bool above_threshold = false;
  double lower = 0.0;
  double upper = 0.0;
  uint64_t iterations = 0;
  uint64_t points_scanned = 0;
  uint64_t node_evals = 0;
  bool interrupted = false;
  bool numeric_fault = false;
};

// One step of a bound-refinement trace (paper Fig. 18).
struct BoundStep {
  uint64_t iteration = 0;
  double lower = 0.0;
  double upper = 0.0;
};

// Per-query evaluator. Holds non-owning pointers: the tree, params and
// bounds must outlive it. `bounds == nullptr` selects the EXACT method
// (sequential scan) for every query.
//
// Thread safety: an evaluator has no mutable state — every Evaluate*/Refine*
// call works on locals — and the KdTree and NodeBounds it points at are
// immutable after construction, so one instance may serve concurrent
// queries from any number of threads (the contract the concurrent
// RenderService is built on). Construction of those dependencies must
// happen-before the sharing, e.g. by creating the evaluator before the
// serving threads start.
class KdeEvaluator {
 public:
  KdeEvaluator(const KdTree* tree, const KernelParams& params,
               const NodeBounds* bounds);

  // εKDV: returns R(q) with |R(q) - F_P(q)| <= ε * F_P(q).
  EvalResult EvaluateEps(const Point& q, double eps) const {
    return RefineEps(q, eps, nullptr, nullptr, nullptr);
  }

  // Deadline/cancellation-aware variant; on a stop, result.interrupted is
  // set and the (wider, still certified) current interval is returned.
  EvalResult EvaluateEps(const Point& q, double eps,
                         const QueryControl& control) const {
    return RefineEps(q, eps, nullptr, &control, nullptr);
  }

  // Zero-allocation variant: refines inside `scratch` (a stream from
  // MakeScratch()), whose queue buffer is reused across queries. Results are
  // bit-identical to the scratch-less overloads — Reset fully re-primes the
  // stream. One scratch serves one thread; it is the per-tile state of the
  // parallel frame renderer (viz/parallel_render.h).
  EvalResult EvaluateEps(const Point& q, double eps,
                         const QueryControl& control,
                         RefinementStream* scratch) const {
    return RefineEps(q, eps, nullptr, &control, scratch, nullptr);
  }

  // Seeded variant: the scratch stream is seeded from a chunk `frontier`
  // (core/tile_refiner.h) instead of the tree root. The certificate is
  // unchanged: |R(q) - F_P(q)| <= ε·F_P(q) for every q inside the tile the
  // frontier was built for.
  EvalResult EvaluateEpsSeeded(const Point& q, double eps,
                               const TileFrontier& frontier,
                               const QueryControl& control,
                               RefinementStream* scratch) const {
    return RefineEps(q, eps, nullptr, &control, scratch, &frontier);
  }

  // Same, recording (lb, ub) after every refinement step into *trace.
  EvalResult EvaluateEpsTraced(const Point& q, double eps,
                               std::vector<BoundStep>* trace) const {
    return RefineEps(q, eps, trace, nullptr, nullptr);
  }

  // τKDV: decides F_P(q) >= τ.
  TauResult EvaluateTau(const Point& q, double tau) const {
    return RefineTau(q, tau, nullptr, nullptr);
  }
  TauResult EvaluateTau(const Point& q, double tau,
                        const QueryControl& control) const {
    return RefineTau(q, tau, &control, nullptr);
  }
  TauResult EvaluateTau(const Point& q, double tau,
                        const QueryControl& control,
                        RefinementStream* scratch) const {
    return RefineTau(q, tau, &control, scratch, nullptr);
  }
  TauResult EvaluateTauSeeded(const Point& q, double tau,
                              const TileFrontier& frontier,
                              const QueryControl& control,
                              RefinementStream* scratch) const {
    return RefineTau(q, tau, &control, scratch, &frontier);
  }

  // Reusable per-thread refinement scratch for the EvaluateEps/EvaluateTau
  // scratch overloads. Unprimed until its first use.
  RefinementStream MakeScratch() const {
    return RefinementStream(tree_, params_, bounds_);
  }

  // Exact sequential evaluation of F_P(q) over all indexed points.
  double EvaluateExact(const Point& q) const;

  const KdTree& tree() const { return *tree_; }
  const KernelParams& params() const { return params_; }
  const NodeBounds* bounds() const { return bounds_; }

 private:
  EvalResult RefineEps(const Point& q, double eps,
                       std::vector<BoundStep>* trace,
                       const QueryControl* control, RefinementStream* scratch,
                       const TileFrontier* frontier = nullptr) const;
  TauResult RefineTau(const Point& q, double tau, const QueryControl* control,
                      RefinementStream* scratch,
                      const TileFrontier* frontier = nullptr) const;

  const KdTree* tree_;
  KernelParams params_;
  const NodeBounds* bounds_;
};

}  // namespace kdv

#endif  // QUADKDV_CORE_EVALUATOR_H_
