// Progressive visualization framework (paper §6).
//
// Instead of evaluating pixels in row-major order, pixels are evaluated in a
// quad-tree order: the center pixel of the frame first (its density value
// stands in for the whole frame), then the centers of the four quadrants,
// and so on — each evaluated pixel's value fills its surrounding region
// until refined. The user (or a Deadline / CancelToken) can stop at any time
// t and keep a coarse-to-fine approximation of the full color map.
//
// Robustness contract: the returned frame is always finite, whatever stopped
// the run — an expired budget, a cancellation, a numeric fault (clamped and
// counted), or an injected failpoint error (reported in `stats.status`) —
// and fully painted once the first representative was evaluated.
//
// The evaluation itself is the frame engine's (viz/parallel_render.h) run
// over the schedule's pixel order, so progressive frames share its scratch
// reuse, thread fan-out, chunk region passes and frame metrics.
#ifndef QUADKDV_PROGRESSIVE_PROGRESSIVE_H_
#define QUADKDV_PROGRESSIVE_PROGRESSIVE_H_

#include <cstdint>
#include <vector>

#include "core/evaluator.h"
#include "core/kdv_runner.h"
#include "util/cancel.h"
#include "util/thread_pool.h"
#include "viz/frame.h"
#include "viz/parallel_render.h"
#include "viz/pixel_grid.h"

namespace kdv {

// One step of the progressive schedule: evaluate the density at pixel
// (cx, cy) and paint it over the region [x0, x1) x [y0, y1).
struct RegionOp {
  int x0 = 0, y0 = 0;  // region top-left (inclusive)
  int x1 = 0, y1 = 0;  // region bottom-right (exclusive)
  int cx = 0, cy = 0;  // representative pixel
};

// Builds the quad-tree evaluation schedule for a width x height frame
// (breadth-first: coarse levels before fine levels, as in paper Fig. 13).
// Every pixel appears as the representative of at least one op, so running
// the full schedule evaluates the complete frame.
std::vector<RegionOp> QuadTreeSchedule(int width, int height);

// Row-major schedule (each op is a single pixel). The non-progressive
// baseline order, used in ablations.
std::vector<RegionOp> RowMajorSchedule(int width, int height);

// Result of a progressive render. Whether the schedule ran to completion or
// why it stopped (deadline, cancellation, injected fault), and how many
// pixel values were clamped, are read from `stats`.
struct ProgressiveResult {
  DensityFrame frame;             // finite values
  uint64_t pixels_evaluated = 0;  // distinct pixels given ε values
  // Every pixel the schedule covers carries a value: the schedule ran to
  // completion, or its first representative — whose region is the whole
  // frame in a quad-tree schedule — was evaluated before the stop.
  bool fully_painted = false;
  BatchStats stats;  // the frame engine's, plus clamped non-finite values
};

// Runs the schedule under `control` (deadline + cancellation) on the frame
// engine (viz/parallel_render.h): the schedule's representative pixels are
// evaluated (εKDV, the evaluator's method) in first-visit order, grouped by
// chunk (the chunk of the frame's center first), fanned out over `pool` per
// `options`; then every op whose representative was evaluated paints the
// unevaluated pixels of its region, finer ops over coarser ones (skipped
// when every pixel was evaluated). Each evaluated pixel carries the value
// RenderEpsFrameParallel gives it at the same tile_rows, so a
// completed schedule reproduces that frame bit for bit, and a prefix of the
// schedule paints what an op-by-op run over those values paints.
ProgressiveResult RenderProgressive(const KdeEvaluator& evaluator,
                                    const PixelGrid& grid, double eps,
                                    const QueryControl& control,
                                    const std::vector<RegionOp>& schedule,
                                    const RenderOptions& options,
                                    Executor* pool);

// Budget-seconds convenience forms (<= 0 means run to completion), on one
// thread with default RenderOptions.
ProgressiveResult RenderProgressive(const KdeEvaluator& evaluator,
                                    const PixelGrid& grid, double eps,
                                    double budget_seconds,
                                    const std::vector<RegionOp>& schedule);

// Convenience overload using the quad-tree schedule.
ProgressiveResult RenderProgressive(const KdeEvaluator& evaluator,
                                    const PixelGrid& grid, double eps,
                                    double budget_seconds);

}  // namespace kdv

#endif  // QUADKDV_PROGRESSIVE_PROGRESSIVE_H_
