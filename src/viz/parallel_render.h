// The frame engine: the one code path that evaluates frame pixels — whole
// εKDV / τKDV / exact KDV frames and progressive ones — on one thread or
// many.
//
// The grid is cut into square chunks of tile_rows pixels, and a work
// item is one chunk. Render*FrameParallel evaluate every pixel, claiming
// chunks row by row; RenderEpsFrameInOrder takes a pixel order from its
// caller (the progressive schedule's), sorts it into chunk buckets, claims
// chunks in the order of their first pixel in it and evaluates each bucket
// in that order. Workers claim items off a shared atomic counter, front to
// back, with per-worker reusable scratch (zero allocations after warm-up).
// The caller thread always participates, so a frame makes progress even
// when the helper pool is saturated or absent — with a null pool (or
// num_threads = 1) the caller renders every chunk itself, and a frame
// rendered through an exhausted pool degrades to exactly that rather than
// failing.
//
// With a bound function and a 2-d index, each chunk runs one region-bound
// pass (core/tile_refiner.h) over the hull of its pixel centers, which
// either answers the whole chunk (a certified fill, zero per-pixel work) or
// leaves a frontier that seeds every pixel's stream in place of the tree
// root. EXACT and non-2-d indexes run the same loop, every pixel
// root-seeded.
//
// Frame contract: a pixel's value depends only on its chunk's geometry and
// its own center — not on the thread count, the order, the frontier cache
// or which other pixels were evaluated — so a full progressive schedule
// reproduces RenderEpsFrameParallel bit for bit at the same chunk size, and
// EXACT frames equal per-pixel evaluation. Item stats are merged in item
// order, so the aggregate counters are deterministic too (seconds
// excepted).
//
// Stop, fault and work-counter contracts:
//   * QueryControl is polled before every chunk's region pass, before every
//     refined pixel and at iteration granularity inside each refining
//     evaluation; on a stop the partial frame comes back with
//     completed=false and the deadline_expired/cancelled flags set. Chunks
//     not yet claimed are abandoned and their pixels keep 0.
//   * The per-pixel failpoint sites ("runner.eps" / "runner.tau" /
//     "runner.exact"; "progressive.op" in RenderEpsFrameInOrder) fire at the
//     same polls, and Render*FrameParallel's whole-frame entry site
//     ("viz.render") before any work; an injected error stops the frame
//     with BatchStats::status set.
//   * Every evaluated pixel (a decided chunk's fills included) is counted in
//     BatchStats::queries, refined ones through AccumulateQueryStats, and
//     the per-item stats are summed with MergeWorkCounters
//     (core/kdv_runner.h).
#ifndef QUADKDV_VIZ_PARALLEL_RENDER_H_
#define QUADKDV_VIZ_PARALLEL_RENDER_H_

#include <cstdint>
#include <vector>

#include "core/evaluator.h"
#include "core/kdv_runner.h"
#include "util/cancel.h"
#include "util/thread_pool.h"
#include "viz/frame.h"
#include "viz/frontier_cache.h"
#include "viz/pixel_grid.h"

namespace kdv {

// Intra-frame parallelism knobs, threaded end-to-end (CLI --threads, the
// render service, the resilient renderer, bench_frame).
struct RenderOptions {
  // Worker threads per frame, including the calling thread. 0 means
  // hardware_concurrency; 1 renders serially in the caller. Values above 1
  // only take effect when an Executor is supplied.
  int num_threads = 1;
  // Chunk edge, clamped to the height and then the width: square chunks
  // make tight region-pass query rects. Small chunks balance load; large
  // ones amortize the pass over more pixels.
  int tile_rows = 16;
  // Optional cross-frame frontier cache; entries are namespaced by
  // cache_epoch (the serving layer passes its epoch id, so a dataset
  // hot-swap can never reuse stale frontiers).
  FrontierCache* frontier_cache = nullptr;
  uint64_t cache_epoch = 0;
};

// Resolves a --threads style request: 0 -> hardware_concurrency (>= 1),
// otherwise the value itself (clamped to >= 1).
int ResolveRenderThreads(int num_threads);

// εKDV over the whole grid in row-major order, fanned out over `pool`.
// `pool` may be nullptr and `stats` may be nullptr; helpers beyond the
// caller are submitted with TrySubmit, so an exhausted pool sheds work back
// onto the caller instead of blocking. The pool must not be the one
// executing the calling task when that pool has a bounded queue sized below
// num_threads (the caller participates, so no completion deadlock is
// possible either way).
DensityFrame RenderEpsFrameParallel(const KdeEvaluator& evaluator,
                                    const PixelGrid& grid, double eps,
                                    const RenderOptions& options,
                                    Executor* pool,
                                    const QueryControl& control,
                                    BatchStats* stats);

// The anytime form of RenderEpsFrameParallel, the engine under
// RenderProgressive (progressive/progressive.h): evaluates the pixels of
// `order` (row-major pixel indices, each at most once) in chunk buckets, the
// chunk of order[0] first. `evaluated` (required) is resized to the grid and
// gets 1 for exactly the pixels whose value the engine wrote — by
// refinement, by a refinement interrupted by the stop (its wider-interval
// estimate is kept), or by a decided chunk's fill; every other pixel is 0 in
// both the frame and the mask. The per-pixel failpoint site is
// "progressive.op"; no entry site fires ("progressive.render" is
// RenderProgressive's).
DensityFrame RenderEpsFrameInOrder(const KdeEvaluator& evaluator,
                                   const PixelGrid& grid, double eps,
                                   const std::vector<uint32_t>& order,
                                   const RenderOptions& options,
                                   Executor* pool,
                                   const QueryControl& control,
                                   BatchStats* stats,
                                   std::vector<uint8_t>* evaluated);

// τKDV over the whole grid.
BinaryFrame RenderTauFrameParallel(const KdeEvaluator& evaluator,
                                   const PixelGrid& grid, double tau,
                                   const RenderOptions& options,
                                   Executor* pool,
                                   const QueryControl& control,
                                   BatchStats* stats);

// Exact KDV over the whole grid.
DensityFrame RenderExactFrameParallel(const KdeEvaluator& evaluator,
                                      const PixelGrid& grid,
                                      const RenderOptions& options,
                                      Executor* pool,
                                      const QueryControl& control,
                                      BatchStats* stats);

}  // namespace kdv

#endif  // QUADKDV_VIZ_PARALLEL_RENDER_H_
