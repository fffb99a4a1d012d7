// The frame engine: the one code path that evaluates frame pixels — whole
// εKDV / τKDV / exact KDV frames and progressive ones — on one thread or
// many.
//
// A work item is a contiguous range of a pixel order, tile_rows * width
// pixels long. Render*FrameParallel use row-major order, whose items are the
// horizontal bands of `tile_rows` rows; RenderEpsFrameInOrder takes the order
// from its caller (the progressive schedule's). Workers claim items off a
// shared atomic counter, front to back, and evaluate their pixels with a
// per-worker reusable RefinementStream (zero allocations after warm-up).
// The caller thread always participates in tile processing, so a frame makes
// progress even when the helper pool is saturated or absent — with a null
// pool (or num_threads = 1) the caller renders every band itself, and a
// frame rendered through an exhausted pool degrades to exactly that rather
// than failing.
//
// Determinism: pixels are independent queries and every worker runs the
// same per-pixel evaluation as a fresh-stream KdeEvaluator::EvaluateEps /
// EvaluateTau / EvaluateExact call, so a completed frame is bit-identical to
// per-pixel evaluation for any thread count, tile size and order. Tile stats
// are merged in tile-index order, so the aggregate BatchStats counters are
// deterministic too (seconds excepted).
//
// Tile-shared mode (RenderOptions::tile_shared) keeps row bands cut into
// column chunks whatever the order, and amortizes the tree traversal
// across the pixels of each tile chunk with one region-bound pass
// (core/tile_refiner.h) and seeds every pixel's stream from the shared
// frontier. Frames remain deterministic for any thread count (the chunk pass
// and the seeded per-pixel refinement are both deterministic, and a cached
// frontier is bitwise the one a rebuild would produce) but are not bitwise
// equal to the per-pixel path: whole chunks may be answered from region
// bounds alone. The εKDV/τKDV certificates hold exactly either way.
//
// Stop, fault and work-counter contracts:
//   * QueryControl is polled before every pixel and at iteration granularity
//     inside each refining evaluation; on a stop the partial frame comes
//     back with completed=false and the deadline_expired/cancelled flags
//     set. Tiles not yet claimed are abandoned and their pixels keep 0.
//   * The per-pixel failpoint sites ("runner.eps" / "runner.tau" /
//     "runner.exact"; "progressive.op" in RenderEpsFrameInOrder) fire before
//     every pixel, and Render*FrameParallel's whole-frame entry site
//     ("viz.render") before any work; an injected error stops the frame
//     with BatchStats::status set.
//   * Every evaluated pixel is recorded through AccumulateQueryStats and the
//     per-tile stats are summed with MergeWorkCounters (core/kdv_runner.h).
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
  // Grid rows per work item. Small tiles balance load (refinement cost
  // varies wildly across a frame: pixels near dense clusters converge fast,
  // sparse regions refine deep); large tiles amortize claim overhead.
  // Clamped to [1, grid height].
  int tile_rows = 16;

  // Shared-traversal tile refinement (core/tile_refiner.h): each row band is
  // split into ~square column chunks, one region-bound pass runs per chunk,
  // and pixels are seeded from the resulting frontier (or whole chunks are
  // answered from the region bounds alone). Off keeps frames bit-identical
  // to per-pixel evaluation; on preserves the εKDV/τKDV certificates (τ
  // masks match the per-pixel ones) but may produce (certified) different
  // εKDV pixel values.
  // Ignored for the EXACT method and for non-2-d indexes.
  bool tile_shared = false;
  // Pixel columns per shared-traversal chunk; 0 derives the chunk width from
  // tile_rows (square-ish chunks — full-width row bands make poor query
  // regions).
  int tile_cols = 0;
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
// `order` (row-major pixel indices, each at most once), work items being
// contiguous ranges of it claimed front to back, so on one thread a frame
// cut short has evaluated a prefix of `order`. `evaluated` (required) is
// resized to the grid and gets 1 for exactly the pixels whose value the
// engine wrote — by refinement, by a refinement interrupted by the stop
// (its wider-interval estimate is kept), or by a decided tile-shared chunk;
// every other pixel is 0 in both the frame and the mask. When tile-sharing
// applies the band/chunk order is kept and `order` is ignored (the whole
// grid is the work). The per-pixel failpoint site is "progressive.op"; no
// entry site fires ("progressive.render" is RenderProgressive's).
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
