// Work accounting for query batches: BatchStats and the two helpers that
// fill it. The frame engine (viz/parallel_render.h) and the progressive
// framework record every evaluated query through AccumulateQueryStats, and
// every place that sums two stats uses MergeWorkCounters, so the counters
// mean the same thing wherever a frame was rendered.
#ifndef QUADKDV_CORE_KDV_RUNNER_H_
#define QUADKDV_CORE_KDV_RUNNER_H_

#include <cstdint>

#include "core/evaluator.h"
#include "util/status.h"

namespace kdv {

// Aggregate work/timing statistics of one batch run.
struct BatchStats {
  double seconds = 0.0;
  uint64_t queries = 0;           // queries actually evaluated
  uint64_t iterations = 0;        // total refinement steps
  uint64_t points_scanned = 0;    // total exact point evaluations
  uint64_t nodes_visited = 0;     // per-pixel node bound evaluations
  bool completed = true;          // false if the batch was cut short
  bool deadline_expired = false;  // cut short by the per-request deadline
  bool cancelled = false;         // cut short by the CancelToken
  uint64_t numeric_faults = 0;    // queries clamped by numerical hardening

  // Shared-traversal pruning-efficiency counters: the frame engine's chunk
  // region passes (zero for EXACT and non-2-d indexes).
  uint64_t tile_nodes_visited = 0;   // region bound evaluations (tile passes)
  uint64_t tile_accepted = 0;        // nodes folded into tile baselines
  uint64_t tile_pruned = 0;          // subtrees discarded tile-wide
  uint64_t tiles_decided = 0;        // tiles finished with zero per-pixel work
  uint64_t frontier_cache_hits = 0;  // frames served from a cached frontier
  // Time inside tile region passes, summed across tiles (CPU seconds, not
  // wall time; measured through the clock seam, so 0 under the simulator's
  // virtual clock). Feeds the tile_pass trace stage and obs histograms.
  double tile_seconds = 0.0;
  // Non-OK when an internal fault (e.g. an injected failpoint error) aborted
  // the batch; the partial outputs written so far remain valid.
  Status status = OkStatus();
};

// Adds one query's work accounting (query count, iterations, points
// scanned, node evaluations, numeric faults) to *stats. No-op when
// stats == nullptr. The single place per-query work is recorded, so the two
// result types can never drift apart in what they count.
void AccumulateQueryStats(BatchStats* stats, const EvalResult& r);
void AccumulateQueryStats(BatchStats* stats, const TauResult& r);

// Adds `from`'s work counters (queries, iterations, points scanned, node
// evaluations, numeric faults, the tile-pass counters, tile seconds and
// frontier-cache hits) to *into. No-op when into == nullptr. Timing (seconds)
// and the stop/status flags are left to the caller: how those combine
// depends on what the two stats describe.
void MergeWorkCounters(BatchStats* into, const BatchStats& from);

}  // namespace kdv

#endif  // QUADKDV_CORE_KDV_RUNNER_H_
