#include "viz/parallel_render.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "core/tile_refiner.h"
#include "obs/metrics.h"
#include "util/failpoint.h"
#include "util/timer.h"

namespace kdv {

namespace {

// Whole-frame observability, recorded once per frame after the tile-order
// merge — never inside the per-pixel loops.
struct FrameObs {
  obs::Counter* frames;
  obs::Counter* cache_hits;
  obs::Counter* cache_misses;
  obs::Histogram* frame_seconds;
  obs::Histogram* bound_evals_per_pixel;
  FrameObs() {
    auto& r = obs::MetricsRegistry::Global();
    frames = r.GetCounter("kdv_render_frames_total");
    cache_hits = r.GetCounter("kdv_frontier_cache_hits_total");
    cache_misses = r.GetCounter("kdv_frontier_cache_misses_total");
    frame_seconds = r.GetHistogram("kdv_render_frame_seconds");
    bound_evals_per_pixel = r.GetHistogram("kdv_render_bound_evals_per_pixel");
  }
  static FrameObs& Get() {
    static FrameObs& o = *new FrameObs();
    return o;
  }
};

// Injected whole-frame fault: record it and hand back the untouched
// (all-zero, finite) frame.
bool EntryFault(BatchStats* stats) {
  Status status = KDV_FAILPOINT_STATUS("viz.render");
  if (status.ok()) return false;
  if (stats != nullptr) {
    stats->completed = false;
    stats->status = status;
  }
  return true;
}

// Which region pass a frame asks for (applied only where bounds and a 2-d
// index allow).
enum class RegionPass { kNone, kEps, kTau };

void MarkTileStopped(BatchStats* stats, StopReason reason) {
  stats->completed = false;
  if (reason == StopReason::kDeadline) stats->deadline_expired = true;
  if (reason == StopReason::kCancel) stats->cancelled = true;
}

// Shared state of one in-flight frame. Helper tasks hold it via shared_ptr:
// a helper that only gets scheduled after the frame finished claims no item,
// dereferences none of the frame-lifetime pointers below, and merely drops
// its reference.
struct FrameJob {
  // Frame-lifetime (owned by the rendering call, valid while any item is
  // unclaimed or in flight — i.e. until items_done == num_items).
  const KdeEvaluator* evaluator = nullptr;
  const PixelGrid* grid = nullptr;
  const QueryControl* control = nullptr;
  const char* failpoint_site = nullptr;
  // Optional mask: 1 for every pixel whose value a worker wrote.
  uint8_t* evaluated = nullptr;

  // Chunk geometry: tile_rows x tile_cols pixel rectangles, numbered row by
  // row of chunks. Work item i is one chunk.
  uint32_t tile_rows = 1;
  uint32_t tile_cols = 1;
  uint32_t chunks_per_band = 1;
  uint32_t num_chunks = 0;
  uint32_t num_items = 0;
  // A caller-given order's chunks and pixels (RenderEpsFrameInOrder): item
  // i is chunk item_chunk[i] and evaluates the positions
  // [bucket_begin[i], bucket_begin[i + 1]) of bucket_pixels. Empty for
  // whole frames, whose item i is chunk i, every pixel, row by row.
  std::vector<uint32_t> item_chunk;
  std::vector<uint32_t> bucket_begin;
  std::vector<uint32_t> bucket_pixels;

  // Region pass (no refiner: every pixel is root-seeded). Its mode and
  // parameter are those of the frame's frontier-cache key.
  std::optional<TileRefiner> refiner;
  FrontierKey key;
  // With a frontier cache attached, exactly one of these is set: a hit
  // serves every chunk read-only; a miss builds into `building` (each chunk
  // written by the one worker that claimed it). Without a cache both are
  // null and each worker builds into its own scratch frontier.
  std::shared_ptr<const FrameFrontiers> cached;
  std::shared_ptr<FrameFrontiers> building;

  std::atomic<uint32_t> next_item{0};
  // First stop/fault raises this; other workers abandon their items at the
  // next per-pixel poll instead of finishing a frame nobody will keep.
  std::atomic<bool> stop{false};
  std::vector<BatchStats> item_stats;

  std::mutex mu;
  std::condition_variable done_cv;
  uint32_t items_done = 0;  // guarded by mu

  uint32_t ChunkOf(size_t idx) const {
    const size_t width = static_cast<size_t>(grid->width());
    return static_cast<uint32_t>(idx / width / tile_rows) * chunks_per_band +
           static_cast<uint32_t>(idx % width / tile_cols);
  }
};

// Per-drainer reusable state: the refinement stream (zero allocations after
// warm-up), and the one live region-pass output when no cache is attached.
struct Worker {
  RefinementStream stream;
  TileFrontier frontier;
};

// Per-pixel stop/fault preamble shared by every pixel loop. Returns false
// when the item must be abandoned.
bool PixelPreamble(FrameJob& job, BatchStats& ts) {
  if (job.stop.load(std::memory_order_relaxed)) {
    ts.completed = false;
    return false;
  }
  StopReason stop = job.control->CheckStop();
  if (stop != StopReason::kNone) {
    MarkTileStopped(&ts, stop);
    job.stop.store(true, std::memory_order_relaxed);
    return false;
  }
  Status status = KDV_FAILPOINT_STATUS(job.failpoint_site);
  if (!status.ok()) {
    ts.completed = false;
    ts.status = status;
    job.stop.store(true, std::memory_order_relaxed);
    return false;
  }
  return true;
}

// Returns the chunk's frontier: cached, built into the frame's cache entry,
// or built into the worker's scratch. Null when no region pass applies or
// the pass hit a numeric fault: the chunk's pixels are then root-seeded.
const TileFrontier* ChunkFrontier(FrameJob& job, uint32_t chunk, int row_begin,
                                  int row_end, int col_begin, int col_end,
                                  Worker& worker, BatchStats& ts) {
  if (!job.refiner) return nullptr;
  if (job.cached != nullptr) {
    const TileFrontier& hit = (*job.cached)[chunk];
    return hit.valid ? &hit : nullptr;
  }
  TileFrontier& out =
      job.building != nullptr ? (*job.building)[chunk] : worker.frontier;
  // Hull of the chunk's pixel centers (data y is flipped, so the last row
  // holds the lowest y).
  const PixelGrid& grid = *job.grid;
  Rect query_rect(2);
  query_rect.Expand(grid.PixelCenter(col_begin, row_end - 1));
  query_rect.Expand(grid.PixelCenter(col_end - 1, row_begin));
  Timer pass_timer;
  out = job.key.mode == 'e' ? job.refiner->BuildEps(query_rect, job.key.param)
                            : job.refiner->BuildTau(query_rect, job.key.param);
  ts.tile_seconds += pass_timer.ElapsedSeconds();
  ts.tile_nodes_visited += out.nodes_visited;
  ts.tile_accepted += out.accepted;
  ts.tile_pruned += out.pruned;
  return out.valid ? &out : nullptr;
}

// Evaluates one work item: one chunk, or the pixels of a caller's order
// that fall in it. The chunk runs (or loads) its region pass, then either
// fills its pixels from a whole-chunk decision or refines them seeded from
// the chunk frontier. EvalPixel is
//   Value (const Point& q, const TileFrontier* tf, RefinementStream& scratch,
//          BatchStats* ts, bool* interrupted)
// — one per-pixel evaluation (root-seeded when tf is null), recorded through
// AccumulateQueryStats — and DecidedVal maps a decided frontier to the fill
// value.
template <typename Value, typename EvalPixel, typename DecidedVal>
void ProcessChunk(FrameJob& job, uint32_t item, Value* values, Worker& worker,
                  const EvalPixel& eval, const DecidedVal& decided_val) {
  BatchStats& ts = job.item_stats[item];
  const PixelGrid& grid = *job.grid;
  const size_t width = static_cast<size_t>(grid.width());
  const bool bucketed = !job.item_chunk.empty();
  const uint32_t chunk = bucketed ? job.item_chunk[item] : item;
  const int row_begin =
      static_cast<int>(chunk / job.chunks_per_band * job.tile_rows);
  const int row_end = std::min<int>(
      row_begin + static_cast<int>(job.tile_rows), grid.height());
  const int col_begin =
      static_cast<int>(chunk % job.chunks_per_band * job.tile_cols);
  const int col_end = std::min<int>(
      col_begin + static_cast<int>(job.tile_cols), grid.width());

  // Visits the item's pixels in order until `fn` returns false.
  auto for_each_pixel = [&](const auto& fn) {
    if (bucketed) {
      for (uint32_t k = job.bucket_begin[item]; k < job.bucket_begin[item + 1];
           ++k) {
        if (!fn(static_cast<size_t>(job.bucket_pixels[k]))) return;
      }
      return;
    }
    for (int py = row_begin; py < row_end; ++py) {
      for (int px = col_begin; px < col_end; ++px) {
        if (!fn(grid.PixelIndex(px, py))) return;
      }
    }
  };

  if (!PixelPreamble(job, ts)) return;
  const TileFrontier* tf = ChunkFrontier(job, chunk, row_begin, row_end,
                                         col_begin, col_end, worker, ts);
  if (tf != nullptr && tf->decided) {
    // Region bounds answered the whole chunk: certified fill, zero
    // per-pixel work.
    ++ts.tiles_decided;
    const Value fill = decided_val(*tf);
    for_each_pixel([&](size_t idx) {
      values[idx] = fill;
      if (job.evaluated != nullptr) job.evaluated[idx] = 1;
      ++ts.queries;
      return true;
    });
    return;
  }
  for_each_pixel([&](size_t idx) {
    if (!PixelPreamble(job, ts)) return false;
    bool interrupted = false;
    values[idx] = eval(grid.PixelCenter(static_cast<int>(idx % width),
                                        static_cast<int>(idx / width)),
                       tf, worker.stream, &ts, &interrupted);
    if (job.evaluated != nullptr) job.evaluated[idx] = 1;
    if (interrupted) {
      MarkTileStopped(&ts, job.control->CheckStop());
      job.stop.store(true, std::memory_order_relaxed);
      return false;
    }
    return true;
  });
}

// Claims and processes items until the counter is exhausted. Runs in the
// caller thread and in every helper task; each drainer reuses one Worker
// across all its items. ProcessFn is
//   void (FrameJob&, uint32_t item, Value*, Worker&).
template <typename Value, typename ProcessFn>
void DrainItems(const std::shared_ptr<FrameJob>& job, Value* values,
                const ProcessFn& process) {
  uint32_t item = job->next_item.fetch_add(1, std::memory_order_relaxed);
  if (item >= job->num_items) return;  // late helper: frame may be gone
  Worker worker{job->evaluator->MakeScratch(), {}};
  do {
    process(*job, item, values, worker);
    bool all_done;
    {
      std::lock_guard<std::mutex> lock(job->mu);
      all_done = ++job->items_done == job->num_items;
    }
    if (all_done) job->done_cv.notify_all();
    item = job->next_item.fetch_add(1, std::memory_order_relaxed);
  } while (item < job->num_items);
}

// Item-order merge keeps every counter deterministic across thread counts
// and schedules.
void MergeItemStats(const std::vector<BatchStats>& items, BatchStats* stats) {
  if (stats == nullptr) return;
  for (const BatchStats& item : items) {
    MergeWorkCounters(stats, item);
    if (!item.completed) stats->completed = false;
    if (item.deadline_expired) stats->deadline_expired = true;
    if (item.cancelled) stats->cancelled = true;
    if (stats->status.ok() && !item.status.ok()) stats->status = item.status;
  }
}

// Attaches the region pass to the job when one is asked for and applies —
// a bound function exists and the index dimensionality matches the 2-d
// pixel queries — and looks the frame up in the frontier cache.
void ConfigureRegionPass(FrameJob* job, const RenderOptions& options,
                         RegionPass pass, double param, BatchStats* stats) {
  const KdeEvaluator& evaluator = *job->evaluator;
  if (pass == RegionPass::kNone || evaluator.bounds() == nullptr ||
      evaluator.tree().dim() != 2) {
    return;
  }
  job->refiner.emplace(&evaluator.tree(), evaluator.params(),
                       evaluator.bounds());
  const PixelGrid& grid = *job->grid;
  job->key = {options.cache_epoch,  grid.width(),
              grid.height(),        grid.domain().lo(0),
              grid.domain().lo(1),  grid.domain().hi(0),
              grid.domain().hi(1),  job->tile_rows,
              job->tile_cols,       pass == RegionPass::kEps ? 'e' : 't',
              param};
  if (options.frontier_cache == nullptr) return;
  auto hit = options.frontier_cache->Lookup(job->key);
  if (hit != nullptr && hit->size() == job->num_chunks) {
    job->cached = std::move(hit);
    if (stats != nullptr) ++stats->frontier_cache_hits;
    FrameObs::Get().cache_hits->Increment();
  } else {
    FrameObs::Get().cache_misses->Increment();
    job->building = std::make_shared<FrameFrontiers>(job->num_chunks);
  }
}

// Chunk geometry, plus (order != null) the order's chunk buckets: chunks are
// claimed in the order of their first pixel in `order`, and each evaluates
// its own pixels in `order`.
std::shared_ptr<FrameJob> MakeFrameJob(
    const KdeEvaluator& evaluator, const PixelGrid& grid,
    const RenderOptions& options, const QueryControl& control,
    const char* failpoint_site, const std::vector<uint32_t>* order,
    uint8_t* evaluated, RegionPass pass, double param, BatchStats* stats) {
  auto job = std::make_shared<FrameJob>();
  job->evaluator = &evaluator;
  job->grid = &grid;
  job->control = &control;
  job->failpoint_site = failpoint_site;
  job->evaluated = evaluated;
  job->tile_rows =
      static_cast<uint32_t>(std::clamp(options.tile_rows, 1, grid.height()));
  job->tile_cols = std::min(job->tile_rows,
                            static_cast<uint32_t>(grid.width()));
  job->chunks_per_band =
      (static_cast<uint32_t>(grid.width()) + job->tile_cols - 1) /
      job->tile_cols;
  const uint32_t bands =
      (static_cast<uint32_t>(grid.height()) + job->tile_rows - 1) /
      job->tile_rows;
  job->num_chunks = bands * job->chunks_per_band;
  job->num_items = job->num_chunks;
  if (order != nullptr) {
    // Counting sort of the order's pixels into chunk buckets, stable in
    // `order`.
    std::vector<uint32_t> item_of(job->num_chunks, UINT32_MAX);
    std::vector<uint32_t> count;
    for (uint32_t idx : *order) {
      const uint32_t chunk = job->ChunkOf(idx);
      if (item_of[chunk] == UINT32_MAX) {
        item_of[chunk] = static_cast<uint32_t>(job->item_chunk.size());
        job->item_chunk.push_back(chunk);
        count.push_back(0);
      }
      ++count[item_of[chunk]];
    }
    job->num_items = static_cast<uint32_t>(job->item_chunk.size());
    job->bucket_begin.assign(job->num_items + 1, 0);
    for (uint32_t i = 0; i < job->num_items; ++i) {
      job->bucket_begin[i + 1] = job->bucket_begin[i] + count[i];
    }
    std::vector<uint32_t> cursor(job->bucket_begin.begin(),
                                 job->bucket_begin.end() - 1);
    job->bucket_pixels.resize(order->size());
    for (uint32_t idx : *order) {
      job->bucket_pixels[cursor[item_of[job->ChunkOf(idx)]]++] = idx;
    }
  }
  job->item_stats.resize(job->num_items);
  ConfigureRegionPass(job.get(), options, pass, param, stats);
  return job;
}

// Publishes the freshly built frontiers after a clean (unstopped) frame
// that built every chunk.
void PublishFrontiers(const std::shared_ptr<FrameJob>& job,
                      const RenderOptions& options) {
  if (job->building == nullptr || job->num_items != job->num_chunks) return;
  if (job->stop.load(std::memory_order_relaxed)) return;
  options.frontier_cache->Insert(job->key, std::move(job->building));
}

// The one frame body: fans the job's items out over `pool` (the caller
// participates), merges the item stats and records the frame metrics, then
// publishes built frontiers.
template <typename Value, typename EvalPixel, typename DecidedVal>
void RunFrameJob(const std::shared_ptr<FrameJob>& job,
                 const RenderOptions& options, Executor* pool,
                 BatchStats* stats, std::vector<Value>* values,
                 const EvalPixel& eval,
                 const DecidedVal& decided_val) {
  auto process = [eval, decided_val](FrameJob& j, uint32_t item, Value* data,
                                     Worker& worker) {
    ProcessChunk(j, item, data, worker, eval, decided_val);
  };
  Timer timer;
  const int threads = ResolveRenderThreads(options.num_threads);
  int helpers = 0;
  if (pool != nullptr && threads > 1 && job->num_items > 1) {
    const int want =
        std::min<int>(threads - 1, static_cast<int>(job->num_items) - 1);
    Value* data = values->data();
    for (int i = 0; i < want; ++i) {
      // Rejections (pool saturated or stopping) shed the items back onto
      // the caller loop below — the frame still completes, just less
      // parallel.
      if (pool->TrySubmit(
                  [job, data, process] { DrainItems(job, data, process); })
              .ok()) {
        ++helpers;
      }
    }
  }
  DrainItems(job, values->data(), process);
  if (helpers > 0) {
    std::unique_lock<std::mutex> lock(job->mu);
    job->done_cv.wait(lock,
                      [&job] { return job->items_done == job->num_items; });
  }
  MergeItemStats(job->item_stats, stats);
  if (stats != nullptr) {
    stats->seconds = timer.ElapsedSeconds();
    FrameObs& o = FrameObs::Get();
    o.frames->Increment();
    o.frame_seconds->Record(stats->seconds);
    if (stats->queries > 0) {
      o.bound_evals_per_pixel->Record(
          static_cast<double>(stats->nodes_visited +
                              stats->tile_nodes_visited) /
          static_cast<double>(stats->queries));
    }
  }
  PublishFrontiers(job, options);
}

// The εKDV frame body behind RenderEpsFrameParallel (order null) and
// RenderEpsFrameInOrder.
DensityFrame RenderEps(const KdeEvaluator& evaluator, const PixelGrid& grid,
                       double eps, const std::vector<uint32_t>* order,
                       const char* failpoint_site,
                       const RenderOptions& options, Executor* pool,
                       const QueryControl& control, BatchStats* stats,
                       uint8_t* evaluated) {
  DensityFrame frame(grid.width(), grid.height());
  auto job = MakeFrameJob(evaluator, grid, options, control, failpoint_site,
                          order, evaluated, RegionPass::kEps, eps, stats);
  auto eval = [&evaluator, eps, &control](
                  const Point& q, const TileFrontier* tf,
                  RefinementStream& scratch, BatchStats* ts,
                  bool* interrupted) {
    EvalResult r =
        tf != nullptr
            ? evaluator.EvaluateEpsSeeded(q, eps, *tf, control, &scratch)
            : evaluator.EvaluateEps(q, eps, control, &scratch);
    AccumulateQueryStats(ts, r);
    *interrupted = r.interrupted;
    return r.estimate;
  };
  auto decided_val = [](const TileFrontier& tf) { return tf.decided_value; };
  RunFrameJob(job, options, pool, stats, &frame.values, eval, decided_val);
  return frame;
}
}  // namespace

int ResolveRenderThreads(int num_threads) {
  if (num_threads > 0) return num_threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

DensityFrame RenderEpsFrameParallel(const KdeEvaluator& evaluator,
                                    const PixelGrid& grid, double eps,
                                    const RenderOptions& options,
                                    Executor* pool,
                                    const QueryControl& control,
                                    BatchStats* stats) {
  if (EntryFault(stats)) return DensityFrame(grid.width(), grid.height());
  return RenderEps(evaluator, grid, eps, /*order=*/nullptr, "runner.eps",
                   options, pool, control, stats, /*evaluated=*/nullptr);
}

DensityFrame RenderEpsFrameInOrder(const KdeEvaluator& evaluator,
                                   const PixelGrid& grid, double eps,
                                   const std::vector<uint32_t>& order,
                                   const RenderOptions& options,
                                   Executor* pool,
                                   const QueryControl& control,
                                   BatchStats* stats,
                                   std::vector<uint8_t>* evaluated) {
  evaluated->assign(grid.num_pixels(), 0);
  return RenderEps(evaluator, grid, eps, &order, "progressive.op", options,
                   pool, control, stats, evaluated->data());
}

BinaryFrame RenderTauFrameParallel(const KdeEvaluator& evaluator,
                                   const PixelGrid& grid, double tau,
                                   const RenderOptions& options,
                                   Executor* pool,
                                   const QueryControl& control,
                                   BatchStats* stats) {
  BinaryFrame frame(grid.width(), grid.height());
  if (EntryFault(stats)) return frame;
  auto job = MakeFrameJob(evaluator, grid, options, control, "runner.tau",
                          /*order=*/nullptr, /*evaluated=*/nullptr,
                          RegionPass::kTau, tau, stats);
  auto eval = [&evaluator, tau, &control](
                  const Point& q, const TileFrontier* tf,
                  RefinementStream& scratch, BatchStats* ts,
                  bool* interrupted) {
    TauResult r =
        tf != nullptr
            ? evaluator.EvaluateTauSeeded(q, tau, *tf, control, &scratch)
            : evaluator.EvaluateTau(q, tau, control, &scratch);
    AccumulateQueryStats(ts, r);
    *interrupted = r.interrupted;
    return static_cast<uint8_t>(r.above_threshold ? 1 : 0);
  };
  auto decided_val = [](const TileFrontier& tf) {
    return static_cast<uint8_t>(tf.decided_above ? 1 : 0);
  };
  RunFrameJob(job, options, pool, stats, &frame.values, eval, decided_val);
  return frame;
}

DensityFrame RenderExactFrameParallel(const KdeEvaluator& evaluator,
                                      const PixelGrid& grid,
                                      const RenderOptions& options,
                                      Executor* pool,
                                      const QueryControl& control,
                                      BatchStats* stats) {
  DensityFrame frame(grid.width(), grid.height());
  if (EntryFault(stats)) return frame;
  auto job = MakeFrameJob(evaluator, grid, options, control, "runner.exact",
                          /*order=*/nullptr, /*evaluated=*/nullptr,
                          RegionPass::kNone, 0.0, stats);
  const uint64_t num_points = evaluator.tree().num_points();
  auto eval = [&evaluator, num_points](const Point& q,
                                       const TileFrontier* /*tf*/,
                                       RefinementStream& /*scratch*/,
                                       BatchStats* ts, bool* interrupted) {
    // Exact scans are uninterruptible mid-query: one scan is the smallest
    // unit of interruption for this method.
    *interrupted = false;
    ++ts->queries;
    ts->points_scanned += num_points;
    return evaluator.EvaluateExact(q);
  };
  auto decided_val = [](const TileFrontier&) { return 0.0; };  // no pass
  RunFrameJob(job, options, pool, stats, &frame.values, eval, decided_val);
  return frame;
}

}  // namespace kdv
