#include <atomic>
#include <cmath>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "chunk_oracle.h"
#include "data/datasets.h"
#include "progressive/progressive.h"
#include "util/clock.h"
#include "viz/frame.h"
#include "viz/parallel_render.h"
#include "workbench/workbench.h"

namespace kdv {
namespace {

// ---------------------------------------------------------------------------
// Schedules
// ---------------------------------------------------------------------------

TEST(QuadTreeScheduleTest, CoversEveryPixelAsRepresentative) {
  for (auto [w, h] : std::vector<std::pair<int, int>>{
           {8, 8}, {16, 12}, {7, 5}, {1, 1}, {1, 9}, {13, 1}}) {
    std::vector<RegionOp> schedule = QuadTreeSchedule(w, h);
    std::set<std::pair<int, int>> reps;
    for (const RegionOp& op : schedule) {
      ASSERT_GE(op.cx, op.x0);
      ASSERT_LT(op.cx, op.x1);
      ASSERT_GE(op.cy, op.y0);
      ASSERT_LT(op.cy, op.y1);
      ASSERT_GE(op.x0, 0);
      ASSERT_LE(op.x1, w);
      ASSERT_GE(op.y0, 0);
      ASSERT_LE(op.y1, h);
      reps.insert({op.cx, op.cy});
    }
    EXPECT_EQ(reps.size(), static_cast<size_t>(w) * h)
        << "schedule misses pixels for " << w << "x" << h;
  }
}

TEST(QuadTreeScheduleTest, CoarseRegionsComeFirst) {
  std::vector<RegionOp> schedule = QuadTreeSchedule(16, 16);
  // First op covers the whole frame.
  EXPECT_EQ(schedule[0].x0, 0);
  EXPECT_EQ(schedule[0].y0, 0);
  EXPECT_EQ(schedule[0].x1, 16);
  EXPECT_EQ(schedule[0].y1, 16);
  // Region areas are (weakly) decreasing along the schedule.
  auto area = [](const RegionOp& op) {
    return (op.x1 - op.x0) * (op.y1 - op.y0);
  };
  for (size_t i = 1; i < schedule.size(); ++i) {
    EXPECT_LE(area(schedule[i]), area(schedule[i - 1]));
  }
}

TEST(RowMajorScheduleTest, OnePixelPerOpInOrder) {
  std::vector<RegionOp> schedule = RowMajorSchedule(3, 2);
  ASSERT_EQ(schedule.size(), 6u);
  EXPECT_EQ(schedule[0].cx, 0);
  EXPECT_EQ(schedule[0].cy, 0);
  EXPECT_EQ(schedule[4].cx, 1);
  EXPECT_EQ(schedule[4].cy, 1);
  for (const RegionOp& op : schedule) {
    EXPECT_EQ(op.x1 - op.x0, 1);
    EXPECT_EQ(op.y1 - op.y0, 1);
  }
}

// ---------------------------------------------------------------------------
// Progressive rendering
// ---------------------------------------------------------------------------

// The serial op-by-op loop RenderProgressive ran before it moved onto the
// frame engine, kept as the oracle for its frames: each op takes its
// representative's value once, then paints it over the pixels of its region
// not yet evaluated. The values are the chunk oracle's (tests/
// chunk_oracle.h) at the engine's default chunk size: a pixel's value does
// not depend on which other pixels a prefix evaluated.
DensityFrame OpByOpProgressive(const KdeEvaluator& evaluator,
                               const PixelGrid& grid, double eps,
                               const std::vector<RegionOp>& schedule,
                               uint64_t* pixels_evaluated) {
  const std::vector<double> values =
      ChunkOracleEps(evaluator, grid, eps, RenderOptions().tile_rows);
  DensityFrame frame(grid.width(), grid.height());
  std::vector<uint8_t> evaluated(grid.num_pixels(), 0);
  *pixels_evaluated = 0;
  for (const RegionOp& op : schedule) {
    const size_t center = grid.PixelIndex(op.cx, op.cy);
    if (!evaluated[center]) {
      const double v = values[center];
      frame.values[center] = std::isfinite(v) ? v : 0.0;
      evaluated[center] = 1;
      ++*pixels_evaluated;
    }
    for (int y = op.y0; y < op.y1; ++y) {
      for (int x = op.x0; x < op.x1; ++x) {
        const size_t idx = grid.PixelIndex(x, y);
        if (!evaluated[idx]) frame.values[idx] = frame.values[center];
      }
    }
  }
  return frame;
}

class ProgressiveRenderTest : public ::testing::Test {
 protected:
  ProgressiveRenderTest()
      : bench_(GenerateMixture(CrimeSpec(0.002)), KernelType::kGaussian),
        grid_(16, 12, bench_.data_bounds()) {}

  Workbench bench_;
  PixelGrid grid_;
};

TEST_F(ProgressiveRenderTest, UnboundedRunEvaluatesEveryPixel) {
  KdeEvaluator quad = bench_.MakeEvaluator(Method::kQuad);
  ProgressiveResult result = RenderProgressive(quad, grid_, 0.01, 0.0);
  EXPECT_TRUE(result.stats.completed);
  EXPECT_TRUE(result.fully_painted);
  EXPECT_EQ(result.pixels_evaluated, grid_.num_pixels());

  // A completed progressive frame is the plain εKDV frame, bit for bit (the
  // frame contract of viz/parallel_render.h), at any chunk size.
  for (int tile_rows : {16, 4, 3}) {
    RenderOptions options;
    options.tile_rows = tile_rows;
    ProgressiveResult full = RenderProgressive(
        quad, grid_, 0.01, QueryControl(),
        QuadTreeSchedule(grid_.width(), grid_.height()), options, nullptr);
    DensityFrame direct = RenderEpsFrameParallel(quad, grid_, 0.01, options,
                                                 nullptr, {}, nullptr);
    ASSERT_EQ(full.frame.values.size(), direct.values.size());
    EXPECT_EQ(std::memcmp(full.frame.values.data(), direct.values.data(),
                          direct.values.size() * sizeof(double)),
              0)
        << "tile_rows " << tile_rows;
  }
}

// A completed quad-tree run evaluates every pixel exactly once, so its work
// counters must equal the frame engine's for the same grid — node
// evaluations included (every certified frame served at one intra-frame
// thread reports them from here).
TEST_F(ProgressiveRenderTest, CompletedRunCountsWorkLikeTheFrameEngine) {
  KdeEvaluator quad = bench_.MakeEvaluator(Method::kQuad);
  ProgressiveResult result = RenderProgressive(
      quad, grid_, 0.01, QueryControl(),
      QuadTreeSchedule(grid_.width(), grid_.height()), {}, nullptr);
  ASSERT_TRUE(result.stats.completed);

  BatchStats engine;
  RenderEpsFrameParallel(quad, grid_, 0.01, {}, nullptr, {}, &engine);
  ASSERT_TRUE(engine.completed);
  EXPECT_EQ(result.stats.queries, engine.queries);
  EXPECT_EQ(result.stats.iterations, engine.iterations);
  EXPECT_EQ(result.stats.points_scanned, engine.points_scanned);
  EXPECT_EQ(result.stats.nodes_visited, engine.nodes_visited);
  EXPECT_EQ(result.stats.tile_nodes_visited, engine.tile_nodes_visited);
  EXPECT_EQ(result.stats.tiles_decided, engine.tiles_decided);
  EXPECT_GT(result.stats.nodes_visited, 0u);
}

// Reads "expired" once the query control's heartbeat has counted a given
// number of stop polls: a deadline that cuts a one-thread frame at an exact
// point of its work, whatever the host's speed.
class PollCountClock : public Clock {
 public:
  PollCountClock(const std::atomic<uint64_t>* polls, uint64_t expire_at)
      : polls_(polls), expire_at_(expire_at) {}
  double NowSeconds() const override {
    return polls_->load(std::memory_order_relaxed) >= expire_at_ ? 1e9 : 0.0;
  }
  void WaitFor(double /*seconds*/, Waker* /*waker*/) override {}

 private:
  const std::atomic<uint64_t>* polls_;
  uint64_t expire_at_;
};

// A budgeted one-thread frame that stops right after its first chunk has
// still evaluated the frame's center — the chunk holding the schedule's
// first representative is claimed first — so it is fully painted, never
// left for the coarse tier.
TEST_F(ProgressiveRenderTest, StopAfterFirstChunkPaintsFromTheCenter) {
  KdeEvaluator quad = bench_.MakeEvaluator(Method::kQuad);
  RenderOptions options;
  options.tile_rows = 4;  // 4x4 chunks: 12 of them on the 16x12 grid
  const std::vector<RegionOp> schedule =
      QuadTreeSchedule(grid_.width(), grid_.height());

  // The engine polls once before a chunk's region pass and once before
  // each refined pixel; in-query polls are switched off. Poll 18 is the
  // one after the first chunk's pass and its 16 pixels.
  std::atomic<uint64_t> polls{0};
  PollCountClock clock(&polls, /*expire_at=*/18);
  Deadline deadline(1.0, &clock);
  QueryControl control;
  control.deadline = &deadline;
  control.heartbeat = &polls;
  control.check_interval = 1u << 30;
  ProgressiveResult r = RenderProgressive(quad, grid_, 0.01, control,
                                          schedule, options, nullptr);

  EXPECT_FALSE(r.stats.completed);
  EXPECT_TRUE(r.stats.deadline_expired);
  EXPECT_TRUE(r.fully_painted);
  EXPECT_GE(r.pixels_evaluated, 1u);
  EXPECT_LE(r.pixels_evaluated, 32u);  // at most two chunks
  const size_t center = grid_.PixelIndex(schedule[0].cx, schedule[0].cy);
  const std::vector<double> oracle =
      ChunkOracleEps(quad, grid_, 0.01, options.tile_rows);
  EXPECT_EQ(std::memcmp(&r.frame.values[center], &oracle[center],
                        sizeof(double)),
            0);
  for (double v : r.frame.values) EXPECT_TRUE(std::isfinite(v));
}

TEST_F(ProgressiveRenderTest, TinyBudgetProducesPartialResult) {
  KdeEvaluator quad = bench_.MakeEvaluator(Method::kQuad);
  ProgressiveResult result = RenderProgressive(quad, grid_, 0.01, 1e-9);
  EXPECT_LT(result.pixels_evaluated, grid_.num_pixels());
  EXPECT_FALSE(result.stats.completed);
}

TEST_F(ProgressiveRenderTest, QualityImprovesWithBudget) {
  KdeEvaluator quad = bench_.MakeEvaluator(Method::kQuad);
  KdeEvaluator exact = bench_.MakeEvaluator(Method::kExact);
  DensityFrame truth = RenderExactFrameParallel(exact, grid_, {}, nullptr, {},
                                                nullptr);

  // Run the schedule to fixed op-counts by slicing it manually (time budgets
  // flake on loaded machines; op counts are deterministic).
  std::vector<RegionOp> schedule =
      QuadTreeSchedule(grid_.width(), grid_.height());
  std::vector<double> errors;
  for (size_t ops : {schedule.size() / 16, schedule.size() / 4,
                     schedule.size()}) {
    std::vector<RegionOp> prefix(schedule.begin(), schedule.begin() + ops);
    ProgressiveResult r = RenderProgressive(quad, grid_, 0.01, 0.0, prefix);
    errors.push_back(
        AverageRelativeError(r.frame.values, truth.values, 1e-12));
  }
  EXPECT_LE(errors[2], errors[0] + 1e-12);
  EXPECT_LE(errors[2], 0.011);  // full schedule: εKDV-quality
}

TEST_F(ProgressiveRenderTest, PartialFrameHasNoUntouchedPixels) {
  KdeEvaluator quad = bench_.MakeEvaluator(Method::kQuad);
  // Run only the first ops: even so, every pixel must carry some value from
  // a coarse representative (i.e. the first op paints the whole frame).
  std::vector<RegionOp> schedule =
      QuadTreeSchedule(grid_.width(), grid_.height());
  std::vector<RegionOp> prefix(schedule.begin(), schedule.begin() + 1);
  ProgressiveResult r = RenderProgressive(quad, grid_, 0.01, 0.0, prefix);
  EXPECT_EQ(r.pixels_evaluated, 1u);
  EXPECT_TRUE(r.fully_painted);
  double v = r.frame.values[grid_.PixelIndex(grid_.width() / 2,
                                             grid_.height() / 2)];
  for (double val : r.frame.values) EXPECT_DOUBLE_EQ(val, v);

  // Prefix frames at quad-tree level boundaries, half and all of the
  // schedule, and a row-major prefix, are bitwise the op-by-op loop's.
  std::vector<RegionOp> row_major =
      RowMajorSchedule(grid_.width(), grid_.height());
  std::vector<std::vector<RegionOp>> prefixes;
  for (size_t ops : {size_t{1}, size_t{5}, size_t{21}, size_t{85},
                     schedule.size() / 2, schedule.size()}) {
    prefixes.emplace_back(schedule.begin(), schedule.begin() + ops);
  }
  prefixes.emplace_back(row_major.begin(),
                        row_major.begin() + row_major.size() / 3);
  for (const std::vector<RegionOp>& ops : prefixes) {
    SCOPED_TRACE("prefix of " + std::to_string(ops.size()) + " ops");
    uint64_t want_evaluated = 0;
    DensityFrame want =
        OpByOpProgressive(quad, grid_, 0.01, ops, &want_evaluated);
    ProgressiveResult got = RenderProgressive(quad, grid_, 0.01, 0.0, ops);
    EXPECT_EQ(got.pixels_evaluated, want_evaluated);
    EXPECT_EQ(got.stats.queries, want_evaluated);
    ASSERT_EQ(got.frame.values.size(), want.values.size());
    for (size_t i = 0; i < want.values.size(); ++i) {
      ASSERT_EQ(std::memcmp(&got.frame.values[i], &want.values[i],
                            sizeof(double)),
                0)
          << "pixel " << i << ": " << got.frame.values[i]
          << " != " << want.values[i];
    }
  }
}

TEST_F(ProgressiveRenderTest, MaxErrorIsMonotoneAcrossCheckpoints) {
  KdeEvaluator quad = bench_.MakeEvaluator(Method::kQuad);
  KdeEvaluator exact = bench_.MakeEvaluator(Method::kExact);
  DensityFrame truth = RenderExactFrameParallel(exact, grid_, {}, nullptr, {},
                                                nullptr);

  // Checkpoints at quad-tree level boundaries (each level multiplies the op
  // count by ~4): the worst-pixel error against the exact frame must be
  // non-increasing as refinement proceeds.
  std::vector<RegionOp> schedule =
      QuadTreeSchedule(grid_.width(), grid_.height());
  std::vector<double> errors;
  for (size_t ops = 1; ops < schedule.size(); ops *= 4) {
    std::vector<RegionOp> prefix(schedule.begin(), schedule.begin() + ops);
    ProgressiveResult r = RenderProgressive(quad, grid_, 0.01, 0.0, prefix);
    errors.push_back(MaxRelativeError(r.frame.values, truth.values, 1e-12));
  }
  ProgressiveResult full = RenderProgressive(quad, grid_, 0.01, 0.0);
  errors.push_back(
      MaxRelativeError(full.frame.values, truth.values, 1e-12));
  for (size_t i = 1; i < errors.size(); ++i) {
    EXPECT_LE(errors[i], errors[i - 1] + 1e-12)
        << "max error regressed between checkpoints " << i - 1 << " and "
        << i;
  }
  EXPECT_LE(errors.back(), 0.011);  // full schedule: εKDV-certified
}

TEST_F(ProgressiveRenderTest, ExpiredBudgetStillPaintsEveryPixelFinite) {
  KdeEvaluator quad = bench_.MakeEvaluator(Method::kQuad);
  Deadline expired(1e-12);
  while (!expired.Expired()) {
  }
  QueryControl control;
  control.deadline = &expired;
  ProgressiveResult r = RenderProgressive(
      quad, grid_, 0.01, control,
      QuadTreeSchedule(grid_.width(), grid_.height()), {}, nullptr);
  EXPECT_FALSE(r.stats.completed);
  EXPECT_TRUE(r.stats.deadline_expired);
  EXPECT_FALSE(r.fully_painted);
  EXPECT_EQ(r.pixels_evaluated, 0u);
  ASSERT_EQ(r.frame.values.size(), grid_.num_pixels());
  for (double v : r.frame.values) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_EQ(v, 0.0);  // nothing was evaluated; the frame is flat but valid
  }
}

TEST_F(ProgressiveRenderTest, WorksWithExactAndSamplingEvaluators) {
  KdeEvaluator exact = bench_.MakeEvaluator(Method::kExact);
  ProgressiveResult r1 = RenderProgressive(exact, grid_, 0.01, 0.0);
  EXPECT_TRUE(r1.stats.completed);

  KdeEvaluator zorder = bench_.MakeZorderEvaluator(0.05);
  ProgressiveResult r2 = RenderProgressive(zorder, grid_, 0.05, 0.0);
  EXPECT_TRUE(r2.stats.completed);
  EXPECT_EQ(r2.pixels_evaluated, grid_.num_pixels());
}

}  // namespace
}  // namespace kdv
