// Tests for the work-accounting helpers (core/kdv_runner.h) and the
// step-wise RefinementStream (core/refinement_stream.h).
#include <algorithm>

#include <gtest/gtest.h>

#include "core/kdv_runner.h"
#include "core/refinement_stream.h"
#include "data/datasets.h"
#include "workbench/workbench.h"

namespace kdv {
namespace {

TEST(MergeWorkCountersTest, SumsCountersAndLeavesFlags) {
  BatchStats from;
  from.seconds = 3.0;
  from.queries = 1;
  from.iterations = 2;
  from.points_scanned = 3;
  from.nodes_visited = 4;
  from.numeric_faults = 5;
  from.tile_nodes_visited = 6;
  from.tile_accepted = 7;
  from.tile_pruned = 8;
  from.tiles_decided = 9;
  from.tile_seconds = 0.5;
  from.frontier_cache_hits = 10;
  from.completed = false;
  from.deadline_expired = true;
  from.cancelled = true;
  from.status = InternalError("injected");

  BatchStats into;
  into.seconds = 1.0;
  MergeWorkCounters(&into, from);
  MergeWorkCounters(&into, from);
  EXPECT_EQ(into.queries, 2u);
  EXPECT_EQ(into.iterations, 4u);
  EXPECT_EQ(into.points_scanned, 6u);
  EXPECT_EQ(into.nodes_visited, 8u);
  EXPECT_EQ(into.numeric_faults, 10u);
  EXPECT_EQ(into.tile_nodes_visited, 12u);
  EXPECT_EQ(into.tile_accepted, 14u);
  EXPECT_EQ(into.tile_pruned, 16u);
  EXPECT_EQ(into.tiles_decided, 18u);
  EXPECT_DOUBLE_EQ(into.tile_seconds, 1.0);
  EXPECT_EQ(into.frontier_cache_hits, 20u);
  // Timing, stop flags and status belong to the caller.
  EXPECT_DOUBLE_EQ(into.seconds, 1.0);
  EXPECT_TRUE(into.completed);
  EXPECT_FALSE(into.deadline_expired);
  EXPECT_FALSE(into.cancelled);
  EXPECT_TRUE(into.status.ok());
  MergeWorkCounters(nullptr, from);  // null target: no-op
}

// ---------------------------------------------------------------------------
// RefinementStream
// ---------------------------------------------------------------------------

class RunnerTest : public ::testing::Test {
 protected:
  RunnerTest()
      : bench_(GenerateMixture(CrimeSpec(0.002)), KernelType::kGaussian) {}

  Workbench bench_;
};

TEST_F(RunnerTest, StreamTightensMonotonicallyToExact) {
  KdeEvaluator quad = bench_.MakeEvaluator(Method::kQuad);
  Point q = bench_.data_bounds().Center();
  double exact = quad.EvaluateExact(q);

  RefinementStream stream(&bench_.tree(), bench_.params(),
                          quad.bounds(), q);
  double prev_lb = stream.lower();
  double prev_ub = stream.upper();
  EXPECT_LE(prev_lb, exact + 1e-12);
  EXPECT_GE(prev_ub, exact - 1e-12);

  while (stream.Step()) {
    EXPECT_GE(stream.lower(), prev_lb - 1e-12);
    EXPECT_LE(stream.upper(), prev_ub + 1e-12);
    EXPECT_LE(stream.lower(), exact * (1 + 1e-9) + 1e-12);
    EXPECT_GE(stream.upper(), exact * (1 - 1e-9) - 1e-12);
    prev_lb = stream.lower();
    prev_ub = stream.upper();
  }
  EXPECT_TRUE(stream.exhausted());
  EXPECT_NEAR(stream.lower(), exact, 1e-6 * std::max(1.0, exact));
  EXPECT_NEAR(stream.gap(), 0.0, 1e-9);
  EXPECT_EQ(stream.points_scanned(), bench_.num_points());
}

TEST_F(RunnerTest, ExactStreamStartsExhausted) {
  Point q = bench_.data_bounds().Center();
  RefinementStream stream(&bench_.tree(), bench_.params(), nullptr, q);
  EXPECT_TRUE(stream.exhausted());
  EXPECT_FALSE(stream.Step());
  EXPECT_DOUBLE_EQ(stream.gap(), 0.0);
  KdeEvaluator exact = bench_.MakeEvaluator(Method::kExact);
  EXPECT_NEAR(stream.lower(), exact.EvaluateExact(q), 1e-12);
}

TEST_F(RunnerTest, StepCountMatchesIterations) {
  KdeEvaluator quad = bench_.MakeEvaluator(Method::kQuad);
  Point q = bench_.data_bounds().Center();
  RefinementStream stream(&bench_.tree(), bench_.params(), quad.bounds(), q);
  uint64_t steps = 0;
  while (stream.Step()) ++steps;
  EXPECT_EQ(steps, stream.iterations());
}

}  // namespace
}  // namespace kdv
