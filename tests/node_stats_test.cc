#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "geom/point.h"
#include "index/node_stats.h"
#include "util/random.h"

namespace kdv {
namespace {

PointSet RandomPoints(int n, int dim, uint64_t seed, double lo = -2.0,
                      double hi = 2.0) {
  Rng rng(seed);
  PointSet pts;
  for (int i = 0; i < n; ++i) {
    Point p(dim);
    for (int j = 0; j < dim; ++j) p[j] = rng.Uniform(lo, hi);
    pts.push_back(p);
  }
  return pts;
}

double BruteSumSq(const PointSet& pts, const Point& q) {
  double s = 0.0;
  for (const Point& p : pts) s += SquaredDistance(q, p);
  return s;
}

double BruteSumQuartic(const PointSet& pts, const Point& q) {
  double s = 0.0;
  for (const Point& p : pts) {
    double d = SquaredDistance(q, p);
    s += d * d;
  }
  return s;
}

TEST(NodeStatsTest, BasicAggregates) {
  PointSet pts{Point{1.0, 0.0}, Point{0.0, 2.0}, Point{3.0, 4.0}};
  NodeStats s = NodeStats::Compute(pts.data(), pts.size());
  EXPECT_EQ(s.count(), 3u);
  EXPECT_EQ(s.dim(), 2);
  EXPECT_DOUBLE_EQ(s.sum()[0], 4.0);
  EXPECT_DOUBLE_EQ(s.sum()[1], 6.0);
  EXPECT_DOUBLE_EQ(s.sum_sq_norm(), 1.0 + 4.0 + 25.0);
  EXPECT_DOUBLE_EQ(s.sum_quartic_norm(), 1.0 + 16.0 + 625.0);
  // v_P = sum ||p||^2 p.
  EXPECT_DOUBLE_EQ(s.sum_sq_norm_p()[0], 1.0 * 1.0 + 4.0 * 0.0 + 25.0 * 3.0);
  EXPECT_DOUBLE_EQ(s.sum_sq_norm_p()[1], 1.0 * 0.0 + 4.0 * 2.0 + 25.0 * 4.0);
  // C = sum p p^T.
  EXPECT_DOUBLE_EQ(s.outer_product_sum()[0], 1.0 + 0.0 + 9.0);    // xx
  EXPECT_DOUBLE_EQ(s.outer_product_sum()[1], 0.0 + 0.0 + 12.0);   // xy
  EXPECT_DOUBLE_EQ(s.outer_product_sum()[3], 0.0 + 4.0 + 16.0);   // yy
  EXPECT_TRUE(s.mbr().Contains(Point{1.0, 0.0}));
  EXPECT_DOUBLE_EQ(s.mbr().hi(0), 3.0);
}

// Lemma 1 identity: S1 via aggregates equals brute force.
TEST(NodeStatsTest, SumSquaredDistancesMatchesBruteForce2D) {
  PointSet pts = RandomPoints(100, 2, 1);
  NodeStats s = NodeStats::Compute(pts.data(), pts.size());
  Rng rng(2);
  for (int i = 0; i < 50; ++i) {
    Point q{rng.Uniform(-3, 3), rng.Uniform(-3, 3)};
    EXPECT_NEAR(s.SumSquaredDistances(q), BruteSumSq(pts, q), 1e-8);
  }
}

// Lemma 3 identity: S2 via aggregates equals brute force.
TEST(NodeStatsTest, SumQuarticDistancesMatchesBruteForce2D) {
  PointSet pts = RandomPoints(100, 2, 3);
  NodeStats s = NodeStats::Compute(pts.data(), pts.size());
  Rng rng(4);
  for (int i = 0; i < 50; ++i) {
    Point q{rng.Uniform(-3, 3), rng.Uniform(-3, 3)};
    EXPECT_NEAR(s.SumQuarticDistances(q), BruteSumQuartic(pts, q), 1e-6);
  }
}

// Parameterized sweep over dimensionality: the identities hold for every d
// used by the dimensionality experiment (paper §7.7).
class NodeStatsDimTest : public ::testing::TestWithParam<int> {};

TEST_P(NodeStatsDimTest, AggregateIdentitiesHold) {
  const int d = GetParam();
  PointSet pts = RandomPoints(60, d, 10 + d);
  NodeStats s = NodeStats::Compute(pts.data(), pts.size());
  Rng rng(100 + d);
  for (int i = 0; i < 20; ++i) {
    Point q(d);
    for (int j = 0; j < d; ++j) q[j] = rng.Uniform(-3, 3);
    double brute_s1 = BruteSumSq(pts, q);
    double brute_s2 = BruteSumQuartic(pts, q);
    EXPECT_NEAR(s.SumSquaredDistances(q), brute_s1,
                1e-9 * std::max(1.0, brute_s1));
    EXPECT_NEAR(s.SumQuarticDistances(q), brute_s2,
                1e-9 * std::max(1.0, brute_s2));
  }
}

// Every aggregate of the record against a brute-force pass that accumulates
// in the same order, so the comparison is exact: a wrong offset or a
// clobbered slot anywhere in the record shows.
TEST_P(NodeStatsDimTest, RecordMatchesBruteForceExactly) {
  const int d = GetParam();
  PointSet pts = RandomPoints(37, d, 200 + d);
  NodeStats s = NodeStats::Compute(pts.data(), pts.size());
  ASSERT_EQ(s.count(), pts.size());
  ASSERT_EQ(s.dim(), d);

  std::vector<double> lo(d, std::numeric_limits<double>::infinity());
  std::vector<double> hi(d, -std::numeric_limits<double>::infinity());
  std::vector<double> sum(d, 0.0), v(d, 0.0), c(d * d, 0.0);
  double b = 0.0, h = 0.0;
  for (const Point& p : pts) {
    const double sq = p.SquaredNorm();
    b += sq;
    h += sq * sq;
    for (int a = 0; a < d; ++a) {
      lo[a] = std::min(lo[a], p[a]);
      hi[a] = std::max(hi[a], p[a]);
      sum[a] += p[a];
      v[a] += sq * p[a];
      for (int k = 0; k < d; ++k) c[a * d + k] += p[a] * p[k];
    }
  }
  EXPECT_EQ(s.sum_sq_norm(), b);
  EXPECT_EQ(s.sum_quartic_norm(), h);
  const Rect mbr = s.mbr();
  for (int a = 0; a < d; ++a) {
    EXPECT_EQ(s.mbr_lo()[a], lo[a]) << "dim " << a;
    EXPECT_EQ(s.mbr_hi()[a], hi[a]) << "dim " << a;
    EXPECT_EQ(mbr.lo(a), lo[a]);
    EXPECT_EQ(mbr.hi(a), hi[a]);
    EXPECT_EQ(s.sum()[a], sum[a]);
    EXPECT_EQ(s.sum_sq_norm_p()[a], v[a]);
  }
  for (int i = 0; i < d * d; ++i) EXPECT_EQ(s.outer_product_sum()[i], c[i]);
}

std::vector<double> RandomWeights(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> w(n);
  for (double& v : w) v = rng.Uniform(0.0, 5.0);
  return w;
}

// Weighted S1/S2 identities: sum w_i dist^2 and sum w_i dist^4 via the
// weighted record match brute force, and the mass is the weight sum
// (accumulated in the same order, so exactly).
TEST_P(NodeStatsDimTest, WeightedIdentitiesHold) {
  const int d = GetParam();
  PointSet pts = RandomPoints(60, d, 700 + d);
  std::vector<double> w = RandomWeights(pts.size(), 800 + d);
  NodeStats s = NodeStats::Compute(pts.data(), pts.size(), w.data());
  ASSERT_EQ(s.count(), pts.size());
  double mass = 0.0;
  for (double v : w) mass += v;
  EXPECT_EQ(s.mass(), mass);

  Rng rng(900 + d);
  for (int i = 0; i < 20; ++i) {
    Point q(d);
    for (int j = 0; j < d; ++j) q[j] = rng.Uniform(-3, 3);
    double brute_s1 = 0.0, brute_s2 = 0.0;
    for (size_t k = 0; k < pts.size(); ++k) {
      const double d2 = SquaredDistance(q, pts[k]);
      brute_s1 += w[k] * d2;
      brute_s2 += w[k] * d2 * d2;
    }
    EXPECT_NEAR(s.SumSquaredDistances(q), brute_s1,
                1e-9 * std::max(1.0, brute_s1));
    EXPECT_NEAR(s.SumQuarticDistances(q), brute_s2,
                1e-9 * std::max(1.0, brute_s2));
  }
}

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

// The record's distance helpers are the Rect arithmetic on mbr(), bit for
// bit, for points and query rects inside, outside and straddling the MBR.
TEST_P(NodeStatsDimTest, DistanceHelpersMatchRectBitForBit) {
  const int d = GetParam();
  PointSet pts = RandomPoints(25, d, 300 + d, -1.0, 1.0);
  NodeStats s = NodeStats::Compute(pts.data(), pts.size());
  const Rect mbr = s.mbr();
  Rng rng(400 + d);
  for (int i = 0; i < 40; ++i) {
    Point q(d), q2(d);
    for (int j = 0; j < d; ++j) {
      q[j] = rng.Uniform(-3, 3);
      q2[j] = q[j] + rng.Uniform(0, 2);
    }
    EXPECT_EQ(Bits(s.MinSquaredDistance(q)), Bits(mbr.MinSquaredDistance(q)));
    EXPECT_EQ(Bits(s.MaxSquaredDistance(q)), Bits(mbr.MaxSquaredDistance(q)));
    Rect r(d);
    r.Expand(q);
    r.Expand(q2);
    EXPECT_EQ(Bits(s.MinSquaredDistance(r)), Bits(mbr.MinSquaredDistance(r)));
    EXPECT_EQ(Bits(s.MaxSquaredDistance(r)), Bits(mbr.MaxSquaredDistance(r)));
  }
}

// Dimensions on both sides of the inline/spill boundary (kInlineDim = 2).
INSTANTIATE_TEST_SUITE_P(Dims, NodeStatsDimTest, ::testing::Range(1, 17));

// True if `p` points into the bytes of `owner`.
bool PointsInto(const void* p, const NodeStats& owner) {
  const auto* b = reinterpret_cast<const char*>(&owner);
  const auto* c = reinterpret_cast<const char*>(p);
  return c >= b && c < b + sizeof(NodeStats);
}

void ExpectSameRecord(const NodeStats& got, const NodeStats& want) {
  ASSERT_EQ(got.count(), want.count());
  ASSERT_EQ(got.dim(), want.dim());
  EXPECT_EQ(Bits(got.mass()), Bits(want.mass()));
  const int d = want.dim();
  EXPECT_EQ(Bits(got.sum_sq_norm()), Bits(want.sum_sq_norm()));
  EXPECT_EQ(Bits(got.sum_quartic_norm()), Bits(want.sum_quartic_norm()));
  for (int a = 0; a < d; ++a) {
    EXPECT_EQ(Bits(got.mbr_lo()[a]), Bits(want.mbr_lo()[a]));
    EXPECT_EQ(Bits(got.mbr_hi()[a]), Bits(want.mbr_hi()[a]));
    EXPECT_EQ(Bits(got.sum()[a]), Bits(want.sum()[a]));
    EXPECT_EQ(Bits(got.sum_sq_norm_p()[a]), Bits(want.sum_sq_norm_p()[a]));
  }
  for (int i = 0; i < d * d; ++i) {
    EXPECT_EQ(Bits(got.outer_product_sum()[i]),
              Bits(want.outer_product_sum()[i]));
  }
}

// Unit weights give the unweighted record bit for bit, inline (d <= 2) and
// spilled alike: multiplying by 1.0 is exact.
TEST_P(NodeStatsDimTest, UnitWeightsAreBitIdentical) {
  const int d = GetParam();
  PointSet pts = RandomPoints(41, d, 1000 + d);
  const std::vector<double> ones(pts.size(), 1.0);
  const NodeStats weighted =
      NodeStats::Compute(pts.data(), pts.size(), ones.data());
  const NodeStats plain = NodeStats::Compute(pts.data(), pts.size());
  EXPECT_EQ(plain.mass(), static_cast<double>(pts.size()));
  ExpectSameRecord(weighted, plain);
  Rng rng(1100 + d);
  for (int i = 0; i < 10; ++i) {
    Point q(d);
    for (int j = 0; j < d; ++j) q[j] = rng.Uniform(-3, 3);
    EXPECT_EQ(Bits(weighted.SumSquaredDistances(q)),
              Bits(plain.SumSquaredDistances(q)));
    EXPECT_EQ(Bits(weighted.SumQuarticDistances(q)),
              Bits(plain.SumQuarticDistances(q)));
  }
}

// A record is owned by exactly one object: copies get their own storage,
// moves leave the source empty, and nothing reads a buffer whose owner was
// reassigned or destroyed (ASan builds turn any such read into a failure).
class NodeStatsOwnershipTest : public ::testing::TestWithParam<int> {};

TEST_P(NodeStatsOwnershipTest, CopyMoveAndAssignOwnTheirRecords) {
  const int d = GetParam();
  const PointSet pts = RandomPoints(20, d, 500 + d);
  const NodeStats want = NodeStats::Compute(pts.data(), pts.size());
  // Another record of a different dimensionality to assign over.
  const int other_d = d > NodeStats::kInlineDim ? 1 : NodeStats::kInlineDim + 2;
  const PointSet other_pts = RandomPoints(9, other_d, 600 + d);
  const NodeStats other = NodeStats::Compute(other_pts.data(), 9);

  NodeStats moved_into;
  NodeStats assigned;
  {
    NodeStats a = NodeStats::Compute(pts.data(), pts.size());
    NodeStats copy(a);
    EXPECT_NE(copy.sum(), a.sum());
    ExpectSameRecord(copy, want);

    NodeStats copy_assigned = other;
    copy_assigned = a;
    EXPECT_NE(copy_assigned.sum(), a.sum());
    ExpectSameRecord(copy_assigned, want);

    NodeStats moved(std::move(copy));
    EXPECT_EQ(copy.count(), 0u);  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(copy.dim(), 0);
    ExpectSameRecord(moved, want);

    assigned = other;
    assigned = std::move(copy_assigned);
    EXPECT_EQ(copy_assigned.count(), 0u);  // NOLINT(bugprone-use-after-move)
    ExpectSameRecord(assigned, want);

    NodeStats& alias = assigned;
    assigned = alias;
    ExpectSameRecord(assigned, want);

    moved_into = std::move(moved);
    if (d <= NodeStats::kInlineDim) {
      EXPECT_TRUE(PointsInto(moved_into.sum(), moved_into));
    } else {
      EXPECT_FALSE(PointsInto(moved_into.sum(), moved_into));
    }
    // a, copy, copy_assigned and moved are destroyed here.
  }
  ExpectSameRecord(moved_into, want);
  ExpectSameRecord(assigned, want);
  EXPECT_NE(moved_into.sum(), assigned.sum());
}

INSTANTIATE_TEST_SUITE_P(InlineAndSpilled, NodeStatsOwnershipTest,
                         ::testing::Values(1, 2, 3, 8, 16));

TEST(NodeStatsTest, SinglePoint) {
  PointSet pts{Point{1.0, -1.0}};
  NodeStats s = NodeStats::Compute(pts.data(), 1);
  Point q{4.0, 3.0};
  double d2 = SquaredDistance(q, pts[0]);
  EXPECT_NEAR(s.SumSquaredDistances(q), d2, 1e-10);
  EXPECT_NEAR(s.SumQuarticDistances(q), d2 * d2, 1e-8);
}

// Zero weights contribute no mass and no moments, but the MBR still spans
// every point (the bounds' distance interval is the node's, not the
// weighted subset's).
TEST(NodeStatsTest, ZeroWeightsKeepTheMbr) {
  PointSet pts{Point{0.0, 0.0}, Point{1.0, 2.0}, Point{-1.0, 3.0}};
  const std::vector<double> w{0.0, 2.0, 0.0};
  NodeStats s = NodeStats::Compute(pts.data(), pts.size(), w.data());
  EXPECT_EQ(s.count(), 3u);
  EXPECT_EQ(s.mass(), 2.0);
  EXPECT_EQ(s.sum()[0], 2.0);
  EXPECT_EQ(s.sum()[1], 4.0);
  EXPECT_EQ(s.sum_sq_norm(), 10.0);
  EXPECT_EQ(s.mbr_lo()[0], -1.0);
  EXPECT_EQ(s.mbr_hi()[1], 3.0);
  EXPECT_EQ(s.SumSquaredDistances(Point{1.0, 2.0}), 0.0);

  const std::vector<double> zeros(pts.size(), 0.0);
  NodeStats empty = NodeStats::Compute(pts.data(), pts.size(), zeros.data());
  EXPECT_EQ(empty.mass(), 0.0);
  EXPECT_EQ(empty.sum_quartic_norm(), 0.0);
  EXPECT_EQ(empty.mbr_lo()[0], -1.0);
  EXPECT_EQ(empty.mbr_hi()[0], 1.0);
}

TEST(NodeStatsTest, QueryAtCentroidNonNegative) {
  // Cancellation stress: all points identical, query identical.
  PointSet pts(50, Point{0.3, 0.7});
  NodeStats s = NodeStats::Compute(pts.data(), pts.size());
  EXPECT_GE(s.SumSquaredDistances(Point{0.3, 0.7}), 0.0);
  EXPECT_GE(s.SumQuarticDistances(Point{0.3, 0.7}), 0.0);
  EXPECT_NEAR(s.SumSquaredDistances(Point{0.3, 0.7}), 0.0, 1e-12);
}

}  // namespace
}  // namespace kdv
