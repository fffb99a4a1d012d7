#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "data/datasets.h"
#include "index/kdtree.h"
#include "util/random.h"

namespace kdv {
namespace {

PointSet RandomPoints(int n, uint64_t seed) {
  Rng rng(seed);
  PointSet pts;
  for (int i = 0; i < n; ++i) {
    pts.push_back(Point{rng.NextDouble(), rng.NextDouble()});
  }
  return pts;
}

TEST(KdTreeTest, RootCoversAllPoints) {
  PointSet pts = RandomPoints(500, 1);
  KdTree tree(pts);
  const KdTree::Node& root = tree.node(tree.root());
  EXPECT_EQ(root.count(), 500u);
  EXPECT_EQ(root.stats.count(), 500u);
  for (const Point& p : pts) EXPECT_TRUE(root.stats.mbr().Contains(p));
}

TEST(KdTreeTest, TreeIsAPermutationOfInput) {
  PointSet pts = RandomPoints(300, 2);
  KdTree tree(pts);
  auto key = [](const Point& p) { return std::make_pair(p[0], p[1]); };
  std::vector<std::pair<double, double>> a, b;
  for (const Point& p : pts) a.push_back(key(p));
  for (const Point& p : tree.points()) b.push_back(key(p));
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

TEST(KdTreeTest, LeavesRespectLeafSize) {
  PointSet pts = RandomPoints(1000, 3);
  KdTree::Options options;
  options.leaf_size = 16;
  KdTree tree(std::move(pts), options);
  for (size_t i = 0; i < tree.num_nodes(); ++i) {
    const KdTree::Node& n = tree.node(static_cast<int32_t>(i));
    if (n.IsLeaf()) {
      EXPECT_LE(n.count(), 16u);
      EXPECT_GE(n.count(), 1u);
    }
  }
}

TEST(KdTreeTest, ChildrenPartitionParent) {
  PointSet pts = RandomPoints(1000, 4);
  KdTree tree(std::move(pts));
  for (size_t i = 0; i < tree.num_nodes(); ++i) {
    const KdTree::Node& n = tree.node(static_cast<int32_t>(i));
    if (n.IsLeaf()) continue;
    const KdTree::Node& l = tree.node(n.left);
    const KdTree::Node& r = tree.node(n.right);
    EXPECT_EQ(l.begin, n.begin);
    EXPECT_EQ(l.end, r.begin);
    EXPECT_EQ(r.end, n.end);
    EXPECT_EQ(l.count() + r.count(), n.count());
    EXPECT_EQ(l.stats.count() + r.stats.count(), n.stats.count());
  }
}

TEST(KdTreeTest, NodeStatsConsistentWithOwnedSlice) {
  PointSet pts = RandomPoints(400, 5);
  KdTree tree(std::move(pts));
  Rng rng(6);
  Point q{rng.NextDouble(), rng.NextDouble()};
  for (size_t i = 0; i < tree.num_nodes(); ++i) {
    const KdTree::Node& n = tree.node(static_cast<int32_t>(i));
    double brute = 0.0;
    for (uint32_t j = n.begin; j < n.end; ++j) {
      brute += SquaredDistance(q, tree.points()[j]);
    }
    EXPECT_NEAR(n.stats.SumSquaredDistances(q), brute,
                1e-9 * std::max(1.0, brute));
  }
}

TEST(KdTreeTest, DepthIsLogarithmic) {
  PointSet pts = RandomPoints(4096, 7);
  KdTree::Options options;
  options.leaf_size = 1;
  KdTree tree(std::move(pts), options);
  // Median splits: depth == ceil(log2(4096)) + 1 = 13 for leaf_size 1.
  EXPECT_LE(tree.Depth(), 14);
  EXPECT_GE(tree.Depth(), 12);
}

TEST(KdTreeTest, HandlesDuplicatePoints) {
  PointSet pts(100, Point{0.5, 0.5});
  KdTree::Options options;
  options.leaf_size = 4;
  KdTree tree(std::move(pts), options);
  const KdTree::Node& root = tree.node(tree.root());
  EXPECT_EQ(root.count(), 100u);
  // Every leaf non-empty, all splits valid.
  std::function<size_t(int32_t)> count_leaf_points =
      [&](int32_t id) -> size_t {
    const KdTree::Node& n = tree.node(id);
    if (n.IsLeaf()) {
      EXPECT_GE(n.count(), 1u);
      return n.count();
    }
    return count_leaf_points(n.left) + count_leaf_points(n.right);
  };
  EXPECT_EQ(count_leaf_points(tree.root()), 100u);
}

TEST(KdTreeTest, SinglePointTree) {
  PointSet pts{Point{1.0, 2.0}};
  KdTree tree(std::move(pts));
  EXPECT_EQ(tree.num_nodes(), 1u);
  EXPECT_TRUE(tree.node(tree.root()).IsLeaf());
  EXPECT_EQ(tree.Depth(), 1);
}

TEST(KdTreeTest, ChildMbrsShrink) {
  PointSet pts = GenerateMixture(CrimeSpec(0.01));
  KdTree tree(std::move(pts));
  const KdTree::Node& root = tree.node(tree.root());
  ASSERT_FALSE(root.IsLeaf());
  const Rect& root_mbr = root.stats.mbr();
  const Rect& l = tree.node(root.left).stats.mbr();
  const Rect& r = tree.node(root.right).stats.mbr();
  for (int d = 0; d < 2; ++d) {
    EXPECT_GE(l.lo(d), root_mbr.lo(d));
    EXPECT_LE(l.hi(d), root_mbr.hi(d));
    EXPECT_GE(r.lo(d), root_mbr.lo(d));
    EXPECT_LE(r.hi(d), root_mbr.hi(d));
  }
  // The split dimension should actually divide the extent.
  int split = root_mbr.WidestDimension();
  EXPECT_LE(l.Length(split), root_mbr.Length(split));
  EXPECT_LE(r.Length(split), root_mbr.Length(split));
}


// The build gathers the points into tree order in place; the result is the
// input permuted by original_index, duplicates and all.
TEST(KdTreeTest, GatheredPointsFollowThePermutation) {
  PointSet input = GenerateMixture(CrimeSpec(0.01));
  const size_t n = input.size();
  for (size_t i = 0; i < n; i += 7) input.push_back(input[i]);  // duplicates
  Rng rng(8);
  for (size_t i = input.size() - 1; i > 0; --i) {
    std::swap(input[i], input[rng.NextUint64() % (i + 1)]);
  }
  for (size_t leaf_size : {1, 32}) {
    KdTree::Options options;
    options.leaf_size = leaf_size;
    KdTree tree(PointSet(input), options);
    ASSERT_EQ(tree.num_points(), input.size());
    std::vector<bool> seen(input.size(), false);
    for (size_t i = 0; i < tree.num_points(); ++i) {
      const uint32_t from = tree.original_index(i);
      ASSERT_LT(from, input.size());
      EXPECT_FALSE(seen[from]);
      seen[from] = true;
      EXPECT_EQ(tree.points()[i], input[from]) << "tree slot " << i;
      EXPECT_EQ(tree.coords(0)[i], input[from][0]);
      EXPECT_EQ(tree.coords(1)[i], input[from][1]);
    }
  }
}

// NodeCount (which sizes the node array before the build) is exact.
TEST(KdTreeTest, NodeCountMatchesBuild) {
  for (size_t n : {1, 31, 32, 33, 1000, 50000}) {
    for (size_t leaf_size : {1, 32, 40}) {
      KdTree::Options options;
      options.leaf_size = leaf_size;
      KdTree tree(RandomPoints(static_cast<int>(n), n + leaf_size), options);
      EXPECT_EQ(KdTree::NodeCount(n, leaf_size), tree.num_nodes())
          << "n=" << n << " leaf_size=" << leaf_size;
    }
  }
  EXPECT_EQ(KdTree::NodeCount(100, 0), KdTree::NodeCount(100, 1));
}

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

// Every node record of `tree` equals a fresh NodeStats::Compute over the
// node's points, bit for bit, and no two nodes share storage.
void ExpectRecordsIntact(const KdTree& tree) {
  std::set<const double*> buffers;
  for (size_t i = 0; i < tree.num_nodes(); ++i) {
    const KdTree::Node& node = tree.node(static_cast<int32_t>(i));
    const NodeStats want =
        NodeStats::Compute(tree.points().data() + node.begin, node.count());
    const NodeStats& got = node.stats;
    ASSERT_EQ(got.count(), want.count());
    ASSERT_EQ(got.dim(), want.dim());
    EXPECT_TRUE(buffers.insert(got.sum()).second) << "node " << i;
    const int d = want.dim();
    EXPECT_EQ(Bits(got.sum_sq_norm()), Bits(want.sum_sq_norm()));
    EXPECT_EQ(Bits(got.sum_quartic_norm()), Bits(want.sum_quartic_norm()));
    for (int a = 0; a < d; ++a) {
      EXPECT_EQ(Bits(got.mbr_lo()[a]), Bits(want.mbr_lo()[a]));
      EXPECT_EQ(Bits(got.mbr_hi()[a]), Bits(want.mbr_hi()[a]));
      EXPECT_EQ(Bits(got.sum()[a]), Bits(want.sum()[a]));
      EXPECT_EQ(Bits(got.sum_sq_norm_p()[a]), Bits(want.sum_sq_norm_p()[a]));
    }
    for (int k = 0; k < d * d; ++k) {
      EXPECT_EQ(Bits(got.outer_product_sum()[k]),
                Bits(want.outer_product_sum()[k]));
    }
  }
}

// Moving a tree hands over its node records; after the source trees are
// gone the records still read correctly (for d = 3 the records live on the
// heap, so a record left pointing at a moved-from buffer would be a
// use-after-free under ASan).
TEST(KdTreeTest, MovedTreesKeepTheirRecords) {
  for (int dim : {2, 3}) {
    PointSet pts;
    Rng rng(9 + dim);
    for (int i = 0; i < 700; ++i) {
      Point p(dim);
      for (int j = 0; j < dim; ++j) p[j] = rng.NextDouble();
      pts.push_back(p);
    }
    KdTree::Options options;
    options.leaf_size = 8;
    std::unique_ptr<KdTree> kept;
    {
      KdTree built(PointSet(pts), options);
      KdTree moved(std::move(built));
      KdTree assigned(PointSet(pts.begin(), pts.begin() + 3), options);
      assigned = std::move(moved);
      kept = std::make_unique<KdTree>(std::move(assigned));
    }
    ASSERT_EQ(kept->num_points(), pts.size());
    ExpectRecordsIntact(*kept);
  }
}

}  // namespace
}  // namespace kdv
