// kd-tree over a point set with per-node aggregate statistics.
//
// This is the shared indexing framework of the paper (§3.2): all compared
// methods (aKDE, tKDC, KARL, QUAD) run the same best-first refinement over
// this tree and differ only in their per-node bound functions. Scikit-learn's
// KernelDensity uses the same structure.
#ifndef QUADKDV_INDEX_KDTREE_H_
#define QUADKDV_INDEX_KDTREE_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "geom/point.h"
#include "index/node_stats.h"
#include "util/status.h"

namespace kdv {

// Immutable balanced kd-tree. Nodes are stored in a flat array of compact
// records (Node: the node's NodeStats record plus its point range and child
// ids, 144 bytes, with nothing on the heap at d <= 2; see node_stats.h for
// the record layout); points are reordered into a contiguous array so each
// node owns the slice [begin, end). Median splits on the widest MBR
// dimension give O(log n) depth.
//
// Thread safety: the tree is deeply immutable once the constructor returns
// (the accessors are all const and there is no caching), so it may be read
// concurrently without synchronization.
class KdTree {
 public:
  struct Node {
    NodeStats stats;
    uint32_t begin = 0;  // first point index (into points())
    uint32_t end = 0;    // one past last point index
    int32_t left = -1;   // child node ids; -1 for leaves
    int32_t right = -1;

    bool IsLeaf() const { return left < 0; }
    size_t count() const { return end - begin; }
  };

  struct Options {
    // Maximum number of points per leaf; Scikit-learn's default is 40.
    size_t leaf_size = 32;
  };

  // Builds the tree. `points` must be non-empty with uniform dimensionality.
  explicit KdTree(PointSet points) : KdTree(std::move(points), Options()) {}
  KdTree(PointSet points, Options options);

  // Reassembles a tree from serialized parts (see index/serialization.h):
  // points in tree order, the build permutation, and the node structure
  // (stats are recomputed). Every structural invariant is re-verified;
  // returns DataLoss with a description of the first violated invariant
  // rather than trusting the input.
  static StatusOr<std::unique_ptr<KdTree>> FromSerialized(
      PointSet points, std::vector<uint32_t> original_indices,
      std::vector<Node> nodes);

  KdTree(const KdTree&) = delete;
  KdTree& operator=(const KdTree&) = delete;
  KdTree(KdTree&&) = default;
  KdTree& operator=(KdTree&&) = default;

  int32_t root() const { return 0; }
  const Node& node(int32_t id) const { return nodes_[id]; }
  size_t num_nodes() const { return nodes_.size(); }
  size_t num_points() const { return points_.size(); }
  int dim() const { return dim_; }

  // Points in tree order; node(id) owns points()[node.begin, node.end).
  const PointSet& points() const { return points_; }

  // Structure-of-arrays mirror of points(): coordinate d of point i lives at
  // coords(d)[i], contiguous across i. Built once at construction (and after
  // FromSerialized); the persisted index format is unchanged. This is the
  // layout the batched leaf kernels (core/leaf_kernel.h) stream over — the
  // AoS Point array strides kMaxDim+1 doubles per point, so a 2-d leaf scan
  // touches ~8x more cache lines than these arrays do.
  const double* coords(int d) const {
    KDV_DCHECK(d >= 0 && d < dim_);
    return soa_coords_.data() + static_cast<size_t>(d) * points_.size();
  }

  // Build permutation: points()[i] was points[original_index(i)] in the
  // input. Lets callers attach per-point payloads (labels, regression
  // targets, weights) to the reordered layout.
  uint32_t original_index(size_t i) const { return original_indices_[i]; }
  const std::vector<uint32_t>& original_indices() const {
    return original_indices_;
  }

  // Depth of the tree (root = 1). For diagnostics.
  int Depth() const;

  // Number of nodes the constructor builds for `num_points` points: a range
  // of more than leaf_size points (leaf_size 0 counts as 1) splits into
  // halves of m/2 and m - m/2 points.
  static size_t NodeCount(size_t num_points, size_t leaf_size);

 private:
  KdTree() = default;  // for FromSerialized

  int32_t BuildRecursive(const PointSet& input, size_t begin, size_t end,
                         size_t leaf_size);
  int DepthRecursive(int32_t id) const;
  // Fills soa_coords_ from points_ (dim-major, num_points-stride).
  void BuildSoA();

  PointSet points_;
  std::vector<uint32_t> original_indices_;
  std::vector<Node> nodes_;
  std::vector<double> soa_coords_;  // dim_ arrays of num_points() doubles
  int dim_ = 0;
};

// One node record is what every bound evaluation touches; keep it within
// three cache lines (it is 144 bytes: 128 of NodeStats, 16 of ids).
static_assert(sizeof(KdTree::Node) <= 160,
              "KdTree::Node outgrew its compact record");

}  // namespace kdv

#endif  // QUADKDV_INDEX_KDTREE_H_
