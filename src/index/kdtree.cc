#include "index/kdtree.h"

#include <algorithm>
#include <map>
#include <numeric>

#include "util/check.h"

namespace kdv {

namespace {

// Bounding box over an index range via indirection (build-time only).
Rect RangeMbr(const PointSet& points, const std::vector<uint32_t>& idx,
              size_t begin, size_t end, int dim) {
  Rect mbr(dim);
  for (size_t i = begin; i < end; ++i) mbr.Expand(points[idx[i]]);
  return mbr;
}

// Permutes `points` so that points[i] becomes the old points[order[i]],
// following each cycle of the permutation with one carried value.
void GatherInPlace(const std::vector<uint32_t>& order, PointSet* points) {
  const size_t n = order.size();
  std::vector<bool> placed(n, false);
  for (size_t start = 0; start < n; ++start) {
    if (placed[start]) continue;
    const Point carry = (*points)[start];
    size_t i = start;
    while (true) {
      placed[i] = true;
      const size_t src = order[i];
      if (src == start) {
        (*points)[i] = carry;
        break;
      }
      (*points)[i] = (*points)[src];
      i = src;
    }
  }
}

}  // namespace

size_t KdTree::NodeCount(size_t num_points, size_t leaf_size) {
  leaf_size = std::max<size_t>(leaf_size, 1);
  // Range sizes on one level of the build differ by at most one, so a level
  // is at most two (size, multiplicity) entries.
  std::map<size_t, size_t> level = {{num_points, 1}};
  size_t total = 0;
  while (!level.empty()) {
    std::map<size_t, size_t> next;
    for (const auto& [size, multiplicity] : level) {
      total += multiplicity;
      if (size > leaf_size) {
        next[size / 2] += multiplicity;
        next[size - size / 2] += multiplicity;
      }
    }
    level = std::move(next);
  }
  return total;
}

KdTree::KdTree(PointSet points, Options options) {
  KDV_CHECK_MSG(!points.empty(), "KdTree requires a non-empty point set");
  dim_ = points[0].dim();
  for (const Point& p : points) {
    KDV_CHECK_MSG(p.dim() == dim_, "KdTree points must share dimensionality");
  }
  const size_t leaf_size = std::max<size_t>(options.leaf_size, 1);

  // Phase 1: build the split structure over an index array, so the
  // input-order permutation is available to callers with per-point payloads.
  // The node count is known up front, so the array never reallocates.
  original_indices_.resize(points.size());
  std::iota(original_indices_.begin(), original_indices_.end(), 0u);
  nodes_.reserve(NodeCount(points.size(), leaf_size));
  BuildRecursive(points, 0, points.size(), leaf_size);
  KDV_DCHECK(nodes_.size() == NodeCount(points.size(), leaf_size));

  // Phase 2: gather the points into tree order in place (no second copy of
  // the point array is ever alive) and fill per-node aggregates.
  GatherInPlace(original_indices_, &points);
  points_ = std::move(points);
  for (Node& node : nodes_) {
    node.stats =
        NodeStats::Compute(points_.data() + node.begin, node.count());
  }
  BuildSoA();
}

void KdTree::BuildSoA() {
  const size_t n = points_.size();
  soa_coords_.resize(static_cast<size_t>(dim_) * n);
  for (int d = 0; d < dim_; ++d) {
    double* out = soa_coords_.data() + static_cast<size_t>(d) * n;
    for (size_t i = 0; i < n; ++i) out[i] = points_[i][d];
  }
}

int32_t KdTree::BuildRecursive(const PointSet& input, size_t begin,
                               size_t end, size_t leaf_size) {
  KDV_DCHECK(begin < end);
  const int32_t id = static_cast<int32_t>(nodes_.size());
  nodes_.emplace_back();
  // Note: nodes_ may reallocate during recursion; never hold a Node&
  // across a recursive call.
  nodes_[id].begin = static_cast<uint32_t>(begin);
  nodes_[id].end = static_cast<uint32_t>(end);

  if (end - begin > leaf_size) {
    const int split_dim =
        RangeMbr(input, original_indices_, begin, end, dim_)
            .WidestDimension();
    const size_t mid = begin + (end - begin) / 2;
    std::nth_element(original_indices_.begin() + begin,
                     original_indices_.begin() + mid,
                     original_indices_.begin() + end,
                     [&input, split_dim](uint32_t a, uint32_t b) {
                       return input[a][split_dim] < input[b][split_dim];
                     });
    // nth_element guarantees begin < mid < end, so both sides are non-empty
    // even when all coordinates along split_dim are equal.
    int32_t left = BuildRecursive(input, begin, mid, leaf_size);
    int32_t right = BuildRecursive(input, mid, end, leaf_size);
    nodes_[id].left = left;
    nodes_[id].right = right;
  }
  return id;
}

StatusOr<std::unique_ptr<KdTree>> KdTree::FromSerialized(
    PointSet points, std::vector<uint32_t> original_indices,
    std::vector<Node> nodes) {
  if (points.empty()) return DataLossError("serialized tree has no points");
  if (nodes.empty()) return DataLossError("serialized tree has no nodes");
  if (original_indices.size() != points.size()) {
    return DataLossError("permutation size does not match point count");
  }
  const size_t n = points.size();
  const int dim = points[0].dim();
  for (const Point& p : points) {
    if (p.dim() != dim) {
      return DataLossError("serialized points have mixed dimensionality");
    }
  }
  // The permutation must be a bijection on [0, n).
  std::vector<bool> seen(n, false);
  for (uint32_t idx : original_indices) {
    if (idx >= n || seen[idx]) {
      return DataLossError(
          "original_indices is not a permutation of [0, num_points)");
    }
    seen[idx] = true;
  }

  // Validate the structure with an explicit DFS: every node reached exactly
  // once from the root, children partition their parent, root covers all.
  if (nodes[0].begin != 0 || nodes[0].end != n) {
    return DataLossError("root node does not cover all points");
  }
  std::vector<bool> visited(nodes.size(), false);
  std::vector<int32_t> stack = {0};
  size_t reached = 0;
  while (!stack.empty()) {
    int32_t id = stack.back();
    stack.pop_back();
    if (id < 0 || static_cast<size_t>(id) >= nodes.size()) {
      return DataLossError("node child id out of range");
    }
    if (visited[id]) {
      return DataLossError("node graph contains a cycle or shared child");
    }
    visited[id] = true;
    ++reached;
    const Node& node = nodes[id];
    if (node.begin >= node.end || node.end > n) {
      return DataLossError("node point range is empty or out of bounds");
    }
    const bool has_left = node.left >= 0;
    const bool has_right = node.right >= 0;
    if (has_left != has_right) {
      return DataLossError("internal node is missing one child");
    }
    if (has_left) {
      if (static_cast<size_t>(node.left) >= nodes.size() ||
          static_cast<size_t>(node.right) >= nodes.size()) {
        return DataLossError("node child id out of range");
      }
      const Node& l = nodes[node.left];
      const Node& r = nodes[node.right];
      if (l.begin != node.begin || l.end != r.begin || r.end != node.end) {
        return DataLossError("child ranges do not partition their parent");
      }
      stack.push_back(node.left);
      stack.push_back(node.right);
    }
  }
  if (reached != nodes.size()) {
    return DataLossError("unreachable nodes in serialized tree");
  }

  std::unique_ptr<KdTree> tree(new KdTree());
  tree->dim_ = dim;
  tree->points_ = std::move(points);
  tree->original_indices_ = std::move(original_indices);
  tree->nodes_ = std::move(nodes);
  for (Node& node : tree->nodes_) {
    node.stats = NodeStats::Compute(tree->points_.data() + node.begin,
                                    node.count());
  }
  tree->BuildSoA();
  return tree;
}

int KdTree::Depth() const { return DepthRecursive(root()); }

int KdTree::DepthRecursive(int32_t id) const {
  const Node& n = nodes_[id];
  if (n.IsLeaf()) return 1;
  return 1 + std::max(DepthRecursive(n.left), DepthRecursive(n.right));
}

}  // namespace kdv
