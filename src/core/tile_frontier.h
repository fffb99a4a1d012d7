// Shared refinement frontier of one pixel tile.
//
// A TileFrontier is the output of the TileRefiner's single best-first region
// pass over a tile (core/tile_refiner.h): the kd-tree nodes whose region
// bounds could not decide the whole tile, plus the certified contribution
// interval of every node that *was* decided tile-wide (folded into
// base_lower/base_upper). Each pixel of the tile then seeds its
// RefinementStream from the frontier (Reset(q, frontier)) instead of the
// tree root, so the shared part of the traversal is paid once per tile.
//
// Soundness contract consumed by the stream: for every query q in the tile,
//   base_lower + sum_{n in nodes} F_n(q) <= F_P(q)
//                                        <= base_upper + sum_{n in nodes} F_n(q)
// and each frontier node carries its certified region interval
//   n.lower <= F_n(q) <= n.upper   for every q in the tile,
// so a pixel stream can be primed with ZERO per-pixel bound evaluations:
// the region intervals are valid starting intervals (their suffix sums are
// precomputed, making priming O(1)), and best-first refinement injects
// frontier nodes lazily — in descending region-gap order — replacing each
// with this pixel's own bounds only when its slack actually blocks
// termination. The frontier nodes are disjoint subtrees covering exactly
// the points not accounted for by the baseline. A frontier with
// valid == false must be ignored (the pixel falls back to root-seeded
// refinement).
// Every total here is a fresh sum, never a running total that had
// intervals subtracted from it: a region upper can exceed a pixel's density
// by ~15 orders of magnitude, and that residue would swamp ε·F_P(q).
#ifndef QUADKDV_CORE_TILE_FRONTIER_H_
#define QUADKDV_CORE_TILE_FRONTIER_H_

#include <cstdint>
#include <vector>

namespace kdv {

struct TileFrontier {
  // Sum of the certified region bounds of all tile-accepted nodes. The gap
  // base_upper - base_lower is bounded by the acceptance budget (εKDV) or is
  // exactly 0 (τKDV), which is what keeps per-pixel certificates intact even
  // when a seeded stream exhausts without meeting its termination test.
  double base_lower = 0.0;
  double base_upper = 0.0;

  // One undecided subtree root with its certified region interval.
  struct Node {
    int32_t node = -1;
    double lower = 0.0;  // region lower bound on F_node(q), any q in tile
    double upper = 0.0;  // region upper bound
  };

  // Undecided subtree roots, descending region gap (ties: ascending node
  // id). The order is the stream's lazy-injection order: a seeded stream
  // consumes nodes front-to-back, and since a node's per-pixel gap never
  // exceeds its region gap, the next unconsumed entry's region gap is a
  // sound priority for best-first interleaving with the heap. Disjoint from
  // each other and from every accepted/pruned node.
  std::vector<Node> nodes;

  // suffix[k] sums the region intervals of nodes[k..] back to front
  // (nodes.size() + 1 entries, the last {0, 0}): a seeded stream that has
  // injected k nodes reads its interval as (base + suffix[k]) + heap totals.
  struct Sum {
    double lower = 0.0;
    double upper = 0.0;
  };
  std::vector<Sum> suffix;

  // Totals over every node that survived the pass: L* of the εKDV budget,
  // or the totals a whole-tile decision was taken on.
  double region_lower = 0.0;
  double region_upper = 0.0;

  // Whole-tile decisions: when `decided`, every pixel of the tile can be
  // finished with zero per-pixel work.
  bool decided = false;
  double decided_value = 0.0;  // εKDV: certified midpoint estimate
  bool decided_above = false;  // τKDV: region predicate outcome

  // False when the region pass hit a numeric fault (non-finite or genuinely
  // inverted region bounds); consumers must fall back to per-pixel
  // refinement from the root.
  bool valid = false;

  // Region-pass work accounting (merged into BatchStats by the renderer).
  uint64_t nodes_visited = 0;  // region bound evaluations
  uint64_t accepted = 0;       // nodes folded into the baseline
  uint64_t pruned = 0;         // nodes with zero tile-wide contribution
};

}  // namespace kdv

#endif  // QUADKDV_CORE_TILE_FRONTIER_H_
