#include "core/tile_refiner.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/refinement_stream.h"
#include "obs/metrics.h"
#include "util/check.h"
#include "util/timer.h"

namespace kdv {

namespace {

// Per-pass observability. The region pass runs once per tile chunk, not per
// pixel, so three relaxed atomic bumps here are invisible next to the bound
// evaluations the pass performs. Handles resolve once per process.
struct TileObs {
  obs::Counter* passes;
  obs::Counter* nodes;
  obs::Counter* decided;
  obs::Histogram* pass_seconds;
  TileObs() {
    auto& r = obs::MetricsRegistry::Global();
    passes = r.GetCounter("kdv_tile_region_passes_total");
    nodes = r.GetCounter("kdv_tile_region_nodes_total");
    decided = r.GetCounter("kdv_tile_decided_total");
    pass_seconds = r.GetHistogram("kdv_tile_region_pass_seconds");
  }
};

void RecordTilePass(const TileFrontier& out, double seconds) {
  static TileObs& o = *new TileObs();
  o.passes->Increment();
  o.nodes->Increment(out.nodes_visited);
  if (out.valid && out.decided) o.decided->Increment();
  o.pass_seconds->Record(seconds);
}

struct RegionEntry {
  double gap = 0.0;
  int32_t node = -1;
  double lower = 0.0;
  double upper = 0.0;
};

struct GapLess {
  bool operator()(const RegionEntry& a, const RegionEntry& b) const {
    return a.gap < b.gap;
  }
};

// Phase-2 acceptance order: tightest intervals first, node id as the
// deterministic tie-break.
struct GapThenNode {
  bool operator()(const RegionEntry& a, const RegionEntry& b) const {
    if (a.gap != b.gap) return a.gap < b.gap;
    return a.node < b.node;
  }
};

// Fresh totals of the live entries' intervals. The loop's running totals
// subtract every expanded node's interval, and a region upper can exceed
// the tile's densities by ~15 orders of magnitude, so their residue can
// swamp the densities themselves (see tile_frontier.h).
TileFrontier::Sum FreshSum(const std::vector<RegionEntry>& a,
                           const std::vector<RegionEntry>& b) {
  TileFrontier::Sum sum;
  for (const std::vector<RegionEntry>* entries : {&a, &b}) {
    for (const RegionEntry& e : *entries) {
      sum.lower += e.lower;
      sum.upper += e.upper;
    }
  }
  return sum;
}

// Whether region totals answer every pixel of the tile: εKDV
// upper <= (1+ε)·lower; τKDV lower >= τ or upper <= τ.
bool Settles(bool eps_mode, double param, const TileFrontier::Sum& t) {
  if (eps_mode) return t.upper <= (1.0 + param) * t.lower;
  return t.lower >= param || t.upper <= param;
}

void MarkDecided(bool eps_mode, double param, const TileFrontier::Sum& t,
                 TileFrontier* out) {
  out->decided = true;
  out->valid = true;
  out->region_lower = t.lower;
  out->region_upper = t.upper;
  if (eps_mode) {
    out->decided_value = 0.5 * (t.lower + t.upper);
  } else {
    out->decided_above = t.lower >= param;
  }
  out->suffix.push_back({});
}

}  // namespace

TileRefiner::TileRefiner(const KdTree* tree, const KernelParams& params,
                         const NodeBounds* bounds,
                         const TileRefinerOptions& options)
    : tree_(tree), params_(params), bounds_(bounds), options_(options) {
  KDV_CHECK(tree_ != nullptr);
  KDV_CHECK_MSG(bounds_ != nullptr,
                "tile refinement requires a bound function (not EXACT)");
  KDV_CHECK(options_.accept_fraction > 0.0 && options_.accept_fraction <= 1.0);
}

TileFrontier TileRefiner::BuildEps(const Rect& query_rect, double eps) const {
  KDV_CHECK(eps >= 0.0);
  Timer timer;  // CurrentClock: virtual under sim, so metrics replay exactly
  TileFrontier out = Build(query_rect, /*eps_mode=*/true, eps);
  RecordTilePass(out, timer.ElapsedSeconds());
  return out;
}

TileFrontier TileRefiner::BuildTau(const Rect& query_rect, double tau) const {
  Timer timer;
  TileFrontier out = Build(query_rect, /*eps_mode=*/false, tau);
  RecordTilePass(out, timer.ElapsedSeconds());
  return out;
}

TileFrontier TileRefiner::Build(const Rect& query_rect, bool eps_mode,
                                double param) const {
  TileFrontier out;

  // Max-heap over region gap, plus deferred leaves (kept out of the heap so
  // the loop never re-pops them; their intervals stay in the totals).
  std::vector<RegionEntry> heap;
  std::vector<RegionEntry> deferred;

  const int32_t root = tree_->root();
  BoundPair rb = bounds_->EvaluateRegion(tree_->node(root).stats, query_rect);
  ++out.nodes_visited;
  if (!IntervalAcceptable(rb.lower, rb.upper)) return out;  // valid == false
  TileFrontier::Sum total{rb.lower, rb.upper};
  heap.push_back({rb.upper - rb.lower, root, rb.lower, rb.upper});

  // Running totals propose a whole-tile decision; a fresh sum of the live
  // entries confirms it, and replaces the totals when it refutes it.
  auto decided = [&]() {
    if (!Settles(eps_mode, param, total)) return false;
    total = FreshSum(heap, deferred);
    return Settles(eps_mode, param, total);
  };

  while (!heap.empty()) {
    if (decided()) {
      MarkDecided(eps_mode, param, total, &out);
      return out;
    }
    if (out.nodes_visited >= options_.max_nodes_visited) break;
    if (heap.size() + deferred.size() >= options_.max_frontier) break;

    std::pop_heap(heap.begin(), heap.end(), GapLess());
    RegionEntry top = heap.back();
    heap.pop_back();
    if (top.gap <= 0.0) {
      // Loosest entry is already tight: everything left is an acceptance
      // candidate for phase 2.
      heap.push_back(top);
      break;
    }
    const KdTree::Node& node = tree_->node(top.node);
    if (node.IsLeaf()) {
      deferred.push_back(top);
      continue;
    }
    total.lower -= top.lower;
    total.upper -= top.upper;
    bool fault = false;
    for (int32_t child : {node.left, node.right}) {
      BoundPair cb =
          bounds_->EvaluateRegion(tree_->node(child).stats, query_rect);
      ++out.nodes_visited;
      if (!IntervalAcceptable(cb.lower, cb.upper)) {
        fault = true;
        break;
      }
      if (cb.upper <= 0.0) {
        // The subtree contributes nothing to any pixel of this tile.
        ++out.pruned;
        continue;
      }
      total.lower += cb.lower;
      total.upper += cb.upper;
      heap.push_back({cb.upper - cb.lower, child, cb.lower, cb.upper});
      std::push_heap(heap.begin(), heap.end(), GapLess());
    }
    if (fault || !IntervalAcceptable(total.lower, total.upper)) {
      return out;  // valid == false: pixels fall back to root seeding
    }
  }
  total = FreshSum(heap, deferred);
  if (Settles(eps_mode, param, total)) {
    MarkDecided(eps_mode, param, total, &out);
    return out;
  }

  // Phase 2: fold tight intervals into the per-tile baseline. Budget for
  // εKDV is α·ε·L* against the final lower total (see header proof); τKDV
  // only absorbs exactly-tight (zero gap) intervals so per-pixel streams
  // can still reach the exact remainder.
  out.region_lower = total.lower;
  out.region_upper = total.upper;
  deferred.insert(deferred.end(), heap.begin(), heap.end());
  std::sort(deferred.begin(), deferred.end(), GapThenNode());
  const double budget =
      eps_mode ? options_.accept_fraction * param * total.lower : 0.0;
  double accepted_gap = 0.0;
  for (const RegionEntry& e : deferred) {
    if (e.gap <= 0.0 || accepted_gap + e.gap <= budget) {
      out.base_lower += e.lower;
      out.base_upper += e.upper;
      accepted_gap += std::max(e.gap, 0.0);
      ++out.accepted;
    } else {
      out.nodes.push_back({e.node, e.lower, e.upper});
    }
  }
  if (out.nodes.empty()) {
    // Everything was accepted: the baseline alone answers every pixel.
    MarkDecided(eps_mode, param, {out.base_lower, out.base_upper}, &out);
    return out;
  }
  // Descending region gap (ties: node id) — the stream's lazy-injection
  // order; see tile_frontier.h.
  std::sort(out.nodes.begin(), out.nodes.end(),
            [](const TileFrontier::Node& a, const TileFrontier::Node& b) {
              const double ga = a.upper - a.lower;
              const double gb = b.upper - b.lower;
              if (ga != gb) return ga > gb;
              return a.node < b.node;
            });
  out.suffix.resize(out.nodes.size() + 1);
  for (size_t k = out.nodes.size(); k-- > 0;) {
    out.suffix[k].lower = out.nodes[k].lower + out.suffix[k + 1].lower;
    out.suffix[k].upper = out.nodes[k].upper + out.suffix[k + 1].upper;
  }
  out.valid = true;
  return out;
}

}  // namespace kdv
