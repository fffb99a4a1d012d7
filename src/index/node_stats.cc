#include "index/node_stats.h"

#include <algorithm>
#include <limits>

#include "util/check.h"

namespace kdv {

NodeStats::NodeStats(const NodeStats& other) { CopyFrom(other); }

NodeStats::NodeStats(NodeStats&& other) noexcept { TakeFrom(&other); }

NodeStats& NodeStats::operator=(const NodeStats& other) {
  if (this != &other) {
    Release();
    CopyFrom(other);
  }
  return *this;
}

NodeStats& NodeStats::operator=(NodeStats&& other) noexcept {
  if (this != &other) {
    Release();
    TakeFrom(&other);
  }
  return *this;
}

void NodeStats::Release() {
  if (spilled()) delete[] heap_;
  count_ = 0;
  dim_ = 0;
  mass_ = 0.0;
  std::fill_n(inline_, kInlineSlots, 0.0);
}

void NodeStats::TakeFrom(NodeStats* other) {
  count_ = other->count_;
  dim_ = other->dim_;
  mass_ = other->mass_;
  if (other->spilled()) {
    heap_ = other->heap_;
  } else {
    std::copy_n(other->inline_, kInlineSlots, inline_);
  }
  // The source no longer owns (or points at) the record.
  other->count_ = 0;
  other->dim_ = 0;
  other->mass_ = 0.0;
  std::fill_n(other->inline_, kInlineSlots, 0.0);
}

void NodeStats::CopyFrom(const NodeStats& other) {
  if (other.spilled()) {
    heap_ = new double[NodeRecordSlots(other.dim_)];
    std::copy_n(other.heap_, NodeRecordSlots(other.dim_), heap_);
  } else {
    std::copy_n(other.inline_, kInlineSlots, inline_);
  }
  count_ = other.count_;
  dim_ = other.dim_;
  mass_ = other.mass_;
}

NodeStats NodeStats::Compute(const Point* points, size_t count,
                             const double* weights) {
  KDV_CHECK(count > 0);
  KDV_CHECK(count <= std::numeric_limits<uint32_t>::max());
  const int d = points[0].dim();

  NodeStats s;
  s.count_ = static_cast<uint32_t>(count);
  s.dim_ = d;
  if (s.spilled()) s.heap_ = new double[NodeRecordSlots(d)]();
  double* rec = s.data();
  double* lo = rec + kLo;
  double* hi = lo + d;
  double* sum = hi + d;
  double* sum_sq_norm_p = sum + d;
  double* outer = sum_sq_norm_p + d;
  for (int a = 0; a < d; ++a) {
    lo[a] = std::numeric_limits<double>::infinity();
    hi[a] = -std::numeric_limits<double>::infinity();
  }

  for (size_t i = 0; i < count; ++i) {
    const Point& p = points[i];
    KDV_DCHECK(p.dim() == d);
    // Unit weights leave every product below bit-identical to the
    // unweighted moment: w * x == x exactly when w == 1.0.
    const double w = weights != nullptr ? weights[i] : 1.0;
    KDV_DCHECK(w >= 0.0);
    for (int a = 0; a < d; ++a) {
      lo[a] = std::min(lo[a], p[a]);
      hi[a] = std::max(hi[a], p[a]);
    }
    double sq = p.SquaredNorm();
    s.mass_ += w;
    rec[kSumSqNorm] += w * sq;
    rec[kSumQuartic] += w * sq * sq;
    for (int a = 0; a < d; ++a) {
      sum[a] += w * p[a];
      sum_sq_norm_p[a] += w * sq * p[a];
      for (int b = 0; b < d; ++b) {
        outer[static_cast<size_t>(a) * d + b] += w * p[a] * p[b];
      }
    }
  }
  return s;
}

Rect NodeStats::mbr() const {
  Rect r(dim_);
  const double* lo = mbr_lo();
  const double* hi = mbr_hi();
  for (int i = 0; i < dim_; ++i) {
    r.set_lo(i, lo[i]);
    r.set_hi(i, hi[i]);
  }
  return r;
}

void NodeStats::SumSquaredDistancesRange(const Rect& query_rect,
                                         double* s1_min,
                                         double* s1_max) const {
  KDV_DCHECK(query_rect.dim() == dim_);
  const double n = mass_;
  const double* a_p = sum();
  double lo_total = sum_sq_norm();
  double hi_total = lo_total;
  for (int d = 0; d < dim_; ++d) {
    const double a = a_p[d];
    const double lo = query_rect.lo(d);
    const double hi = query_rect.hi(d);
    // f(t) = W*t^2 - 2*a*t, convex with vertex at a/W.
    const double vertex = std::clamp(a / n, lo, hi);
    lo_total += n * vertex * vertex - 2.0 * a * vertex;
    const double f_lo = n * lo * lo - 2.0 * a * lo;
    const double f_hi = n * hi * hi - 2.0 * a * hi;
    hi_total += std::max(f_lo, f_hi);
  }
  // Same cancellation guard as SumSquaredDistances: the true quantity is a
  // sum of squares, so negatives are floating-point artifacts.
  *s1_min = std::max(lo_total, 0.0);
  *s1_max = std::max(hi_total, *s1_min);
}

}  // namespace kdv
