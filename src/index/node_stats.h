// Per-node aggregate statistics enabling O(d)/O(d^2) bound evaluation.
//
// Lemma 1 (KARL) needs  S1(q) = sum_i w_i dist(q, p_i)^2  in O(d):
//   S1(q) = W*||q||^2 - 2 q.a_P + b_P
// with W = sum w_i (the node's mass), a_P = sum w_i p_i,
// b_P = sum w_i ||p_i||^2.
//
// Lemma 3 (QUAD) additionally needs  S2(q) = sum_i w_i dist(q, p_i)^4  in
// O(d^2):
//   S2(q) = W*||q||^4 - 4*||q||^2 (q.a_P) - 4 q.v_P + 2*||q||^2 b_P + h_P
//           + 4 q^T C q
// with v_P = sum w_i ||p_i||^2 p_i, h_P = sum w_i ||p_i||^4,
// C = sum w_i p_i p_i^T.
//
// The weights w_i >= 0 default to 1, so W = n and every moment is the plain
// one of the paper (multiplying by 1.0 is exact). Weighted records are what
// the Nadaraya–Watson numerator sum_i y_i K(q, p_i) needs (regress/): every
// bound in bounds/node_bounds.h reads the mass W where the paper has n, so
// the same bound family serves both. All aggregates are accumulated once at
// index-build time.
//
// Record layout. Every bound evaluation reads one node's aggregates, so they
// are stored as one contiguous run of 2 + 4d + d^2 doubles:
//
//   [ b_P | h_P | mbr lo (d) | mbr hi (d) | a_P (d) | v_P (d) | C (d x d) ]
//
// preceded by a 32-bit count and dimensionality and the mass W. For
// d <= kInlineDim (= 2, the KDV case: 14 doubles) the run lives inline in
// the object, so a NodeStats is 128 bytes with no heap allocation; for
// larger d the same layout spills to one heap buffer owned by the object.
// There is one code path for every d: accessors and distance helpers read
// through data(). The MBR spans every point, whatever its weight.
#ifndef QUADKDV_INDEX_NODE_STATS_H_
#define QUADKDV_INDEX_NODE_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "geom/point.h"
#include "geom/rect.h"
#include "util/check.h"

namespace kdv {

// Doubles in the record of a dim-dimensional node (see the layout above).
constexpr size_t NodeRecordSlots(int dim) {
  return static_cast<size_t>(2 + 4 * dim + dim * dim);
}

// Aggregates of a set of points. Copyable/movable value type; a copy owns
// its own record (a spilled buffer is deep-copied, a move steals it and
// leaves the source empty).
class NodeStats {
 public:
  // Largest dimensionality whose record is stored inline.
  static constexpr int kInlineDim = 2;

  NodeStats() = default;
  NodeStats(const NodeStats& other);
  NodeStats(NodeStats&& other) noexcept;
  NodeStats& operator=(const NodeStats& other);
  NodeStats& operator=(NodeStats&& other) noexcept;
  ~NodeStats() {
    if (spilled()) delete[] heap_;
  }

  // Accumulates the aggregates of points[0, count), point i weighted by
  // weights[i] >= 0 (by 1 when `weights` is null). dim taken from the first
  // point; the range must be non-empty.
  static NodeStats Compute(const Point* points, size_t count,
                           const double* weights = nullptr);

  size_t count() const { return count_; }
  // W: the number of points, or the sum of their weights.
  double mass() const { return mass_; }
  int dim() const { return dim_; }
  // The MBR, assembled on demand. Bound evaluation uses the distance
  // helpers below instead, which read the record in place.
  Rect mbr() const;
  const double* mbr_lo() const { return data() + kLo; }
  const double* mbr_hi() const { return data() + kLo + dim_; }
  const double* sum() const { return data() + kLo + 2 * dim_; }  // a_P
  double sum_sq_norm() const { return data()[kSumSqNorm]; }      // b_P
  const double* sum_sq_norm_p() const {                          // v_P
    return data() + kLo + 3 * dim_;
  }
  double sum_quartic_norm() const { return data()[kSumQuartic]; }  // h_P

  // C[i*dim + j] = sum_i p[i]*p[j].
  const double* outer_product_sum() const { return data() + kLo + 4 * dim_; }

  // Squared min / max distance from q (or from any point of `query_rect`)
  // to the MBR; the same arithmetic, in the same order, as Rect's
  // MinSquaredDistance / MaxSquaredDistance on mbr().
  double MinSquaredDistance(const Point& q) const;
  double MaxSquaredDistance(const Point& q) const;
  double MinSquaredDistance(const Rect& query_rect) const;
  double MaxSquaredDistance(const Rect& query_rect) const;

  // S1(q) = sum w_i dist(q, p_i)^2 in O(d).
  double SumSquaredDistances(const Point& q) const;

  // S2(q) = sum w_i dist(q, p_i)^4 in O(d^2).
  double SumQuarticDistances(const Point& q) const;

  // Exact range of S1(q) over all q in `query_rect`, in O(d).
  //
  // S1(q) = sum_d (W*q_d^2 - 2*q_d*a_P[d]) + b_P is separable: per dimension
  // a convex parabola in q_d with vertex at a_P[d]/W, so the minimum over
  // [lo_d, hi_d] is attained at the clamped vertex and the maximum at one of
  // the two endpoints. Used by the region bound profiles (tile refinement).
  void SumSquaredDistancesRange(const Rect& query_rect, double* s1_min,
                                double* s1_max) const;

 private:
  // Offsets into the record (see the layout in the file comment).
  static constexpr int kSumSqNorm = 0;
  static constexpr int kSumQuartic = 1;
  static constexpr int kLo = 2;
  static constexpr size_t kInlineSlots = NodeRecordSlots(kInlineDim);

  bool spilled() const { return dim_ > kInlineDim; }
  const double* data() const { return spilled() ? heap_ : inline_; }
  double* data() { return spilled() ? heap_ : inline_; }

  // Frees a spilled buffer and leaves the object empty (count 0, dim 0).
  void Release();
  // Takes the record of `other`, leaving it empty. Requires *this empty.
  void TakeFrom(NodeStats* other);
  // Copies the record of `other`. Requires *this empty.
  void CopyFrom(const NodeStats& other);

  uint32_t count_ = 0;
  int32_t dim_ = 0;
  double mass_ = 0.0;
  union {
    double inline_[kInlineSlots] = {};  // active while dim_ <= kInlineDim
    double* heap_;                      // active while dim_ > kInlineDim
  };
};

// The per-node helpers below run once per bound evaluation, so they are
// inline. Each keeps the operation order of the expression it documents;
// the bounds built on them are bit-for-bit reproducible.

inline double NodeStats::MinSquaredDistance(const Point& q) const {
  KDV_DCHECK(q.dim() == dim_);
  const double* lo = mbr_lo();
  const double* hi = lo + dim_;
  double s = 0.0;
  for (int i = 0; i < dim_; ++i) {
    double d = 0.0;
    if (q[i] < lo[i]) {
      d = lo[i] - q[i];
    } else if (q[i] > hi[i]) {
      d = q[i] - hi[i];
    }
    s += d * d;
  }
  return s;
}

inline double NodeStats::MaxSquaredDistance(const Point& q) const {
  KDV_DCHECK(q.dim() == dim_);
  const double* lo = mbr_lo();
  const double* hi = lo + dim_;
  double s = 0.0;
  for (int i = 0; i < dim_; ++i) {
    double d = std::max(std::abs(q[i] - lo[i]), std::abs(q[i] - hi[i]));
    s += d * d;
  }
  return s;
}

inline double NodeStats::MinSquaredDistance(const Rect& query_rect) const {
  KDV_DCHECK(query_rect.dim() == dim_);
  const double* lo = mbr_lo();
  const double* hi = lo + dim_;
  double s = 0.0;
  for (int i = 0; i < dim_; ++i) {
    double d = 0.0;
    if (query_rect.hi(i) < lo[i]) {
      d = lo[i] - query_rect.hi(i);
    } else if (query_rect.lo(i) > hi[i]) {
      d = query_rect.lo(i) - hi[i];
    }
    s += d * d;
  }
  return s;
}

inline double NodeStats::MaxSquaredDistance(const Rect& query_rect) const {
  KDV_DCHECK(query_rect.dim() == dim_);
  const double* lo = mbr_lo();
  const double* hi = lo + dim_;
  double s = 0.0;
  for (int i = 0; i < dim_; ++i) {
    double d = std::max(std::abs(query_rect.hi(i) - lo[i]),
                        std::abs(hi[i] - query_rect.lo(i)));
    s += d * d;
  }
  return s;
}

inline double NodeStats::SumSquaredDistances(const Point& q) const {
  KDV_DCHECK(q.dim() == dim_);
  const double* a_p = sum();
  double q_dot_a = 0.0;
  for (int i = 0; i < dim_; ++i) q_dot_a += q[i] * a_p[i];
  double s1 = mass_ * q.SquaredNorm() - 2.0 * q_dot_a + sum_sq_norm();
  // Guard against negative values from floating-point cancellation; the true
  // quantity is a sum of squares.
  return std::max(s1, 0.0);
}

inline double NodeStats::SumQuarticDistances(const Point& q) const {
  KDV_DCHECK(q.dim() == dim_);
  const int d = dim_;
  const double* a_p = sum();
  const double* v_p = sum_sq_norm_p();
  const double* c = outer_product_sum();
  const double q_sq = q.SquaredNorm();
  double q_dot_a = 0.0;
  for (int i = 0; i < d; ++i) q_dot_a += q[i] * a_p[i];
  double q_dot_v = 0.0;
  for (int i = 0; i < d; ++i) q_dot_v += q[i] * v_p[i];

  // q^T C q in O(d^2).
  double qcq = 0.0;
  for (int a = 0; a < d; ++a) {
    double row = 0.0;
    const double* c_row = c + static_cast<size_t>(a) * d;
    for (int b = 0; b < d; ++b) row += c_row[b] * q[b];
    qcq += q[a] * row;
  }

  double s2 = mass_ * q_sq * q_sq -
              4.0 * q_sq * q_dot_a - 4.0 * q_dot_v + 2.0 * q_sq * sum_sq_norm() +
              sum_quartic_norm() + 4.0 * qcq;
  return std::max(s2, 0.0);
}

}  // namespace kdv

#endif  // QUADKDV_INDEX_NODE_STATS_H_
