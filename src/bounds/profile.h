// Profile-level bound coefficients (the paper's §3.3, §4, §5, §9.6 formulas).
//
// A bound on the kernel profile f(x) over an interval [x_min, x_max] is a
// linear function m*x + k (KARL) or quadratic a*x^2 + b*x + c (QUAD) that
// stays on one side of f on the whole interval. These pure functions return
// the coefficients; aggregation over a node happens in node_bounds.
//
// Derivation notes on the Gaussian tight upper coefficient: Theorem 1's
// condition is slope(Q_U) <= slope(exp(-x)) at x_max, i.e.
// 2*a_u*x_max + b_u <= -exp(-x_max); substituting the chord-interpolation
// b_u gives
//     a_u* = (exp(-x_min) - (x_max - x_min + 1) * exp(-x_max))
//            / (x_max - x_min)^2,
// which is >= 0 for all 0 <= x_min <= x_max (equality iff x_min == x_max).
#ifndef QUADKDV_BOUNDS_PROFILE_H_
#define QUADKDV_BOUNDS_PROFILE_H_

namespace kdv {

// Linear profile bound m*x + k.
struct LinearCoeffs {
  double m = 0.0;
  double k = 0.0;
  double Eval(double x) const { return m * x + k; }
};

// Quadratic profile bound a*x^2 + b*x + c.
struct QuadraticCoeffs {
  double a = 0.0;
  double b = 0.0;
  double c = 0.0;
  double Eval(double x) const { return (a * x + b) * x + c; }
};

// ---------------------------------------------------------------------------
// exp(-x) with x = gamma*dist^2 (Gaussian kernel). KARL linear bounds.
// ---------------------------------------------------------------------------

// Chord through (x_min, e^-x_min) and (x_max, e^-x_max); upper-bounds exp(-x)
// on [x_min, x_max] by convexity. Requires x_max > x_min.
LinearCoeffs ExpChordUpper(double x_min, double x_max);
// The same, given e_min = ClampedExpNeg(x_min), e_max = ClampedExpNeg(x_max).
LinearCoeffs ExpChordUpper(double x_min, double x_max, double e_min,
                           double e_max);

// Tangent to exp(-x) at t; lower-bounds exp(-x) everywhere by convexity.
LinearCoeffs ExpTangentLower(double t);
// The same, given e_t = ClampedExpNeg(t).
LinearCoeffs ExpTangentLower(double t, double e_t);

// ---------------------------------------------------------------------------
// exp(-x) quadratic bounds (QUAD, §4).
// ---------------------------------------------------------------------------

// Theorem 1: the tightest correct quadratic upper bound of exp(-x) on
// [x_min, x_max] that interpolates both endpoints. Requires x_max > x_min.
QuadraticCoeffs ExpQuadUpper(double x_min, double x_max);
// The same, given e_min = ClampedExpNeg(x_min), e_max = ClampedExpNeg(x_max).
QuadraticCoeffs ExpQuadUpper(double x_min, double x_max, double e_min,
                             double e_max);

// §4.3: quadratic lower bound tangent to exp(-x) at t and passing through
// (x_max, e^-x_max). Requires t < x_max. Tighter than ExpTangentLower.
QuadraticCoeffs ExpQuadLower(double t, double x_max);
// The same, given e_t = ClampedExpNeg(t), e_max = ClampedExpNeg(x_max).
QuadraticCoeffs ExpQuadLower(double t, double x_max, double e_t,
                             double e_max);

// The paper's tangent-point choice (Eq. 3): the mean profile argument
// t* = gamma * S1 / n, clamped into [x_min, x_max].
double GaussianTangentPoint(double gamma, double sum_sq_dist, double count,
                            double x_min, double x_max);

// ---------------------------------------------------------------------------
// Distance-argument kernels, bounds of form a*x^2 + c (QUAD, §5 and §9.6),
// with x = gamma*dist so that x^2 aggregates via S1 in O(d).
// ---------------------------------------------------------------------------

// Triangular max(1-x, 0): concave-through-endpoints upper bound (§5.2.1).
// Requires x_max > x_min.
QuadraticCoeffs TriangularQuadUpper(double x_min, double x_max);

// Triangular lower bound (Theorem 2): parameterized by the mean squared
// argument m2 = (gamma^2 * S1) / n > 0; the optimal a_l* = -1/(2*sqrt(m2)).
QuadraticCoeffs TriangularQuadLower(double mean_sq_x);

// Cosine cos(x) on [0, pi/2]: upper through both endpoints (Lemma 9);
// requires 0 <= x_min < x_max <= pi/2.
QuadraticCoeffs CosineQuadUpper(double x_min, double x_max);

// Cosine lower: slope-matching at x_max (Lemma 10); requires
// 0 < x_max <= pi/2. Also valid for x > pi/2 where cos is clamped to 0,
// because the bound is <= 0 there.
QuadraticCoeffs CosineQuadLower(double x_max);

// Exponential exp(-x), x = gamma*dist: upper through both endpoints
// (Lemma 11); requires x_max > x_min.
QuadraticCoeffs ExponentialQuadUpper(double x_min, double x_max);

// Exponential lower: tangent-point form (Lemma 12); requires t > 0.
QuadraticCoeffs ExponentialQuadLower(double t);

// Eq. 18 tangent point for the exponential kernel:
// t* = sqrt(gamma^2 * S1 / n), clamped into [x_min, x_max].
double ExponentialTangentPoint(double gamma, double sum_sq_dist, double count,
                               double x_min, double x_max);

}  // namespace kdv

#endif  // QUADKDV_BOUNDS_PROFILE_H_
