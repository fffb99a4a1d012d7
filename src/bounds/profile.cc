#include "bounds/profile.h"

#include <algorithm>
#include <cmath>

#include "kernel/kernel.h"
#include "util/check.h"

namespace kdv {

LinearCoeffs ExpChordUpper(double x_min, double x_max) {
  return ExpChordUpper(x_min, x_max, ClampedExpNeg(x_min),
                       ClampedExpNeg(x_max));
}

LinearCoeffs ExpChordUpper(double x_min, double x_max, double e_min,
                           double e_max) {
  KDV_DCHECK(x_max > x_min);
  LinearCoeffs lin;
  lin.m = (e_max - e_min) / (x_max - x_min);
  lin.k = e_min - lin.m * x_min;
  return lin;
}

LinearCoeffs ExpTangentLower(double t) {
  return ExpTangentLower(t, ClampedExpNeg(t));
}

LinearCoeffs ExpTangentLower(double t, double e_t) {
  KDV_DCHECK(t >= 0.0);
  LinearCoeffs lin;
  lin.m = -e_t;
  lin.k = (1.0 + t) * e_t;
  return lin;
}

QuadraticCoeffs ExpQuadUpper(double x_min, double x_max) {
  return ExpQuadUpper(x_min, x_max, ClampedExpNeg(x_min),
                      ClampedExpNeg(x_max));
}

QuadraticCoeffs ExpQuadUpper(double x_min, double x_max, double e_min,
                             double e_max) {
  KDV_DCHECK(x_max > x_min);
  const double delta = x_max - x_min;

  QuadraticCoeffs q;
  // Theorem 1 (see header note for the sign derivation).
  q.a = (e_min - (delta + 1.0) * e_max) / (delta * delta);
  // Interpolation of both endpoints pins b and c given a.
  q.b = (e_max - e_min) / delta - q.a * (x_min + x_max);
  q.c = (e_min * x_max - e_max * x_min) / delta + q.a * x_min * x_max;
  return q;
}

QuadraticCoeffs ExpQuadLower(double t, double x_max) {
  return ExpQuadLower(t, x_max, ClampedExpNeg(t), ClampedExpNeg(x_max));
}

QuadraticCoeffs ExpQuadLower(double t, double x_max, double e_t,
                             double e_max) {
  KDV_DCHECK(t < x_max);
  KDV_DCHECK(t >= 0.0);
  const double d = x_max - t;

  QuadraticCoeffs q;
  // §4.3: tangent to exp(-x) at t, interpolating (x_max, e^-x_max).
  q.a = (e_max + (x_max - 1.0 - t) * e_t) / (d * d);
  q.b = -e_t - 2.0 * t * q.a;
  q.c = (1.0 + t) * e_t + t * t * q.a;
  return q;
}

double GaussianTangentPoint(double gamma, double sum_sq_dist, double count,
                            double x_min, double x_max) {
  KDV_DCHECK(count > 0.0);
  double t = gamma * sum_sq_dist / count;  // Eq. 3: mean of x_i
  return std::clamp(t, x_min, x_max);
}

QuadraticCoeffs TriangularQuadUpper(double x_min, double x_max) {
  KDV_DCHECK(x_max > x_min);
  KDV_DCHECK(x_min >= 0.0);
  const double k_min = std::max(1.0 - x_min, 0.0);
  const double k_max = std::max(1.0 - x_max, 0.0);
  const double denom = x_max * x_max - x_min * x_min;

  QuadraticCoeffs q;
  q.a = (k_max - k_min) / denom;
  q.b = 0.0;
  q.c = (x_max * x_max * k_min - x_min * x_min * k_max) / denom;
  return q;
}

QuadraticCoeffs TriangularQuadLower(double mean_sq_x) {
  KDV_DCHECK(mean_sq_x > 0.0);
  QuadraticCoeffs q;
  // Theorem 2: a_l* = -sqrt(n / (4 gamma^2 S1)) = -1 / (2 sqrt(m2)), and
  // Eq. 8: c_l = 1 + 1/(4 a_l).
  q.a = -0.5 / std::sqrt(mean_sq_x);
  q.b = 0.0;
  q.c = 1.0 + 1.0 / (4.0 * q.a);
  return q;
}

QuadraticCoeffs CosineQuadUpper(double x_min, double x_max) {
  KDV_DCHECK(x_max > x_min);
  KDV_DCHECK(x_min >= 0.0);
  const double c_min = std::cos(x_min);
  const double c_max = std::cos(x_max);
  const double denom = x_max * x_max - x_min * x_min;

  QuadraticCoeffs q;
  // §9.6.1, Eqs. 10-11.
  q.a = (c_max - c_min) / denom;
  q.b = 0.0;
  q.c = (x_max * x_max * c_min - x_min * x_min * c_max) / denom;
  return q;
}

QuadraticCoeffs CosineQuadLower(double x_max) {
  KDV_DCHECK(x_max > 0.0);
  QuadraticCoeffs q;
  // §9.6.2, Eqs. 12-13: slope match with cos at x_max.
  q.a = -std::sin(x_max) / (2.0 * x_max);
  q.b = 0.0;
  q.c = std::cos(x_max) + x_max * std::sin(x_max) / 2.0;
  return q;
}

QuadraticCoeffs ExponentialQuadUpper(double x_min, double x_max) {
  KDV_DCHECK(x_max > x_min);
  KDV_DCHECK(x_min >= 0.0);
  const double e_min = ClampedExpNeg(x_min);
  const double e_max = ClampedExpNeg(x_max);
  const double denom = x_max * x_max - x_min * x_min;

  QuadraticCoeffs q;
  // §9.6.3, Eqs. 14-15.
  q.a = (e_max - e_min) / denom;
  q.b = 0.0;
  q.c = (x_max * x_max * e_min - x_min * x_min * e_max) / denom;
  return q;
}

QuadraticCoeffs ExponentialQuadLower(double t) {
  KDV_DCHECK(t > 0.0);
  const double e_t = ClampedExpNeg(t);
  QuadraticCoeffs q;
  // §9.6.4, Eqs. 16-17.
  q.a = -e_t / (2.0 * t);
  q.b = 0.0;
  q.c = 0.5 * (t + 2.0) * e_t;
  return q;
}

double ExponentialTangentPoint(double gamma, double sum_sq_dist, double count,
                               double x_min, double x_max) {
  KDV_DCHECK(count > 0.0);
  // Eq. 18: root-mean-square of the x_i.
  double t = std::sqrt(gamma * gamma * sum_sq_dist / count);
  return std::clamp(t, x_min, x_max);
}

}  // namespace kdv
