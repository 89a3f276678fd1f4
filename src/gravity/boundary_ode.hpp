#pragma once

// High-order time integrator for the gravitational free-surface ODE
// (paper Eqs. 23-26):
//   d eta / dt = v_n^-(t) + p^-(t)/Z - (rho g / Z) eta,
//   d H   / dt = eta,                H(t_n) = 0.
//
// The paper integrates this with Verner's "most efficient" order-7
// Runge-Kutta scheme.  Verner's tableau is not given in the paper; we
// substitute a Gragg-Bulirsch-Stoer extrapolation of the modified midpoint
// rule with 4 levels, which is of order 8 (>= the paper's order 7) --
// verified by a convergence test.  For the special linear-with-polynomial-
// forcing structure of the boundary ODE we additionally provide the exact
// exponential-integrator solution, used to cross-check the extrapolation
// integrator in the test suite.

#include <array>
#include <stdexcept>

#include "common/types.hpp"

namespace tsg {

/// Most extrapolation levels integrateBoundaryOde accepts (its tables
/// live on the stack).
inline constexpr int kMaxOdeLevels = 8;

namespace detail {

/// Gragg's modified midpoint rule with n substeps over [0, dt].
template <class Rhs>
std::array<real, 2> modifiedMidpoint(const Rhs& rhs,
                                     const std::array<real, 2>& y0, real dt,
                                     int n) {
  const real h = dt / n;
  std::array<real, 2> zPrev = y0;
  std::array<real, 2> f = rhs(0.0, y0);
  std::array<real, 2> z = {y0[0] + h * f[0], y0[1] + h * f[1]};
  for (int m = 1; m < n; ++m) {
    f = rhs(m * h, z);
    const std::array<real, 2> zNext = {zPrev[0] + 2 * h * f[0],
                                       zPrev[1] + 2 * h * f[1]};
    zPrev = z;
    z = zNext;
  }
  f = rhs(dt, z);
  return {0.5 * (z[0] + zPrev[0] + h * f[0]),
          0.5 * (z[1] + zPrev[1] + h * f[1])};
}

}  // namespace detail

/// Integrate y' = rhs(t, y) (rhs returns std::array<real, 2>) from t = 0
/// to t = dt in one extrapolation macro-step with `levels` midpoint
/// sequences (order 2*levels).  Throws std::invalid_argument unless
/// 1 <= levels <= kMaxOdeLevels.
template <class Rhs>
std::array<real, 2> integrateBoundaryOde(const Rhs& rhs,
                                         const std::array<real, 2>& y0, real dt,
                                         int levels = 4) {
  if (levels < 1 || levels > kMaxOdeLevels) {
    throw std::invalid_argument("integrateBoundaryOde: levels out of range");
  }
  // Midpoint sequences n_j = 2, 4, 6, ... and Aitken-Neville extrapolation
  // in h^2 towards h = 0 (order 2*levels).
  std::array<std::array<real, 2>, kMaxOdeLevels> table;
  std::array<real, kMaxOdeLevels> h2;
  for (int j = 0; j < levels; ++j) {
    const int n = 2 * (j + 1);
    table[j] = detail::modifiedMidpoint(rhs, y0, dt, n);
    h2[j] = (dt / n) * (dt / n);
    for (int k = j - 1; k >= 0; --k) {
      // Neville at x = 0 over the nodes {h2[k], ..., h2[j]}:
      // P_{k..j}(0) = P_{k+1..j} + (P_{k+1..j} - P_{k..j-1}) h2[j]/(h2[k]-h2[j]).
      const real factor = h2[j] / (h2[k] - h2[j]);
      for (int c = 0; c < 2; ++c) {
        table[k][c] = table[k + 1][c] + factor * (table[k + 1][c] - table[k][c]);
      }
    }
  }
  return table[0];
}

/// Exact solution of eta' = a(t) - b*eta, H' = eta with H(0) = 0, where
/// a(t) = sum_k coeff[k] t^k / k! is the Taylor forcing (degree <= n).
/// Returns {eta(dt), H(dt)}.  Uses a series formulation of the phi
/// functions, stable for the tiny b*dt of ocean surfaces (b = g/c_p).
std::array<real, 2> exactLinearBoundaryOde(const real* taylorCoeffs,
                                           int degree, real b, real eta0,
                                           real dt);

}  // namespace tsg
