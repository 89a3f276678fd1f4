#include "gravity/boundary_ode.hpp"

#include <cmath>

#include "basis/quadrature.hpp"

namespace tsg {

namespace {

/// phi_j(z) = sum_{i>=0} z^i / (i+j)!  (entire; series converges rapidly
/// for the tiny |z| = g*dt/c_p of ocean free surfaces).
real phiFunction(int j, real z) {
  real factorial = 1.0;
  for (int i = 2; i <= j; ++i) {
    factorial *= i;
  }
  real term = 1.0 / factorial;  // i = 0
  real sum = term;
  for (int i = 1; i < 60; ++i) {
    term *= z / (i + j);
    sum += term;
    if (std::abs(term) < 1e-20 * std::abs(sum)) {
      break;
    }
  }
  return sum;
}

}  // namespace

std::array<real, 2> exactLinearBoundaryOde(const real* taylorCoeffs, int degree,
                                           real b, real eta0, real dt) {
  auto etaAt = [&](real t) {
    real eta = std::exp(-b * t) * eta0;
    real tk1 = t;  // t^{k+1}
    for (int k = 0; k <= degree; ++k) {
      eta += taylorCoeffs[k] * tk1 * phiFunction(k + 1, -b * t);
      tk1 *= t;
    }
    return eta;
  };
  // H = int_0^dt eta(s) ds via (effectively exact) Gauss quadrature of the
  // smooth closed-form eta.
  const auto gq = gaussLegendre(12, 0.0, dt);
  real h = 0;
  for (std::size_t i = 0; i < gq.points.size(); ++i) {
    h += gq.weights[i] * etaAt(gq.points[i]);
  }
  return {etaAt(dt), h};
}

}  // namespace tsg
