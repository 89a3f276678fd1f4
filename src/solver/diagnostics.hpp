#pragma once

// Energy diagnostics of the coupled wavefield.
//
// Total mechanical energy
//   E = int ( rho |v|^2 / 2  +  strain energy ) dV
// with the isotropic strain energy density
//   e_el = 1/(4 mu) ( sigma:sigma - lambda/(3 lambda + 2 mu) tr(sigma)^2 )
// in elastic media and  e_ac = p^2 / (2 K)  in acoustic media.  Elements
// are affine with constant material and the Dubiner basis is orthonormal,
// so each term is an exact quadratic form in the modal DOFs Q[l][p]:
//   int q^T M q dV = 6 V * sum_l Q[l,:]^T M Q[l,:]   (O(DOF), no quadrature).
//
// In a closed (rigid-wall) domain the continuous coupled problem conserves
// E; the upwind DG scheme may only dissipate it -- a strong stability
// invariant used by the test suite (and a useful production sanity check:
// growing energy = instability).

#include "solver/simulation.hpp"

namespace tsg {

struct EnergyBudget {
  real kinetic = 0;
  real strainElastic = 0;
  real strainAcoustic = 0;

  real total() const { return kinetic + strainElastic + strainAcoustic; }
};

/// Exact energy integrals of the current state (serial, ascending elements).
EnergyBudget computeEnergy(const Simulation& sim);

}  // namespace tsg
