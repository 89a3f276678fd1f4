#include "solver/diagnostics.hpp"

namespace tsg {

EnergyBudget computeEnergy(const Simulation& sim) {
  const Mesh& mesh = sim.mesh();
  const int nb = basisSize(sim.config().degree);
  const real* q = sim.dofsData().data();
  EnergyBudget e;
  for (int elem = 0; elem < mesh.numElements(); ++elem) {
    real vv = 0, ss = 0, trtr = 0;
    for (int l = 0; l < nb; ++l, q += kNumQuantities) {
      vv += q[kVx] * q[kVx] + q[kVy] * q[kVy] + q[kVz] * q[kVz];
      const real tr = q[kSxx] + q[kSyy] + q[kSzz];
      trtr += tr * tr;
      ss += q[kSxx] * q[kSxx] + q[kSyy] * q[kSyy] + q[kSzz] * q[kSzz] +
            2.0 * (q[kSxy] * q[kSxy] + q[kSyz] * q[kSyz] +
                   q[kSxz] * q[kSxz]);
    }
    const Material& m = sim.materialOf(elem);
    const real jac = 6.0 * mesh.volume(elem);
    e.kinetic += jac * 0.5 * m.rho * vv;
    if (m.isAcoustic()) {  // p = -tr(sigma) / 3, density p^2 / (2K)
      e.strainAcoustic += jac * trtr / (18.0 * m.lambda);
    } else {
      e.strainElastic += jac / (4.0 * m.mu) *
                         (ss - m.lambda / (3.0 * m.lambda + 2.0 * m.mu) * trtr);
    }
  }
  return e;
}

}  // namespace tsg
