#pragma once

// Orthonormal Dubiner (Koornwinder) basis on the reference tetrahedron
// {xi,eta,zeta >= 0, xi+eta+zeta <= 1} and the reference triangle
// {xi,eta >= 0, xi+eta <= 1}.
//
// The basis is orthonormal w.r.t. the plain L2 inner product on the
// simplex, which makes the DG mass matrix the identity and the ADER-DG
// update quadrature-free (paper Sec. 4.1).

#include <array>
#include <vector>

#include "common/types.hpp"

namespace tsg {

struct TetBasisIndex {
  int p, q, r;  // polynomial degrees along the collapsed directions
};

/// Enumeration of all (p, q, r) with p+q+r <= degree; the ordering is
/// stable and sorted by total degree, so the first basisSize(n) entries
/// form the degree-n basis for every n <= degree.
const std::vector<TetBasisIndex>& tetBasisIndices(int degree);

/// Evaluate the orthonormal basis function with linear index `l`.
real dubinerTet(int l, int degree, const Vec3& xi);

/// Gradient w.r.t. (xi, eta, zeta).
Vec3 dubinerTetGradient(int l, int degree, const Vec3& xi);

/// All basis values at a point, in linear-index order.
void dubinerTetAll(int degree, const Vec3& xi, real* values);

/// Point value of one element's modal DOFs q ([nb][9]) from the basis values
/// phi there, summed in ascending l: the order of every point evaluation.
inline std::array<real, kNumQuantities> evaluateModes(const real* phi,
                                                      const real* q, int nb) {
  std::array<real, kNumQuantities> val{};
  for (int l = 0; l < nb; ++l) {
    for (int p = 0; p < kNumQuantities; ++p) {
      val[p] += phi[l] * q[l * kNumQuantities + p];
    }
  }
  return val;
}

struct TriBasisIndex {
  int p, q;
};

const std::vector<TriBasisIndex>& triBasisIndices(int degree);

real dubinerTri(int l, int degree, real xi, real eta);

void dubinerTriAll(int degree, real xi, real eta, real* values);

}  // namespace tsg
