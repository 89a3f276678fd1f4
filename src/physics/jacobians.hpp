#pragma once

// Jacobians of the unified elastic/acoustic system (paper Eq. 8) and the
// rotational-invariance transform T(n) (paper Eq. 15).
//
// The static kernel operands are built in two halves: a per-material half
// (the Jacobians, the Godunov state operators of physics/riemann.hpp) and
// a per-element / per-face half that only combines it with geometry.  The
// per-face half works on fixed-size Mat9 operands so the asset build's
// face loop allocates nothing.

#include <array>

#include "common/matrix.hpp"
#include "physics/material.hpp"

namespace tsg {

/// Fixed-size 9x9 row-major operator on the quantity space.
using Mat9 = std::array<real, kNumQuantities * kNumQuantities>;

/// Copy of a 9x9 Matrix into a Mat9, and back.
Mat9 toMat9(const Matrix& m);
Matrix toMatrix(const Mat9& m);

/// Space-direction Jacobian A_d (d = 0,1,2 for x,y,z) of
/// dq/dt + A dq/dx + B dq/dy + C dq/dz = 0.
Matrix jacobianMatrix(const Material& mat, int direction);

/// The three Jacobians A_x, A_y, A_z of one material: the per-material
/// half of the star matrices.
struct MaterialJacobians {
  Mat9 a[3];
};
MaterialJacobians materialJacobians(const Material& mat);

/// Star matrix for the reference-coordinate direction c:
/// A*_c = sum_d A_d * dxi_c/dx_d, where `gradXi` holds dxi_c/dx_d.
Matrix starMatrix(const Material& mat, const Vec3& gradXi);
/// The per-element half of starMatrix: the same sum over precomputed
/// Jacobians (terms with dxi_c/dx_d == 0 skipped, d ascending).
void starMatrix(const MaterialJacobians& jac, const Vec3& gradXi, Mat9& out);

/// Orthonormal face basis (n, s, t) for a unit normal n.
void faceBasis(const Vec3& n, Vec3& s, Vec3& t);

/// 9x9 transform T with q_global = T q_face for the face basis (n, s, t):
/// block-diagonal Bond stress rotation and 3x3 velocity rotation.
Matrix rotationMatrix(const Vec3& n, const Vec3& s, const Vec3& t);

/// T^{-1} (equals T built from the transposed rotation).
Matrix rotationMatrixInverse(const Vec3& n, const Vec3& s, const Vec3& t);

/// T(n) and T(n)^{-1} of one face normal (basis from faceBasis).
struct FaceRotation {
  Mat9 rot;
  Mat9 rotInv;
};
FaceRotation faceRotation(const Vec3& n);

/// out = l * r, every output summed as +0 + sum over ascending p, like
/// gemmAccImpl, so the result is bitwise equal to Matrix operator*.
/// Exact-zero entries of l are skipped: with finite operands the running
/// sum starts at +0 and never becomes -0, so a skipped +-0 term changes
/// no bit.  `out` must not alias `l` or `r`.  No FLOP accounting
/// (set-up code only).
void mul9(const Mat9& l, const Mat9& r, Mat9& out);

}  // namespace tsg
