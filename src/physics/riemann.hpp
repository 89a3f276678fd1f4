#pragma once

// Exact (Godunov) interface Riemann solvers for every combination of
// elastic and acoustic media (paper Sec. 4.2, Eqs. 13-20).
//
// The middle state adjacent to the minus side is linear in the two traces,
//   q^{b-} = G^- q^- + G^+ q^+   (face-aligned frame),
// and the numerical flux into the minus element is
//   Ahat^- q^* = F^- q^- + F^+ q^+  (global frame, Eq. 20),
// with F^∓ precomputed per face.  Interface conditions: continuity of
// traction and of all (elastic-elastic) or only the normal (fluid-solid)
// velocity components; tangential tractions vanish on fluid-solid faces.
//
// Each F is built in two halves.  The face-frame operands (the Jacobian
// A_x and the state operator G, or its ghost-folded form on a boundary)
// depend only on the two materials and, on a boundary, its type; the
// normal enters only through the rotation F = T(n) (A (G T(n)^{-1})).
// The asset build computes the first half once per material pair and
// the second per face; the Matrix entry points below compose the same
// two halves, so there is one flux formula.

#include "common/matrix.hpp"
#include "geometry/mesh.hpp"
#include "physics/jacobians.hpp"
#include "physics/material.hpp"

namespace tsg {

struct FluxMatrices {
  Matrix fMinus;  // applied to the minus-side trace
  Matrix fPlus;   // applied to the plus-side trace
};

/// Face-frame middle-state operators: q^{b-} = gMinus q^-_face + gPlus q^+_face.
void godunovStateOperators(const Material& matMinus, const Material& matPlus,
                           Matrix& gMinus, Matrix& gPlus);

/// Normal-independent half of one face flux matrix
/// F = T(n) (a (g T(n)^{-1})).
struct FluxOperand {
  Mat9 a;  // A_x of the minus-side material (face frame)
  Mat9 g;  // face-frame state operator
};

/// Interior face: F^- uses G^-, F^+ uses G^+, both with the minus-side A_x.
struct InterfaceFluxOperands {
  FluxOperand minus;
  FluxOperand plus;
};

/// Per-material-pair half of interfaceFluxMatrices.
InterfaceFluxOperands interfaceFluxOperands(const Material& matMinus,
                                            const Material& matPlus);

/// Per-(material, boundary type) half of boundaryFluxMatrix: the state
/// operator with the ghost state folded in.  Throws for a boundary type
/// that has no flux matrix.
FluxOperand boundaryFluxOperand(const Material& mat, BoundaryType bc);

/// Per-face half: out = T(n) (op.a (op.g T(n)^{-1})), bitwise equal to the
/// same products in Matrix arithmetic.
void rotateFluxOperand(const FluxOperand& op, const FaceRotation& rot,
                       Mat9& out);

/// Global-frame flux matrices for an interior face with unit normal n
/// pointing from the minus to the plus side.
FluxMatrices interfaceFluxMatrices(const Material& matMinus,
                                   const Material& matPlus, const Vec3& n);

/// Global-frame flux matrix for a boundary face (free surface or
/// absorbing); flux = F q^-.  The gravitational free surface is handled
/// separately (time-dependent, see gravity/).
Matrix boundaryFluxMatrix(const Material& mat, BoundaryType bc, const Vec3& n);

/// Face-frame ghost-state mirror for a (traction-free) surface:
/// q^+ = mirror * q^-.
Matrix freeSurfaceMirror();

/// Face-frame ghost-state mirror for a free-slip rigid wall (normal
/// velocity and tangential tractions flip; used as reflecting tank walls).
Matrix rigidWallMirror();

}  // namespace tsg
