#include "physics/riemann.hpp"

#include <cassert>
#include <stdexcept>
#include <vector>

#include "physics/jacobians.hpp"

namespace tsg {

namespace {

/// Left-going (into the minus side) eigenvectors of the face-normal
/// Jacobian for the given material: P wave and, if elastic, two S waves.
std::vector<std::vector<real>> leftGoingEigenvectors(const Material& m) {
  std::vector<std::vector<real>> r;
  const real lp2m = m.lambda + 2.0 * m.mu;
  r.push_back({lp2m, m.lambda, m.lambda, 0, 0, 0, m.pWaveSpeed(), 0, 0});
  if (!m.isAcoustic()) {
    r.push_back({0, 0, 0, m.mu, 0, 0, 0, m.sWaveSpeed(), 0});
    r.push_back({0, 0, 0, 0, 0, m.mu, 0, 0, m.sWaveSpeed()});
  }
  return r;
}

/// Right-going eigenvectors (velocity signs flipped).
std::vector<std::vector<real>> rightGoingEigenvectors(const Material& m) {
  auto r = leftGoingEigenvectors(m);
  for (auto& v : r) {
    for (int c = 6; c < 9; ++c) {
      v[c] = -v[c];
    }
  }
  return r;
}

}  // namespace

void godunovStateOperators(const Material& matMinus, const Material& matPlus,
                           Matrix& gMinus, Matrix& gPlus) {
  const auto rl = leftGoingEigenvectors(matMinus);
  const auto rr = rightGoingEigenvectors(matPlus);
  const int nl = static_cast<int>(rl.size());
  const int nr = static_cast<int>(rr.size());
  const int k = nl + nr;

  // Interface conditions as rows of:  M u = Bm q^- + Bp q^+,
  // with u = [alpha (minus-side wave strengths); beta (plus side)].
  struct Condition {
    int component;
    enum class Kind { kContinuity, kZeroMinus, kZeroPlus } kind;
  };
  std::vector<Condition> conds;
  using Kind = Condition::Kind;
  const bool minusElastic = !matMinus.isAcoustic();
  const bool plusElastic = !matPlus.isAcoustic();
  // Normal traction and normal velocity are always continuous.
  conds.push_back({kSxx, Kind::kContinuity});
  conds.push_back({kVx, Kind::kContinuity});
  if (minusElastic && plusElastic) {
    // Welded contact: tangential tractions and velocities continuous.
    conds.push_back({kSxy, Kind::kContinuity});
    conds.push_back({kSxz, Kind::kContinuity});
    conds.push_back({kVy, Kind::kContinuity});
    conds.push_back({kVz, Kind::kContinuity});
  } else {
    // Fluid-solid: tangential tractions vanish on the solid-side middle
    // state (weak enforcement of the inviscid slip condition, Eq. 16/17).
    if (minusElastic) {
      conds.push_back({kSxy, Kind::kZeroMinus});
      conds.push_back({kSxz, Kind::kZeroMinus});
    }
    if (plusElastic) {
      conds.push_back({kSxy, Kind::kZeroPlus});
      conds.push_back({kSxz, Kind::kZeroPlus});
    }
  }
  assert(static_cast<int>(conds.size()) == k);

  Matrix m(k, k);
  Matrix bm(k, kNumQuantities);
  Matrix bp(k, kNumQuantities);
  for (int row = 0; row < k; ++row) {
    const int c = conds[row].component;
    switch (conds[row].kind) {
      case Kind::kContinuity:
        // (q^- + RL a)[c] = (q^+ - RR b)[c]
        for (int i = 0; i < nl; ++i) {
          m(row, i) = rl[i][c];
        }
        for (int j = 0; j < nr; ++j) {
          m(row, nl + j) = rr[j][c];
        }
        bm(row, c) = -1;
        bp(row, c) = 1;
        break;
      case Kind::kZeroMinus:
        // (q^- + RL a)[c] = 0
        for (int i = 0; i < nl; ++i) {
          m(row, i) = rl[i][c];
        }
        bm(row, c) = -1;
        break;
      case Kind::kZeroPlus:
        // (q^+ - RR b)[c] = 0
        for (int j = 0; j < nr; ++j) {
          m(row, nl + j) = rr[j][c];
        }
        bp(row, c) = 1;
        break;
    }
  }

  const Matrix xm = solveDense(m, bm);  // u = xm q^- + xp q^+
  const Matrix xp = solveDense(m, bp);

  gMinus = Matrix::identity(kNumQuantities);
  gPlus = Matrix(kNumQuantities, kNumQuantities);
  for (int c = 0; c < kNumQuantities; ++c) {
    for (int i = 0; i < nl; ++i) {
      for (int col = 0; col < kNumQuantities; ++col) {
        gMinus(c, col) += rl[i][c] * xm(i, col);
        gPlus(c, col) += rl[i][c] * xp(i, col);
      }
    }
  }
  if (matMinus.isAcoustic()) {
    // No shear stress exists in a fluid; zero the (flux-irrelevant but
    // Jordan-block-prone) shear rows of the middle state.
    for (int c : {kSxy, kSyz, kSxz}) {
      for (int col = 0; col < kNumQuantities; ++col) {
        gMinus(c, col) = 0;
        gPlus(c, col) = 0;
      }
    }
  }
}

InterfaceFluxOperands interfaceFluxOperands(const Material& matMinus,
                                            const Material& matPlus) {
  Matrix gMinus, gPlus;
  godunovStateOperators(matMinus, matPlus, gMinus, gPlus);
  const Mat9 aFace = toMat9(jacobianMatrix(matMinus, 0));
  return {{aFace, toMat9(gMinus)}, {aFace, toMat9(gPlus)}};
}

void rotateFluxOperand(const FluxOperand& op, const FaceRotation& rot,
                       Mat9& out) {
  Mat9 gr, agr;
  mul9(op.g, rot.rotInv, gr);
  mul9(op.a, gr, agr);
  mul9(rot.rot, agr, out);
}

FluxMatrices interfaceFluxMatrices(const Material& matMinus,
                                   const Material& matPlus, const Vec3& n) {
  const InterfaceFluxOperands ops = interfaceFluxOperands(matMinus, matPlus);
  const FaceRotation rot = faceRotation(n);
  Mat9 f;
  FluxMatrices out;
  rotateFluxOperand(ops.minus, rot, f);
  out.fMinus = toMatrix(f);
  rotateFluxOperand(ops.plus, rot, f);
  out.fPlus = toMatrix(f);
  return out;
}

Matrix freeSurfaceMirror() {
  Matrix mirror = Matrix::identity(kNumQuantities);
  mirror(kSxx, kSxx) = -1;
  mirror(kSxy, kSxy) = -1;
  mirror(kSxz, kSxz) = -1;
  return mirror;
}

Matrix rigidWallMirror() {
  Matrix mirror = Matrix::identity(kNumQuantities);
  mirror(kVx, kVx) = -1;
  mirror(kSxy, kSxy) = -1;
  mirror(kSxz, kSxz) = -1;
  return mirror;
}

FluxOperand boundaryFluxOperand(const Material& mat, BoundaryType bc) {
  Matrix gMinus, gPlus;
  godunovStateOperators(mat, mat, gMinus, gPlus);
  const Mat9 aFace = toMat9(jacobianMatrix(mat, 0));

  switch (bc) {
    case BoundaryType::kFreeSurface:
      // Ghost state mirrors the traction; the Riemann middle state then has
      // exactly zero traction on the boundary.
      return {aFace, toMat9(gMinus + gPlus * freeSurfaceMirror())};
    case BoundaryType::kRigidWall:
      return {aFace, toMat9(gMinus + gPlus * rigidWallMirror())};
    case BoundaryType::kAbsorbing:
      // Ghost state q^+ = 0: only the outgoing characteristics contribute.
      return {aFace, toMat9(gMinus)};
    default:
      throw std::invalid_argument(
          "boundaryFluxMatrix: unsupported boundary type");
  }
}

Matrix boundaryFluxMatrix(const Material& mat, BoundaryType bc, const Vec3& n) {
  Mat9 f;
  rotateFluxOperand(boundaryFluxOperand(mat, bc), faceRotation(n), f);
  return toMatrix(f);
}

}  // namespace tsg
