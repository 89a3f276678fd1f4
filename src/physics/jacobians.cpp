#include "physics/jacobians.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace tsg {

namespace {

// Voigt index -> (i, j) tensor pair for our quantity ordering
// (sxx, syy, szz, sxy, syz, sxz).
constexpr int kVoigtI[6] = {0, 1, 2, 0, 1, 0};
constexpr int kVoigtJ[6] = {0, 1, 2, 1, 2, 2};

constexpr int kQ = kNumQuantities;

/// 9x9 transform from a 3x3 rotation: the 6x6 Bond stress rotation N
/// with sigma_voigt = N sigma'_voigt for sigma = R sigma' R^T, and R
/// itself on the velocities.
Mat9 rotationFrom3x3(const real r[3][3]) {
  Mat9 t{};
  for (int m = 0; m < 6; ++m) {
    const int i = kVoigtI[m];
    const int j = kVoigtJ[m];
    for (int mp = 0; mp < 6; ++mp) {
      const int k = kVoigtI[mp];
      const int l = kVoigtJ[mp];
      if (k == l) {
        t[m * kQ + mp] = r[i][k] * r[j][k];
      } else {
        t[m * kQ + mp] = r[i][k] * r[j][l] + r[i][l] * r[j][k];
      }
    }
  }
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      t[(6 + i) * kQ + 6 + j] = r[i][j];
    }
  }
  return t;
}

Mat9 rotation(const Vec3& n, const Vec3& s, const Vec3& t) {
  // Columns of R are the face basis vectors: x_global = R x_face.
  const real r[3][3] = {{n[0], s[0], t[0]}, {n[1], s[1], t[1]}, {n[2], s[2], t[2]}};
  return rotationFrom3x3(r);
}

Mat9 rotationInverse(const Vec3& n, const Vec3& s, const Vec3& t) {
  const real r[3][3] = {{n[0], n[1], n[2]}, {s[0], s[1], s[2]}, {t[0], t[1], t[2]}};
  return rotationFrom3x3(r);
}

}  // namespace

Matrix jacobianMatrix(const Material& mat, int direction) {
  Matrix a(kNumQuantities, kNumQuantities);
  const real lam = mat.lambda;
  const real mu = mat.mu;
  const real irho = 1.0 / mat.rho;
  const real lp2m = lam + 2.0 * mu;
  switch (direction) {
    case 0:  // x
      a(kSxx, kVx) = -lp2m;
      a(kSyy, kVx) = -lam;
      a(kSzz, kVx) = -lam;
      a(kSxy, kVy) = -mu;
      a(kSxz, kVz) = -mu;
      a(kVx, kSxx) = -irho;
      a(kVy, kSxy) = -irho;
      a(kVz, kSxz) = -irho;
      break;
    case 1:  // y
      a(kSxx, kVy) = -lam;
      a(kSyy, kVy) = -lp2m;
      a(kSzz, kVy) = -lam;
      a(kSxy, kVx) = -mu;
      a(kSyz, kVz) = -mu;
      a(kVx, kSxy) = -irho;
      a(kVy, kSyy) = -irho;
      a(kVz, kSyz) = -irho;
      break;
    default:  // z
      a(kSxx, kVz) = -lam;
      a(kSyy, kVz) = -lam;
      a(kSzz, kVz) = -lp2m;
      a(kSyz, kVy) = -mu;
      a(kSxz, kVx) = -mu;
      a(kVx, kSxz) = -irho;
      a(kVy, kSyz) = -irho;
      a(kVz, kSzz) = -irho;
      break;
  }
  return a;
}

Mat9 toMat9(const Matrix& m) {
  assert(m.rows() == kQ && m.cols() == kQ);
  Mat9 out;
  std::copy(m.data(), m.data() + out.size(), out.begin());
  return out;
}

Matrix toMatrix(const Mat9& m) {
  Matrix out(kQ, kQ);
  std::copy(m.begin(), m.end(), out.data());
  return out;
}

MaterialJacobians materialJacobians(const Material& mat) {
  MaterialJacobians jac;
  for (int d = 0; d < 3; ++d) {
    jac.a[d] = toMat9(jacobianMatrix(mat, d));
  }
  return jac;
}

Matrix starMatrix(const Material& mat, const Vec3& gradXi) {
  Mat9 star;
  starMatrix(materialJacobians(mat), gradXi, star);
  return toMatrix(star);
}

void starMatrix(const MaterialJacobians& jac, const Vec3& gradXi, Mat9& out) {
  out.fill(0);
  for (int d = 0; d < 3; ++d) {
    if (gradXi[d] == 0) {
      continue;
    }
    for (int i = 0; i < kQ * kQ; ++i) {
      out[i] += gradXi[d] * jac.a[d][i];
    }
  }
}

void faceBasis(const Vec3& n, Vec3& s, Vec3& t) {
  // Pick the global axis least aligned with n to start Gram-Schmidt.
  Vec3 ref = {1, 0, 0};
  if (std::abs(n[1]) < std::abs(n[0]) && std::abs(n[1]) <= std::abs(n[2])) {
    ref = {0, 1, 0};
  } else if (std::abs(n[2]) < std::abs(n[0]) && std::abs(n[2]) < std::abs(n[1])) {
    ref = {0, 0, 1};
  }
  Vec3 sv = cross(n, ref);
  const real len = std::sqrt(norm2(sv));
  s = {sv[0] / len, sv[1] / len, sv[2] / len};
  t = cross(n, s);
}

Matrix rotationMatrix(const Vec3& n, const Vec3& s, const Vec3& t) {
  return toMatrix(rotation(n, s, t));
}

Matrix rotationMatrixInverse(const Vec3& n, const Vec3& s, const Vec3& t) {
  return toMatrix(rotationInverse(n, s, t));
}

FaceRotation faceRotation(const Vec3& n) {
  Vec3 s, t;
  faceBasis(n, s, t);
  return {rotation(n, s, t), rotationInverse(n, s, t)};
}

void mul9(const Mat9& l, const Mat9& r, Mat9& out) {
  out.fill(0);
  for (int i = 0; i < kQ; ++i) {
    real* o = out.data() + i * kQ;
    for (int p = 0; p < kQ; ++p) {
      const real lv = l[i * kQ + p];
      if (lv == 0) {
        continue;
      }
      const real* rp = r.data() + p * kQ;
      for (int j = 0; j < kQ; ++j) {
        o[j] += lv * rp[j];
      }
    }
  }
}

}  // namespace tsg
