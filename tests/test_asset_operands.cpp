// Bitwise oracle for the static kernel operands of SimulationAssets.
//
// The asset build computes the face-frame flux operands once per
// material pair (and boundary type) and rotates them per face on
// fixed-size operands.  The oracle below is the Matrix-based formula the
// build used before that split, kept verbatim: per face, the full
// Godunov set-up and rot * (aFace * (g * rotInv)); per element, the star
// matrix summed from freshly built Jacobians.  Every face's fluxMinusT /
// fluxPlusT (stored in kernel order, reached through positionOf) and every
// element's star matrices, expanded from the compressed star groups, must
// equal it byte for byte, the groups' padding lanes must be +0, and the
// threaded fill pass must give the same bytes on any team size.  Packing a
// star matrix with a nonzero outside the structural pattern must throw.

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <utility>
#include <vector>

#include <gtest/gtest.h>
#include <omp.h>

#include "geometry/mesh_builder.hpp"
#include "kernels/star_operand.hpp"
#include "physics/jacobians.hpp"
#include "physics/riemann.hpp"
#include "solver/simulation_assets.hpp"

namespace tsg {
namespace {

namespace oracle {

constexpr int kVoigtI[6] = {0, 1, 2, 0, 1, 0};
constexpr int kVoigtJ[6] = {0, 1, 2, 1, 2, 2};

Matrix bondMatrix(const real r[3][3]) {
  Matrix n(6, 6);
  for (int m = 0; m < 6; ++m) {
    const int i = kVoigtI[m];
    const int j = kVoigtJ[m];
    for (int mp = 0; mp < 6; ++mp) {
      const int k = kVoigtI[mp];
      const int l = kVoigtJ[mp];
      if (k == l) {
        n(m, mp) = r[i][k] * r[j][k];
      } else {
        n(m, mp) = r[i][k] * r[j][l] + r[i][l] * r[j][k];
      }
    }
  }
  return n;
}

Matrix rotationFrom3x3(const real r[3][3]) {
  Matrix t(kNumQuantities, kNumQuantities);
  const Matrix bond = bondMatrix(r);
  for (int i = 0; i < 6; ++i) {
    for (int j = 0; j < 6; ++j) {
      t(i, j) = bond(i, j);
    }
  }
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      t(6 + i, 6 + j) = r[i][j];
    }
  }
  return t;
}

Matrix rotationMatrix(const Vec3& n, const Vec3& s, const Vec3& t) {
  const real r[3][3] = {{n[0], s[0], t[0]}, {n[1], s[1], t[1]}, {n[2], s[2], t[2]}};
  return rotationFrom3x3(r);
}

Matrix rotationMatrixInverse(const Vec3& n, const Vec3& s, const Vec3& t) {
  const real r[3][3] = {{n[0], n[1], n[2]}, {s[0], s[1], s[2]}, {t[0], t[1], t[2]}};
  return rotationFrom3x3(r);
}

Matrix starMatrix(const Material& mat, const Vec3& gradXi) {
  Matrix star(kNumQuantities, kNumQuantities);
  for (int d = 0; d < 3; ++d) {
    if (gradXi[d] == 0) {
      continue;
    }
    const Matrix ad = jacobianMatrix(mat, d);
    for (int i = 0; i < kNumQuantities; ++i) {
      for (int j = 0; j < kNumQuantities; ++j) {
        star(i, j) += gradXi[d] * ad(i, j);
      }
    }
  }
  return star;
}

FluxMatrices interfaceFluxMatrices(const Material& matMinus,
                                   const Material& matPlus, const Vec3& n) {
  Vec3 s, t;
  faceBasis(n, s, t);
  const Matrix rot = rotationMatrix(n, s, t);
  const Matrix rotInv = rotationMatrixInverse(n, s, t);

  Matrix gMinus, gPlus;
  godunovStateOperators(matMinus, matPlus, gMinus, gPlus);
  const Matrix aFace = jacobianMatrix(matMinus, 0);

  FluxMatrices out;
  out.fMinus = rot * (aFace * (gMinus * rotInv));
  out.fPlus = rot * (aFace * (gPlus * rotInv));
  return out;
}

Matrix boundaryFluxMatrix(const Material& mat, BoundaryType bc, const Vec3& n) {
  Vec3 s, t;
  faceBasis(n, s, t);
  const Matrix rot = rotationMatrix(n, s, t);
  const Matrix rotInv = rotationMatrixInverse(n, s, t);

  Matrix gMinus, gPlus;
  godunovStateOperators(mat, mat, gMinus, gPlus);
  const Matrix aFace = jacobianMatrix(mat, 0);

  switch (bc) {
    case BoundaryType::kFreeSurface: {
      const Matrix eff = gMinus + gPlus * freeSurfaceMirror();
      return rot * (aFace * (eff * rotInv));
    }
    case BoundaryType::kRigidWall: {
      const Matrix eff = gMinus + gPlus * rigidWallMirror();
      return rot * (aFace * (eff * rotInv));
    }
    case BoundaryType::kAbsorbing:
      return rot * (aFace * (gMinus * rotInv));
    default:
      throw std::invalid_argument(
          "boundaryFluxMatrix: unsupported boundary type");
  }
}

std::array<Vec3, 3> gradXi(const Mesh& mesh, int elem) {
  const auto j = mesh.jacobianColumns(elem);
  const real det = dot(j[0], cross(j[1], j[2]));
  const Vec3 r0 = (1.0 / det) * cross(j[1], j[2]);
  const Vec3 r1 = (1.0 / det) * cross(j[2], j[0]);
  const Vec3 r2 = (1.0 / det) * cross(j[0], j[1]);
  return {r0, r1, r2};
}

void storeT(const Matrix& m, real scale, real* dst) {
  for (int i = 0; i < kNumQuantities; ++i) {
    for (int j = 0; j < kNumQuantities; ++j) {
      dst[i * kNumQuantities + j] = scale * m(j, i);
    }
  }
}

}  // namespace oracle

constexpr int kStride = kNumQuantities * kNumQuantities;

/// Face kinds seen while checking one asset build.
struct Coverage {
  int regular = 0, materialInterfaces = 0, folded = 0, gravity = 0,
      rupture = 0;
  int boundary[6] = {};  // folded boundary faces per BoundaryType
};

/// A finite value no operand takes: what a skipped write leaves behind.
real sentinelBits() { return -5.25e33; }

/// The star groups of `a` hold exactly the kernel-order positions of each
/// cluster, with +0 in every padding lane.
void expectStarPaddingIsZero(const SimulationAssets& a) {
  const int nc = a.clusters.numClusters;
  ASSERT_EQ(static_cast<int>(a.starGroupBegin.size()), nc + 1);
  ASSERT_EQ(a.star.size(),
            static_cast<std::size_t>(a.starGroupBegin[nc]) * kStarGroupSize);
  for (int c = 0; c < nc; ++c) {
    const int size = a.clusterBegin[c + 1] - a.clusterBegin[c];
    ASSERT_EQ(size, static_cast<int>(a.clusters.elementsOfCluster[c].size()));
    ASSERT_EQ(a.starGroupBegin[c + 1] - a.starGroupBegin[c],
              (size + kStarGroupLanes - 1) / kStarGroupLanes);
    for (int lane = size; lane % kStarGroupLanes != 0; ++lane) {
      const real* group =
          a.star.data() + static_cast<std::size_t>(a.starGroupBegin[c] +
                                                   lane / kStarGroupLanes) *
                              kStarGroupSize;
      for (int i = 0; i < 3 * kStarNonzeros; ++i) {
        const real v = group[i * kStarGroupLanes + lane % kStarGroupLanes];
        EXPECT_TRUE(v == 0 && !std::signbit(v))
            << "cluster " << c << " padding lane " << lane << " slot " << i;
      }
    }
  }
}

/// memcmp every star and flux operand of `a` against the oracle; counts
/// the face kinds it checked into `cov`.
void expectOperandsMatchOracle(const SimulationAssets& a, Coverage& cov) {
  expectStarPaddingIsZero(a);
  const Mesh& mesh = a.mesh;
  const int n = mesh.numElements();
  std::vector<real> star(kStride * 3), fMinus(kStride), fPlus(kStride);
  for (int e = 0; e < n; ++e) {
    const std::size_t pos = static_cast<std::size_t>(a.positionOf[e]);
    const Material& mat = a.elemMaterial[e];
    const auto g = oracle::gradXi(mesh, e);
    for (int c = 0; c < 3; ++c) {
      oracle::storeT(oracle::starMatrix(mat, g[c]), 1.0,
                     star.data() + c * kStride);
    }
    std::vector<real> expanded(kStride * 3, sentinelBits());
    a.expandStarT(e, expanded.data());
    ASSERT_EQ(std::memcmp(star.data(), expanded.data(),
                          sizeof(real) * 3 * kStride),
              0)
        << "star matrices of element " << e;

    const real volJ = 6.0 * mesh.volume(e);
    for (int f = 0; f < 4; ++f) {
      const std::size_t idx = pos * 4 + f;
      const FaceInfo& info = mesh.faces[e][f];
      const Vec3 normal = mesh.faceNormal(e, f);
      const real scale = 2.0 * mesh.faceArea(e, f) / volJ;
      std::fill(fMinus.begin(), fMinus.end(), 0.0);
      std::fill(fPlus.begin(), fPlus.end(), 0.0);
      if (info.neighbor >= 0 && info.bc == BoundaryType::kDynamicRupture) {
        ++cov.rupture;
      } else if (info.neighbor >= 0) {
        const Material& plus = a.elemMaterial[info.neighbor];
        const auto fm = oracle::interfaceFluxMatrices(mat, plus, normal);
        oracle::storeT(fm.fMinus, scale, fMinus.data());
        oracle::storeT(fm.fPlus, scale, fPlus.data());
        ++cov.regular;
        if (mesh.elements[e].material != mesh.elements[info.neighbor].material) {
          ++cov.materialInterfaces;
        }
      } else if (info.bc == BoundaryType::kGravityFreeSurface &&
                 a.cfg.gravity > 0 && mat.isAcoustic()) {
        ++cov.gravity;
      } else {
        const BoundaryType folded =
            (info.bc == BoundaryType::kGravityFreeSurface)
                ? BoundaryType::kFreeSurface
                : info.bc;
        oracle::storeT(oracle::boundaryFluxMatrix(mat, folded, normal), scale,
                       fMinus.data());
        ++cov.folded;
        ++cov.boundary[static_cast<int>(info.bc)];
      }
      ASSERT_EQ(std::memcmp(fMinus.data(), a.fluxMinusT.data() + idx * kStride,
                            sizeof(real) * kStride),
                0)
          << "fluxMinusT of element " << e << " face " << f;
      ASSERT_EQ(std::memcmp(fPlus.data(), a.fluxPlusT.data() + idx * kStride,
                            sizeof(real) * kStride),
                0)
          << "fluxPlusT of element " << e << " face " << f;
    }
  }
}

/// Sets the OpenMP team size for one scope.
struct ThreadCountGuard {
  int saved = omp_get_max_threads();
  explicit ThreadCountGuard(int threads) { omp_set_num_threads(threads); }
  ~ThreadCountGuard() { omp_set_num_threads(saved); }
};

/// Bend the grid layers so faces take many orientations.
real wavyZ(real x, real y, real z) {
  return z + 0.06 * std::sin(3.1 * x + 0.7) * std::cos(2.3 * y) * (1.0 - z * z);
}

TEST(AssetOperands, LayeredFourMaterialMeshMatchesOracleBitwise) {
  BoxMeshSpec spec;
  spec.xLines = uniformLine(-1, 1, 3);
  spec.yLines = uniformLine(-1, 1, 3);
  spec.zLines = uniformLine(-1, 1, 8);
  spec.deformZ = wavyZ;
  // Basement, sediment, deep and shallow water: elastic-elastic,
  // elastic-acoustic and acoustic-acoustic contrasts.
  spec.material = [](const Vec3& c) {
    return c[2] < -0.5 ? 0 : c[2] < 0 ? 1 : c[2] < 0.5 ? 2 : 3;
  };
  spec.boundary = [](const Vec3&, const Vec3& n) {
    return n[2] > 0.5 ? BoundaryType::kGravityFreeSurface
                      : BoundaryType::kAbsorbing;
  };
  const std::vector<Material> table = {
      Material::fromVelocities(2700, 6000, 3464),
      Material::fromVelocities(2000, 2500, 1200),
      Material::acoustic(1030, 1520), Material::acoustic(1000, 1480)};
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    const ThreadCountGuard guard(threads);
    const SimulationAssets a(buildBoxMesh(spec), table, AssetConfig{});
    Coverage cov;
    expectOperandsMatchOracle(a, cov);
    EXPECT_GT(cov.materialInterfaces, 0);
    EXPECT_GT(cov.gravity, 0);
    EXPECT_GT(cov.boundary[static_cast<int>(BoundaryType::kAbsorbing)], 0);
  }
}

TEST(AssetOperands, EveryFaceKindMatchesOracleBitwise) {
  // Elastic crust with a vertical fault under an ocean that covers only
  // x < 0: gravity faces on the water, folded free-surface faces on the
  // land, rigid walls in x, absorbing walls in y, a traction-free floor.
  BoxMeshSpec spec;
  spec.xLines = uniformLine(-1, 1, 4);
  spec.yLines = uniformLine(-1, 1, 3);
  spec.zLines = uniformLine(-1, 1, 4);
  spec.deformZ = wavyZ;
  spec.material = [](const Vec3& c) {
    return c[2] > 0.5 && c[0] < 0 ? 1 : 0;
  };
  spec.boundary = [](const Vec3&, const Vec3& n) {
    if (n[2] > 0.5) {
      return BoundaryType::kGravityFreeSurface;
    }
    if (n[2] < -0.5) {
      return BoundaryType::kFreeSurface;
    }
    return std::abs(n[0]) > 0.5 ? BoundaryType::kRigidWall
                                : BoundaryType::kAbsorbing;
  };
  spec.faultFace = [](const Vec3& c, const Vec3& n) {
    return std::abs(c[0] - 0.5) < 1e-9 && std::abs(n[0]) > 0.99 && c[2] < 0.3;
  };
  const std::vector<Material> table = {
      Material::fromVelocities(2700, 6000, 3464),
      Material::acoustic(1000, 1500)};
  for (const auto& [gravity, threads] :
       {std::pair{9.81, 1}, std::pair{9.81, 4}, std::pair{0.0, 1},
        std::pair{0.0, 4}}) {
    SCOPED_TRACE(testing::Message() << "gravity " << gravity << ", "
                                    << threads << " threads");
    const ThreadCountGuard guard(threads);
    AssetConfig cfg;
    cfg.gravity = gravity;
    const SimulationAssets a(buildBoxMesh(spec), table, cfg);
    Coverage cov;
    expectOperandsMatchOracle(a, cov);
    EXPECT_GT(cov.rupture, 0);
    EXPECT_GT(cov.materialInterfaces, 0);
    EXPECT_EQ(cov.gravity > 0, gravity > 0);
    for (const BoundaryType bc :
         {BoundaryType::kFreeSurface, BoundaryType::kGravityFreeSurface,
          BoundaryType::kAbsorbing, BoundaryType::kRigidWall}) {
      EXPECT_GT(cov.boundary[static_cast<int>(bc)], 0)
          << "no folded face of boundary type " << static_cast<int>(bc);
    }
  }
}

template <class V>
bool sameBytes(const V& a, const V& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), sizeof(a[0]) * a.size()) == 0;
}

TEST(AssetOperands, FillPassIsIndependentOfTheThreadCount) {
  // The fill pass runs on the caller's OpenMP team; a 1-thread and a
  // 4-thread build must produce the same operand bytes.
  BoxMeshSpec spec;
  spec.xLines = uniformLine(-1, 1, 5);
  spec.yLines = uniformLine(-1, 1, 4);
  spec.zLines = uniformLine(-1, 1, 5);
  spec.deformZ = wavyZ;
  spec.material = [](const Vec3& c) { return c[2] > 0.4 ? 1 : 0; };
  spec.boundary = [](const Vec3&, const Vec3& n) {
    return n[2] > 0.5 ? BoundaryType::kGravityFreeSurface
                      : BoundaryType::kAbsorbing;
  };
  const Mesh mesh = buildBoxMesh(spec);
  const std::vector<Material> table = {
      Material::fromVelocities(2700, 6000, 3464),
      Material::acoustic(1000, 1500)};
  const int saved = omp_get_max_threads();
  omp_set_num_threads(1);
  const SimulationAssets one(mesh, table, AssetConfig{});
  omp_set_num_threads(4);
  const SimulationAssets four(mesh, table, AssetConfig{});
  omp_set_num_threads(saved);
  EXPECT_TRUE(sameBytes(one.star, four.star));
  EXPECT_TRUE(sameBytes(one.fluxMinusT, four.fluxMinusT));
  EXPECT_TRUE(sameBytes(one.fluxPlusT, four.fluxPlusT));
  // FaceRecord has no padding, so its bytes are its fields.
  static_assert(sizeof(FaceRecord) == 4 + 3 * sizeof(int) + sizeof(real));
  EXPECT_TRUE(sameBytes(one.faces, four.faces));
  EXPECT_TRUE(sameBytes(one.hasCoarserNeighbor, four.hasCoarserNeighbor));
  EXPECT_EQ(one.assetHash, four.assetHash);
}

// packStarLane stores the 24 pattern slots of each direction and throws,
// writing nothing, on a nonzero anywhere else; a -0 off the pattern is a
// zero and packs.  expandStarLane restores the matrices bit for bit.
TEST(AssetOperands, StarPackingRejectsOffPatternNonzeros) {
  const Material mat = Material::fromVelocities(2700, 6000, 3464);
  const Vec3 grads[3] = {{0.3, -1.7, 0.2}, {-0.9, 0.4, 1.1}, {0.6, 0.8, -0.5}};
  std::vector<real> starT(3 * kStride);
  for (int c = 0; c < 3; ++c) {
    oracle::storeT(oracle::starMatrix(mat, grads[c]), 1.0,
                   starT.data() + c * kStride);
  }
  std::vector<real> group(kStarGroupSize, sentinelBits());
  packStarLane(starT.data(), group.data(), 5);
  std::vector<real> back(3 * kStride, sentinelBits());
  expandStarLane(group.data(), 5, back.data());
  EXPECT_TRUE(sameBytes(starT, back));
  // A full elastic star matrix fills every slot of the pattern.
  for (int i = 0; i < 3 * kStarNonzeros; ++i) {
    EXPECT_NE(group[i * kStarGroupLanes + 5], 0.0) << "slot " << i;
  }

  int offPattern = 0;
  for (int c = 0; c < 3; ++c) {
    for (int i = 0; i < kStride; ++i) {
      if (starT[c * kStride + i] != 0) {
        continue;
      }
      ++offPattern;
      std::vector<real> bad = starT;
      bad[c * kStride + i] = -0.0;
      std::vector<real> packed = group;
      EXPECT_NO_THROW(packStarLane(bad.data(), packed.data(), 2));
      bad[c * kStride + i] = 1e-300;
      packed = group;
      EXPECT_THROW(packStarLane(bad.data(), packed.data(), 2),
                   StarPatternError)
          << "direction " << c << " slot " << i;
      EXPECT_TRUE(sameBytes(group, packed)) << "direction " << c << " slot "
                                            << i;
    }
  }
  EXPECT_EQ(offPattern, 3 * (kStride - kStarNonzeros));
}

}  // namespace
}  // namespace tsg
