#include "solver/simulation_assets.hpp"

#include <algorithm>
#include <cstring>
#include <exception>
#include <map>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "common/omp_sync.hpp"
#include "geometry/reference_tet.hpp"
#include "kernels/element_kernels.hpp"
#include "kernels/star_operand.hpp"
#include "physics/jacobians.hpp"
#include "physics/riemann.hpp"

namespace tsg {

namespace {

/// Inverse-transpose columns of the affine map: grad xi_c in physical
/// coordinates, i.e. row c of J^{-1}.
std::array<Vec3, 3> gradXi(const Mesh& mesh, int elem) {
  const auto j = mesh.jacobianColumns(elem);
  const real det = dot(j[0], cross(j[1], j[2]));
  const Vec3 r0 = (1.0 / det) * cross(j[1], j[2]);
  const Vec3 r1 = (1.0 / det) * cross(j[2], j[0]);
  const Vec3 r2 = (1.0 / det) * cross(j[0], j[1]);
  return {r0, r1, r2};
}

std::uint64_t fnv1a(std::uint64_t h, const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= b[i];
    h *= 1099511628211ull;
  }
  return h;
}

template <class T>
std::uint64_t fnv1aOf(std::uint64_t h, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  return fnv1a(h, &v, sizeof v);
}

}  // namespace

std::uint64_t computeAssetHash(const Mesh& mesh,
                               const std::vector<Material>& materialTable,
                               const AssetConfig& cfg) {
  std::uint64_t h = 1469598103934665603ull;  // FNV offset basis
  h = fnv1aOf(h, cfg.degree);
  h = fnv1aOf(h, cfg.cflFraction);
  h = fnv1aOf(h, cfg.gravity);
  h = fnv1aOf(h, cfg.ltsRate);
  h = fnv1aOf(h, cfg.maxClusters);
  h = fnv1a(h, mesh.vertices.data(), mesh.vertices.size() * sizeof(Vec3));
  h = fnv1a(h, mesh.elements.data(), mesh.elements.size() * sizeof(Element));
  // FaceInfo has padding after `bc`; hash its fields, never its bytes.
  for (const std::array<FaceInfo, 4>& faces : mesh.faces) {
    for (const FaceInfo& f : faces) {
      h = fnv1aOf(h, f.neighbor);
      h = fnv1aOf(h, f.neighborFace);
      h = fnv1aOf(h, f.permutation);
      h = fnv1aOf(h, f.bc);
    }
  }
  h = fnv1a(h, materialTable.data(), materialTable.size() * sizeof(Material));
  return h;
}

SimulationAssets::SimulationAssets(Mesh meshIn,
                                   std::vector<Material> materialTableIn,
                                   const AssetConfig& cfgIn)
    : cfg(cfgIn),
      mesh(std::move(meshIn)),
      materialTable(std::move(materialTableIn)),
      rm(referenceMatrices(cfgIn.degree)) {
  const int n = mesh.numElements();
  elemMaterial.resize(n);
  for (int e = 0; e < n; ++e) {
    const int id = mesh.elements[e].material;
    if (id < 0 || id >= static_cast<int>(materialTable.size())) {
      throw std::out_of_range("SimulationAssets: material id out of range");
    }
    elemMaterial[e] = materialTable[id];
  }

  clusters = buildClusters(mesh, elemMaterial, cfg.degree, cfg.cflFraction,
                           cfg.ltsRate, cfg.maxClusters);

  nbq = dofCount(rm);
  scratchSize =
      2 * static_cast<std::size_t>(nbq) +
      2 * static_cast<std::size_t>(cfg.degree + 1) * rm.nq * kNumQuantities +
      2 * static_cast<std::size_t>(rm.nq) * kNumQuantities;

  // Kernel order: the concatenation of the clusters' element lists.
  kernelOrder.reserve(n);
  for (const std::vector<int>& elems : clusters.elementsOfCluster) {
    kernelOrder.insert(kernelOrder.end(), elems.begin(), elems.end());
  }
  positionOf.assign(n, -1);
  for (int i = 0; i < n; ++i) {
    positionOf[kernelOrder[i]] = i;
  }
  // Each cluster's positions, and its star groups (padded to whole groups).
  clusterBegin.assign(clusters.numClusters + 1, 0);
  starGroupBegin.assign(clusters.numClusters + 1, 0);
  for (int c = 0; c < clusters.numClusters; ++c) {
    const int size = static_cast<int>(clusters.elementsOfCluster[c].size());
    clusterBegin[c + 1] = clusterBegin[c] + size;
    starGroupBegin[c + 1] =
        starGroupBegin[c] + (size + kStarGroupLanes - 1) / kStarGroupLanes;
  }
  const int numStarGroups = starGroupBegin[clusters.numClusters];
  // Slot of face f of mesh element e in the [pos*4 + f] arrays.
  auto slotOf = [&](int e, int f) {
    return static_cast<std::size_t>(positionOf[e]) * 4 + f;
  };

  // ---- discovery pass (serial, canonical (e, f) order): face records,
  // aux pre-assignment, stack flags, and the flux operands of every
  // material pair and (material, boundary type) key, built on first use --
  const std::size_t nf = static_cast<std::size_t>(n) * 4;
  faces.assign(nf, {});
  stackNeeded.assign(n, 0);
  std::map<std::pair<int, int>, InterfaceFluxOperands> interfaceOperands;
  std::map<std::pair<int, BoundaryType>, FluxOperand> boundaryOperands;
  // Per face slot: the operands its flux matrices rotate (null: zero).
  std::vector<const FluxOperand*> minusOperand(nf, nullptr);
  std::vector<const FluxOperand*> plusOperand(nf, nullptr);
  // The entry of `key` in `cache`, built by `make` on first use.
  auto cached = [](auto& cache, const auto& key, auto make) -> const auto& {
    auto it = cache.find(key);
    if (it == cache.end()) {
      it = cache.emplace(key, make()).first;
    }
    return it->second;
  };

  const bool gravityOn = cfg.gravity > 0;
  for (int e = 0; e < n; ++e) {
    const int mat = mesh.elements[e].material;
    for (int f = 0; f < 4; ++f) {
      const std::size_t idx = slotOf(e, f);
      const FaceInfo& info = mesh.faces[e][f];
      FaceRecord& rec = faces[idx];
      rec.neighbor = info.neighbor;
      rec.neighborFace = static_cast<std::uint8_t>(info.neighborFace);
      rec.permutation = static_cast<std::uint8_t>(info.permutation);

      if (info.neighbor >= 0) {
        const int dc = clusters.cluster[info.neighbor] - clusters.cluster[e];
        rec.relation = dc == 0 ? 0 : (dc > 0 ? 1 : 2);
        if (info.bc == BoundaryType::kDynamicRupture) {
          rec.kind = (e < info.neighbor) ? FaceKind::kRuptureMinus
                                         : FaceKind::kRupturePlus;
          stackNeeded[e] = 1;
          if (e < info.neighbor) {
            // Aux index pre-assigned in discovery order: each run's
            // FaultSolver::addFace replay yields exactly these indices.
            const int fi = static_cast<int>(ruptureFaces.size());
            rec.aux = fi;
            faces[slotOf(info.neighbor, info.neighborFace)].aux = fi;
            ruptureFaces.push_back({e, f, info.neighbor, info.neighborFace});
          }
          continue;
        }
        const int matPlus = mesh.elements[info.neighbor].material;
        const InterfaceFluxOperands& ops =
            cached(interfaceOperands, std::pair{mat, matPlus}, [&] {
              return interfaceFluxOperands(materialTable[mat],
                                           materialTable[matPlus]);
            });
        rec.kind = FaceKind::kRegular;
        minusOperand[idx] = &ops.minus;
        plusOperand[idx] = &ops.plus;
        // A coarser neighbour's stack is Taylor-integrated over this
        // element's sub-interval in its corrector.
        if (rec.relation == 1) {
          stackNeeded[info.neighbor] = 1;
        }
        continue;
      }

      // Boundary faces.
      if (info.bc == BoundaryType::kGravityFreeSurface && gravityOn &&
          elemMaterial[e].isAcoustic()) {
        rec.kind = FaceKind::kGravity;
        stackNeeded[e] = 1;
        // Aux index pre-assigned in discovery order (the per-run
        // GravityBoundary::addFace replay matches it).
        rec.aux = static_cast<int>(gravityFaces.size());
        gravityFaces.push_back({e, f});
        continue;
      }
      const BoundaryType folded =
          (info.bc == BoundaryType::kGravityFreeSurface)
              ? BoundaryType::kFreeSurface
              : info.bc;
      rec.kind = FaceKind::kBoundaryFolded;
      minusOperand[idx] = &cached(boundaryOperands, std::pair{mat, folded}, [&] {
        return boundaryFluxOperand(materialTable[mat], folded);
      });
    }
  }

  // ---- fill pass (the calling thread's OpenMP team, over kernel order;
  // every entry depends only on its own element, so the bits do not
  // depend on the team size): star groups, rotated and scaled flux
  // matrices, face scales, LTS neighbour flags ---------------------------
  constexpr int kQ = kNumQuantities;
  constexpr int stride = kQ * kQ;
  std::vector<MaterialJacobians> jacobiansOfMaterial;
  jacobiansOfMaterial.reserve(materialTable.size());
  for (const Material& m : materialTable) {
    jacobiansOfMaterial.push_back(materialJacobians(m));
  }
  star.resize(static_cast<std::size_t>(numStarGroups) * kStarGroupSize);
  // An exception must not leave an OpenMP region: a group whose packing
  // fails records it here, and the first is rethrown after the region.
  std::vector<std::exception_ptr> starErrors(numStarGroups);
  fluxMinusT.resize(nf * stride);
  fluxPlusT.resize(nf * stride);
  hasCoarserNeighbor.assign(n, 0);

  // dst = scale * (T(n) (op.a (op.g T(n)^{-1})))^T, or zeros without op.
  auto storeFluxT = [](const FluxOperand* op, const FaceRotation& rot,
                       real scale, real* dst) {
    if (!op) {
      std::fill(dst, dst + stride, 0.0);
      return;
    }
    Mat9 flux;
    rotateFluxOperand(*op, rot, flux);
    for (int i = 0; i < kQ; ++i) {
      for (int j = 0; j < kQ; ++j) {
        dst[i * kQ + j] = scale * flux[j * kQ + i];
      }
    }
  };

  tsanRelease();
#pragma omp parallel
  {
    tsanAcquire();
#pragma omp for schedule(static) nowait
    for (int g = 0; g < numStarGroups; ++g) {
      const int c = static_cast<int>(std::upper_bound(starGroupBegin.begin(),
                                                      starGroupBegin.end(),
                                                      g) -
                                     starGroupBegin.begin()) -
                    1;
      const int first =
          clusterBegin[c] + (g - starGroupBegin[c]) * kStarGroupLanes;
      const int live = std::min(kStarGroupLanes, clusterBegin[c + 1] - first);
      real* group = star.data() + static_cast<std::size_t>(g) * kStarGroupSize;
      std::fill(group, group + kStarGroupSize, 0.0);
      try {
        for (int lane = 0; lane < live; ++lane) {
          const int e = kernelOrder[first + lane];
          const auto grad = gradXi(mesh, e);
          const MaterialJacobians& jac =
              jacobiansOfMaterial[mesh.elements[e].material];
          real starT[3 * stride];
          for (int d = 0; d < 3; ++d) {
            Mat9 m;
            starMatrix(jac, grad[d], m);
            for (int i = 0; i < kQ; ++i) {
              for (int j = 0; j < kQ; ++j) {
                starT[d * stride + i * kQ + j] = m[j * kQ + i];  // transposed
              }
            }
          }
          packStarLane(starT, group, lane);
        }
      } catch (...) {
        starErrors[g] = std::current_exception();
      }
    }
#pragma omp for schedule(static)
    for (int pos = 0; pos < n; ++pos) {
      const int e = kernelOrder[pos];
      const real volJ = 6.0 * mesh.volume(e);
      for (int f = 0; f < 4; ++f) {
        const std::size_t idx = static_cast<std::size_t>(pos) * 4 + f;
        const int nb = mesh.faces[e][f].neighbor;
        if (nb >= 0 && clusters.cluster[nb] > clusters.cluster[e]) {
          hasCoarserNeighbor[e] = 1;
        }
        const real scale = 2.0 * mesh.faceArea(e, f) / volJ;
        faces[idx].scale = scale;
        FaceRotation rot{};
        if (minusOperand[idx]) {
          rot = faceRotation(mesh.faceNormal(e, f));
        }
        storeFluxT(minusOperand[idx], rot, scale,
                   fluxMinusT.data() + idx * stride);
        storeFluxT(plusOperand[idx], rot, scale,
                   fluxPlusT.data() + idx * stride);
      }
    }
    tsanRelease();
  }
  tsanAcquire();
  for (const std::exception_ptr& err : starErrors) {
    if (err) {
      std::rethrow_exception(err);
    }
  }

  // Seafloor recorder geometry: elastic side of every elastic-acoustic
  // face, in the same (e, f) discovery order as the uplift accumulators.
  for (int e = 0; e < n; ++e) {
    if (elemMaterial[e].isAcoustic()) {
      continue;
    }
    for (int f = 0; f < 4; ++f) {
      const FaceInfo& info = mesh.faces[e][f];
      if (info.neighbor < 0 || !elemMaterial[info.neighbor].isAcoustic()) {
        continue;
      }
      SeafloorFaceGeometry sf;
      sf.elem = e;
      sf.face = f;
      sf.qpX.resize(rm.nq);
      sf.qpY.resize(rm.nq);
      for (int i = 0; i < rm.nq; ++i) {
        const Vec3 xi = refFacePoint(f, rm.faceQuadS[i], rm.faceQuadT[i]);
        const Vec3 x = mesh.toPhysical(e, xi);
        sf.qpX[i] = x[0];
        sf.qpY[i] = x[1];
      }
      faces[slotOf(e, f)].seafloor =
          static_cast<int>(seafloorGeometry.size());
      seafloorGeometry.push_back(std::move(sf));
    }
  }

  // Per-cluster fault-face id lists (ascending by construction: the
  // rupture faces were discovered in ascending (e, f) order).
  faultFaceIdsOfCluster.assign(clusters.numClusters, {});
  for (int i = 0; i < static_cast<int>(ruptureFaces.size()); ++i) {
    faultFaceIdsOfCluster[clusters.cluster[ruptureFaces[i].elem]].push_back(i);
  }
  faultFacesOfCluster.assign(clusters.numClusters, 0);
  for (int c = 0; c < clusters.numClusters; ++c) {
    faultFacesOfCluster[c] =
        static_cast<std::int64_t>(faultFaceIdsOfCluster[c].size());
  }

  spatialIndex = std::make_unique<SpatialIndex>(mesh);

  assetHash = computeAssetHash(mesh, materialTable, cfg);
}

SimulationAssets::StarSpan SimulationAssets::starSpan(int pos,
                                                     int width) const {
  const int c = clusters.cluster[kernelOrder[pos]];
  const int local = pos - clusterBegin[c];
  StarSpan span;
  span.firstGroup = starGroupBegin[c] + local / kStarGroupLanes;
  span.firstLane = local % kStarGroupLanes;
  span.groups = (span.firstLane + width + kStarGroupLanes - 1) /
                kStarGroupLanes;
  return span;
}

void SimulationAssets::expandStarT(int elem, real* starT) const {
  const StarSpan span = starSpan(positionOf[elem], 1);
  expandStarLane(
      star.data() + static_cast<std::size_t>(span.firstGroup) * kStarGroupSize,
      span.firstLane, starT);
}

}  // namespace tsg
