#pragma once

// SimulationAssets: the immutable, shareable half of a simulation.
//
// Everything that is a pure function of (mesh, material table, structural
// solver parameters) lives here, built once and const-shared by reference
// between any number of per-run Simulation instances:
//
//  * geometry: the mesh, per-element materials, the point-location index;
//  * discretisation: basis reference matrices, the LTS ClusterLayout;
//  * static kernel operands: the star matrices, precomputed per-face
//    Godunov flux matrices and one FaceRecord per face (kind / neighbour /
//    aux index / scale / seafloor recorder index), stored in kernel order
//    (below);
//  * boundary-face topology: gravity-surface faces, dynamic-rupture face
//    pairs (with their aux indices pre-assigned in the canonical order),
//    per-cluster fault-face id lists, seafloor recorder geometry.
//
// Kernel order is the concatenation of clusters.elementsOfCluster.  Every
// batch of the tile pipeline, whatever the batch size, is a contiguous run
// of it, so the batched and fast backends read the operands in place; the
// reference backend reaches them through positionOf.  The operands exist
// once, and no backend keeps a copy.
//
// Star storage.  The three transposed star matrices of an element are
// stored compressed to their 24 structural nonzeros and interleaved over
// groups of kStarGroupLanes = 8 consecutive kernel-order positions of one
// cluster: star[(group*3 + c)*24*8 + k*8 + lane] (kernels/star_operand.hpp).
// Each cluster is padded to whole groups with zero lanes, so the layout
// depends on neither the batch size nor the vector ISA; the lane-minor
// tiles of the local-integration kernels read a batch's groups in place.
// That is 4.5 KiB per group against 15.2 KiB for 8 dense 3 x 81 copies
// (megathrust, 7020 elements: about 4 MB instead of 13.6 MB).  The
// reference backend and the tests expand one element with expandStarT().
//
// Everything per-run -- DOFs, eta, friction state, uplift accumulators,
// receivers, the clock -- stays in Simulation/SolverState.  The ensemble
// driver (src/ensemble/) exploits this split: N sweep members share one
// SimulationAssets, so per-member setup touches only run state.
//
// Determinism contract: the asset builder assigns gravity and rupture aux
// indices in exactly the (element, face) iteration order the pre-split
// Simulation used, and each run *replays* its GravityBoundary / FaultSolver
// construction over the recorded face lists in that same order.  Replayed
// indices therefore coincide with the precomputed FaceRecord::aux, and a
// run built from shared assets is bitwise identical to a standalone one.
//
// Build cost: the static operands are split by what they depend on.  The
// Godunov flux operands (physics/riemann.hpp) depend only on the material
// pair, or the material and boundary type, and the Jacobians only on the
// material: each is built once per key.  Per face only the rotation
// T(n) (A (G T(n)^{-1})) remains, on fixed-size 9x9 operands.  The build
// runs in two passes: a serial discovery pass in canonical (e, f) order
// (face kinds, aux indices, the per-pair operands) and a fill pass over
// the calling thread's OpenMP team (star and flux operands, face scales),
// whose results do not depend on the thread count.  The fill pass walks
// kernel order (the star operand one group per iteration), so it is also
// the first touch of the ~6 KiB per element of operand arrays in the order
// the kernels stream them.  On the megathrust preset (7020 elements, 2
// materials, degree 2) this took the build from ~0.25 s to a few
// hundredths of a second; see ROADMAP.md.

#include <cstdint>
#include <memory>
#include <vector>

#include "geometry/mesh.hpp"
#include "geometry/spatial_index.hpp"
#include "kernels/reference_matrices.hpp"
#include "physics/material.hpp"
#include "solver/solver_config.hpp"
#include "solver/time_clusters.hpp"

namespace tsg {

/// std::allocator whose value-less construct() default-initialises, so a
/// resize() leaves the new reals unwritten and the asset build's threaded
/// fill pass is their first touch.
template <class T>
struct DefaultInitAllocator : std::allocator<T> {
  template <class U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  using std::allocator<T>::allocator;
  // Constructions with arguments fall back to std::construct_at.
  template <class U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
  }
};

/// Storage of the per-element / per-face static operands.
using OperandVector = std::vector<real, DefaultInitAllocator<real>>;

enum class FaceKind : std::uint8_t {
  kRegular,
  kBoundaryFolded,  // free surface / absorbing via a single flux matrix
  kGravity,
  kRuptureMinus,
  kRupturePlus,
};

/// The structural subset of SolverConfig that determines asset content.
/// Per-run fields (friction law, kernel path, batch size, determinism,
/// pinning) are deliberately absent: sweeping them reuses the same assets.
struct AssetConfig {
  int degree = 2;
  real cflFraction = 0.35;
  real gravity = 9.81;
  int ltsRate = 2;
  int maxClusters = 12;

  static AssetConfig fromSolverConfig(const SolverConfig& cfg) {
    return {cfg.degree, cfg.cflFraction, cfg.gravity, cfg.ltsRate,
            cfg.maxClusters};
  }
  bool matches(const SolverConfig& cfg) const {
    return degree == cfg.degree && cflFraction == cfg.cflFraction &&
           gravity == cfg.gravity && ltsRate == cfg.ltsRate &&
           maxClusters == cfg.maxClusters;
  }
};

/// One gravity-surface boundary face, recorded in aux-index order.
struct GravityFaceRef {
  int elem = -1, face = -1;
};

/// One dynamic-rupture face pair (minus side), recorded in aux-index
/// order; each run replays FaultSolver::addFace over this list.
struct RuptureFaceRef {
  int elem = -1, face = -1;          // minus side
  int neighbor = -1, neighborFace = -1;  // plus side
};

/// Static geometry of one seafloor uplift recorder face (the elastic side
/// of an elastic-acoustic interface); the per-run uplift accumulator
/// lives in SolverState::seafloorFaces.
struct SeafloorFaceGeometry {
  int elem = -1, face = -1;
  std::vector<real> qpX, qpY;  // [nq] physical quadrature points
};

/// Static metadata of one face, stored in kernel order beside its flux
/// operands.
struct FaceRecord {
  FaceKind kind = FaceKind::kRegular;
  std::uint8_t neighborFace = 0, permutation = 0;
  // Neighbor cluster relation: 0 same cluster, 1 coarser, 2 finer.
  std::uint8_t relation = 0;
  int neighbor = -1;   // mesh element id
  int aux = -1;        // gravity/rupture face index (pre-assigned)
  int seafloor = -1;   // seafloorGeometry index or -1
  real scale = 0;      // 2 A_f / |J|
};

/// FNV-1a key over mesh content + material table + structural config;
/// equal keys mean the same SimulationAssets content (the ensemble asset
/// cache and the checkpoint header both use it).
std::uint64_t computeAssetHash(const Mesh& mesh,
                               const std::vector<Material>& materialTable,
                               const AssetConfig& cfg);

class SimulationAssets {
 public:
  /// Build all static data.  The mesh and table are copied/moved in; the
  /// reference matrices are the process-wide per-degree singletons.
  SimulationAssets(Mesh mesh, std::vector<Material> materialTable,
                   const AssetConfig& cfg);

  SimulationAssets(const SimulationAssets&) = delete;
  SimulationAssets& operator=(const SimulationAssets&) = delete;

  // ---- immutable content (read-only by construction: every consumer
  // holds a const SimulationAssets) ------------------------------------
  AssetConfig cfg;
  Mesh mesh;
  std::vector<Material> materialTable;
  std::vector<Material> elemMaterial;  // resolved per element
  const ReferenceMatrices& rm;
  ClusterLayout clusters;
  int nbq = 0;                  // nb * 9, reals per modal block
  std::size_t scratchSize = 0;  // per-element kernel scratch [reals]

  // Kernel order (see the top of this file) and its inverse.
  std::vector<int> kernelOrder;  // [position] -> mesh element
  std::vector<int> positionOf;   // [mesh element] -> position

  // Static operands.  Star matrices by star group (see the top of this
  // file), faces and flux matrices by position, [pos*4 + f].
  OperandVector star;  // [group][3][24][8 lanes]
  std::vector<FaceRecord> faces;
  OperandVector fluxMinusT;  // [81] each, transposed, pre-scaled
  OperandVector fluxPlusT;   // [81] each, transposed, pre-scaled

  // Per cluster c (numClusters + 1 entries): its first kernel-order
  // position and its first star group.
  std::vector<int> clusterBegin;
  std::vector<int> starGroupBegin;

  /// The star groups of a run [pos, pos + width) of one cluster's
  /// positions: `groups` groups from `firstGroup`, the run starting at
  /// lane `firstLane` of the first.
  struct StarSpan {
    int firstGroup = 0, firstLane = 0, groups = 0;
  };
  StarSpan starSpan(int pos, int width) const;

  /// The 3 transposed 9 x 9 star matrices of mesh element `elem`,
  /// starT[c*81 + p*9 + j], expanded from `star`.
  void expandStarT(int elem, real* starT) const;

  // Static per-element flags, indexed by mesh element.
  std::vector<std::uint8_t> hasCoarserNeighbor;
  // Derivative stack read outside the element's own predictor (gravity
  // and rupture faces, the coarser side of an LTS interface).
  std::vector<std::uint8_t> stackNeeded;

  // Boundary-face topology, in aux-index order.
  std::vector<GravityFaceRef> gravityFaces;
  std::vector<RuptureFaceRef> ruptureFaces;
  std::vector<SeafloorFaceGeometry> seafloorGeometry;
  // Fault face ids grouped by the owning (minus-side) element's cluster,
  // ascending within a cluster; the scheduler's rupture wave iterates
  // exactly these lists, and the thread plan splits their lengths
  // (faultFacesOfCluster).  Built from mesh topology, so they exist
  // before setupFault; the scheduler gates the wave on a fault solver.
  std::vector<std::vector<int>> faultFaceIdsOfCluster;
  std::vector<std::int64_t> faultFacesOfCluster;

  std::unique_ptr<SpatialIndex> spatialIndex;

  std::uint64_t assetHash = 0;
};

}  // namespace tsg
