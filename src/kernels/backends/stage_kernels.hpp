#pragma once

// The table of tile-level stage kernels the batched tile pipeline
// (batched_backend.cpp) calls into.  There is one implementation,
// kernels/backends/fast_stage_impl.inc, compiled once per ISA
// (fast_stage_*.cpp) and selected at runtime by isa_dispatch.  The
// `batched` backend runs the dispatched table as is; the `fast` backend
// runs the same table with subnormals flushed (FTZ|DAZ).
//
// The kernels work on the two tile layouts of kernels/batch_layout.hpp:
//  * local integration -- lanePredictor, taylorIntegrate, laneVolume --
//    on lane-minor tiles, tile[(l*9 + q)*lanes + lane], whose lanes are
//    whole star groups (kernels/star_operand.hpp).  `star` points at the
//    tile's first group of SimulationAssets::star; `groups` groups of
//    kStarGroupLanes lanes make up the tile (ld = 9 * 8 * groups), and
//    `live` of those lanes hold elements (the rest hold zeros).  Only the
//    live lanes count towards the FLOP total.
//  * the corrector's flux stages on element-major tiles,
//    tile[l*ld + 9*lane + q], one column block per element.
//
// Every kernel performs, per element, exactly the floating-point
// operations of its per-element counterpart in element_kernels.hpp, in
// the same order, except that the star products skip the structural zeros
// of the star matrices (an exact no-op, see star_operand.hpp): a fused
// n = 9*width GEMM accumulates each output value over the k index in
// ascending order no matter how the n loop is blocked or vectorised.
// Without FTZ the results are bitwise-identical to the reference path
// (the BatchedKernels tests).
//
// Where the reference path negates a product before accumulating it (the
// predictor's star products, the flux solver products), the stage
// subtracts the product instead: for finite values x - a*b equals
// x + a*(-b) bit for bit, so the operands are the asset matrices
// themselves.

#include "common/types.hpp"
#include "kernels/reference_matrices.hpp"

namespace tsg {

/// One lane of the neighbour-flux stage: scratch = 0 - src * fluxPlusT,
/// then dofTile[lane] += fluxNeighbor * scratch.  A null `src` skips the
/// lane.
struct NeighborFluxLane {
  const real* src = nullptr;           // nb x 9 time-integral operand
  const real* fluxPlusT = nullptr;     // 9 x 9
  const real* fluxNeighbor = nullptr;  // nb x nb
};

struct StageKernels {
  const char* isa;  // "scalar" | "sse2" | "avx2" | "avx512"

  /// ADER predictor on a lane-minor tile: stackTiles holds degree+1
  /// consecutive tiles of nb*ld reals each; level 0 must contain the
  /// gathered DOFs.  Fills levels 1..degree.  `scratchTile` is one tile.
  /// Each level subtracts the star products:
  /// next -= (dXi[c] * cur) * starT[c].
  void (*lanePredictor)(const ReferenceMatrices& rm, const real* star,
                        real* stackTiles, real* scratchTile, int groups,
                        int live);
  /// outTile = int_a^b Taylor(stackTiles) dt over rows of 9*width columns
  /// (leading dimension ld); counts the FLOPs of `live` lanes.
  void (*taylorIntegrate)(const ReferenceMatrices& rm, const real* stackTiles,
                          real a, real b, real* outTile, int width, int ld,
                          int live);
  /// Volume term on a lane-minor tile:
  /// dofTile += sum_c kXi[c] * (tIntTile * starT[c]).
  void (*laneVolume)(const ReferenceMatrices& rm, const real* star,
                     const real* tIntTile, real* dofTile, real* scratchTile,
                     int groups, int live);
  /// faceScratch[lane] = 0 - tIntTile[lane] * fluxT[lane] for every lane
  /// with a non-null matrix pointer; null lanes (gravity, rupture,
  /// unfolded boundaries) are skipped and their columns left unwritten.
  void (*localFluxStage)(int nb, int width, int ld, const real* tIntTile,
                         const real* const* fluxT, real* faceScratch);
  /// Every lane of `lanes` (see NeighborFluxLane); `scratch` holds nb x 9.
  void (*neighborFluxStage)(int nb, int width, int ld,
                            const NeighborFluxLane* lanes, real* scratch,
                            real* dofTile);
  /// dofs -= scale * testTW * fluxQP with output leading dimension ldc
  /// (gravity/rupture fluxes into a DOF tile lane; the strided form of
  /// surfaceKernelPointwise).
  void (*pointwiseStrided)(const ReferenceMatrices& rm, const Matrix& testTW,
                           real scale, const real* fluxQP, real* dofs,
                           int ldc);
  /// C(MxN) += A(MxK) B(KxN) with explicit leading dimensions and FLOP
  /// accounting; bitwise-equal to detail::gemmAccImpl.
  void (*gemmAccStrided)(int m, int n, int k, const real* a, int lda,
                         const real* b, int ldb, real* c, int ldc);
};

/// Per-ISA compiled tables (one translation unit per ISA; see
/// src/CMakeLists.txt for the per-TU -march flags).  All four tables are
/// always linked in; whether the host can EXECUTE one is decided by
/// isa_dispatch.  A table compiled without its ISA flags (non-x86 build
/// or missing compiler support) aliases the scalar table and reports
/// isa "scalar".
const StageKernels& fastStageKernelsScalar();
const StageKernels& fastStageKernelsSse2();
const StageKernels& fastStageKernelsAvx2();
const StageKernels& fastStageKernelsAvx512();

}  // namespace tsg
