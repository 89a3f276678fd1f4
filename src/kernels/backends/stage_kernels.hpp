#pragma once

// The table of tile-level stage kernels the batched tile pipeline
// (batched_backend.cpp) calls into, over interleaved cluster-contiguous
// tiles (see kernels/batch_layout.hpp for the layout).  There is one
// implementation, kernels/backends/fast_stage_impl.inc, compiled once per
// ISA (fast_stage_*.cpp) and selected at runtime by isa_dispatch.  The
// `batched` backend runs the dispatched table as is; the `fast` backend
// runs the same table with subnormals flushed (FTZ|DAZ).
//
// Every kernel performs, per element, exactly the floating-point
// operations of its per-element counterpart in element_kernels.hpp, in
// the same order: a fused n = 9*width GEMM accumulates each output value
// over the k index in ascending order no matter how the n loop is
// blocked or vectorised.  Without FTZ the results are bitwise-identical
// to the reference path (the BatchedKernels tests).
//
// Batch-ordered side arrays ("B" suffix): starTB holds, lane-major, the
// 3 transposed star matrices of each lane (lane*3*81 + c*81).

#include "common/types.hpp"
#include "kernels/reference_matrices.hpp"

namespace tsg {

/// One lane of the neighbour-flux stage: scratch = src * negFluxPlusT,
/// then dofTile[lane] += fluxNeighbor * scratch.  A null `src` skips the
/// lane.
struct NeighborFluxLane {
  const real* src = nullptr;           // nb x 9 time-integral operand
  const real* negFluxPlusT = nullptr;  // 9 x 9, pre-negated
  const real* fluxNeighbor = nullptr;  // nb x nb
};

struct StageKernels {
  const char* isa;  // "scalar" | "sse2" | "avx2" | "avx512"

  /// ADER predictor: stackTiles holds degree+1 consecutive tiles of nb*ld
  /// reals each; level 0 must contain the gathered DOFs.  Fills levels
  /// 1..degree.  `scratchTile` is one tile of nb*ld reals.  `negStarTB`
  /// holds the NEGATED transposed star matrices (the reference path's
  /// negate-then-multiply, with the sign folded into the operand).
  void (*aderPredictor)(const ReferenceMatrices& rm, const real* negStarTB,
                        real* stackTiles, real* scratchTile, int width,
                        int ld);
  /// outTile = int_a^b Taylor(stackTiles) dt.
  void (*taylorIntegrate)(const ReferenceMatrices& rm, const real* stackTiles,
                          real a, real b, real* outTile, int width, int ld);
  /// dofTile += sum_c kXi[c] * tIntTile * starT[c] (one nb x nb GEMM per
  /// direction for the whole batch).
  void (*volumeKernel)(const ReferenceMatrices& rm, const real* starTB,
                       const real* tIntTile, real* dofTile, real* scratchTile,
                       int width, int ld);
  /// faceScratch[lane] += tIntTile[lane] * negFluxT[lane] for every lane
  /// with a non-null matrix pointer (null lanes -- gravity, rupture,
  /// unfolded boundaries -- are skipped).
  void (*localFluxStage)(int nb, int width, int ld, const real* tIntTile,
                         const real* const* negFluxT, real* faceScratch);
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
