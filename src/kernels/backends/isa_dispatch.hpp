#pragma once

// Runtime ISA selection for the tile backends (batched and fast).  The
// stage kernels are compiled once per ISA (see fast_stage_*.cpp and the
// per-TU -march flags in src/CMakeLists.txt); this module picks which
// table to run on the host: the widest supported ISA by default, or
// whatever TSG_FORCE_ISA names (useful for cross-ISA bitwise tests and
// for pinning CI runners).

#include <string>

#include "kernels/backends/stage_kernels.hpp"

namespace tsg {

enum class FastIsa { kScalar, kSse2, kAvx2, kAvx512 };

/// "scalar" | "sse2" | "avx2" | "avx512".
const char* fastIsaName(FastIsa isa);

/// Whether the HOST CPU can execute the given variant.  (A variant whose
/// translation unit fell back to scalar code at build time is always
/// executable; it just is not any faster.)
bool fastIsaSupported(FastIsa isa);

/// Fastest-expected host-supported ISA (AVX2 > SSE2 > scalar; AVX-512
/// is never auto-selected because of license-based downclocking -- force
/// it with TSG_FORCE_ISA=avx512 on hosts where it wins).
FastIsa detectFastIsa();

/// detectFastIsa(), unless TSG_FORCE_ISA is set, in which case the named
/// ISA is used.  Throws std::runtime_error if the forced name is unknown
/// or the host cannot execute it.
FastIsa resolveFastIsa();

/// The stage-kernel table of the given variant.
const StageKernels& fastStageKernels(FastIsa isa);

}  // namespace tsg
