#pragma once

// The fast backend: the batched backend (the same tile pipeline and the
// same dispatched per-ISA stage-kernel table) with subnormals flushed to
// zero (MXCSR FTZ|DAZ) around every tile.  That is its only difference
// from `batched`.
//
// Quiescent regions ahead of the wavefronts produce subnormal operands,
// and this host class executes subnormal arithmetic ~50x slower than
// normal arithmetic via microcode assists; flushing removes that cliff.
// The flushed magnitudes (< ~2e-308) are far inside the 1e-9 relative
// accuracy contract against reference (tests/test_fast_backend.cpp), and
// MXCSR semantics are identical across the SSE / AVX encodings used by
// every ISA variant, so all variants still agree bitwise with each
// other.  The batched backend must NOT flush: it is held
// bitwise-identical to reference.

#include "kernels/backends/batched_backend.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#include <xmmintrin.h>
#define TSG_FAST_HAS_MXCSR 1
#endif

namespace tsg {

/// RAII scope that flushes subnormals (FTZ|DAZ in MXCSR) and restores the
/// caller's rounding environment on exit.  No-op on non-x86 builds.
class FlushSubnormalsScope {
#ifdef TSG_FAST_HAS_MXCSR
 public:
  FlushSubnormalsScope() : saved_(_mm_getcsr()) {
    _mm_setcsr(saved_ | 0x8040u);  // FTZ (bit 15) | DAZ (bit 6)
  }
  ~FlushSubnormalsScope() { _mm_setcsr(saved_); }
  FlushSubnormalsScope(const FlushSubnormalsScope&) = delete;
  FlushSubnormalsScope& operator=(const FlushSubnormalsScope&) = delete;

 private:
  unsigned saved_;
#endif
};

class FastBackend : public BatchedBackend {
 public:
  explicit FastBackend(SolverState& state)
      : BatchedBackend(state, "fast") {}

  void runPredictorTile(int cluster, std::size_t tile,
                        bool resetBuffer) override {
    FlushSubnormalsScope flush;
    BatchedBackend::runPredictorTile(cluster, tile, resetBuffer);
  }

  void runCorrectorTile(int cluster, std::size_t tile,
                        std::int64_t tick) override {
    FlushSubnormalsScope flush;
    BatchedBackend::runCorrectorTile(cluster, tile, tick);
  }
};

}  // namespace tsg
