#include "kernels/backends/isa_dispatch.hpp"

#include <cstdlib>
#include <stdexcept>

namespace tsg {

const char* fastIsaName(FastIsa isa) {
  switch (isa) {
    case FastIsa::kScalar:
      return "scalar";
    case FastIsa::kSse2:
      return "sse2";
    case FastIsa::kAvx2:
      return "avx2";
    case FastIsa::kAvx512:
      return "avx512";
  }
  return "scalar";
}

bool fastIsaSupported(FastIsa isa) {
  switch (isa) {
    case FastIsa::kScalar:
      return true;
    case FastIsa::kSse2:
#ifdef __x86_64__
      return true;  // SSE2 is part of the x86-64 baseline.
#else
      return false;
#endif
    case FastIsa::kAvx2:
#ifdef __x86_64__
      return __builtin_cpu_supports("avx2");
#else
      return false;
#endif
    case FastIsa::kAvx512:
#ifdef __x86_64__
      return __builtin_cpu_supports("avx512f");
#else
      return false;
#endif
  }
  return false;
}

FastIsa detectFastIsa() {
  // The widest executable table.  Measured, not assumed: on a 4-core
  // AVX-512F Xeon (2.1 GHz nominal), alternating min-of-5 runs of the
  // megathrust_4t benchmark config took 0.879 s with the avx2 table and
  // 0.757 s with avx512 (-14%; -10% on a second seed), and the 4-worker
  // rupture sweep benchmark (5 alternating 45 s runs each) took a median
  // 3.02 s with avx2 and 2.59 s with avx512 (-14%, every pair won), so
  // no frequency licence eats the doubled width of the register-blocked
  // kernels there.
  // TSG_FORCE_ISA=avx2 pins the narrower table on a host where it wins.
  for (const FastIsa isa : {FastIsa::kAvx512, FastIsa::kAvx2, FastIsa::kSse2}) {
    if (fastIsaSupported(isa)) {
      return isa;
    }
  }
  return FastIsa::kScalar;
}

FastIsa resolveFastIsa() {
  const char* forced = std::getenv("TSG_FORCE_ISA");
  if (forced == nullptr || *forced == '\0') {
    return detectFastIsa();
  }
  const std::string name(forced);
  FastIsa isa;
  if (name == "scalar") {
    isa = FastIsa::kScalar;
  } else if (name == "sse2") {
    isa = FastIsa::kSse2;
  } else if (name == "avx2") {
    isa = FastIsa::kAvx2;
  } else if (name == "avx512") {
    isa = FastIsa::kAvx512;
  } else {
    throw std::runtime_error("TSG_FORCE_ISA: unknown ISA '" + name +
                             "' (expected scalar | sse2 | avx2 | avx512)");
  }
  if (!fastIsaSupported(isa)) {
    throw std::runtime_error("TSG_FORCE_ISA: this host cannot execute '" +
                             name + "'");
  }
  return isa;
}

const StageKernels& fastStageKernels(FastIsa isa) {
  switch (isa) {
    case FastIsa::kScalar:
      return fastStageKernelsScalar();
    case FastIsa::kSse2:
      return fastStageKernelsSse2();
    case FastIsa::kAvx2:
      return fastStageKernelsAvx2();
    case FastIsa::kAvx512:
      return fastStageKernelsAvx512();
  }
  return fastStageKernelsScalar();
}

}  // namespace tsg
