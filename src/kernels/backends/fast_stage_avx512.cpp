#ifdef TSG_FAST_TU_DISABLED
#include "kernels/backends/stage_kernels.hpp"
namespace tsg {
const StageKernels& fastStageKernelsAvx512() {
  return fastStageKernelsScalar();
}
}  // namespace tsg
#else
#define TSG_FAST_NS fast_avx512
#define TSG_FAST_ISA_NAME "avx512"
#define TSG_FAST_ACCESSOR fastStageKernelsAvx512
#define TSG_FAST_VEC_WIDTH 8
#include "kernels/backends/fast_stage_impl.inc"
#endif
