#ifdef TSG_FAST_TU_DISABLED
#include "kernels/backends/stage_kernels.hpp"
namespace tsg {
const StageKernels& fastStageKernelsSse2() { return fastStageKernelsScalar(); }
}  // namespace tsg
#else
#define TSG_FAST_NS fast_sse2
#define TSG_FAST_ISA_NAME "sse2"
#define TSG_FAST_ACCESSOR fastStageKernelsSse2
#define TSG_FAST_VEC_WIDTH 2
#include "kernels/backends/fast_stage_impl.inc"
#endif
