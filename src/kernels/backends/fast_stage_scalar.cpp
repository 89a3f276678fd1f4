// Scalar fast variant: compiled with vectorization disabled (see
// src/CMakeLists.txt) so it is a true scalar baseline for the cross-ISA
// bitwise tests.
#define TSG_FAST_NS fast_scalar
#define TSG_FAST_ISA_NAME "scalar"
#define TSG_FAST_ACCESSOR fastStageKernelsScalar
#define TSG_FAST_VEC_WIDTH 1
#include "kernels/backends/fast_stage_impl.inc"
