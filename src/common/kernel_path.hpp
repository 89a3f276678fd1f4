#pragma once

// Kernel-pipeline selection shared by the solver, the CLI, the perf
// report, and the benchmarks.  This is the single enum <-> string mapping
// for the `kernel_path` configuration key; every layer that parses or
// prints a kernel path goes through these helpers so the accepted
// spellings cannot drift apart.

#include <optional>
#include <string>

namespace tsg {

/// Which stepping pipeline executes the element kernels.
///  * kReference -- one element at a time; the readable oracle.
///  * kBatched   -- fused cluster-contiguous tile GEMMs from the per-ISA
///    compiled stage-kernel table selected at runtime (cpuid,
///    TSG_FORCE_ISA override), without FTZ: bitwise-identical to the
///    reference path on every ISA (the BatchedKernels tests).
///  * kFast      -- the same table plus FTZ|DAZ around every tile.  NOT
///    bitwise-identical to the reference path; accuracy is gated to 1e-9
///    relative on receivers (tests/test_fast_backend.cpp).
enum class KernelPath {
  kReference,
  kBatched,
  kFast,
};

/// Canonical config-file spelling: "reference" | "batched" | "fast".
const char* kernelPathName(KernelPath path);

/// Parse a config-file spelling; nullopt for anything unknown.
std::optional<KernelPath> parseKernelPath(const std::string& name);

/// "reference | batched | fast" -- for error messages and usage text.
const char* kernelPathChoices();

}  // namespace tsg
