#pragma once

// The batched pipeline: one cluster-contiguous batch per tile, fused
// blocked GEMMs over interleaved tiles (see kernels/batch_layout.hpp).
// Stage kernels come from the dispatched per-ISA StageKernels table
// (stage_kernels.hpp; cpuid with the TSG_FORCE_ISA override, see
// isa_dispatch.hpp).  Run without FTZ, as here, the pipeline is
// bitwise-identical to the reference backend on every ISA variant
// (pinned by the BatchedKernels tests); the fast backend is this
// pipeline plus FTZ|DAZ (fast_backend.hpp).
//
// The predictor phase is the local integration of a batch, on a
// lane-minor tile (batch_layout.hpp): gather the DOFs, run the ADER
// predictor and the Taylor integral, copy out the stacks other elements
// read and the time integrals, then add the volume term into the DOFs and
// scatter them.  The corrector gathers element-major tiles of the DOFs and
// time integrals and runs the surface stages.
//
// The static operands are stored in kernel order (SimulationAssets), so
// every batch reads its star groups, flux matrices and face records as
// one contiguous run of the shared asset arrays.  This backend holds only
// its batch list, built at construction.

#include <cstdint>
#include <vector>

#include "kernels/backends/isa_dispatch.hpp"
#include "kernels/backends/kernel_backend.hpp"
#include "kernels/backends/stage_kernels.hpp"
#include "kernels/batch_layout.hpp"
#include "solver/simulation_assets.hpp"

namespace tsg {

class BatchedBackend : public KernelBackend {
 public:
  explicit BatchedBackend(SolverState& state)
      : BatchedBackend(state, "batched") {}

  const char* name() const override { return name_; }
  const char* isa() const override { return k_->isa; }

  std::size_t numTiles(int cluster) const override {
    return static_cast<std::size_t>(layout_.endBatchOfCluster(cluster) -
                                    layout_.firstBatchOfCluster(cluster));
  }
  void appendTileElements(int cluster, std::size_t tile,
                          std::vector<int>& out) const override {
    const ElementBatch& b = batchOf(cluster, tile);
    const int* elems = s_.assets->kernelOrder.data() + b.begin;
    out.insert(out.end(), elems, elems + b.width);
  }
  void runPredictorTile(int cluster, std::size_t tile,
                        bool resetBuffer) override;
  void runCorrectorTile(int cluster, std::size_t tile,
                        std::int64_t tick) override;

  const ClusterBatchLayout* batchLayout() const override { return &layout_; }
  int reportBatchSize() const override { return layout_.batchSize(); }

 protected:
  BatchedBackend(SolverState& state, const char* name);

 private:
  void predictorBatch(const ElementBatch& batch, bool reset);
  void correctorBatch(const ElementBatch& batch, std::int64_t tick);
  const ElementBatch& batchOf(int cluster, std::size_t tile) const {
    return layout_.batches()[layout_.firstBatchOfCluster(cluster) +
                             static_cast<int>(tile)];
  }

  const StageKernels* k_;
  const char* name_;
  ClusterBatchLayout layout_;
  // Tile scratch per thread: (degree+3) tiles of nb*9*lanes reals, lanes
  // those of the widest lane-minor tile (at least batchSize).
  std::size_t tileScratchSize_;
};

}  // namespace tsg
