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
// The cluster-contiguous operand tensors (layout, batch-ordered faces,
// negated star/flux matrices) are pure functions of the static asset
// data, so they live in SimulationAssets::batchedAssets(batchSize) --
// built once per batch size and const-shared; this backend only holds a
// reference.

#include <cstdint>
#include <memory>
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

  void prepare() override;
  void invalidateLayout() override { ba_.reset(); }

  std::size_t numTiles(int cluster) const override {
    return static_cast<std::size_t>(ba_->layout.endBatchOfCluster(cluster) -
                                    ba_->layout.firstBatchOfCluster(cluster));
  }
  void appendTileElements(int cluster, std::size_t tile,
                          std::vector<int>& out) const override {
    const ElementBatch& b = batchOf(cluster, tile);
    for (int i = 0; i < b.width; ++i) {
      out.push_back(ba_->layout.elements()[b.begin + i]);
    }
  }
  void runPredictorTile(int cluster, std::size_t tile,
                        bool resetBuffer) override;
  void runCorrectorTile(int cluster, std::size_t tile,
                        std::int64_t tick) override;

  const ClusterBatchLayout* batchLayout() const override {
    return ba_ ? &ba_->layout : nullptr;
  }
  int reportBatchSize() const override {
    return ba_ ? ba_->layout.batchSize()
               : (s_.cfg->batchSize > 0
                      ? s_.cfg->batchSize
                      : autoBatchSize(s_.rm->nb, s_.cfg->degree));
  }

 protected:
  BatchedBackend(SolverState& state, const char* name)
      : KernelBackend(state),
        k_(&fastStageKernels(resolveFastIsa())),
        name_(name) {}

 private:
  void predictorBatch(const ElementBatch& batch, bool reset);
  void correctorBatch(const ElementBatch& batch, std::int64_t tick);
  const ElementBatch& batchOf(int cluster, std::size_t tile) const {
    return ba_->layout.batches()[ba_->layout.firstBatchOfCluster(cluster) +
                                 static_cast<int>(tile)];
  }

  const StageKernels* k_;
  const char* name_;
  // Shared batched operand tensors (null until prepare()).
  std::shared_ptr<const BatchedAssets> ba_;
};

}  // namespace tsg
