#include "kernels/batch_layout.hpp"

#include <algorithm>

#include "common/types.hpp"

namespace tsg {

int autoBatchSize(int nb, int degree) {
  (void)degree;
  // The inner GEMMs stream one tile while accumulating into another, so
  // the hot working set is a PAIR of tiles (e.g. predictor scratch +
  // next stack level), not the whole stack.  Keep that pair inside a
  // typical 32 KiB L1d (budget 24 KiB, leaving room for the operand
  // matrices): measured on the megathrust mesh at degree 2 this lands
  // on batch 16, which beats the L2-sized 64 by ~10% end-to-end.
  constexpr std::size_t kL1Budget = 24 * 1024;
  const std::size_t perLanePair =
      2 * static_cast<std::size_t>(nb) * kNumQuantities * sizeof(real);
  int b = static_cast<int>(kL1Budget / std::max<std::size_t>(perLanePair, 1));
  b = (b / 4) * 4;
  return std::clamp(b, 4, 64);
}

ClusterBatchLayout::ClusterBatchLayout(const ClusterLayout& clusters, int nb,
                                       int degree, int requestedBatch) {
  std::size_t largest = 1;
  for (const auto& elems : clusters.elementsOfCluster) {
    largest = std::max(largest, elems.size());
  }
  batchSize_ = static_cast<int>(std::min<std::size_t>(
      requestedBatch > 0 ? requestedBatch : autoBatchSize(nb, degree),
      largest));
  clusterBatchBegin_.assign(clusters.numClusters + 1, 0);
  int position = 0;
  for (int c = 0; c < clusters.numClusters; ++c) {
    clusterBatchBegin_[c] = static_cast<int>(batches_.size());
    const int size = static_cast<int>(clusters.elementsOfCluster[c].size());
    for (int k = 0; k < size; k += batchSize_) {
      batches_.push_back({c, position + k, std::min(batchSize_, size - k)});
    }
    position += size;
  }
  clusterBatchBegin_[clusters.numClusters] = static_cast<int>(batches_.size());
}

void gatherTile(const real* src, const int* elems, int width, int nb,
                std::size_t elemStride, int ld, real* tile) {
  for (int lane = 0; lane < width; ++lane) {
    const real* s = src + static_cast<std::size_t>(elems[lane]) * elemStride;
    real* t = tile + static_cast<std::size_t>(lane) * kNumQuantities;
    for (int l = 0; l < nb; ++l) {
      for (int p = 0; p < kNumQuantities; ++p) {
        t[static_cast<std::size_t>(l) * ld + p] =
            s[static_cast<std::size_t>(l) * kNumQuantities + p];
      }
    }
  }
}

void scatterTile(const real* tile, const int* elems, int width, int nb,
                 std::size_t elemStride, int ld, real* dst) {
  for (int lane = 0; lane < width; ++lane) {
    const real* t = tile + static_cast<std::size_t>(lane) * kNumQuantities;
    real* d = dst + static_cast<std::size_t>(elems[lane]) * elemStride;
    for (int l = 0; l < nb; ++l) {
      for (int p = 0; p < kNumQuantities; ++p) {
        d[static_cast<std::size_t>(l) * kNumQuantities + p] =
            t[static_cast<std::size_t>(l) * ld + p];
      }
    }
  }
}

void gatherLaneTile(const real* src, const int* elems, int width, int nbq,
                    std::size_t elemStride, int firstLane, int lanes,
                    real* tile) {
  for (int r = 0; r < nbq; ++r) {
    real* row = tile + static_cast<std::size_t>(r) * lanes;
    std::fill(row, row + firstLane, 0.0);
    std::fill(row + firstLane + width, row + lanes, 0.0);
  }
  for (int i = 0; i < width; ++i) {
    const real* s = src + static_cast<std::size_t>(elems[i]) * elemStride;
    real* t = tile + firstLane + i;
    for (int r = 0; r < nbq; ++r) {
      t[static_cast<std::size_t>(r) * lanes] = s[r];
    }
  }
}

void scatterLaneTile(const real* tile, const int* elems, int width, int nbq,
                     std::size_t elemStride, int firstLane, int lanes,
                     real* dst) {
  for (int i = 0; i < width; ++i) {
    const real* t = tile + firstLane + i;
    real* d = dst + static_cast<std::size_t>(elems[i]) * elemStride;
    for (int r = 0; r < nbq; ++r) {
      d[r] = t[static_cast<std::size_t>(r) * lanes];
    }
  }
}

}  // namespace tsg
