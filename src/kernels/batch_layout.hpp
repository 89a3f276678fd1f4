#pragma once

// Cluster-contiguous batching of elements for the fused kernel pipeline
// (paper Sec. 5: fusing the small per-element GEMMs of a time cluster
// into blocked GEMMs is what makes the node-level performance).
//
// Elements of one LTS cluster are partitioned into batches of up to
// `batchSize` elements.  A batch's modal data lives in one of two tile
// layouts, both a row-major [nb x 9*lanes] matrix, so a reference-matrix
// product  M (nb x nb) * Q_e (nb x 9)  for every element of the batch is
// ONE GEMM  M * tile  with n = 9*lanes instead of n = 9, and M stays hot
// in L1 across the whole batch:
//
//  * element-major (the corrector):   tile[l*ld + 9*e + q],
//    whose column blocks are the elements.  The corrector multiplies
//    every lane by its own 9 x 9 flux matrices, which are dense, so a
//    lane's 9 contiguous columns suit it best.
//  * lane-minor (local integration: predictor, Taylor integral, volume
//    term):   tile[(l*9 + q)*lanes + lane],
//    whose lanes are whole groups of the compressed star operand
//    (kernels/star_operand.hpp).  A star product then runs over the 24
//    structural nonzeros only, each one vector multiply across the lanes
//    of a group.  A batch that starts inside a star group leaves the
//    group's other lanes zero.
//
// Crucially both transformations are pure data movement: each output
// value of a row-major GEMM is a sum over the k index in increasing order
// regardless of n-blocking, so the batched pipeline produces
// BITWISE-identical results to the per-element reference path.

#include <vector>

#include "common/types.hpp"
#include "solver/time_clusters.hpp"

namespace tsg {

struct ElementBatch {
  int cluster = 0;
  int begin = 0;  // first position in kernel order (SimulationAssets)
  int width = 0;  // number of elements in this batch (<= batchSize)
};

/// Pick a batch size such that the hot pair of tiles of a batched GEMM
/// (2 tiles of nb x 9*B reals) stays within a conservative L1 budget.
/// Returns a multiple of 4 in [4, 64].
int autoBatchSize(int nb, int degree);

/// The batch list of one batch size.  Kernel order, the concatenation of
/// the clusters' element lists, does not depend on the batch size; each
/// batch is a run [begin, begin + width) of it within one cluster.
class ClusterBatchLayout {
 public:
  ClusterBatchLayout() = default;
  /// Partition every cluster's positions into batches.  `requestedBatch`
  /// <= 0 selects autoBatchSize(); either is capped at the largest
  /// cluster's element count, as no batch can be wider.
  ClusterBatchLayout(const ClusterLayout& clusters, int nb, int degree,
                     int requestedBatch);

  int batchSize() const { return batchSize_; }
  const std::vector<ElementBatch>& batches() const { return batches_; }
  /// Half-open range [first, last) into batches() for cluster c.
  int firstBatchOfCluster(int c) const { return clusterBatchBegin_[c]; }
  int endBatchOfCluster(int c) const { return clusterBatchBegin_[c + 1]; }

 private:
  int batchSize_ = 0;
  std::vector<ElementBatch> batches_;
  std::vector<int> clusterBatchBegin_;
};

/// Gather per-element modal blocks (contiguous [nb x 9] each) into an
/// interleaved tile: tile[l*ld + 9*lane + p] = src(elem)[l*9 + p].
/// `srcOf` maps a lane to the base pointer of that element's block.
void gatherTile(const real* src, const int* elems, int width, int nb,
                std::size_t elemStride, int ld, real* tile);

/// Inverse of gatherTile (bitwise round-trip).
void scatterTile(const real* tile, const int* elems, int width, int nb,
                 std::size_t elemStride, int ld, real* dst);

/// Gather per-element blocks of nbq reals into a lane-minor tile of
/// `lanes` lanes: tile[r*lanes + firstLane + i] = src(elems[i])[r] for
/// i < width; every other lane of the tile is set to +0.
void gatherLaneTile(const real* src, const int* elems, int width, int nbq,
                    std::size_t elemStride, int firstLane, int lanes,
                    real* tile);

/// Inverse of gatherLaneTile for the lanes [firstLane, firstLane + width).
void scatterLaneTile(const real* tile, const int* elems, int width, int nbq,
                     std::size_t elemStride, int firstLane, int lanes,
                     real* dst);

}  // namespace tsg
