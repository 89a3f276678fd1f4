#pragma once

// ThreadPlan: static cluster-contiguous work assignment for the
// persistent-parallel-region LTS scheduler (paper Sec. 5.2/5.3).
//
// For every (cluster, thread) pair the plan holds one contiguous tile
// range, so each thread walks a fixed slice of each cluster's tiles in
// every predictor/corrector wave -- no fork/join between phases, no
// dynamic work stealing.  The slices are balanced with the repo's own
// graph partitioner over a path graph of the cluster's tiles, using
// Eq. 28-style vertex weights aggregated per tile (partition/weights),
// i.e. the same static load-balancing model the paper uses across MPI
// ranks, applied here across threads.  A weighted prefix split is the
// fallback whenever refinement returns non-contiguous parts.
//
// Because every tile writes only its own elements' state (and every
// fault face is staged by exactly one thread), the numerical result is
// bitwise independent of the plan -- thread count and slice boundaries
// change wall time, never output.  Determinism across OMP_NUM_THREADS
// follows structurally (pinned by tests/test_determinism.cpp).

#include <cstdint>
#include <vector>

namespace tsg {

class KernelBackend;
struct SolverState;

/// Half-open tile (or fault-face) index range [begin, end).
struct TileRange {
  int begin = 0;
  int end = 0;
  int count() const { return end - begin; }
};

class ThreadPlan {
 public:
  ThreadPlan() = default;

  /// Build for `threads` workers.  `tileWeights[c][t]` is the load model
  /// of tile t of cluster c (sum of its elements' Eq. 28 weights),
  /// `tileElements[c][t]` its element count (perf accounting), and
  /// `faultFaces[c]` the cluster's dynamic-rupture face count.
  static ThreadPlan build(
      int threads, const std::vector<std::vector<std::int64_t>>& tileWeights,
      const std::vector<std::vector<std::int64_t>>& tileElements,
      const std::vector<std::int64_t>& faultFaces);

  int threads() const { return threads_; }
  int numClusters() const { return numClusters_; }

  /// Tile slice of `thread` within cluster c (empty when the cluster has
  /// fewer tiles than threads).
  TileRange tiles(int cluster, int thread) const {
    return tileRanges_[static_cast<std::size_t>(cluster) * threads_ + thread];
  }
  /// Fault-face slice of `thread` within cluster c (indices into the
  /// per-cluster fault-face id list, SimulationAssets::faultFaceIdsOfCluster).
  TileRange faultFaces(int cluster, int thread) const {
    return faultRanges_[static_cast<std::size_t>(cluster) * threads_ + thread];
  }
  /// Mesh elements covered by a tile range of cluster c (O(1), prefix
  /// sums) -- the per-thread element_updates contribution of one wave.
  std::uint64_t elementsIn(int cluster, const TileRange& r) const {
    const auto& p = elemPrefix_[cluster];
    return static_cast<std::uint64_t>(p[r.end] - p[r.begin]);
  }
  /// Worst per-cluster load imbalance: max over clusters of
  /// (heaviest thread's weight) / (cluster weight / threads).  1 = perfect.
  double maxImbalance() const { return maxImbalance_; }

 private:
  int threads_ = 0;
  int numClusters_ = 0;
  std::vector<TileRange> tileRanges_;   // [cluster * threads_ + thread]
  std::vector<TileRange> faultRanges_;  // [cluster * threads_ + thread]
  std::vector<std::vector<std::int64_t>> elemPrefix_;  // per cluster, tiles+1
  double maxImbalance_ = 1.0;
};

/// Build the plan for the backend's current tile layout: queries each
/// tile's elements (KernelBackend::appendTileElements) and aggregates the
/// Eq. 28 vertex weights of `state`'s mesh/clusters per tile (a backend's
/// tile layout is fixed at its construction).
ThreadPlan buildThreadPlan(int threads, const SolverState& state,
                           const KernelBackend& backend);

}  // namespace tsg
