#include "kernels/backends/batched_backend.hpp"

#include "kernels/element_kernels.hpp"
#include "kernels/star_operand.hpp"

namespace tsg {

namespace {

/// Lanes of the widest lane-minor tile a batch of up to `batchSize`
/// elements can span: it may start at any lane of a star group.
int maxTileLanes(int batchSize) {
  return kStarGroupLanes *
         ((batchSize + 2 * (kStarGroupLanes - 1)) / kStarGroupLanes);
}

}  // namespace

BatchedBackend::BatchedBackend(SolverState& state, const char* name)
    : KernelBackend(state),
      k_(&fastStageKernels(resolveFastIsa())),
      name_(name),
      layout_(*state.clusters, state.rm->nb, state.cfg->degree,
              state.cfg->batchSize),
      tileScratchSize_(static_cast<std::size_t>(state.cfg->degree + 3) *
                       state.rm->nb * kNumQuantities *
                       maxTileLanes(layout_.batchSize())) {}

void BatchedBackend::runPredictorTile(int cluster, std::size_t tile,
                                      bool resetBuffer) {
  predictorBatch(batchOf(cluster, tile), resetBuffer);
}

void BatchedBackend::runCorrectorTile(int cluster, std::size_t tile,
                                      std::int64_t tick) {
  correctorBatch(batchOf(cluster, tile), tick);
}

void BatchedBackend::predictorBatch(const ElementBatch& batch, bool reset) {
  const ReferenceMatrices& rm = *s_.rm;
  const ClusterLayout& clusters = *s_.clusters;
  const SimulationAssets& a = *s_.assets;
  const int width = batch.width;
  const int* elems = a.kernelOrder.data() + batch.begin;
  // A lane-minor tile over the batch's star groups; the batch owns the
  // lanes [first, first + width) of it.
  const SimulationAssets::StarSpan span = a.starSpan(batch.begin, width);
  const int first = span.firstLane;
  const int lanes = kStarGroupLanes * span.groups;
  const std::size_t tileSize =
      static_cast<std::size_t>(rm.nb) * kNumQuantities * lanes;
  real* stackTiles = backendThreadScratch(1, tileScratchSize_);
  real* scratchTile = stackTiles + (s_.cfg->degree + 1) * tileSize;
  real* tIntTile = scratchTile + tileSize;
  const real* star =
      a.star.data() + static_cast<std::size_t>(span.firstGroup) * kStarGroupSize;

  gatherLaneTile(s_.dofs.data(), elems, width, s_.nbq, s_.nbq, first, lanes,
                 stackTiles);
  k_->lanePredictor(rm, star, stackTiles, scratchTile, span.groups, width);
  const real dt =
      clusters.dtMin * static_cast<real>(clusters.spanOf(batch.cluster));
  k_->taylorIntegrate(rm, stackTiles, 0.0, dt, tIntTile, lanes,
                      kNumQuantities * lanes, width);

  // Copy out the time integral of every lane, but the derivative stack only
  // for elements whose stack is read outside this batch (gravity and
  // rupture faces, coarser LTS neighbours) -- for all other elements the
  // stack lives and dies in the tiles.
  const std::size_t stackStride =
      static_cast<std::size_t>(s_.nbq) * (s_.cfg->degree + 1);
  for (int lane = 0; lane < width; ++lane) {
    if (!a.stackNeeded[elems[lane]]) {
      continue;
    }
    for (int k = 0; k <= s_.cfg->degree; ++k) {
      scatterLaneTile(stackTiles + static_cast<std::size_t>(k) * tileSize,
                      elems + lane, 1, s_.nbq, stackStride, first + lane,
                      lanes, s_.stack.data() + static_cast<std::size_t>(k) *
                                                   s_.nbq);
    }
  }
  scatterLaneTile(tIntTile, elems, width, s_.nbq, s_.nbq, first, lanes,
                  s_.tInt.data());

  // The volume term, added into stack level 0 (the DOFs) in place.
  k_->laneVolume(rm, star, tIntTile, stackTiles, scratchTile, span.groups,
                 width);
  scatterLaneTile(stackTiles, elems, width, s_.nbq, s_.nbq, first, lanes,
                  s_.dofs.data());

  for (int lane = 0; lane < width; ++lane) {
    const int e = elems[lane];
    if (a.hasCoarserNeighbor[e]) {
      s_.accumulateLtsBuffer(e, reset);
    }
  }
}

void BatchedBackend::correctorBatch(const ElementBatch& batch,
                                    std::int64_t tick) {
  const ReferenceMatrices& rm = *s_.rm;
  const ClusterLayout& clusters = *s_.clusters;
  const SimulationAssets& a = *s_.assets;
  const int c = batch.cluster;
  const std::int64_t span = clusters.spanOf(c);
  const real dt = clusters.dtMin * static_cast<real>(span);
  const int width = batch.width;
  const int ld = kNumQuantities * layout_.batchSize();
  const int* elems = a.kernelOrder.data() + batch.begin;
  const std::size_t tileSize = static_cast<std::size_t>(rm.nb) * ld;
  const int stride = kNumQuantities * kNumQuantities;
  // This batch's face records and flux matrices: [lane*4 + f].
  const FaceRecord* faces =
      a.faces.data() + static_cast<std::size_t>(batch.begin) * 4;
  const real* fluxMinusT =
      a.fluxMinusT.data() + static_cast<std::size_t>(batch.begin) * 4 * stride;
  const real* fluxPlusT =
      a.fluxPlusT.data() + static_cast<std::size_t>(batch.begin) * 4 * stride;

  real* dofTile = backendThreadScratch(1, tileScratchSize_);
  real* tIntTile = dofTile + tileSize;
  real* faceScratch = tIntTile + tileSize;
  // Fourth scratch tile (degree >= 1 guarantees it): per-lane contiguous
  // nb x 9 slots holding coarser-neighbour sub-interval integrals so the
  // neighbour-flux stage can run as one fused pass over the batch.
  real* coarseInt = faceScratch + tileSize;
  static thread_local std::vector<const real*> fluxPtrs;
  static thread_local std::vector<NeighborFluxLane> nbrLanes;
  fluxPtrs.resize(layout_.batchSize());
  nbrLanes.resize(layout_.batchSize());
  // Per-element scratch (neighbour integrals, gravity/rupture traces) --
  // same regions as the reference corrector.
  real* scratch = backendThreadScratch(0, s_.scratchSize);
  real* scratchBig = scratch + 2 * s_.nbq;
  real* fluxQp = scratchBig +
                 2 * static_cast<std::size_t>(s_.cfg->degree + 1) * rm.nq *
                     kNumQuantities;

  gatherTile(s_.dofs.data(), elems, width, rm.nb, s_.nbq, ld, dofTile);
  gatherTile(s_.tInt.data(), elems, width, rm.nb, s_.nbq, ld, tIntTile);

  for (int f = 0; f < 4; ++f) {
    // (a) Per-lane pre-pass: stage the flux-solver products of regular /
    // folded-boundary faces into the face scratch tile (the stage
    // overwrites their columns, which (b) alone reads); apply pointwise
    // gravity and rupture fluxes directly (their slot in each element's
    // accumulation sequence is exactly here, matching the reference).
    for (int lane = 0; lane < width; ++lane) {
      const FaceRecord& info = faces[lane * 4 + f];
      real* laneDofs =
          dofTile + static_cast<std::size_t>(lane) * kNumQuantities;
      fluxPtrs[lane] = nullptr;
      switch (info.kind) {
        case FaceKind::kRegular:
        case FaceKind::kBoundaryFolded:
          // The stage subtracts the flux-solver product: the bits of the
          // reference's negate-the-product pass.
          fluxPtrs[lane] =
              fluxMinusT + (static_cast<std::size_t>(lane) * 4 + f) * stride;
          break;
        case FaceKind::kGravity:
          s_.gravity->computeFlux(info.aux, rm, s_.stackOf(elems[lane]), dt,
                                  fluxQp, scratchBig);
          k_->pointwiseStrided(rm, rm.faceEvalTW[f], info.scale, fluxQp,
                               laneDofs, ld);
          break;
        case FaceKind::kRuptureMinus: {
          const real* staged = s_.ruptureFlux.data() +
                               static_cast<std::size_t>(info.aux) * 2 *
                                   rm.nq * kNumQuantities;
          k_->pointwiseStrided(rm, rm.faceEvalTW[f], info.scale, staged,
                               laneDofs, ld);
          break;
        }
        case FaceKind::kRupturePlus: {
          const FaultFace& ff = s_.fault->faceAt(info.aux);
          const real* staged =
              s_.ruptureFlux.data() +
              (static_cast<std::size_t>(info.aux) * 2 + 1) * rm.nq *
                  kNumQuantities;
          k_->pointwiseStrided(
              rm,
              rm.faceEvalNeighborTW[ff.minusFace][ff.plusFace][ff.permutation],
              info.scale, staged, laneDofs, ld);
          break;
        }
      }

      // Seafloor uplift recorder (identical to the reference corrector;
      // reads only this element's time integral).
      if (info.seafloor >= 0) {
        s_.recordSeafloorUplift(info.seafloor, elems[lane], f);
      }
    }
    k_->localFluxStage(rm.nb, width, ld, tIntTile, fluxPtrs.data(),
                       faceScratch);

    // (b) One blocked GEMM per run of consecutive regular/boundary lanes:
    // dofs -= fluxLocal[f] * staged flux products.
    int lane = 0;
    while (lane < width) {
      const auto kindOf = [&](int l) { return faces[l * 4 + f].kind; };
      if (kindOf(lane) != FaceKind::kRegular &&
          kindOf(lane) != FaceKind::kBoundaryFolded) {
        ++lane;
        continue;
      }
      int end = lane + 1;
      while (end < width && (kindOf(end) == FaceKind::kRegular ||
                             kindOf(end) == FaceKind::kBoundaryFolded)) {
        ++end;
      }
      k_->gemmAccStrided(
          rm.nb, kNumQuantities * (end - lane), rm.nb, rm.fluxLocal[f].data(),
          rm.nb,
          faceScratch + static_cast<std::size_t>(lane) * kNumQuantities, ld,
          dofTile + static_cast<std::size_t>(lane) * kNumQuantities, ld);
      lane = end;
    }

    // (c) Neighbour contributions of regular faces: resolve each lane's
    // time-integral source (integrating coarser neighbours into this
    // lane's contiguous coarseInt slot), then run the whole batch through
    // one fused per-lane GEMM pass.
    for (int lane2 = 0; lane2 < width; ++lane2) {
      const FaceRecord& info = faces[lane2 * 4 + f];
      NeighborFluxLane& ln = nbrLanes[lane2];
      if (info.kind != FaceKind::kRegular) {
        ln.src = nullptr;
        continue;
      }
      if (info.relation == 0) {
        ln.src = s_.tIntOf(info.neighbor);
      } else if (info.relation == 1) {
        // Coarser neighbour: integrate its Taylor expansion over our
        // sub-interval of its (rate times as long) timestep.
        const std::int64_t rel = (tick - span) % (span * clusters.rate);
        const real off = clusters.dtMin * static_cast<real>(rel);
        real* slot = coarseInt + static_cast<std::size_t>(lane2) * s_.nbq;
        taylorIntegrate(rm, s_.stackOf(info.neighbor), off, off + dt, slot);
        ln.src = slot;
      } else {
        // Finer neighbour: its buffer accumulated both sub-intervals.
        ln.src = s_.buffer.data() +
                 static_cast<std::size_t>(info.neighbor) * s_.nbq;
      }
      ln.fluxPlusT =
          fluxPlusT + (static_cast<std::size_t>(lane2) * 4 + f) * stride;
      ln.fluxNeighbor =
          rm.fluxNeighbor[f][info.neighborFace][info.permutation].data();
    }
    k_->neighborFluxStage(rm.nb, width, ld, nbrLanes.data(), scratch,
                          dofTile);
  }

  scatterTile(dofTile, elems, width, rm.nb, s_.nbq, ld, s_.dofs.data());

  // Receivers hosted by elements of this batch: sample at the interval end.
  for (int lane = 0; lane < width; ++lane) {
    s_.sampleReceivers(elems[lane], tick);
  }
}

}  // namespace tsg
