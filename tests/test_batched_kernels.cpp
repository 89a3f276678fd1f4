// Equivalence of the batched cluster-ordered kernel pipeline with the
// per-element reference path:
//  * bitwise-identical receiver CSVs on the megathrust mini-scenario in
//    deterministic mode (gravity + dynamic rupture + LTS all active), on
//    every host-executable ISA variant of the stage kernels,
//  * full DOF agreement to 1e-12 in the default (non-deterministic) mode,
//  * the relayout gather/scatter round-trips modal data exactly,
//  * the batch layout is a permutation partition of the element set.

#include <omp.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "force_isa_guard.hpp"
#include "kernels/backends/isa_dispatch.hpp"
#include "kernels/batch_layout.hpp"
#include "kernels/element_kernels.hpp"
#include "scenario/megathrust.hpp"
#include "scenario/plane_wave.hpp"
#include "solver/simulation.hpp"

namespace tsg {
namespace {

struct ThreadCountGuard {
  int saved = omp_get_max_threads();
  ~ThreadCountGuard() { omp_set_num_threads(saved); }
};

std::unique_ptr<Simulation> megathrustMini(KernelPath path, bool deterministic,
                                           int threads) {
  omp_set_num_threads(threads);
  MegathrustParams p;
  p.h = 3000.0;
  p.faultAlongStrike = 12000.0;
  p.faultDownDip = 9000.0;
  p.domainPadding = 12000.0;
  const MegathrustScenario s = buildMegathrustScenario(p);
  SolverConfig sc = megathrustSolverConfig(2);
  sc.deterministic = deterministic;
  sc.kernelPath = path;
  auto sim = std::make_unique<Simulation>(s.mesh, s.materials, sc);
  sim->setInitialCondition([](const Vec3&, int) {
    return std::array<real, 9>{};
  });
  sim->setupFault(s.faultInit);
  sim->addReceiver("water", {0.0, 0.0, -1000.0});
  sim->addReceiver("crust", {2000.0, 1000.0, -4000.0});
  sim->advanceTo(2.999 * sim->macroDt());
  return sim;
}

std::string fileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Receiver series (and their CSV bytes), seafloor uplift and the raw
/// modal state of `bat` equal those of `ref` bit for bit.
void expectBitwiseEqual(const Simulation& ref, const Simulation& bat) {
  ASSERT_EQ(ref.numReceivers(), bat.numReceivers());
  for (int r = 0; r < ref.numReceivers(); ++r) {
    const Receiver& rr = ref.receiver(r);
    const Receiver& rb = bat.receiver(r);
    ASSERT_EQ(rr.samples.size(), rb.samples.size());
    ASSERT_FALSE(rr.samples.empty());
    for (std::size_t i = 0; i < rr.samples.size(); ++i) {
      EXPECT_EQ(0, std::memcmp(&rr.samples[i], &rb.samples[i],
                               sizeof(rr.samples[i])))
          << "receiver " << r << " sample " << i;
      EXPECT_EQ(rr.times[i], rb.times[i]);
    }
    const std::string pr = "batched_ref_" + rr.name + ".csv";
    const std::string pb = "batched_bat_" + rb.name + ".csv";
    rr.writeCsv(pr);
    rb.writeCsv(pb);
    const std::string bytes = fileBytes(pr);
    EXPECT_FALSE(bytes.empty());
    EXPECT_EQ(bytes, fileBytes(pb));
    std::remove(pr.c_str());
    std::remove(pb.c_str());
  }
  // Seafloor uplift accumulators and the raw modal state agree exactly.
  const auto sr = ref.seafloor();
  const auto sb = bat.seafloor();
  ASSERT_EQ(sr.size(), sb.size());
  for (std::size_t i = 0; i < sr.size(); ++i) {
    EXPECT_EQ(sr[i].uplift, sb[i].uplift);
  }
  ASSERT_EQ(ref.dofsData().size(), bat.dofsData().size());
  EXPECT_EQ(0, std::memcmp(ref.dofsData().data(), bat.dofsData().data(),
                           ref.dofsData().size() * sizeof(real)));
}

// The acceptance criterion of the batched pipeline: on the megathrust
// scenario (exercising gravity faces, rupture faces, folded boundaries,
// and a multi-cluster LTS layout at once) the batched path reproduces the
// reference path's receiver output BYTE-for-byte in deterministic mode.
//
// The batched backend runs the dispatched per-ISA stage-kernel table, so
// the contract is checked for every variant the host can execute.
TEST(BatchedKernels, MegathrustReceiversBitwiseMatchReference) {
  ThreadCountGuard guard;
  ForceIsaGuard isaGuard;
  const auto ref = megathrustMini(KernelPath::kReference, true, 8);
  for (const FastIsa isa : {FastIsa::kScalar, FastIsa::kSse2, FastIsa::kAvx2,
                            FastIsa::kAvx512}) {
    if (!fastIsaSupported(isa)) {
      continue;
    }
    SCOPED_TRACE(fastIsaName(isa));
    setenv("TSG_FORCE_ISA", fastIsaName(isa), 1);
    expectBitwiseEqual(*ref, *megathrustMini(KernelPath::kBatched, true, 8));
  }
}

// In the default non-deterministic mode the loop schedules differ but
// element updates write disjoint state: the full DOF vectors must still
// agree (to 1e-12 by the acceptance criterion; in practice bitwise).
TEST(BatchedKernels, NonDeterministicDofsAgreeAcrossPaths) {
  ThreadCountGuard guard;
  omp_set_num_threads(8);
  const AnalyticCase c = coupledLayerModeCase(8);
  auto make = [&](KernelPath path) {
    SolverConfig cfg;
    cfg.degree = 2;
    cfg.gravity = 0;
    cfg.kernelPath = path;
    auto sim = std::make_unique<Simulation>(c.mesh, c.materials, cfg);
    sim->setInitialCondition(
        [&](const Vec3& x, int) { return c.exact(x, 0.0); });
    return sim;
  };
  auto ref = make(KernelPath::kReference);
  auto bat = make(KernelPath::kBatched);
  ASSERT_EQ(ref->macroDt(), bat->macroDt());
  for (int k = 1; k <= 4; ++k) {
    const real t = (k - 0.001) * ref->macroDt();
    ref->advanceTo(t);
    bat->advanceTo(t);
    ASSERT_EQ(ref->tick(), bat->tick());
    const auto& qr = ref->dofsData();
    const auto& qb = bat->dofsData();
    ASSERT_EQ(qr.size(), qb.size());
    real maxAbs = 0;
    for (const real v : qr) {
      maxAbs = std::max(maxAbs, std::abs(v));
    }
    for (std::size_t i = 0; i < qr.size(); ++i) {
      ASSERT_LE(std::abs(qr[i] - qb[i]), 1e-12 * (1 + maxAbs))
          << "dof " << i << " after macro step " << k;
    }
  }
}

// Relayout property: gather followed by scatter restores every modal
// coefficient bitwise, including partial batches (width < batchSize) and
// values with tricky bit patterns (negative zero, denormal-scale).
TEST(BatchedKernels, GatherScatterRoundTripsBitwise) {
  const int nb = 10, width = 7, batchSize = 8;
  const int ld = 9 * batchSize;
  const std::size_t elemStride = static_cast<std::size_t>(nb) * 9;
  const int elems[width] = {4, 0, 9, 2, 7, 5, 11};
  std::vector<real> src(12 * elemStride);
  for (std::size_t i = 0; i < src.size(); ++i) {
    src[i] = std::sin(0.1 * static_cast<real>(i)) * 1e-3;
  }
  src[4 * elemStride] = -0.0;        // sign of zero must survive
  src[9 * elemStride + 5] = 1e-300;  // as must tiny magnitudes
  std::vector<real> tile(static_cast<std::size_t>(nb) * ld, 99.0);
  gatherTile(src.data(), elems, width, nb, elemStride, ld, tile.data());
  // Spot-check the interleaved layout contract.
  EXPECT_EQ(tile[0 * ld + 9 * 0 + 0], src[4 * elemStride]);
  EXPECT_EQ(tile[3 * ld + 9 * 2 + 5], src[9 * elemStride + 3 * 9 + 5]);
  std::vector<real> dst(src.size(), 0.0);
  scatterTile(tile.data(), elems, width, nb, elemStride, ld, dst.data());
  for (int lane = 0; lane < width; ++lane) {
    const real* a = src.data() + elems[lane] * elemStride;
    const real* b = dst.data() + elems[lane] * elemStride;
    EXPECT_EQ(0, std::memcmp(a, b, elemStride * sizeof(real)))
        << "lane " << lane;
  }
  // Negative zero round-trips with its sign bit.
  EXPECT_TRUE(std::signbit(dst[4 * elemStride]));
}

// The tile Taylor integral overwrites its output at k = 0 instead of
// zero-filling it first; it must still reproduce the reference's
// zero-fill-then-add bits, including +0 for an all-(-0) expansion (the
// end-to-end runs above rarely produce an exact -0 coefficient).
TEST(BatchedKernels, TileTaylorIntegralKeepsReferenceSignOfZero) {
  const ReferenceMatrices& rm = referenceMatrices(2);
  const int width = 3, ld = 9 * width;
  const std::size_t nbq = static_cast<std::size_t>(rm.nb) * 9;
  const std::size_t tileSize = static_cast<std::size_t>(rm.nb) * ld;
  std::vector<real> stackTiles((rm.degree + 1) * tileSize);
  for (std::size_t i = 0; i < stackTiles.size(); ++i) {
    stackTiles[i] = std::cos(0.37 * static_cast<real>(i));
  }
  // Lane 1 holds an all-(-0) expansion.
  for (int k = 0; k <= rm.degree; ++k) {
    for (int l = 0; l < rm.nb; ++l) {
      for (int q = 0; q < 9; ++q) {
        stackTiles[k * tileSize + l * ld + 9 + q] = -0.0;
      }
    }
  }
  const real dt = 0.0123;
  std::vector<real> stack((rm.degree + 1) * nbq), expected(nbq);
  for (const FastIsa isa : {FastIsa::kScalar, FastIsa::kSse2, FastIsa::kAvx2,
                            FastIsa::kAvx512}) {
    if (!fastIsaSupported(isa)) {
      continue;
    }
    std::vector<real> outTile(tileSize, 99.0);
    fastStageKernels(isa).taylorIntegrate(rm, stackTiles.data(), 0.0, dt,
                                          outTile.data(), width, ld);
    for (int lane = 0; lane < width; ++lane) {
      for (int k = 0; k <= rm.degree; ++k) {
        for (int l = 0; l < rm.nb; ++l) {
          std::memcpy(&stack[k * nbq + l * 9],
                      &stackTiles[k * tileSize + l * ld + lane * 9],
                      9 * sizeof(real));
        }
      }
      taylorIntegrate(rm, stack.data(), 0.0, dt, expected.data());
      for (int l = 0; l < rm.nb; ++l) {
        EXPECT_EQ(0, std::memcmp(&expected[l * 9],
                                 &outTile[l * ld + lane * 9],
                                 9 * sizeof(real)))
            << fastIsaName(isa) << " lane " << lane << " row " << l;
      }
    }
    EXPECT_FALSE(std::signbit(outTile[ld + 9])) << fastIsaName(isa);
  }
}

TEST(BatchedKernels, AutoBatchSizeIsBoundedMultipleOf4) {
  for (int degree = 1; degree <= 5; ++degree) {
    for (int nb : {4, 10, 20, 35, 56}) {
      const int b = autoBatchSize(nb, degree);
      EXPECT_GE(b, 4);
      EXPECT_LE(b, 64);
      EXPECT_EQ(b % 4, 0);
    }
  }
}

// The lazily-built layout must partition the element set: every element
// exactly once, batches cluster-pure and within the batch size.
TEST(BatchedKernels, BatchLayoutPartitionsElements) {
  ThreadCountGuard guard;
  const auto sim = megathrustMini(KernelPath::kBatched, false, 4);
  const ClusterBatchLayout& layout = sim->batchLayout();
  const int n = sim->mesh().numElements();
  ASSERT_EQ(static_cast<int>(layout.elements().size()), n);
  std::vector<int> seen(n, 0);
  for (const int e : layout.elements()) {
    ASSERT_GE(e, 0);
    ASSERT_LT(e, n);
    ++seen[e];
  }
  for (int e = 0; e < n; ++e) {
    EXPECT_EQ(seen[e], 1) << "element " << e;
  }
  std::size_t covered = 0;
  for (const ElementBatch& b : layout.batches()) {
    EXPECT_GT(b.width, 0);
    EXPECT_LE(b.width, layout.batchSize());
    EXPECT_EQ(static_cast<std::size_t>(b.begin), covered);
    for (int lane = 0; lane < b.width; ++lane) {
      EXPECT_EQ(sim->clusters().cluster[layout.elements()[b.begin + lane]],
                b.cluster);
    }
    covered += b.width;
  }
  EXPECT_EQ(covered, layout.elements().size());
}

}  // namespace
}  // namespace tsg
