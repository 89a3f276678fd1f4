// Acceptance tests of the fast backend and its runtime ISA dispatch:
//  * on the megathrust mini-scenario (gravity + rupture + LTS) the fast
//    path agrees with the reference path to 1e-9 relative on every
//    receiver sample -- the fast backend's accuracy contract (it is the
//    batched backend plus FTZ|DAZ, so it is NOT pinned bitwise to
//    reference),
//  * every compiled ISA variant (TSG_FORCE_ISA = scalar | sse2 | avx2 |
//    avx512) produces BITWISE-identical receiver series and DOF vectors:
//    the variants share one accumulation order and forbid FMA
//    contraction, so vector width must not change a single bit,
//  * the kernel-path <-> string mapping round-trips (common/kernel_path),
//  * the scheduler's dynamic-chunk heuristic clamps and scales as
//    documented (solver/cluster_scheduler).

#include <omp.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/kernel_path.hpp"
#include "force_isa_guard.hpp"
#include "kernels/backends/isa_dispatch.hpp"
#include "scenario/megathrust.hpp"
#include "solver/cluster_scheduler.hpp"
#include "solver/simulation.hpp"

namespace tsg {
namespace {

struct ThreadCountGuard {
  int saved = omp_get_max_threads();
  ~ThreadCountGuard() { omp_set_num_threads(saved); }
};

std::unique_ptr<Simulation> megathrustMini(KernelPath path, int threads) {
  omp_set_num_threads(threads);
  MegathrustParams p;
  p.h = 3000.0;
  p.faultAlongStrike = 12000.0;
  p.faultDownDip = 9000.0;
  p.domainPadding = 12000.0;
  const MegathrustScenario s = buildMegathrustScenario(p);
  SolverConfig sc = megathrustSolverConfig(2);
  sc.deterministic = true;
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

// The fast backend's accuracy contract: receiver series within 1e-9
// relative of the reference path on the full coupled scenario.
TEST(FastBackend, MegathrustReceiversMatchReferenceTo1em9) {
  ThreadCountGuard guard;
  ForceIsaGuard isaGuard;
  unsetenv("TSG_FORCE_ISA");  // native dispatch, whatever the host has
  const auto ref = megathrustMini(KernelPath::kReference, 8);
  const auto fast = megathrustMini(KernelPath::kFast, 8);
  EXPECT_STREQ(fast->backend().name(), "fast");
  EXPECT_STREQ(ref->backend().name(), "reference");
  ASSERT_EQ(ref->numReceivers(), fast->numReceivers());
  for (int r = 0; r < ref->numReceivers(); ++r) {
    const Receiver& rr = ref->receiver(r);
    const Receiver& rf = fast->receiver(r);
    ASSERT_EQ(rr.samples.size(), rf.samples.size());
    ASSERT_FALSE(rr.samples.empty());
    // Per-quantity scale over the whole series; fields span many orders
    // of magnitude (stresses in Pa vs velocities in m/s).
    std::array<real, kNumQuantities> scale{};
    for (const auto& s : rr.samples) {
      for (int q = 0; q < kNumQuantities; ++q) {
        scale[q] = std::max(scale[q], std::abs(s[q]));
      }
    }
    for (std::size_t i = 0; i < rr.samples.size(); ++i) {
      EXPECT_EQ(rr.times[i], rf.times[i]);
      for (int q = 0; q < kNumQuantities; ++q) {
        EXPECT_LE(std::abs(rr.samples[i][q] - rf.samples[i][q]),
                  1e-9 * (1 + scale[q]))
            << "receiver " << r << " sample " << i << " quantity " << q;
      }
    }
  }
}

// Cross-ISA determinism: every host-executable variant must reproduce the
// scalar variant's receivers and DOF vector bit-for-bit.  Variants the
// host cannot execute are skipped (their TUs may also have been compiled
// as scalar fallbacks on old compilers -- still a valid comparison).
TEST(FastBackend, ForcedIsaVariantsAgreeBitwiseWithScalar) {
  ThreadCountGuard guard;
  ForceIsaGuard isaGuard;
  setenv("TSG_FORCE_ISA", "scalar", 1);
  const auto base = megathrustMini(KernelPath::kFast, 8);
  EXPECT_STREQ(base->backend().isa(), "scalar");
  int compared = 0;
  for (const FastIsa isa : {FastIsa::kSse2, FastIsa::kAvx2, FastIsa::kAvx512}) {
    if (!fastIsaSupported(isa)) {
      continue;
    }
    setenv("TSG_FORCE_ISA", fastIsaName(isa), 1);
    const auto sim = megathrustMini(KernelPath::kFast, 8);
    EXPECT_STREQ(sim->backend().isa(), fastIsaName(isa));
    ASSERT_EQ(base->numReceivers(), sim->numReceivers());
    for (int r = 0; r < base->numReceivers(); ++r) {
      const Receiver& rb = base->receiver(r);
      const Receiver& rv = sim->receiver(r);
      ASSERT_EQ(rb.samples.size(), rv.samples.size());
      ASSERT_FALSE(rb.samples.empty());
      for (std::size_t i = 0; i < rb.samples.size(); ++i) {
        EXPECT_EQ(0, std::memcmp(&rb.samples[i], &rv.samples[i],
                                 sizeof(rb.samples[i])))
            << fastIsaName(isa) << " receiver " << r << " sample " << i;
      }
    }
    ASSERT_EQ(base->dofsData().size(), sim->dofsData().size());
    EXPECT_EQ(0, std::memcmp(base->dofsData().data(), sim->dofsData().data(),
                             base->dofsData().size() * sizeof(real)))
        << fastIsaName(isa) << " DOF vector differs from scalar";
    ++compared;
  }
  // x86-64 guarantees SSE2, so at least one vector variant must have run.
  EXPECT_GE(compared, 1);
}

TEST(FastBackend, UnknownForcedIsaThrows) {
  ForceIsaGuard isaGuard;
  setenv("TSG_FORCE_ISA", "bogus", 1);
  EXPECT_THROW(resolveFastIsa(), std::runtime_error);
}

TEST(KernelPath, NameParseRoundTrip) {
  for (const KernelPath p :
       {KernelPath::kReference, KernelPath::kBatched, KernelPath::kFast}) {
    const auto parsed = parseKernelPath(kernelPathName(p));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, p);
  }
  EXPECT_FALSE(parseKernelPath("bogus").has_value());
  EXPECT_FALSE(parseKernelPath("").has_value());
  // The choices string advertises every parseable name.
  const std::string choices = kernelPathChoices();
  EXPECT_NE(choices.find("reference"), std::string::npos);
  EXPECT_NE(choices.find("batched"), std::string::npos);
  EXPECT_NE(choices.find("fast"), std::string::npos);
}

TEST(ClusterSchedulerChunk, ClampsAndScales) {
  // Few tiles: hand them out one by one.
  EXPECT_EQ(ltsChunkSize(0, 8), 1);
  EXPECT_EQ(ltsChunkSize(7, 8), 1);
  EXPECT_EQ(ltsChunkSize(32, 8), 1);
  // ~4 chunks per thread in the scaling regime.
  EXPECT_EQ(ltsChunkSize(4 * 8 * 10, 8), 10);
  EXPECT_EQ(ltsChunkSize(4 * 4 * 25, 4), 25);
  // Huge loops saturate at 32 so chunks stay cache-friendly.
  EXPECT_EQ(ltsChunkSize(1000000, 2), 32);
  // Degenerate thread counts do not divide by zero.
  EXPECT_GE(ltsChunkSize(100, 0), 1);
}

}  // namespace
}  // namespace tsg
