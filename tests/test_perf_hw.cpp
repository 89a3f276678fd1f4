// Hardware-counter profiling and model validation:
//  * the "tsg-perf-2" report carries busy_seconds AND wall_seconds per
//    phase (no `seconds` alias) and declares its counter state via
//    `hw_counters`,
//  * degradation is forced (TSG_NO_HW_COUNTERS) and pinned: the report
//    omits every hardware field and nothing fails,
//  * probeHost() is internally consistent (peak = cores x GHz x
//    flops/cycle, measured roofline points sit under the roofs), and its
//    clock fallback chain (resolveGhz) takes each of its four sources,
//  * "tsg-modelcheck-1" emits the roofline table and the
//    measured-vs-predicted drift section,
//  * the fleet roll-up ("tsg-fleetperf-1") aggregates member phase
//    stats into quantiles and counts degraded/failed members honestly.

#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "ensemble/ensemble_runner.hpp"
#include "ensemble/fleet_perf.hpp"
#include "geometry/mesh_builder.hpp"
#include "kernels/reference_matrices.hpp"
#include "perf/host_metadata.hpp"
#include "perf/hw_counters.hpp"
#include "perf/model_validation.hpp"
#include "perf/perf_monitor.hpp"
#include "solver/time_clusters.hpp"

namespace tsg {
namespace {

/// Busy-wait long enough for the steady clock to register nonzero time.
void spinABit() {
  volatile double acc = 0;
  for (int i = 0; i < 200000; ++i) {
    acc = acc + 1e-9;
  }
  (void)acc;
}

/// Record one wave per phase the way the scheduler does: a wall-owner
/// PerfThreadRecorder brackets each wave (wall) around one busy bracket,
/// then flushes once.  PerfMonitor holds a mutex, so it is filled in
/// place rather than returned.
void measurePhases(PerfMonitor& m) {
  PerfThreadRecorder rec(&m, /*numClusters=*/1, /*wallOwner=*/true);
  for (int p = 0; p < kNumPhases; ++p) {
    rec.waveBegin();
    rec.begin();
    spinABit();
    rec.end(static_cast<Phase>(p), 0, /*elements=*/64,
            /*bytesEstimate=*/64 * 4096);
    rec.waveEnd(static_cast<Phase>(p));
  }
  rec.flush(/*thread=*/0);
}

PerfReportMeta minimalMeta() {
  PerfReportMeta meta;
  meta.scenario = "unit";
  meta.kernelPath = "fast";
  meta.backend = "batched";
  meta.isa = "scalar";
  meta.degree = 2;
  meta.threads = 1;
  meta.elements = 64;
  return meta;
}

// ------------------------------------------------------- tsg-perf-2

TEST(PerfReport, EmitsBusyAndWallSeconds) {
  PerfMonitor m;
  measurePhases(m);
  for (int p = 0; p < kNumPhases; ++p) {
    const Phase ph = static_cast<Phase>(p);
    const PhaseStats s = m.total(ph);
    EXPECT_GT(s.seconds, 0.0) << phaseName(ph);
    // The wave bracket encloses the busy bracket.
    EXPECT_GE(m.wallSeconds(ph), s.seconds) << phaseName(ph);
    EXPECT_EQ(s.invocations, 1u) << phaseName(ph);
    EXPECT_EQ(s.elementUpdates, 64u) << phaseName(ph);
    EXPECT_EQ(s.bytesEstimate, 64u * 4096u) << phaseName(ph);
  }
  EXPECT_DOUBLE_EQ(m.totalWallSeconds(),
                   m.wallSeconds(Phase::kPredictor) +
                       m.wallSeconds(Phase::kRuptureFlux) +
                       m.wallSeconds(Phase::kCorrector));

  const std::string json = perfReportJson(m, minimalMeta());
  EXPECT_NE(json.find("\"schema\": \"tsg-perf-2\""), std::string::npos);
  EXPECT_NE(json.find("\"busy_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"wall_seconds\""), std::string::npos);
  // The tsg-perf-1 `seconds` alias is gone (this report has no spans,
  // the only other place the key appears).
  EXPECT_EQ(json.find("\"seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"hw_counters\""), std::string::npos);
}

TEST(PerfReport, HostMetadataEmittedOnlyWhenProvided) {
  PerfMonitor m;
  measurePhases(m);
  const std::string bare = perfReportJson(m, minimalMeta());
  EXPECT_EQ(bare.find("\"host\""), std::string::npos);

  PerfReportMeta meta = minimalMeta();
  meta.host = collectHostMetadata();
  ASSERT_FALSE(meta.host.empty());
  EXPECT_NE(meta.host.count("nproc"), 0u);
  const std::string withHost = perfReportJson(m, meta);
  EXPECT_NE(withHost.find("\"host\""), std::string::npos);
  EXPECT_NE(withHost.find("\"nproc\""), std::string::npos);
}

// ------------------------------------------------- forced degradation

/// TSG_NO_HW_COUNTERS is read at group-open time, once per thread, so
/// the forced path needs a FRESH thread (this process's worker threads
/// may already hold open groups).
TEST(HwCounters, EnvVarForcesDegradedGroupOnFreshThread) {
  ASSERT_EQ(setenv("TSG_NO_HW_COUNTERS", "1", 1), 0);
  bool available = true;
  unsigned mask = 1;
  std::thread probe([&] {
    HwCounterGroup& g = threadHwCounters();
    available = g.available();
    mask = g.mask();
    const HwCounterSample s = g.sample();
    available = available || s.valid;
  });
  probe.join();
  unsetenv("TSG_NO_HW_COUNTERS");
  EXPECT_FALSE(available);
  EXPECT_EQ(mask, 0u);
}

TEST(HwCounters, DegradedRunOmitsHardwareFieldsAndSucceeds) {
  ASSERT_EQ(setenv("TSG_NO_HW_COUNTERS", "1", 1), 0);
  PerfMonitor m;
  m.enableHwCounters();
  // Recorder on a fresh thread: requests counters, finds the group
  // degraded, and must still measure and merge cleanly.
  std::thread worker([&m] {
    PerfThreadRecorder rec(&m, /*numClusters=*/1, /*wallOwner=*/true);
    rec.waveBegin();
    rec.begin();
    spinABit();
    rec.end(Phase::kPredictor, 0, /*elements=*/32, /*bytesEstimate=*/4096);
    rec.waveEnd(Phase::kPredictor);
    rec.flush(/*thread=*/0);
  });
  worker.join();
  unsetenv("TSG_NO_HW_COUNTERS");

  EXPECT_EQ(m.hwCounterMask(), 0u);
  const PhaseStats s = m.total(Phase::kPredictor);
  EXPECT_GT(s.seconds, 0.0);
  EXPECT_GT(m.wallSeconds(Phase::kPredictor), 0.0);
  EXPECT_EQ(s.hwSamples, 0u);
  EXPECT_EQ(s.cycles, 0u);

  const std::string json = perfReportJson(m, minimalMeta());
  EXPECT_NE(json.find("\"hw_counters\": false"), std::string::npos);
  EXPECT_EQ(json.find("\"ipc\""), std::string::npos);
  EXPECT_EQ(json.find("\"llc_miss_rate\""), std::string::npos);
  EXPECT_EQ(json.find("\"stalled_backend_cycles\""), std::string::npos);
}

TEST(HwCounters, LiveGroupProducesDeltasWhenHostAllows) {
  bool available = false;
  HwCounterDelta d;
  std::thread probe([&] {
    HwCounterGroup& g = threadHwCounters();
    available = g.available();
    if (!available) {
      return;
    }
    const HwCounterSample a = g.sample();
    spinABit();
    const HwCounterSample b = g.sample();
    d = hwCounterDelta(a, b, g.mask());
  });
  probe.join();
  if (!available) {
    GTEST_SKIP() << "perf_event_open unavailable on this host "
                    "(degradation covered by the tests above)";
  }
  EXPECT_TRUE(d.valid);
  EXPECT_GT(d.cycles, 0u);
}

// ------------------------------------------------------ host probing

TEST(HostProbe, InternallyConsistentPeakAndRidge) {
  const HostProbe host = probeHost(/*threads=*/1);
  EXPECT_EQ(host.threads, 1);
  EXPECT_GT(host.ghz, 0.4);
  EXPECT_LT(host.ghz, 7.0);
  // DP flops/cycle follows the dispatched ISA tier.
  EXPECT_TRUE(host.flopsPerCyclePerCore == 2 ||
              host.flopsPerCyclePerCore == 4 ||
              host.flopsPerCyclePerCore == 16 ||
              host.flopsPerCyclePerCore == 32)
      << host.flopsPerCyclePerCore;
  EXPECT_NEAR(host.peakGflops,
              host.threads * host.ghz * host.flopsPerCyclePerCore,
              1e-9 * host.peakGflops);
  // The stream microprobe measured actual traffic, and the ridge ties
  // the two roofs together.
  EXPECT_GT(host.streamGbytesPerS, 0.0);
  EXPECT_NEAR(host.ridgeFlopPerByte(),
              host.peakGflops / host.streamGbytesPerS, 1e-12);
  // The probe's single-node MachineSpec must carry the same peak.
  EXPECT_EQ(host.spec.node.physicalCores(), host.threads);
  EXPECT_NEAR(static_cast<double>(host.spec.peakGflopsPerNode),
              host.peakGflops, 1e-9 * host.peakGflops);
}

// The clock fallback chain, host-free: each source wins exactly when
// every earlier one yields nothing.
TEST(HostProbe, GhzFallbackChainTakesEachSource) {
  const std::string noRate = "Intel(R) Xeon(R) Processor";
  const std::string withRate = "Intel(R) Xeon(R) CPU E5-2680 v4 @ 2.40GHz";
  const std::string cpuinfo =
      "processor\t: 0\nmodel name\t: Intel(R) Xeon(R) Processor\n"
      "cpu MHz\t\t: 2100.000\n";

  GhzEstimate g = resolveGhz(3.1, withRate, cpuinfo);
  EXPECT_EQ(g.source, GhzSource::kCycleCounter);
  EXPECT_DOUBLE_EQ(g.ghz, 3.1);

  g = resolveGhz(0, withRate, cpuinfo);
  EXPECT_EQ(g.source, GhzSource::kCpuModel);
  EXPECT_DOUBLE_EQ(g.ghz, 2.4);

  // A model string without a rate falls through to /proc/cpuinfo.
  g = resolveGhz(0, noRate, cpuinfo);
  EXPECT_EQ(g.source, GhzSource::kCpuMhz);
  EXPECT_DOUBLE_EQ(g.ghz, 2.1);

  g = resolveGhz(0, noRate, "processor\t: 0\n");
  EXPECT_EQ(g.source, GhzSource::kDefault);
  EXPECT_DOUBLE_EQ(g.ghz, 2.5);

  // One report spelling per source, all distinct.
  const std::vector<std::string> names = {
      ghzSourceName(GhzSource::kCycleCounter),
      ghzSourceName(GhzSource::kCpuModel), ghzSourceName(GhzSource::kCpuMhz),
      ghzSourceName(GhzSource::kDefault)};
  EXPECT_EQ(names, (std::vector<std::string>{"cycle_counter", "cpu_model",
                                             "cpu_mhz", "default"}));
}

TEST(HostProbe, RooflinePointsSitUnderTheRoofs) {
  const HostProbe host = probeHost(/*threads=*/1);
  PerfMonitor m;
  measurePhases(m);
  const std::vector<PhaseRoofline> phases = rooflinePhases(m, host);
  ASSERT_FALSE(phases.empty());
  for (const PhaseRoofline& r : phases) {
    EXPECT_GT(r.busySeconds, 0.0);
    EXPECT_GE(r.flopPerByte, 0.0);
    EXPECT_GE(r.fractionOfRoof, 0.0);
    // The spin-only monitor did no counted FLOPs, so every point
    // must sit (far) below peak; the classification itself must agree
    // with the ridge (zero-intensity phases carry no signal and are
    // never called memory-bound).
    EXPECT_LE(r.gflops, host.peakGflops * (1 + 1e-9));
    EXPECT_EQ(r.memoryBound,
              r.flopPerByte > 0 && r.flopPerByte < host.ridgeFlopPerByte());
  }
}

// -------------------------------------------------- tsg-modelcheck-1

TEST(ModelCheck, SchemaCarriesRooflineAndDrift) {
  BoxMeshSpec spec;
  spec.xLines = uniformLine(0, 1, 5);
  spec.yLines = uniformLine(0, 1, 5);
  spec.zLines = {0.0, 0.5, 0.8, 1.0};
  spec.material = [](const Vec3& c) { return c[2] > 0.8 ? 1 : 0; };
  spec.boundary = [](const Vec3&, const Vec3& nrm) {
    return nrm[2] > 0.5 ? BoundaryType::kGravityFreeSurface
                        : BoundaryType::kAbsorbing;
  };
  const Mesh mesh = buildBoxMesh(spec);
  std::vector<Material> mats(mesh.numElements());
  for (int e = 0; e < mesh.numElements(); ++e) {
    mats[e] = mesh.elements[e].material == 1
                  ? Material::acoustic(1000, 1500)
                  : Material::fromVelocities(2700, 6000, 3464);
  }
  const ClusterLayout clusters = buildClusters(mesh, mats, 3, 0.35, 2, 12);

  PerfMonitor m;
  measurePhases(m);
  const HostProbe host = probeHost(/*threads=*/1);
  ModelCheckMeta meta;
  meta.scenario = "unit";
  meta.backend = "batched";
  meta.isa = host.isa;
  meta.threads = 1;
  meta.macroCycles = 3;

  const std::string json =
      modelCheckJson(mesh, clusters, referenceMatrices(2), m, host, meta);
  EXPECT_NE(json.find("\"schema\": \"tsg-modelcheck-1\""), std::string::npos);
  EXPECT_NE(json.find("\"machine\""), std::string::npos);
  EXPECT_NE(json.find("\"peak_gflops\""), std::string::npos);
  EXPECT_NE(json.find("\"stream_gbytes_per_s\""), std::string::npos);
  EXPECT_NE(json.find("\"roofline\""), std::string::npos);
  EXPECT_NE(json.find("\"bound\""), std::string::npos);
  EXPECT_NE(json.find("\"drift\""), std::string::npos);
  EXPECT_NE(json.find("\"macro_cycles\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"measured_macro_cycle_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"predicted_macro_cycle_seconds\""),
            std::string::npos);
  EXPECT_NE(json.find("\"measured_over_predicted\""), std::string::npos);
  EXPECT_NE(json.find("\"per_cluster\""), std::string::npos);
  // Degradation provenance is always declared.
  EXPECT_NE(json.find("\"ghz_source\": \"" +
                      std::string(ghzSourceName(host.ghzSource)) + "\""),
            std::string::npos);
  EXPECT_NE(json.find("\"intensity_source\""), std::string::npos);
}

// -------------------------------------------------- tsg-fleetperf-1

TEST(FleetPerf, AggregatesPhaseQuantilesAcrossMembers) {
  EnsembleResult result;
  result.wallSeconds = 4.0;
  result.assetsBuilt = 1;
  result.assetCacheHits = 2;
  result.assetBuildSeconds = 0.5;
  result.members.resize(3);
  for (int i = 0; i < 3; ++i) {
    MemberOutcome& m = result.members[i];
    m.index = i;
    m.prefix = "fleet_member_" + std::to_string(i);
    m.wallSeconds = 1.0 + i;
  }
  // Members 0 and 1 measured; member 2 failed.
  for (int i = 0; i < 2; ++i) {
    MemberOutcome& m = result.members[i];
    m.ok = true;
    // Binary-exact values: jsonNumber prints %.17g verbatim.
    m.result.perfPhases = {
        {"predictor", 0.25 + 0.25 * i, 0.125 + 0.125 * i, 10.0 + i},
        {"corrector", 0.5, 0.25, 5.0},
    };
  }
  result.members[2].error = "diverged";

  const std::string json = fleetPerfJson(result);
  EXPECT_NE(json.find("\"schema\": \"tsg-fleetperf-1\""), std::string::npos);
  EXPECT_NE(json.find("\"members_total\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"members_ok\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"members_failed\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"members_with_perf\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"phase\": \"predictor\""), std::string::npos);
  EXPECT_NE(json.find("\"phase\": \"corrector\""), std::string::npos);
  EXPECT_NE(json.find("\"busy_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"wall_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"median\""), std::string::npos);
  // Predictor busy quantiles of {0.25, 0.5}.
  EXPECT_NE(json.find("\"min\": 0.25"), std::string::npos);
  EXPECT_NE(json.find("\"max\": 0.5"), std::string::npos);
  // Asset-cache economics.
  EXPECT_NE(json.find("\"builds\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"hits\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"seconds_per_build\": 0.5"), std::string::npos);
  // Member drill-down: perf reports referenced only where they exist.
  EXPECT_NE(json.find("fleet_member_0_perf.json"), std::string::npos);
  EXPECT_EQ(json.find("fleet_member_2_perf.json"), std::string::npos);
}

}  // namespace
}  // namespace tsg
