#include "perf/model_validation.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "io/atomic_file.hpp"
#include "kernels/backends/isa_dispatch.hpp"
#include "perf/host_metadata.hpp"
#include "perf/hw_counters.hpp"
#include "perfmodel/exec_model.hpp"

namespace tsg {

namespace {

double nowSeconds() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

/// DP flops/cycle of one core for the dispatched fast ISA: vector lanes
/// x 2 (fused multiply-add).  The scalar path still dual-issues
/// add+mul on every x86-64 of interest, hence 2.
double flopsPerCycle(FastIsa isa) {
  switch (isa) {
    case FastIsa::kAvx512:
      return 32;
    case FastIsa::kAvx2:
      return 16;
    case FastIsa::kSse2:
      return 4;
    case FastIsa::kScalar:
      return 2;
  }
  return 2;
}

/// Sustained clock from the hardware cycle counter: spin ~30 ms on this
/// thread and divide the cycles delta by the elapsed wall time.  Returns
/// 0 when counters are unavailable.
double ghzFromCycleCounter() {
  HwCounterGroup group;
  if (!group.available()) {
    return 0;
  }
  // Dependent-add spin: keeps the core busy so the governor clocks up.
  volatile double sink = 1.0;
  const HwCounterSample s0 = group.sample();
  const double t0 = nowSeconds();
  double x = 1.0;
  do {
    for (int i = 0; i < 1 << 16; ++i) {
      x = x * 1.0000001 + 1e-9;
    }
    sink = x;
  } while (nowSeconds() - t0 < 0.03);
  (void)sink;
  const double t1 = nowSeconds();
  const HwCounterDelta d = hwCounterDelta(s0, group.sample(), group.mask());
  if (!d.valid || d.cycles == 0 || t1 <= t0) {
    return 0;
  }
  return static_cast<double>(d.cycles) / (t1 - t0) / 1e9;
}

/// "... CPU @ 3.50GHz" -> 3.5; 0 when the model string has no rate.
double ghzFromModelString(const std::string& model) {
  const std::size_t at = model.rfind("Hz");
  if (at == std::string::npos) {
    return 0;
  }
  // Walk back over "GHz"/"MHz" and the number before it.
  std::size_t end = at;
  double scale = 1.0;
  if (end >= 1 && (model[end - 1] == 'G' || model[end - 1] == 'g')) {
    scale = 1.0;
    --end;
  } else if (end >= 1 && (model[end - 1] == 'M' || model[end - 1] == 'm')) {
    scale = 1e-3;
    --end;
  } else {
    return 0;
  }
  std::size_t start = end;
  while (start > 0 &&
         (std::isdigit(static_cast<unsigned char>(model[start - 1])) ||
          model[start - 1] == '.')) {
    --start;
  }
  if (start == end) {
    return 0;
  }
  return std::atof(model.substr(start, end - start).c_str()) * scale;
}

/// First "cpu MHz" line of /proc/cpuinfo text (current, not max; still a
/// usable fallback).  0 when absent.
double ghzFromCpuinfo(const std::string& cpuinfo) {
  std::istringstream in(cpuinfo);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("cpu MHz", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return std::atof(line.c_str() + colon + 1) * 1e-3;
      }
    }
  }
  return 0;
}

/// Measured stream-triad bandwidth [GB/s] with `threads` OpenMP threads:
/// a[i] = b[i] + s * c[i] over arrays far larger than any LLC, counting
/// the classic 24 bytes per element (two reads, one write), best of
/// three repetitions.
double streamTriadGbytesPerS(int threads) {
  // 3 x 32 MiB: comfortably DRAM-resident, still < 0.1 s to probe.
  const std::size_t n = (32u << 20) / sizeof(double);
  std::vector<double> a(n, 0.0), b(n, 1.0), c(n, 2.0);
  const double s = 3.0;
  double best = 0;
  for (int rep = 0; rep < 3; ++rep) {
    const double t0 = nowSeconds();
#ifdef _OPENMP
#pragma omp parallel for num_threads(threads) schedule(static)
#endif
    for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(n); ++i) {
      a[i] = b[i] + s * c[i];
    }
    const double dt = nowSeconds() - t0;
    if (dt > 0) {
      best = std::max(best, 24.0 * static_cast<double>(n) / dt / 1e9);
    }
    std::swap(a, b);  // keep the compiler from hoisting reps
  }
  return best;
}

std::string readFile(const char* path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

const char* ghzSourceName(GhzSource source) {
  switch (source) {
    case GhzSource::kCycleCounter:
      return "cycle_counter";
    case GhzSource::kCpuModel:
      return "cpu_model";
    case GhzSource::kCpuMhz:
      return "cpu_mhz";
    case GhzSource::kDefault:
      return "default";
  }
  return "default";
}

GhzEstimate resolveGhz(double cycleCounterGhz, const std::string& cpuModel,
                       const std::string& cpuinfo) {
  if (cycleCounterGhz > 0) {
    return {cycleCounterGhz, GhzSource::kCycleCounter};
  }
  if (const double g = ghzFromModelString(cpuModel); g > 0) {
    return {g, GhzSource::kCpuModel};
  }
  if (const double g = ghzFromCpuinfo(cpuinfo); g > 0) {
    return {g, GhzSource::kCpuMhz};
  }
  return {2.5, GhzSource::kDefault};
}

HostProbe probeHost(int threads) {
  HostProbe probe;
  if (threads <= 0) {
#ifdef _OPENMP
    threads = omp_get_max_threads();
#else
    threads = 1;
#endif
  }
  probe.threads = threads;

  const FastIsa isa = resolveFastIsa();
  probe.isa = fastIsaName(isa);
  probe.flopsPerCyclePerCore = flopsPerCycle(isa);

  const GhzEstimate clock = resolveGhz(
      ghzFromCycleCounter(), cpuModelString(), readFile("/proc/cpuinfo"));
  probe.ghz = clock.ghz;
  probe.ghzSource = clock.source;
  probe.peakGflops = threads * probe.ghz * probe.flopsPerCyclePerCore;
  probe.streamGbytesPerS = streamTriadGbytesPerS(threads);

  MachineSpec& spec = probe.spec;
  spec.name = "host";
  spec.node.sockets = 1;
  spec.node.numaPerSocket = 1;
  spec.node.coresPerNuma = threads;
  spec.node.threadsPerCore = 1;
  spec.maxNodes = 1;
  spec.peakGflopsPerNode = static_cast<real>(probe.peakGflops);
  // kernelEfficiencySingleNuma / numaPenaltyPerDomain keep their
  // paper-calibrated defaults: they are part of the model under test.
  spec.nodeSpeedSigma = 0;
  spec.slowestNodeFraction = 1.0;
  spec.slowNodeCount = 0;
  return probe;
}

std::vector<PhaseRoofline> rooflinePhases(const PerfMonitor& m,
                                          const HostProbe& host) {
  std::vector<PhaseRoofline> out;
  const double ridge = host.ridgeFlopPerByte();
  for (int p = 0; p < kNumPhases; ++p) {
    const Phase phase = static_cast<Phase>(p);
    const PhaseStats s = m.total(phase);
    if (s.seconds <= 0) {
      continue;
    }
    PhaseRoofline r;
    r.phase = phase;
    r.busySeconds = s.seconds;
    r.wallSeconds = m.wallSeconds(phase);
    const double wall = r.wallSeconds > 0 ? r.wallSeconds : r.busySeconds;
    r.gflops = static_cast<double>(s.flops) / wall / 1e9;
    // Arithmetic intensity: measured DRAM traffic (LLC misses x 64 B)
    // when counters were live, analytic bytes model otherwise.
    double bytes = 0;
    if (s.hwSamples > 0 && s.llcMisses > 0) {
      bytes = static_cast<double>(s.llcMisses) * 64.0;
      r.measuredBytes = true;
    } else {
      bytes = static_cast<double>(s.bytesEstimate);
    }
    r.flopPerByte = bytes > 0 ? static_cast<double>(s.flops) / bytes : 0.0;
    r.gbytesPerS = bytes / wall / 1e9;
    r.memoryBound = ridge > 0 && r.flopPerByte > 0 && r.flopPerByte < ridge;
    if (r.memoryBound) {
      r.fractionOfRoof = host.streamGbytesPerS > 0
                             ? r.gbytesPerS / host.streamGbytesPerS
                             : 0.0;
    } else {
      r.fractionOfRoof =
          host.peakGflops > 0 ? r.gflops / host.peakGflops : 0.0;
    }
    out.push_back(r);
  }
  return out;
}

std::string modelCheckJson(const Mesh& mesh, const ClusterLayout& clusters,
                           const ReferenceMatrices& rm, const PerfMonitor& m,
                           const HostProbe& host, const ModelCheckMeta& meta) {
  // ---- model prediction for this mesh/partition on this host ----------
  RunConfig cfg;
  cfg.nodes = 1;
  cfg.ranksPerNode = 1;
  cfg.useNodeWeights = false;
  cfg.referenceElementsPerNode = 0;  // single rank: no comm to rescale
  const SimulatedRun sim = simulateRun(mesh, clusters, rm, host.spec, cfg);

  std::string out = "{\n";
  char buf[256];
  out += "  \"schema\": \"tsg-modelcheck-1\",\n";
  out += "  \"scenario\": " + jsonQuote(meta.scenario) + ",\n";
  out += "  \"backend\": " + jsonQuote(meta.backend) + ",\n";
  out += "  \"isa\": " + jsonQuote(meta.isa) + ",\n";
  std::snprintf(buf, sizeof buf, "  \"threads\": %d,\n", meta.threads);
  out += buf;
  out += "  \"hw_counters\": ";
  out += (m.hwCounterMask() != 0) ? "true" : "false";
  out += ",\n";

  // ---- host machine ----------------------------------------------------
  out += "  \"machine\": {";
  std::snprintf(buf, sizeof buf,
                "\"cores\": %d, \"isa\": %s, \"ghz\": %s, "
                "\"ghz_source\": %s, \"flops_per_cycle_per_core\": %s, ",
                host.threads, jsonQuote(host.isa).c_str(),
                jsonNumber(host.ghz).c_str(),
                jsonQuote(ghzSourceName(host.ghzSource)).c_str(),
                jsonNumber(host.flopsPerCyclePerCore).c_str());
  out += buf;
  std::snprintf(buf, sizeof buf,
                "\"peak_gflops\": %s, \"stream_gbytes_per_s\": %s, "
                "\"ridge_flop_per_byte\": %s",
                jsonNumber(host.peakGflops).c_str(),
                jsonNumber(host.streamGbytesPerS).c_str(),
                jsonNumber(host.ridgeFlopPerByte()).c_str());
  out += buf;
  out += "},\n";

  // ---- roofline --------------------------------------------------------
  out += "  \"roofline\": [\n";
  const std::vector<PhaseRoofline> phases = rooflinePhases(m, host);
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const PhaseRoofline& r = phases[i];
    out += "    {\"phase\": " + std::string(jsonQuote(phaseName(r.phase)));
    std::snprintf(buf, sizeof buf,
                  ", \"busy_seconds\": %s, \"wall_seconds\": %s, "
                  "\"gflops\": %s, \"flop_per_byte\": %s, "
                  "\"gbytes_per_s\": %s, ",
                  jsonNumber(r.busySeconds).c_str(),
                  jsonNumber(r.wallSeconds).c_str(),
                  jsonNumber(r.gflops).c_str(),
                  jsonNumber(r.flopPerByte).c_str(),
                  jsonNumber(r.gbytesPerS).c_str());
    out += buf;
    out += "\"bound\": ";
    out += r.memoryBound ? "\"memory\"" : "\"compute\"";
    out += ", \"fraction_of_roof\": " + jsonNumber(r.fractionOfRoof);
    out += ", \"intensity_source\": ";
    out += r.measuredBytes ? "\"llc_misses\"" : "\"analytic\"";
    out += "}";
    out += (i + 1 < phases.size()) ? ",\n" : "\n";
  }
  out += "  ],\n";

  // ---- drift: measured vs exec_model prediction ------------------------
  const double cycles =
      meta.macroCycles > 0 ? static_cast<double>(meta.macroCycles) : 1.0;
  const double measuredCycleWall = m.totalWallSeconds() / cycles;
  const double predicted = static_cast<double>(sim.macroCycleSeconds);
  out += "  \"drift\": {\n";
  std::snprintf(buf, sizeof buf,
                "    \"macro_cycles\": %llu,\n"
                "    \"measured_macro_cycle_seconds\": %s,\n"
                "    \"predicted_macro_cycle_seconds\": %s,\n"
                "    \"measured_over_predicted\": %s,\n",
                static_cast<unsigned long long>(meta.macroCycles),
                jsonNumber(measuredCycleWall).c_str(),
                jsonNumber(predicted).c_str(),
                jsonNumber(predicted > 0 ? measuredCycleWall / predicted : 0)
                    .c_str());
  out += buf;
  out += "    \"per_cluster\": [";
  // Measured per-cluster busy seconds (all phases) per macro cycle vs
  // the model's clusterSeconds.  Busy, not wall: a wave's wall cannot be
  // attributed to one cluster, so compare the work content instead --
  // drift here localises mispredicted cluster cost, while the
  // macro-cycle ratio above carries the wall-level verdict.
  std::size_t maxClusters = sim.clusterSeconds.size();
  for (int p = 0; p < kNumPhases; ++p) {
    maxClusters = std::max(
        maxClusters, m.perCluster(static_cast<Phase>(p)).size());
  }
  for (std::size_t c = 0; c < maxClusters; ++c) {
    double busy = 0;
    for (int p = 0; p < kNumPhases; ++p) {
      const auto& perCluster = m.perCluster(static_cast<Phase>(p));
      if (c < perCluster.size()) {
        busy += perCluster[c].seconds;
      }
    }
    const double measured = busy / cycles;
    const double pred =
        c < sim.clusterSeconds.size()
            ? static_cast<double>(sim.clusterSeconds[c])
            : 0.0;
    if (c) {
      out += ',';
    }
    std::snprintf(buf, sizeof buf,
                  "{\"cluster\":%d,\"measured_busy_seconds\":%s,"
                  "\"predicted_seconds\":%s,\"ratio\":%s}",
                  static_cast<int>(c), jsonNumber(measured).c_str(),
                  jsonNumber(pred).c_str(),
                  jsonNumber(pred > 0 ? measured / pred : 0).c_str());
    out += buf;
  }
  out += "]\n  },\n";

  // ---- host metadata ---------------------------------------------------
  out += "  \"host\": {";
  bool first = true;
  for (const auto& [key, value] : collectHostMetadata()) {
    if (!first) {
      out += ", ";
    }
    first = false;
    out += jsonQuote(key) + ": " + jsonQuote(value);
  }
  out += "}\n}\n";
  return out;
}

void writeModelCheckReport(const std::string& path, const Mesh& mesh,
                           const ClusterLayout& clusters,
                           const ReferenceMatrices& rm, const PerfMonitor& m,
                           const HostProbe& host, const ModelCheckMeta& meta) {
  atomicWriteFile(path, modelCheckJson(mesh, clusters, rm, m, host, meta));
}

}  // namespace tsg
