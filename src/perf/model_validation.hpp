#pragma once

// Closes the loop between the paper-shaped performance *model*
// (perfmodel/exec_model simulating Secs. 6.2/6.3 machines) and a real
// run of our own solver on this host (paper Sec. 5.1 measures sustained
// GFLOPS against peak; Fig. 6 compares model and measurement shapes).
//
// Three pieces:
//  * probeHost(): builds a single-node MachineSpec for THIS host --
//    cores from the runtime, a peak-GF/s estimate (cores x sustained GHz
//    x ISA-dependent DP flops/cycle, GHz measured with the cycle counter
//    when perf events are available, else parsed from the CPU model
//    string or /proc/cpuinfo -- see resolveGhz), and a measured
//    stream-triad memory bandwidth microprobe;
//  * rooflinePhases(): classifies each measured phase of a PerfMonitor
//    against that machine's roofline -- arithmetic intensity from
//    LLC-miss traffic when hardware counters were live (falling back to
//    the analytic bytes estimate), memory- vs compute-bound by the ridge
//    point, and the fraction of the respective roof attained;
//  * modelCheckJson(): the "tsg-modelcheck-1" report -- the roofline
//    table plus a drift section diffing the measured macro-cycle wall
//    (and per-cluster busy seconds) against exec_model's
//    macroCycleSeconds / clusterSeconds prediction for the same mesh,
//    cluster layout, and host spec.  measured_over_predicted ~ 1 means
//    the paper-calibrated model transfers to this host; large drift
//    localises to clusters/phases via the two breakdowns.
//
// Everything degrades like the counters do: without hardware counters
// the roofline falls back to analytic intensities and GHz parsing, and
// the report says which source it used (`intensity_source`,
// `ghz_source`).

#include <cstdint>
#include <string>
#include <vector>

#include "geometry/mesh.hpp"
#include "kernels/reference_matrices.hpp"
#include "perf/perf_monitor.hpp"
#include "perfmodel/machine.hpp"
#include "solver/time_clusters.hpp"

namespace tsg {

/// Where HostProbe::ghz came from, in fallback order.
enum class GhzSource {
  kCycleCounter,  // measured with the hardware cycle counter
  kCpuModel,      // parsed from the CPU model string ("... @ 3.50GHz")
  kCpuMhz,        // first "cpu MHz" line of /proc/cpuinfo
  kDefault,       // nothing available: a 2.5 GHz guess
};

/// "cycle_counter" | "cpu_model" | "cpu_mhz" | "default" -- the report's
/// `ghz_source` spelling.
const char* ghzSourceName(GhzSource source);

struct GhzEstimate {
  double ghz = 0;
  GhzSource source = GhzSource::kDefault;
};

/// probeHost's clock fallback chain as a pure function of its inputs:
/// the cycle-counter measurement (0 when counters are unavailable), the
/// CPU model string, and the /proc/cpuinfo text.  Takes the first source
/// that yields a positive rate.
GhzEstimate resolveGhz(double cycleCounterGhz, const std::string& cpuModel,
                       const std::string& cpuinfo);

/// This host, probed: a single-node MachineSpec plus the measured
/// numbers backing it.
struct HostProbe {
  MachineSpec spec;   // name "host"; 1 socket x 1 NUMA x `threads` cores
  int threads = 0;    // worker threads the peak estimate assumes
  std::string isa;    // fast-ISA the dispatcher selects here
  double ghz = 0;               // sustained clock estimate
  GhzSource ghzSource = GhzSource::kDefault;
  double flopsPerCyclePerCore = 0;  // DP flops/cycle for `isa`
  double peakGflops = 0;            // threads * ghz * flopsPerCycle
  double streamGbytesPerS = 0;      // measured triad bandwidth (all threads)

  /// Roofline ridge point [flop/byte]: intensities below are memory-bound.
  double ridgeFlopPerByte() const {
    return streamGbytesPerS > 0 ? peakGflops / streamGbytesPerS : 0.0;
  }
};

/// Probe the current host.  `threads` <= 0 uses the OpenMP max-threads
/// count.  Runs a short (~0.1 s) bandwidth microprobe; never throws.
HostProbe probeHost(int threads = 0);

/// One phase against the host roofline.
struct PhaseRoofline {
  Phase phase = Phase::kPredictor;
  double busySeconds = 0;
  double wallSeconds = 0;
  double gflops = 0;        // flops / wall seconds (machine-level rate)
  double flopPerByte = 0;   // arithmetic intensity
  double gbytesPerS = 0;    // DRAM traffic / wall seconds
  bool memoryBound = false; // intensity below the ridge point
  double fractionOfRoof = 0;  // of the respective (bandwidth/peak) roof
  bool measuredBytes = false;  // intensity from LLC misses vs analytic
};

/// Classify every phase with nonzero busy time.
std::vector<PhaseRoofline> rooflinePhases(const PerfMonitor& m,
                                          const HostProbe& host);

struct ModelCheckMeta {
  std::string scenario;
  std::string backend;
  std::string isa;
  int threads = 0;
  std::uint64_t macroCycles = 0;  // measured macro cycles in the monitor
};

/// The "tsg-modelcheck-1" document: host machine, per-phase roofline,
/// and measured-vs-predicted drift (exec_model on `host.spec`, same
/// mesh/clusters).  Runs the model's partition internally (cheap at our
/// mesh sizes: single rank).
std::string modelCheckJson(const Mesh& mesh, const ClusterLayout& clusters,
                           const ReferenceMatrices& rm, const PerfMonitor& m,
                           const HostProbe& host, const ModelCheckMeta& meta);

/// Atomic write of modelCheckJson.
void writeModelCheckReport(const std::string& path, const Mesh& mesh,
                           const ClusterLayout& clusters,
                           const ReferenceMatrices& rm, const PerfMonitor& m,
                           const HostProbe& host, const ModelCheckMeta& meta);

}  // namespace tsg
