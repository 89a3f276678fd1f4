#pragma once

// Machine models for the cluster simulator (DESIGN.md substitution for the
// paper's three petascale systems, Sec. 6).
//
// A machine is a collection of identical nodes (sockets x NUMA domains x
// cores) plus an interconnect.  Per-node performance variability is
// modelled explicitly: the paper measures node weights of 4.54 +- 0.087
// with a 2.74 outlier on SuperMUC-NG (i.e. the slowest node at 60.4% of
// average) and 3.34 +- 0.023 on Shaheen-II (Sec. 6.2).

#include <string>
#include <vector>

#include "common/types.hpp"

namespace tsg {

struct NodeTopology {
  int sockets = 2;
  int numaPerSocket = 1;
  int coresPerNuma = 24;
  int threadsPerCore = 2;  // SMT

  int numaDomains() const { return sockets * numaPerSocket; }
  int physicalCores() const { return numaDomains() * coresPerNuma; }
  int logicalCpus() const { return physicalCores() * threadsPerCore; }
};

struct InterconnectModel {
  real latency = 1.5e-6;           // [s] per message
  real bandwidth = 10e9;           // [B/s] per node
  int nodesPerIsland = 0;          // 0 = flat network
  real islandPruningFactor = 1.0;  // bandwidth divisor across islands
};

struct MachineSpec {
  std::string name;
  NodeTopology node;
  InterconnectModel network;
  int maxNodes = 0;
  /// Peak double-precision GFLOPS of one node.
  real peakGflopsPerNode = 0;
  /// Achievable fraction of peak for the ADER-DG kernels when one rank
  /// spans a single NUMA domain (from the Sec. 5.1 measurements).
  real kernelEfficiencySingleNuma = 0.56;
  /// Relative penalty per additional NUMA domain spanned by one rank
  /// (calibrated from Sec. 5.1: the full AMD Rome node reaches 38% of peak
  /// while the single-NUMA extrapolation predicts 56%).
  real numaPenaltyPerDomain = 0.0665;
  /// Node speed variability: relative standard deviation and the slowest
  /// outlier fraction of average speed.
  real nodeSpeedSigma = 0.02;
  real slowestNodeFraction = 1.0;
  int slowNodeCount = 0;  // number of outlier nodes at slowestNodeFraction
};

/// SuperMUC-NG-like: dual-socket Intel Skylake 8174, 24 cores per socket,
/// 8 islands with 1:4 pruned OmniPath (Sec. 6).
MachineSpec superMucNg();
/// Mahti-like: dual-socket AMD Rome 7H12, 64 cores / 4 NUMA domains per
/// socket, Dragonfly+ InfiniBand (Sec. 6; node-level data from Sec. 5.1).
MachineSpec mahti();
/// Shaheen-II-like: dual-socket Intel Haswell E5-2698v3, Aries Dragonfly.
MachineSpec shaheen2();

/// Deterministic per-node speed factors (mean ~1) including outliers;
/// with nodeSpeedSigma <= 0 every node but the outliers is exactly 1.
std::vector<real> nodeSpeedFactors(const MachineSpec& machine, int nodes,
                                   unsigned seed);

}  // namespace tsg
