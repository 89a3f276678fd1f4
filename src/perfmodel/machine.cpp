#include "perfmodel/machine.hpp"

#include <algorithm>
#include <random>

namespace tsg {

MachineSpec superMucNg() {
  MachineSpec m;
  m.name = "SuperMUC-NG";
  m.node.sockets = 2;
  m.node.numaPerSocket = 1;
  m.node.coresPerNuma = 24;
  m.node.threadsPerCore = 2;
  m.network.latency = 1.5e-6;
  m.network.bandwidth = 12.5e9;  // OmniPath 100 Gbit/s
  m.network.nodesPerIsland = 792;
  m.network.islandPruningFactor = 4.0;
  m.maxNodes = 6336;
  // 48 cores * 2.3 GHz (AVX-512 base) * 32 flop/cycle.
  m.peakGflopsPerNode = 48 * 2.3 * 32;
  m.kernelEfficiencySingleNuma = 0.45;
  m.numaPenaltyPerDomain = 0.04;
  // Sec. 6.2: weights 4.54 +- 0.087, min 2.74 => slowest at 60.4%.
  m.nodeSpeedSigma = 0.087 / 4.54;
  m.slowestNodeFraction = 0.604;
  m.slowNodeCount = 2;
  return m;
}

MachineSpec mahti() {
  MachineSpec m;
  m.name = "Mahti";
  m.node.sockets = 2;
  m.node.numaPerSocket = 4;
  m.node.coresPerNuma = 16;
  m.node.threadsPerCore = 2;
  m.network.latency = 1.0e-6;
  m.network.bandwidth = 25e9;  // HDR InfiniBand
  m.network.nodesPerIsland = 0;  // Dragonfly+: treat as flat
  m.network.islandPruningFactor = 1.0;
  m.maxNodes = 1404;
  // Sec. 5.1: 128 cores * 2.6 GHz * 16 flop/cycle = 5325 GFLOPS.
  m.peakGflopsPerNode = 5325;
  // Sec. 5.1 measurements: predictor+corrector 56% of peak on one NUMA
  // domain, 38% on the whole node (8 domains).
  m.kernelEfficiencySingleNuma = 0.56;
  m.numaPenaltyPerDomain = 0.0665;
  m.nodeSpeedSigma = 0.015;
  m.slowestNodeFraction = 0.9;
  m.slowNodeCount = 1;
  return m;
}

MachineSpec shaheen2() {
  MachineSpec m;
  m.name = "Shaheen-II";
  m.node.sockets = 2;
  m.node.numaPerSocket = 1;
  m.node.coresPerNuma = 16;
  m.node.threadsPerCore = 2;
  m.network.latency = 1.2e-6;
  m.network.bandwidth = 8e9;  // Aries
  m.network.nodesPerIsland = 0;
  m.network.islandPruningFactor = 1.0;
  m.maxNodes = 6174;
  // 32 cores * 2.3 GHz * 16 flop/cycle.
  m.peakGflopsPerNode = 32 * 2.3 * 16;
  m.kernelEfficiencySingleNuma = 0.42;
  m.numaPenaltyPerDomain = 0.035;
  // Sec. 6.2: weights 3.34 +- 0.023, min 3.19 => slowest at 95.5%.
  m.nodeSpeedSigma = 0.023 / 3.34;
  m.slowestNodeFraction = 0.955;
  m.slowNodeCount = 2;
  return m;
}

std::vector<real> nodeSpeedFactors(const MachineSpec& machine, int nodes,
                                   unsigned seed) {
  std::mt19937 rng(seed);
  // A spread of zero (the probed single host) leaves every node at 1:
  // std::normal_distribution requires a positive standard deviation.
  std::vector<real> f(nodes, real(1));
  if (machine.nodeSpeedSigma > 0) {
    std::normal_distribution<real> gauss(1.0, machine.nodeSpeedSigma);
    for (int i = 0; i < nodes; ++i) {
      f[i] = std::max(real(0.5), gauss(rng));
    }
  }
  // Deterministically scatter the slow outliers; tiny allocations (as in
  // the paper's 50-node baselines) rarely catch one.
  std::uniform_int_distribution<int> pick(0, nodes - 1);
  const int outliers = nodes >= 12 ? machine.slowNodeCount : 0;
  for (int s = 0; s < outliers; ++s) {
    f[pick(rng)] = machine.slowestNodeFraction;
  }
  return f;
}

}  // namespace tsg
