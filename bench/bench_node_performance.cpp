// Reproduces Sec. 5.1 (node-level performance): a performance reproducer
// for the wave-propagation part of the scheme, measuring the predictor
// step alone and the full predictor+corrector update.
//
// The paper's absolute numbers are for a dual-socket AMD Rome 7H12
// (peak 5325 GFLOPS): predictor-only 3360 GFLOPS (63% of peak) full node /
// 428 GFLOPS single NUMA domain; predictor+corrector 2053 GFLOPS (38%) /
// 376 GFLOPS.  We measure the same kernels on this host (google-benchmark)
// and print the achieved fraction of this host's scalar peak next to the
// paper's fractions, plus the NUMA-model table the cluster simulator uses.
//
// A second table times the tile-stage kernels themselves (the
// StageKernels table of every ISA variant this host can execute) on the
// megathrust production shapes: degree 2 (nb = 10), a full batch of 16
// lanes (ld = 144).  The lane-tile predictor and volume stages read star
// groups packed from real star matrices (kernels/star_operand.hpp), so
// they skip the structural zeros as in production; their FLOPs are the
// dense count, the solver's accounting.  It reports GFLOP/s and
// flop/cycle per core, so a variant that silently stopped vectorising
// shows up as a ratio near 1 against `scalar`.  Written to
// node_performance_stages.csv.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <random>
#include <vector>

#include "common/flops.hpp"
#include "common/table.hpp"
#include "kernels/backends/isa_dispatch.hpp"
#include "kernels/batch_layout.hpp"
#include "kernels/element_kernels.hpp"
#include "kernels/reference_matrices.hpp"
#include "kernels/star_operand.hpp"
#include "perf/model_validation.hpp"
#include "perfmodel/machine.hpp"
#include "physics/jacobians.hpp"
#include "physics/material.hpp"

using namespace tsg;

namespace {

struct Reproducer {
  const ReferenceMatrices& rm;
  int numElements;
  std::vector<real> dofs, stack, tInt, starT, fluxT, scratch;

  explicit Reproducer(int degree, int elements)
      : rm(referenceMatrices(degree)), numElements(elements) {
    const int nbq = dofCount(rm);
    std::mt19937 rng(9);
    std::uniform_real_distribution<real> uni(-1, 1);
    dofs.resize(static_cast<std::size_t>(elements) * nbq);
    stack.resize(static_cast<std::size_t>(elements) * nbq * (degree + 1));
    tInt.resize(static_cast<std::size_t>(elements) * nbq);
    scratch.resize(nbq);
    for (auto& v : dofs) {
      v = uni(rng);
    }
    const Material m = Material::fromVelocities(2700, 6000, 3464);
    starT.resize(3 * 81);
    for (int c = 0; c < 3; ++c) {
      const Matrix a = jacobianMatrix(m, c);
      for (int i = 0; i < 9; ++i) {
        for (int j = 0; j < 9; ++j) {
          starT[c * 81 + i * 9 + j] = a(j, i) * 1e-4;
        }
      }
    }
    fluxT.resize(8 * 81);
    for (auto& v : fluxT) {
      v = uni(rng) * 1e-4;
    }
  }

  void predictor(int e) {
    const int nbq = dofCount(rm);
    aderPredictor(rm, starT.data(), dofs.data() + static_cast<std::size_t>(e) * nbq,
                  stack.data() + static_cast<std::size_t>(e) * nbq * (rm.degree + 1),
                  scratch.data());
    taylorIntegrate(rm, stack.data() + static_cast<std::size_t>(e) * nbq *
                            (rm.degree + 1),
                    0.0, 1e-3, tInt.data() + static_cast<std::size_t>(e) * nbq);
  }

  void corrector(int e) {
    const int nbq = dofCount(rm);
    real* q = dofs.data() + static_cast<std::size_t>(e) * nbq;
    volumeKernel(rm, starT.data(),
                 tInt.data() + static_cast<std::size_t>(e) * nbq, q,
                 scratch.data());
    for (int f = 0; f < 4; ++f) {
      surfaceKernel(rm, rm.fluxLocal[f], fluxT.data() + f * 81,
                    tInt.data() + static_cast<std::size_t>(e) * nbq, q,
                    scratch.data());
      const int nb = (e + 1) % numElements;
      surfaceKernel(rm, rm.fluxNeighbor[f][(f + 1) % 4][0],
                    fluxT.data() + (4 + f) * 81,
                    tInt.data() + static_cast<std::size_t>(nb) * nbq, q,
                    scratch.data());
    }
  }
};

Reproducer& reproducer() {
  static Reproducer r(5, 512);  // order 5 as in the paper's production runs
  return r;
}

void BM_PredictorOnly(benchmark::State& state) {
  auto& r = reproducer();
  resetFlops();
  int e = 0;
  for (auto _ : state) {
    r.predictor(e);
    e = (e + 1) % r.numElements;
  }
  state.counters["GFLOPS"] = benchmark::Counter(
      static_cast<double>(totalFlops()) * 1e-9, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PredictorOnly);

void BM_PredictorPlusCorrector(benchmark::State& state) {
  auto& r = reproducer();
  resetFlops();
  int e = 0;
  for (auto _ : state) {
    r.predictor(e);
    r.corrector(e);
    e = (e + 1) % r.numElements;
  }
  state.counters["GFLOPS"] = benchmark::Counter(
      static_cast<double>(totalFlops()) * 1e-9, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PredictorPlusCorrector);

void printNumaModel() {
  // The AMD Rome NUMA table used by the cluster simulator, calibrated to
  // the paper's Sec. 5.1 measurements.
  const MachineSpec rome = mahti();
  Table t({"configuration", "model_GFLOPS", "paper_GFLOPS", "pct_of_peak"});
  auto row = [&](const char* name, int numaSpanned, real paper) {
    const real eff = rome.kernelEfficiencySingleNuma /
                     (1.0 + rome.numaPenaltyPerDomain * (numaSpanned - 1));
    const real gflops = rome.peakGflopsPerNode * eff *
                        (static_cast<real>(numaSpanned) /
                         rome.node.numaDomains());
    t.row() << name << gflops << paper << 100.0 * eff;
  };
  row("pred+corr, single NUMA domain", 1, 376.0);
  row("pred+corr, one socket (4 domains)", 4, 1390.0);
  row("pred+corr, full node (8 domains)", 8, 2053.0);
  t.print("Sec. 5.1 AMD Rome NUMA model vs paper measurements");
  t.writeCsv("node_performance_model.csv");
}

// Operands of one megathrust tile: degree 2, a full batch of lanes.  The
// lane-tile stages run on whole star groups (the auto batch size is a
// multiple of 8 at degree 2).
struct StageTile {
  const ReferenceMatrices& rm = referenceMatrices(2);
  int width = autoBatchSize(rm.nb, rm.degree);
  int groups = (width + kStarGroupLanes - 1) / kStarGroupLanes;
  int ld = kNumQuantities * width;
  std::size_t tileSize =
      static_cast<std::size_t>(rm.nb) * kNumQuantities * kStarGroupLanes *
      groups;
  std::vector<real> stack, tInt, dofs, scratch, faceScratch, star, flux,
      laneScratch;
  std::vector<const real*> fluxPtrs;
  std::vector<NeighborFluxLane> lanes;

  StageTile() {
    std::mt19937 rng(11);
    std::uniform_real_distribution<real> uni(-1, 1);
    auto fill = [&](std::vector<real>& v, std::size_t n, real scale) {
      v.resize(n);
      for (real& x : v) {
        x = scale * uni(rng);
      }
    };
    fill(stack, (rm.degree + 1) * tileSize, 1);
    fill(tInt, tileSize, 1);
    fill(dofs, tileSize, 1);
    fill(scratch, tileSize, 1);
    fill(faceScratch, tileSize, 1);
    fill(flux, static_cast<std::size_t>(width) * 81, 1e-1);
    fill(laneScratch, static_cast<std::size_t>(rm.nb) * kNumQuantities, 1);
    // Star matrices of an elastic element with random gradients, scaled
    // like the flux operands.
    const Material m = Material::fromVelocities(2700, 6000, 3464);
    star.assign(static_cast<std::size_t>(groups) * kStarGroupSize, 0.0);
    for (int lane = 0; lane < width; ++lane) {
      real starT[3 * 81];
      for (int c = 0; c < 3; ++c) {
        const Vec3 grad = {uni(rng), uni(rng), uni(rng)};
        const Matrix a = starMatrix(m, grad);
        for (int i = 0; i < 9; ++i) {
          for (int j = 0; j < 9; ++j) {
            starT[c * 81 + i * 9 + j] = a(j, i) * 1e-11;
          }
        }
      }
      packStarLane(starT,
                   star.data() + static_cast<std::size_t>(lane /
                                                          kStarGroupLanes) *
                                     kStarGroupSize,
                   lane % kStarGroupLanes);
    }
    const Matrix& fluxNeighbor = rm.fluxNeighbor[0][1][0];
    for (int lane = 0; lane < width; ++lane) {
      const real* f = flux.data() + static_cast<std::size_t>(lane) * 81;
      fluxPtrs.push_back(f);
      lanes.push_back({tInt.data() + lane * kNumQuantities, f,
                       fluxNeighbor.data()});
    }
  }
};

/// One stage of one ISA table, timed as the best of many interleaved
/// rounds: a shared host's noise comes and goes over seconds, so every
/// probe samples every quiet spell.
struct StageProbe {
  const char* isa;
  const char* stage;
  int m, n, k;
  std::function<void()> run;
  double flops = 0;        // per call, from the kernels' own accounting
  int calls = 1;           // per round, ~5 ms
  double best = 1e300;     // seconds per call
};

void timeInterleaved(std::vector<StageProbe>& probes, int rounds) {
  using clock = std::chrono::steady_clock;
  auto seconds = [](StageProbe& p) {
    const auto t0 = clock::now();
    for (int i = 0; i < p.calls; ++i) {
      p.run();
    }
    return std::chrono::duration<double>(clock::now() - t0).count();
  };
  for (StageProbe& p : probes) {
    const std::uint64_t f0 = threadFlops();
    p.run();
    p.flops = static_cast<double>(threadFlops() - f0);
    while (seconds(p) < 5e-3) {
      p.calls *= 2;
    }
  }
  for (int r = 0; r < rounds; ++r) {
    for (StageProbe& p : probes) {
      p.best = std::min(p.best, seconds(p) / p.calls);
    }
  }
}

void printStageKernels() {
  StageTile t;
  const double ghz = probeHost(1).ghz;
  const int nb = t.rm.nb, cols = t.ld, q = kNumQuantities;
  std::vector<StageProbe> probes;
  for (const FastIsa isa : {FastIsa::kScalar, FastIsa::kSse2, FastIsa::kAvx2,
                            FastIsa::kAvx512}) {
    if (!fastIsaSupported(isa)) {
      continue;
    }
    const StageKernels& k = fastStageKernels(isa);
    probes.push_back({k.isa, "wide_gemm", nb, cols, nb, [&t, &k, nb, cols] {
      k.gemmAccStrided(nb, cols, nb, t.rm.dXi[0].data(), nb, t.tInt.data(),
                       t.ld, t.dofs.data(), t.ld);
    }});
    probes.push_back({k.isa, "lane_predictor", nb, cols, nb, [&t, &k] {
      k.lanePredictor(t.rm, t.star.data(), t.stack.data(), t.scratch.data(),
                      t.groups, t.width);
    }});
    probes.push_back({k.isa, "lane_volume", nb, cols, nb, [&t, &k] {
      k.laneVolume(t.rm, t.star.data(), t.tInt.data(), t.dofs.data(),
                   t.scratch.data(), t.groups, t.width);
    }});
    probes.push_back({k.isa, "local_flux", nb, q, q, [&t, &k, nb] {
      k.localFluxStage(nb, t.width, t.ld, t.tInt.data(), t.fluxPtrs.data(),
                       t.faceScratch.data());
    }});
    probes.push_back({k.isa, "neighbor_flux", nb, q, q, [&t, &k, nb] {
      k.neighborFluxStage(nb, t.width, t.ld, t.lanes.data(),
                          t.laneScratch.data(), t.dofs.data());
    }});
  }
  timeInterleaved(probes, 20);
  Table table({"isa", "stage", "m", "n", "k", "GFLOPS", "flop_per_cycle"});
  for (const StageProbe& p : probes) {
    const double gflops = p.flops / p.best * 1e-9;
    table.row() << p.isa << p.stage << p.m << p.n << p.k << gflops
                << gflops / ghz;
  }
  char title[160];
  std::snprintf(title, sizeof title,
                "Tile-stage kernels per ISA (degree 2, %d lanes, ld %d; "
                "1 core at %.2f GHz, best of 20 interleaved rounds)",
                t.width, t.ld, ghz);
  table.print(title);
  table.writeCsv("node_performance_stages.csv");
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  printStageKernels();
  printNumaModel();
  std::printf("\nPaper reference (AMD Rome 7H12, peak 5325 GFLOPS):\n"
              "  predictor only:       3360 GFLOPS full node (63%% of peak)\n"
              "  predictor+corrector:  2053 GFLOPS full node (38%% of peak)\n"
              "Expectation on this host: the predictor sustains a clearly\n"
              "higher fraction of peak than predictor+corrector (the\n"
              "corrector's neighbour gathers stress the memory system).\n");
  return 0;
}
