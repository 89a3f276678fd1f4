#include <cmath>
#include <numeric>
#include <set>

#include <gtest/gtest.h>

#include "geometry/mesh_builder.hpp"
#include "linking/one_way_linking.hpp"
#include "partition/partitioner.hpp"
#include "partition/weights.hpp"
#include "perfmodel/exec_model.hpp"
#include "perfmodel/machine.hpp"
#include "perfmodel/pinning.hpp"
#include "solver/time_clusters.hpp"

namespace tsg {
namespace {

Mesh layeredMesh(int n) {
  BoxMeshSpec spec;
  spec.xLines = uniformLine(0, 1, n);
  spec.yLines = uniformLine(0, 1, n);
  spec.zLines = {0.0, 0.3, 0.6, 0.8, 0.9, 0.95, 1.0};
  spec.material = [](const Vec3& c) { return c[2] > 0.8 ? 1 : 0; };
  spec.boundary = [](const Vec3&, const Vec3& nrm) {
    return nrm[2] > 0.5 ? BoundaryType::kGravityFreeSurface
                        : BoundaryType::kAbsorbing;
  };
  return buildBoxMesh(spec);
}

ClusterLayout layeredClusters(const Mesh& mesh) {
  std::vector<Material> mats(mesh.numElements());
  for (int e = 0; e < mesh.numElements(); ++e) {
    mats[e] = mesh.elements[e].material == 1
                  ? Material::acoustic(1000, 1500)
                  : Material::fromVelocities(2700, 6000, 3464);
  }
  return buildClusters(mesh, mats, 3, 0.35, 2, 12);
}

TEST(Weights, Equation28Structure) {
  const Mesh mesh = layeredMesh(6);
  const ClusterLayout clusters = layeredClusters(mesh);
  VertexWeightParams p;
  const auto w = computeVertexWeights(mesh, clusters, p);
  const int cMax = clusters.numClusters - 1;
  for (int e = 0; e < mesh.numElements(); ++e) {
    std::int64_t nG = 0;
    for (int f = 0; f < 4; ++f) {
      if (mesh.faces[e][f].bc == BoundaryType::kGravityFreeSurface) {
        ++nG;
      }
    }
    const std::int64_t expected =
        (std::int64_t{1} << (cMax - clusters.cluster[e])) *
        (p.wBase + p.wG * nG);
    EXPECT_EQ(w[e], expected);
  }
  // Faster elements must carry larger weights.
  std::int64_t minFine = INT64_MAX, maxCoarse = 0;
  for (int e = 0; e < mesh.numElements(); ++e) {
    if (clusters.cluster[e] == 0) {
      minFine = std::min(minFine, w[e]);
    }
    if (clusters.cluster[e] == cMax) {
      maxCoarse = std::max(maxCoarse, w[e]);
    }
  }
  EXPECT_GT(minFine, 0);
  if (cMax > 0) {
    EXPECT_GT(minFine, maxCoarse / 8);
  }
}

class PartitionerTest : public ::testing::TestWithParam<int> {};

TEST_P(PartitionerTest, BalancedAndConnectedCut) {
  const int nparts = GetParam();
  const Mesh mesh = layeredMesh(8);
  const ClusterLayout clusters = layeredClusters(mesh);
  DualGraph g = buildDualGraph(mesh);
  applyWeights(g, mesh, clusters, {});
  const PartitionResult r = partitionGraph(g, nparts);
  // Every part non-empty, all vertices assigned.
  std::set<int> used(r.part.begin(), r.part.end());
  EXPECT_EQ(static_cast<int>(used.size()), nparts);
  for (int v : r.part) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, nparts);
  }
  EXPECT_LT(r.imbalance, 1.25);
  // The cut must be far below the total edge weight (spatial locality).
  std::int64_t totalEdge = 0;
  for (auto w : g.edgeWeights) {
    totalEdge += w;
  }
  EXPECT_LT(r.edgeCut, totalEdge / 4);
}

INSTANTIATE_TEST_SUITE_P(Parts, PartitionerTest, ::testing::Values(2, 4, 7, 16));

TEST(Partitioner, HonorsTargetFractions) {
  const Mesh mesh = layeredMesh(8);
  const ClusterLayout clusters = layeredClusters(mesh);
  DualGraph g = buildDualGraph(mesh);
  applyWeights(g, mesh, clusters, {});
  const std::vector<real> targets = {0.5, 0.25, 0.125, 0.125};
  const PartitionResult r = partitionGraph(g, 4, targets);
  std::int64_t total = std::accumulate(r.partWeights.begin(),
                                       r.partWeights.end(), std::int64_t{0});
  for (int p = 0; p < 4; ++p) {
    const real frac = static_cast<real>(r.partWeights[p]) / total;
    EXPECT_NEAR(frac, targets[p], 0.08) << "part " << p;
  }
}

TEST(Pinning, CommThreadsAvoidWorkersAndStayInNuma) {
  for (const auto& machine : {mahti(), superMucNg(), shaheen2()}) {
    for (int rpn : {1, 2}) {
      const NodePinning pin = computeNodePinning(machine.node, rpn);
      std::set<int> workers(pin.workerMask.begin(), pin.workerMask.end());
      for (const auto& rank : pin.ranks) {
        EXPECT_FALSE(rank.commCpus.empty());
        std::set<int> numa;
        for (int cpu : rank.workerCpus) {
          numa.insert(numaOfCpu(machine.node, cpu));
        }
        for (int cpu : rank.commCpus) {
          EXPECT_EQ(workers.count(cpu), 0u);
          EXPECT_EQ(numa.count(numaOfCpu(machine.node, cpu)), 1u);
        }
      }
    }
  }
  // Mahti with one rank per NUMA domain.
  const NodePinning pin8 = computeNodePinning(mahti().node, 8);
  EXPECT_EQ(static_cast<int>(pin8.ranks.size()), 8);
  for (const auto& rank : pin8.ranks) {
    // 16 cores per rank, one sacrificed, SMT 2 => 30 worker cpus.
    EXPECT_EQ(static_cast<int>(rank.workerCpus.size()), 30);
    std::set<int> numa;
    for (int cpu : rank.workerCpus) {
      numa.insert(numaOfCpu(mahti().node, cpu));
    }
    EXPECT_EQ(numa.size(), 1u);  // rank confined to one NUMA domain
  }
}

TEST(ExecModel, MoreNodesReduceTimeButLoseEfficiency) {
  const Mesh mesh = layeredMesh(10);
  const ClusterLayout clusters = layeredClusters(mesh);
  const auto& rm = referenceMatrices(3);
  const MachineSpec machine = mahti();
  RunConfig cfg;
  cfg.ranksPerNode = 8;
  cfg.nodes = 2;
  const SimulatedRun small = simulateRun(mesh, clusters, rm, machine, cfg);
  cfg.nodes = 16;
  const SimulatedRun big = simulateRun(mesh, clusters, rm, machine, cfg);
  EXPECT_LT(big.macroCycleSeconds, small.macroCycleSeconds);
  EXPECT_GT(big.sustainedGflops, small.sustainedGflops);
  // Per-node performance (efficiency) must degrade with node count.
  EXPECT_LT(big.gflopsPerNode, small.gflopsPerNode * 1.001);
}

TEST(ExecModel, MoreRanksPerNodeHelpOnManyNumaDomains) {
  const Mesh mesh = layeredMesh(10);
  const ClusterLayout clusters = layeredClusters(mesh);
  const auto& rm = referenceMatrices(3);
  const MachineSpec machine = mahti();  // 8 NUMA domains per node
  RunConfig cfg;
  cfg.nodes = 4;
  cfg.ranksPerNode = 1;
  const SimulatedRun r1 = simulateRun(mesh, clusters, rm, machine, cfg);
  cfg.ranksPerNode = 8;
  const SimulatedRun r8 = simulateRun(mesh, clusters, rm, machine, cfg);
  EXPECT_GT(r8.gflopsPerNode, r1.gflopsPerNode);
}

TEST(ExecModel, NodeWeightsMitigateSlowNodes) {
  const Mesh mesh = layeredMesh(10);
  const ClusterLayout clusters = layeredClusters(mesh);
  const auto& rm = referenceMatrices(3);
  MachineSpec machine = superMucNg();  // has a pronounced slow outlier
  machine.slowNodeCount = 3;
  RunConfig cfg;
  cfg.nodes = 12;
  cfg.ranksPerNode = 2;
  cfg.useNodeWeights = false;
  const SimulatedRun without = simulateRun(mesh, clusters, rm, machine, cfg);
  cfg.useNodeWeights = true;
  const SimulatedRun with = simulateRun(mesh, clusters, rm, machine, cfg);
  EXPECT_GT(with.sustainedGflops, without.sustainedGflops);
}

// A zero spread (the probed-host spec) must not reach
// std::normal_distribution, whose standard deviation has to be positive.
TEST(ExecModel, ZeroNodeSpeedSigmaGivesUniformNodes) {
  MachineSpec machine = superMucNg();
  machine.nodeSpeedSigma = 0;
  machine.slowNodeCount = 0;
  for (const int nodes : {1, 12, 50}) {
    const std::vector<real> f = nodeSpeedFactors(machine, nodes, 7);
    ASSERT_EQ(static_cast<int>(f.size()), nodes);
    for (const real v : f) {
      EXPECT_EQ(v, real(1));
    }
  }
  // Declared outliers survive a zero spread; only the draw is skipped.
  machine.slowNodeCount = 3;
  machine.slowestNodeFraction = 0.9;
  const std::vector<real> f = nodeSpeedFactors(machine, 50, 7);
  int slow = 0;
  for (const real v : f) {
    EXPECT_TRUE(v == real(1) || v == machine.slowestNodeFraction) << v;
    slow += v == machine.slowestNodeFraction;
  }
  EXPECT_GE(slow, 1);
  EXPECT_LE(slow, 3);
}

TEST(Linking, RecorderInterpolatesInSpaceAndTime) {
  SeafloorUpliftRecorder rec(10, 10, 0.0, 0.0, 1.0, 1.0);
  auto makeSamples = [](real scale) {
    std::vector<SeafloorSample> s;
    for (int j = 0; j < 10; ++j) {
      for (int i = 0; i < 10; ++i) {
        s.push_back({i + 0.5, j + 0.5, scale * (i + 0.5)});
      }
    }
    return s;
  };
  rec.recordSnapshot(0.0, makeSamples(0.0));
  rec.recordSnapshot(1.0, makeSamples(1.0));
  rec.recordSnapshot(2.0, makeSamples(2.0));
  // Linear in x at fixed time.
  EXPECT_NEAR(rec.uplift(3.5, 5.0, 1.0), 3.5, 1e-12);
  EXPECT_NEAR(rec.uplift(4.0, 5.0, 1.0), 4.0, 1e-12);
  // Linear in time.
  EXPECT_NEAR(rec.uplift(3.5, 5.0, 0.5), 1.75, 1e-12);
  // Held constant after the last snapshot.
  EXPECT_NEAR(rec.uplift(3.5, 5.0, 10.0), 7.0, 1e-12);
  EXPECT_NEAR(rec.finalUplift(3.5, 5.0), 7.0, 1e-12);
}

TEST(Linking, FillsCellsWithoutSamples) {
  SeafloorUpliftRecorder rec(8, 8, 0.0, 0.0, 1.0, 1.0);
  // Samples only on the left half.
  std::vector<SeafloorSample> s;
  for (int j = 0; j < 8; ++j) {
    for (int i = 0; i < 4; ++i) {
      s.push_back({i + 0.5, j + 0.5, 2.0});
    }
  }
  rec.recordSnapshot(0.0, s);
  EXPECT_NEAR(rec.uplift(7.5, 4.0, 0.0), 2.0, 1e-12);
}

}  // namespace
}  // namespace tsg
