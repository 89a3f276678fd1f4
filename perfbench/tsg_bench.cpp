// tsg_bench: one process runs one measured unit of work and
// prints one JSON object on stdout (logs go to stderr).  Every layer is
// timed from outside, around calls to its public functions; nothing in
// the solver library is instrumented for the benchmark.
//
//   tsg_bench host                 host metadata + hw_counters
//   tsg_bench expect <cfg>...      exact expected counts + hashes
//   tsg_bench setup <cfg>          set-up only (no stepping)
//   tsg_bench run <cfg>            one run through runPipeline
//   tsg_bench trace <cfg>          runPipeline's calls re-issued
//                                         one by one, with spans
//   tsg_bench sweep <cfg>          an ensemble through runEnsemble
//   tsg_bench trace-sweep <cfg>    the ensemble with per-member
//                                         perf reports
//
// run / trace / sweep / trace-sweep write their outputs into the current
// directory, which must hold nothing but the config file: a reused
// output directory is refused (exit 6), so it can never pass for a
// speed-up through the ensemble's checkpoint auto-resume.

#include <omp.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "common/json.hpp"
#include "ensemble/ensemble_runner.hpp"
#include "ensemble/sweep_expansion.hpp"
#include "io/vtk_writer.hpp"
#include "perf/host_metadata.hpp"
#include "perf/hw_counters.hpp"
#include "runner/run_pipeline.hpp"
#include "scenario/scenario.hpp"
#include "solver/diagnostics.hpp"
#include "solver/health_monitor.hpp"
#include "solver/simulation_assets.hpp"
#include "telemetry/logging.hpp"
#include "telemetry/metrics_registry.hpp"

namespace fs = std::filesystem;
using namespace tsg;

namespace {

constexpr int kExitStaleDir = 6;

double now() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point epoch = clock::now();
  return std::chrono::duration<double>(clock::now() - epoch).count();
}

/// Flat JSON object writer (keys in insertion order).
class Json {
 public:
  Json& num(const std::string& k, double v) {
    return raw(k, jsonNumber(v));
  }
  Json& count(const std::string& k, std::uint64_t v) {
    return raw(k, std::to_string(v));
  }
  Json& str(const std::string& k, const std::string& v) {
    return raw(k, jsonQuote(v));
  }
  Json& flag(const std::string& k, bool v) { return raw(k, v ? "true" : "false"); }
  Json& raw(const std::string& k, const std::string& v) {
    body_ += (body_.empty() ? "" : ", ") + jsonQuote(k) + ": " + v;
    return *this;
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string jsonArray(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += (i ? ", " : "") + items[i];
  }
  return out + "]";
}

/// In-memory spans (name, parent, start, end), written out at exit.
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer& t, const char* name) : t_(t), id_(t.open(name)) {}
    ~Scope() { t_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    int id_;
  };

  std::string json() const {
    std::vector<std::string> items;
    for (const Span& s : spans_) {
      items.push_back(Json()
                          .str("name", s.name)
                          .raw("parent", std::to_string(s.parent))
                          .num("t0", s.t0)
                          .num("t1", s.t1)
                          .text());
    }
    return jsonArray(items);
  }

 private:
  struct Span {
    std::string name;
    int parent;
    double t0, t1;
  };
  int open(const char* name) {
    spans_.push_back({name, stack_.empty() ? -1 : stack_.back(), now(), 0});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int id) {
    spans_[id].t1 = now();
    stack_.pop_back();
  }
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

template <class F>
auto timed(Tracer& tr, const char* name, F&& f) {
  Tracer::Scope span(tr, name);
  return f();
}

std::uint64_t registryCount(const char* name, MetricUnit unit) {
  return MetricsRegistry::global().counter(name, unit).value();
}

/// Work counters of this process, read from the global metrics registry
/// (a resumed run counts only the updates it actually did).
Json& processCounters(Json& j) {
  return j
      .count("element_updates",
             registryCount("solver.element_updates", MetricUnit::kElements))
      .count("macro_cycles",
             registryCount("solver.macro_cycles", MetricUnit::kCount))
      .count("health_scans", registryCount("health.scans", MetricUnit::kCount))
      .count("checkpoint_saves",
             registryCount("checkpoint.saves", MetricUnit::kCount));
}

std::uint64_t fileBytes(const std::string& path) {
  std::error_code ec;
  const auto n = fs::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(n);
}

/// True when the working directory holds nothing but the config file.
bool freshOutputDir(const std::string& configPath) {
  const fs::path cfg = fs::absolute(configPath).lexically_normal();
  for (const auto& entry : fs::directory_iterator(fs::current_path())) {
    if (fs::absolute(entry.path()).lexically_normal() != cfg) return false;
  }
  return true;
}

/// Macro cycles the snapshot loop of runPipeline performs: advanceTo
/// steps whole macro cycles until time() >= target (same arithmetic as
/// Simulation::advanceTo).
std::uint64_t expectedMacroCycles(const ClusterLayout& c,
                                  const RunOptions& o) {
  const std::int64_t ticksPerMacro = c.ticksPerMacro();
  std::int64_t tick = 0;
  real time = 0;
  std::uint64_t cycles = 0;
  for (int s = 1; s <= o.snapshots; ++s) {
    const real target = o.endTime * s / o.snapshots;
    const real eps = 1e-12 * std::max(real(1), target);
    while (time < target - eps) {
      tick += ticksPerMacro;
      time = c.dtMin * static_cast<real>(tick);
      ++cycles;
    }
  }
  return cycles;
}

/// The member configs of a sweep, or the config itself for a plain run.
std::vector<ConfigFile> memberConfigs(const ConfigFile& cfg) {
  if (!cfg.hasSection("sweep")) return {cfg};
  std::vector<ConfigFile> out;
  for (const EnsembleMember& m : expandSweep(cfg).members) {
    out.push_back(ConfigFile::parse(m.configText));
  }
  return out;
}

std::shared_ptr<const SimulationAssets> buildAssets(
    const ScenarioBundle& bundle) {
  return std::make_shared<const SimulationAssets>(
      bundle.mesh, bundle.materials,
      AssetConfig::fromSolverConfig(bundle.solver));
}

ScenarioBundle resolveWithOptions(const RunOptions& o, const ConfigFile& cfg) {
  ScenarioBundle bundle = resolveScenario(o, cfg);
  applySolverOptions(bundle.solver, o);
  return bundle;
}

// ---- subcommands ------------------------------------------------------

int cmdHost() {
  Json host;
  for (const auto& [k, v] : collectHostMetadata()) host.str(k, v);
  std::printf("%s\n", Json()
                          .raw("host", host.text())
                          .flag("hw_counters", threadHwCounters().available())
                          .text()
                          .c_str());
  return 0;
}

/// Exact element updates and macro cycles the configs' runs must do,
/// plus each member's asset hash and element count.  Several configs in
/// one process share one hash computation context, as the members of an
/// ensemble do.
int cmdExpect(const std::vector<std::string>& paths) {
  std::map<std::uint64_t, std::shared_ptr<const SimulationAssets>> byHash;
  std::vector<std::string> members;
  std::uint64_t updates = 0, cycles = 0;
  std::vector<ConfigFile> all;
  for (const std::string& path : paths) {
    for (ConfigFile& m : memberConfigs(ConfigFile::load(path))) {
      all.push_back(std::move(m));
    }
  }
  for (const ConfigFile& mcfg : all) {
    const RunOptions o = readRunOptions(mcfg);
    const ScenarioBundle bundle = resolveWithOptions(o, mcfg);
    const AssetConfig ac = AssetConfig::fromSolverConfig(bundle.solver);
    const std::uint64_t hash =
        computeAssetHash(bundle.mesh, bundle.materials, ac);
    auto& assets = byHash[hash];
    if (!assets) assets = buildAssets(bundle);
    const std::uint64_t c = expectedMacroCycles(assets->clusters, o);
    const std::uint64_t u =
        c * static_cast<std::uint64_t>(
                assets->clusters.updatesPerMacroCycleLts());
    cycles += c;
    updates += u;
    char hex[32];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(hash));
    members.push_back(Json()
                          .str("prefix", o.prefix)
                          .str("asset_hash", hex)
                          .count("elements", static_cast<std::uint64_t>(
                                                 bundle.mesh.numElements()))
                          .count("macro_cycles", c)
                          .count("element_updates", u)
                          .text());
  }
  std::printf("%s\n", Json()
                          .count("element_updates", updates)
                          .count("macro_cycles", cycles)
                          .raw("members", jsonArray(members))
                          .text()
                          .c_str());
  return 0;
}

/// Config to a simulation ready to step: scenario resolve, asset build
/// (a shared cache over the members of a sweep) and construction.
int cmdSetup(const std::string& path) {
  const double t0 = now();
  const ConfigFile cfg = ConfigFile::load(path);
  AssetCache cache;
  double resolveS = 0, assetsS = 0, constructS = 0;
  for (const ConfigFile& mcfg : memberConfigs(cfg)) {
    const RunOptions o = readRunOptions(mcfg);
    if (o.threads > 0) omp_set_num_threads(o.threads);
    double t = now();
    const ScenarioBundle bundle = resolveWithOptions(o, mcfg);
    resolveS += now() - t;
    t = now();
    auto assets = cache.acquire(bundle);
    assetsS += now() - t;
    t = now();
    const std::unique_ptr<Simulation> sim =
        makeSimulation(bundle, std::move(assets));
    constructS += now() - t;
  }
  const double total = now() - t0;
  std::printf("%s\n", Json()
                          .num("setup_s", total)
                          .num("resolve_s", resolveS)
                          .num("assets_s", assetsS)
                          .num("construct_s", constructS)
                          .text()
                          .c_str());
  return 0;
}

int cmdRun(const std::string& path) {
  const double t0 = now();
  const ConfigFile cfg = ConfigFile::load(path);
  const RunOptions o = readRunOptions(cfg);
  runPipeline(path, cfg, o);
  const double wall = now() - t0;
  Json j;
  j.flag("ok", true).num("pipeline_s", wall);
  processCounters(j);
  std::printf("%s\n", j.text().c_str());
  return 0;
}

/// PerfMonitor totals of one phase as raw counts and seconds.
std::string phaseJson(const PerfMonitor& pm, Phase p) {
  const PhaseStats s = pm.total(p);
  return Json()
      .num("busy_s", s.seconds)
      .num("wall_s", pm.wallSeconds(p))
      .count("flops", s.flops)
      .count("bytes", s.bytesEstimate)
      .text();
}

/// runPipeline's sequence for this config's options (no telemetry
/// stream, no status file), issued call by call with a span around
/// each layer.  Outputs are the same files runPipeline writes.
int cmdTrace(const std::string& path) {
  Tracer tr;
  const ConfigFile cfg =
      timed(tr, "config.load", [&] { return ConfigFile::load(path); });
  const RunOptions o =
      timed(tr, "config.load", [&] { return readRunOptions(cfg); });
  if (o.threads > 0) omp_set_num_threads(o.threads);

  const ScenarioBundle bundle = timed(
      tr, "scenario.resolve", [&] { return resolveWithOptions(o, cfg); });
  std::shared_ptr<const SimulationAssets> assets =
      timed(tr, "assets.build", [&] { return buildAssets(bundle); });
  std::unique_ptr<Simulation> sim = timed(tr, "simulation.construct", [&] {
    return makeSimulation(bundle, std::move(assets));
  });
  sim->setScenarioHash(hashFileBytes(path));

  const PerfMonitor& pm = sim->enablePerfMonitor(false);

  HealthMonitor monitor{[&] {
    HealthMonitorConfig hc;
    hc.maxEnergyGrowthFactor = o.maxEnergyGrowth;
    hc.outputPrefix = o.prefix;
    return hc;
  }()};
  std::uint64_t healthChecks = 0;
  if (o.healthCheck) {
    sim->onMacroStep([&](real) {
      Tracer::Scope s(tr, "diagnostics.health");
      monitor.check(*sim);
      ++healthChecks;
    });
  }
  // Same rotation as runPipeline: absolute multiples of the interval,
  // newest keep_checkpoints files kept.
  std::uint64_t checkpointBytes = 0;
  std::deque<std::string> written;
  real nextCheckpoint = o.checkpointInterval;
  if (o.checkpointInterval > 0) {
    sim->onMacroStep([&](real t) {
      if (t < nextCheckpoint) return;
      const std::string file =
          o.prefix + "_ckpt_" + std::to_string(sim->tick()) + ".tsgck";
      {
        Tracer::Scope s(tr, "checkpoint.save");
        sim->saveCheckpoint(file);
      }
      checkpointBytes += fileBytes(file);
      written.push_back(file);
      while (static_cast<int>(written.size()) > o.keepCheckpoints) {
        std::remove(written.front().c_str());
        written.pop_front();
      }
      nextCheckpoint =
          (std::floor(t / o.checkpointInterval) + 1) * o.checkpointInterval;
    });
  }

  for (int s = 1; s <= o.snapshots; ++s) {
    {
      Tracer::Scope span(tr, "solver.advance");
      sim->advanceTo(o.endTime * s / o.snapshots);
    }
    Tracer::Scope span(tr, "diagnostics.energy");
    const EnergyBudget e = computeEnergy(*sim);
    real maxEta = 0;
    for (const auto& sample : sim->seaSurface()) {
      maxEta = std::max(maxEta, std::abs(sample.eta));
    }
    char msg[160];
    std::snprintf(msg, sizeof msg,
                  "t = %8.3f s  E_kin %.4g  E_el %.4g  E_ac %.4g  "
                  "max|eta| %.4g m",
                  sim->time(), e.kinetic, e.strainElastic, e.strainAcoustic,
                  maxEta);
    logInfo("snapshot", msg);
  }

  std::uint64_t ioBytes = 0;
  {
    Tracer::Scope span(tr, "io.receiver_csv");
    for (int r = 0; r < sim->numReceivers(); ++r) {
      const Receiver& rec = sim->receiver(r);
      const std::string file = o.prefix + "_receiver_" + rec.name + ".csv";
      rec.writeCsv(file);
      ioBytes += fileBytes(file);
    }
  }
  if (o.vtk) {
    Tracer::Scope span(tr, "io.vtk");
    writeVtkWavefield(o.prefix + "_wavefield.vtk", *sim);
    writeVtkSurface(o.prefix + "_surface.vtk", sim->seaSurface());
    ioBytes += fileBytes(o.prefix + "_wavefield.vtk") +
               fileBytes(o.prefix + "_surface.vtk");
  }

  Json j;
  j.flag("ok", true)
      .count("threads", static_cast<std::uint64_t>(
                            sim->perfReportMeta("").threads))
      .count("health_checks", healthChecks)
      .count("checkpoint_bytes", checkpointBytes)
      .count("io_bytes", ioBytes)
      .raw("predictor", phaseJson(pm, Phase::kPredictor))
      .raw("rupture", phaseJson(pm, Phase::kRuptureFlux))
      .raw("corrector", phaseJson(pm, Phase::kCorrector));
  processCounters(j).raw("spans", tr.json());
  std::printf("%s\n", j.text().c_str());
  return 0;
}

/// The sweep through runEnsemble; `traced` sets fleetPerfPath, so every
/// member also writes its tsg-perf-1 report (<memberPrefix>_perf.json).
int cmdSweep(const std::string& path, bool traced) {
  const ConfigFile cfg = ConfigFile::load(path);
  const EnsemblePlan plan = expandSweep(cfg);
  EnsembleOptions eo;
  if (traced) eo.fleetPerfPath = plan.prefix + "_fleetperf.json";
  const EnsembleResult res = runEnsemble(plan, eo);

  std::vector<std::string> members;
  for (const MemberOutcome& m : res.members) {
    members.push_back(Json()
                          .str("prefix", m.prefix)
                          .flag("ok", m.ok)
                          .flag("resumed", m.resumed)
                          .str("error", m.error)
                          .num("wall_s", m.wallSeconds)
                          .text());
  }
  Json j;
  j.flag("ok", res.allOk())
      .num("ensemble_s", res.wallSeconds)
      .count("asset_builds", res.assetsBuilt)
      .count("asset_hits", res.assetCacheHits)
      .num("asset_build_s", res.assetBuildSeconds);
  processCounters(j).raw("members", jsonArray(members));
  std::printf("%s\n", j.text().c_str());
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: tsg_bench host | expect <config>... | "
               "{setup|run|trace|sweep|trace-sweep} <config>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // stdout carries exactly one JSON object; the run's log lines (the
  // same ones the CLI prints) go to stderr.
  logger().setStreams(stderr, stderr);
  if (argc == 2 && std::string(argv[1]) == "host") return cmdHost();
  if (argc >= 3 && std::string(argv[1]) == "expect") {
    try {
      return cmdExpect(std::vector<std::string>(argv + 2, argv + argc));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "expect: %s\n", e.what());
      return 1;
    }
  }
  if (argc != 3) return usage();
  const std::string cmd = argv[1];
  const std::string path = argv[2];
  const bool writesOutputs = cmd == "run" || cmd == "trace" ||
                             cmd == "sweep" || cmd == "trace-sweep";
  if (writesOutputs && !freshOutputDir(path)) {
    std::printf("%s\n", Json()
                            .flag("ok", false)
                            .str("error", "output directory is not fresh")
                            .text()
                            .c_str());
    return kExitStaleDir;
  }
  try {
    if (cmd == "setup") return cmdSetup(path);
    if (cmd == "run") return cmdRun(path);
    if (cmd == "trace") return cmdTrace(path);
    if (cmd == "sweep") return cmdSweep(path, false);
    if (cmd == "trace-sweep") return cmdSweep(path, true);
  } catch (const SolverDivergedError& e) {
    std::printf("%s\n", Json()
                            .flag("ok", false)
                            .str("error", std::string("diverged: ") + e.what())
                            .text()
                            .c_str());
    return 3;
  } catch (const std::exception& e) {
    std::printf("%s\n",
                Json().flag("ok", false).str("error", e.what()).text().c_str());
    return 1;
  }
  return usage();
}
