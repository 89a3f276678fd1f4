// Telemetry layer: MetricsRegistry semantics, the structured event log,
// the "tsg-metrics-1" physics time series, the "tsg-status-1" heartbeat,
// and the named-span/instant enrichment of the chrome trace.

#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "geometry/mesh_builder.hpp"
#include "common/config.hpp"
#include "perf/perf_monitor.hpp"
#include "runner/run_pipeline.hpp"
#include "solver/simulation.hpp"
#include "telemetry/logging.hpp"
#include "telemetry/metrics_registry.hpp"
#include "telemetry/run_telemetry.hpp"

namespace tsg {
namespace {

std::string fileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<std::string> fileLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) {
      lines.push_back(line);
    }
  }
  return lines;
}

/// Extract the number following `"key":` in a one-line JSON record.
double jsonValueOf(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t pos = line.find(needle);
  EXPECT_NE(pos, std::string::npos) << key << " missing in " << line;
  if (pos == std::string::npos) {
    return std::nan("");
  }
  return std::stod(line.substr(pos + needle.size()));
}

std::unique_ptr<Simulation> pulseSim() {
  BoxMeshSpec spec;
  spec.xLines = uniformLine(0, 1000, 3);
  spec.yLines = uniformLine(0, 1000, 3);
  spec.zLines = uniformLine(-800, 0, 4);
  spec.material = [](const Vec3& c) { return c[2] > -300 ? 1 : 0; };
  spec.boundary = [](const Vec3&, const Vec3& n) {
    return n[2] > 0.5 ? BoundaryType::kGravityFreeSurface
                      : BoundaryType::kAbsorbing;
  };
  SolverConfig cfg;
  cfg.degree = 2;
  cfg.cflFraction = 0.35;
  cfg.deterministic = true;
  auto sim = std::make_unique<Simulation>(
      buildBoxMesh(spec),
      std::vector<Material>{Material::fromVelocities(2700, 6000, 3464),
                            Material::acoustic(1000, 1500)},
      cfg);
  sim->setInitialCondition([](const Vec3& x, int material) {
    std::array<real, 9> q{};
    if (material == 1) {
      const real p = 1e4 * std::exp(-norm2(x - Vec3{500, 500, -150}) / 2e4);
      q[kSxx] = q[kSyy] = q[kSzz] = -p;
    }
    return q;
  });
  return sim;
}

TEST(MetricsRegistry, CountersAccumulateAcrossThreads) {
  MetricsRegistry reg;
  Counter& c = reg.counter("test.hits", MetricUnit::kCount);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < 10000; ++i) {
        c.add(1);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(c.value(), 40000u);
  // Re-requesting the same name returns the same counter.
  EXPECT_EQ(&reg.counter("test.hits", MetricUnit::kCount), &c);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(MetricsRegistry, HistogramStatsAndBuckets) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("test.lat", MetricUnit::kSeconds);
  h.observe(0.5);
  h.observe(1.5);
  h.observe(2.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 4.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 2.0);
  const std::string json = reg.snapshotJson();
  EXPECT_NE(json.find("\"test.lat\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"histogram\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"buckets\""), std::string::npos) << json;
}

TEST(MetricsRegistry, TypeAndUnitMismatchThrow) {
  MetricsRegistry reg;
  reg.counter("x", MetricUnit::kCount);
  EXPECT_THROW(reg.gauge("x", MetricUnit::kCount), std::logic_error);
  EXPECT_THROW(reg.counter("x", MetricUnit::kBytes), std::logic_error);
}

TEST(Logging, LevelFilteringAndFormats) {
  Logger& log = logger();
  const LogLevel oldLevel = log.level();
  const bool oldJson = log.json();
  std::string captured;
  log.setCapture(&captured);

  log.setJson(false);
  log.setLevel(LogLevel::kWarn);
  log.log(LogLevel::kInfo, "dropped", "below threshold");
  EXPECT_TRUE(captured.empty()) << captured;
  log.log(LogLevel::kWarn, "kept", "at threshold", {logInt("n", 3)});
  EXPECT_NE(captured.find("warn"), std::string::npos) << captured;
  EXPECT_NE(captured.find("kept: at threshold"), std::string::npos)
      << captured;

  captured.clear();
  log.setJson(true);
  log.setLevel(LogLevel::kDebug);
  log.log(LogLevel::kDebug, "ev", "msg \"quoted\"",
          {logStr("k", "v"), logNum("x", 1.5), logInt("n", -2)});
  EXPECT_NE(captured.find("\"level\":\"debug\""), std::string::npos)
      << captured;
  EXPECT_NE(captured.find("\"event\":\"ev\""), std::string::npos) << captured;
  EXPECT_NE(captured.find("\\\"quoted\\\""), std::string::npos) << captured;
  EXPECT_NE(captured.find("\"k\":\"v\""), std::string::npos) << captured;
  EXPECT_NE(captured.find("\"x\":1.5"), std::string::npos) << captured;
  EXPECT_NE(captured.find("\"n\":-2"), std::string::npos) << captured;
  EXPECT_EQ(captured.back(), '\n');

  log.setCapture(nullptr);
  log.setJson(oldJson);
  log.setLevel(oldLevel);
}

TEST(Logging, ParseLevelRoundTrip) {
  EXPECT_EQ(parseLogLevel("debug"), LogLevel::kDebug);
  EXPECT_EQ(parseLogLevel("warn"), LogLevel::kWarn);
  EXPECT_EQ(parseLogLevel("off"), LogLevel::kOff);
  EXPECT_FALSE(parseLogLevel("verbose").has_value());
}

TEST(Telemetry, MetricsStreamSchemaAndMonotonicTime) {
  const std::string path = "telemetry_test_metrics.jsonl";
  std::remove(path.c_str());
  auto sim = pulseSim();
  TelemetryOptions to;
  to.metricsInterval = 0;  // sample every macro cycle
  to.metricsPath = path;
  to.endTime = 4 * sim->macroDt();
  to.scenario = "quickstart";
  RunTelemetry telemetry(to);
  telemetry.attach(*sim);
  sim->advanceTo(4 * sim->macroDt() - 1e-12);
  telemetry.finish(*sim);

  const std::vector<std::string> lines = fileLines(path);
  ASSERT_GE(lines.size(), 4u);
  EXPECT_NE(lines[0].find("\"schema\":\"tsg-metrics-1\""), std::string::npos)
      << lines[0];
  EXPECT_NE(lines[0].find("\"scenario\":\"quickstart\""), std::string::npos);
  double prev = -1;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const double t = jsonValueOf(lines[i], "t");
    EXPECT_GT(t, prev) << "sample " << i << " not monotonic";
    prev = t;
    EXPECT_TRUE(std::isfinite(jsonValueOf(lines[i], "total")));
    EXPECT_TRUE(std::isfinite(jsonValueOf(lines[i], "max_abs_eta")));
  }
  EXPECT_EQ(static_cast<int>(lines.size()) - 1, telemetry.samplesTaken());
  std::remove(path.c_str());
}

TEST(Telemetry, CaptureInvariants) {
  auto sim = pulseSim();
  TelemetryOptions to;
  to.endTime = 2 * sim->macroDt();
  RunTelemetry telemetry(to);
  telemetry.attach(*sim);
  sim->advanceTo(2 * sim->macroDt() - 1e-12);

  const PhysicsSample s = telemetry.capture(*sim);
  EXPECT_GT(s.cflMargin, 0);
  EXPECT_GE(s.ltsSkew, 1.0);  // GTS never does less work than LTS
  EXPECT_GT(s.elementUpdates, 0u);
  std::uint64_t total = 0;
  for (std::uint64_t u : s.clusterUpdates) {
    total += u;
  }
  // At a macro-cycle boundary the analytic per-cluster counts are exact.
  EXPECT_EQ(total, s.elementUpdates);
  EXPECT_TRUE(std::isfinite(s.energyTotal));
}

TEST(Telemetry, StatusHeartbeatFields) {
  const std::string path = "telemetry_test_status.json";
  std::remove(path.c_str());
  auto sim = pulseSim();
  TelemetryOptions to;
  to.statusPath = path;
  to.endTime = 3 * sim->macroDt();
  to.scenario = "quickstart";
  RunTelemetry telemetry(to);
  telemetry.attach(*sim);
  sim->advanceTo(3 * sim->macroDt() - 1e-12);
  telemetry.noteCheckpoint("fake_ckpt_8.tsgck", sim->time());
  telemetry.finish(*sim);

  const std::string json = fileBytes(path);
  EXPECT_NE(json.find("\"schema\": \"tsg-status-1\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"state\": \"done\""), std::string::npos);
  EXPECT_NE(json.find("\"progress_percent\": 100"), std::string::npos) << json;
  EXPECT_NE(json.find("\"eta_seconds\": 0"), std::string::npos) << json;
  EXPECT_NE(json.find("fake_ckpt_8.tsgck"), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("solver.macro_cycles"), std::string::npos) << json;
  std::remove(path.c_str());
}

TEST(Telemetry, TraceContainsCheckpointAndIoSpans) {
  const std::string ckpt = "telemetry_test.tsgck";
  const std::string trace = "telemetry_test_trace.json";
  std::remove(ckpt.c_str());
  std::remove(trace.c_str());
  auto sim = pulseSim();
  PerfMonitor& perf = sim->enablePerfMonitor(/*withTrace=*/true);
  TelemetryOptions to;
  to.endTime = 2 * sim->macroDt();
  RunTelemetry telemetry(to);
  telemetry.attach(*sim);
  sim->advanceTo(2 * sim->macroDt() - 1e-12);
  sim->saveCheckpoint(ckpt);
  perf.writeChromeTrace(trace);

  const std::string json = fileBytes(trace);
  EXPECT_NE(json.find("\"checkpoint_save\""), std::string::npos);
  EXPECT_NE(json.find("\"predictor\""), std::string::npos);
  EXPECT_NE(json.find("\"run/io\""), std::string::npos);  // track label
  EXPECT_NE(json.find("\"gravity_eta_rk7_updates\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);  // instant events

  // Span aggregates surface in the perf report.
  ASSERT_NE(perf.spanStats().find("checkpoint_save"), perf.spanStats().end());
  EXPECT_EQ(perf.spanStats().at("checkpoint_save").invocations, 1u);
  const std::string report = perfReportJson(perf, sim->perfReportMeta("test"));
  EXPECT_NE(report.find("\"spans\""), std::string::npos);
  EXPECT_NE(report.find("\"checkpoint_save\""), std::string::npos);
  std::remove(ckpt.c_str());
  std::remove(trace.c_str());
}

TEST(Telemetry, TraceShiftsSpansThatBeginBeforeTheEpoch) {
  // runPipeline times its set-up before the monitor exists and records
  // it afterwards; the trace must still have no negative timestamp.
  const std::string trace = "telemetry_early_span_trace.json";
  PerfMonitor perf;
  perf.enableTrace();
  const double epoch = perf.traceEpoch();
  perf.recordSpan("early", epoch - 0.5, epoch - 0.25);
  perf.recordSpan("late", epoch + 0.25, epoch + 0.5);
  perf.writeChromeTrace(trace);
  const std::string json = fileBytes(trace);
  std::remove(trace.c_str());
  EXPECT_NE(json.find("\"name\":\"early\",\"cat\":\"run\",\"ph\":\"X\","
                      "\"ts\":0.000,\"dur\":250000.000"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"name\":\"late\",\"cat\":\"run\",\"ph\":\"X\","
                      "\"ts\":750000.000,\"dur\":250000.000"),
            std::string::npos)
      << json;
  EXPECT_EQ(json.find("\"ts\":-"), std::string::npos) << json;
}

TEST(Telemetry, PerfReportCarriesSetupSpans) {
  const std::string cfgPath = "telemetry_setup_spans.cfg";
  const std::string report = "telemetry_setup_spans_perf.json";
  {
    std::ofstream out(cfgPath);
    out << "preset = " << TSG_PRESET_DIR << "/quickstart.cfg\n"
        << "degree = 1\nend_time = 0.02\nsnapshots = 1\n"
        << "vtk_output = false\nhealth_check = false\n"
        << "output_prefix = telemetry_setup_spans\n";
  }
  const ConfigFile cfg = ConfigFile::load(cfgPath);
  RunOptions o = readRunOptions(cfg);
  o.perfReportPath = report;
  const RunResult r = runPipeline(cfgPath, cfg, o);
  const std::string json = fileBytes(report);
  for (const char* name :
       {"scenario_resolve", "asset_build", "simulation_construct"}) {
    const std::regex span(std::string("\"") + name +
                          "\": \\{\"seconds\": ([^,]+), \"invocations\": 1\\}");
    std::smatch m;
    ASSERT_TRUE(std::regex_search(json, m, span)) << name << "\n" << json;
    EXPECT_GT(std::stod(m[1].str()), 0.0) << name;
  }
  for (const auto& rec : r.receivers) {
    std::remove(("telemetry_setup_spans_receiver_" + rec.name + ".csv").c_str());
  }
  std::remove(report.c_str());
  std::remove(cfgPath.c_str());
}

TEST(Telemetry, RestoredRunContinuesMetricsStream) {
  const std::string ckpt = "telemetry_resume.tsgck";
  const std::string path = "telemetry_resume_metrics.jsonl";
  std::remove(ckpt.c_str());
  std::remove(path.c_str());
  auto sim = pulseSim();
  sim->advanceTo(2 * sim->macroDt() - 1e-12);
  sim->saveCheckpoint(ckpt);

  auto sim2 = pulseSim();
  sim2->restoreCheckpoint(ckpt);
  TelemetryOptions to;
  to.metricsPath = path;
  to.endTime = 4 * sim2->macroDt();
  RunTelemetry telemetry(to);
  telemetry.attach(*sim2);
  sim2->advanceTo(4 * sim2->macroDt() - 1e-12);
  telemetry.finish(*sim2);

  // The first sample starts at the restored time, not zero.
  const std::vector<std::string> lines = fileLines(path);
  ASSERT_GE(lines.size(), 2u);
  EXPECT_GT(jsonValueOf(lines[1], "t"), 0.0);
  std::remove(ckpt.c_str());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tsg
