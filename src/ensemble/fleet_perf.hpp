#pragma once

// Fleet-level performance roll-up ("tsg-fleetperf-1").
//
// Every ensemble member runs through run_pipeline with a perf monitor
// and carries its per-phase measurement back in RunResult::perfPhases;
// this module aggregates those across the fleet -- per-phase quantiles
// of busy seconds, wall seconds, and sustained GF/s, plus member wall
// times and the asset cache's build-vs-hit economics -- so one JSON
// answers "was this sweep's compute healthy, and where did the time
// go?" without opening N member reports.  The member tsg-perf-2 files
// stay on disk for per-member drill-down; the roll-up references them
// by prefix.  Referenced from the tsg-status-1 fleet heartbeat
// (`fleet_perf` key) so dashboards can discover it.

#include <string>

#include "ensemble/ensemble_runner.hpp"

namespace tsg {

/// The "tsg-fleetperf-1" document aggregating `result` (quantiles over
/// successful members with perf data; failed members are counted but
/// excluded from the distributions).
std::string fleetPerfJson(const EnsembleResult& result);

/// Atomic write of fleetPerfJson.
void writeFleetPerf(const std::string& path, const EnsembleResult& result);

}  // namespace tsg
