#!/usr/bin/env python3
"""Benchmark of tsunamigen: megathrust time-to-solution and rupture-sweep
throughput, with a traced run that splits the time layer by layer.

    python3 perfbench/run.py --workload megathrust_4t --seed 1 \\
        --seconds 45 --trace 0

Run from the repository root.  The first call configures and builds
tsg_bench (the solver library from ../src plus tsg_bench.cpp) under
.bench_build/.  Every timed run is a fresh tsg_bench process in a fresh
output directory.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the lines before it name
every metric with its unit, the run's failure_ratio and the host.
README.md in this directory documents the workloads and metrics.
"""

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import configgen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BENCH = BUILD / "cmake" / "tsg_bench"
PRESET = ROOT / "examples" / "presets" / "megathrust.cfg"
SOURCES = (ROOT / "src" / "CMakeLists.txt",
           ROOT / "cmake" / "CompilerOptions.cmake", PRESET,
           ROOT / "BENCHMARK.json")

SETUP_REPS = 15          # set-up processes per benchmark run
TRACE_BASELINE_RUNS = 2  # untraced runs a traced run is compared with
CHILD_TIMEOUT_S = 150.0  # kill a tsg_bench process after this long
DEADLINE_S = 170.0       # no new process starts after this (exit < 180 s)


def metric_units(kind):
    """Name -> unit of the BENCHMARK.json metrics of one kind."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


START = time.monotonic()
SNAPSHOT = re.compile(r"snapshot: t = *(\S+) s +E_kin (\S+) +E_el (\S+) +"
                      r"E_ac (\S+)")


def say(line):
    print(line, flush=True)


def die(message, code):
    print("perfbench: " + message, file=sys.stderr, flush=True)
    sys.exit(code)


def remaining():
    return DEADLINE_S - (time.monotonic() - START)


# ---- build ---------------------------------------------------------------

def build():
    missing = [str(p.relative_to(ROOT)) for p in SOURCES if not p.exists()]
    if missing:
        die("solver sources not found (%s); run from a full checkout"
            % ", ".join(missing), 2)
    BUILD.mkdir(exist_ok=True)
    log = BUILD / "build.log"
    cmake_dir = BUILD / "cmake"
    steps = []
    if not (cmake_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(cmake_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(cmake_dir), "-j",
                  str(os.cpu_count() or 1)])
    with open(log, "ab") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=out).returncode != 0:
                die("build failed, see %s" % log, 3)


# ---- one tsg_bench process -------------------------------------------------

class Proc:
    """One finished tsg_bench process: its wall time, peak RSS, exit code
    and the JSON object it printed (None when it printed none)."""

    def __init__(self, args, cwd, log):
        timeout = min(CHILD_TIMEOUT_S, max(remaining(), 1.0) + 8.0)
        t0 = time.monotonic()
        with open(log, "wb") as err:
            p = subprocess.Popen([str(BENCH)] + args, cwd=cwd,
                                 stdout=subprocess.PIPE, stderr=err)
            killer = threading.Timer(timeout, p.kill)
            killer.start()
            try:
                out = p.stdout.read()
                _, status, usage = os.wait4(p.pid, 0)
            except BaseException:
                p.kill()  # interrupted: stop the child and reap it
                p.wait()
                raise
            finally:
                killer.cancel()
            p.returncode = os.waitstatus_to_exitcode(status)
            p.stdout.close()
        self.wall_s = time.monotonic() - t0
        self.rss_mib = usage.ru_maxrss / 1024.0
        self.code = p.returncode
        self.log = log
        self.result = None
        lines = out.decode(errors="replace").strip().splitlines()
        if lines:
            try:
                self.result = json.loads(lines[-1])
            except ValueError:
                pass

    @property
    def ok(self):
        return self.code == 0 and bool(self.result) and \
            self.result.get("ok", True)

    def why(self):
        if self.result and self.result.get("error"):
            return self.result["error"]
        return "exit code %d" % self.code


# ---- output checks --------------------------------------------------------

def file_digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def csv_finite(path):
    """Receiver CSV with a header and at least one row, all finite."""
    rows = path.read_text().splitlines()
    try:
        values = [float(cell) for row in rows[1:] for cell in row.split(",")]
    except ValueError:
        return False
    return len(rows) > 1 and all(math.isfinite(v) for v in values)


def snapshot_energies(log):
    """(t, E_kin, E_el, E_ac) of every snapshot line in a run log."""
    out = []
    for line in Path(log).read_text(errors="replace").splitlines():
        m = SNAPSHOT.search(line)
        if m:
            out.append(tuple(float(v) for v in m.groups()))
    return out


class Checker:
    """Output checks shared by all runs of one seed: exact work counts,
    finite energies, and byte-identical receiver CSVs (and, for
    megathrust_4t, VTK files) across every run of the seed."""

    def __init__(self, expect):
        self.expect = expect
        self.reference = {}  # output name -> digest of the first run
        self.errors = []

    def same_bytes(self, name, path):
        digest = file_digest(path)
        first = self.reference.setdefault(name, digest)
        return digest == first

    def fail(self, message):
        self.errors.append(message)
        return False

    def counts(self, proc, tag):
        r = proc.result
        for key in ("element_updates", "macro_cycles"):
            if r.get(key) != self.expect[key]:
                return self.fail("%s: %s = %s, expected exactly %s (a resumed "
                                 "or truncated run)" % (tag, key, r.get(key),
                                                        self.expect[key]))
        return True

    def energies(self, proc, tag, snapshots):
        e = snapshot_energies(proc.log)
        if len(e) != snapshots:
            return self.fail("%s: %d snapshot energies logged, expected %d"
                             % (tag, len(e), snapshots))
        if not all(math.isfinite(v) for row in e for v in row):
            return self.fail("%s: non-finite energy" % tag)
        return True

    def outputs(self, tag, directory, names):
        good = True
        for name in names:
            path = directory / name
            if not path.exists():
                good = self.fail("%s: %s missing" % (tag, name))
            elif name.endswith(".csv") and not csv_finite(path):
                good = self.fail("%s: %s empty or non-finite" % (tag, name))
            elif not self.same_bytes(name, path):
                good = self.fail("%s: %s differs from the seed's first run"
                                 % (tag, name))
        return good


# ---- workloads -------------------------------------------------------------

class Workload:
    def __init__(self, name, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.nproc = os.cpu_count() or 1
        self.preset = PRESET.read_text()
        self.config = configgen.render(name, self.preset, seed, self.nproc)
        self.serial = 0
        probe = self.fresh_dir("expect")
        cfg = self.write_config(probe, self.config)
        p = Proc(["expect", cfg.name], probe, self.workdir / "expect.log")
        if p.code != 0 or not p.result:
            die("expected-count probe failed: %s" % p.why(), 4)
        self.expect = p.result
        self.check = Checker(self.expect)
        self.attempted = 0
        self.failed = 0

    def fresh_dir(self, kind):
        self.serial += 1
        d = self.workdir / ("%s-%03d" % (kind, self.serial))
        d.mkdir()  # raises if it exists: every run gets a new directory
        return d

    @staticmethod
    def write_config(directory, text):
        path = directory / "bench.cfg"
        path.write_text(text)
        return path

    def spawn(self, command, text=None):
        d = self.fresh_dir(command)
        cfg = self.write_config(d, text or self.config)
        proc = Proc([command, cfg.name], d, self.workdir / (d.name + ".log"))
        proc.dir = d
        return proc

    def setup_times(self):
        probes = []
        for _ in range(SETUP_REPS):
            p = self.spawn("setup")
            if not p.ok:
                die("set-up probe failed: %s" % p.why(), 4)
            probes.append(p.result)
        return probes

    def timed_runs(self, seconds, count=None):
        """Untraced runs (at least one) that end within `seconds`, or
        exactly `count` runs."""
        runs = []
        t0 = time.monotonic()
        while True:
            runs.append(self.run_once(self.untraced))
            expected = statistics.median(r.wall_s for r in runs)
            if count:
                more = len(runs) < count
            else:
                more = time.monotonic() - t0 + expected <= seconds
            if not more or remaining() < 2.5 * expected:
                return runs


class Megathrust(Workload):
    untraced = "run"
    snapshots = 2
    outputs = ("mt_receiver_water.csv", "mt_receiver_crust.csv",
               "mt_wavefield.vtk", "mt_surface.vtk")

    def run_once(self, command, text=None):
        p = self.spawn(command, text)
        tag = "%s %s" % (command, p.dir.name)
        self.attempted += 1
        good = p.ok or self.check.fail("%s: %s" % (tag, p.why()))
        good = good and self.check.counts(p, tag)
        good = good and self.check.energies(p, tag, self.snapshots)
        good = good and self.check.outputs(tag, p.dir, self.outputs)
        if good and p.result["checkpoint_saves"] < 1:
            good = self.check.fail("%s: no checkpoint written" % tag)
        if not good:
            self.failed += 1
        p.good = good
        shutil.rmtree(p.dir, ignore_errors=True)
        return p

    def end_to_end(self, runs, setups):
        walls = [r.wall_s for r in runs if r.good]
        members = [r.result["pipeline_s"] for r in runs if r.good]
        return end_to_end_metrics(walls, members, [r.rss_mib for r in runs],
                                  setups)

    def per_layer(self, runs, setups):
        traced = self.run_once("trace")
        serial = self.run_once(
            "trace", configgen.megathrust_config(self.preset, self.seed, 1))
        if not (traced.good and serial.good):
            return None
        t = traced.result
        spans = t["spans"]
        step = self_seconds(spans, "solver.advance")
        m = {
            "scenario.resolve_s": self_seconds(spans, "scenario.resolve"),
            "assets.build_s": self_seconds(spans, "assets.build"),
            "assets.builds": 1,
            "assets.hits": 0,
            "assets.hit_ratio": 0.0,
            "simulation.construct_s": self_seconds(spans,
                                                   "simulation.construct"),
            "solver.step_s": step,
            "solver.element_updates": t["element_updates"],
            "solver.macro_cycles": t["macro_cycles"],
            "solver.updates_per_s": t["element_updates"] / step,
            "scheduler.thread_speedup":
                self_seconds(serial.result["spans"], "solver.advance") / step,
            "diagnostics.health_s": self_seconds(spans, "diagnostics.health"),
            "diagnostics.health_checks": t["health_checks"],
            "diagnostics.energy_s": self_seconds(spans, "diagnostics.energy"),
            "checkpoint.save_s": self_seconds(spans, "checkpoint.save"),
            "checkpoint.saves": t["checkpoint_saves"],
            "checkpoint.bytes": t["checkpoint_bytes"],
            "io.receiver_csv_s": self_seconds(spans, "io.receiver_csv"),
            "io.vtk_s": self_seconds(spans, "io.vtk"),
            "io.bytes": t["io_bytes"],
            "ensemble.worker_idle_s": 0.0,
        }
        m.update(kernel_metrics(
            {k: t[k] for k in ("predictor", "rupture", "corrector")},
            t["threads"]))
        top = sum(s["t1"] - s["t0"] for s in spans if s["parent"] < 0)
        m["trace.unattributed_s"] = traced.wall_s - top
        m["trace.overhead"] = traced.wall_s / statistics.median(
            r.wall_s for r in runs) - 1.0
        return m


class RuptureSweep(Workload):
    untraced = "sweep"

    def member_outputs(self, prefix):
        return [prefix + "_receiver_water.csv", prefix + "_receiver_crust.csv"]

    def run_once(self, command, text=None):
        p = self.spawn(command, text)
        tag = "%s %s" % (command, p.dir.name)
        members = len(self.expect["members"])
        self.attempted += members
        reported = (p.result or {}).get("members", [])
        # Process-wide checks cannot name a member: all of them fail.
        whole = (p.code == 0 and len(reported) == members or
                 self.check.fail("%s: %s" % (tag, p.why())))
        if not (whole and self.check.counts(p, tag) and
                self.check.energies(p, tag, members)):
            self.failed += members
            p.good = False
        else:
            bad = 0
            for m in reported:
                good = m["ok"] or self.check.fail(
                    "%s: %s: %s" % (tag, m["prefix"], m["error"]))
                if good and m["resumed"]:
                    good = self.check.fail("%s: %s resumed from a stale "
                                           "checkpoint" % (tag, m["prefix"]))
                good = good and self.check.outputs(
                    tag, p.dir, self.member_outputs(m["prefix"]))
                bad += not good
            self.failed += bad
            p.good = bad == 0
        if command == "trace-sweep" and p.good:
            p.reports = [json.loads((p.dir / (m["prefix"] + "_perf.json"))
                                    .read_text()) for m in reported]
            p.io_bytes = sum((p.dir / f).stat().st_size for m in reported
                             for f in self.member_outputs(m["prefix"]))
        shutil.rmtree(p.dir, ignore_errors=True)
        return p

    def end_to_end(self, runs, setups):
        walls = [r.wall_s for r in runs if r.good]
        members = [m["wall_s"] for r in runs if r.good
                   for m in r.result["members"]]
        return end_to_end_metrics(walls, members, [r.rss_mib for r in runs],
                                  setups)

    def per_layer(self, runs, setups):
        traced = self.run_once("trace-sweep")
        if not traced.good:
            return None
        t = traced.result
        reports = traced.reports
        phases = {}
        for key, name in (("predictor", "predictor"),
                          ("rupture", "rupture_flux"),
                          ("corrector", "corrector")):
            rows = [ph for rep in reports for ph in rep["phases"]
                    if ph["phase"] == name]
            phases[key] = {
                "busy_s": sum(ph["busy_seconds"] for ph in rows),
                "wall_s": sum(ph["wall_seconds"] for ph in rows),
                "flops": sum(ph["flops"] for ph in rows),
                "bytes": sum(ph["bytes_estimate"] for ph in rows),
            }

        def span(name):
            return sum(rep.get("spans", {}).get(name, {}).get("seconds", 0.0)
                       for rep in reports)

        step = sum(p["wall_s"] for p in phases.values())
        resolve = statistics.median(s["resolve_s"] for s in setups)
        construct = statistics.median(s["construct_s"] for s in setups)
        member_walls = sum(m["wall_s"] for m in t["members"])
        builds, hits = t["asset_builds"], t["asset_hits"]
        m = {
            "scenario.resolve_s": resolve,
            "assets.build_s": t["asset_build_s"],
            "assets.builds": builds,
            "assets.hits": hits,
            "assets.hit_ratio": hits / (builds + hits),
            "simulation.construct_s": construct,
            "solver.step_s": step,
            "solver.element_updates": t["element_updates"],
            "solver.macro_cycles": t["macro_cycles"],
            "solver.updates_per_s": t["element_updates"] / step,
            "scheduler.thread_speedup": 0.0,
            "diagnostics.health_s": span("health_scan"),
            "diagnostics.health_checks": t["health_scans"],
            "diagnostics.energy_s": 0.0,
            "checkpoint.save_s": span("checkpoint_save"),
            "checkpoint.saves": t["checkpoint_saves"],
            "checkpoint.bytes": 0,
            "io.receiver_csv_s": span("output_receiver_csv"),
            "io.vtk_s": span("output_vtk"),
            "io.bytes": traced.io_bytes,
            "ensemble.worker_idle_s":
                self.nproc * t["ensemble_s"] - member_walls,
        }
        m.update(kernel_metrics(phases, 1))
        attributed = (resolve + construct + t["asset_build_s"] + step +
                      m["diagnostics.health_s"] + m["checkpoint.save_s"] +
                      m["io.receiver_csv_s"] + m["io.vtk_s"])
        m["trace.unattributed_s"] = member_walls - attributed
        m["trace.overhead"] = traced.wall_s / statistics.median(
            r.wall_s for r in runs) - 1.0
        return m


WORKLOAD_TYPES = {"megathrust_4t": Megathrust, "rupture_sweep": RuptureSweep}


# ---- metrics ---------------------------------------------------------------

def percentile(values, q):
    """Linear-interpolation percentile (q in [0, 100])."""
    v = sorted(values)
    if len(v) == 1:
        return v[0]
    pos = (len(v) - 1) * q / 100.0
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def end_to_end_metrics(walls, members, rss, setups):
    if not walls:
        return None
    return {
        "time_to_solution_s": statistics.median(walls),
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "member_wall_s_p50": percentile(members, 50),
        "member_wall_s_p90": percentile(members, 90),
        "peak_rss_mib": statistics.median(rss),
    }


def self_seconds(spans, name):
    """Summed self time of the spans called `name`: each span's duration
    minus the part its child spans cover."""
    total = 0.0
    for i, s in enumerate(spans):
        if s["name"] != name:
            continue
        children = sum(c["t1"] - c["t0"] for c in spans if c["parent"] == i)
        total += s["t1"] - s["t0"] - children
    return total


def kernel_metrics(phases, threads):
    """Kernel and scheduler lines from PerfMonitor phase totals
    (busy = summed per-thread seconds, wall = wave brackets)."""
    m = {}
    for key in ("predictor", "corrector"):
        p = phases[key]
        m["kernels.%s.wall_s" % key] = p["wall_s"]
        m["kernels.%s.busy_s" % key] = p["busy_s"]
        m["kernels.%s.gflops_per_core" % key] = \
            p["flops"] / p["busy_s"] / 1e9 if p["busy_s"] > 0 else 0.0
    flops = sum(p["flops"] for p in phases.values())
    nbytes = sum(p["bytes"] for p in phases.values())
    m["kernels.flops"] = flops
    m["kernels.bytes_computed"] = nbytes
    m["kernels.flop_per_byte"] = flops / nbytes if nbytes else 0.0
    r = phases["rupture"]
    m["rupture.flux.wall_s"] = r["wall_s"]
    m["rupture.flux.occupancy"] = \
        r["busy_s"] / (r["wall_s"] * threads) if r["wall_s"] > 0 else 0.0
    busy = sum(p["busy_s"] for p in phases.values())
    wall = sum(p["wall_s"] for p in phases.values())
    m["scheduler.occupancy"] = busy / (wall * threads) if wall > 0 else 0.0
    return m


# ---- main ------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOAD_TYPES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # SIGTERM unwinds like an exception, so a running tsg_bench is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    build()
    runs_root = BUILD / "runs"
    runs_root.mkdir(exist_ok=True)
    workdir = runs_root / ("%s-seed%d-trace%d-pid%d" % (
        args.workload, args.seed, args.trace, os.getpid()))
    workdir.mkdir()
    host = Proc(["host"], workdir, workdir / "host.log").result
    w = WORKLOAD_TYPES[args.workload](args.workload, args.seed, workdir)
    setups = w.setup_times()
    runs = w.timed_runs(args.seconds,
                        TRACE_BASELINE_RUNS if args.trace else None)
    if args.trace:
        metrics = w.per_layer(runs, setups)
        units = metric_units("per_layer")
    else:
        metrics = w.end_to_end(runs, setups)
        units = metric_units("end_to_end")
    correct = metrics is not None and w.failed == 0 and not w.check.errors

    for error in w.check.errors:
        say("FAILED %s" % error)
    if correct:
        shutil.rmtree(workdir, ignore_errors=True)
    else:
        say("run logs kept in %s" % workdir.relative_to(ROOT))
    say("host %s hw_counters=%s" % (json.dumps(host["host"], sort_keys=True),
                                    str(host["hw_counters"]).lower()))
    say("workload %s seed %d: %d runs timed, %d set-up probes, "
        "failure_ratio %d/%d = %.4g" % (args.workload, args.seed, len(runs),
                                        len(setups), w.failed, w.attempted,
                                        w.failed / w.attempted))
    for name, unit in units.items():
        value = metrics.get(name) if metrics else None
        say("  %-36s %s %s" % (name, "n/a" if value is None else
                               "%.6g" % value, unit))
    result = {
        "correct": correct,
        "attempted": w.attempted,
        "failed": w.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()} if metrics else {},
    }
    # Full record of the run, stamped with the host it ran on.
    record = dict(result, workload=args.workload, seed=args.seed,
                  trace=args.trace, seconds=args.seconds, host=host,
                  failure_ratio=w.failed / w.attempted,
                  errors=w.check.errors, expect=w.expect, setups=setups,
                  runs=[{"wall_s": r.wall_s, "rss_mib": r.rss_mib,
                         "result": r.result} for r in runs])
    results = BUILD / "results"
    results.mkdir(exist_ok=True)
    (results / (workdir.name + ".json")).write_text(
        json.dumps(record, indent=1))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
