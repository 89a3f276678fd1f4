"""Seeded run-config generator for the benchmark workloads.

Both workloads render an inline scenario from the shipped megathrust
preset (``examples/presets/megathrust.cfg``): the preset's sections are
copied line by line, and only the keys named below get drawn values.
The mesh, bathymetry and material sections are never touched, so the
asset hash and the element count are the same for every seed.

* ``megathrust_4t`` draws the nucleation patch (centre, radius,
  overstress) and both receiver positions.
* ``rupture_sweep`` keeps the preset's scenario and draws, per member,
  the dynamic friction ``mu_d``, the slip-weakening distance ``d_c`` and
  the nucleation overstress, as a zip sweep of ``2 * workers`` members.

The draws stay inside ranges where the patch lies on the fault segment
(plane x - z = 2000, |y| <= 6000, -11000 <= z <= -2030), the patch is
overstressed above static strength (mu_s |sigma_n| = 33.85 MPa) and the
stress drop tau_background - mu_d |sigma_n| stays positive, so every
draw nucleates a rupture that the run survives.
"""

import random
import re

WORKLOADS = ("megathrust_4t", "rupture_sweep")

# Run-level settings shared by the workloads.
DEGREE = 2
MEGATHRUST_END_TIME = 0.25
MEGATHRUST_CHECKPOINT_INTERVAL = 0.125
SWEEP_END_TIME = 0.25

# Draw ranges (see the module docstring for why each keeps the run
# healthy and the rupture on the fault).
NUCLEATION_Y = (-2500.0, 2500.0)
NUCLEATION_Z = (-7500.0, -5500.0)
NUCLEATION_RADIUS = (2000.0, 3000.0)
OVERSTRESS = (37e6, 43e6)
WATER_RECEIVER = {"x": (-12000.0, 12000.0), "y": (-8000.0, 8000.0),
                  "z": (-1800.0, -200.0)}
CRUST_RECEIVER = {"x": (-12000.0, 12000.0), "y": (-8000.0, 8000.0),
                  "z": (-12000.0, -3000.0)}
MU_D = (0.33, 0.42)
D_C = (0.10, 0.25)

_HEADER = re.compile(r"^\s*(\[\[?)\s*([A-Za-z0-9_.]+)\s*\]\]?\s*(#.*)?$")
_KEY = re.compile(r"^(\s*)([A-Za-z0-9_]+)(\s*=\s*)(\S+)(.*)$")


def _rng(workload, seed):
    # Seeded from an integer, so draws are stable across processes and
    # independent of PYTHONHASHSEED.
    return random.Random(int(seed) * len(WORKLOADS) +
                         WORKLOADS.index(workload))


def _metres(rng, lo_hi):
    return str(round(rng.uniform(*lo_hi)))


def _stress(rng):
    return "%.4e" % round(rng.uniform(*OVERSTRESS), -4)


def _render_sections(preset_text, values):
    """Copy the preset, replacing the value of `key` inside section
    occurrence `(name, index)` wherever `values[(name, index, key)]`
    is given.  Every replacement must hit exactly one line."""
    out = []
    seen = {}
    current = None
    used = set()
    for line in preset_text.splitlines():
        header = _HEADER.match(line)
        if header:
            name = header.group(2)
            index = seen.get(name, 0)
            seen[name] = index + 1
            current = (name, index)
        else:
            key = _KEY.match(line)
            if key and current is not None:
                slot = (current[0], current[1], key.group(2))
                if slot in values:
                    line = key.group(1) + key.group(2) + key.group(3) + \
                        values[slot] + key.group(5)
                    used.add(slot)
        out.append(line)
    missing = sorted(set(values) - used)
    if missing:
        raise ValueError("preset has no key for %s" % missing)
    return "\n".join(out) + "\n"


def megathrust_draws(seed):
    """The drawn values of one megathrust_4t config."""
    rng = _rng("megathrust_4t", seed)
    draws = {
        ("fault.nucleation", 0, "center_y"): _metres(rng, NUCLEATION_Y),
        ("fault.nucleation", 0, "center_z"): _metres(rng, NUCLEATION_Z),
        ("fault.nucleation", 0, "radius"): _metres(rng, NUCLEATION_RADIUS),
        ("fault.nucleation", 0, "tau"): _stress(rng),
    }
    for index, ranges in enumerate((WATER_RECEIVER, CRUST_RECEIVER)):
        for axis in ("x", "y", "z"):
            draws[("receiver", index, axis)] = _metres(rng, ranges[axis])
    return draws


def sweep_draws(seed, members):
    """Per-axis value lists of one rupture_sweep config."""
    rng = _rng("rupture_sweep", seed)
    rows = [("%.4f" % rng.uniform(*MU_D), "%.4f" % rng.uniform(*D_C),
             _stress(rng)) for _ in range(members)]
    return {
        "fault.mu_d": [r[0] for r in rows],
        "fault.d_c": [r[1] for r in rows],
        "fault.nucleation[0].tau": [r[2] for r in rows],
    }


def megathrust_config(preset_text, seed, threads):
    """One fully coupled run: fast kernels at `threads` OpenMP threads,
    the CLI's default health check, VTK output, periodic checkpoints."""
    head = [
        "# megathrust_4t, seed %d: rendered from the megathrust preset" % seed,
        "degree = %d" % DEGREE,
        "end_time = %g" % MEGATHRUST_END_TIME,
        "output_prefix = mt",
        "kernel_path = fast",
        "threads = %d" % threads,
        "deterministic = true",
        "health_check = true",
        "vtk_output = true",
        "snapshots = 2",
        "checkpoint_interval = %g" % MEGATHRUST_CHECKPOINT_INTERVAL,
        "",
    ]
    return "\n".join(head) + _render_sections(preset_text,
                                              megathrust_draws(seed))


def sweep_config(preset_text, seed, workers):
    """An ensemble of 2 * workers members at one OpenMP thread each,
    batched kernels, no health check, no VTK, shared assets."""
    members = 2 * workers
    head = [
        "# rupture_sweep, seed %d: rendered from the megathrust preset" % seed,
        "degree = %d" % DEGREE,
        "end_time = %g" % SWEEP_END_TIME,
        "output_prefix = sweep",
        "kernel_path = batched",
        "threads = 1",
        "health_check = false",
        "vtk_output = false",
        "snapshots = 1",
        "",
    ]
    tail = ["", "[ensemble]", "workers = %d" % workers, "mode = zip"]
    for key, values in sweep_draws(seed, members).items():
        tail += ["", "[[sweep]]", "key = %s" % key,
                 "values = %s" % ", ".join(values)]
    return "\n".join(head) + _render_sections(preset_text, {}) + \
        "\n".join(tail) + "\n"


def render(workload, preset_text, seed, nproc):
    if workload == "megathrust_4t":
        return megathrust_config(preset_text, seed, nproc)
    if workload == "rupture_sweep":
        return sweep_config(preset_text, seed, nproc)
    raise ValueError("unknown workload %r" % workload)
