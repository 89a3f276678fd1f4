"""Tests of the seeded config generator and of tsg_bench's exact counts.

    python3 perfbench/test_configgen.py

The tsg_bench tests build it first (as run.py does).
"""

import json
import re
import subprocess
import tempfile
import unittest
from pathlib import Path

import configgen
import run

PRESET_TEXT = run.PRESET.read_text()
NPROC = 4


def temp_dir():
    """A temporary directory inside the checkout's build tree."""
    run.BUILD.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=run.BUILD)


def sections(text):
    """Map each section occurrence (name, index) to its non-blank lines."""
    out, seen, current = {}, {}, None
    for line in text.splitlines():
        header = configgen._HEADER.match(line)
        if header:
            name = header.group(2)
            current = (name, seen.get(name, 0))
            seen[name] = current[1] + 1
            out[current] = []
        elif current is not None and line.strip():
            out[current].append(line)
    return out


class GeneratorTest(unittest.TestCase):
    def test_same_seed_gives_identical_bytes(self):
        for workload in configgen.WORKLOADS:
            a = configgen.render(workload, PRESET_TEXT, 7, NPROC)
            b = configgen.render(workload, PRESET_TEXT, 7, NPROC)
            self.assertEqual(a.encode(), b.encode(), workload)

    def test_different_seeds_give_different_draws(self):
        self.assertNotEqual(configgen.megathrust_draws(1),
                            configgen.megathrust_draws(2))
        self.assertNotEqual(configgen.sweep_draws(1, 8),
                            configgen.sweep_draws(2, 8))
        for workload in configgen.WORKLOADS:
            self.assertNotEqual(
                configgen.render(workload, PRESET_TEXT, 1, NPROC),
                configgen.render(workload, PRESET_TEXT, 2, NPROC))

    def test_structural_sections_are_copied_untouched(self):
        preset = sections(PRESET_TEXT)
        for workload in configgen.WORKLOADS:
            rendered = sections(configgen.render(workload, PRESET_TEXT, 3,
                                                 NPROC))
            for key, body in preset.items():
                if key[0] in ("mesh.x", "mesh.y", "mesh.z", "bathymetry",
                              "material", "boundary", "fault.segment",
                              "solver"):
                    self.assertEqual(rendered[key], body, key)

    def test_draws_keep_rupture_on_fault_and_overstressed(self):
        sigma_n, tau0, mu_s = 50e6, 25e6, 0.677
        for seed in range(200):
            d = configgen.megathrust_draws(seed)
            y = float(d[("fault.nucleation", 0, "center_y")])
            z = float(d[("fault.nucleation", 0, "center_z")])
            r = float(d[("fault.nucleation", 0, "radius")])
            tau = float(d[("fault.nucleation", 0, "tau")])
            self.assertLessEqual(abs(y) + r, 6000)
            self.assertGreaterEqual(z - r, -11000)
            self.assertLessEqual(z + r, -2030)
            self.assertGreater(tau, mu_s * sigma_n)
            self.assertGreater(float(d[("receiver", 0, "z")]), -2000)
            self.assertLess(float(d[("receiver", 1, "z")]), -2000)
            sweep = configgen.sweep_draws(seed, 8)
            for mu_d, taus in zip(sweep["fault.mu_d"],
                                  sweep["fault.nucleation[0].tau"]):
                self.assertLess(float(mu_d) * sigma_n, tau0)
                self.assertGreater(float(taus), mu_s * sigma_n)

    def test_unknown_key_is_an_error(self):
        with self.assertRaises(ValueError):
            configgen._render_sections(PRESET_TEXT,
                                       {("fault", 0, "no_such_key"): "1"})


class BenchBinaryTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def bench(self, args, cwd):
        p = subprocess.run([str(run.BENCH)] + args, cwd=cwd,
                           capture_output=True, text=True)
        return p.returncode, p.stdout.strip().splitlines()

    def test_seeds_share_asset_hash_and_counts(self):
        # One process, as the ensemble's asset cache sees the members.
        with temp_dir() as tmp:
            paths = []
            for workload in configgen.WORKLOADS:
                for seed in (1, 2, 3):
                    path = Path(tmp) / ("%s-%d.cfg" % (workload, seed))
                    path.write_text(configgen.render(workload, PRESET_TEXT,
                                                     seed, NPROC))
                    paths.append(path.name)
            code, out = self.bench(["expect"] + paths, tmp)
            self.assertEqual(code, 0)
            members = json.loads(out[-1])["members"]
        self.assertEqual(len(members), 3 + 3 * 2 * NPROC)
        self.assertEqual(len({m["asset_hash"] for m in members}), 1)
        self.assertEqual({m["elements"] for m in members}, {7020})
        mt = [m for m in members if m["prefix"] == "mt"]
        self.assertEqual({(m["macro_cycles"], m["element_updates"])
                          for m in mt}, {(7, 174076)})

    def test_reused_output_directory_is_refused(self):
        with temp_dir() as tmp:
            cfg = Path(tmp) / "bench.cfg"
            cfg.write_text(configgen.render("megathrust_4t", PRESET_TEXT, 1,
                                            NPROC))
            (Path(tmp) / "mt_ckpt_28.tsgck").write_text("stale")
            for command in ("run", "trace", "sweep", "trace-sweep"):
                code, out = self.bench([command, cfg.name], tmp)
                self.assertEqual(code, 6, command)
                self.assertFalse(json.loads(out[-1])["ok"])

    def test_range_corners_run_healthy(self):
        # Weakest and strongest ruptures the sweep can draw.
        corners = [(mu, dc, tau) for mu in configgen.MU_D
                   for dc in configgen.D_C for tau in configgen.OVERSTRESS]
        text = configgen.sweep_config(PRESET_TEXT, 1, NPROC)
        for key, column in (("fault.mu_d", 0), ("fault.d_c", 1),
                            ("fault.nucleation[0].tau", 2)):
            values = ", ".join(str(c[column]) for c in corners)
            text = re.sub(r"(key = %s\nvalues = ).*" % re.escape(key),
                          lambda m: m.group(1) + values, text)
        with temp_dir() as tmp:
            (Path(tmp) / "bench.cfg").write_text(text)
            code, out = self.bench(["sweep", "bench.cfg"], tmp)
            result = json.loads(out[-1])
        self.assertEqual(code, 0)
        self.assertTrue(result["ok"])
        self.assertEqual(len(result["members"]), len(corners))


if __name__ == "__main__":
    unittest.main()
