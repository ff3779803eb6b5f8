"""The benchmark's three workloads, each a study a library or CLI user waits for.

A workload makes its inputs from the seed in `setup`, runs one study in
`run` and judges the study's outputs in `check`.  `check` returns a list of
failure messages; an empty list means the study's outputs are correct.
Importing this module imports numpy and patchwave, so the benchmark times
the import as part of set-up.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import patchwave as pw
from patchwave import cli

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"


def compare_reference(out: dict, ref: dict, tolerances: dict) -> list[str]:
    """Failures of `out` against reference values: numbers must agree within
    the relative tolerance named for them (0 when none is named), anything
    else exactly."""
    failures = []
    for key, expected in ref.items():
        got = out.get(key)
        if isinstance(expected, bool) or not isinstance(expected, (int, float)):
            ok = got == expected
        else:
            ok = (got is not None
                  and abs(got - expected) <= tolerances.get(key, 0.0) * abs(expected))
        if not ok:
            failures.append(f"{key}: {got!r} differs from reference {expected!r}")
    return failures


def _skeleton_distance(surface, pts):
    """Distance from each point to the nearest patch edge of the surface."""
    edges = set()
    for patch in surface.patches:
        ids = patch.corner_ids
        for k in range(4):
            edges.add(tuple(sorted((ids[k], ids[(k + 1) % 4]))))
    best = np.full(len(pts), np.inf)
    for a, b in sorted(edges):
        pa, pb = surface.vertices[a], surface.vertices[b]
        d = pb - pa
        t = np.clip((pts - pa) @ d / (d @ d), 0.0, 1.0)
        best = np.minimum(best, np.linalg.norm(pts - (pa + t[:, None] * d),
                                               axis=1))
    return best


class CubeBemStudy:
    """Criterion 8 on the unit cube: assemble at L, GMRES on the
    edge-distance^0.1 right-hand side, analyze the density at J, then the
    interior potential at seeded points."""

    name = "cube-bem-study"
    min_studies = 1
    workers = 1

    def __init__(self, L: int = 5, J: int = 5, points: int = 256):
        self.L, self.J, self.points = L, J, points

    def setup(self, seed: int):
        surface = pw.load_surface(pw.unit_cube())
        rng = np.random.default_rng(seed)
        return SimpleNamespace(surface=surface, basis=pw.haar_basis(),
                               points=rng.uniform(0.15, 0.85, (self.points, 3)))

    def run(self, inp) -> dict:
        surface = inp.surface
        system = pw.assemble(surface, self.L, workers=self.workers)
        rep = pw.solve(system,
                       lambda pts: _skeleton_distance(surface, pts) ** 0.1,
                       use_gmres=True)
        del system
        sol = pw.analyze_solution(surface, rep.density, inp.basis, self.J,
                                  pw.WeightedSpec(1, 0.5), s=0.75,
                                  workers=self.workers)
        pot = pw.potential_eval(surface, rep.density, inp.points)
        return {
            "residual": rep.residual,
            "exponent_ratio": sol.exponent_ratio,
            "adaptive_decay": None if sol.adaptive is None else sol.adaptive.decay,
            "uniform_decay": None if sol.uniform is None else sol.uniform.decay,
            "potentials_finite": bool(np.all(np.isfinite(pot))),
            "potential_sum": math.fsum(pot),
            "potential_l2": float(np.linalg.norm(pot)),
        }

    def check(self, out: dict, first: dict | None) -> list[str]:
        failures = []
        if not out["residual"] <= 1e-10:
            failures.append(f"relative residual {out['residual']:.3e} > 1e-10")
        if not out["exponent_ratio"] >= 1.4:
            failures.append(f"exponent ratio {out['exponent_ratio']} < 1.4")
        if not out["potentials_finite"]:
            failures.append("non-finite interior potential")
        return failures


class VertexStudy:
    """A seeded vertex singularity |x - v|^beta on the cube: haar analysis at
    J, n-term and uniform rates, tail sums, a Besov norm, the weighted norm,
    and criterion 3's dual-moment sweep (alpert2, one level)."""

    name = "vertex-study"
    min_studies = 1
    workers = 2
    _POLYS = ([[1.0]], [[0.0], [1.0]], [[0.0, 1.0]], [[1.0, -3.0], [2.0, 0.0]])

    def __init__(self, J: int = 8, moment_level: int = 4,
                 n_exponents=range(4, 15)):
        self.J, self.moment_level = J, moment_level
        self.ns = [1 << m for m in n_exponents]

    def setup(self, seed: int):
        surface = pw.load_surface(pw.unit_cube())
        rng = np.random.default_rng(seed)
        vertex = int(rng.integers(surface.n_vertices))
        beta = float(rng.uniform(0.55, 0.65))
        return SimpleNamespace(
            surface=surface, haar=pw.haar_basis(),
            alpert2=pw.multiwavelet_basis(),
            resolution=pw.ResolutionOfUnity(surface), vertex=vertex, beta=beta,
            model=pw.VertexPowerModel(surface, vertex, beta))

    def _moment_sweep(self, surface, basis) -> tuple[float, int]:
        j = self.moment_level
        mask = pw.classify_level(surface, basis, j)
        worst, n = 0.0, 0
        for i in range(surface.n_patches):
            for k1, k2 in np.argwhere(mask[i]):
                for e in (1, 2, 3):
                    for m1 in range(basis.d):
                        for m2 in range(basis.d):
                            idx = pw.WaveletIndex(j, i, e, int(k1), int(k2),
                                                  m1, m2)
                            for P in self._POLYS:
                                worst = max(worst, pw.moment_check(
                                    surface, basis, idx, P))
                                n += 1
        return worst, n

    def run(self, inp) -> dict:
        surface, basis = inp.surface, inp.haar
        field = pw.analyze(surface, inp.model, basis, self.J,
                           workers=self.workers)
        target = pw.BesovSpec(0.0, 2.0, 2.0)
        plan = pw.n_term_plan(field, target)
        adaptive = pw.fit_rate([(n, plan.error_at(n)) for n in self.ns])
        uni = [pw.uniform_approx(field, target, j)
               for j in range(basis.j_star, self.J)]
        uniform = pw.fit_rate([(u.n_effective, u.error) for u in uni])
        interior = pw.level_tail_sums(field, 2.0, kinds="interior")
        boundary = pw.level_tail_sums(field, 1.25, kinds="boundary")
        besov = pw.besov_norm(field, pw.BesovSpec(1.0, 2.0, 2.0))
        try:
            wnorm = pw.weighted_sobolev_norm(
                inp.model, surface, inp.resolution, pw.WeightedSpec(1, 1.2),
                workers=self.workers)
        except pw.WeightedNormDivergence:
            wnorm = math.inf
        worst, n_moments = self._moment_sweep(surface, inp.alpert2)
        return {
            "vertex": inp.vertex,
            "beta": inp.beta,
            "adaptive_decay": adaptive.decay,
            "uniform_decay": uniform.decay,
            "interior_tail": math.fsum(interior.values()),
            "boundary_tail": math.fsum(boundary.values()),
            "besov_norm": besov,
            "weighted_norm": wnorm,
            "worst_moment": worst,
            "moment_checks": n_moments,
        }

    def check(self, out: dict, first: dict | None) -> list[str]:
        failures = []
        if not out["worst_moment"] <= 1e-10:
            failures.append(f"worst interior moment {out['worst_moment']:.3e}"
                            " > 1e-10")
        if not math.isfinite(out["weighted_norm"]):
            failures.append("weighted norm did not converge")
        if not out["adaptive_decay"] > out["uniform_decay"]:
            failures.append(f"adaptive decay {out['adaptive_decay']:.4f} does "
                            f"not exceed uniform {out['uniform_decay']:.4f}")
        return failures


# criterion 10's six configs; the seed sets the norms and synth seeds and
# the whitney corner
_CLI_DOCS = {
    "norms": {
        "kind": "norms", "surface": "cube", "basis": "haar", "J": 3,
        "spaces": [[1.0, 2.0, 2.0], [0.75, 2.0, 2.0]],
        "params": {"synth": {"kind": "random_besov", "spec": [1.0, 2.0, 2.0]}},
    },
    "nterm": {
        "kind": "nterm", "basis": "haar", "J": 6,
        "spaces": [[0.0, 2.0, 2.0]],
        "params": {"synth": {"kind": "suffix_saturator", "gamma": 1.0,
                             "spec": [0.0, 2.0, 2.0]},
                   "n_lo": 16, "n_hi": 1024, "predicted": 0.5},
    },
    "embed-check": {
        "kind": "embed-check", "surface": "cube", "basis": "haar", "J": 5,
        "spaces": [[1.0, 2.0, 2.0], [1.5, 1.0, 1.0], [0.8, 2.0, 1.0]],
        "params": {"model": {"kind": "vertex", "beta": 0.6},
                   "taus": [1.6, 2.0], "k": 1, "rho": 0.5,
                   "s": 0.75, "p": 2.0},
    },
    "bem-solve": {
        "kind": "bem-solve", "surface": "cube", "basis": "haar",
        "L": 3, "J": 3,
        "params": {"rhs": ["harmonic:linear", 1], "k": 1, "rho": 0.5,
                   "s": 0.75},
    },
    "whitney": {
        "kind": "whitney",
        "params": {"k": 2, "count": 6, "edge": 0.125},
    },
    "synth": {
        "kind": "synth", "basis": "haar", "J": 4,
        "params": {"synth": {"kind": "random_besov", "spec": [1.0, 2.0, 2.0]}},
    },
}

# what a console-script `patchwave` process runs
_CLI_ENTRY = "import sys; from patchwave.cli import main; sys.exit(main())"


def _report_digests(out_dir: Path) -> tuple[dict, int]:
    """sha256 of each CSV the manifest lists, and of the manifest itself."""
    manifest = out_dir / "manifest.json"
    names = [n for n in json.loads(manifest.read_text())["artifacts"]
             if n.endswith(".csv")] + ["manifest.json"]
    digests, size = {}, 0
    for name in names:
        data = (out_dir / name).read_bytes()
        digests[name] = hashlib.sha256(data).hexdigest()
        size += len(data)
    return digests, size


class CliSuites:
    """The six criterion-10 configs, each as its own `patchwave <kind>
    --config` process, in sequence; reports must repeat byte for byte."""

    name = "cli-suites"
    min_studies = 2          # the byte-identity check needs two passes
    workers = 1
    kinds = tuple(_CLI_DOCS)

    def __init__(self):
        self.out = OUT / self.name
        self.child_peak_rss_kb = 0

    def setup(self, seed: int):
        rng = np.random.default_rng(seed)
        docs = json.loads(json.dumps(_CLI_DOCS))
        docs["norms"]["seed"] = int(rng.integers(2 ** 31))
        docs["synth"]["seed"] = int(rng.integers(2 ** 31))
        docs["whitney"]["params"]["corner"] = [
            round(float(v), 6) for v in rng.uniform(0.1, 0.6, 2)]
        shutil.rmtree(self.out, ignore_errors=True)
        config_dir = self.out / "configs"
        config_dir.mkdir(parents=True)
        configs = {}
        for kind, doc in docs.items():
            path = config_dir / f"{kind}.json"
            path.write_text(json.dumps({**doc, "workers": self.workers},
                                       indent=2) + "\n", encoding="utf-8")
            configs[kind] = path
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                                   if env.get("PYTHONPATH") else []))
        return SimpleNamespace(configs=configs, env=env, passes=0)

    def _next_pass_dir(self, inp) -> Path:
        inp.passes += 1
        return self.out / f"pass-{inp.passes}"

    def _collect(self, pass_dir: Path, codes: dict) -> dict:
        digests, size = {}, 0
        for kind in self.kinds:
            if codes[kind] == 0:
                digests[kind], n = _report_digests(pass_dir / kind)
                size += n
        return {"exit_codes": codes, "digests": digests, "report_bytes": size}

    def _run_cli(self, args: list, stderr_path: Path, env: dict) -> int:
        """One `patchwave` process; returns its exit code and raises
        `child_peak_rss_kb` to the process's own peak resident set."""
        with open(stderr_path, "w") as err:
            proc = subprocess.Popen([sys.executable, "-c", _CLI_ENTRY, *args],
                                    cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(170, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_peak_rss_kb = max(self.child_peak_rss_kb, usage.ru_maxrss)
        if proc.returncode != 0:
            sys.stderr.write(stderr_path.read_text())
        return proc.returncode

    def run(self, inp) -> dict:
        pass_dir = self._next_pass_dir(inp)
        pass_dir.mkdir(parents=True)
        codes = {}
        for kind in self.kinds:
            codes[kind] = self._run_cli(
                [kind, "--config", str(inp.configs[kind]),
                 "--output-dir", str(pass_dir / kind)],
                pass_dir / f"{kind}.stderr", inp.env)
        return self._collect(pass_dir, codes)

    def run_in_process(self, inp) -> dict:
        """Same configs through `cli.run` in this process (traced runs)."""
        pass_dir = self._next_pass_dir(inp)
        codes = {}
        for kind in self.kinds:
            config = cli.config_from_file(inp.configs[kind], kind=kind)
            config = dataclasses.replace(config,
                                         output_dir=str(pass_dir / kind))
            codes[kind] = cli.run(config)
        return self._collect(pass_dir, codes)

    def check(self, out: dict, first: dict | None) -> list[str]:
        failures = [f"{kind} exited with {code}"
                    for kind, code in out["exit_codes"].items() if code != 0]
        if first is not None and out["digests"] != first["digests"]:
            for kind, files in out["digests"].items():
                for name, digest in files.items():
                    if first["digests"].get(kind, {}).get(name) != digest:
                        failures.append(f"{kind}/{name} differs from the "
                                        "first pass")
        return failures

    def reference_view(self, out: dict) -> dict:
        """Flat form of the digests, for comparison with the reference."""
        return {f"{kind}/{name}": digest
                for kind, files in out["digests"].items()
                for name, digest in files.items()}


WORKLOADS = {w.name: w for w in (CubeBemStudy, VertexStudy, CliSuites)}
