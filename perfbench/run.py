"""patchwave benchmark: three studies timed end to end, and per layer.

    python3 perfbench/run.py --workload cube-bem-study --seed 1312 \
        --seconds 30 --trace 0

Each workload is a closed loop with one client: the next study starts when
the previous one returns, until the next would end past ``--seconds`` (but
at least the workload's minimum number of studies).  With ``--trace 0`` the
studies run untraced and the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` the run alternates untraced and
traced studies and reports the per-layer metrics.  ``--workload all`` runs
every workload, untraced and traced, and prints one summary table.

Run from the root of a source checkout: the package is imported from
``src/``, never from an installed copy.  Reports, traces and result files
go to ``.perfbench_out/``.
"""
from __future__ import annotations

import os

# pin BLAS to one thread before numpy loads, here and in every child
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
WORKLOAD_NAMES = ("cube-bem-study", "vertex-study", "cli-suites")
SETUP_PROBES = 4


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def _import_studies():
    """Import numpy and patchwave from this checkout; returns the module."""
    if not (SRC / "patchwave" / "__init__.py").is_file():
        raise BenchError(f"no patchwave sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import studies
    import patchwave
    if Path(patchwave.__file__).resolve().parent != SRC / "patchwave":
        raise BenchError(f"patchwave imported from {patchwave.__file__}, "
                         f"not from {SRC}")
    return studies


def _timed_setup(workload_name: str, seed: int, tracer_factory=None):
    """Import, then build the workload and its inputs; returns the pieces
    and the wall seconds of (import, whole set-up)."""
    t0 = time.perf_counter()
    studies = _import_studies()
    t_import = time.perf_counter() - t0
    tracer = None
    if tracer_factory is not None:
        tracer = tracer_factory()
        tracer.install()
    workload = studies.WORKLOADS[workload_name]()
    inputs = workload.setup(seed)
    return studies, tracer, workload, inputs, t_import, time.perf_counter() - t0


def _probe_setup(workload_name: str, seed: int) -> dict:
    """Set-up in a fresh interpreter, as a user starting the study pays it."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload_name,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- metadata ----------------------------------------------------------------


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _machine() -> dict:
    import numpy
    import scipy
    cpu = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}"
        level, kind, size = (_read(f"{base}/{f}") for f in ("level", "type", "size"))
        if level and kind in ("Unified", "Data") and level in ("2", "3"):
            caches[f"L{level}"] = size
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:          # older numpy: no dict form of the build config
        blas = None
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "patchwave").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")},
        "git_commit": commit,
        "source_sha256": src.hexdigest(),
    }


# -- the measured loop ---------------------------------------------------------


def _one_study(workload, runner, inputs, first, tracer, study_id):
    """Run and check one study; an exception is a failed study, not an abort."""
    gc.collect()
    t0 = time.perf_counter()
    try:
        if tracer is None:
            out = runner(inputs)
        else:
            with tracer.study(study_id):
                out = runner(inputs)
        error = None
    except Exception as exc:
        out, error = None, f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    failures = [error] if error else workload.check(out, first)
    return wall, out, failures


@dataclass
class LoopResult:
    plain: list = field(default_factory=list)       # untraced study seconds
    traced: list = field(default_factory=list)      # traced study seconds
    traced_ids: list = field(default_factory=list)
    failures: list = field(default_factory=list)    # per study, in order
    first: dict | None = None                       # first study's outputs

    @property
    def attempted(self) -> int:
        return len(self.failures)

    @property
    def failed(self) -> int:
        return sum(1 for f in self.failures if f)


def _measure(studies, workload, inputs, seconds, tracer, reference, seed):
    """Closed loop of studies until the next would end past `seconds`.

    Untraced, at least `workload.min_studies` studies run; traced, the loop
    runs pairs of one untraced and one traced study, at least one pair.  The
    seed's parity picks which of the pair runs first, and the order
    alternates from pair to pair, so that the second study of a pair being
    slower does not show as tracing overhead.
    """
    runner = workload.run
    if tracer is not None:
        runner = getattr(workload, "run_in_process", workload.run)
    modes = (None,) if tracer is None else (None, tracer)
    minimum = workload.min_studies if tracer is None else 1
    res, steps = LoopResult(), []
    t_start = time.perf_counter()
    while True:
        t_step = time.perf_counter()
        order = modes[::-1] if (len(steps) + seed) % 2 else modes
        for mode in order:
            study_id = f"study-{res.attempted}"
            wall, out, fails = _one_study(workload, runner, inputs, res.first,
                                          mode, study_id)
            if res.first is None and out is not None:
                res.first = out
                if reference is not None:
                    view = getattr(workload, "reference_view", lambda o: o)
                    fails = fails + studies.compare_reference(
                        view(out), reference["values"],
                        reference.get("tolerances", {}))
            res.failures.append(fails)
            if mode is None:
                res.plain.append(wall)
            else:
                res.traced.append(wall)
                res.traced_ids.append(study_id)
        steps.append(time.perf_counter() - t_step)
        elapsed = time.perf_counter() - t_start
        if (len(steps) >= minimum
                and elapsed + statistics.median(steps) > seconds):
            return res


def _load_reference(workload_name: str, seed: int) -> dict | None:
    doc = json.loads(REFERENCE.read_text())
    if seed != doc["default_seed"]:
        return None
    return doc["workloads"].get(workload_name)


def run_workload(args) -> int:
    name, seed = args.workload, args.seed
    # set-up is timed in fresh interpreters around this process's own
    # set-up, before and after the loop, and reported as the median
    probes = [_probe_setup(name, seed) for _ in range(SETUP_PROBES // 2)]
    studies, tracer, workload, inputs, t_import, t_setup = _timed_setup(
        name, seed, tracing.Tracer if args.trace else None)
    reference = _load_reference(name, seed)

    res = _measure(studies, workload, inputs, args.seconds, tracer, reference,
                   seed)
    if tracer is not None:
        tracer.uninstall()
    probes += [_probe_setup(name, seed) for _ in range(SETUP_PROBES // 2)]
    setup_samples = [p["setup_s"] for p in probes] + [t_setup]
    import_samples = [p["import_s"] for p in probes] + [t_import]

    attempted, failed = res.attempted, res.failed
    if args.trace:
        metrics = tracing.run_layer_metrics(tracer, res.traced_ids)
        metrics["cli.import_s"] = statistics.median(import_samples)
        metrics["cli.report_bytes"] = (res.first or {}).get("report_bytes", 0)
        metrics["trace.study_s"] = statistics.median(res.traced)
        metrics["trace.untraced_study_s"] = statistics.median(res.plain)
        metrics["trace.overhead_ratio"] = (metrics["trace.study_s"]
                                           / metrics["trace.untraced_study_s"])
        units = _layer_units()
    else:
        if name == "cli-suites":
            peak_kb = workload.child_peak_rss_kb
        else:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "study_s": statistics.median(res.plain),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": peak_kb * 1024 / 1e6,
        }
        units = {"study_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

    out_dir = studies.OUT
    out_dir.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(args.trace)}"
    meta = {"workload": name, "seed": seed, "seconds": args.seconds,
            "trace": bool(args.trace), "machine": _machine()}
    if tracer is not None:
        tracer.dump(out_dir / f"trace-{stem}.json", meta)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    details = {**meta, "result": result, "study_s_samples": res.plain,
               "traced_study_s_samples": res.traced,
               "setup_s_samples": setup_samples,
               "import_s_samples": import_samples,
               "reference_checked": reference is not None,
               "failures": res.failures, "outputs": res.first}
    (out_dir / f"results-{stem}.json").write_text(
        json.dumps(details, indent=2, default=str) + "\n")

    for k, v in metrics.items():
        print(f"# {name} {k} = {v:.6g} {units[k]}")
    print(f"# {name} fail_rate = {failed / attempted:.6g} "
          f"({failed} of {attempted} studies failed)")
    for i, fails in enumerate(res.failures):
        for f in fails:
            print(f"# study {i} failed: {f}")
    print(json.dumps(result))
    return 0


def _layer_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def run_all(args) -> int:
    """Every workload, untraced then traced, summarised in one table."""
    rows = []
    for name in WORKLOAD_NAMES:
        row = {"workload": name}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                raise BenchError(f"{name} (trace {trace}) exited "
                                 f"{proc.returncode}")
            row[trace] = json.loads(proc.stdout.strip().splitlines()[-1])
        rows.append(row)
    for row in rows:
        e2e, layer = row[0], row[1]
        m = {k: v["value"] for k, v in e2e["metrics"].items()}
        t = {k: v["value"] for k, v in layer["metrics"].items()}
        print(f"{row['workload']}:")
        print(f"  study_s      {m['study_s']:.3f} s")
        print(f"  setup_s      {m['setup_s']:.3f} s")
        print(f"  peak_rss_mb  {m['peak_rss_mb']:.1f} MB")
        print(f"  fail_rate    {e2e['failed'] / e2e['attempted']:.3f} "
              f"({e2e['failed']}/{e2e['attempted']} untraced, "
              f"{layer['failed']}/{layer['attempted']} traced-run studies)")
        print(f"  traced study {t['trace.study_s']:.3f} s vs untraced "
              f"{t['trace.untraced_study_s']:.3f} s (ratio "
              f"{t['trace.overhead_ratio']:.4f}); unattributed share "
              f"{t['trace.unattributed_share']:.4f}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the reference seed)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.seed is None:
            args.seed = json.loads(REFERENCE.read_text())["default_seed"]
        if args.setup_probe:
            *_, t_import, t_setup = _timed_setup(args.workload, args.seed)
            print(json.dumps({"setup_s": t_setup, "import_s": t_import}))
            return 0
        if args.workload == "all":
            return run_all(args)
        return run_workload(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
