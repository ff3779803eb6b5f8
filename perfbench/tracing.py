"""Spans and counters recorded around patchwave's public calls.

`Tracer.install()` replaces the public functions listed in `INSTRUMENTED`,
wherever a patchwave module binds them, with wrappers that record a span:
name, start, end, parent span, study id and the process CPU time over the
call.  Nested public calls (``analyze`` inside ``analyze_solution``) become
child spans.  Samplers handed to ``analyze`` and handles handed to
``weighted_sobolev_norm`` are wrapped too, so the points they evaluate and
the thread CPU time spent inside them are counted where the work happens.

Spans open only on the thread that created the tracer.  Counters may come
from the library's worker threads; they go to the innermost open span,
which is the call that started those workers.  Everything stays in memory
until `dump` writes it out.
"""
from __future__ import annotations

import functools
import importlib
import json
import math
import statistics
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    study: str
    start: float
    cpu_start: float
    end: float = math.nan
    cpu_end: float = math.nan
    counts: dict = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return self.end - self.start

    @property
    def cpu(self) -> float:
        return self.cpu_end - self.cpu_start


class _CountingCallable:
    """Model callable on 3D points; counts points and thread CPU seconds."""

    def __init__(self, inner, tracer: "Tracer"):
        self._inner = inner
        self._tracer = tracer

    def __call__(self, pts):
        t0 = time.thread_time()
        out = self._inner(pts)
        self._tracer.add("sampler_cpu_s", time.thread_time() - t0)
        self._tracer.add("samples", len(pts))
        return out


class _CountingParamSampler:
    """Parametric sampler (``eval_params``); counts points and CPU seconds."""

    def __init__(self, inner, tracer: "Tracer"):
        self._inner = inner
        self._tracer = tracer

    def eval_params(self, patch_index, S, T):
        t0 = time.thread_time()
        out = self._inner.eval_params(patch_index, S, T)
        self._tracer.add("sampler_cpu_s", time.thread_time() - t0)
        self._tracer.add("samples", int(getattr(S, "size", 1)))
        return out


class _CountingHandle:
    """Smooth-function handle; counts face-derivative points and CPU seconds."""

    def __init__(self, inner, tracer: "Tracer"):
        self._inner = inner
        self._tracer = tracer

    def face_derivs(self, n, t, Y, upto: int = 2):
        t0 = time.thread_time()
        out = self._inner.face_derivs(n, t, Y, upto=upto)
        self._tracer.add("handle_cpu_s", time.thread_time() - t0)
        self._tracer.add("face_deriv_points", len(Y))
        return out


def _wrap_sampler(sampler, tracer):
    if hasattr(sampler, "eval_params"):
        return _CountingParamSampler(sampler, tracer)
    return _CountingCallable(sampler, tracer)


def _replace_arg(args, kwargs, pos, name, fn):
    if len(args) > pos:
        args = args[:pos] + (fn(args[pos]),) + args[pos + 1:]
    elif name in kwargs:
        kwargs = {**kwargs, name: fn(kwargs[name])}
    return args, kwargs


@dataclass(frozen=True)
class Layer:
    """One instrumented public function and what its wrapper records."""

    module: str
    function: str
    span: str | None = None          # None: count only, no span
    wrap_arg: tuple | None = None    # (position, keyword, wrapper factory)
    result_counts: object = None     # result -> {counter: amount}
    args_counts: object = None       # (args, kwargs) -> {counter: amount}


def _kernel_quads(args, kwargs):
    quads = args[0] if args else kwargs["quads"]
    Y = args[1] if len(args) > 1 else kwargs["Y"]
    n_points = len(Y) if getattr(Y, "ndim", 2) > 1 else 1
    return {"kernel_quads": len(quads) * n_points}


INSTRUMENTED = (
    Layer("surface", "load_surface", "surface.load"),
    Layer("bem", "assemble", "bem.assemble",
          result_counts=lambda r: {"entries": r.A.size,
                                   "matrix_bytes": r.A.nbytes}),
    Layer("bem", "solve", "bem.solve"),
    Layer("bem", "potential_eval", "bem.potential_eval"),
    Layer("bem", "solid_angles", None, args_counts=_kernel_quads),
    Layer("bem", "analyze_solution", "bem.analyze_solution"),
    Layer("wavelets", "analyze", "wavelets.analyze",
          wrap_arg=(1, "sampler", _wrap_sampler)),
    Layer("wavelets", "moment_check", "wavelets.moment_check"),
    Layer("weighted", "weighted_sobolev_norm", "weighted.norm",
          wrap_arg=(0, "handle", lambda h, tr: _CountingHandle(h, tr))),
    Layer("approx", "n_term_plan", "approx.n_term_plan",
          result_counts=lambda r: {"indices": r.n_indices}),
    Layer("approx", "uniform_approx", "approx.uniform_approx"),
    Layer("approx", "fit_rate", "approx.fit_rate"),
    Layer("approx", "level_tail_sums", "approx.level_tail_sums"),
    Layer("spaces", "besov_norm", "spaces.besov_norm"),
    # one span per CLI experiment, named after its kind
    Layer("cli", "run", "cli.{kind}"),
)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.current_study = "setup"
        self._stack: list[Span] = []
        self._lock = threading.Lock()
        self._owner = threading.get_ident()
        self._patched: list[tuple] = []

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        if threading.get_ident() != self._owner:
            yield None
            return
        parent = self._stack[-1].id if self._stack else None
        sp = Span(len(self.spans), name, parent, self.current_study,
                  time.perf_counter(), time.process_time())
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.cpu_end = time.process_time()
            sp.end = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def study(self, study_id: str):
        """Root span of one study; every span opened inside carries its id."""
        previous, self.current_study = self.current_study, study_id
        try:
            with self.span("study") as sp:
                yield sp
        finally:
            self.current_study = previous

    def add(self, key: str, amount) -> None:
        with self._lock:
            if self._stack:
                counts = self._stack[-1].counts
                counts[key] = counts.get(key, 0) + amount

    # -- instrumentation ---------------------------------------------------

    def _wrapper(self, original, layer: Layer):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if layer.args_counts is not None:
                for key, amount in layer.args_counts(args, kwargs).items():
                    tracer.add(key, amount)
            if layer.span is None:
                return original(*args, **kwargs)
            if layer.wrap_arg is not None:
                pos, name, factory = layer.wrap_arg
                args, kwargs = _replace_arg(args, kwargs, pos, name,
                                            lambda v: factory(v, tracer))
            name = layer.span
            if "{kind}" in name:
                name = name.format(kind=args[0].kind)
            with tracer.span(name):
                result = original(*args, **kwargs)
                if layer.result_counts is not None:
                    for key, amount in layer.result_counts(result).items():
                        tracer.add(key, amount)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every `INSTRUMENTED` function at each patchwave binding."""
        for layer in INSTRUMENTED:
            importlib.import_module(f"patchwave.{layer.module}")
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "patchwave" or name.startswith("patchwave.")]
        for layer in INSTRUMENTED:
            home = sys.modules[f"patchwave.{layer.module}"]
            original = getattr(home, layer.function)
            wrapper = self._wrapper(original, layer)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def dump(self, path: Path, meta: dict) -> None:
        doc = {"meta": meta, "spans": [asdict(sp) for sp in self.spans]}
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


# -- per-layer metrics -------------------------------------------------------

CLI_KINDS = ("norms", "nterm", "embed-check", "bem-solve", "whitney", "synth")


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def study_layer_metrics(spans: list[Span]) -> dict:
    """Per-layer totals of one study's spans (inclusive wall seconds)."""
    by_name: dict[str, list[Span]] = {}
    for sp in spans:
        by_name.setdefault(sp.name, []).append(sp)

    def wall(name):
        return math.fsum(sp.wall for sp in by_name.get(name, ()))

    def cpu(name):
        return math.fsum(sp.cpu for sp in by_name.get(name, ()))

    def count(name, key):
        return sum(sp.counts.get(key, 0) for sp in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    m = {}
    m["bem.assemble_s"] = wall("bem.assemble")
    m["bem.assemble_entries_per_s"] = _ratio(count("bem.assemble", "entries"),
                                             m["bem.assemble_s"])
    m["bem.matrix_mb"] = count("bem.assemble", "matrix_bytes") / 1e6
    m["bem.solve_s"] = wall("bem.solve")
    m["bem.potential_eval_s"] = wall("bem.potential_eval")
    m["bem.potential_quads"] = count("bem.potential_eval", "kernel_quads")
    m["bem.potential_quads_per_s"] = _ratio(m["bem.potential_quads"],
                                            m["bem.potential_eval_s"])
    m["bem.analyze_solution_s"] = wall("bem.analyze_solution")

    m["wavelets.analyze_s"] = wall("wavelets.analyze")
    m["wavelets.samples"] = count("wavelets.analyze", "samples")
    m["wavelets.analyze_samples_per_s"] = _ratio(m["wavelets.samples"],
                                                 m["wavelets.analyze_s"])
    sampler_cpu = count("wavelets.analyze", "sampler_cpu_s")
    m["wavelets.sampler_cpu_s"] = sampler_cpu
    m["wavelets.contract_cpu_s"] = cpu("wavelets.analyze") - sampler_cpu
    m["wavelets.moment_check_s"] = wall("wavelets.moment_check")
    m["wavelets.moment_checks"] = calls("wavelets.moment_check")
    m["wavelets.moment_checks_per_s"] = _ratio(m["wavelets.moment_checks"],
                                               m["wavelets.moment_check_s"])

    m["weighted.norm_s"] = wall("weighted.norm")
    m["weighted.face_deriv_points"] = count("weighted.norm", "face_deriv_points")
    handle_cpu = count("weighted.norm", "handle_cpu_s")
    m["weighted.handle_cpu_s"] = handle_cpu
    m["weighted.quadrature_cpu_s"] = cpu("weighted.norm") - handle_cpu

    m["approx.n_term_plan_s"] = wall("approx.n_term_plan")
    m["approx.plan_indices"] = count("approx.n_term_plan", "indices")
    m["approx.plan_indices_per_s"] = _ratio(m["approx.plan_indices"],
                                            m["approx.n_term_plan_s"])
    m["approx.uniform_approx_s"] = wall("approx.uniform_approx")
    m["approx.rate_fit_s"] = wall("approx.fit_rate")
    m["approx.tail_sums_s"] = wall("approx.level_tail_sums")
    m["spaces.besov_norm_s"] = wall("spaces.besov_norm")
    for kind in CLI_KINDS:
        m[f"cli.{kind}_s"] = wall(f"cli.{kind}")

    roots = [sp for sp in spans if sp.name == "study"]
    if len(roots) != 1:
        raise ValueError(f"expected one study span, found {len(roots)}")
    root = roots[0]
    covered = math.fsum(sp.wall for sp in spans if sp.parent == root.id)
    m["trace.unattributed_share"] = _ratio(root.wall - covered, root.wall)
    m["trace.spans"] = len(spans) - 1
    return m


def run_layer_metrics(tracer: Tracer, study_ids: list[str]) -> dict:
    """Median over the traced studies of each per-layer metric.

    ``surface.load_s`` is the median duration of one ``load_surface`` call
    anywhere in the run, set-up included, since the library studies load
    their surface during set-up.
    """
    per_study = []
    for sid in study_ids:
        per_study.append(study_layer_metrics(
            [sp for sp in tracer.spans if sp.study == sid]))
    out = {key: statistics.median(d[key] for d in per_study)
           for key in per_study[0]}
    loads = [sp.wall for sp in tracer.spans if sp.name == "surface.load"]
    out["surface.load_s"] = statistics.median(loads) if loads else 0.0
    return out
