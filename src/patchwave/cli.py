"""Experiment driver: reproducible CSV reports from a declarative config.

Subcommands cover norm evaluation (`norms`), n-term rate studies (`nterm`),
embedding and tail-sum suites (`embed-check`), dense boundary-integral runs
(`bem-solve`), local polynomial approximation checks (`whitney`), and field
generation (`synth`).  Every run writes CSV files with `#`-prefixed metadata
plus a manifest.json; all floats are rendered with repr() and parallel paths
reduce in fixed order, so identical configs produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import re
import sys
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .surface import (PolyhedralSurface, ResolutionOfUnity, fichera_corner,
                      load_surface, unit_cube)
from .wavelets import BasisSpec, analyze, level_size, load_field, save_field
from .spaces import BesovSpec, admissible, besov_norm, embedding_predicate, seq_norm
from .weighted import (ConstantModel, EdgePowerModel, VertexPowerModel,
                       WeightedSpec)
from .approx import (boundary_tail_check, fit_rate, interior_tail_check,
                     n_term_plan, predicted_rate, synth_field, whitney_check)
from .bem import analyze_solution, assemble, solve

SCHEMA_VERSION = "1.0.0"

_KINDS = ("norms", "nterm", "embed-check", "bem-solve", "whitney", "synth")

_NAMED_BASES = {"haar": (1, 0), "alpert2": (2, 2)}

# synthetic field kinds and the generator parameters each one needs
_SYNTH_REQUIRED = {
    "extremal_a_star": ("level", "alpha"),
    "lacunary": ("alpha",),
    "random_besov": ("spec",),
    "suffix_saturator": ("gamma", "spec"),
}
_SYNTH_KINDS = tuple(_SYNTH_REQUIRED)

_ALLOWED_PARAMS = {
    "norms": {"synth", "field"},
    "nterm": {"synth", "field", "n_lo", "n_hi", "predicted", "source_space"},
    "embed-check": {"model", "taus", "k", "rho", "s", "p"},
    "bem-solve": {"rhs", "k", "rho", "s"},
    "whitney": {"k", "count", "edge", "corner", "funcs"},
    "synth": {"synth"},
}

# integer parameters with their minimum, and real-valued parameters
_INT_PARAMS = {"n_lo": 1, "n_hi": 1, "k": 1, "count": 1}
_REAL_PARAMS = {"rho", "s", "p", "edge"}

# tolerances quoted in report headers, per experiment kind
_TOLERANCES = {
    "norms": {},
    "nterm": {"slope_rel_tol": 0.1, "slope_abs_tol": 0.05},
    "embed-check": {"critical_line_tol": 1e-12},
    "bem-solve": {"residual_max": 1e-10},
    "whitney": {"ratio_spread": 0.2},
    "synth": {},
}

_WHITNEY_FUNCS = {
    "exp": lambda x, y: np.exp(x + y),
    "sinxy": lambda x, y: np.sin(np.pi * x) * np.cos(np.pi * y),
    "rational": lambda x, y: 1.0 / (1.0 + x + y),
}


def report_schema_version() -> str:
    """Schema version stamped into every CSV header and manifest."""
    return SCHEMA_VERSION


class ConfigError(ValueError):
    """Invalid experiment configuration; message carries source:line: path."""


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully-resolved experiment description.

    `workers` and `output_dir` steer execution only; they are excluded from
    the canonical form so reruns at different worker counts or target
    directories hash (and therefore serialize) identically.
    """

    kind: str
    surface: str = "cube"
    basis: tuple = (1, 0)                 # (order d, coarsest level j*)
    J: int | None = None
    L: int | None = None
    spaces: tuple = ()                    # (alpha, p, q) triples
    seed: int = 0
    output_dir: str = "reports"
    workers: int = 1
    params: dict = dataclass_field(default_factory=dict)
    # source and text for errors that only the run can see, such as a model
    # vertex the surface does not have; not part of the config's identity
    check: _Check | None = dataclass_field(default=None, compare=False,
                                           repr=False)


def canonical_config(config: ExperimentConfig) -> dict:
    doc = {
        "kind": config.kind,
        "surface": config.surface,
        "basis": list(config.basis),
        "spaces": [list(s) for s in config.spaces],
        "seed": config.seed,
        "params": config.params,
    }
    if config.J is not None:
        doc["J"] = config.J
    if config.L is not None:
        doc["L"] = config.L
    return doc


def config_hash(config: ExperimentConfig) -> str:
    text = json.dumps(canonical_config(config), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# -- validation with line-precise reporting ---------------------------------------


def _elem_pos(text: str, pos: int, index: int) -> int | None:
    """Char position where element `index` of the array starting after `pos`
    begins (string-literal and nesting aware)."""
    j = text.find("[", pos)
    if j < 0:
        return None
    depth = 0
    elem = 0
    in_str = False
    while j < len(text):
        ch = text[j]
        if in_str:
            if ch == "\\":
                j += 2
                continue
            if ch == '"':
                in_str = False
        elif depth == 1 and elem == index and not ch.isspace() and ch != ",":
            return j
        elif ch == '"':
            in_str = True
        elif ch in "[{":
            depth += 1
        elif ch in "]}":
            depth -= 1
            if depth == 0:
                return None
        elif ch == "," and depth == 1:
            elem += 1
        j += 1
    return None


def _key_line(text: str | None, doc, path: tuple) -> int | None:
    """Line of the config item `path` points at, scanning the raw text.

    Locates the innermost named key by counting document-order occurrences,
    then steps through trailing array indices.  Falls back to ancestor keys.
    """
    if text is None:
        return None
    trail = []
    while path and not isinstance(path[-1], str):
        trail.append(path[-1])
        path = path[:-1]
    trail.reverse()
    if not path:
        return None
    name = path[-1]
    count = 0
    found = False

    def walk(node, cur):
        nonlocal count, found
        if found:
            return
        if isinstance(node, dict):
            for k, v in node.items():
                if found:
                    return
                if k == name:
                    count += 1
                    if cur + (k,) == path:
                        found = True
                        return
                walk(v, cur + (k,))
        elif isinstance(node, list):
            for i, v in enumerate(node):
                if found:
                    return
                walk(v, cur + (i,))

    walk(doc, ())
    if not found:
        return _key_line(text, doc, path[:-1])
    pattern = re.compile(r'"%s"\s*:' % re.escape(name))
    pos = None
    for seen, match in enumerate(pattern.finditer(text), start=1):
        if seen == count:
            pos = match.start()
            cursor = match.end()
            for index in trail:
                cursor = _elem_pos(text, cursor, index)
                if cursor is None:
                    break
                pos = cursor
            break
    if pos is None:
        return None
    return text.count("\n", 0, pos) + 1


def _path_str(path: tuple) -> str:
    out = ""
    for el in path:
        out += f"[{el}]" if isinstance(el, int) else (("." if out else "") + str(el))
    return out or "<config>"


class _Check:
    """Collects context (raw text + parsed doc) and raises rich errors."""

    def __init__(self, doc, text: str | None, source: str):
        self.doc = doc
        self.text = text
        self.source = source

    def fail(self, path: tuple, message: str):
        line = _key_line(self.text, self.doc, path)
        where = f"{self.source}:{line}" if line is not None else self.source
        raise ConfigError(f"{where}: {_path_str(path)}: {message}")


def _as_basis(value, chk: _Check, path: tuple) -> tuple:
    if isinstance(value, str):
        if value in _NAMED_BASES:
            return _NAMED_BASES[value]
        m = re.fullmatch(r"(\d+):(\d+)", value)
        if m:
            value = [int(m.group(1)), int(m.group(2))]
        else:
            chk.fail(path, f"unknown basis {value!r}; use "
                           f"{sorted(_NAMED_BASES)} or 'd:j_star'")
    if (not isinstance(value, (list, tuple)) or len(value) != 2
            or not all(isinstance(v, int) for v in value)):
        chk.fail(path, "basis must be a name or a [d, j_star] integer pair")
    d, j_star = value
    if d not in (1, 2):
        chk.fail(path, f"wavelet order d must be 1 or 2, got {d}")
    if j_star < 0:
        chk.fail(path, f"j_star must be >= 0, got {j_star}")
    return (d, j_star)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _as_space(value, chk: _Check, path: tuple) -> tuple:
    if (not isinstance(value, (list, tuple)) or len(value) != 3
            or not all(_is_number(v) for v in value)):
        chk.fail(path, "space must be an [alpha, p, q] triple of numbers")
    alpha, p, q = (float(v) for v in value)
    try:
        spec = BesovSpec(alpha, p, q)
    except Exception as exc:
        chk.fail(path, str(exc))
    if not admissible(spec):
        chk.fail(path, f"space ({alpha}, {p}, {q}) is outside the admissible "
                       "window 1/2 <= 1/p <= alpha/2 + 1/2 (q <= 2 on the "
                       "critical line)")
    return (alpha, p, q)


def _as_int(value, chk: _Check, path: tuple, minimum: int | None = None) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        chk.fail(path, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        chk.fail(path, f"must be >= {minimum}, got {value}")
    return value


def _validate_params(kind: str, params: dict, chk: _Check, base: tuple) -> None:
    allowed = _ALLOWED_PARAMS[kind]
    for key in params:
        if key not in allowed:
            chk.fail(base + (key,), f"parameter not used by '{kind}' "
                                    f"(allowed: {sorted(allowed)})")
        if key in _INT_PARAMS:
            _as_int(params[key], chk, base + (key,), _INT_PARAMS[key])
        elif key in _REAL_PARAMS and not _is_number(params[key]):
            chk.fail(base + (key,), f"expected a number, got {params[key]!r}")
    for key, size in (("taus", None), ("corner", 2)):
        value = params.get(key)
        if value is not None and (
                not isinstance(value, list)
                or not all(_is_number(v) for v in value)
                or size is not None and len(value) != size):
            count = "" if size is None else f"{size} "
            chk.fail(base + (key,),
                     f"expected a list of {count}numbers, got {value!r}")
    synth = params.get("synth")
    if synth is not None:
        if not isinstance(synth, dict):
            chk.fail(base + ("synth",), "synth must be an object")
        skind = synth.get("kind")
        if skind not in _SYNTH_KINDS:
            chk.fail(base + ("synth", "kind"),
                     f"synth kind must be one of {_SYNTH_KINDS}, got {skind!r}")
        for key in _SYNTH_REQUIRED[skind]:
            if key not in synth:
                chk.fail(base + ("synth",), f"{skind} synth needs '{key}'")
        if "spec" in synth:
            _as_space(synth["spec"], chk, base + ("synth", "spec"))
    model = params.get("model")
    if model is not None:
        if not isinstance(model, dict):
            chk.fail(base + ("model",), "model must be an object")
        mk = model.get("kind", "vertex")
        if mk not in ("vertex", "edge", "constant"):
            chk.fail(base + ("model", "kind"),
                     f"model kind must be vertex, edge or constant, got {mk!r}")
        if mk in ("vertex", "edge") and "beta" not in model:
            chk.fail(base + ("model",), f"{mk} model needs a 'beta' exponent")
        for mkey in ("beta", "value"):
            if mkey in model and not _is_number(model[mkey]):
                chk.fail(base + ("model", mkey),
                         f"expected a number, got {model[mkey]!r}")
        for mkey in ("vertex", "v0", "v1"):
            if mkey in model:
                _as_int(model[mkey], chk, base + ("model", mkey), minimum=0)
    rhs = params.get("rhs")
    if rhs is not None:
        if not isinstance(rhs, list) or not rhs:
            chk.fail(base + ("rhs",), "rhs must be a non-empty list of tokens")
        head = rhs[0]
        if head == "constant":
            pass
        elif head == "harmonic:linear":
            if len(rhs) > 2:
                chk.fail(base + ("rhs",), "harmonic:linear takes at most an axis")
        elif head == "harmonic:pole":
            if len(rhs) != 4:
                chk.fail(base + ("rhs",), "harmonic:pole needs px py pz")
        elif head == "file":
            if len(rhs) != 2:
                chk.fail(base + ("rhs",), "file rhs needs a path")
        else:
            chk.fail(base + ("rhs",),
                     f"rhs must start with constant, harmonic:linear, "
                     f"harmonic:pole or file, got {head!r}")
    funcs = params.get("funcs")
    if funcs is not None:
        for i, name in enumerate(funcs):
            if name not in _WHITNEY_FUNCS:
                chk.fail(base + ("funcs", i),
                         f"unknown function {name!r}; available: "
                         f"{sorted(_WHITNEY_FUNCS)}")


def config_from_dict(doc: dict, *, text: str | None = None,
                     source: str = "config") -> ExperimentConfig:
    """Build and validate a config; errors carry source:line: key-path."""
    chk = _Check(doc, text, source)
    if not isinstance(doc, dict):
        raise ConfigError(f"{source}: top level must be an object")
    known = {"kind", "surface", "basis", "J", "L", "spaces", "seed",
             "output_dir", "workers", "params"}
    for key in doc:
        if key not in known:
            chk.fail((key,), f"unknown key (allowed: {sorted(known)})")
    kind = doc.get("kind")
    if kind not in _KINDS:
        chk.fail(("kind",), f"experiment kind must be one of {_KINDS}, "
                            f"got {kind!r}")
    surface = doc.get("surface", "cube")
    if not isinstance(surface, str) or not surface:
        chk.fail(("surface",), "surface must be a builtin name or a file path")
    basis = _as_basis(doc.get("basis", "haar"), chk, ("basis",))
    J = doc.get("J")
    if J is not None:
        J = _as_int(J, chk, ("J",), minimum=0)
    L = doc.get("L")
    if L is not None:
        L = _as_int(L, chk, ("L",), minimum=1)
    raw_spaces = doc.get("spaces", [])
    if not isinstance(raw_spaces, list):
        chk.fail(("spaces",), "spaces must be a list of [alpha, p, q] triples")
    spaces = tuple(_as_space(s, chk, ("spaces", i))
                   for i, s in enumerate(raw_spaces))
    seed = _as_int(doc.get("seed", 0), chk, ("seed",), minimum=0)
    workers = _as_int(doc.get("workers", 1), chk, ("workers",), minimum=1)
    output_dir = doc.get("output_dir", "reports")
    params = doc.get("params", {})
    if not isinstance(params, dict):
        chk.fail(("params",), "params must be an object")
    _validate_params(kind, params, chk, ("params",))

    # cross-field invariants
    if kind in ("norms", "nterm") and not spaces:
        chk.fail(("spaces",), f"'{kind}' needs at least one space")
    if kind == "embed-check" and not spaces and "model" not in params:
        chk.fail(("spaces",), "'embed-check' needs spaces or a model")
    if kind in ("norms", "nterm", "synth") and J is None \
            and "field" not in params:
        chk.fail(("J",), f"'{kind}' needs J to synthesize a field")
    if kind == "synth" and "synth" not in params:
        chk.fail(("params",), "'synth' needs params.synth")
    if kind in ("norms", "nterm") and "synth" not in params \
            and "field" not in params:
        chk.fail(("params",), f"'{kind}' needs params.synth or params.field")
    if kind == "embed-check" and "model" in params and J is None:
        chk.fail(("J",), "tail study needs an analysis depth J")
    if kind == "bem-solve":
        if L is None:
            chk.fail(("L",), "'bem-solve' needs a grid level L")
        if J is not None and J > L:
            chk.fail(("J",), f"analysis level J={J} must not exceed L={L}")
    return ExperimentConfig(kind=kind, surface=surface, basis=basis, J=J, L=L,
                            spaces=spaces, seed=seed, output_dir=str(output_dir),
                            workers=workers, params=params, check=chk)


def config_from_file(path, kind: str | None = None) -> ExperimentConfig:
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from exc
    config = config_from_dict(doc, text=text, source=str(path))
    if kind is not None and config.kind != kind:
        raise ConfigError(f"{path}: config kind {config.kind!r} does not match "
                          f"the {kind!r} subcommand")
    return config


# -- report writing ----------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _write_csv(path: Path, kind: str, chash: str, columns, rows) -> None:
    lines = [f"# schema: {SCHEMA_VERSION}",
             f"# kind: {kind}",
             f"# config: {chash}",
             "# tolerances: " + json.dumps(_TOLERANCES[kind], sort_keys=True)]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _surface_from(name: str) -> PolyhedralSurface:
    if name == "cube":
        return load_surface(unit_cube())
    if name == "fichera":
        return load_surface(fichera_corner())
    return load_surface(name)


def _basis_from(config: ExperimentConfig) -> BasisSpec:
    d, j_star = config.basis
    return BasisSpec(d=d, dt=d, j_star=j_star)


def _space_of(triple) -> BesovSpec:
    return BesovSpec(*triple)


def _field_from(config, surface, basis):
    if "field" in config.params:
        return load_field(config.params["field"], surface)
    synth = dict(config.params.get("synth") or {})
    kind = synth.pop("kind", "random_besov")
    if "spec" in synth:
        synth["spec"] = _space_of(synth["spec"])
    if kind == "random_besov":
        synth.setdefault("seed", config.seed)
    return synth_field(surface, basis, kind, config.J, **synth)


# -- experiment runners ------------------------------------------------------------


def _run_norms(config, out, chash):
    surface = _surface_from(config.surface)
    field = _field_from(config, surface, _basis_from(config))
    rows = []
    for alpha, p, q in config.spaces:
        spec = BesovSpec(alpha, p, q)
        rows.append((alpha, p, q, besov_norm(field, spec), seq_norm(field, spec)))
    _write_csv(out / "norms.csv", config.kind, chash,
               ("alpha", "p", "q", "besov_norm", "seq_norm"), rows)
    return ["norms.csv"]


def _run_nterm(config, out, chash):
    surface = _surface_from(config.surface)
    field = _field_from(config, surface, _basis_from(config))
    target = _space_of(config.spaces[0])
    plan = n_term_plan(field, target)
    n_lo = int(config.params.get("n_lo", 16))
    n_hi = min(int(config.params.get("n_hi", 1 << 14)), plan.n_indices)
    ns, n = [], n_lo
    while n <= n_hi:
        ns.append(n)
        n *= 2
    samples = [(n, plan.error_at(n)) for n in ns]
    samples = [(n, e) for n, e in samples if e > 0.0]
    predicted = config.params.get("predicted")
    if predicted is None and "source_space" in config.params:
        predicted = predicted_rate(_space_of(config.params["source_space"]),
                                   target)
    rate = fit_rate(samples, predicted=predicted)
    _write_csv(out / "samples.csv", config.kind, chash, ("n", "error"), samples)
    _write_csv(out / "rate.csv", config.kind, chash,
               ("slope", "decay", "intercept", "r_squared", "n_fit_lo",
                "n_fit_hi", "predicted", "verdict"),
               [(rate.slope, rate.decay, rate.intercept, rate.r_squared,
                 int(rate.n[rate.fit_lo]), int(rate.n[rate.fit_hi - 1]),
                 "" if rate.predicted is None else rate.predicted,
                 rate.verdict)])
    return ["samples.csv", "rate.csv"]


def _run_embed_check(config, out, chash):
    files = []
    rows = []
    for i, s0 in enumerate(config.spaces):
        for j, s1 in enumerate(config.spaces):
            if i == j:
                continue
            rows.append((*s0, *s1,
                         embedding_predicate(_space_of(s0), _space_of(s1))))
    _write_csv(out / "embeddings.csv", config.kind, chash,
               ("alpha0", "p0", "q0", "alpha1", "p1", "q1", "embeds"), rows)
    files.append("embeddings.csv")

    model = config.params.get("model")
    if model is not None:
        surface = _surface_from(config.surface)
        basis = _basis_from(config)
        handle = _model_from(model, surface,
                             config.check or _Check(None, None, "config"))
        k = int(config.params.get("k", 1))
        rho = float(config.params.get("rho", 0.5))
        s = float(config.params.get("s", 0.75))
        p = float(config.params.get("p", 2.0))
        weighted = WeightedSpec(k=k, rho=rho)
        field = analyze(surface, handle, basis, config.J,
                        workers=config.workers)
        resolution = ResolutionOfUnity(surface)
        width = min(rho, k - rho)
        taus = config.params.get("taus") or \
            [1.0 / (0.5 + f * width) for f in (0.75, 0.5, 0.25)]
        tail_rows = []
        for tau in taus:
            b_lhs, _, b_ratio = boundary_tail_check(field, s, p, tau)
            i_lhs, _, i_ratio = interior_tail_check(field, handle, weighted,
                                                    tau, resolution)
            tail_rows.append((tau, b_lhs, b_ratio, i_lhs, i_ratio))
        _write_csv(out / "tails.csv", config.kind, chash,
                   ("tau", "boundary_tail", "boundary_ratio",
                    "interior_tail", "interior_ratio"), tail_rows)
        files.append("tails.csv")
    return files


def _model_from(model: dict, surface, chk: _Check):
    model = dict(model)
    kind = model.pop("kind", "vertex")
    defaults = {"vertex": {"vertex": 0}, "edge": {"v0": 0, "v1": 1}}
    ids = {key: model.get(key, d) for key, d in defaults.get(kind, {}).items()}
    for key, v in ids.items():
        if v >= surface.n_vertices:
            chk.fail(("params", "model", key),
                     f"vertex {v} does not exist: the surface has "
                     f"{surface.n_vertices} vertices")
    if kind == "vertex":
        return VertexPowerModel(surface, vertex=ids["vertex"],
                                beta=float(model["beta"]))
    if kind == "edge":
        if ids["v0"] == ids["v1"]:
            chk.fail(("params", "model", "v1"), "v1 must differ from v0")
        return EdgePowerModel(surface, v0=ids["v0"], v1=ids["v1"],
                              beta=float(model["beta"]))
    return ConstantModel(surface, value=float(model.get("value", 1.0)))


def _parse_rhs(tokens, surface):
    head = tokens[0]
    if head == "constant":
        return lambda pts: np.ones(len(pts))
    if head == "harmonic:linear":
        axis = int(tokens[1]) if len(tokens) > 1 else 0
        return lambda pts: pts[:, axis].copy()
    if head == "harmonic:pole":
        pole = np.array([float(t) for t in tokens[1:4]])
        return lambda pts: 1.0 / np.linalg.norm(pts - pole, axis=1)
    values = np.loadtxt(tokens[1], ndmin=1)
    return values


def _run_bem_solve(config, out, chash):
    surface = _surface_from(config.surface)
    system = assemble(surface, config.L, workers=config.workers)
    rhs = _parse_rhs(config.params.get("rhs", ["constant"]), surface)
    report = solve(system, rhs)
    c = 1 << config.L
    rows = []
    flat = report.density.reshape(-1)
    for cell in range(system.n_cells):
        patch, rem = divmod(cell, c * c)
        k1, k2 = divmod(rem, c)
        cx, cy, cz = system.centers[cell]
        rows.append((cell, patch, k1, k2, cx, cy, cz, flat[cell]))
    _write_csv(out / "density.csv", config.kind, chash,
               ("cell", "patch", "k1", "k2", "cx", "cy", "cz", "value"), rows)

    columns = ["L", "residual", "cond", "adaptive_decay", "uniform_decay",
               "exponent_ratio", "predicted_gamma", "alpha_star", "noise_floor"]
    row = [config.L, report.residual, report.cond, "", "", "", "", "", ""]
    if config.J is not None:
        weighted = WeightedSpec(k=int(config.params.get("k", 1)),
                                rho=float(config.params.get("rho", 0.5)))
        sol = analyze_solution(surface, report.density, _basis_from(config),
                               config.J, weighted,
                               s=float(config.params.get("s", 0.75)),
                               workers=config.workers)
        row[3] = "" if sol.adaptive is None else sol.adaptive.decay
        row[4] = "" if sol.uniform is None else sol.uniform.decay
        if sol.adaptive is not None and sol.uniform is not None:
            row[5] = sol.exponent_ratio
        row[6] = sol.predicted_gamma
        row[7] = sol.alpha_star
        row[8] = sol.noise_floor
    _write_csv(out / "report.csv", config.kind, chash, columns, [row])
    return ["density.csv", "report.csv"]


def _run_whitney(config, out, chash):
    k = int(config.params.get("k", 2))
    count = int(config.params.get("count", 6))
    edge0 = float(config.params.get("edge", 0.25))
    x0, y0 = (float(v) for v in config.params.get("corner", (0.3, 0.4)))
    names = config.params.get("funcs") or sorted(_WHITNEY_FUNCS)
    rows = []
    for name in names:
        f = _WHITNEY_FUNCS[name]
        for i in range(count):
            edge = edge0 * 0.5 ** i
            rows.append((name, k, edge, whitney_check(f, (x0, y0, edge), k)))
    _write_csv(out / "whitney.csv", config.kind, chash,
               ("func", "k", "edge", "ratio"), rows)
    return ["whitney.csv"]


def _run_synth(config, out, chash):
    surface = _surface_from(config.surface)
    basis = _basis_from(config)
    field = _field_from(config, surface, basis)
    save_field(field, out / "field.npz")
    rows = [(basis.j_star - 1, field.coarse.size,
             float(np.linalg.norm(field.coarse)))]
    for j in field.level_range():
        rows.append((j, level_size(basis, j, field.n_patches),
                     float(np.linalg.norm(field.level(j)))))
    _write_csv(out / "synth.csv", config.kind, chash,
               ("level", "count", "l2"), rows)
    return ["field.npz", "synth.csv"]


_RUNNERS = {
    "norms": _run_norms,
    "nterm": _run_nterm,
    "embed-check": _run_embed_check,
    "bem-solve": _run_bem_solve,
    "whitney": _run_whitney,
    "synth": _run_synth,
}


def run(config: ExperimentConfig) -> int:
    """Execute one experiment; returns the process exit status."""
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    chash = config_hash(config)
    artifacts = _RUNNERS[config.kind](config, out, chash)
    manifest = {
        "schema": SCHEMA_VERSION,
        "kind": config.kind,
        "config": canonical_config(config),
        "config_hash": chash,
        "versions": {"patchwave": __version__, "numpy": np.__version__,
                     "scipy": scipy.__version__},
        "tolerances": _TOLERANCES[config.kind],
        "artifacts": sorted(artifacts),
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return 0


# -- argument parsing --------------------------------------------------------------


def _add_common(parser):
    parser.add_argument("--config", help="JSON config file (overrides flags)")
    parser.add_argument("--surface", default="cube",
                        help="builtin name (cube, fichera) or JSON path")
    parser.add_argument("--basis", default="haar",
                        help="haar, alpert2, or d:j_star")
    parser.add_argument("-J", type=int, default=None,
                        help="finest analysis level")
    parser.add_argument("-L", type=int, default=None, help="grid level")
    parser.add_argument("--space", action="append", default=[],
                        metavar="A,P,Q", help="space triple; repeatable")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output-dir", default="reports")
    parser.add_argument("--workers", type=int, default=1)


def _space_flag(text: str):
    parts = [float(v) for v in text.split(",")]
    if len(parts) != 3:
        raise ConfigError(f"--space needs alpha,p,q, got {text!r}")
    return parts


def _synth_params(args) -> dict:
    synth = {"kind": args.synth}
    for key in ("alpha", "gamma", "level"):
        value = getattr(args, key, None)
        if value is not None:
            synth[key] = value
    if getattr(args, "synth_spec", None):
        synth["spec"] = _space_flag(args.synth_spec)
    return synth


def _build_doc(args) -> dict:
    doc = {
        "kind": args.command,
        "surface": args.surface,
        "basis": args.basis,
        "spaces": [_space_flag(s) for s in args.space],
        "seed": args.seed,
        "output_dir": args.output_dir,
        "workers": args.workers,
        "params": {},
    }
    if args.J is not None:
        doc["J"] = args.J
    if args.L is not None:
        doc["L"] = args.L
    params = doc["params"]
    if getattr(args, "field", None):
        params["field"] = args.field
    elif getattr(args, "synth", None):
        params["synth"] = _synth_params(args)
    if args.command == "nterm":
        for key in ("n_lo", "n_hi", "predicted"):
            value = getattr(args, key)
            if value is not None:
                params[key] = value
        if args.source_space:
            params["source_space"] = _space_flag(args.source_space)
    if args.command == "embed-check":
        if args.model:
            model = {"kind": args.model, "beta": args.beta}
            if args.model == "vertex":
                model["vertex"] = args.vertex
            if args.model == "edge":
                model["v0"], model["v1"] = args.v0, args.v1
            params["model"] = model
            for key in ("k", "rho", "s", "p"):
                params[key] = getattr(args, key)
            if args.tau:
                params["taus"] = args.tau
    if args.command == "bem-solve":
        params["rhs"] = args.rhs
        for key in ("k", "rho", "s"):
            value = getattr(args, key)
            if value is not None:
                params[key] = value
    if args.command == "whitney":
        params["k"] = args.k
        params["count"] = args.count
        params["edge"] = args.edge
        params["corner"] = args.corner
        if args.func:
            params["funcs"] = args.func
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="patchwave",
        description="Wavelet regularity and boundary-integral experiments "
                    "on piecewise-flat surfaces.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_norms = sub.add_parser("norms", help="evaluate space norms of a field")
    p_nterm = sub.add_parser("nterm", help="n-term approximation rate study")
    p_embed = sub.add_parser("embed-check",
                             help="embedding table and tail-sum study")
    p_bem = sub.add_parser("bem-solve", help="dense double layer solve")
    p_whit = sub.add_parser("whitney", help="local polynomial approximation "
                                            "ratios on shrinking squares")
    p_synth = sub.add_parser("synth", help="generate and save a field")

    for p in (p_norms, p_nterm, p_embed, p_bem, p_whit, p_synth):
        _add_common(p)
    for p in (p_norms, p_nterm, p_synth):
        p.add_argument("--synth", choices=_SYNTH_KINDS,
                       help="synthetic field kind")
        p.add_argument("--alpha", type=float, default=None)
        p.add_argument("--gamma", type=float, default=None)
        p.add_argument("--level", type=int, default=None)
        p.add_argument("--synth-spec", metavar="A,P,Q", default=None,
                       help="target space of the generator")
        p.add_argument("--field", default=None, help="saved field (.npz)")

    p_nterm.add_argument("--n-lo", type=int, default=None, dest="n_lo")
    p_nterm.add_argument("--n-hi", type=int, default=None, dest="n_hi")
    p_nterm.add_argument("--predicted", type=float, default=None)
    p_nterm.add_argument("--source-space", metavar="A,P,Q", default=None)

    p_embed.add_argument("--model", choices=("vertex", "edge", "constant"),
                         default=None)
    p_embed.add_argument("--beta", type=float, default=0.6)
    p_embed.add_argument("--vertex", type=int, default=0)
    p_embed.add_argument("--v0", type=int, default=0)
    p_embed.add_argument("--v1", type=int, default=1)
    p_embed.add_argument("--k", type=int, default=1)
    p_embed.add_argument("--rho", type=float, default=0.5)
    p_embed.add_argument("--s", type=float, default=0.75)
    p_embed.add_argument("--p", type=float, default=2.0)
    p_embed.add_argument("--tau", type=float, action="append", default=[])

    p_bem.add_argument("--rhs", nargs="+", default=["constant"],
                       help="constant | harmonic:linear [axis] | "
                            "harmonic:pole px py pz | file path")
    p_bem.add_argument("--k", type=int, default=None)
    p_bem.add_argument("--rho", type=float, default=None)
    p_bem.add_argument("--s", type=float, default=None)

    p_whit.add_argument("--k", type=int, default=2)
    p_whit.add_argument("--count", type=int, default=6)
    p_whit.add_argument("--edge", type=float, default=0.25)
    p_whit.add_argument("--corner", type=float, nargs=2, default=[0.3, 0.4])
    p_whit.add_argument("--func", action="append", default=[],
                        choices=sorted(_WHITNEY_FUNCS))

    args = parser.parse_args(argv)
    try:
        if args.config:
            config = config_from_file(args.config, kind=args.command)
            if args.output_dir != "reports":
                config = dataclasses.replace(config,
                                             output_dir=args.output_dir)
        else:
            config = config_from_dict(_build_doc(args))
        return run(config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
