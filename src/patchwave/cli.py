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
import bisect
import dataclasses
import hashlib
import itertools
import json
import math
import re
import sys
from dataclasses import dataclass, field as dataclass_field
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import scipy

from . import __version__
from .surface import (PolyhedralSurface, ResolutionOfUnity, SurfaceError,
                      fichera_corner, load_surface, unit_cube)
from .wavelets import BasisSpec, analyze, level_size, load_field, save_field
from .spaces import BesovSpec, besov_norm, embedding_predicate, seq_norm
from .weighted import (ConstantModel, EdgePowerModel, VertexPowerModel,
                       WeightedNormDivergence, WeightedSpec,
                       weighted_sobolev_norm)
from .approx import (_RATE_ABS_TOL, _RATE_REL_TOL, _SYNTH_PARAMS,
                     _boundary_window, _interior_window, _inverse_tau,
                     boundary_tail_check, fit_rate, interior_tail_check,
                     n_term_plan, predicted_rate, synth_field, whitney_check)
from .bem import HarmonicProbe, analyze_solution, assemble, solve

SCHEMA_VERSION = "1.0.0"

_NAMED_BASES = {"haar": (1, 0), "alpert2": (2, 2)}

_RHS_FORMS = ("constant | harmonic:linear [axis 0-2] | harmonic:pole px py pz"
              " | file path")

# each kind of an object parameter: the fields it needs and those it also
# takes. A synth kind takes synth_field's; the seed defaults to the config's
_SYNTH_KINDS = {kind: (tuple(key for key in keys if key != "seed"),
                       tuple(key for key in keys if key == "seed"))
                for kind, keys in _SYNTH_PARAMS.items()}
_MODEL_KINDS = {"vertex": (("beta",), ("vertex",)),
                "edge": (("beta",), ("v0", "v1")),
                "constant": ((), ("value",))}
_MODEL_KIND = "vertex"          # the kind of a model that names none
_BETA = 0.6                     # --beta's value where the model takes one

_WHITNEY_FUNCS = {
    "exp": lambda x, y: np.exp(x + y),
    "sinxy": lambda x, y: np.sin(np.pi * x) * np.cos(np.pi * y),
    "rational": lambda x, y: 1.0 / (1.0 + x + y),
}


class ConfigError(ValueError):
    """Invalid experiment configuration; message carries source:line: path."""


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully-resolved experiment description.

    `workers` and `output_dir` steer execution only; they are excluded from
    the canonical form so reruns at different worker counts or target
    directories hash (and therefore serialize) identically.  `_COMMON`
    holds the defaults.
    """

    kind: str
    surface: str
    basis: tuple                          # (order d, coarsest level j*)
    J: int | None
    L: int | None
    spaces: tuple                         # (alpha, p, q) triples
    seed: int
    output_dir: str
    workers: int
    params: dict
    # source and text for errors that only the run can see, such as a model
    # vertex the surface does not have; not part of the config's identity
    check: _Check = dataclass_field(compare=False, repr=False)


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


def _item_lines(text: str) -> dict:
    """Line of each key and array element of the JSON `text`, by path, in
    one walk: keys and scalars are read by the stdlib decoder, containers by
    their brackets.  A repeated key takes the line of its last occurrence,
    the one json.loads keeps.  Text that is not JSON gives no lines."""
    decode = json.JSONDecoder().raw_decode
    skip = re.compile(r"[ \t\n\r]*").match
    breaks = [m.start() for m in re.finditer("\n", text)]
    lines = {}

    def walk(pos: int, path: tuple) -> int:
        """Record the items of the value at `pos`; the position after it."""
        pos = skip(text, pos).end()
        if text[pos] not in "[{":
            return decode(text, pos)[1]
        close = "]" if text[pos] == "[" else "}"
        for index in itertools.count():
            pos = skip(text, pos + 1).end()     # past the bracket or comma
            if text[pos] == close and not index:
                return pos + 1
            item, line = path + (index,), bisect.bisect(breaks, pos) + 1
            if close == "}":
                key, pos = decode(text, pos)
                pos = skip(text, pos).end()
                if not isinstance(key, str) or text[pos] != ":":
                    raise ValueError("not JSON")
                item, pos = path + (key,), pos + 1
                if item in lines:       # a repeated key: json keeps the last
                    for stale in [p for p in lines if p[:len(item)] == item]:
                        del lines[stale]
            lines[item] = line
            pos = skip(text, walk(pos, item)).end()
            if text[pos] == close:
                return pos + 1
            if text[pos] != ",":
                raise ValueError("not JSON")

    try:
        end = walk(0, ())
    except (ValueError, IndexError, RecursionError):
        return {}
    return lines if skip(text, end).end() == len(text) else {}


def _path_str(path: tuple) -> str:
    out = ""
    for el in path:
        out += f"[{el}]" if isinstance(el, int) else (("." if out else "") + str(el))
    return out or "<config>"


class _Check(NamedTuple):
    """A config's JSON text (None without a file) and source name.  `fail`
    raises a ConfigError prefixed `source:line: key-path:`, at the line of
    the item at the path or else of its nearest ancestor in the text."""

    text: str | None
    source: str

    def fail(self, path: tuple, message: str):
        lines = {} if self.text is None else _item_lines(self.text)
        item = path
        while item and item not in lines:
            item = item[:-1]
        where = f"{self.source}:{lines[item]}" if item else self.source
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
            or not all(type(v) is int for v in value)):   # no booleans
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
    try:
        alpha, p, q = (float(v) for v in value)
        BesovSpec(alpha, p, q)
    except Exception as exc:
        chk.fail(path, str(exc))
    return (alpha, p, q)


def _as_spaces(value, chk: _Check, path: tuple) -> tuple:
    if not isinstance(value, list):
        chk.fail(path, "spaces must be a list of [alpha, p, q] triples")
    return tuple(_as_space(s, chk, path + (i,)) for i, s in enumerate(value))


def _as_int(value, chk: _Check, path: tuple, minimum: int | None = None) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        chk.fail(path, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        chk.fail(path, f"must be >= {minimum}, got {value}")
    return value


def _as_weighted_order(value, chk: _Check, path: tuple) -> None:
    if _as_int(value, chk, path, minimum=1) > 2:
        chk.fail(path, f"weighted norm order must be 1 or 2, got {value}")


def _finite(value) -> None:
    """ValueError unless the number `value` is finite as a float."""
    try:
        ok = math.isfinite(value)
    except OverflowError:       # an integer beyond the float range
        ok = False
    if not ok:
        raise ValueError(f"expected a finite number, got {value!r}")


def _as_number(value, chk: _Check, path: tuple) -> None:
    if not _is_number(value):
        chk.fail(path, f"expected a number, got {value!r}")
    try:
        _finite(value)
    except ValueError as exc:
        chk.fail(path, str(exc))


def _as_numbers(value, chk: _Check, path: tuple, size: int | None = None,
                each: Callable = _finite):
    """A list of numbers, each of which `each` accepts (raises ValueError
    otherwise; by default it requires a finite number)."""
    if (not isinstance(value, list) or not all(_is_number(v) for v in value)
            or size is not None and len(value) != size):
        count = "" if size is None else f"{size} "
        chk.fail(path, f"expected a list of {count}numbers, got {value!r}")
    for i, v in enumerate(value):
        try:
            each(v)
        except ValueError as exc:
            chk.fail(path + (i,), str(exc))


def _as_path(value, chk: _Check, path: tuple) -> str:
    if not isinstance(value, str) or not value:
        chk.fail(path, f"expected a non-empty path, got {value!r}")
    return value


def _as_names(value, chk: _Check, path: tuple, choices: tuple) -> None:
    if not isinstance(value, list) or not value:
        chk.fail(path, f"expected a non-empty list of names, got {value!r}")
    for i, name in enumerate(value):
        if name not in choices:
            chk.fail(path + (i,), f"unknown function {name!r}; "
                                  f"available: {list(choices)}")


def _as_object(value, chk: _Check, path: tuple, name: str, kinds: dict,
               fields: dict, default_kind: str | None = None) -> None:
    """An object whose 'kind' is a key of `kinds`, which gives the fields
    each kind needs and the ones it also takes; `fields` checks each one."""
    if not isinstance(value, dict):
        chk.fail(path, f"{name} must be an object")
    kind = value.get("kind", default_kind)
    if kind not in tuple(kinds):
        chk.fail(path + ("kind",), f"{name} kind must be one of "
                                   f"{tuple(kinds)}, got {kind!r}")
    needs, takes = kinds[kind]
    for key in needs:
        if key not in value:
            chk.fail(path, f"{kind} {name} needs '{key}'")
    for key in [key for key in value if key != "kind"]:
        if key not in needs + takes:
            chk.fail(path + (key,), f"not a {name} field of kind {kind!r} "
                                    f"(allowed: {sorted(needs + takes)})")
        fields[key](value[key], chk, path + (key,))


def _rhs_number(token):
    """The finite number an rhs token spells (flags pass strings), or None."""
    try:
        value = float(str(token))
    except ValueError:
        return None
    return value if np.isfinite(value) else None


def _as_rhs(value, chk: _Check, path: tuple) -> None:
    head, *args = value if isinstance(value, list) and value else [None]
    numbers = [_rhs_number(t) for t in args]
    if not (head == "constant"
            or head == "harmonic:linear" and numbers in ([], [0], [1], [2])
            or head == "harmonic:pole" and len(args) == 3 and None not in numbers
            or head == "file" and len(args) == 1 and isinstance(args[0], str)):
        chk.fail(path, f"expected {_RHS_FORMS}, got {value!r}")


def config_from_dict(doc: dict, *, text: str | None = None,
                     source: str = "config") -> ExperimentConfig:
    """Build and validate a config; errors carry source:line: key-path."""
    chk = _Check(text, source)
    if not isinstance(doc, dict):
        raise ConfigError(f"{source}: top level must be an object")
    for key in doc:
        if key not in _COMMON and key not in ("kind", "params"):
            chk.fail((key,), "unknown key (allowed: "
                             f"{sorted(['kind', 'params', *_COMMON])})")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        chk.fail(("kind",), f"experiment kind must be one of "
                            f"{tuple(_KINDS)}, got {kind!r}")
    common = {}
    for key, prm in _COMMON.items():
        value = doc.get(key, prm.default)
        # null stands for "absent" only where absent means None (J, L)
        common[key] = None if value is None and prm.default is None \
            else prm.check(value, chk, (key,))
    spaces, J, L, basis = map(common.get, ("spaces", "J", "L", "basis"))
    params = doc.get("params", {})
    if not isinstance(params, dict):
        chk.fail(("params",), "params must be an object")
    table = _KINDS[kind].params
    for key, value in params.items():
        if key not in table:
            chk.fail(("params", key), f"parameter not used by '{kind}' "
                                      f"(allowed: {sorted(table)})")
        table[key].check(value, chk, ("params", key))

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
    config = ExperimentConfig(kind=kind, params=params, check=chk, **common)
    if kind == "embed-check" and "model" in params:
        # what the tail checks would reject after the analysis, rejected now
        k, rho, s, p = (_param(config, key) for key in ("k", "rho", "s", "p"))
        # the default taus are built from min(rho, k - rho), which must be > 0:
        # at 0 they all land on 1/tau = 1/2, outside the empty interior window
        if not params.get("taus") and not 0 < rho < k:
            chk.fail(("params", "rho"), "without taus, rho must lie in (0, k)")
        if basis[0] < k:
            chk.fail(("params", "k"), f"the basis' dual order {basis[0]} is "
                                      f"below the derivative order {k}")
        for i, tau in enumerate(_tail_taus(config)):
            try:
                _interior_window(WeightedSpec(k, float(rho)), tau)
                _boundary_window(float(s), float(p), tau)
            except (ValueError, OverflowError) as exc:
                chk.fail(("params", "taus", i) if params.get("taus")
                         else ("params", "s"), str(exc))
    if kind == "bem-solve" and J is not None:
        if not 0 < _param(config, "rho") < _param(config, "k"):
            chk.fail(("params", "rho"), "with J, rho must lie in (0, k)")
        if not 0 < _param(config, "s") < 1:
            chk.fail(("params", "s"), "with J, s must lie in (0, 1)")
    if kind == "nterm" and _param(config, "n_lo") > _param(config, "n_hi"):
        chk.fail(("params", "n_lo" if "n_lo" in params else "n_hi"),
                 f"n_lo={_param(config, 'n_lo')} exceeds "
                 f"n_hi={_param(config, 'n_hi')}")
    return config


def _tail_taus(config: ExperimentConfig) -> list:
    """The tail study's taus: as given, else three inside the interior window."""
    k, rho = _param(config, "k"), _param(config, "rho")
    return _param(config, "taus") or \
        [1.0 / (0.5 + f * min(rho, k - rho)) for f in (0.75, 0.5, 0.25)]


def config_from_file(path, kind: str | None = None) -> ExperimentConfig:
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from exc
    except RecursionError:
        raise ConfigError(f"{path}: invalid JSON: nested too deeply") from None
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
             "# tolerances: " + json.dumps(_KINDS[kind].tolerances, sort_keys=True)]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _param(config: ExperimentConfig, key: str):
    """The run's value of parameter `key`: as given, else the table's."""
    return config.params.get(key, _KINDS[config.kind].params[key].default)


def _surface_from(config: ExperimentConfig) -> PolyhedralSurface:
    builtin = {"cube": unit_cube, "fichera": fichera_corner}.get(config.surface)
    try:
        return load_surface(builtin() if builtin else config.surface)
    except OSError as exc:
        config.check.fail(("surface",), f"cannot read: {exc}")
    except SurfaceError as exc:
        config.check.fail(("surface",), str(exc))


def _basis_from(config: ExperimentConfig) -> BasisSpec:
    d, j_star = config.basis
    return BasisSpec(d=d, j_star=j_star)


def _field_from(config, surface, basis):
    if "field" in config.params:
        try:
            return load_field(config.params["field"], surface)
        except (OSError, ValueError) as exc:
            config.check.fail(("params", "field"), f"cannot read: {exc}")
    synth = dict(config.params["synth"])
    kind = synth.pop("kind")
    if "spec" in synth:
        synth["spec"] = BesovSpec(*synth["spec"])
    if "seed" in _SYNTH_PARAMS[kind]:
        synth.setdefault("seed", config.seed)
    return synth_field(surface, basis, kind, config.J, **synth)


# -- experiment runners ------------------------------------------------------------


def _run_norms(config, out, chash):
    surface = _surface_from(config)
    field = _field_from(config, surface, _basis_from(config))
    rows = []
    for alpha, p, q in config.spaces:
        spec = BesovSpec(alpha, p, q)
        rows.append((alpha, p, q, besov_norm(field, spec), seq_norm(field, spec)))
    _write_csv(out / "norms.csv", config.kind, chash,
               ("alpha", "p", "q", "besov_norm", "seq_norm"), rows)
    return ["norms.csv"]


def _run_nterm(config, out, chash):
    surface = _surface_from(config)
    field = _field_from(config, surface, _basis_from(config))
    target = BesovSpec(*config.spaces[0])
    plan = n_term_plan(field, target)
    n_lo = _param(config, "n_lo")
    n_hi = min(_param(config, "n_hi"), plan.n_indices)
    ns, n = [], n_lo
    while n <= n_hi:
        ns.append(n)
        n *= 2
    samples = [(n, plan.error_at(n)) for n in ns]
    samples = [(n, e) for n, e in samples if e > 0.0]
    if len(samples) < 4:
        config.check.fail(("params", "n_lo"), (
            f"{len(samples)} positive errors at n = {ns}, the rate fit "
            "needs at least 4 (widen [n_lo, n_hi] or use a larger field)"))
    predicted = _param(config, "predicted")
    if predicted is None and "source_space" in config.params:
        predicted = predicted_rate(BesovSpec(*config.params["source_space"]),
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
                         embedding_predicate(BesovSpec(*s0), BesovSpec(*s1))))
    _write_csv(out / "embeddings.csv", config.kind, chash,
               ("alpha0", "p0", "q0", "alpha1", "p1", "q1", "embeds"), rows)
    files.append("embeddings.csv")

    model = _param(config, "model")
    if model is not None:
        surface = _surface_from(config)
        basis = _basis_from(config)
        handle = _model_from(model, surface, config.check)
        k = _param(config, "k")
        rho = float(_param(config, "rho"))
        s = float(_param(config, "s"))
        p = float(_param(config, "p"))
        weighted = WeightedSpec(k=k, rho=rho)
        field = analyze(surface, handle, basis, config.J,
                        workers=config.workers)
        norm = weighted_sobolev_norm(handle, surface,
                                     ResolutionOfUnity(surface), weighted,
                                     workers=config.workers)
        tail_rows = []
        for tau in _tail_taus(config):
            b_lhs, _, b_ratio = boundary_tail_check(field, s, p, tau)
            i_lhs, _, i_ratio = interior_tail_check(field, norm, weighted, tau)
            tail_rows.append((tau, b_lhs, b_ratio, i_lhs, i_ratio))
        _write_csv(out / "tails.csv", config.kind, chash,
                   ("tau", "boundary_tail", "boundary_ratio",
                    "interior_tail", "interior_ratio"), tail_rows)
        files.append("tails.csv")
    return files


def _model_from(model: dict, surface, chk: _Check):
    kind = model.get("kind", _MODEL_KIND)
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


def _parse_rhs(tokens, n_cells: int, chk: _Check):
    head = tokens[0]
    if head == "constant":
        return lambda pts: np.ones(len(pts))
    if head == "harmonic:linear":
        return HarmonicProbe.linear(
            int(_rhs_number(tokens[1])) if len(tokens) > 1 else 0)
    if head == "harmonic:pole":
        return HarmonicProbe.point_source([_rhs_number(t) for t in tokens[1:4]])
    try:
        values = np.loadtxt(tokens[1], ndmin=1)
    except (OSError, ValueError) as exc:
        chk.fail(("params", "rhs"), f"cannot read {tokens[1]!r}: {exc}")
    if values.shape != (n_cells,):
        chk.fail(("params", "rhs"), f"{tokens[1]!r} holds {values.size} "
                                    f"values for {n_cells} cells")
    return values


def _run_bem_solve(config, out, chash):
    surface = _surface_from(config)
    rhs = _parse_rhs(_param(config, "rhs"),
                     surface.n_patches << (2 * config.L), config.check)
    system = assemble(surface, config.L, workers=config.workers)
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
        weighted = WeightedSpec(k=_param(config, "k"),
                                rho=float(_param(config, "rho")))
        sol = analyze_solution(surface, report.density, _basis_from(config),
                               config.J, weighted,
                               s=float(_param(config, "s")),
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
    k = _param(config, "k")
    count = _param(config, "count")
    edge0 = float(_param(config, "edge"))
    x0, y0 = (float(v) for v in _param(config, "corner"))
    names = _param(config, "funcs")
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
    surface = _surface_from(config)
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


# -- the experiment kinds and their parameters ------------------------------------


def _space_flag(text: str) -> list:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected alpha,p,q, got {text!r}")
    return [float(v) for v in parts]


class _Param(NamedTuple):
    """One key of `_COMMON` or of `params`.  An object parameter's flag sets
    its 'kind'; `members` maps its other fields to their flags and keywords."""

    check: Callable             # check(value, chk, path) fails through chk
    default: object             # what a run uses when the key is absent
    flag: str
    spec: dict
    help: str
    members: dict = {}


class _Kind(NamedTuple):
    help: str
    run: Callable
    params: dict
    tolerances: dict            # quoted in report headers


_INT = {"type": int}
_FLOAT = {"type": float}
_SPACE = {"type": _space_flag, "metavar": "A,P,Q"}
_AT_LEAST_0 = partial(_as_int, minimum=0)
_AT_LEAST_1 = partial(_as_int, minimum=1)
_FUNC_NAMES = tuple(sorted(_WHITNEY_FUNCS))

_SYNTH = _Param(
    partial(_as_object, name="synth", kinds=_SYNTH_KINDS, fields={
        "spec": _as_space, "alpha": _as_number, "gamma": _as_number,
        "level": _AT_LEAST_0, "seed": _AT_LEAST_0}),
    None, "--synth", {"choices": tuple(_SYNTH_KINDS)}, "field generator",
    {"alpha": ("--alpha", _FLOAT), "gamma": ("--gamma", _FLOAT),
     "level": ("--level", _INT), "spec": ("--synth-spec", _SPACE)})
_FIELD = _Param(_as_path, None, "--field", {}, "saved field (.npz)")
_K = _Param(_as_weighted_order, 1, "--k", _INT, "weighted norm order")
_RHO = _Param(_as_number, 0.5, "--rho", _FLOAT, "weight exponent")
_S = _Param(_as_number, 0.75, "--s", _FLOAT, "base space (s, p, p)")

# the top-level keys every kind shares; a config keeps what their checks return
_COMMON = {
    "surface": _Param(_as_path, "cube", "--surface", {},
                      "builtin name (cube, fichera) or JSON path"),
    "basis": _Param(_as_basis, "haar", "--basis", {},
                    "haar, alpert2, or d:j_star"),
    "J": _Param(_AT_LEAST_0, None, "-J", _INT, "finest analysis level"),
    "L": _Param(_AT_LEAST_1, None, "-L", _INT, "grid level"),
    "spaces": _Param(_as_spaces, [], "--space",
                     {**_SPACE, "action": "append"}, "space triple; repeatable"),
    "seed": _Param(_AT_LEAST_0, 0, "--seed", _INT, "random field seed"),
    "workers": _Param(_AT_LEAST_1, 1, "--workers", _INT, "worker threads"),
    "output_dir": _Param(_as_path, "reports", "--output-dir", {},
                         "report directory; overrides --config's"),
}

_KINDS = {
    "norms": _Kind("evaluate space norms of a field", _run_norms,
                   {"synth": _SYNTH, "field": _FIELD}, {}),
    "nterm": _Kind("n-term approximation rate study", _run_nterm, {
        "synth": _SYNTH, "field": _FIELD,
        "n_lo": _Param(_AT_LEAST_1, 16, "--n-lo", _INT, "first n"),
        "n_hi": _Param(_AT_LEAST_1, 1 << 14, "--n-hi", _INT, "last n"),
        "predicted": _Param(_as_number, None, "--predicted", _FLOAT, "rate"),
        "source_space": _Param(_as_space, None, "--source-space", _SPACE,
                               "space predicting the rate"),
    }, {"slope_rel_tol": _RATE_REL_TOL, "slope_abs_tol": _RATE_ABS_TOL}),
    "embed-check": _Kind("embedding table and tail-sum study",
                         _run_embed_check, {
        "model": _Param(
            partial(_as_object, name="model", kinds=_MODEL_KINDS,
                    fields={"beta": _as_number, "value": _as_number,
                            "vertex": _AT_LEAST_0, "v0": _AT_LEAST_0,
                            "v1": _AT_LEAST_0}, default_kind=_MODEL_KIND),
            None, "--model", {"choices": tuple(_MODEL_KINDS)},
            "singularity model of the tail study",
            {"beta": ("--beta", {"type": float, "help": f"default {_BETA}"}),
             "vertex": ("--vertex", _INT), "v0": ("--v0", _INT),
             "v1": ("--v1", _INT)}),
        "taus": _Param(partial(_as_numbers, each=_inverse_tau), None, "--tau",
                       {**_FLOAT, "action": "append"},
                       "default: three from min(rho, k - rho)"),
        "k": _K, "rho": _RHO, "s": _S,
        "p": _Param(_as_number, 2.0, "--p", _FLOAT, "base space (s, p, p)"),
    }, {"critical_line_tol": 1e-12}),
    "bem-solve": _Kind("dense double layer solve", _run_bem_solve, {
        "rhs": _Param(_as_rhs, ("constant",), "--rhs", {"nargs": "+"},
                      _RHS_FORMS),
        "k": _K, "rho": _RHO, "s": _S,
    }, {"residual_max": 1e-10}),
    "whitney": _Kind("local polynomial approximation ratios on shrinking "
                     "squares", _run_whitney, {
        "k": _Param(_AT_LEAST_1, 2, "--k", _INT, "seminorm order"),
        "count": _Param(_AT_LEAST_1, 6, "--count", _INT, "squares"),
        "edge": _Param(_as_number, 0.25, "--edge", _FLOAT, "largest edge"),
        "corner": _Param(partial(_as_numbers, size=2), (0.3, 0.4),
                         "--corner", {**_FLOAT, "nargs": 2}, "lower left"),
        "funcs": _Param(partial(_as_names, choices=_FUNC_NAMES), _FUNC_NAMES,
                        "--func", {"action": "append", "choices": _FUNC_NAMES},
                        "test functions"),
    }, {"ratio_spread": 0.2}),
    "synth": _Kind("generate and save a field", _run_synth,
                   {"synth": _SYNTH}, {}),
}


def run(config: ExperimentConfig) -> int:
    """Execute one experiment; returns the process exit status."""
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    chash = config_hash(config)
    artifacts = _KINDS[config.kind].run(config, out, chash)
    manifest = {
        "schema": SCHEMA_VERSION,
        "kind": config.kind,
        "config": canonical_config(config),
        "config_hash": chash,
        "versions": {"patchwave": __version__, "numpy": np.__version__,
                     "scipy": scipy.__version__},
        "tolerances": _KINDS[config.kind].tolerances,
        "artifacts": sorted(artifacts),
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return 0


# -- argument parsing --------------------------------------------------------------


def _add_params(parser, table: dict, prefix: str) -> None:
    """The flags of `table`; one not given sets nothing."""
    for key, prm in table.items():
        default = "" if prm.default is None else \
            f"; default {json.dumps(prm.default)}"
        parser.add_argument(prm.flag, dest=key, default=argparse.SUPPRESS,
                            help=f"{prefix}{key}: {prm.help}{default}",
                            **prm.spec)
        for member, (name, spec) in prm.members.items():
            parser.add_argument(name, dest=f"{key}.{member}",
                                default=argparse.SUPPRESS, **spec)


def _flag_doc(args, chk: _Check) -> dict:
    """The config of a flag run; its params hold the flags given (and
    model.beta's default, for a model that takes beta), as a config file
    spelling them out would.  A member flag needs its object's flag."""
    given = dict(vars(args))
    if "model" in given and "beta" in _MODEL_KINDS[given["model"]][0]:
        given.setdefault("model.beta", _BETA)
    params = {}
    for key, prm in _KINDS[args.command].params.items():
        for member, (name, _) in prm.members.items():
            if f"{key}.{member}" in given and key not in given:
                chk.fail((name,), f"sets a {key} field, but {prm.flag} is "
                                  "not given")
        if key in given:
            params[key] = given[key]
            if prm.members:
                params[key] = {"kind": given[key], **{
                    member: given[f"{key}.{member}"] for member in prm.members
                    if f"{key}.{member}" in given}}
    if "field" in params:           # a saved field replaces the generator
        params.pop("synth", None)
    doc = {key: given[key] for key in _COMMON if key in given}
    return {**doc, "kind": args.command, "params": params}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="patchwave",
        description="Wavelet regularity and boundary-integral experiments "
                    "on piecewise-flat surfaces.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, kind in _KINDS.items():
        p = sub.add_parser(name, help=kind.help)
        p.add_argument("--config", help="JSON config file; of the other "
                                        "flags only --output-dir applies")
        _add_params(p, _COMMON, "")
        _add_params(p, kind.params, "params.")

    args = parser.parse_args(argv)
    flags = _Check(None, "command line")
    try:
        if args.config is None:
            config = config_from_dict(_flag_doc(args, flags), source=flags.source)
        else:
            config = config_from_file(
                _as_path(args.config, flags, ("--config",)), kind=args.command)
            if "output_dir" in vars(args):      # the flag beats the file
                config = dataclasses.replace(config, output_dir=_as_path(
                    args.output_dir, flags, ("--output-dir",)))
        return run(config)
    except (ValueError, WeightedNormDivergence) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 1


if __name__ == "__main__":
    sys.exit(main())
