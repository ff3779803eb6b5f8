import dataclasses
import filecmp
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from patchwave import cli, unit_cube
from patchwave.cli import (
    ConfigError,
    canonical_config,
    config_from_dict,
    config_from_file,
    config_hash,
)
from test_weighted import _NanNearVertex0


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
    return path


BASE = {
    "kind": "norms",
    "surface": "cube",
    "basis": "haar",
    "J": 3,
    "spaces": [[1.0, 2.0, 2.0], [0.75, 2.0, 2.0]],
    "params": {"synth": {"kind": "random_besov", "spec": [1.0, 2.0, 2.0]}},
}


def test_config_roundtrip(tmp_path):
    path = _write(tmp_path, "exp.json", BASE)
    config = config_from_file(path)
    assert config.kind == "norms"
    assert config.basis == (1, 0)
    assert config.spaces == ((1.0, 2.0, 2.0), (0.75, 2.0, 2.0))
    assert config.J == 3


def test_hash_ignores_execution_parameters(tmp_path):
    a = config_from_dict(dict(BASE))
    b = config_from_dict({**BASE, "workers": 4, "output_dir": "elsewhere"})
    assert config_hash(a) == config_hash(b)
    assert "workers" not in canonical_config(a)
    assert "output_dir" not in canonical_config(a)
    c = config_from_dict({**BASE, "seed": 9})
    assert config_hash(a) != config_hash(c)


def test_validation_reports_offending_line(tmp_path):
    # hand-rolled layout: the offending space sits alone on one line
    text = (
        '{\n'
        '  "kind": "norms",\n'
        '  "surface": "cube",\n'
        '  "basis": "haar",\n'
        '  "J": 3,\n'
        '  "spaces": [\n'
        '    [1.0, 2.0, 2.0],\n'
        '    [0.5, 1.0, 2.0]\n'
        '  ],\n'
        '  "params": {"synth": {"kind": "random_besov", "spec": [1.0, 2.0, 2.0]}}\n'
        '}\n'
    )
    path = tmp_path / "bad.json"
    path.write_text(text, encoding="utf-8")
    line = next(i for i, ln in enumerate(text.splitlines(), start=1)
                if ln.strip().startswith("[0.5"))
    with pytest.raises(ConfigError) as err:
        config_from_file(path)
    msg = str(err.value)
    assert f"bad.json:{line}:" in msg
    assert "spaces[1]" in msg
    assert "admissible" in msg


def test_validation_rejects_unknown_pieces(tmp_path):
    with pytest.raises(ConfigError, match="kind"):
        config_from_dict({**BASE, "kind": "frobnicate"})
    with pytest.raises(ConfigError, match="basis"):
        config_from_dict({**BASE, "basis": "db4"})
    with pytest.raises(ConfigError, match="parameter not used"):
        config_from_dict({**BASE, "params": {"gamma": 1.0}})
    with pytest.raises(ConfigError, match="synth kind"):
        config_from_dict(
            {**BASE, "params": {"synth": {"kind": "white_noise"}}})


def test_validation_locates_bad_n_lo(tmp_path):
    # n_lo <= 0 used to make the doubling loop of the nterm runner spin forever
    doc = {"kind": "nterm", "basis": "haar", "J": 4,
           "spaces": [[1.0, 2.0, 2.0]],
           "params": {"synth": {"kind": "random_besov",
                                "spec": [1.0, 2.0, 2.0]},
                      "n_lo": 0}}
    path = _write(tmp_path, "nterm.json", doc)
    line = next(i for i, ln in enumerate(path.read_text().splitlines(), 1)
                if '"n_lo"' in ln)
    with pytest.raises(ConfigError) as err:
        config_from_file(path)
    assert str(err.value).startswith(f"{path}:{line}: params.n_lo: must be >= 1")
    for bad in (-3, 2.5, "16"):
        doc["params"]["n_lo"] = bad
        with pytest.raises(ConfigError, match="params.n_lo"):
            config_from_dict(doc)
    doc["params"]["n_lo"] = 16
    doc["params"]["n_hi"] = "big"
    with pytest.raises(ConfigError, match="params.n_hi: expected an integer"):
        config_from_dict(doc)


def _reported_line(text, path):
    """The line a validation error at `path` of the config `text` names."""
    with pytest.raises(ConfigError) as err:
        cli._Check(text, "f").fail(path, "bad")
    where = str(err.value).split(": ", 1)[0]
    return None if where == "f" else int(where.removeprefix("f:"))


def _dump_order(node, lines: dict, path=(), line=1) -> int:
    """Fill `lines` with the line of each item of `node`, dumped with an
    indent from `line` on, and return its last line: every item starts a
    line, and a non-empty container closes on a line of its own."""
    items = (list(node.items()) if isinstance(node, dict)
             else list(enumerate(node)) if isinstance(node, list) else [])
    for key, value in items:
        line += 1
        lines[path + (key,)] = line
        line = _dump_order(value, lines, path + (key,), line)
    return line + bool(items)


# key names that recur at every depth, need escapes, or look like JSON text
_KEYS = st.sampled_from(["J", "kind", "spec", "é", "名", 'q"k', "\\", "a b"])
_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.sampled_from(['"J": 1', '{"kind": [', "]}", ",", "\\\"", "\n"])
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(_KEYS, inner, max_size=3), max_leaves=16)


@settings(max_examples=150)
@given(doc=st.dictionaries(_KEYS, _VALUES, min_size=1, max_size=4))
def test_errors_name_the_line_of_every_item(doc):
    lines = {}
    _dump_order(doc, lines)
    for text in (json.dumps(doc, indent=2),
                 json.dumps(doc, indent=1, separators=(",", " : "),
                            ensure_ascii=False)):
        for path, line in lines.items():
            assert _reported_line(text, path) == line, (text, path)
            # a path the text lacks falls back to its nearest ancestor
            assert _reported_line(text, path + ("missing", 0)) == line
        assert _reported_line(text, ("missing",)) is None
    compact = json.dumps(doc)
    assert {_reported_line(compact, path) for path in lines} == {1}


def test_a_repeated_key_is_located_where_json_reads_it(tmp_path, capsys):
    # json.loads keeps the last of repeated keys, and so does the report
    path = tmp_path / "bad.json"
    path.write_text('{\n  "kind": "norms",\n  "J": 3,\n  "J": -1\n}\n')
    assert cli.main(["norms", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: {path}:4: J: must be >= 0, got -1")
    # the items of the earlier value are gone with it
    assert cli._item_lines('{"a": {"b": 1},\n "a": 2}') == {("a",): 2}
    # an escaped key is read as json reads it
    path.write_text('{\n  "kind": "norms",\n  "\\u004a": -1\n}\n')
    with pytest.raises(ConfigError) as err:
        config_from_file(path)
    assert str(err.value).startswith(f"{path}:3: J: must be >= 0, got -1")


def test_text_that_is_not_json_gives_no_line():
    doc = {**BASE, "J": -1}
    full = json.dumps(doc, indent=2)
    line = next(i for i, ln in enumerate(full.splitlines(), 1) if '"J"' in ln)
    with pytest.raises(ConfigError, match=f"^bad.json:{line}: J: must be"):
        config_from_dict(doc, text=full, source="bad.json")
    # config_from_dict is public: its text may be anything, such as any
    # proper prefix of the config's own text
    for text in ["", "not json", '{"J": -1,}', '{"J" -1}', '{"J": -1} {',
                 '{"J": 3; "J": -1}', "{'J': -1}", '{"J": [1, 2}', "[" * 5000,
                 *(full[:cut] for cut in range(len(full)))]:
        with pytest.raises(ConfigError) as err:
            config_from_dict(doc, text=text, source="bad.json")
        assert str(err.value).startswith("bad.json: J: must be >= 0"), text


EMBED = {"kind": "embed-check", "basis": "haar", "J": 3,
         "params": {"model": {"kind": "vertex", "beta": 0.6}}}
BEM = {"kind": "bem-solve", "L": 2, "J": 2, "params": {"rhs": ["constant"]}}


WHITNEY = {"kind": "whitney", "params": {}}
NTERM = {"kind": "nterm", "J": 3, "spaces": [[1.0, 2.0, 2.0]],
         "params": {"synth": {"kind": "lacunary", "alpha": 1.0}}}
SYNTH = {"kind": "synth", "J": 3,
         "params": {"synth": {"kind": "lacunary", "alpha": 1.0}}}


@pytest.mark.parametrize("base, key, value, message", [
    (EMBED, "k", "two", "k: expected an integer"),
    (EMBED, "k", 0, "k: must be >= 1"),
    (EMBED, "rho", "half", "rho: expected a number"),
    (EMBED, "s", [0.75], "s: expected a number"),
    (EMBED, "p", True, "p: expected a number"),
    (EMBED, "taus", ["a"], "taus: expected a list of numbers"),
    (EMBED, "model", {"kind": "vertex", "beta": "x"},
     "model.beta: expected a number"),
    (EMBED, "model", {"kind": "edge", "beta": 0.6, "v1": -1},
     "model.v1: must be >= 0"),
    (BEM, "k", 1.5, "k: expected an integer"),
    (BEM, "rho", None, "rho: expected a number"),
    (BEM, "s", "0.75", "s: expected a number"),
    (WHITNEY, "corner", [0.3], "corner: expected a list of 2 numbers"),
    (NTERM, "predicted", "x", "predicted: expected a number"),
    (NTERM, "source_space", "x", "source_space: space must be"),
    (WHITNEY, "funcs", 3, "funcs: expected a non-empty list of names"),
    (SYNTH, "synth", {"kind": "lacunary", "alpha": "x"},
     "synth.alpha: expected a number"),
    (SYNTH, "synth", {"kind": "lacunary", "alpha": 1.0, "beta": 2.0},
     "synth.beta: not a synth field"),
    (EMBED, "model", {"kind": "vertex", "beta": 0.6, "seed": 1},
     "model.seed: not a model field"),
    (BEM, "rhs", ["harmonic:linear", 7], "rhs: expected constant"),
    (BEM, "rhs", ["harmonic:pole", "a", "1", "2"], "rhs: expected constant"),
    (BEM, "rhs", ["file"], "rhs: expected constant"),
    (EMBED, "rho", 3.0, "rho: without taus, rho must lie in"),
    (EMBED, "k", 3, "k: weighted norm order must be 1 or 2, got 3"),
    (BEM, "k", 3, "k: weighted norm order must be 1 or 2, got 3"),
    (NTERM, "n_lo", 20000, "n_lo: n_lo=20000 exceeds n_hi=16384"),
    (NTERM, "n_hi", 8, "n_hi: n_lo=16 exceeds n_hi=8"),
    # the default taus collapse onto 1/tau = 1/2 at rho = 0 and rho = k
    (EMBED, "rho", 0.0, "rho: without taus, rho must lie in \\(0, k\\)"),
    (EMBED, "rho", 1, "rho: without taus, rho must lie in \\(0, k\\)"),
    (EMBED, "taus", [1.6, 0], "taus\\[1\\]: tau must be a positive finite "
                              "number, got 0"),
    (EMBED, "taus", [-2.0], "taus\\[0\\]: tau must be a positive finite"),
    (EMBED, "taus", [float("inf")], "taus\\[0\\]: tau must be a positive"),
    (EMBED, "taus", [float("nan")], "taus\\[0\\]: tau must be a positive"),
    # what the tail checks reject after the analysis is rejected before it
    (EMBED, "taus", [0.9], "taus\\[0\\]: 1/tau = 1.1111111111111112 outside "
                           "\\[1/2, 1.0\\)"),
    (EMBED, "taus", [1.6, 2.5], "taus\\[1\\]: 1/tau = 0.4 outside \\[1/2"),
    (EMBED, "k", 2, "k: the basis' dual order 1 is below the derivative "
                    "order 2"),
    (EMBED, "s", 0.0, "s: 1/tau = 0.875 outside the admitted range"),
    (EMBED, "p", 1.0, "s: .* outside the admissible window"),
    (EMBED, "p", -2.0, "s: p must be positive"),
    # the prediction and the interior tail exponent need min(rho, k - rho) > 0
    (BEM, "rho", 2.0, "rho: with J, rho must lie in \\(0, k\\)"),
    (BEM, "rho", 1.5, "rho: with J, rho must lie in \\(0, k\\)"),
    (BEM, "rho", 0, "rho: with J, rho must lie in \\(0, k\\)"),
    (NTERM, "source_space", [float("nan"), 2.0, 2.0],
     "source_space: alpha must be finite, got nan"),
    # every number a run needs finite is rejected here, not at run time
    (WHITNEY, "edge", float("nan"), "edge: expected a finite number, got nan"),
    (WHITNEY, "edge", float("inf"), "edge: expected a finite number, got inf"),
    (WHITNEY, "corner", [float("nan"), 0.4],
     "corner\\[0\\]: expected a finite number, got nan"),
    (WHITNEY, "corner", [0.3, -float("inf")],
     "corner\\[1\\]: expected a finite number, got -inf"),
    (EMBED, "model", {"kind": "vertex", "beta": float("nan")},
     "model.beta: expected a finite number, got nan"),
    (EMBED, "rho", float("inf"), "rho: expected a finite number, got inf"),
    (SYNTH, "synth", {"kind": "lacunary", "alpha": float("-inf")},
     "synth.alpha: expected a finite number, got -inf"),
    (NTERM, "source_space", [1.0, float("nan"), 2.0],
     "source_space: p must be positive"),
    (NTERM, "source_space", [1.0, 2.0, float("nan")],
     "source_space: q must be positive"),
    # a NaN p or q is named as such
    (NTERM, "source_space", [1.0, float("nan"), 2.0],
     "source_space: p must be positive, got nan"),
    (NTERM, "source_space", [1.0, 2.0, float("nan")],
     "source_space: q must be positive \\(math.inf allowed\\), got nan"),
    (SYNTH, "synth", {"kind": "random_besov", "spec": [1.0, 2.0, float("nan")]},
     "synth.spec: q must be positive .*, got nan"),
])
def test_validation_types_numeric_params(tmp_path, base, key, value, message):
    doc = {**base, "params": {**base["params"], key: value}}
    path = _write(tmp_path, "exp.json", doc)
    with pytest.raises(ConfigError, match=f"params.{message}") as err:
        config_from_file(path)
    assert str(err.value).startswith(f"{path}:")
    assert cli.main([base["kind"], "--config", str(path)]) == 2


# the smallest valid config of each kind, and the params keys it knows
_MINIMAL = {
    "norms": (BASE, ["synth", "field"]),
    "nterm": (NTERM, ["synth", "field", "n_lo", "n_hi", "predicted",
                      "source_space"]),
    "embed-check": (EMBED, ["model", "taus", "k", "rho", "s", "p"]),
    "bem-solve": (BEM, ["rhs", "k", "rho", "s"]),
    "whitney": (WHITNEY, ["k", "count", "edge", "corner", "funcs"]),
    "synth": (SYNTH, ["synth"]),
}
_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text()
_JSON = _SCALARS | st.recursive(
    _SCALARS, lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4), max_leaves=12)


@settings(max_examples=300)
@given(kind=st.sampled_from(sorted(_MINIMAL)), data=st.data(), value=_JSON)
def test_config_fuzz_raises_only_config_errors(kind, data, value):
    doc, keys = _MINIMAL[kind]
    key = data.draw(st.sampled_from(keys) | st.text(max_size=6))
    try:
        config_from_dict({**doc, "params": {**doc["params"], key: value}})
    except ConfigError:
        pass


def _is_int(value, minimum) -> bool:
    return type(value) is int and value >= minimum


# what a config keeps of each top-level key that validation accepts
_KEPT = {
    "surface": lambda v: isinstance(v, str) and v != "",
    "basis": lambda v: isinstance(v, tuple) and len(v) == 2
    and all(_is_int(x, 0) for x in v),
    "J": lambda v: v is None or _is_int(v, 0),
    "L": lambda v: v is None or _is_int(v, 1),
    "spaces": lambda v: isinstance(v, tuple) and all(
        isinstance(s, tuple) and len(s) == 3
        and all(type(x) is float for x in s) for s in v),
    "seed": lambda v: _is_int(v, 0),
    "workers": lambda v: _is_int(v, 1),
    "output_dir": lambda v: isinstance(v, str) and v != "",
}


@settings(max_examples=400)
@given(key=st.sampled_from(sorted(_KEPT)), value=_JSON)
def test_top_level_keys_keep_a_value_of_their_type(key, value):
    # output_dir was str()-ed, so null, 5 and "" all passed
    assert set(_KEPT) == set(cli._COMMON)
    try:
        config = config_from_dict({**WHITNEY, key: value})
    except ConfigError:
        return
    assert _KEPT[key](getattr(config, key)), getattr(config, key)


# well-typed values of every param: valid ones, and ones that only a
# cross-field check or the run itself can reject
_RUN_POOL = {
    "synth": [{"kind": "random_besov", "spec": [1.0, 2.0, 2.0]},
              {"kind": "lacunary", "alpha": 1.0},
              {"kind": "suffix_saturator", "gamma": 1.0,
               "spec": [0.5, 2.0, 2.0]},
              {"kind": "extremal_a_star", "alpha": 1.0, "level": 1}],
    "field": ["missing.npz"],
    "n_lo": [1, 16, 64], "n_hi": [8, 16, 1 << 14],
    "predicted": [0.5, -1.0, 0.0],
    "source_space": [[1.0, 2.0, 2.0], [0.5, 1.0, 1.0], [-1.0, 2.0, 2.0]],
    "model": [{"kind": "vertex", "beta": 0.6},
              {"kind": "vertex", "beta": -0.3, "vertex": 7},
              {"kind": "vertex", "beta": 0.6, "vertex": 8},
              {"kind": "edge", "beta": 0.6},
              {"kind": "edge", "beta": 0.6, "v0": 0, "v1": 6},
              {"kind": "constant", "value": 2.0}],
    "taus": [[1.6], [0.9], [1.2, 1.9]],
    "k": [1, 2], "rho": [0.0, 0.5, 0.9, 1.5, 2.0, 3.0],
    "s": [0.0, 0.25, 0.75, 1.0, 1.5], "p": [1.0, 2.0, 4.0],
    "rhs": [["constant"], ["harmonic:linear", "2"],
            ["harmonic:pole", "2", "2", "2"],
            ["harmonic:pole", "0.5", "0.5", "0.5"]],
    "count": [1, 3, 6], "edge": [0.25, 1.0, 0.0, -1.0],
    "corner": [[0.3, 0.4], [-1.0, 5.0]],
    "funcs": [["exp"], ["rational", "sinxy"]],
}


@settings(max_examples=50)
@given(kind=st.sampled_from(sorted(_MINIMAL)), data=st.data())
def test_run_fuzz_exits_with_a_status(tmp_path_factory, kind, data):
    """Runs of well-typed configs either work or fail with the package's
    own error, exit status 0, 1 or 2, and never raise."""
    doc, keys = _MINIMAL[kind]
    doc = {**doc, "J": data.draw(st.integers(0, 2))} if "J" in doc else doc
    if kind == "bem-solve":
        doc = {**doc, "L": 1}
    params = dict(doc["params"])
    for key in data.draw(st.lists(st.sampled_from(keys), min_size=1,
                                  max_size=2, unique=True)):
        params[key] = data.draw(st.sampled_from(_RUN_POOL[key]))
    out = tmp_path_factory.mktemp("run")
    path = _write(out, "run.json", {**doc, "params": params})
    argv = [kind, "--config", str(path), "--output-dir", str(out)]
    assert cli.main(argv) in (0, 1, 2)


@pytest.mark.parametrize("synth, missing", [
    ({"kind": "random_besov"}, "spec"),
    ({"kind": "suffix_saturator", "gamma": 1.0}, "spec"),
    ({"kind": "lacunary"}, "alpha"),
    ({"kind": "extremal_a_star", "alpha": 1.0}, "level"),
])
def test_validation_requires_synth_parameters(synth, missing):
    with pytest.raises(ConfigError, match=f"needs '{missing}'"):
        config_from_dict({**BASE, "params": {"synth": synth}})


def test_validation_requires_a_field_source():
    with pytest.raises(ConfigError, match="params.synth or params.field"):
        config_from_dict({**BASE, "params": {}})


@pytest.mark.parametrize("base, value, message", [
    (SYNTH, {"kind": "lacunary", "alpha": 1.0, "gamma": 3.0},
     "synth.gamma: not a synth field of kind 'lacunary' (allowed: ['alpha'])"),
    (SYNTH, {"kind": "extremal_a_star", "alpha": 1.0, "level": 1, "seed": 2},
     "synth.seed: not a synth field of kind 'extremal_a_star'"),
    (EMBED, {"kind": "vertex", "beta": 0.6, "v0": 3},
     "model.v0: not a model field of kind 'vertex' (allowed: ['beta', 'vertex'])"),
    (EMBED, {"beta": 0.6, "v1": 2}, "model.v1: not a model field of kind 'vertex'"),
    (EMBED, {"kind": "constant", "beta": 0.6},
     "model.beta: not a model field of kind 'constant' (allowed: ['value'])"),
], ids=["lacunary-gamma", "extremal-seed", "vertex-v0", "default-kind-v1",
        "constant-beta"])
def test_an_object_takes_only_its_kinds_fields(tmp_path, base, value, message):
    # each was ignored, and the run exited 0
    key = next(iter(base["params"]))
    path = _write(tmp_path, "exp.json", {**base, "params": {key: value}})
    field = message.split(":")[0].split(".")[1]
    line = next(i for i, ln in enumerate(path.read_text().splitlines(), 1)
                if f'"{field}"' in ln)
    with pytest.raises(ConfigError) as err:
        config_from_file(path)
    assert str(err.value).startswith(f"{path}:{line}: params.{message}")


def test_model_flags_take_only_the_models_fields(tmp_path, capsys):
    # --v0 belongs to an edge model; --beta's default goes only to a model
    # that takes beta, so a constant model still runs from flags
    argv = ["embed-check", "-J", "2", "--space", "1,2,2", "--tau", "1.6"]
    assert cli.main([*argv, "--model", "vertex", "--beta", "0.6", "--v0", "3",
                     "--output-dir", str(tmp_path / "v")]) == 2
    assert ("params.model.v0: not a model field of kind 'vertex'"
            in capsys.readouterr().err)
    assert cli.main([*argv, "--model", "constant",
                     "--output-dir", str(tmp_path / "c")]) == 0
    manifest = json.loads((tmp_path / "c" / "manifest.json").read_text())
    assert manifest["config"]["params"]["model"] == {"kind": "constant"}
    assert cli.main([*argv, "--model", "constant", "--beta", "0.6",
                     "--output-dir", str(tmp_path / "cb")]) == 2


@pytest.mark.parametrize("argv, flag", [
    (["embed-check", "--v0", "3"], "--v0"),
    (["norms", "--field", "f.npz", "--alpha", "2"], "--alpha"),
    (["nterm", "--synth-spec", "1,2,2", "--field", "f.npz"], "--synth-spec"),
], ids=["v0-alone", "alpha-with-field", "synth-spec-with-field"])
def test_a_member_flag_needs_its_objects_flag(tmp_path, capsys, argv, flag):
    # a member flag without its object flag was dropped, and the run exited 0
    status = cli.main([*argv, "--space", "1,2,2", "--output-dir", str(tmp_path)])
    assert status == 2
    assert f"error: command line: {flag}:" in capsys.readouterr().err
    assert not (tmp_path / "manifest.json").exists()


def test_model_vertex_outside_the_surface(tmp_path):
    # validation cannot see the surface, so this used to reach the model and
    # end in a raw IndexError (index 99 out of bounds for size 8)
    doc = {"kind": "embed-check", "surface": "cube", "J": 3,
           "params": {"model": {"kind": "vertex", "vertex": 99, "beta": 0.6}}}
    path = _write(tmp_path, "model.json", doc)
    line = next(i for i, ln in enumerate(path.read_text().splitlines(), 1)
                if '"vertex": 99' in ln)
    config = dataclasses.replace(config_from_file(path),
                                 output_dir=str(tmp_path / "out"))
    with pytest.raises(ConfigError) as err:
        cli.run(config)
    assert str(err.value).startswith(
        f"{path}:{line}: params.model.vertex: vertex 99 does not exist")
    doc["params"]["model"] = {"kind": "edge", "v0": 8, "beta": 0.6}
    config = dataclasses.replace(config_from_dict(doc),
                                 output_dir=str(tmp_path / "out"))
    with pytest.raises(ConfigError, match="params.model.v0: vertex 8"):
        cli.run(config)
    doc["params"]["model"] = {"kind": "edge", "v0": 3, "v1": 3, "beta": 0.6}
    config = dataclasses.replace(config_from_dict(doc),
                                 output_dir=str(tmp_path / "out"))
    with pytest.raises(ConfigError, match="params.model.v1: v1 must differ"):
        cli.run(config)


@pytest.mark.parametrize("doc, where, message", [
    ({**BEM, "surface": "absent.json"}, "surface", "cannot read"),
    ({**BASE, "params": {"field": "absent.npz"}}, "params.field",
     "cannot read"),
    ({**BEM, "params": {"rhs": ["file", "absent.txt"]}}, "params.rhs",
     "cannot read"),
    ({**BEM, "params": {"rhs": ["file", "rhs95.txt"]}}, "params.rhs",
     "'rhs95.txt' holds 95 values for 96 cells"),
    # these wrote the reports to ./None, ./5 and the working directory
    ({**WHITNEY, "output_dir": None}, "output_dir",
     "expected a non-empty path, got None"),
    ({**WHITNEY, "output_dir": 5}, "output_dir",
     "expected a non-empty path, got 5"),
    ({**WHITNEY, "output_dir": ""}, "output_dir",
     "expected a non-empty path, got ''"),
])
def test_missing_inputs_fail_cleanly(tmp_path, monkeypatch, capsys, doc,
                                     where, message):
    # these used to end in a raw FileNotFoundError, or in solve()
    monkeypatch.chdir(tmp_path)
    Path("rhs95.txt").write_text("1.0\n" * 95, encoding="utf-8")
    path = _write(tmp_path, "exp.json", doc)
    line = next(i for i, ln in enumerate(path.read_text().splitlines(), 1)
                if f'"{where.split(".")[-1]}"' in ln)
    assert cli.main([doc["kind"], "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:{line}: {where}: {message}")


@pytest.mark.parametrize("vertex, message", [
    ([1.0, 1.0, 1.5], "patch 1: non-planar quadrilateral"),
    ([1.0, 1.0], "vertices must be an (N, 3) array of numbers"),
])
def test_bad_surface_file_is_a_config_error(tmp_path, capsys, vertex, message):
    # a SurfaceError used to end in a traceback with exit status 1
    desc = unit_cube()
    desc["vertices"][6] = vertex
    surface = _write(tmp_path, "bad.json", desc)
    path = _write(tmp_path, "exp.json", {**BASE, "surface": str(surface)})
    line = next(i for i, ln in enumerate(path.read_text().splitlines(), 1)
                if '"surface"' in ln)
    assert cli.main(["norms", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: {path}:{line}: surface: {message}")
    argv = ["norms", "--surface", str(surface), "-J", "2", "--space", "1,2,2",
            "--synth", "random_besov", "--synth-spec", "1,2,2",
            "--output-dir", str(tmp_path)]
    assert cli.main(argv) == 2
    assert f"surface: {message}" in capsys.readouterr().err


def test_deeply_nested_json_is_a_config_error(tmp_path, capsys):
    # json.loads raises RecursionError here, which used to end in a traceback
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000, encoding="utf-8")
    assert cli.main(["norms", "--config", str(deep)]) == 2
    assert capsys.readouterr().err == (f"error: {deep}: invalid JSON: "
                                       "nested too deeply\n")
    path = _write(tmp_path, "exp.json", {**BASE, "surface": str(deep)})
    line = next(i for i, ln in enumerate(path.read_text().splitlines(), 1)
                if '"surface"' in ln)
    assert cli.main(["norms", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: {path}:{line}: surface: surface file is not valid JSON: "
        "nested too deeply")


@pytest.mark.parametrize("write", [
    lambda path: np.savez(path, coarse=np.zeros((6, 1, 1, 1, 1))),
    lambda path: path.write_text("not an archive\n", encoding="utf-8"),
], ids=["npz-without-header", "text-file"])
def test_a_file_that_is_not_a_saved_field_is_a_config_error(tmp_path, capsys,
                                                            write):
    # these used to end in a raw KeyError or numpy's pickle message, exit 1
    bad = tmp_path / "bad.npz"
    write(bad)
    argv = ["norms", "--field", str(bad), "--space", "1,2,2",
            "--output-dir", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    assert (f"params.field: cannot read: {bad}: not a saved coefficient field"
            in capsys.readouterr().err)


def test_main_reports_errors_and_exit_code(tmp_path, capsys):
    doc = dict(BASE)
    doc["spaces"] = [[0.5, 1.0, 2.0]]
    path = _write(tmp_path, "bad.json", doc)
    code = cli.main(["norms", "--config", str(path)])
    assert code == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert "bad.json" in captured.err


def _run(tmp_path, doc):
    out = tmp_path / "out"
    doc = {**doc, "output_dir": str(out)}
    config = config_from_dict(doc)
    assert cli.run(config) == 0
    return out


def test_norms_run_and_admissible_reparse(tmp_path):
    out = _run(tmp_path, BASE)
    lines = (out / "norms.csv").read_text().splitlines()
    assert lines[0] == "# schema: 1.0.0"
    assert lines[1] == "# kind: norms"
    assert lines[2].startswith("# config: ")
    assert lines[3].startswith("# tolerances: ")
    header = lines[4].split(",")
    assert header[:3] == ["alpha", "p", "q"]
    from patchwave import BesovSpec

    for row in lines[5:]:
        alpha, p, q, *_ = (float(v) for v in row.split(","))
        BesovSpec(alpha, p, q)      # builds only inside the admissible window
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["schema"] == "1.0.0"
    assert manifest["artifacts"] == ["norms.csv"]
    assert "time" not in json.dumps(manifest).lower()


def test_nterm_run(tmp_path):
    doc = {
        "kind": "nterm",
        "basis": "haar",
        "J": 6,
        "spaces": [[1.0, 2.0, 2.0]],
        "params": {"synth": {"kind": "suffix_saturator", "gamma": 1.0,
                             "spec": [1.0, 2.0, 2.0]},
                   "n_hi": 1024, "predicted": 0.5},
    }
    out = _run(tmp_path, doc)
    rate = (out / "rate.csv").read_text().splitlines()
    row = dict(zip(rate[4].split(","), rate[5].split(",")))
    assert row["verdict"] in ("consistent", "inconsistent")
    assert float(row["decay"]) > 0.3


def test_weighted_order_flag_fails_before_the_solve(capsys):
    assert cli.main(["bem-solve", "-L", "1", "-J", "1", "--k", "3"]) == 2
    assert "params.k: weighted norm order must be 1 or 2" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--tau", "0"], "params.taus[0]: tau must be a positive finite number"),
    (["--tau", "1.6", "--tau=-inf"], "params.taus[1]: tau must be a "
                                 "positive finite number"),
    (["--rho", "1"], "params.rho: without taus, rho must lie in (0, k)"),
    (["--tau", "0.9"], "params.taus[0]: 1/tau = 1.1111111111111112 outside "
                       "[1/2, 1.0)"),
])
def test_embed_check_flags_fail_before_the_analysis(capsys, flags, message):
    # these ended in a raw ZeroDivisionError or ValueError after analyze
    argv = ["embed-check", "--model", "vertex", "-J", "2", *flags]
    assert cli.main(argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["whitney", "--edge", "nan"], "params.edge: expected a finite number, "
                                   "got nan"),
    (["whitney", "--corner", "0.3", "inf"], "params.corner[1]: expected a "
                                            "finite number, got inf"),
    (["embed-check", "--model", "vertex", "--beta", "nan", "-J", "2"],
     "params.model.beta: expected a finite number, got nan"),
])
def test_non_finite_flags_fail_validation(capsys, argv, message):
    # a NaN edge used to pass validation and fail in whitney_check, exit 1
    assert cli.main(argv) == 2
    assert message in capsys.readouterr().err


def test_divergent_norm_is_a_cli_error(tmp_path, capsys):
    # rho = 0.9 lies beyond the radial threshold beta + 1 = 0.7
    argv = ["embed-check", "--model", "vertex", "--beta=-0.3", "-J", "2",
            "--rho", "0.9", "--output-dir", str(tmp_path)]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: weighted norm diverges at vertex 0, ")
    assert err.count("\n") == 1


def test_non_finite_norm_is_a_cli_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_model_from",
                        lambda model, surface, chk: _NanNearVertex0(surface))
    argv = ["embed-check", "--model", "vertex", "-J", "2",
            "--output-dir", str(tmp_path)]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: weighted norm is not finite at vertex 0, ")
    assert err.count("\n") == 1


def _fresh_python(*args, check=True):
    """Run a fresh interpreter that imports patchwave from this source tree."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, *args], env=env, check=check,
                          capture_output=True, text=True)


def test_import_loads_no_heavy_scipy():
    # scipy.stats, scipy.special and scipy.linalg cost most of a process's
    # import time; only an LU solve needs scipy.linalg, and loads it then
    code = ("import sys, patchwave.cli; print([m for m in sys.modules "
            "if m.startswith(('scipy.stats', 'scipy.special', 'scipy.linalg'))])")
    assert _fresh_python("-c", code).stdout.strip() == "[]"


def test_gmres_solve_imports_no_scipy_solver():
    # the GMRES path is the package's own; only an LU solve loads scipy.linalg
    code = ("import sys, numpy as np, patchwave as pw\n"
            "system = pw.assemble(pw.load_surface(pw.unit_cube()), 2)\n"
            "rep = pw.solve(system, lambda p: np.ones(len(p)), use_gmres=True)\n"
            "print(rep.residual < 1e-12, [m for m in sys.modules if m.startswith("
            "('scipy.sparse', 'scipy.linalg'))])")
    assert _fresh_python("-c", code).stdout.strip() == "True []"


def test_bem_solve_factors_through_the_lazy_import(tmp_path):
    out = tmp_path / "out"
    run = _fresh_python("-m", "patchwave.cli", "bem-solve", "-L", "2",
                        "--output-dir", str(out), check=False)
    assert run.returncode == 0, run.stderr
    report = (out / "report.csv").read_text().splitlines()
    rep = dict(zip(report[4].split(","), report[5].split(",")))
    assert float(rep["residual"]) < 1e-10


@pytest.mark.parametrize("s", [0.0, 1.0, -0.5])
def test_bem_solve_rejects_s_before_the_solve(tmp_path, capsys, s):
    # analyze_solution rejected these only after the assembly and the solve
    out = tmp_path / "out"
    path = _write(tmp_path, "exp.json", {**BEM, "output_dir": str(out),
                                         "params": {**BEM["params"], "s": s}})
    with pytest.raises(ConfigError, match="params.s: with J, s must lie in "
                                          "\\(0, 1\\)"):
        config_from_file(path)
    assert cli.main(["bem-solve", "--config", str(path)]) == 2
    assert "params.s" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_nterm_needs_four_positive_errors(tmp_path):
    doc = {"kind": "nterm", "J": 4, "spaces": [[1.0, 2.0, 2.0]],
           "output_dir": str(tmp_path / "out"),
           "params": {"synth": {"kind": "random_besov",
                                "spec": [1.0, 2.0, 2.0]},
                      "n_lo": 16, "n_hi": 100}}
    path = _write(tmp_path, "exp.json", doc)
    with pytest.raises(ConfigError, match="params.n_lo: 3 positive errors "
                                          "at n = \\[16, 32, 64\\]") as err:
        cli.run(config_from_file(path))
    assert str(err.value).startswith(f"{path}:")
    assert cli.main(["nterm", "--config", str(path)]) == 2


def test_bem_solve_constant_density_near_one(tmp_path):
    doc = {"kind": "bem-solve", "surface": "cube", "L": 3,
           "params": {"rhs": ["constant"]}}
    out = _run(tmp_path, doc)
    rows = [ln.split(",") for ln in
            (out / "density.csv").read_text().splitlines()[5:]]
    values = np.array([float(r[-1]) for r in rows])
    assert len(values) == 6 * 64
    assert np.abs(values - 1.0).max() < 5e-2
    report = (out / "report.csv").read_text().splitlines()
    rep = dict(zip(report[4].split(","), report[5].split(",")))
    assert float(rep["residual"]) < 1e-10


def test_synth_writes_loadable_field(tmp_path):
    doc = {"kind": "synth", "basis": "haar", "J": 3,
           "params": {"synth": {"kind": "lacunary", "alpha": 1.0}}}
    out = _run(tmp_path, doc)
    from patchwave import load_field, load_surface, unit_cube

    field = load_field(out / "field.npz", load_surface(unit_cube()))
    assert field.J == 3
    table = (out / "synth.csv").read_text().splitlines()
    assert table[4].split(",") == ["level", "count", "l2"]


def test_whitney_run(tmp_path):
    doc = {"kind": "whitney",
           "params": {"k": 2, "count": 3, "funcs": ["exp"]}}
    out = _run(tmp_path, doc)
    lines = (out / "whitney.csv").read_text().splitlines()
    assert len(lines) == 5 + 3


def test_embed_check_table(tmp_path):
    doc = {"kind": "embed-check",
           "spaces": [[2.0, 1.0, 1.0], [1.0, 2.0, 2.0]]}
    out = _run(tmp_path, doc)
    lines = (out / "embeddings.csv").read_text().splitlines()
    rows = [ln.split(",") for ln in lines[5:]]
    assert len(rows) == 2
    table = {(r[0], r[3]): r[6] for r in rows}
    assert table[("2.0", "1.0")] == "1"
    assert table[("1.0", "2.0")] == "0"


def test_rerun_is_byte_identical(tmp_path):
    doc = {**BASE, "seed": 5}
    out1 = _run(tmp_path / "a", doc)
    out2 = _run(tmp_path / "b", doc)
    assert filecmp.cmp(out1 / "norms.csv", out2 / "norms.csv", shallow=False)
    assert filecmp.cmp(out1 / "manifest.json", out2 / "manifest.json",
                       shallow=False)


def test_worker_count_does_not_change_bytes(tmp_path, monkeypatch):
    # the weighted norm, embed-check's slowest step, runs on the workers too
    workers_seen, norm = [], cli.weighted_sobolev_norm

    def recorded(*args, workers=1, **kwargs):
        workers_seen.append(workers)
        return norm(*args, workers=workers, **kwargs)

    monkeypatch.setattr(cli, "weighted_sobolev_norm", recorded)
    runs = [({"kind": "bem-solve", "surface": "cube", "L": 2, "J": 2,
              "params": {"rhs": ["harmonic:pole", "2.5", "1.7", "3.1"]}},
             ("density.csv", "report.csv")),
            ({"kind": "embed-check", "surface": "cube", "J": 3,
              "spaces": [[1.0, 2.0, 2.0]],
              "params": {"model": {"kind": "vertex", "beta": 0.6},
                         "taus": [1.6]}},
             ("embeddings.csv", "tails.csv"))]
    for doc, files in runs:
        out1 = _run(tmp_path / doc["kind"] / "w1", {**doc, "workers": 1})
        out4 = _run(tmp_path / doc["kind"] / "w4", {**doc, "workers": 4})
        for name in (*files, "manifest.json"):
            assert filecmp.cmp(out1 / name, out4 / name, shallow=False)
    assert workers_seen == [1, 4]


def test_cli_main_end_to_end(tmp_path):
    out = tmp_path / "cli_out"
    code = cli.main([
        "synth", "--synth", "lacunary", "--alpha", "1.0", "-J", "2",
        "--output-dir", str(out)])
    assert code == 0
    assert (out / "field.npz").exists()
    assert (out / "manifest.json").exists()


# each kind's flags at small sizes, and the config file that spells them out
_FLAG_RUNS = {
    "norms": (["--synth", "random_besov", "--synth-spec", "1,2,2", "-J", "3",
               "--space", "1,2,2", "--seed", "4"],
              {"J": 3, "seed": 4, "spaces": [[1.0, 2.0, 2.0]],
               "params": {"synth": {"kind": "random_besov",
                                    "spec": [1.0, 2.0, 2.0]}}}),
    "nterm": (["--synth", "suffix_saturator", "--gamma", "1", "--synth-spec",
               "0,2,2", "-J", "5", "--space", "0,2,2", "--n-hi", "256",
               "--predicted", "0.5"],
              {"J": 5, "spaces": [[0.0, 2.0, 2.0]],
               "params": {"synth": {"kind": "suffix_saturator", "gamma": 1.0,
                                    "spec": [0.0, 2.0, 2.0]},
                          "n_hi": 256, "predicted": 0.5}}),
    "embed-check": (["--model", "edge", "--v1", "2", "-J", "2", "--tau", "1.6",
                     "--rho", "0.4", "--space", "1,2,2", "--space", "1.5,1,1"],
                    {"J": 2, "spaces": [[1.0, 2.0, 2.0], [1.5, 1.0, 1.0]],
                     "params": {"model": {"kind": "edge", "beta": 0.6,
                                          "v1": 2},
                                "taus": [1.6], "rho": 0.4}}),
    "bem-solve": (["-L", "2", "-J", "2", "--rhs", "harmonic:linear", "1"],
                  {"L": 2, "J": 2,
                   "params": {"rhs": ["harmonic:linear", "1"]}}),
    "whitney": (["--count", "2", "--func", "exp"],
                {"params": {"count": 2, "funcs": ["exp"]}}),
    "synth": (["--synth", "lacunary", "--alpha", "1.0", "-J", "3"],
              {"J": 3, "params": {"synth": {"kind": "lacunary",
                                            "alpha": 1.0}}}),
}

# every parameter each subcommand's --help must list, with its default
_HELP_DEFAULTS = {
    "norms": {"synth": None, "field": None},
    "nterm": {"synth": None, "field": None, "n_lo": "16", "n_hi": "16384",
              "predicted": None, "source_space": None},
    "embed-check": {"model": None, "taus": None, "k": "1", "rho": "0.5",
                    "s": "0.75", "p": "2.0"},
    "bem-solve": {"rhs": '["constant"]', "k": "1", "rho": "0.5", "s": "0.75"},
    "whitney": {"k": "2", "count": "6", "edge": "0.25", "corner": "[0.3, 0.4]",
                "funcs": '["exp", "rational", "sinxy"]'},
    "synth": {"synth": None},
}


@pytest.mark.parametrize("kind", sorted(_FLAG_RUNS))
def test_flags_and_config_write_the_same_bytes(tmp_path, capsys, kind):
    # flag runs used to record the flags' defaults (whitney: corner, edge, k)
    # that the equivalent config file leaves out, so their hashes differed
    flags, doc = _FLAG_RUNS[kind]
    path = _write(tmp_path, "exp.json", {"kind": kind, **doc})
    a, b = tmp_path / "flags", tmp_path / "config"
    assert cli.main([kind, *flags, "--output-dir", str(a)]) == 0
    assert cli.main([kind, "--config", str(path), "--output-dir", str(b)]) == 0
    manifest = json.loads((a / "manifest.json").read_text())
    names = [n for n in manifest["artifacts"] if n.endswith(".csv")]
    for name in names + ["manifest.json"]:
        assert filecmp.cmp(a / name, b / name, shallow=False), name

    with pytest.raises(SystemExit):
        cli.main([kind, "--help"])
    text = " ".join(capsys.readouterr().out.split())
    entries = {e.split(":")[0]: e for e in text.split("params.")[1:]}
    assert set(entries) == set(_HELP_DEFAULTS[kind])
    for key, default in _HELP_DEFAULTS[kind].items():
        if default is not None:
            assert f"default {default}" in entries[key], key


def test_output_dir_flag_overrides_the_config(tmp_path, monkeypatch, capsys):
    # the flag used to count only when it differed from "reports", and an
    # empty one wrote the reports into the working directory
    monkeypatch.chdir(tmp_path)
    path = _write(tmp_path, "exp.json", {"kind": "whitney", "output_dir": "cfg",
                                         "params": {"count": 1}})
    argv = ["whitney", "--config", str(path), "--output-dir"]
    assert cli.main([*argv, "reports"]) == 0
    assert (tmp_path / "reports" / "manifest.json").exists()
    assert not (tmp_path / "cfg").exists()
    assert cli.main([*argv, ""]) == 2
    assert capsys.readouterr().err == ("error: command line: --output-dir: "
                                       "expected a non-empty path, got ''\n")
    assert cli.main(["whitney", "--count", "1", "--output-dir", ""]) == 2
    assert "output_dir: expected a non-empty path" in capsys.readouterr().err
    assert not (tmp_path / "manifest.json").exists()
    assert not (tmp_path / "cfg").exists()


def test_defaults_given_or_not_write_the_same_bytes(tmp_path, monkeypatch):
    # a flag run with no top-level flag, a config file with no top-level
    # key, and one that spells out every default, each in its own directory
    spelled = {"surface": "cube", "basis": "haar", "J": None, "L": None,
               "spaces": [], "seed": 0, "workers": 1, "output_dir": "reports"}
    doc = {"kind": "whitney", "params": {"count": 2}}
    runs = {"flags": None, "bare": doc, "spelled": {**doc, **spelled}}
    for name, run_doc in runs.items():
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        argv = ["--count", "2"] if run_doc is None else \
            ["--config", str(_write(tmp_path / name, "exp.json", run_doc))]
        assert cli.main(["whitney", *argv]) == 0
    a, b, c = (tmp_path / name / "reports" for name in runs)
    assert json.loads((a / "manifest.json").read_text())["config_hash"] == \
        config_hash(config_from_dict(doc))
    for name in ("whitney.csv", "manifest.json"):
        assert filecmp.cmp(a / name, b / name, shallow=False), name
        assert filecmp.cmp(a / name, c / name, shallow=False), name


def test_an_empty_config_path_fails_validation(tmp_path, monkeypatch, capsys):
    # `if not args.config` took "" for "no config" and ran the flags instead
    monkeypatch.chdir(tmp_path)
    assert cli.main(["whitney", "--config", "", "--count", "1"]) == 2
    assert capsys.readouterr().err == ("error: command line: --config: "
                                       "expected a non-empty path, got ''\n")
    assert not (tmp_path / "reports").exists()
