import dataclasses
import filecmp
import json
from pathlib import Path

import numpy as np
import pytest

from patchwave import cli
from patchwave.cli import (
    ConfigError,
    ExperimentConfig,
    canonical_config,
    config_from_dict,
    config_from_file,
    config_hash,
    report_schema_version,
)


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


def test_schema_version():
    assert report_schema_version() == "1.0.0"


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


EMBED = {"kind": "embed-check", "basis": "haar", "J": 3,
         "params": {"model": {"kind": "vertex", "beta": 0.6}}}
BEM = {"kind": "bem-solve", "L": 2, "J": 2, "params": {"rhs": ["constant"]}}


WHITNEY = {"kind": "whitney", "params": {}}


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
])
def test_validation_types_numeric_params(tmp_path, base, key, value, message):
    doc = {**base, "params": {**base["params"], key: value}}
    path = _write(tmp_path, "exp.json", doc)
    with pytest.raises(ConfigError, match=f"params.{message}") as err:
        config_from_file(path)
    assert str(err.value).startswith(f"{path}:")
    assert cli.main([base["kind"], "--config", str(path)]) == 2


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
    from patchwave import BesovSpec, admissible

    for row in lines[5:]:
        alpha, p, q, *_ = (float(v) for v in row.split(","))
        assert admissible(BesovSpec(alpha, p, q))
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


def test_worker_count_does_not_change_bytes(tmp_path):
    doc = {"kind": "bem-solve", "surface": "cube", "L": 2, "J": 2,
           "params": {"rhs": ["harmonic:pole", "2.5", "1.7", "3.1"]}}
    out1 = _run(tmp_path / "w1", {**doc, "workers": 1})
    out4 = _run(tmp_path / "w4", {**doc, "workers": 4})
    for name in ("density.csv", "report.csv", "manifest.json"):
        assert filecmp.cmp(out1 / name, out4 / name, shallow=False)


def test_cli_main_end_to_end(tmp_path):
    out = tmp_path / "cli_out"
    code = cli.main([
        "synth", "--synth", "lacunary", "--alpha", "1.0", "-J", "2",
        "--output-dir", str(out)])
    assert code == 0
    assert (out / "field.npz").exists()
    assert (out / "manifest.json").exists()
