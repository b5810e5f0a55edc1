import csv
import hashlib
import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import sparsedrift
from conftest import ou_oracle_lhs
from sparsedrift import estimate, experiments, simulate
from sparsedrift.cli import main
from sparsedrift.config import DEFAULTS, KINDS, SCHEMA, apply_overrides, validate_config
from sparsedrift.errors import ConfigError
from sparsedrift.simulate import trajectory_from_binary, trajectory_from_csv


def _write_cfg(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


_TINY_SR = {
    "model": {"family": "cosine", "d": 2, "p": 4, "sparsity_fraction": 0.5},
    "sampling": {"T": 2.0, "delta_n": 0.05, "substeps": 2},
    "estimation": {"lambda_grid": {"num": 6, "ratio": 0.05}, "cv_folds": 3},
    "replications": 2,
    "seed": 9,
}


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------


def test_unknown_key_rejected(tmp_path, capsys):
    cfg = dict(_TINY_SR)
    cfg["weird_key"] = 1
    code = main(["support-recovery", "--config", _write_cfg(tmp_path, "c.json", cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "weird_key" in capsys.readouterr().err


def test_schema_error_reports_field_path(tmp_path, capsys):
    cfg = json.loads(json.dumps(_TINY_SR))
    cfg["model"]["d"] = 0
    code = main(["support-recovery", "--config", _write_cfg(tmp_path, "c.json", cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "model.d" in capsys.readouterr().err


def test_missing_required_block(tmp_path, capsys):
    cfg = {"model": {"family": "cosine", "d": 2, "p": 3}, "seed": 1}
    code = main(["support-recovery", "--config", _write_cfg(tmp_path, "c.json", cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "sampling" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["config-is-a-directory", "trajectory-is-a-directory", "config-not-utf-8"])
def test_unreadable_input_exit_2_names_the_file(tmp_path, capsys, case):
    folder = tmp_path / "folder"
    folder.mkdir()
    if case == "config-is-a-directory":
        argv, named = ["--config", str(folder)], folder
    elif case == "trajectory-is-a-directory":
        argv, named = ["--config", _write_cfg(tmp_path, "c.json", _OU_EST), "--trajectory", str(folder)], folder
    else:
        named = tmp_path / "latin-1.json"
        named.write_bytes('{"seed": 1, "output_dir": "caf\u00e9"}'.encode("latin-1"))
        argv = ["--config", str(named)]
    code = main(["estimate", *argv, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2 and str(named) in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_validate_config_semantics():
    with pytest.raises(ConfigError):
        validate_config({"experiment": "dimension-sweep", "seed": 0,
                         "model": {"family": "cosine", "d": 2, "p": 3},
                         "sampling": {"T": 1.0, "delta_n": 0.1}})
    with pytest.raises(ConfigError):
        validate_config({"experiment": "simulate", "seed": 0,
                         "model": {"family": "ou-linear", "d": 2},
                         "sampling": {"T": 1.0, "delta_n": 0.1}})


def test_set_override_applied(tmp_path):
    out = tmp_path / "o"
    code = main([
        "simulate", "--config", _write_cfg(tmp_path, "c.json", {
            "model": {"family": "ou-linear", "d": 2, "A0_diag": [1.0, 2.0]},
            "sampling": {"T": 1.0, "delta_n": 0.1},
            "seed": 1,
        }),
        "--set", "sampling.T=2.0", "--set", "model.A0_diag=[1.0,3.0]",
        "--out", str(out),
    ])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["sampling"]["T"] == 2.0
    assert manifest["config"]["model"]["A0_diag"] == [1.0, 3.0]


def test_apply_overrides_parses_json_values():
    cfg = apply_overrides({"a": {"b": 1}}, ["a.b=2.5", "a.c=true", "a.d=text"])
    assert cfg["a"] == {"b": 2.5, "c": True, "d": "text"}


def _schema_properties(schema: dict) -> dict:
    """The ``properties`` of an object schema, or of the object branch of a ``oneOf``."""
    if "properties" in schema:
        return schema["properties"]
    return next(branch["properties"] for branch in schema["oneOf"] if "properties" in branch)


def _settable_keys(node) -> int:
    """Keys of every ``properties`` map whose schema is not itself a block (one with ``properties``)."""
    if isinstance(node, list):
        return sum(_settable_keys(item) for item in node)
    if not isinstance(node, dict):
        return 0
    own = sum("properties" not in sub for sub in node.get("properties", {}).values())
    return own + sum(_settable_keys(value) for value in node.values())


def test_every_default_is_a_schema_property():
    def walk(defaults: dict, schema: dict, prefix: str) -> None:
        props = _schema_properties(schema)
        for key, value in defaults.items():
            assert key in props, f"default {prefix}{key} is not in the schema"
            if isinstance(value, dict):
                walk(value, props[key], f"{prefix}{key}.")

    walk(DEFAULTS, SCHEMA, "")


def test_schema_has_46_settable_keys():
    assert _settable_keys(SCHEMA) == 46


# keys whose values are fixed (README, "Fixed values"), each shown with its value
_FIXED_KEYS = [
    ("sampling.burn_in_fraction", 0.1),
    ("sampling.x0", 0.0),
    ("sampling.stationary_init", True),
    ("estimation.solver.tol", 1e-9),
    ("estimation.solver.snap", 1e-12),
    ("estimation.solver.max_sweeps", 10000),
    ("estimation.mle_threshold", 0.5),
    ("audit.concentration_linear.clip", 10.0),
    ("audit.concentration_linear.substeps", 1),
    ("audit.concentration_linear.burn_in", 40),
    ("audit.concentration_ou.n_directions", 16),
]


_VERIFY_MATRICES = {
    "model": {"family": "ou-linear", "d": 2, "A0": [[1.0, 0.0], [0.0, 2.0]]},
    "sampling": {"T": 1.0, "delta_n": 0.1},
    "audit": {
        "concentration_linear": {
            "A0": [[1.0, 0.0], [0.0, 1.0]], "n": 400, "delta_n": 0.02, "r_grid": [0.5], "reps": 2,
        },
        "concentration_ou": {"A0": [[1.0, 0.0], [0.0, 2.0]], "n": 50, "delta_n": 0.1, "x_grid": [0.5], "reps": 100},
    },
    "seed": 1,
}


def _verify_config_error(tmp_path, capsys, cfg, field):
    code = main(["verify", "--config", _write_cfg(tmp_path, "c.json", cfg), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert f"config error: {field}:" in err and "Traceback" not in err
    assert not list((tmp_path / "o").glob("*.csv"))  # rejected before any part of the run


@pytest.mark.parametrize("value", [[[1.0, 0.0], [2.0]], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]], ids=["ragged", "2x3"])
@pytest.mark.parametrize("field", ["model.A0", "audit.concentration_linear.A0", "audit.concentration_ou.A0"])
def test_ragged_or_non_square_matrix_exit_2_names_its_path(tmp_path, capsys, field, value):
    cfg = apply_overrides(_VERIFY_MATRICES, [f"{field}={json.dumps(value)}"])
    _verify_config_error(tmp_path, capsys, cfg, field)


def test_concentration_linear_matrix_without_positive_definite_symmetric_part_exit_2(tmp_path, capsys):
    # stable (both eigenvalues 1), but the symmetric part has eigenvalue -0.25
    cfg = apply_overrides(_VERIFY_MATRICES, ["audit.concentration_linear.A0=[[1.0, 2.5], [0.0, 1.0]]"])
    _verify_config_error(tmp_path, capsys, cfg, "audit.concentration_linear.A0")


def test_concentration_ou_without_a_matrix_exit_2(tmp_path, capsys):
    cfg = json.loads(json.dumps(_VERIFY_MATRICES))
    del cfg["audit"]["concentration_ou"]["A0"]
    _verify_config_error(tmp_path, capsys, cfg, "audit.concentration_ou.A0")


@pytest.mark.parametrize("given_by", ["config", "set"])
@pytest.mark.parametrize("key, value", _FIXED_KEYS, ids=[key for key, _ in _FIXED_KEYS])
def test_fixed_key_exit_2_names_its_path(tmp_path, capsys, key, value, given_by):
    cfg = {
        "model": {"family": "ou-linear", "d": 2, "A0_diag": [1.0, 2.0]},
        "sampling": {"T": 1.0, "delta_n": 0.1},
        "audit": {
            "concentration_linear": {
                "A0": [[1.0, 0.0], [0.0, 1.0]], "n": 400, "delta_n": 0.02, "r_grid": [0.5], "reps": 2,
            },
            "concentration_ou": {"A0_diag": [1.0, 2.0], "n": 50, "delta_n": 0.1, "x_grid": [0.5], "reps": 100},
        },
        "seed": 1,
    }
    argv = []
    if given_by == "set":
        argv = ["--set", f"{key}={json.dumps(value)}"]
    else:
        cfg = apply_overrides(cfg, [f"{key}={json.dumps(value)}"])
    code = main(["verify", "--config", _write_cfg(tmp_path, "c.json", cfg), "--out", str(tmp_path / "o"), *argv])
    err = capsys.readouterr().err
    # the schema has no estimation.solver block, so its name is the smallest unknown key
    field = "estimation.solver" if key.startswith("estimation.solver.") else key
    assert code == 2
    assert f"config error: {field}:" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


_OU_SIM = {
    "model": {"family": "ou-linear", "d": 2, "A0": [[1.0, 0.0], [0.0, 1.0]]},
    "sampling": {"T": 1.0, "delta_n": 0.05},
    "seed": 3,
}


@pytest.mark.parametrize(
    "block, key, value",
    [
        ("sampling", "delta_n", float("nan")),
        ("sampling", "T", float("inf")),
        ("model", "A0", [[float("nan"), 0.0], [0.0, 1.0]]),
    ],
    ids=["delta_n-NaN", "T-Infinity", "A0-NaN"],
)
def test_non_finite_config_literal_exit_2_names_the_file(tmp_path, capsys, block, key, value):
    cfg = json.loads(json.dumps(_OU_SIM))
    cfg[block][key] = value
    path = _write_cfg(tmp_path, "c.json", cfg)  # json.dumps writes NaN / Infinity literals
    code = main(["simulate", "--config", path, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert path in err and "non-finite" in err and "Traceback" not in err


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_set_value_exit_2_names_the_key(tmp_path, capsys, literal):
    code = main([
        "simulate", "--config", _write_cfg(tmp_path, "c.json", _OU_SIM),
        "--set", f"sampling.T={literal}", "--out", str(tmp_path / "o"),
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert "sampling.T" in err and literal in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# Single-shot subcommands
# ---------------------------------------------------------------------------


def test_simulate_roundtrip(tmp_path):
    out = tmp_path / "sim"
    cfg = {
        "model": {"family": "ou-linear", "d": 2, "A0_diag": [1.0, 2.0]},
        "sampling": {"T": 2.0, "delta_n": 0.05},
        "seed": 3,
    }
    assert main(["simulate", "--config", _write_cfg(tmp_path, "c.json", cfg), "--out", str(out)]) == 0
    csv_traj = trajectory_from_csv(str(out / "trajectory.csv"))
    bin_traj = trajectory_from_binary(str(out / "trajectory.bin"))
    assert np.array_equal(csv_traj.states, bin_traj.states)
    assert csv_traj.delta_n == bin_traj.delta_n == 0.05
    content = (out / "trajectory.csv").read_bytes()
    assert b"\r" not in content
    assert content.startswith(b"t,x_1,x_2\n")


def test_simulate_unstable_matrix_exit_3(tmp_path, capsys):
    cfg = {
        "model": {"family": "ou-linear", "d": 2, "A0_diag": [-1.0, 2.0]},
        "sampling": {"T": 1.0, "delta_n": 0.1},
        "seed": 3,
    }
    code = main(["simulate", "--config", _write_cfg(tmp_path, "c.json", cfg), "--out", str(tmp_path / "o")])
    assert code == 3
    assert "numeric failure" in capsys.readouterr().err


def test_stalled_lyapunov_solve_exit_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(simulate, "SIGN_MAX_ITER", 1)
    cfg = {
        "model": {"family": "ou-linear", "d": 2, "A0_diag": [1.0, 2.0]},
        "sampling": {"T": 1.0, "delta_n": 0.1},
        "seed": 3,
    }
    code = main(["simulate", "--config", _write_cfg(tmp_path, "c.json", cfg), "--out", str(tmp_path / "o")])
    assert code == 3
    assert "did not converge in 1 iterations" in capsys.readouterr().err


def test_estimate_from_trajectory_file(tmp_path):
    sim_out = tmp_path / "sim"
    cfg_sim = {
        "model": {"family": "ou-linear", "d": 2, "A0_diag": [1.0, 2.0]},
        "sampling": {"T": 5.0, "delta_n": 0.05},
        "seed": 4,
    }
    main(["simulate", "--config", _write_cfg(tmp_path, "s.json", cfg_sim), "--out", str(sim_out)])
    est_out = tmp_path / "est"
    cfg_est = dict(cfg_sim)
    cfg_est["estimation"] = {"lambda": 0.05}
    code = main([
        "estimate", "--config", _write_cfg(tmp_path, "e.json", cfg_est),
        "--trajectory", str(sim_out / "trajectory.csv"), "--out", str(est_out),
    ])
    assert code == 0
    rows = _read_csv(est_out / "estimate_lasso.csv")
    assert len(rows) == 4  # d^2 coefficients
    rec = json.loads((est_out / "estimate_lasso.json").read_text())
    assert rec["lambda"] == 0.05
    assert rec["converged"] is True


def _bad_trajectory_exit(tmp_path, capsys, name: str, corrupt, d: int = 2) -> str:
    """Exit code and stderr of ``estimate --trajectory`` on a corrupted copy of a simulated path."""
    cfg = {
        "model": {"family": "ou-linear", "d": 2, "A0_diag": [1.0, 2.0]},
        "sampling": {"T": 1.0, "delta_n": 0.05},
        "seed": 4,
    }
    sim_out = tmp_path / "sim"
    assert main(["simulate", "--config", _write_cfg(tmp_path, "s.json", cfg), "--out", str(sim_out)]) == 0
    path = sim_out / name
    corrupt(path)
    cfg_est = {**cfg, "model": {"family": "ou-linear", "d": d, "A0_diag": [1.0] * d}}
    cfg_est["estimation"] = {"lambda": 0.05}
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the reader warns of nothing it rejects
        code = main([
            "estimate", "--config", _write_cfg(tmp_path, "e.json", cfg_est),
            "--trajectory", str(path), "--out", str(tmp_path / "est"),
        ])
    assert code == 2
    err = capsys.readouterr().err
    assert str(path) in err and "Traceback" not in err
    return err


def _keep_lines(count: int):
    """A corruption that keeps the first ``count`` lines of a CSV (the header and count - 1 rows)."""
    def corrupt(path):
        path.write_text("\n".join(path.read_text().splitlines()[:count]) + "\n")

    return corrupt


def _shift_third_time(path):
    lines = path.read_text().splitlines()
    t, rest = lines[3].split(",", 1)
    lines[3] = f"{float(t) + 0.01!r},{rest}"
    path.write_text("\n".join(lines) + "\n")


def _wrong_magic(path):
    path.write_bytes(b"XXXX" + path.read_bytes()[4:])


def _short_header(path):
    path.write_bytes(path.read_bytes()[: simulate._HEADER.size - 1])


@pytest.mark.parametrize(
    "name, corrupt, says",
    [
        ("trajectory.csv", _keep_lines(1), "fewer than two observations"),
        ("trajectory.csv", _keep_lines(2), "fewer than two observations"),
        ("trajectory.csv", _shift_third_time, "uniformly spaced"),
        ("trajectory.bin", _wrong_magic, "not a trajectory container"),
        ("trajectory.bin", _short_header, "truncated trajectory header"),
    ],
    ids=["csv-header-only", "csv-one-row", "csv-non-uniform-times", "bin-wrong-magic", "bin-shorter-than-header"],
)
def test_estimate_malformed_trajectory_exit_2_names_the_file(tmp_path, capsys, name, corrupt, says):
    assert says in _bad_trajectory_exit(tmp_path, capsys, name, corrupt)


def test_estimate_truncated_binary_trajectory_exit_2(tmp_path, capsys):
    def truncate(path):
        path.write_bytes(path.read_bytes()[:-12])

    assert "truncated" in _bad_trajectory_exit(tmp_path, capsys, "trajectory.bin", truncate)


def test_estimate_oversized_binary_header_exit_2(tmp_path, capsys):
    # 2^62 x 2^10 states would overflow a read of their size; the header is checked first
    def oversize(path):
        raw = path.read_bytes()
        magic, _, _, delta_n, seed = simulate._HEADER.unpack(raw[: simulate._HEADER.size])
        path.write_bytes(simulate._HEADER.pack(magic, 2**62, 2**10, delta_n, seed) + raw[simulate._HEADER.size :])

    err = _bad_trajectory_exit(tmp_path, capsys, "trajectory.bin", oversize)
    assert "truncated" in err and "Traceback" not in err


def test_estimate_nan_in_csv_trajectory_exit_2(tmp_path, capsys):
    def add_nan(path):
        lines = path.read_text().splitlines()
        t, _, x2 = lines[3].split(",")
        lines[3] = ",".join((t, "nan", x2))
        path.write_text("\n".join(lines) + "\n")

    assert "finite" in _bad_trajectory_exit(tmp_path, capsys, "trajectory.csv", add_nan)


@pytest.mark.parametrize("step", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_estimate_non_finite_binary_step_exit_2(tmp_path, capsys, step):
    def set_step(path):
        raw = path.read_bytes()
        magic, n_states, d, _, seed = simulate._HEADER.unpack(raw[: simulate._HEADER.size])
        path.write_bytes(simulate._HEADER.pack(magic, n_states, d, step, seed) + raw[simulate._HEADER.size :])

    assert "delta_n must be positive and finite" in _bad_trajectory_exit(tmp_path, capsys, "trajectory.bin", set_step)


def test_estimate_trajectory_dimension_mismatch_exit_2(tmp_path, capsys):
    err = _bad_trajectory_exit(tmp_path, capsys, "trajectory.bin", lambda path: None, d=3)
    assert "dimension 2" in err


def test_cv_single_element_grid(tmp_path):
    out = tmp_path / "cv"
    cfg = {
        "model": {"family": "cosine", "d": 2, "p": 3, "sparsity_fraction": 0.5},
        "sampling": {"T": 2.0, "delta_n": 0.05, "substeps": 2},
        "estimation": {"lambda_grid": [0.4]},
        "seed": 5,
    }
    assert main(["cv", "--config", _write_cfg(tmp_path, "c.json", cfg), "--out", str(out)]) == 0
    sel = _read_csv(out / "cv_selected.csv")
    assert float(sel[0]["lambda_star"]) == 0.4


def test_constants_subcommand_cosine(tmp_path, capsys):
    cfg = {
        "model": {"family": "cosine", "d": 2, "p": 4, "sparsity_fraction": 0.5},
        "sampling": {"T": 5.0, "delta_n": 0.05, "substeps": 2},
        "audit": {"M": 1.0, "l": 1.0, "second_moment": 0.5},
        "seed": 8,
    }
    out = tmp_path / "const"
    code = main(["constants", "--config", _write_cfg(tmp_path, "c.json", cfg), "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "lambda_11" in text and "t_1" in text
    rows = {r["name"]: float(r["value"]) for r in _read_csv(out / "constants.csv")}
    assert rows["lambda_1"] == max(rows["lambda_11"], rows["lambda_12"])
    assert rows["lambda_2"] > 0 and rows["t_1"] > 0


def test_constants_cosine_calibrates_an_unset_second_moment(tmp_path):
    cfg = {
        "model": {"family": "cosine", "d": 2, "p": 4, "sparsity_fraction": 0.5},
        "sampling": {"T": 5.0, "delta_n": 0.05, "substeps": 2},
        "audit": {"M": 1.0, "l": 1.0},
        "seed": 8,
    }
    calibrated = tmp_path / "calibrated"
    assert main(["constants", "--config", _write_cfg(tmp_path, "a.json", cfg), "--out", str(calibrated)]) == 0
    rows = {r["name"]: float(r["value"]) for r in _read_csv(calibrated / "constants.csv")}
    # the reference: max_k of the mean of X_k^2 over the left endpoints of a path of at least 1000 steps
    # (n = 100 here) from X_0 = 0, its first 100 steps dropped, on the linear audit's streams
    _, basis, theta0 = experiments._problem(validate_config({"experiment": "estimate-single", **cfg})["model"], 8)
    path, _ = simulate.simulate_linear(basis, theta0, 0.0, 1000, 0.05, 2, 8 ^ experiments._CONC_LINEAR_OFFSET,
                                       burn_in=100)
    assert rows["second_moment"] == float(np.max(np.mean(path.states[:-1] ** 2, axis=0)))
    # the calibrated value enters the constants as a configured one would
    cfg["audit"]["second_moment"] = rows["second_moment"]
    given = tmp_path / "given"
    assert main(["constants", "--config", _write_cfg(tmp_path, "b.json", cfg), "--out", str(given)]) == 0
    assert (given / "constants.csv").read_bytes() == (calibrated / "constants.csv").read_bytes()


def test_seed_flag_overrides_config(tmp_path):
    cfg = {
        "model": {"family": "ou-linear", "d": 2, "A0_diag": [1.0, 2.0]},
        "sampling": {"T": 1.0, "delta_n": 0.1},
        "seed": 3,
    }
    out = tmp_path / "o"
    assert main(["simulate", "--config", _write_cfg(tmp_path, "c.json", cfg),
                 "--seed", "99", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 99


# 2^63 does not fit the binary header's i64; 2^64 + 1 would alias seed 1 in a 64-bit key
@pytest.mark.parametrize("argv", [["--seed", str(2**63)], ["--set", f"seed={2**64 + 1}"]], ids=["flag", "set"])
def test_seed_beyond_the_i64_range_exit_2_names_seed(tmp_path, capsys, argv):
    out = tmp_path / "o"
    code = main(["simulate", "--config", _write_cfg(tmp_path, "c.json", _OU_SIM), *argv, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert "config error: seed:" in err and "Traceback" not in err
    assert not out.exists()


def test_largest_seed_round_trips_through_the_binary_trajectory(tmp_path):
    out = tmp_path / "o"
    argv = ["--config", _write_cfg(tmp_path, "c.json", _OU_SIM), "--seed", str(2**63 - 1), "--out", str(out)]
    assert main(["simulate", *argv]) == 0
    assert trajectory_from_binary(str(out / "trajectory.bin")).seed == 2**63 - 1


def test_constants_subcommand_ou(tmp_path, capsys):
    cfg = {
        "model": {"family": "ou-linear", "d": 3, "A0_diag": [1.0, 2.0, 3.0]},
        "sampling": {"T": 10.0, "delta_n": 0.01},
        "seed": 6,
    }
    code = main(["constants", "--config", _write_cfg(tmp_path, "c.json", cfg)])
    assert code == 0
    out = capsys.readouterr().out
    assert "lambda_1_ou" in out and "lambda_2_ou" in out and "t_1_ou" in out


_OU_EST = {
    "model": {"family": "ou-linear", "d": 2, "A0_diag": [1.0, 2.0]},
    "sampling": {"T": 5.0, "delta_n": 0.05},
    "seed": 1,
}

_OU_RATE = {
    "model": {"family": "ou-linear", "d": 2, "A0_diag": [1.0, 2.0]},
    "sampling": {"delta_n": 0.1},
    "t_grid": [10.0],
    "replications": 2,
    "seed": 3,
}


def _exit_and_err(tmp_path, capsys, command, cfg, *extra):
    capsys.readouterr()
    code = main([command, "--config", _write_cfg(tmp_path, "c.json", cfg), *extra, "--out", str(tmp_path / "o")])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("t_grid", [[10.0], [10.0, 10.0], [10.0, 10.0, 10.0]], ids=["one", "two-equal", "three-equal"])
def test_rate_study_without_two_distinct_horizons_exit_2_names_t_grid(tmp_path, capsys, t_grid):
    code, err = _exit_and_err(tmp_path, capsys, "rate-study", {**_OU_RATE, "t_grid": t_grid})
    assert code == 2 and "t_grid" in err and "distinct" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("p_grid", [[4, 4, 6], [4, 6, 4]], ids=["adjacent", "apart"])
def test_dimension_sweep_with_a_repeated_p_exit_2_names_p_grid(tmp_path, capsys, p_grid):
    # a repeated p would write its rows twice, each copy pooling both groups
    cfg = {**_TINY_SR, "model": {"family": "cosine", "d": 2, "sparsity_fraction": 0.5}, "p_grid": p_grid}
    code, err = _exit_and_err(tmp_path, capsys, "dimension-sweep", cfg)
    assert code == 2 and "config error: p_grid:" in err and "distinct" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "command, cfg, extra, path",
    [
        ("estimate", _OU_EST, ["--set", "sampling.T=0.15"], "sampling.T"),
        ("support-recovery", _TINY_SR, ["--set", "sampling.T=0.15", "--set", "estimation.cv_folds=5"], "sampling.T"),
        ("cv", _OU_EST, ["--set", "sampling.T=0.15", "--set", "estimation.lambda=0.1"], "sampling.T"),
        ("rate-study", {**_OU_RATE, "sampling": {"delta_over_t": 10.0}, "t_grid": [3.0, 4.0]}, [], "t_grid"),
    ],
    ids=["estimate", "support-recovery", "cv-with-lambda", "rate-study"],
)
def test_fewer_steps_than_cv_folds_exit_2_names_the_field(tmp_path, capsys, command, cfg, extra, path):
    # n = 3 (T = 0.15) and n = round(T^2 / 10) = 1 at T = 3: fewer than the 5 CV folds
    code, err = _exit_and_err(tmp_path, capsys, command, cfg, *extra)
    assert code == 2 and f"{path}:" in err and "5-fold CV" in err
    assert not (tmp_path / "o").exists()  # rejected before any replication ran


def test_fixed_lambda_fit_needs_two_steps_not_cv_folds(tmp_path, capsys):
    cfg = {**_OU_EST, "estimation": {"lambda": 0.1}}
    code, _ = _exit_and_err(tmp_path, capsys, "estimate", cfg, "--set", "sampling.T=0.15")
    assert code == 0  # n = 3 fits at a set lambda
    rate = {**_OU_RATE, "sampling": {"delta_over_t": 10.0}, "t_grid": [3.0, 4.0], "estimation": {"lambda": 0.1}}
    code, err = _exit_and_err(tmp_path, capsys, "rate-study", rate)
    assert code == 2 and "t_grid:" in err and "T = 3.0 gives n = 1" in err


@pytest.mark.parametrize("rows", [2, 4])
def test_estimate_short_trajectory_exit_2_names_the_file(tmp_path, capsys, rows):
    path = tmp_path / "short.csv"
    path.write_text("t,x_1,x_2\n" + "".join(f"{0.05 * i!r},0.1,{0.01 * i!r}\n" for i in range(rows)))
    code, err = _exit_and_err(tmp_path, capsys, "estimate", _OU_EST, "--trajectory", str(path))
    assert code == 2 and str(path) in err and f"n = {rows - 1}" in err


def test_constants_on_dimension_sweep_config_exit_2_names_model_p(tmp_path, capsys):
    cfg = {
        "experiment": "dimension-sweep",
        "model": {"family": "cosine", "d": 2, "sparsity_fraction": 0.5},
        "p_grid": [4, 6],
        "sampling": {"T": 2.0, "delta_n": 0.05},
        "seed": 9,
    }
    code, err = _exit_and_err(tmp_path, capsys, "constants", cfg)
    assert code == 2 and "model.p" in err


@pytest.mark.parametrize(
    "cfg, field",
    [
        ({"experiment": "rate-study", **_OU_RATE, "sampling": {"delta_over_t": 10.0}, "t_grid": [10.0, 20.0]}, "sampling"),
        ({"experiment": "verify-concentration", "audit": _VERIFY_MATRICES["audit"], "seed": 1}, "model"),
    ],
    ids=["rate-study-without-sampling-T", "verify-concentration-without-model"],
)
def test_constants_on_a_config_without_its_inputs_exit_2_names_the_block(tmp_path, capsys, cfg, field):
    code, err = _exit_and_err(tmp_path, capsys, "constants", cfg)
    assert code == 2 and f"config error: {field}:" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["simulate", "estimate"])
def test_unrecorded_ou_path_does_not_depend_on_substeps(tmp_path, command):
    # an exact OU path is stepped at delta_n; only verify's recorded paths are sub-stepped
    cfg_path = _write_cfg(tmp_path, "c.json", _OU_EST)
    tables = []
    for substeps in (1, 10):
        out = tmp_path / f"m{substeps}"
        assert main([command, "--config", cfg_path, "--set", f"sampling.substeps={substeps}", "--out", str(out)]) == 0
        tables.append({path.name: path.read_bytes() for path in out.iterdir() if path.name != "manifest.json"})
    assert tables[0] == tables[1] and len(tables[0]) >= 3  # the manifests differ in the config only


def test_nonzero_range_containing_zero_exit_2_names_nonzero_low(tmp_path, capsys):
    code, err = _exit_and_err(
        tmp_path, capsys, "support-recovery", _TINY_SR, "--set", "model.nonzero_low=0", "--set", "model.nonzero_high=0"
    )
    assert code == 2 and "model.nonzero_low" in err
    for low, high in ((-1.0, 1.0), (0.0, 2.0), (-2.0, 0.0)):
        with pytest.raises(ConfigError, match="model.nonzero_low"):
            validate_config({**_TINY_SR, "experiment": "support-recovery",
                             "model": {**_TINY_SR["model"], "nonzero_low": low, "nonzero_high": high}})
    validate_config({**_TINY_SR, "experiment": "support-recovery",
                     "model": {**_TINY_SR["model"], "nonzero_low": -3.0, "nonzero_high": -2.0}})


@pytest.mark.parametrize(
    "command, cfg",
    [
        ("support-recovery", {**_OU_EST, "replications": 1}),
        ("dimension-sweep", {**_OU_EST, "replications": 1, "p_grid": [4]}),
        ("rate-study", {**_OU_RATE, "model": _TINY_SR["model"], "t_grid": [10.0, 20.0]}),
    ],
    ids=["support-recovery", "dimension-sweep", "rate-study"],
)
def test_runner_on_the_other_drift_family_exit_2_names_model_family(tmp_path, capsys, command, cfg):
    code, err = _exit_and_err(tmp_path, capsys, command, cfg)
    assert code == 2 and "config error: model.family:" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def _without(cfg: dict, *keys: str) -> dict:
    """A deep copy of ``cfg`` without the dotted ``keys``."""
    out = json.loads(json.dumps(cfg))
    for key in keys:
        *parents, last = key.split(".")
        node = out
        for part in parents:
            node = node[part]
        del node[last]
    return out


_COSINE_NO_P = {"family": "cosine", "d": 2, "sparsity_fraction": 0.5}
_SWEEP = {**_TINY_SR, "model": _COSINE_NO_P, "p_grid": [4, 6]}
_RATE = {**_OU_RATE, "t_grid": [10.0, 20.0]}
_RATE_BY_RATIO = {**_RATE, "sampling": {"delta_over_t": 10.0}}
_SETS = {"model": _OU_EST["model"], "sampling": {"T": 3.0, "delta_n": 0.05}, "seed": 12}
_CONCENTRATION = {"experiment": "verify-concentration", "audit": _VERIFY_MATRICES["audit"], "seed": 1}

# each experiment kind: the command that runs it and a config that holds all the kind needs
_KIND_CONFIGS = {
    "support-recovery": ("support-recovery", _TINY_SR),
    "dimension-sweep": ("dimension-sweep", _SWEEP),
    "rate-study": ("rate-study", _RATE),
    "verify-sets": ("verify", _SETS),
    "verify-concentration": ("verify", _CONCENTRATION),
    "estimate-single": ("estimate", _OU_EST),
    "simulate": ("simulate", _OU_SIM),
    "cv": ("cv", _OU_EST),
}


def _lacking(cfg: dict, need: str) -> tuple[dict, str]:
    """``cfg`` without the input ``need``, and the field path its rejection names."""
    if need == "family":
        other = _OU_EST["model"] if cfg["model"]["family"] == "cosine" else _TINY_SR["model"]
        return {**cfg, "model": other}, "model.family"
    if need == "model.p":
        return {**cfg, "model": _COSINE_NO_P}, "model.p"
    if need == "concentration":
        return _without(cfg, "audit.concentration_linear", "audit.concentration_ou"), "audit"
    return _without(cfg, need), need.split(".")[0]


def _kind_cases(kind: str, needs: list[str]) -> list:
    """(kind, input, command, config lacking that input, field path named) for each input ``kind`` needs."""
    command, cfg = _KIND_CONFIGS[kind]
    return [(kind, need, command, *_lacking(cfg, need)) for need in needs]


_T_AND_DELTA = ["sampling.T", "sampling.delta_n"]
_ROW_CASES = [
    *_kind_cases("support-recovery", ["model", "family", "model.p", *_T_AND_DELTA]),
    *_kind_cases("dimension-sweep", ["model", "family", *_T_AND_DELTA, "p_grid"]),
    *_kind_cases("rate-study", ["model", "family", "sampling.delta_n", "t_grid"]),
    ("rate-study", "sampling.delta_over_t", "rate-study", *_lacking(_RATE_BY_RATIO, "sampling.delta_over_t")),
    *_kind_cases("verify-sets", ["model", "family", *_T_AND_DELTA]),
    *_kind_cases("verify-concentration", ["concentration", "model.p"]),  # a model it is given is still checked
    *_kind_cases("estimate-single", ["model", "model.p", *_T_AND_DELTA]),
    *_kind_cases("simulate", ["model", "model.p", *_T_AND_DELTA]),
    *_kind_cases("cv", ["model", "model.p", *_T_AND_DELTA]),
    # constants keeps a config's kind and needs what estimate-single needs
    ("constants", "model", "constants", _CONCENTRATION, "model"),
    ("constants", "model.p", "constants", {**_SWEEP, "experiment": "dimension-sweep"}, "model.p"),
    ("constants", "sampling.T", "constants", {**_RATE, "experiment": "rate-study"}, "sampling"),
    ("constants", "sampling.delta_n", "constants",
     {**_RATE_BY_RATIO, "experiment": "rate-study", "sampling": {"T": 5.0, "delta_over_t": 10.0}}, "sampling"),
]


@pytest.mark.parametrize(
    "kind, need, command, cfg, path", _ROW_CASES, ids=[f"{kind}-without-{need}" for kind, need, *_ in _ROW_CASES]
)
def test_each_kind_without_an_input_it_needs_exit_2_names_the_field(tmp_path, capsys, kind, need, command, cfg, path):
    code, err = _exit_and_err(tmp_path, capsys, command, cfg)
    assert code == 2 and f"config error: {path}:" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_every_kind_has_a_valid_config_and_row_cases():
    assert list(_KIND_CONFIGS) == list(KINDS)
    for kind, (_, cfg) in _KIND_CONFIGS.items():
        validate_config({**cfg, "experiment": kind})  # so each case fails only on the input it drops
    assert {case[0] for case in _ROW_CASES} == {*KINDS, "constants"}


@pytest.mark.parametrize("under", [False, True], ids=["a-file", "under-a-file"])
def test_out_on_a_file_exit_2_names_the_path(tmp_path, capsys, under):
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    out = afile / "sub" if under else afile
    code = main(["simulate", "--config", _write_cfg(tmp_path, "c.json", _OU_SIM), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2 and f"config error: {out}:" in err and "Traceback" not in err
    assert afile.read_text() == "kept\n"


# ---------------------------------------------------------------------------
# Experiments through the CLI
# ---------------------------------------------------------------------------


def test_support_recovery_smoke_emits_declared_files(tmp_path):
    out = tmp_path / "sr"
    cfg = dict(_TINY_SR)
    cfg["replications"] = 1
    assert main(["support-recovery", "--config", _write_cfg(tmp_path, "c.json", cfg), "--out", str(out)]) == 0
    for name in (
        "replications.csv", "summary.csv", "coefficients_true.csv", "coefficients_mle.csv",
        "coefficients_lasso.csv", "heatmap_true.svg", "heatmap_mle.svg", "heatmap_lasso.svg",
        "manifest.json", "timings.txt",
    ):
        assert (out / name).exists(), name


def test_support_recovery_run_leaves_numpy_ma_unloaded(tmp_path):
    # numpy imports numpy.ma lazily on the first np.unique or np.median, about 13 ms
    src = os.path.dirname(os.path.dirname(os.path.abspath(sparsedrift.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    argv = ["support-recovery", "--config", _write_cfg(tmp_path, "c.json", _TINY_SR), "--out", str(tmp_path / "sr")]
    code = f"import sys; from sparsedrift.cli import main; code = main({argv!r}); print(code, 'numpy.ma' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-2:] == ["0", "False"]


def test_verify_sets_run_leaves_numpy_ma_unloaded(tmp_path):
    # the cone sampler used np.setdiff1d, the last call that imported numpy.ma in a verify run
    src = os.path.dirname(os.path.dirname(os.path.abspath(sparsedrift.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    cfg = {
        "model": {"family": "ou-linear", "d": 2, "A0_diag": [1.0, 2.0]},
        "sampling": {"T": 3.0, "delta_n": 0.05, "substeps": 2},
        "audit": {"reps": 2, "budget": 8},
        "seed": 12,
    }
    argv = ["verify", "--config", _write_cfg(tmp_path, "c.json", cfg), "--out", str(tmp_path / "v")]
    code = f"import sys; from sparsedrift.cli import main; code = main({argv!r}); print(code, 'numpy.ma' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-2:] == ["0", "False"]


def test_serial_run_needs_neither_jsonschema_nor_a_process_pool(tmp_path):
    # jsonschema is the tests' oracle only; concurrent.futures costs 8-12 ms of imports
    src = os.path.dirname(os.path.dirname(os.path.abspath(sparsedrift.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    argv = ["support-recovery", "--config", _write_cfg(tmp_path, "c.json", _TINY_SR), "--out", str(tmp_path / "sr"),
            "--jobs", "1"]
    code = (
        "import sys; sys.modules['jsonschema'] = None; from sparsedrift.cli import main; "
        f"code = main({argv!r}); print(code, 'concurrent.futures' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-2:] == ["0", "False"]


_VERIFY_BOTH_AUDITS = {**_VERIFY_MATRICES, "audit": {**_VERIFY_MATRICES["audit"], "reps": 2, "budget": 8}}


@pytest.mark.parametrize(
    "command, cfg",
    [("support-recovery", _TINY_SR), ("rate-study", _RATE), ("verify", _VERIFY_BOTH_AUDITS)],
    ids=["support-recovery", "rate-study", "verify-with-both-concentration-audits"],
)
def test_run_needs_numpy_only(tmp_path, command, cfg):
    # scipy, mpmath and jsonschema are the tests' oracles; a run that imports one fails here
    src = os.path.dirname(os.path.dirname(os.path.abspath(sparsedrift.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    argv = [command, "--config", _write_cfg(tmp_path, "c.json", cfg), "--out", str(tmp_path / "o")]
    code = (
        "import sys; sys.modules.update(scipy=None, mpmath=None, jsonschema=None); "
        f"from sparsedrift.cli import main; print(main({argv!r}))"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-1] == "0" and (tmp_path / "o" / "manifest.json").exists()


def test_support_recovery_stage_timings_and_clean_manifest(tmp_path):
    out = tmp_path / "sr"
    assert main(["support-recovery", "--config", _write_cfg(tmp_path, "c.json", _TINY_SR), "--out", str(out)]) == 0
    lines = (out / "timings.txt").read_text().splitlines()
    assert len(lines) == _TINY_SR["replications"]
    for line in lines:
        assert all(f"{stage} " in line for stage in ("simulate", "gram", "cv", "refit")), line
    assert json.loads((out / "manifest.json").read_text())["warnings"] == []

    # the rate study times each T point, verify-sets each replication
    rate = {
        "model": {"family": "ou-linear", "d": 2, "A0_diag": [1.0, 2.0]},
        "sampling": {"delta_over_t": 2.0},
        "estimation": {"lambda_grid": {"num": 6, "ratio": 0.01}, "cv_folds": 3},
        "replications": 2,
        "t_grid": [10.0, 20.0],
        "seed": 11,
    }
    verify = {
        "model": {"family": "ou-linear", "d": 2, "A0_diag": [1.0, 2.0]},
        "sampling": {"T": 3.0, "delta_n": 0.05, "substeps": 2},
        "audit": {"reps": 2, "budget": 8},
        "seed": 12,
    }
    for command, cfg, labels, stages in (
        ("rate-study", rate, ("T 10:", "T 20:"), ("simulate", "cv", "refit")),
        ("verify", verify, ("rep 0:", "rep 1:"), ("simulate", "events", "oracle")),
    ):
        out = tmp_path / command
        assert main([command, "--config", _write_cfg(tmp_path, f"{command}.json", cfg), "--out", str(out)]) == 0
        lines = (out / "timings.txt").read_text().splitlines()
        assert [line.split(" ", 2)[:2] for line in lines] == [label.split() for label in labels]
        for line in lines:
            assert all(f"{stage} " in line for stage in stages), line
        assert "timings.txt" in json.loads((out / "manifest.json").read_text())["files"]


def test_capped_path_reported_in_manifest_warnings(tmp_path, monkeypatch):
    monkeypatch.setattr(estimate, "_MAX_SWEEPS", 1)  # one knot: the path stops short
    cfg = json.loads(json.dumps(_TINY_SR))
    out = tmp_path / "cv"
    assert main(["support-recovery", "--config", _write_cfg(tmp_path, "c.json", cfg), "--out", str(out)]) == 0
    warnings = json.loads((out / "manifest.json").read_text())["warnings"]
    # 2 replications x 3 folds x 6 grid points
    assert any(re.fullmatch(r"[1-9]\d* of 36 CV fold fits not KKT-certified", w) for w in warnings)

    cfg["estimation"] = {"lambda": 1e-4}
    out = tmp_path / "fixed"
    assert main(["support-recovery", "--config", _write_cfg(tmp_path, "f.json", cfg), "--out", str(out)]) == 0
    warnings = json.loads((out / "manifest.json").read_text())["warnings"]
    assert "2 of 2 Lasso refits unconverged" in warnings
    rows = _read_csv(out / "replications.csv")
    assert [r["converged"] for r in rows if r["estimator"] == "lasso"] == ["0", "0"]

    rate = {
        "model": {"family": "ou-linear", "d": 3, "A0_diag": [1.0, 2.0, 3.0]},
        "sampling": {"delta_over_t": 2.0},
        "estimation": {"lambda": 1e-4},
        "replications": 2,
        "t_grid": [10.0, 20.0],
        "seed": 11,
    }
    out = tmp_path / "rs"
    assert main(["rate-study", "--config", _write_cfg(tmp_path, "r.json", rate), "--out", str(out)]) == 0
    warnings = json.loads((out / "manifest.json").read_text())["warnings"]
    # 2 horizons x 2 replications, one refit of the stacked interaction matrix each
    assert any(re.fullmatch(r"[1-9]\d* of 4 Lasso refits unconverged", w) for w in warnings)


def test_estimate_and_cv_report_uncertified_fits(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(estimate, "_MAX_SWEEPS", 1)
    cfg = {key: value for key, value in json.loads(json.dumps(_TINY_SR)).items() if key != "replications"}
    cfg_path = _write_cfg(tmp_path, "c.json", cfg)
    # 3 folds x 6 grid points; the single refit also stops short
    for command, expected in (
        ("estimate", ["10 of 18 CV fold fits not KKT-certified", "1 of 1 Lasso refits unconverged"]),
        ("cv", ["10 of 18 CV fold fits not KKT-certified"]),
    ):
        out = tmp_path / command
        capsys.readouterr()
        assert main([command, "--config", cfg_path, "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["warnings"] == expected
        err = capsys.readouterr().err
        assert all(f"warning: {msg}" in err for msg in expected), err


def test_support_recovery_all_zero_truth_f1_convention(tmp_path):
    out = tmp_path / "sr0"
    cfg = json.loads(json.dumps(_TINY_SR))
    cfg["model"]["sparsity_fraction"] = 1.0
    cfg["estimation"] = {"lambda": 1e9}
    cfg["replications"] = 1
    assert main(["support-recovery", "--config", _write_cfg(tmp_path, "c.json", cfg), "--out", str(out)]) == 0
    rows = _read_csv(out / "replications.csv")
    lasso = next(r for r in rows if r["estimator"] == "lasso")
    assert float(lasso["f1"]) == 1.0  # empty-vs-empty support convention
    assert float(lasso["l1_error"]) == 0.0


def test_forced_huge_lambda_gives_truth_norm_errors(tmp_path):
    out = tmp_path / "srbig"
    cfg = json.loads(json.dumps(_TINY_SR))
    cfg["estimation"] = {"lambda": 1e9}
    cfg["replications"] = 1
    assert main(["support-recovery", "--config", _write_cfg(tmp_path, "c.json", cfg), "--out", str(out)]) == 0
    truth = np.array([float(r["value"]) for r in _read_csv(out / "coefficients_true.csv")])
    rows = _read_csv(out / "replications.csv")
    lasso = next(r for r in rows if r["estimator"] == "lasso")
    assert float(lasso["l1_error"]) == np.sum(np.abs(truth))
    assert float(lasso["l2_error"]) == np.linalg.norm(truth)


def test_dimension_sweep_smoke(tmp_path):
    out = tmp_path / "ds"
    cfg = {
        "model": {"family": "cosine", "d": 2, "sparsity_fraction": 0.5},
        "sampling": {"T": 2.0, "delta_n": 0.05, "substeps": 2},
        "estimation": {"lambda_grid": {"num": 5, "ratio": 0.05}, "cv_folds": 3},
        "replications": 2,
        "p_grid": [4],
        "seed": 10,
    }
    assert main(["dimension-sweep", "--config", _write_cfg(tmp_path, "c.json", cfg), "--out", str(out)]) == 0
    rows = _read_csv(out / "sweep.csv")
    assert len(rows) == 2  # one row per estimator for the single p
    assert {r["estimator"] for r in rows} == {"lasso", "mle"}
    assert (out / "errors_l1.svg").exists() and (out / "errors_l2.svg").exists()


def test_dimension_sweep_single_replication_writes_zero_sd(tmp_path):
    out = tmp_path / "ds1"
    cfg = {
        "model": {"family": "cosine", "d": 2, "sparsity_fraction": 0.5},
        "sampling": {"T": 2.0, "delta_n": 0.05, "substeps": 2},
        "estimation": {"lambda_grid": {"num": 5, "ratio": 0.05}, "cv_folds": 3},
        "replications": 1,
        "p_grid": [4, 6],
        "seed": 10,
    }
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["dimension-sweep", "--config", _write_cfg(tmp_path, "c.json", cfg), "--out", str(out)])
    assert code == 0
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    rows = _read_csv(out / "sweep.csv")
    assert len(rows) == 4
    assert all(float(r["sd_l1"]) == 0.0 and float(r["sd_l2"]) == 0.0 for r in rows)
    for name in ("sweep.csv", "replications.csv", "errors_l1.svg", "errors_l2.svg"):
        assert "nan" not in (out / name).read_text().lower(), name


def test_rate_study_smoke_two_points(tmp_path):
    out = tmp_path / "rs"
    cfg = {
        "model": {"family": "ou-linear", "d": 2, "A0_diag": [1.0, 2.0]},
        "sampling": {"delta_over_t": 2.0},
        "estimation": {"lambda_grid": {"num": 6, "ratio": 0.01}, "cv_folds": 3},
        "replications": 2,
        "t_grid": [10.0, 20.0],
        "seed": 11,
    }
    assert main(["rate-study", "--config", _write_cfg(tmp_path, "c.json", cfg), "--out", str(out)]) == 0
    fit = _read_csv(out / "fit.csv")[0]
    assert np.isfinite(float(fit["slope"]))
    rates = _read_csv(out / "rates.csv")
    assert len(rates) == 2
    assert rates[0]["regime_tag"] in ("discretization-dominated", "martingale-dominated", "boundary")


def test_rate_study_large_step_flags_regime_contamination(tmp_path, capsys):
    out = tmp_path / "rs2"
    cfg = {
        "model": {"family": "ou-linear", "d": 2, "A0_diag": [1.0, 2.0]},
        "sampling": {"delta_n": 1.0},  # coarse step: discretization dominates
        "estimation": {"lambda": 0.05},
        "replications": 2,
        "t_grid": [20.0, 40.0, 80.0],
        "seed": 13,
    }
    assert main(["rate-study", "--config", _write_cfg(tmp_path, "c.json", cfg), "--out", str(out)]) == 0
    fit = _read_csv(out / "fit.csv")[0]
    assert fit["regime_warning"] == "1"
    rates = _read_csv(out / "rates.csv")
    assert all(r["regime_tag"] == "discretization-dominated" for r in rates)
    manifest = json.loads((out / "manifest.json").read_text())
    regime = [w for w in manifest["warnings"] if "regime" in w]
    assert regime
    assert f"warning: {regime[0]}" in capsys.readouterr().err


def test_verify_smoke_single_rep(tmp_path):
    out = tmp_path / "verify"
    cfg = {
        "model": {"family": "ou-linear", "d": 2, "A0_diag": [1.0, 2.0]},
        "sampling": {"T": 3.0, "delta_n": 0.05, "substeps": 2},
        "audit": {"reps": 1, "budget": 8},
        "seed": 12,
    }
    assert main(["verify", "--config", _write_cfg(tmp_path, "c.json", cfg), "--out", str(out)]) == 0
    events = _read_csv(out / "events.csv")
    assert len(events) == 1
    assert set(events[0]) == {
        "replication", "stat_T", "stat_Tp", "k_hat", "k_lower",
        "holds_T", "holds_Tp", "holds_Tpp", "Tpp_certified",
    }
    assert (out / "oracle.csv").exists() and (out / "constants.csv").exists()


def test_verify_warns_when_k_lies_between_the_cone_bounds(tmp_path):
    # p = 9 has more 2s-subsets than the budget, so k_hat is sampled and lies above the certified k_lower
    cfg = {
        "model": {"family": "ou-linear", "d": 3, "A0_diag": [1.0, 2.0, 3.0]},
        "sampling": {"T": 3.0, "delta_n": 0.05, "substeps": 2},
        "audit": {"reps": 2, "budget": 8},
        "seed": 12,
    }
    decided = tmp_path / "decided"
    assert main(["verify", "--config", _write_cfg(tmp_path, "a.json", cfg), "--out", str(decided)]) == 0
    events = _read_csv(decided / "events.csv")
    assert all(row["Tpp_certified"] == "1" for row in events)
    lower, upper = max(float(row["k_lower"]) for row in events), min(float(row["k_hat"]) for row in events)
    assert lower < upper
    cfg["audit"]["k"] = 0.5 * (lower + upper)
    out = tmp_path / "undecided"
    assert main(["verify", "--config", _write_cfg(tmp_path, "b.json", cfg), "--out", str(out)]) == 0
    events = _read_csv(out / "events.csv")
    assert all(row["Tpp_certified"] == "0" and row["holds_Tpp"] == "0" for row in events)
    warnings = json.loads((out / "manifest.json").read_text())["warnings"]
    assert "2 of 2 replications: T'' undecided (k_lower < k <= k_hat)" in warnings


def test_verify_concentration_requires_block(tmp_path, capsys):
    cfg = {"experiment": "verify-concentration", "seed": 1, "audit": {}}
    code = main(["verify", "--config", _write_cfg(tmp_path, "c.json", cfg), "--out", str(tmp_path / "o")])
    assert code == 2


@pytest.mark.parametrize(
    "command, model",
    [
        ("verify", {"family": "ou-linear", "d": 2, "A0_diag": [1.0, 2.0]}),
        ("constants", {"family": "ou-linear", "d": 2, "A0_diag": [1.0, 2.0]}),
        ("constants", {"family": "cosine", "d": 2, "p": 4}),
    ],
    ids=["verify-ou", "constants-ou", "constants-cosine"],
)
def test_k_too_large_exit_2_names_audit_k(tmp_path, capsys, command, model):
    # k^2 = 25 is above l_min = 0.25 of diag(1, 2) and above the cosine default l = 1
    cfg = {
        "model": model,
        "sampling": {"T": 3.0, "delta_n": 0.05, "substeps": 2},
        "audit": {"reps": 1, "budget": 8, "k": 5.0, "second_moment": 1.0},
        "seed": 12,
    }
    if model["family"] == "ou-linear":
        del cfg["audit"]["second_moment"]
    code = main([command, "--config", _write_cfg(tmp_path, "c.json", cfg), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert "audit.k" in err and "Traceback" not in err


def test_verify_oracle_lhs_matches_row_wise_reference(tmp_path):
    a_mat = np.array([[1.0, 0.3, 0.0], [0.0, 1.5, 0.0], [0.0, 0.4, 2.0]])
    cfg = {
        "model": {"family": "ou-linear", "d": 3, "A0": a_mat.tolist()},
        "sampling": {"T": 5.0, "delta_n": 0.05, "substeps": 2},
        "estimation": {"lambda": 0.05},
        "audit": {"reps": 3, "budget": 8},
        "seed": 21,
    }
    out = tmp_path / "verify"
    assert main(["verify", "--config", _write_cfg(tmp_path, "c.json", cfg), "--out", str(out)]) == 0
    rows = _read_csv(out / "oracle.csv")
    assert len(rows) == 3
    for row in rows:
        rep = int(row["replication"])
        traj, _ = simulate.simulate_ou_exact(
            a_mat, 100, 0.05, seed=21 ^ rep, substeps=2,
            record=simulate.RecordFlags(noise=True, fine=True),
        )
        lhs, a_hat = ou_oracle_lhs(traj, a_mat, 0.05)
        assert np.any(a_hat != 0.0)  # lambda is small enough that the fit is not the null one
        assert float(row["lhs"]) == pytest.approx(lhs, rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# Determinism and manifest
# ---------------------------------------------------------------------------


def test_rerun_and_jobs_invariance(tmp_path):
    cfg_path = _write_cfg(tmp_path, "c.json", _TINY_SR)
    outs = []
    for name, jobs in (("a", "1"), ("b", "1"), ("c", "2")):
        out = tmp_path / name
        assert main(["support-recovery", "--config", cfg_path, "--out", str(out), "--jobs", jobs]) == 0
        outs.append(out)
    for name in ("replications.csv", "summary.csv", "coefficients_lasso.csv", "heatmap_lasso.svg"):
        ref = (outs[0] / name).read_bytes()
        assert (outs[1] / name).read_bytes() == ref
        assert (outs[2] / name).read_bytes() == ref


def test_verify_sets_rerun_and_jobs_invariance(tmp_path):
    cfg = {
        "experiment": "verify-sets",
        "model": {"family": "ou-linear", "d": 2, "A0_diag": [1.0, 2.0]},
        "sampling": {"T": 3.0, "delta_n": 0.05, "substeps": 2},
        "audit": {
            "reps": 4,
            "budget": 8,
            "concentration_ou": {
                "A0_diag": [1.0, 2.0, 3.0], "n": 40, "delta_n": 0.05, "x_grid": [0.1, 0.5], "reps": 100,
            },
        },
        "seed": 12,
    }
    cfg_path = _write_cfg(tmp_path, "c.json", cfg)
    outs = []
    for name, jobs in (("a", "1"), ("b", "1"), ("c", "2")):
        out = tmp_path / name
        assert main(["verify", "--config", cfg_path, "--out", str(out), "--jobs", jobs]) == 0
        outs.append(out)
    for name in ("events.csv", "oracle.csv", "event_summary.csv", "constants.csv", "concentration_ou.csv"):
        ref = (outs[0] / name).read_bytes()
        assert (outs[1] / name).read_bytes() == ref, name
        assert (outs[2] / name).read_bytes() == ref, name


def test_cost_budget_warning_recorded(tmp_path):
    out = tmp_path / "sr"
    cfg = dict(_TINY_SR)
    cfg["replications"] = 1
    cfg["cost_budget"] = 1.0
    assert main(["support-recovery", "--config", _write_cfg(tmp_path, "c.json", cfg), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert any("budget" in w for w in manifest["warnings"])


@pytest.mark.parametrize("budget, warned", [(21839, True), (21840, False)])
def test_cost_budget_counts_the_concentration_audits(tmp_path, budget, warned):
    # d = 2: linear (ceil(0.1 * 400) + 5000 + 2 * (40 + 400)) * 2 = 11840 steps, OU 100 * 50 * 2 = 10000
    cfg = {"experiment": "verify-concentration", "audit": _VERIFY_MATRICES["audit"], "seed": 1, "cost_budget": budget}
    out = tmp_path / "vc"
    assert main(["verify", "--config", _write_cfg(tmp_path, "c.json", cfg), "--out", str(out)]) == 0
    warnings = json.loads((out / "manifest.json").read_text())["warnings"]
    assert warnings == (["projected cost 2.18e+04 fine-step evaluations exceeds budget 2.18e+04"] if warned else [])


@pytest.mark.parametrize("command, paths", [("support-recovery", 2), ("dimension-sweep", 4)])
@pytest.mark.parametrize("over", [True, False], ids=["over", "at"])
def test_cost_budget_counts_each_cosine_path_and_its_burn_in(tmp_path, command, paths, over):
    # n = 40 steps and ceil(0.1 * 40) = 4 burn-in steps, 2 substeps each, d = 2: 176 per path
    projected = paths * (40 + 4) * 2 * 2
    budget = projected - 1 if over else projected
    cfg = {**_TINY_SR, "cost_budget": budget, **({"p_grid": [4, 6]} if command == "dimension-sweep" else {})}
    out = tmp_path / "o"
    assert main([command, "--config", _write_cfg(tmp_path, "c.json", cfg), "--out", str(out)]) == 0
    warnings = json.loads((out / "manifest.json").read_text())["warnings"]
    expected = f"projected cost {projected:.3g} fine-step evaluations exceeds budget {budget:.3g}"
    assert (expected in warnings) == over
    assert sum("projected cost" in w for w in warnings) == int(over)


_OU_2 = {"family": "ou-linear", "d": 2, "A0_diag": [1.0, 2.0]}
_COSINE_COEFFS = [
    f"{kind}_{name}.{ext}"
    for name in ("true", "mle", "lasso")
    for kind, ext in (("coefficients", "csv"), ("heatmap", "svg"))
]


# one small run of each command: (command, config, the files it writes in order)
_COMMAND_RUNS = [
    (
        "simulate",
        {"model": _OU_2, "sampling": {"T": 2.0, "delta_n": 0.05}, "seed": 3},
        ["trajectory.csv", "trajectory.bin", "theta0.csv"],
    ),
    (
        "estimate",
        {key: value for key, value in _TINY_SR.items() if key != "replications"},
        ["estimate_lasso.csv", "estimate_lasso.json", "estimate_mle.csv", "estimate_mle.json", "summary.csv"],
    ),
    (
        "cv",
        {**_TINY_SR, "estimation": {"lambda_grid": [0.4, 0.1]}},
        ["cv.csv", "cv_selected.csv"],
    ),
    (
        "support-recovery",
        {**_TINY_SR, "replications": 1},
        ["replications.csv", "summary.csv"] + _COSINE_COEFFS + ["timings.txt"],
    ),
    (
        "dimension-sweep",
        {**_TINY_SR, "p_grid": [4, 6]},
        ["replications.csv", "sweep.csv", "errors_l1.svg", "errors_l2.svg", "timings.txt"],
    ),
    (
        "rate-study",
        {
            "model": _OU_2,
            "sampling": {"delta_over_t": 2.0},
            "estimation": {"lambda_grid": {"num": 6, "ratio": 0.01}, "cv_folds": 3},
            "replications": 2,
            "t_grid": [10.0, 20.0],
            "seed": 11,
        },
        ["rates.csv", "replications.csv", "fit.csv", "rate.svg", "timings.txt"],
    ),
    (
        "verify",
        {
            "model": _OU_2,
            "sampling": {"T": 3.0, "delta_n": 0.05, "substeps": 2},
            "audit": {"reps": 1, "budget": 8, **_VERIFY_MATRICES["audit"]},
            "seed": 12,
        },
        ["events.csv", "oracle.csv", "event_summary.csv", "constants.csv", "timings.txt"]
        + ["concentration_linear.csv", "concentration_ou.csv"],
    ),
    (
        "constants",
        {"model": _OU_2, "sampling": {"T": 10.0, "delta_n": 0.01}, "seed": 6},
        ["constants.csv"],
    ),
]


@pytest.mark.parametrize("command, cfg, written", _COMMAND_RUNS)
def test_every_command_writes_a_complete_manifest(tmp_path, capsys, command, cfg, written):
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([command, "--config", _write_cfg(tmp_path, "c.json", cfg), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(manifest["files"]) == sorted(written)
    assert sorted(os.listdir(out)) == sorted(written + ["manifest.json"])
    for name, digest in manifest["files"].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name
    if command != "constants":  # constants prints its values, not the files
        printed = capsys.readouterr().out.splitlines()
        assert printed == [f"{out}/{name}" for name in written + ["manifest.json"]]


_SR_COLUMNS = [
    "replication", "estimator", "lambda", "l1_error", "l2_error", "precision", "recall", "f1",
    "sweeps", "kkt_residual", "converged", "support_threshold",
]
_AUDIT_COLUMNS = ["r_or_x", "empirical", "bound", "se", "reps"]
# each command's tables and their columns, in order
_HEADERS = {
    "simulate": {"trajectory.csv": ["t", "x_1", "x_2"], "theta0.csv": ["index", "value"]},
    "estimate": {
        "estimate_lasso.csv": ["index", "value"],
        "estimate_mle.csv": ["index", "value"],
        "summary.csv": ["estimator", "lambda", "l1_error", "l2_error", "f1"],
    },
    "cv": {
        "cv.csv": ["lambda", "mean_score", "fold_0", "fold_1", "fold_2", "fold_3", "fold_4"],
        "cv_selected.csv": ["lambda_star", "short_blocks"],
    },
    "support-recovery": {
        "replications.csv": _SR_COLUMNS,
        "summary.csv": ["estimator", "median_f1", "median_l1", "median_l2", "reps"],
        "coefficients_true.csv": ["index", "value"],
        "coefficients_mle.csv": ["index", "value"],
        "coefficients_lasso.csv": ["index", "value"],
    },
    "dimension-sweep": {
        "replications.csv": ["p"] + _SR_COLUMNS,
        "sweep.csv": ["p", "estimator", "mean_l1", "sd_l1", "mean_l2", "sd_l2", "reps"],
    },
    "rate-study": {
        "rates.csv": ["T", "delta_n", "n", "mean_l1", "mean_l2", "sd_l2", "reps", "regime_value", "regime_tag"],
        "replications.csv": ["T", "replication", "lambda", "l1_error", "l2_error", "sweeps", "kkt_residual", "converged"],
        "fit.csv": ["slope", "intercept", "r2", "regime_warning"],
    },
    "verify": {
        "events.csv": [
            "replication", "stat_T", "stat_Tp", "k_hat", "k_lower", "holds_T", "holds_Tp", "holds_Tpp", "Tpp_certified",
        ],
        "oracle.csv": ["replication", "lhs", "rhs", "holds"],
        "event_summary.csv": ["quantity", "frequency", "target", "reps"],
        "constants.csv": ["name", "value"],
        "concentration_linear.csv": _AUDIT_COLUMNS,
        "concentration_ou.csv": _AUDIT_COLUMNS,
    },
    "constants": {"constants.csv": ["name", "value"]},
}


@pytest.mark.parametrize("command, cfg, written", _COMMAND_RUNS)
def test_every_table_keeps_its_column_order(tmp_path, command, cfg, written):
    out = tmp_path / "out"
    assert main([command, "--config", _write_cfg(tmp_path, "c.json", cfg), "--out", str(out)]) == 0
    headers = {
        name: (out / name).read_text().split("\n", 1)[0].split(",") for name in written if name.endswith(".csv")
    }
    assert headers == _HEADERS[command]


def test_table_header_is_the_rows_keys_and_every_row_repeats_them(tmp_path):
    out = experiments._Outputs(str(tmp_path))
    out.csv("t.csv", [{"a": 1, "b": 0.5}, {"a": 2, "b": True}])
    assert (tmp_path / "t.csv").read_text() == "a,b\n1,0.5\n2,1\n"
    for rows in ([{"a": 1}, {"b": 2}], [{"a": 1, "b": 2}, {"b": 2, "a": 1}], [{"a": 1}, {"a": 1, "b": 2}]):
        with pytest.raises(ValueError, match="bad.csv"):
            out.csv("bad.csv", rows)
    assert out.files == ["t.csv"] and not (tmp_path / "bad.csv").exists()


def test_manifest_lists_files_with_correct_hashes(tmp_path):
    out = tmp_path / "sr"
    cfg = dict(_TINY_SR)
    cfg["replications"] = 1
    main(["support-recovery", "--config", _write_cfg(tmp_path, "c.json", cfg), "--out", str(out)])
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["files"]
    for name, digest in manifest["files"].items():
        actual = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert actual == digest, name
