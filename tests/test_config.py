"""The config schema check against jsonschema, the oracle for ``config.check_schema``."""

import copy
import json

import jsonschema
import pytest
from jsonschema import Draft202012Validator

from sparsedrift.cli import main
from sparsedrift.config import SCHEMA, check_schema
from sparsedrift.errors import ConfigError
from test_cli import _OU_EST, _OU_RATE, _OU_SIM, _TINY_SR

# the package's integer is a Python int; jsonschema's also takes 2.0
_ORACLE = jsonschema.validators.extend(
    Draft202012Validator,
    type_checker=Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda _checker, value: isinstance(value, int) and not isinstance(value, bool)
    ),
)


def _oracle_path(config, schema=SCHEMA):
    """The path ``validate_config`` reported when it ran jsonschema: first error by path,
    an unknown key's path ending in the smallest unknown name; None when valid."""
    errors = sorted(_ORACLE(schema).iter_errors(config), key=lambda e: list(e.absolute_path))
    if not errors:
        return None
    err = errors[0]
    parts = [str(part) for part in err.absolute_path]
    if err.validator == "additionalProperties":
        parts.append(min(set(err.instance) - set(err.schema["properties"])))
    return ".".join(parts) or "<root>"


def _walker_path(config, schema=SCHEMA):
    try:
        check_schema(config, schema)
    except ConfigError as exc:
        return exc.path
    return None


def _matrix(d: int, diag: float = 1.5, off: float = 0.01) -> list:
    return [[diag if i == j else off * (i - j) for j in range(d)] for i in range(d)]


# every key of the schema, each with a valid value
_FULL = {
    "experiment": "support-recovery",
    "seed": 3,
    "replications": 2,
    "jobs": 1,
    "output_dir": "out",
    "cost_budget": 1e9,
    "model": {
        "family": "cosine", "d": 2, "p": 4, "s_anchor": 1.0, "sparsity_fraction": 0.5,
        "nonzero_low": 2.0, "nonzero_high": 3.0, "A0": _matrix(2), "A0_diag": [1.0, 2.0],
    },
    "sampling": {"T": 2.0, "delta_n": 0.05, "delta_over_t": 10.0, "substeps": 2},
    "estimation": {
        "lambda": None, "lambda_grid": {"num": 6, "ratio": 0.05}, "cv_folds": 3, "solver": {"max_sweeps": 100},
    },
    "audit": {
        "epsilon": 0.1, "gamma": 1.0, "k": None, "c_b": 1.0, "M": 1.0, "l": 1.0, "second_moment": 0.5,
        "reps": 2, "budget": 8,
        "concentration_linear": {"A0": _matrix(2), "n": 400, "delta_n": 0.02, "r_grid": [0.0, 0.5], "reps": 2},
        "concentration_ou": {
            "A0": _matrix(3), "A0_diag": [1.0, 2.0], "n": 50, "delta_n": 0.1, "x_grid": [0.5], "reps": 100,
        },
    },
    "p_grid": [4, 6],
    "t_grid": [10.0, 20.0],
}

_VALID = {
    "full": _FULL,
    "tiny-support-recovery": {**_TINY_SR, "experiment": "support-recovery"},
    "ou-simulate": {**_OU_SIM, "experiment": "simulate"},
    "ou-estimate": {**_OU_EST, "experiment": "estimate-single"},
    "ou-rate-study": {**_OU_RATE, "experiment": "rate-study"},
    "fixed-lambda-grid": {**_TINY_SR, "experiment": "cv", "estimation": {"lambda": 0.5, "lambda_grid": [1.0, 0.1]}},
    "bench-cosine-cv": {
        "experiment": "support-recovery",
        "seed": 5,
        "replications": 1,
        "model": {"family": "cosine", "d": 10, "p": 30, "sparsity_fraction": 0.7},
        "sampling": {"T": 7.0, "delta_n": 0.01, "substeps": 10},
        "estimation": {"lambda_grid": {"num": 20, "ratio": 1e-3}, "cv_folds": 5},
    },
    "bench-ou-rate": {
        "experiment": "rate-study",
        "seed": 5,
        "replications": 8,
        "t_grid": [100.0, 1600.0],
        "model": {"family": "ou-linear", "d": 5, "A0_diag": [1.0, 1.5, 2.0, 2.5, 3.0]},
        "sampling": {"delta_over_t": 10.0},
        "estimation": {"lambda_grid": {"num": 20, "ratio": 1e-3}, "cv_folds": 5},
    },
    "bench-verify-audit": {
        "experiment": "verify-sets",
        "seed": 5,
        "model": {"family": "ou-linear", "d": 5, "A0_diag": [1.0, 1.5, 2.0, 2.5, 3.0]},
        "sampling": {"T": 10.0, "delta_n": 0.01, "substeps": 2},
        "audit": {
            "epsilon": 0.1, "gamma": 1.0, "c_b": 1.0, "reps": 100, "budget": 64,
            "concentration_linear": {
                "A0": [[1.0, 0.2], [0.0, 1.0]], "n": 400, "delta_n": 0.02,
                "r_grid": [0.05, 0.1, 0.25, 0.5, 1.0, 2.0], "reps": 200,
            },
            "concentration_ou": {
                "A0": _matrix(64), "n": 500, "delta_n": 0.1, "x_grid": [0.02, 0.05, 0.1, 0.2, 0.5], "reps": 200,
            },
        },
    },
}


def _at(config: dict, path: tuple):
    node = config
    for part in path:
        node = node[part]
    return node


def _set(config: dict, path: tuple, value) -> dict:
    """A deep copy of ``config`` with ``value`` at ``path`` (dict keys and list indices)."""
    out = copy.deepcopy(config)
    _at(out, path[:-1])[path[-1]] = value
    return out


def _drop(config: dict, path: tuple) -> dict:
    out = copy.deepcopy(config)
    del _at(out, path[:-1])[path[-1]]
    return out


def _object_paths(node, path=()):
    """Path of every object in a config, the root included."""
    if isinstance(node, dict):
        yield path
        for key, value in node.items():
            yield from _object_paths(value, path + (key,))


def _bad_matrix(d: int, bad: dict) -> list:
    rows = _matrix(d)
    for (i, j), value in bad.items():
        rows[i][j] = value
    return rows


_INVALID = {
    # type, per type the schema names
    "type-integer-given-string": _set(_FULL, ("model", "d"), "2"),
    "type-number-given-string": _set(_FULL, ("sampling", "T"), "x"),
    "type-string-given-number": _set(_FULL, ("output_dir",), 3),
    "type-object-given-list": _set(_FULL, ("model",), []),
    "type-array-given-object": _set(_FULL, ("p_grid",), {}),
    "type-number-given-bool": _set(_FULL, ("sampling", "T"), True),
    "type-number-item-given-bool": _set(_FULL, ("t_grid",), [10.0, False]),
    "type-integer-given-bool": _set(_FULL, ("seed",), False),
    "type-integer-given-float": _set(_FULL, ("replications",), 2.0),
    "type-matrix-entry-given-string": _set(_FULL, ("model", "A0"), [[1.0, "a"], [0.0, 1.0]]),
    "type-number-entry-given-bool": _set(_FULL, ("model", "A0_diag"), [1.0, True]),
    # bounds
    "minimum": _set(_FULL, ("model", "d"), 0),
    "minimum-item": _set(_FULL, ("p_grid",), [4, 0]),
    "exclusiveMinimum": _set(_FULL, ("sampling", "delta_n"), 0.0),
    "exclusiveMinimum-item": _set(_FULL, ("t_grid",), [1.0, -1.0]),
    "maximum": _set(_FULL, ("model", "sparsity_fraction"), 1.5),
    "exclusiveMaximum": _set(_FULL, ("audit", "epsilon"), 1.0),
    "type-and-minimum-on-one-value": _set(_FULL, ("model", "d"), 0.5),
    # enum, required, minItems
    "enum": _set(_FULL, ("model", "family"), "linear"),
    "enum-given-number": _set(_FULL, ("experiment",), 1),
    "required-root": _drop(_FULL, ("seed",)),
    "required-model": _drop(_FULL, ("model", "family")),
    "required-nested": _drop(_FULL, ("audit", "concentration_ou", "x_grid")),
    "minItems": _set(_FULL, ("model", "A0_diag"), []),
    "minItems-matrix-row": _set(_FULL, ("model", "A0"), [[]]),
    "minItems-matrix": _set(_FULL, ("audit", "concentration_linear", "A0"), []),
    # oneOf with no branch matching
    "oneOf-lambda-negative": _set(_FULL, ("estimation", "lambda"), -1.0),
    "oneOf-lambda-bool": _set(_FULL, ("audit", "k"), True),
    "oneOf-grid-num-zero": _set(_FULL, ("estimation", "lambda_grid"), {"num": 0}),
    "oneOf-grid-string": _set(_FULL, ("estimation", "lambda_grid"), "x"),
    "oneOf-grid-empty-list": _set(_FULL, ("estimation", "lambda_grid"), []),
    # ordering: list indices as ints, sibling keys by name, a container before its fields
    "matrix-rows-9-and-10": _set(
        _FULL, ("audit", "concentration_ou", "A0"), _bad_matrix(12, {(9, 10): True, (10, 9): "x"})
    ),
    "matrix-row-entries-9-and-10": _set(
        _FULL, ("audit", "concentration_ou", "A0"), _bad_matrix(12, {(2, 10): -1, (2, 9): "x"})
    ),
    "list-entries-9-and-10": _set(_FULL, ("t_grid",), [1.0] * 9 + [0.0, "x"]),
    "siblings-by-name": _set(_set(_FULL, ("model", "d"), 0), ("model", "A0_diag"), []),
    "unknown-key-before-field": _set(_set(_FULL, ("model", "d"), 0), ("model", "zz"), 1),
    "missing-and-unknown-on-one-object": _set(_drop(_FULL, ("model", "d")), ("model", "zz"), 1),
    "missing-and-unknown-on-root": _set(_drop(_FULL, ("seed",)), ("aa",), 1),
    "two-unknown-keys": _set(_set(_FULL, ("sampling", "x0"), 0.0), ("sampling", "burn_in"), 1),
    **{
        f"unknown-key-at-{'.'.join(path) or 'root'}": _set(_FULL, path + ("zz_unknown",), 1)
        for path in _object_paths(_FULL)
    },
}


@pytest.mark.parametrize("name", sorted(_VALID))
def test_oracle_and_walker_accept_valid_configs(name):
    assert _oracle_path(_VALID[name]) is None
    assert _walker_path(_VALID[name]) is None


@pytest.mark.parametrize("name", sorted(_INVALID))
def test_oracle_and_walker_reject_with_one_path(name):
    want = _oracle_path(_INVALID[name])
    assert want is not None
    assert _walker_path(_INVALID[name]) == want


def test_unknown_key_mutants_reach_every_object():
    names = [name for name in _INVALID if name.startswith("unknown-key-at-")]
    assert len(names) == 9  # root, model, sampling, estimation (+ lambda_grid, solver), audit (+ 2 blocks)


def test_non_finite_numbers_pass_both_checks():
    # load_config rejects these literals; called directly, both checks take them as numbers
    nan, inf = float("nan"), float("inf")
    for path, value in [(("t_grid",), [nan, inf]), (("sampling", "T"), nan), (("model", "A0"), [[inf, -inf], [nan, 1.0]])]:
        cfg = _set(_FULL, path, value)
        assert _oracle_path(cfg) is None and _walker_path(cfg) is None


_OVERLAP = {
    "type": "object",
    "properties": {"v": {"oneOf": [{"type": "number"}, {"type": "integer", "minimum": 0}]}},
}


@pytest.mark.parametrize("value, matches", [(3, 2), (-3, 1), (3.5, 1), ("x", 0), (True, 0)])
def test_one_of_with_zero_one_or_two_matches(value, matches):
    want = None if matches == 1 else "v"
    assert _oracle_path({"v": value}, _OVERLAP) == want
    assert _walker_path({"v": value}, _OVERLAP) == want


def test_walker_rejects_a_keyword_it_does_not_know():
    with pytest.raises(KeyError, match="pattern"):
        check_schema("x", {"type": "string", "pattern": "^x$"})


# ---------------------------------------------------------------------------
# Integer keys: a float is not an integer
# ---------------------------------------------------------------------------


def _integer_keys(schema: dict, path=(), reported=None):
    """(key path, path the error names) of every ``integer`` in ``schema``.

    Array items get index 0; inside a ``oneOf`` the error names the ``oneOf``'s path.
    """
    if schema.get("type") == "integer":
        yield path, reported or path
    for name, sub in schema.get("properties", {}).items():
        yield from _integer_keys(sub, path + (name,), reported)
    if "items" in schema:
        yield from _integer_keys(schema["items"], path + (0,), reported)
    for sub in schema.get("oneOf", ()):
        yield from _integer_keys(sub, path, reported or path)


_INTEGER_KEYS = list(_integer_keys(SCHEMA))


def test_integer_keys_cover_each_kind_of_place():
    keys = {path for path, _ in _INTEGER_KEYS}
    assert {("seed",), ("model", "d"), ("p_grid", 0), ("estimation", "lambda_grid", "num")} <= keys


@pytest.mark.parametrize("key, reported", _INTEGER_KEYS, ids=[".".join(map(str, k)) for k, _ in _INTEGER_KEYS])
def test_integer_key_given_as_float_exit_2_names_its_path(tmp_path, capsys, key, reported):
    cfg = _set(_FULL, key, float(_at(_FULL, key)))
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    code = main(["support-recovery", "--config", str(path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert f"config error: {'.'.join(map(str, reported))}:" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()
