"""Experiment configuration: schema, its check, loading, and dotted-path overrides.

A configuration is a single JSON object; unknown keys are rejected.  ``SCHEMA``
is written in JSON Schema (draft 2020-12) and checked by a small walker that
knows only the keywords it uses; an ``integer`` there is a Python int, so
``2.0`` is not one.  ``KINDS`` says what each experiment kind needs beyond
the schema (a model of which family, the sampling keys, a grid, a
concentration block), and ``check_kind`` holds a config to one of its rows.
The CLI can override individual keys with ``--set model.d=20`` style flags,
where the value is parsed as JSON when possible and taken as a string
otherwise.
"""

from __future__ import annotations

import json
import operator
from typing import Any, NamedTuple

import numpy as np

from .errors import ConfigError
from .rng import SEED_MAX


class Kind(NamedTuple):
    """What an experiment kind needs of a config beyond the schema (``check_kind``)."""

    family: str | None  # its model's drift family, "any", or None when it needs no model
    sampling: tuple[tuple[str, ...], ...]  # sampling keys that fix delta_n: all of one of these sets
    grid: str | None = None  # the top-level list it sweeps
    concentration: bool = False  # needs an audit.concentration_linear or concentration_ou block


_T_AND_DELTA = (("T", "delta_n"),)

# each experiment kind and what it needs; SCHEMA's experiment enum is these keys
KINDS = {
    "support-recovery": Kind("cosine", _T_AND_DELTA),
    "dimension-sweep": Kind("cosine", _T_AND_DELTA, grid="p_grid"),
    "rate-study": Kind("ou-linear", (("delta_n",), ("delta_over_t",)), grid="t_grid"),  # T from t_grid
    "verify-sets": Kind("ou-linear", _T_AND_DELTA),
    "verify-concentration": Kind(None, (), concentration=True),
    "estimate-single": Kind("any", _T_AND_DELTA),
    "simulate": Kind("any", _T_AND_DELTA),
    "cv": Kind("any", _T_AND_DELTA),
}


_POS_NUM = {"type": "number", "exclusiveMinimum": 0}
_NONNEG_NUM = {"type": "number", "minimum": 0}

_MATRIX = {
    "type": "array",
    "minItems": 1,
    "items": {"type": "array", "minItems": 1, "items": {"type": "number"}},
}

_MODEL = {
    "type": "object",
    "additionalProperties": False,
    "required": ["family", "d"],
    "properties": {
        "family": {"enum": ["cosine", "ou-linear"]},
        "d": {"type": "integer", "minimum": 1},
        "p": {"type": "integer", "minimum": 1},
        "s_anchor": _POS_NUM,
        "sparsity_fraction": {"type": "number", "minimum": 0, "maximum": 1},
        "nonzero_low": {"type": "number"},
        "nonzero_high": {"type": "number"},
        "A0": _MATRIX,
        "A0_diag": {"type": "array", "minItems": 1, "items": {"type": "number"}},
    },
}

_SAMPLING = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "T": _POS_NUM,
        "delta_n": _POS_NUM,
        "delta_over_t": _POS_NUM,
        "substeps": {"type": "integer", "minimum": 1},
    },
}

_SOLVER = {
    "type": "object",
    "additionalProperties": False,
    "properties": {"max_sweeps": {"type": "integer", "minimum": 1}},
}

_ESTIMATION = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "lambda": {"oneOf": [_POS_NUM, {"type": "null"}]},
        "lambda_grid": {
            "oneOf": [
                {"type": "array", "minItems": 1, "items": _POS_NUM},
                {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "num": {"type": "integer", "minimum": 1},
                        "ratio": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
                    },
                },
            ]
        },
        "cv_folds": {"type": "integer", "minimum": 2},
        "solver": _SOLVER,
    },
}

_CONC_LINEAR = {
    "type": "object",
    "additionalProperties": False,
    "required": ["A0", "n", "delta_n", "r_grid", "reps"],
    "properties": {
        "A0": _MATRIX,
        "n": {"type": "integer", "minimum": 2},
        "delta_n": _POS_NUM,
        "r_grid": {"type": "array", "minItems": 1, "items": _NONNEG_NUM},
        "reps": {"type": "integer", "minimum": 1},
    },
}

_CONC_OU = {
    "type": "object",
    "additionalProperties": False,
    "required": ["n", "delta_n", "x_grid", "reps"],
    "properties": {
        "A0": _MATRIX,
        "A0_diag": {"type": "array", "minItems": 1, "items": {"type": "number"}},
        "n": {"type": "integer", "minimum": 2},
        "delta_n": _POS_NUM,
        "x_grid": {"type": "array", "minItems": 1, "items": _POS_NUM},
        "reps": {"type": "integer", "minimum": 100},
    },
}

_AUDIT = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "epsilon": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
        "gamma": _POS_NUM,
        "k": {"oneOf": [_POS_NUM, {"type": "null"}]},
        "c_b": _POS_NUM,
        "M": _POS_NUM,
        "l": _POS_NUM,
        "second_moment": _NONNEG_NUM,
        "reps": {"type": "integer", "minimum": 1},
        "budget": {"type": "integer", "minimum": 1},
        "concentration_linear": _CONC_LINEAR,
        "concentration_ou": _CONC_OU,
    },
}

SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "required": ["experiment", "seed"],
    "properties": {
        "experiment": {"enum": list(KINDS)},
        "seed": {"type": "integer", "minimum": 0, "maximum": SEED_MAX},
        "replications": {"type": "integer", "minimum": 1},
        "jobs": {"type": "integer", "minimum": 1},
        "output_dir": {"type": "string"},
        "cost_budget": _POS_NUM,
        "model": _MODEL,
        "sampling": _SAMPLING,
        "estimation": _ESTIMATION,
        "audit": _AUDIT,
        "p_grid": {"type": "array", "minItems": 1, "items": {"type": "integer", "minimum": 1}},
        "t_grid": {"type": "array", "minItems": 1, "items": _POS_NUM},
    },
}

DEFAULTS: dict[str, Any] = {
    "replications": 1,
    "jobs": 1,
    "cost_budget": 5e9,  # projected fine-step evaluations before a warning
    "sampling": {"substeps": 10},
    "estimation": {
        "lambda": None,
        "lambda_grid": {"num": 20, "ratio": 1e-3},
        "cv_folds": 5,
        "solver": {},  # max_sweeps, passed to estimate.lasso_path, whose default it keeps
    },
    "audit": {
        "epsilon": 0.1,
        "gamma": 1.0,
        "k": None,
        "c_b": 1.0,
        "M": 1.0,
        "l": 1.0,
        "reps": 200,
        "budget": 128,
    },
    "model": {
        "sparsity_fraction": 0.7,
        "nonzero_low": 2.0,
        "nonzero_high": 3.0,
    },
}


def _merge_defaults(config: dict, defaults: dict) -> dict:
    out = dict(config)
    for key, val in defaults.items():
        if key not in out:
            out[key] = val
        elif isinstance(val, dict) and isinstance(out[key], dict):
            out[key] = _merge_defaults(out[key], val)
    return out


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


_TYPES = {
    "object": lambda value: isinstance(value, dict),
    "array": lambda value: isinstance(value, list),
    "string": lambda value: isinstance(value, str),
    "null": lambda value: value is None,
    "number": _is_number,
    "integer": lambda value: isinstance(value, int) and not isinstance(value, bool),
}

# bound keyword -> (fails(value, bound), message); bounds apply to numbers only
_BOUNDS = {
    "minimum": (operator.lt, "is less than the minimum of"),
    "exclusiveMinimum": (operator.le, "is less than or equal to the minimum of"),
    "maximum": (operator.gt, "is greater than the maximum of"),
    "exclusiveMaximum": (operator.ge, "is greater than or equal to the maximum of"),
}

# arrays of these items (matrix rows) are checked by the classes they hold, not entry by entry
_PLAIN_NUMBER = {"type": "number"}


def _schema_errors(schema: dict, value, path: tuple, out: list) -> None:
    """Append ``(path, reported path, message)`` for each keyword of ``schema`` that ``value`` fails.

    Keywords are checked in the schema's dict order, and children depth first,
    which is the order jsonschema yields its errors in.  The reported path of
    an unknown key ends in the smallest unknown name.
    """
    for key, arg in schema.items():
        if key == "type":
            if not _TYPES[arg](value):
                out.append((path, path, f"{value!r} is not of type {arg!r}"))
        elif key in _BOUNDS:
            fails, message = _BOUNDS[key]
            if _is_number(value) and fails(value, arg):
                out.append((path, path, f"{value!r} {message} {arg!r}"))
        elif key == "enum":
            if value not in arg:
                out.append((path, path, f"{value!r} is not one of {arg!r}"))
        elif key == "oneOf":
            matches = 0
            for sub in arg:
                sub_errors: list = []
                _schema_errors(sub, value, path, sub_errors)
                matches += not sub_errors
            if matches != 1:
                how = "is not valid under any" if matches == 0 else "is valid under more than one"
                out.append((path, path, f"{value!r} {how} of the given schemas"))
        elif key == "properties":
            if isinstance(value, dict):
                for name, sub in arg.items():
                    if name in value:
                        _schema_errors(sub, value[name], path + (name,), out)
        elif key == "required":
            if isinstance(value, dict):
                for name in arg:
                    if name not in value:
                        out.append((path, path, f"{name!r} is a required property"))
        elif key == "additionalProperties" and arg is False:
            if isinstance(value, dict):
                unknown = sorted(value.keys() - schema.get("properties", {}).keys())
                if unknown:
                    names = ", ".join(map(repr, unknown))
                    out.append((path, path + (unknown[0],), f"unknown key{'s' * (len(unknown) > 1)} {names}"))
        elif key == "minItems":
            if isinstance(value, list) and len(value) < arg:
                out.append((path, path, f"{value!r} has fewer than {arg} items"))
        elif key == "items":
            if isinstance(value, list) and not (arg == _PLAIN_NUMBER and {*map(type, value)} <= {int, float}):
                for i, item in enumerate(value):
                    _schema_errors(arg, item, path + (i,), out)
        elif key != "$schema":
            raise KeyError(f"schema keyword {key!r}: {arg!r} is not supported")


def check_schema(config, schema: dict = SCHEMA) -> None:
    """ConfigError naming the first failing field of ``config`` under ``schema``.

    The first error is the one whose container path is smallest (list indices
    compare as ints); ties on one object go to the keyword the schema lists first.
    """
    errors: list = []
    _schema_errors(schema, config, (), errors)
    if errors:
        _, path, message = min(errors, key=lambda err: err[0])
        raise ConfigError(message, path=".".join(map(str, path)) or "<root>")


def validate_config(config: dict) -> dict:
    """Schema-check, then fill defaults; raises ConfigError with a field path."""
    check_schema(config)
    merged = _merge_defaults(config, DEFAULTS)
    _check_semantics(merged)
    return merged


def _check_semantics(cfg: dict) -> None:
    check_kind(cfg, cfg["experiment"])
    model = cfg["model"]
    family = model.get("family")
    if family == "cosine":
        low, high = model["nonzero_low"], model["nonzero_high"]
        if min(low, high) <= 0.0 <= max(low, high):
            raise ConfigError(
                f"nonzero range [{low!r}, {high!r}] contains 0, so a drawn nonzero may be 0",
                path="model.nonzero_low",
            )
    if family == "ou-linear":
        interaction_matrix(model)
    for name in ("concentration_linear", "concentration_ou"):
        if name in cfg["audit"]:
            config_matrix(cfg["audit"][name], f"audit.{name}")


def check_kind(cfg: dict, kind: str) -> None:
    """ConfigError naming the first input that experiment ``kind`` needs (its ``KINDS`` row) and ``cfg`` lacks.

    A model given to a kind that needs none is still held to its family: a
    cosine model needs p unless the kind sweeps p_grid.
    """
    need = KINDS[kind]
    family = cfg["model"].get("family")
    if need.family is not None and family is None:
        raise ConfigError(f"{kind} requires a model block", path="model")
    if need.family not in (None, "any", family):
        raise ConfigError(f"{kind} requires the {need.family} family, got {family}", path="model.family")
    if family == "cosine" and need.grid != "p_grid" and "p" not in cfg["model"]:
        raise ConfigError(f"{kind} on the cosine family requires p", path="model.p")
    sampling = cfg["sampling"]
    if need.sampling and not any(all(key in sampling for key in keys) for keys in need.sampling):
        wanted = " or ".join(" and ".join(f"sampling.{key}" for key in keys) for keys in need.sampling)
        raise ConfigError(f"{kind} requires {wanted}", path="sampling")
    if need.grid is not None and need.grid not in cfg:
        raise ConfigError(f"{kind} requires {need.grid}", path=need.grid)
    if need.grid == "t_grid" and len(set(cfg["t_grid"])) < 2:
        raise ConfigError(f"{kind} needs at least 2 distinct horizons to fit a slope", path="t_grid")
    if need.concentration and not cfg["audit"].keys() & {"concentration_linear", "concentration_ou"}:
        raise ConfigError(f"{kind} needs audit.concentration_linear or audit.concentration_ou", path="audit")


class _NonFinite(ValueError):
    """A NaN, Infinity or -Infinity literal, which Python's json accepts and JSON does not."""


def _reject_constant(name: str):
    raise _NonFinite(f"non-finite number {name} is not allowed")


def load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh, parse_constant=_reject_constant)
    except _NonFinite as exc:
        raise ConfigError(str(exc), path=path) from exc
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8, or not JSON
        raise ConfigError(f"not a readable JSON file: {exc}", path=path) from exc
    if not isinstance(raw, dict):
        raise ConfigError("top-level config must be an object", path=path)
    return raw


def parse_override(item: str) -> tuple[list[str], Any]:
    if "=" not in item:
        raise ConfigError(f"override {item!r} must look like key=value")
    key, _, raw = item.partition("=")
    try:
        value = json.loads(raw, parse_constant=_reject_constant)
    except _NonFinite as exc:
        raise ConfigError(str(exc), path=key) from exc
    except json.JSONDecodeError:
        value = raw
    return key.split("."), value


def apply_overrides(config: dict, overrides: list[str]) -> dict:
    out = json.loads(json.dumps(config))  # deep copy, JSON-plain
    for item in overrides:
        path, value = parse_override(item)
        node = out
        for part in path[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError("cannot descend into non-object", path=".".join(path))
        node[path[-1]] = value
    return out


def config_matrix(block: dict, path: str, d: int | None = None) -> np.ndarray:
    """A config block's matrix: A0, else diag(A0_diag); ConfigError unless square (and d x d)."""
    field = "A0" if "A0" in block else "A0_diag"
    if field not in block:
        raise ConfigError("needs A0 or A0_diag", path=f"{path}.A0")
    rows = block["A0"] if field == "A0" else np.diag(block["A0_diag"])
    size = d or len(rows)
    lengths = [len(row) for row in rows]
    if lengths != [size] * size:
        message = f"must be a {size} x {size} matrix, got rows of lengths {lengths}"
        raise ConfigError(message, path=f"{path}.{field}")
    return np.array(rows, dtype=float)


def interaction_matrix(model: dict) -> np.ndarray:
    return config_matrix(model, "model", model["d"])


def fit_folds(est: dict) -> int:
    """CV blocks of a fit: ``cv_folds`` when CV picks lambda, 1 when ``estimation.lambda`` is set."""
    return est["cv_folds"] if est["lambda"] is None else 1


def check_steps(n: int, folds: int, path: str, subject: str) -> None:
    """ConfigError at ``path`` when n steps are fewer than 2 or than ``folds``, the fit's CV blocks."""
    need = max(folds, 2)
    if n < need:
        for_cv = f" for {folds}-fold CV" if folds > 1 else ""
        raise ConfigError(f"{subject} gives n = {n} steps, need at least {need}{for_cv}", path=path)


def steps_from_sampling(sampling: dict, folds: int = 1) -> tuple[int, float]:
    """(n, delta_n) from the sampling block (T rounded to a whole step count).

    n must be at least 2 and at least ``folds``, the CV blocks of the fit
    that will use the path; else a ConfigError at sampling.T.
    """
    delta_n = sampling["delta_n"]
    n = int(round(sampling["T"] / delta_n))
    check_steps(n, folds, "sampling.T", "T / delta_n")
    return n, delta_n
