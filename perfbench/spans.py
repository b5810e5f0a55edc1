"""In-memory span recorder and the layer wrappers of the traced run.

A traced execution replaces each layer function listed in ``LAYER_FUNCTIONS``
with a wrapper at every module attribute that binds it (``estimate.lasso_solve``
and ``experiments.lasso_solve`` alike), runs the experiment, and restores the
originals.  Each wrapped call opens a span; a span's self time is its duration
minus the durations of its child spans.  Counts marked *computed* are
derived from call arguments or results, not measured.

Only traced executions import this module; untraced timings carry no
tracing cost.
"""

from __future__ import annotations

import importlib
import inspect
import math
import os
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, NamedTuple

_WRAPPED_MARK = "__perfbench_original__"


class Span(NamedTuple):
    sid: int
    parent: int | None
    name: str
    start: float
    end: float


class SpanRecorder:
    """Spans of one request (one experiment execution), kept in memory."""

    def __init__(self, trace_id: str, clock: Callable[[], float] = time.perf_counter):
        self.trace_id = trace_id
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.lyapunov_dims: Counter = Counter()
        self._stack: list[tuple[int, str, float]] = []
        self._next_id = 0

    def innermost(self) -> str | None:
        return self._stack[-1][1] if self._stack else None

    def open(self, name: str) -> None:
        self._stack.append((self._next_id, name, self.clock()))
        self._next_id += 1

    def close(self) -> None:
        end = self.clock()
        sid, name, start = self._stack.pop()
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append(Span(sid, parent, name, start, end))


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the durations of its child spans.

    A recorder's spans nest (calls are single-threaded and closed in stack
    order), so children neither overlap nor outlast their parent.
    """
    own = {span.sid: span.end - span.start for span in spans}
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.end - span.start
    return own


def self_time_by_name(spans: list[Span]) -> dict[str, float]:
    own = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for span in spans:
        out[span.name] += own[span.sid]
    return dict(out)


# ---------------------------------------------------------------------------
# Counters derived from call arguments and results (all "computed")
# ---------------------------------------------------------------------------

_F64 = 8


def _record_flags(record) -> tuple[bool, bool]:
    return (bool(record.noise), bool(record.fine)) if record is not None else (False, False)


def _count_linear_sampler(rec: SpanRecorder, args: dict, result) -> None:
    n, m, d = args["n"], args["substeps"], args["basis"].d
    steps = (args["burn_in"] + n) * m
    noise, fine = _record_flags(args["record"])
    values = steps * d + (n * d if noise else 0) + (n * (m + 1) * d if fine else 0)
    _add_sampler(rec, steps, d, values)


def _count_ou_sampler(rec: SpanRecorder, args: dict, result) -> None:
    n, m, d = args["n"], args["substeps"], args["A"].shape[0]
    steps = n * m
    noise, fine = _record_flags(args["record"])
    # eta; with noise recording also the auxiliary draws, the fine increments
    # and their coarse sums; with fine recording the fine sub-path
    values = steps * d
    values += (2 * steps * d + n * d) if noise else 0
    values += n * (m + 1) * d if fine else 0
    _add_sampler(rec, steps, d, values)


def _count_ou_block_sums(rec: SpanRecorder, args: dict, result) -> None:
    # the rate study's exact-OU stepping: one eta draw per step and replication
    steps, d = args["n"] * len(args["rep_seeds"]), args["a_mat"].shape[0]
    _add_sampler(rec, steps, d, steps * d)


def _count_euler_path(rec: SpanRecorder, args: dict, result) -> None:
    increments = args["increments"]
    _add_sampler(rec, increments.shape[0], increments.shape[1], 0)


def _add_sampler(rec: SpanRecorder, steps: int, d: int, values: int) -> None:
    rec.counts["fine_steps"] += steps
    rec.counts["step_dims"] += steps * d
    rec.counts["noise_bytes"] += values * _F64


def _count_lyapunov(rec: SpanRecorder, args: dict, result) -> None:
    rec.lyapunov_dims[int(result.shape[0])] += 1


def _count_phi_rows(rec: SpanRecorder, args: dict, result) -> None:
    rec.counts["phi_rows"] += int(result.shape[0])


def _count_solve(rec: SpanRecorder, args: dict, result) -> None:
    rec.counts["lasso_solves"] += 1
    rec.counts["sweeps"] += int(result.sweeps_used)
    rec.counts["unconverged"] += 0 if result.converged else 1


def _count_cone_directions(rec: SpanRecorder, args: dict, result) -> None:
    rec.counts["cone_directions"] += int(args["budget"])


def _count_linear_concentration(rec: SpanRecorder, args: dict, result) -> None:
    n, m = args["n"], args["substeps"]
    burn = args["burn_in"] if args["burn_in"] is not None else math.ceil(0.1 * n)
    calib = args["calibration_steps"] or max(4 * n, 5000)
    # one calibration replication, then the audited replications
    rec.counts["concentration_steps"] += (burn + calib) * m + args["reps"] * (burn + n) * m


def _count_ou_concentration(rec: SpanRecorder, args: dict, result) -> None:
    rec.counts["concentration_steps"] += args["reps"] * args["n"]


def _count_csv_bytes(rec: SpanRecorder, args: dict, result) -> None:
    rec.counts["output_bytes"] += os.path.getsize(args["path"])


def _count_manifest_bytes(rec: SpanRecorder, args: dict, result) -> None:
    rec.counts["output_bytes"] += os.path.getsize(result)


def _count_svg_bytes(rec: SpanRecorder, args: dict, result) -> None:
    rec.counts["output_bytes"] += len(result.encode())


@dataclass(frozen=True)
class LayerFunction:
    module: str
    attr: str  # "name" or "Class.method"
    span: str
    count: Callable[[SpanRecorder, dict, object], None] | None = None
    needs_args: bool = True
    # a call made while this span is innermost is counted but opens no span
    # of its own, so its time stays in the enclosing span
    fold_into: str | None = None


LAYER_FUNCTIONS = (
    LayerFunction("sparsedrift.model", "DriftBasis.phi_batch", "model.phi_batch", _count_phi_rows, False),
    LayerFunction("sparsedrift.simulate", "simulate_linear", "simulate.sampler", _count_linear_sampler),
    LayerFunction("sparsedrift.simulate", "simulate_ou_exact", "simulate.sampler", _count_ou_sampler),
    LayerFunction("sparsedrift.simulate", "euler_path", "simulate.sampler", _count_euler_path),
    LayerFunction("sparsedrift.simulate", "stationary_covariance", "simulate.lyapunov", _count_lyapunov, False),
    LayerFunction("sparsedrift.estimate", "gram_blocks", "estimate.gram"),
    LayerFunction("sparsedrift.estimate", "cross_validate", "estimate.cv"),
    # CV fold fits are CV work; only solves outside cross_validate are estimate.lasso spans
    LayerFunction("sparsedrift.estimate", "lasso_solve", "estimate.lasso", _count_solve, False, "estimate.cv"),
    LayerFunction("sparsedrift.estimate", "mle_solve", "estimate.mle"),
    LayerFunction("sparsedrift.theory", "event_statistics", "theory.event_statistics", _count_cone_directions),
    LayerFunction("sparsedrift.theory", "concentration_audit_linear", "theory.concentration", _count_linear_concentration),
    LayerFunction("sparsedrift.theory", "concentration_audit_ou", "theory.concentration", _count_ou_concentration),
    LayerFunction("sparsedrift.metrics", "error_norms", "metrics.self"),
    LayerFunction("sparsedrift.metrics", "support_score", "metrics.self"),
    LayerFunction("sparsedrift.metrics", "rate_fit", "metrics.self"),
    LayerFunction("sparsedrift.experiments", "_ou_block_sums_batch", "experiments.ou_block_sums", _count_ou_block_sums),
    LayerFunction("sparsedrift.experiments", "_ou_cv_fit", "experiments.ou_cv_fit"),
    LayerFunction("sparsedrift.experiments", "write_csv", "experiments.output", _count_csv_bytes),
    LayerFunction("sparsedrift.experiments", "write_manifest", "experiments.output", _count_manifest_bytes, False),
    LayerFunction("sparsedrift.svgplot", "heatmap_svg", "experiments.output", _count_svg_bytes, False),
    LayerFunction("sparsedrift.svgplot", "line_chart_svg", "experiments.output", _count_svg_bytes, False),
)

# the runner call itself; its self time is the experiments layer's own work
ROOT_SPAN = "experiments.self"


def _make_wrapper(original: Callable, spec: LayerFunction, rec: SpanRecorder) -> Callable:
    signature = inspect.signature(original)
    span, count, fold_into = spec.span, spec.count, spec.fold_into

    def wrapper(*args, **kwargs):
        opened = fold_into is None or rec.innermost() != fold_into
        if opened:
            rec.open(span)
        try:
            result = original(*args, **kwargs)
        finally:
            if opened:
                rec.close()
        if count is not None:
            bound = None
            if spec.needs_args:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                bound = bound.arguments
            count(rec, bound, result)
        return result

    wrapper.__name__ = original.__name__
    wrapper.__qualname__ = original.__qualname__
    setattr(wrapper, _WRAPPED_MARK, original)
    return wrapper


def _package_modules() -> list:
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "sparsedrift" or name.startswith("sparsedrift."))
    ]


class LayerPatch:
    """Installs the wrappers of ``LAYER_FUNCTIONS`` and restores the originals.

    A layer function the package no longer has is skipped and listed in
    ``missing``; its metrics then read 0.
    """

    def __init__(self, rec: SpanRecorder):
        self.rec = rec
        self.replaced: list[tuple[object, str, Callable]] = []
        self.missing: list[str] = []

    def install(self) -> None:
        for spec in LAYER_FUNCTIONS:
            importlib.import_module(spec.module)
        modules = _package_modules()
        for spec in LAYER_FUNCTIONS:
            try:
                owner, name = _owner(spec)
                original = getattr(owner, name)
            except AttributeError:
                self.missing.append(f"{spec.module}.{spec.attr}")
                continue
            wrapper = _make_wrapper(original, spec, self.rec)
            if "." in spec.attr:
                bindings = [(owner, name)]  # a method lives on its class only
            else:
                bindings = [
                    (mod, attr)
                    for mod in modules
                    for attr, value in vars(mod).items()
                    if value is original
                ]
            for target, attr in bindings:
                setattr(target, attr, wrapper)
                self.replaced.append((target, attr, original))

    def restore(self) -> None:
        replaced, self.replaced = self.replaced, []
        for target, attr, original in reversed(replaced):
            setattr(target, attr, original)
        leftover = [
            f"{getattr(target, '__name__', target)}.{attr}"
            for target, attr, original in replaced
            if getattr(target, attr) is not original
        ]
        leftover += [
            f"{mod.__name__}.{attr}"
            for mod in _package_modules()
            for attr, value in vars(mod).items()
            if hasattr(value, _WRAPPED_MARK)
        ]
        if leftover:
            raise RuntimeError(f"layer wrappers left installed: {', '.join(leftover)}")


def _owner(spec: LayerFunction) -> tuple[object, str]:
    """(object holding the attribute, attribute name) for a layer function."""
    *path, name = spec.attr.split(".")
    owner = sys.modules[spec.module]
    for part in path:
        owner = getattr(owner, part)
    return owner, name


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced execution
# ---------------------------------------------------------------------------

TIMED_SPANS = (
    "simulate.sampler",
    "simulate.lyapunov",
    "model.phi_batch",
    "estimate.gram",
    "estimate.cv",
    "estimate.lasso",
    "estimate.mle",
    "theory.event_statistics",
    "theory.concentration",
    "experiments.ou_block_sums",
    "experiments.ou_cv_fit",
    "experiments.output",
    ROOT_SPAN,
    "metrics.self",
)


def layer_metrics(rec: SpanRecorder) -> dict[str, float]:
    """Per-layer metrics of one traced execution (times in seconds)."""
    by_name = self_time_by_name(rec.spans)
    out = {f"{name}_s": by_name.get(name, 0.0) for name in TIMED_SPANS}
    c = rec.counts
    solves = c["lasso_solves"]
    out.update(
        {
            "simulate.fine_steps": c["fine_steps"],
            # the rate study steps in its private helper; its time is stepping time too
            "simulate.ns_per_step_dim": (
                1e9 * (out["simulate.sampler_s"] + out["experiments.ou_block_sums_s"]) / c["step_dims"]
                if c["step_dims"]
                else 0.0
            ),
            "simulate.noise_mb": c["noise_bytes"] / 2**20,
            "simulate.lyapunov_calls": sum(rec.lyapunov_dims.values()),
            "model.phi_rows": c["phi_rows"],
            "estimate.lasso_solves": solves,
            "estimate.sweeps": c["sweeps"],
            "estimate.sweeps_per_solve": c["sweeps"] / solves if solves else 0.0,
            "estimate.unconverged_share": c["unconverged"] / solves if solves else 0.0,
            "theory.cone_directions": c["cone_directions"],
            "theory.concentration_steps": c["concentration_steps"],
            "experiments.output_bytes": c["output_bytes"],
        }
    )
    return out
