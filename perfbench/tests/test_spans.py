"""Span arithmetic, layer wrapping and computed counts."""

import numpy as np
import pytest

import spans
from spans import LayerPatch, Span, SpanRecorder, self_time_by_name, self_times


def test_self_time_subtracts_child_durations():
    recorded = [
        Span(0, None, "root", 0.0, 10.0),
        Span(1, 0, "a", 1.0, 4.0),
        Span(2, 0, "b", 5.0, 6.0),
        Span(3, 1, "c", 2.0, 3.0),
    ]
    own = self_times(recorded)
    assert own[0] == pytest.approx(10.0 - 3.0 - 1.0)
    assert own[1] == pytest.approx(3.0 - 1.0)
    assert own[2] == pytest.approx(1.0)
    assert own[3] == pytest.approx(1.0)


def test_self_time_by_name_sums_spans_of_one_name():
    recorded = [
        Span(0, None, "root", 0.0, 10.0),
        Span(1, 0, "x", 1.0, 2.0),
        Span(2, 0, "x", 4.0, 7.0),
    ]
    assert self_time_by_name(recorded) == pytest.approx({"root": 6.0, "x": 4.0})


def test_recorder_links_children_to_parents():
    ticks = iter([0.0, 1.0, 3.0, 10.0])
    rec = SpanRecorder("t", clock=lambda: next(ticks))
    rec.open("root")
    rec.open("child")
    rec.close()
    rec.close()
    child, root = rec.spans
    assert (child.name, child.parent, child.start, child.end) == ("child", root.sid, 1.0, 3.0)
    assert root.parent is None
    assert self_time_by_name(rec.spans) == {"root": 8.0, "child": 2.0}


def _bindings(name):
    import sys

    return {
        mod_name: getattr(mod, name)
        for mod_name, mod in sys.modules.items()
        if mod_name.startswith("sparsedrift") and mod is not None and name in vars(mod)
    }


def test_patch_wraps_every_binding_and_restores_originals():
    import sparsedrift
    from sparsedrift import estimate, experiments, model

    before = _bindings("lasso_solve")
    assert {"sparsedrift", "sparsedrift.estimate", "sparsedrift.experiments", "sparsedrift.theory"} <= set(before)
    phi_batch = model.DriftBasis.phi_batch
    patch = LayerPatch(SpanRecorder("t"))
    patch.install()
    try:
        for name, value in _bindings("lasso_solve").items():
            assert value is not before[name], name
        assert experiments.lasso_solve is estimate.lasso_solve
        assert model.DriftBasis.phi_batch is not phi_batch
    finally:
        patch.restore()
    assert _bindings("lasso_solve") == before
    assert all(value is sparsedrift.estimate.lasso_solve for value in before.values())
    assert model.DriftBasis.phi_batch is phi_batch


def _tiny_trajectory(record=None):
    from sparsedrift.model import cosine_basis
    from sparsedrift.simulate import simulate_linear

    basis = cosine_basis(2, 3, 0.5)
    traj, rec = simulate_linear(
        basis, np.array([1.0, 0.0, 0.5]), 0.0, n=40, delta_n=0.05, substeps=3, seed=7, burn_in=5, record=record
    )
    return basis, traj, rec


def test_fold_fits_stay_in_the_cv_span_and_are_counted():
    from sparsedrift import estimate

    basis, traj, _ = _tiny_trajectory()
    rec = SpanRecorder("t")
    patch = LayerPatch(rec)
    patch.install()
    try:
        grid = [1.0, 0.5, 0.1]
        estimate.cross_validate(traj, basis, grid, folds=3)
        gram = estimate.build_gram(traj, basis)
        estimate.lasso_solve(gram, 0.1)
    finally:
        patch.restore()
    names = [s.name for s in rec.spans]
    assert names.count("estimate.cv") == 1
    assert names.count("estimate.lasso") == 1  # only the solve outside cross_validate
    assert names.count("estimate.gram") == 2
    assert rec.counts["lasso_solves"] == 3 * 3 + 1
    cv = next(s for s in rec.spans if s.name == "estimate.cv")
    assert any(s.name == "estimate.gram" and s.parent == cv.sid for s in rec.spans)
    metrics = spans.layer_metrics(rec)
    assert metrics["estimate.lasso_solves"] == 10
    assert metrics["estimate.sweeps_per_solve"] == pytest.approx(rec.counts["sweeps"] / 10)


def test_sampler_counts_are_computed_from_call_arguments():
    from sparsedrift.simulate import RecordFlags

    rec = SpanRecorder("t")
    patch = LayerPatch(rec)
    patch.install()
    try:
        _tiny_trajectory(record=RecordFlags(noise=True, fine=True))
    finally:
        patch.restore()
    n, m, d, burn = 40, 3, 2, 5
    metrics = spans.layer_metrics(rec)
    assert metrics["simulate.fine_steps"] == (burn + n) * m
    values = (burn + n) * m * d + n * d + n * (m + 1) * d
    assert metrics["simulate.noise_mb"] == pytest.approx(8 * values / 2**20)
    assert [s.name for s in rec.spans] == ["simulate.sampler"]


def test_layer_metrics_match_benchmark_json():
    import json
    import os

    from conftest import BENCH

    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        declared = [m["name"] for m in json.load(fh)["per_layer"]]
    produced = list(spans.layer_metrics(SpanRecorder("t"))) + ["trace.overhead_s"]
    assert sorted(declared) == sorted(produced)


def test_layer_function_gone_from_the_package_is_skipped(monkeypatch):
    from sparsedrift import experiments

    monkeypatch.delattr(experiments, "_ou_cv_fit")
    patch = LayerPatch(SpanRecorder("t"))
    patch.install()
    try:
        assert patch.missing == ["sparsedrift.experiments._ou_cv_fit"]
    finally:
        patch.restore()


def test_rate_study_stepping_counts_as_simulate_steps():
    from sparsedrift import experiments

    a_mat = np.diag([1.0, 1.5])
    rec = SpanRecorder("t")
    patch = LayerPatch(rec)
    patch.install()
    try:
        experiments._ou_block_sums_batch(a_mat, 50, 0.1, 2, [3, 4, 5])
    finally:
        patch.restore()
    metrics = spans.layer_metrics(rec)
    assert metrics["simulate.fine_steps"] == 50 * 3
    assert metrics["simulate.noise_mb"] == pytest.approx(8 * 50 * 3 * 2 / 2**20)
    assert metrics["simulate.ns_per_step_dim"] == pytest.approx(
        1e9 * metrics["experiments.ou_block_sums_s"] / (50 * 3 * 2)
    )
