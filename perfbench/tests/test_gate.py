"""Correctness gate, seed handling and the refusal to run without sources."""

import os
import shutil
import subprocess
import sys

from workloads import WORKLOADS, check_tables, execution_seed, identical_tables

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tiny_cosine(seed: int) -> dict:
    from sparsedrift.config import validate_config

    cfg = WORKLOADS["cosine-cv"].config(seed)
    cfg["model"].update(d=3, p=6)
    cfg["sampling"]["T"] = 1.0
    cfg["estimation"].update(lambda_grid={"num": 4, "ratio": 0.05}, cv_folds=3)
    return validate_config(cfg)


def _run(cfg: dict, out) -> str:
    from sparsedrift.experiments import run_support_recovery

    run_support_recovery(cfg, str(out), jobs=1)
    return str(out)


def test_complete_tables_pass(tmp_path):
    cfg = _tiny_cosine(5)
    out = _run(cfg, tmp_path / "a")
    assert check_tables(out, WORKLOADS["cosine-cv"].tables(cfg)) == []


def test_gate_flags_truncated_table(tmp_path):
    cfg = _tiny_cosine(5)
    out = _run(cfg, tmp_path / "a")
    path = os.path.join(out, "replications.csv")
    with open(path) as fh:
        lines = fh.readlines()
    with open(path, "w") as fh:
        fh.writelines(lines[:-1] + [lines[-1][: len(lines[-1]) // 2]])
    problems = check_tables(out, WORKLOADS["cosine-cv"].tables(cfg))
    assert any("replications.csv" in p and "fields" in p for p in problems)
    assert any("hash mismatch for replications.csv" in p for p in problems)

    with open(path, "w") as fh:
        fh.writelines(lines[:-1])
    problems = check_tables(out, WORKLOADS["cosine-cv"].tables(cfg))
    assert any("replications.csv" in p and "rows, expected" in p for p in problems)


def test_gate_flags_nan(tmp_path):
    cfg = _tiny_cosine(5)
    out = _run(cfg, tmp_path / "a")
    path = os.path.join(out, "summary.csv")
    with open(path) as fh:
        header, first, *rest = fh.read().splitlines()
    cells = first.split(",")
    cells[2] = "nan"
    with open(path, "w") as fh:
        fh.write("\n".join([header, ",".join(cells), *rest]) + "\n")
    problems = check_tables(out, WORKLOADS["cosine-cv"].tables(cfg))
    assert any("summary.csv:2" in p and "not finite" in p for p in problems)


def test_same_seed_identical_and_other_seed_different(tmp_path):
    expected = WORKLOADS["cosine-cv"].tables(_tiny_cosine(0))
    a = _run(_tiny_cosine(execution_seed(1, 0)), tmp_path / "a")
    b = _run(_tiny_cosine(execution_seed(1, 0)), tmp_path / "b")
    c = _run(_tiny_cosine(execution_seed(2, 0)), tmp_path / "c")
    assert identical_tables(a, b, expected) == []
    assert set(identical_tables(a, c, expected)) == set(expected)


def test_execution_seeds_differ_by_seed_and_index():
    seeds = {execution_seed(s, i) for s in range(20) for i in range(5)}
    assert len(seeds) == 100
    assert execution_seed(3, 1) == execution_seed(3, 1)


def test_workload_configs_follow_the_seed():
    for workload in WORKLOADS.values():
        assert workload.config(1) == workload.config(1)
        assert workload.config(1) != workload.config(2)


def test_refuses_to_run_without_sources(tmp_path):
    copy = tmp_path / "checkout"
    shutil.copytree(BENCH, copy / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ou-rate", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=copy,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
    assert "no sparsedrift sources" in proc.stderr


def _replications(tmp_path, rows) -> str:
    out = tmp_path / "out"
    out.mkdir()
    lines = ["replication,estimator,f1,l2_error"] + [",".join(map(str, r)) for r in rows]
    (out / "replications.csv").write_text("\n".join(lines) + "\n")
    return str(out)


def test_cosine_direction_gates_l2_and_reports_f1(tmp_path):
    direction = WORKLOADS["cosine-cv"].direction
    out = _replications(tmp_path, [(0, "lasso", 0.40, 5.0), (0, "mle", 0.46, 300.0)])
    problems, notes = direction([out], [{}])
    assert problems == []
    assert any("below mle in 1 of 1" in n for n in notes)
    (tmp_path / "out" / "replications.csv").write_text(
        "replication,estimator,f1,l2_error\n0,lasso,0.60,5.0\n0,mle,0.46,3.0\n"
    )
    problems, _ = direction([out], [{}])
    assert any("median l2" in p for p in problems)
