"""End-to-end and per-layer benchmark of sparsedrift.

    python3 perfbench/run.py --workload {cosine-cv,ou-rate,verify-audit} --seed N --seconds S --trace {0,1}

Closed loop: one client runs one experiment at a time, each execution in a
fresh interpreter (``child.py``) with ``jobs=1``.  BLAS keeps its default
thread count, which is recorded, not pinned.

A run starts with a warm-up spawn that only sets up and is not timed, executes
the workload on its first input, repeats that input untraced, goes on with
further inputs derived from ``--seed`` for about S seconds, and, untraced,
fills the time left with spawns that only set up.  With ``--trace 0`` every execution is
untraced and the result holds the medians of ``wall_s`` and ``peak_rss_mb``
over inputs (one execution each) and of ``setup_s`` over every spawn but the
warm-up.  With
``--trace 1`` the inputs run traced (``spans.py`` wraps the package's layer
functions in that child only) and the result holds the median per-layer
metrics, plus ``trace.overhead_s``: traced minus untraced wall time of the
first input.
Quartiles and sample counts go to the report lines above the result.

The gate requires every execution's tables to be complete and finite, the
repeat's CSVs to be byte-identical to the first execution's, and the
criterion's direction to hold over the run's inputs.  A failure makes
``correct`` false and the exit code 1.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
``failed / attempted`` is the failed share of replications and checks.  A
record of the run, with its environment, goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS, check_tables, execution_seed, identical_tables, unconverged_refits

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE_DIR = os.path.join(ROOT, ".perfbench")
# a run must end within 180 s; no execution is started or allowed past this
DEADLINE_S = 165.0
# set-up spawns after the executions, besides the warm-up
MIN_SETUP_SPAWNS = 3


def metric_units(section: str) -> dict[str, str]:
    """Metric name -> unit for a section ("end_to_end" or "per_layer") of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


# derived from call arguments or results, not measured
COMPUTED = {
    "simulate.fine_steps",
    "simulate.noise_mb",
    "theory.cone_directions",
    "theory.concentration_steps",
    "experiments.output_bytes",
}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


# ---------------------------------------------------------------------------
# Run environment
# ---------------------------------------------------------------------------


def _git_commit() -> str | None:
    # the ceiling keeps git from reporting an enclosing repository's commit
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)}
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _blas_threads() -> int | None:
    """Default thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for name in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(handle, name):
                fn = getattr(handle, name)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "blas_env": {k: v for k, v in os.environ.items() if k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "git_commit": _git_commit(),
        "loadavg": os.getloadavg(),
    }


# ---------------------------------------------------------------------------
# Executions
# ---------------------------------------------------------------------------


class Runner:
    def __init__(self, workload: str, seed: int, work_dir: str, results_dir: str):
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.work_dir = work_dir
        self.results_dir = results_dir
        self.start = time.perf_counter()
        self.executions: list[dict] = []
        self.setup_spawns: list[dict] = []  # set-up only; the first is the discarded warm-up

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def spawn(self, index: int, traced: bool = False, setup_only: bool = False) -> dict:
        records = self.setup_spawns if setup_only else self.executions
        tag = f"{'s' if setup_only else 'e'}{len(records)}"
        out = os.path.join(self.work_dir, tag)
        result_path = os.path.join(self.work_dir, f"{tag}.json")
        cmd = [
            sys.executable,
            os.path.join(HERE, "child.py"),
            "--workload", self.workload.name,
            "--config-seed", str(execution_seed(self.seed, index)),
            "--result", result_path,
        ]
        cmd += ["--setup-only"] if setup_only else ["--out", out]
        if traced:
            spans_name = f"{self.workload.name}-seed{self.seed}-{tag}.spans.json"
            cmd += ["--trace", os.path.join(self.results_dir, spans_name)]
        record = {"tag": tag, "index": index, "traced": traced, "out": out, "error": None}
        spawned = time.perf_counter()
        try:
            proc = subprocess.run(
                cmd,
                cwd=ROOT,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                text=True,
                timeout=max(1.0, DEADLINE_S - self.elapsed()),
            )
        except subprocess.TimeoutExpired:
            record["error"] = "execution timed out"
        else:
            if proc.returncode != 0:
                record["error"] = f"exit code {proc.returncode}: {proc.stderr.strip()[-2000:]}"
            else:
                with open(result_path) as fh:
                    child = json.load(fh)
                record["error"] = child.pop("error")
                record["setup_s"] = child.pop("ready") - spawned
                record.update(child)
        record["spawn_s"] = time.perf_counter() - spawned
        records.append(record)
        return record

    def run(self, seconds: float, traced: bool) -> None:
        """A warm-up spawn, input 0 and its untraced repeat, further inputs for
        about ``seconds``, then (untraced runs) set-up spawns in the time left."""
        budget = min(seconds, DEADLINE_S)
        warmup = self.spawn(0, setup_only=True)
        if warmup["error"]:
            return
        # traced runs report no set-up time; untraced ones keep room for its spawns
        reserve = 0.0 if traced else MIN_SETUP_SPAWNS * warmup["spawn_s"]
        index, step = 0, 0.0
        while True:
            began = time.perf_counter()
            batch = [self.spawn(index, traced)]
            if index == 0:
                batch.append(self.spawn(0))
            if any(e["error"] for e in batch):
                return
            step = max(step, (time.perf_counter() - began) / len(batch))
            index += 1
            if self.elapsed() + step + reserve > budget:
                break
        if traced:
            return
        setup_step = max(e["spawn_s"] for e in self.setup_spawns)
        while len(self.setup_spawns) < 1 + MIN_SETUP_SPAWNS or self.elapsed() + setup_step < budget:
            if self.spawn(0, setup_only=True)["error"]:
                return

    def setup_samples(self) -> list[float]:
        """Set-up times of every spawn but the warm-up; set-up does not depend on the input."""
        return [e["setup_s"] for e in self.setup_spawns[1:] + self.executions if "setup_s" in e]


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------


def gate(runner: Runner) -> tuple[list[str], int, int, list[str]]:
    """(problems, attempted, failed, criterion report lines) over replications and checks."""
    wl = runner.workload
    cfgs: dict[int, dict] = {}
    problems: list[str] = []
    notes: list[str] = []
    attempted = failed = 0

    def check(name: str, found: list[str]) -> None:
        nonlocal attempted, failed
        attempted += 1
        if found:
            failed += 1
            problems.extend(f"{name}: {p}" for p in found)

    for e in runner.setup_spawns:
        check(f"{e['tag']} (set-up only)", [e["error"].strip().splitlines()[-1]] if e["error"] else [])
    first: dict[int, dict] = {}
    for e in runner.executions:
        if e["index"] not in cfgs:
            cfgs[e["index"]] = _config(wl, runner.seed, e["index"])
        cfg = cfgs[e["index"]]
        reps = wl.replications(cfg)
        attempted += reps
        if e["error"]:
            failed += reps
            problems.append(f"{e['tag']}: raised: {e['error'].strip().splitlines()[-1]}")
            continue
        check(e["tag"], check_tables(e["out"], wl.tables(cfg)))
        ref = first.setdefault(e["index"], e)
        if ref is not e:
            differ = identical_tables(ref["out"], e["out"], wl.tables(cfg))
            check(f"{e['tag']} vs {ref['tag']} (same input)", [f"{name} differs" for name in differ])
    if not failed:  # the direction is read from tables that passed the checks above
        inputs = [first[i] for i in sorted(first)]
        found, notes = wl.direction([e["out"] for e in inputs], [cfgs[e["index"]] for e in inputs])
        check("criterion direction", found)
    return problems, attempted, failed, notes


def _config(workload, seed: int, index: int) -> dict:
    if os.path.join(ROOT, "src") not in sys.path:
        sys.path.insert(0, os.path.join(ROOT, "src"))
    from sparsedrift.config import validate_config

    return validate_config(workload.config(execution_seed(seed, index)))


# ---------------------------------------------------------------------------
# Aggregation and report
# ---------------------------------------------------------------------------


def summarize(runner: Runner, traced: bool) -> dict[str, tuple[float, float, float, int]]:
    """Metric -> (q1, median, q3, samples) over the run's executions."""
    ok = [e for e in runner.executions if not e["error"]]
    if not traced:
        # one sample per input: the repeat of input 0 only feeds the gate and set-up
        per_input = list({e["index"]: e for e in reversed(ok)}.values())
        series = {name: [e[name] for e in per_input] for name in metric_units("end_to_end")}
        series["setup_s"] = runner.setup_samples()
    else:
        spans_runs = [e for e in ok if e["traced"]]
        names = [name for name in metric_units("per_layer") if spans_runs and name in spans_runs[0]["layers"]]
        series = {name: [e["layers"][name] for e in spans_runs] for name in names}
        pair = [e for e in ok if e["index"] == 0]
        series["trace.overhead_s"] = [pair[0]["wall_s"] - pair[-1]["wall_s"]] if len(pair) == 2 else []
        series["traced wall_s"] = [e["wall_s"] for e in spans_runs]
    return {name: (*quartiles(vals), len(vals)) for name, vals in series.items() if vals}


def report_lines(runner: Runner, traced: bool, stats: dict, env: dict, problems: list[str],
                 attempted: int, failed: int, notes: list[str]) -> list[str]:
    wl = runner.workload
    inputs = {e["index"]: e for e in reversed(runner.executions) if not e["error"]}
    lines = [
        f"perfbench {wl.name} seed={runner.seed} trace={int(traced)}: "
        f"{len(runner.executions)} executions on {len(inputs)} inputs and "
        f"{len(runner.setup_spawns)} set-up spawns (1 warm-up) in {runner.elapsed():.1f} s",
        "env: " + " ".join(f"{k}={v}" for k, v in env.items()),
    ]
    units = {**metric_units("per_layer"), "traced wall_s": "s"} if traced else metric_units("end_to_end")
    wall = stats.get("traced wall_s", (0, 0, 0, 0))[1]
    for name, (q1, med, q3, n) in stats.items():
        note = " (computed)" if name in COMPUTED else ""
        if traced and units.get(name) == "s" and wall and name != "traced wall_s":
            note += f" ({100 * med / wall:.1f}% of traced wall)"
        unit = units.get(name, "?")
        lines.append(f"  {name:28s} median {med:<12.6g} {unit:6s} q1 {q1:<12.6g} q3 {q3:<12.6g} n={n}{note}")
    share = f"{failed / attempted:.6g} ({failed} of {attempted} replications and checks)"
    lines.append(f"  {'failed_share':28s} {share}")
    bad, total = unconverged_refits([e["out"] for e in inputs.values()]) if not problems else (0, 0)
    if total:
        lines.append(f"  {'unconverged_share':28s} {bad / total:.6g} ({bad} of {total} Lasso refits)")
    if traced:
        dims: dict[int, int] = {}
        for e in runner.executions:
            for d, n in (e.get("lyapunov_dims") or {}).items():
                dims[int(d)] = dims.get(int(d), 0) + n
        by_d = ", ".join(f"d={d}: {n}" for d, n in sorted(dims.items())) or "none"
        lines.append(f"  lyapunov calls by d over traced executions: {by_d}")
        missing = sorted({name for e in runner.executions for name in e.get("layers_missing", [])})
        if missing:
            lines.append(f"  not traced, gone from the package (metrics read 0): {', '.join(missing)}")
    lines += [f"  criterion: {note}" for note in notes]
    lines += [f"  FAILED {p}" for p in problems]
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None, help="default: the acceptance criterion's seed")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed is None:
        args.seed = WORKLOADS[args.workload].criterion_seed
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "sparsedrift", "__init__.py")):
        print(f"perfbench: no sparsedrift sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    traced = bool(args.trace)
    env = environment()
    results_dir = os.path.join(STATE_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    work_dir = os.path.join(STATE_DIR, f"work-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    try:
        runner = Runner(args.workload, args.seed, work_dir, results_dir)
        runner.run(args.seconds, traced)
        problems, attempted, failed, notes = gate(runner)
        stats = summarize(runner, traced)
        print("\n".join(report_lines(runner, traced, stats, env, problems, attempted, failed, notes)))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    units = metric_units("per_layer" if traced else "end_to_end")
    correct = not problems and all(name in stats for name in units)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "executions": [{k: v for k, v in e.items() if k != "out"} for e in runner.executions],
        "setup_spawns": [{k: v for k, v in e.items() if k != "out"} for e in runner.setup_spawns],
        "metrics": {name: dict(zip(("q1", "median", "q3", "n"), s)) for name, s in stats.items()},
        "problems": problems,
        "criterion": notes,
        "attempted": attempted,
        "failed": failed,
    }
    record_name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results_dir, record_name), "w") as fh:
        json.dump(record, fh, indent=1)
    metrics = {name: {"value": stats[name][1], "unit": units[name]} for name in units if name in stats}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
