"""One execution of a workload in a fresh interpreter.

    python3 perfbench/child.py --workload W --config-seed S --result FILE (--out DIR [--trace SPANS] | --setup-only)

Writes a JSON result: ``ready`` (monotonic clock reading once the package is
imported and the config validated; the parent subtracts its spawn time to get
set-up time), ``wall_s`` (runner call until every table and the manifest are
written), ``peak_rss_mb`` and, with ``--trace``, the per-layer metrics.  With
``--trace`` the spans are written to SPANS when the execution ends.  With
``--setup-only`` the child stops once set up and writes only ``ready``.
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import sparsedrift  # noqa: E402,F401
from sparsedrift import experiments  # noqa: E402
from sparsedrift.config import validate_config  # noqa: E402

from workloads import WORKLOADS  # noqa: E402


def _execute(args, cfg: dict) -> dict:
    runner = getattr(experiments, WORKLOADS[args.workload].runner)
    if not args.trace:
        start = time.perf_counter()
        runner(cfg, args.out, jobs=1)
        return {"wall_s": time.perf_counter() - start}

    import spans  # only traced executions load the tracing code

    rec = spans.SpanRecorder(trace_id=f"{args.workload}/{args.config_seed}")
    patch = spans.LayerPatch(rec)
    patch.install()
    try:
        start = time.perf_counter()
        rec.open(spans.ROOT_SPAN)
        try:
            runner(cfg, args.out, jobs=1)
        finally:
            rec.close()
        wall = time.perf_counter() - start
    finally:
        patch.restore()
    with open(args.trace, "w") as fh:
        json.dump({"trace_id": rec.trace_id, "spans": [s._asdict() for s in rec.spans]}, fh)
    return {
        "wall_s": wall,
        "layers": spans.layer_metrics(rec),
        "layers_missing": patch.missing,
        "lyapunov_dims": {str(d): n for d, n in sorted(rec.lyapunov_dims.items())},
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--config-seed", type=int, required=True)
    parser.add_argument("--result", required=True)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", help="run the workload and write its tables here")
    mode.add_argument("--setup-only", action="store_true", help="stop once set up")
    parser.add_argument("--trace", default=None, help="write spans here and report per-layer metrics")
    args = parser.parse_args()

    cfg = validate_config(WORKLOADS[args.workload].config(args.config_seed))
    result = {"ready": time.perf_counter(), "error": None}
    if args.setup_only:
        with open(args.result, "w") as fh:
            json.dump(result, fh)
        return 0
    try:
        result.update(_execute(args, cfg))
    except Exception:  # reported to the parent, which counts the execution as failed
        result["error"] = traceback.format_exc()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
