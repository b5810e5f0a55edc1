"""The benchmark still names the package's functions, their parameters and valid configs.

``perfbench/spans.py`` wraps each ``LAYER_FUNCTIONS`` entry in a traced run
and reads call arguments by name in its counters.  A rename in ``src/`` that
the list does not follow silently zeroes that layer's metrics, so this
tier-1 test pins both.  ``perfbench/workloads.py`` names each workload's
runner, which the benchmark calls as ``runner(cfg, out_dir, jobs=1)`` on the
validated config of a seed; the runners and the configs are pinned too.
"""

import importlib
import importlib.util
import inspect
import pathlib
import re
import sys

import pytest

_PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"

# entries left for the next benchmark change: their functions are gone from the package
_UNRESOLVED = {
    "sparsedrift.simulate.euler_path",
    "sparsedrift.estimate.lasso_solve",
    "sparsedrift.experiments._ou_cv_fit",
}


def _load(name):
    """``perfbench/<name>.py`` as a module, imported without putting perfbench on the path."""
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", _PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.fixture(scope="module")
def spans():
    yield from _load("spans")


@pytest.fixture(scope="module")
def workloads():
    yield from _load("workloads")


def _resolve(spans, entry):
    importlib.import_module(entry.module)
    try:
        owner, name = spans._owner(entry)
        return getattr(owner, name)
    except AttributeError:
        return None


def test_unresolved_layer_functions_are_the_known_ones(spans):
    unresolved = {
        f"{entry.module}.{entry.attr}" for entry in spans.LAYER_FUNCTIONS if _resolve(spans, entry) is None
    }
    assert unresolved == _UNRESOLVED


def test_counted_functions_keep_the_parameters_their_counters_read(spans):
    checked = set()
    for entry in spans.LAYER_FUNCTIONS:
        function = _resolve(spans, entry)
        if function is None or entry.count is None or not entry.needs_args:
            continue
        read = set(re.findall(r'args\["(\w+)"\]', inspect.getsource(entry.count)))
        assert read, entry.attr
        missing = read - set(inspect.signature(function).parameters)
        assert not missing, (entry.attr, missing)
        checked.add(entry.attr)
    assert {"event_statistics", "_ou_block_sums_batch", "simulate_ou_exact"} <= checked


def test_workload_runners_accept_config_out_dir_and_jobs(workloads):
    from sparsedrift import experiments

    assert workloads.WORKLOADS
    for name, workload in workloads.WORKLOADS.items():
        runner = getattr(experiments, workload.runner, None)
        assert callable(runner), (name, workload.runner)
        inspect.signature(runner).bind({}, "out", jobs=1)  # TypeError when the call no longer fits


def test_workload_configs_at_their_criterion_seeds_validate(workloads):
    from sparsedrift.config import validate_config

    for name, workload in workloads.WORKLOADS.items():
        cfg = validate_config(workload.config(workload.criterion_seed))
        assert cfg["seed"] == workload.criterion_seed, name
