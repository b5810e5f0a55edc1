"""The benchmark's layer list still names the package's functions and their parameters.

``perfbench/spans.py`` wraps each ``LAYER_FUNCTIONS`` entry in a traced run
and reads call arguments by name in its counters.  A rename in ``src/`` that
the list does not follow silently zeroes that layer's metrics, so this
tier-1 test pins both.
"""

import importlib
import importlib.util
import inspect
import pathlib
import re
import sys

import pytest

_SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# entries left for the next benchmark change: their functions are gone from the package
_UNRESOLVED = {
    "sparsedrift.simulate.euler_path",
    "sparsedrift.estimate.lasso_solve",
    "sparsedrift.experiments._ou_cv_fit",
}


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


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
