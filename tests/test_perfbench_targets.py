"""The benchmark's span tracer must find every entry point it wraps.

``perfbench/tracer.py`` looks each target up by module and attribute path and
reports a target it cannot find as ``null``, which makes a traced benchmark
run unreadable.  The tracer is loaded from its file, as the benchmark runs
it, and asked to resolve its own target list against this package.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

from adaptbus import kernels

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("name,module,path", tracer.TARGETS, ids=[t[0] for t in tracer.TARGETS])
def test_target_resolves(name, module, path):
    assert tracer._resolve(module, path) is not None, f"{name}: {module}.{path} is gone"


def test_fixed_delay_sample_count_reads_d_and_the_reference():
    # the samples counter reads args[5].shape[0] - args[2], that is len(yref_ext) - d
    params = list(inspect.signature(kernels.simulate_fixed_delay).parameters)
    assert params[2] == "d" and params[5] == "yref_ext"
