"""The contract between the package and bench/tracing.py's wrappers.

The tracer swaps the functions and methods it names under every name that
holds them, and reads ``_power_means``' base grid from its fifth positional
argument, so a rename or a signature change breaks the bench runs.
"""

import importlib.util
import math
from pathlib import Path

import pytest

import bergweight
import bergweight.cli  # the tracer wraps cli functions too
from bergweight import StandardWeight, TaylorSeries, bergman_norm, block_norm, hardy_norm
from bergweight import norms


def _load_tracing():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("module_name, name", tracing.FUNCTIONS)
def test_traced_function_resolves(module_name, name):
    assert callable(getattr(getattr(bergweight, module_name), name))


@pytest.mark.parametrize("module_name, cls_name, method, layer", tracing.METHODS)
def test_traced_method_is_defined_on_its_class(module_name, cls_name, method, layer):
    cls = getattr(getattr(bergweight, module_name), cls_name)
    assert method in cls.__dict__


@pytest.mark.parametrize("p", [0.5, 2.0])
def test_power_means_fifth_argument_gives_the_base_grid(monkeypatch, p):
    seen = []
    original = norms._power_means

    def spy(*args, **kwargs):
        # what the tracer reads on every call: args[4].q_for(args[3])
        seen.append((args[3], args[4].q_for(args[3])))
        return original(*args, **kwargs)

    monkeypatch.setattr(norms, "_power_means", spy)
    f = TaylorSeries([1.0, 0.5, -0.25j, 0.125])
    std1 = StandardWeight(1.0)
    for norm in (lambda: bergman_norm(f, std1, p), lambda: hardy_norm(f, p),
                 lambda: block_norm(f, std1, 2, p)):
        seen.clear()
        assert norm() > 0.0
        assert seen
        for degree, q in seen:
            assert q == 1 << max(0, math.ceil(math.log2(4 * (degree + 1))))
