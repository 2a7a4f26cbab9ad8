"""The benchmark's trace (bench/tracing.py) wraps program functions by name;
every name it lists must still resolve, or `bench/run.py --trace 1` breaks."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


@pytest.mark.parametrize(
    "module_name, attr",
    [(m, a) for m, a, *_ in tracing.SETUP_LAYERS + tracing.LAYERS],
)
def test_traced_function_resolves(module_name, attr):
    assert callable(getattr(importlib.import_module(f"ohm.{module_name}"), attr, None))


def test_nv_counter_helper_resolves():
    # tracing._count_nv classes NV candidates with alignment._base_class
    from ohm import alignment

    assert callable(getattr(alignment, "_base_class", None))
