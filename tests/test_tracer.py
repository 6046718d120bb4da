"""The benchmark tracer (``benchmarks/tracer.py``) patches names of the
package from outside it. Installing and restoring it here makes a renamed or
removed patched name fail this suite instead of every traced benchmark run."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores():
    tracer = _load_tracer().Tracer()
    try:
        tracer.install()
        patched = list(tracer._patches)
        wrapped = [owner.__dict__[attr] is not original for owner, attr, original in patched]
    finally:
        tracer.restore()
    names = {f"{owner.__name__}.{attr}" for owner, attr, _ in patched}
    assert "sliceforge.training.scale_normalize" in names
    assert "sliceforge.data.scale_normalize" in names
    assert "sliceforge.cli.load_slice_set" in names
    assert all(wrapped)
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr} not restored"
