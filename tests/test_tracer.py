"""The benchmark's layer tracer patches names that still exist."""

import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize(
    "owner, attr", [(owner, attr) for owner, attr, _, _ in tracer.PATCHES]
)
def test_patch_target_resolves(owner, attr):
    inspect.getattr_static(tracer._resolve(owner), attr)
