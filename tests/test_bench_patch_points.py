"""The traced benchmark's patch points name attributes that exist."""

import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

_spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


@pytest.mark.parametrize(
    "path, attr",
    [pytest.param(p[0], p[1], id=f"{p[0]}.{p[1]}") for p in spans.PATCH_POINTS],
)
def test_patch_point_resolves(path, attr):
    # Tracer.install resolves the owner the same way, then reads the attribute
    owner = spans._resolve(path)
    assert callable(getattr(owner, attr))
