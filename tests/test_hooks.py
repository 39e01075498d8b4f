"""Every span target of the benchmark tracer resolves on the installed package.

``perfbench/tracing.py`` wraps ``qpanet`` functions by (module, attribute
path); a missing target turns every metric of its span to null, so a
rename or retype of hooked code must fail here first.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _hooks():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.HOOKS


@pytest.mark.parametrize(
    "module, path", [(module, path) for _, module, path, _ in _hooks()], ids=lambda v: v
)
def test_hook_target_resolves(module, path):
    target = importlib.import_module(module)
    for part in path.split("."):
        target = getattr(target, part)
    assert callable(target)
