"""The benchmark's tracer wraps package functions by name; they must resolve.

perfbench/tracer.py is loaded by path, as the benchmark loads it, and each
of its TARGETS is looked up in the package: a callable module attribute,
or a plain function in the class __dict__ for a Class.method entry.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


@pytest.mark.parametrize("modname,attr,name", _targets())
def test_tracer_target_resolves(modname, attr, name):
    mod = importlib.import_module(f"nonbasis.{modname}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert inspect.isfunction(vars(getattr(mod, cls_name)).get(meth)), name
    else:
        assert callable(getattr(mod, attr, None)), name
