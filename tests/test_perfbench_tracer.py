"""The benchmark's tracer wraps package functions by name; they must resolve.

perfbench/tracer.py is loaded by path, as the benchmark loads it, and each
of its TARGETS is looked up in the package: a callable module attribute,
or a plain function in the class __dict__ for a Class.method entry.  Each
workload, run tiny under the tracer, must call every function that
perfbench/selftest.py maps to it; run tiny without it, its outputs must
pass the benchmark's own checks.
"""

import importlib
import importlib.util
import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"

# Run in a child process: installing the tracer patches the package for the
# whole process.  Prints, per workload, the mapped functions it never called.
COVERAGE = """
import importlib.util, json, sys
from pathlib import Path

perfbench = Path(sys.argv[1])
sys.path.insert(0, str(perfbench.parent / "src"))


def load(name):
    spec = importlib.util.spec_from_file_location(name, perfbench / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[name] = mod
    spec.loader.exec_module(mod)
    return mod


from nonbasis import cli, report  # every layer is loaded before tracing

tracer = load("tracer").Tracer()
tracer.install()
selftest = load("selftest")
load("reference")  # workloads imports it by name
workloads = load("workloads")
idle = {}
for name, fns in selftest.EXERCISED.items():
    before = tracer.metrics()
    workloads.solve(workloads.WORKLOADS[name].build(7, "tiny"))
    after = tracer.metrics()
    idle[name] = [fn for fn in fns if after[fn + ".calls"] <= before[fn + ".calls"]]
print(json.dumps(idle))
"""

# Run in a child process too: the workloads' Capture patches verify for the
# whole process.  Prints, per seed and workload, the operation count and
# the failure messages of workloads.check.
CHECKS = """
import json, random, sys
from pathlib import Path

perfbench = Path(sys.argv[1])
sys.path[:0] = [str(perfbench.parent / "src"), str(perfbench)]
import workloads

result = {}
for seed in (1, 7):
    for name, workload in workloads.WORKLOADS.items():
        ops = workload.build(seed, "tiny")
        workloads.solve(ops)
        result[f"{name}/{seed}"] = [len(ops), workloads.check(ops, random.Random(seed))]
print(json.dumps(result))
"""


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


def test_traced_workloads_call_their_layers():
    proc = subprocess.run(
        [sys.executable, "-c", COVERAGE, str(PERFBENCH)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    idle = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(idle) == ["adjoin", "catalog", "dichotomy", "lemma"]
    assert not any(idle.values()), idle


def test_tiny_workloads_pass_their_own_checks():
    proc = subprocess.run(
        [sys.executable, "-c", CHECKS, str(PERFBENCH)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert len(result) == 8
    assert all(count > 0 and not failures for count, failures in result.values()), result
