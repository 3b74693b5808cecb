"""The benchmark tracer's contract with nsvlab.

nsvbench/tracing.py wraps each function named in its SPANS table by looking
the name up in its owner's own namespace: the module, or vars() of the class.
A method that moved into a base class would no longer be found there, and its
per-layer metrics would read 0 with no error.  This reads SPANS from the
tracer without importing the benchmark as a package, and counts, under the
installed tracer, the estimator calls of one criticality run.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "nsvbench" / "tracing.py"

# Installs the tracer, runs one small criticality experiment, and prints the
# tracer's notes, its call count per span and its computed counters.
TRACED_CRITICALITY = """
import collections, json, sys
sys.path[:0] = sys.argv[1:3]
from tracing import Tracer
import nsvlab.cli
tracer = Tracer()
tracer.install()
nsvlab.cli.main(["criticality", "--N", "16", "--M", "16", "--out", sys.argv[3]])
calls = collections.Counter(span[0] for span in tracer.spans)
print(json.dumps({"notes": tracer.notes, "calls": calls, "counters": tracer.counters}))
"""


def spans():
    spec = importlib.util.spec_from_file_location("nsvbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


@pytest.mark.parametrize("module_name, qualname", [(m, q) for m, q, _ in spans()])
def test_span_defined_in_its_owners_own_namespace(module_name, qualname):
    owner = importlib.import_module(f"nsvlab.{module_name}")
    *classes, attr = qualname.split(".")
    for name in classes:
        owner = getattr(owner, name)
    assert attr in vars(owner), f"{module_name}.{qualname} is not defined in {owner.__name__}'s own namespace"


def test_criticality_calls_each_estimator_once_per_ensemble(tmp_path):
    """One DPM call on the occupation samples, one direct call per ensemble,
    one FD call per pair and one drift build for both ensembles; the probes
    still find `samples` and `ens` by name.
    A fresh interpreter keeps the tracer's patching out of this suite."""
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_CRITICALITY, str(ROOT / "src"), str(TRACING.parent), str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.strip().splitlines()[-1])
    assert seen["notes"] == []
    calls = seen["calls"]
    assert (calls["action.dpm_residual"], calls["action.first_variation_direct"], calls["variation.first_variation_fd"]) == (1, 2, 6)
    assert calls["cli.build_drift"] == 1
    assert seen["counters"]["action.samples"] > 0
