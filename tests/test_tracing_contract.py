"""The benchmark tracer's contract with nsvlab.

nsvbench/tracing.py wraps each function named in its SPANS table by looking
the name up in its owner's own namespace: the module, or vars() of the class.
A method that moved into a base class would no longer be found there, and its
per-layer metrics would read 0 with no error.  This reads SPANS from the
tracer without importing the benchmark as a package.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "nsvbench" / "tracing.py"


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
