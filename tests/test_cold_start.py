"""What a fresh nsvlab process imports, and when.

Importing nsvlab loads every module its runs use, numpy's lazily loaded
submodules (numpy.random, numpy.fft) included, so no import happens inside a
timed run; and scipy, which only the tests use, is never loaded.  Each check
runs in a fresh interpreter, since this suite's own imports would hide both.
"""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Imports nsvlab, then runs four CLI experiments (simulate saving its paths),
# loads the saved ensemble back and runs the spectral library chain, all at
# small sizes; prints the scipy modules loaded by the import and the
# numpy or scipy modules first loaded during the runs.
PROBE = """
import json, os, sys
sys.path.insert(0, sys.argv[1])
import nsvlab, nsvlab.cli
at_import = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
u0 = nsvlab.random_divergence_free(4, seed=3)
bank = nsvlab.default_test_bank(nsvlab.SpectralBasis(3.0, 4, 0.1), 1.0)
before = set(sys.modules)
runs = (
    ["criticality", "--N", "16", "--M", "16"],
    ["minimality", "--N", "16", "--M", "16"],
    ["bridge", "--N", "16"],
    ["simulate", "--N", "16", "--M", "16", "--save-paths"],
)
for argv in runs:
    nsvlab.cli.main(argv + ["--out", sys.argv[2]])
assert nsvlab.load_ensemble(os.path.join(sys.argv[2], "ensemble")).unwrapped.shape == (16, 17, 2)
drift = nsvlab.solve_navier_stokes(u0, nu=0.1, T=1.0, M=16)
ens = nsvlab.simulate_ito(nsvlab.SdeParams(nu=0.1, T=1.0, drift_source=drift), 16, 16, seed=3)
occ = nsvlab.occupation_measure(ens, thin=2)
for pair in bank:
    nsvlab.dpm_residual(occ, pair, 0.1)
    nsvlab.first_variation_direct(ens, pair, 0.1)
during = sorted(m for m in set(sys.modules) - before if m.split(".")[0] in ("numpy", "scipy"))
print(json.dumps({"at_import": at_import, "during": during}))
"""


def test_import_loads_no_scipy_and_runs_load_no_numpy_or_scipy_module(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(SRC), str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.strip().splitlines()[-1])
    assert seen == {"at_import": [], "during": []}
