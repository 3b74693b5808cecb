"""One measured repetition of one benchmark workload, in its own process.

    python3 nsvbench/child.py --workload NAME --seed N --size full|smoke \
        --trace 0|1 --out DIR --result FILE

The child imports nsvlab from the checkout's src/, builds the workload's
inputs, stamps CLOCK_MONOTONIC when it is ready to make the first call, runs
the workload, checks its outputs, stamps the clock again and writes a JSON
result.  With --trace 1 it first wraps the nsvlab layers (see tracing.py)
and adds the spans and per-layer metrics to the result.  bench.py spawns it;
exit status 0 means the result file was written, whatever the checks said.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"

# (N, M) per workload and size.  Full sizes keep each workload's layer mix at
# an N and M where one repetition takes a few seconds on a 2-core machine, so
# every run holds several repetitions; smoke sizes only exercise plumbing
# (M >= 16, because mean_acceleration_check needs a step in each of 16 bins).
# The bridge's M is fixed by the CLI (8160 steps); its N is capped at 4000.
SIZES = {
    "criticality": {"full": (120, 100), "smoke": (16, 16)},
    "minimality": {"full": (1000, 200), "smoke": (16, 16)},
    "spectral": {"full": (500, 200), "smoke": (16, 16)},
    "bridge": {"full": (1000, None), "smoke": (16, None)},
}

# Every check is [name, passed, kind].  "exact" checks hold for any seed when
# the program is correct: the run completed, its report is well formed and
# agrees with the exit status, estimates are finite, the deterministic weak
# residual is at rounding level, the Taylor-Green Hessian bound is exact.
# The Taylor-Green drift's velocity and pressure and the spectral drift's
# velocity are also compared, at grid times and seeded points, with a
# reference evaluation (closed form, or the full-lattice Fourier sum).
# "statistical" checks are the 3-SE verdicts; a correct program fails each
# with probability ~0.3% at a random seed.  Smoke runs make exact checks only.
EXACT, STATISTICAL = "exact", "statistical"

# A child is correct when every exact check passes and at most this share of
# its statistical checks fail.  Over 50 seeds per workload the worst seeds
# failed 3 of 21 (minimality: two pinned members and the all-members verdict),
# 2 of 18 (criticality), 1 of 12 (spectral) and 1 of 4 (bridge); a program
# that returns wrong numbers fails most of them.
STATISTICAL_ALLOWANCE = 0.25

# checks one repetition makes; a crashed or timed-out child fails them all
NOMINAL_CHECKS = {
    "criticality": {"full": 5 + 18, "smoke": 5},
    "minimality": {"full": 6 + 21, "smoke": 6},
    "spectral": {"full": 1 + 6 * 4, "smoke": 1 + 6 * 2},
    "bridge": {"full": 4 + 4, "smoke": 4},
}

# hessian_bound of the Taylor-Green pressure -(cos 2x1 + cos 2x2)/4: its
# Hessian is diag(cos 2x1, cos 2x2) e^{-4 nu t}, largest eigenvalue 1 at t = 0
TAYLOR_GREEN_HESSIAN_BOUND = 1.0

# reference evaluations: seeded points per grid time, and the tolerance
# relative to the field's largest value
REFERENCE_POINTS = 64
REFERENCE_TOL = 1e-10

# spectral pipeline constants
NU = 0.1
T = 1.0
SPECTRAL_K = 8
# The weak residual of the RK4 solution is the trapezoid-in-time error, at
# most 0.13 dt^2 over the seeds tried (3.2e-6 at M=200); a drift that does not
# solve the equations gives >= 1e-3 at fine dt.
WEAK_TOL_PER_DT2 = 1.0


def cli_argv(workload: str, seed: int, size: str, out: str) -> list[str]:
    """The nsvlab command line of a CLI workload."""
    N, M = SIZES[workload][size]
    argv = [workload, "--config", str(CONFIGS / f"{workload}.json"), "--N", str(N)]
    if M is not None:
        argv += ["--M", str(M)]
    if workload == "criticality":
        # a process pool over paths would show here as wall_s down, cpu_s up
        argv += ["--threads", "2"]
    return argv + ["--seed", str(seed), "--out", out]


def reference_points(seed: int):
    import numpy as np

    return np.random.default_rng(seed).uniform(0.0, 2 * np.pi, (REFERENCE_POINTS, 2))


def check_times(M: int) -> tuple[int, ...]:
    """Grid steps at which velocity_at and pressure_at are checked."""
    return (0, M // 2, M)


def taylor_green_error(workload: str, M: int, seed: int) -> float:
    """Largest error of nsvlab's Taylor-Green velocity_at and pressure_at
    against u = e^{-2 nu t} (cos x1 sin x2, -sin x1 cos x2) and
    p = -e^{-4 nu t} (cos 2x1 + cos 2x2) / 4, at grid times."""
    import numpy as np

    import nsvlab

    with open(CONFIGS / f"{workload}.json") as fh:
        config = json.load(fh)
    nu = config["nu"]
    flow = nsvlab.taylor_green(nu, config["T"], M)
    x = reference_points(seed)
    c, s = np.cos(x), np.sin(x)
    err = 0.0
    for j in check_times(M):
        t = flow.times[j]
        u = np.exp(-2 * nu * t) * np.stack([c[:, 0] * s[:, 1], -s[:, 0] * c[:, 1]], axis=-1)
        p = -np.exp(-4 * nu * t) / 4 * (np.cos(2 * x[:, 0]) + np.cos(2 * x[:, 1]))
        err = max(err, np.abs(flow.velocity_at(t, x) - u).max(), np.abs(flow.pressure_at(t, x) - p).max())
    return float(err)


def fourier_sum(coeffs, x):
    """sum_k c_k e^{i k.x} over the full (2K+1)^2 lattice, k = 0 included."""
    import numpy as np

    K = (coeffs.shape[0] - 1) // 2
    k = np.arange(-K, K + 1)
    phase = np.exp(1j * (x[:, 0, None, None] * k[:, None] + x[:, 1, None, None] * k[None, :]))
    return np.einsum("nab,ab...->n...", phase, coeffs).real


def prepare_cli(workload: str, seed: int, size: str, out: str):
    from nsvlab import cli

    argv = cli_argv(workload, seed, size, out)
    M = SIZES[workload][size][1]

    def run() -> list[list]:
        code = cli.main(argv)
        try:
            with open(os.path.join(out, "report.json")) as fh:
                report = json.load(fh)
            verdicts, estimates = report["verdicts"], report["estimates"]
        except (OSError, ValueError, KeyError):
            verdicts, estimates = [], []
        # exit status 0: every verdict passed, 2: some verdict failed, else error
        checks = [
            ["completed", code in (0, 2), EXACT],
            ["report_has_verdicts", bool(verdicts), EXACT],
            ["exit_code_matches_verdicts", (code == 0) == all(v["pass"] for v in verdicts), EXACT],
            [
                "estimates_finite",
                bool(estimates) and all(math.isfinite(e["value"]) and math.isfinite(e["se"]) for e in estimates),
                EXACT,
            ],
        ]
        if M is not None:  # criticality and minimality; the bridge has no flow
            checks.append(["taylor_green_closed_form", taylor_green_error(workload, M, seed) <= REFERENCE_TOL, EXACT])
        if workload == "minimality":
            bound = next((e["value"] for e in estimates if e["name"] == "hessian_bound"), math.nan)
            checks.append(["taylor_green_hessian_bound", abs(bound - TAYLOR_GREEN_HESSIAN_BOUND) <= 1e-12, EXACT])
        return checks + [[f"verdict:{v['name']}", bool(v["pass"]), STATISTICAL] for v in verdicts]

    return run, {"nsvlab_argv": argv}


def prepare_spectral(seed: int, size: str):
    """Solve NS from a random K=8 field, simulate on it, fold every estimator."""
    import numpy as np

    import nsvlab

    N, M = SIZES["spectral"][size]
    u0 = nsvlab.random_divergence_free(SPECTRAL_K, seed=seed)
    bank = nsvlab.default_test_bank(nsvlab.SpectralBasis(3.0, SPECTRAL_K, NU), T)

    def run() -> list[list]:
        # look the functions up at call time, so a traced run sees the wrappers
        drift = nsvlab.solve_navier_stokes(u0, nu=NU, T=T, M=M)
        ens = nsvlab.simulate_ito(nsvlab.SdeParams(nu=NU, T=T, drift_source=drift), N, M, seed=seed)
        occ = nsvlab.occupation_measure(ens, thin=2)
        x = reference_points(seed)
        err = scale = 0.0
        for j in check_times(M):
            ref = fourier_sum(drift.frames[j].coeffs, x)
            err = max(err, float(np.abs(drift.velocity_at(drift.times[j], x) - ref).max()))
            scale = max(scale, float(np.abs(ref).max()))
        checks = [["velocity_matches_fourier_sum", err <= REFERENCE_TOL * scale, EXACT]]
        for pair in bank:
            weak = nsvlab.weak_ns_residual(drift, pair)
            dpm = nsvlab.dpm_residual(occ, pair, NU)
            direct = nsvlab.first_variation_direct(ens, pair, NU)
            checks += [
                [f"weak_tiny:{pair.name}", abs(weak) <= WEAK_TOL_PER_DT2 * ens.dt**2, EXACT],
                [f"finite:{pair.name}", math.isfinite(dpm.value) and math.isfinite(direct.value), EXACT],
                [
                    f"dpm_matches_weak:{pair.name}",
                    abs(dpm.value - weak) <= 3 * dpm.std_error + 2 * ens.dt,
                    STATISTICAL,
                ],
                [f"direct_zero:{pair.name}", abs(direct.value) <= 3 * direct.std_error, STATISTICAL],
            ]
        return checks

    inputs = {
        "call": "solve_navier_stokes(random_divergence_free(8, seed), nu=0.1, T=1, M) -> "
        "simulate_ito(N, M) -> occupation_measure(thin=2) -> "
        "{weak_ns_residual, dpm_residual, first_variation_direct} x 6 pairs",
        "N": N,
        "M": M,
        "seed": seed,
    }
    return run, inputs


def prepare(workload: str, seed: int, size: str, out: str):
    if workload == "spectral":
        return prepare_spectral(seed, size)
    return prepare_cli(workload, seed, size, out)


def cpu_seconds() -> float:
    """User plus system CPU of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(SIZES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    start = time.monotonic()
    sys.path.insert(0, str(SRC))
    import nsvlab
    import nsvlab.cli  # noqa: F401  (part of the program's import cost)

    import_s = time.monotonic() - start
    if not Path(nsvlab.__file__).resolve().is_relative_to(SRC):
        print(f"error: nsvlab imported from {nsvlab.__file__}, not {SRC}", file=sys.stderr)
        return 1

    run, inputs = prepare(args.workload, args.seed, args.size, args.out)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    ready = time.monotonic()
    cpu0 = cpu_seconds()
    checks = run()
    if args.size == "smoke":
        checks = [c for c in checks if c[2] == EXACT]
    end = time.monotonic()
    cpu1 = cpu_seconds()

    result = {
        "ready": ready,
        "end": end,
        "cpu_s": cpu1 - cpu0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "import_s": import_s,
        "checks": checks,
        "inputs": inputs,
    }
    if tracer is not None:
        from tracing import layer_metrics

        layers = layer_metrics(tracer.spans, tracer.counters, tracer.rss_hwm_mb, end - ready)
        layers["cli.import_s"] = (import_s, "s")
        result.update(layers=layers, spans=tracer.spans, trace_notes=tracer.notes)
    tmp = args.result + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(result, fh)
    os.replace(tmp, args.result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
