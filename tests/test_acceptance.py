"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Each criterion that an experiment computes runs that experiment in process:
the same `cli.run` that `nsvlab <experiment>` runs, on its checked-in
`configs/<experiment>.json`.  Sizes and seeds live in those configs, and the
gates and tolerances in the experiment functions of `cli.py`; the tests here
assert the experiment's verdicts and print the values it reports.  Only the
checks that no experiment computes (criterion 3's momentum residual, and
criteria 7, 9 and 12) are computed here.  Statistical gates use 3 standard
errors unless a criterion states otherwise.  Run with -s (or read captured
output) to see the per-criterion lines.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import ns_residual_norm
from nsvlab.action import default_test_bank, weak_ns_residual
from nsvlab.cli import load_config, run
from nsvlab.estimates import EstimateWithError
from nsvlab.fields import SpectralBasis
from nsvlab.flows import steady_flow, taylor_green
from nsvlab.sde import REVERSED, SdeParams, simulate_ito
from nsvlab.variation import sample_pinned_perturbation

pytestmark = pytest.mark.slow

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
NU, T = 0.1, 1.0
SEED = 42


def finish(label: str, checks: list):
    ok = all(v for _, v in checks)
    print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    for name, v in checks:
        print(f"    {'ok  ' if v else 'FAIL'} {name}")
    assert ok, f"{label}: failing checks {[n for n, v in checks if not v]}"


def run_experiment(name: str, out: Path, **overrides):
    """Run configs/<name>.json (plus overrides of its fields) as nsvlab does;
    return its verdicts by name and its estimates by name."""
    config = load_config(str(CONFIGS / f"{name}.json"), {"output_dir": str(out), **overrides})
    code = run(config)
    assert code in (0, 2), f"nsvlab {name} exited {code}"
    doc = json.loads((out / "report.json").read_text())
    return {v["name"]: v["pass"] for v in doc["verdicts"]}, {e["name"]: e for e in doc["estimates"]}


def in_se(e: dict) -> float:
    return abs(e["value"]) / e["se"]


def bank():
    """The six (field, profile) test pairs of the criticality criteria."""
    return default_test_bank(SpectralBasis(beta=3.0, K=8, nu=NU), T)


def test_criterion_01_operator_identities(tmp_path):
    ok, val = run_experiment("fields-check", tmp_path)
    lap = val["laplacian_identity_max_rel_err"]["value"]
    adj = val["adjointness_max_abs_err"]["value"]
    proj = val["leray_fixed_point_max_err"]["value"]
    pars = val["parseval_max_rel_err"]["value"]
    finish(
        "criterion 1: operator identities",
        [
            (f"deformation == hodge == -laplace, rel err {lap:.2e} <= 1e-12", ok["laplacian_identities"]),
            (f"adjoint pairing err {adj:.2e} <= 1e-10", ok["deformation_adjointness"]),
            (f"Leray projection fixes divergence-free fields, err {proj:.2e} <= 1e-14",
             ok["leray_fixes_divergence_free"]),
            (f"Parseval rel err {pars:.2e} <= 1e-10", ok["parseval"]),
        ],
    )


def test_criterion_02_frame_identity(tmp_path):
    ok, val = run_experiment("fields-check", tmp_path)
    worst = val["frame_identity_max_rel_err"]["value"]
    sc = val["stratonovich_correction_max"]["value"]
    finish(
        "criterion 2: frame identity and self-advection",
        [
            (f"frame sum rel err {worst:.2e} <= 1e-12", ok["frame_identity"]),
            (f"self-advection sum {sc:.2e} <= 1e-12", ok["stratonovich_correction_zero"]),
        ],
    )


def test_criterion_03_exact_solution_and_solver(tmp_path):
    tg = taylor_green(NU, T, 1000, K=2)
    worst = max(ns_residual_norm(tg, t) for t in (0.1, 0.25, 0.5, 0.75, 0.9))
    checks = [(f"momentum residual {worst:.2e} <= 1e-10 at 5 times", worst <= 1e-10)]
    ok, val = run_experiment("ns-solve", tmp_path)
    err = val["final_l2_error"]["value"]
    checks += [
        (f"solver L2 error {err:.2e} <= 1e-6 at T=0.5", ok["matches_exact_solution"]),
        (f"solver divergence defect {val['max_divergence_defect']['value']:.2e} <= 1e-12",
         ok["divergence_free"]),
        ("solver energy non-increasing", ok["energy_nonincreasing"]),
    ]
    finish("criterion 3: exact solution and spectral solver", checks)


def test_criterion_04_heat_null(tmp_path):
    # the KS cap 1.36/sqrt(N) is a 5%-significance statistic per (time,
    # coordinate); the config's fixed seed keeps the gate deterministic, and
    # leaves a wide margin (worst KS ~ 0.56 of the cap)
    ok, val = run_experiment("simulate", tmp_path)
    v0, v1 = (val[f"displacement_variance_{d}"]["value"] for d in range(2))
    finish(
        "criterion 4: heat null test",
        [
            (f"variances {v0:.5f}, {v1:.5f} vs 2 nu T within 3 SE", ok["heat_variance"]),
            (f"KS {val['ks_worst']['value']:.4f} <= 1.36/sqrt(N)", ok["uniform_marginals"]),
        ],
    )


def test_criterion_05_action_value(tmp_path):
    ok, val = run_experiment("action", tmp_path)
    est, exact, bias = val["action"], val["action_exact"]["value"], val["fitted_bias"]["value"]
    finish(
        "criterion 5: kinetic action value",
        [
            (
                f"action {est['value']:.6f} vs exact {exact:.6f} within 3 SE + fitted bias "
                f"({est['se']:.1e}, {bias:.1e})",
                ok["action_matches_closed_form"],
            )
        ],
    )


def test_criterion_06_criticality(tmp_path):
    ok, val = run_experiment("criticality", tmp_path / "positive")
    names = [pair.name for pair in bank()]
    checks = []
    for name in names:
        e = val[f"dpm_{name}"]
        checks.append((f"dpm {name} = {e['value']:+.2e} ({in_se(e):.2f} SE)", ok[f"dpm_zero_{name}"]))
    for name in names:
        e = val[f"variation_{name}"]
        checks.append((f"variation {name} = {e['value']:+.2e} ({in_se(e):.2f} SE)", ok[f"variation_zero_{name}"]))
    for name in names:
        fd = val[f"variation_fd_{name}"]
        checks.append((f"fd {name} = {fd['value']:+.2e} matches direct within 3 SE", ok[f"fd_matches_direct_{name}"]))
    neg_ok, neg = run_experiment(
        "criticality", tmp_path / "negative", drift="corrupted:0.5", negative_control=True, M=400
    )
    worst = max(in_se(neg[f"dpm_{name}"]) for name in names)
    checks.append((f"corrupted drift detected at {worst:.1f} SE > 5", neg_ok["negative_control_detected"]))
    finish("criterion 6: criticality", checks)


def test_criterion_07_deterministic_weak_form():
    pairs = bank()
    tg = taylor_green(NU, T, 8192)
    worst = max(abs(weak_ns_residual(tg, pair)) for pair in pairs)
    checks = [(f"exact-solution residual {worst:.2e} <= 1e-8", worst <= 1e-8)]
    frozen = steady_flow(taylor_green(NU, T, 2).frames[0], T, 512, NU)
    neg = max(abs(weak_ns_residual(frozen, pair)) for pair in pairs)
    checks.append((f"frozen-profile residual {neg:.2e} >= 1e-3", neg >= 1e-3))
    finish("criterion 7: deterministic weak form", checks)


def test_criterion_08_minimality(tmp_path):
    ok, val = run_experiment("minimality", tmp_path)
    R = val["hessian_bound"]["value"]
    endpoint = val["endpoint_error_max"]["value"]
    members = [name[len("ok_"):] for name in ok if name.startswith("ok_")]
    checks = [(f"hessian bound R = {R:.3f}, R T^2 <= pi^2",
               abs(R - 1) < 1e-10 and val["hypothesis_RT2_ok"]["value"] == 1.0)]
    checks += [
        (f"member {name}: E B(g) <= E B(g*) + 3 SE, E S(g) <= E S(g*) + 3 SE, "
         f"gap = half offset energy within 3 SE, Poincare ratio <= 1 + 1e-6", ok[f"ok_{name}"])
        for name in members
    ]
    checks += [
        (f"all {len(members)} members", len(members) == 20 and ok["minimality_all_members"]),
        (f"max endpoint error {endpoint:.1e} <= 1e-10", endpoint <= 1e-10),
    ]
    finish("criterion 8: minimality over pinned competitors", checks)


def test_criterion_09_closing_derivative():
    params = SdeParams(nu=NU, T=T, drift_source=taylor_green(NU, T, 1000), orientation=REVERSED)
    ens = simulate_ito(params, N=6000, M=500, seed=SEED)
    checks = []
    directions = [((0.6, 0.1), lambda w: np.cos(w[:, 0])),
                  ((0.2, 0.5), lambda w: np.sin(w[:, 0] + w[:, 1])),
                  ((0.4, -0.3), lambda w: np.tanh(w[:, 0]))]
    eps = 0.05
    for a, fn in directions:
        member = sample_pinned_perturbation(ens, fn, a)
        sp = 0.5 * np.trapezoid(np.sum((ens.drift + eps * member.v) ** 2, axis=2), dx=ens.dt, axis=1)
        sm = 0.5 * np.trapezoid(np.sum((ens.drift - eps * member.v) ** 2, axis=2), dx=ens.dt, axis=1)
        est = EstimateWithError.from_samples((sp - sm) / (2 * eps))
        checks.append(
            (f"dS/d eps at 0 = {est.value:+.2e} ({abs(est.value) / est.std_error:.2f} SE)",
             abs(est.value) <= 3 * est.std_error)
        )
    finish("criterion 9: closing derivative along pinned directions", checks)


def test_criterion_10_bridge_divergence(tmp_path):
    ok, val = run_experiment("bridge", tmp_path)
    acts = [val[f"action_cutoff_2^-{j}"]["value"] for j in range(3, 9)]
    incs = ", ".join(f"{b - a:.4f}" for a, b in zip(acts, acts[1:]))
    mean, var = val["bridge_mean_mid"]["value"], val["bridge_var_mid"]["value"]
    finish(
        "criterion 10: bridge action divergence",
        [
            ("action strictly increasing beyond error bars", ok["action_strictly_increasing"]),
            (f"increments {incs} vs 0.5 (log 2 - eps/2) within 3 SE", ok["increments_match_half_log2"]),
            (f"mean {mean:+.4f} vs 0 within 3 SE", ok["bridge_mean"]),
            (f"variance {var:.4f} vs t(1-t) within 3 SE", ok["bridge_variance"]),
        ],
    )


def test_criterion_11_measure_preservation(tmp_path):
    ok, val = run_experiment("measure-preservation", tmp_path)
    frac = val["density_moved_fraction"]["value"]
    pos, neg = val["orthogonality_positive"], val["orthogonality_negative"]
    finish(
        "criterion 11: measure preservation",
        [
            ("solenoidal fields give K == 1 exactly", ok["density_one_for_solenoidal"]),
            (f"gradient drift moves K on {100 * frac:.1f}% of paths >= 90%", ok["gradient_drift_moves_density"]),
            (f"orthogonality positive control {pos['value']:+.2e} ({in_se(pos):.2f} SE)", ok["orthogonality_zero"]),
            (f"orthogonality negative control {neg['value']:+.2e} ({in_se(neg):.1f} SE) > 3",
             ok["orthogonality_negative_detected"]),
        ],
    )


def test_criterion_12_reproducibility(tmp_path):
    outs = []
    for threads in (1, 2):
        out = tmp_path / f"t{threads}"
        env = dict(os.environ)
        env.update(
            OPENBLAS_NUM_THREADS=str(threads),
            OMP_NUM_THREADS=str(threads),
            MKL_NUM_THREADS=str(threads),
        )
        proc = subprocess.run(
            [
                sys.executable, "-m", "nsvlab.cli", "simulate",
                "--drift", "taylor-green", "--N", "3000", "--M", "200",
                "--seed", str(SEED), "--threads", str(threads), "--out", str(out),
            ],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode in (0, 2), proc.stderr
        outs.append(out)

    def numeric_payload(out):
        doc = json.loads((out / "report.json").read_text())
        doc.pop("timestamp")
        return json.dumps(doc, sort_keys=True)

    same_report = numeric_payload(outs[0]) == numeric_payload(outs[1])
    same_tables = (outs[0] / "tables" / "estimates.csv").read_bytes() == (
        outs[1] / "tables" / "estimates.csv"
    ).read_bytes()
    finish(
        "criterion 12: reproducibility across thread counts",
        [
            ("report.json byte-identical after timestamp strip", same_report),
            ("estimates table byte-identical", same_tables),
        ],
    )
