"""Config-driven command line front end.

    nsvlab <experiment> [--config file.json] [--<field> VALUE | --<switch>]...

Each fact has one record.  The experiments are the keys of RUNNERS.  Every
ExperimentConfig field but experiment is a flag of its name (output_dir is
--out, and a bool field is a switch), and every field but RUN_CONTROL heads
report.json, in the config's order.  Flag overrides win over the config file.
Each run writes report.json, CSV tables under tables/ (estimates.csv and
verdicts.csv formed from the report's records), and gnuplot-ready two-column
data files under the output directory; exit status is 0 when all verdicts
pass, 2 when a verdict fails, 1 on usage or runtime errors.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
import time
import typing

import numpy as np
from numpy.random import default_rng

try:  # looked up once here, not inside a run
    from threadpoolctl import threadpool_limits
except ImportError:
    threadpool_limits = None

from .action import (
    action as kinetic_action,
    action_prefixes,
    default_test_bank,
    dpm_residual,
    first_variation_direct,
    occupation_measure,
)
from .estimates import EstimateWithError, ks_critical_value, ks_uniform_statistic
from .fields import (
    FourierScalarField,
    FourierVectorField,
    SpectralBasis,
    deformation_inner,
    deformation_laplacian,
    hodge_laplacian,
    leray_project,
    random_divergence_free,
    vector_laplacian,
)
from .flows import (
    TimeDependentVelocity,
    solve_navier_stokes,
    steady_flow,
    taylor_green,
)
from .variation import first_variation_fd, minimality_check, pinned_family
from .sde import (
    FORWARD,
    REVERSED,
    SdeParams,
    brownian_bridge,
    drift_orthogonality,
    measure_density,
    save_ensemble,
    simulate_ito,
    simulate_stratonovich_basis,
)

OUTPUT_ENV_VAR = "NSVLAB_OUT"

# experiments that store an (N, M+1) ensemble, and the peak memory each takes
# per path and grid time: the slope of peak RSS between N = 2000 and N = 8000
# at its config's M, rounded up (Linux x86-64, Python 3.11, numpy 2.4).  The
# stored arrays alone take 48 bytes; the rest is the estimators' temporaries.
PEAK_BYTES_PER_STEP = {"simulate": 55, "action": 81, "criticality": 106, "minimality": 134}
STORED_ENSEMBLE = tuple(PEAK_BYTES_PER_STEP)

# experiments whose statistics are taken over N paths: a standard error or a
# sample variance needs at least two
READS_N = STORED_ENSEMBLE + ("bridge", "measure-preservation")


@dataclasses.dataclass
class ExperimentConfig:
    """One run's settings.  Each field but experiment is a command line flag,
    and each but RUN_CONTROL's a key of report.json's header, in this order."""

    experiment: str
    seed: int = 42
    nu: float = 0.1
    T: float = 1.0
    N: int = 20000
    M: int = 1000
    K: int = 8
    beta: float = 3.0
    drift: str = "taylor-green"
    negative_control: bool = False
    output_dir: str = ""
    threads: int = 0
    save_paths: bool = False

    def resolved_output_dir(self) -> str:
        if self.output_dir:
            return self.output_dir
        return os.environ.get(OUTPUT_ENV_VAR, "out")


def _coerce(name: str, kind: type, value):
    """value as the ExperimentConfig field type kind, or ValueError.

    Numeric strings are parsed, integral floats become ints and ints become
    floats; floats must be finite, and booleans are never taken for numbers.
    """
    try:
        if kind in (int, float) and isinstance(value, str):
            value = kind(value)
        elif kind is int and isinstance(value, float) and value.is_integer():
            value = int(value)
        elif kind is float and type(value) is int:
            value = float(value)
    except (ValueError, OverflowError):
        pass
    if type(value) is not kind or (kind is float and not math.isfinite(value)):
        raise ValueError(f"config field '{name}' must be {kind.__name__}, got {value!r}")
    return value


def load_config(path: str | None, overrides: dict) -> ExperimentConfig:
    data: dict = {}
    if path:
        with open(path) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError(f"config file {path} must hold a JSON object")
        data.update(doc)
    data.update({k: v for k, v in overrides.items() if v is not None})
    types = typing.get_type_hints(ExperimentConfig)
    unknown = set(data) - set(types)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return ExperimentConfig(**{k: _coerce(k, types[k], v) for k, v in data.items()})


def validate(config: ExperimentConfig) -> list[dict]:
    """Return violations; errors make the config unrunnable, warnings do not."""
    issues = []

    def err(msg):
        issues.append({"level": "error", "message": msg})

    def warn(msg):
        issues.append({"level": "warning", "message": msg})

    if config.experiment not in EXPERIMENTS:
        err(f"unknown experiment '{config.experiment}'")
    if config.nu <= 0:
        err("nu must be positive")
    if config.T <= 0:
        err("T must be positive")
    if config.experiment in READS_N and config.N < 2:
        err("N must be at least 2: standard errors need two paths")
    elif config.N <= 0:
        err("N must be positive")
    for name in ("M", "K"):
        if getattr(config, name) <= 0:
            err(f"{name} must be positive")
    if config.experiment == "action" and config.M == 1:
        err("action needs M >= 2: its bias fit reruns the drift at M // 2 steps")
    if config.T > 0 and config.M > 0:
        # an M past float range divides as the largest float, so T/M stays a float
        step = config.T / min(config.M, sys.float_info.max)
        if step < np.finfo(float).tiny:
            err(f"time step T/M = {step:.3g} is below the smallest normal float")
    if config.beta <= 1:
        err("beta must exceed 1")
    if not 0 <= config.seed < 2**64:
        err("seed must be a non-negative 64-bit integer")
    if config.threads < 0:
        err("threads must be non-negative (0 leaves the thread count alone)")
    try:
        parse_drift(config.drift)
    except ValueError as exc:
        err(str(exc))
    if config.experiment in STORED_ENSEMBLE:
        need = PEAK_BYTES_PER_STEP[config.experiment] * config.N * (config.M + 1)
        have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        if need > have:
            gb = need / 1e9 if need < 1e300 else math.inf  # past float range, inf
            err(
                f"N x M = {config.N} x {config.M} needs about {gb:.3g} GB at peak, "
                f"more than the {have / 1e9:.3g} GB of physical memory"
            )
    if config.experiment == "minimality" and config.drift == "taylor-green":
        # decaying-vortex pressure Hessian tops out at 1
        # T * T, not T**2, which raises OverflowError for T past 1e154
        if 1.0 * config.T * config.T > np.pi**2:
            warn(f"RT^2 = {config.T * config.T:.3g} > pi^2: minimality hypothesis violated")
    return issues


def parse_drift(spec: str) -> tuple[str, float | str | None]:
    """The kind of a --drift spec and its argument: ("zero", None),
    ("taylor-green", None), ("corrupted", finite amplitude) or
    ("spectral-file", manifest path).  ValueError for any other spec."""
    if spec in ("taylor-green", "zero"):
        return spec, None
    kind, colon, arg = spec.partition(":")
    if colon and kind == "spectral-file":
        return kind, arg
    if colon and kind == "corrupted":
        try:
            amp = float(arg)
        except ValueError:
            pass
        else:
            if not math.isfinite(amp):
                raise ValueError(f"drift spec '{spec}' needs a finite amplitude")
            return kind, amp
    raise ValueError(f"unrecognized drift spec '{spec}'")


def _corruption_field(K: int, amplitude: float) -> FourierVectorField:
    """Divergence-free non-solution bump along the (1,1) sine frame direction."""
    return FourierVectorField.from_modes(K, {(1, 1): -0.5j * amplitude * np.array([1.0, -1.0])})


def build_drift(config: ExperimentConfig) -> TimeDependentVelocity | None:
    kind, arg = parse_drift(config.drift)
    if kind == "zero":
        return None
    if kind == "spectral-file":
        return TimeDependentVelocity.load(arg)
    tg = taylor_green(config.nu, config.T, config.M, K=2)
    if kind == "taylor-green":
        return tg
    bump = _corruption_field(2, arg)
    return TimeDependentVelocity(tg.times, [f + bump for f in tg.frames], [], config.nu)


# -- report plumbing -------------------------------------------------------------


ESTIMATE_COLUMNS = ["value", "std_error", "n", "nu", "seed"]
# the config fields that say where and how a run goes, not what it computes,
# and so are left out of report.json
RUN_CONTROL = ("output_dir", "threads", "save_paths")


class Report:
    def __init__(self, config: ExperimentConfig):
        self.config = config
        self.estimates: list[dict] = []
        self.verdicts: list[dict] = []
        self.plot_data: dict[str, list] = {}
        # CSV files under tables/ besides the estimates and verdicts, by name:
        # a header and rows of cells
        self.tables: dict[str, tuple[list, list]] = {}

    def estimate_row(self, name: str, value: float, se: float, n: int) -> list:
        """A CSV row: name, then an estimate's cells under ESTIMATE_COLUMNS."""
        return [name, repr(value), repr(se), n, repr(self.config.nu), self.config.seed]

    def add_estimate(self, name: str, est: EstimateWithError):
        self.estimates.append({"name": name, "value": est.value, "se": est.std_error, "n": est.n})

    def add_value(self, name: str, value: float):
        self.add_estimate(name, EstimateWithError(float(value), 0.0, 1))

    def add_verdict(self, name: str, ok: bool):
        self.verdicts.append({"name": name, "pass": bool(ok)})

    def all_pass(self) -> bool:
        return all(v["pass"] for v in self.verdicts)

    def to_dict(self) -> dict:
        c = self.config
        header = {f.name: getattr(c, f.name) for f in dataclasses.fields(c) if f.name not in RUN_CONTROL}
        return {
            **header,
            "estimates": self.estimates,
            "verdicts": self.verdicts,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        }

    def write(self, outdir: str):
        os.makedirs(outdir, exist_ok=True)
        with open(os.path.join(outdir, "report.json"), "w") as fh:
            json.dump(self.to_dict(), fh, indent=1)
        tables = os.path.join(outdir, "tables")
        os.makedirs(tables, exist_ok=True)
        records = {
            "estimates": (["name", *ESTIMATE_COLUMNS], [self.estimate_row(**e) for e in self.estimates]),
            "verdicts": (["name", "pass"], [[v["name"], int(v["pass"])] for v in self.verdicts]),
        }
        for name, (header, rows) in {**records, **self.tables}.items():
            with open(os.path.join(tables, f"{name}.csv"), "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(header)
                w.writerows(rows)
        emit_plots(self, outdir)


def emit_plots(report: Report, outdir: str) -> list[str]:
    """Write two-column whitespace-separated data files for plotting."""
    written = []
    plots = os.path.join(outdir, "plots")
    for name, rows in report.plot_data.items():
        if not rows:
            continue
        os.makedirs(plots, exist_ok=True)
        path = os.path.join(plots, f"{name}.dat")
        with open(path, "w") as fh:
            for x, y in rows:
                fh.write(f"{x!r} {y!r}\n")
        written.append(path)
    return written


# -- experiments ------------------------------------------------------------------


def run_fields_check(config: ExperimentConfig, report: Report, outdir: str):
    basis = SpectralBasis(beta=config.beta, K=config.K, nu=config.nu)
    rng = default_rng(config.seed)

    worst = 0.0
    for _ in range(100):
        v = rng.standard_normal(2) * 3
        theta = rng.uniform(0, 2 * np.pi, 2)
        got = basis.frame_sum(v, theta)
        want = config.nu * float(v @ v)
        worst = max(worst, abs(got - want) / max(abs(want), 1e-300))
    report.add_value("frame_identity_max_rel_err", worst)
    report.add_verdict("frame_identity", worst <= 1e-12)

    sc = max(
        float(np.max(np.abs(basis.stratonovich_correction(rng.uniform(0, 2 * np.pi, 2)))))
        for _ in range(5)
    )
    report.add_value("stratonovich_correction_max", sc)
    report.add_verdict("stratonovich_correction_zero", sc <= 1e-12)

    lap_err = adj_err = proj_err = pars_err = 0.0
    for i in range(20):
        f = random_divergence_free(config.K, seed=config.seed + i)
        ref = vector_laplacian(f)
        scale = max(np.max(np.abs(ref.coeffs)), 1e-300)
        lap_err = max(
            lap_err,
            np.max(np.abs(deformation_laplacian(f).coeffs - ref.coeffs)) / scale,
            np.max(np.abs(hodge_laplacian(f).coeffs - ref.coeffs)) / scale,
        )
        a = random_divergence_free(config.K, seed=2 * config.seed + i)
        b = random_divergence_free(config.K, seed=3 * config.seed + i)
        adj_err = max(adj_err, abs(deformation_laplacian(a).l2_inner(b) - 2 * deformation_inner(a, b)))
        proj = leray_project(f)
        proj_err = max(proj_err, float(np.max(np.abs(proj.coeffs - f.coeffs))))
        grid = f.to_grid(64)
        pars_err = max(
            pars_err,
            abs(float(np.mean(np.sum(grid**2, axis=-1))) - f.l2_inner(f))
            / max(f.l2_inner(f), 1e-300),
        )
    report.add_value("laplacian_identity_max_rel_err", lap_err)
    report.add_verdict("laplacian_identities", lap_err <= 1e-12)
    report.add_value("adjointness_max_abs_err", adj_err)
    report.add_verdict("deformation_adjointness", adj_err <= 1e-10)
    report.add_value("leray_fixed_point_max_err", proj_err)
    report.add_verdict("leray_fixes_divergence_free", proj_err <= 1e-14)
    report.add_value("parseval_max_rel_err", pars_err)
    report.add_verdict("parseval", pars_err <= 1e-10)


def run_ns_solve(config: ExperimentConfig, report: Report, outdir: str):
    dt = config.T / config.M
    tg = taylor_green(config.nu, config.T, config.M, K=config.K)
    solved = solve_navier_stokes(tg.frames[0], config.nu, config.T, config.M)
    err = (solved.frames[-1] - tg.frames[-1]).l2_norm()
    report.add_value("final_l2_error", err)
    report.add_verdict("matches_exact_solution", err <= 1e-6)
    div = max(f.divergence_defect() for f in solved.frames[:: max(1, config.M // 10)])
    report.add_value("max_divergence_defect", div)
    report.add_verdict("divergence_free", div <= 1e-12)
    energies = [0.5 * f.l2_inner(f) for f in solved.frames]
    report.add_verdict("energy_nonincreasing", all(b <= a + 1e-14 for a, b in zip(energies, energies[1:])))
    report.plot_data["energy_vs_time"] = list(zip(solved.times.tolist(), energies))
    report.add_value("dt", dt)
    if config.save_paths:
        solved.save(os.path.join(outdir, "flow"), "solved")


def _simulate_from_config(config: ExperimentConfig, drift, orientation: str, N=None, M=None):
    params = SdeParams(nu=config.nu, T=config.T, drift_source=drift, orientation=orientation)
    return simulate_ito(params, config.N if N is None else N, config.M if M is None else M, seed=config.seed)


def run_simulate(config: ExperimentConfig, report: Report, outdir: str):
    ens = _simulate_from_config(config, build_drift(config), FORWARD)
    disp = ens.unwrapped[:, -1] - ens.unwrapped[:, 0]
    var = disp.var(axis=0, ddof=1)
    for d in range(2):
        report.add_value(f"displacement_variance_{d}", var[d])
    if config.drift == "zero":
        target = 2.0 * config.nu * config.T
        se = target * np.sqrt(2.0 / (config.N - 1))
        ok = all(abs(var[d] - target) <= 3 * se for d in range(2))
        report.add_verdict("heat_variance", ok)
    fracs = (0.25, 0.5, 1.0)
    # 5% for the whole family of 2 len(fracs) KS tests (Bonferroni), not for one
    ks_cap = ks_critical_value(config.N, 0.05 / (2 * len(fracs)))
    worst = 0.0
    for frac in fracs:
        x = ens.wrapped_at(round(frac * ens.n_steps))
        for d in range(2):
            worst = max(worst, ks_uniform_statistic(x[:, d]))
    report.add_value("ks_worst", worst)
    report.add_verdict("uniform_marginals", worst <= ks_cap)
    if config.save_paths:
        save_ensemble(ens, os.path.join(outdir, "ensemble"))


def run_action(config: ExperimentConfig, report: Report, outdir: str):
    drift = build_drift(config)
    ens = _simulate_from_config(config, drift, FORWARD)
    est = kinetic_action(ens)
    report.add_estimate("action", est)
    if config.drift == "zero":
        report.add_verdict("zero_drift_zero_action", est.value == 0.0 and est.std_error == 0.0)
    elif config.drift == "taylor-green":
        exact = (1.0 - np.exp(-4.0 * config.nu * config.T)) / (16.0 * config.nu)
        coarse = _simulate_from_config(config, drift, FORWARD, M=config.M // 2)
        est2 = kinetic_action(coarse)
        dt = config.T / config.M
        bias_rate = abs(est2.value - est.value) / dt  # est(2 dt) - est(dt) ~ C dt
        report.add_value("action_exact", exact)
        report.add_value("fitted_bias", bias_rate * dt)
        report.add_verdict(
            "action_matches_closed_form",
            abs(est.value - exact) <= 3 * est.std_error + bias_rate * dt,
        )


def run_criticality(config: ExperimentConfig, report: Report, outdir: str):
    basis = SpectralBasis(beta=config.beta, K=config.K, nu=config.nu)
    bank = default_test_bank(basis, config.T)
    drift = build_drift(config)
    ens = _simulate_from_config(config, drift, FORWARD)
    occ = occupation_measure(ens, thin=max(1, config.M // 200))
    residuals = dpm_residual(occ, bank, config.nu)
    # the negative control reads only the DPM residuals, so no variation is computed
    variations = [None] * len(bank) if config.negative_control else first_variation_direct(ens, bank, config.nu)
    for pair, res, fv in zip(bank, residuals, variations):
        report.add_estimate(f"dpm_{pair.name}", res)
        report.add_verdict(f"dpm_zero_{pair.name}", abs(res.value) <= 3 * res.std_error)
        if fv is not None:
            report.add_estimate(f"variation_{pair.name}", fv)
            report.add_verdict(f"variation_zero_{pair.name}", abs(fv.value) <= 3 * fv.std_error)
    if config.negative_control:
        detected = any(abs(r.value) > 5 * r.std_error for r in residuals)
        report.add_verdict("negative_control_detected", detected)
    else:
        # finite differences on a reduced common-random-number ensemble
        small = _simulate_from_config(config, drift, FORWARD, N=min(config.N, 1200), M=min(config.M, 150))
        fds = [first_variation_fd(small, pair, config.nu) for pair in bank]
        for pair, fd, dv in zip(bank, fds, first_variation_direct(small, bank, config.nu)):
            report.add_estimate(f"variation_fd_{pair.name}", fd)
            report.add_verdict(
                f"fd_matches_direct_{pair.name}",
                abs(fd.value - dv.value) <= 3 * fd.combined_se(dv),
            )
    report.plot_data["residual_over_se"] = [
        (i, res.value / max(res.std_error, 1e-300)) for i, res in enumerate(residuals)
    ]
    report.tables["residuals"] = (
        ["pair_name", *ESTIMATE_COLUMNS],
        [report.estimate_row(pair.name, res.value, res.std_error, res.n) for pair, res in zip(bank, residuals)],
    )


def run_minimality(config: ExperimentConfig, report: Report, outdir: str):
    drift = build_drift(config)
    if drift is None or not drift.pressures:
        raise ValueError("minimality requires a drift with pressure frames")
    ens = _simulate_from_config(config, drift, REVERSED)
    members = pinned_family(ens, 20, seed=config.seed)
    rep = minimality_check(ens, members, drift)
    report.add_estimate("S_g", rep["S_g"])
    report.add_estimate("B_g", rep["B_g"])
    report.add_value("hessian_bound", rep["hessian_bound"])
    # hypothesis violation is warning-level by design, never a failing verdict
    report.add_value("hypothesis_RT2_ok", float(rep["hypothesis_ok"]))
    if not rep["hypothesis_ok"]:
        print("warning: RT^2 > pi^2, minimality hypothesis violated", file=sys.stderr)
    for row in rep["members"]:
        report.add_estimate(f"S_{row['member']}", row["S_star"])
        report.add_verdict(f"ok_{row['member']}", row["ok"])
    report.add_verdict("minimality_all_members", rep["all_ok"])
    report.add_value("endpoint_error_max", max(row["endpoint_error"] for row in rep["members"]))


def run_bridge(config: ExperimentConfig, report: Report, outdir: str):
    j_levels = list(range(3, 9))
    # dt = (1 - 2^-8)/8160 puts every dyadic cutoff time exactly on the grid
    M = 2**13 - 2**5
    ens = brownian_bridge(0.0, 0.0, N=min(config.N, 4000), M=M, cutoff=2.0**-8, seed=config.seed)
    steps = [round((1.0 - 2.0**-j) / ens.dt) for j in j_levels]
    acts = action_prefixes(ens, steps)
    rows = []
    for j, est in zip(j_levels, acts):
        report.add_estimate(f"action_cutoff_2^-{j}", est)
        # closed form S(eps) = (1/2)(log(1/eps) - 1 + eps) of the pinned bridge
        report.add_value(f"action_exact_2^-{j}", 0.5 * (np.log(2.0**j) - 1 + 2.0**-j))
        rows.append((j, est.value))
    report.plot_data["bridge_action_vs_log2_cutoff"] = rows
    increasing = all(
        b.value - a.value > 3 * a.combined_se(b) for a, b in zip(acts, acts[1:])
    )
    report.add_verdict("action_strictly_increasing", increasing)
    ok_incr = True
    for (j, a), b in zip(zip(j_levels, acts), acts[1:]):
        eps = 2.0**-j
        exact_inc = 0.5 * (np.log(2.0) - 0.5 * eps)
        ok_incr &= abs((b.value - a.value) - exact_inc) <= 3 * a.combined_se(b)
    report.add_verdict("increments_match_half_log2", ok_incr)
    jmid = ens.step_index(0.4375)  # = 7/16, exactly on the dyadic grid
    tmid = ens.times[jmid]
    mean_est = EstimateWithError.from_samples(ens.unwrapped[:, jmid, 0])
    var_samples = ens.unwrapped[:, jmid, 0] ** 2
    var_est = EstimateWithError.from_samples(var_samples)
    report.add_estimate("bridge_mean_mid", mean_est)
    report.add_estimate("bridge_var_mid", var_est)
    report.add_verdict("bridge_mean", mean_est.within(0.0, 3))
    report.add_verdict("bridge_variance", var_est.within(tmid * (1 - tmid), 3))


def run_measure_preservation(config: ExperimentConfig, report: Report, outdir: str):
    basis = SpectralBasis(beta=config.beta, K=min(config.K, 2), nu=config.nu)
    N = min(config.N, 2000)
    M = min(config.M, 400)
    params = SdeParams(nu=config.nu, T=config.T)
    ens = simulate_stratonovich_basis(params, basis, N=N, M=M, seed=config.seed)
    # div of each channel's field as the engine drives it: sqrt(2) A_k, then sqrt(2) B_k
    frame = [basis.basis_field(k, kind) * np.sqrt(2.0) for kind in ("cos", "sin") for k in basis.kvecs]
    noise_divs = [f.divergence_field().evaluate_at for f in frame]
    dens = measure_density(ens, noise_divs)
    dev = float(np.max(np.abs(dens - 1.0)))
    report.add_value("density_dev_solenoidal", dev)
    # exact at K <= 2, where every k.c_k is exactly zero
    report.add_verdict("density_one_for_solenoidal", dev == 0.0)

    grad = FourierScalarField.from_modes(2, {(1, 0): -0.5j}).gradient_field()  # grad sin x1
    drift = steady_flow(grad, config.T, 2, config.nu, require_divergence_free=False)
    params2 = SdeParams(nu=config.nu, T=config.T, drift_source=drift)
    ens2 = simulate_stratonovich_basis(params2, basis, N=N, M=M, seed=(config.seed + 1) % 2**64)
    dens2 = measure_density(ens2, noise_divs, grad.divergence_field().evaluate_at)
    frac = float(np.mean(np.max(np.abs(dens2 - 1.0), axis=1) > 0.01))
    report.add_value("density_moved_fraction", frac)
    report.add_verdict("gradient_drift_moves_density", frac >= 0.9)

    f_probe = FourierScalarField.from_modes(2, {(1, 0): 0.5})  # cos x1
    ito_pos = _simulate_from_config(
        config, build_drift(config), FORWARD, N=min(config.N, 20000), M=min(config.M, 500)
    )
    t_mid = ito_pos.times[ito_pos.n_steps // 2]  # on the grid for odd M too
    pos = drift_orthogonality(ito_pos, f_probe, t_mid)
    report.add_estimate("orthogonality_positive", pos)
    report.add_verdict("orthogonality_zero", abs(pos.value) <= 3 * pos.std_error)
    # negative control, a fixed construction: the gradient drift with nu =
    # 0.05 for drift and noise, every path started at one point
    neg_nu = 0.05
    neg_params = SdeParams(
        nu=neg_nu,
        T=config.T,
        drift_source=steady_flow(grad, config.T, 2, neg_nu, require_divergence_free=False),
        initial_law=("fixed", (np.pi / 4.0, 0.0)),
    )
    neg_ens = simulate_ito(neg_params, N=min(config.N, 20000), M=min(config.M, 500), seed=config.seed)
    neg = drift_orthogonality(neg_ens, f_probe, t_mid)
    report.add_estimate("orthogonality_negative", neg)
    report.add_verdict("orthogonality_negative_detected", abs(neg.value) > 3 * neg.std_error)


RUNNERS = {
    "fields-check": run_fields_check,
    "ns-solve": run_ns_solve,
    "simulate": run_simulate,
    "action": run_action,
    "criticality": run_criticality,
    "minimality": run_minimality,
    "bridge": run_bridge,
    "measure-preservation": run_measure_preservation,
}
EXPERIMENTS = tuple(RUNNERS)


def run(config: ExperimentConfig) -> int:
    issues = validate(config)
    errors = [i for i in issues if i["level"] == "error"]
    for i in issues:
        print(f"{i['level']}: {i['message']}", file=sys.stderr)
    if errors:
        return 1
    if config.threads > 0:
        if threadpool_limits is not None:
            threadpool_limits(config.threads)
        else:
            print("warning: threadpoolctl unavailable, --threads recorded only", file=sys.stderr)
    outdir = config.resolved_output_dir()
    report = Report(config)
    try:
        RUNNERS[config.experiment](config, report, outdir)
    except (ValueError, FloatingPointError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report.write(outdir)
    for v in report.verdicts:
        print(f"[{'PASS' if v['pass'] else 'FAIL'}] {config.experiment}: {v['name']}")
    return 0 if report.all_pass() else 2


def _parser() -> argparse.ArgumentParser:
    """The command line: the experiment, --config, and one flag per other
    ExperimentConfig field, named after it (output_dir is --out).  A bool
    field is a switch; any other value is left a string for load_config to
    coerce, so a bad one is one error line."""
    parser = argparse.ArgumentParser(prog="nsvlab", description=__doc__)
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", help="JSON config file")
    for name, kind in list(typing.get_type_hints(ExperimentConfig).items())[1:]:
        flag = "--out" if name == "output_dir" else "--" + name.replace("_", "-")
        parser.add_argument(flag, dest=name, action="store_true" if kind is bool else "store", default=None)
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse uses status 2 for usage errors; 2 is reserved for failed verdicts
        return 0 if exc.code in (0, None) else 1
    overrides = {k: v for k, v in vars(args).items() if k != "config"}
    try:
        config = load_config(args.config, overrides)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
