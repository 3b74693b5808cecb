"""Kinetic action, occupation samples, and weak-form momentum residuals.

The action of an ensemble is half the expected time integral of the squared
recorded drift.  Per-path time integrals are always formed first and only
then averaged across paths (Rao-Blackwellization over time), so standard
errors honestly reflect between-path variability.

Residuals come in two flavors that must agree in the large-sample limit:
a Monte Carlo pairing of the occupation samples (t, x, v) against a test
field/profile pair, and a deterministic space-time quadrature of the same
integrand against a velocity history.

The Monte Carlo estimators (dpm_residual, first_variation_direct) take one
test pair, and return one estimate, or a list of pairs, and return a list.
A list evaluates each distinct field once per point set, with one phase pass
that contracts each mode of w and of 2 Def*Def w against v (no field value or
Jacobian is formed), and its spatial terms serve every profile paired with
it.  One pair is a list of one, so each formula is written once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .estimates import EstimateWithError
from .fields import FourierVectorField, SpectralBasis, deformation_laplacian, stack_active_modes
from .flows import TimeDependentVelocity
from .sde import TIME_BLOCK, PathEnsemble, running_integral, time_weights


@dataclass
class TestPair:
    """Divergence-free test field w with a smooth profile vanishing at 0 and T."""

    __test__ = False  # not a pytest collection target

    name: str
    w: FourierVectorField
    alpha: Callable[[np.ndarray], np.ndarray]
    dalpha: Callable[[np.ndarray], np.ndarray]
    T: float

    def __post_init__(self):
        if not self.w.is_divergence_free(tol=1e-10):
            raise ValueError("test field must be divergence-free")
        for t in (0.0, self.T):
            if abs(float(self.alpha(np.asarray(t)))) > 1e-12:
                raise ValueError("profile must vanish at both endpoints")


def default_test_bank(basis: SpectralBasis, T: float) -> list[TestPair]:
    """Six fixed pairs: three frame fields crossed with two sine profiles."""
    fields = [
        ("A10", basis.basis_field((1, 0), "cos")),
        ("B11", basis.basis_field((1, 1), "sin")),
        ("A21", basis.basis_field((2, 1), "cos")),
    ]
    profiles = [
        ("sin1", lambda t: np.sin(np.pi * t / T), lambda t: (np.pi / T) * np.cos(np.pi * t / T)),
        ("sin2", lambda t: np.sin(2 * np.pi * t / T), lambda t: (2 * np.pi / T) * np.cos(2 * np.pi * t / T)),
    ]
    return [
        TestPair(f"{fn}x{pn}", w, a, da, T)
        for fn, w in fields
        for pn, a, da in profiles
    ]


@dataclass
class OccupationSet:
    """Samples (t, x, v) of the occupation measure, laid out path-major.

    x is wrapped to [0, 2pi)^2 and v is the recorded drift at that grid time.
    n_paths and n_times allow estimators to re-group samples by path.
    """

    t: np.ndarray  # (n_paths * n_times,)
    x: np.ndarray  # (n_paths * n_times, dim)
    v: np.ndarray  # (n_paths * n_times, dim)
    n_paths: int
    n_times: int


def occupation_measure(ens: PathEnsemble, thin: int = 1) -> OccupationSet:
    """Emit (t_j, g_{t_j}, D_{t_j} g) for strided grid times across all paths."""
    if thin < 1:
        raise ValueError("stride must be at least 1")
    idx = np.arange(0, ens.n_steps + 1, thin)
    times = ens.times[idx]
    x = ens.wrapped_at(idx).reshape(-1, ens.dim)
    v = ens.drift[:, idx].reshape(-1, ens.dim)
    t = np.tile(times, ens.n_paths)
    return OccupationSet(t, x, v, ens.n_paths, idx.size)


def _speed_squared(drift: np.ndarray) -> np.ndarray:
    """|drift|^2 per path and grid time of (N, times, dim) drifts.

    einsum forms it without a drift**2 temporary.
    """
    return np.einsum("nja,nja->nj", drift, drift)


def action_per_path(drift: np.ndarray, dt: float) -> np.ndarray:
    """Per-path kinetic action 0.5 int |drift|^2 dt (trapezoid) of (N, M+1, dim) drifts."""
    return 0.5 * (_speed_squared(drift) @ time_weights(drift.shape[1], dt))


def action(ens: PathEnsemble) -> EstimateWithError:
    """Kinetic action: half the mean over paths of int |drift|^2 dt (trapezoid)."""
    return EstimateWithError.from_samples(action_per_path(ens.drift, ens.dt))


def action_prefixes(ens: PathEnsemble, step_indices) -> list[EstimateWithError]:
    """Actions of the truncated paths up to each requested grid index.

    Shares one ensemble across nested horizons, which is what makes the
    pinned-bridge divergence increments comparable at small variance.

    |drift|^2 is folded through running_integral over blocks of TIME_BLOCK
    steps up to the largest index asked for, each block started from the
    last column of the one before, and only the requested columns are kept:
    bitwise the columns of 0.5 * running_integral(|drift|^2, dt) over the
    whole ensemble, without forming it.
    """
    steps = [range(ens.n_steps + 1)[int(j)] for j in step_indices]
    last = max(steps, default=0)
    kept = {}
    cum = None
    for j0 in range(0, max(last, 1), TIME_BLOCK):
        j1 = min(j0 + TIME_BLOCK, last)  # columns j0..j1, the last shared with the next block
        start = None if cum is None else cum[:, -1]
        cum = running_integral(_speed_squared(ens.drift[:, j0 : j1 + 1]), ens.dt, start)
        kept.update((j, 0.5 * cum[:, j - j0]) for j in steps if j0 <= j <= j1)
    return [EstimateWithError.from_samples(kept[j]) for j in steps]


def group_by_identity(objects: list) -> list[tuple[object, list[int]]]:
    """The distinct objects of a list, told apart by identity, in first-use
    order, each with the indices at which it occurs.  default_test_bank shares
    one field object between its two profiles, and pinned_family one (c, beta)
    pair among the members of one noise functional."""
    groups: dict[int, tuple[object, list[int]]] = {}
    for i, obj in enumerate(objects):
        groups.setdefault(id(obj), (obj, []))[1].append(i)
    return list(groups.values())


def _weak_terms(w: FourierVectorField, x: np.ndarray, v: np.ndarray):
    """Per sample a = w(x).v, b = v.(grad w)(x)v and c = (2 Def*Def w)(x).v,
    contracted against v mode by mode, so no field value or Jacobian is formed.

    Over the half-lattice modes k of w, with coefficients c_k, and the phases
    C = cos(k.x), S = sin(k.x), each an (n, m) array,

        a = mean.v + 2 sum_k (C Re c_k.v - S Im c_k.v),
        b = -2 sum_k (S Re c_k.v + C Im c_k.v) k.v,

    and c is a with the coefficients of 2 Def*Def w, which is active on the
    same modes (|k|^2 c + k (k.c) vanishes only where c does).  S takes over
    the phases' buffer, and b is formed in C's and S's, so at most three (n, m)
    arrays are alive at once.
    """
    box = deformation_laplacian(w)
    kv, (cw, cbox) = stack_active_modes([w.coeffs, box.coeffs])
    ph = x @ kv.T
    cos = np.cos(ph)
    sin = np.sin(ph, out=ph)
    del ph

    def paired(cf, mean):  # mean.v + 2 sum_k (C Re c_k.v - S Im c_k.v)
        out = np.einsum("nm,nm->n", cos, v @ cf.real.T)
        out -= np.einsum("nm,nm->n", sin, v @ cf.imag.T)
        out *= 2.0
        out += v @ mean
        return out

    a = paired(cw, w.mean)
    c = paired(cbox, box.mean)
    sin *= v @ cw.real.T
    cos *= v @ cw.imag.T
    sin += cos
    del cos
    b = np.einsum("nm,nm->n", sin, v @ kv.T)
    b *= -2.0
    return a, b, c


def _weak_integrals(bank: list, nu: float, times: np.ndarray, weights: np.ndarray, x: np.ndarray, v: np.ndarray):
    """Per test pair of bank, the per-path contraction with the time weights
    `weights` of the per-sample weak-form integrand at (t, x, v),

        alpha'(t) w(x).v + alpha(t) (grad_v w)(x).v - nu alpha(t) (2 Def*Def w)(x).v.

    The samples x and v are laid out path-major over the grid times `times`.
    Each distinct field is evaluated once, into a = w.v and b - nu c with
    b = v.(grad w)v and c = (2 Def*Def w).v, which serve all its profiles:
    a pair's vector is a @ (alpha' weights) + (b - nu c) @ (alpha weights),
    with the profiles evaluated on the distinct times only.
    """
    out = [None] * len(bank)
    for w, idx in group_by_identity([pair.w for pair in bank]):
        a, b, c = (y.reshape(-1, times.size) for y in _weak_terms(w, x, v))
        c *= nu
        b -= c
        for i in idx:
            out[i] = a @ (bank[i].dalpha(times) * weights) + b @ (bank[i].alpha(times) * weights)
        del a, b, c  # freed before the next field's terms are formed
    return out


def dpm_residual(
    samples: OccupationSet, pairs: TestPair | list[TestPair], nu: float
) -> EstimateWithError | list[EstimateWithError]:
    """Monte Carlo residual of the occupation measure against one test pair, or
    the list of residuals against a list of pairs.

    Reported in the time-integrated normalization (multiplied by T), matching
    weak_ns_residual, so the two estimators are directly comparable.  Samples
    are reduced within each path before the cross-path mean, otherwise the
    standard error would ignore within-path correlation.  The within-path
    reduction uses trapezoid weights over the sampled grid times: a flat mean
    would overweight the endpoints, where the alpha' part of the integrand
    does not vanish, by O(dt).
    """
    if samples.n_times < 2:
        raise ValueError("need at least two sampled times per path")
    span = samples.t[samples.n_times - 1] - samples.t[0]
    weights = time_weights(samples.n_times, span / (samples.n_times - 1))
    bank = [pairs] if isinstance(pairs, TestPair) else list(pairs)
    per_path = _weak_integrals(bank, nu, samples.t[: samples.n_times], weights, samples.x, samples.v)
    ests = [EstimateWithError.from_samples(y * pair.T / span) for pair, y in zip(bank, per_path)]
    return ests[0] if isinstance(pairs, TestPair) else ests


def first_variation_direct(
    ens: PathEnsemble, pairs: TestPair | list[TestPair], nu: float
) -> EstimateWithError | list[EstimateWithError]:
    """Analytic Gateaux derivative of the action along one test pair, or the
    list of derivatives along a list of pairs.

    Per path, the trapezoidal time integral of the weak-form integrand at
    (t, g_t, D_t g) (see _weak_integrals).
    """
    pts = ens.unwrapped.reshape(-1, ens.dim)
    v = ens.drift.reshape(-1, ens.dim)
    weights = time_weights(ens.n_steps + 1, ens.dt)
    bank = [pairs] if isinstance(pairs, TestPair) else list(pairs)
    ests = [EstimateWithError.from_samples(y) for y in _weak_integrals(bank, nu, ens.times, weights, pts, v)]
    return ests[0] if isinstance(pairs, TestPair) else ests


def weak_ns_residual(u: TimeDependentVelocity, pair: TestPair) -> float:
    """Deterministic weak-form residual of a velocity history.

        int_0^T [ alpha' <u, w> + alpha <u, (grad w) u> - nu alpha <u, 2Def*Def w> ] dt

    Spatial pairings are exact: the linear terms by Parseval, the cubic term
    by an equal-weight grid average fine enough to integrate the trig
    polynomial exactly.  Time integration is trapezoidal on the frame grid.
    """
    w = pair.w
    box_w = deformation_laplacian(w)
    # one truncation of w and of box-w per distinct frame K
    Ks = {f.K for f in u.frames}
    w_at = {K: w.with_truncation(K) for K in Ks}
    box_at = {K: box_w.with_truncation(K) for K in Ks}
    lin_w = np.stack([f.l2_inner(w_at[f.K]) for f in u.frames])
    lin_box = np.stack([f.l2_inner(box_at[f.K]) for f in u.frames])
    n = 2 * u.K + w.K + 2  # integrand degree is 2 K_u + K_w per axis
    U = u.frame_grid_stack(n)
    xs = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    grid_pts = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2)
    J = w.gradient_at(grid_pts).reshape(n, n, 2, 2)
    cubic = np.einsum("txya,xyab,txyb->t", U, J, U) / (n * n)
    t = u.times
    integrand = pair.dalpha(t) * lin_w + pair.alpha(t) * (cubic - u.nu * lin_box)
    return float(integrand @ time_weights(t.size, u.T / max(t.size - 1, 1)))
