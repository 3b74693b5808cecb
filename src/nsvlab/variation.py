"""Perturbations of stochastic Lagrangian ensembles and variational checks.

Covers the two perturbation-of-identity families (both reduce to the flow of
the test field for autonomous w), a finite-difference estimator of the
action's Gateaux derivative with common random numbers, the constructive
family of noise-sharing endpoint-pinned competitors, and the minimality and
mean-acceleration diagnostics for ensembles generated from a classical
solution.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from numpy.random import default_rng

from .action import TestPair, action_per_path, group_by_identity
from .estimates import EstimateWithError
from .fields import FourierVectorField, TWO_PI
from .flows import TimeDependentVelocity
from .sde import PathEnsemble, REVERSED, running_integral, time_block, time_weights

# the first variation's finite differences: the central-difference step of
# its spatial derivatives, its epsilon levels (each half the last), the
# relative tolerance within which its two Richardson extrapolants agree, and
# the RK4 steps of the perturbation flow of a non-shear test field
FD_STEP = 1e-3
FD_LEVELS = (0.1, 0.05, 0.025)
EXTRAPOLANT_TOL = 0.05
FLOW_STEPS = 4
# minimality gates: standard errors of a paired comparison, and the slack of
# the Poincare ratio's bound 1
GATE_SE = 3.0
POINCARE_MARGIN = 1e-6
# coarse time bins of the mean-acceleration residual
ACCELERATION_BINS = 16

# -- perturbation flows --------------------------------------------------------


def _flow_map(w: FourierVectorField, points: np.ndarray, n_steps: int = FLOW_STEPS):
    """The map tau -> flow of dx/ds = w(x) from points over per-point horizons
    tau (scalar or array), for many tau on one point set.

    When w is a shear field (w.is_shear(): all active wavevectors parallel to
    one direction d, every coefficient and the mean orthogonal to d), d.x is
    invariant along the flow because d.w = 0, so w is constant along each
    trajectory and the flow is exactly x + tau w(x): w is evaluated once, here,
    and serves every tau.  Every single-mode frame field, and every constant
    field, is a shear field.  Any other field is integrated by n_steps
    classical RK4 steps for each tau.
    """
    x0 = np.atleast_2d(np.asarray(points, dtype=float))
    w0 = w.evaluate_at(x0) if w.is_shear() else None

    def flow(tau) -> np.ndarray:
        tau = np.broadcast_to(np.asarray(tau, dtype=float), x0.shape[:1])
        if w0 is not None:
            x = x0 + tau[:, None] * w0
        else:
            x = x0
            h = (tau / n_steps)[:, None]
            for _ in range(n_steps):
                k1 = w.evaluate_at(x)
                k2 = w.evaluate_at(x + 0.5 * h * k1)
                k3 = w.evaluate_at(x + 0.5 * h * k2)
                k4 = w.evaluate_at(x + h * k3)
                x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(x)):
            raise FloatingPointError("perturbation flow produced non-finite values")
        return x

    return flow


def flow_points(w: FourierVectorField, tau, points: np.ndarray, n_steps: int = FLOW_STEPS) -> np.ndarray:
    """Flow of dx/ds = w(x) over per-point horizons tau (scalar or array):
    x + tau w(x) for a shear field, n_steps RK4 steps otherwise (see _flow_map)."""
    return _flow_map(w, points, n_steps)(tau)


def flow_psi(pair: TestPair, eps: float, t, points: np.ndarray) -> np.ndarray:
    """Frozen-time perturbation: integrate alpha(t) w for parameter length eps.

    Equivalently the flow of w for time eps * alpha(t).  For an autonomous
    test field this coincides with the moving-time perturbation
    dPhi/dt = eps alpha'(t) w(Phi), Phi_0 = id: integrating eps alpha'(s) w
    along s in [0, t] is the flow of w for time eps alpha(t).
    """
    tau = eps * pair.alpha(np.asarray(t, dtype=float))
    return flow_points(pair.w, tau, points)


# -- finite-difference first variation ------------------------------------------


def first_variation_fd(ens: PathEnsemble, pair: TestPair, nu: float) -> EstimateWithError:
    """Central-difference dS(Psi_eps(g))/d eps at eps = 0 along one test pair,
    Richardson refined.

    Psi_eps pushes the ensemble forward, t -> Psi_eps^t(g_t) with Psi_eps^t the
    flow of w for time eps alpha(t) (see flow_psi).  The perturbed drift is
    rebuilt from the flat-space pushforward rule

        D_t(Psi(g)) = dPsi/dt + (grad Psi) D_t g + nu * (componentwise Lap Psi)

    with every spatial derivative of the flow map taken by central finite
    differences of step FD_STEP around each sample (the time part is analytic:
    d/dt Psi_eps^t(x) = eps alpha'(t) w(Psi_eps^t(x))).

    Common random numbers throughout: every epsilon reuses the same stored
    paths, so per-path derivative samples difference away most noise.  The
    two Richardson extrapolants from consecutive levels of FD_LEVELS must
    agree within EXTRAPOLANT_TOL relative to scale, else the levels are
    rejected as too coarse or too fine.  A non-shear test field's flow takes
    FLOW_STEPS RK4 steps.

    Everything that does not depend on eps is built once and serves all six
    levels: the stencil of sample points with its drift-direction and axis
    neighbours, and the flow map of w on it, which for a shear field holds
    w(stencil), so each eps costs one multiply-add there.
    """
    N, Mp1, dim = ens.unwrapped.shape
    pts = ens.unwrapped.reshape(-1, dim)
    v = ens.drift.reshape(-1, dim)

    speed = np.linalg.norm(v, axis=1)
    unit = np.where(speed[:, None] > 0, v / np.maximum(speed, 1e-300)[:, None], 0.0)

    stencil = np.concatenate(
        [
            pts,
            pts + FD_STEP * unit,
            pts - FD_STEP * unit,
            pts + np.array([FD_STEP, 0.0]),
            pts - np.array([FD_STEP, 0.0]),
            pts + np.array([0.0, FD_STEP]),
            pts - np.array([0.0, FD_STEP]),
        ]
    )
    del unit
    flow = _flow_map(pair.w, stencil)
    # profiles on the distinct grid times, tiled over the paths
    alpha, dalpha = np.tile(pair.alpha(ens.times), N), np.tile(pair.dalpha(ens.times), N)

    def perturbed_action_per_path(eps):
        """Per-path action of the ensemble pushed forward by Psi_eps."""
        base, dp, dm, e1p, e1m, e2p, e2m = np.split(flow(np.tile(eps * alpha, 7)), 7)
        time_part = (eps * dalpha)[:, None] * pair.w.evaluate_at(base)
        transport_part = speed[:, None] * (dp - dm) / (2.0 * FD_STEP)
        laplace_part = nu * (e1p + e1m + e2p + e2m - 4.0 * base) / FD_STEP**2
        drift_new = time_part + transport_part + laplace_part
        return action_per_path(drift_new.reshape(N, Mp1, dim), ens.dt)

    central = [
        (perturbed_action_per_path(+eps) - perturbed_action_per_path(-eps)) / (2.0 * eps) for eps in FD_LEVELS
    ]
    prev, best = (EstimateWithError.from_samples((4.0 * b - a) / 3.0) for a, b in zip(central, central[1:]))
    scale = max(abs(best.value), 3.0 * best.std_error, 1e-12)
    if abs(best.value - prev.value) > EXTRAPOLANT_TOL * scale + 3.0 * best.combined_se(prev):
        raise FloatingPointError("Richardson extrapolants disagree; adjust FD_LEVELS")
    return best


# -- endpoint-pinned competitors -------------------------------------------------


@dataclass
class PinnedPerturbation:
    """A noise-sharing competitor g* = g + beta a with pinned endpoints.

    Rank one: per-(path, grid time) scalars c and beta times one direction a.
    v = c a is the adapted velocity offset and displacement = beta a its
    running time integral, zero at t = 0 and t = T.  The competitor keeps the
    base ensemble's Brownian increments, so drifts simply add.
    """

    base: PathEnsemble
    c: np.ndarray             # (N, M+1)
    beta: np.ndarray          # (N, M+1)
    direction: np.ndarray     # (dim,)

    def __post_init__(self):
        self.direction = np.asarray(self.direction, dtype=float)
        if self.c.shape != self.base.unwrapped.shape[:2] or self.beta.shape != self.c.shape:
            raise ValueError("offset scalar shape mismatch")

    @property
    def v(self) -> np.ndarray:
        return self.c[:, :, None] * self.direction

    def endpoint_error(self) -> float:
        return float(np.max(np.abs(self.beta[:, -1, None] * self.direction)))


def sample_pinned_perturbation(
    base: PathEnsemble, alpha_fn: Callable[[np.ndarray], np.ndarray], direction
) -> PinnedPerturbation:
    """The constructive competitor built from a bounded functional of the noise.

    With I_t the running integral of alpha_fn along the path's Brownian
    driver, the displacement is beta = sin(pi t / T) I_t times a fixed
    direction a, whose derivative gives the adapted velocity offset

        v(w, t) = c(w, t) a = [ (pi/T) cos(pi t/T) I_t + sin(pi t/T) alpha_fn(w_t) ] a.

    The sine prefactor kills both endpoints exactly, so g* shares g's initial
    and final positions path by path.
    """
    N, Mp1, dim = base.unwrapped.shape
    T = base.dt * base.n_steps
    t = base.times
    # Brownian driver reconstructed from the stored increments
    wpath = np.concatenate(
        [np.zeros((N, 1, base.dW.shape[2])), np.cumsum(base.dW, axis=1)], axis=1
    )
    avals = alpha_fn(wpath.reshape(-1, wpath.shape[2])).reshape(N, Mp1)
    integral = running_integral(avals, base.dt)
    beta = np.sin(np.pi * t / T)[None, :] * integral
    c = (np.pi / T) * np.cos(np.pi * t / T)[None, :] * integral + np.sin(np.pi * t / T)[None, :] * avals
    return PinnedPerturbation(base, c, beta, direction)


DEFAULT_NOISE_FUNCTIONALS = (
    ("cos_w1", lambda w: np.cos(w[:, 0])),
    ("sin_w1pw2", lambda w: np.sin(w[:, 0] + w[:, 1])),
    ("tanh_w1", lambda w: np.tanh(w[:, 0])),
)


def pinned_family(base: PathEnsemble, count: int, seed: int = 0) -> list[tuple[str, PinnedPerturbation]]:
    """A reproducible batch of rank-one competitors with random directions: member
    i uses noise functional i mod 3, whose (c, beta) all its members share."""
    rng = default_rng(seed)
    members, shared = [], {}
    for i in range(count):
        name, fn = DEFAULT_NOISE_FUNCTIONALS[i % len(DEFAULT_NOISE_FUNCTIONALS)]
        angle = rng.uniform(0.0, TWO_PI)
        radius = rng.uniform(0.3, 1.0)
        a = radius * np.array([np.cos(angle), np.sin(angle)])
        if name not in shared:
            shared[name] = sample_pinned_perturbation(base, fn, a)
        members.append((f"{name}_{i}", replace(shared[name], direction=a)))
    return members


# -- minimality and acceleration diagnostics -------------------------------------


def _pressure_along(ens: PathEnsemble, members: list, u: TimeDependentVelocity) -> np.ndarray:
    """Time-reversed pressure q(T - t_j, x_j) summed by trapezoid along the paths of
    ens (row 0) and of each member (row i), all in one pressure_at call per t_j
    whose values are folded into the sums as the time loop goes.  The positions
    and each beta are read through contiguous time-major copies of
    time_block(M+1) grid times at a time, so no step reads a column strided
    by M+1."""
    N, Mp1, dim = ens.unwrapped.shape
    # the members sharing one beta array get their stacked points from one
    # broadcast per grid time
    groups = [
        (beta, 1 + np.array(idx), np.array([members[i].direction for i in idx])[:, None, :])
        for beta, idx in group_by_identity([m.beta for m in members])
    ]
    weights = time_weights(Mp1, ens.dt)
    sums = np.zeros((1 + len(members), N))
    pts = np.empty((1 + len(members), N, dim))
    block = time_block(Mp1)
    for j0 in range(0, Mp1, block):
        x_rows = np.ascontiguousarray(ens.unwrapped[:, j0 : j0 + block].transpose(1, 0, 2))
        beta_rows = [np.ascontiguousarray(beta[:, j0 : j0 + block].T) for beta, _, _ in groups]
        for b, x in enumerate(x_rows):
            j = j0 + b
            pts[0] = x
            for (_, rows, directions), beta in zip(groups, beta_rows):
                pts[rows] = x + beta[b, :, None] * directions
            sums += weights[j] * u.pressure_at(ens.times[-1] - ens.times[j], pts.reshape(-1, dim)).reshape(-1, N)
    return sums


def minimality_check(ens: PathEnsemble, members: list, u: TimeDependentVelocity) -> dict:
    """Compare the reversed-drift ensemble against endpoint-pinned competitors.

    Reports pressure-shifted energies B, plain actions S, the predicted
    action gap (half the offset energy), and the per-path Poincare ratios.
    Gate SEs for the paired comparisons are combined in quadrature.  When the
    pressure-Hessian bound fails R T^2 <= pi^2 the report only warns, since
    the minimality statement's hypothesis is then violated.

    A member's rows come from per-path time integrals shared by every member
    of its noise functional (c, beta).  With d the base drift and v = c a,
    |d + v|^2 = |d|^2 + 2 c (d.a) + c^2 |a|^2, so S* = S + int c (d.a) dt +
    |a|^2 int c^2 dt / 2, and the gap S* - S - int |v|^2 dt / 2 is
    int c (d.a) dt = (int c d dt).a.  The Poincare ratio
    int beta^2 dt / ((T/pi)^2 int c^2 dt) does not depend on a.
    """
    if ens.meta.get("orientation") != REVERSED:
        raise ValueError("minimality check expects a reversed-drift ensemble")
    T = ens.dt * ens.n_steps
    from .flows import hessian_bound  # local import to avoid cycle at module load

    R = max(hessian_bound(p) for p in u.pressures) if u.pressures else 0.0
    hypothesis_ok = R * T * T <= np.pi**2 + 1e-12

    S_g = action_per_path(ens.drift, ens.dt)
    P_g, *P_members = _pressure_along(ens, [member for _, member in members], u)
    B_g = S_g - P_g
    est_S = EstimateWithError.from_samples(S_g)
    est_B = EstimateWithError.from_samples(B_g)

    weights = time_weights(ens.n_steps + 1, ens.dt)
    shared = {}
    rows = []
    all_ok = True
    for (name, member), P_star in zip(members, P_members):
        key = (id(member.c), id(member.beta))
        if key not in shared:
            c_sq = member.c**2 @ weights
            den = (T / np.pi) ** 2 * c_sq
            ratios = member.beta**2 @ weights / np.where(den > 0, den, 1.0)
            c_drift = np.einsum("nj,nja->na", member.c * weights, ens.drift)
            shared[key] = (c_drift, c_sq, float(np.max(ratios)))
        c_drift, c_sq, poincare_max = shared[key]
        a = member.direction
        cross = c_drift @ a
        half_offset = 0.5 * (a @ a) * c_sq
        S_star = S_g + cross + half_offset
        est_S_star = EstimateWithError.from_samples(S_star)
        est_B_star = EstimateWithError.from_samples(S_star - P_star)
        gap = EstimateWithError.from_samples(cross)
        row = {
            "member": name,
            "S_star": est_S_star,
            "B_star": est_B_star,
            "endpoint_error": member.endpoint_error(),
            "B_ok": est_B.value <= est_B_star.value + GATE_SE * est_B.combined_se(est_B_star),
            "S_ok": est_S.value <= est_S_star.value + GATE_SE * est_S.combined_se(est_S_star),
            "gap_ok": abs(gap.value) <= GATE_SE * gap.std_error,
            "gap": gap,
            "half_offset_energy": EstimateWithError.from_samples(half_offset),
            "poincare_max": poincare_max,
            "poincare_ok": bool(poincare_max <= 1.0 + POINCARE_MARGIN),
        }
        row["ok"] = row["B_ok"] and row["S_ok"] and row["gap_ok"] and row["poincare_ok"]
        all_ok &= row["ok"]
        rows.append(row)
    return {
        "S_g": est_S,
        "B_g": est_B,
        "hessian_bound": R,
        "hypothesis_ok": bool(hypothesis_ok),
        "members": rows,
        "all_ok": bool(all_ok),
    }


def mean_acceleration_check(ens: PathEnsemble, u: TimeDependentVelocity) -> dict:
    """Weak test that the drift's conditional increment rate is the pressure gradient.

    Per step, (u(T-t_{j+1}, g_{j+1}) - u(T-t_j, g_j)) / dt has conditional
    mean grad q(T-t_j, g_j) + O(dt); the martingale part averages out inside
    coarse time bins.  Returns per-bin residual estimates plus an aggregate
    EstimateWithError over all steps, and the per-step increment variance
    against 2 nu |grad u|^2 dt.
    """
    if ens.meta.get("orientation") != REVERSED:
        raise ValueError("acceleration check expects a reversed-drift ensemble")
    N, Mp1, dim = ens.unwrapped.shape
    M = Mp1 - 1
    T = ens.dt * M
    uv = np.empty((N, Mp1, dim))
    gradp = np.empty((N, M, dim))
    grad_norm2 = np.empty((N, M))
    for j in range(Mp1):
        s = T - ens.times[j]
        uv[:, j] = u.velocity_at(s, ens.unwrapped[:, j])
        if j < M:
            gradp[:, j] = u.pressure_gradient_at(s, ens.unwrapped[:, j])
            gu = u.velocity_gradient_at(s, ens.unwrapped[:, j])
            grad_norm2[:, j] = np.einsum("nab,nab->n", gu, gu)
    increments = np.diff(uv, axis=1)
    resid = increments / ens.dt - gradp  # (N, M, dim)

    edges = np.linspace(0, M, ACCELERATION_BINS + 1).astype(int)
    bins = []
    for b in range(ACCELERATION_BINS):
        sl = resid[:, edges[b] : edges[b + 1]].reshape(-1, dim)
        est = [EstimateWithError.from_samples(sl[:, d]) for d in range(dim)]
        bins.append(
            {
                "t_mid": 0.5 * (ens.times[edges[b]] + ens.times[edges[b + 1]]),
                "residual": est,
                "norm": float(np.hypot(est[0].value, est[1].value)),
                "se_norm": float(np.hypot(est[0].std_error, est[1].std_error)),
            }
        )
    flat = resid.reshape(-1, dim)
    aggregate = EstimateWithError.from_samples(np.concatenate([flat[:, 0], flat[:, 1]]))

    mart_var = np.sum((increments - gradp * ens.dt) ** 2, axis=2).ravel()
    mart_pred = 2.0 * ens.nu * ens.dt * grad_norm2.ravel()
    variance_match = EstimateWithError.from_samples(mart_var - mart_pred)
    return {"bins": bins, "aggregate": aggregate, "variance_match": variance_match}
