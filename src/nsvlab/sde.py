"""Ensemble simulation of torus-valued semimartingales.

Three path classes are provided: Euler-Maruyama drift-diffusion with
isotropic noise sqrt(2 nu) dw, a Heun (Stratonovich midpoint) scheme driven
by the divergence-free trigonometric frame, and the one-dimensional pinned
bridge with its singular drift.  Every ensemble records the exact drift
inserted at each grid time together with the Brownian increments, so all
action and residual estimators downstream are pure folds over stored data.

_draw_noise makes every random draw and _march is the one record-then-step
loop, which builds every PathEnsemble; each engine only supplies its drift
and its step, which takes the step's increments as one contiguous (N,
channels) row.  The march runs over blocks of time_block(M+1) grid times:
per block it copies the increments time-major, records positions and drifts
into time-major buffers, and writes each buffer into the path-major arrays
in one transposed assignment, so no step reads or writes a column strided
by M+1.  Every value is computed as a plain per-step loop would compute it,
so no stored number depends on the block size.  save_ensemble writes an
ensemble as an .npz of its three arrays and a JSON sidecar of its scalars.

The time quadrature on the uniform grid lives here too, and every per-path
time integral in the package goes through it: time_weights for a whole
integral, running_integral for its values at every grid time.

Randomness is counter-based: path n draws from Philox keyed by the master
seed with the fourth counter word set to n.  Streams are therefore
independent of scheduling and worker count, and identical (seed, N, M,
params) reproduce ensembles bitwise.
"""

from __future__ import annotations

import json
import os
import zipfile
from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator, Philox

from .estimates import EstimateWithError
from .fields import FourierScalarField, SpectralBasis, TWO_PI
from .flows import TimeDependentVelocity

KINDS = ("ito", "stratonovich_basis", "bridge")

FORWARD = "forward"
REVERSED = "reversed"

# grid times per block of the per-step loops over an ensemble (_march here,
# action_prefixes and variation._pressure_along); no value depends on it
TIME_BLOCK = 64


def time_block(n_times: int) -> int:
    """Grid times per block of a per-step loop that copies its blocks
    time-major: TIME_BLOCK, but at most an eighth of the n_times grid times
    (and at least one), so the copies stay a small share of the stored
    ensemble however short the grid is."""
    return max(1, min(TIME_BLOCK, n_times // 8))


def path_rng(seed: int, path_index: int) -> Generator:
    """Counter-based stream for one path: Philox(key=seed, counter word 3 = n)."""
    return Generator(Philox(key=np.uint64(seed), counter=[0, 0, 0, path_index]))


@dataclass
class SdeParams:
    """Simulation inputs: diffusivity, horizon, initial law, drift source.

    initial_law is "uniform" or ("fixed", point).
    orientation selects drift +u(t, x) (forward) or -u(T - t, x) (reversed).
    """

    nu: float
    T: float
    initial_law: object = "uniform"
    drift_source: TimeDependentVelocity | None = None
    orientation: str = FORWARD

    def __post_init__(self):
        if self.nu <= 0 or self.T <= 0:
            raise ValueError("nu and T must be positive")
        if self.orientation not in (FORWARD, REVERSED):
            raise ValueError("orientation must be 'forward' or 'reversed'")
        if self.drift_source is not None and self.drift_source.T < self.T - 1e-12:
            raise ValueError("drift source not defined on all of [0, T]")

    def drift_time(self, t: float) -> float:
        return t if self.orientation == FORWARD else self.T - t

    def drift_sign(self) -> float:
        return 1.0 if self.orientation == FORWARD else -1.0


@dataclass
class PathEnsemble:
    """N discrete-time semimartingale paths with recorded drifts and noise.

    unwrapped carries the lifted R^d positions; wrapped_at derives their
    mod-2pi values on demand, at the grid times asked for, so the two can
    never disagree.  drift[n, j] is the exact drift vector inserted at grid
    time t_j; dW[n, j] are the Brownian increments used for the step
    t_j -> t_{j+1} (variance dt per channel).
    """

    kind: str
    nu: float | None
    dt: float
    seed: int
    unwrapped: np.ndarray  # (N, M+1, dim)
    drift: np.ndarray      # (N, M+1, dim)
    dW: np.ndarray         # (N, M, channels)
    meta: dict = field(default_factory=dict)

    @property
    def n_paths(self) -> int:
        return self.unwrapped.shape[0]

    @property
    def n_steps(self) -> int:
        return self.unwrapped.shape[1] - 1

    @property
    def dim(self) -> int:
        return self.unwrapped.shape[2]

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.n_steps + 1)

    def wrapped_at(self, j) -> np.ndarray:
        """Positions at grid index j (an int, index array or slice) wrapped
        to [0, 2pi); only the indexed columns are wrapped."""
        return np.mod(self.unwrapped[:, j], TWO_PI)

    def step_index(self, t: float) -> int:
        """Index of grid time t; off-grid times (by more than 1e-9 steps) are rejected."""
        j = int(round(t / self.dt))
        if abs(t / self.dt - j) > 1e-9:
            raise ValueError(f"time {t} is not on the grid of step dt={self.dt}")
        if not 0 <= j <= self.n_steps:
            raise ValueError(f"time {t} outside the simulated horizon")
        return j


def _draw_noise(seed: int, N: int, M: int, channels: int, dt: float, initial_law, dim: int):
    """Per-path counter-based draws: a uniform initial position first, unless
    initial_law fixes every start at one point, then the increments."""
    uniform = isinstance(initial_law, str) and initial_law == "uniform"
    if not uniform and initial_law[0] != "fixed":
        raise ValueError(f"unknown initial law {initial_law!r}")
    starts = np.empty((N, dim)) if uniform else np.full((N, dim), initial_law[1], dtype=float)
    dW = np.empty((N, M, channels))
    root = np.sqrt(dt)
    for n in range(N):
        rng = path_rng(seed, n)
        if uniform:
            starts[n] = rng.uniform(0.0, TWO_PI, dim)
        rng.standard_normal(out=dW[n])
        dW[n] *= root
    return starts, dW


def _march(
    kind: str, nu: float | None, seed: int, meta: dict, starts: np.ndarray, dW: np.ndarray, dt: float, drift_at, step
) -> PathEnsemble:
    """The record of one engine run: from the starts, store pos and
    drift_at(t_j, pos) at each grid time t_j, then advance by
    step(j, pos, drift, dw) while j < M, with M the steps that dW holds and
    dw the (N, channels) increments of step j.

    The grid times go in blocks of time_block(M + 1).  A block's increments
    are copied time-major once, so each dw is a contiguous row, and its
    positions and drifts are recorded into time-major (block, N, dim)
    buffers that go into unwrapped and drift in one transposed assignment.
    The steps are the same calls on the same values as a per-step loop, so
    no stored value, and no step a non-finite state is reported at, depends
    on the block size.
    """
    N, dim = starts.shape
    M = dW.shape[1]
    unwrapped = np.empty((N, M + 1, dim))
    drift = np.empty((N, M + 1, dim))
    block = time_block(M + 1)
    pos_rows = np.empty((block, N, dim))
    drift_rows = np.empty((block, N, dim))
    dw_rows = np.empty((block, N, dW.shape[2]))
    pos = starts
    for j0 in range(0, M + 1, block):
        j1 = min(j0 + block, M + 1)
        steps = dW[:, j0:j1]  # steps j0 .. min(j1, M) - 1
        dw_rows[: steps.shape[1]] = steps.transpose(1, 0, 2)
        for b, j in enumerate(range(j0, j1)):
            pos_rows[b] = pos
            drift_rows[b] = drift_at(j * dt, pos)
            if j < M:
                pos = step(j, pos, drift_rows[b], dw_rows[b])
                if not np.isfinite(pos).all():
                    raise FloatingPointError(f"non-finite state at step {j + 1}")
        unwrapped[:, j0:j1] = pos_rows[: j1 - j0].transpose(1, 0, 2)
        drift[:, j0:j1] = drift_rows[: j1 - j0].transpose(1, 0, 2)
    return PathEnsemble(kind, nu, dt, seed, unwrapped, drift, dW, meta)


def simulate_ito(params: SdeParams, N: int, M: int, seed: int = 42) -> PathEnsemble:
    """Euler-Maruyama for dg = drift(t, g) dt + sqrt(2 nu) dw on the torus."""
    dt = params.T / M
    starts, dW = _draw_noise(seed, N, M, 2, dt, params.initial_law, 2)
    sig = np.sqrt(2.0 * params.nu)
    sign = params.drift_sign()
    src = params.drift_source

    def drift_at(t: float, x: np.ndarray):
        return 0.0 if src is None else sign * src.velocity_at(params.drift_time(t), x)

    meta = {"orientation": params.orientation, "T": params.T}
    return _march("ito", params.nu, seed, meta, starts, dW, dt, drift_at, lambda j, x, d, dw: x + d * dt + sig * dw)


def simulate_stratonovich_basis(
    params: SdeParams, basis: SpectralBasis, N: int, M: int, seed: int = 42
) -> PathEnsemble:
    """Heun steps for the Stratonovich frame-noise equation.

    Channels are ordered (cosine fields, then sine fields) over the basis
    half-lattice.  Each frame field is scaled by sqrt(2) so the generator
    carries nu * Laplace exactly as the Ito engine does; the pointwise frame
    identity supplies the remaining nu.  The frame's self-advection sums to
    zero, so the recorded drift is the plain transport velocity.
    """
    if basis.nu != params.nu:
        raise ValueError("basis diffusivity must match params.nu")
    dt = params.T / M
    m = basis.n_modes
    starts, dW = _draw_noise(seed, N, M, 2 * m, dt, params.initial_law, 2)
    src = params.drift_source
    sqrt2 = np.sqrt(2.0)

    def transport(t: float, x: np.ndarray) -> np.ndarray:
        return np.zeros_like(x) if src is None else src.velocity_at(t, x)

    def heun(j: int, pos: np.ndarray, uj: np.ndarray, dw: np.ndarray) -> np.ndarray:
        dwc, dws = dw[:, :m], dw[:, m:]
        disp0 = sqrt2 * basis.noise_displacement(pos, dwc, dws)
        pred = pos + disp0 + uj * dt
        disp1 = sqrt2 * basis.noise_displacement(pred, dwc, dws)
        u1 = transport(j * dt + dt, pred)
        return pos + 0.5 * (disp0 + disp1) + 0.5 * (uj + u1) * dt

    meta = {"T": params.T, "beta": basis.beta, "basis_K": basis.K}
    return _march("stratonovich_basis", params.nu, seed, meta, starts, dW, dt, transport, heun)


def brownian_bridge(
    x: float, y: float, N: int, M: int, cutoff: float, seed: int = 42
) -> PathEnsemble:
    """Pinned one-dimensional bridge dg = dw - (g - y)/(1 - t) dt on [0, 1 - cutoff]."""
    if cutoff <= 0:
        raise ValueError("cutoff must be positive")
    T = 1.0 - cutoff
    dt = T / M
    starts, dW = _draw_noise(seed, N, M, 1, dt, ("fixed", [x]), 1)
    meta = {"x": x, "y": y, "cutoff": cutoff, "T": T}
    return _march(
        "bridge", None, seed, meta, starts, dW, dt,
        lambda t, g: -(g - y) / (1.0 - t), lambda j, g, d, dw: g + d * dt + dw,
    )


# -- time quadrature --------------------------------------------------------------


def time_weights(n: int, dx: float) -> np.ndarray:
    """Trapezoid weights w on n uniform grid times of step dx, so that
    int y dt = y @ w along the last axis of y.  Each end loses half a step;
    a single time loses both halves, so its integral is 0."""
    w = np.full(n, float(dx))
    w[0] -= 0.5 * dx
    w[-1] -= 0.5 * dx
    return w


def running_integral(y: np.ndarray, increments, start=None) -> np.ndarray:
    """Running trapezoid integral along axis 1 of y, zero at the first grid
    time.  increments is the step dt, or per-step (N, M) increments such as
    Brownian ones, which make it a Stratonovich (midpoint) sum.

    start, an (N,) vector, is the integral's value at the first column, and
    the sum is folded on from it.  The cumulative sum is one left fold, so a
    block of columns started from the previous block's last column (the
    blocks sharing that column) gives bitwise the columns of one call over
    them all.  The per-step terms are formed in place in the result, with no
    temporaries.
    """
    out = np.empty_like(y)
    steps = out[:, 1:]
    np.add(y[:, :-1], y[:, 1:], out=steps)
    steps *= 0.5
    steps *= increments
    if start is None:
        out[:, 0] = 0.0
        # folded from the first step, not from 0 + it, so a -0.0 keeps its sign
        np.cumsum(steps, axis=1, out=steps)
    else:
        out[:, 0] = start
        np.cumsum(out, axis=1, out=out)
    return out


# -- diagnostics ----------------------------------------------------------------


def measure_density(
    ens: PathEnsemble,
    noise_divergences: list,
    drift_divergence=None,
) -> np.ndarray:
    """Pushforward density K_t along each path, shape (N, M+1).

    noise_divergences[i] is a callable giving div of the i-th noise field at
    a batch of points (one per stored channel, in channel order), and
    drift_divergence the same for the drift field; each is evaluated once, at
    every stored point.  The Stratonovich integrals use midpoint values of the
    integrand against the stored increments, the drift part a trapezoidal
    time integral.  All-solenoidal inputs make every exponent identically
    zero, hence K = 1 exactly.
    """
    N, Mp1, dim = ens.unwrapped.shape
    pts = ens.unwrapped.reshape(-1, dim)
    terms = [(div, ens.dW[:, :, i]) for i, div in enumerate(noise_divergences)]
    if drift_divergence is not None:
        terms.append((drift_divergence, ens.dt))
    exponent = np.zeros((N, Mp1))
    for div, increments in terms:
        exponent += running_integral(div(pts).reshape(N, Mp1), increments)
    return np.exp(-exponent)


def drift_orthogonality(
    ens: PathEnsemble, f: FourierScalarField, t: float
) -> EstimateWithError:
    """Monte Carlo estimate of E <grad f(g_t), D_t g> at one grid time."""
    j = ens.step_index(t)
    grads = f.gradient_at(ens.unwrapped[:, j])
    samples = np.sum(grads * ens.drift[:, j], axis=1)
    return EstimateWithError.from_samples(samples)


# -- persistence ------------------------------------------------------------------

_ARRAYS = ("unwrapped", "drift", "dW")
_SCALARS = ("kind", "nu", "dt", "seed", "meta")


def save_ensemble(ens: PathEnsemble, stem: str) -> tuple[str, str]:
    """stem.npz, holding the arrays unwrapped, drift and dW (uncompressed, so
    np.load opens it), and stem.json, holding kind, nu, dt, seed and meta; a
    bit-exact round trip.  The directory of stem is made if it is missing."""
    npz_path, json_path = stem + ".npz", stem + ".json"
    os.makedirs(os.path.dirname(stem) or ".", exist_ok=True)
    np.savez(npz_path, **{name: getattr(ens, name) for name in _ARRAYS})
    with open(json_path, "w") as fh:
        json.dump({name: getattr(ens, name) for name in _SCALARS}, fh, indent=1)
    return npz_path, json_path


def load_ensemble(stem: str) -> PathEnsemble:
    """The ensemble save_ensemble wrote at stem.  ValueError for a sidecar
    without the five scalars or of an unknown kind, for an .npz that is not a
    readable zip, and for arrays that are missing, not float64, or of shapes
    that disagree."""
    with open(stem + ".json") as fh:
        sidecar = json.load(fh)
    if not isinstance(sidecar, dict) or set(sidecar) != set(_SCALARS):
        raise ValueError(f"ensemble sidecar must hold exactly {_SCALARS}")
    if sidecar["kind"] not in KINDS:
        raise ValueError(f"unknown ensemble kind {sidecar['kind']!r}")
    try:
        with np.load(stem + ".npz", allow_pickle=False) as npz:
            arrays = {name: npz[name] for name in _ARRAYS if name in npz.files}
    except (zipfile.BadZipFile, EOFError, TypeError) as exc:  # truncated, corrupted, or an .npy
        raise ValueError(f"not a readable .npz ensemble file: {exc}") from exc
    missing = [name for name in _ARRAYS if name not in arrays]
    if missing:
        raise ValueError(f"ensemble file lacks {missing}")
    if any(a.dtype != np.float64 or a.ndim != 3 for a in arrays.values()):
        raise ValueError("ensemble arrays must be three-dimensional float64")
    unwrapped, drift, dW = (arrays[name] for name in _ARRAYS)
    if unwrapped.shape != drift.shape or dW.shape[:2] != (unwrapped.shape[0], unwrapped.shape[1] - 1):
        raise ValueError("ensemble array shapes disagree")
    return PathEnsemble(**sidecar, **arrays)
