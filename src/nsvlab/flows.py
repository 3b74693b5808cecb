"""Reference velocity/pressure pairs: the exact decaying vortex and a small
pseudo-spectral incompressible solver on the 2-torus.

The solver advances the Leray-projected momentum equation

    du/dt = -P[(u.grad)u] - nu * (2 Def*Def) u

with classical RK4 in time.  Nonlinear products are formed on a padded grid
and truncated back to |k|_inf <= K, which removes every aliased quadratic
interaction (2/3-style dealiasing with extra margin).  A saved history writes
its velocity frames and pressures alike in the fields' one file format.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np
from numpy.fft import fft2

from .fields import (
    FourierField,
    FourierScalarField,
    FourierVectorField,
    SpectralError,
    _wavegrid,
    leray_coeffs,
    stack_active_modes,
    to_grid,
    trig_gradient,
    trig_sum,
)

UNIFORM_TOL = 1e-12


def advection_coeffs(c: np.ndarray) -> np.ndarray:
    """Coefficients of (u . grad) u for u with coefficients c (dealiased
    product), with no field built."""
    K = (c.shape[0] - 1) // 2
    # quadratic products reach wavenumber 2K; keeping only |k| <= K is
    # alias-free once the working grid has n >= 3K + 1 points per axis
    n = max(3 * K + 2, 8)
    k1, k2 = _wavegrid(K)
    # u and its spectral derivatives d_1 u, d_2 u on the padded grid, from one
    # inverse FFT of the stacked (n, n, 6) spectrum
    G = to_grid(np.concatenate([c, 1j * k1[..., None] * c, 1j * k2[..., None] * c], axis=-1), n)
    U, D1, D2 = G[..., 0:2], G[..., 2:4], G[..., 4:6]
    adv = U[..., :1] * D1 + U[..., 1:] * D2
    ahat = fft2(adv, axes=(0, 1)) / (n * n)
    idx = np.arange(-K, K + 1) % n
    return ahat[np.ix_(idx, idx)]


def advection_field(u: FourierVectorField) -> FourierVectorField:
    """(u . grad) u as a truncated spectral field (dealiased product)."""
    return FourierVectorField(u.K, advection_coeffs(u.coeffs))


def _ns_rhs(c: np.ndarray, nu: float) -> np.ndarray:
    """Coefficients of -P[(u.grad)u] + nu Laplace u for u with coefficients c."""
    k1, k2 = _wavegrid((c.shape[0] - 1) // 2)
    return leray_coeffs(-advection_coeffs(c)) - (c * (k1 * k1 + k2 * k2)[..., None]) * nu


def ns_step(state: FourierVectorField, nu: float, dt: float) -> FourierVectorField:
    """One explicit RK4 step of the Leray-projected spectral momentum equation.

    The stages run on coefficient arrays, which are Hermitian by construction
    from the checked state, so only the returned field is checked.
    """
    if dt <= 0:
        raise SpectralError("dt must be positive")
    c = state.coeffs
    k1 = _ns_rhs(c, nu)
    k2 = _ns_rhs(c + k1 * (dt / 2.0), nu)
    k3 = _ns_rhs(c + k2 * (dt / 2.0), nu)
    k4 = _ns_rhs(c + k3 * dt, nu)
    out = c + (k1 + 2.0 * k2 + 2.0 * k3 + k4) * (dt / 6.0)
    if not np.all(np.isfinite(out)):
        raise FloatingPointError("spectral solver blew up: non-finite coefficient")
    return FourierVectorField(state.K, out)


def pressure_from_velocity(u: FourierVectorField) -> FourierScalarField:
    """Solve Laplace p = -div((u.grad)u) spectrally, zero-mean gauge."""
    if not u.is_divergence_free(tol=1e-10):
        raise SpectralError("pressure solve requires a divergence-free velocity")
    adv = advection_coeffs(u.coeffs)
    k1, k2 = _wavegrid(u.K)
    ksq = k1 * k1 + k2 * k2
    ksq_safe = np.where(ksq == 0, 1.0, ksq)
    p_hat = 1j * (k1 * adv[..., 0] + k2 * adv[..., 1]) / ksq_safe
    p_hat[u.K, u.K] = 0.0
    return FourierScalarField(u.K, p_hat)


def hessian_bound(p: FourierScalarField, n: int = 128) -> float:
    """Largest eigenvalue of grad^2 p over an n x n grid (lower bound of sup)."""
    k1, k2 = _wavegrid(p.K)
    h11 = to_grid(-k1 * k1 * p.coeffs, n)
    h22 = to_grid(-k2 * k2 * p.coeffs, n)
    h12 = to_grid(-k1 * k2 * p.coeffs, n)
    lam = 0.5 * (h11 + h22) + np.sqrt(0.25 * (h11 - h22) ** 2 + h12**2)
    return float(np.max(lam))


@dataclass
class TimeDependentVelocity:
    """Velocity frames u(t_j) with pressure companions on a uniform time grid.

    Frames are solenoidal by contract; negative-control experiments that
    deliberately feed gradient drifts construct with validate_divergence_free
    disabled.
    """

    times: np.ndarray
    frames: list[FourierVectorField]
    pressures: list[FourierScalarField]
    nu: float
    validate_divergence_free: bool = True
    _compiled: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _pressure_compiled: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _grid_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if len(self.frames) != self.times.size:
            raise SpectralError("one frame per grid time required")
        if not self.times.size:
            raise SpectralError("time grid has no times")
        # _interp counts s / dt from t = 0, so frame j must sit at j dt
        if abs(self.times[0]) > UNIFORM_TOL:
            raise SpectralError("time grid must start at 0")
        steps = np.diff(self.times)
        if not np.all(steps > 0):
            raise SpectralError("time grid steps must be positive")
        if steps.size and np.max(np.abs(steps - steps[0])) > UNIFORM_TOL:
            raise SpectralError("time grid must be uniform")
        if len(self.pressures) not in (0, len(self.frames)):
            raise SpectralError("pressure frames must be absent or one per grid time")
        for p in self.pressures:
            if abs(p.mean) > UNIFORM_TOL:
                raise SpectralError("pressure frames must have zero mean")
        if self.validate_divergence_free:
            for j, f in enumerate(self.frames):
                if not f.is_divergence_free(tol=1e-10):
                    raise SpectralError(f"frame {j} is not divergence-free")

    @property
    def T(self) -> float:
        return float(self.times[-1])

    @property
    def K(self) -> int:
        return self.frames[0].K

    # -- compact views for fast path evaluation ------------------------------

    def _compile(self):
        """Stack active half-lattice modes shared by all frames."""
        if self._compiled is None:
            kv, stack = stack_active_modes([f.coeffs for f in self.frames])
            means = np.stack([f.mean for f in self.frames])
            self._compiled = (kv, stack, means)
        return self._compiled

    def _compile_pressure(self):
        if self._pressure_compiled is None:
            self._pressure_compiled = stack_active_modes([p.coeffs for p in self.pressures])
        return self._pressure_compiled

    def _interp(self, s: float, compiled=None) -> tuple:
        """Linear-in-coefficients interpolation at time s (clamped to [0, T]).

        compiled is (kvecs, per-frame stacks...), the velocity's by default;
        returns kvecs and each stack interpolated to s.
        """
        kv, *stacks = self._compile() if compiled is None else compiled
        M = self.times.size - 1
        if M == 0:
            return (kv, *(st[0] for st in stacks))
        dt = self.times[1] - self.times[0]
        x = np.clip(s, 0.0, self.T) / dt
        j = min(int(np.floor(x)), M - 1)
        w = x - j
        return (kv, *((1.0 - w) * st[j] + w * st[j + 1] for st in stacks))

    def velocity_at(self, s: float, points: np.ndarray) -> np.ndarray:
        return trig_sum(points, *self._interp(s))

    def velocity_gradient_at(self, s: float, points: np.ndarray) -> np.ndarray:
        return trig_gradient(points, *self._interp(s)[:2])

    def pressure_at(self, s: float, points: np.ndarray) -> np.ndarray:
        if not self.pressures:
            return np.zeros(points.shape[0])
        return trig_sum(points, *self._interp(s, self._compile_pressure()))

    def pressure_gradient_at(self, s: float, points: np.ndarray) -> np.ndarray:
        if not self.pressures:
            return np.zeros((points.shape[0], 2))
        return trig_gradient(points, *self._interp(s, self._compile_pressure()))

    def frame_grid_stack(self, n: int) -> np.ndarray:
        """Grid values of every frame, cached per grid size."""
        if n not in self._grid_cache:
            self._grid_cache[n] = np.stack([f.to_grid(n) for f in self.frames])
        return self._grid_cache[n]

    # -- persistence ----------------------------------------------------------

    def save(self, directory: str, name: str = "flow") -> str:
        """Write each frame and pressure as a to_json file, and a manifest
        that lists them with nu, the times and whether frames are checked to
        be divergence-free; returns the manifest's path."""
        os.makedirs(directory, exist_ok=True)
        files = {}
        for kind, fields in (("frame", self.frames), ("pressure", self.pressures)):
            files[kind] = [f"{name}_{kind}_{j:05d}.json" for j in range(len(fields))]
            for fn, f in zip(files[kind], fields):
                with open(os.path.join(directory, fn), "w") as fh:
                    fh.write(f.to_json())
        manifest = {
            "nu": self.nu,
            "times": self.times.tolist(),
            "frames": files["frame"],
            "pressures": files["pressure"],
            "validate_divergence_free": self.validate_divergence_free,
        }
        path = os.path.join(directory, f"{name}_manifest.json")
        with open(path, "w") as fh:
            json.dump(manifest, fh, indent=1)
        return path

    @classmethod
    def load(cls, manifest_path: str) -> "TimeDependentVelocity":
        """The history a save manifest lists.  A manifest with no
        validate_divergence_free entry, as older ones are, checks frames."""
        base = os.path.dirname(manifest_path)
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        for key in ("nu", "times", "frames", "pressures"):
            if not isinstance(manifest, dict) or key not in manifest:
                raise ValueError(f"flow manifest {manifest_path} has no '{key}' entry")

        def read(fn: str, kind: type) -> FourierField:
            path = os.path.join(base, fn)
            with open(path) as fh:
                text = fh.read()
            try:
                return kind.from_json(text)
            except (KeyError, TypeError, IndexError, ValueError) as exc:
                raise ValueError(f"malformed flow file {path}: {exc!r}") from None

        frames = [read(fn, FourierVectorField) for fn in manifest["frames"]]
        pressures = [read(fn, FourierScalarField) for fn in manifest["pressures"]]
        # only an explicit false turns the divergence check off
        check = manifest.get("validate_divergence_free", True) is not False
        return cls(np.asarray(manifest["times"]), frames, pressures, float(manifest["nu"]), check)


# -- canonical exact solution -------------------------------------------------


def taylor_green(nu: float, T: float, M: int, K: int = 2) -> TimeDependentVelocity:
    """Exact decaying-vortex solution of the viscous momentum equation.

    u(t, x) = e^{-2 nu t} (cos x1 sin x2, -sin x1 cos x2)
    p(t, x) = -(e^{-4 nu t} / 4) (cos 2x1 + cos 2x2)
    """
    if nu <= 0:
        raise SpectralError("nu must be positive")
    if K < 2:
        raise SpectralError("K >= 2 required to hold the pressure modes")
    # cos a sin b = [sin(a+b) - sin(a-b)]/2, and sin(k.x) has -i/2 at mode k
    u0 = FourierVectorField.from_modes(K, {(1, 1): (-0.25j, 0.25j), (1, -1): (0.25j, 0.25j)})
    p0 = FourierScalarField.from_modes(K, {(2, 0): -0.125, (0, 2): -0.125})
    times = np.linspace(0.0, T, M + 1)
    frames = [u0 * np.exp(-2.0 * nu * t) for t in times]
    pressures = [p0 * np.exp(-4.0 * nu * t) for t in times]
    return TimeDependentVelocity(times, frames, pressures, nu)


def steady_flow(
    u: FourierVectorField,
    T: float,
    M: int,
    nu: float,
    require_divergence_free: bool = True,
) -> TimeDependentVelocity:
    """Wrap a time-independent field as a velocity history.

    Negative controls deliberately feed non-solenoidal drifts through here,
    hence the escape hatch on the divergence check.
    """
    times = np.linspace(0.0, T, M + 1)
    frames = [u] * (M + 1)
    return TimeDependentVelocity(
        times, frames, [], nu, validate_divergence_free=require_divergence_free
    )


def solve_navier_stokes(u0: FourierVectorField, nu: float, T: float, M: int) -> TimeDependentVelocity:
    """March u0 forward with ns_step and collect the frames, with no pressures
    (pressure_from_velocity solves one frame's)."""
    dt = T / M
    frames = [u0]
    for _ in range(M):
        frames.append(ns_step(frames[-1], nu, dt))
    return TimeDependentVelocity(np.linspace(0.0, T, M + 1), frames, [], nu)
