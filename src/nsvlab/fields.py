"""Scalar and vector fields on the flat 2-torus and their spectral operators.

Fields live on T^2 = [0, 2pi)^2 and are stored as truncated Fourier
coefficients on the square block |k|_inf <= K.  FourierScalarField and
FourierVectorField share one base, FourierField, which holds the checks, the
arithmetic, the one builder of hand-placed modes (from_modes) and one
coefficient-file format (to_json/from_json) for both.
All spatial averages use the normalized Haar measure, i.e. "dx" integrals
divide by (2pi)^2.  Evaluation along scattered points is exact trigonometric
summation over the stored modes, never grid interpolation, so operator
identities survive to rounding.

Every pointwise evaluation, here and in flows.py, goes through trig_sum and
trig_gradient over the half-lattice modes that stack_active_modes selects,
and every grid synthesis goes through to_grid.  The kernel takes one of two
paths, picked from the mode set alone (dense_modes): a set of more than 2K+1
modes, K the largest |k_a| among them, is summed from per-axis tables of
cos(k_a x_a) and sin(k_a x_a) with e^{i k.x} = e^{i k1 x1} e^{i k2 x2},
contracted by single-threaded real einsum; any other set contracts cos(k.x) and
sin(k.x) with the coefficients by BLAS and skips the pass of a pure sine or
pure cosine series.  The criticality
weak terms (action._weak_terms) contract the same modes against a velocity
directly.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np
from numpy.fft import ifft2
from numpy.random import default_rng

TWO_PI = 2.0 * np.pi

HERMITIAN_TOL = 1e-12
DIVFREE_TOL = 1e-12


class SpectralError(ValueError):
    """Raised when a field violates a structural precondition."""


@functools.cache
def _wavegrid(K: int) -> tuple[np.ndarray, np.ndarray]:
    """Wavenumber grids k1, k2 of the |k|_inf <= K block, built once per K and
    read-only, since every caller shares them."""
    ks = np.arange(-K, K + 1, dtype=float)
    k1, k2 = np.meshgrid(ks, ks, indexing="ij")
    k1.flags.writeable = k2.flags.writeable = False
    return k1, k2


def _half_lattice(K: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Wavenumber grids and the mask of the canonical half-lattice, one
    representative of each {k, -k} pair.  Indexing with the mask lists the
    wavevectors by k1, then k2, ascending."""
    k1, k2 = _wavegrid(K)
    return k1, k2, (k1 > 0) | ((k1 == 0) & (k2 > 0))


def stack_active_modes(coeff_list: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Half-lattice wavevectors active in any of the given coefficient arrays
    (scalar or vector), and the per-array coefficients stacked on them."""
    K = (coeff_list[0].shape[0] - 1) // 2
    k1, k2, half = _half_lattice(K)
    active = np.zeros_like(half)
    for c in coeff_list:
        active |= np.abs(c).reshape(half.shape + (-1,)).max(axis=-1) > 0
    active &= half
    kv = np.stack([k1[active], k2[active]], axis=-1)
    return kv, np.stack([c[active] for c in coeff_list])


def dense_modes(kv: np.ndarray) -> bool:
    """Whether trig_sum and trig_gradient sum the half-lattice mode set kv
    (m, 2) from per-axis tables: m exceeds the lattice width 2K+1, with
    K = max |k_a| over the modes."""
    return kv.shape[0] > 2 * np.abs(kv).max(initial=0.0) + 1


def _phase_sum(pts: np.ndarray, kv: np.ndarray, cf: np.ndarray) -> np.ndarray:
    """2 Re(sum_k c_k e^{i k.x}) for coefficients cf of shape (m,) + V, with the
    value shape flattened to (m, q) and contracted by BLAS as cos(k.x) @ Re c -
    sin(k.x) @ Im c; sin is formed in the phases' buffer and a pass whose
    coefficients are all zero skipped."""
    V = cf.shape[1:]
    q = math.prod(V)
    cf = cf.reshape(kv.shape[0], q)  # an explicit q, since m may be 0
    out = np.zeros((pts.shape[0], q))
    if kv.shape[0]:
        ph = pts @ kv.T
        if cf.real.any():
            out += np.cos(ph) @ cf.real
        if cf.imag.any():
            out -= np.sin(ph, out=ph) @ cf.imag
        out *= 2.0
    return out.reshape(pts.shape[:1] + V)


def _axis_powers(x: np.ndarray, K: int) -> np.ndarray:
    """(2, K+1, n) table of cos(k x) and sin(k x) for k = 0..K, K >= 1: one
    cos and one sin call at k = 1, then e^{i(m+j)x} = e^{ijx} e^{imx} doubles
    the table per step, so each entry is at most 1 + log2(K) products away
    from the library values."""
    e = np.empty((K + 1, x.size), dtype=complex)
    e[0] = 1.0
    e[1].real, e[1].imag = np.cos(x), np.sin(x)
    m = 1
    while m < K:
        top = min(2 * m, K)
        np.multiply(e[1 : top - m + 1], e[m], out=e[m + 1 : top + 1])
        m = top
    return np.stack([e.real, e.imag])


def _axis_table_sum(pts: np.ndarray, kv: np.ndarray, cf: np.ndarray) -> np.ndarray:
    """2 Re(sum_k c_k e^{i k.x}) for coefficients cf of shape (m,) + V, from
    e^{i k.x} = e^{i k1 x1} e^{i k2 x2} and per-axis tables (_axis_powers).
    The coefficients are scattered into a (2K+1, K+1) + V block C[k2 + K, k1]
    and contracted over k2, then k1.  Real einsum keeps the contraction on this
    thread (a complex @ goes through threaded BLAS)."""
    K = int(np.abs(kv).max())
    V = cf.shape[1:]
    q = (K + 1) * int(np.prod(V, dtype=int))
    C = np.zeros((2 * K + 1, K + 1) + V, dtype=complex)
    C[kv[:, 1].astype(int) + K, kv[:, 0].astype(int)] = cf
    C = C.reshape(2 * K + 1, q)
    # sum_{k2=-K..K} C[k2] e^{i k2 x2} = sum_{k2=0..K} P cos(k2 x2) + i M sin(k2 x2),
    # with P = C[k2] + C[-k2] (C[0] at k2 = 0) and M = C[k2] - C[-k2]
    P = C[K:].copy()
    P[1:] += C[K - 1 :: -1]
    M = C[K:] - C[K::-1]
    e1, e2 = _axis_powers(pts[:, 0], K), _axis_powers(pts[:, 1], K)
    # Q[k1] = sum_k2 C[k2, k1] e^{i k2 x2}: rows Re Q, then Im Q
    Q = np.einsum("bq,bn->qn", np.block([[P.real, P.imag], [-M.imag, M.real]]), e2.reshape(2 * K + 2, -1))
    Qr = Q[:q].reshape((K + 1,) + V + (-1,))
    Qi = Q[q:].reshape((K + 1,) + V + (-1,))
    # Re(Q e^{i k1 x1}), summed over k1
    out = np.einsum("an,a...n->...n", e1[0], Qr)
    out -= np.einsum("an,a...n->...n", e1[1], Qi)
    out *= 2.0
    return np.ascontiguousarray(np.moveaxis(out, -1, 0))


def trig_sum(points, kv: np.ndarray, cf: np.ndarray, mean=0.0) -> np.ndarray:
    """mean + 2 Re(sum_k c_k e^{i k.x}) over half-lattice modes kv (m, 2) with
    coefficients cf of shape (m,) or (m, 2); values (n,) or (n, 2).

    Two paths, picked from the mode set alone (dense_modes).  A dense set, with
    more modes than the lattice width 2K+1 (a solved or random flow), is summed
    from per-axis cos/sin tables: one cos/sin pair per point and axis instead of
    m, and about 4 n (K+1)^2 multiply-adds per value component.
    Any other set (Taylor-Green, single-mode test fields) is contracted by BLAS
    over the phases k.x, and a pass whose coefficients are all zero is skipped:
    a pure cosine series (a Taylor-Green pressure) needs no sines, and a pure
    sine series (its velocity, each frame field of a sine kind) no cosines.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    out = (_axis_table_sum if dense_modes(kv) else _phase_sum)(pts, kv, cf)
    out += mean
    return out


def trig_gradient(points, kv: np.ndarray, cf: np.ndarray) -> np.ndarray:
    """Spatial derivatives d_b of trig_sum, with b the last axis: (n, 2) or
    (n, 2, 2), the latter the Jacobian J[n, a, b] = d_b u_a.  The kernel of
    trig_sum, on either path, applied to the coefficients i k_b c_k."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    ik = (1j * kv).reshape(kv.shape[:1] + (1,) * (cf.ndim - 1) + (2,))
    return (_axis_table_sum if dense_modes(kv) else _phase_sum)(pts, kv, cf[..., None] * ik)


def to_grid(coeffs: np.ndarray, n: int) -> np.ndarray:
    """Values on the uniform n x n grid of the field with coefficients coeffs
    (shape (2K+1, 2K+1) or (2K+1, 2K+1, 2)); exact for n >= 2K+1."""
    K = (coeffs.shape[0] - 1) // 2
    if n < 2 * K + 1:
        raise SpectralError("grid too coarse to hold all modes")
    idx = np.arange(-K, K + 1) % n
    spec = np.zeros((n, n) + coeffs.shape[2:], dtype=complex)
    spec[np.ix_(idx, idx)] = coeffs
    return np.real(ifft2(spec, axes=(0, 1))) * n * n


@dataclass
class FourierField:
    """Real field f(theta) = sum_k c_k e^{i k.theta} on T^2 whose values have
    shape VALUE_SHAPE: () for a scalar field, (2,) for a vector field.

    coeffs has shape (2K+1, 2K+1) + VALUE_SHAPE; entry [K, K] is the k = 0
    mode, whose real part is the mean.  Construction checks the shape, that
    every coefficient is finite and that the coefficients are Hermitian (the
    field is real), and drops the k = 0 mode's imaginary part on a copy.
    Instances are immutable by convention; every operator returns a fresh
    field of the same class.
    """

    VALUE_SHAPE: ClassVar[tuple]

    K: int
    coeffs: np.ndarray
    _eval_cache: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        expected = (2 * self.K + 1, 2 * self.K + 1) + self.VALUE_SHAPE
        if self.coeffs.shape != expected:
            raise SpectralError(f"coeffs shape {self.coeffs.shape} != {expected}")
        if not np.isfinite(self.coeffs).all():
            raise SpectralError("coefficients must be finite")
        # index i <-> wavenumber i - K, so flipping both axes maps k -> -k
        flipped = np.conj(self.coeffs[::-1, ::-1])
        scale = max(np.max(np.abs(self.coeffs)), 1.0)
        if np.max(np.abs(self.coeffs - flipped)) > HERMITIAN_TOL * scale:
            raise SpectralError("coefficients are not Hermitian-symmetric (field not real)")
        # the k = 0 mode of a real field is real: an imaginary part the check
        # above let through is dropped, on a copy, so that l2_inner counts
        # what evaluation and the coefficient file see
        if np.any(self.coeffs[self.K, self.K].imag):
            self.coeffs = self.coeffs.copy()
            self.coeffs.imag[self.K, self.K] = 0.0

    @classmethod
    def from_modes(cls, K: int, modes: dict) -> "FourierField":
        """The field with coefficient c at each wavevector k of modes, its
        conjugate at -k and zero elsewhere, so each {k, -k} pair is listed
        once.  SpectralError for a k outside |k|_inf <= K, where an index
        would otherwise wrap around."""
        coeffs = np.zeros((2 * K + 1, 2 * K + 1) + cls.VALUE_SHAPE, dtype=complex)
        for (k1, k2), c in modes.items():
            if max(abs(k1), abs(k2)) > K:
                raise SpectralError(f"mode {[int(k1), int(k2)]} lies outside |k|_inf <= {K}")
            coeffs[k1 + K, k2 + K] = c
            coeffs[K - k1, K - k2] = np.conj(c)
        return cls(K, coeffs)

    @property
    def mean(self):
        return self.coeffs[self.K, self.K].real.copy()

    def _compiled(self):
        """Cache (kvecs, coeffs, mean) over the active half-lattice modes."""
        if self._eval_cache is None:
            kv, cf = stack_active_modes([self.coeffs])
            object.__setattr__(self, "_eval_cache", (kv, cf[0], self.mean))
        return self._eval_cache

    def to_grid(self, n: int) -> np.ndarray:
        """Values on the uniform n x n grid (exact for n >= 2K+1)."""
        return to_grid(self.coeffs, n)

    def _coeffs_of(self, other: "FourierField") -> np.ndarray:
        if other.K != self.K:
            raise SpectralError("truncations differ")
        return other.coeffs

    def l2_inner(self, other: "FourierField") -> float:
        """Normalized L^2 pairing int <f, g> dx / (2pi)^2, exact via Parseval."""
        return float(np.real(np.sum(self.coeffs * np.conj(self._coeffs_of(other)))))

    def l2_norm(self) -> float:
        return float(np.sqrt(max(self.l2_inner(self), 0.0)))

    def __add__(self, other: "FourierField") -> "FourierField":
        return type(self)(self.K, self.coeffs + self._coeffs_of(other))

    def __sub__(self, other: "FourierField") -> "FourierField":
        return type(self)(self.K, self.coeffs - self._coeffs_of(other))

    def __mul__(self, scalar: float) -> "FourierField":
        return type(self)(self.K, self.coeffs * float(scalar))

    __rmul__ = __mul__

    def with_truncation(self, K_new: int) -> "FourierField":
        """Embed into (or restrict to) the |k|_inf <= K_new block."""
        out = np.zeros((2 * K_new + 1, 2 * K_new + 1) + self.VALUE_SHAPE, dtype=complex)
        m = min(self.K, K_new)
        out[K_new - m : K_new + m + 1, K_new - m : K_new + m + 1] = self.coeffs[
            self.K - m : self.K + m + 1, self.K - m : self.K + m + 1
        ]
        return type(self)(K_new, out)

    def to_json(self) -> str:
        """The coefficient file of scalar and vector fields alike: K, the modes
        but k = 0 with their real and imaginary parts, and the mean, each value
        of the field's value shape; a vector document also records "dim": 2.
        A mode whose parts are all +0.0 (all bytes zero) is left out, and it
        takes that value on load, so the round trip keeps every bit."""
        K = self.K
        modes = [
            {"k": [i - K, j - K], "re": c.real.tolist(), "im": c.imag.tolist()}
            for i, row in enumerate(self.coeffs)
            for j, c in enumerate(row)
            if (i, j) != (K, K) and any(c.tobytes())
        ]
        doc = {"dim": 2} if self.VALUE_SHAPE else {}
        doc.update(K=K, modes=modes, mean=self.mean.tolist())
        return json.dumps(doc)

    @classmethod
    def from_json(cls, text: str) -> "FourierField":
        """The field of a to_json document.  A document with no "mean", as
        older pressure files are, lists any k = 0 mode among the modes."""
        doc = json.loads(text)
        K = int(doc["K"])
        coeffs = np.zeros((2 * K + 1, 2 * K + 1) + cls.VALUE_SHAPE, dtype=complex)

        def value(x) -> np.ndarray:
            v = np.asarray(x, dtype=float)
            if v.shape != cls.VALUE_SHAPE:
                raise SpectralError(f"value of shape {v.shape} in a {cls.__name__} document")
            return v

        if "mean" in doc:
            coeffs.real[K, K] = value(doc["mean"])
        for m in doc["modes"]:
            k1, k2 = m["k"]
            if max(abs(k1), abs(k2)) > K:
                raise SpectralError(f"mode {m['k']} lies outside |k|_inf <= {K}")
            # real and imaginary parts set apart, so signed zeros survive
            coeffs.real[k1 + K, k2 + K] = value(m["re"])
            coeffs.imag[k1 + K, k2 + K] = value(m["im"])
        return cls(K, coeffs)


class FourierVectorField(FourierField):
    """Real vector field u(theta) = sum_k c_k e^{i k.theta} on T^2, with
    coeffs of shape (2K+1, 2K+1, 2)."""

    VALUE_SHAPE = (2,)

    def divergence_defect(self) -> float:
        """max_k |k . c_k| / (|k| |c_k|), the relative divergence residual."""
        k1, k2 = _wavegrid(self.K)
        dot = k1 * self.coeffs[..., 0] + k2 * self.coeffs[..., 1]
        mag = np.hypot(k1, k2) * np.linalg.norm(self.coeffs, axis=-1)
        mask = mag > 0
        if not mask.any():
            return 0.0
        return float(np.max(np.abs(dot[mask]) / mag[mask]))

    def divergence_field(self) -> "FourierScalarField":
        """div f, the scalar field with coefficients i k.c_k."""
        k1, k2 = _wavegrid(self.K)
        return FourierScalarField(self.K, 1j * (k1 * self.coeffs[..., 0] + k2 * self.coeffs[..., 1]))

    def is_divergence_free(self, tol: float = DIVFREE_TOL) -> bool:
        return self.divergence_defect() <= tol

    def is_shear(self) -> bool:
        """Whether all active wavevectors are parallel to one direction d and
        every coefficient (real and imaginary part) and the mean are
        orthogonal to d, within DIVFREE_TOL relative to scale.

        Such a field depends on x only through d.x and never moves a point
        along d, so w is constant along each of its trajectories.  A field
        with no active modes is constant and counts too.
        """
        kv, cf, mn = self._compiled()
        if kv.shape[0] == 0:
            return True
        d = kv[0]
        # wavevectors hold small integers, so the cross products are exact
        if np.any(kv[:, 0] * d[1] - kv[:, 1] * d[0] != 0):
            return False
        parts = np.concatenate([cf.real, cf.imag, mn[None, :]])
        scale = np.linalg.norm(d) * np.max(np.abs(parts))
        return bool(np.max(np.abs(parts @ d)) <= DIVFREE_TOL * scale)

    # pointwise evaluation by exact trig summation; each class keeps its own
    # evaluate_at and gradient_at, because nsvbench/tracing.py wraps them by
    # name in the class's own namespace

    def evaluate_at(self, points: np.ndarray) -> np.ndarray:
        """Field values at points, shape (n, 2) -> (n, 2)."""
        return trig_sum(points, *self._compiled())

    def evaluate(self, theta) -> np.ndarray:
        return self.evaluate_at(np.asarray(theta, dtype=float)[None, :])[0]

    def gradient_at(self, points: np.ndarray) -> np.ndarray:
        """Jacobians J[n, a, b] = d_b u_a at each point."""
        return trig_gradient(points, *self._compiled()[:2])

    def gradient_tensor(self, theta) -> np.ndarray:
        return self.gradient_at(np.asarray(theta, dtype=float)[None, :])[0]


class FourierScalarField(FourierField):
    """Real scalar field p(theta) = sum_k c_k e^{i k.theta} on T^2, with
    coeffs of shape (2K+1, 2K+1)."""

    VALUE_SHAPE = ()

    def evaluate_at(self, points: np.ndarray) -> np.ndarray:
        return trig_sum(points, *self._compiled())

    def gradient_at(self, points: np.ndarray) -> np.ndarray:
        return trig_gradient(points, *self._compiled()[:2])

    def gradient_field(self) -> FourierVectorField:
        k1, k2 = _wavegrid(self.K)
        out = np.empty((2 * self.K + 1, 2 * self.K + 1, 2), dtype=complex)
        out[..., 0] = 1j * k1 * self.coeffs
        out[..., 1] = 1j * k2 * self.coeffs
        return FourierVectorField(self.K, out)


# -- differential operators (mode-wise, exact) -------------------------------


def leray_project(f: FourierVectorField) -> FourierVectorField:
    """L^2-orthogonal projection onto divergence-free fields: I - k k^T/|k|^2.

    Realized as reconstruction of the k_perp component, with a fast path that
    leaves untouched any mode whose divergence already sits at working
    precision.  Reconstructed modes land inside that precision band, so the
    projection is exactly idempotent: a second application returns the same
    bits.
    """
    return FourierVectorField(f.K, leray_coeffs(f.coeffs))


def leray_coeffs(coeffs: np.ndarray) -> np.ndarray:
    """leray_project on a (2K+1, 2K+1, 2) coefficient array, with no field built."""
    K = (coeffs.shape[0] - 1) // 2
    k1, k2 = _wavegrid(K)
    ksq = k1 * k1 + k2 * k2
    ksq_safe = np.where(ksq == 0, 1.0, ksq)
    c0, c1 = coeffs[..., 0], coeffs[..., 1]
    dot = k1 * c0 + k2 * c1
    tol = 8.0 * np.finfo(float).eps
    already = np.abs(dot) <= tol * np.sqrt(ksq) * np.linalg.norm(coeffs, axis=-1)
    t = (k2 * c0 - k1 * c1) / ksq_safe
    out = np.empty_like(coeffs)
    out[..., 0] = np.where(already, c0, t * k2)
    out[..., 1] = np.where(already, c1, -t * k1)
    out[K, K] = coeffs[K, K]
    return out


def deformation_tensor_coeffs(f: FourierVectorField) -> np.ndarray:
    """Symmetrized gradient (Def u)_{ab} = (d_a u_b + d_b u_a)/2, mode-wise."""
    k1, k2 = _wavegrid(f.K)
    c = f.coeffs
    S = np.empty(c.shape[:2] + (2, 2), dtype=complex)
    S[..., 0, 0] = 1j * k1 * c[..., 0]
    S[..., 1, 1] = 1j * k2 * c[..., 1]
    S[..., 0, 1] = 0.5j * (k1 * c[..., 1] + k2 * c[..., 0])
    S[..., 1, 0] = S[..., 0, 1]
    return S


def deformation_inner(f: FourierVectorField, g: FourierVectorField) -> float:
    """<Def f, Def g> in L^2 over symmetric 2-tensors (normalized volume)."""
    Sf = deformation_tensor_coeffs(f)
    Sg = deformation_tensor_coeffs(g)
    return float(np.real(np.sum(Sf * np.conj(Sg))))


def deformation_laplacian(f: FourierVectorField) -> FourierVectorField:
    """Twice the adjoint-composed deformation operator, 2 Def* Def.

    Requires a divergence-free input; there it reduces to -Laplace, i.e.
    multiplication of each mode by |k|^2.  The mode formula below keeps the
    full symmetrized-gradient route k (k.c) + |k|^2 c so the adjointness
    identity <2 Def*Def f, g> = 2 <Def f, Def g> is exact by construction.
    """
    if not f.is_divergence_free(tol=1e-10):
        raise SpectralError("deformation laplacian requires a divergence-free field")
    k1, k2 = _wavegrid(f.K)
    ksq = k1 * k1 + k2 * k2
    dot = k1 * f.coeffs[..., 0] + k2 * f.coeffs[..., 1]
    out = np.empty_like(f.coeffs)
    out[..., 0] = k1 * dot + ksq * f.coeffs[..., 0]
    out[..., 1] = k2 * dot + ksq * f.coeffs[..., 1]
    return FourierVectorField(f.K, out)


def hodge_laplacian(f: FourierVectorField) -> FourierVectorField:
    """de Rham-Hodge laplacian d d* + d* d on the associated 1-form.

    Both pieces are assembled mode by mode; on the flat torus their sum is
    plain |k|^2 per mode, so this agrees with deformation_laplacian on
    divergence-free fields (zero Ricci curvature).
    """
    k1, k2 = _wavegrid(f.K)
    c = f.coeffs
    div_hat = k1 * c[..., 0] + k2 * c[..., 1]  # -i * d*omega
    curl_hat = k1 * c[..., 1] - k2 * c[..., 0]  # -i * (d omega coefficient)
    out = np.empty_like(c)  # d d* term + d* d term, per component
    out[..., 0] = k1 * div_hat + -k2 * curl_hat
    out[..., 1] = k2 * div_hat + k1 * curl_hat
    return FourierVectorField(f.K, out)


def vector_laplacian(f: FourierVectorField) -> FourierVectorField:
    """Componentwise -Laplace: each mode multiplied by |k|^2."""
    k1, k2 = _wavegrid(f.K)
    ksq = (k1 * k1 + k2 * k2)[..., None]
    return FourierVectorField(f.K, f.coeffs * ksq)


# -- the divergence-free trigonometric frame ---------------------------------


CANONICAL_HALF_RULE = "k1 > 0, or k1 == 0 and k2 > 0"


@dataclass
class SpectralBasis:
    """Trigonometric frame of divergence-free fields with decay |k|^-beta.

    One cosine field and one sine field per wavevector in the canonical
    half-lattice (one representative of each {k, -k} pair), both pointing
    along k_perp = (k2, -k1).  The normalizer nu0 is the truncated sum
    sum_k |k|^2 / (2 |k|^(2 beta)), chosen so that the pointwise frame
    identity sum(<A_k, v>^2 + <B_k, v>^2) = nu |v|^2 holds exactly at finite
    truncation (the square block is invariant under 90-degree rotation, which
    makes the truncated second-moment sum exactly isotropic).
    """

    beta: float
    K: int
    nu: float

    def __post_init__(self):
        if self.beta <= 1:
            raise SpectralError("beta must exceed 1")
        if self.nu <= 0:
            raise SpectralError("nu must be positive")
        k1, k2, half = _half_lattice(self.K)
        self.kvecs = np.stack([k1[half], k2[half]], axis=-1)
        self.kperp = np.stack([self.kvecs[:, 1], -self.kvecs[:, 0]], axis=-1)
        kn = np.linalg.norm(self.kvecs, axis=1)
        self.nu0 = float(np.sum(kn**2 / (2.0 * kn ** (2.0 * self.beta))))
        self.amps = np.sqrt(self.nu / self.nu0) / kn**self.beta

    @property
    def n_modes(self) -> int:
        return self.kvecs.shape[0]

    def _mode_index(self, k) -> int:
        k = np.asarray(k, dtype=float)
        hits = np.where((self.kvecs == k).all(axis=1))[0]
        if hits.size == 0:
            raise SpectralError(
                f"wavevector {k.astype(int).tolist()} is not in the canonical "
                f"half-lattice ({CANONICAL_HALF_RULE}) within |k|_inf <= {self.K}"
            )
        return int(hits[0])

    def basis_field(self, k, kind: str) -> FourierVectorField:
        """The cosine (A) or sine (B) frame field for wavevector k."""
        m = self._mode_index(k)
        amp_perp = self.amps[m] * self.kperp[m]
        if kind == "cos":
            c = 0.5 * amp_perp.astype(complex)
        elif kind == "sin":
            c = -0.5j * amp_perp
        else:
            raise SpectralError("kind must be 'cos' or 'sin'")
        return FourierVectorField.from_modes(self.K, {tuple(self.kvecs[m].astype(int)): c})

    def frame_sum(self, v, theta) -> float:
        """sum_k <A_k(theta), v>^2 + <B_k(theta), v>^2, equal to nu |v|^2."""
        v = np.asarray(v, dtype=float)
        ph = (np.asarray(theta, dtype=float)[None, :] @ self.kvecs.T)[0]
        ap = self.amps[:, None] * self.kperp  # frame amplitudes, (m, 2)
        A, B = np.cos(ph)[:, None] * ap, np.sin(ph)[:, None] * ap
        return float(np.sum((A @ v) ** 2) + np.sum((B @ v) ** 2))

    def stratonovich_correction(self, theta) -> np.ndarray:
        """sum_k (grad_{A_k} A_k + grad_{B_k} B_k)(theta); zero to rounding.

        Assembled from the generic Jacobian route rather than asserted, so the
        cancellation k . k_perp = 0 is actually exercised.
        """
        theta = np.asarray(theta, dtype=float)
        total = np.zeros(2)
        for m in range(self.n_modes):
            k = self.kvecs[m].astype(int)
            for kind in ("cos", "sin"):
                fld = self.basis_field(k, kind)
                val = fld.evaluate(theta)
                total += fld.gradient_tensor(theta) @ val
        return total

    def noise_displacement(self, points: np.ndarray, dw_cos: np.ndarray, dw_sin: np.ndarray) -> np.ndarray:
        """sum_k A_k(x) dw_k + B_k(x) dw~_k for a batch of points."""
        ph = points @ self.kvecs.T
        w = (np.cos(ph) * dw_cos + np.sin(ph) * dw_sin) * self.amps
        return np.einsum("nm,mc->nc", w, self.kperp)


def random_divergence_free(K: int, seed: int, decay: float = 2.0, scale: float = 1.0) -> FourierVectorField:
    """Random smooth divergence-free field, |c_k| ~ |k|^-decay, for tests."""
    rng = default_rng(seed)
    n = 2 * K + 1
    z = rng.standard_normal((n, n, 2)) + 1j * rng.standard_normal((n, n, 2))
    z = 0.5 * (z + np.conj(z[::-1, ::-1]))
    k1, k2 = _wavegrid(K)
    kn = np.hypot(k1, k2)
    kn[K, K] = 1.0
    z *= (kn ** (-decay))[..., None] * scale
    z[K, K] = 0.0
    return leray_project(FourierVectorField(K, z))
