"""Shared constructions for the test suite."""

import numpy as np

from nsvlab.cli import _cos_x1 as cos_x1_scalar, _grad_sin_x1 as grad_sin_x1  # noqa: F401
from nsvlab.fields import FourierVectorField, vector_laplacian
from nsvlab.flows import TimeDependentVelocity, advection_field


def constant_field(c, K=2):
    coeffs = np.zeros((2 * K + 1, 2 * K + 1, 2), complex)
    coeffs[K, K] = c
    return FourierVectorField(K, coeffs)


def ns_residual_norm(tg: TimeDependentVelocity, t: float) -> float:
    """|d_t u + (u.grad)u + nu (2Def*Def) u + grad p| in L^2, d_t by central FD."""
    dt_grid = tg.times[1] - tg.times[0]
    j = int(round(t / dt_grid))
    u = tg.frames[j]
    h = 1e-4
    up = tg.frames[j].coeffs * np.exp(-2 * tg.nu * h)
    um = tg.frames[j].coeffs * np.exp(+2 * tg.nu * h)
    dudt = (up - um) / (2 * h)
    resid = (
        dudt
        + advection_field(u).coeffs
        + tg.nu * vector_laplacian(u).coeffs
        + tg.pressures[j].gradient_field().coeffs
    )
    return float(np.sqrt(np.sum(np.abs(resid) ** 2)))


def with_negative_zeros(coeffs):
    """A copy of coeffs with every +0.0 real or imaginary part made -0.0, but
    the k = 0 imaginary part: a saved field keeps only the real k = 0 part,
    its mean."""
    K = (coeffs.shape[0] - 1) // 2
    out = np.array(coeffs, dtype=complex)
    for part in (out.real, out.imag):
        part[part == 0] = -0.0
    out.imag[K, K] = coeffs.imag[K, K]
    return out
