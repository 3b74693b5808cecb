"""Operator identities and field structure on the flat 2-torus."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsvlab import fields as fields_module
from nsvlab.fields import (
    FourierScalarField,
    FourierVectorField,
    SpectralBasis,
    SpectralError,
    _axis_table_sum,
    _phase_sum,
    _wavegrid,
    dense_modes,
    deformation_inner,
    deformation_laplacian,
    hodge_laplacian,
    leray_project,
    random_divergence_free,
    stack_active_modes,
    to_grid,
    trig_gradient,
    trig_sum,
    vector_laplacian,
)

TWO_PI = 2 * np.pi


def scalar_from_modes(K, entries):
    c = np.zeros((2 * K + 1, 2 * K + 1), dtype=complex)
    for (k1, k2), val in entries:
        c[k1 + K, k2 + K] = val
        c[-k1 + K, -k2 + K] = np.conj(val)
    return FourierScalarField(K, c)


def cos_x1_field(K=2):
    return scalar_from_modes(K, [((1, 0), 0.5)])


def sin_x1_field(K=2):
    return scalar_from_modes(K, [((1, 0), -0.5j)])


# -- basis fields ------------------------------------------------------------


class TestBasisField:
    def test_unit_amplitude_cosine_formula(self):
        basis = SpectralBasis(beta=3.0, K=4, nu=1.0)
        basis = SpectralBasis(beta=3.0, K=4, nu=basis.nu0)  # sqrt(nu/nu0) = 1
        A = basis.basis_field((1, 0), "cos")
        for th1 in np.linspace(0, TWO_PI, 7):
            np.testing.assert_allclose(
                A.evaluate((th1, 0.3)), [0.0, -np.cos(th1)], atol=1e-14
            )

    def test_every_basis_field_divergence_free(self):
        basis = SpectralBasis(beta=3.0, K=3, nu=0.1)
        for k in basis.kvecs.astype(int):
            for kind in ("cos", "sin"):
                assert basis.basis_field(k, kind).is_divergence_free()

    def test_pointwise_matches_closed_form_on_grid(self):
        basis = SpectralBasis(beta=3.0, K=4, nu=0.1)
        B = basis.basis_field((2, 1), "sin")
        xs = np.linspace(0, TWO_PI, 32, endpoint=False)
        pts = np.stack(np.meshgrid(xs, xs, indexing="ij"), -1).reshape(-1, 2)
        amp = np.sqrt(0.1 / basis.nu0) / np.hypot(2, 1) ** 3
        expect = amp * np.sin(2 * pts[:, 0] + pts[:, 1])[:, None] * np.array([1.0, -2.0])
        np.testing.assert_allclose(B.evaluate_at(pts), expect, atol=1e-12)

    def test_rejects_zero_and_out_of_truncation_wavevectors(self):
        basis = SpectralBasis(beta=3.0, K=2, nu=0.1)
        with pytest.raises(SpectralError):
            basis.basis_field((0, 0), "cos")
        with pytest.raises(SpectralError):
            basis.basis_field((3, 0), "cos")
        with pytest.raises(SpectralError):
            basis.basis_field((1, 0), "tan")

    def test_half_lattice_has_one_representative_per_pair(self):
        basis = SpectralBasis(beta=3.0, K=3, nu=0.1)
        seen = {tuple(k) for k in basis.kvecs.astype(int)}
        full = {
            (i, j)
            for i in range(-3, 4)
            for j in range(-3, 4)
            if (i, j) != (0, 0)
        }
        assert len(seen) == len(full) // 2
        for k in seen:
            assert (-k[0], -k[1]) not in seen
        # the Stratonovich noise channels are indexed in this order
        order = np.lexsort((basis.kvecs[:, 1], basis.kvecs[:, 0]))
        np.testing.assert_array_equal(order, np.arange(basis.n_modes))


class TestFrameIdentity:
    def test_unit_vector(self):
        basis = SpectralBasis(beta=3.0, K=8, nu=0.05)
        got = basis.frame_sum((1.0, 0.0), (0.123, 4.56))
        assert got == pytest.approx(0.05, rel=1e-13)

    def test_zero_vector(self):
        basis = SpectralBasis(beta=3.0, K=4, nu=0.05)
        assert basis.frame_sum((0.0, 0.0), (1.0, 2.0)) == 0.0

    def test_three_four_five(self):
        basis = SpectralBasis(beta=3.0, K=8, nu=0.1)
        assert basis.frame_sum((3.0, 4.0), (0.0, 0.0)) == pytest.approx(2.5, rel=1e-13)

    @settings(max_examples=25, deadline=None)
    @given(
        vx=st.floats(-5, 5), vy=st.floats(-5, 5),
        t1=st.floats(0, TWO_PI), t2=st.floats(0, TWO_PI),
    )
    def test_identity_for_random_inputs(self, vx, vy, t1, t2):
        basis = SpectralBasis(beta=3.0, K=5, nu=0.07)
        got = basis.frame_sum((vx, vy), (t1, t2))
        want = 0.07 * (vx * vx + vy * vy)
        assert abs(got - want) <= 1e-12 * max(want, 1.0)


class TestStratonovichCorrection:
    def test_sum_vanishes(self):
        basis = SpectralBasis(beta=3.0, K=8, nu=0.1)
        for theta in [(0.0, 0.0), (np.pi / 4, 0.0), (2.2, 5.1)]:
            assert np.max(np.abs(basis.stratonovich_correction(theta))) <= 1e-12

    def test_single_term_vanishes_pointwise(self):
        basis = SpectralBasis(beta=3.0, K=2, nu=0.1)
        A = basis.basis_field((1, 0), "cos")
        theta = np.array([np.pi / 4, 0.0])
        term = A.gradient_tensor(theta) @ A.evaluate(theta)
        np.testing.assert_allclose(term, 0.0, atol=1e-15)

    def test_single_term_against_central_differences(self):
        basis = SpectralBasis(beta=3.0, K=2, nu=0.1)
        A = basis.basis_field((2, 1), "cos")
        theta = np.array([0.8, 1.7])
        h = 1e-6
        v = A.evaluate(theta)
        fd = (A.evaluate(theta + h * v) - A.evaluate(theta - h * v)) / (2 * h)
        np.testing.assert_allclose(fd, 0.0, atol=1e-8)


# -- projections and laplacians ----------------------------------------------


class TestLerayProjection:
    def test_kills_gradient_fields(self):
        grad = sin_x1_field().gradient_field()  # (cos x1, 0)
        projected = leray_project(grad)
        assert np.max(np.abs(projected.coeffs)) == 0.0

    def test_fixes_basis_fields(self):
        basis = SpectralBasis(beta=3.0, K=3, nu=0.1)
        A = basis.basis_field((2, 1), "cos")
        np.testing.assert_array_equal(leray_project(A).coeffs, A.coeffs)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_idempotent_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        K = 4
        z = rng.standard_normal((9, 9, 2)) + 1j * rng.standard_normal((9, 9, 2))
        z = 0.5 * (z + np.conj(z[::-1, ::-1]))
        z[K, K] = rng.standard_normal(2)
        f = FourierVectorField(K, z)
        once = leray_project(f)
        twice = leray_project(once)
        np.testing.assert_array_equal(once.coeffs, twice.coeffs)
        assert once.is_divergence_free(tol=1e-12)


class TestLaplacians:
    def test_deformation_laplacian_scales_basis_modes(self):
        basis = SpectralBasis(beta=3.0, K=3, nu=0.1)
        A = basis.basis_field((2, 1), "cos")
        out = deformation_laplacian(A)
        np.testing.assert_allclose(out.coeffs, 5.0 * A.coeffs, atol=1e-15)

    def test_zero_field_maps_to_zero(self):
        zero = FourierVectorField(2, np.zeros((5, 5, 2), complex))
        assert np.max(np.abs(deformation_laplacian(zero).coeffs)) == 0.0
        assert np.max(np.abs(hodge_laplacian(zero).coeffs)) == 0.0

    def test_rejects_non_divergence_free(self):
        grad = sin_x1_field().gradient_field()
        with pytest.raises(SpectralError):
            deformation_laplacian(grad)

    def test_hodge_equals_deformation_on_divergence_free(self):
        for i in range(20):
            f = random_divergence_free(8, seed=100 + i)
            a = deformation_laplacian(f).coeffs
            b = hodge_laplacian(f).coeffs
            scale = max(np.max(np.abs(a)), 1e-300)
            assert np.max(np.abs(a - b)) / scale <= 1e-12

    def test_both_equal_minus_componentwise_laplace(self):
        f = random_divergence_free(6, seed=7)
        ref = vector_laplacian(f).coeffs
        np.testing.assert_allclose(deformation_laplacian(f).coeffs, ref, atol=1e-14)
        np.testing.assert_allclose(hodge_laplacian(f).coeffs, ref, atol=1e-14)

    def test_adjointness_pairing(self):
        for i in range(10):
            f = random_divergence_free(5, seed=i)
            g = random_divergence_free(5, seed=500 + i)
            lhs = deformation_laplacian(f).l2_inner(g)
            rhs = 2.0 * deformation_inner(f, g)
            assert abs(lhs - rhs) <= 1e-10

    def test_taylor_green_profile_has_eigenvalue_two(self):
        from nsvlab.flows import taylor_green

        u0 = taylor_green(0.1, 1.0, 1, K=2).frames[0]
        out = deformation_laplacian(u0)
        np.testing.assert_allclose(out.coeffs, 2.0 * u0.coeffs, atol=1e-15)


# -- evaluation ----------------------------------------------------------------


class TestEvaluation:
    def test_unit_cosine_value_at_origin(self):
        basis = SpectralBasis(beta=3.0, K=2, nu=1.0)
        basis = SpectralBasis(beta=3.0, K=2, nu=basis.nu0)
        A = basis.basis_field((1, 0), "cos")
        np.testing.assert_allclose(A.evaluate((0.0, 0.0)), [0.0, -1.0], atol=1e-15)

    def test_gradient_of_constant_field_is_zero(self):
        c = np.zeros((5, 5, 2), complex)
        c[2, 2] = (0.7, -1.3)
        f = FourierVectorField(2, c)
        np.testing.assert_array_equal(f.gradient_tensor((1.0, 2.0)), np.zeros((2, 2)))

    def test_gradient_against_central_differences(self):
        f = random_divergence_free(4, seed=3)
        theta = np.array([1.1, 2.7])
        h = 1e-5
        jac = f.gradient_tensor(theta)
        for b in range(2):
            e = np.zeros(2)
            e[b] = h
            fd = (f.evaluate(theta + e) - f.evaluate(theta - e)) / (2 * h)
            np.testing.assert_allclose(jac[:, b], fd, atol=1e-8)

    def test_parseval_against_grid_quadrature(self):
        f = random_divergence_free(8, seed=11)
        grid = f.to_grid(64)
        quad = float(np.mean(np.sum(grid**2, axis=-1)))
        spectral = f.l2_inner(f)
        assert abs(quad - spectral) <= 1e-10 * max(spectral, 1.0)


# -- the evaluation kernel against the full-lattice Fourier sum ------------------


def random_hermitian(K, vector, seed, keep):
    """Hermitian coefficients on |k|_inf <= K, each {k, -k} pair kept with
    probability keep (the mean always), scalar or vector valued."""
    rng = np.random.default_rng(seed)
    n = 2 * K + 1
    shape = (n, n, 2) if vector else (n, n)
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    mask = rng.uniform(size=(n, n)) < keep
    mask = mask & mask[::-1, ::-1]
    mask[K, K] = True
    z = np.where(mask.reshape(mask.shape + (1,) * (len(shape) - 2)), z, 0.0)
    return 0.5 * (z + np.conj(z[::-1, ::-1]))


def full_lattice_sum(coeffs, pts, derivative=False):
    """sum_k c_k e^{ik.x} (or i k c_k e^{ik.x}) over every stored mode, real part."""
    K = (coeffs.shape[0] - 1) // 2
    ks = np.arange(-K, K + 1, dtype=float)
    E = np.exp(1j * (pts[:, 0, None, None] * ks[:, None] + pts[:, 1, None, None] * ks[None, :]))
    if not derivative:
        return np.einsum("nij,ij...->n...", E, coeffs).real
    kgrid = np.stack(np.meshgrid(ks, ks, indexing="ij"), axis=-1)
    return np.einsum("nij,ij...,ijb->n...b", E, coeffs, 1j * kgrid).real


def kernel_args(coeffs):
    K = (coeffs.shape[0] - 1) // 2
    kv, cf = stack_active_modes([coeffs])
    return kv, cf[0], coeffs[K, K].real


# keep = 1.0 at K >= 1 (and often 0.3) draws dense stacks, summed from axis tables
kernel_cases = dict(
    K=st.integers(0, 8),
    vector=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    keep=st.sampled_from([0.0, 0.3, 1.0]),
)


class TestKernel:
    @settings(max_examples=60, deadline=None)
    @given(**kernel_cases)
    def test_trig_sum_matches_full_lattice(self, K, vector, seed, keep):
        coeffs = random_hermitian(K, vector, seed, keep)
        # points well outside [0, 2pi) too: the sum is periodic
        pts = np.random.default_rng(seed + 1).uniform(-3 * TWO_PI, 4 * TWO_PI, (40, 2))
        scale = max(np.sum(np.abs(coeffs)), 1.0)
        got = trig_sum(pts, *kernel_args(coeffs))
        assert got.shape == ((40, 2) if vector else (40,))
        np.testing.assert_allclose(got, full_lattice_sum(coeffs, pts), rtol=0, atol=1e-12 * scale)

    @settings(max_examples=60, deadline=None)
    @given(**kernel_cases)
    def test_trig_gradient_matches_full_lattice(self, K, vector, seed, keep):
        coeffs = random_hermitian(K, vector, seed, keep)
        pts = np.random.default_rng(seed + 1).uniform(-3 * TWO_PI, 4 * TWO_PI, (40, 2))
        scale = max(np.sum(np.abs(coeffs)) * K, 1.0)
        kv, cf, _ = kernel_args(coeffs)
        got = trig_gradient(pts, kv, cf)
        assert got.shape == ((40, 2, 2) if vector else (40, 2))
        want = full_lattice_sum(coeffs, pts, derivative=True)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale)

    @settings(max_examples=40, deadline=None)
    @given(extra=st.integers(0, 5), **kernel_cases)
    def test_to_grid_matches_trig_sum_at_grid_points(self, extra, K, vector, seed, keep):
        coeffs = random_hermitian(K, vector, seed, keep)
        n = 2 * K + 1 + extra
        xs = TWO_PI * np.arange(n) / n
        pts = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2)
        grid = to_grid(coeffs, n)
        assert grid.shape == (n, n) + coeffs.shape[2:]
        scale = max(np.sum(np.abs(coeffs)), 1.0)
        want = trig_sum(pts, *kernel_args(coeffs))
        np.testing.assert_allclose(grid.reshape(want.shape), want, rtol=0, atol=1e-12 * scale)

    def test_wavegrid_built_once_per_K_and_read_only(self):
        k1, k2 = _wavegrid(3)
        assert _wavegrid(3)[0] is k1
        np.testing.assert_array_equal(k1[:, 0], np.arange(-3.0, 4.0))
        np.testing.assert_array_equal(k2[0], np.arange(-3.0, 4.0))
        with pytest.raises(ValueError):
            k2[0, 0] = 1.0

    def test_to_grid_rejects_coarse_grid(self):
        with pytest.raises(SpectralError):
            to_grid(np.zeros((5, 5), complex), 4)

    @pytest.mark.parametrize("vector", [False, True])
    def test_no_active_modes_gives_mean_and_zero_gradient(self, vector):
        coeffs = random_hermitian(3, vector, seed=4, keep=0.0)
        kv, cf, mean = kernel_args(coeffs)
        assert kv.shape == (0, 2)
        pts = np.random.default_rng(5).uniform(-TWO_PI, 2 * TWO_PI, (7, 2))
        vals = trig_sum(pts, kv, cf, mean)
        grads = trig_gradient(pts, kv, cf)
        if vector:
            assert vals.shape == (7, 2) and grads.shape == (7, 2, 2)
        else:
            assert vals.shape == (7,) and grads.shape == (7, 2)
        np.testing.assert_array_equal(vals, np.broadcast_to(mean, vals.shape))
        np.testing.assert_array_equal(grads, 0.0)


def parity_coeffs(K, vector, seed, kind):
    """Hermitian coefficients of a pure cosine series (real, even c_k), a pure
    sine series (imaginary, odd c_k) or a mixed one."""
    z = random_hermitian(K, vector, seed, keep=1.0)
    return {"cos": z.real + 0j, "sin": 1j * z.imag, "mixed": z}[kind]


class _CountingNumpy:
    """numpy, with its cos and sin calls counted."""

    def __init__(self):
        self.calls = {"cos": 0, "sin": 0}

    def __getattr__(self, name):
        attr = getattr(np, name)
        if name not in self.calls:
            return attr

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return attr(*args, **kwargs)

        return counted


# five modes with K = 3, at most the lattice width 2K+1 = 7: the phase path
SPARSE_MODES = ((1, 1), (1, -1), (0, 2), (2, 0), (3, -1))


def sparse_parity_coeffs(vector, seed, kind):
    """parity_coeffs at K = 3 kept on SPARSE_MODES (and the mean) only."""
    z = parity_coeffs(3, vector, seed, kind)
    keep = np.zeros(z.shape[:2], bool)
    keep[3, 3] = True
    for k1, k2 in SPARSE_MODES:
        keep[3 + k1, 3 + k2] = keep[3 - k1, 3 - k2] = True
    return np.where(keep.reshape(keep.shape + (1,) * (z.ndim - 2)), z, 0.0)


class TestTrigSumPasses:
    """Both kernel paths against the full-lattice Fourier sum to 1e-14 relative
    to the coefficients' absolute sum.  A dense stack makes one cos and one sin
    call per axis table; on a sparse one the cosine or sine pass is skipped
    when all its coefficients are zero."""

    @pytest.mark.parametrize("vector", [False, True], ids=["scalar", "vector"])
    @pytest.mark.parametrize("kind", ["cos", "sin", "mixed"])
    def test_stack_matches_full_lattice(self, kind, vector, monkeypatch):
        stack = [parity_coeffs(K, vector, seed, kind) for K, seed in ((3, 1), (3, 2))]
        stack.append(np.zeros_like(stack[0]))  # inactive on the stacked modes
        kv, cfs = stack_active_modes(stack)
        assert dense_modes(kv)
        pts = np.random.default_rng(7).uniform(0.0, TWO_PI, (200, 2))
        counting = _CountingNumpy()
        monkeypatch.setattr(fields_module, "np", counting)
        for coeffs, cf in zip(stack, cfs):
            got = trig_sum(pts, kv, cf, coeffs[3, 3].real)
            scale = max(np.sum(np.abs(coeffs)), 1.0)
            np.testing.assert_allclose(got, full_lattice_sum(coeffs, pts), rtol=0, atol=1e-14 * scale)
        # each of the three calls: one cos and one sin per axis table
        assert counting.calls == {"cos": 6, "sin": 6}

    @pytest.mark.parametrize("vector", [False, True], ids=["scalar", "vector"])
    @pytest.mark.parametrize("kind", ["cos", "sin", "mixed"])
    def test_sparse_stack_skips_empty_passes(self, kind, vector, monkeypatch):
        stack = [sparse_parity_coeffs(vector, seed, kind) for seed in (1, 2)]
        stack.append(np.zeros_like(stack[0]))  # inactive on the stacked modes
        kv, cfs = stack_active_modes(stack)
        assert kv.shape[0] == len(SPARSE_MODES) and not dense_modes(kv)
        pts = np.random.default_rng(7).uniform(0.0, TWO_PI, (200, 2))
        counting = _CountingNumpy()
        monkeypatch.setattr(fields_module, "np", counting)
        for coeffs, cf in zip(stack, cfs):
            got = trig_sum(pts, kv, cf, coeffs[3, 3].real)
            scale = max(np.sum(np.abs(coeffs)), 1.0)
            np.testing.assert_allclose(got, full_lattice_sum(coeffs, pts), rtol=0, atol=1e-14 * scale)
        # two active arrays, each with one pass of the kind(s) it holds
        want = {"cos": {"cos": 2, "sin": 0}, "sin": {"cos": 0, "sin": 2}, "mixed": {"cos": 2, "sin": 2}}
        assert counting.calls == want[kind]

    @pytest.mark.parametrize("vector", [False, True], ids=["scalar", "vector"])
    def test_dense_gradient_one_cos_and_sin_call_per_axis_table(self, vector, monkeypatch):
        coeffs = random_hermitian(8, vector, seed=11, keep=1.0)
        kv, cf, _ = kernel_args(coeffs)
        pts = np.random.default_rng(8).uniform(0.0, TWO_PI, (50, 2))
        counting = _CountingNumpy()
        monkeypatch.setattr(fields_module, "np", counting)
        got = trig_gradient(pts, kv, cf)
        assert counting.calls == {"cos": 2, "sin": 2}
        scale = np.sum(np.abs(coeffs)) * 8
        want = full_lattice_sum(coeffs, pts, derivative=True)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * scale)

    @pytest.mark.parametrize("K", [1, 4, 8])
    def test_random_divergence_free_matches_full_lattice(self, K):
        f = random_divergence_free(K, seed=K)
        pts = np.random.default_rng(K).uniform(0.0, TWO_PI, (300, 2))
        scale = np.sum(np.abs(f.coeffs))
        got = trig_sum(pts, *f._compiled())
        np.testing.assert_allclose(got, full_lattice_sum(f.coeffs, pts), rtol=0, atol=1e-14 * scale)

    def test_constant_field_is_its_mean(self):
        from helpers import constant_field

        f = constant_field((0.7, -0.2))
        pts = np.random.default_rng(0).uniform(0.0, TWO_PI, (20, 2))
        np.testing.assert_array_equal(trig_sum(pts, *f._compiled()), np.broadcast_to([0.7, -0.2], (20, 2)))


def shared_phase_fields():
    from helpers import constant_field

    basis = SpectralBasis(beta=3.0, K=8, nu=0.1)
    frame = [basis.basis_field(k, kind) for k, kind in (((1, 0), "cos"), ((1, 1), "sin"), ((2, 1), "cos"))]
    return frame + [random_divergence_free(K, seed=K) for K in (1, 4, 8)] + [constant_field((0.7, -0.2))]


class TestSharedPhases:
    """w and 2 Def*Def w are active on the same modes, so one phase pass serves
    both (action._weak_terms): on the stacked modes each field keeps the bits
    of its own evaluation."""

    @pytest.mark.parametrize("i", range(7))
    def test_stacked_field_and_laplacian_match_separate_evaluation(self, i):
        w = shared_phase_fields()[i]
        box = deformation_laplacian(w)
        pts = np.random.default_rng(i).uniform(-10.0, 20.0, (500, 2))
        kv, (cw, cbox) = stack_active_modes([w.coeffs, box.coeffs])
        np.testing.assert_array_equal(kv, w._compiled()[0])
        np.testing.assert_array_equal(trig_sum(pts, kv, cw, w.mean), w.evaluate_at(pts))
        np.testing.assert_array_equal(trig_gradient(pts, kv, cw), w.gradient_at(pts))
        np.testing.assert_array_equal(trig_sum(pts, kv, cbox, box.mean), box.evaluate_at(pts))

    def test_scalar_stack_matches_separate_evaluation(self):
        p = FourierScalarField(4, random_hermitian(4, False, seed=9, keep=0.5))
        q = p * -2.5
        pts = np.random.default_rng(3).uniform(-10.0, 20.0, (300, 2))
        kv, stack = stack_active_modes([p.coeffs, q.coeffs])
        for f, cf in zip((p, q), stack):
            np.testing.assert_array_equal(trig_sum(pts, kv, cf, f.mean), f.evaluate_at(pts))
            np.testing.assert_array_equal(trig_gradient(pts, kv, cf), f.gradient_at(pts))


def boundary_coeffs(K, m, vector, seed):
    """Random Hermitian coefficients active on exactly m half-lattice modes,
    (K, 0) among them, so that max |k_a| = K."""
    rng = np.random.default_rng(seed)
    k1, k2 = _wavegrid(K)
    half = np.argwhere((k1 > 0) | ((k1 == 0) & (k2 > 0))) - K
    others = [k for k in half.tolist() if k != [K, 0]]
    chosen = [[K, 0]] + [others[i] for i in rng.choice(len(others), m - 1, replace=False)]
    shape = (2 * K + 1, 2 * K + 1) + ((2,) if vector else ())
    z = np.zeros(shape, complex)
    for a, b in chosen:
        c = rng.standard_normal(shape[2:]) + 1j * rng.standard_normal(shape[2:])
        z[a + K, b + K], z[K - a, K - b] = c, np.conj(c)
    z[K, K] = rng.standard_normal(shape[2:])
    return z


class TestKernelPath:
    """Which path trig_sum and trig_gradient take, from the mode set alone, and
    the two paths' agreement either side of the switch at m = 2K+1."""

    def test_path_of_each_input(self):
        from nsvlab.action import default_test_bank
        from nsvlab.cli import ExperimentConfig, build_drift
        from nsvlab.flows import solve_navier_stokes, taylor_green

        tg = taylor_green(0.1, 1.0, 4)
        corrupted = build_drift(ExperimentConfig("criticality", M=4, drift="corrupted:0.5"))
        solved = solve_navier_stokes(random_divergence_free(8, seed=5), nu=0.1, T=0.01, M=1)
        sets = {
            "taylor-green velocity": tg._compile()[0],
            "taylor-green pressure": tg._compile_pressure()[0],
            "corrupted:0.5 frames": corrupted._compile()[0],
            "solved K=8 flow": solved._compile()[0],
            "solved K=8 frame": solved.frames[1]._compiled()[0],
        }
        for pair in default_test_bank(SpectralBasis(3.0, 8, 0.1), 1.0):
            sets[f"bank {pair.name}"] = pair.w._compiled()[0]
        assert {name: dense_modes(kv) for name, kv in sets.items()} == {
            name: name.startswith("solved") for name in sets
        }
        assert sets["solved K=8 flow"].shape[0] == 144

    @pytest.mark.parametrize("vector", [False, True], ids=["scalar", "vector"])
    @pytest.mark.parametrize("extra", [0, 1], ids=["m=2K+1", "m=2K+2"])
    @pytest.mark.parametrize("K", [1, 3, 8])
    def test_paths_agree_at_the_switch(self, K, extra, vector):
        coeffs = boundary_coeffs(K, 2 * K + 1 + extra, vector, seed=100 * K + extra)
        kv, cf, mean = kernel_args(coeffs)
        assert kv.shape[0] == 2 * K + 1 + extra and dense_modes(kv) == bool(extra)
        pts = np.random.default_rng(K).uniform(0.0, TWO_PI, (300, 2))
        scale = np.sum(np.abs(coeffs))
        phase, table = _phase_sum(pts, kv, cf), _axis_table_sum(pts, kv, cf)
        np.testing.assert_allclose(table, phase, rtol=0, atol=1e-14 * scale)
        np.testing.assert_array_equal(trig_sum(pts, kv, cf, mean), (table if extra else phase) + mean)
        np.testing.assert_allclose(trig_sum(pts, kv, cf, mean), full_lattice_sum(coeffs, pts), rtol=0, atol=1e-14 * scale)
        ik = (1j * kv).reshape(kv.shape[:1] + (1,) * (cf.ndim - 1) + (2,))
        grad_phase, grad_table = _phase_sum(pts, kv, cf[..., None] * ik), _axis_table_sum(pts, kv, cf[..., None] * ik)
        np.testing.assert_allclose(grad_table, grad_phase, rtol=0, atol=1e-14 * scale * K)
        np.testing.assert_array_equal(trig_gradient(pts, kv, cf), grad_table if extra else grad_phase)


# -- structure and serialization -------------------------------------------------


class TestStructure:
    def test_hermitian_violation_rejected(self):
        c = np.zeros((5, 5, 2), complex)
        c[3, 2] = (1.0, 0.0)  # no conjugate partner
        with pytest.raises(SpectralError):
            FourierVectorField(2, c)

    def test_divergence_flag(self):
        grad = sin_x1_field().gradient_field()
        assert not grad.is_divergence_free()
        assert random_divergence_free(3, seed=1).is_divergence_free()

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_json_round_trip_bit_exact(self, seed):
        f = random_divergence_free(3, seed=seed)
        back = FourierVectorField.from_json(f.to_json())
        assert back.K == f.K
        np.testing.assert_array_equal(back.coeffs, f.coeffs)

    def test_json_schema_fields(self):
        f = random_divergence_free(2, seed=5)
        doc = json.loads(f.to_json())
        assert set(doc) == {"dim", "K", "modes", "mean"}
        assert doc["dim"] == 2
        for m in doc["modes"]:
            assert set(m) == {"k", "re", "im"}

    @settings(max_examples=40, deadline=None)
    @given(
        K=st.integers(0, 3),
        vector=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        keep=st.sampled_from([0.0, 0.5, 1.0]),
        negative_zeros=st.booleans(),
    )
    def test_json_round_trip_bit_exact_scalar_and_vector(self, K, vector, seed, keep, negative_zeros):
        from helpers import with_negative_zeros

        c = random_hermitian(K, vector, seed, keep)
        # zero real or imaginary parts on {k, -k} pairs, so a mode may be partly zero
        rng = np.random.default_rng(seed)
        for part in (c.real, c.imag):
            drop = rng.uniform(size=part.shape) < 0.3
            part[drop | drop[::-1, ::-1]] = 0.0
        if negative_zeros:
            c = with_negative_zeros(c)
        cls = FourierVectorField if vector else FourierScalarField
        f = cls(K, c)
        back = cls.from_json(f.to_json())
        assert type(back) is cls and back.K == K
        assert back.coeffs.tobytes() == f.coeffs.tobytes()

    @pytest.mark.parametrize("vector", [False, True])
    def test_imaginary_mean_part_dropped_so_round_trip_is_bitwise(self, vector):
        # within HERMITIAN_TOL, so accepted; the file keeps only the real part
        K = 2
        c = random_hermitian(K, vector, seed=8, keep=1.0)
        c[K, K] = (0.5 + 1e-13j, -0.25 - 2e-13j) if vector else 0.5 + 1e-13j
        given = c.copy()
        cls = FourierVectorField if vector else FourierScalarField
        f = cls(K, c)
        assert c.tobytes() == given.tobytes()  # the caller's array is untouched
        assert not f.coeffs[K, K].imag.any()
        np.testing.assert_array_equal(f.coeffs[K, K].real, given[K, K].real)
        back = cls.from_json(f.to_json())
        assert back.coeffs.tobytes() == f.coeffs.tobytes()
        assert back.l2_inner(back) == f.l2_inner(f)

    def test_frame_file_bytes_pinned(self):
        c = np.zeros((3, 3, 2), complex)
        c[2, 1] = (-0.0, 0.5 - 0.25j)
        c[0, 1] = (-0.0, 0.5 + 0.25j)
        c[1, 1] = (0.125, -0.0)
        assert FourierVectorField(1, c).to_json() == (
            '{"dim": 2, "K": 1, "modes": [{"k": [-1, 0], "re": [-0.0, 0.5], "im": [0.0, 0.25]}, '
            '{"k": [1, 0], "re": [-0.0, 0.5], "im": [0.0, -0.25]}], "mean": [0.125, -0.0]}'
        )

    def test_scalar_file_bytes_pinned(self):
        p = scalar_from_modes(1, [((1, 0), 0.5 - 0.25j), ((0, 1), -0.0)])
        assert p.to_json() == (
            '{"K": 1, "modes": [{"k": [-1, 0], "re": 0.5, "im": 0.25}, {"k": [0, -1], "re": -0.0, "im": 0.0}, '
            '{"k": [0, 1], "re": -0.0, "im": 0.0}, {"k": [1, 0], "re": 0.5, "im": -0.25}], "mean": 0.0}'
        )

    def test_older_pressure_document_loads_bitwise(self):
        # the former pressure format: no "mean"; the k = 0 mode, when it is
        # not +0.0, sits among the modes
        doc = (
            '{"K": 1, "modes": [{"k": [-1, 0], "re": 0.25, "im": -0.5}, {"k": [0, 0], "re": -0.0, "im": 0.0}, '
            '{"k": [1, 0], "re": 0.25, "im": 0.5}]}'
        )
        want = np.zeros((3, 3), complex)
        want[0, 1], want[1, 1], want[2, 1] = complex(0.25, -0.5), complex(-0.0, 0.0), complex(0.25, 0.5)
        assert FourierScalarField.from_json(doc).coeffs.tobytes() == want.tobytes()

    @pytest.mark.parametrize("source, target", [(FourierScalarField, FourierVectorField), (FourierVectorField, FourierScalarField)])
    def test_document_of_other_value_shape_rejected(self, source, target):
        f = source(2, random_hermitian(2, source is FourierVectorField, seed=4, keep=1.0))
        with pytest.raises(SpectralError, match="value of shape"):
            target.from_json(f.to_json())

    def test_mode_outside_truncation_rejected(self):
        doc = '{"K": 1, "modes": [{"k": [-2, 0], "re": 0.5, "im": 0.0}, {"k": [2, 0], "re": 0.5, "im": 0.0}], "mean": 0.0}'
        with pytest.raises(SpectralError, match="outside"):
            FourierScalarField.from_json(doc)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("vector", [False, True])
    def test_non_finite_coefficient_rejected(self, bad, vector):
        c = random_hermitian(2, vector, seed=1, keep=1.0)
        c[3, 2] = c[1, 2] = bad  # a {k, -k} pair, so only finiteness fails
        cls = FourierVectorField if vector else FourierScalarField
        with pytest.raises(SpectralError, match="finite"):
            cls(2, c)

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_json_holding_non_finite_rejected(self, bad):
        doc = f'{{"K": 1, "modes": [{{"k": [-1, 0], "re": {bad}, "im": 0.0}}, {{"k": [1, 0], "re": {bad}, "im": 0.0}}], "mean": 0.0}}'
        with pytest.raises(SpectralError, match="finite"):
            FourierScalarField.from_json(doc)
        with pytest.raises(SpectralError, match="finite"):
            FourierVectorField.from_json(f'{{"dim": 2, "K": 0, "modes": [], "mean": [{bad}, 0.0]}}')

    def test_operators_keep_the_class(self):
        p = FourierScalarField(2, random_hermitian(2, False, seed=2, keep=1.0))
        u = FourierVectorField(2, random_hermitian(2, True, seed=3, keep=1.0))
        for f in (p, u):
            for g in (f + f, f - f, 2.0 * f, f * 0.5, f.with_truncation(3)):
                assert type(g) is type(f)
            assert f.l2_norm() == pytest.approx(np.sqrt(f.l2_inner(f)), rel=1e-15)
        assert isinstance(p.mean, float) and p.mean.shape == () and u.mean.shape == (2,)

    def test_normalizer_value_small_truncation(self):
        # half lattice at K=1: (0,1),(1,-1),(1,0),(1,1); sum of |k|^(2-2b)/2
        basis = SpectralBasis(beta=3.0, K=1, nu=0.1)
        want = 0.5 * (1.0 + 2.0 ** (-2) + 1.0 + 2.0 ** (-2))
        assert basis.nu0 == pytest.approx(want, rel=1e-15)
