"""Perturbation flows, Gateaux derivatives, pinned competitors, minimality."""

import numpy as np
import pytest

from nsvlab.action import TestPair, action_per_path, default_test_bank, first_variation_direct, running_integral
from nsvlab.estimates import EstimateWithError, ks_critical_value, ks_uniform_statistic
from nsvlab.fields import FourierVectorField, SpectralBasis, random_divergence_free
from nsvlab.flows import steady_flow, taylor_green
from nsvlab.sde import FORWARD, REVERSED, SdeParams, simulate_ito
from nsvlab.variation import (
    DEFAULT_NOISE_FUNCTIONALS,
    PinnedPerturbation,
    _pressure_along,
    first_variation_fd,
    flow_points,
    flow_psi,
    mean_acceleration_check,
    minimality_check,
    pinned_family,
    sample_pinned_perturbation,
)

NU, T = 0.1, 1.0


@pytest.fixture(scope="module")
def basis():
    return SpectralBasis(beta=3.0, K=8, nu=NU)


@pytest.fixture(scope="module")
def bank(basis):
    return default_test_bank(basis, T)


@pytest.fixture(scope="module")
def tg_flow():
    return taylor_green(NU, T, 300)


@pytest.fixture(scope="module")
def ens_forward(tg_flow):
    params = SdeParams(nu=NU, T=T, drift_source=tg_flow, orientation=FORWARD)
    return simulate_ito(params, N=1500, M=300, seed=17)


@pytest.fixture(scope="module")
def ens_reversed(tg_flow):
    params = SdeParams(nu=NU, T=T, drift_source=tg_flow, orientation=REVERSED)
    return simulate_ito(params, N=5000, M=300, seed=19)


class TestPerturbationFlows:
    def test_zero_parameter_is_identity_exact(self, bank):
        pts = np.random.default_rng(0).uniform(0, 2 * np.pi, (50, 2))
        out = flow_psi(bank[0], 0.0, 0.4, pts)
        np.testing.assert_array_equal(out, pts)

    def test_constant_field_translates(self):
        from helpers import constant_field

        pair = TestPair(
            "const",
            constant_field((0.7, -0.2)),
            lambda t: np.sin(np.pi * t / T),
            lambda t: np.pi / T * np.cos(np.pi * t / T),
            T,
        )
        pts = np.array([[1.0, 2.0], [4.0, 5.0]])
        eps, t = 0.3, 0.6
        want = pts + eps * np.sin(np.pi * t / T) * np.array([0.7, -0.2])
        np.testing.assert_allclose(flow_psi(pair, eps, t, pts), want, atol=1e-12)

    def test_volume_preservation_jacobian(self, bank):
        xs = np.linspace(0, 2 * np.pi, 32, endpoint=False)
        pts = np.stack(np.meshgrid(xs, xs, indexing="ij"), -1).reshape(-1, 2)
        h = 1e-5
        jac = np.empty((pts.shape[0], 2, 2))
        for d in range(2):
            e = np.zeros(2)
            e[d] = h
            plus = flow_psi(bank[2], 0.4, 0.5, pts + e)
            minus = flow_psi(bank[2], 0.4, 0.5, pts - e)
            jac[:, :, d] = (plus - minus) / (2 * h)
        det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
        assert np.max(np.abs(det - 1)) <= 1e-8

    def test_pushforward_keeps_uniform_marginals(self, ens_reversed, bank):
        j = ens_reversed.step_index(0.5 * T)
        pos = ens_reversed.wrapped_at(j)
        pushed = np.mod(flow_psi(bank[2], 0.35, 0.5 * T, pos), 2 * np.pi)
        cap = ks_critical_value(pos.shape[0], significance=1e-3)
        for d in range(2):
            assert ks_uniform_statistic(pos[:, d]) <= cap
            assert ks_uniform_statistic(pushed[:, d]) <= cap


def rk4_reference(w, tau, points, n_steps):
    """Classical RK4 for dx/ds = w(x), the reference for flow_points."""
    x = np.asarray(points, dtype=float)
    h = (np.broadcast_to(tau, x.shape[:1]) / n_steps)[:, None]
    for _ in range(n_steps):
        k1 = w.evaluate_at(x)
        k2 = w.evaluate_at(x + 0.5 * h * k1)
        k3 = w.evaluate_at(x + 0.5 * h * k2)
        k4 = w.evaluate_at(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


def shear_oracle_inputs(seed=11, n=2000):
    rng = np.random.default_rng(seed)
    return rng.uniform(0, 2 * np.pi, (n, 2)), rng.uniform(-0.2, 0.2, n)


def single_mode_with_mean_along_k(K=2):
    # cos(x1) e2 is a frame field; a mean along k = (1, 0) makes k.x drift
    coeffs = np.zeros((2 * K + 1, 2 * K + 1, 2), complex)
    coeffs[K + 1, K] = coeffs[K - 1, K] = (0.0, 0.5)
    coeffs[K, K] = (0.3, 0.1)
    return FourierVectorField(K, coeffs)


class TestShearFlow:
    """flow_points takes x + tau w(x) exactly when w is a shear field."""

    @pytest.mark.parametrize("n_steps", [2, 4])
    def test_closed_form_matches_rk4(self, bank, n_steps):
        from helpers import constant_field

        pts, tau = shear_oracle_inputs()
        fields = [pair.w for pair in bank] + [constant_field((0.7, -0.2))]
        for w in fields:
            assert w.is_shear()
            want = rk4_reference(w, tau, pts, n_steps)
            np.testing.assert_allclose(flow_points(w, tau, pts, n_steps), want, rtol=0, atol=1e-13)

    @pytest.mark.parametrize(
        "w", [random_divergence_free(4, 5), single_mode_with_mean_along_k()], ids=["random", "mean_along_k"]
    )
    def test_non_shear_field_takes_rk4(self, w):
        pts, tau = shear_oracle_inputs()
        assert not w.is_shear()
        out = flow_points(w, tau, pts, 4)
        np.testing.assert_array_equal(out, rk4_reference(w, tau, pts, 4))
        assert np.max(np.abs(out - (pts + tau[:, None] * w.evaluate_at(pts)))) > 1e-6

    @pytest.mark.parametrize("shear", [True, False])
    def test_non_finite_horizon_raises(self, bank, shear):
        w = bank[0].w if shear else random_divergence_free(4, 5)
        with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError):
            flow_points(w, np.array([0.1, np.inf]), np.ones((2, 2)))


def old_flow_points(w, tau, points, n_steps):
    x = np.asarray(points, dtype=float)
    tau = np.broadcast_to(np.asarray(tau, dtype=float), x.shape[:1])
    if w.is_shear():
        return x + tau[:, None] * w.evaluate_at(x)
    return rk4_reference(w, tau, x, n_steps)


def old_fd(ens, pair, nu, eps_list=(0.1, 0.05, 0.025), fd_h=1e-3, n_flow_steps=4):
    """The reference first variation: the stencil built and the field
    evaluated on it afresh for every +-eps."""

    def perturbed(eps):
        N, Mp1, dim = ens.unwrapped.shape
        pts = ens.unwrapped.reshape(-1, dim)
        t = np.tile(ens.times, N)
        tau = eps * pair.alpha(t)
        v = ens.drift.reshape(-1, dim)
        speed = np.linalg.norm(v, axis=1)
        unit = np.where(speed[:, None] > 0, v / np.maximum(speed, 1e-300)[:, None], 0.0)
        stencil = np.concatenate(
            [pts, pts + fd_h * unit, pts - fd_h * unit, pts + np.array([fd_h, 0.0]),
             pts - np.array([fd_h, 0.0]), pts + np.array([0.0, fd_h]), pts - np.array([0.0, fd_h])]
        )
        flowed = old_flow_points(pair.w, np.tile(tau, 7), stencil, n_flow_steps)
        base, dp, dm, e1p, e1m, e2p, e2m = np.split(flowed, 7)
        time_part = (eps * pair.dalpha(t))[:, None] * pair.w.evaluate_at(base)
        transport_part = speed[:, None] * (dp - dm) / (2.0 * fd_h)
        laplace_part = nu * (e1p + e1m + e2p + e2m - 4.0 * base) / fd_h**2
        return action_per_path((time_part + transport_part + laplace_part).reshape(N, Mp1, dim), ens.dt)

    eps_list = sorted(eps_list, reverse=True)
    central = {eps: (perturbed(+eps) - perturbed(-eps)) / (2.0 * eps) for eps in eps_list}
    extrapolants = [(4.0 * central[b] - central[a]) / 3.0 for a, b in zip(eps_list, eps_list[1:])]
    return EstimateWithError.from_samples(extrapolants[-1])


class TestFdBank:
    """first_variation_fd builds the stencil once per call and, for a shear
    field, w on it once; every pair's estimate keeps the bits of the
    reference that rebuilds both for each +-eps."""

    @pytest.fixture(scope="class")
    def small_tg(self, tg_flow):
        params = SdeParams(nu=NU, T=T, drift_source=tg_flow, orientation=FORWARD)
        return simulate_ito(params, N=150, M=60, seed=21)

    def test_every_bank_field_is_shear(self, bank):
        # so the CLI's FD estimates take the closed-form flow, whatever FLOW_STEPS is
        assert all(pair.w.is_shear() for pair in bank)

    def test_default_bank_matches_per_pair_loop_bitwise(self, small_tg, bank):
        for pair in bank:
            assert first_variation_fd(small_tg, pair, NU) == old_fd(small_tg, pair, NU), pair.name

    def test_non_shear_bank_matches_per_pair_loop_bitwise(self, tg_flow, bank):
        params = SdeParams(nu=NU, T=T, drift_source=tg_flow, orientation=FORWARD)
        ens = simulate_ito(params, N=40, M=20, seed=22)
        w = random_divergence_free(2, 5)
        assert not w.is_shear() and w._compiled()[0].shape[0] > 1
        for i, p in enumerate(bank[:2]):
            pair = TestPair(f"rnd{i}", w, p.alpha, p.dalpha, T)
            assert first_variation_fd(ens, pair, NU) == old_fd(ens, pair, NU), pair.name

    @pytest.mark.parametrize("shear", [True, False])
    def test_non_finite_horizon_raises(self, small_tg, bank, shear):
        w = bank[0].w if shear else random_divergence_free(2, 5)
        blowup = TestPair("inf", w, lambda t: np.where((t > 0) & (t < T), np.inf, 0.0), bank[0].dalpha, T)
        with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError, match="non-finite"):
            first_variation_fd(small_tg, blowup, NU)


class TestFirstVariation:
    def test_zero_drift_gives_exact_zero(self, bank):
        ens = simulate_ito(SdeParams(nu=NU, T=T), N=100, M=40, seed=2)
        for pair in bank[:2]:
            est = first_variation_direct(ens, pair, NU)
            assert est.value == 0.0 and est.std_error == 0.0

    def test_critical_ensemble_within_three_se(self, ens_forward, bank):
        for pair in bank:
            est = first_variation_direct(ens_forward, pair, NU)
            assert abs(est.value) <= 3 * est.std_error, pair.name

    def test_fd_agrees_with_direct(self, ens_forward, bank):
        for pair in (bank[2], bank[5]):
            fd = first_variation_fd(ens_forward, pair, NU)
            dv = first_variation_direct(ens_forward, pair, NU)
            assert abs(fd.value - dv.value) <= 3 * fd.combined_se(dv), pair.name

    def test_fd_sign_flips_with_field(self, ens_forward, bank):
        pair = bank[2]
        flipped = TestPair("neg", pair.w * -1.0, pair.alpha, pair.dalpha, T)
        a = first_variation_fd(ens_forward, pair, NU)
        b = first_variation_fd(ens_forward, flipped, NU)
        assert a.value == pytest.approx(-b.value, abs=3 * a.combined_se(b))

    def test_fd_zero_drift_small(self, bank):
        ens = simulate_ito(SdeParams(nu=NU, T=T), N=400, M=60, seed=4)
        est = first_variation_fd(ens, bank[0], NU)
        assert abs(est.value) <= max(3 * est.std_error, 5e-4)

    def test_corrupted_drift_detected(self, bank, tg_flow):
        from nsvlab.cli import _corruption_field
        from nsvlab.flows import TimeDependentVelocity

        bump = _corruption_field(2, 0.5)
        frames = [f + bump for f in tg_flow.frames]
        corrupted = TimeDependentVelocity(tg_flow.times, frames, [], NU)
        params = SdeParams(nu=NU, T=T, drift_source=corrupted, orientation=FORWARD)
        ens = simulate_ito(params, N=4000, M=300, seed=23)
        worst = max(
            abs(first_variation_direct(ens, pair, NU).value)
            / first_variation_direct(ens, pair, NU).std_error
            for pair in bank
        )
        assert worst > 5.0


# -- per-member references: a rank-one member's full (N, M+1, dim) path, and the
# per-member folds that minimality_check takes from per-functional sums


def competitor_path(member):
    """g* = g + beta a."""
    return member.base.unwrapped + member.beta[:, :, None] * member.direction


def competitor_action(member):
    """Per-path action of g*, whose drift is the base drift plus v."""
    return action_per_path(member.base.drift + member.v, member.base.dt)


def offset_energy(member):
    """Per-path int |v|^2 dt, the expected action gap times two."""
    return np.trapezoid(sum((member.c * a) ** 2 for a in member.direction), dx=member.base.dt, axis=1)


def poincare_ratios(member):
    """Per path: int |g*-g|^2 dt / ((T/pi)^2 int |D_t g* - D_t g|^2 dt)."""
    horizon = member.base.dt * member.base.n_steps
    num = np.trapezoid(sum((member.beta * a) ** 2 for a in member.direction), dx=member.base.dt, axis=1)
    den = (horizon / np.pi) ** 2 * offset_energy(member)
    return num / np.where(den > 0, den, 1.0)


class TestPinnedPerturbation:
    def test_zero_functional_gives_identity(self, ens_reversed):
        member = sample_pinned_perturbation(ens_reversed, lambda w: 0.0 * w[:, 0], (1.0, 0.0))
        np.testing.assert_array_equal(competitor_path(member), ens_reversed.unwrapped)
        assert member.endpoint_error() == 0.0

    def test_endpoints_pinned(self, ens_reversed):
        member = sample_pinned_perturbation(ens_reversed, lambda w: np.cos(w[:, 0]), (0.5, 0.3))
        assert member.endpoint_error() <= 1e-10
        np.testing.assert_array_equal(competitor_path(member)[:, 0], ens_reversed.unwrapped[:, 0])

    def test_velocity_offset_is_adapted(self, ens_reversed):
        # zeroing the noise after step j must not change the offset before j
        member = sample_pinned_perturbation(ens_reversed, lambda w: np.tanh(w[:, 0]), (0.4, 0.0))
        truncated = type(ens_reversed)(
            kind=ens_reversed.kind,
            nu=ens_reversed.nu,
            dt=ens_reversed.dt,
            seed=ens_reversed.seed,
            unwrapped=ens_reversed.unwrapped,
            drift=ens_reversed.drift,
            dW=np.concatenate(
                [ens_reversed.dW[:, :150], np.zeros_like(ens_reversed.dW[:, 150:])], axis=1
            ),
            meta=ens_reversed.meta,
        )
        member2 = sample_pinned_perturbation(truncated, lambda w: np.tanh(w[:, 0]), (0.4, 0.0))
        np.testing.assert_array_equal(member.v[:, :151], member2.v[:, :151])

    def test_action_gap_is_half_offset_energy(self, ens_reversed):
        member = sample_pinned_perturbation(ens_reversed, lambda w: np.cos(w[:, 0]), (0.5, 0.2))
        base_action = 0.5 * np.trapezoid(
            np.sum(ens_reversed.drift**2, axis=2), dx=ens_reversed.dt, axis=1
        )
        gap = competitor_action(member) - base_action - 0.5 * offset_energy(member)
        est = EstimateWithError.from_samples(gap)
        assert est.within(0.0, 3)

    def test_poincare_equality_case(self, ens_reversed, tg_flow):
        t = ens_reversed.times
        shape = ens_reversed.unwrapped.shape[:2]
        c = np.broadcast_to((np.pi / T) * np.cos(np.pi * t / T), shape).copy()
        beta = np.broadcast_to(np.sin(np.pi * t / T), shape).copy()
        member = PinnedPerturbation(ens_reversed, c, beta, (0.3, 0.0))
        np.testing.assert_allclose(poincare_ratios(member), 1.0, atol=1e-6)
        rep = minimality_check(ens_reversed, [("sine", member)], tg_flow)
        assert rep["members"][0]["poincare_max"] == pytest.approx(1.0, abs=1e-6)

    def test_poincare_below_one_for_family(self, ens_reversed):
        for _, member in pinned_family(ens_reversed, 6, seed=3):
            assert np.max(poincare_ratios(member)) <= 1.0 + 1e-6


def full_offset_reference(base, alpha_fn, direction):
    """(v, displacement) as full (N, M+1, dim) arrays, built the unfactored way."""
    N, Mp1, _ = base.unwrapped.shape
    a = np.asarray(direction, dtype=float)
    horizon = base.dt * base.n_steps
    t = base.times
    wpath = np.concatenate([np.zeros((N, 1, base.dW.shape[2])), np.cumsum(base.dW, axis=1)], axis=1)
    avals = alpha_fn(wpath.reshape(-1, wpath.shape[2])).reshape(N, Mp1)
    integral = running_integral(avals, base.dt)
    beta = np.sin(np.pi * t / horizon)[None, :] * integral
    c = (np.pi / horizon) * np.cos(np.pi * t / horizon)[None, :] * integral + np.sin(np.pi * t / horizon)[None, :] * avals
    return c[:, :, None] * a, beta[:, :, None] * a


def pressure_along_reference(positions, times, u):
    """One ensemble at a time, one pressure_at call per grid time."""
    vals = np.empty(positions.shape[:2])
    for j in range(times.size):
        vals[:, j] = u.pressure_at(times[-1] - times[j], positions[:, j])
    return np.trapezoid(vals, dx=times[1] - times[0], axis=1)


def assert_estimate_close(got, want, rel=1e-12):
    """Value and standard error within rel relative; a value near zero (an
    action gap) is held to rel of its standard error."""
    assert got.n == want.n
    assert got.value == pytest.approx(want.value, rel=rel, abs=rel * want.std_error)
    assert got.std_error == pytest.approx(want.std_error, rel=rel)


class TestRankOneMembers:
    @pytest.mark.parametrize("name, fn", DEFAULT_NOISE_FUNCTIONALS, ids=[n for n, _ in DEFAULT_NOISE_FUNCTIONALS])
    def test_offsets_match_full_arrays_bitwise(self, ens_reversed, name, fn):
        a = (0.45, -0.3)
        member = sample_pinned_perturbation(ens_reversed, fn, a)
        v, disp = full_offset_reference(ens_reversed, fn, a)
        assert member.c.shape == member.beta.shape == ens_reversed.unwrapped.shape[:2]
        np.testing.assert_array_equal(member.v, v)
        np.testing.assert_array_equal(member.beta[:, :, None] * member.direction, disp)
        # the per-member folds agree with sums over the full arrays' last axis
        dt = ens_reversed.dt
        energy = np.trapezoid(np.sum(v**2, axis=2), dx=dt, axis=1)
        np.testing.assert_array_equal(offset_energy(member), energy)
        num = np.trapezoid(np.sum(disp**2, axis=2), dx=dt, axis=1)
        den = (dt * ens_reversed.n_steps / np.pi) ** 2 * energy
        np.testing.assert_array_equal(poincare_ratios(member), num / np.where(den > 0, den, 1.0))
        assert member.endpoint_error() == float(np.max(np.abs(disp[:, -1])))

    def test_members_of_one_functional_share_scalars(self, ens_reversed):
        members = [m for _, m in pinned_family(ens_reversed, 9, seed=7)]
        for i in range(6):
            assert members[i].c is members[i + 3].c
            assert members[i].beta is members[i + 3].beta
            assert not np.array_equal(members[i].direction, members[i + 3].direction)

    def test_folded_pressure_matches_per_row_reference(self, ens_reversed, tg_flow):
        members = [m for _, m in pinned_family(ens_reversed, 7, seed=2)]
        got = _pressure_along(ens_reversed, members, tg_flow)
        paths = [ens_reversed.unwrapped] + [competitor_path(m) for m in members]
        assert got.shape == (len(paths), ens_reversed.n_paths)
        for row, path in zip(got, paths):
            want = pressure_along_reference(path, ens_reversed.times, tg_flow)
            np.testing.assert_allclose(row, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))

    def test_minimality_rows_match_per_member_reference(self, ens_reversed, tg_flow):
        # the rows come from per-functional sums, summed in another order than
        # the per-member folds: 1e-12 relative, in value and standard error
        members = pinned_family(ens_reversed, 6, seed=5)
        rep = minimality_check(ens_reversed, members, tg_flow)
        S_g = action_per_path(ens_reversed.drift, ens_reversed.dt)
        B_g = S_g - pressure_along_reference(ens_reversed.unwrapped, ens_reversed.times, tg_flow)
        assert_estimate_close(rep["B_g"], EstimateWithError.from_samples(B_g))
        for (name, member), row in zip(members, rep["members"]):
            S_star = competitor_action(member)
            B_star = S_star - pressure_along_reference(competitor_path(member), ens_reversed.times, tg_flow)
            half_offset = 0.5 * offset_energy(member)
            assert row["member"] == name
            assert_estimate_close(row["S_star"], EstimateWithError.from_samples(S_star))
            assert_estimate_close(row["B_star"], EstimateWithError.from_samples(B_star))
            assert_estimate_close(row["gap"], EstimateWithError.from_samples(S_star - S_g - half_offset))
            assert_estimate_close(row["half_offset_energy"], EstimateWithError.from_samples(half_offset))
            assert row["poincare_max"] == pytest.approx(float(np.max(poincare_ratios(member))), rel=1e-12)
            assert row["endpoint_error"] == member.endpoint_error()


class TestMinimality:
    def test_reversed_taylor_green_minimizes(self, ens_reversed, tg_flow):
        members = pinned_family(ens_reversed, 6, seed=5)
        rep = minimality_check(ens_reversed, members, tg_flow)
        assert rep["hessian_bound"] == pytest.approx(1.0, abs=1e-10)
        assert rep["hypothesis_ok"]
        assert rep["all_ok"]

    def test_identical_member_gives_equality(self, ens_reversed, tg_flow):
        zero = np.zeros(ens_reversed.unwrapped.shape[:2])
        member = PinnedPerturbation(ens_reversed, zero, zero, (1.0, 0.0))
        rep = minimality_check(ens_reversed, [("same", member)], tg_flow)
        row = rep["members"][0]
        assert row["S_star"].value == rep["S_g"].value
        assert row["B_star"].value == rep["B_g"].value
        assert row["gap"].value == 0.0

    def test_requires_reversed_orientation(self, ens_forward, tg_flow):
        with pytest.raises(ValueError):
            minimality_check(ens_forward, [], tg_flow)


class TestMeanAcceleration:
    def test_taylor_green_residual_within_noise(self, ens_reversed, tg_flow):
        out = mean_acceleration_check(ens_reversed, tg_flow)
        coarse = simulate_ito(
            SdeParams(nu=NU, T=T, drift_source=tg_flow, orientation=REVERSED),
            N=5000,
            M=150,
            seed=19,
        )
        out_coarse = mean_acceleration_check(coarse, tg_flow)
        slope = abs(out_coarse["aggregate"].value - out["aggregate"].value) / (
            coarse.dt - ens_reversed.dt
        )
        for b in out["bins"]:
            assert b["norm"] <= 3 * b["se_norm"] + slope * ens_reversed.dt + 1e-12

    def test_martingale_variance_matches_gradient_norm(self, ens_reversed, tg_flow):
        out = mean_acceleration_check(ens_reversed, tg_flow)
        est = out["variance_match"]
        # O(dt^2) per-step bias allowance on top of the statistical gate
        assert abs(est.value) <= 3 * est.std_error + 10 * ens_reversed.dt**2

    def test_constant_velocity_constant_pressure_all_zero(self):
        from helpers import constant_field

        drift = steady_flow(constant_field((0.8, -0.1)), T, 2, NU)
        params = SdeParams(nu=NU, T=T, drift_source=drift, orientation=REVERSED)
        ens = simulate_ito(params, N=200, M=100, seed=29)
        out = mean_acceleration_check(ens, drift)
        assert out["aggregate"].value == 0.0
        assert all(b["norm"] == 0.0 for b in out["bins"])


class TestClosingDerivative:
    def test_pinned_direction_derivative_vanishes(self, ens_reversed):
        # dS(g^eps)/d eps at 0 by central difference; exact for this quadratic
        member = sample_pinned_perturbation(ens_reversed, lambda w: np.sin(w[:, 0] + w[:, 1]), (0.6, 0.1))
        eps = 0.05
        base = ens_reversed.drift
        sp = 0.5 * np.trapezoid(np.sum((base + eps * member.v) ** 2, axis=2), dx=ens_reversed.dt, axis=1)
        sm = 0.5 * np.trapezoid(np.sum((base - eps * member.v) ** 2, axis=2), dx=ens_reversed.dt, axis=1)
        est = EstimateWithError.from_samples((sp - sm) / (2 * eps))
        assert est.within(0.0, 3)
