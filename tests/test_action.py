"""Kinetic action, occupation samples, and the two residual routes."""

import importlib

import numpy as np
import pytest

from nsvlab.action import (
    TestPair,
    _speed_squared,
    _weak_terms,
    action,
    action_prefixes,
    default_test_bank,
    dpm_residual,
    first_variation_direct,
    occupation_measure,
    running_integral,
    weak_ns_residual,
)
from nsvlab.estimates import EstimateWithError
from nsvlab.fields import SpectralBasis, deformation_laplacian, random_divergence_free
from nsvlab.flows import steady_flow, taylor_green
from nsvlab.sde import FORWARD, SdeParams, brownian_bridge, simulate_ito

NU, T = 0.1, 1.0

# the package namespace binds the name action to the function
action_module = importlib.import_module("nsvlab.action")


@pytest.fixture(scope="module")
def basis():
    return SpectralBasis(beta=3.0, K=8, nu=NU)


@pytest.fixture(scope="module")
def bank(basis):
    return default_test_bank(basis, T)


@pytest.fixture(scope="module")
def tg_forward():
    tg = taylor_green(NU, T, 400)
    params = SdeParams(nu=NU, T=T, drift_source=tg, orientation=FORWARD)
    return simulate_ito(params, N=6000, M=400, seed=42)


def constant_drift_ensemble():
    from helpers import constant_field

    drift = steady_flow(constant_field((1.0, 0.0)), T, 2, NU)
    params = SdeParams(nu=NU, T=T, drift_source=drift)
    return simulate_ito(params, N=50, M=100, seed=3)


class TestAction:
    def test_constant_drift_exact_value(self):
        ens = constant_drift_ensemble()
        est = action(ens)
        assert est.value == pytest.approx(0.5, abs=1e-14)
        assert est.std_error <= 1e-14

    def test_taylor_green_closed_form(self, tg_forward):
        est = action(tg_forward)
        exact = (1 - np.exp(-4 * NU * T)) / (16 * NU)
        # Euler-Maruyama bias is O(dt); allow it alongside the 3 SE gate
        assert abs(est.value - exact) <= 3 * est.std_error + 0.5 * tg_forward.dt

    def test_invariant_under_path_relabelling(self, tg_forward):
        perm = np.random.default_rng(0).permutation(tg_forward.n_paths)
        shuffled = type(tg_forward)(
            kind=tg_forward.kind,
            nu=tg_forward.nu,
            dt=tg_forward.dt,
            seed=tg_forward.seed,
            unwrapped=tg_forward.unwrapped[perm],
            drift=tg_forward.drift[perm],
            dW=tg_forward.dW[perm],
        )
        assert action(shuffled).value == pytest.approx(action(tg_forward).value, rel=1e-15)

    def test_full_prefix_matches_action(self, tg_forward):
        whole = action(tg_forward)
        (prefix,) = action_prefixes(tg_forward, [tg_forward.n_steps])
        assert prefix.value == pytest.approx(whole.value, rel=1e-12)
        assert prefix.std_error == pytest.approx(whole.std_error, rel=1e-12)

    def test_prefixes_match_sum_of_squares_bitwise(self, tg_forward):
        cum = 0.5 * running_integral(np.sum(tg_forward.drift**2, axis=2), tg_forward.dt)
        steps = [50, 400]
        want = [EstimateWithError.from_samples(cum[:, j]) for j in steps]
        assert action_prefixes(tg_forward, steps) == want

    @pytest.mark.parametrize("block", [7, 64])
    @pytest.mark.parametrize("which", ["bridge", "taylor-green"])
    def test_prefixes_match_one_running_integral_bitwise(self, monkeypatch, tg_forward, block, which):
        """The time-blocked fold keeps exactly the columns of one running
        integral over the whole ensemble, for indices at and around a block
        edge, the ends, and unsorted and repeated requests."""
        monkeypatch.setattr(action_module, "time_block", lambda n: block)
        ens = tg_forward if which == "taylor-green" else brownian_bridge(0.0, 0.0, N=300, M=2040, cutoff=2.0**-8, seed=12)
        M, B = ens.n_steps, block
        cum = 0.5 * running_integral(_speed_squared(ens.drift), ens.dt)
        for steps in ([0, 1, B - 1, B, B + 1, M], [M, B + 1, 0, B, B, 1, M - 1], [B], [0]):
            want = [EstimateWithError.from_samples(cum[:, j]) for j in steps]
            got = action_prefixes(ens, steps)
            assert [(e.value.hex(), e.std_error.hex(), e.n) for e in got] == [
                (e.value.hex(), e.std_error.hex(), e.n) for e in want
            ]

    def test_prefix_index_past_the_horizon_rejected(self, tg_forward):
        with pytest.raises(IndexError):
            action_prefixes(tg_forward, [tg_forward.n_steps + 1])

    def test_bridge_increments_near_half_log_two(self):
        M = 2**11 - 2**3  # dyadic grid holding the 2^-3..2^-5 cutoffs
        ens = brownian_bridge(0.0, 0.0, N=4000, M=M, cutoff=2.0**-8, seed=11)
        steps = [round((1 - 2.0**-j) / ens.dt) for j in (3, 4, 5)]
        acts = action_prefixes(ens, steps)
        for (j, a), b in zip(zip((3, 4), acts), acts[1:]):
            eps = 2.0**-j
            exact_inc = 0.5 * (np.log(2) - 0.5 * eps)
            assert abs((b.value - a.value) - exact_inc) <= 3 * a.combined_se(b)


class TestOccupation:
    def test_sample_count_includes_t_zero(self):
        params = SdeParams(nu=NU, T=T)
        ens = simulate_ito(params, N=1, M=4, seed=0)
        samples = occupation_measure(ens, thin=1)
        assert samples.t.size == 5
        assert samples.t.shape == (5,) and samples.x.shape == samples.v.shape == (5, 2)

    def test_normalization(self, tg_forward):
        samples = occupation_measure(tg_forward, thin=4)
        ones = np.ones(samples.t.size)
        assert np.mean(ones) == 1.0
        assert samples.x.min() >= 0 and samples.x.max() < 2 * np.pi

    def test_mean_speed_consistent_with_action(self, tg_forward):
        samples = occupation_measure(tg_forward, thin=1)
        v2 = np.sum(samples.v**2, axis=1).reshape(samples.n_paths, samples.n_times)
        per_path = np.trapezoid(v2, dx=tg_forward.dt, axis=1)
        mean_v2 = EstimateWithError.from_samples(per_path)
        act = action(tg_forward)
        # int |v|^2 dt == 2 S per path by definition
        assert mean_v2.value == pytest.approx(2 * act.value, rel=1e-12)


class TestDpmResidual:
    def test_zero_drift_gives_exact_zero(self, bank):
        params = SdeParams(nu=NU, T=T)
        ens = simulate_ito(params, N=200, M=50, seed=5)
        samples = occupation_measure(ens, thin=1)
        for pair in bank:
            est = dpm_residual(samples, pair, NU)
            assert est.value == 0.0 and est.std_error == 0.0

    def test_critical_ensemble_residuals_within_three_se(self, tg_forward, bank):
        samples = occupation_measure(tg_forward, thin=2)
        for pair in bank:
            est = dpm_residual(samples, pair, NU)
            assert abs(est.value) <= 3 * est.std_error, pair.name

    def test_linear_in_test_field_and_profile(self, tg_forward, basis, bank):
        samples = occupation_measure(tg_forward, thin=8)
        w1 = basis.basis_field((1, 0), "cos")
        w2 = basis.basis_field((2, 1), "sin")
        a1 = bank[0].alpha, bank[0].dalpha
        combo = TestPair("combo", w1 * 2.0 + w2 * (-0.5), a1[0], a1[1], T)
        p1 = TestPair("p1", w1, a1[0], a1[1], T)
        p2 = TestPair("p2", w2, a1[0], a1[1], T)
        lhs = dpm_residual(samples, combo, NU).value
        rhs = 2.0 * dpm_residual(samples, p1, NU).value - 0.5 * dpm_residual(samples, p2, NU).value
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)
        # profile linearity: alpha and 2*alpha
        doubled = TestPair(
            "dbl", w1, lambda t: 2 * a1[0](t), lambda t: 2 * a1[1](t), T
        )
        assert dpm_residual(samples, doubled, NU).value == pytest.approx(
            2 * dpm_residual(samples, p1, NU).value, rel=1e-10, abs=1e-12
        )

    def test_matches_deterministic_quadrature(self, tg_forward, bank):
        tg = taylor_green(NU, T, 2000)
        samples = occupation_measure(tg_forward, thin=1)
        for pair in bank[:2]:
            mc = dpm_residual(samples, pair, NU)
            det = weak_ns_residual(tg, pair)
            assert abs(mc.value - det) <= 3 * mc.std_error + 2.0 * tg_forward.dt

    def test_agrees_with_pathwise_estimator_at_stride_one(self, tg_forward, bank):
        samples = occupation_measure(tg_forward, thin=1)
        pair = bank[3]
        a = dpm_residual(samples, pair, NU)
        b = first_variation_direct(tg_forward, pair, NU)
        assert a.value == pytest.approx(b.value, rel=1e-12)


def old_weak_terms(w, x, v):
    """The weak terms as they were formed before the mode-by-mode contraction:
    field values and the Jacobian at each sample, then paired with v."""
    box = deformation_laplacian(w)
    return (
        np.sum(v * w.evaluate_at(x), axis=1),
        np.einsum("na,nab,nb->n", v, w.gradient_at(x), v),
        np.sum(v * box.evaluate_at(x), axis=1),
    )


def old_weak_integrand(pair, nu, t, x, v):
    """The per-pair integrand as it was before the bank forms: three separate
    evaluations of the pair's field."""
    a, b, c = old_weak_terms(pair.w, x, v)
    return pair.dalpha(t) * a + pair.alpha(t) * b - nu * pair.alpha(t) * c


def weak_term_fields():
    from helpers import constant_field

    basis = SpectralBasis(beta=3.0, K=8, nu=NU)
    bank_fields = [basis.basis_field(k, kind) for k, kind in (((1, 0), "cos"), ((1, 1), "sin"), ((2, 1), "cos"))]
    return {
        **{f"bank{i}": w for i, w in enumerate(bank_fields)},
        **{f"random_K{K}": random_divergence_free(K, seed=K) for K in (1, 4, 8)},
        "constant": constant_field((0.7, -0.2)),
        "with_mean": random_divergence_free(4, seed=2) + constant_field((0.3, -1.1), K=4),
    }


class TestWeakTerms:
    """The mode-by-mode contraction agrees with the Jacobian route to 1e-14
    relative to each term's largest magnitude."""

    @pytest.mark.parametrize("name", list(weak_term_fields()))
    def test_matches_jacobian_reference(self, name):
        w = weak_term_fields()[name]
        rng = np.random.default_rng(len(name))
        x = rng.uniform(-10.0, 20.0, (3000, 2))
        v = 2.0 * rng.standard_normal((3000, 2))
        for got, want in zip(_weak_terms(w, x, v), old_weak_terms(w, x, v)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * np.max(np.abs(want)))

    def test_constant_field_terms_exact(self):
        w = weak_term_fields()["constant"]
        v = np.random.default_rng(0).standard_normal((50, 2))
        a, b, c = _weak_terms(w, np.zeros((50, 2)), v)
        np.testing.assert_array_equal(a, v @ np.array([0.7, -0.2]))
        assert not b.any() and not c.any()


def old_dpm_loop(samples, bank, nu):
    out = []
    for pair in bank:
        vals = old_weak_integrand(pair, nu, samples.t, samples.x, samples.v)
        vals = vals.reshape(samples.n_paths, samples.n_times)
        span = samples.t[samples.n_times - 1] - samples.t[0]
        per_path = np.trapezoid(vals, dx=span / (samples.n_times - 1), axis=1) * pair.T / span
        out.append(EstimateWithError.from_samples(per_path))
    return out


def old_direct_loop(ens, bank, nu):
    out = []
    for pair in bank:
        pts = ens.unwrapped.reshape(-1, ens.dim)
        v = ens.drift.reshape(-1, ens.dim)
        t = np.tile(ens.times, ens.n_paths)
        integrand = old_weak_integrand(pair, nu, t, pts, v).reshape(ens.n_paths, ens.n_steps + 1)
        out.append(EstimateWithError.from_samples(np.trapezoid(integrand, dx=ens.dt, axis=1)))
    return out


def random_field_bank(bank):
    """One non-shear field with many modes, shared by the two sine profiles."""
    w = random_divergence_free(4, 5)
    return [TestPair(f"rnd{i}", w, p.alpha, p.dalpha, T) for i, p in enumerate(bank[:2])]


def assert_estimates_close(got, want):
    """Value and standard error within 1e-14 relative; a value near zero (a
    residual at a critical drift) is held to 1e-14 of its standard error."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.n == w.n
        assert g.value == pytest.approx(w.value, rel=1e-14, abs=1e-14 * w.std_error)
        assert g.std_error == pytest.approx(w.std_error, rel=1e-14)


class TestBankForms:
    """Called with a list of pairs, each field is evaluated once per point set;
    every estimate agrees with the old one-pair-at-a-time loop to rounding, and
    a one-pair call keeps the bits of the list call's entry."""

    @pytest.fixture(scope="class")
    def small_tg(self):
        tg = taylor_green(NU, T, 100)
        return simulate_ito(SdeParams(nu=NU, T=T, drift_source=tg, orientation=FORWARD), N=300, M=100, seed=8)

    @pytest.mark.parametrize("which", ["default", "random"])
    def test_dpm_bank_matches_per_pair_loop(self, small_tg, bank, which):
        pairs = bank if which == "default" else random_field_bank(bank)
        samples = occupation_measure(small_tg, thin=2)
        got = dpm_residual(samples, pairs, NU)
        assert_estimates_close(got, old_dpm_loop(samples, pairs, NU))
        assert [dpm_residual(samples, p, NU) for p in pairs] == got

    @pytest.mark.parametrize("which", ["default", "random"])
    def test_direct_bank_matches_per_pair_loop(self, small_tg, bank, which):
        pairs = bank if which == "default" else random_field_bank(bank)
        got = first_variation_direct(small_tg, pairs, NU)
        assert_estimates_close(got, old_direct_loop(small_tg, pairs, NU))
        assert [first_variation_direct(small_tg, p, NU) for p in pairs] == got

    def test_default_bank_shares_each_field_between_profiles(self, bank):
        assert [bank[i].w is bank[i + 1].w for i in (0, 2, 4)] == [True] * 3
        assert len({id(p.w) for p in bank}) == 3


class TestWeakResidual:
    def test_exact_solution_residual_tiny(self, bank):
        tg = taylor_green(NU, T, 8192)
        for pair in bank:
            assert abs(weak_ns_residual(tg, pair)) <= 1e-8, pair.name

    def test_frozen_profile_detected(self, bank):
        frozen = steady_flow(taylor_green(NU, T, 2).frames[0], T, 256, NU)
        worst = max(abs(weak_ns_residual(frozen, pair)) for pair in bank)
        assert worst >= 1e-3

    def test_zero_profile_gives_exact_zero(self, basis):
        tg = taylor_green(NU, T, 64)
        pair = TestPair(
            "null", basis.basis_field((1, 0), "cos"), lambda t: 0.0 * t, lambda t: 0.0 * t, T
        )
        assert weak_ns_residual(tg, pair) == 0.0

    def test_profile_endpoint_enforcement(self, basis):
        with pytest.raises(ValueError):
            TestPair(
                "bad",
                basis.basis_field((1, 0), "cos"),
                lambda t: np.cos(np.pi * t / T),
                lambda t: -np.pi / T * np.sin(np.pi * t / T),
                T,
            )

    def test_requires_divergence_free_field(self, basis):
        from helpers import grad_sin_x1

        with pytest.raises(ValueError):
            TestPair("bad", grad_sin_x1(), lambda t: np.sin(np.pi * t), lambda t: np.pi * np.cos(np.pi * t), T)
