"""Ensemble simulation: statistics, reproducibility, densities, persistence."""

import ast
import json
import os
import re
import tempfile
from pathlib import Path

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsvlab import sde
from nsvlab.estimates import EstimateWithError, ks_critical_value, ks_uniform_statistic
from nsvlab.fields import FourierScalarField, SpectralBasis
from nsvlab.flows import steady_flow, taylor_green
from nsvlab.sde import (
    FORWARD,
    KINDS,
    REVERSED,
    PathEnsemble,
    SdeParams,
    brownian_bridge,
    drift_orthogonality,
    load_ensemble,
    measure_density,
    path_rng,
    running_integral,
    save_ensemble,
    simulate_ito,
    simulate_stratonovich_basis,
    time_weights,
)

from helpers import constant_field, cos_x1_scalar, grad_sin_x1

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nsvlab"

NU, T = 0.1, 1.0


@pytest.fixture(scope="module")
def heat_ensemble():
    return simulate_ito(SdeParams(nu=0.05, T=T), N=8000, M=200, seed=42)


@pytest.fixture(scope="module")
def tg_reversed():
    tg = taylor_green(NU, T, 400)
    params = SdeParams(nu=NU, T=T, drift_source=tg, orientation=REVERSED)
    return simulate_ito(params, N=6000, M=400, seed=42)


class TestItoEngine:
    def test_heat_displacement_variance(self, heat_ensemble):
        disp = heat_ensemble.unwrapped[:, -1] - heat_ensemble.unwrapped[:, 0]
        target = 2 * 0.05 * T
        se = target * np.sqrt(2.0 / (disp.shape[0] - 1))
        for d in range(2):
            assert abs(disp[:, d].var(ddof=1) - target) <= 3 * se

    def test_constant_drift_mean_displacement(self):
        drift = steady_flow(constant_field((1.0, 0.0)), T, 2, NU)
        params = SdeParams(nu=NU, T=T, drift_source=drift, initial_law=("fixed", (0.0, 0.0)))
        ens = simulate_ito(params, N=2000, M=100, seed=1)
        disp = ens.unwrapped[:, -1] - ens.unwrapped[:, 0]
        est = EstimateWithError.from_samples(disp[:, 0])
        assert est.within(T, 3)
        assert EstimateWithError.from_samples(disp[:, 1]).within(0.0, 3)

    def test_uniform_marginals_under_reversed_drift(self, tg_reversed):
        N = tg_reversed.n_paths
        cap = ks_critical_value(N, significance=1e-3)
        for frac in (0.25, 0.5, 1.0):
            j = tg_reversed.step_index(frac * T)
            for d in range(2):
                assert ks_uniform_statistic(tg_reversed.wrapped_at(j)[:, d]) <= cap

    def test_recorded_drift_is_inserted_drift(self, tg_reversed):
        tg = taylor_green(NU, T, 400)
        j = 120
        want = -tg.velocity_at(T - tg_reversed.times[j], tg_reversed.unwrapped[:, j])
        np.testing.assert_array_equal(tg_reversed.drift[:, j], want)

    def test_wrapped_is_unwrapped_mod_2pi(self, tg_reversed):
        w = tg_reversed.wrapped_at(slice(None))
        assert np.all((w >= 0) & (w < 2 * np.pi))
        np.testing.assert_array_equal(w, np.mod(tg_reversed.unwrapped, 2 * np.pi))
        idx = np.array([7, 0, 400, 7])
        assert tg_reversed.wrapped_at(idx).tobytes() == w[:, idx].tobytes()
        assert tg_reversed.wrapped_at(120).tobytes() == w[:, 120].tobytes()

    def test_increment_variance_sanity(self, heat_ensemble):
        dW = heat_ensemble.dW
        dt = heat_ensemble.dt
        flat = dW.reshape(-1, dW.shape[2])
        n = flat.shape[0]
        se = dt * np.sqrt(2.0 / (n - 1))
        for c in range(flat.shape[1]):
            assert abs(flat[:, c].var(ddof=1) - dt) <= 5 * se

    def test_fixed_initial_law(self):
        ens = simulate_ito(
            SdeParams(nu=NU, T=T, initial_law=("fixed", (1.0, 2.0))), N=10, M=4, seed=0
        )
        np.testing.assert_array_equal(ens.unwrapped[:, 0], np.tile([1.0, 2.0], (10, 1)))

    def test_step_index_rejects_off_grid_times(self, heat_ensemble):
        dt = heat_ensemble.dt
        assert heat_ensemble.step_index(100 * dt) == 100
        with pytest.raises(ValueError, match=r"not on the grid of step dt="):
            heat_ensemble.step_index(100.5 * dt)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_state_signalled(self):
        huge = steady_flow(constant_field((1.7e308, 0.0)), 4.0, 2, NU)
        params = SdeParams(nu=NU, T=4.0, drift_source=huge)
        with pytest.raises(FloatingPointError):
            simulate_ito(params, N=4, M=4, seed=0)


class TestReproducibility:
    def test_bitwise_identical_rerun(self):
        params = SdeParams(nu=NU, T=T)
        a = simulate_ito(params, N=100, M=50, seed=7)
        b = simulate_ito(params, N=100, M=50, seed=7)
        np.testing.assert_array_equal(a.unwrapped, b.unwrapped)
        np.testing.assert_array_equal(a.dW, b.dW)

    def test_path_streams_independent_of_ensemble_size(self):
        params = SdeParams(nu=NU, T=T)
        small = simulate_ito(params, N=10, M=50, seed=7)
        big = simulate_ito(params, N=40, M=50, seed=7)
        np.testing.assert_array_equal(big.unwrapped[:10], small.unwrapped)

    @pytest.mark.parametrize("drift", [FORWARD, REVERSED, "zero"])
    def test_adaptedness_recorded_step(self, drift):
        """Each recorded step is the Euler-Maruyama step from the recorded
        position, drift and increment, to the bit, in the engine's order of
        operations; the recorded drift is the oriented velocity at the
        recorded position and time."""
        tg = None if drift == "zero" else taylor_green(NU, T, 400)
        orientation = REVERSED if drift == REVERSED else FORWARD
        params = SdeParams(nu=NU, T=T, drift_source=tg, orientation=orientation)
        ens = simulate_ito(params, N=500, M=400, seed=42)
        step = ens.unwrapped[:, :-1] + ens.drift[:, :-1] * ens.dt + np.sqrt(2.0 * NU) * ens.dW
        assert step.tobytes() == ens.unwrapped[:, 1:].tobytes()
        for j in range(ens.n_steps + 1):
            x = ens.unwrapped[:, j]
            want = np.zeros_like(x) if tg is None else params.drift_sign() * tg.velocity_at(params.drift_time(j * ens.dt), x)
            assert want.tobytes() == ens.drift[:, j].tobytes()


def _blocked_engine_runs(M):
    """One run of each engine at M steps, as a callable of no arguments, with
    a drift in every engine that has one."""
    tg = taylor_green(NU, T, M)
    basis = SpectralBasis(beta=3.0, K=2, nu=NU)
    return {
        "ito": lambda: simulate_ito(SdeParams(nu=NU, T=T, drift_source=tg, orientation=REVERSED), N=30, M=M, seed=3),
        "stratonovich_basis": lambda: simulate_stratonovich_basis(
            SdeParams(nu=NU, T=T, drift_source=tg), basis, N=30, M=M, seed=3
        ),
        "bridge": lambda: brownian_bridge(0.2, -0.3, N=30, M=M, cutoff=0.25, seed=3),
    }


class _BlowUp:
    """A drift source that is zero before grid index `at` and infinite from
    it on, so the state first fails to be finite at step at + 1."""

    def __init__(self, at: int, dt: float):
        self.T, self.at, self.dt = T, at, dt

    def velocity_at(self, t, x):
        return np.full_like(x, np.inf) if t >= (self.at - 0.5) * self.dt else np.zeros_like(x)


class TestTimeBlocks:
    """_march runs over blocks of time_block(M + 1) grid times; no stored bit
    and no reported step depends on the block size."""

    def test_block_is_at_most_an_eighth_of_the_grid(self):
        assert [sde.time_block(n) for n in (1, 15, 16, 61, 513, 8161)] == [1, 1, 2, 7, 64, 64]

    @pytest.mark.parametrize("kind", KINDS)
    # 61 grid times are a multiple of no block, 63 of 7, and 641 leave a last
    # block of one grid time at 64; M + 5 makes one block of the whole grid
    @pytest.mark.parametrize("M", [60, 62, 640])
    def test_block_size_changes_no_bit(self, monkeypatch, kind, M):
        run = _blocked_engine_runs(M)[kind]
        monkeypatch.setattr(sde, "time_block", lambda n: 1)
        want = run()
        for block in (7, 64, M + 5):
            monkeypatch.setattr(sde, "time_block", lambda n: block)
            got = run()
            assert got.kind == kind
            for name in ("unwrapped", "drift", "dW"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (name, block)

    @pytest.mark.parametrize("block", [8, 64])
    @pytest.mark.parametrize("where", ["B-1", "B", "B+1", "mid"])
    def test_nonfinite_state_named_at_its_step(self, monkeypatch, block, where):
        monkeypatch.setattr(sde, "TIME_BLOCK", block)
        M = 24 * block
        assert sde.time_block(M + 1) == block
        bad = {"B-1": block - 1, "B": block, "B+1": block + 1, "mid": block + block // 2}[where]
        params = SdeParams(nu=NU, T=T, drift_source=_BlowUp(bad - 1, T / M))
        with pytest.raises(FloatingPointError, match=rf"non-finite state at step {bad}$"):
            simulate_ito(params, N=4, M=M, seed=0)


class TestStratonovichEngine:
    def test_quadratic_variation_matches_diffusivity(self):
        basis = SpectralBasis(beta=3.0, K=2, nu=NU)
        ens = simulate_stratonovich_basis(SdeParams(nu=NU, T=T), basis, N=3000, M=300, seed=3)
        qv = np.sum(np.diff(ens.unwrapped, axis=1) ** 2, axis=1)
        for d in range(2):
            est = EstimateWithError.from_samples(qv[:, d])
            assert est.within(2 * NU * T, 3)

    def test_single_pair_moves_along_kperp_only(self):
        basis = SpectralBasis(beta=3.0, K=1, nu=NU)
        keep = np.array([[1.0, 0.0]])
        basis.kvecs = keep
        basis.kperp = np.array([[0.0, -1.0]])
        basis.amps = basis.amps[:1]
        ens = simulate_stratonovich_basis(SdeParams(nu=NU, T=T), basis, N=50, M=100, seed=5)
        # k.x is invariant, so the first coordinate never moves
        np.testing.assert_array_equal(ens.unwrapped[:, :, 0], ens.unwrapped[:, :1, 0] * np.ones(101))

    def test_generator_compensated_martingale(self):
        # M_t^f = f(x_t) - f(x_0) - int (nu Lap f + <u, grad f>) ds has mean zero
        tg = taylor_green(NU, T, 200)
        basis = SpectralBasis(beta=3.0, K=2, nu=NU)
        ens = simulate_stratonovich_basis(
            SdeParams(nu=NU, T=T, drift_source=tg), basis, N=4000, M=200, seed=9
        )
        f = cos_x1_scalar()
        pos = ens.unwrapped
        fvals = np.cos(pos[:, :, 0])
        lap_f = -np.cos(pos[:, :, 0])  # Lap cos x1
        grad_f = np.stack([-np.sin(pos[:, :, 0]), np.zeros_like(pos[:, :, 0])], axis=-1)
        compensator = NU * lap_f + np.sum(grad_f * ens.drift, axis=-1)
        integral = np.trapezoid(compensator, dx=ens.dt, axis=1)
        mart = fvals[:, -1] - fvals[:, 0] - integral
        est = EstimateWithError.from_samples(mart)
        assert est.within(0.0, 3)
        assert f.evaluate_at(pos[0, :1]).shape == (1,)

    def test_agrees_with_ito_engine_in_law(self):
        tg = taylor_green(NU, T, 200)
        basis = SpectralBasis(beta=3.0, K=2, nu=NU)
        strat = simulate_stratonovich_basis(
            SdeParams(nu=NU, T=T, drift_source=tg), basis, N=4000, M=200, seed=21
        )
        ito = simulate_ito(
            SdeParams(nu=NU, T=T, drift_source=tg, orientation=FORWARD), N=4000, M=200, seed=22
        )
        from nsvlab.action import action

        a1, a2 = action(strat), action(ito)
        assert abs(a1.value - a2.value) <= 3 * a1.combined_se(a2)
        d1 = strat.unwrapped[:, -1] - strat.unwrapped[:, 0]
        d2 = ito.unwrapped[:, -1] - ito.unwrapped[:, 0]
        for d in range(2):
            v1 = EstimateWithError.from_samples(d1[:, d] ** 2)
            v2 = EstimateWithError.from_samples(d2[:, d] ** 2)
            assert abs(v1.value - v2.value) <= 3 * v1.combined_se(v2)


class TestBridge:
    def test_mean_interpolates_endpoints(self):
        ens = brownian_bridge(0.3, 1.1, N=8000, M=256, cutoff=0.125, seed=7)
        for frac in (0.25, 0.5, 0.75):
            j = int(frac * 256)
            t = ens.times[j]
            est = EstimateWithError.from_samples(ens.unwrapped[:, j, 0])
            assert est.within(0.3 + t * (1.1 - 0.3), 3)

    def test_symmetric_bridge_stays_centred(self):
        ens = brownian_bridge(0.0, 0.0, N=8000, M=128, cutoff=0.25, seed=8)
        est = EstimateWithError.from_samples(ens.unwrapped[:, 64, 0])
        assert est.within(0.0, 3)

    def test_variance_profile(self):
        ens = brownian_bridge(0.0, 0.0, N=8000, M=256, cutoff=0.125, seed=9)
        for frac in (0.25, 0.5, 0.75):
            j = int(frac * 256)
            t = ens.times[j]
            est = EstimateWithError.from_samples(ens.unwrapped[:, j, 0] ** 2)
            assert est.within(t * (1 - t), 3)

    def test_increments_are_per_path_philox_draws(self):
        seed, M = 5, 32
        ens = brownian_bridge(0.1, 0.2, N=6, M=M, cutoff=0.25, seed=seed)
        for n in range(6):
            want = path_rng(seed, n).standard_normal((M, 1)) * np.sqrt(ens.dt)
            np.testing.assert_array_equal(ens.dW[n], want)

    def test_rejects_nonpositive_cutoff(self):
        with pytest.raises(ValueError):
            brownian_bridge(0.0, 0.0, N=2, M=4, cutoff=0.0)

    def test_drift_recorded_from_formula(self):
        ens = brownian_bridge(0.2, -0.4, N=5, M=16, cutoff=0.5, seed=1)
        j = 7
        want = -(ens.unwrapped[:, j] - (-0.4)) / (1 - ens.times[j])
        np.testing.assert_array_equal(ens.drift[:, j], want)


class TestMeasureDensity:
    def test_solenoidal_fields_give_unit_density(self):
        basis = SpectralBasis(beta=3.0, K=1, nu=NU)
        ens = simulate_stratonovich_basis(SdeParams(nu=NU, T=T), basis, N=50, M=80, seed=2)
        zero = lambda pts: np.zeros(pts.shape[0])
        dens = measure_density(ens, [zero] * ens.dW.shape[2])
        assert np.array_equal(dens, np.ones_like(dens))

    def test_zero_length_prefix_is_one(self):
        basis = SpectralBasis(beta=3.0, K=1, nu=NU)
        ens = simulate_stratonovich_basis(SdeParams(nu=NU, T=T), basis, N=5, M=10, seed=2)
        zero = lambda pts: np.zeros(pts.shape[0])
        dens = measure_density(ens, [zero] * ens.dW.shape[2])
        assert np.all(dens[:, 0] == 1.0)

    def test_gradient_drift_moves_density(self):
        basis = SpectralBasis(beta=3.0, K=2, nu=NU)
        drift = steady_flow(grad_sin_x1(), T, 2, NU, require_divergence_free=False)
        ens = simulate_stratonovich_basis(
            SdeParams(nu=NU, T=T, drift_source=drift), basis, N=400, M=200, seed=4
        )
        zero = lambda pts: np.zeros(pts.shape[0])
        div_drift = lambda pts: -np.sin(pts[:, 0])
        dens = measure_density(ens, [zero] * ens.dW.shape[2], div_drift)
        moved = np.max(np.abs(dens - 1.0), axis=1) > 0.01
        assert np.mean(moved) >= 0.9

    def test_matches_per_grid_time_loop_bitwise(self):
        basis = SpectralBasis(beta=3.0, K=2, nu=NU)
        grad = grad_sin_x1()
        drift = steady_flow(grad, T, 2, NU, require_divergence_free=False)
        ens = simulate_stratonovich_basis(
            SdeParams(nu=NU, T=T, drift_source=drift), basis, N=60, M=40, seed=6
        )
        # the frame's own divergences, as the CLI passes them, with one
        # nonzero channel so the Brownian integrals move
        frame = [basis.basis_field(k, kind) * np.sqrt(2.0) for kind in ("cos", "sin") for k in basis.kvecs]
        noise_divs = [f.divergence_field().evaluate_at for f in frame]
        noise_divs[1] = cos_x1_scalar().evaluate_at
        drift_div = grad.divergence_field().evaluate_at
        N, Mp1, _ = ens.unwrapped.shape
        want = np.zeros((N, Mp1))
        for div, increment in [*zip(noise_divs, np.moveaxis(ens.dW, 2, 0)), (drift_div, ens.dt)]:
            vals = np.stack([div(ens.unwrapped[:, j]) for j in range(Mp1)], axis=1)
            mid = 0.5 * (vals[:, :-1] + vals[:, 1:])
            want[:, 1:] += np.cumsum(mid * increment, axis=1)
        want = np.exp(-want)
        got = measure_density(ens, noise_divs, drift_div)
        np.testing.assert_array_equal(got, want)
        assert np.max(np.abs(got - 1.0)) > 0.01


class TestTimeQuadrature:
    """sde owns the one time rule: trapezoid weights and running integrals."""

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 64),
        dx=st.floats(1e-4, 10.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_weights_match_numpy_trapezoid(self, n, dx, seed):
        y = np.random.default_rng(seed).uniform(-5.0, 5.0, (3, n))
        got = y @ time_weights(n, dx)
        want = np.trapezoid(y, dx=dx, axis=-1)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * n * dx * np.max(np.abs(y)))
        if n == 1:
            assert np.all(got == 0.0)

    def test_running_integral_with_increments_is_the_midpoint_cumsum(self):
        rng = np.random.default_rng(4)
        y = rng.standard_normal((7, 31))
        dW = rng.standard_normal((7, 30, 3)) * 0.1
        for i in range(3):
            got = running_integral(y, dW[:, :, i])
            want = np.cumsum(0.5 * (y[:, :-1] + y[:, 1:]) * dW[:, :, i], axis=1)
            assert np.all(got[:, 0] == 0.0)
            np.testing.assert_array_equal(got[:, 1:], want)

    @pytest.mark.parametrize("block", [1, 2, 7, 30])
    def test_running_integral_folds_on_from_a_start_bitwise(self, block):
        """Blocks of columns, each started from the last column of the one
        before and sharing it, give the columns of one call bitwise."""
        rng = np.random.default_rng(5)
        y = rng.standard_normal((6, 31))
        dW = rng.standard_normal((6, 30)) * 0.1
        for increments in (0.03, dW):
            want = running_integral(y, increments)
            got = [want[:, :1]]
            for j0 in range(0, 30, block):
                j1 = min(j0 + block, 30)
                inc = increments if np.isscalar(increments) else increments[:, j0:j1]
                got.append(running_integral(y[:, j0 : j1 + 1], inc, got[-1][:, -1])[:, 1:])
            assert np.concatenate(got, axis=1).tobytes() == want.tobytes()

    def test_package_calls_no_numpy_trapezoid(self):
        """Every per-path time integral goes through time_weights or
        running_integral, so the rule is decided in one place."""
        rules = ("trapezoid", "trapz")
        hits = []
        for path in sorted(PACKAGE.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if (isinstance(node, ast.Attribute) and node.attr in rules) or (
                    isinstance(node, ast.alias) and node.name in rules
                ):
                    hits.append(f"{path.name}:{node.lineno}")
        assert hits == []


class TestDriftOrthogonality:
    def test_zero_for_incompressible_ensemble(self, tg_reversed):
        est = drift_orthogonality(tg_reversed, cos_x1_scalar(), 0.5 * T)
        assert est.within(0.0, 3)

    def test_constant_test_function_exactly_zero(self, tg_reversed):
        const = FourierScalarField(2, np.zeros((5, 5), complex))
        est = drift_orthogonality(tg_reversed, const, 0.5 * T)
        assert est.value == 0.0 and est.std_error == 0.0

    def test_gradient_drift_fixed_start_detected(self):
        drift = steady_flow(grad_sin_x1(), T, 2, 0.05, require_divergence_free=False)
        params = SdeParams(
            nu=0.05, T=T, drift_source=drift, initial_law=("fixed", (np.pi / 4, 0.0))
        )
        ens = simulate_ito(params, N=4000, M=200, seed=13)
        est = drift_orthogonality(ens, cos_x1_scalar(), 0.5 * T)
        assert abs(est.value) > 3 * est.std_error


class TestPersistence:
    def test_round_trip_bit_exact(self, tmp_path, heat_ensemble):
        stem = str(tmp_path / "ens")
        save_ensemble(heat_ensemble, stem)
        back = load_ensemble(stem)
        np.testing.assert_array_equal(back.unwrapped, heat_ensemble.unwrapped)
        np.testing.assert_array_equal(back.drift, heat_ensemble.drift)
        np.testing.assert_array_equal(back.dW, heat_ensemble.dW)
        assert back.kind == heat_ensemble.kind
        assert back.dt == heat_ensemble.dt
        assert back.seed == heat_ensemble.seed

    def test_npz_opens_with_np_load(self, tmp_path, heat_ensemble):
        npz_path, json_path = save_ensemble(heat_ensemble, str(tmp_path / "ens"))
        with np.load(npz_path) as npz:
            assert sorted(npz.files) == ["dW", "drift", "unwrapped"]
            np.testing.assert_array_equal(npz["dW"], heat_ensemble.dW)
        with open(json_path) as fh:
            assert sorted(json.load(fh)) == ["dt", "kind", "meta", "nu", "seed"]

    @pytest.mark.parametrize(
        "spoil, message",
        [
            (lambda arrays, sidecar: sidecar.update(kind="levy"), "unknown ensemble kind"),
            (lambda arrays, sidecar: sidecar.pop("dt"), "sidecar must hold exactly"),
            (lambda arrays, sidecar: arrays.pop("drift"), "lacks ['drift']"),
            (lambda arrays, sidecar: arrays.update(dW=arrays["dW"].astype(np.float32)), "float64"),
            (lambda arrays, sidecar: arrays.update(drift=arrays["drift"][:, :-1]), "shapes disagree"),
            (lambda arrays, sidecar: arrays.update(dW=arrays["dW"][:-1]), "shapes disagree"),
            (lambda arrays, sidecar: arrays.update(dW=arrays["dW"][:, 1:]), "shapes disagree"),
        ],
        ids=["kind", "scalar", "array", "dtype", "drift-shape", "dW-paths", "dW-steps"],
    )
    def test_malformed_files_rejected(self, tmp_path, spoil, message):
        ens = simulate_ito(SdeParams(nu=NU, T=T), N=4, M=3, seed=1)
        arrays = {"unwrapped": ens.unwrapped, "drift": ens.drift, "dW": ens.dW}
        sidecar = {"kind": ens.kind, "nu": ens.nu, "dt": ens.dt, "seed": ens.seed, "meta": ens.meta}
        spoil(arrays, sidecar)
        stem = str(tmp_path / "ens")
        np.savez(stem + ".npz", **arrays)
        with open(stem + ".json", "w") as fh:
            json.dump(sidecar, fh)
        with pytest.raises(ValueError, match=re.escape(message)):
            load_ensemble(stem)

    @pytest.mark.parametrize("keep", [0, 100, -100, None], ids=["empty", "header", "tail-cut", "npy"])
    def test_unreadable_file_rejected(self, tmp_path, keep):
        ens = simulate_ito(SdeParams(nu=NU, T=T), N=4, M=3, seed=1)
        npz_path, _ = save_ensemble(ens, str(tmp_path / "ens"))
        if keep is None:  # a single array in .npy format under the .npz name
            with open(npz_path, "wb") as fh:
                np.save(fh, ens.unwrapped)
        else:
            with open(npz_path, "rb") as fh:
                data = fh.read()
            with open(npz_path, "wb") as fh:
                fh.write(data[:keep])
        with pytest.raises(ValueError, match="not a readable .npz"):
            load_ensemble(str(tmp_path / "ens"))


def ensemble_cases():
    """Ensembles of every kind with arbitrary float64 contents, NaN, infinities
    and signed zeros included, and a JSON-serializable meta."""
    floats = st.floats(allow_nan=True, allow_infinity=True, width=64)

    @st.composite
    def build(draw):
        N, M, dim, C = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 2)), draw(st.integers(1, 3))
        return PathEnsemble(
            kind=draw(st.sampled_from(KINDS)),
            nu=draw(st.none() | st.floats(1e-6, 1e6)),
            dt=draw(st.floats(1e-9, 10.0)),
            seed=draw(st.integers(0, 2**64 - 1)),
            unwrapped=draw(hnp.arrays(np.float64, (N, M + 1, dim), elements=floats)),
            drift=draw(hnp.arrays(np.float64, (N, M + 1, dim), elements=floats)),
            dW=draw(hnp.arrays(np.float64, (N, M, C), elements=floats)),
            meta=draw(st.dictionaries(st.text(max_size=8), st.integers() | st.text(max_size=8), max_size=3)),
        )

    return build()


class TestPersistenceProperties:
    @settings(max_examples=60, deadline=None)
    @given(ens=ensemble_cases())
    def test_save_load_round_trip_bitwise(self, ens):
        with tempfile.TemporaryDirectory() as tmp:
            stem = os.path.join(tmp, "ens")
            save_ensemble(ens, stem)
            back = load_ensemble(stem)
        for name in ("unwrapped", "drift", "dW"):
            got, want = getattr(back, name), getattr(ens, name)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert (back.kind, back.seed, back.meta) == (ens.kind, ens.seed, ens.meta)
        assert np.float64(back.dt).tobytes() == np.float64(ens.dt).tobytes()
        assert back.nu == ens.nu


def _ks_cases():
    """Samples for [0, 2pi), one pytest.param each: sizes 1 to 20001 with
    ties, the ends of the interval, samples outside it, and a NaN."""
    W = 2 * np.pi
    rng = np.random.default_rng(16)
    cases = []
    for n in (1, 2, 3, 1000, 20001):
        x = rng.uniform(0.0, W, n)
        cases.append((f"uniform_{n}", x))
        cases.append((f"ties_{n}", np.round(x, 1)))
    below = np.nextafter(W, 0.0)
    cases += [
        ("ends", np.array([0.0, below, 0.0, below, 1.0])),
        ("at_zero", np.zeros(4)),
        ("just_below_width", np.full(3, below)),
        ("outside", np.array([-1.0, -0.0, 0.5, W, W + 3.0, 2.0])),
        ("outside_only", np.array([-5.0, 100.0])),
        ("nan", np.array([0.5, np.nan, 3.0])),
    ]
    return [pytest.param(x, id=name) for name, x in cases]


class TestKsUniformStatistic:
    """The numpy KS distance against scipy's kstest, bitwise."""

    @pytest.mark.parametrize("x", _ks_cases())
    def test_equals_scipy_kstest_bitwise(self, x):
        stats = pytest.importorskip("scipy.stats")
        W = 2 * np.pi
        got = ks_uniform_statistic(x, W)
        want = float(stats.kstest(x / W, "uniform").statistic)
        assert np.float64(got).tobytes() == np.float64(want).tobytes() or (np.isnan(got) and np.isnan(want))

    def test_other_width(self):
        stats = pytest.importorskip("scipy.stats")
        x = np.random.default_rng(3).uniform(0.0, 5.0, 101)
        assert ks_uniform_statistic(x, 5.0) == stats.kstest(x / 5.0, "uniform").statistic

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no samples"):
            ks_uniform_statistic(np.array([]))
