"""Exact decaying vortex, spectral solver, pressure, and Hessian bound."""

import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsvlab.fields import FourierScalarField, SpectralBasis, SpectralError, random_divergence_free, to_grid
from nsvlab.flows import (
    TimeDependentVelocity,
    advection_field,
    hessian_bound,
    ns_step,
    pressure_from_velocity,
    solve_navier_stokes,
    steady_flow,
    taylor_green,
)

from helpers import grad_sin_x1, ns_residual_norm, with_negative_zeros

NU = 0.1


class TestTaylorGreen:
    def test_pointwise_value(self):
        tg = taylor_green(NU, 1.0, 4)
        np.testing.assert_allclose(
            tg.frames[0].evaluate((0.0, np.pi / 2)), [1.0, 0.0], atol=1e-15
        )

    def test_divergence_free_at_all_times(self):
        tg = taylor_green(NU, 1.0, 8)
        assert all(f.is_divergence_free() for f in tg.frames)

    def test_momentum_residual_vanishes(self):
        tg = taylor_green(NU, 1.0, 10)
        assert ns_residual_norm(tg, 0.5) <= 1e-10

    def test_pressure_mean_zero_and_decay(self):
        tg = taylor_green(NU, 2.0, 10)
        assert all(abs(p.mean) < 1e-15 for p in tg.pressures)
        ratio = np.max(np.abs(tg.pressures[5].coeffs)) / np.max(np.abs(tg.pressures[0].coeffs))
        assert ratio == pytest.approx(np.exp(-4 * NU * tg.times[5]), rel=1e-12)

    def test_requires_pressure_modes(self):
        with pytest.raises(SpectralError):
            taylor_green(NU, 1.0, 4, K=1)


class TestSolver:
    def test_zero_field_is_steady(self):
        import numpy as np
        from nsvlab.fields import FourierVectorField

        zero = FourierVectorField(4, np.zeros((9, 9, 2), complex))
        out = ns_step(zero, NU, 1e-2)
        assert np.max(np.abs(out.coeffs)) == 0.0

    def test_tracks_exact_solution(self):
        # nonlinear term projects away for this datum, so the march is a pure
        # spectral decay; still exercises the full dealiased pipeline
        tg = taylor_green(NU, 0.5, 100, K=8)
        solved = solve_navier_stokes(tg.frames[0], NU, 0.5, 100)
        err = (solved.frames[-1] - tg.frames[-1]).l2_norm()
        assert err <= 1e-8

    def test_divergence_preserved_per_step(self):
        tg = taylor_green(NU, 1.0, 4, K=8)
        state = tg.frames[0]
        for _ in range(5):
            state = ns_step(state, NU, 1e-2)
            assert state.divergence_defect() <= 1e-12

    def test_energy_nonincreasing(self):
        tg = taylor_green(NU, 1.0, 4, K=8)
        state = tg.frames[0]
        energies = [0.5 * state.l2_inner(state)]
        for _ in range(20):
            state = ns_step(state, NU, 5e-3)
            energies.append(0.5 * state.l2_inner(state))
        assert all(b <= a + 1e-14 for a, b in zip(energies, energies[1:]))

    def test_fourth_order_time_accuracy(self):
        # large nu and coarse dt so the RK4 truncation error sits far above
        # rounding; halving dt must shrink the error at least 12-fold
        nu, T = 2.0, 0.5
        tg = taylor_green(nu, T, 2, K=2)
        errors = []
        for M in (10, 20, 40):
            solved = solve_navier_stokes(tg.frames[0], nu, T, M)
            errors.append((solved.frames[-1] - tg.frames[-1]).l2_norm())
        assert errors[0] / errors[1] >= 12.0
        assert errors[1] / errors[2] >= 12.0

    @pytest.mark.parametrize("K", [1, 4, 8])
    def test_advection_matches_separate_syntheses_bitwise(self, K):
        # reference: u, d_1 u and d_2 u each synthesized on its own grid
        u = random_divergence_free(K, seed=K) + taylor_green(NU, 1.0, 2, K=max(K, 2)).frames[0].with_truncation(K)
        n = max(3 * K + 2, 8)
        ks = np.arange(-K, K + 1, dtype=float)
        k1, k2 = np.meshgrid(ks, ks, indexing="ij")
        U = to_grid(u.coeffs, n)
        adv = U[..., :1] * to_grid(1j * k1[..., None] * u.coeffs, n) + U[..., 1:] * to_grid(1j * k2[..., None] * u.coeffs, n)
        idx = np.arange(-K, K + 1) % n
        want = (np.fft.fft2(adv, axes=(0, 1)) / (n * n))[np.ix_(idx, idx)]
        np.testing.assert_array_equal(advection_field(u).coeffs, want)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blowup_signalled(self):
        tg = taylor_green(5.0, 1.0, 2, K=8)
        state = tg.frames[0] * 1e3
        with pytest.raises(FloatingPointError):
            for _ in range(200):
                state = ns_step(state, 5.0, 0.5)


class TestPressure:
    def test_taylor_green_pressure_recovered(self):
        tg = taylor_green(NU, 1.0, 2)
        p = pressure_from_velocity(tg.frames[0])
        np.testing.assert_allclose(p.coeffs, tg.pressures[0].coeffs, atol=1e-14)

    def test_single_frame_field_gives_zero_pressure(self):
        basis = SpectralBasis(beta=3.0, K=3, nu=0.1)
        A = basis.basis_field((2, 1), "cos")
        p = pressure_from_velocity(A)
        assert np.max(np.abs(p.coeffs)) <= 1e-16

    def test_zero_velocity_zero_pressure(self):
        from nsvlab.fields import FourierVectorField

        zero = FourierVectorField(2, np.zeros((5, 5, 2), complex))
        assert np.max(np.abs(pressure_from_velocity(zero).coeffs)) == 0.0

    def test_gradient_matches_projected_advection(self):
        tg = taylor_green(NU, 1.0, 2)
        u = tg.frames[0]
        from nsvlab.fields import leray_project

        adv = advection_field(u)
        complement = adv - leray_project(adv)
        gradp = pressure_from_velocity(u).gradient_field()
        np.testing.assert_allclose(gradp.coeffs, -complement.coeffs, atol=1e-13)


class TestHessianBound:
    def test_taylor_green_value(self):
        tg = taylor_green(NU, 1.0, 2)
        assert hessian_bound(tg.pressures[0]) == pytest.approx(1.0, abs=1e-12)

    def test_zero_pressure(self):
        p = FourierScalarField(2, np.zeros((5, 5), complex))
        assert hessian_bound(p) == 0.0

    def test_exponential_rescaling(self):
        tg = taylor_green(NU, 1.0, 4)
        r0 = hessian_bound(tg.pressures[0])
        r1 = hessian_bound(tg.pressures[3])
        assert r1 == pytest.approx(np.exp(-4 * NU * tg.times[3]) * r0, rel=1e-12)

    def test_constant_shift_invariance(self):
        tg = taylor_green(NU, 1.0, 2)
        shifted = tg.pressures[0].coeffs.copy()
        p = FourierScalarField(2, shifted)
        r = hessian_bound(p)
        shifted2 = shifted.copy()
        shifted2[2, 2] += 7.5  # constant offset
        assert hessian_bound(FourierScalarField(2, shifted2)) == pytest.approx(r, abs=1e-14)

    def test_grid_refinement_agreement(self):
        tg = taylor_green(NU, 1.0, 2)
        a = hessian_bound(tg.pressures[0], n=128)
        b = hessian_bound(tg.pressures[0], n=256)
        assert abs(a - b) <= 1e-6


class TestTimeDependentVelocity:
    def test_uniform_grid_enforced(self):
        tg = taylor_green(NU, 1.0, 4)
        bad_times = tg.times.copy()
        bad_times[2] += 1e-3
        with pytest.raises(SpectralError):
            TimeDependentVelocity(bad_times, tg.frames, tg.pressures, NU)

    @pytest.mark.parametrize("T", [0.0, 5e-324, -1.0])
    def test_non_positive_time_steps_rejected(self, T):
        # T = 5e-324 over 4 steps underflows to steps of 0 and 5e-324
        tg = taylor_green(NU, 1.0, 4)
        with pytest.raises(SpectralError, match="steps must be positive"):
            TimeDependentVelocity(np.linspace(0.0, T, 5), tg.frames, tg.pressures, NU)

    @pytest.mark.parametrize("shift", [1.0, -0.25, 1e-9])
    def test_time_grid_must_start_at_zero(self, shift):
        # velocity_at counts s / dt from t = 0, so a shifted grid would serve
        # the frame of time s + shift at time s
        tg = taylor_green(NU, 1.0, 4)
        with pytest.raises(SpectralError, match="time grid must start at 0"):
            TimeDependentVelocity(tg.times + shift, tg.frames, tg.pressures, NU)

    def test_empty_time_grid_rejected(self):
        with pytest.raises(SpectralError, match="time grid has no times"):
            TimeDependentVelocity(np.array([]), [], [], NU)

    def test_shifted_manifest_rejected_on_load(self, tmp_path):
        manifest = taylor_green(NU, 1.0, 4).save(os.fspath(tmp_path), "tg")
        with open(manifest) as fh:
            doc = json.load(fh)
        doc["times"] = [t + 1.0 for t in doc["times"]]
        with open(manifest, "w") as fh:
            json.dump(doc, fh)
        with pytest.raises(SpectralError, match="time grid must start at 0"):
            TimeDependentVelocity.load(manifest)

    def test_pressure_frames_must_match_velocity_frames(self):
        tg = taylor_green(NU, 1.0, 4)
        with pytest.raises(SpectralError):
            TimeDependentVelocity(tg.times, tg.frames, tg.pressures[:3], NU)
        TimeDependentVelocity(tg.times, tg.frames, [], NU)

    def test_linear_interpolation_between_frames(self):
        tg = taylor_green(NU, 1.0, 10)
        pts = np.array([[0.3, 1.2]])
        s = 0.55  # halfway between frames 5 and 6
        want = 0.5 * (tg.frames[5].evaluate_at(pts) + tg.frames[6].evaluate_at(pts))
        np.testing.assert_allclose(tg.velocity_at(s, pts), want, atol=1e-14)

    @pytest.mark.parametrize("s", [0.0, 0.05, 0.3])
    def test_one_frame_history_is_that_frame(self, s):
        tg = taylor_green(NU, 0.1, 0)
        pts = np.random.default_rng(3).uniform(0, 2 * np.pi, (64, 2))
        u, p = tg.frames[0], tg.pressures[0]
        np.testing.assert_array_equal(tg.velocity_at(s, pts), u.evaluate_at(pts))
        np.testing.assert_array_equal(tg.velocity_gradient_at(s, pts), u.gradient_at(pts))
        np.testing.assert_array_equal(tg.pressure_at(s, pts), p.evaluate_at(pts))
        np.testing.assert_array_equal(tg.pressure_gradient_at(s, pts), p.gradient_at(pts))

    def test_steady_flow_rejects_non_solenoidal(self):
        pc = np.zeros((5, 5), complex)
        pc[3, 2] = -0.5j
        pc[1, 2] = 0.5j
        grad = FourierScalarField(2, pc).gradient_field()
        with pytest.raises(SpectralError):
            steady_flow(grad, 1.0, 2, NU)
        steady_flow(grad, 1.0, 2, NU, require_divergence_free=False)

    def test_manifest_round_trip(self, tmp_path):
        tg = taylor_green(NU, 0.5, 3)
        manifest = tg.save(os.fspath(tmp_path), "tg")
        back = TimeDependentVelocity.load(manifest)
        assert back.nu == tg.nu
        np.testing.assert_array_equal(back.times, tg.times)
        for a, b in zip(back.frames, tg.frames):
            np.testing.assert_array_equal(a.coeffs, b.coeffs)
        for a, b in zip(back.pressures, tg.pressures):
            np.testing.assert_array_equal(a.coeffs, b.coeffs)

    def test_unchecked_steady_flow_round_trip_bitwise(self, tmp_path):
        u = steady_flow(grad_sin_x1(), 1.0, 2, NU, require_divergence_free=False)
        back = TimeDependentVelocity.load(u.save(os.fspath(tmp_path), "grad"))
        assert back.validate_divergence_free is False
        assert back.times.tobytes() == u.times.tobytes()
        for a, b in zip(back.frames, u.frames):
            assert a.coeffs.tobytes() == b.coeffs.tobytes()

    def test_manifest_without_check_entry_checks_frames(self, tmp_path):
        u = steady_flow(grad_sin_x1(), 1.0, 2, NU, require_divergence_free=False)
        manifest = u.save(os.fspath(tmp_path), "grad")
        with open(manifest) as fh:
            doc = json.load(fh)
        del doc["validate_divergence_free"]
        with open(manifest, "w") as fh:
            json.dump(doc, fh)
        with pytest.raises(SpectralError, match="frame 0 is not divergence-free"):
            TimeDependentVelocity.load(manifest)

    def test_pressure_file_listed_as_frame_rejected(self, tmp_path):
        manifest = taylor_green(NU, 0.5, 2).save(os.fspath(tmp_path), "tg")
        with open(manifest) as fh:
            doc = json.load(fh)
        doc["frames"] = doc["pressures"]
        with open(manifest, "w") as fh:
            json.dump(doc, fh)
        with pytest.raises(ValueError, match="malformed flow file .*tg_pressure_00000.json"):
            TimeDependentVelocity.load(manifest)

    def test_older_flow_files_load_bitwise(self, tmp_path):
        # a manifest with no divergence-check entry and a pressure file with no
        # "mean", as written before frames and pressures shared one format
        files = {
            "old_manifest.json": {"nu": 0.1, "times": [0.0], "frames": ["f.json"], "pressures": ["p.json"]},
            "f.json": '{"dim": 2, "K": 1, "modes": [{"k": [-1, 0], "re": [-0.0, 0.5], "im": [0.0, 0.25]}, '
            '{"k": [1, 0], "re": [-0.0, 0.5], "im": [0.0, -0.25]}], "mean": [0.125, -0.0]}',
            "p.json": '{"K": 1, "modes": [{"k": [0, -1], "re": 0.25, "im": -0.0}, {"k": [0, 0], "re": -0.0, "im": 0.0}, '
            '{"k": [0, 1], "re": 0.25, "im": 0.0}]}',
        }
        for fn, doc in files.items():
            (tmp_path / fn).write_text(doc if isinstance(doc, str) else json.dumps(doc))
        flow = TimeDependentVelocity.load(os.fspath(tmp_path / "old_manifest.json"))
        u = np.zeros((3, 3, 2), complex)
        u[0, 1], u[2, 1], u[1, 1] = (-0.0, 0.5 + 0.25j), (-0.0, 0.5 - 0.25j), (0.125, -0.0)
        p = np.zeros((3, 3), complex)
        p[1, 0], p[1, 1], p[1, 2] = complex(0.25, -0.0), complex(-0.0, 0.0), complex(0.25, 0.0)
        assert flow.validate_divergence_free is True
        assert flow.frames[0].coeffs.tobytes() == u.tobytes()
        assert flow.pressures[0].coeffs.tobytes() == p.tobytes()


def zero_mean_pressure(K, rng, keep):
    """A random real zero-mean scalar field, each {k, -k} pair kept with
    probability keep."""
    n = 2 * K + 1
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    mask = rng.uniform(size=(n, n)) < keep
    z = np.where(mask & mask[::-1, ::-1], z, 0.0)
    z = 0.5 * (z + np.conj(z[::-1, ::-1]))
    z[K, K] = 0.0
    return FourierScalarField(K, z)


class TestPersistenceProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        K=st.integers(1, 4),
        M=st.integers(0, 4),
        seed=st.integers(0, 2**32 - 1),
        with_pressure=st.booleans(),
        nu=st.floats(1e-6, 1e3),
        T=st.floats(1e-3, 1e3),
        keep=st.sampled_from([0.0, 0.4, 1.0]),
        negative_zeros=st.booleans(),
        check=st.booleans(),
    )
    def test_save_load_round_trip_bitwise(self, K, M, seed, with_pressure, nu, T, keep, negative_zeros, check):
        rng = np.random.default_rng(seed)
        frames = [random_divergence_free(K, seed=seed + j, scale=rng.uniform(0.1, 10.0)) for j in range(M + 1)]
        pressures = [zero_mean_pressure(K, rng, keep) for _ in frames] if with_pressure else []
        if negative_zeros:
            frames = [type(f)(K, with_negative_zeros(f.coeffs)) for f in frames]
            pressures = [type(p)(K, with_negative_zeros(p.coeffs)) for p in pressures]
        u = TimeDependentVelocity(np.linspace(0.0, T, M + 1), frames, pressures, nu, check)
        with tempfile.TemporaryDirectory() as tmp:
            back = TimeDependentVelocity.load(u.save(tmp, "flow"))
        assert back.nu == u.nu and back.validate_divergence_free == check
        assert back.times.tobytes() == u.times.tobytes()
        assert len(back.frames) == len(u.frames) and len(back.pressures) == len(u.pressures)
        for a, b in zip(back.frames + back.pressures, u.frames + u.pressures):
            assert a.K == b.K and a.coeffs.tobytes() == b.coeffs.tobytes()
