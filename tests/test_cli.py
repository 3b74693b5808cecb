"""Command line front end: validation, artifacts, determinism, exit codes."""

import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsvlab.cli import (
    EXPERIMENTS,
    PEAK_BYTES_PER_STEP,
    READS_N,
    RUNNERS,
    STORED_ENSEMBLE,
    ExperimentConfig,
    Report,
    _parser,
    build_drift,
    emit_plots,
    load_config,
    main,
    run,
    validate,
)
from nsvlab.flows import taylor_green

FAST = dict(N=400, M=60, K=4)
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def make_config(experiment, **kw):
    merged = {**FAST, **kw}
    return ExperimentConfig(experiment=experiment, **merged)


class TestValidate:
    def test_default_config_is_clean(self):
        assert validate(ExperimentConfig(experiment="fields-check")) == []

    def test_negative_nu_rejected(self):
        issues = validate(make_config("action", nu=-1.0))
        assert any("nu must be positive" in i["message"] for i in issues)
        assert any(i["level"] == "error" for i in issues)

    def test_minimality_hypothesis_warning(self):
        issues = validate(make_config("minimality", T=4.0))
        warnings = [i for i in issues if i["level"] == "warning"]
        assert any("pi^2" in w["message"] for w in warnings)

    def test_unknown_experiment_flagged(self):
        issues = validate(make_config("nonsense"))
        assert any("unknown experiment" in i["message"] for i in issues)

    @pytest.mark.parametrize("seed", [-1, 2**64, 99999999999999999999999])
    def test_seed_outside_64_bits_flagged(self, seed):
        issues = validate(make_config("action", seed=seed))
        assert any("64-bit" in i["message"] and i["level"] == "error" for i in issues)

    def test_largest_64_bit_seed_accepted(self):
        assert validate(make_config("action", seed=2**64 - 1)) == []

    def test_bad_drift_spec_flagged(self):
        issues = validate(make_config("action", drift="corrupted:abc"))
        assert any("drift" in i["message"] for i in issues)

    @pytest.mark.parametrize("spec", ["corrupted:abc", "corrupted:", "corrupted", "spectral-file", "zero:1", "Zero", ""])
    def test_unrecognized_drift_spec_one_message_in_validate_and_build(self, spec):
        message = f"unrecognized drift spec '{spec}'"
        assert validate(make_config("action", drift=spec)) == [{"level": "error", "message": message}]
        with pytest.raises(ValueError) as exc:
            build_drift(make_config("action", drift=spec))
        assert str(exc.value) == message

    @pytest.mark.parametrize("amp", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_corruption_amplitude_flagged(self, amp):
        message = f"drift spec 'corrupted:{amp}' needs a finite amplitude"
        assert validate(make_config("action", drift=f"corrupted:{amp}")) == [{"level": "error", "message": message}]

    @pytest.mark.parametrize("experiment", READS_N)
    @pytest.mark.parametrize("N", [1, 0, -3])
    def test_fewer_than_two_paths_rejected(self, experiment, N):
        issues = validate(make_config(experiment, N=N))
        assert issues == [{"level": "error", "message": "N must be at least 2: standard errors need two paths"}]

    @pytest.mark.parametrize("experiment", sorted(set(EXPERIMENTS) - set(READS_N)))
    def test_path_count_unused_elsewhere(self, experiment):
        assert validate(make_config(experiment, N=1)) == []
        assert [i["message"] for i in validate(make_config(experiment, N=0))] == ["N must be positive"]

    @pytest.mark.parametrize("experiment", STORED_ENSEMBLE)
    def test_ensemble_larger_than_memory_rejected(self, experiment):
        issues = validate(make_config(experiment, N=10**7, M=10**5))
        assert [i["level"] for i in issues] == ["error"]
        assert "physical memory" in issues[0]["message"]

    @pytest.mark.parametrize("experiment", STORED_ENSEMBLE)
    def test_ensemble_past_float_range_rejected_in_one_line(self, experiment):
        issues = validate(make_config(experiment, N=10**400))
        assert [i["level"] for i in issues] == ["error"]
        assert "needs about inf GB at peak" in issues[0]["message"]

    @pytest.mark.parametrize("experiment", STORED_ENSEMBLE)
    def test_memory_bound_counts_the_measured_peak(self, experiment, monkeypatch):
        # 8 GB of physical memory: the largest N at M = 999 whose measured peak
        # fits passes, and one path more is rejected, though its stored arrays
        # (48 bytes per path-step) would fit
        pages = {"SC_PHYS_PAGES": 2 * 10**6, "SC_PAGE_SIZE": 4000}
        monkeypatch.setattr(os, "sysconf", pages.__getitem__)
        N = 8 * 10**9 // (PEAK_BYTES_PER_STEP[experiment] * 1000)
        assert validate(make_config(experiment, N=N, M=999)) == []
        issues = validate(make_config(experiment, N=N + 1, M=999))
        assert [i["message"].split(" needs")[0] for i in issues] == [f"N x M = {N + 1} x 999"]
        assert "physical memory" in issues[0]["message"] and 48 * (N + 1) * 1000 < 8 * 10**9

    def test_horizon_past_float_range_warns(self):
        issues = validate(make_config("minimality", T=1e200))
        assert issues == [{"level": "warning", "message": "RT^2 = inf > pi^2: minimality hypothesis violated"}]

    def test_action_with_one_step_rejected(self, capsys):
        # its bias fit reruns at M // 2 = 0 steps, which must not fall back to M
        message = "action needs M >= 2: its bias fit reruns the drift at M // 2 steps"
        assert validate(make_config("action", M=1)) == [{"level": "error", "message": message}]
        assert validate(make_config("action", M=2)) == []
        assert main(["action", "--N", "20", "--M", "1", "--out", os.devnull]) == 1
        assert capsys.readouterr().err.strip().splitlines() == [f"error: {message}"]

    def test_negative_thread_count_rejected(self, capsys):
        issues = validate(make_config("simulate", threads=-3))
        assert issues == [{"level": "error", "message": "threads must be non-negative (0 leaves the thread count alone)"}]
        assert main(["simulate", "--N", "10", "--M", "4", "--threads", "-3"]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: threads must be non-negative (0 leaves the thread count alone)"]


class TestCheckedInConfigs:
    """The acceptance gate runs every experiment on its configs/ file."""

    def test_every_experiment_has_a_runner_and_a_config(self):
        assert set(RUNNERS) == set(EXPERIMENTS)
        assert {p.stem for p in CONFIGS.glob("*.json")} == set(EXPERIMENTS)

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.stem)
    def test_config_loads_and_validates(self, path):
        config = load_config(str(path), {})
        assert config.experiment == path.stem
        assert [i for i in validate(config) if i["level"] == "error"] == []


class TestConfigLoading:
    def test_flags_override_file(self, tmp_path):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({"experiment": "action", "nu": 0.2, "N": 5}))
        cfg = load_config(str(cfg_file), {"nu": 0.3, "experiment": None})
        assert cfg.nu == 0.3 and cfg.N == 5 and cfg.experiment == "action"

    def test_unknown_keys_rejected(self, tmp_path):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({"experiment": "action", "bogus": 1}))
        with pytest.raises(ValueError):
            load_config(str(cfg_file), {})

    def test_numeric_strings_coerced_by_field_type(self, tmp_path):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({"experiment": "action", "N": "100", "nu": "0.2", "T": 2}))
        cfg = load_config(str(cfg_file), {})
        assert (cfg.N, cfg.nu, cfg.T) == (100, 0.2, 2.0)
        assert type(cfg.N) is int and type(cfg.T) is float

    @pytest.mark.parametrize(
        "bad",
        [{"N": "many"}, {"N": 1.5}, {"N": True}, {"nu": "nan"}, {"drift": 3}, {"save_paths": "yes"}],
    )
    def test_wrong_types_exit_one_with_one_line(self, tmp_path, capsys, bad):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({"experiment": "action", **bad}))
        assert main(["action", "--config", str(cfg_file), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and next(iter(bad)) in err[0]

    def test_every_flag_names_a_config_field(self):
        # main passes the parsed namespace, minus --config, as config overrides
        fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
        dests = {action.dest for action in _parser()._actions} - {"help", "config"}
        assert dests and dests <= fields

    def test_output_dir_env_fallback(self, monkeypatch):
        monkeypatch.setenv("NSVLAB_OUT", "/tmp/somewhere")
        cfg = ExperimentConfig(experiment="action")
        assert cfg.resolved_output_dir() == "/tmp/somewhere"


FIELD_TYPES = typing.get_type_hints(ExperimentConfig)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=6,
)

# values of each field type, of any size the type allows
TYPED_VALUES = {
    int: st.integers(),
    float: st.floats(allow_nan=False, allow_infinity=False),
    str: st.text(),
    bool: st.booleans(),
}


def _not_parsed_as(kind):
    """Strings that kind() does not parse to a finite value."""

    def rejected(text):
        try:
            return not math.isfinite(kind(text))
        except (ValueError, OverflowError):
            return True

    return st.text().filter(rejected)


def _load_and_validate(path: Path, field: str, value, experiment: str = "action"):
    """load_config then validate on a file holding {"experiment": experiment,
    field: value}: (config, issues), or the ValueError load_config raised."""
    doc = {"experiment": experiment, field: value}
    path.write_text(json.dumps(doc))
    try:
        config = load_config(str(path), {})
    except ValueError as exc:
        return exc
    return config, validate(config)


@pytest.fixture(scope="module")
def config_file(tmp_path_factory):
    return tmp_path_factory.mktemp("config") / "c.json"


class TestConfigProperties:
    """Any JSON value in any ExperimentConfig field gives a config, whose
    validation lists issues without raising, or one ValueError naming the field."""

    @settings(max_examples=300, deadline=None)
    @given(experiment=st.sampled_from(EXPERIMENTS), field=st.sampled_from(sorted(FIELD_TYPES)), value=JSON_VALUES)
    def test_config_or_error_naming_the_field(self, config_file, experiment, field, value):
        got = _load_and_validate(config_file, field, value, experiment)
        if isinstance(got, ValueError):
            assert f"'{field}'" in str(got)
        else:
            config, issues = got
            assert type(getattr(config, field)) is FIELD_TYPES[field]
            assert all(set(i) == {"level", "message"} and i["level"] in ("error", "warning") for i in issues)

    @settings(max_examples=200, deadline=None)
    @given(
        doc=st.fixed_dictionaries(
            {
                **{f: TYPED_VALUES[t] for f, t in FIELD_TYPES.items()},
                "experiment": st.sampled_from(EXPERIMENTS),
                "drift": st.sampled_from(["taylor-green", "zero", "corrupted:0.5"]) | st.text(),
            }
        )
    )
    def test_well_typed_config_loads_as_written_and_validates(self, config_file, doc):
        config_file.write_text(json.dumps(doc))
        config = load_config(str(config_file), {})
        assert dataclasses.asdict(config) == doc
        assert all(i["level"] in ("error", "warning") for i in validate(config))

    @settings(max_examples=100, deadline=None)
    @given(T=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    def test_minimality_warning_for_any_finite_horizon(self, T):
        issues = validate(make_config("minimality", T=T))
        # a step T/M that underflows below the smallest normal float is an error
        step_error = ["error"] if T / FAST["M"] < np.finfo(float).tiny else []
        assert [i["level"] for i in issues] == step_error + (["warning"] if T > np.pi else [])

    @settings(max_examples=100, deadline=None)
    @given(
        field=st.sampled_from(sorted(f for f, t in FIELD_TYPES.items() if t in (int, float))),
        value=st.booleans()
        | st.floats(allow_nan=True, allow_infinity=True).filter(lambda x: not math.isfinite(x))
        | st.sampled_from(["nan", "inf", "-Infinity", "1e999"]),
    )
    def test_bools_and_non_finite_numbers_rejected(self, config_file, field, value):
        got = _load_and_validate(config_file, field, value)
        assert isinstance(got, ValueError) and f"'{field}'" in str(got)

    @settings(max_examples=100, deadline=None)
    @given(
        field=st.sampled_from(sorted(f for f, t in FIELD_TYPES.items() if t is int)),
        value=st.floats(allow_nan=False, allow_infinity=False).filter(lambda x: not x.is_integer()) | _not_parsed_as(int),
    )
    def test_fractional_floats_and_non_integer_strings_rejected_for_ints(self, config_file, field, value):
        got = _load_and_validate(config_file, field, value)
        assert isinstance(got, ValueError) and f"'{field}'" in str(got)

    @settings(max_examples=100, deadline=None)
    @given(
        field=st.sampled_from(sorted(f for f, t in FIELD_TYPES.items() if t is float)),
        value=_not_parsed_as(float),
    )
    def test_non_numeric_strings_rejected_for_floats(self, config_file, field, value):
        got = _load_and_validate(config_file, field, value)
        assert isinstance(got, ValueError) and f"'{field}'" in str(got)

    @settings(max_examples=100, deadline=None)
    @given(
        field=st.sampled_from(sorted(f for f, t in FIELD_TYPES.items() if t in (str, bool))),
        value=st.integers() | st.floats() | st.none() | st.lists(st.text(), max_size=2),
    )
    def test_numbers_rejected_for_strings_and_flags(self, config_file, field, value):
        got = _load_and_validate(config_file, field, value)
        assert isinstance(got, ValueError) and f"'{field}'" in str(got)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(max_value=-1) | st.integers(min_value=2**64))
    def test_seed_outside_64_bits_gives_one_error_line(self, config_file, seed):
        config_file.write_text(json.dumps({"experiment": "action", "seed": seed}))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(["action", "--config", str(config_file)]) == 1
        assert err.getvalue().splitlines() == ["error: seed must be a non-negative 64-bit integer"]


class TestRun:
    def test_fields_check_passes(self, tmp_path):
        cfg = make_config("fields-check", output_dir=str(tmp_path))
        assert run(cfg) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["experiment"] == "fields-check"
        assert all(v["pass"] for v in report["verdicts"])
        assert (tmp_path / "tables" / "estimates.csv").exists()
        assert (tmp_path / "tables" / "verdicts.csv").exists()

    def test_zero_drift_action_exact(self, tmp_path):
        cfg = make_config("action", drift="zero", output_dir=str(tmp_path))
        assert run(cfg) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        est = {e["name"]: e for e in report["estimates"]}["action"]
        assert est["value"] == 0.0 and est["se"] == 0.0

    def test_saved_paths_in_a_new_output_directory(self, tmp_path):
        # the runner saves the ensemble before Report.write makes the output directory
        from nsvlab.sde import load_ensemble

        out = tmp_path / "new"
        assert run(make_config("simulate", drift="zero", N=20, M=8, save_paths=True, output_dir=str(out))) in (0, 2)
        ens = load_ensemble(str(out / "ensemble"))
        assert ens.unwrapped.shape == (20, 9, 2) and ens.meta == {"orientation": "forward", "T": 1.0}

    def test_invalid_config_exit_one(self, tmp_path):
        cfg = make_config("action", nu=-1.0, output_dir=str(tmp_path))
        assert run(cfg) == 1
        assert not (tmp_path / "report.json").exists()

    def test_negative_control_exit_two(self, tmp_path):
        cfg = make_config(
            "criticality",
            drift="corrupted:0.5",
            negative_control=True,
            N=2500,
            M=200,
            output_dir=str(tmp_path),
        )
        assert run(cfg) == 2
        report = json.loads((tmp_path / "report.json").read_text())
        verdicts = {v["name"]: v["pass"] for v in report["verdicts"]}
        assert verdicts["negative_control_detected"]
        assert not all(verdicts.values())
        assert (tmp_path / "tables" / "residuals.csv").exists()

    def test_report_deterministic_except_timestamp(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        codes = [
            run(make_config("simulate", drift="zero", output_dir=str(out)))
            for out in (out1, out2)
        ]
        assert codes[0] == codes[1]  # verdicts at tiny N may be unlucky, bytes must agree

        def normalized(p):
            doc = json.loads((p / "report.json").read_text())
            doc.pop("timestamp")
            return json.dumps(doc, sort_keys=True)

        assert normalized(out1) == normalized(out2)
        assert (out1 / "tables" / "estimates.csv").read_bytes() == (
            out2 / "tables" / "estimates.csv"
        ).read_bytes()


class TestCriticalityFd:
    """A non-finite perturbation horizon stops the CLI criticality run."""

    def test_non_finite_horizon_raises(self, tmp_path, monkeypatch):
        import nsvlab.cli as cli
        from nsvlab.action import TestPair, default_test_bank

        def blown_up_bank(basis, T):
            bank = default_test_bank(basis, T)
            inf = lambda t: np.where((t > 0) & (t < T), np.inf, 0.0)
            return bank[:1] + [TestPair("inf", bank[1].w, inf, bank[1].dalpha, T)]

        monkeypatch.setattr(cli, "default_test_bank", blown_up_bank)
        cfg = make_config("criticality", N=120, M=40, K=8, output_dir=str(tmp_path))
        with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError, match="non-finite"):
            RUNNERS["criticality"](cfg, Report(cfg), str(tmp_path))
        with np.errstate(invalid="ignore"):
            assert run(cfg) == 1


class TestCriticalityCalls:
    """run_criticality makes list calls, and its report keeps the bits of one-pair
    library calls on the same seeded ensemble, in the interleaved order."""

    def test_report_matches_one_pair_library_calls(self, tmp_path):
        from nsvlab.action import default_test_bank, dpm_residual, first_variation_direct, occupation_measure
        from nsvlab.fields import SpectralBasis
        from nsvlab.sde import FORWARD, SdeParams, simulate_ito

        cfg = make_config("criticality", N=60, M=24, output_dir=str(tmp_path))
        assert run(cfg) in (0, 2)
        report = json.loads((tmp_path / "report.json").read_text())
        got = {e["name"]: (e["value"], e["se"]) for e in report["estimates"]}

        bank = default_test_bank(SpectralBasis(beta=cfg.beta, K=cfg.K, nu=cfg.nu), cfg.T)
        params = SdeParams(nu=cfg.nu, T=cfg.T, drift_source=build_drift(cfg), orientation=FORWARD)
        ens = simulate_ito(params, cfg.N, cfg.M, seed=cfg.seed)
        occ = occupation_measure(ens, thin=max(1, cfg.M // 200))
        for pair in bank:
            res = dpm_residual(occ, pair, cfg.nu)
            fv = first_variation_direct(ens, pair, cfg.nu)
            assert got[f"dpm_{pair.name}"] == (res.value, res.std_error)
            assert got[f"variation_{pair.name}"] == (fv.value, fv.std_error)

        names = [p.name for p in bank]
        assert [e["name"] for e in report["estimates"]] == [
            *(f"{kind}_{n}" for n in names for kind in ("dpm", "variation")),
            *(f"variation_fd_{n}" for n in names),
        ]
        assert [v["name"] for v in report["verdicts"]] == [
            *(f"{kind}_zero_{n}" for n in names for kind in ("dpm", "variation")),
            *(f"fd_matches_direct_{n}" for n in names),
        ]


class TestThreadLimit:
    """threadpoolctl is looked up once, at import; run only applies the limit
    or prints one warning line."""

    def test_limit_applied_with_thread_count(self, tmp_path, monkeypatch):
        import nsvlab.cli as cli

        calls = []
        monkeypatch.setattr(cli, "threadpool_limits", calls.append)
        assert run(make_config("fields-check", threads=3, output_dir=str(tmp_path))) == 0
        assert calls == [3]

    def test_missing_package_one_warning_line(self, tmp_path, monkeypatch, capsys):
        import nsvlab.cli as cli

        unlimited = run(make_config("fields-check", threads=0, output_dir=str(tmp_path / "a")))
        capsys.readouterr()
        monkeypatch.setattr(cli, "threadpool_limits", None)
        assert run(make_config("fields-check", threads=2, output_dir=str(tmp_path / "b"))) == unlimited
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["warning: threadpoolctl unavailable, --threads recorded only"]


class TestDriftBuiltOnce:
    """Each run builds its drift once and passes it to every simulation."""

    @pytest.mark.parametrize("experiment", ["simulate", "action", "criticality", "minimality", "measure-preservation"])
    def test_one_build_per_run(self, tmp_path, monkeypatch, experiment):
        import nsvlab.cli as cli

        built = []
        monkeypatch.setattr(cli, "build_drift", lambda config: built.append(config) or build_drift(config))
        assert run(make_config(experiment, N=16, M=16, output_dir=str(tmp_path))) in (0, 2)
        assert len(built) == 1


class TestSimulateUniformMarginals:
    def test_non_uniform_initial_law_fails(self, tmp_path, monkeypatch):
        import functools

        import nsvlab.cli as cli

        # every path starts at one point: at nu = 0.1 the spread sqrt(2 nu t) stays
        # below 0.45, far from uniform on [0, 2pi) at each tested time
        law = ("fixed", (1.0, 2.0))
        monkeypatch.setattr(cli, "SdeParams", functools.partial(cli.SdeParams, initial_law=law))
        cfg = make_config("simulate", drift="zero", N=2000, M=40, output_dir=str(tmp_path))
        report = Report(cfg)
        RUNNERS["simulate"](cfg, report, str(tmp_path))
        assert {v["name"]: v["pass"] for v in report.verdicts}["uniform_marginals"] is False


class TestMeasurePreservation:
    def test_gradient_frame_fails_density_one(self, tmp_path, monkeypatch):
        # a frame of gradient fields, k_perp replaced by k, is not solenoidal
        import nsvlab.fields as fields

        solenoidal = fields.SpectralBasis.__post_init__

        def gradient_frame(self):
            solenoidal(self)
            self.kperp = self.kvecs.copy()

        monkeypatch.setattr(fields.SpectralBasis, "__post_init__", gradient_frame)
        cfg = make_config("measure-preservation", N=200, M=40, output_dir=str(tmp_path))
        report = Report(cfg)
        RUNNERS["measure-preservation"](cfg, report, str(tmp_path))
        assert {v["name"]: v["pass"] for v in report.verdicts}["density_one_for_solenoidal"] is False


class TestPlots:
    def test_empty_report_writes_nothing(self, tmp_path):
        report = Report(ExperimentConfig(experiment="action"))
        assert emit_plots(report, str(tmp_path)) == []
        assert not (tmp_path / "plots").exists()

    def test_bridge_plot_rows_monotone(self, tmp_path):
        cfg = make_config("bridge", N=800, output_dir=str(tmp_path))
        assert run(cfg) == 0
        rows = [
            tuple(map(float, line.split()))
            for line in (tmp_path / "plots" / "bridge_action_vs_log2_cutoff.dat")
            .read_text()
            .splitlines()
        ]
        assert len(rows) == 6
        ys = [y for _, y in rows]
        assert all(b > a for a, b in zip(ys, ys[1:]))

    def test_criticality_ratio_plot_positive_control(self, tmp_path):
        cfg = make_config("criticality", N=2500, M=200, output_dir=str(tmp_path))
        code = run(cfg)
        rows = [
            tuple(map(float, line.split()))
            for line in (tmp_path / "plots" / "residual_over_se.dat").read_text().splitlines()
        ]
        assert len(rows) == 6
        assert code == 0
        assert all(abs(y) <= 3 for _, y in rows)


class TestMainEntry:
    def test_usage_error_exit_one(self):
        assert main(["no-such-experiment"]) == 1

    def test_huge_seed_exit_one_with_one_line(self, tmp_path, capsys):
        argv = ["action", "--drift", "zero", "--seed", "99999999999999999999999", "--out", str(tmp_path)]
        assert main(argv) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: seed must be a non-negative 64-bit integer"]
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("experiment", STORED_ENSEMBLE)
    def test_infeasible_ensemble_exit_one_with_one_line(self, tmp_path, capsys, experiment):
        argv = [experiment, "--N", str(10**7), "--M", str(10**5), "--out", str(tmp_path)]
        assert main(argv) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "physical memory" in err[0]
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("experiment, M", [("simulate", "8"), ("criticality", "20")])
    def test_single_path_exit_one_with_one_line(self, tmp_path, capsys, experiment, M):
        # one path gave NaN variances and zero standard errors, and verdicts that passed
        assert main([experiment, "--N", "1", "--M", M, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: N must be at least 2: standard errors need two paths"]
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("amp", ["nan", "inf"])
    def test_non_finite_corruption_exit_one_with_one_line(self, tmp_path, capsys, amp):
        # a NaN bump once dropped out of the drift unseen, and every verdict passed
        argv = ["criticality", "--N", "50", "--M", "20", "--drift", f"corrupted:{amp}", "--out", str(tmp_path)]
        assert main(argv) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: drift spec 'corrupted:{amp}' needs a finite amplitude"]
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("experiment", ["minimality", "simulate", "action", "measure-preservation"])
    @pytest.mark.parametrize("T, step", [("5e-324", "0"), ("1e-320", "9.98e-322")])
    def test_degenerate_time_step_exit_one_with_one_line(self, tmp_path, capsys, experiment, T, step):
        # T/M underflowed to 0 or to a subnormal: a traceback, a NaN cast, or nonsense verdicts
        assert main([experiment, "--T", T, "--N", "10", "--M", "10", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: time step T/M = {step} is below the smallest normal float"]
        assert not (tmp_path / "report.json").exists()

    def test_allocation_failure_exit_one_with_one_line(self, tmp_path, capsys):
        # the K = 10^7 wavenumber grid asks for 2.84 PiB and fails before allocating
        assert main(["fields-check", "--K", "10000000", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: Unable to allocate")
        assert not (tmp_path / "report.json").exists()

    def test_missing_config_file_exit_one(self):
        assert main(["action", "--config", "/nonexistent.json"]) == 1

    def test_missing_spectral_file_exit_one_with_one_line(self, tmp_path, capsys):
        manifest = tmp_path / "absent" / "m.json"
        argv = ["simulate", "--drift", f"spectral-file:{manifest}", "--N", "10", "--M", "10", "--out", str(tmp_path)]
        assert main(argv) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "m.json" in err[0]
        assert not (tmp_path / "report.json").exists()

    def test_manifest_without_frames_exit_one_with_one_line(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"nu": 0.1, "times": [0.0, 1.0], "pressures": []}))
        argv = ["simulate", "--drift", f"spectral-file:{manifest}", "--N", "10", "--M", "10", "--out", str(tmp_path)]
        assert main(argv) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "'frames'" in err[0]
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize(
        "name, doc",
        [
            ("flow_frame_00001.json", {}),
            ("flow_frame_00001.json", {"K": 2, "mean": [0, 0], "modes": [{"k": [1, 0], "re": [0, 1]}]}),
            ("flow_pressure_00002.json", {"K": 2}),
        ],
    )
    def test_malformed_flow_file_exit_one_with_one_line(self, tmp_path, capsys, name, doc):
        manifest = taylor_green(0.1, 1.0, 2).save(str(tmp_path / "flow"))
        (tmp_path / "flow" / name).write_text(json.dumps(doc))
        argv = ["simulate", "--drift", f"spectral-file:{manifest}", "--N", "10", "--M", "10", "--out", str(tmp_path)]
        assert main(argv) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and name in err[0]
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: {**doc, "times": [t + 1.0 for t in doc["times"]]}, "time grid must start at 0"),
            (lambda doc: {**doc, "times": [], "frames": [], "pressures": []}, "time grid has no times"),
        ],
        ids=["shifted", "empty"],
    )
    def test_bad_time_grid_exit_one_with_one_line(self, tmp_path, capsys, edit, message):
        manifest = taylor_green(0.1, 1.0, 2).save(str(tmp_path / "flow"))
        with open(manifest) as fh:
            doc = edit(json.load(fh))
        with open(manifest, "w") as fh:
            json.dump(doc, fh)
        argv = ["simulate", "--drift", f"spectral-file:{manifest}", "--N", "50", "--M", "20", "--out", str(tmp_path)]
        assert main(argv) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {message}"]
        assert not (tmp_path / "report.json").exists()

    def test_simulate_with_step_count_not_divisible_by_four(self, tmp_path):
        # T/4 is off the grid at M = 150; the KS check uses grid indices
        argv = ["simulate", "--drift", "zero", "--N", "200", "--M", "150", "--out", str(tmp_path)]
        assert main(argv) in (0, 2)
        assert (tmp_path / "report.json").exists()

    def test_cli_subprocess_round_trip(self, tmp_path):
        out = tmp_path / "o"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "nsvlab.cli",
                "action",
                "--drift",
                "zero",
                "--N",
                "100",
                "--M",
                "20",
                "--out",
                str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (out / "report.json").exists()
