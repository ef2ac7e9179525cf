import contextvars
import json
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from hydrohist import cli
from hydrohist import scenarios as sc
from hydrohist.errors import (ConfigurationError, DivergenceError,
                              ScenarioError)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def write_config(tmp_path, body, name="config.json"):
    path = tmp_path / name
    path.write_text(body if isinstance(body, str) else json.dumps(body))
    return path


class TwoArgumentError(Exception):
    """An exception whose constructor needs more than a message, like
    numpy's out-of-memory error."""

    def __init__(self, message, dtype):
        super().__init__(message)
        self.dtype = dtype


def raise_two_argument_error(config):
    raise TwoArgumentError("unable to allocate", "complex128")


def minimal(scenario, **extra):
    raw = {"schema_version": 1, "scenario": scenario}
    raw.update(extra)
    return raw


class TestLoadConfig:
    def test_minimal_diffusion_gets_defaults(self, tmp_path):
        cfg = sc.load_config(write_config(tmp_path, minimal("diffusion")))
        assert cfg.scenario == "diffusion"
        assert cfg.params["gamma"] == 1.0
        assert cfg.grid["n_q"] == 481
        assert cfg.seed is None

    def test_overrides_merge(self, tmp_path):
        raw = minimal("diffusion", params={"gamma": 0.5},
                      grid={"n_q": 241}, seed=3)
        cfg = sc.load_config(write_config(tmp_path, raw))
        assert cfg.params["gamma"] == 0.5
        assert cfg.params["M"] == 1.0
        assert cfg.grid["n_q"] == 241
        assert cfg.seed == 3

    @pytest.mark.parametrize("scenario, section, key, value", [
        ("diffusion", "params", "gamma", 2),
        ("maxwellization", "grid", "q_max", 10 ** 30),
        ("oracle-compare", "grid", "master_x_max", 12),
    ])
    def test_float_keys_hold_floats(self, scenario, section, key, value):
        # an int given to a float key is stored, and echoed, as that float
        as_int, as_float = (
            sc.validate_config(minimal(scenario, **{section: {key: v}}))
            for v in (value, float(value)))
        assert as_int == as_float
        assert type(getattr(as_int, section)[key]) is float
        assert json.dumps(getattr(as_int, section)) == json.dumps(
            getattr(as_float, section))

    def test_int_too_large_for_a_float_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path, minimal("maxwellization",
                                              grid={"q_max": 10 ** 400}))
        assert cli.main(["validate", str(path)]) == 2
        assert "grid.q_max is too large for a float" in capsys.readouterr().err

    @pytest.mark.parametrize("scenario, key, value", [
        ("local-equilibrium-peaking", "mubar", [4, 0, 0]),
        ("local-equilibrium-peaking", "times", [0, 1]),
        ("conserved-decoherence", "times2", [0, 2]),
        ("conserved-decoherence", "times3", [0, 1.5, 2]),
    ])
    def test_float_list_keys_hold_floats(self, scenario, key, value):
        # each int in a list whose default holds floats is stored as that
        # float; a list of ints, such as N_values, keeps its ints
        as_int, as_float = (
            sc.validate_config(minimal(scenario, params={key: v}))
            for v in (value, [float(x) for x in value]))
        assert as_int == as_float
        assert all(type(x) is float for x in as_int.params[key])
        assert json.dumps(as_int.params) == json.dumps(as_float.params)
        sizes = sc.validate_config(minimal(
            "variance-scaling", params={"N_values": [10, 100]}))
        assert [type(n) for n in sizes.params["N_values"]] == [int, int]

    @pytest.mark.parametrize("scenario, key, value, where", [
        ("local-equilibrium-peaking", "mubar", [10 ** 400, 0, 0],
         "params.mubar[0]"),
        ("local-equilibrium-peaking", "times", [0, 10 ** 400],
         "params.times[1]"),
        ("conserved-decoherence", "times2", [0, 10 ** 400],
         "params.times2[1]"),
        ("conserved-decoherence", "times3", [0.3, 0.8, 10 ** 400],
         "params.times3[2]"),
    ])
    def test_list_int_too_large_for_a_float_rejected(self, tmp_path, capsys,
                                                     scenario, key, value,
                                                     where):
        path = write_config(tmp_path, minimal(scenario, params={key: value}))
        assert cli.main(["validate", str(path)]) == 2
        assert f"{where} is too large for a float" in capsys.readouterr().err
        assert cli.main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    def test_nonpositive_gamma_rejected(self, tmp_path):
        raw = minimal("diffusion", params={"gamma": 0})
        with pytest.raises(ConfigurationError, match="gamma must be positive"):
            sc.load_config(write_config(tmp_path, raw))

    @pytest.mark.parametrize("scenario, section, key, value", [
        ("histories-nscaling", "params", "N_max", "8"),
        ("histories-nscaling", "params", "N_max", 8.0),
        ("histories-nscaling", "params", "N_max", True),
        ("histories-nscaling", "params", "sigma", False),
        ("histories-nscaling", "params", "sigma", None),
        ("histories-nscaling", "params", "overlap", [0.8]),
        ("diffusion", "grid", "n_q", 481.5),
        ("conserved-decoherence", "params", "times2", [0.4, 1.1, "x"]),
        ("conserved-decoherence", "params", "times2", [0.4, True]),
        ("conserved-decoherence", "params", "times2", 0.4),
    ])
    def test_parameter_type_must_match_default(self, tmp_path, scenario,
                                               section, key, value):
        raw = minimal(scenario, **{section: {key: value}})
        with pytest.raises(ConfigurationError, match=f"{section}.{key} must"):
            sc.load_config(write_config(tmp_path, raw))

    @pytest.mark.parametrize("name, params", [
        ("diffusion", {"gamma": 2, "t_end": 12, "n_times": 6}),
        ("maxwellization", {"var_p0": 0.3}),
        ("variance-scaling", {"N_values": [10, 100], "var_q": 1.2}),
        ("conserved-decoherence", {"times2": [0.2, 1], "times3": [0.3, 0.8,
                                                                  1.5]}),
        ("local-equilibrium-peaking", {"beta": 3.1, "mubar": [5, 0.0, 0.0],
                                       "dephasing_rate": 70.5}),
        ("histories-nscaling", {"overlap": 0.7, "sigma": 0.9}),
    ])
    def test_numeric_overrides_accepted(self, tmp_path, name, params):
        cfg = sc.load_config(write_config(tmp_path, minimal(name,
                                                            params=params)))
        assert all(cfg.params[k] == v for k, v in params.items())

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")),
                             ids=lambda p: p.name)
    def test_shipped_configs_validate(self, path, tmp_path):
        cfg = sc.load_config(path)
        assert cfg.scenario == path.stem
        # report notes are read by people: plain numbers, no numpy reprs
        notes = sc.run_scenario(cfg, tmp_path).notes
        assert not [note for note in notes if "np." in note]
        # the Fokker-Planck runs name their step count and binding limit
        steps = {"diffusion": 240, "maxwellization": 120,
                 "oracle-compare": 240}.get(cfg.scenario)
        fp_notes = [note for note in notes if note.startswith("Fokker-Planck")]
        if steps is None:
            assert not fp_notes
        else:
            assert len(fp_notes) == 1
            assert fp_notes[0].startswith(f"Fokker-Planck: {steps} steps of "
                                          "dt up to ")
            assert fp_notes[0].endswith("limited by the courant term of the "
                                        "step bound")

    def test_duplicate_key_rejected(self, tmp_path):
        body = '{"schema_version": 1, "scenario": "diffusion", ' \
               '"scenario": "diffusion"}'
        with pytest.raises(ConfigurationError, match="duplicate key"):
            sc.load_config(write_config(tmp_path, body))

    def test_invalid_json_reports_position(self, tmp_path):
        with pytest.raises(ConfigurationError, match="line"):
            sc.load_config(write_config(tmp_path, '{"scenario": '))

    def test_unknown_keys_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="unknown config keys"):
            sc.load_config(write_config(
                tmp_path, minimal("diffusion", bogus=1)))
        with pytest.raises(ConfigurationError, match="unknown params keys"):
            sc.load_config(write_config(
                tmp_path, minimal("diffusion", params={"nope": 1})))

    def test_unknown_scenario_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            sc.load_config(write_config(tmp_path, minimal("warp-drive")))

    def test_schema_version_checked(self, tmp_path):
        raw = {"schema_version": 99, "scenario": "diffusion"}
        with pytest.raises(ConfigurationError, match="schema_version"):
            sc.load_config(write_config(tmp_path, raw))

    def test_sampling_scenario_needs_seed(self, tmp_path):
        with pytest.raises(ConfigurationError, match="seed"):
            sc.load_config(write_config(tmp_path, minimal("ehrenfest")))

    def test_bad_seed_rejected(self, tmp_path):
        raw = minimal("ehrenfest", seed=-1)
        with pytest.raises(ConfigurationError, match="seed"):
            sc.load_config(write_config(tmp_path, raw))

    def test_missing_file(self):
        with pytest.raises(ConfigurationError, match="does not exist"):
            sc.load_config("/nonexistent/config.json")


class TestCatalog:
    def test_exactly_eight_scenarios(self):
        names = [n for n, _ in sc.list_scenarios()]
        assert names == [
            "diffusion", "maxwellization", "oracle-compare",
            "variance-scaling", "histories-nscaling", "ehrenfest",
            "conserved-decoherence", "local-equilibrium-peaking",
        ]

    def test_each_entry_states_a_relation(self):
        for _, description in sc.list_scenarios():
            assert "=" in description

    def test_catalog_stable(self):
        assert sc.list_scenarios() == sc.list_scenarios()

    @pytest.mark.parametrize("scenario", ["variance-scaling",
                                          "local-equilibrium-peaking"])
    def test_thresholds_single_sourced(self, tmp_path, scenario):
        # the report judges each metric by its entry's (comparator,
        # threshold), in the entry's order
        report = sc.run_scenario(sc.validate_config(minimal(scenario)),
                                 tmp_path)
        declared = sc.SCENARIOS[scenario]["thresholds"]
        assert [(m.name, (m.comparator, m.threshold))
                for m in report.metrics] == list(declared.items())


class TestRunScenario:
    def run(self, tmp_path, scenario, **extra):
        cfg = sc.validate_config(minimal(scenario, **extra))
        return sc.run_scenario(cfg, output_dir=tmp_path), tmp_path

    def test_variance_scaling_passes(self, tmp_path):
        report, out = self.run(tmp_path, "variance-scaling")
        assert report.passed
        assert (out / "variance_scaling.csv").exists()
        data = json.loads(
            (out / "variance-scaling-report.json").read_text())
        assert data["passed"] is True
        assert {m["name"] for m in data["metrics"]} == \
            {"closed_form_deviation", "slope_deviation"}

    def test_histories_nscaling_passes(self, tmp_path):
        report, _ = self.run(tmp_path, "histories-nscaling")
        assert report.passed
        by_name = {m.name: m.value for m in report.metrics}
        assert by_name["geometric_ratio"] < 1.0
        assert by_name["epsilon8_over_epsilon1"] < 0.1

    @staticmethod
    def strict_report(out, scenario):
        """The report JSON, parsed with NaN and infinities rejected."""
        def reject(token):
            raise ValueError(f"report holds {token}")
        return json.loads((out / f"{scenario}-report.json").read_text(),
                          parse_constant=reject)

    def test_histories_nscaling_fits_where_epsilon_survives(self, tmp_path):
        # at sigma = 0.05, epsilon(8) underflows to exactly 0.0
        path = write_config(tmp_path, minimal("histories-nscaling",
                                              params={"sigma": 0.05}))
        assert cli.main(["run", str(path), "--out", str(tmp_path),
                         "--quiet"]) == 0
        data = self.strict_report(tmp_path, "histories-nscaling")
        assert 0.0 < data["metrics"][0]["value"] < 1.0
        assert "epsilon(N) = 0 at N = [8]; the fit leaves those N out" \
            in data["notes"]

    def test_histories_nscaling_without_two_points_fails(self, tmp_path,
                                                         capsys):
        # at sigma = 0.01 one history per N has zero probability and
        # epsilon vanishes for every N: the warnings become notes
        path = write_config(tmp_path, minimal("histories-nscaling",
                                              params={"sigma": 0.01}))
        assert cli.main(["run", str(path), "--out", str(tmp_path)]) == 1
        assert "geometric_ratio = n/a < 1 ... FAIL" in capsys.readouterr().out
        data = self.strict_report(tmp_path, "histories-nscaling")
        assert [(m["value"], m["passed"]) for m in data["metrics"]] == \
            [(None, False), (None, False)]
        assert any(note.startswith("N = 1: UserWarning: 1 zero-probability")
                   for note in data["notes"])
        assert "epsilon(N) > 0 at 0 N only; no ratio to fit" in data["notes"]

    def test_conserved_decoherence_passes(self, tmp_path):
        report, out = self.run(tmp_path, "conserved-decoherence")
        assert report.passed
        assert report.metrics[0].value < 1e-12
        rows = (out / "conserved_decoherence.csv").read_text().strip()
        assert rows.splitlines()[0] == "n_times,max_offdiagonal"
        assert len(rows.splitlines()) == 3

    def test_peaking_passes(self, tmp_path):
        report, _ = self.run(tmp_path, "local-equilibrium-peaking")
        assert report.passed
        by_name = {m.name: m for m in report.metrics}
        assert by_name["epsilon"].comparator == "<"
        assert by_name["on_trajectory_fraction"].comparator == ">="

    def test_ehrenfest_reproducible_csv(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            cfg = sc.validate_config(minimal("ehrenfest", seed=11))
            sc.run_scenario(cfg, output_dir=out)
        assert (a / "ehrenfest.csv").read_bytes() == \
            (b / "ehrenfest.csv").read_bytes()

    def test_ehrenfest_narrow_sigma_fails_with_note(self, tmp_path):
        report, _ = self.run(tmp_path, "ehrenfest", seed=11,
                             params={"sigma_factor": 0.5})
        assert not report.passed
        assert any("precondition" in note for note in report.notes)

    def test_module_error_carries_scenario_context(self, tmp_path):
        # validate now rejects t_start > t_end, so the config is built
        # directly to reach the module error inside the runner
        entry = sc.SCENARIOS["diffusion"]
        cfg = sc.ScenarioConfig(
            "diffusion", dict(entry["params"], t_start=5.0, t_end=4.0,
                              n_times=4), dict(entry["grid"]))
        with pytest.raises(Exception, match="scenario 'diffusion'"):
            sc.run_scenario(cfg, output_dir=tmp_path)

    def test_runner_error_chained_as_scenario_error(self, tmp_path,
                                                    monkeypatch):
        monkeypatch.setitem(sc.SCENARIOS["variance-scaling"], "run",
                            raise_two_argument_error)
        cfg = sc.validate_config(minimal("variance-scaling"))
        with pytest.raises(ScenarioError,
                           match="scenario 'variance-scaling'.*allocate") as info:
            sc.run_scenario(cfg, output_dir=tmp_path)
        assert isinstance(info.value.__cause__, TwoArgumentError)
        assert info.value.__cause__.dtype == "complex128"


class TestCli:
    def test_list(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        assert "diffusion:" in out and "ehrenfest:" in out

    def test_one_process_validates_then_runs(self, tmp_path, capsys):
        # the parser is built once per process and shared by every call
        path = write_config(tmp_path, minimal("variance-scaling"))
        assert cli.main(["validate", str(path)]) == 0
        assert cli.main(["run", str(path), "--out", str(tmp_path / "o"),
                         "--quiet"]) == 0
        assert cli._build_parser() is cli._build_parser()
        assert (tmp_path / "o").is_dir()
        assert "valid" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [[], ["frobnicate"], ["run"],
                                      ["list", "--seed", "3"]])
    def test_bad_argv_exits_two(self, argv, capsys):
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 2
            assert "usage: hydrohist" in capsys.readouterr().err
        assert cli.main(["list"]) == 0

    def test_validate_ok(self, tmp_path, capsys):
        path = write_config(tmp_path, minimal("variance-scaling"))
        assert cli.main(["validate", str(path)]) == 0
        assert "valid" in capsys.readouterr().out

    def test_validate_wrong_parameter_type_exit_two(self, tmp_path, capsys):
        path = write_config(tmp_path, minimal("histories-nscaling",
                                              params={"N_max": "8"}))
        assert cli.main(["validate", str(path)]) == 2
        assert "params.N_max" in capsys.readouterr().err

    @pytest.mark.parametrize("scenario, top, message", [
        pytest.param("local-equilibrium-peaking",
                     {"params": {"times": [0.1, 0.0]}},
                     "params.times", id="peaking-times-decreasing"),
        pytest.param("local-equilibrium-peaking",
                     {"params": {"times": [0.0, 0.1, 0.2]}},
                     "params.times", id="peaking-three-times"),
        pytest.param("local-equilibrium-peaking",
                     {"params": {"times": [-0.1, 0.1]}},
                     "params.times", id="peaking-negative-time"),
        pytest.param("local-equilibrium-peaking",
                     {"params": {"N": 0}}, "params.N",
                     id="peaking-no-particles"),
        pytest.param("local-equilibrium-peaking", {"params": {"mubar": [4.0]}},
                     "params.mubar", id="peaking-one-bin"),
        # the occupation table, C(N + B - 1, B - 1)^3 complex entries,
        # past 2^27 bytes: 210^3, 204^3 and 792^3 (7.9 GB) entries
        pytest.param("local-equilibrium-peaking",
                     {"params": {"N": 19}}, "params.N",
                     id="peaking-past-table-cap"),
        pytest.param("local-equilibrium-peaking",
                     {"params": {"mubar": [4.0, 0.0], "N": 203}}, "params.N",
                     id="peaking-two-bins-past-table-cap"),
        pytest.param("local-equilibrium-peaking",
                     {"params": {"mubar": [4.0] + [0.0] * 7, "N": 5}},
                     "params.N", id="peaking-eight-bins-past-table-cap"),
        pytest.param("local-equilibrium-peaking", {"params": {"N": 10 ** 12}},
                     "params.N", id="peaking-huge-N"),
        pytest.param("conserved-decoherence", {"params": {"bins": 3, "N": 11}},
                     "params.N", id="conserved-past-dimension-cap"),
        pytest.param("conserved-decoherence",
                     {"params": {"bins": 2, "N": 10 ** 12}},
                     "params.N", id="conserved-huge-N"),
        # past branch_count_functional's float limit: C(N, k) and the
        # branch law's largest term leave the normal floats near N = 1023
        pytest.param("histories-nscaling",
                     {"params": {"N_max": 1001}}, "params.N_max",
                     id="nscaling-past-float-limit"),
        pytest.param("histories-nscaling",
                     {"params": {"N_max": 2 ** 63}}, "params.N_max",
                     id="nscaling-huge-N"),
        pytest.param("local-equilibrium-peaking", {"params": {"beta": 0.0}},
                     "params.beta", id="peaking-zero-beta"),
        pytest.param("local-equilibrium-peaking",
                     {"params": {"dephasing_rate": -1.0}},
                     "params.dephasing_rate", id="peaking-negative-rate"),
        pytest.param("local-equilibrium-peaking",
                     {"params": {"tolerance_units": -1}},
                     "params.tolerance_units", id="peaking-negative-tube"),
        pytest.param("diffusion", {"params": {"n_times": 2}}, "params.n_times",
                     id="diffusion-two-times"),
        pytest.param("diffusion", {"params": {"t_start": 5.0, "t_end": 4.0}},
                     "params.t_start", id="diffusion-reversed-window"),
        pytest.param("diffusion", {"params": {"t_start": 4.0, "t_end": 4.0}},
                     "params.t_start", id="diffusion-empty-window"),
        # the exact kernel's evolved momentum would reach the p walls
        pytest.param("diffusion", {"params": {"kT": 5.0}}, "p domain",
                     id="diffusion-hot-p-domain"),
        pytest.param("oracle-compare", {"params": {"kT": 4.5}}, "p domain",
                     id="oracle-hot-p-domain"),
        # maxwellization's initial state must lie on its p axis
        pytest.param("maxwellization", {"grid": {"p_min": 1.0}}, "p domain",
                     id="maxwellization-initial-off-p-domain"),
        # step plans with no finite step count
        pytest.param("maxwellization", {"params": {"gamma": 1e308}},
                     "Fokker-Planck step plan", id="maxwellization-vast-gamma"),
        pytest.param("maxwellization", {"grid": {"p_min": -1e308}},
                     "Fokker-Planck step plan", id="maxwellization-vast-p"),
        pytest.param("diffusion", {"params": {"gamma": 1e308}},
                     "Fokker-Planck step plan", id="diffusion-vast-gamma"),
        pytest.param("oracle-compare", {"params": {"gamma": 1e308}},
                     "Fokker-Planck step plan", id="oracle-vast-gamma"),
        # JSON true is a bool, not the integer 1
        pytest.param("diffusion", {"schema_version": True}, "schema_version",
                     id="schema-version-true"),
        pytest.param("ehrenfest", {"seed": True}, "seed", id="seed-true"),
        # an unhashable scenario is unknown, not a crash
        pytest.param(["diffusion"], {}, "unknown scenario",
                     id="scenario-list"),
        pytest.param({"a": 1}, {}, "unknown scenario", id="scenario-object"),
    ])
    def test_validate_out_of_range_exit_two(self, tmp_path, capsys, scenario,
                                            top, message):
        path = write_config(tmp_path, minimal(scenario, **top))
        assert cli.main(["validate", str(path)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("scenario, params, grid, message", [
        pytest.param("histories-nscaling", {"N_max": 1}, {}, "params.N_max",
                     id="nscaling-one-point"),
        pytest.param("histories-nscaling", {"overlap": 1.5}, {},
                     "params.overlap", id="nscaling-overlap-above-one"),
        pytest.param("histories-nscaling", {"overlap": -1.0}, {},
                     "params.overlap", id="nscaling-cancelling-branches"),
        pytest.param("histories-nscaling", {"sigma": 0.0}, {}, "params.sigma",
                     id="nscaling-zero-sigma"),
        # p(a) p(a') scales as (2 pi sigma^2)^-2: it must neither overflow
        # nor underflow past the normal floats
        pytest.param("histories-nscaling", {"sigma": 1e308}, {},
                     "params.sigma", id="nscaling-sigma-square-overflows"),
        pytest.param("histories-nscaling", {"sigma": 10 ** 400}, {},
                     "params.sigma", id="nscaling-int-sigma-past-float"),
        pytest.param("histories-nscaling", {"sigma": 1e-200}, {},
                     "params.sigma", id="nscaling-sigma-square-underflows"),
        pytest.param("histories-nscaling", {"sigma": 1e82}, {},
                     "params.sigma", id="nscaling-wide-sigma"),
        pytest.param("histories-nscaling", {"sigma": 1e-160}, {},
                     "params.sigma", id="nscaling-narrow-sigma"),
        pytest.param("ehrenfest", {"n_seeds": 0}, {}, "params.n_seeds",
                     id="ehrenfest-no-instances"),
        pytest.param("ehrenfest", {"dim": 1}, {}, "params.dim",
                     id="ehrenfest-one-dimension"),
        pytest.param("ehrenfest", {"sigma_factor": 0.0}, {},
                     "params.sigma_factor", id="ehrenfest-zero-sigma"),
        # the exact probability would underflow to 0 at some center, and
        # the relative error divide by it
        pytest.param("ehrenfest", {"sigma_factor": 1e-12}, {},
                     "params.sigma_factor", id="ehrenfest-sigma-1e-12"),
        pytest.param("ehrenfest", {"sigma_factor": 1e-3}, {},
                     "params.sigma_factor", id="ehrenfest-sigma-1e-3"),
        pytest.param("ehrenfest", {"sigma_factor": 0.01}, {},
                     "params.sigma_factor", id="ehrenfest-sigma-0.01"),
        pytest.param("ehrenfest", {"dim": 2 ** 40}, {}, "params.dim",
                     id="ehrenfest-dim-past-the-cap"),
        # sigma = sigma_factor dA, and so the centers, would overflow
        pytest.param("ehrenfest", {"sigma_factor": 1.7e308}, {},
                     "params.sigma_factor", id="ehrenfest-sigma-1.7e308"),
        pytest.param("ehrenfest", {"sigma_factor": 5.6e303}, {},
                     "params.sigma_factor", id="ehrenfest-sigma-past-4-sigma"),
        pytest.param("conserved-decoherence", {"bins": 1}, {}, "params.bins",
                     id="conserved-one-bin"),
        pytest.param("conserved-decoherence", {"N": 0}, {}, "params.N",
                     id="conserved-no-particles"),
        pytest.param("conserved-decoherence", {"times2": [1.1, 0.4]}, {},
                     "params.times2", id="conserved-decreasing-times2"),
        pytest.param("conserved-decoherence", {"times3": [-0.3, 0.8, 1.5]},
                     {}, "params.times3", id="conserved-negative-times3"),
        pytest.param("conserved-decoherence", {"times2": []}, {},
                     "params.times2", id="conserved-no-times2"),
        pytest.param("variance-scaling", {"N_values": [100]}, {},
                     "params.N_values", id="variance-one-size"),
        pytest.param("variance-scaling", {"N_values": [0, 10]}, {},
                     "params.N_values", id="variance-zero-size"),
        pytest.param("variance-scaling", {"N_values": [10.5, 100]}, {},
                     "params.N_values", id="variance-fractional-size"),
        pytest.param("variance-scaling", {"var_q": -1.0}, {}, "params.var_q",
                     id="variance-negative-var-q"),
        pytest.param("variance-scaling", {}, {"q_min": 1.0}, "grid.q_min",
                     id="variance-bins-outside-grid"),
        pytest.param("maxwellization", {"t": -1.0}, {}, "params.t",
                     id="maxwellization-negative-time"),
        pytest.param("maxwellization", {"var_p0": 0.0}, {}, "params.var_p0",
                     id="maxwellization-zero-variance"),
        pytest.param("oracle-compare", {"t_kernel": -1.0}, {},
                     "params.t_kernel", id="oracle-negative-kernel-time"),
        pytest.param("oracle-compare", {"t_master": -1.0}, {},
                     "params.t_master", id="oracle-negative-master-time"),
        pytest.param("oracle-compare", {}, {"master_n_x": 7},
                     "grid.master_n_x", id="oracle-coarse-master-lattice"),
        pytest.param("diffusion", {"t_start": -1.0}, {}, "params.t_start",
                     id="diffusion-negative-start"),
        pytest.param("diffusion", {}, {"n_q": 7}, "grid.n_q",
                     id="diffusion-coarse-q"),
        pytest.param("maxwellization", {}, {"n_p": 7}, "grid.n_p",
                     id="maxwellization-coarse-p"),
        pytest.param("variance-scaling", {}, {"n_q": 7}, "grid.n_q",
                     id="variance-coarse-q"),
        pytest.param("oracle-compare", {}, {"n_p": 7}, "grid.n_p",
                     id="oracle-coarse-p"),
        pytest.param("diffusion", {}, {"q_max": -70.0}, "grid.q_min",
                     id="diffusion-reversed-q-extent"),
        pytest.param("maxwellization", {}, {"p_min": 7.0}, "grid.p_min",
                     id="maxwellization-reversed-p-extent"),
        # propagate_analytic would raise ResolutionError in the runner
        pytest.param("diffusion", {}, {"n_p": 8}, "grid spacing",
                     id="diffusion-under-sampled-p"),
        pytest.param("diffusion", {"kT": 0.05}, {}, "grid spacing",
                     id="diffusion-cold-under-sampled-p"),
        pytest.param("oracle-compare", {}, {"n_q": 40}, "grid spacing",
                     id="oracle-under-sampled-q"),
        # the state would reach the q walls of the Fokker-Planck integrator
        pytest.param("diffusion", {},
                     {"q_min": -8.0, "q_max": 8.0, "n_q": 129}, "q domain",
                     id="diffusion-small-q-domain"),
        pytest.param("maxwellization", {},
                     {"q_min": -4.0, "q_max": 4.0, "n_q": 65}, "q domain",
                     id="maxwellization-small-q-domain"),
        pytest.param("oracle-compare", {"t_master": 25.0}, {}, "q domain",
                     id="oracle-small-q-domain-at-master-time"),
        # the state is centred at 0: each side must hold 3 sigma
        pytest.param("diffusion", {}, {"q_min": 2}, "q domain",
                     id="diffusion-q-domain-misses-centre"),
        # the master lattice's conjugate momentum axis spans +/-1.7e-17
        pytest.param("oracle-compare", {}, {"master_x_max": 1.8e19},
                     "master lattice", id="oracle-coarse-master-momentum"),
        # 3 sigma fits these lattices, but l1_distance would refuse to
        # resample the evolved state for the mass on their boundary
        *(pytest.param("oracle-compare", {},
                       {"master_x_max": x_max, "master_n_x": n_x},
                       "master lattice", id=f"oracle-edge-mass-{x_max}-{n_x}")
          for x_max, n_x in ((40.0, 128), (50.0, 128), (60.0, 128),
                             (10.0, 32))),
        # an evolved variance near 1e308 is compared without overflowing,
        # and a rule that divides by an underflowed 2 M gamma fails
        pytest.param("diffusion", {"t_end": 1e308}, {}, "q domain",
                     id="diffusion-overflowing-t-end"),
        pytest.param("maxwellization", {"M": 1e-200, "gamma": 1e-200}, {},
                     "q domain", id="maxwellization-underflowing-rate"),
        # the Gibbs generator overflows, and eigh would not converge on it
        pytest.param("local-equilibrium-peaking", {"beta": 1e308}, {},
                     "Gibbs generator", id="peaking-overflowing-beta"),
        pytest.param("local-equilibrium-peaking",
                     {"mubar": [1e308, 0.0, 0.0]}, {}, "Gibbs generator",
                     id="peaking-overflowing-mubar"),
        # the outer bins of so narrow a state carry no mass, so the
        # relative fluctuation is undefined there
        pytest.param("variance-scaling", {"var_q": 1.8e-62}, {},
                     "positive mass", id="variance-massless-bins"),
        pytest.param("variance-scaling", {"var_q": 1e-200, "var_p": 1e-200},
                     {}, "positive mass", id="variance-underflowing-det"),
        pytest.param("variance-scaling", {}, {"n_q": 2 ** 40}, "bytes",
                     id="variance-grid-bytes"),
        # grids the run would allocate past the byte cap: 520 GB, 193 GB
        # and a 160 PB master density matrix
        pytest.param("diffusion", {}, {"n_q": 10 ** 9}, "bytes",
                     id="diffusion-grid-bytes"),
        pytest.param("maxwellization", {}, {"n_p": 10 ** 8}, "bytes",
                     id="maxwellization-grid-bytes"),
        pytest.param("oracle-compare", {}, {"master_n_x": 10 ** 8}, "bytes",
                     id="oracle-master-bytes"),
    ])
    def test_validate_out_of_range_before_run(self, tmp_path, capsys,
                                              scenario, params, grid,
                                              message):
        # rejected at validate, so run stops with the config exit code
        # before any work or output
        raw = minimal(scenario, params=params, grid=grid, seed=5)
        path = write_config(tmp_path, raw)
        assert cli.main(["validate", str(path)]) == 2
        assert message in capsys.readouterr().err
        assert cli.main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    def test_range_checks_see_disjoint_params_and_grid(self):
        for entry in sc.SCENARIOS.values():
            assert not set(entry["params"]) & set(entry["grid"])

    def test_edge_values_validate(self):
        for scenario, params in (
                ("histories-nscaling", {"N_max": 2, "overlap": -0.8}),
                ("ehrenfest", {"dim": 2, "n_seeds": 1}),
                ("conserved-decoherence", {"times2": [0.0], "N": 1}),
                ("variance-scaling", {"N_values": [1, 10.0]}),
                ("maxwellization", {"t": 0.0}),
                ("maxwellization", {"var_p0": 0.15}),
                ("maxwellization", {"var_p0": 0.45}),
                # no exact kernel runs here, so no p domain rule
                ("maxwellization", {"kT": 5.0}),
                # s_qq at gamma = 1e-10, t = 5 is 1.7e-8, not the 1414 the
                # cancelling closed form gave
                ("maxwellization", {"gamma": 1e-10}),
                ("oracle-compare", {"t_kernel": 0.0, "t_master": 0.0}),
                ("local-equilibrium-peaking", {"N": 10}),
                ("local-equilibrium-peaking", {"beta": 1e30}),
                # the variances perfbench draws
                ("variance-scaling", {"var_q": 0.5, "var_p": 2.0}),
                ("variance-scaling", {"var_q": 2.0, "var_p": 0.5}),
                ("local-equilibrium-peaking", {"mubar": [4.0, 0.0], "N": 11}),
                ("local-equilibrium-peaking", {"mubar": [4.0, 0.0], "N": 16}),
                ("local-equilibrium-peaking", {"N": 18}),
                ("local-equilibrium-peaking", {"mubar": [4.0, 0.0], "N": 202}),
                ("histories-nscaling", {"N_max": 12}),
                ("histories-nscaling", {"N_max": 1000})):
            sc.validate_config(minimal(scenario, params=params, seed=1))

    def test_master_plan_rule_reads_the_library_plan(self):
        # the rule's plan is evolve_master_equation's, 187 steps on the
        # default lattice; a mass so small that the kinetic scale overflows
        # leaves a step bound of 0 and no finite step count.  Other rules
        # refuse such a config first; this one holds on its own too
        entry = sc.SCENARIOS["oracle-compare"]
        merged = {**entry["params"], **entry["grid"]}
        assert sc._master_plan(merged)[0] == 187
        finite, message = sc._plan_rule(sc._master_plan, "master-equation")
        assert finite(merged)
        assert not finite({**merged, "M": 5e-307})
        assert "master-equation step plan" in message

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_ehrenfest_narrowest_sigma_runs(self, tmp_path, seed):
        # the smallest sigma_factor the ratio rule admits at dim 8 runs to a
        # finite tolerance miss (exit 1), with no RuntimeWarning
        raw = minimal("ehrenfest", seed=seed, params={"sigma_factor": 0.0267})
        path = write_config(tmp_path, raw)
        assert cli.main(["validate", str(path)]) == 0
        with pytest.raises(ConfigurationError, match="params.sigma_factor"):
            sc.validate_config(minimal("ehrenfest", seed=seed,
                                       params={"sigma_factor": 0.0266}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["run", str(path), "--out", str(tmp_path / "o"),
                             "--quiet"]) == 1
        report = json.loads(
            (tmp_path / "o" / "ehrenfest-report.json").read_text())
        assert all(np.isfinite(m["value"]) for m in report["metrics"])

    @pytest.mark.parametrize("seed", [0, 1])
    def test_ehrenfest_widest_sigma_runs(self, tmp_path, seed):
        # sigma = sigma_factor dA is finite but its square is not: the
        # Gaussian weights never form it, so the run ends in a verdict
        path = write_config(tmp_path, minimal(
            "ehrenfest", seed=seed, params={"sigma_factor": 1.3e154}))
        assert cli.main(["validate", str(path)]) == 0
        assert cli.main(["run", str(path), "--out", str(tmp_path / "o"),
                         "--quiet"]) in (0, 1)

    @pytest.mark.parametrize("factor", [1.4e154, 1e300, 5.4e303])
    def test_ehrenfest_sigma_past_its_square_runs(self, tmp_path, factor):
        # sigma_factor^2 overflows from 1.34e154, but the ratio rule forms
        # (1/sigma_factor)^2 and the run never squares it; 5.4e303 is the
        # widest the centers' bound admits at dim 8
        path = write_config(tmp_path, minimal(
            "ehrenfest", seed=17, params={"sigma_factor": factor}))
        assert cli.main(["validate", str(path)]) == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["run", str(path), "--out", str(tmp_path / "o"),
                             "--quiet"]) == 0

    @pytest.mark.parametrize("x_max, n_x", [(28.0, 128), (6.0, 32)])
    def test_oracle_widest_master_lattices_run(self, tmp_path, x_max, n_x):
        # near the edge-mass rule, on the admitted side: l1_distance
        # resamples the evolved state (the coarse lattice misses the L1
        # threshold, exit 1, but runs)
        path = write_config(tmp_path, minimal("oracle-compare", grid={
            "master_x_max": x_max, "master_n_x": n_x}))
        assert cli.main(["run", str(path), "--out", str(tmp_path / "o"),
                         "--quiet"]) == 1

    @pytest.mark.parametrize("sigma", [5e-78, 2e76])
    def test_nscaling_sigma_edges_run(self, tmp_path, sigma):
        # the widest and narrowest sigma the range rule admits run with no
        # RuntimeWarning, which pyproject.toml makes an error
        config = sc.validate_config(minimal(
            "histories-nscaling", params={"sigma": sigma, "N_max": 4}))
        sc.run_scenario(config, tmp_path)

    def test_peaking_keeps_what_the_dense_cap_admitted(self):
        # every (B, N) with B <= 4 and B^N <= 2^16 fits the table cap
        for b in (2, 3, 4):
            for n in range(1, 17):
                if b ** n <= 2 ** 16:
                    sc.validate_config(minimal(
                        "local-equilibrium-peaking",
                        params={"mubar": [4.0] + [0.0] * (b - 1), "N": n}))

    def test_peaking_past_the_old_cap_runs(self, tmp_path):
        # B = 3, N = 12 (3^12 > 2^16) has a 91^3 table, 12 MB; the fixed
        # one-unit tube holds less than 0.9 at this N, so the run misses
        # that threshold (exit 1) but completes
        path = write_config(tmp_path, minimal("local-equilibrium-peaking",
                                              params={"N": 12}))
        assert cli.main(["validate", str(path)]) == 0
        assert cli.main(["run", str(path), "--out", str(tmp_path / "o"),
                         "--quiet"]) == 1
        report = json.loads((tmp_path / "o" /
                             "local-equilibrium-peaking-report.json")
                            .read_text())
        metrics = {m["name"]: m for m in report["metrics"]}
        assert metrics["epsilon"]["passed"]
        assert not metrics["on_trajectory_fraction"]["passed"]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("sizes", [[1e20, 10], [1e308, 10]])
    def test_variance_scaling_past_int64_runs(self, tmp_path, sizes):
        path = write_config(tmp_path, minimal("variance-scaling",
                                              params={"N_values": sizes}))
        assert cli.main(["run", str(path), "--out", str(tmp_path / "o"),
                         "--quiet"]) == 0

    def test_runner_warnings_reach_the_report(self, tmp_path, monkeypatch):
        # every warning is noted, repeats included, after the runner's notes
        def warning_runner(config):
            for message in ("grid is coarse", "grid is coarse", "few seeds"):
                warnings.warn(message, UserWarning)
            return run_variance_scaling(config)

        run_variance_scaling = sc.SCENARIOS["variance-scaling"]["run"]
        monkeypatch.setitem(sc.SCENARIOS["variance-scaling"], "run",
                            warning_runner)
        report = sc.run_scenario(sc.validate_config(
            minimal("variance-scaling")), tmp_path)
        assert report.passed
        assert report.notes[1:] == (
            "UserWarning: grid is coarse", "UserWarning: grid is coarse",
            "UserWarning: few seeds")
        assert report.notes[0].startswith("log-log slope")

    @pytest.mark.parametrize("scenario", ["variance-scaling",
                                          "histories-nscaling"])
    def test_runner_warnings_made_errors_still_fail(self, tmp_path,
                                                    monkeypatch, scenario):
        # pyproject.toml makes RuntimeWarning an error; run_scenario keeps
        # that filter, so an overflow fails the run instead of becoming a
        # note, in histories-nscaling's per-N recorder too
        def overflow(*args):
            return np.float64(1e308) * 10.0

        if scenario == "variance-scaling":
            monkeypatch.setitem(sc.SCENARIOS[scenario], "run", overflow)
        else:
            monkeypatch.setattr(sc.hist, "consistency_epsilon", overflow)
        with pytest.raises(sc.ScenarioError, match="RuntimeWarning: "
                           "overflow encountered in scalar multiply"):
            sc.run_scenario(sc.validate_config(minimal(scenario)), tmp_path)

    def test_validate_bad(self, tmp_path, capsys):
        path = write_config(tmp_path, minimal("warp-drive"))
        assert cli.main(["validate", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_run_pass_exit_zero(self, tmp_path, capsys):
        path = write_config(tmp_path, minimal("variance-scaling"))
        code = cli.main(["run", str(path), "--out", str(tmp_path / "o")])
        assert code == 0
        out = capsys.readouterr().out
        assert "pass" in out

    def test_run_quiet(self, tmp_path, capsys):
        path = write_config(tmp_path, minimal("variance-scaling"))
        code = cli.main(["run", str(path), "--out", str(tmp_path / "o"),
                         "--quiet"])
        assert code == 0
        assert capsys.readouterr().out == ""

    def test_run_failure_exit_one(self, tmp_path, capsys):
        raw = minimal("ehrenfest", seed=11, params={"sigma_factor": 0.5})
        path = write_config(tmp_path, raw)
        code = cli.main(["run", str(path), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_run_error_exit_three(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(sc.SCENARIOS["variance-scaling"], "run",
                            raise_two_argument_error)
        path = write_config(tmp_path, minimal("variance-scaling"))
        assert cli.main(["run", str(path), "--out", str(tmp_path / "o")]) == 3
        assert "scenario 'variance-scaling'" in capsys.readouterr().err

    @pytest.mark.parametrize("scenario, key, value, code", [
        ("maxwellization", "q_max", 10 ** 30, 0),
        # its master lattice cannot hold the state: rejected at validate
        ("oracle-compare", "master_x_max", 2 ** 64, 2),
    ])
    def test_run_int_and_float_keys_exit_alike(self, tmp_path, capsys,
                                               scenario, key, value, code):
        # an int past int64 once built an object array and crashed the run
        for v in (value, float(value)):
            path = write_config(tmp_path, minimal(scenario, grid={key: v}))
            assert cli.main(["run", str(path), "--out", str(tmp_path / "o"),
                             "--quiet"]) == code
        assert "UFuncTypeError" not in capsys.readouterr().err

    @pytest.mark.parametrize("change", ["drop", "add"])
    def test_run_undeclared_metric_set_exit_three(self, tmp_path, capsys,
                                                  monkeypatch, change):
        # a runner reports exactly the metrics its entry declares
        def runner(config):
            values, artifacts, notes = run_variance_scaling(config)
            if change == "drop":
                del values["slope_deviation"]
            else:
                values["slope"] = -1.0
            return values, artifacts, notes

        run_variance_scaling = sc.SCENARIOS["variance-scaling"]["run"]
        monkeypatch.setitem(sc.SCENARIOS["variance-scaling"], "run", runner)
        path = write_config(tmp_path, minimal("variance-scaling"))
        out = tmp_path / "o"
        assert cli.main(["run", str(path), "--out", str(out)]) == 3
        assert "not the declared" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_run_configuration_error_in_runner_exit_three(
            self, tmp_path, capsys, monkeypatch):
        # a ConfigurationError raised after validate is a crash of the run,
        # not a bad config and not a tolerance miss
        def raise_configuration_error(config):
            raise ConfigurationError("projectors do not commute")

        monkeypatch.setitem(sc.SCENARIOS["variance-scaling"], "run",
                            raise_configuration_error)
        path = write_config(tmp_path, minimal("variance-scaling"))
        assert cli.main(["run", str(path), "--out", str(tmp_path / "o")]) == 3
        assert "ConfigurationError" in capsys.readouterr().err

    def test_run_out_is_a_file_exit_three_before_running(
            self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setitem(sc.SCENARIOS["variance-scaling"], "run",
                            lambda config: calls.append(config))
        path = write_config(tmp_path, minimal("variance-scaling"))
        afile = tmp_path / "afile"
        afile.write_text("not a directory")
        assert cli.main(["run", str(path), "--out", str(afile)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "output directory" in err
        assert calls == []
        assert afile.read_text() == "not a directory"

    def test_run_artifact_write_error_exit_three(self, tmp_path, capsys):
        out = tmp_path / "o"
        # a directory where the report file should go makes the write fail
        (out / "variance-scaling-report.json").mkdir(parents=True)
        path = write_config(tmp_path, minimal("variance-scaling"))
        assert cli.main(["run", str(path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "cannot write artifacts" in err

    def test_run_missing_seed_exit_two(self, tmp_path, capsys):
        path = write_config(tmp_path, minimal("ehrenfest"))
        assert cli.main(["run", str(path)]) == 2

    def test_run_seed_flag_overrides(self, tmp_path):
        path = write_config(tmp_path, minimal("ehrenfest"))
        code = cli.main(["run", str(path), "--out", str(tmp_path / "o"),
                         "--seed", "11", "--quiet"])
        assert code == 0
        data = json.loads(
            (tmp_path / "o" / "ehrenfest-report.json").read_text())
        assert data["seed"] == 11


class TestConcurrentRoutes:
    def test_routes_run_on_two_threads(self):
        var = contextvars.ContextVar("var")
        var.set("caller")
        seen = {}

        def route(name):
            seen[name] = (threading.current_thread(), var.get())
            return name

        assert sc._concurrently(lambda: route("first"),
                                lambda: route("second")) == ("first",
                                                             "second")
        assert seen["first"][0] is threading.current_thread()
        assert seen["second"][0] is not threading.current_thread()
        assert {value for _, value in seen.values()} == {"caller"}

    def test_an_error_is_raised_after_both_routes_end(self):
        error = DivergenceError("non-finite")
        done = threading.Event()

        def fail():
            raise error

        def slow():
            time.sleep(0.05)
            done.set()

        with pytest.raises(DivergenceError) as info:
            sc._concurrently(fail, slow)
        assert info.value is error and done.is_set()
        done.clear()
        with pytest.raises(DivergenceError) as info:
            sc._concurrently(slow, fail)
        assert info.value is error and done.is_set()

    def test_the_first_routes_error_wins(self):
        first, second = ValueError("first"), ValueError("second")

        def raise_(exc):
            raise exc

        with pytest.raises(ValueError) as info:
            sc._concurrently(lambda: raise_(first), lambda: raise_(second))
        assert info.value is first

    @pytest.mark.parametrize("name", ["evolve_master_equation",
                                      "evolve_fokker_planck"])
    def test_a_route_error_is_the_cause(self, tmp_path, capsys, monkeypatch,
                                        name):
        # oracle-compare runs the master route and the Fokker-Planck route
        # on two threads: an error of either is the ScenarioError's cause
        error = DivergenceError("step produced non-finite values")

        def diverge(*args):
            raise error

        monkeypatch.setattr(sc.pr, name, diverge)
        with pytest.raises(ScenarioError) as info:
            sc.run_scenario(sc.validate_config(minimal("oracle-compare")),
                            tmp_path)
        assert info.value.__cause__ is error
        path = write_config(tmp_path, minimal("oracle-compare"))
        assert cli.main(["run", str(path), "--out", str(tmp_path / "o")]) == 3
        assert "DivergenceError" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["evolve_master_equation",
                                      "evolve_fokker_planck"])
    def test_a_route_warning_reaches_the_notes(self, tmp_path, monkeypatch,
                                               name):
        evolve = getattr(sc.pr, name)

        def warn_and_evolve(*args):
            warnings.warn(f"{name} is coarse", UserWarning)
            return evolve(*args)

        monkeypatch.setattr(sc.pr, name, warn_and_evolve)
        report = sc.run_scenario(sc.validate_config(
            minimal("oracle-compare")), tmp_path)
        assert report.notes.count(f"UserWarning: {name} is coarse") == 1

    @pytest.mark.parametrize("scenario", ["diffusion", "oracle-compare"])
    def test_threads_do_not_change_the_artifacts(self, tmp_path, monkeypatch,
                                                 scenario):
        def one_after_another(first, second):
            return first(), second()

        written = []
        for serial in (False, True):
            if serial:
                monkeypatch.setattr(sc, "_concurrently", one_after_another)
            out = tmp_path / str(serial)
            report = sc.run_scenario(sc.validate_config(minimal(scenario)),
                                     out)
            data = json.loads(
                (out / f"{scenario}-report.json").read_text())
            del data["wall_time_s"]
            written.append((data, {name: (out / name).read_bytes()
                                   for name in report.artifacts}))
        assert written[0] == written[1]


def _fuzz_value(rng, default):
    """A JSON value for a key whose default is ``default``: mostly of the
    default's type, near the default or across magnitudes up to +/-1e308,
    else of another type."""
    def number(near):
        kind = rng.integers(6)
        if kind == 0:
            return float(rng.choice([0.0, -0.0, 1e308, -1e308, 5e-324]))
        if kind == 1:
            return int(rng.integers(-3, 25))
        if kind == 2:
            return int(rng.choice([-1, 2 ** 63, 2 ** 64, 10 ** 30]))
        if kind == 3:
            return float(rng.choice([-1.0, 1.0])
                         * 10.0 ** rng.uniform(-308.0, 308.0))
        return near * float(rng.uniform(0.5, 1.5))

    if rng.random() < 0.1:
        return [True, False, None, [], {}, "1", [True], {"a": 1}][
            rng.integers(8)]
    if isinstance(default, list):
        return [number(x) for x in default + default[:rng.integers(-1, 2)]]
    value = number(default)
    if isinstance(default, int) and not isinstance(value, int):
        return int(rng.integers(-3, 25))
    return value


def _fuzz_section(rng, defaults):
    section = {key: _fuzz_value(rng, value) for key, value in defaults.items()
               if rng.random() < 0.4}
    if rng.random() < 0.05:
        section["nope"] = 1.0
    return section


def _fuzz_config(rng):
    """A config whose top-level keys are each corrupted about 1 time in 20,
    so that most draws reach the range rules."""
    def pick(good, bad):
        return good if rng.random() < 0.95 else bad[rng.integers(len(bad))]

    names = list(sc.SCENARIOS)
    name = pick(names[rng.integers(len(names))],
                ["warp-drive", ["diffusion"], {"a": 1}, True, None, 3])
    raw = {"schema_version": pick(1, [True, 2, 1.0, "1", None]),
           "scenario": name}
    entry = sc.SCENARIOS.get(name if isinstance(name, str) else None,
                             sc.SCENARIOS["diffusion"])
    for section in ("params", "grid"):
        raw[section] = pick(_fuzz_section(rng, entry[section]),
                            [[], 1.0, True, "x", None])
    raw["seed"] = pick(int(rng.integers(0, 2 ** 63)),
                       [-1, 2 ** 64, True, 1.5, "3", []])
    raw["output_dir"] = pick("out", [3, [], {}])
    for key in ("schema_version", "scenario", "seed", "output_dir"):
        if rng.random() < 0.02:
            del raw[key]
    if rng.random() < 0.02:
        raw["extra"] = 1
    return raw


@pytest.mark.filterwarnings("error")
def test_validate_config_fuzz():
    # every drawn config validates or raises ConfigurationError; nothing
    # else escapes, and no warning (an overflow, say) is raised.  Configs
    # are validated only, never run: some that validate take GBs to run.
    rng = np.random.default_rng(20261019)
    outcomes = {"valid": 0, "rejected": 0}
    for _ in range(3000):
        raw = _fuzz_config(rng)
        try:
            sc.validate_config(json.loads(json.dumps(raw)))
        except ConfigurationError:
            outcomes["rejected"] += 1
        else:
            outcomes["valid"] += 1
    # the draws reach both outcomes, so the range rules run on real values
    assert min(outcomes.values()) >= 100, outcomes


def test_run_config_fuzz_histories(tmp_path):
    # the run half of the fuzz for the two histories scenarios: every draw
    # that validates runs without ScenarioError
    rng = np.random.default_rng(20261019)
    ran = {"conserved-decoherence": 0, "histories-nscaling": 0}
    for _ in range(3000):
        raw = _fuzz_config(rng)
        try:
            config = sc.validate_config(json.loads(json.dumps(raw)))
        except ConfigurationError:
            continue
        if config.scenario in ran:
            sc.run_scenario(config, tmp_path)
            ran[config.scenario] += 1
    # the draws reach both scenarios often enough to mean something
    assert min(ran.values()) >= 40, ran
