import json
import math

import pytest

from levyvolterra.cli import main
from levyvolterra.config import ConfigError, load_config, parse_config
from levyvolterra.reports import write_json


def minimal_config(**overrides):
    cfg = {
        "schema_version": 1,
        "kernel": {"family": "exponential", "rate": 1.0},
        "model": {"K": 1, "rule": "dirichlet_laplacian"},
        "triplet": {"drift": [0.0], "gauss_var": [1.0], "jump": None},
        "grid": {"t_end": 1.0, "n_steps": 100},
        "mc": {"n_samples": 2000, "seed": 7},
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return p


class TestConfigParsing:
    def test_minimal_valid(self, tmp_path):
        cfg = load_config(write_config(tmp_path, minimal_config()))
        assert cfg.model.K == 1
        assert cfg.n_samples == 2000
        assert cfg.panel_size == 40  # default
        assert cfg.triplet.jump is None

    def test_round_trips_losslessly(self, tmp_path):
        raw = minimal_config()
        cfg = load_config(write_config(tmp_path, raw))
        assert json.loads(json.dumps(cfg.raw)) == raw

    def test_zero_steps_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(minimal_config(grid={"t_end": 1.0, "n_steps": 0}))

    def test_unknown_key_named(self):
        cfg = minimal_config()
        cfg["kernell"] = {"family": "exponential", "rate": 1.0}
        with pytest.raises(ConfigError, match="kernell"):
            parse_config(cfg)

    def test_unknown_nested_key_named(self):
        cfg = minimal_config(kernel={"family": "exponential", "rate": 1.0, "rho": 2.0})
        with pytest.raises(ConfigError, match="rho"):
            parse_config(cfg)

    def test_dimension_mismatch(self):
        cfg = minimal_config(triplet={"drift": [0.0, 0.0], "gauss_var": [1.0, 1.0]})
        with pytest.raises(ConfigError, match="dimension"):
            parse_config(cfg)

    def test_jump_law_parsing(self):
        cfg = minimal_config(triplet={
            "drift": [0.0], "gauss_var": [0.0],
            "jump": {"rate": 2.0, "law": {"kind": "discrete_mixture",
                                          "weights": [0.5, 0.5], "atoms": [[1.0], [-1.0]]}},
        })
        parsed = parse_config(cfg)
        assert parsed.triplet.jump.rate == 2.0

    def test_bad_schema_version(self):
        with pytest.raises(ConfigError, match="schema_version"):
            parse_config(minimal_config(schema_version=99))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.json")

    def test_seed_range(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config(minimal_config(mc={"n_samples": 10, "seed": -1}))


# one config mutation per input the parser must refuse
BOUNDARY_CASES = {
    "n_samples-string": {"mc": {"n_samples": "abc", "seed": 7}},
    "n_samples-fraction": {"mc": {"n_samples": 1500.7, "seed": 7}},
    "n_samples-bool": {"mc": {"n_samples": True, "seed": 7}},
    "seed-fraction": {"mc": {"n_samples": 2000, "seed": 7.5}},
    "seed-string": {"mc": {"n_samples": 2000, "seed": "7"}},
    "seed-bool": {"mc": {"n_samples": 2000, "seed": False}},
    "panel_size-fraction": {"panel_size": 8.5},
    "panel_size-bool": {"panel_size": True},
    "n_steps-fraction": {"grid": {"t_end": 1.0, "n_steps": 100.5}},
    "n_steps-string": {"grid": {"t_end": 1.0, "n_steps": "100"}},
    "n_steps-bool": {"grid": {"t_end": 1.0, "n_steps": True}},
    "schema_version-bool": {"schema_version": True},
    "tabulated-kernel-too-short": {
        "kernel": {"family": "tabulated", "times": [0.0, 0.5, 0.9], "values": [1.0, 0.6, 0.4]}},
}


class TestConfigBoundaries:
    @pytest.mark.parametrize("case", sorted(BOUNDARY_CASES))
    def test_refused_by_parser(self, case):
        with pytest.raises(ConfigError):
            parse_config(minimal_config(**BOUNDARY_CASES[case]))

    @pytest.mark.parametrize("case", sorted(BOUNDARY_CASES))
    def test_exit_code_2(self, tmp_path, case, capsys):
        path = write_config(tmp_path, minimal_config(**BOUNDARY_CASES[case]))
        assert main(["resolvent", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_integral_float_and_exact_span_accepted(self):
        cfg = parse_config(minimal_config(
            kernel={"family": "tabulated", "times": [0.0, 0.5, 1.0], "values": [1.0, 0.6, 0.4]},
            grid={"t_end": 1.0, "n_steps": 100.0}))
        assert cfg.grid.n_steps == 100 and isinstance(cfg.grid.n_steps, int)

    def test_non_finite_resolvent_is_exit_2(self, tmp_path, capsys):
        cfg = minimal_config(model={"K": 2, "rule": "custom", "mu": [1e300, 1e305]},
                             triplet={"drift": [0.0, 0.0], "gauss_var": [1.0, 1.0]})
        path = write_config(tmp_path, cfg)
        for sub in ("resolvent", "study", "all"):
            out = tmp_path / sub
            assert main([sub, "--config", str(path), "--out", str(out)]) == 2
            assert "not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_reports_are_strict_json(self, tmp_path, bad):
        with pytest.raises(ValueError):
            write_json(tmp_path / "r.json", {"x": [1.0, bad]})
        assert not (tmp_path / "r.json").exists()


class TestCliExitCodes:
    def test_config_error_is_exit_2(self, tmp_path):
        cfg = minimal_config()
        cfg["kernell"] = 1
        path = write_config(tmp_path, cfg)
        assert main(["resolvent", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    def test_ecf_below_minimum_samples_is_exit_2(self, tmp_path):
        cfg = minimal_config(mc={"n_samples": 10, "seed": 1})
        path = write_config(tmp_path, cfg)
        assert main(["verify-ecf", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    def test_resolvent_passes_at_default_resolution(self, tmp_path):
        cfg = minimal_config(grid={"t_end": 1.0, "n_steps": 1000},
                             model={"K": 3, "rule": "dirichlet_laplacian"},
                             triplet={"drift": [0.0] * 3, "gauss_var": [1.0] * 3})
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["resolvent", "--config", str(path), "--out", str(out)]) == 0
        report = json.loads((out / "resolvent_report.json").read_text())
        assert report["passed"] is True
        closed = report["results"]["closed_form"]
        # the first two modes sit in the strict criterion range
        assert closed["max_error_per_mode"][0] <= 1e-5
        assert closed["max_error_per_mode"][1] <= 1e-5
        table = (out / "resolvent_table.csv").read_text().splitlines()
        assert table[0] == "t,s_1,s_2,s_3"
        assert len(table) == 1002

    def test_resolvent_detects_corrupted_accuracy_envelope(self, tmp_path):
        # a kernel lying about its decay rate makes the closed-form
        # comparison blow past the resolution-aware envelope
        cfg = minimal_config(grid={"t_end": 1.0, "n_steps": 1000},
                             kernel={"family": "exponential", "rate": 1.0},
                             model={"K": 1, "rule": "custom", "mu": [50.0]},
                             triplet={"drift": [0.0], "gauss_var": [1.0]})
        path = write_config(tmp_path, cfg)
        out = tmp_path / "o"
        assert main(["resolvent", "--config", str(path), "--out", str(out)]) == 0
        report = json.loads((out / "resolvent_report.json").read_text())
        err = report["results"]["closed_form"]["max_error_per_mode"][0]
        tol = report["results"]["closed_form"]["tolerance_per_mode"][0]
        assert err <= tol

    def test_verify_parts_passes(self, tmp_path):
        cfg = minimal_config(
            model={"K": 2, "rule": "dirichlet_laplacian"},
            triplet={"drift": [0.3, -0.2], "gauss_var": [1.0, 0.5],
                     "jump": {"rate": 2.0, "law": {"kind": "point_mass", "mark": [0.5, -0.5]}}},
            grid={"t_end": 1.0, "n_steps": 200},
            mc={"n_samples": 5, "seed": 11},
        )
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["verify-parts", "--config", str(path), "--out", str(out)]) == 0
        report = json.loads((out / "parts_report.json").read_text())
        assert report["results"]["max_relative_discrepancy"] <= 1e-12

    def test_simulate_writes_artifacts(self, tmp_path):
        cfg = minimal_config(
            triplet={"drift": [0.1], "gauss_var": [0.5],
                     "jump": {"rate": 3.0, "law": {"kind": "point_mass", "mark": [0.4]}}},
        )
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        for name in ("path.csv", "path_jumps.csv", "convolution.csv", "simulate_report.json"):
            assert (out / name).exists()

    def test_seed_override_changes_results(self, tmp_path):
        cfg = minimal_config()
        path = write_config(tmp_path, cfg)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(path), "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(path), "--out", str(out2), "--seed", "99"]) == 0
        assert (out1 / "path.csv").read_text() != (out2 / "path.csv").read_text()

    def test_repeat_runs_byte_identical(self, tmp_path):
        cfg = minimal_config(grid={"t_end": 1.0, "n_steps": 1000},
                             model={"K": 2, "rule": "dirichlet_laplacian"},
                             triplet={"drift": [0.0, 0.0], "gauss_var": [1.0, 0.5]})
        path = write_config(tmp_path, cfg)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["verify-ecf", "--config", str(path), "--out", str(out1)]) == 0
        assert main(["verify-ecf", "--config", str(path), "--out", str(out2), "--workers", "2"]) == 0
        assert (out1 / "ecf_report.json").read_bytes() == (out2 / "ecf_report.json").read_bytes()
        assert (out1 / "ecf_panel.csv").read_bytes() == (out2 / "ecf_panel.csv").read_bytes()

    @pytest.mark.parametrize("sub", ["simulate", "all"])
    def test_run_meta_records_stage_timings(self, tmp_path, sub):
        path = write_config(tmp_path, minimal_config())
        out = tmp_path / "out"
        assert main([sub, "--config", str(path), "--out", str(out)]) == 0
        timings = json.loads((out / "run_meta.json").read_text())["timings"]
        stages = (["resolvent", "simulate", "verify-parts", "verify-weak", "study", "verify-ecf"]
                  if sub == "all" else [sub])
        assert sorted(timings) == sorted(stages)
        for stage in stages:
            for key in ("wall_s", "cpu_s"):
                value = timings[stage][key]
                assert isinstance(value, float) and math.isfinite(value) and value >= 0.0
