import copy
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from levyvolterra import cli, spectral
from levyvolterra.cli import _out_dir, main
from levyvolterra.config import (
    JUMP_WORK_BUDGET,
    JUMPS_PER_PATH_BUDGET,
    NORMALS_BUDGET,
    PANEL_SIZE_BUDGET,
    SOLVE_WORK_BUDGET,
    ConfigError,
    RunConfig,
    load_config,
    parse_config,
)
from levyvolterra.reports import write_json
from stream_reference import block_budget


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


def unreadable_config(tmp_path, case):
    """A config path that exists but cannot be read as UTF-8 text."""
    if case == "directory":
        return tmp_path
    p = tmp_path / "latin1.json"
    p.write_bytes(b'{"schema_version": 1, "x": "\xe9"}')
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

    @pytest.mark.parametrize("case", ["directory", "non-utf8"])
    def test_unreadable_file(self, tmp_path, case):
        with pytest.raises(ConfigError, match="cannot read config file"):
            load_config(unreadable_config(tmp_path, case))

    def test_seed_range(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config(minimal_config(mc={"n_samples": 10, "seed": -1}))


@pytest.fixture
def no_resolvent_solve(monkeypatch):
    """Make any resolvent solve fail, so an oversized grid is never allocated."""

    def refuse(*args):
        raise AssertionError("solve_resolvent_modes called")

    monkeypatch.setattr(spectral, "solve_resolvent_modes", refuse)


@pytest.fixture
def no_monte_carlo(monkeypatch, no_resolvent_solve):
    """Make any path draw or ECF panel fail, so an oversized sample is never allocated."""
    from levyvolterra import characterization, levy

    def refuse(*args):
        raise AssertionError("Monte Carlo builder called")

    monkeypatch.setattr(levy, "_draw_blocks", refuse)
    monkeypatch.setattr(characterization, "build_panel", refuse)


# the solve a 10**13-step grid would need allocates 72.8 TiB for its nodes alone
HUGE_GRID = {"t_end": 1.0, "n_steps": 10**13}


def gaussian_jumps_config(K):
    """A consistent K-mode config whose jump law is Gaussian."""
    return {"model": {"K": K, "rule": "dirichlet_laplacian"},
            "triplet": {"drift": [0.0] * K, "gauss_var": [1.0] * K,
                        "jump": {"rate": 1.0,
                                 "law": {"kind": "gaussian", "mean": [0.0] * K, "var": [1.0] * K}}}}


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
    # the Hermite expectation of these laws would need 10**7 and 10**8 nodes
    "gaussian-jumps-K7": gaussian_jumps_config(7),
    "gaussian-jumps-K8": gaussian_jumps_config(8),
    "formats-number": {"output": {"directory": "out", "formats": 5}},
    "formats-string": {"output": {"directory": "out", "formats": "csv"}},
    "directory-null": {"output": {"directory": None, "formats": ["json"]}},
    "directory-number": {"output": {"directory": 5, "formats": ["json"]}},
    "directory-empty": {"output": {"directory": "", "formats": ["json"]}},
    "t_end-string": {"grid": {"t_end": "1.0", "n_steps": 100}},
    "t_end-bool": {"grid": {"t_end": True, "n_steps": 100}},
    "kernel-rate-string": {"kernel": {"family": "exponential", "rate": "2"}},
    "kernel-level-bool": {"kernel": {"family": "constant", "level": True}},
    "kernel-rate-infinite": {"kernel": {"family": "exponential", "rate": math.inf}},
    "kernel-times-string-entry": {
        "kernel": {"family": "tabulated", "times": [0.0, "0.5", 1.0], "values": [1.0, 0.6, 0.4]}},
    "jump-rate-string": {"triplet": {"drift": [0.0], "gauss_var": [1.0], "jump": {
        "rate": "3", "law": {"kind": "point_mass", "mark": [0.5]}}}},
    "jump-rate-list": {"triplet": {"drift": [0.0], "gauss_var": [1.0], "jump": {
        "rate": [3.0], "law": {"kind": "point_mass", "mark": [0.5]}}}},
    "mark-bool-entry": {"triplet": {"drift": [0.0], "gauss_var": [1.0], "jump": {
        "rate": 3.0, "law": {"kind": "point_mass", "mark": [True]}}}},
    "mixture-weights-string-entry": {"triplet": {"drift": [0.0], "gauss_var": [1.0], "jump": {
        "rate": 3.0, "law": {"kind": "discrete_mixture", "weights": ["0.5", 0.5],
                             "atoms": [[1.0], [-1.0]]}}}},
    "mu-string": {"model": {"K": 3, "rule": "custom", "mu": "123"},
                  "triplet": {"drift": [0.0] * 3, "gauss_var": [1.0] * 3}},
    "mu-bool-entry": {"model": {"K": 1, "rule": "custom", "mu": [True]}},
    "drift-string-entry": {"triplet": {"drift": ["0.0"], "gauss_var": [1.0]}},
    "drift-nan-entry": {"triplet": {"drift": [math.nan], "gauss_var": [1.0]}},
    "gauss_var-null-entry": {"triplet": {"drift": [0.0], "gauss_var": [None]}},
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

    def test_formats_string_refused_as_a_whole(self):
        # a string is not read as a list of one-letter format names
        with pytest.raises(ConfigError, match="output.formats must be a list"):
            parse_config(minimal_config(**BOUNDARY_CASES["formats-string"]))

    def test_model_K_checked_before_the_model_is_built(self, monkeypatch):
        from levyvolterra import config

        def refuse(*args):
            raise AssertionError("build_spectral_model called")

        # the Dirichlet eigenvalues of K = 10**9 modes would take 8 GB
        monkeypatch.setattr(config, "build_spectral_model", refuse)
        with pytest.raises(ConfigError, match="triplet dimension 1 != model K 1000000000"):
            parse_config(minimal_config(model={"K": 10**9, "rule": "dirichlet_laplacian"}))

    def test_solve_work_over_budget_refused(self, no_resolvent_solve):
        with pytest.raises(ConfigError, match=r"K \* n_steps\*\*2 = 1.00e\+26 steps"):
            parse_config(minimal_config(grid=HUGE_GRID))
        # the estimate is K * n_steps**2: the budget itself is admitted at K = 1
        edge = math.isqrt(SOLVE_WORK_BUDGET)
        assert parse_config(minimal_config(grid={"t_end": 1.0, "n_steps": edge})).grid.n_steps == edge
        two_modes = minimal_config(grid={"t_end": 1.0, "n_steps": edge},
                                   model={"K": 2, "rule": "dirichlet_laplacian"},
                                   triplet={"drift": [0.0, 0.0], "gauss_var": [1.0, 1.0]})
        with pytest.raises(ConfigError, match="above the budget"):
            parse_config(two_modes)

    def test_solve_work_over_budget_is_exit_2(self, tmp_path, capsys, no_resolvent_solve):
        path = write_config(tmp_path, minimal_config(grid=HUGE_GRID))
        assert main(["resolvent", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "K * n_steps**2" in err and "Traceback" not in err

    def test_integral_float_and_exact_span_accepted(self):
        cfg = parse_config(minimal_config(
            kernel={"family": "tabulated", "times": [0.0, 0.5, 1.0], "values": [1.0, 0.6, 0.4]},
            grid={"t_end": 1.0, "n_steps": 100.0}))
        assert cfg.grid.n_steps == 100 and isinstance(cfg.grid.n_steps, int)

    def test_gaussian_jumps_within_hermite_budget_accepted(self):
        assert parse_config(minimal_config(**gaussian_jumps_config(6))).triplet.jump.law.dim == 6

    def test_gaussian_jumps_parse_without_a_hermite_grid(self, monkeypatch):
        from levyvolterra import levy

        def refuse(*args):
            raise AssertionError("jump_rule called")

        # the compensator of this law is a 10**6-point quadrature (0.36 s and
        # 237 MB); the parser checks the budget and leaves it to first use
        monkeypatch.setattr(levy, "jump_rule", refuse)
        jump = parse_config(minimal_config(**gaussian_jumps_config(6))).triplet.jump
        with pytest.raises(AssertionError, match="jump_rule called"):
            jump.compensator

    def test_non_finite_resolvent_is_exit_2(self, tmp_path, capsys):
        cfg = minimal_config(model={"K": 2, "rule": "custom", "mu": [1e300, 1e305]},
                             triplet={"drift": [0.0, 0.0], "gauss_var": [1.0, 1.0]})
        path = write_config(tmp_path, cfg)
        for sub in ("resolvent", "study", "all"):
            out = tmp_path / sub
            assert main([sub, "--config", str(path), "--out", str(out)]) == 2
            assert "not finite" in capsys.readouterr().err

    def test_past_the_gregory_stability_limit(self, tmp_path, capsys):
        # gamma * dt = 100 at mu = 1e5 and n_steps = 1000, far past the
        # rule's monotone range gamma * dt * a(0) <= 1.5: the table either
        # fails its checks (exit 1) or overflows (exit 2), with no traceback
        cfg = copy.deepcopy(EXAMPLE_CONFIG)
        cfg["model"] = {"K": 2, "rule": "custom", "mu": [2000, 1e5]}
        path = write_config(tmp_path, cfg)
        assert main(["resolvent", "--config", str(path), "--out", str(tmp_path / "o")]) in (1, 2)
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_reports_are_strict_json(self, tmp_path, bad):
        with pytest.raises(ValueError):
            write_json(tmp_path / "r.json", {"x": [1.0, bad]})
        assert not (tmp_path / "r.json").exists()


EXAMPLE_CONFIG = json.loads((Path(__file__).parents[1] / "example-config.json").read_text())

# every value json.loads can return, NaN and the infinities included, and
# sizes far beyond every budget
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from([10**12, 10**300, 1e300]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=8,
)


def _node_paths(node, prefix=()):
    """Key paths of every value below node: object members and array entries."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _node_paths(child, prefix + (key,))


@st.composite
def one_leaf_mutations(draw):
    """The example config with one value replaced, deleted, or one value added beside it."""
    cfg = copy.deepcopy(EXAMPLE_CONFIG)
    path = draw(st.sampled_from(list(_node_paths(cfg))))
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    op = draw(st.sampled_from(["replace", "delete", "add"]))
    if op == "replace":
        parent[path[-1]] = draw(JSON_VALUES)
    elif op == "delete":
        del parent[path[-1]]
    elif isinstance(parent, dict):
        parent[draw(st.text(max_size=6))] = draw(JSON_VALUES)
    else:
        parent.insert(path[-1], draw(JSON_VALUES))
    return cfg


def example_with(*changes):
    """A copy of example-config.json with the value at each (key path, value) pair replaced."""
    cfg = copy.deepcopy(EXAMPLE_CONFIG)
    for where, value in changes:
        parent = cfg
        for key in where[:-1]:
            parent = parent[key]
        parent[where[-1]] = value
    return cfg


# the largest jump rate example-config.json admits (t_end 1): 10**4 jumps per path
MOST_JUMPS = (("triplet", "jump", "rate"), JUMPS_PER_PATH_BUDGET)

# Monte Carlo sizes on example-config.json (n_steps 1000, K 2, t_end 1): a
# (10**12, 2) terminal-value array, a panel loop of 10**12 rows, 10**12 jump
# times per path, 10**9 jumps drawn by verify-ecf, 1.4e9 jump weights per
# convolution; ((key path, value) pairs, refusal message)
HUGE_MONTE_CARLO = {
    "n_samples": ([(("mc", "n_samples"), 10**12)],
                  r"n_samples \* n_steps \* K = 2.00e\+15 normals"),
    "panel_size": ([(("panel_size",), 10**12)], "panel_size = 1000000000000 is above the budget"),
    "jump-rate": ([(("triplet", "jump", "rate"), 1e12)], r"1e\+12 expected jumps per path"),
    "jumps-drawn": ([MOST_JUMPS, (("mc", "n_samples"), 10**5)],
                    r"grid\.t_end = 1e\+09 jumps drawn by verify-ecf, above the budget"),
    "jump-weights": ([MOST_JUMPS, (("grid", "n_steps"), 70000)],
                     r"\* K = 1\.4e\+09 jump weights per convolution, above the budget"),
}


class TestConfigMutations:
    def test_example_config_parses(self):
        assert isinstance(parse_config(copy.deepcopy(EXAMPLE_CONFIG)), RunConfig)

    @pytest.mark.parametrize("n_steps", [10**13, 1e300])
    def test_huge_n_steps_is_refused(self, no_resolvent_solve, n_steps):
        cfg = copy.deepcopy(EXAMPLE_CONFIG)
        cfg["grid"]["n_steps"] = n_steps
        with pytest.raises(ConfigError, match="above the budget"):
            parse_config(cfg)

    @pytest.mark.parametrize("case", sorted(HUGE_MONTE_CARLO))
    def test_huge_monte_carlo_size_is_refused(self, no_monte_carlo, case):
        changes, message = HUGE_MONTE_CARLO[case]
        with pytest.raises(ConfigError, match=message):
            parse_config(example_with(*changes))

    @pytest.mark.parametrize("fixed, where, edge", [
        ([], ("mc", "n_samples"), NORMALS_BUDGET // (1000 * 2)),
        ([], ("panel_size",), PANEL_SIZE_BUDGET),
        ([], ("triplet", "jump", "rate"), JUMPS_PER_PATH_BUDGET),
        ([MOST_JUMPS], ("mc", "n_samples"), JUMP_WORK_BUDGET // JUMPS_PER_PATH_BUDGET),
        ([MOST_JUMPS], ("grid", "n_steps"), JUMP_WORK_BUDGET // (JUMPS_PER_PATH_BUDGET * 2)),
    ])
    def test_monte_carlo_budgets_admit_their_edge(self, no_monte_carlo, fixed, where, edge):
        assert isinstance(parse_config(example_with(*fixed, (where, edge))), RunConfig)
        with pytest.raises(ConfigError, match="above the budget"):
            parse_config(example_with(*fixed, (where, edge + 1)))

    # the fixture only patches the builders, the same for every example
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(one_leaf_mutations())
    def test_one_leaf_mutation_parses_or_is_refused(self, no_monte_carlo, cfg):
        try:
            parsed = parse_config(cfg)
        except ConfigError:
            return
        assert isinstance(parsed, RunConfig)


# every config section, with one of its required keys; one reader checks each
SECTIONS = [("kernel", "rate"), ("model", "rule"), ("triplet", "drift"), ("triplet.jump", "rate"),
            ("triplet.jump.law", "mark"), ("grid", "n_steps"), ("mc", "seed"),
            ("output", "directory")]


def section_of(where):
    section = EXAMPLE_CONFIG
    for key in where.split("."):
        section = section[key]
    return section


class TestSectionShape:
    @pytest.mark.parametrize("fault", ["not-an-object", "unknown-key", "missing-key"])
    @pytest.mark.parametrize("where, key", SECTIONS)
    def test_fault_names_section_and_key(self, where, key, fault):
        section = section_of(where)
        if fault == "not-an-object":
            section, message = [1.0], f"{where} must be an object"
        elif fault == "unknown-key":
            section, message = {**section, "extra": 1.0}, f"unknown key 'extra' in {where}"
        else:
            section = {name: value for name, value in section.items() if name != key}
            message = f"missing key {key!r} in {where}"
        with pytest.raises(ConfigError) as exc:
            parse_config(example_with((tuple(where.split(".")), section)))
        assert str(exc.value).startswith(message)

    @pytest.mark.parametrize("value", [["exponential"], 5, None], ids=["list", "number", "null"])
    @pytest.mark.parametrize("where, tag", [("kernel", "family"), ("model", "rule"),
                                            ("triplet.jump.law", "kind")])
    def test_kind_that_is_not_a_string(self, where, tag, value):
        with pytest.raises(ConfigError) as exc:
            parse_config(example_with(((*where.split("."), tag), value)))
        assert str(exc.value) == f"unknown {tag} {value!r} in {where}"


def blocked_output(tmp_path, where):
    """(config path, --out value or None) whose output directory is a regular file."""
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    directory = blocker if where == "output.directory" else tmp_path / "unused"
    path = write_config(tmp_path, minimal_config(
        output={"directory": str(directory), "formats": ["json"]}))
    return path, (str(blocker) if where == "--out" else None)


class TestCliExitCodes:
    def test_verify_weak_passes_on_jump_only_example(self, tmp_path):
        # a jump inside a cell gives the trapezoid an O(dt) excess that
        # depends on where the jump falls; the weak study subtracts it, so
        # every pure-jump seed decreases strictly
        cfg = example_with((("triplet", "drift"), [0.0, 0.0]), (("triplet", "gauss_var"), [0.0, 0.0]),
                           (("triplet", "jump", "law", "mark"), [1.2, -0.4]))
        assert cfg["triplet"]["jump"]["rate"] == 1.5
        path = write_config(tmp_path, cfg)
        assert main(["verify-weak", "--config", str(path), "--out", str(tmp_path / "out")]) == 0

    def test_config_error_is_exit_2(self, tmp_path):
        cfg = minimal_config()
        cfg["kernell"] = 1
        path = write_config(tmp_path, cfg)
        assert main(["resolvent", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("case", ["directory", "non-utf8"])
    def test_unreadable_config_is_exit_2(self, tmp_path, case, capsys):
        path = unreadable_config(tmp_path, case)
        assert main(["resolvent", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err

    @pytest.mark.parametrize("case", ["deep-nesting", "long-integer"])
    def test_undecodable_config_is_exit_2(self, tmp_path, case, capsys):
        # past the recursion limit, and past the int digit limit of json.loads
        if case == "deep-nesting":
            text = json.dumps(minimal_config())[:-1] + ', "extra": ' + "[" * 5000 + "]" * 5000 + "}"
        else:
            text = json.dumps(minimal_config(mc={"n_samples": 2000, "seed": 0})).replace(
                '"seed": 0', '"seed": ' + "1" * 5000)
        path = tmp_path / "cfg.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match="config is not valid JSON"):
            load_config(path)
        out = tmp_path / "o"
        assert main(["all", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err
        assert not out.exists()

    def test_output_directory_with_a_nul_byte(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path, minimal_config(
            output={"directory": "a\u0000b", "formats": ["json"]}))
        with pytest.raises(ConfigError, match="cannot create output directory"):
            _out_dir(load_config(path), None)
        with pytest.raises(ConfigError, match="cannot create output directory"):
            _out_dir(load_config(path), "c\u0000d")
        assert main(["resolvent", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize("where", ["--out", "output.directory"])
    def test_output_path_that_is_a_file(self, tmp_path, where):
        path, out = blocked_output(tmp_path, where)
        with pytest.raises(ConfigError, match="cannot create output directory"):
            _out_dir(load_config(path), out)

    @pytest.mark.parametrize("where", ["--out", "output.directory"])
    def test_output_path_that_is_a_file_is_exit_2(self, tmp_path, where, capsys):
        path, out = blocked_output(tmp_path, where)
        assert main(["resolvent", "--config", str(path)] + (["--out", out] if out else [])) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err
        assert not (tmp_path / "unused").exists()
        assert (tmp_path / "blocker").read_text() == ""

    @pytest.mark.parametrize("case", sorted(HUGE_MONTE_CARLO))
    def test_huge_monte_carlo_size_is_exit_2(self, tmp_path, capsys, no_monte_carlo, case):
        changes, _ = HUGE_MONTE_CARLO[case]
        path = write_config(tmp_path, example_with(*changes))
        out = tmp_path / "o"
        assert main(["all", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "above the budget" in err and "Traceback" not in err
        assert not out.exists()

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

    def test_verify_parts_reads_one_draw(self, tmp_path, monkeypatch):
        # blocks of 2 over the 5 outcomes: each block row is the outcome
        # sample_path draws, so per_seed is the per-path loop's
        from levyvolterra import levy
        from levyvolterra.convolution import TagRule, parts_convolution, stieltjes_convolution

        cfg = minimal_config(
            model={"K": 2, "rule": "dirichlet_laplacian"},
            triplet={"drift": [0.3, -0.2], "gauss_var": [1.0, 0.5],
                     "jump": {"rate": 2.0, "law": {"kind": "point_mass", "mark": [0.5, -0.5]}}},
            grid={"t_end": 1.0, "n_steps": 200},
            mc={"n_samples": 5, "seed": 11},
        )
        run = load_config(write_config(tmp_path, cfg))
        monkeypatch.setattr(levy, "_BLOCK_BYTES", block_budget(run.triplet, run.grid, 2))
        calls, real = [], levy._draw_blocks

        def recording(*args):
            calls.append(args[3])
            yield from real(*args)

        monkeypatch.setattr(levy, "_draw_blocks", recording)
        out = tmp_path / "out"
        assert main(["verify-parts", "--config", str(tmp_path / "cfg.json"),
                     "--out", str(out)]) == 0
        assert calls == [range(5)]
        fam = spectral.build_resolvent_family(run.model, run.kernel, run.grid)
        per_path = []
        for idx in range(5):
            path = levy.sample_path(run.triplet, run.grid, idx, run.seed)
            a = stieltjes_convolution(fam, path, TagRule.LEFT).values
            b = parts_convolution(fam, path).values
            per_path.append(float(np.max(np.abs(a - b))) / float(np.max(np.abs(a))))
        report = json.loads((out / "parts_report.json").read_text())
        assert report["results"]["per_seed"] == per_path

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


class TestSharedFamilies:
    def test_all_solves_each_grid_once(self, tmp_path, monkeypatch):
        # example-config.json: n = 1000, verify-weak levels 200 and 40, study
        # levels 500 and 250, so five grids in all
        from levyvolterra import cli

        grids = []
        build = cli.build_resolvent_family

        def counted(model, kernel, grid):
            grids.append(grid)
            return build(model, kernel, grid)

        monkeypatch.setattr(cli, "build_resolvent_family", counted)
        config = Path(__file__).parents[1] / "example-config.json"
        assert main(["all", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        assert sorted(g.n_steps for g in grids) == [40, 200, 250, 500, 1000]

    def test_study_without_closed_form_oracle(self, tmp_path):
        # the closed form is the resolvent of a(t) = exp(-t) only, so a
        # rate-2 kernel has no resolvent_error target and a correct solve
        # passes
        cfg = copy.deepcopy(EXAMPLE_CONFIG)
        cfg["kernel"]["rate"] = 2.0
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["study", "--config", str(path), "--out", str(out)]) == 0
        results = json.loads((out / "study_report.json").read_text())["results"]
        assert sorted(results) == ["tag_discrepancy", "weak_residual"]


class TestEcfThresholds:
    def test_one_definition_drives_echo_and_verdict(self, tmp_path, monkeypatch):
        from levyvolterra import characterization

        path = write_config(tmp_path, minimal_config(grid={"t_end": 1.0, "n_steps": 20},
                                                     mc={"n_samples": 1000, "seed": 7},
                                                     panel_size=4))

        def run(name):
            out = tmp_path / name
            rc = main(["verify-ecf", "--config", str(path), "--out", str(out)])
            report = json.loads((out / "ecf_report.json").read_text())
            return rc, report["thresholds"], report["passed"]

        assert run("default") == (0, {"z_soft": 3.0, "z_hard": 5.0, "frac_within_soft": 0.95,
                                      "covariance_z": 4.0}, True)
        # no z-score is exactly 0, so none is within a soft bound of 0
        monkeypatch.setattr(characterization, "ECF_Z_SOFT", 0.0)
        rc, thresholds, passed = run("soft")
        assert (rc, thresholds["z_soft"], passed) == (1, 0.0, False)
        monkeypatch.setattr(characterization, "ECF_FRACTION", 0.0)
        rc, thresholds, passed = run("fraction")
        assert (rc, thresholds["frac_within_soft"], passed) == (0, 0.0, True)
        monkeypatch.setattr(characterization, "ECF_Z_HARD", 0.0)
        rc, thresholds, passed = run("hard")
        assert (rc, thresholds["z_hard"], passed) == (1, 0.0, False)


STAGES = ["resolvent", "simulate", "verify-parts", "verify-weak", "study", "verify-ecf"]

# triplets whose LEFT and RIGHT tag sums agree bit for bit: no noise at all,
# and jumps alone (|mark| > 1, so no compensator enters the pathwise drift)
ZERO_NOISE = {"drift": [0.0, 0.0], "gauss_var": [0.0, 0.0], "jump": None}
JUMPS_ONLY = {"drift": [0.0, 0.0], "gauss_var": [0.0, 0.0],
              "jump": {"rate": 1.5, "law": {"kind": "point_mass", "mark": [1.2, -0.4]}}}


def example_out(tmp_path, name, args, config=None):
    """main(args) on config (default example-config.json) into tmp_path / name."""
    out = tmp_path / name
    path = config or Path(__file__).parents[1] / "example-config.json"
    return main(args + ["--config", str(path), "--out", str(out)]), out


class TestStageTable:
    @pytest.mark.parametrize("sub", ["verify-parts", "all"])
    def test_failed_variation_certificate_is_a_failed_check(self, tmp_path, sub, capsys):
        # s(t) of this kernel rises again after its first dip, so summation
        # by parts is inapplicable: verify-parts fails and every stage still runs
        cfg = copy.deepcopy(EXAMPLE_CONFIG)
        cfg["kernel"] = {"family": "tabulated", "times": [0.0, 1.0], "values": [1.0, -5.0]}
        rc, out = example_out(tmp_path, "out", [sub], write_config(tmp_path, cfg))
        assert rc == 1
        assert "Traceback" not in capsys.readouterr().err
        parts = json.loads((out / "parts_report.json").read_text())
        assert parts["passed"] is False
        assert parts["results"]["failing_modes"] == [0, 1]
        assert parts["results"]["max_increase"] > parts["results"]["certificate_tolerance"]
        if sub == "all":
            assert json.loads((out / "summary.json").read_text())["verdicts"]["verify-parts"] is False
            assert sorted(json.loads((out / "run_meta.json").read_text())["timings"]) == sorted(STAGES)

    @pytest.mark.parametrize("changes, args, message", [
        ([(("mc", "n_samples"), 500)], [], "verify-ecf needs mc.n_samples >= 1000, got 500"),
        ([(("grid", "n_steps"), 1002)], [], "grid.n_steps admits no 3-level refinement"),
        ([(("triplet",), ZERO_NOISE)], [], "study needs a nonzero pathwise drift or gauss_var"),
        ([(("triplet",), JUMPS_ONLY)], [], "study needs a nonzero pathwise drift or gauss_var"),
        # verify-weak refines 27 steps by (9, 3, 1); study needs divisibility by 4
        ([(("grid", "n_steps"), 27)], [], "grid.n_steps must be divisible by 4"),
        ([], ["--seed", "-1"], "--seed must be a 64-bit unsigned value"),
        ([], ["--seed", str(2**64)], "--seed must be a 64-bit unsigned value"),
        ([], ["--workers", "0"], "--workers must be >= 1"),
    ], ids=["few-samples", "n_steps-1002", "zero-noise", "jumps-only", "n_steps-27",
            "seed-negative", "seed-2**64", "workers-0"])
    def test_all_refuses_before_it_writes(self, tmp_path, capsys, changes, args, message):
        # a later stage's precondition or an option fails: no stage writes a report
        path = write_config(tmp_path, example_with(*changes))
        rc, out = example_out(tmp_path, "out", ["all", *args], path)
        assert rc == 2
        err = capsys.readouterr().err
        assert f"config error: {message}" in err and "Traceback" not in err
        assert not out.exists()

    def test_stage_runs_when_its_own_precondition_holds(self, tmp_path):
        # n_steps 1002 has no refinement levels, which resolvent never needs
        path = write_config(tmp_path, example_with((("grid", "n_steps"), 1002)))
        rc, out = example_out(tmp_path, "out", ["resolvent"], path)
        assert rc == 0
        assert json.loads((out / "resolvent_report.json").read_text())["passed"] is True

    def test_zero_noise_triplet(self, tmp_path, capsys):
        # every coupled outcome is the zero path: verify-weak's residuals are
        # all 0, so the per-seed decrease fails (exit 1), and study's tag
        # discrepancy would be exactly 0, so study refuses the config (exit 2)
        path = write_config(tmp_path, example_with((("triplet",), ZERO_NOISE)))
        rc, out = example_out(tmp_path, "weak", ["verify-weak"], path)
        assert rc == 1
        report = json.loads((out / "weak_report.json").read_text())
        assert report["passed"] is False
        assert report["results"]["route_consistency_gap"] == 0.0
        assert all(v == 0.0 for row in report["results"]["sup_residuals"] for v in row)
        assert report["results"]["exact_seeds"] == 10  # no seed left to show a decrease
        capsys.readouterr()
        rc, out = example_out(tmp_path, "study", ["study"], path)
        assert rc == 2
        err = capsys.readouterr().err
        assert "study needs a nonzero pathwise drift or gauss_var" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("rows, exact, passed", [
        ([[0.0, 0.0, 0.0], [3e-3, 2e-3, 1e-3]], 1, True),
        ([[3e-3, 2e-3, 1e-3], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]], 2, True),
        # a row that is nonzero at any level is not exact, and must decrease
        ([[0.0, 1e-17, 0.0], [3e-3, 2e-3, 1e-3]], 0, False),
        ([[0.0, 0.0, 0.0], [3e-3, 3e-3, 1e-3]], 1, False),
        ([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]], 2, False),
    ])
    def test_verify_weak_leaves_exact_seeds_out_of_the_decrease(self, tmp_path, monkeypatch,
                                                                 rows, exact, passed):
        from levyvolterra.verification import ConvergenceStudy

        per_seed = np.array(rows)
        monkeypatch.setattr(cli, "convergence_study", lambda config: ConvergenceStudy(
            "weak_residual", np.array([0.025, 0.005, 0.001]), per_seed.mean(axis=0), per_seed,
            route_gap=0.0))
        rc, out = example_out(tmp_path, "weak", ["verify-weak"])
        results = json.loads((out / "weak_report.json").read_text())["results"]
        assert results["exact_seeds"] == exact
        assert results["monotone_decreasing_all_seeds"] is passed
        assert rc == (0 if passed else 1)

    def test_verify_weak_counts_jump_only_seeds_without_jumps(self, tmp_path):
        # JUMPS_ONLY at the example seed: outcomes 1 and 5 draw no jump, so
        # their paths and residuals are exactly 0
        path = write_config(tmp_path, example_with((("triplet",), JUMPS_ONLY)))
        rc, out = example_out(tmp_path, "weak", ["verify-weak"], path)
        results = json.loads((out / "weak_report.json").read_text())["results"]
        sup = np.array(results["sup_residuals"])
        exact = np.all(sup == 0.0, axis=1)
        assert np.flatnonzero(exact).tolist() == [1, 5] and results["exact_seeds"] == 2
        assert results["route_consistency_gap"] <= cli.ROUTE_CONSISTENCY_TOL
        decreasing = bool(np.all(np.diff(sup[~exact], axis=1) < 0.0))
        assert results["monotone_decreasing_all_seeds"] is decreasing
        assert rc == (0 if decreasing else 1)

    def test_seed_option_equals_seed_in_config(self, tmp_path):
        # --seed reaches the config echoed in every report, and --out and
        # --workers reach none of them
        cfg = copy.deepcopy(EXAMPLE_CONFIG)
        cfg["mc"]["seed"] = 777
        rc, option = example_out(tmp_path, "option", ["all", "--seed", "777", "--workers", "2"])
        assert rc == 0
        rc, config = example_out(tmp_path, "config", ["all"], write_config(tmp_path, cfg))
        assert rc == 0
        names = {f.name for f in option.iterdir()} - {"run_meta.json"}
        assert names == {f.name for f in config.iterdir()} - {"run_meta.json"}
        for name in names:
            assert (option / name).read_bytes() == (config / name).read_bytes(), name

    def test_all_equals_the_stages_run_one_by_one(self, tmp_path):
        rc, together = example_out(tmp_path, "all", ["all"])
        assert rc == 0
        verdicts = json.loads((together / "summary.json").read_text())["verdicts"]
        assert sorted(verdicts) == sorted(STAGES)
        files = set()
        for stage in STAGES:
            rc, alone = example_out(tmp_path, stage, [stage])
            assert rc == 0
            for f in alone.iterdir():
                if f.name == "run_meta.json":
                    continue
                files.add(f.name)
                assert f.read_bytes() == (together / f.name).read_bytes(), f.name
                if f.name.endswith("_report.json"):
                    assert json.loads(f.read_text())["passed"] is verdicts[stage]
        assert files == {f.name for f in together.iterdir()} - {"summary.json", "run_meta.json"}
