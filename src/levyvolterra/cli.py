"""Command-line orchestration: subcommand dispatch and artifact emission.

    levyvolterra <subcommand> --config cfg.json [--seed U64] [--out DIR]
                 [--workers N]

Subcommands: resolvent, simulate, verify-parts, verify-weak, verify-ecf,
study, all.  Stages compute and main writes: each cmd_*(cfg, families,
workers) writes no file and returns (results, passed, thresholds, tables),
tables mapping CSV file names to column dicts; main writes each stage's
tables (if output.formats has "csv") and report, summary.json and
run_meta.json.  Exit codes: 0 all checks pass, 1 a check failed (reports are
still written), 2 usage or config error.  Reports are timestamp-free and
byte-identical for identical (config, seed) at any worker count; wall-clock
metadata goes to run_meta.json.
"""

from __future__ import annotations

import argparse
import datetime
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, characterization, convolution, levy
from .characterization import ecf_comparison, gaussian_covariance_check
from .config import ConfigError, RunConfig, load_config
from .convolution import TagRule, stieltjes_convolution
from .kernels import (
    _unit_exponential,
    certify_resolvent_properties,
    closed_form_exponential_resolvent,
)
from .levy import LevyTriplet, sample_path
from .reports import series_csv, write_json
from .spectral import build_resolvent_family, resolvent_equation_residual
from .verification import StudyConfig, convergence_study

RESOLVENT_ERROR_TOL = 1e-5
RESIDUAL_TOL = 5e-5
CERTIFICATE_TOL = 1e-10
PARTS_REL_TOL = 1e-12
ROUTE_CONSISTENCY_TOL = 1e-10
COVARIANCE_Z_TOL = 4.0
ORDER_THRESHOLDS = {"resolvent_error": 1.7, "tag_discrepancy": 0.4, "weak_residual": 1.7}


def _study_factors(cfg: RunConfig) -> tuple:
    if cfg.grid.n_steps % 4 != 0:
        raise ConfigError("grid.n_steps must be divisible by 4 for refinement checks")
    return (4, 2, 1)


def _study_inputs(cfg: RunConfig):
    _study_factors(cfg)
    # jumps weigh the same under every tag rule, so without a pathwise drift
    # or Gaussian noise the LEFT and RIGHT sums agree bit for bit
    if not (np.any(cfg.triplet.pathwise_drift()) or np.any(cfg.triplet.gauss_var)):
        raise ConfigError("study needs a nonzero pathwise drift or gauss_var: without either the "
                          "tag discrepancy is exactly 0 and has no order to fit")


def _weak_factors(cfg: RunConfig) -> tuple:
    # prefer wide level spacing: per-seed monotone decrease of a pathwise
    # sup residual is only robust when refinement outpaces outcome noise
    for factors in ((16, 4, 1), (25, 5, 1), (9, 3, 1), (4, 2, 1)):
        if all(cfg.grid.n_steps % f == 0 for f in factors):
            return factors
    raise ConfigError("grid.n_steps admits no 3-level refinement (needs divisibility by 16, 25, 9, or 4)")


def _ecf_samples(cfg: RunConfig):
    least = characterization.ECF_MIN_SAMPLES
    if cfg.n_samples < least:
        raise ConfigError(f"verify-ecf needs mc.n_samples >= {least}, got {cfg.n_samples}")


# the config checks of the stages that have them; main runs the checks of
# every selected stage before it creates the output directory
_PRECONDITIONS = {"verify-weak": _weak_factors, "study": _study_inputs,
                  "verify-ecf": _ecf_samples}


def _out_dir(cfg: RunConfig, out_override) -> Path:
    out = Path(out_override) if out_override else Path(cfg.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:  # a regular file in the way, no permission, a NUL byte
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    return out


def _family(cfg: RunConfig, families: dict, grid=None):
    """The config's resolvent family on grid (default: the config grid).

    families maps each TimeGrid of the run to its family, so every stage
    reads the one solve of a grid; main starts it empty for each run.
    """
    grid = cfg.grid if grid is None else grid
    if grid not in families:
        try:
            families[grid] = build_resolvent_family(cfg.model, cfg.kernel, grid)
        except ValueError as exc:  # a table that is not finite for these inputs
            raise ConfigError(str(exc)) from exc
    return families[grid]


# each subcommand's report file; "all" writes the stage verdicts to summary.json
_REPORT_FILES = {
    "resolvent": "resolvent_report.json",
    "simulate": "simulate_report.json",
    "verify-parts": "parts_report.json",
    "verify-weak": "weak_report.json",
    "verify-ecf": "ecf_report.json",
    "study": "study_report.json",
    "all": "summary.json",
}


def _write_report(out: Path, cfg: RunConfig, subcommand: str, results: dict, passed: bool,
                  thresholds=None):
    """Write the subcommand's report to its file in out."""
    report = {
        "schema_version": 1,
        "subcommand": subcommand,
        "config": cfg.raw,
        "verdicts" if subcommand == "all" else "results": results,
        "passed": passed,
    }
    if thresholds is not None:
        report["thresholds"] = thresholds
    write_json(out / _REPORT_FILES[subcommand], report)


def _mode_columns(first: dict, prefix: str, values: np.ndarray) -> dict:
    """CSV columns: first's, then <prefix>_1, ..., <prefix>_K of one (rows, K) array."""
    return {**first, **{f"{prefix}_{k + 1}": values[:, k] for k in range(values.shape[1])}}


def cmd_resolvent(cfg: RunConfig, families: dict, workers: int):
    fam = _family(cfg, families)
    cert = certify_resolvent_properties(fam.s_matrix, CERTIFICATE_TOL)
    resid = resolvent_equation_residual(fam)
    closed = None
    if _unit_exponential(cfg.kernel):
        exact = closed_form_exponential_resolvent(fam.gammas, cfg.grid.nodes()[:, None])
        errs = np.max(np.abs(fam.s_matrix - exact), axis=0)
        # the strict bound is calibrated for mu <= 4 pi^2 at dt = 1e-3; the
        # envelope tracks the scheme's measured mu^3 dt^3 error growth with
        # a 2.5x margin, so it flags a broken solve at any resolution
        dt = cfg.grid.dt
        envelope = 0.2 * (1.0 + fam.gammas) ** 3 * dt**3 + 1e-12
        strict = (fam.gammas <= 4 * np.pi**2 + 1.0) & (dt <= 1.001e-3)
        tol = np.where(strict, RESOLVENT_ERROR_TOL, envelope)
        closed = {"max_error_per_mode": errs, "tolerance_per_mode": tol,
                  "passed": bool(np.all(errs <= tol))}
    passed = cert.passed and resid.max_abs <= RESIDUAL_TOL
    if closed is not None:
        passed = passed and closed["passed"]
    return {
        "gammas": fam.gammas,
        "total_variation": cert.total_variation,
        "monotone_violations": cert.max_increase,
        "residual_max_per_mode": resid.max_per_mode,
        "closed_form": closed,
    }, passed, {
        "certificate_tolerance": CERTIFICATE_TOL,
        "residual_max": RESIDUAL_TOL,
        "closed_form_strict_tolerance": RESOLVENT_ERROR_TOL,
        "closed_form_envelope": "0.2 * (1 + mu)^3 * dt^3 + 1e-12",
    }, {"resolvent_table.csv": _mode_columns({"t": cfg.grid.nodes()}, "s", fam.s_matrix)}


def cmd_simulate(cfg: RunConfig, families: dict, workers: int):
    path = sample_path(cfg.triplet, cfg.grid, 0, cfg.seed)
    fam = _family(cfg, families)
    zr = stieltjes_convolution(fam, path, TagRule.LEFT)
    t, n_nodes = {"t": cfg.grid.nodes()}, cfg.grid.n_steps + 1
    return {
        "n_jumps": int(path.jump_times.size),
        "terminal_Z": path.values[-1],
        "terminal_Z_R": zr.values[-1],
    }, True, None, {
        "path.csv": _mode_columns(t, "Z", path.values),
        "path_jumps.csv": _mode_columns({"time": path.jump_times}, "mark", path.jump_marks),
        "convolution.csv": {**_mode_columns(t, "X", zr.values),
                            "method": [zr.method] * n_nodes,
                            "tag_rule": [zr.tag_rule.value] * n_nodes},
    }


def cmd_verify_parts(cfg: RunConfig, families: dict, workers: int):
    fam = _family(cfg, families)
    thresholds = {"max_relative_discrepancy": PARTS_REL_TOL}
    # the parts route needs a monotone s in [0, 1]: without one there is
    # nothing to compare, so the check fails instead of the run
    cert = certify_resolvent_properties(fam.s_matrix, convolution.VARIATION_TOL)
    if not cert.passed:
        return {
            "certificate_tolerance": convolution.VARIATION_TOL,
            "failing_modes": np.flatnonzero(~cert.mode_passed),
            "max_increase": float(np.max(cert.max_increase)),
        }, False, thresholds, {}
    n_seeds = min(cfg.n_samples, 20)
    drift = cfg.triplet.pathwise_drift()
    per_seed = []
    for _, _, gauss, jumps in levy._draw_blocks(cfg.triplet, cfg.grid, cfg.seed, range(n_seeds)):
        # both routes on the block's rows, each jump weight built once for both
        stieltjes, parts = convolution._block_routes(fam, (TagRule.LEFT, None), drift, gauss, jumps)
        scale = np.maximum(np.max(np.abs(stieltjes), axis=(1, 2)), 1e-300)
        per_seed.extend((np.max(np.abs(stieltjes - parts), axis=(1, 2)) / scale).tolist())
    worst = max(per_seed)
    return {
        "n_seeds": n_seeds, "per_seed": per_seed, "max_relative_discrepancy": worst,
    }, worst <= PARTS_REL_TOL, thresholds, {}


def cmd_verify_weak(cfg: RunConfig, families: dict, workers: int):
    factors = _weak_factors(cfg)
    study = convergence_study(StudyConfig(
        target="weak_residual",
        families=[_family(cfg, families, cfg.grid.coarsened(f)) for f in factors],
        triplet=cfg.triplet, seeds=tuple(range(min(cfg.n_samples, 10))), seed=cfg.seed))
    # a seed whose residuals are exactly 0 at every level (a jump-only
    # outcome with no jump, say) has no discretization defect to decrease;
    # every other seed must decrease strictly, and at least one must exist
    exact = np.all(study.per_seed == 0.0, axis=1)
    monotone = bool(not np.all(exact)
                    and np.all(np.diff(study.per_seed[~exact], axis=1) < 0.0))
    return {
        "factors": list(factors),
        "dts": study.dts,
        "sup_residuals": study.per_seed,
        "exact_seeds": int(np.sum(exact)),
        "monotone_decreasing_all_seeds": monotone,
        "route_consistency_gap": study.route_gap,
    }, monotone and study.route_gap <= ROUTE_CONSISTENCY_TOL, {
        "route_consistency": ROUTE_CONSISTENCY_TOL,
        "per_seed_monotone_decrease": True,
    }, {}


def cmd_verify_ecf(cfg: RunConfig, families: dict, workers: int):
    fam = _family(cfg, families)
    rep = ecf_comparison(fam, cfg.triplet, cfg.grid.t_end, cfg.panel_size,
                         cfg.n_samples, cfg.seed, TagRule.LEFT, workers=workers)
    results = {
        "n_samples": rep.n_samples,
        "panel_size": len(rep.rows),
        "max_abs_z": rep.max_abs_z,
        "frac_within_soft": rep.frac_within_soft,
        "stderr_convention": "z = |ecf - predicted| / (1/sqrt(N))",
        "rows": [vars(row) for row in rep.rows],
    }
    passed = rep.passed
    if cfg.triplet.jump is None and np.any(cfg.triplet.gauss_var > 0):
        cov = gaussian_covariance_check(fam, cfg.triplet, cfg.grid.t_end,
                                        cfg.n_samples, cfg.seed, workers=workers)
        results["covariance_check"] = {
            "q_predicted": cov.q_predicted,
            "sample_var": cov.sample_var,
            "z": cov.z,
            "max_abs_z": cov.max_abs_z,
        }
        passed = passed and cov.max_abs_z <= COVARIANCE_Z_TOL
    column = {name: np.array([getattr(r, name) for r in rep.rows]) for name in vars(rep.rows[0])}
    pred, emp = column.pop("predicted"), column.pop("empirical")
    panel = {**_mode_columns({}, "y", column.pop("y")), "pred_re": pred.real, "pred_im": pred.imag,
             "emp_re": emp.real, "emp_im": emp.imag, **column}
    return results, passed, {
        "z_soft": characterization.ECF_Z_SOFT,
        "z_hard": characterization.ECF_Z_HARD,
        "frac_within_soft": characterization.ECF_FRACTION,
        "covariance_z": COVARIANCE_Z_TOL,
    }, {"ecf_panel.csv": panel}


def cmd_study(cfg: RunConfig, families: dict, workers: int):
    levels = [_family(cfg, families, cfg.grid.coarsened(f)) for f in _study_factors(cfg)]
    plans = {}
    if _unit_exponential(cfg.kernel):
        plans["resolvent_error"] = StudyConfig(target="resolvent_error", families=levels)
    plans["tag_discrepancy"] = StudyConfig(
        target="tag_discrepancy", families=levels, triplet=cfg.triplet,
        seeds=tuple(range(min(cfg.n_samples, 50))), seed=cfg.seed)
    drift = cfg.triplet.drift if np.any(cfg.triplet.drift != 0.0) else np.ones(cfg.model.K)
    det_triplet = LevyTriplet(drift=drift, gauss_var=np.zeros(cfg.model.K))
    plans["weak_residual"] = StudyConfig(
        target="weak_residual", families=levels, triplet=det_triplet, seeds=(0,),
        seed=cfg.seed, tag_rule=TagRule.MIDPOINT)
    results = {}
    for name, plan in plans.items():
        try:
            study = convergence_study(plan)
            order = study.fitted_order
        except ValueError as exc:  # a norm of exactly 0
            raise ConfigError(f"study {name}: {exc}") from exc
        results[name] = {
            "dts": study.dts,
            "norms": study.norms,
            "fitted_order": order,
            "order_threshold": ORDER_THRESHOLDS[name],
            "passed": order >= ORDER_THRESHOLDS[name],
        }
    return results, all(r["passed"] for r in results.values()), {"orders": ORDER_THRESHOLDS}, {
        "study_series.csv": {
            "target": [name for name, r in results.items() for _ in r["dts"]],
            "dt": np.concatenate([r["dts"] for r in results.values()]),
            "norm": np.concatenate([r["norms"] for r in results.values()]),
        }}


def _write_meta(out: Path, argv, timings: dict):
    write_json(out / "run_meta.json", {
        "timestamp_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "package_version": __version__,
        "numpy_version": np.__version__,
        "argv": list(argv),
        "timings": timings,
    })


def main(argv=None) -> int:
    # the stages in dependency order, looked up per call so that a rebound
    # cli.cmd_* attribute (a tracer's span, a test's stub) is the one run
    stages = {
        "resolvent": cmd_resolvent,
        "simulate": cmd_simulate,
        "verify-parts": cmd_verify_parts,
        "verify-weak": cmd_verify_weak,
        "study": cmd_study,
        "verify-ecf": cmd_verify_ecf,
    }
    parser = argparse.ArgumentParser(
        prog="levyvolterra",
        description="Stochastic convolutions for Volterra equations with Levy noise",
    )
    parser.add_argument("subcommand", choices=sorted([*stages, "all"]))
    parser.add_argument("--config", required=True, help="path to the JSON run config")
    parser.add_argument("--seed", type=int, default=None, help="override mc.seed")
    parser.add_argument("--out", default=None, help="override output.directory")
    parser.add_argument("--workers", type=int, default=1,
                        help="Monte Carlo worker threads (results are worker-count independent)")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            if not 0 <= args.seed < 2**64:
                raise ConfigError("--seed must be a 64-bit unsigned value")
            # the reports echo the config, so they echo the seed the run used
            cfg = RunConfig(**{**vars(cfg), "seed": args.seed,
                               "raw": {**cfg.raw, "mc": {**cfg.raw["mc"], "seed": args.seed}}})
        if args.workers < 1:
            raise ConfigError("--workers must be >= 1")
        selected = list(stages) if args.subcommand == "all" else [args.subcommand]
        for name in selected:  # refuse the config before anything is written
            if name in _PRECONDITIONS:
                _PRECONDITIONS[name](cfg)
        out = _out_dir(cfg, args.out)
        timings = {}  # stage -> {"wall_s", "cpu_s"}
        families = {}  # TimeGrid -> ResolventFamily, each grid solved once per run
        verdicts = {}
        for name in selected:
            wall, cpu = time.perf_counter(), time.process_time()
            results, passed, thresholds, tables = stages[name](cfg, families, args.workers)
            if "csv" in cfg.formats:
                for file_name, columns in tables.items():
                    series_csv(out / file_name, columns)
            _write_report(out, cfg, name, results, passed, thresholds)
            verdicts[name] = bool(passed)
            timings[name] = {"wall_s": time.perf_counter() - wall,
                             "cpu_s": time.process_time() - cpu}
        if args.subcommand == "all":
            _write_report(out, cfg, "all", verdicts, all(verdicts.values()))
        _write_meta(out, argv if argv is not None else sys.argv[1:], timings)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if all(verdicts.values()):
        return 0
    print(f"{args.subcommand}: checks failed (see reports)", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
