"""Command-line orchestration: subcommand dispatch and artifact emission.

    levyvolterra <subcommand> --config cfg.json [--seed U64] [--out DIR]
                 [--workers N]

Subcommands: resolvent, simulate, verify-parts, verify-weak, verify-ecf,
study, all.  Exit codes: 0 all checks pass, 1 a check failed (reports are
still written), 2 usage or config error.  Reports are timestamp-free and
byte-identical for identical (config, seed) at any worker count; wall-clock
metadata goes to run_meta.json.
"""

from __future__ import annotations

import argparse
import datetime
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__, characterization, convolution, levy
from .characterization import ecf_comparison, gaussian_covariance_check
from .config import ConfigError, RunConfig, load_config
from .convolution import TagRule, parts_convolution, stieltjes_convolution
from .kernels import (
    _unit_exponential,
    certify_resolvent_properties,
    closed_form_exponential_resolvent,
)
from .levy import LevyTriplet, sample_path
from .reports import series_csv, write_csv, write_json
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
    if cfg.n_samples < 1000:
        raise ConfigError(f"verify-ecf needs mc.n_samples >= 1000, got {cfg.n_samples}")


# the config checks of the stages that have them; main runs the checks of
# every selected stage before it creates the output directory
_PRECONDITIONS = {"verify-weak": _weak_factors, "study": _study_inputs,
                  "verify-ecf": _ecf_samples}


def _out_dir(cfg: RunConfig, out_override) -> Path:
    out = Path(out_override) if out_override else Path(cfg.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a regular file in the way, no permission, ...
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
                  thresholds=None) -> dict:
    """Write the subcommand's report to its file in out and return it."""
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
    return report


def _mode_columns(cfg: RunConfig, prefix: str, values: np.ndarray) -> dict:
    """CSV columns t, <prefix>_1, ..., <prefix>_K of one (n_steps + 1, K) array."""
    cols = {"t": cfg.grid.nodes()}
    cols.update((f"{prefix}_{k + 1}", values[:, k]) for k in range(values.shape[1]))
    return cols


def cmd_resolvent(cfg: RunConfig, out: Path, workers: int, families: dict) -> dict:
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
    if "csv" in cfg.formats:
        series_csv(out / "resolvent_table.csv", _mode_columns(cfg, "s", fam.s_matrix))
    return _write_report(out, cfg, "resolvent", {
        "gammas": fam.gammas,
        "total_variation": cert.total_variation,
        "monotone_violations": cert.max_increase,
        "residual_max_per_mode": resid.max_per_mode,
        "closed_form": closed,
    }, passed, thresholds={
        "certificate_tolerance": CERTIFICATE_TOL,
        "residual_max": RESIDUAL_TOL,
        "closed_form_strict_tolerance": RESOLVENT_ERROR_TOL,
        "closed_form_envelope": "0.2 * (1 + mu)^3 * dt^3 + 1e-12",
    })


def cmd_simulate(cfg: RunConfig, out: Path, workers: int, families: dict) -> dict:
    path = sample_path(cfg.triplet, cfg.grid, 0, cfg.seed)
    fam = _family(cfg, families)
    zr = stieltjes_convolution(fam, path, TagRule.LEFT)
    if "csv" in cfg.formats:
        series_csv(out / "path.csv", _mode_columns(cfg, "Z", path.values))
        jump_rows = [
            [path.jump_times[m]] + list(path.jump_marks[m]) for m in range(path.jump_times.size)
        ]
        write_csv(out / "path_jumps.csv",
                  ["time"] + [f"mark_{k + 1}" for k in range(path.dim)], jump_rows)
        n_nodes = cfg.grid.n_steps + 1
        series_csv(out / "convolution.csv", {**_mode_columns(cfg, "X", zr.values),
                                             "method": [zr.method] * n_nodes,
                                             "tag_rule": [zr.tag_rule.value] * n_nodes})
    return _write_report(out, cfg, "simulate", {
        "n_jumps": int(path.jump_times.size),
        "terminal_Z": path.values[-1],
        "terminal_Z_R": zr.values[-1],
    }, True)


def cmd_verify_parts(cfg: RunConfig, out: Path, workers: int, families: dict) -> dict:
    fam = _family(cfg, families)
    thresholds = {"max_relative_discrepancy": PARTS_REL_TOL}
    # the parts route needs a monotone s in [0, 1]: without one there is
    # nothing to compare, so the check fails instead of the run
    cert = certify_resolvent_properties(fam.s_matrix, convolution.VARIATION_TOL)
    if not cert.passed:
        return _write_report(out, cfg, "verify-parts", {
            "certificate_tolerance": convolution.VARIATION_TOL,
            "failing_modes": np.flatnonzero(~cert.mode_passed),
            "max_increase": float(np.max(cert.max_increase)),
        }, False, thresholds=thresholds)
    n_seeds = min(cfg.n_samples, 20)
    drift = cfg.triplet.pathwise_drift()
    per_seed = []
    for b0, b1, gauss, times, marks in levy._draw_blocks(cfg.triplet, cfg.grid, cfg.seed,
                                                         0, n_seeds):
        for r in range(b1 - b0):
            path = levy._block_path(cfg.grid, drift, gauss, times, marks, r)
            a = stieltjes_convolution(fam, path, TagRule.LEFT).values
            b = parts_convolution(fam, path).values
            scale = max(float(np.max(np.abs(a))), 1e-300)
            per_seed.append(float(np.max(np.abs(a - b))) / scale)
    worst = max(per_seed)
    return _write_report(out, cfg, "verify-parts", {
        "n_seeds": n_seeds, "per_seed": per_seed, "max_relative_discrepancy": worst,
    }, worst <= PARTS_REL_TOL, thresholds=thresholds)


def cmd_verify_weak(cfg: RunConfig, out: Path, workers: int, families: dict) -> dict:
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
    return _write_report(out, cfg, "verify-weak", {
        "factors": list(factors),
        "dts": study.dts,
        "sup_residuals": study.per_seed,
        "exact_seeds": int(np.sum(exact)),
        "monotone_decreasing_all_seeds": monotone,
        "route_consistency_gap": study.route_gap,
    }, monotone and study.route_gap <= ROUTE_CONSISTENCY_TOL, thresholds={
        "route_consistency": ROUTE_CONSISTENCY_TOL,
        "per_seed_monotone_decrease": True,
    })


def cmd_verify_ecf(cfg: RunConfig, out: Path, workers: int, families: dict) -> dict:
    _ecf_samples(cfg)
    fam = _family(cfg, families)
    rep = ecf_comparison(fam, cfg.triplet, cfg.grid.t_end, cfg.panel_size,
                         cfg.n_samples, cfg.seed, TagRule.LEFT, workers=workers)
    results = {
        "n_samples": rep.n_samples,
        "panel_size": len(rep.rows),
        "max_abs_z": rep.max_abs_z,
        "frac_within_soft": rep.frac_within_soft,
        "stderr_convention": "z = |ecf - predicted| / (1/sqrt(N))",
        "rows": [asdict(row) for row in rep.rows],
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
    if "csv" in cfg.formats:
        header = [f"y_{k + 1}" for k in range(fam.K)] + [
            "pred_re", "pred_im", "emp_re", "emp_im", "stderr", "stderr_component_bound", "z",
        ]
        rows = [
            list(r.y) + [r.predicted.real, r.predicted.imag, r.empirical.real, r.empirical.imag,
                         r.stderr, r.stderr_component_bound, r.z]
            for r in rep.rows
        ]
        write_csv(out / "ecf_panel.csv", header, rows)
    return _write_report(out, cfg, "verify-ecf", results, passed, thresholds={
        "z_soft": characterization.ECF_Z_SOFT,
        "z_hard": characterization.ECF_Z_HARD,
        "frac_within_soft": characterization.ECF_FRACTION,
        "covariance_z": COVARIANCE_Z_TOL,
    })


def cmd_study(cfg: RunConfig, out: Path, workers: int, families: dict) -> dict:
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
    studies, results = {}, {}
    for name, plan in plans.items():
        try:
            study = studies[name] = convergence_study(plan)
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
    if "csv" in cfg.formats:
        rows = [[name, dt, norm] for name, study in studies.items()
                for dt, norm in zip(study.dts, study.norms)]
        write_csv(out / "study_series.csv", ["target", "dt", "norm"], rows)
    return _write_report(out, cfg, "study", results,
                         all(r["passed"] for r in results.values()),
                         thresholds={"orders": ORDER_THRESHOLDS})


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
            cfg = replace(cfg, seed=args.seed,
                          raw={**cfg.raw, "mc": {**cfg.raw["mc"], "seed": args.seed}})
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
            verdicts[name] = bool(stages[name](cfg, out, args.workers, families)["passed"])
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
