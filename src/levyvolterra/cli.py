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
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .characterization import ecf_comparison, gaussian_covariance_check
from .config import ConfigError, RunConfig, load_config
from .convolution import TagRule, parts_convolution, stieltjes_convolution
from .kernels import closed_form_exponential_resolvent
from .levy import LevyTriplet, sample_path
from .reports import series_csv, write_csv, write_json
from .spectral import (
    build_resolvent_family,
    resolvent_equation_residual,
    total_variation_certificate,
)
from .verification import StudyConfig, convergence_study, weak_solution_residual

RESOLVENT_ERROR_TOL = 1e-5
RESIDUAL_TOL = 5e-5
CERTIFICATE_TOL = 1e-10
PARTS_REL_TOL = 1e-12
ROUTE_CONSISTENCY_TOL = 1e-10
ECF_Z_SOFT, ECF_Z_HARD, ECF_FRACTION = 3.0, 5.0, 0.95
COVARIANCE_Z_TOL = 4.0
ORDER_THRESHOLDS = {"resolvent_error": 1.7, "tag_discrepancy": 0.4, "weak_residual": 1.7}


def _study_factors(cfg: RunConfig) -> tuple:
    if cfg.grid.n_steps % 4 != 0:
        raise ConfigError("grid.n_steps must be divisible by 4 for refinement checks")
    return (4, 2, 1)


def _weak_factors(cfg: RunConfig) -> tuple:
    # prefer wide level spacing: per-seed monotone decrease of a pathwise
    # sup residual is only robust when refinement outpaces outcome noise
    for factors in ((16, 4, 1), (25, 5, 1), (9, 3, 1), (4, 2, 1)):
        if all(cfg.grid.n_steps % f == 0 for f in factors):
            return factors
    raise ConfigError("grid.n_steps admits no 3-level refinement (needs divisibility by 16, 25, 9, or 4)")


def _out_dir(cfg: RunConfig, out_override) -> Path:
    out = Path(out_override) if out_override else Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _family(cfg: RunConfig, grid=None):
    """The config's resolvent family on grid (default: the config grid)."""
    try:
        return build_resolvent_family(cfg.model, cfg.kernel, cfg.grid if grid is None else grid)
    except ValueError as exc:  # a table that is not finite for these inputs
        raise ConfigError(str(exc)) from exc


def cmd_resolvent(cfg: RunConfig, out: Path, workers: int) -> dict:
    fam = _family(cfg)
    cert = total_variation_certificate(fam, CERTIFICATE_TOL)
    resid = resolvent_equation_residual(fam)
    closed = None
    if cfg.kernel.family == "exponential" and abs(cfg.kernel.rate - 1.0) < 1e-15:
        nodes = cfg.grid.nodes()
        errs = np.array([
            float(np.max(np.abs(tab.values - closed_form_exponential_resolvent(tab.gamma, nodes))))
            for tab in fam.tables
        ])
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
    report = {
        "schema_version": 1,
        "subcommand": "resolvent",
        "config": cfg.raw,
        "thresholds": {
            "certificate_tolerance": CERTIFICATE_TOL,
            "residual_max": RESIDUAL_TOL,
            "closed_form_strict_tolerance": RESOLVENT_ERROR_TOL,
            "closed_form_envelope": "0.2 * (1 + mu)^3 * dt^3 + 1e-12",
        },
        "results": {
            "gammas": fam.gammas,
            "total_variation": cert.total_variation,
            "monotone_violations": cert.monotone_violations,
            "residual_max_per_mode": resid.max_per_mode,
            "closed_form": closed,
        },
        "passed": passed,
    }
    write_json(out / "resolvent_report.json", report)
    if "csv" in cfg.formats:
        cols = {"t": cfg.grid.nodes()}
        for k in range(fam.K):
            cols[f"s_{k + 1}"] = fam.s_matrix[:, k]
        series_csv(out / "resolvent_table.csv", cols)
    return report


def cmd_simulate(cfg: RunConfig, out: Path, workers: int) -> dict:
    path = sample_path(cfg.triplet, cfg.grid, 0, cfg.seed)
    fam = _family(cfg)
    zr = stieltjes_convolution(fam, path, TagRule.LEFT)
    if "csv" in cfg.formats:
        cols = {"t": cfg.grid.nodes()}
        for k in range(path.dim):
            cols[f"Z_{k + 1}"] = path.values[:, k]
        series_csv(out / "path.csv", cols)
        jump_rows = [
            [path.jump_times[m]] + list(path.jump_marks[m]) for m in range(path.jump_times.size)
        ]
        write_csv(out / "path_jumps.csv",
                  ["time"] + [f"mark_{k + 1}" for k in range(path.dim)], jump_rows)
        conv_cols = {"t": cfg.grid.nodes()}
        for k in range(zr.dim):
            conv_cols[f"X_{k + 1}"] = zr.values[:, k]
        conv_cols["method"] = [zr.method] * (cfg.grid.n_steps + 1)
        conv_cols["tag_rule"] = [zr.tag_rule.value] * (cfg.grid.n_steps + 1)
        series_csv(out / "convolution.csv", conv_cols)
    report = {
        "schema_version": 1,
        "subcommand": "simulate",
        "config": cfg.raw,
        "results": {
            "n_jumps": int(path.jump_times.size),
            "terminal_Z": path.values[-1],
            "terminal_Z_R": zr.values[-1],
        },
        "passed": True,
    }
    write_json(out / "simulate_report.json", report)
    return report


def cmd_verify_parts(cfg: RunConfig, out: Path, workers: int) -> dict:
    fam = _family(cfg)
    n_seeds = min(cfg.n_samples, 20)
    worst = 0.0
    per_seed = []
    for idx in range(n_seeds):
        path = sample_path(cfg.triplet, cfg.grid, idx, cfg.seed)
        a = stieltjes_convolution(fam, path, TagRule.LEFT).values
        b = parts_convolution(fam, path).values
        scale = max(float(np.max(np.abs(a))), 1e-300)
        rel = float(np.max(np.abs(a - b))) / scale
        per_seed.append(rel)
        worst = max(worst, rel)
    passed = worst <= PARTS_REL_TOL
    report = {
        "schema_version": 1,
        "subcommand": "verify-parts",
        "config": cfg.raw,
        "thresholds": {"max_relative_discrepancy": PARTS_REL_TOL},
        "results": {"n_seeds": n_seeds, "per_seed": per_seed, "max_relative_discrepancy": worst},
        "passed": passed,
    }
    write_json(out / "parts_report.json", report)
    return report


def cmd_verify_weak(cfg: RunConfig, out: Path, workers: int) -> dict:
    from .levy import coupled_sample_paths
    from .verification import bounded_A_identity_residual

    factors = _weak_factors(cfg)
    fams = [_family(cfg, cfg.grid.coarsened(f)) for f in factors]
    n_seeds = min(cfg.n_samples, 10)
    sup_table = np.zeros((n_seeds, len(factors)))
    route_gap = 0.0
    for idx in range(n_seeds):
        paths = coupled_sample_paths(cfg.triplet, cfg.grid, factors, idx, cfg.seed)
        for li, (fam, path) in enumerate(zip(fams, paths)):
            zr = stieltjes_convolution(fam, path, TagRule.LEFT)
            weak = weak_solution_residual(zr, path, fam)
            sup_table[idx, li] = weak.sup
            joint = bounded_A_identity_residual(zr, path, fam)
            route_gap = max(route_gap, float(np.max(np.abs(weak.residuals - joint.residuals))))
    monotone = bool(np.all(np.diff(sup_table, axis=1) < 0.0))
    passed = monotone and route_gap <= ROUTE_CONSISTENCY_TOL
    report = {
        "schema_version": 1,
        "subcommand": "verify-weak",
        "config": cfg.raw,
        "thresholds": {"route_consistency": ROUTE_CONSISTENCY_TOL,
                       "per_seed_monotone_decrease": True},
        "results": {
            "factors": list(factors),
            "dts": [fam.grid.dt for fam in fams],
            "sup_residuals": sup_table,
            "monotone_decreasing_all_seeds": monotone,
            "route_consistency_gap": route_gap,
        },
        "passed": passed,
    }
    write_json(out / "weak_report.json", report)
    return report


def cmd_verify_ecf(cfg: RunConfig, out: Path, workers: int) -> dict:
    if cfg.n_samples < 1000:
        raise ConfigError(f"verify-ecf needs mc.n_samples >= 1000, got {cfg.n_samples}")
    fam = _family(cfg)
    rep = ecf_comparison(fam, cfg.triplet, cfg.grid.t_end, cfg.panel_size,
                         cfg.n_samples, cfg.seed, TagRule.LEFT, workers=workers)
    results = {
        "n_samples": rep.n_samples,
        "panel_size": len(rep.rows),
        "max_abs_z": rep.max_abs_z,
        "frac_within_soft": rep.frac_within_soft,
        "stderr_convention": "z = |ecf - predicted| / (1/sqrt(N))",
        "rows": [
            {
                "y": row.y,
                "predicted": row.predicted,
                "empirical": row.empirical,
                "stderr": row.stderr,
                "stderr_component_bound": row.stderr_component_bound,
                "z": row.z,
            }
            for row in rep.rows
        ],
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
    report = {
        "schema_version": 1,
        "subcommand": "verify-ecf",
        "config": cfg.raw,
        "thresholds": {"z_soft": ECF_Z_SOFT, "z_hard": ECF_Z_HARD,
                       "frac_within_soft": ECF_FRACTION, "covariance_z": COVARIANCE_Z_TOL},
        "results": results,
        "passed": passed,
    }
    write_json(out / "ecf_report.json", report)
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
    return report


def cmd_study(cfg: RunConfig, out: Path, workers: int) -> dict:
    factors = _study_factors(cfg)
    plans = {}
    if cfg.kernel.family == "exponential":
        plans["resolvent_error"] = StudyConfig(
            target="resolvent_error", kernel=cfg.kernel, model=cfg.model,
            fine_grid=cfg.grid, factors=factors)
    plans["tag_discrepancy"] = StudyConfig(
        target="tag_discrepancy", kernel=cfg.kernel, model=cfg.model, fine_grid=cfg.grid,
        factors=factors, triplet=cfg.triplet,
        seeds=tuple(range(min(cfg.n_samples, 50))), seed=cfg.seed)
    drift = cfg.triplet.drift if np.any(cfg.triplet.drift != 0.0) else np.ones(cfg.model.K)
    det_triplet = LevyTriplet(drift=drift, gauss_var=np.zeros(cfg.model.K))
    plans["weak_residual"] = StudyConfig(
        target="weak_residual", kernel=cfg.kernel, model=cfg.model, fine_grid=cfg.grid,
        factors=factors, triplet=det_triplet, seeds=(0,), seed=cfg.seed,
        tag_rule=TagRule.MIDPOINT)
    studies = {}
    for name, plan in plans.items():
        try:
            studies[name] = convergence_study(plan)
        except ValueError as exc:  # a table that is not finite, or a norm of exactly 0
            raise ConfigError(f"study {name}: {exc}") from exc

    results, passed = {}, True
    for name, study in studies.items():
        ok = study.fitted_order >= ORDER_THRESHOLDS[name]
        passed = passed and ok
        results[name] = {
            "dts": study.dts,
            "norms": study.norms,
            "fitted_order": study.fitted_order,
            "order_threshold": ORDER_THRESHOLDS[name],
            "passed": ok,
        }
    report = {
        "schema_version": 1,
        "subcommand": "study",
        "config": cfg.raw,
        "thresholds": {"orders": ORDER_THRESHOLDS},
        "results": results,
        "passed": passed,
    }
    write_json(out / "study_report.json", report)
    if "csv" in cfg.formats:
        rows = []
        for name, study in studies.items():
            for dt, norm in zip(study.dts, study.norms):
                rows.append([name, dt, norm])
        write_csv(out / "study_series.csv", ["target", "dt", "norm"], rows)
    return report


def _timed(timings: dict, name: str, fn, *args):
    """fn(*args), recording its wall and CPU seconds under timings[name]."""
    wall, cpu = time.perf_counter(), time.process_time()
    result = fn(*args)
    timings[name] = {"wall_s": time.perf_counter() - wall, "cpu_s": time.process_time() - cpu}
    return result


def cmd_all(cfg: RunConfig, out: Path, workers: int, timings=None) -> dict:
    """Every stage in dependency order; stage times go into timings if given."""
    timings = {} if timings is None else timings
    order = [
        ("resolvent", cmd_resolvent),
        ("simulate", cmd_simulate),
        ("verify-parts", cmd_verify_parts),
        ("verify-weak", cmd_verify_weak),
        ("study", cmd_study),
        ("verify-ecf", cmd_verify_ecf),
    ]
    verdicts = {}
    for name, fn in order:
        verdicts[name] = bool(_timed(timings, name, fn, cfg, out, workers)["passed"])
    report = {
        "schema_version": 1,
        "subcommand": "all",
        "config": cfg.raw,
        "verdicts": verdicts,
        "passed": all(verdicts.values()),
    }
    write_json(out / "summary.json", report)
    return report


_COMMANDS = {
    "resolvent": cmd_resolvent,
    "simulate": cmd_simulate,
    "verify-parts": cmd_verify_parts,
    "verify-weak": cmd_verify_weak,
    "verify-ecf": cmd_verify_ecf,
    "study": cmd_study,
    "all": cmd_all,
}


def _write_meta(out: Path, argv, timings: dict):
    write_json(out / "run_meta.json", {
        "timestamp_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "package_version": __version__,
        "numpy_version": np.__version__,
        "argv": list(argv),
        "timings": timings,
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="levyvolterra",
        description="Stochastic convolutions for Volterra equations with Levy noise",
    )
    parser.add_argument("subcommand", choices=sorted(_COMMANDS))
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
            cfg = replace(cfg, seed=args.seed)
        if args.workers < 1:
            raise ConfigError("--workers must be >= 1")
        out = _out_dir(cfg, args.out)
        timings = {}  # stage -> {"wall_s", "cpu_s"}
        if args.subcommand == "all":
            report = cmd_all(cfg, out, args.workers, timings)
        else:
            report = _timed(timings, args.subcommand, _COMMANDS[args.subcommand],
                            cfg, out, args.workers)
        _write_meta(out, argv if argv is not None else sys.argv[1:], timings)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if report["passed"]:
        return 0
    print(f"{args.subcommand}: checks failed (see reports)", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
