"""The four benchmark workloads: set-up, one op, and the op's output checks.

Every op takes a fresh seed derived from (workload seed, op index) and draws
its inputs from it, so no cache across ops can pay.  An op returns its raw
outputs; ``check`` turns them into an Outcome (a digest of the output bytes
for the determinism pass, deterministic gate failures, and statistical
verdicts, which are counted but are not op failures).
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Context:
    """What set-up hands to every op of a run."""

    lv: object  # the levyvolterra package
    cli: object  # levyvolterra.cli, which holds the gate constants
    cfg: object  # RunConfig parsed from the workload's config file
    family: object = None  # built in set-up by the Monte Carlo workloads


@dataclass
class Outcome:
    digest: str
    errors: list = field(default_factory=list)  # deterministic gate failures
    law_checks_failed: int = 0  # ECF panel or covariance verdicts that failed
    checks_failed: int = 0  # CLI subcommand verdicts that failed


@dataclass(frozen=True)
class Workload:
    name: str
    op: object  # (ctx, seed, workers, out_dir) -> raw outputs
    check: object  # (ctx, raw, out_dir) -> Outcome
    family_in_setup: bool = False
    replay_workers_1: bool = False  # determinism pass also replays at workers=1


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.dtype).encode() + str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _nonfinite(name, arrays) -> list:
    return [] if all(np.isfinite(a).all() for a in arrays) else [f"{name}: non-finite output"]


def _gate(errors, name, value, limit):
    if not value <= limit:
        errors.append(f"{name} = {value!r} exceeds {limit!r}")


# -- cli_all -----------------------------------------------------------------

def cli_all_op(ctx, seed, workers, out):
    raw = copy.deepcopy(ctx.cfg.raw)
    # a per-op end time changes every resolvent family, so a family cache
    # across ops cannot pay; dt stays <= 1e-3, inside the closed-form gate
    raw["grid"]["t_end"] = 0.95 + 0.05 * float(np.random.default_rng(seed).random())
    config = out / "config.json"
    config.write_text(json.dumps(raw))
    reports = out / "reports"
    argv = ["all", "--config", str(config), "--seed", str(seed), "--out", str(reports),
            "--workers", str(workers)]
    return ctx.cli.main(argv)


def _strict_json(data: bytes):
    def refuse(token):
        raise ValueError(f"non-finite JSON token {token}")

    return json.loads(data, parse_constant=refuse)


def cli_all_check(ctx, rc, out):
    reports_dir = out / "reports"
    errors = [] if rc in (0, 1) else [f"exit code {rc}"]
    h = hashlib.sha256()
    reports = {}
    for path in sorted(reports_dir.iterdir()):
        if path.name == "run_meta.json":  # wall-clock metadata, outside the byte contract
            continue
        data = path.read_bytes()
        h.update(path.name.encode() + b"\0" + data)
        if path.suffix == ".json":
            try:
                reports[path.stem] = _strict_json(data)
            except ValueError as exc:
                errors.append(f"{path.name}: {exc}")
        elif any(cell in (b"nan", b"inf", b"-inf") for cell in data.replace(b"\r\n", b",").split(b",")):
            errors.append(f"{path.name}: non-finite cell")
    needed = ("resolvent_report", "parts_report", "weak_report", "ecf_report", "summary")
    missing = [name for name in needed if name not in reports]
    if missing:
        return Outcome(h.hexdigest(), errors + [f"missing reports {missing}"])
    cli = ctx.cli
    _gate(errors, "resolvent residual",
          max(reports["resolvent_report"]["results"]["residual_max_per_mode"]), cli.RESIDUAL_TOL)
    _gate(errors, "parts discrepancy",
          reports["parts_report"]["results"]["max_relative_discrepancy"], cli.PARTS_REL_TOL)
    _gate(errors, "route consistency gap",
          reports["weak_report"]["results"]["route_consistency_gap"], cli.ROUTE_CONSISTENCY_TOL)
    verdicts = reports["summary"]["verdicts"]
    return Outcome(h.hexdigest(), errors,
                   law_checks_failed=int(not reports["ecf_report"]["passed"]),
                   checks_failed=sum(not ok for ok in verdicts.values()))


# -- long_grid ---------------------------------------------------------------

def long_grid_op(ctx, seed, workers, out):
    lv, cfg = ctx.lv, ctx.cfg
    # per-op kernel rate: every op solves a family no earlier op has seen
    kernel = lv.KernelSpec.exponential(0.75 + 0.5 * float(np.random.default_rng(seed).random()))
    family = lv.build_resolvent_family(cfg.model, kernel, cfg.grid)
    resid = lv.resolvent_equation_residual(family)
    path = lv.sample_path(cfg.triplet, cfg.grid, 0, seed)
    stieltjes = lv.stieltjes_convolution(family, path)
    parts = lv.parts_convolution(family, path)
    weak = lv.weak_solution_residual(stieltjes, path, family)
    joint = lv.bounded_A_identity_residual(stieltjes, path, family)
    return resid, path, stieltjes, parts, weak, joint


def long_grid_check(ctx, raw, out):
    resid, path, stieltjes, parts, weak, joint = raw
    arrays = [resid.residuals, path.values, stieltjes.values, parts.values,
              weak.residuals, joint.residuals]
    errors = _nonfinite("long_grid", arrays)
    if not errors:
        cli = ctx.cli
        a, b = stieltjes.values, parts.values
        _gate(errors, "resolvent residual", resid.max_abs, cli.RESIDUAL_TOL)
        _gate(errors, "parts discrepancy",
              float(np.max(np.abs(a - b))) / max(float(np.max(np.abs(a))), 1e-300),
              cli.PARTS_REL_TOL)
        _gate(errors, "route consistency gap",
              float(np.max(np.abs(weak.residuals - joint.residuals))), cli.ROUTE_CONSISTENCY_TOL)
    return Outcome(_digest(arrays), errors)


# -- mc_gauss and mc_jumps ---------------------------------------------------

def _ecf(ctx, seed, workers):
    cfg = ctx.cfg
    return ctx.lv.ecf_comparison(ctx.family, cfg.triplet, cfg.grid.t_end, cfg.panel_size,
                                 cfg.n_samples, seed, workers=workers)


def _ecf_arrays(rep):
    return [np.array([r.empirical for r in rep.rows]), np.array([r.predicted for r in rep.rows]),
            np.array([r.z for r in rep.rows])]


def _ecf_errors(ctx, rep):
    arrays = _ecf_arrays(rep)
    errors = _nonfinite("ecf", arrays)
    if len(rep.rows) != ctx.cfg.panel_size or rep.n_samples != ctx.cfg.n_samples:
        errors.append("ecf panel or sample count differs from the request")
    # |E exp(i<y, X>)| <= 1 holds for every sample set and every valid law
    bound = 1.0 + 1e-12
    if not (np.abs(arrays[0]) <= bound).all() or not (np.abs(arrays[1]) <= bound).all():
        errors.append("characteristic function modulus above 1")
    return errors


def mc_gauss_op(ctx, seed, workers, out):
    cfg = ctx.cfg
    cov = ctx.lv.gaussian_covariance_check(ctx.family, cfg.triplet, cfg.grid.t_end,
                                           cfg.n_samples, seed, workers=workers)
    return cov, _ecf(ctx, seed, workers)


def mc_gauss_check(ctx, raw, out):
    cov, rep = raw
    arrays = [cov.q_predicted, cov.sample_var, cov.z]
    errors = _nonfinite("covariance", arrays) + _ecf_errors(ctx, rep)
    if not (cov.q_predicted > 0.0).all():
        errors.append("predicted Gaussian covariance not positive")
    law = int(not rep.passed) + int(cov.max_abs_z > ctx.cli.COVARIANCE_Z_TOL)
    return Outcome(_digest(arrays + _ecf_arrays(rep)), errors, law_checks_failed=law)


def mc_jumps_op(ctx, seed, workers, out):
    return _ecf(ctx, seed, workers)


def mc_jumps_check(ctx, rep, out):
    return Outcome(_digest(_ecf_arrays(rep)), _ecf_errors(ctx, rep),
                   law_checks_failed=int(not rep.passed))


# why each workload exists is in BENCHMARK.json and README.md
WORKLOADS = {w.name: w for w in [
    Workload("cli_all", cli_all_op, cli_all_check),
    Workload("long_grid", long_grid_op, long_grid_check),
    Workload("mc_gauss", mc_gauss_op, mc_gauss_check, family_in_setup=True, replay_workers_1=True),
    Workload("mc_jumps", mc_jumps_op, mc_jumps_check, family_in_setup=True, replay_workers_1=True),
]}
