"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite is sized for a desktop CPU.
"""

import json

import numpy as np
import pytest

from levyvolterra import (
    DiscreteMixture,
    JumpPart,
    KernelSpec,
    LevyTriplet,
    PointMass,
    StudyConfig,
    TagRule,
    TimeGrid,
    build_resolvent_family,
    build_spectral_model,
    certify_resolvent_properties,
    closed_form_exponential_resolvent,
    convergence_study,
    ecf_comparison,
    fit_order,
    gaussian_covariance_check,
    identity_resolvent_family,
    parts_convolution,
    resolvent_equation_residual,
    sample_path,
    solve_scalar_resolvent,
    stieltjes_convolution,
)
from levyvolterra.cli import ROUTE_CONSISTENCY_TOL
from levyvolterra.cli import main as cli_main

KERNEL = KernelSpec.exponential(1.0)
CRITERION_MUS = (1.0, np.pi**2, 4 * np.pi**2)
SEED = 20240601


def _report(num, ok, detail):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {detail}")


def test_criterion_01_scalar_resolvent_oracle():
    grid = TimeGrid(1.0, 1000)
    errs = {}
    for mu in CRITERION_MUS:
        s = solve_scalar_resolvent(KERNEL, mu, grid)
        errs[mu] = float(np.max(np.abs(s - closed_form_exponential_resolvent(mu, grid.nodes()))))
    orders = {}
    for mu in CRITERION_MUS:
        level_errs = []
        for n in (100, 200, 400):
            g = TimeGrid(1.0, n)
            s = solve_scalar_resolvent(KERNEL, mu, g)
            level_errs.append(np.max(np.abs(s - closed_form_exponential_resolvent(mu, g.nodes()))))
        orders[mu] = fit_order([1e-2, 5e-3, 2.5e-3], level_errs)
    ok = all(e <= 1e-5 for e in errs.values()) and all(p >= 1.7 for p in orders.values())
    _report(1, ok, f"max node errors {[f'{e:.2e}' for e in errs.values()]} (tol 1e-5), "
                   f"orders {[f'{p:.2f}' for p in orders.values()]} (>= 1.7)")
    for mu, e in errs.items():
        assert e <= 1e-5, f"mu={mu}: error {e}"
    for mu, p in orders.items():
        assert p >= 1.7, f"mu={mu}: order {p}"


def test_criterion_02_complete_positivity_consequences():
    worst_range, worst_incr = 0.0, 0.0
    for mu in CRITERION_MUS:
        for n in (100, 200, 400, 1000):
            s = solve_scalar_resolvent(KERNEL, mu, TimeGrid(1.0, n))
            rep = certify_resolvent_properties(s, tolerance=1e-10)
            worst_range = max(worst_range, rep.max_range_violation)
            worst_incr = max(worst_incr, rep.max_increase)
    ok = worst_range <= 1e-10 and worst_incr <= 1e-10
    _report(2, ok, f"max range violation {worst_range:.2e}, max increase {worst_incr:.2e} (tol 1e-10)")
    assert worst_range <= 1e-10
    assert worst_incr <= 1e-10


def test_criterion_03_resolvent_equation_residual():
    grid = TimeGrid(1.0, 1000)
    fam = build_resolvent_family(build_spectral_model(8, "dirichlet_laplacian"), KERNEL, grid)
    rep = resolvent_equation_residual(fam)
    ok = rep.max_abs <= 5e-5
    _report(3, ok, f"K=8, dt=1e-3: max independent-quadrature residual {rep.max_abs:.2e} (tol 5e-5)")
    assert rep.max_abs <= 5e-5


def _mixed_triplet_k4():
    return LevyTriplet(
        drift=np.array([0.3, -0.2, 0.1, 0.05]),
        gauss_var=np.array([1.0, 0.7, 0.4, 0.2]),
        jump=JumpPart(rate=2.0, law=PointMass(np.array([0.6, -0.4, 0.3, 0.2]))),
    )


def test_criterion_04_integration_by_parts_equivalence():
    grid = TimeGrid(1.0, 500)
    fam = build_resolvent_family(build_spectral_model(4, "dirichlet_laplacian"), KERNEL, grid)
    trip = _mixed_triplet_k4()
    worst = 0.0
    for idx in range(20):
        path = sample_path(trip, grid, idx, seed=SEED)
        a = stieltjes_convolution(fam, path, TagRule.LEFT).values
        b = parts_convolution(fam, path).values
        worst = max(worst, float(np.max(np.abs(a - b))) / max(float(np.max(np.abs(a))), 1e-300))
    ok = worst <= 1e-12
    _report(4, ok, f"20 seeds, mixed K=4: max relative node discrepancy {worst:.2e} (tol 1e-12)")
    assert worst <= 1e-12


def _levels(model, fine_grid, factors):
    """Study level families, coarse to fine: model and KERNEL solved on each coarsening."""
    return [build_resolvent_family(model, KERNEL, fine_grid.coarsened(f)) for f in factors]


def test_criterion_05_tag_rule_insensitivity():
    study = convergence_study(StudyConfig(
        target="tag_discrepancy",
        families=_levels(build_spectral_model(2, "dirichlet_laplacian"), TimeGrid(1.0, 1024),
                         (8, 4, 2)),
        triplet=LevyTriplet(np.zeros(2), np.array([1.0, 1.0])),
        seeds=tuple(range(50)), seed=SEED))
    ok = study.monotone_decreasing and study.fitted_order >= 0.4
    _report(5, ok, f"mean |left-right| at t_end {np.round(study.norms, 5)}, "
                   f"fitted order {study.fitted_order:.2f} (>= 0.4), monotone {study.monotone_decreasing}")
    assert study.monotone_decreasing
    assert study.fitted_order >= 0.4


def test_criterion_06_gaussian_covariance_law():
    grid = TimeGrid(1.0, 2000)
    fam = build_resolvent_family(build_spectral_model(4, "dirichlet_laplacian"), KERNEL, grid)
    trip = LevyTriplet(drift=np.zeros(4), gauss_var=np.array([1.0, 0.8, 0.6, 0.4]))
    check = gaussian_covariance_check(fam, trip, 1.0, 200_000, seed=SEED, workers=2)
    ok = check.max_abs_z <= 4.0
    _report(6, ok, f"K=4, N=2e5: per-mode variance z {np.round(check.z, 2)} (|z| <= 4)")
    assert check.max_abs_z <= 4.0, check.z


@pytest.mark.parametrize("name,K,triplet", [
    ("gaussian-only", 2, LevyTriplet(np.zeros(2), np.array([1.0, 0.5]))),
    ("jump-only-pointmass", 1,
     LevyTriplet(np.zeros(1), np.zeros(1), JumpPart(2.0, PointMass(np.array([0.8]))))),
    ("jump-only-mixture", 1,
     LevyTriplet(np.zeros(1), np.zeros(1),
                 JumpPart(3.0, DiscreteMixture(np.array([0.6, 0.4]), np.array([[-0.5], [1.2]]))))),
    ("mixed", 2,
     LevyTriplet(np.array([0.3, -0.2]), np.array([0.5, 0.25]),
                 JumpPart(1.5, PointMass(np.array([0.6, -0.4]))))),
])
def test_criterion_07_characteristic_functional(name, K, triplet):
    grid = TimeGrid(1.0, 1000)
    fam = build_resolvent_family(build_spectral_model(K, "dirichlet_laplacian"), KERNEL, grid)
    rep = ecf_comparison(fam, triplet, 1.0, 40, 100_000, seed=SEED)
    ok = rep.frac_within_soft >= 0.95 and rep.max_abs_z <= 5.0
    _report(7, ok, f"{name}: panel 40, N=1e5: frac(|z|<=3) {rep.frac_within_soft:.3f} (>= 0.95), "
                   f"max |z| {rep.max_abs_z:.2f} (<= 5)")
    assert rep.frac_within_soft >= 0.95
    assert rep.max_abs_z <= 5.0


def test_criterion_08_weak_solution_identity():
    configs = {
        "gaussian-only": LevyTriplet(np.zeros(2), np.array([1.0, 0.5])),
        "jump-only": LevyTriplet(np.zeros(2), np.zeros(2),
                                 JumpPart(2.0, PointMass(np.array([0.6, -0.4])))),
        "mixed": LevyTriplet(np.array([0.3, -0.2]), np.array([0.5, 0.25]),
                             JumpPart(1.5, PointMass(np.array([0.6, -0.4])))),
    }
    model = build_spectral_model(2, "dirichlet_laplacian")
    stochastic_levels = _levels(model, TimeGrid(1.0, 1024), (16, 4, 1))
    all_monotone = True
    for name, trip in configs.items():
        study = convergence_study(StudyConfig(
            target="weak_residual", families=stochastic_levels, triplet=trip,
            seeds=tuple(range(10)), seed=SEED))
        per_seed_ok = np.all(np.diff(study.per_seed, axis=1) < 0.0, axis=1)
        monotone = bool(np.all(per_seed_ok))
        all_monotone = all_monotone and monotone
        print(f"    weak residual [{name}]: monotone decrease for "
              f"{int(per_seed_ok.sum())}/10 seeds, mean sup levels {np.round(study.norms, 5)}, "
              f"route gap {study.route_gap:.1e}")
        assert monotone, f"{name}: {study.per_seed}"
        assert study.route_gap <= ROUTE_CONSISTENCY_TOL, name
    det = convergence_study(StudyConfig(
        target="weak_residual", families=_levels(model, TimeGrid(1.0, 400), (4, 2, 1)),
        triplet=LevyTriplet(np.array([1.0, -0.5]), np.zeros(2)),
        seeds=(0,), seed=SEED, tag_rule=TagRule.MIDPOINT))
    ok = all_monotone and det.fitted_order >= 1.7
    _report(8, ok, f"stochastic residuals monotone over 3 levels for 10 seeds x 3 configs; "
                   f"deterministic order {det.fitted_order:.2f} (>= 1.7)")
    assert det.fitted_order >= 1.7


def test_criterion_09_degenerate_exactness():
    grid = TimeGrid(1.0, 300)
    trip = LevyTriplet(np.array([0.3, -0.2, 0.1]), np.array([1.0, 0.5, 0.25]),
                       JumpPart(2.0, PointMass(np.array([0.6, -0.4, 0.2]))))
    ident = identity_resolvent_family(3, KERNEL, grid)
    bitwise = all(
        np.array_equal(stieltjes_convolution(ident, sample_path(trip, grid, i, SEED)).values,
                       sample_path(trip, grid, i, SEED).values)
        for i in range(5)
    )
    fam = build_resolvent_family(build_spectral_model(2, "dirichlet_laplacian"), KERNEL, TimeGrid(1.0, 200))
    rep = ecf_comparison(fam, LevyTriplet.zero(2), 1.0, 12, 1000, seed=SEED)
    zero_z = bool(np.all(rep.z_scores == 0.0))
    ok = bitwise and zero_z
    _report(9, ok, f"identity resolvent bitwise Z_R == Z: {bitwise}; "
                   f"zero-noise ECF z-scores all exactly 0: {zero_z}")
    assert bitwise
    assert zero_z


def test_criterion_10_reproducibility(tmp_path):
    cfg = {
        "schema_version": 1,
        "kernel": {"family": "exponential", "rate": 1.0},
        "model": {"K": 2, "rule": "dirichlet_laplacian"},
        "triplet": {"drift": [0.3, -0.2], "gauss_var": [0.5, 0.25],
                    "jump": {"rate": 1.5, "law": {"kind": "point_mass", "mark": [0.6, -0.4]}}},
        "grid": {"t_end": 1.0, "n_steps": 1000},
        "mc": {"n_samples": 2000, "seed": SEED},
        "panel_size": 8,
        "output": {"directory": "out", "formats": ["csv", "json"]},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = [tmp_path / f"run{i}" for i in range(3)]
    codes = [
        cli_main(["all", "--config", str(cfg_path), "--out", str(outs[0])]),
        cli_main(["all", "--config", str(cfg_path), "--out", str(outs[1])]),
        cli_main(["all", "--config", str(cfg_path), "--out", str(outs[2]), "--workers", "3"]),
    ]
    names = sorted(p.name for p in outs[0].iterdir() if p.name != "run_meta.json")
    identical = all(
        (outs[0] / n).read_bytes() == (outs[1] / n).read_bytes()
        and (outs[0] / n).read_bytes() == (outs[2] / n).read_bytes()
        for n in names
    )
    ok = codes == [0, 0, 0] and identical
    _report(10, ok, f"3 `all` runs (one with --workers 3): exit codes {codes}, "
                    f"{len(names)} artifacts byte-identical: {identical}")
    assert codes == [0, 0, 0]
    assert identical
