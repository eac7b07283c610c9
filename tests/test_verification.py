import numpy as np
import pytest

from levyvolterra import (
    JumpPart,
    KernelSpec,
    LevyTriplet,
    PointMass,
    StudyConfig,
    TagRule,
    TimeGrid,
    bounded_A_identity_residual,
    build_resolvent_family,
    build_spectral_model,
    convergence_study,
    fit_order,
    identity_resolvent_family,
    sample_path,
    stieltjes_convolution,
    weak_solution_residual,
)
from levyvolterra.cli import ROUTE_CONSISTENCY_TOL

KERNEL = KernelSpec.exponential(1.0)


def mixed_triplet(K=2):
    return LevyTriplet(
        drift=np.linspace(0.3, -0.2, K),
        gauss_var=np.linspace(0.8, 0.3, K),
        jump=JumpPart(rate=1.5, law=PointMass(np.linspace(0.6, -0.4, K))),
    )


class TestWeakResidual:
    def test_identity_surrogate_residual_vanishes(self):
        # R == I with gamma = 0 per table: Z_R = Z and the integral term
        # carries a zero factor, so the residual is exactly zero
        grid = TimeGrid(1.0, 150)
        fam = identity_resolvent_family(2, KERNEL, grid)
        path = sample_path(mixed_triplet(), grid, 0, seed=4)
        zr = stieltjes_convolution(fam, path)
        prof = weak_solution_residual(zr, path, fam)
        assert prof.sup == 0.0

    def test_node_zero_exact(self):
        grid = TimeGrid(1.0, 100)
        fam = build_resolvent_family(build_spectral_model(2, "dirichlet_laplacian"), KERNEL, grid)
        path = sample_path(mixed_triplet(), grid, 1, seed=4)
        zr = stieltjes_convolution(fam, path)
        prof = weak_solution_residual(zr, path, fam)
        assert np.all(prof.residuals[0] == 0.0)

    def test_zero_path_zero_residual(self):
        grid = TimeGrid(1.0, 100)
        fam = build_resolvent_family(build_spectral_model(2, "dirichlet_laplacian"), KERNEL, grid)
        path = sample_path(LevyTriplet.zero(2), grid, 0, seed=0)
        zr = stieltjes_convolution(fam, path)
        assert weak_solution_residual(zr, path, fam).sup == 0.0

    def test_deterministic_residual_is_quadrature_defect(self):
        sups = []
        for n in (100, 200, 400):
            grid = TimeGrid(1.0, n)
            fam = build_resolvent_family(build_spectral_model(1, [np.pi**2]), KERNEL, grid)
            path = sample_path(LevyTriplet(np.array([1.0]), np.zeros(1)), grid, 0, seed=0)
            zr = stieltjes_convolution(fam, path, TagRule.MIDPOINT)
            sups.append(weak_solution_residual(zr, path, fam).sup)
        assert sups[0] > sups[1] > sups[2]
        assert fit_order([1e-2, 5e-3, 2.5e-3], sups) >= 1.7

    def test_residual_linearity(self):
        grid = TimeGrid(1.0, 120)
        fam = build_resolvent_family(build_spectral_model(2, "dirichlet_laplacian"), KERNEL, grid)
        p1 = sample_path(LevyTriplet(np.array([0.5, 0.0]), np.array([1.0, 0.2])), grid, 0, seed=9)
        p2 = sample_path(LevyTriplet(np.array([-0.1, 0.3]), np.array([0.4, 0.6])), grid, 1, seed=9)
        from levyvolterra import SamplePath

        summed = SamplePath(grid=grid, drift=p1.drift + p2.drift,
                            gauss_increments=p1.gauss_increments + p2.gauss_increments,
                            jump_times=np.zeros(0), jump_marks=np.zeros((0, 2)))
        r1 = weak_solution_residual(stieltjes_convolution(fam, p1), p1, fam).residuals
        r2 = weak_solution_residual(stieltjes_convolution(fam, p2), p2, fam).residuals
        rs = weak_solution_residual(stieltjes_convolution(fam, summed), summed, fam).residuals
        assert np.allclose(rs, r1 + r2, atol=1e-12)

    def test_grid_mismatch_rejected(self):
        fam = build_resolvent_family(build_spectral_model(1, [1.0]), KERNEL, TimeGrid(1.0, 100))
        path = sample_path(LevyTriplet.zero(1), TimeGrid(1.0, 100), 0, seed=0)
        zr = stieltjes_convolution(fam, path)
        other = sample_path(LevyTriplet.zero(1), TimeGrid(1.0, 50), 0, seed=0)
        with pytest.raises(ValueError):
            weak_solution_residual(zr, other, fam)

    def test_matches_per_node_trapezoid_loop(self):
        grid = TimeGrid(1.0, 300)
        fam = build_resolvent_family(build_spectral_model(3, "dirichlet_laplacian"), KERNEL, grid)
        path = sample_path(mixed_triplet(3), grid, 1, seed=12)
        zr = stieltjes_convolution(fam, path)
        a = np.exp(-grid.nodes())
        ref = np.zeros_like(zr.values)
        for i in range(1, grid.n_steps + 1):
            w = np.ones(i + 1)
            w[0] = w[i] = 0.5
            quad = grid.dt * ((w * a[i::-1]) @ zr.values[: i + 1])
            ref[i] = zr.values[i] + fam.gammas * quad - path.values[i]
        assert np.max(np.abs(weak_solution_residual(zr, path, fam).residuals - ref)) <= 1e-12

    def test_agrees_with_bounded_route_on_long_grid(self):
        grid = TimeGrid(1.0, 4000)
        fam = build_resolvent_family(build_spectral_model(8, "dirichlet_laplacian"), KERNEL, grid)
        path = sample_path(mixed_triplet(8), grid, 0, seed=2024)
        zr = stieltjes_convolution(fam, path)
        weak = weak_solution_residual(zr, path, fam).residuals
        joint = bounded_A_identity_residual(zr, path, fam).residuals
        assert np.max(np.abs(weak - joint)) <= ROUTE_CONSISTENCY_TOL


class TestBoundedIdentityResidual:
    def test_zero_path(self):
        grid = TimeGrid(1.0, 80)
        fam = build_resolvent_family(build_spectral_model(3, "dirichlet_laplacian"), KERNEL, grid)
        path = sample_path(LevyTriplet.zero(3), grid, 0, seed=0)
        zr = stieltjes_convolution(fam, path)
        assert bounded_A_identity_residual(zr, path, fam).sup == 0.0

    def test_equals_stacked_weak_residuals(self):
        grid = TimeGrid(1.0, 200)
        fam = build_resolvent_family(build_spectral_model(3, "dirichlet_laplacian"), KERNEL, grid)
        path = sample_path(mixed_triplet(3), grid, 2, seed=13)
        zr = stieltjes_convolution(fam, path)
        weak = weak_solution_residual(zr, path, fam)
        joint = bounded_A_identity_residual(zr, path, fam)
        assert np.max(np.abs(weak.residuals - joint.residuals)) < 1e-12

    def test_single_jump_residual_shrinks_under_refinement(self):
        # jump pinned to a node shared by all levels: the sup sits right
        # after the jump and wobbles with the jump's offset inside its step,
        # so a fixed offset isolates the pure quadrature defect (order 1)
        sups = []
        from levyvolterra import SamplePath

        for n in (128, 256, 512):
            grid = TimeGrid(1.0, n)
            fam = build_resolvent_family(build_spectral_model(1, [np.pi**2]), KERNEL, grid)
            path = SamplePath(grid=grid, drift=np.zeros(1), gauss_increments=np.zeros((n, 1)),
                              jump_times=np.array([0.25]), jump_marks=np.array([[1.0]]))
            zr = stieltjes_convolution(fam, path)
            sups.append(bounded_A_identity_residual(zr, path, fam).sup)
        assert sups[0] > sups[1] > sups[2]
        assert sups[0] / sups[2] > 3.0


class TestConvergenceStudy:
    def test_needs_three_levels(self):
        with pytest.raises(ValueError):
            StudyConfig(target="resolvent_error", kernel=KERNEL,
                        model=build_spectral_model(1, [1.0]),
                        fine_grid=TimeGrid(1.0, 100), factors=(2, 1))

    def test_unknown_target(self):
        with pytest.raises(ValueError):
            StudyConfig(target="nonsense", kernel=KERNEL,
                        model=build_spectral_model(1, [1.0]),
                        fine_grid=TimeGrid(1.0, 100), factors=(4, 2, 1))

    def test_resolvent_error_order(self):
        study = convergence_study(StudyConfig(
            target="resolvent_error", kernel=KERNEL,
            model=build_spectral_model(3, "dirichlet_laplacian"),
            fine_grid=TimeGrid(1.0, 400), factors=(4, 2, 1)))
        assert study.fitted_order >= 1.7
        assert study.monotone_decreasing

    def test_tag_discrepancy_order(self):
        study = convergence_study(StudyConfig(
            target="tag_discrepancy", kernel=KERNEL,
            model=build_spectral_model(2, "dirichlet_laplacian"),
            fine_grid=TimeGrid(1.0, 512), factors=(4, 2, 1),
            triplet=LevyTriplet(np.zeros(2), np.ones(2)),
            seeds=tuple(range(20)), seed=77))
        assert study.fitted_order >= 0.4
        assert study.monotone_decreasing

    def test_weak_residual_coupled_seeds_monotone(self):
        study = convergence_study(StudyConfig(
            target="weak_residual", kernel=KERNEL,
            model=build_spectral_model(2, "dirichlet_laplacian"),
            fine_grid=TimeGrid(1.0, 512), factors=(16, 4, 1),
            triplet=mixed_triplet(), seeds=tuple(range(5)), seed=31))
        assert study.per_seed.shape == (5, 3)
        assert np.all(np.diff(study.per_seed, axis=1) < 0.0)

    def test_fit_order_rejects_zero_norms(self):
        with pytest.raises(ValueError):
            fit_order([1e-2, 5e-3, 2.5e-3], [1e-3, 0.0, 1e-5])
