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
    bounded_A_identity_residual,
    build_resolvent_family,
    build_spectral_model,
    convergence_study,
    convolve_at,
    fit_order,
    identity_resolvent_family,
    sample_path,
    stieltjes_convolution,
    weak_solution_residual,
)
from levyvolterra import convolution, levy, verification
from levyvolterra.cli import ROUTE_CONSISTENCY_TOL
from stream_reference import block_budget, coupled_reference

KERNEL = KernelSpec.exponential(1.0)


def mixed_triplet(K=2):
    return LevyTriplet(
        drift=np.linspace(0.3, -0.2, K),
        gauss_var=np.linspace(0.8, 0.3, K),
        jump=JumpPart(rate=1.5, law=PointMass(np.linspace(0.6, -0.4, K))),
    )


def trapezoid_loop_residual(zr, path, fam):
    """Per-node trapezoid reference: one dot product of a reversed kernel row per node."""
    grid = fam.grid
    a = np.exp(-grid.nodes())
    ref = np.zeros_like(zr.values)
    for i in range(1, grid.n_steps + 1):
        w = np.ones(i + 1)
        w[0] = w[i] = 0.5
        quad = grid.dt * ((w * a[i::-1]) @ zr.values[: i + 1])
        ref[i] = zr.values[i] + fam.gammas * quad - path.values[i]
    return ref


class TestWeakResidual:
    def test_identity_surrogate_residual_vanishes(self):
        # R == I with gamma = 0 per table: Z_R = Z and the integral term
        # carries a zero factor, so the residual is exactly zero
        grid = TimeGrid(1.0, 150)
        fam = identity_resolvent_family(2, KERNEL, grid)
        path = sample_path(mixed_triplet(), grid, 0, seed=4)
        zr = stieltjes_convolution(fam, path)
        prof = weak_solution_residual(zr, path, fam)
        assert prof.max_abs == 0.0

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
        assert weak_solution_residual(zr, path, fam).max_abs == 0.0

    def test_deterministic_residual_is_quadrature_defect(self):
        sups = []
        for n in (100, 200, 400):
            grid = TimeGrid(1.0, n)
            fam = build_resolvent_family(build_spectral_model(1, [np.pi**2]), KERNEL, grid)
            path = sample_path(LevyTriplet(np.array([1.0]), np.zeros(1)), grid, 0, seed=0)
            zr = stieltjes_convolution(fam, path, TagRule.MIDPOINT)
            sups.append(weak_solution_residual(zr, path, fam).max_abs)
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

    @pytest.mark.parametrize("oracle", [weak_solution_residual, bounded_A_identity_residual])
    def test_dimension_mismatch_rejected(self, oracle):
        # a 1-mode convolution and path against a 2-mode family
        grid = TimeGrid(1.0, 50)
        one = build_resolvent_family(build_spectral_model(1, [1.0]), KERNEL, grid)
        two = build_resolvent_family(build_spectral_model(2, "dirichlet_laplacian"), KERNEL, grid)
        path = sample_path(mixed_triplet(1), grid, 0, seed=3)
        zr = stieltjes_convolution(one, path)
        with pytest.raises(ValueError, match="dimension mismatch"):
            oracle(zr, path, two)

    def test_matches_per_node_trapezoid_loop(self):
        grid = TimeGrid(1.0, 300)
        fam = build_resolvent_family(build_spectral_model(3, "dirichlet_laplacian"), KERNEL, grid)
        path = sample_path(mixed_triplet(3), grid, 1, seed=12)
        zr = stieltjes_convolution(fam, path)
        ref = trapezoid_loop_residual(zr, path, fam)
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
        assert bounded_A_identity_residual(zr, path, fam).max_abs == 0.0

    @pytest.mark.parametrize("K", [1, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 200])
    def test_matches_per_node_trapezoid_loop(self, n, K):
        # the FFT product with rank-1 end terms against the per-node loop,
        # down to grids where the end columns overlap (n = 1, 2)
        grid = TimeGrid(1.0, n)
        fam = build_resolvent_family(build_spectral_model(K, "dirichlet_laplacian"), KERNEL, grid)
        trip = LevyTriplet(np.linspace(0.3, -0.2, K), np.linspace(0.8, 0.3, K),
                           JumpPart(rate=8.0, law=PointMass(np.linspace(0.6, -0.4, K))))
        path = sample_path(trip, grid, 0, seed=5)
        assert path.jump_times.size > 0
        zr = stieltjes_convolution(fam, path)
        got = bounded_A_identity_residual(zr, path, fam).residuals
        assert np.all(got[0] == 0.0)
        assert np.max(np.abs(got - trapezoid_loop_residual(zr, path, fam))) <= 1e-12

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
            sups.append(bounded_A_identity_residual(zr, path, fam).max_abs)
        assert sups[0] > sups[1] > sups[2]
        assert sups[0] / sups[2] > 3.0


# one of each branch of the block layout; at seed 16 jump-only sample 3 has no jump
STUDY_TRIPLETS = {
    "gaussian": LevyTriplet(np.array([0.3, -0.2]), np.array([0.5, 0.25])),
    "jump-only": LevyTriplet(np.array([0.3, -0.2]), np.zeros(2),
                             JumpPart(1.5, PointMass(np.array([1.2, -0.4])))),
    "mixed": mixed_triplet(),
    "mixture-and-noise": LevyTriplet(np.zeros(2), np.array([0.4, 0.3]), JumpPart(
        3.0, DiscreteMixture(np.array([0.5, 0.3, 0.2]),
                             np.array([[0.5, 0.2], [-0.4, 0.1], [0.2, -0.3]])))),
}


def per_sample_tag_study(trip, fams, factors, seeds, seed):
    """The tag study one outcome at a time: coupled paths, then convolve_at LEFT and RIGHT."""
    per_seed = np.zeros((len(seeds), len(fams)))
    for si, idx in enumerate(seeds):
        paths = coupled_reference(trip, fams[-1].grid, factors, idx, seed)
        for li, (fam, path) in enumerate(zip(fams, paths)):
            n = fam.grid.n_steps
            left = convolve_at(fam, path, n, TagRule.LEFT)
            right = convolve_at(fam, path, n, TagRule.RIGHT)
            per_seed[si, li] = float(np.linalg.norm(left - right))
    return per_seed


def levels(model, fine_grid, factors, kernel=KERNEL):
    """The study's level families: model and kernel solved on each coarsening, coarse to fine."""
    return [build_resolvent_family(model, kernel, fine_grid.coarsened(f)) for f in factors]


def jump_cell_defects(fam, path):
    """The weak study's jump-cell correction of one path, the one-row call."""
    return verification._jump_cell_defects(fam, 1, levy._path_block(path)[1])[0]


class TestJumpCellDefects:
    GRID = TimeGrid(1.0, 50)

    def family(self, level):
        return build_resolvent_family(build_spectral_model(2, "dirichlet_laplacian"),
                                      KernelSpec.constant(level), self.GRID)

    @pytest.mark.parametrize("theta", [1.0, 0.75, 0.5, 0.2, 1e-9])
    def test_one_jump_under_a_constant_kernel(self, theta):
        # a(t) = level: a jump at tau = t_j + theta dt puts the trapezoid
        # gamma dt level J (theta - 1/2) above the exact integral at every
        # node from the end of the jump's cell on, and nothing before it
        level, j, mark = 0.7, 17, np.array([1.2, -0.4])
        fam, nodes, dt = self.family(level), self.GRID.nodes(), self.GRID.dt
        tau = nodes[j + 1] if theta == 1.0 else nodes[j] + theta * dt
        c = verification._jump_cell_defects(
            fam, 2, (np.array([1, 0]), np.array([tau]), mark[None]))
        expected = fam.gammas * dt * level * mark * (theta - 0.5)
        assert np.all(c[0, : j + 1] == 0.0) and np.all(c[1] == 0.0)
        assert np.allclose(c[0, j + 1 :], expected, rtol=1e-9, atol=1e-15)

    def test_no_jumps_are_exact_zeros(self):
        c = verification._jump_cell_defects(self.family(1.0), 3, None)
        assert c.shape == (3, 51, 2) and np.all(c == 0.0)

    def test_node_slices_change_no_bit(self, monkeypatch):
        # the terms are built a slice of output nodes at a time, within the
        # jump-weight budget; a budget of 3 nodes gives the same floats
        fam = build_resolvent_family(build_spectral_model(2, "dirichlet_laplacian"), KERNEL,
                                     TimeGrid(1.0, 100))
        _, _, _, jumps = next(levy._draw_blocks(mixed_triplet(), fam.grid, 5, 0, 4))
        whole = verification._jump_cell_defects(fam, 4, jumps)
        monkeypatch.setattr(convolution, "_JUMP_BLOCK_ENTRIES", 3 * jumps[1].size * fam.K)
        assert np.array_equal(verification._jump_cell_defects(fam, 4, jumps), whole)
        assert np.any(whole != 0.0)


class TestConvergenceStudy:
    def test_needs_three_levels(self):
        with pytest.raises(ValueError):
            StudyConfig(target="resolvent_error",
                        families=levels(build_spectral_model(1, [1.0]), TimeGrid(1.0, 100), (2, 1)))

    def test_unknown_target(self):
        with pytest.raises(ValueError):
            StudyConfig(target="nonsense",
                        families=levels(build_spectral_model(1, [1.0]), TimeGrid(1.0, 100),
                                        (4, 2, 1)))

    @pytest.mark.parametrize("order", ["fine-to-coarse", "repeated", "other-t_end"])
    def test_levels_must_be_coarsenings_coarse_to_fine(self, order):
        model = build_spectral_model(1, [1.0])
        fams = levels(model, TimeGrid(1.0, 100), (4, 2, 1))
        fams = {"fine-to-coarse": fams[::-1],
                "repeated": [fams[0], fams[0], fams[2]],
                "other-t_end": [build_resolvent_family(model, KERNEL, TimeGrid(2.0, 25))]
                + fams[1:]}[order]
        with pytest.raises(ValueError, match="coarse to fine"):
            StudyConfig(target="resolvent_error", families=fams)

    def test_resolvent_error_order(self):
        study = convergence_study(StudyConfig(
            target="resolvent_error",
            families=levels(build_spectral_model(3, "dirichlet_laplacian"), TimeGrid(1.0, 400),
                            (4, 2, 1))))
        assert study.fitted_order >= 1.7
        assert study.monotone_decreasing

    def test_resolvent_error_refuses_other_exponential_rates(self):
        # the closed form is the oracle for a(t) = exp(-t) only
        fams = levels(build_spectral_model(2, "dirichlet_laplacian"), TimeGrid(1.0, 400),
                      (4, 2, 1), kernel=KernelSpec.exponential(2.0))
        with pytest.raises(ValueError, match="exp\\(-t\\)"):
            convergence_study(StudyConfig(target="resolvent_error", families=fams))

    def test_tag_discrepancy_order(self):
        study = convergence_study(StudyConfig(
            target="tag_discrepancy",
            families=levels(build_spectral_model(2, "dirichlet_laplacian"), TimeGrid(1.0, 512),
                            (4, 2, 1)),
            triplet=LevyTriplet(np.zeros(2), np.ones(2)),
            seeds=tuple(range(20)), seed=77))
        assert study.fitted_order >= 0.4
        assert study.monotone_decreasing

    @pytest.mark.parametrize("block", ["default", "2-samples"])
    @pytest.mark.parametrize("seeds", [tuple(range(12)), (3, 4, 9)], ids=["0-11", "3-4-9"])
    @pytest.mark.parametrize("factors", [(4, 2, 1), (25, 5, 1)], ids=["4-2-1", "25-5-1"])
    @pytest.mark.parametrize("name", sorted(STUDY_TRIPLETS))
    def test_tag_study_equals_per_sample_reference(self, monkeypatch, name, factors, seeds,
                                                   block):
        trip, seed, grid = STUDY_TRIPLETS[name], 16, TimeGrid(1.0, 100)
        fams = levels(build_spectral_model(2, "dirichlet_laplacian"), grid, factors)
        if block == "2-samples":
            monkeypatch.setattr(levy, "_BLOCK_BYTES", block_budget(trip, grid, 2))
        study = convergence_study(StudyConfig(target="tag_discrepancy", families=fams,
                                              triplet=trip, seeds=seeds, seed=seed))
        assert np.array_equal(study.per_seed,
                              per_sample_tag_study(trip, fams, factors, seeds, seed))
        assert np.all(study.per_seed > 0.0)

    def test_jump_only_study_covers_a_seed_without_jumps(self):
        counts = [sample_path(STUDY_TRIPLETS["jump-only"], TimeGrid(1.0, 100), idx,
                              seed=16).jump_times.size for idx in (3, 4, 9)]
        assert 0 in counts and max(counts) > 1

    @pytest.mark.parametrize("seeds, runs", [
        ((3, 4, 9), [(3, 5), (9, 10)]),
        (tuple(range(7)), [(0, 7)]),
        ((5, 4, 4), [(5, 6), (4, 5), (4, 5)]),
    ])
    def test_one_draw_per_run_of_consecutive_indices(self, monkeypatch, seeds, runs):
        from levyvolterra import verification

        calls = []
        real = verification._draw_blocks

        def recording(triplet, grid, seed, lo, hi):
            calls.append((lo, hi))
            return real(triplet, grid, seed, lo, hi)

        monkeypatch.setattr(verification, "_draw_blocks", recording)
        trip = mixed_triplet()
        fams = levels(build_spectral_model(2, "dirichlet_laplacian"), TimeGrid(1.0, 64),
                      (4, 2, 1))
        study = convergence_study(StudyConfig(target="tag_discrepancy", families=fams,
                                              triplet=trip, seeds=seeds, seed=3))
        assert calls == runs
        assert np.array_equal(study.per_seed,
                              per_sample_tag_study(trip, fams, (4, 2, 1), seeds, 3))

    def test_weak_residual_coupled_seeds_monotone(self):
        study = convergence_study(StudyConfig(
            target="weak_residual",
            families=levels(build_spectral_model(2, "dirichlet_laplacian"), TimeGrid(1.0, 512),
                            (16, 4, 1)),
            triplet=mixed_triplet(), seeds=tuple(range(5)), seed=31))
        assert study.per_seed.shape == (5, 3)
        assert np.all(np.diff(study.per_seed, axis=1) < 0.0)

    def test_route_gap_matches_per_path_loop(self):
        # the reference: each coupled outcome x each level -> Stieltjes route
        # -> both residual oracles, written out path by path
        fams = levels(build_spectral_model(2, "dirichlet_laplacian"), TimeGrid(1.0, 256),
                      (16, 4, 1))
        trip, seeds, seed = mixed_triplet(), (0, 1, 2), 31
        study = convergence_study(StudyConfig(target="weak_residual", families=fams,
                                              triplet=trip, seeds=seeds, seed=seed))
        per_seed = np.zeros((len(seeds), len(fams)))
        gap = 0.0
        for idx in seeds:
            paths = coupled_reference(trip, fams[-1].grid, (16, 4, 1), idx, seed)
            for li, (fam, path) in enumerate(zip(fams, paths)):
                zr = stieltjes_convolution(fam, path, TagRule.LEFT)
                weak = weak_solution_residual(zr, path, fam)
                joint = bounded_A_identity_residual(zr, path, fam)
                per_seed[idx, li] = np.max(np.abs(weak.residuals - jump_cell_defects(fam, path)))
                gap = max(gap, float(np.max(np.abs(weak.residuals - joint.residuals))))
        assert np.array_equal(study.per_seed, per_seed)
        assert study.route_gap == gap
        assert 0.0 < study.route_gap <= ROUTE_CONSISTENCY_TOL

    @pytest.mark.parametrize("seeds", [(0, 1, 2, 3, 4, 5), (3, 4, 9)], ids=["0-5", "3-4-9"])
    @pytest.mark.parametrize("name", sorted(STUDY_TRIPLETS))
    def test_weak_study_equals_per_path_loop(self, monkeypatch, name, seeds):
        # samples of 2 per _draw_blocks block, so runs span several blocks
        trip, seed = STUDY_TRIPLETS[name], 16
        fams = levels(build_spectral_model(2, "dirichlet_laplacian"), TimeGrid(1.0, 100),
                      (25, 5, 1))
        monkeypatch.setattr(levy, "_BLOCK_BYTES", block_budget(trip, TimeGrid(1.0, 100), 2))
        study = convergence_study(StudyConfig(target="weak_residual", families=fams,
                                              triplet=trip, seeds=seeds, seed=seed))
        per_seed = np.zeros((len(seeds), len(fams)))
        for si, idx in enumerate(seeds):
            paths = coupled_reference(trip, fams[-1].grid, (25, 5, 1), idx, seed)
            for li, (fam, path) in enumerate(zip(fams, paths)):
                zr = stieltjes_convolution(fam, path, TagRule.LEFT)
                weak = weak_solution_residual(zr, path, fam).residuals
                per_seed[si, li] = np.max(np.abs(weak - jump_cell_defects(fam, path)))
        assert np.array_equal(study.per_seed, per_seed)

    def test_zero_norms_fail_only_when_the_order_is_read(self):
        # a zero-noise triplet has zero residuals at every level: the study
        # still returns its table, and only the order has nothing to fit
        study = convergence_study(StudyConfig(
            target="weak_residual",
            families=levels(build_spectral_model(2, "dirichlet_laplacian"), TimeGrid(1.0, 64),
                            (4, 2, 1)),
            triplet=LevyTriplet.zero(2), seeds=(0, 1)))
        assert study.per_seed.shape == (2, 3) and np.all(study.per_seed == 0.0)
        assert study.route_gap == 0.0
        with pytest.raises(ValueError, match="norms must be positive"):
            study.fitted_order

    def test_builds_no_family(self, monkeypatch):
        # the levels come solved; the study only reads them
        from levyvolterra import spectral, verification

        assert not hasattr(verification, "build_resolvent_family")

        fams = levels(build_spectral_model(2, "dirichlet_laplacian"), TimeGrid(1.0, 64), (4, 2, 1))

        def refuse(*args):
            raise AssertionError("convergence_study built a family")

        monkeypatch.setattr(spectral, "build_resolvent_family", refuse)
        monkeypatch.setattr(spectral, "solve_resolvent_modes", refuse)
        for target in ("resolvent_error", "tag_discrepancy", "weak_residual"):
            study = convergence_study(StudyConfig(target=target, families=fams,
                                                  triplet=mixed_triplet(), seeds=(0, 1)))
            assert np.array_equal(study.dts, [1 / 16, 1 / 32, 1 / 64])
            # only the weak target forms the convolutions both oracles check
            assert (study.route_gap is None) == (target != "weak_residual")

    def test_fit_order_rejects_zero_norms(self):
        with pytest.raises(ValueError):
            fit_order([1e-2, 5e-3, 2.5e-3], [1e-3, 0.0, 1e-5])
