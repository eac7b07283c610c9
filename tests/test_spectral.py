import numpy as np
import pytest

from levyvolterra import (
    KernelSpec,
    TimeGrid,
    build_resolvent_family,
    build_spectral_model,
    certify_resolvent_properties,
    closed_form_exponential_resolvent,
    identity_resolvent_family,
    resolvent_equation_residual,
)

KERNEL = KernelSpec.exponential(1.0)


class TestBuildSpectralModel:
    def test_dirichlet_single_mode(self):
        model = build_spectral_model(1, "dirichlet_laplacian")
        assert model.mu[0] == pytest.approx(np.pi**2)

    def test_dirichlet_three_modes(self):
        model = build_spectral_model(3, "dirichlet_laplacian")
        assert np.allclose(model.mu, [np.pi**2, 4 * np.pi**2, 9 * np.pi**2])

    def test_custom_passthrough(self):
        model = build_spectral_model(2, [1.0, 2.0])
        assert np.array_equal(model.mu, [1.0, 2.0])

    def test_invalid_custom_rejected(self):
        with pytest.raises(ValueError):
            build_spectral_model(2, [0.0, 1.0])
        with pytest.raises(ValueError):
            build_spectral_model(2, [2.0, 1.0])
        with pytest.raises(ValueError):
            build_spectral_model(0, "dirichlet_laplacian")


class TestResolventFamily:
    def test_single_mode_matches_closed_form(self):
        grid = TimeGrid(1.0, 1000)
        fam = build_resolvent_family(build_spectral_model(1, "dirichlet_laplacian"), KERNEL, grid)
        exact = closed_form_exponential_resolvent(np.pi**2, grid.nodes())
        assert np.max(np.abs(fam.s_matrix[:, 0] - exact)) < 1e-5

    def test_r0_is_identity(self):
        grid = TimeGrid(1.0, 100)
        fam = build_resolvent_family(build_spectral_model(4, "dirichlet_laplacian"), KERNEL, grid)
        x = np.array([1.0, -2.0, 0.5, 3.0])
        assert np.array_equal(fam.s_matrix[0] * x, x)

    def test_apply_matches_closed_form(self):
        grid = TimeGrid(1.0, 1000)
        fam = build_resolvent_family(build_spectral_model(1, [1.0]), KERNEL, grid)
        out = fam.s_matrix[1000] * np.array([2.0])
        assert out[0] == pytest.approx(2 * 0.5676676416183064, abs=1e-8)


def gregory_loop_residual(fam):
    """Per-node Gregory reference: the composite weights tabulated row by row."""
    grid = fam.grid
    a = np.exp(-grid.nodes())
    s = fam.s_matrix
    ref = np.zeros_like(s)
    for i in range(1, grid.n_steps + 1):
        if i == 1:
            w = np.array([0.5, 0.5])
        else:
            w = np.ones(i + 1)
            w[0] = w[i] = 5.0 / 12.0
            w[1] += 1.0 / 12.0
            w[i - 1] += 1.0 / 12.0
        ref[i] = s[i] - 1.0 + fam.gammas * (grid.dt * ((w * a[i::-1]) @ s[: i + 1]))
    return ref


class TestResolventEquationResidual:
    def test_identity_family_residual_is_zero(self):
        fam = identity_resolvent_family(3, KERNEL, TimeGrid(1.0, 100))
        rep = resolvent_equation_residual(fam)
        assert rep.max_abs == 0.0

    def test_node_zero_residual_is_zero(self):
        fam = build_resolvent_family(build_spectral_model(2, "dirichlet_laplacian"), KERNEL, TimeGrid(1.0, 100))
        rep = resolvent_equation_residual(fam)
        assert np.all(rep.residuals[0] == 0.0)

    def test_solved_tables_satisfy_discrete_equation(self):
        grid = TimeGrid(1.0, 1000)
        fam = build_resolvent_family(build_spectral_model(1, [np.pi**2]), KERNEL, grid)
        assert resolvent_equation_residual(fam).max_abs < 5e-5

    def test_residual_stays_small_under_refinement(self):
        # the solver solves the discretized equation exactly, so the
        # independently coded evaluator must report roundoff at every level
        for n in (100, 200, 400):
            fam = build_resolvent_family(
                build_spectral_model(2, "dirichlet_laplacian"), KERNEL, TimeGrid(1.0, n)
            )
            assert resolvent_equation_residual(fam).max_abs < 1e-10

    # rows 1..3 and n - 1, n are where a misplaced rank-1 end term would hide
    @pytest.mark.parametrize("row", [1, 2, 3, 40, 99, 100])
    def test_residual_detects_wrong_table(self, row):
        grid = TimeGrid(1.0, 100)
        fam = build_resolvent_family(build_spectral_model(1, [np.pi**2]), KERNEL, grid)
        corrupted = fam.s_matrix.copy()
        corrupted[row, 0] += 1e-3
        from levyvolterra import ResolventFamily

        bad = ResolventFamily(model=fam.model, kernel=fam.kernel, grid=grid, s_matrix=corrupted)
        assert resolvent_equation_residual(bad).max_abs > 1e-4

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 100])
    def test_matches_per_node_gregory_loop(self, n):
        # rows 1..3 are where the +1/12 columns meet the ends (both land on
        # column 1 at i = 2), so a misplaced rank-1 term shows there first;
        # the solved table is perturbed so the residual is not just roundoff
        grid = TimeGrid(1.0, n)
        fam = build_resolvent_family(build_spectral_model(3, "dirichlet_laplacian"), KERNEL, grid)
        rng = np.random.default_rng(n)
        from levyvolterra import ResolventFamily

        noisy = ResolventFamily(model=fam.model, kernel=fam.kernel, grid=grid,
                                s_matrix=fam.s_matrix + 1e-3 * rng.standard_normal(fam.s_matrix.shape))
        for f in (fam, noisy):
            got = resolvent_equation_residual(f).residuals
            assert np.all(got[0] == 0.0)
            assert np.max(np.abs(got - gregory_loop_residual(f))) <= 1e-12

    def test_long_grid_residual_is_roundoff(self):
        fam = build_resolvent_family(
            build_spectral_model(8, "dirichlet_laplacian"), KERNEL, TimeGrid(1.0, 4000)
        )
        assert resolvent_equation_residual(fam).max_abs < 1e-10


class TestVariationCertificate:
    def test_identity_family_zero_variation(self):
        fam = identity_resolvent_family(2, KERNEL, TimeGrid(1.0, 100))
        cert = certify_resolvent_properties(fam.s_matrix)
        assert np.array_equal(cert.total_variation, [0.0, 0.0])
        assert cert.passed

    def test_exponential_tv_values(self):
        grid = TimeGrid(1.0, 1000)
        fam = build_resolvent_family(
            build_spectral_model(2, [1.0, np.pi**2]), KERNEL, grid
        )
        cert = certify_resolvent_properties(fam.s_matrix)
        assert cert.total_variation[0] == pytest.approx(0.4323323583816936, abs=1e-8)
        assert cert.total_variation[1] == pytest.approx(0.9079830543129869, abs=1e-7)
        assert cert.passed
