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

    def test_residual_detects_wrong_table(self):
        grid = TimeGrid(1.0, 100)
        fam = build_resolvent_family(build_spectral_model(1, [np.pi**2]), KERNEL, grid)
        corrupted = fam.s_matrix.copy()
        corrupted[40, 0] += 1e-3
        from levyvolterra import ResolventFamily

        bad = ResolventFamily(model=fam.model, kernel=fam.kernel, grid=grid, s_matrix=corrupted)
        assert resolvent_equation_residual(bad).max_abs > 1e-4


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
