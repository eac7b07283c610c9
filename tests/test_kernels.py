import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyvolterra import (
    KernelSpec,
    TimeGrid,
    build_resolvent_family,
    build_spectral_model,
    certify_resolvent_properties,
    closed_form_exponential_resolvent,
    eval_kernel,
    solve_scalar_resolvent,
)
from levyvolterra.kernels import default_property_tolerance, solve_resolvent_modes

GAMMA_CATALOG = [0.0, 1.0, np.pi**2, 4 * np.pi**2, 9 * np.pi**2]


class TestEvalKernel:
    def test_exponential_at_zero(self):
        assert eval_kernel(KernelSpec.exponential(1.0), 0.0) == 1.0

    def test_exponential_at_one(self):
        assert eval_kernel(KernelSpec.exponential(1.0), 1.0) == pytest.approx(np.exp(-1), rel=1e-15)

    def test_constant(self):
        assert eval_kernel(KernelSpec.constant(1.0), 7.3) == 1.0

    def test_negative_t_rejected(self):
        with pytest.raises(ValueError):
            eval_kernel(KernelSpec.exponential(1.0), -0.1)

    def test_tabulated_interpolates_and_guards_span(self):
        kern = KernelSpec.tabulated([0.0, 1.0, 2.0], [1.0, 0.5, 0.25])
        assert eval_kernel(kern, 0.5) == pytest.approx(0.75)
        with pytest.raises(ValueError):
            eval_kernel(kern, 2.5)

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError):
            KernelSpec.exponential(0.0)
        with pytest.raises(ValueError):
            KernelSpec.constant(-1.0)
        with pytest.raises(ValueError):
            KernelSpec.tabulated([0.0, 0.0, 1.0], [1.0, 1.0, 1.0])


class TestSolveScalarResolvent:
    def test_gamma_zero_gives_ones(self):
        grid = TimeGrid(1.0, 50)
        for kern in (KernelSpec.exponential(2.0), KernelSpec.constant(3.0)):
            tab = solve_scalar_resolvent(kern, 0.0, grid)
            assert np.array_equal(tab.values, np.ones(51))

    def test_starts_at_one(self):
        tab = solve_scalar_resolvent(KernelSpec.exponential(1.0), 5.0, TimeGrid(1.0, 100))
        assert tab.values[0] == 1.0

    @pytest.mark.parametrize("mu", [1.0, np.pi**2, 4 * np.pi**2])
    def test_exponential_kernel_matches_closed_form(self, mu):
        grid = TimeGrid(1.0, 1000)
        tab = solve_scalar_resolvent(KernelSpec.exponential(1.0), mu, grid)
        exact = closed_form_exponential_resolvent(mu, grid.nodes())
        assert np.max(np.abs(tab.values - exact)) < 1e-5

    @pytest.mark.parametrize("gamma", [1.0, 5.0])
    def test_constant_kernel_matches_exponential_decay(self, gamma):
        # differentiating the defining equation with a == 1 gives s' = -gamma s
        grid = TimeGrid(1.0, 1000)
        tab = solve_scalar_resolvent(KernelSpec.constant(1.0), gamma, grid)
        assert np.max(np.abs(tab.values - np.exp(-gamma * grid.nodes()))) < 1e-7

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            solve_scalar_resolvent(KernelSpec.exponential(1.0), -1.0, TimeGrid(1.0, 10))

    def test_tabulated_from_exponential_agrees_with_closed_form(self):
        ts = np.linspace(0.0, 1.0, 5001)
        kern = KernelSpec.tabulated(ts, np.exp(-ts))
        grid = TimeGrid(1.0, 500)
        tab = solve_scalar_resolvent(kern, np.pi**2, grid)
        exact = closed_form_exponential_resolvent(np.pi**2, grid.nodes())
        assert np.max(np.abs(tab.values - exact)) < 1e-5

    def test_grid_refinement_order(self):
        # halving dt must shrink the closed-form error by >= 3.5x
        for mu in (1.0, np.pi**2, 4 * np.pi**2):
            errs = []
            for n in (100, 200, 400):
                grid = TimeGrid(1.0, n)
                tab = solve_scalar_resolvent(KernelSpec.exponential(1.0), mu, grid)
                errs.append(np.max(np.abs(tab.values - closed_form_exponential_resolvent(mu, grid.nodes()))))
            assert errs[0] / errs[1] >= 3.5
            assert errs[1] / errs[2] >= 3.5


class TestModeSolve:
    @pytest.mark.parametrize("kern", [KernelSpec.exponential(1.0), KernelSpec.constant(2.0)])
    def test_family_columns_match_scalar_solves(self, kern):
        grid = TimeGrid(1.0, 400)
        fam = build_resolvent_family(build_spectral_model(6, "dirichlet_laplacian"), kern, grid)
        for k, mu in enumerate(fam.model.mu):
            scalar = solve_scalar_resolvent(kern, float(mu), grid).values
            assert np.max(np.abs(fam.s_matrix[:, k] - scalar)) <= 1e-14

    def test_first_steps_follow_gregory_weights(self):
        # steps 1 and 2 use the weights (1/2, 1/2) and (5/12, 14/12, 5/12)
        grid = TimeGrid(1.0, 10)
        a = np.exp(-grid.nodes())
        g, dt = 3.0, grid.dt
        s = solve_resolvent_modes(KernelSpec.exponential(1.0), [g], grid)[:, 0]
        s1 = (1.0 - g * dt * 0.5 * a[1]) / (1.0 + g * dt * 0.5)
        s2 = (1.0 - g * dt * (5 / 12 * a[2] + 14 / 12 * a[1] * s1)) / (1.0 + g * dt * 5 / 12)
        assert s[1] == pytest.approx(s1, rel=1e-14)
        assert s[2] == pytest.approx(s2, rel=1e-14)

    def test_non_finite_table_rejected(self):
        with pytest.raises(ValueError, match="not finite"):
            solve_resolvent_modes(KernelSpec.exponential(1.0), [1e300, 1e305], TimeGrid(1.0, 100))


class TestClosedForm:
    def test_at_zero(self):
        assert closed_form_exponential_resolvent(1.0, 0.0) == 1.0

    def test_mu_zero_is_constant_one(self):
        assert closed_form_exponential_resolvent(0.0, 5.0) == 1.0

    def test_long_time_limit(self):
        # limit is 1 / (1 + mu)
        assert closed_form_exponential_resolvent(1.0, 60.0) == pytest.approx(0.5, abs=1e-12)

    def test_guards(self):
        with pytest.raises(ValueError):
            closed_form_exponential_resolvent(-1.0, 0.5)
        with pytest.raises(ValueError):
            closed_form_exponential_resolvent(1.0, -0.5)


class TestCertification:
    @pytest.mark.parametrize("gamma", GAMMA_CATALOG)
    def test_catalog_certificates(self, gamma):
        grid = TimeGrid(1.0, 1000)
        kern = KernelSpec.exponential(1.0)
        tab = solve_scalar_resolvent(kern, gamma, grid)
        tol = default_property_tolerance(tab, kern)
        rep = certify_resolvent_properties(tab, tol)
        assert rep.passed, (gamma, rep)
        assert tab.values[0] == 1.0

    def test_gamma_zero_total_variation(self):
        tab = solve_scalar_resolvent(KernelSpec.exponential(1.0), 0.0, TimeGrid(1.0, 200))
        assert certify_resolvent_properties(tab).total_variation == 0.0

    def test_exponential_total_variation_is_endpoint_difference(self):
        # monotone closed form: TV = s(0) - s(1) = 1 - 0.5 (1 + e^-2)
        tab = solve_scalar_resolvent(KernelSpec.exponential(1.0), 1.0, TimeGrid(1.0, 1000))
        rep = certify_resolvent_properties(tab)
        assert rep.total_variation == pytest.approx(0.4323323583816936, abs=1e-8)
        assert rep.max_increase == 0.0
        assert rep.max_range_violation == 0.0

    def test_strictly_decreasing_closed_form_has_no_violations(self):
        tab = solve_scalar_resolvent(KernelSpec.exponential(1.0), np.pi**2, TimeGrid(1.0, 1000))
        rep = certify_resolvent_properties(tab, tolerance=1e-10)
        assert rep.max_increase == 0.0 and rep.max_range_violation == 0.0


@settings(max_examples=20, deadline=None)
@given(gamma=st.floats(min_value=0.0, max_value=50.0),
       rate=st.floats(min_value=0.2, max_value=3.0))
def test_property_range_and_monotonicity(gamma, rate):
    grid = TimeGrid(1.0, 100)
    kern = KernelSpec.exponential(rate)
    tab = solve_scalar_resolvent(kern, gamma, grid)
    tol = default_property_tolerance(tab, kern)
    rep = certify_resolvent_properties(tab, tol)
    assert tab.values[0] == 1.0
    assert rep.passed
