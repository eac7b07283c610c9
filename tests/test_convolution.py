import math

import numpy as np
import pytest

from levyvolterra import (
    DiscreteMixture,
    JumpPart,
    KernelSpec,
    LevyTriplet,
    PointMass,
    ResolventFamily,
    SamplePath,
    TagRule,
    TimeGrid,
    build_resolvent_family,
    build_spectral_model,
    convolve_at,
    functional_projection_check,
    identity_resolvent_family,
    mild_solution,
    parts_convolution,
    sample_path,
    stieltjes_convolution,
)
from levyvolterra.cli import PARTS_REL_TOL
from levyvolterra.config import JUMPS_PER_PATH_BUDGET
from levyvolterra import convolution, levy
from levyvolterra.convolution import (
    _block_routes,
    _jump_weight_blocks,
    _lag_fold,
    _node_values,
    _node_weights,
)
from levyvolterra.verification import (
    _bounded_A_residuals,
    _weak_residuals,
    bounded_A_identity_residual,
    weak_solution_residual,
)
from stream_reference import BLOCKED_TRIPLETS, block_budget

KERNEL = KernelSpec.exponential(1.0)
# int_0^1 s(tau, mu) dtau for the exponential kernel, by independent quadrature
INT_S_MU1 = 0.7161661791908469
INT_S_MUPI2 = 0.17553380821493078
# the FFT lag fold agrees with in-order sums to this fraction of their largest entry
FOLD_REL_TOL = 1e-13


def fsum_stieltjes_left(fam, path):
    """The LEFT Stieltjes sums at every node, each added exactly by math.fsum."""
    grid = fam.grid
    nodes, s = grid.nodes(), fam.s_matrix
    out = np.zeros((grid.n_steps + 1, fam.K))
    for i in range(1, grid.n_steps + 1):
        m = np.searchsorted(path.jump_times, nodes[i], side="right")
        for k in range(fam.K):
            lagw = s[i:0:-1, k]  # s(t_i - t_j) for the steps j < i
            w = np.interp(nodes[i] - path.jump_times[:m], nodes, s[:, k])
            out[i, k] = math.fsum([*(path.drift[k] * grid.dt * lagw),
                                   *(lagw * path.gauss_increments[:i, k]),
                                   *(w * path.jump_marks[:m, k])])
    return out


def mixed_triplet(K=3):
    return LevyTriplet(
        drift=np.linspace(0.3, -0.2, K),
        gauss_var=np.linspace(1.0, 0.4, K),
        jump=JumpPart(rate=2.0, law=PointMass(np.linspace(0.6, -0.5, K))),
    )


def dirichlet_family(K, grid):
    return build_resolvent_family(build_spectral_model(K, "dirichlet_laplacian"), KERNEL, grid)


class TestIdentityDegeneration:
    @pytest.mark.parametrize("tag", list(TagRule))
    def test_identity_resolvent_reproduces_path_bitwise(self, tag):
        grid = TimeGrid(1.0, 300)
        trip = mixed_triplet()
        path = sample_path(trip, grid, 5, seed=21)
        fam = identity_resolvent_family(3, KERNEL, grid)
        zr = stieltjes_convolution(fam, path, tag)
        assert np.array_equal(zr.values, path.values)

    def test_parts_identity_resolvent_reduces_to_path(self):
        grid = TimeGrid(1.0, 300)
        path = sample_path(mixed_triplet(), grid, 5, seed=21)
        fam = identity_resolvent_family(3, KERNEL, grid)
        assert np.allclose(parts_convolution(fam, path).values, path.values, atol=1e-12)


class TestDeterministicOracles:
    def test_pure_drift_left_tag_first_order(self):
        # Z_R(1) -> drift * int_0^1 s(tau) dtau, left tags are O(dt)
        grid = TimeGrid(1.0, 1000)
        fam = build_resolvent_family(build_spectral_model(1, [1.0]), KERNEL, grid)
        path = sample_path(LevyTriplet(np.array([2.0]), np.zeros(1)), grid, 0, seed=0)
        zr = stieltjes_convolution(fam, path, TagRule.LEFT)
        exact = 2.0 * INT_S_MU1
        assert zr.values[-1, 0] == pytest.approx(exact, abs=2.0 * grid.dt)
        assert abs(zr.values[-1, 0] - exact) > 1e-5  # genuinely first order, not exact

    def test_pure_drift_midpoint_second_order(self):
        grid = TimeGrid(1.0, 1000)
        fam = build_resolvent_family(build_spectral_model(1, [1.0]), KERNEL, grid)
        path = sample_path(LevyTriplet(np.array([2.0]), np.zeros(1)), grid, 0, seed=0)
        zr = stieltjes_convolution(fam, path, TagRule.MIDPOINT)
        assert zr.values[-1, 0] == pytest.approx(2.0 * INT_S_MU1, abs=5e-6)

    def test_single_jump_weighted_at_exact_elapsed_time(self):
        # jump at 0.35 with no drift/Gaussian: Z_R(1) = s(0.65, mu) * h
        grid = TimeGrid(1.0, 400)
        path = SamplePath(grid=grid, drift=np.zeros(2),
                          gauss_increments=np.zeros((400, 2)),
                          jump_times=np.array([0.35]), jump_marks=np.array([[1.0, 1.0]]))
        fam = build_resolvent_family(build_spectral_model(2, [1.0, np.pi**2]), KERNEL, grid)
        zr = stieltjes_convolution(fam, path, TagRule.LEFT)
        assert zr.values[-1, 0] == pytest.approx(0.6362658965170063, abs=1e-5)
        assert zr.values[-1, 1] == pytest.approx(0.09277536161316402, abs=1e-5)

    def test_jump_only_counted_from_its_time_onwards(self):
        grid = TimeGrid(1.0, 100)
        path = SamplePath(grid=grid, drift=np.zeros(1),
                          gauss_increments=np.zeros((100, 1)),
                          jump_times=np.array([0.347]), jump_marks=np.array([[3.0]]))
        fam = dirichlet_family(1, grid)
        zr = stieltjes_convolution(fam, path, TagRule.LEFT)
        assert np.all(zr.values[:35, 0] == 0.0)  # nodes strictly before the jump
        assert zr.values[35, 0] != 0.0


class TestPartsEquivalence:
    @pytest.mark.parametrize("seed_index", range(5))
    def test_matches_left_stieltjes_to_roundoff(self, seed_index):
        grid = TimeGrid(1.0, 400)
        fam = dirichlet_family(3, grid)
        path = sample_path(mixed_triplet(), grid, seed_index, seed=909)
        a = stieltjes_convolution(fam, path, TagRule.LEFT).values
        b = parts_convolution(fam, path).values
        scale = np.max(np.abs(a))
        assert np.max(np.abs(a - b)) <= 1e-12 * scale

    # 10**4 jumps, the JUMPS_PER_PATH_BUDGET edge, whose compensator drift
    # cancels most of the jump sum (the point mass and the mixture's atoms
    # lie inside the unit ball)
    @pytest.mark.parametrize("law", [
        PointMass(np.array([0.6, -0.4])),
        DiscreteMixture(np.array([0.5, 0.3, 0.2]),
                        np.array([[0.6, -0.4], [-0.3, 0.5], [0.2, 0.1]])),
    ], ids=["point-mass", "mixture"])
    @pytest.mark.parametrize("rate", [2000.0, float(JUMPS_PER_PATH_BUDGET)])
    def test_many_jumps_match_fsum_reference(self, law, rate):
        grid = TimeGrid(1.0, 50)
        fam = dirichlet_family(2, grid)
        trip = LevyTriplet(np.array([0.3, -0.2]), np.array([0.5, 0.25]), JumpPart(rate, law))
        path = sample_path(trip, grid, 0, seed=5)
        assert path.jump_times.size > 0.98 * rate
        ref = fsum_stieltjes_left(fam, path)
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(parts_convolution(fam, path).values - ref)) <= PARTS_REL_TOL * scale
        a = stieltjes_convolution(fam, path, TagRule.LEFT).values
        assert np.max(np.abs(a - ref)) <= PARTS_REL_TOL * scale

    def test_cumsum_error_term_against_fsum(self):
        x = np.random.default_rng(4).normal(0.6, 1.0, (JUMPS_PER_PATH_BUDGET, 2))
        hi, lo = convolution._cumsum_with_error(x)
        assert np.array_equal(hi, np.cumsum(x, axis=0))
        for k in range(2):
            exact = np.array([math.fsum(x[: m + 1, k]) for m in range(0, x.shape[0], 97)])
            plain = np.max(np.abs(hi[::97, k] - exact))
            carried = np.max(np.abs(hi[::97, k] + lo[::97, k] - exact))
            assert carried <= 4 * np.finfo(float).eps * np.max(np.abs(exact))
            assert carried < plain / 10

    def test_deterministic_ramp(self):
        grid = TimeGrid(1.0, 200)
        fam = build_resolvent_family(build_spectral_model(1, [1.0]), KERNEL, grid)
        path = sample_path(LevyTriplet(np.array([1.0]), np.zeros(1)), grid, 0, seed=0)
        a = stieltjes_convolution(fam, path, TagRule.LEFT).values
        b = parts_convolution(fam, path).values
        assert np.max(np.abs(a - b)) < 1e-13

    def test_refuses_non_monotone_family(self):
        grid = TimeGrid(1.0, 4)
        values = np.array([1.0, 0.3, 0.9, 0.2, 0.1])  # increases mid-table
        bad = ResolventFamily(model=build_spectral_model(1, [1.0]), kernel=KERNEL, grid=grid,
                              s_matrix=values[:, None])
        path = sample_path(LevyTriplet(np.array([1.0]), np.zeros(1)), grid, 0, seed=0)
        with pytest.raises(ValueError, match="inapplicable"):
            parts_convolution(bad, path)


class TestMildSolution:
    def test_deterministic_resolvent_action(self):
        grid = TimeGrid(1.0, 400)
        fam = build_resolvent_family(build_spectral_model(2, [1.0, 2.0]), KERNEL, grid)
        path = sample_path(LevyTriplet.zero(2), grid, 0, seed=0)
        x0 = np.array([3.0, -1.0])
        X = mild_solution(fam, x0, path)
        assert np.array_equal(X.values, fam.s_matrix * x0[None, :])

    def test_closed_form_example(self):
        grid = TimeGrid(1.0, 1000)
        fam = build_resolvent_family(build_spectral_model(1, [1.0]), KERNEL, grid)
        path = sample_path(LevyTriplet.zero(1), grid, 0, seed=0)
        X = mild_solution(fam, np.array([1.0]), path)
        assert X.values[-1, 0] == pytest.approx(0.5676676416183064, abs=1e-8)

    def test_zero_initial_state_is_convolution(self):
        grid = TimeGrid(1.0, 200)
        fam = dirichlet_family(2, grid)
        path = sample_path(mixed_triplet(2), grid, 1, seed=55)
        X = mild_solution(fam, np.zeros(2), path)
        zr = stieltjes_convolution(fam, path)
        assert np.array_equal(X.values, zr.values)


class TestProjectionCheck:
    def test_coordinate_projection_vanishes(self):
        grid = TimeGrid(1.0, 200)
        fam = dirichlet_family(4, grid)
        path = sample_path(mixed_triplet(4), grid, 0, seed=808)
        scale = np.max(np.abs(stieltjes_convolution(fam, path).values))
        for k in range(4):
            e = np.zeros(4)
            e[k] = 1.0
            assert functional_projection_check(fam, path, e) <= 1e-12 * scale

    def test_random_functional(self):
        grid = TimeGrid(1.0, 200)
        fam = dirichlet_family(4, grid)
        path = sample_path(mixed_triplet(4), grid, 2, seed=808)
        y = np.array([0.3, -1.2, 0.7, 2.0])
        scale = np.max(np.abs(stieltjes_convolution(fam, path).values)) * np.sum(np.abs(y))
        assert functional_projection_check(fam, path, y) <= 1e-12 * max(scale, 1.0)

    def test_zero_functional(self):
        grid = TimeGrid(1.0, 100)
        fam = dirichlet_family(2, grid)
        path = sample_path(mixed_triplet(2), grid, 0, seed=1)
        assert functional_projection_check(fam, path, np.zeros(2)) == 0.0


class TestStructure:
    def test_linearity_in_the_integrator(self):
        grid = TimeGrid(1.0, 200)
        fam = dirichlet_family(2, grid)
        p1 = sample_path(mixed_triplet(2), grid, 0, seed=3)
        p2 = sample_path(mixed_triplet(2), grid, 1, seed=3)
        merged_times = np.concatenate([p1.jump_times, p2.jump_times])
        order = np.argsort(merged_times, kind="stable")
        summed = SamplePath(
            grid=grid,
            drift=p1.drift + p2.drift,
            gauss_increments=p1.gauss_increments + p2.gauss_increments,
            jump_times=merged_times[order],
            jump_marks=np.vstack([p1.jump_marks, p2.jump_marks])[order],
        )
        a = stieltjes_convolution(fam, summed).values
        b = stieltjes_convolution(fam, p1).values + stieltjes_convolution(fam, p2).values
        assert np.allclose(a, b, atol=1e-12)

    def test_tag_rule_discrepancy_shrinks_deterministically(self):
        trip = LevyTriplet(np.array([1.0]), np.zeros(1))
        diffs = []
        for n in (100, 200, 400):
            grid = TimeGrid(1.0, n)
            fam = build_resolvent_family(build_spectral_model(1, [np.pi**2]), KERNEL, grid)
            path = sample_path(trip, grid, 0, seed=0)
            left = convolve_at(fam, path, n, TagRule.LEFT)
            right = convolve_at(fam, path, n, TagRule.RIGHT)
            diffs.append(abs(left[0] - right[0]))
        assert diffs[0] > diffs[1] > diffs[2]
        assert diffs[0] / diffs[2] > 3.0  # about first order in dt

    def test_values_are_not_a_running_sum(self):
        # re-weighting of past increments: node values must differ from the
        # cumulative sums a semigroup shortcut would produce
        grid = TimeGrid(1.0, 100)
        fam = build_resolvent_family(build_spectral_model(1, [np.pi**2]), KERNEL, grid)
        path = sample_path(LevyTriplet(np.array([1.0]), np.zeros(1)), grid, 0, seed=0)
        zr = stieltjes_convolution(fam, path)
        increments = np.diff(zr.values[:, 0])
        assert np.any(increments < 0) or not np.allclose(np.diff(increments), 0, atol=1e-12)

    def test_grid_mismatch_rejected(self):
        fam = dirichlet_family(1, TimeGrid(1.0, 100))
        path = sample_path(LevyTriplet.zero(1), TimeGrid(1.0, 200), 0, seed=0)
        with pytest.raises(ValueError):
            stieltjes_convolution(fam, path)


def reference_stieltjes(family, path, tag_rule):
    """Per-node, per-mode loop form of the tagged sums, each folded by cumsum."""
    grid = family.grid
    n, K, dt = grid.n_steps, family.K, grid.dt
    nodes = grid.nodes()
    s = family.s_matrix
    lagw = {TagRule.LEFT: s[1:], TagRule.RIGHT: s[:-1],
            TagRule.MIDPOINT: 0.5 * (s[:-1] + s[1:])}[tag_rule]
    wcum = np.vstack([np.zeros((1, K)), np.cumsum(lagw, axis=0)])
    out = np.zeros((n + 1, K))
    for i in range(1, n + 1):
        m_i = int(np.searchsorted(path.jump_times, nodes[i], side="right"))
        for k in range(K):
            gauss = np.cumsum(lagw[i - 1 :: -1, k] * path.gauss_increments[:i, k])[-1]
            jump = 0.0
            if m_i:
                jw = np.interp(nodes[i] - path.jump_times[:m_i], nodes, s[:, k])
                jump = np.cumsum(jw * path.jump_marks[:m_i, k])[-1]
            out[i, k] = (path.drift[k] * (dt * wcum[i, k]) + gauss) + jump
    return out


def reference_parts(family, path):
    """Per-node, per-mode loop form of the summation-by-parts route."""
    grid = family.grid
    nodes = grid.nodes()
    zc = path.continuous_values()
    out = np.zeros((grid.n_steps + 1, family.K))
    for i in range(1, grid.n_steps + 1):
        m_i = int(np.searchsorted(path.jump_times, nodes[i], side="right"))
        for k in range(family.K):
            s = family.s_matrix[:, k]
            cont = s[0] * zc[i, k] - s[i] * zc[0, k] - np.dot(zc[1 : i + 1, k], np.diff(s[i::-1]))
            jump = 0.0
            if m_i:
                w = np.interp(nodes[i] - path.jump_times[:m_i], nodes, s)
                cm = np.cumsum(path.jump_marks[:m_i, k])
                jump = w[-1] * cm[-1] - np.dot(cm[:-1], np.diff(w))
            out[i, k] = cont + jump
    return out


def path_with_jumps(grid, jump_times, K=3, seed=5):
    gauss = sample_path(LevyTriplet(np.zeros(K), np.linspace(1.0, 0.3, K)), grid, 0, seed).gauss_increments
    jump_times = np.asarray(jump_times, dtype=float)
    marks = np.linspace(0.6, -0.5, K)[None, :] * (1.0 + np.arange(jump_times.size))[:, None]
    return SamplePath(grid=grid, drift=np.linspace(0.3, -0.2, K), gauss_increments=gauss,
                      jump_times=jump_times, jump_marks=marks)


class TestVectorizedKernels:
    @pytest.mark.parametrize("tag", list(TagRule))
    def test_matches_loop_reference(self, tag):
        grid = TimeGrid(1.0, 150)
        fam = dirichlet_family(3, grid)
        path = sample_path(mixed_triplet(), grid, 2, seed=77)
        assert path.jump_times.size > 0
        zr = stieltjes_convolution(fam, path, tag).values
        ref = reference_stieltjes(fam, path, tag)
        assert np.max(np.abs(zr - ref)) <= FOLD_REL_TOL * np.max(np.abs(ref))

    @pytest.mark.parametrize("tag", list(TagRule))
    def test_convolve_at_equals_route_row(self, tag):
        grid = TimeGrid(1.0, 120)
        fam = dirichlet_family(3, grid)
        path = sample_path(mixed_triplet(), grid, 4, seed=31)
        zr = stieltjes_convolution(fam, path, tag).values
        rows = np.array([convolve_at(fam, path, i, tag) for i in range(grid.n_steps + 1)])
        assert np.max(np.abs(rows - zr)) <= FOLD_REL_TOL * np.max(np.abs(zr))

    def test_convolve_at_rejects_out_of_range_node(self):
        grid = TimeGrid(1.0, 20)
        path = sample_path(mixed_triplet(), grid, 0, seed=1)
        with pytest.raises(ValueError, match="outside"):
            convolve_at(dirichlet_family(3, grid), path, 21)

    @pytest.mark.parametrize("jump_times", [[], "on_node"], ids=["no-jumps", "jump-on-node"])
    @pytest.mark.parametrize("tag", list(TagRule))
    def test_identity_reproduction_edge_jumps(self, jump_times, tag):
        grid = TimeGrid(1.0, 200)
        if jump_times == "on_node":
            jump_times = [grid.nodes()[37], 0.61234, grid.nodes()[150], grid.t_end]
        path = path_with_jumps(grid, jump_times)
        fam = identity_resolvent_family(3, KERNEL, grid)
        assert np.array_equal(stieltjes_convolution(fam, path, tag).values, path.values)

    @pytest.mark.parametrize("layout", ["none", "two in one step", "at t_end", "on node 1",
                                        "mixed"])
    def test_parts_matches_loop_reference(self, layout):
        grid = TimeGrid(1.0, 150)
        fam = dirichlet_family(3, grid)
        nodes = grid.nodes()
        jump_times = {
            "none": [],
            "two in one step": [nodes[40] + 0.2 * grid.dt, nodes[40] + 0.7 * grid.dt],
            "at t_end": [0.3333, grid.t_end],
            "on node 1": [nodes[1], 0.75],
            "mixed": [nodes[20], 0.3333, 0.75],
        }[layout]
        path = path_with_jumps(grid, jump_times)
        b = parts_convolution(fam, path).values
        ref = reference_parts(fam, path)
        assert np.max(np.abs(b - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_jump_blocks_change_no_bit(self, monkeypatch):
        grid = TimeGrid(1.0, 200)
        fam = dirichlet_family(2, grid)
        trip = LevyTriplet(np.array([0.3, -0.2]), np.array([1.0, 0.5]),
                           JumpPart(rate=2000.0, law=PointMass(np.array([0.01, -0.02]))))
        path = sample_path(trip, grid, 0, seed=8)
        m = path.jump_times.size
        assert m > 1500
        assert len(list(_jump_weight_blocks(fam, path.jump_times))) == 1
        whole = [stieltjes_convolution(fam, path, tag).values for tag in TagRule]
        whole.append(parts_convolution(fam, path).values)
        monkeypatch.setattr(convolution, "_JUMP_BLOCK_ENTRIES", 7 * m * fam.K)
        assert len(list(_jump_weight_blocks(fam, path.jump_times))) == 29  # 28 blocks of 7 nodes, then 5
        blocked = [stieltjes_convolution(fam, path, tag).values for tag in TagRule]
        blocked.append(parts_convolution(fam, path).values)
        for a, b in zip(whole, blocked):
            assert np.array_equal(a, b)

    def test_example_config_shape_is_one_jump_block(self):
        grid = TimeGrid(1.0, 1000)
        path = path_with_jumps(grid, [0.25, 0.5, 0.75], K=2)
        assert len(list(_jump_weight_blocks(dirichlet_family(2, grid), path.jump_times))) == 1

    def test_parts_agrees_with_stieltjes_at_high_jump_rate(self):
        grid = TimeGrid(1.0, 400)
        fam = dirichlet_family(4, grid)
        trip = LevyTriplet(np.array([0.3, -0.2, 0.1, 0.05]), np.array([1.0, 0.7, 0.4, 0.2]),
                           JumpPart(rate=50.0, law=PointMass(np.array([0.6, -0.4, 0.3, 0.2]))))
        for idx in range(3):
            path = sample_path(trip, grid, idx, seed=2024)
            assert path.jump_times.size > 20
            a = stieltjes_convolution(fam, path).values
            b = parts_convolution(fam, path).values
            assert np.max(np.abs(a - b)) <= PARTS_REL_TOL * np.max(np.abs(a))


class TestJumpWeights:
    GRID = TimeGrid(1.0, 40)

    def expected(self, fam, t, taus):
        """np.interp of every mode at t - tau where tau <= t, and +0.0 where tau > t."""
        nodes, s = fam.grid.nodes(), fam.s_matrix
        return [[np.interp(t - tau, nodes, s[:, k]) if tau <= t else 0.0 for k in range(fam.K)]
                for tau in taus]

    def test_mode_major_against_every_node(self):
        fam = dirichlet_family(3, self.GRID)
        nodes = self.GRID.nodes()
        taus = np.array([nodes[7], 0.3333, nodes[20] + 0.4 * self.GRID.dt, self.GRID.t_end])
        W = convolution._jump_weights(fam, nodes[None, :], taus[:, None])
        assert W.shape == (taus.size, fam.K, nodes.size)
        for i, t in enumerate(nodes):
            want = np.array(self.expected(fam, t, taus))
            assert np.array_equal(W[:, :, i], want)
        later = taus[:, None] > nodes[None, :]  # (J, nodes)
        assert later.any() and not np.signbit(W.transpose(0, 2, 1)[later]).any()
        assert np.all(W[0, :, 7] == 1.0)  # a jump on a node weighs s(0) = 1 there
        assert np.all(W[-1, :, -1] == 1.0)

    def test_scalar_time_gives_jumps_by_modes(self):
        fam = dirichlet_family(3, self.GRID)
        t = self.GRID.nodes()[20]
        taus = np.array([0.1, t, 0.75])
        W = convolution._jump_weights(fam, t, taus)
        assert W.shape == (3, fam.K)
        assert np.array_equal(W, np.array(self.expected(fam, t, taus)))
        assert np.all(W[1] == 1.0) and not np.signbit(W[2]).any()

    def test_no_jumps_give_an_empty_block(self):
        fam = dirichlet_family(3, self.GRID)
        nodes = self.GRID.nodes()
        W = convolution._jump_weights(fam, nodes[None, :], np.empty((0, 1)))
        assert W.shape == (0, fam.K, nodes.size)


class TestLagFold:
    @staticmethod
    def per_step(w, x):
        """out[i] = sum_{j<i} w[i-1-j] * x[j], one node at a time in increment order."""
        out = np.zeros((x.shape[0] + 1, x.shape[1]))
        for i in range(1, x.shape[0] + 1):
            out[i] = np.cumsum(w[i - 1 :: -1] * x[:i], axis=0)[-1]
        return out

    @pytest.mark.parametrize("K", [1, 2, 3, 8])
    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 129, 257, 1000])
    def test_matches_per_step_loop(self, n, K):
        rng = np.random.default_rng(1000 * n + K)
        w, x = rng.standard_normal((n, K)), rng.standard_normal((n, K))
        out = _lag_fold(w, x)
        ref = self.per_step(w, x)
        assert out.shape == (n + 1, K)
        assert np.max(np.abs(out - ref)) <= FOLD_REL_TOL * np.max(np.abs(ref))

    @pytest.mark.parametrize("K", [1, 2, 3, 8])
    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 129, 257, 1000])
    def test_unit_weights_are_cumsum_bitwise(self, n, K):
        """Unit weights fold only w - 1 == 0, so the Stieltjes route is the path's cumsum exactly."""
        grid = TimeGrid(1.0, n)
        path = sample_path(mixed_triplet(K), grid, 3, seed=n + K)
        fam = identity_resolvent_family(K, KERNEL, grid)
        for tag in TagRule:
            assert np.array_equal(stieltjes_convolution(fam, path, tag).values, path.values)

    @pytest.mark.parametrize("n", [1, 64, 65])
    def test_node_zero_is_positive_zero(self, n):
        w, x = -np.ones((n, 2)), np.full((n, 2), -0.0)
        out = _lag_fold(w, x)
        assert np.all(out[0] == 0.0) and not np.any(np.signbit(out[0]))


def misaligned_copy(a):
    """A C-contiguous copy of a whose data starts 8 bytes past a 16-byte boundary."""
    raw = np.empty(a.nbytes + 16, dtype=np.uint8)
    start = (8 - raw.ctypes.data) % 16
    out = raw[start : start + a.nbytes].view(a.dtype).reshape(a.shape)
    out[...] = a
    assert out.ctypes.data % 16 == 8 or a.size == 0
    return out


class TestStackedNodeValues:
    """A _node_values row is the one-outcome, one-rule sum, whatever shares its call."""

    GRID = TimeGrid(1.0, 60)
    N = 7  # one default block at this grid, and a short last block of 3

    @pytest.mark.parametrize("block", [1, 3, "default"])
    @pytest.mark.parametrize("rules", [
        (TagRule.LEFT,), (TagRule.LEFT, TagRule.MIDPOINT),
        (TagRule.MIDPOINT, TagRule.LEFT, TagRule.RIGHT),
    ], ids=["L", "L-M", "M-L-R"])
    @pytest.mark.parametrize("t", [0.0, 0.5, 1.0], ids=["node-0", "mid", "t_end"])
    @pytest.mark.parametrize("name", sorted(BLOCKED_TRIPLETS))
    def test_rows_equal_one_outcome_calls(self, monkeypatch, name, t, rules, block):
        trip = BLOCKED_TRIPLETS[name]
        n, K = self.GRID.n_steps, trip.dim
        fam = dirichlet_family(K, self.GRID)
        i = self.GRID.node_index(t)
        if block != "default":
            monkeypatch.setattr(levy, "_BLOCK_BYTES", block_budget(trip, self.GRID, block))
        weights = _node_weights(fam, rules, i, trip.pathwise_drift())
        assert weights[1].shape == (len(rules), K, i) and weights[1].flags.c_contiguous
        sizes = []
        for b0, b1, gauss, jumps in levy._draw_blocks(trip, self.GRID, 5, 0, self.N):
            sizes.append(b1 - b0)
            steps = None if gauss is None else gauss[:, :, :i]
            got = np.broadcast_to(_node_values(fam, i, weights, steps, jumps),
                                  (b1 - b0, len(rules), K))
            if steps is not None:
                moved = _node_values(fam, i, weights, misaligned_copy(steps), jumps)
                assert np.array_equal(moved, got)
            for row, b in enumerate(range(b0, b1)):
                path = sample_path(trip, self.GRID, b, seed=5)
                for r, rule in enumerate(rules):
                    assert np.array_equal(got[row, r], convolve_at(fam, path, i, rule)), (b, rule)
        assert sizes == {1: [1] * self.N, 3: [3, 3, 1], "default": [self.N]}[block]


class TestBlockRows:
    """A block row of each route and oracle is that row's one-path call, bit for bit."""

    GRID = TimeGrid(1.0, 60)
    N = 7  # one default block at this grid, and a short last block of 3
    ROUTES = (TagRule.LEFT, TagRule.RIGHT, TagRule.MIDPOINT, None)  # None: the parts route

    @staticmethod
    def one_path_rows(fam, trip, index):
        """Each route's, the path's and each oracle's one-path values for sample index."""
        path = sample_path(trip, fam.grid, index, seed=5)
        left = stieltjes_convolution(fam, path, TagRule.LEFT)
        routes = [left.values] + [stieltjes_convolution(fam, path, rule).values
                                  for rule in (TagRule.RIGHT, TagRule.MIDPOINT)]
        routes.append(parts_convolution(fam, path).values)
        oracles = [weak_solution_residual(left, path, fam).residuals,
                   bounded_A_identity_residual(left, path, fam).residuals]
        return routes, path.values, oracles

    def block_rows(self, fam, trip, gauss, jumps, n_rows):
        drift = trip.pathwise_drift()
        routes = _block_routes(fam, self.ROUTES, drift, n_rows, gauss, jumps)
        values = levy._block_values(fam.grid, drift, n_rows, gauss, jumps)
        oracles = [_weak_residuals(fam, routes[0], values),
                   _bounded_A_residuals(fam, routes[0], values)]
        return routes, values, oracles

    def assert_rows(self, fam, trip, b0, got):
        routes, values, oracles = got
        for row in range(values.shape[0]):
            want_routes, want_values, want_oracles = self.one_path_rows(fam, trip, b0 + row)
            for r, rule in enumerate(self.ROUTES):
                assert np.array_equal(routes[r][row], want_routes[r]), (b0 + row, rule)
            assert np.array_equal(values[row], want_values), b0 + row
            for name, a, b in zip(("weak", "bounded-A"), oracles, want_oracles):
                assert np.array_equal(a[row], b), (b0 + row, name)

    @pytest.mark.parametrize("block", [1, 3, "default"])
    @pytest.mark.parametrize("name", sorted(BLOCKED_TRIPLETS))
    def test_rows_equal_one_path_calls(self, monkeypatch, name, block):
        trip = BLOCKED_TRIPLETS[name]
        fam = dirichlet_family(trip.dim, self.GRID)
        if block != "default":
            monkeypatch.setattr(levy, "_BLOCK_BYTES", block_budget(trip, self.GRID, block))
        sizes = []
        for b0, b1, gauss, jumps in levy._draw_blocks(trip, self.GRID, 5, 0, self.N):
            sizes.append(b1 - b0)
            got = self.block_rows(fam, trip, gauss, jumps, b1 - b0)
            self.assert_rows(fam, trip, b0, got)
            if gauss is not None:
                moved = self.block_rows(fam, trip, misaligned_copy(gauss), jumps, b1 - b0)
                for a, b in zip([*got[0], got[1], *got[2]], [*moved[0], moved[1], *moved[2]]):
                    assert np.array_equal(a, b)
        assert sizes == {1: [1] * self.N, 3: [3, 3, 1], "default": [self.N]}[block]

    @pytest.mark.parametrize("name", sorted(n for n, t in BLOCKED_TRIPLETS.items() if t.jump))
    def test_small_jump_weight_budget(self, monkeypatch, name):
        # node slices of a few nodes each: no weight array above the bound,
        # and the rows are the default-budget rows
        trip = BLOCKED_TRIPLETS[name]
        fam = dirichlet_family(trip.dim, self.GRID)
        blocks = list(levy._draw_blocks(trip, self.GRID, 5, 0, self.N))
        whole = [_block_routes(fam, self.ROUTES, trip.pathwise_drift(), b1 - b0, gauss, jumps)
                 for b0, b1, gauss, jumps in blocks]
        most = max(jumps[1].size for *_, jumps in blocks)
        bound = 4 * trip.dim * max(most, 1)
        monkeypatch.setattr(convolution, "_JUMP_BLOCK_ENTRIES", bound)
        sizes, real = [], convolution._jump_weights

        def recording(*args):
            W = real(*args)
            sizes.append(W.size)
            return W

        monkeypatch.setattr(convolution, "_jump_weights", recording)
        for (b0, b1, gauss, jumps), want in zip(blocks, whole):
            got = _block_routes(fam, self.ROUTES, trip.pathwise_drift(), b1 - b0, gauss, jumps)
            for a, b in zip(got, want):
                assert np.array_equal(a, b)
        assert max(sizes) <= bound
        if most:  # weights came a few nodes at a time
            assert len(sizes) > self.GRID.n_steps // 4
