import numpy as np
import pytest

from levyvolterra import (
    DiscreteMixture,
    GaussianJumps,
    JumpPart,
    LevyTriplet,
    PointMass,
    TimeGrid,
    sample_path,
)
from levyvolterra import levy
from levyvolterra.levy import jump_cf, jump_mean_inside_unit_ball, phi_batch, sample_rng
from stream_reference import BLOCKED_TRIPLETS, coupled_reference, philox_stream, reference_draw

GRID = TimeGrid(1.0, 200)


def gaussian_triplet(gv=(1.0, 0.5)):
    return LevyTriplet(drift=np.zeros(len(gv)), gauss_var=np.array(gv))


class TestCharacteristicExponent:
    def test_zero_argument(self):
        trip = LevyTriplet(np.array([1.0, 2.0]), np.array([1.0, 1.0]),
                           JumpPart(2.0, PointMass(np.array([0.3, 0.1]))))
        assert phi_batch(trip, np.zeros(2))[0] == 0.0

    def test_pure_drift(self):
        trip = LevyTriplet(np.array([1.5, -0.5]), np.zeros(2))
        y = np.array([2.0, 3.0])
        assert phi_batch(trip, y)[0] == pytest.approx(1j * (1.5 * 2 - 0.5 * 3))

    def test_standard_gaussian(self):
        trip = LevyTriplet(np.zeros(1), np.ones(1))
        assert phi_batch(trip, np.array([1.0]))[0] == pytest.approx(-0.5)

    def test_compound_poisson_outside_ball_has_no_compensator(self):
        # |h| = 3 >= 1, so phi(y) = rate * (exp(3iy) - 1) exactly
        trip = LevyTriplet(np.zeros(1), np.zeros(1), JumpPart(2.0, PointMass(np.array([3.0]))))
        for y in (0.3, 1.0, -2.2):
            expected = 2.0 * (np.exp(3j * y) - 1.0)
            assert phi_batch(trip, np.array([y]))[0] == pytest.approx(expected)

    def test_real_part_nonpositive(self):
        trip = LevyTriplet(np.array([0.4]), np.array([0.2]),
                           JumpPart(1.0, DiscreteMixture(np.array([0.5, 0.5]),
                                                         np.array([[0.4], [-1.7]]))))
        rng = np.random.default_rng(0)
        for _ in range(50):
            y = rng.standard_normal(1) * 3
            assert phi_batch(trip, y)[0].real <= 1e-12


class TestJumpLawHelpers:
    def test_point_mass_cf(self):
        law = PointMass(np.array([0.5, -0.5]))
        y = np.array([1.0, 2.0])
        assert jump_cf(law, y) == pytest.approx(np.exp(1j * (0.5 - 1.0)))

    def test_mixture_compensator_counts_only_inside_ball(self):
        law = DiscreteMixture(np.array([0.6, 0.4]), np.array([[0.5], [2.0]]))
        assert jump_mean_inside_unit_ball(law)[0] == pytest.approx(0.6 * 0.5)

    def test_gaussian_compensator_matches_monte_carlo(self):
        law = GaussianJumps(np.array([0.3]), np.array([0.4]))
        rng = np.random.default_rng(11)
        draws = 0.3 + np.sqrt(0.4) * rng.standard_normal(400_000)
        mc = np.mean(draws * (np.abs(draws) < 1.0))
        assert jump_mean_inside_unit_ball(law)[0] == pytest.approx(mc, abs=4e-3)

    def test_mixture_weights_must_normalize(self):
        with pytest.raises(ValueError):
            DiscreteMixture(np.array([0.7, 0.7]), np.array([[1.0], [2.0]]))

    def test_gaussian_cf_closed_form(self):
        law = GaussianJumps(np.array([0.5, -0.2]), np.array([0.3, 0.1]))
        y = np.array([1.2, -0.4])
        expected = np.exp(1j * (0.5 * 1.2 + 0.2 * 0.4) - 0.5 * (0.3 * 1.2**2 + 0.1 * 0.4**2))
        assert jump_cf(law, y) == pytest.approx(expected)

    def test_gaussian_expectation_quadrature_smooth_integrand(self):
        from levyvolterra.levy import jump_expectation

        law = GaussianJumps(np.array([0.4, -0.1]), np.array([0.2, 0.5]))
        mean = jump_expectation(law, lambda x: x)
        assert np.allclose(mean, law.mean, atol=1e-12)
        second = jump_expectation(law, lambda x: x**2)
        assert np.allclose(second, law.mean**2 + law.var, atol=1e-12)

    @pytest.mark.parametrize("K", [7, 8])
    def test_hermite_grid_over_budget_refused_before_allocation(self, K, monkeypatch):
        from levyvolterra import levy

        def no_grid(*args, **kwargs):
            raise AssertionError("the Hermite grid was built")

        monkeypatch.setattr(levy.np, "meshgrid", no_grid)
        monkeypatch.setattr(levy.np.polynomial.hermite_e, "hermegauss", no_grid)
        law = GaussianJumps(np.zeros(K), np.ones(K))
        with pytest.raises(ValueError, match="budget"):
            levy.jump_expectation(law, no_grid)
        # the jump part checks the budget when built, though it computes the
        # compensator on first use
        with pytest.raises(ValueError, match="budget"):
            JumpPart(1.0, law)

    def test_hermite_budget_admits_six_dimensions(self):
        from levyvolterra.levy import HERMITE_NODE_BUDGET, check_hermite_budget

        assert check_hermite_budget(6) ** 6 == HERMITE_NODE_BUDGET
        assert [check_hermite_budget(K) for K in (1, 2, 3, 4)] == [96, 64, 24, 16]


class TestCompensatorOnce:
    def test_sampling_and_exponent_read_the_stored_compensator(self, monkeypatch):
        from levyvolterra import levy

        law = GaussianJumps(np.array([0.3, -0.2, 0.1, 0.5]), np.array([0.4, 0.3, 0.2, 0.1]))
        trip = LevyTriplet(np.array([0.3, -0.2, 0.1, 0.0]), np.array([1.0, 0.7, 0.4, 0.2]),
                           JumpPart(2.0, law))
        assert not trip.jump.compensator.flags.writeable
        calls = []
        real = levy.jump_expectation
        monkeypatch.setattr(levy, "jump_expectation",
                            lambda *args: calls.append(args) or real(*args))
        grid = TimeGrid(1.0, 1000)
        for idx in range(10):
            sample_path(trip, grid, idx, seed=3)
        Y = np.random.default_rng(5).standard_normal((16, 4))
        phi = phi_batch(trip, Y)
        assert calls == []
        # the formulas that recomputed the compensator on every call
        comp = jump_mean_inside_unit_ball(law)
        assert np.array_equal(trip.pathwise_drift(), trip.drift - 2.0 * comp)
        expected = np.asarray(1j * (Y @ trip.drift) - 0.5 * (Y**2 @ trip.gauss_var), dtype=complex)
        expected = expected + 2.0 * (jump_cf(law, Y) - 1.0) - 1j * 2.0 * (Y @ comp)
        assert np.array_equal(phi, expected)

    def test_computed_on_first_use_then_kept(self, monkeypatch):
        from levyvolterra import levy

        calls = []
        real = levy.jump_mean_inside_unit_ball
        monkeypatch.setattr(levy, "jump_mean_inside_unit_ball",
                            lambda law: calls.append(law) or real(law))
        jump = JumpPart(2.0, GaussianJumps(np.array([0.3, -0.2]), np.array([0.4, 0.3])))
        assert calls == []
        first = jump.compensator
        assert jump.compensator is first
        assert len(calls) == 1


# (seed, sample_index) keys at both ends of the uint64 range and in between
REKEY_KEYS = ([(0, 0), (0, 2**64 - 1), (2**64 - 1, 0), (2**64 - 1, 2**64 - 1), (20240601, 1 << 62)]
              + [(seed, index) for seed in (1, 7, 2**63 + 5) for index in range(0, 600, 37)])


def stream_draws(rng, n_normals):
    """The terminal_values draw order: normals, jump count, times, mixture marks.

    Ends with 32-bit draws, which read the spare half of a 64-bit output.
    """
    return (rng.standard_normal(n_normals), rng.poisson(2.5), rng.random(5),
            rng.choice(3, size=7, p=[0.5, 0.3, 0.2]),
            rng.integers(0, 2**32, size=3, dtype=np.uint32))


class TestSampleRngRekey:
    @pytest.mark.parametrize("n_normals", [1, 1001])
    def test_keyed_generator_draws_what_numpy_keying_draws(self, n_normals):
        rng = sample_rng(11, 12)
        # leave the generator mid-buffer and holding a spare 32-bit half
        rng.standard_normal(3)
        rng.integers(0, 2**32, dtype=np.uint32)
        for seed, index in REKEY_KEYS:
            rekeyed = sample_rng(seed, index, rng)
            assert rekeyed is rng
            want = stream_draws(philox_stream(seed, index), n_normals)
            for got in (stream_draws(rekeyed, n_normals),
                        stream_draws(sample_rng(seed, index), n_normals)):
                for a, b in zip(got, want):
                    assert np.array_equal(a, b)

    def test_keys_out_of_range_refused(self):
        rng = sample_rng(0, 0)
        for seed, index in ((-1, 0), (0, 2**64)):
            with pytest.raises(OverflowError):
                sample_rng(seed, index)
            with pytest.raises(OverflowError):
                sample_rng(seed, index, rng)


class TestSamplePath:
    def test_zero_triplet_is_identically_zero(self):
        path = sample_path(LevyTriplet.zero(2), GRID, 3, seed=99)
        assert np.array_equal(path.values, np.zeros((201, 2)))
        assert path.jump_times.size == 0

    def test_pure_drift_is_exact(self):
        trip = LevyTriplet(np.array([0.7, -0.3]), np.zeros(2))
        path = sample_path(trip, GRID, 12, seed=5)
        expected = np.outer(GRID.nodes(), trip.drift)
        assert np.array_equal(path.values, expected)

    def test_bitwise_reproducible(self):
        trip = LevyTriplet(np.array([0.2, 0.0]), np.array([1.0, 0.5]),
                           JumpPart(3.0, PointMass(np.array([0.4, 0.4]))))
        a = sample_path(trip, GRID, 17, seed=123)
        b = sample_path(trip, GRID, 17, seed=123)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.jump_times, b.jump_times)

    def test_streams_differ_across_samples_and_seeds(self):
        trip = gaussian_triplet()
        a = sample_path(trip, GRID, 0, seed=1)
        b = sample_path(trip, GRID, 1, seed=1)
        c = sample_path(trip, GRID, 0, seed=2)
        assert not np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_values_decompose(self):
        trip = LevyTriplet(np.array([0.2]), np.array([0.3]),
                           JumpPart(2.0, PointMass(np.array([1.5]))))
        path = sample_path(trip, GRID, 4, seed=7)
        rebuilt = path.continuous_values() + path.jump_cumulative()
        assert np.allclose(path.values, rebuilt, atol=1e-14)

    def test_jump_count_statistics(self):
        # Poisson(5) count: sample mean within 4 sigma = 4 sqrt(5/N)
        trip = LevyTriplet(np.zeros(1), np.zeros(1), JumpPart(5.0, PointMass(np.array([1.0]))))
        small = TimeGrid(1.0, 4)
        n = 10_000
        counts = [sample_path(trip, small, i, seed=314).jump_times.size for i in range(n)]
        assert np.mean(counts) == pytest.approx(5.0, abs=4 * np.sqrt(5.0 / n))

    def test_gaussian_moments(self):
        trip = gaussian_triplet((1.0, 0.5))
        n = 10_000
        z1 = np.array([sample_path(trip, GRID, i, seed=2718).values[-1] for i in range(n)])
        se_mean = np.sqrt(np.array([1.0, 0.5]) / n)
        assert np.all(np.abs(z1.mean(axis=0)) < 4 * se_mean)
        se_var = np.array([1.0, 0.5]) * np.sqrt(2.0 / (n - 1))
        assert np.all(np.abs(z1.var(axis=0, ddof=1) - [1.0, 0.5]) < 4 * se_var)

    def test_triplet_mean_with_inside_ball_jumps(self):
        # E Z(1) = drift + rate * E[J 1_{|J| >= 1}] under the truncation convention
        trip = LevyTriplet(np.array([0.3]), np.zeros(1),
                           JumpPart(2.0, DiscreteMixture(np.array([0.5, 0.5]),
                                                         np.array([[0.4], [1.6]]))))
        n = 20_000
        z1 = np.array([sample_path(trip, GRID, i, seed=77).values[-1, 0] for i in range(n)])
        expected = 0.3 + 2.0 * 0.5 * 1.6
        sd = np.std(z1, ddof=1)
        assert z1.mean() == pytest.approx(expected, abs=4 * sd / np.sqrt(n))

    def test_phi_consistency_monte_carlo(self):
        # |ECF of Z(1) - exp(phi)| <= 4 / sqrt(N) on a small panel
        trip = LevyTriplet(np.array([0.2]), np.array([0.4]),
                           JumpPart(1.5, DiscreteMixture(np.array([0.7, 0.3]),
                                                         np.array([[0.5], [-1.2]]))))
        n = 20_000
        z1 = np.array([sample_path(trip, GRID, i, seed=555).values[-1, 0] for i in range(n)])
        for y in (0.5, 1.0, 2.0):
            ecf = np.mean(np.exp(1j * y * z1))
            pred = np.exp(phi_batch(trip, np.array([y]))[0])
            assert abs(ecf - pred) < 4.0 / np.sqrt(n)

    def test_increment_independence(self):
        trip = gaussian_triplet((1.0,))
        n = 10_000
        half = GRID.n_steps // 2
        first, second = [], []
        for i in range(n):
            v = sample_path(trip, GRID, i, seed=31415).values[:, 0]
            first.append(v[half])
            second.append(v[-1] - v[half])
        corr = np.corrcoef(first, second)[0, 1]
        assert abs(corr) < 4.0 / np.sqrt(n)


class TestStreamLayout:
    """sample_path records each sample's stream exactly as the reference draws it."""

    GRID = TimeGrid(1.0, 60)

    def test_sample_path_equals_reference_draw(self):
        zero_jump_samples = 0
        for name, trip in BLOCKED_TRIPLETS.items():
            for index in (0, 1, 2, 5, 11, 12, 40):
                path = sample_path(trip, self.GRID, index, seed=17)
                gauss, times, marks = reference_draw(trip, self.GRID, index, 17)
                assert np.array_equal(path.gauss_increments, gauss), (name, index)
                assert np.array_equal(path.jump_times, times), (name, index)
                assert np.array_equal(path.jump_marks, marks), (name, index)
                zero_jump_samples += trip.jump is not None and times.size == 0
        assert zero_jump_samples > 0

    @pytest.mark.parametrize("name", sorted(BLOCKED_TRIPLETS))
    def test_blocks_are_sample_path_rows(self, monkeypatch, name):
        # blocks of 3 over samples 5..15: four blocks, the last one short
        trip = BLOCKED_TRIPLETS[name]
        n, K = self.GRID.n_steps, trip.dim
        monkeypatch.setattr(levy, "_BLOCK_BYTES", 3 * levy._sample_bytes(trip, n, K, 1.0))
        bounds, buffers = [], []
        for b0, b1, gauss, times, marks in levy._draw_blocks(trip, self.GRID, 8, 5, 16):
            bounds.append((b0, b1))
            assert (gauss is None) == (not np.any(trip.gauss_var > 0.0))
            assert (times is None) == (marks is None) == (trip.jump is None)
            if gauss is not None:
                buffers.append(gauss)
                assert np.shares_memory(gauss, buffers[0])  # one buffer for every block
                # mode-major: each mode's time series is one contiguous row
                assert gauss.shape == (b1 - b0, K, n) and gauss.flags.c_contiguous
            for row, b in enumerate(range(b0, b1)):
                path = sample_path(trip, self.GRID, b, seed=8)
                if gauss is not None:
                    assert np.array_equal(gauss[row], path.gauss_increments.T)
                if times is not None:
                    m = path.jump_times.size
                    assert np.array_equal(times[row, :m], path.jump_times)
                    assert np.array_equal(marks[row, :m], path.jump_marks)
                    assert np.all(times[row, m:] == np.inf) and np.all(marks[row, m:] == 0.0)
        assert bounds == [(5, 8), (8, 11), (11, 14), (14, 16)]

    def test_block_sized_by_what_a_sample_holds(self):
        # Gaussian increments when drawn plus the expected jump data: the
        # mc_jumps shape (K = 4, n = 2000, rate 3) then takes 455 samples
        # per block, and a huge rate falls back to one sample, with or
        # without Gaussian noise
        n, K = 2000, 4

        def jumps(rate, gauss_var=0.0):
            return LevyTriplet(np.zeros(K), np.full(K, gauss_var),
                               JumpPart(rate, PointMass(np.full(K, 0.1))))

        def block(trip):
            return max(1, int(levy._BLOCK_BYTES
                              // levy._sample_bytes(trip, n, K, 1.0)))

        mixed = jumps(3.0, gauss_var=1.0)
        assert levy._sample_bytes(mixed, n, K, 1.0) == 8 * n * K + 8 * 4 * (2 + 4 * K)
        assert block(jumps(3.0)) == 455
        assert block(jumps(1e6)) == 1
        assert block(jumps(1e6, gauss_var=1.0)) == 1
        assert block(LevyTriplet(np.ones(K), np.zeros(K))) == levy._BLOCK_BYTES // 144
        # the benchmark shapes keep their blocks: mc_gauss (this n and K,
        # Gaussian noise only) 4, cli_all (K = 2, n = 1000, Gaussian noise
        # and rate-1.5 jumps) 16
        assert block(LevyTriplet(np.zeros(K), np.ones(K))) == 4
        cli_all = LevyTriplet(np.zeros(2), np.ones(2),
                              JumpPart(1.5, PointMass(np.array([0.6, -0.4]))))
        cli_all_bytes = levy._sample_bytes(cli_all, 1000, 2, 1.0)
        assert levy._BLOCK_BYTES // cli_all_bytes == 16


class TestCoupledPaths:
    @pytest.mark.parametrize("trip", [
        LevyTriplet(np.array([0.1, 0.2]), np.array([1.0, 0.3]),
                    JumpPart(2.0, PointMass(np.array([0.5, -0.5])))),
        LevyTriplet(np.array([0.1, 0.2]), np.zeros(2),
                    JumpPart(2.0, PointMass(np.array([0.5, -0.5])))),
        LevyTriplet(np.array([0.1, 0.2]), np.array([1.0, 0.3])),
    ], ids=["mixed", "jump-only", "gaussian-only"])
    def test_finest_level_matches_sample_path(self, trip):
        fine = TimeGrid(1.0, 256)
        paths = levy.coupled_sample_paths(trip, fine, (4, 2, 1), 9, seed=404)
        direct = sample_path(trip, fine, 9, seed=404)
        assert np.array_equal(paths[-1].values, direct.values)
        for field in ("gauss_increments", "jump_times", "jump_marks"):
            assert np.array_equal(getattr(paths[-1], field), getattr(direct, field))

    def test_coarse_nodes_agree_with_fine(self):
        trip = LevyTriplet(np.array([0.1]), np.array([1.0]),
                           JumpPart(3.0, PointMass(np.array([0.7]))))
        fine = TimeGrid(1.0, 256)
        coarse, mid, finest = levy.coupled_sample_paths(trip, fine, (4, 2, 1), 3, seed=11)
        assert np.allclose(coarse.values, finest.values[::4], atol=1e-12)
        assert np.allclose(mid.values, finest.values[::2], atol=1e-12)
        assert np.array_equal(coarse.jump_times, finest.jump_times)

    @pytest.mark.parametrize("name", sorted(BLOCKED_TRIPLETS))
    def test_levels_equal_time_order_reference(self, name):
        # the mode-major block's level sums add each level's fine steps in
        # time order, as the time-major reference does
        trip, fine, factors = BLOCKED_TRIPLETS[name], TimeGrid(1.0, 200), (25, 8, 5, 1)
        for index in (0, 3):
            got = levy.coupled_sample_paths(trip, fine, factors, index, seed=404)
            want = coupled_reference(trip, fine, factors, index, 404)
            for a, b in zip(got, want):
                assert a.grid == b.grid
                for field in ("gauss_increments", "jump_times", "jump_marks", "values"):
                    assert np.array_equal(getattr(a, field), getattr(b, field)), (field, a.grid)
