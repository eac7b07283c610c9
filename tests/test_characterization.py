import json
import sys
import threading
from concurrent.futures import Future

import numpy as np
import pytest

from levyvolterra import characterization, cli, levy
from levyvolterra.levy import phi_batch
from levyvolterra import (
    DiscreteMixture,
    GaussianJumps,
    JumpPart,
    KernelSpec,
    LevyTriplet,
    PointMass,
    TagRule,
    TimeGrid,
    build_panel,
    build_resolvent_family,
    build_spectral_model,
    convolve_at,
    ecf_comparison,
    empirical_cf,
    gaussian_covariance_check,
    identity_resolvent_family,
    predicted_log_cf,
    predicted_triplet,
    sample_path,
    terminal_values,
)
from stream_reference import BLOCKED_TRIPLETS, philox_stream, reference_draw

KERNEL = KernelSpec.exponential(1.0)
# independent quadrature of int_0^1 s(tau, 1)^2 dtau for the exponential kernel
Q_MU1 = 0.5275214517603009
# independent quadrature of 2 * int_0^1 s(tau, pi^2) 1_{2 s(tau) < 1} dtau
ALPHA_CORRECTION_H2 = 0.24552603917867658


def family(K, grid, mus=None):
    model = build_spectral_model(K, mus if mus is not None else "dirichlet_laplacian")
    return build_resolvent_family(model, KERNEL, grid)


@pytest.fixture
def streams(monkeypatch):
    """(seed, index) of every stream levy and characterization construct or re-key."""
    keys = []
    original = levy.sample_rng

    def counting(seed, index, rng=None):
        keys.append((seed, index))
        return original(seed, index, rng)

    monkeypatch.setattr(levy, "sample_rng", counting)
    monkeypatch.setattr(characterization, "sample_rng", counting)
    return keys


class TestPredictedTriplet:
    def test_time_zero_is_degenerate(self):
        fam = family(2, TimeGrid(1.0, 100))
        trip = LevyTriplet(np.ones(2), np.ones(2), JumpPart(2.0, PointMass(np.array([3.0, 0.0]))))
        pred = predicted_triplet(fam, trip, 0.0)
        assert np.array_equal(pred.alpha, np.zeros(2))
        assert np.array_equal(pred.q_diag, np.zeros(2))
        assert pred.jump_mass == 0.0

    def test_identity_family_reduces_to_levy_scaling(self):
        # R == I: alpha = t * drift, Q = t * gauss_var, jump mass = rate * t
        grid = TimeGrid(1.0, 100)
        fam = identity_resolvent_family(2, KERNEL, grid)
        trip = LevyTriplet(np.array([0.5, -1.0]), np.array([2.0, 0.3]),
                           JumpPart(1.5, PointMass(np.array([0.4, 0.1]))))
        pred = predicted_triplet(fam, trip, 1.0)
        assert np.allclose(pred.alpha, [0.5, -1.0], atol=1e-13)
        assert np.allclose(pred.q_diag, [2.0, 0.3], atol=1e-13)
        assert pred.jump_mass == 1.5

    def test_gaussian_q_against_independent_quadrature(self):
        fam = family(1, TimeGrid(1.0, 1000), [1.0])
        pred = predicted_triplet(fam, LevyTriplet(np.zeros(1), np.ones(1)), 1.0)
        assert pred.q_diag[0] == pytest.approx(Q_MU1, abs=1e-5)

    def test_indicator_correction_against_independent_quadrature(self):
        # jumps of size 2 shrink through the resolvent and enter the unit
        # ball once s < 1/2; the correction integrand jumps there, so the
        # grid quadrature carries an O(dt) defect at the crossing
        fam = family(1, TimeGrid(1.0, 1000), [np.pi**2])
        trip = LevyTriplet(np.zeros(1), np.zeros(1), JumpPart(1.0, PointMass(np.array([2.0]))))
        pred = predicted_triplet(fam, trip, 1.0)
        assert pred.alpha[0] == pytest.approx(ALPHA_CORRECTION_H2, abs=2e-3)

    def test_correction_skipped_for_inside_ball_jumps(self):
        fam = family(1, TimeGrid(1.0, 200), [np.pi**2])
        trip = LevyTriplet(np.array([0.7]), np.zeros(1),
                           JumpPart(2.0, PointMass(np.array([0.8]))))
        pred = predicted_triplet(fam, trip, 1.0)
        # alpha is exactly drift * trap(s): both indicators agree pointwise
        w = np.full(201, fam.grid.dt)
        w[0] = w[-1] = fam.grid.dt / 2
        assert pred.alpha[0] == pytest.approx(0.7 * float(w @ fam.s_matrix[:, 0]), abs=1e-15)

    def test_q_bounded_by_flat_scaling(self):
        fam = family(3, TimeGrid(1.0, 500))
        trip = LevyTriplet(np.zeros(3), np.array([1.0, 2.0, 0.5]))
        pred = predicted_triplet(fam, trip, 1.0)
        assert np.all(pred.q_diag <= 1.0 * trip.gauss_var + 1e-12)

    def test_mass_conservation_exact(self):
        fam = family(1, TimeGrid(2.0, 128), [1.0])
        trip = LevyTriplet(np.zeros(1), np.zeros(1), JumpPart(3.25, PointMass(np.array([5.0]))))
        pred = predicted_triplet(fam, trip, 2.0)
        assert pred.jump_mass == 3.25 * 2.0

    def test_off_grid_time_rejected(self):
        fam = family(1, TimeGrid(1.0, 100), [1.0])
        with pytest.raises(ValueError):
            predicted_triplet(fam, LevyTriplet.zero(1), 0.5037)


JUMP_LAWS = {
    "point-mass": PointMass(np.array([1.5, -0.4])),
    "mixture": DiscreteMixture(np.array([0.3, 0.7]), np.array([[1.2, 0.1], [0.2, -0.9]])),
    "gaussian": GaussianJumps(np.array([0.3, -0.2]), np.array([0.8, 0.5])),
}


class TestPredictedTripletRule:
    @pytest.mark.parametrize("name", sorted(JUMP_LAWS))
    def test_equals_per_node_expectation(self, name, monkeypatch):
        from levyvolterra.levy import jump_expectation

        law = JUMP_LAWS[name]
        grid = TimeGrid(1.0, 40)
        fam = family(2, grid, [1.0, 4.0])
        trip = LevyTriplet(np.array([0.3, -0.1]), np.array([0.5, 0.2]), JumpPart(1.5, law))
        # reference: one jump_expectation per node
        n, dt = grid.n_steps, grid.dt
        s = fam.s_matrix
        w = np.full(n + 1, dt)
        w[0] = w[n] = 0.5 * dt
        node_vals = np.empty((n + 1, 2))
        for j in range(n + 1):
            def integrand(x, svec=s[j]):
                scaled = x * svec[None, :]
                ind = (np.linalg.norm(scaled, axis=1) < 1.0).astype(float) - (
                    np.linalg.norm(x, axis=1) < 1.0).astype(float)
                return scaled * ind[:, None]

            node_vals[j] = jump_expectation(law, integrand)
        alpha = trip.drift * (w @ s) + 1.5 * (w @ node_vals)
        assert np.any(node_vals != 0.0)

        builds = []
        hermegauss = np.polynomial.hermite_e.hermegauss
        monkeypatch.setattr(np.polynomial.hermite_e, "hermegauss",
                            lambda deg: builds.append(deg) or hermegauss(deg))
        pred = predicted_triplet(fam, trip, 1.0)
        assert np.array_equal(pred.alpha, alpha)
        assert len(builds) == (1 if name == "gaussian" else 0)


class TestPredictedLogCf:
    def test_time_zero(self):
        fam = family(2, TimeGrid(1.0, 50))
        assert predicted_log_cf(fam, LevyTriplet.zero(2), 0.0, np.ones(2)) == 0.0

    def test_identity_family_gives_t_phi(self):
        grid = TimeGrid(1.0, 64)
        fam = identity_resolvent_family(2, KERNEL, grid)
        trip = LevyTriplet(np.array([0.3, -0.1]), np.array([1.0, 0.5]),
                           JumpPart(2.0, PointMass(np.array([0.5, 1.5]))))
        y = np.array([0.7, -1.3])
        expected = 1.0 * phi_batch(trip, y)[0]
        assert predicted_log_cf(fam, trip, 1.0, y) == pytest.approx(expected, abs=1e-12)

    def test_gaussian_route_agreement(self):
        # functional quadrature vs i<alpha, y> - (1/2) sum Q_k y_k^2
        fam = family(3, TimeGrid(1.0, 400))
        trip = LevyTriplet(np.array([0.2, -0.4, 0.1]), np.array([1.0, 0.6, 0.2]))
        pred = predicted_triplet(fam, trip, 1.0)
        rng = np.random.default_rng(3)
        for _ in range(10):
            y = rng.standard_normal(3)
            lk = 1j * (pred.alpha @ y) - 0.5 * (pred.q_diag @ y**2)
            assert predicted_log_cf(fam, trip, 1.0, y) == pytest.approx(lk, abs=1e-12)

    def test_jump_route_agreement_via_pushforward(self):
        # reassemble the log CF from [alpha, Q, pushforward jump mixture] and
        # compare with the functional quadrature on the same grid
        grid = TimeGrid(1.0, 500)
        fam = family(1, grid, [np.pi**2])
        lam, h = 1.3, 2.0
        trip = LevyTriplet(np.array([0.4]), np.array([0.7]),
                           JumpPart(lam, PointMass(np.array([h]))))
        pred = predicted_triplet(fam, trip, 1.0)
        s = fam.s_matrix[:, 0]
        w = np.full(grid.n_steps + 1, grid.dt)
        w[0] = w[-1] = grid.dt / 2
        for y in (0.5, 1.0, -2.0):
            z = s * h  # jump image through R(tau)
            levy_term = np.exp(1j * y * z) - 1.0 - 1j * y * z * (np.abs(z) < 1.0)
            lk = 1j * pred.alpha[0] * y - 0.5 * pred.q_diag[0] * y**2 + lam * float(w @ levy_term.real) \
                + 1j * lam * float(w @ levy_term.imag)
            assert predicted_log_cf(fam, trip, 1.0, np.array([y])) == pytest.approx(lk, abs=1e-10)

    def test_real_part_nonpositive(self):
        fam = family(2, TimeGrid(1.0, 100))
        trip = LevyTriplet(np.array([0.3, 0.3]), np.array([0.5, 0.1]),
                           JumpPart(1.0, PointMass(np.array([0.4, -0.6]))))
        rng = np.random.default_rng(12)
        for _ in range(20):
            y = 3 * rng.standard_normal(2)
            assert predicted_log_cf(fam, trip, 1.0, y).real <= 1e-12


class TestEmpiricalCf:
    def test_all_zero_samples(self):
        val, se = empirical_cf(np.zeros((100, 2)), np.array([0.4, 0.4]))
        assert val == 1.0 + 0.0j
        assert se == pytest.approx(0.1)

    def test_zero_functional(self):
        rng = np.random.default_rng(0)
        val, _ = empirical_cf(rng.standard_normal((50, 3)), np.zeros(3))
        assert val == 1.0 + 0.0j

    def test_modulus_bounded(self):
        rng = np.random.default_rng(1)
        val, _ = empirical_cf(rng.standard_normal((1000, 1)), np.array([0.7]))
        assert abs(val) <= 1.0

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            empirical_cf(np.zeros((1, 2)), np.ones(2))


PATH_ROUTE_LAWS = {
    "point-mass": PointMass(np.array([0.6, -0.4])),
    # these two draw their marks from the stream after the jump times
    "discrete-mixture": DiscreteMixture(np.array([0.6, 0.4]),
                                        np.array([[0.6, -0.4], [-0.3, 0.5]])),
    "gaussian": GaussianJumps(np.array([0.2, -0.1]), np.array([0.3, 0.5])),
}


class InlineExecutor:
    """ThreadPoolExecutor stand-in that runs each task at submit, on no thread.

    log receives max_workers, then each submitted (lo, hi) range.
    """

    def __init__(self, log, max_workers):
        self.log = log
        log.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, lo, hi):
        self.log.append((int(lo), int(hi)))
        fut = Future()
        fut.set_result(fn(lo, hi))
        return fut


class TestTerminalValues:
    @pytest.mark.parametrize("law", sorted(PATH_ROUTE_LAWS))
    def test_matches_path_route(self, law):
        grid = TimeGrid(1.0, 150)
        fam = family(2, grid)
        trip = LevyTriplet(np.array([0.3, -0.2]), np.array([0.5, 0.25]),
                           JumpPart(1.5, PATH_ROUTE_LAWS[law]))
        vals = terminal_values(fam, trip, 1.0, 4, seed=606, tag_rule=TagRule.LEFT)
        for idx in range(4):
            path = sample_path(trip, grid, idx, seed=606)
            assert np.array_equal(vals[idx], convolve_at(fam, path, grid.n_steps, TagRule.LEFT))

    def test_jump_only_runs_on_one_thread(self, monkeypatch):
        log = []
        monkeypatch.setattr(characterization, "ThreadPoolExecutor",
                            lambda max_workers: InlineExecutor(log, max_workers))
        fam = family(3, TimeGrid(1.0, 50))
        trip = BLOCKED_TRIPLETS["jump-only"]
        got = terminal_values(fam, trip, 1.0, 40, seed=12, workers=4)
        assert log == []
        assert np.array_equal(got, terminal_values(fam, trip, 1.0, 40, seed=12))

    def test_worker_count_invariance(self):
        grid = TimeGrid(1.0, 100)
        fam = family(2, grid)
        trip = LevyTriplet(np.zeros(2), np.array([1.0, 0.5]))
        a = terminal_values(fam, trip, 1.0, 64, seed=9, workers=1)
        b = terminal_values(fam, trip, 1.0, 64, seed=9, workers=4)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("workers, n_samples, cpus, threads, n_ranges", [
        (10**6, 8, 2, 2, 8),  # one range per sample, two threads
        (3, 40, 16, 3, 3),
        (5, 40, None, 1, 5),  # os.cpu_count() may not know
    ])
    def test_pool_is_bounded(self, monkeypatch, workers, n_samples, cpus, threads, n_ranges):
        log = []
        monkeypatch.setattr(characterization, "ThreadPoolExecutor",
                            lambda max_workers: InlineExecutor(log, max_workers))
        monkeypatch.setattr(characterization.os, "cpu_count", lambda: cpus)
        fam = family(2, TimeGrid(1.0, 50))
        trip = BLOCKED_TRIPLETS["mixed"]
        got = terminal_values(fam, trip, 1.0, n_samples, seed=12, workers=workers)
        assert log[0] == threads
        ranges = log[1:]
        assert len(ranges) == n_ranges
        assert ranges[0][0] == 0 and ranges[-1][1] == n_samples
        assert all(lo < hi for lo, hi in ranges)
        assert [lo for lo, _ in ranges[1:]] == [hi for _, hi in ranges[:-1]]
        assert np.array_equal(got, terminal_values(fam, trip, 1.0, n_samples, seed=12))


def per_sample_terminal_values(fam, trip, t, n_samples, seed, tag_rule):
    """One sample at a time: each stream drawn by reference_draw and contracted on its own.

    Each mode's increments and weights are contiguous time rows, as in the
    mode-major blocks, contracted by one einsum per sample.  Its jumps come
    in time order, as sample_path keeps them, and are summed left to right.
    """
    grid = fam.grid
    K, dt = fam.K, grid.dt
    nodes = grid.nodes()
    i = grid.node_index(t)
    s = fam.s_matrix
    lagw = {TagRule.LEFT: s[1:], TagRule.RIGHT: s[:-1],
            TagRule.MIDPOINT: 0.5 * (s[:-1] + s[1:])}[tag_rule][:i]
    drift_part = trip.pathwise_drift() * (dt * np.sum(lagw, axis=0)) if i else np.zeros(K)
    out = np.empty((n_samples, K))
    for b in range(n_samples):
        g, times, marks = reference_draw(trip, grid, b, seed)
        acc = drift_part
        if np.any(trip.gauss_var > 0.0):
            acc = drift_part + np.einsum("kj,kj->k", np.ascontiguousarray(lagw[::-1].T),
                                         np.ascontiguousarray(g[:i].T))
        sel = times <= nodes[i]
        if np.any(sel):
            jw = np.column_stack([np.interp(nodes[i] - times[sel], nodes, s[:, k])
                                  for k in range(K)])
            jump_sum = np.zeros(K)
            for term in jw * marks[sel]:  # left to right in time
                jump_sum = jump_sum + term
            acc = acc + jump_sum
        out[b] = acc
    return out


class TestBlockedTerminalValues:
    """The blocked pass equals the one-sample-at-a-time pass bit for bit."""

    GRID = TimeGrid(1.0, 60)
    N = 50  # not a multiple of 3, nor of the default block at this grid

    @pytest.mark.parametrize("block", ["default", "3-samples"])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("t", [0.0, 0.5, 1.0], ids=["node-0", "mid", "t_end"])
    @pytest.mark.parametrize("name", sorted(BLOCKED_TRIPLETS))
    def test_equals_per_sample_pass(self, monkeypatch, name, t, workers, block):
        trip = BLOCKED_TRIPLETS[name]
        fam = family(trip.dim, self.GRID)
        if block == "3-samples":
            monkeypatch.setattr(levy, "_BLOCK_BYTES", 3 * levy._sample_bytes(
                trip, self.GRID.n_steps, trip.dim, self.GRID.t_end))
        monkeypatch.setattr(characterization, "_LAST_PASS", (None, {}))
        got = terminal_values(fam, trip, t, self.N, seed=17, tag_rule=TagRule.RIGHT,
                              workers=workers)
        assert np.array_equal(got, per_sample_terminal_values(fam, trip, t, self.N, 17,
                                                              TagRule.RIGHT))
        if trip.jump is None:  # the same pass contracted LEFT and MIDPOINT into the memo
            for rule in (TagRule.LEFT, TagRule.MIDPOINT):
                memo = terminal_values(fam, trip, t, self.N, seed=17, tag_rule=rule)
                assert np.array_equal(memo, per_sample_terminal_values(fam, trip, t, self.N,
                                                                       17, rule))

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("name", ["gaussian", "jump-only", "mixed", "mixture-and-noise"])
    def test_rekeyed_streams_equal_fresh_streams(self, monkeypatch, name, workers):
        trip = BLOCKED_TRIPLETS[name]
        fam = family(trip.dim, self.GRID)
        monkeypatch.setattr(characterization, "_LAST_PASS", (None, {}))
        rekeyed = []
        real = levy.sample_rng

        def recording(seed, index, rng=None):
            rekeyed.append(rng is not None)
            return real(seed, index, rng)

        monkeypatch.setattr(levy, "sample_rng", recording)
        got = terminal_values(fam, trip, 1.0, self.N, seed=23, workers=workers)
        # one new generator per thread of a Gaussian pass, one in all for a
        # jump-only pass, which runs on one thread
        n_ranges = workers if np.any(trip.gauss_var > 0.0) else 1
        assert len(rekeyed) == self.N and rekeyed.count(False) == n_ranges
        monkeypatch.setattr(characterization, "_LAST_PASS", (None, {}))
        # numpy's own keying of each stream, a new generator per sample
        monkeypatch.setattr(levy, "sample_rng",
                            lambda seed, index, rng=None: philox_stream(seed, index))
        assert np.array_equal(got, terminal_values(fam, trip, 1.0, self.N, seed=23,
                                                   workers=workers))

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("t", [0.0, 0.5, 1.0], ids=["node-0", "mid", "t_end"])
    @pytest.mark.parametrize("name", sorted(BLOCKED_TRIPLETS))
    def test_rows_are_convolve_at_on_sample_path(self, monkeypatch, streams, name, t, workers):
        trip = BLOCKED_TRIPLETS[name]
        fam = family(trip.dim, self.GRID)
        i = self.GRID.node_index(t)
        paths = [sample_path(trip, self.GRID, b, seed=31) for b in range(self.N)]
        streams.clear()  # count only the streams terminal_values draws
        monkeypatch.setattr(characterization, "_LAST_PASS", (None, {}))
        # a Gaussian-only RIGHT pass leaves LEFT and MIDPOINT in the memo
        for rule in (TagRule.RIGHT, TagRule.LEFT, TagRule.MIDPOINT):
            got = terminal_values(fam, trip, t, self.N, seed=31, tag_rule=rule, workers=workers)
            assert np.array_equal(got, [convolve_at(fam, path, i, rule) for path in paths])
        assert len(streams) == (1 if trip.jump is None else 3) * self.N

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("name", ["mixed", "mixture-and-noise"])
    def test_jump_passes_within_a_small_budget(self, monkeypatch, name, workers):
        # blocks of 3 samples, and a jump pass whenever the pending blocks'
        # padded jumps reach those 3 samples' bytes
        trip = BLOCKED_TRIPLETS[name]
        fam = family(trip.dim, self.GRID)
        monkeypatch.setattr(levy, "_BLOCK_BYTES", 3 * levy._sample_bytes(
            trip, self.GRID.n_steps, trip.dim, self.GRID.t_end))
        passes = []
        real = characterization._jump_weights

        def recording(family, t, jump_times):
            passes.append(jump_times.shape)
            return real(family, t, jump_times)

        monkeypatch.setattr(characterization, "_jump_weights", recording)
        got = terminal_values(fam, trip, 1.0, self.N, seed=41, workers=workers)
        assert len(passes) >= 2 * workers
        assert max(rows for rows, _ in passes) > 3  # a pass over several blocks
        assert sum(rows for rows, _ in passes) == self.N
        assert np.array_equal(got, [convolve_at(fam, sample_path(trip, self.GRID, b, seed=41),
                                                self.GRID.n_steps, TagRule.LEFT)
                                    for b in range(self.N)])

    @pytest.mark.parametrize("name", ["rate-20-K1", "rate-20-K2"])
    def test_high_rate_reaches_eight_jumps(self, name):
        trip = BLOCKED_TRIPLETS[name]
        counts = [sample_path(trip, self.GRID, b, seed=17).jump_times.size for b in range(self.N)]
        assert max(counts) >= 8


class TestSharedPass:
    """Gaussian-only outcomes are drawn once and contracted with LEFT and MIDPOINT."""

    GRID = TimeGrid(1.0, 100)
    TRIP = LevyTriplet(np.array([0.3, -0.2]), np.array([1.0, 0.5]))

    def test_hit_equals_fresh_pass(self, streams):
        fam = family(2, self.GRID)
        mid = terminal_values(fam, self.TRIP, 1.0, 64, seed=3, tag_rule=TagRule.MIDPOINT)
        hit = terminal_values(fam, self.TRIP, 1.0, 64, seed=3, tag_rule=TagRule.LEFT)
        assert len(streams) == 64
        terminal_values(fam, self.TRIP, 1.0, 64, seed=4, tag_rule=TagRule.MIDPOINT)  # evicts
        fresh = terminal_values(fam, self.TRIP, 1.0, 64, seed=3, tag_rule=TagRule.LEFT)
        assert len(streams) == 3 * 64
        assert np.array_equal(hit, fresh)
        for idx in range(3):
            path = sample_path(self.TRIP, self.GRID, idx, seed=3)
            for rule, vals in ((TagRule.LEFT, hit), (TagRule.MIDPOINT, mid)):
                assert np.array_equal(vals[idx], convolve_at(fam, path, self.GRID.n_steps, rule))

    def test_right_pass_serves_both_checks(self, streams):
        fam = family(2, self.GRID)
        terminal_values(fam, self.TRIP, 1.0, 32, seed=8, tag_rule=TagRule.RIGHT)
        hits = [terminal_values(fam, self.TRIP, 1.0, 32, seed=8, tag_rule=rule)
                for rule in (TagRule.LEFT, TagRule.MIDPOINT)]
        assert len(streams) == 32
        terminal_values(fam, self.TRIP, 1.0, 32, seed=8, tag_rule=TagRule.MIDPOINT)
        fresh_mid = terminal_values(fam, self.TRIP, 1.0, 32, seed=8, tag_rule=TagRule.MIDPOINT)
        fresh_left = terminal_values(fam, self.TRIP, 1.0, 32, seed=8, tag_rule=TagRule.LEFT)
        assert np.array_equal(hits[0], fresh_left) and np.array_equal(hits[1], fresh_mid)

    def test_returned_arrays_are_private(self):
        fam = family(2, self.GRID)
        mid = terminal_values(fam, self.TRIP, 1.0, 16, seed=5, tag_rule=TagRule.MIDPOINT)
        first = terminal_values(fam, self.TRIP, 1.0, 16, seed=5, tag_rule=TagRule.LEFT)
        expected = first.copy()
        first[:] = 0.0
        mid[:] = 0.0
        assert np.array_equal(
            terminal_values(fam, self.TRIP, 1.0, 16, seed=5, tag_rule=TagRule.LEFT), expected)

    @pytest.mark.parametrize("field", ["seed", "n_samples", "t", "family", "triplet"])
    def test_other_key_misses(self, streams, field):
        fam = family(2, self.GRID)
        args = {"family": fam, "triplet": self.TRIP, "t": 1.0, "n_samples": 32, "seed": 5}
        terminal_values(**args, tag_rule=TagRule.MIDPOINT)
        hit = terminal_values(**args, tag_rule=TagRule.LEFT)
        changed = {"seed": 6, "n_samples": 33, "t": 0.5, "family": family(2, self.GRID),
                   "triplet": LevyTriplet(self.TRIP.drift, self.TRIP.gauss_var)}[field]
        streams.clear()
        out = terminal_values(**{**args, field: changed}, tag_rule=TagRule.LEFT)
        assert len(streams) == (33 if field == "n_samples" else 32)
        if field in ("family", "triplet"):  # equal inputs, distinct objects
            assert np.array_equal(out, hit)

    def test_hits_worker_count_invariant(self):
        fam = family(2, self.GRID)
        passes = []
        for workers in (1, 4):
            mid = terminal_values(fam, self.TRIP, 1.0, 64, seed=9, tag_rule=TagRule.MIDPOINT,
                                  workers=workers)
            left = terminal_values(fam, self.TRIP, 1.0, 64, seed=9, workers=workers)
            passes.append((mid, left))
        assert np.array_equal(passes[0][0], passes[1][0])
        assert np.array_equal(passes[0][1], passes[1][1])

    def test_jump_triplet_contracts_requested_rule_only(self, streams):
        fam = family(2, self.GRID)
        trip = LevyTriplet(np.zeros(2), np.array([1.0, 0.5]),
                           JumpPart(2.0, PointMass(np.array([0.6, -0.4]))))
        # a Gaussian-only entry for the same family and seed stays unused
        terminal_values(fam, self.TRIP, 1.0, 32, seed=5, tag_rule=TagRule.MIDPOINT)
        mid = terminal_values(fam, trip, 1.0, 32, seed=5, tag_rule=TagRule.MIDPOINT)
        streams.clear()
        left = terminal_values(fam, trip, 1.0, 32, seed=5, tag_rule=TagRule.LEFT)
        assert len(streams) == 32
        assert not np.array_equal(left, mid)
        for idx in range(3):
            path = sample_path(trip, self.GRID, idx, seed=5)
            assert np.array_equal(left[idx],
                                  convolve_at(fam, path, self.GRID.n_steps, TagRule.LEFT))

    def test_concurrent_callers_get_their_own_pass(self):
        fam = family(2, self.GRID)
        cases = [(seed, rule) for seed in (1, 2, 3) for rule in (TagRule.LEFT, TagRule.MIDPOINT)]
        expected = {}
        for seed, rule in cases:
            terminal_values(fam, self.TRIP, 1.0, 8, seed=99, tag_rule=TagRule.RIGHT)  # evicts
            expected[seed, rule] = terminal_values(fam, self.TRIP, 1.0, 8, seed=seed, tag_rule=rule)
        wrong = []

        def caller(offset):
            for step in range(40):
                seed, rule = cases[(offset + step) % len(cases)]
                got = terminal_values(fam, self.TRIP, 1.0, 8, seed=seed, tag_rule=rule)
                if not np.array_equal(got, expected[seed, rule]):
                    wrong.append((seed, rule))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=(k,)) for k in range(6)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert wrong == []

    def test_verify_ecf_draws_each_stream_once(self, tmp_path, streams):
        cfg = {
            "schema_version": 1,
            "kernel": {"family": "exponential", "rate": 1.0},
            "model": {"K": 2, "rule": "dirichlet_laplacian"},
            "triplet": {"drift": [0.0, 0.0], "gauss_var": [1.0, 0.5]},
            "grid": {"t_end": 1.0, "n_steps": 50},
            "mc": {"n_samples": 1000, "seed": 21},
            "panel_size": 10,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert cli.main(["verify-ecf", "--config", str(path), "--out", str(out)]) in (0, 1)
        assert "covariance_check" in json.loads((out / "ecf_report.json").read_text())["results"]
        # N sample streams plus the one panel stream
        assert len(streams) == 1000 + 1
        assert len(set(streams)) == len(streams)


class TestPanel:
    def test_eigen_block_then_random_units(self):
        panel = build_panel(2, 10, seed=5)
        assert panel.shape == (10, 2)
        assert np.array_equal(panel[0], [0.5, 0.0])
        assert np.array_equal(panel[5], [0.0, 2.0])
        assert np.allclose(np.linalg.norm(panel[6:], axis=1), 1.0)

    def test_deterministic(self):
        assert np.array_equal(build_panel(3, 15, seed=1), build_panel(3, 15, seed=1))

    def test_size_validation(self):
        with pytest.raises(ValueError):
            build_panel(2, 0, seed=1)


class TestEcfComparison:
    def test_minimum_sample_size_enforced(self):
        fam = family(1, TimeGrid(1.0, 50), [1.0])
        with pytest.raises(ValueError):
            ecf_comparison(fam, LevyTriplet.zero(1), 1.0, 4, 10, seed=1)

    def test_zero_noise_scores_exactly_zero(self):
        fam = family(2, TimeGrid(1.0, 100))
        rep = ecf_comparison(fam, LevyTriplet.zero(2), 1.0, 8, 1000, seed=42)
        assert np.array_equal(rep.z_scores, np.zeros(8))
        assert rep.passed

    def test_small_gaussian_run_passes(self):
        fam = family(2, TimeGrid(1.0, 200))
        trip = LevyTriplet(np.zeros(2), np.array([1.0, 0.5]))
        rep = ecf_comparison(fam, trip, 1.0, 10, 4000, seed=7)
        assert rep.passed, rep.z_scores
        for row in rep.rows:
            assert abs(row.empirical) <= 1.0 and abs(row.predicted) <= 1.0
            assert row.stderr == pytest.approx(1.0 / np.sqrt(4000))
            assert row.stderr_component_bound <= row.stderr + 1e-15


class TestCovarianceCheck:
    def test_rejects_jump_triplets(self):
        fam = family(1, TimeGrid(1.0, 50), [1.0])
        trip = LevyTriplet(np.zeros(1), np.ones(1), JumpPart(1.0, PointMass(np.array([1.0]))))
        with pytest.raises(ValueError):
            gaussian_covariance_check(fam, trip, 1.0, 1000, seed=0)

    def test_zero_variance_scores_zero(self):
        fam = family(2, TimeGrid(1.0, 50))
        trip = LevyTriplet(np.array([0.3, 0.0]), np.zeros(2))
        check = gaussian_covariance_check(fam, trip, 1.0, 500, seed=0)
        assert np.array_equal(check.z, np.zeros(2))

    def test_needs_two_samples_before_drawing(self, streams):
        fam = family(1, TimeGrid(1.0, 50), [1.0])
        with pytest.raises(ValueError, match="at least 2 samples"):
            gaussian_covariance_check(fam, LevyTriplet(np.zeros(1), np.ones(1)), 1.0, 1, seed=0)
        assert streams == []

    def test_identity_family_flat_variance(self):
        grid = TimeGrid(1.0, 100)
        fam = identity_resolvent_family(1, KERNEL, grid)
        trip = LevyTriplet(np.zeros(1), np.ones(1))
        check = gaussian_covariance_check(fam, trip, 1.0, 20_000, seed=3)
        assert check.q_predicted[0] == pytest.approx(1.0, abs=1e-12)
        assert check.max_abs_z < 4.0
