"""Predicted law of the convolution versus Monte Carlo evidence.

The convolution Z_R(t) of a Levy integrator is infinitely divisible with a
computable characterization: Gaussian part Q_k = gauss_var_k * int_0^t
s(tau)^2 dtau per mode, a drift alpha built from the resolvent-averaged
triplet drift plus a truncation correction, and a jump measure equal to the
elapsed-time mixture of the original law pushed through R(tau), tau uniform
on [0, t] scaled by rate * t.  The log characteristic functional is

    log E exp(i <y, Z_R(t)>) = int_0^t phi(R(t - s) y) ds,

evaluated here by trapezoid quadrature on the family grid; this functional
route and the triplet route are internally consistent and both are compared
against empirical characteristic functions of simulated convolutions.

Monte Carlo standard errors use the conservative bound 1/sqrt(N) for
z-scores (|exp(i <y, X>)| = 1, so the complex mean has total sd <= 1/sqrt(N));
reports also carry the sharper per-component bound
sqrt((1 - |ecf|^2) v 1e-12) / sqrt(N) alongside.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .convolution import TagRule, _node_values, _node_weights
from .levy import LevyTriplet, _draw_jumps, jump_rule, phi_batch, sample_rng
from .spectral import ResolventFamily

# ECF panel acceptance: at least ECF_FRACTION of the z-scores within
# ECF_Z_SOFT and all of them within ECF_Z_HARD
ECF_Z_SOFT, ECF_Z_HARD, ECF_FRACTION = 3.0, 5.0, 0.95

# salt keeping panel-direction streams disjoint from per-sample streams
_PANEL_SALT = 1 << 62

# terminal_values' last Gaussian-only pass: (key, {tag rule: (N, K) array})
_LAST_PASS = (None, {})

# per-sample data one terminal_values worker holds at once, per block
_BLOCK_BYTES = 256 * 1024


@dataclass(frozen=True)
class PredictedTriplet:
    """Characterization of Z_R(t): drift, diagonal Gaussian part, jump mass.

    The jump measure itself is the pushforward mixture described in the
    module docstring; only its total mass rate * t is materialized because
    all verification runs through the characteristic functional.
    """

    t: float
    alpha: np.ndarray
    q_diag: np.ndarray
    jump_mass: float

    def __post_init__(self):
        for name in ("alpha", "q_diag"):
            arr = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arr)
            arr.flags.writeable = False


def predicted_triplet(family: ResolventFamily, triplet: LevyTriplet, t: float) -> PredictedTriplet:
    """Quadrature evaluation of the predicted characterization at a grid node.

    alpha_k = drift_k * int_0^t s(tau, gamma_k) dtau
            + rate * int_0^t E[ s(tau, gamma_k) J_k (1_{|R(tau)J| < 1} - 1_{|J| < 1}) ] dtau

    with the jump expectation taken by the law's quadrature rule (exact for
    discrete laws).  All tau-integrals use the trapezoid rule on the family
    grid.
    """
    if triplet.dim != family.K:
        raise ValueError("triplet dimension must match family modes")
    i = family.grid.node_index(t)
    dt = family.grid.dt
    s = family.s_matrix[: i + 1]  # s(tau_j, gamma_k)
    w = np.full(i + 1, dt)  # trapezoid weights; the empty integral at i = 0
    w[0] = w[i] = (0.5 * dt if i else 0.0)
    q_diag = triplet.gauss_var * (w @ s**2)
    alpha = triplet.drift * (w @ s)
    jump_mass = 0.0
    if triplet.jump is not None:
        lam = triplet.jump.rate
        jump_mass = lam * (i * dt)
        # one quadrature rule for every node: E[s_j J (1_{|s_j J| < 1} - 1_{|J| < 1})]
        points, weights = jump_rule(triplet.jump.law)
        inside = (np.linalg.norm(points, axis=1) < 1.0).astype(float)
        node_vals = np.empty((i + 1, family.K))
        for j in range(i + 1):
            scaled = points * s[j][None, :]
            ind = (np.linalg.norm(scaled, axis=1) < 1.0).astype(float) - inside
            node_vals[j] = np.tensordot(weights, scaled * ind[:, None], axes=(0, 0))
        alpha = alpha + lam * (w @ node_vals)
    return PredictedTriplet(t=i * dt, alpha=alpha, q_diag=q_diag, jump_mass=jump_mass)


def predicted_log_cf(family: ResolventFamily, triplet: LevyTriplet, t: float, y) -> complex:
    """Trapezoid quadrature of s |-> phi(R(t - s) y) over [0, t]; Re <= 0."""
    if triplet.dim != family.K:
        raise ValueError("triplet dimension must match family modes")
    y = np.asarray(y, dtype=float)
    if y.shape != (family.K,):
        raise ValueError(f"y must have length K={family.K}")
    i = family.grid.node_index(t)
    if i == 0:
        return 0.0 + 0.0j
    args = family.s_matrix[i::-1] * y[None, :]  # R(t - tau_j) y, j = 0..i
    vals = phi_batch(triplet, args)
    return complex(family.grid.dt * (np.sum(vals) - 0.5 * (vals[0] + vals[-1])))


def empirical_cf(samples: np.ndarray, y) -> tuple[complex, float]:
    """Monte Carlo mean of exp(i <y, X>) with the conservative 1/sqrt(N) bound."""
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    n = samples.shape[0]
    if n < 2:
        raise ValueError("need at least 2 samples")
    y = np.asarray(y, dtype=float)
    value = complex(np.mean(np.exp(1j * (samples @ y))))
    return value, 1.0 / np.sqrt(n)


def _sample_bytes(triplet: LevyTriplet, n: int, K: int, t_end: float) -> float:
    """Bytes one terminal_values sample holds in its worker's block.

    The n * K Gaussian increments when it draws them, plus 2 + 4K floats
    for each of about 1 + rate * t_end jump slots: the drawn time and mark,
    their time-sorted copies in the block's padded arrays, and the slot's
    elapsed time and weight.  The block pads every sample to its largest
    jump count, so a jump-only block at a low rate can hold about twice
    _BLOCK_BYTES.  Blocks shrink as the jump rate grows, with or without
    Gaussian noise.
    """
    gauss = 8.0 * n * K if np.any(triplet.gauss_var > 0.0) else 0.0
    rate = triplet.jump.rate if triplet.jump is not None else 0.0
    return gauss + 8.0 * (1.0 + rate * t_end) * (2 + 4 * K)


def _padded_jumps(times: list, marks: list, K: int):
    """One block's jumps as (B, M) times and (B, M, K) marks, each row in time order.

    times and marks hold each sample's jumps in draw order.  Rows are padded
    to the block's largest count M with time +inf and mark 0, then put in
    the order sample_path keeps by one stable argsort along the rows.
    """
    counts = [tb.size for tb in times]
    filled = np.arange(max(counts)) < np.array(counts)[:, None]
    padded_t = np.full(filled.shape, np.inf)
    padded_t[filled] = np.concatenate(times)
    padded_m = np.zeros(filled.shape + (K,))
    padded_m[filled] = np.concatenate(marks)
    order = np.argsort(padded_t, axis=1, kind="stable")
    return (np.take_along_axis(padded_t, order, axis=1),
            np.take_along_axis(padded_m, order[..., None], axis=1))


def terminal_values(
    family: ResolventFamily,
    triplet: LevyTriplet,
    t: float,
    n_samples: int,
    seed: int,
    tag_rule: TagRule = TagRule.LEFT,
    workers: int = 1,
) -> np.ndarray:
    """Z_R(t) for n_samples independent outcomes, (n_samples, K).

    Row b equals ``convolve_at(family, sample_path(triplet, family.grid, b,
    seed), node_index(t), tag_rule)`` bit for bit, whatever ``workers`` says
    and whether or not the memo below serves it.

    Each worker re-keys one generator per sample (``sample_rng``) and takes
    its samples in blocks of about _BLOCK_BYTES (_sample_bytes each, at
    least one sample); a block is one convolution._node_values call per
    rule.  With Gaussian increments the samples are split into
    min(workers, n_samples) ranges on at most os.cpu_count() threads; a
    triplet without them runs on one thread, since its work all holds the
    interpreter lock.

    For a Gaussian-only triplet, whose outcomes ``ecf_comparison`` reads
    with LEFT and ``gaussian_covariance_check`` with MIDPOINT, each block is
    also contracted with those rules, and the rules not requested are kept
    in a one-entry memo keyed by ``(family, triplet, node_index(t),
    n_samples, seed)``, family and triplet by identity (both are frozen, and
    the entry's references keep their ids from reuse).  A call matching the
    entry returns a copy and draws nothing; the next Gaussian-only pass
    replaces it.  A jump triplet neither finds nor leaves an entry.
    """
    global _LAST_PASS
    if triplet.dim != family.K:
        raise ValueError("triplet dimension must match family modes")
    i = family.grid.node_index(t)
    key = (family, triplet, i, n_samples, seed)
    last_key, last_outs = _LAST_PASS
    if (last_key is not None and last_key[0] is family and last_key[1] is triplet
            and last_key[2:] == key[2:] and tag_rule in last_outs):
        return last_outs[tag_rule].copy()

    rules = [tag_rule]
    if triplet.jump is None:
        rules += [r for r in (TagRule.LEFT, TagRule.MIDPOINT) if r is not tag_rule]
    grid = family.grid
    n, K = grid.n_steps, family.K
    drift = triplet.pathwise_drift()
    weights = [_node_weights(family, rule, i, drift) for rule in rules]
    draw_gauss = bool(np.any(triplet.gauss_var > 0.0))
    scale = np.sqrt(triplet.gauss_var * grid.dt)
    block = max(1, int(_BLOCK_BYTES // _sample_bytes(triplet, n, K, grid.t_end)))

    outs = [np.empty((n_samples, K)) for _ in rules]

    def run_range(lo: int, hi: int):
        g = np.empty((min(block, hi - lo), n, K)) if draw_gauss else None
        rng = None  # this worker's one generator, re-keyed for each sample
        for b0 in range(lo, hi, block):
            b1 = min(b0 + block, hi)
            gauss = jump_times = jump_marks = None
            times, marks = [], []  # each sample's jump data, in draw order
            for b in range(b0, b1):
                rng = sample_rng(seed, b, rng)
                if draw_gauss:
                    rng.standard_normal(out=g[b - b0])
                if triplet.jump is not None:
                    tb, mb = _draw_jumps(triplet.jump, grid.t_end, rng)
                    times.append(tb)
                    marks.append(mb)
            if draw_gauss:
                gauss = g[: b1 - b0, :i]
                gauss *= scale
            if triplet.jump is not None:
                jump_times, jump_marks = _padded_jumps(times, marks, K)
            for out, w in zip(outs, weights):
                out[b0:b1] = _node_values(family, i, w, gauss, jump_times, jump_marks)

    # jump-only samples hold the interpreter lock for all their work, so
    # threads would only wait on each other
    parts = min(workers, n_samples) if draw_gauss else 1
    if parts <= 1:
        run_range(0, n_samples)
    else:
        bounds = np.linspace(0, n_samples, parts + 1).astype(int)
        with ThreadPoolExecutor(max_workers=min(parts, os.cpu_count() or 1)) as pool:
            futs = [pool.submit(run_range, lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
            for f in futs:
                f.result()
    if len(rules) > 1:
        # one assignment, so a concurrent reader sees the old entry or the new one
        _LAST_PASS = (key, dict(zip(rules[1:], outs[1:])))
    return outs[0]


def build_panel(K: int, panel_size: int, seed: int) -> np.ndarray:
    """Test functionals: eigen-directions scaled by {0.5, 1, 2}, then random units."""
    if panel_size < 1:
        raise ValueError("panel_size must be >= 1")
    vecs = []
    for k in range(K):
        for c in (0.5, 1.0, 2.0):
            e = np.zeros(K)
            e[k] = c
            vecs.append(e)
    vecs = vecs[:panel_size]
    rng = sample_rng(seed, _PANEL_SALT)
    while len(vecs) < panel_size:
        v = rng.standard_normal(K)
        vecs.append(v / np.linalg.norm(v))
    return np.array(vecs)


@dataclass(frozen=True)
class EcfRow:
    y: np.ndarray
    predicted: complex
    empirical: complex
    stderr: float  # conservative 1/sqrt(N); the z convention
    stderr_component_bound: float  # sqrt((1 - |ecf|^2) v 1e-12) / sqrt(N)
    z: float


@dataclass(frozen=True)
class EcfReport:
    """Panel comparison of predicted vs empirical characteristic functions.

    z = |empirical - predicted| / (1/sqrt(N)).  Acceptance convention:
    at least ECF_FRACTION of the panel within ECF_Z_SOFT, all within
    ECF_Z_HARD.
    """

    t: float
    n_samples: int
    seed: int
    tag_rule: TagRule
    rows: tuple

    @property
    def z_scores(self) -> np.ndarray:
        return np.array([r.z for r in self.rows])

    @property
    def max_abs_z(self) -> float:
        return float(np.max(self.z_scores))

    @property
    def frac_within_soft(self) -> float:
        z = self.z_scores
        return float(np.mean(z <= ECF_Z_SOFT))

    @property
    def passed(self) -> bool:
        return self.frac_within_soft >= ECF_FRACTION and self.max_abs_z <= ECF_Z_HARD


def ecf_comparison(
    family: ResolventFamily,
    triplet: LevyTriplet,
    t: float,
    panel_size: int,
    n_samples: int,
    seed: int,
    tag_rule: TagRule = TagRule.LEFT,
    workers: int = 1,
) -> EcfReport:
    """Simulate, convolve, and score the panel; deterministic in (seed, N, grid)."""
    if n_samples < 1000:
        raise ValueError(f"n_samples must be >= 1000 for the ECF comparison, got {n_samples}")
    panel = build_panel(family.K, panel_size, seed)
    samples = terminal_values(family, triplet, t, n_samples, seed, tag_rule, workers)
    rows = []
    for y in panel:
        pred = np.exp(predicted_log_cf(family, triplet, t, y))
        emp, se = empirical_cf(samples, y)
        se_comp = float(np.sqrt(max(1.0 - abs(emp) ** 2, 1e-12)) / np.sqrt(n_samples))
        z = abs(emp - pred) / se
        rows.append(EcfRow(y=y, predicted=complex(pred), empirical=emp,
                           stderr=se, stderr_component_bound=se_comp, z=float(z)))
    return EcfReport(t=t, n_samples=n_samples, seed=seed, tag_rule=tag_rule, rows=tuple(rows))


@dataclass(frozen=True)
class CovarianceCheck:
    """Per-mode sample variance of Z_R(t) against the predicted Q diagonal."""

    t: float
    n_samples: int
    seed: int
    q_predicted: np.ndarray
    sample_var: np.ndarray
    z: np.ndarray

    @property
    def max_abs_z(self) -> float:
        return float(np.max(np.abs(self.z)))


def gaussian_covariance_check(
    family: ResolventFamily,
    triplet: LevyTriplet,
    t: float,
    n_samples: int,
    seed: int,
    tag_rule: TagRule = TagRule.MIDPOINT,
    workers: int = 1,
) -> CovarianceCheck:
    """Variance test for Gaussian-only triplets.

    z_k = (S_k^2 - Q_k) / sqrt(2 Q_k^2 / (N - 1)), the exact sampling sd of
    the variance of Gaussian data; modes with Q_k = 0 score z = 0.  Midpoint
    tags by default: they match the trapezoid prediction of Q to O(dt^2), so
    the quadrature bias stays well inside the Monte Carlo band.
    """
    if triplet.jump is not None:
        raise ValueError("covariance check is defined for Gaussian-only triplets")
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    pred = predicted_triplet(family, triplet, t)
    samples = terminal_values(family, triplet, t, n_samples, seed, tag_rule, workers)
    svar = np.var(samples, axis=0, ddof=1)
    denom = np.sqrt(2.0 / (n_samples - 1)) * pred.q_diag
    z = np.where(pred.q_diag > 0.0, (svar - pred.q_diag) / np.where(denom > 0, denom, 1.0), 0.0)
    return CovarianceCheck(t=pred.t, n_samples=n_samples, seed=seed,
                           q_predicted=pred.q_diag, sample_var=svar, z=z)
