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

import numpy as np

from . import levy
from .convolution import TagRule, _jump_sums, _node_values, _node_weights
from .grid import _frozen_floats, frozen
from .levy import LevyTriplet, _draw_blocks, _jump_bytes, jump_rule, phi_batch, sample_rng
from .spectral import ResolventFamily

# ECF panel acceptance: at least ECF_FRACTION of the z-scores within
# ECF_Z_SOFT and all of them within ECF_Z_HARD
ECF_Z_SOFT, ECF_Z_HARD, ECF_FRACTION = 3.0, 5.0, 0.95
# fewest samples the ECF comparison scores a panel with
ECF_MIN_SAMPLES = 1000

# salt keeping panel-direction streams disjoint from per-sample streams
_PANEL_SALT = 1 << 62

# terminal_values' last Gaussian-only pass: (key, {tag rule: (N, K) view of its rows})
_LAST_PASS = (None, {})


@frozen
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
            object.__setattr__(self, name, _frozen_floats(getattr(self, name)))


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

    Each range of samples is one levy._draw_blocks loop: one
    convolution._node_values call per block contracts the block's
    mode-major (B, K, n) increments with every rule at once and writes the
    drift and Gaussian part of the block's rows of one (n_samples, R, K)
    array.  The pending blocks' jumps are concatenated and summed in one
    convolution._jump_sums pass whenever they reach levy._BLOCK_BYTES, at
    the levy._jump_bytes per jump that levy._sample_bytes charges, and once
    more at the end of the range; _node_values sums a row's jumps the same
    way, so the rows do not change.  With
    Gaussian increments the samples are split into min(workers, n_samples)
    ranges on at most os.cpu_count() threads, which overlap on mixed
    triplets too, since a jump pass is a few large numpy calls; a triplet
    without them runs on one thread, since its per-sample draws hold the
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

    rules = (tag_rule,)
    if triplet.jump is None:
        rules += tuple(r for r in (TagRule.LEFT, TagRule.MIDPOINT) if r is not tag_rule)
    weights = _node_weights(family, rules, i, triplet.pathwise_drift())
    out = np.empty((n_samples, len(rules), family.K))

    t_i, jump_bytes = family.grid.nodes()[i], _jump_bytes(family.K)

    def add_jumps(rows, pending):
        """Add to rows the jump sums of consecutive blocks (b0, b1, jumps) in one _jump_sums pass."""
        jumps = [np.concatenate(parts) for parts in zip(*(j for _, _, j in pending))]
        rows[pending[0][0] : pending[-1][1]] += _jump_sums(family, t_i, jumps)[:, None, :]

    def run_range(lo: int, hi: int):
        rows = out[lo:hi]
        pending, n_jumps = [], 0  # blocks whose jumps are not yet summed, their jump count
        for b0, b1, gauss, jumps in _draw_blocks(triplet, family.grid, seed, range(lo, hi)):
            steps = None if gauss is None else gauss[:, :, :i]
            rows[b0:b1] = _node_values(family, i, weights, steps, None)
            if triplet.jump is not None:
                pending.append((b0, b1, jumps))
                n_jumps += jumps[1].size
                if n_jumps * jump_bytes >= levy._BLOCK_BYTES:
                    add_jumps(rows, pending)
                    pending, n_jumps = [], 0
        if pending:
            add_jumps(rows, pending)

    # jump-only samples hold the interpreter lock for all their work, so
    # threads would only wait on each other
    parts = min(workers, n_samples) if np.any(triplet.gauss_var > 0.0) else 1
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
        _LAST_PASS = (key, {rule: out[:, r] for r, rule in enumerate(rules[1:], 1)})
    return out[:, 0].copy()


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


@frozen
class EcfRow:
    y: np.ndarray
    predicted: complex
    empirical: complex
    stderr: float  # conservative 1/sqrt(N); the z convention
    stderr_component_bound: float  # sqrt((1 - |ecf|^2) v 1e-12) / sqrt(N)
    z: float


@frozen
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
    if n_samples < ECF_MIN_SAMPLES:
        raise ValueError(f"n_samples must be >= {ECF_MIN_SAMPLES} for the ECF comparison, "
                         f"got {n_samples}")
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


@frozen
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
