"""Residual checks of the solution identities and grid-refinement studies.

The convolution is the (zero initial condition) mild solution; on the
eigenbasis it must satisfy, mode by mode,

    Z_R(t)_k + gamma_k * int_0^t a(t - tau) Z_R(tau)_k dtau = Z(t)_k,

the duality identity tested against every eigenvector (which span the
truncated space, so the per-mode checks are complete) and, equivalently,
the bounded-operator integral equation taken jointly over all modes.  The
residuals quantify discretization defect only, so they shrink under grid
refinement; convergence studies realize one random outcome consistently
across resolutions (block-summed Gaussian increments, shared jumps) to
isolate that defect from Monte Carlo noise.

The two residual oracles take whole blocks: _weak_residuals and
_bounded_A_residuals check B convolutions against B path values at once,
and the public weak_solution_residual and bounded_A_identity_residual are
their one-row calls.  Both stay plain trapezoid rules, which are O(dt)
across a cell that holds a jump, however the grid is refined (Davis &
Rabinowitz, Methods of Numerical Integration, 1984, on product rules across
a jump).  The weak-residual study runs each level of a levy._draw_blocks
block through convolution._block_routes, levy._block_values and both
oracles, so no SamplePath is built per outcome; its route gap compares the
two oracles as they are, and its per-seed norm subtracts the trapezoid's
jump-cell defect (_jump_cell_defects) from the weak residual first, so
jump outcomes converge at the rate jump-free ones do.  Every row's norm is
the one-path norm bit for bit.

The textbook derivation of the duality identity passes through transformed
test functions and a differentiated-kernel form; those intermediate
identities add no testable content on the diagonal truncation and are
deliberately not implemented - the end identity above is what gets checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .convolution import (ConvolutionPath, TagRule, _block_routes, _jump_weight_blocks, _mark_sums,
                          _node_values, _node_weights)
from .kernels import _unit_exponential, closed_form_exponential_resolvent, eval_kernel
from .levy import LevyTriplet, SamplePath, _block_values, _draw_blocks, _level_sums
from .spectral import ResidualProfile, ResolventFamily, _causal_convolution


def _check_inputs(zr: ConvolutionPath, z: SamplePath, family: ResolventFamily):
    """Refuse a convolution, path and family that differ in grid or dimension."""
    if zr.grid != z.grid or zr.grid != family.grid:
        raise ValueError("convolution, path, and family must share one grid")
    if zr.dim != family.K or z.dim != family.K:
        raise ValueError("dimension mismatch across convolution, path, family")


# rows of the Toeplitz product formed at once in weak_solution_residual
_TOEPLITZ_BLOCK_ROWS = 64


def weak_solution_residual(
    zr: ConvolutionPath, z: SamplePath, family: ResolventFamily
) -> ResidualProfile:
    """Defect of the duality identity against each eigenvector.

    r_k(t_i) = Z_R(t_i)_k + gamma_k * Trap[a(t_i - .) Z_R(.)_k; 0, t_i]
             - Z_k(t_i),

    with the trapezoid evaluated on convolution node values (jumps are
    already folded into those values).  The gamma per mode is read from the
    family's gammas, so an identity surrogate family scores a zero integral
    term.  The integrals for all nodes and modes are one lower-triangular
    Toeplitz product, formed in blocks of rows, with the trapezoid end
    weights applied as rank-1 corrections.  It is the one-row
    _weak_residuals call.
    """
    _check_inputs(zr, z, family)
    res = _weak_residuals(family, zr.values[None], z.values[None])[0]
    return ResidualProfile(grid=family.grid, residuals=res)


def _weak_residuals(family: ResolventFamily, x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """weak_solution_residual of B convolutions x against path values z, both (B, n + 1, K).

    Each window block of the Toeplitz matrix is copied to contiguous memory
    once and multiplied with all rows in one stacked matmul, the same BLAS
    product per row, so no row's residual depends on the other rows.
    """
    grid = family.grid
    n, dt = grid.n_steps, grid.dt
    a_vals = np.asarray(eval_kernel(family.kernel, grid.nodes()), dtype=float)
    # window p of the reversed, zero-padded kernel is row n - p of the
    # lower-triangular Toeplitz matrix L[i, j] = a(t_i - t_j) (0 for j > i)
    windows = sliding_window_view(np.concatenate([a_vals[::-1], np.zeros(n)]), n + 1)
    quad = np.empty(x.shape)
    for lo in range(0, n + 1, _TOEPLITZ_BLOCK_ROWS):
        hi = min(lo + _TOEPLITZ_BLOCK_ROWS, n + 1)
        window = np.ascontiguousarray(windows[n - hi + 1 : n - lo + 1, :hi])
        quad[:, lo:hi] = (window @ x[:, :hi])[:, ::-1]
    # trapezoid end weights: half of a(t_i) Z_R(0) and of a(0) Z_R(t_i)
    quad -= 0.5 * (a_vals[:, None] * x[:, :1]) + 0.5 * a_vals[0] * x
    res = x + family.gammas * (dt * quad) - z
    res[:, 0] = 0.0
    return res


def bounded_A_identity_residual(
    zr: ConvolutionPath, z: SamplePath, family: ResolventFamily
) -> ResidualProfile:
    """Vector-form residual of the bounded-operator integral equation.

    The truncation makes A bounded, so Z_R(t) - int_0^t a(t-tau) A Z_R(tau)
    dtau - Z(t) must vanish; with A diagonal this carries the same content
    as the per-mode duality residual.  The trapezoid integrals at every node
    are one zero-padded FFT product of the kernel against all modes of Z_R
    at once, with the end weights applied as the rank-1 terms
    -1/2 a(t_i) Z_R(0) and -1/2 a(0) Z_R(t_i).  weak_solution_residual forms
    the same sums by a blocked matrix product over kernel windows, so the
    two routes share no product code and agree only if both are right.  It
    is the one-row _bounded_A_residuals call.
    """
    _check_inputs(zr, z, family)
    res = _bounded_A_residuals(family, zr.values[None], z.values[None])[0]
    return ResidualProfile(grid=family.grid, residuals=res)


def _bounded_A_residuals(family: ResolventFamily, x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """bounded_A_identity_residual of B convolutions x against path values z, both (B, n + 1, K).

    The B * K columns go through one _causal_convolution, which computes
    every column as it would alone.
    """
    grid = family.grid
    B, m, K = x.shape
    a_vals = np.asarray(eval_kernel(family.kernel, grid.nodes()), dtype=float)
    cols = x.transpose(1, 0, 2).reshape(m, B * K)
    quad = _causal_convolution(a_vals, cols).reshape(m, B, K)
    x = x.transpose(1, 0, 2)
    quad -= 0.5 * (a_vals[:, None, None] * x[0] + a_vals[0] * x)
    res = x + family.gammas * (grid.dt * quad) - z.transpose(1, 0, 2)
    res[0] = 0.0
    return res.transpose(1, 0, 2)


def _jump_cell_defects(family: ResolventFamily, n_rows: int, jumps) -> np.ndarray:
    """(n_rows, n + 1, K) excess of weak_solution_residual's trapezoid over the jump cells.

    A jump J_m at tau_m = t_j + theta_m * dt, theta_m in (0, 1], makes Z_R
    step inside the cell [t_j, t_{j+1}], where the trapezoid of
    a(t_i - .) Z_R(.) exceeds the exact integral by
    a(t_i - tau_m) J_m dt (theta_m - 1/2), an O(dt) term per jump.  Entry
    [r, i, k] is gamma_k dt sum_{tau_m <= t_i} a(t_i - tau_m) J_m,k
    (theta_m - 1/2) over row r's jumps, with a read by eval_kernel at the
    exact lags, never from the resolvent, so the oracle stays independent
    of the code it checks.  The terms are built a slice of nodes at a time
    by convolution._jump_weight_blocks as (jumps, K, nodes) kernel values,
    within its budget, and summed by _mark_sums; jumpless rows get exact zeros.
    """
    grid = family.grid
    out = np.zeros((n_rows, grid.n_steps + 1, family.K))
    if jumps is None:
        return out
    counts, times, marks = jumps
    nodes = grid.nodes()
    theta = (times - nodes[np.searchsorted(nodes, times) - 1]) / grid.dt
    excess = marks * (theta - 0.5)[:, None]

    def kernel_at_lags(fam, t, tau):
        lag = t - tau
        a = eval_kernel(fam.kernel, np.maximum(lag, 0.0))
        a[lag < 0] = 0.0
        return np.broadcast_to(a[:, None], a.shape[:1] + (fam.K,) + a.shape[1:])

    for rows, A in _jump_weight_blocks(family, times, kernel_at_lags):
        out[:, rows] = _mark_sums(A, excess, counts).transpose(0, 2, 1)
    return family.gammas * (grid.dt * out)


def fit_order(dts: Sequence[float], norms: Sequence[float]) -> float:
    """Least-squares slope of log norm against log dt."""
    dts = np.asarray(dts, dtype=float)
    norms = np.asarray(norms, dtype=float)
    if np.any(norms <= 0.0):
        raise ValueError("norms must be positive to fit an order")
    return float(np.polyfit(np.log(dts), np.log(norms), 1)[0])


@dataclass(frozen=True)
class StudyConfig:
    """One refinement study: target quantity, levels, and the fixed outcomes.

    families are the solved levels, coarse to fine: one model and kernel on
    coarsenings of the finest grid (e.g. by 8, 4 and 1); at least three
    levels are required.  seeds index the coupled outcomes for stochastic
    targets and are ignored by the deterministic resolvent target.
    """

    target: str  # "resolvent_error" | "tag_discrepancy" | "weak_residual"
    families: tuple  # of ResolventFamily, coarse to fine
    triplet: Optional[LevyTriplet] = None
    seeds: tuple = (0,)
    seed: int = 0
    tag_rule: TagRule = TagRule.LEFT

    def __post_init__(self):
        object.__setattr__(self, "families", tuple(self.families))
        if len(self.families) < 3:
            raise ValueError("a convergence study needs at least 3 grid levels")
        if self.target not in ("resolvent_error", "tag_discrepancy", "weak_residual"):
            raise ValueError(f"unknown study target {self.target!r}")
        if self.target != "resolvent_error" and self.triplet is None:
            raise ValueError(f"target {self.target!r} requires a triplet")
        grids = [fam.grid for fam in self.families]
        steps = [g.n_steps for g in grids]
        if steps != sorted(set(steps)) or any(
                grids[-1].coarsened(steps[-1] // g.n_steps) != g for g in grids):
            raise ValueError("study families must be on coarsenings of the finest grid, "
                             "coarse to fine")


@dataclass(frozen=True)
class ConvergenceStudy:
    """Norms per level; the fitted order is computed when first read.

    route_gap is the largest |weak - bounded-A| residual over every
    convolution a weak_residual study forms, None for the other targets.
    Reading fitted_order raises ValueError when a norm is exactly 0.
    """

    target: str
    dts: np.ndarray
    norms: np.ndarray  # per level (seed-averaged for stochastic targets)
    per_seed: Optional[np.ndarray]  # (n_seeds, n_levels) or None
    route_gap: Optional[float] = None

    @cached_property
    def fitted_order(self) -> float:
        return fit_order(self.dts, self.norms)

    @property
    def monotone_decreasing(self) -> bool:
        return bool(np.all(np.diff(self.norms) < 0.0))


def convergence_study(config: StudyConfig) -> ConvergenceStudy:
    """Norm at every level with the same outcome across levels.

    Builds nothing: the dts, the fine grid and the coupling factors of the
    sample paths are read from the grids of config.families.  The outcomes
    are read from levy._draw_blocks on the fine grid, one call per run of
    consecutive indices in config.seeds, and each level sums the block's
    mode-major Gaussian increments by its factor in time order
    (levy._level_sums) while the jumps are shared exactly, as
    coupled_sample_paths does for one outcome.  tag_discrepancy makes one
    _node_values call per block and level for LEFT and RIGHT together;
    weak_residual runs each level's block rows through the block Stieltjes
    route and both block oracles, and takes each row's sup of the weak
    residual less _jump_cell_defects on that level's grid.  Every norm
    equals the one-outcome computation on coupled_sample_paths bit for bit.
    """
    families = config.families
    fine = families[-1].grid
    dts = np.array([fam.grid.dt for fam in families])

    if config.target == "resolvent_error":
        if not _unit_exponential(families[0].kernel):
            raise ValueError("resolvent_error target needs the kernel a(t) = exp(-t), "
                             "the closed-form oracle's")
        norms = []
        for fam in families:
            exact = closed_form_exponential_resolvent(fam.gammas, fam.grid.nodes()[:, None])
            norms.append(np.max(np.abs(fam.s_matrix - exact)))
        return ConvergenceStudy(config.target, dts, np.array(norms), None)

    triplet, K = config.triplet, config.triplet.dim
    drift = triplet.pathwise_drift()
    factors = [fine.n_steps // fam.grid.n_steps for fam in families]
    tag = config.target == "tag_discrepancy"
    if tag:  # (LEFT, RIGHT) weights of each level's last node
        weights = [_node_weights(fam, (TagRule.LEFT, TagRule.RIGHT), fam.grid.n_steps, drift)
                   for fam in families]
    per_seed = np.zeros((len(config.seeds), len(families)))
    route_gap = None if tag else 0.0
    for first, lo, hi in _index_runs(config.seeds):
        for b0, b1, gauss, jumps in _draw_blocks(triplet, fine, config.seed, lo, hi):
            rows = range(first + b0 - lo, first + b1 - lo)
            for li, (fam, f) in enumerate(zip(families, factors)):
                n_c = fam.grid.n_steps
                inc = None if gauss is None else _level_sums(gauss, f)
                if tag:
                    vals = _node_values(fam, n_c, weights[li], inc, jumps)
                    diff = np.broadcast_to(vals[..., 0, :] - vals[..., 1, :], (len(rows), K))
                    for r, row in enumerate(rows):  # each row's norm as the 1-D norm rounds
                        per_seed[row, li] = float(np.linalg.norm(diff[r]))
                    continue
                # weak_residual: the block's rows through the block route and oracles
                zr = _block_routes(fam, (config.tag_rule,), drift, len(rows), inc, jumps)[0]
                z = _block_values(fam.grid, drift, len(rows), inc, jumps)
                weak = _weak_residuals(fam, zr, z)
                gap = np.max(np.abs(weak - _bounded_A_residuals(fam, zr, z)))
                route_gap = max(route_gap, float(gap))
                weak -= _jump_cell_defects(fam, len(rows), jumps)
                per_seed[rows, li] = np.max(np.abs(weak), axis=(1, 2))
    return ConvergenceStudy(config.target, dts, per_seed.mean(axis=0), per_seed, route_gap)


def _index_runs(indices):
    """(position, lo, hi) for each run of consecutive sample indices lo..hi-1 in indices."""
    runs = []
    for pos, idx in enumerate(indices):
        if runs and idx == runs[-1][2]:
            runs[-1][2] += 1
        else:
            runs.append([pos, idx, idx + 1])
    return runs
