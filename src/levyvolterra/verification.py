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

The textbook derivation of the duality identity passes through transformed
test functions and a differentiated-kernel form; those intermediate
identities add no testable content on the diagonal truncation and are
deliberately not implemented - the end identity above is what gets checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .convolution import ConvolutionPath, TagRule, convolve_at, stieltjes_convolution
from .grid import TimeGrid
from .kernels import KernelSpec, closed_form_exponential_resolvent, eval_kernel
from .levy import LevyTriplet, SamplePath, coupled_sample_paths
from .spectral import ResolventFamily, SpectralModel, build_resolvent_family


@dataclass(frozen=True)
class ResidualProfile:
    """Per-mode, per-node residuals with sup norms; node 0 is exactly 0."""

    grid: TimeGrid
    residuals: np.ndarray  # (n_steps + 1, K)

    def __post_init__(self):
        r = np.asarray(self.residuals, dtype=float)
        object.__setattr__(self, "residuals", r)
        r.flags.writeable = False

    @property
    def sup_per_mode(self) -> np.ndarray:
        return np.max(np.abs(self.residuals), axis=0)

    @property
    def sup(self) -> float:
        return float(np.max(np.abs(self.residuals)))


# rows of the Toeplitz product formed at once in weak_solution_residual
_TOEPLITZ_BLOCK_ROWS = 64


def _trap_row(i: int) -> np.ndarray:
    w = np.ones(i + 1)
    w[0] = w[i] = 0.5
    return w


def weak_solution_residual(
    zr: ConvolutionPath, z: SamplePath, family: ResolventFamily
) -> ResidualProfile:
    """Defect of the duality identity against each eigenvector.

    r_k(t_i) = Z_R(t_i)_k + gamma_k * Trap[a(t_i - .) Z_R(.)_k; 0, t_i]
             - Z_k(t_i),

    with the trapezoid evaluated on convolution node values (jumps are
    already folded into those values).  The gamma per mode is read from the
    family tables, so an identity surrogate family scores a zero integral
    term.  The integrals for all nodes and modes are one lower-triangular
    Toeplitz product, formed in blocks of rows, with the trapezoid end
    weights applied as rank-1 corrections.
    """
    if zr.grid != z.grid or zr.grid != family.grid:
        raise ValueError("convolution, path, and family must share one grid")
    if zr.dim != family.K or z.dim != family.K:
        raise ValueError("dimension mismatch across convolution, path, family")
    grid = family.grid
    n, dt = grid.n_steps, grid.dt
    a_vals = np.asarray(eval_kernel(family.kernel, grid.nodes()), dtype=float)
    x = zr.values
    # window p of the reversed, zero-padded kernel is row n - p of the
    # lower-triangular Toeplitz matrix L[i, j] = a(t_i - t_j) (0 for j > i)
    windows = sliding_window_view(np.concatenate([a_vals[::-1], np.zeros(n)]), n + 1)
    quad = np.empty((n + 1, family.K))
    for lo in range(0, n + 1, _TOEPLITZ_BLOCK_ROWS):
        hi = min(lo + _TOEPLITZ_BLOCK_ROWS, n + 1)
        quad[lo:hi] = (windows[n - hi + 1 : n - lo + 1, :hi] @ x[:hi])[::-1]
    # trapezoid end weights: half of a(t_i) Z_R(0) and of a(0) Z_R(t_i)
    quad -= 0.5 * np.outer(a_vals, x[0]) + 0.5 * a_vals[0] * x
    res = x + family.gammas * (dt * quad) - z.values
    res[0] = 0.0
    return ResidualProfile(grid=grid, residuals=res)


def bounded_A_identity_residual(
    zr: ConvolutionPath, z: SamplePath, family: ResolventFamily
) -> ResidualProfile:
    """Vector-form residual of the bounded-operator integral equation.

    The truncation makes A bounded, so Z_R(t) - int_0^t a(t-tau) A Z_R(tau)
    dtau - Z(t) must vanish; with A diagonal this carries the same content
    as the per-mode duality residual, and is computed through a separate
    (jointly vectorized) code path so the two agree only if both are right.
    """
    if zr.grid != z.grid or zr.grid != family.grid:
        raise ValueError("convolution, path, and family must share one grid")
    grid = family.grid
    n, dt = grid.n_steps, grid.dt
    a_vals = np.asarray(eval_kernel(family.kernel, grid.nodes()), dtype=float)
    gammas = family.gammas
    res = np.zeros((n + 1, family.K))
    for i in range(1, n + 1):
        row = _trap_row(i) * a_vals[: i + 1][::-1]
        quad = dt * (row @ zr.values[: i + 1, :])
        res[i] = zr.values[i] + gammas * quad - z.values[i]
    return ResidualProfile(grid=grid, residuals=res)


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

    factors are coarsening divisors of fine_grid (descending, e.g. (8, 4, 1));
    at least three levels are required.  seeds index the coupled outcomes
    for stochastic targets and are ignored by the deterministic resolvent
    target.
    """

    target: str  # "resolvent_error" | "tag_discrepancy" | "weak_residual"
    kernel: KernelSpec
    model: SpectralModel
    fine_grid: TimeGrid
    factors: tuple
    triplet: Optional[LevyTriplet] = None
    seeds: tuple = (0,)
    seed: int = 0
    tag_rule: TagRule = TagRule.LEFT

    def __post_init__(self):
        if len(self.factors) < 3:
            raise ValueError("a convergence study needs at least 3 grid levels")
        if self.target not in ("resolvent_error", "tag_discrepancy", "weak_residual"):
            raise ValueError(f"unknown study target {self.target!r}")
        if self.target != "resolvent_error" and self.triplet is None:
            raise ValueError(f"target {self.target!r} requires a triplet")


@dataclass(frozen=True)
class ConvergenceStudy:
    target: str
    dts: np.ndarray
    norms: np.ndarray  # per level (seed-averaged for stochastic targets)
    per_seed: Optional[np.ndarray]  # (n_seeds, n_levels) or None
    fitted_order: float

    @property
    def monotone_decreasing(self) -> bool:
        return bool(np.all(np.diff(self.norms) < 0.0))


def convergence_study(config: StudyConfig) -> ConvergenceStudy:
    """Norm at every level with the same outcome across levels, plus fitted order."""
    factors = sorted((int(f) for f in config.factors), reverse=True)  # coarse -> fine
    grids = [config.fine_grid.coarsened(f) for f in factors]
    dts = np.array([g.dt for g in grids])

    if config.target == "resolvent_error":
        if config.kernel.family != "exponential":
            raise ValueError("resolvent_error target needs the exponential kernel oracle")
        norms = []
        for g in grids:
            fam = build_resolvent_family(config.model, config.kernel, g)
            errs = [
                np.max(np.abs(tab.values - closed_form_exponential_resolvent(tab.gamma, g.nodes())))
                for tab in fam.tables
            ]
            norms.append(max(errs))
        norms = np.array(norms)
        return ConvergenceStudy(config.target, dts, norms, None,
                                fit_order(dts, norms))

    families = [build_resolvent_family(config.model, config.kernel, g) for g in grids]
    per_seed = np.zeros((len(config.seeds), len(grids)))
    for si, sample_index in enumerate(config.seeds):
        paths = coupled_sample_paths(config.triplet, config.fine_grid, factors,
                                     sample_index, config.seed)
        for li, (fam, path) in enumerate(zip(families, paths)):
            if config.target == "tag_discrepancy":
                i_end = fam.grid.n_steps
                left = convolve_at(fam, path, i_end, TagRule.LEFT)
                right = convolve_at(fam, path, i_end, TagRule.RIGHT)
                per_seed[si, li] = float(np.linalg.norm(left - right))
            else:  # weak_residual
                zr = stieltjes_convolution(fam, path, config.tag_rule)
                per_seed[si, li] = weak_solution_residual(zr, path, fam).sup
    norms = per_seed.mean(axis=0)
    return ConvergenceStudy(config.target, dts, norms, per_seed, fit_order(dts, norms))
