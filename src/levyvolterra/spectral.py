"""Truncated diagonal operator A and its resolvent family R(t).

The state space is the span of the first K eigenmodes of a self-adjoint
operator with eigenvalues -mu_1 > -mu_2 > ...; A acts as (Ax)_k = -mu_k x_k
and is bounded on the truncation.  R(t) acts diagonally through the scalar
resolvent: (R(t) x)_k = s(t, mu_k) x_k, so R(0) is the identity and each
mode carries its own solved table on one shared grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .grid import TimeGrid
from .kernels import (
    KernelSpec,
    ScalarResolventTable,
    certify_resolvent_properties,
    eval_kernel,
    solve_resolvent_modes,
)

DIRICHLET_LAPLACIAN = "dirichlet_laplacian"
CUSTOM = "custom"
IDENTITY_SURROGATE = "identity_surrogate"


@dataclass(frozen=True)
class SpectralModel:
    """K retained modes with eigenvalues mu of -A (strictly increasing > 0)."""

    K: int
    mu: np.ndarray
    rule: str

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        object.__setattr__(self, "mu", mu)
        mu.flags.writeable = False

    @property
    def operator_norm(self) -> float:
        """Norm of the truncated A, attained on the last mode."""
        return float(np.max(np.abs(self.mu)))


def build_spectral_model(K: int, rule="dirichlet_laplacian") -> SpectralModel:
    """Build the eigenvalue list.

    rule is either the string "dirichlet_laplacian" (mu_k = pi^2 k^2) or a
    sequence of custom eigenvalues, which must be strictly increasing and
    positive.
    """
    if not (isinstance(K, (int, np.integer)) and K >= 1):
        raise ValueError(f"K must be a positive integer, got {K}")
    if isinstance(rule, str):
        if rule != DIRICHLET_LAPLACIAN:
            raise ValueError(f"unknown spectral rule {rule!r}")
        mu = np.pi**2 * np.arange(1, K + 1, dtype=float) ** 2
        return SpectralModel(K=K, mu=mu, rule=DIRICHLET_LAPLACIAN)
    mu = np.asarray(list(rule), dtype=float)
    if mu.shape != (K,):
        raise ValueError(f"custom eigenvalue list must have length K={K}")
    if np.any(mu <= 0.0) or np.any(np.diff(mu) <= 0.0):
        raise ValueError("custom eigenvalues must be strictly increasing and > 0")
    return SpectralModel(K=K, mu=mu, rule=CUSTOM)


@dataclass(frozen=True)
class ResolventFamily:
    """Diagonal resolvent operators on a shared grid: one s-table per mode.

    s_matrix[i, k] = s(t_i, gamma_k); R(0) = identity because every table
    starts at 1.  All convolution and residual computations read the
    per-table gamma, so a gamma = 0 surrogate family acts as the identity.
    """

    model: SpectralModel
    kernel: KernelSpec
    grid: TimeGrid
    tables: tuple

    def __post_init__(self):
        if len(self.tables) != self.model.K:
            raise ValueError("one table per mode required")
        for tab in self.tables:
            if tab.grid != self.grid:
                raise ValueError("all tables must share the family grid")
        s = np.column_stack([tab.values for tab in self.tables])
        object.__setattr__(self, "_s_matrix", s)
        s.flags.writeable = False

    @property
    def K(self) -> int:
        return self.model.K

    @property
    def s_matrix(self) -> np.ndarray:
        """(n_steps + 1, K) array of s(t_i, gamma_k)."""
        return self._s_matrix

    @property
    def gammas(self) -> np.ndarray:
        return np.array([tab.gamma for tab in self.tables])


def _solved_tables(kernel: KernelSpec, gammas: np.ndarray, grid: TimeGrid) -> tuple:
    s = solve_resolvent_modes(kernel, gammas, grid)
    return tuple(ScalarResolventTable(gamma=float(g), grid=grid, values=s[:, k].copy())
                 for k, g in enumerate(gammas))


def build_resolvent_family(model: SpectralModel, kernel: KernelSpec, grid: TimeGrid) -> ResolventFamily:
    """Solve the scalar resolvent for all modes in one recurrence on the shared grid."""
    tables = _solved_tables(kernel, model.mu, grid)
    return ResolventFamily(model=model, kernel=kernel, grid=grid, tables=tables)


def identity_resolvent_family(K: int, kernel: KernelSpec, grid: TimeGrid) -> ResolventFamily:
    """Degenerate A = 0 surrogate: every mode solved at gamma = 0, so R == I.

    Test-harness device; the model is tagged with a dedicated rule and zero
    eigenvalues and deliberately bypasses build_spectral_model validation.
    """
    model = SpectralModel(K=K, mu=np.zeros(K), rule=IDENTITY_SURROGATE)
    tables = _solved_tables(kernel, model.mu, grid)
    return ResolventFamily(model=model, kernel=kernel, grid=grid, tables=tables)


def apply_resolvent(family: ResolventFamily, time_index: int, x: Sequence[float]) -> np.ndarray:
    """R(t_i) x = (s(t_i, gamma_k) x_k)_k."""
    if not 0 <= time_index <= family.grid.n_steps:
        raise ValueError(f"time_index {time_index} outside 0..{family.grid.n_steps}")
    vec = np.asarray(x, dtype=float)
    if vec.shape != (family.K,):
        raise ValueError(f"x must have length K={family.K}")
    return family.s_matrix[time_index] * vec


@dataclass(frozen=True)
class ResolventResidualReport:
    """Defect of each solved table in the discretized resolvent equation."""

    residuals: np.ndarray  # (n_steps + 1, K)
    max_per_mode: np.ndarray  # (K,)

    @property
    def max_abs(self) -> float:
        return float(np.max(self.max_per_mode)) if self.max_per_mode.size else 0.0


def resolvent_equation_residual(family: ResolventFamily) -> ResolventResidualReport:
    """Re-evaluate r_{k,i} = s_i - 1 + gamma_k * Q_i with independent quadrature code.

    Q_i re-applies the solver's order-3 Gregory rule to the solved values,
    but through independently written weight construction and accumulation,
    so any defect in the solver's weights or indexing shows up at the
    gamma * dt scale instead of cancelling by construction.  For a correct
    solve the residual is pure roundoff.
    """
    grid = family.grid
    n, dt = grid.n_steps, grid.dt
    a_vals = np.asarray(eval_kernel(family.kernel, grid.nodes()), dtype=float)

    res = np.zeros((n + 1, family.K))
    for i in range(1, n + 1):
        # direct tabulation of the composite weights, written independently
        # of the solver's incremental construction
        if i == 1:
            w = np.array([0.5, 0.5])
        else:
            w = np.ones(i + 1)
            w[0] = 5.0 / 12.0
            w[i] = 5.0 / 12.0
            w[1] += 1.0 / 12.0
            w[i - 1] += 1.0 / 12.0
        arow = a_vals[: i + 1][::-1]  # a(t_i - t_j), j = 0..i
        for k, tab in enumerate(family.tables):
            q = dt * float(np.sum(w * arow * tab.values[: i + 1]))
            res[i, k] = tab.values[i] - 1.0 + tab.gamma * q
    return ResolventResidualReport(residuals=res, max_per_mode=np.max(np.abs(res), axis=0))


@dataclass(frozen=True)
class VariationCertificate:
    """Per-mode total variation and monotonicity: the bounded-variation gate."""

    reports: tuple  # PropertyReport per mode
    tolerance: float

    @property
    def total_variation(self) -> np.ndarray:
        return np.array([r.total_variation for r in self.reports])

    @property
    def monotone_violations(self) -> np.ndarray:
        return np.array([r.max_increase for r in self.reports])

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.reports)


def total_variation_certificate(family: ResolventFamily, tolerance: float = 1e-10) -> VariationCertificate:
    """Certify finite variation mode by mode.

    Monotone tables have total variation s_0 - s_n; any mode increasing
    beyond the tolerance is flagged, which for a completely positive kernel
    indicates a solver defect.
    """
    reports = tuple(certify_resolvent_properties(tab, tolerance) for tab in family.tables)
    return VariationCertificate(reports=reports, tolerance=float(tolerance))


def eigenfunction_values(model: SpectralModel, xs) -> np.ndarray:
    """Dirichlet eigenfunctions e_k(x) = sqrt(2) sin(k pi x) on (0, 1).

    Optional physical-space output transform; only defined for the
    Dirichlet-Laplacian rule, whose eigenvalues pi^2 k^2 match this basis.
    """
    if model.rule != DIRICHLET_LAPLACIAN:
        raise ValueError("eigenfunctions are only defined for the dirichlet_laplacian rule")
    x = np.atleast_1d(np.asarray(xs, dtype=float))
    k = np.arange(1, model.K + 1)
    return np.sqrt(2.0) * np.sin(np.pi * np.outer(x, k))


def to_physical(model: SpectralModel, xs, coeffs) -> np.ndarray:
    """Reconstruct sum_k coeffs_k e_k(x) at the given spatial points."""
    c = np.asarray(coeffs, dtype=float)
    if c.shape[-1] != model.K:
        raise ValueError("coefficient vector length must be K")
    return eigenfunction_values(model, xs) @ c
