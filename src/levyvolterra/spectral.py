"""Truncated diagonal operator A and its resolvent family R(t).

The state space is the span of the first K eigenmodes of a self-adjoint
operator with eigenvalues -mu_1 > -mu_2 > ...; A acts as (Ax)_k = -mu_k x_k
and is bounded on the truncation.  R(t) acts diagonally through the scalar
resolvent: (R(t) x)_k = s(t, mu_k) x_k, so R(0) is the identity and the
family is one (n_steps + 1, K) array of solved values on one shared grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import TimeGrid
from .kernels import KernelSpec, eval_kernel, solve_resolvent_modes

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
    """Diagonal resolvent operators on a shared grid: one s-column per mode.

    s_matrix[i, k] = s(t_i, gamma_k) with gamma_k = model.mu[k]; R(0) is the
    identity because every column starts at 1.  All convolution and residual
    computations read these gammas, so a gamma = 0 surrogate family acts as
    the identity.
    """

    model: SpectralModel
    kernel: KernelSpec
    grid: TimeGrid
    s_matrix: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.s_matrix, dtype=float)
        if s.shape != (self.grid.n_steps + 1, self.model.K):
            raise ValueError(f"s_matrix must be (n_steps + 1, K) = "
                             f"{(self.grid.n_steps + 1, self.model.K)}, got {s.shape}")
        object.__setattr__(self, "s_matrix", s)
        s.flags.writeable = False

    @property
    def K(self) -> int:
        return self.model.K

    @property
    def gammas(self) -> np.ndarray:
        return self.model.mu


def build_resolvent_family(model: SpectralModel, kernel: KernelSpec, grid: TimeGrid) -> ResolventFamily:
    """Solve the scalar resolvent for all modes in one recurrence on the shared grid."""
    s = solve_resolvent_modes(kernel, model.mu, grid)
    return ResolventFamily(model=model, kernel=kernel, grid=grid, s_matrix=s)


def identity_resolvent_family(K: int, kernel: KernelSpec, grid: TimeGrid) -> ResolventFamily:
    """Degenerate A = 0 surrogate: every mode solved at gamma = 0, so R == I.

    Test-harness device; the model is tagged with a dedicated rule and zero
    eigenvalues and deliberately bypasses build_spectral_model validation.
    """
    model = SpectralModel(K=K, mu=np.zeros(K), rule=IDENTITY_SURROGATE)
    return build_resolvent_family(model, kernel, grid)


@dataclass(frozen=True)
class ResolventResidualReport:
    """Defect of each solved column in the discretized resolvent equation."""

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

    cols = np.ascontiguousarray(family.s_matrix.T)  # one contiguous row per mode
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
        for k, (gamma, col) in enumerate(zip(family.gammas, cols)):
            q = dt * float(np.sum(w * arow * col[: i + 1]))
            res[i, k] = col[i] - 1.0 + gamma * q
    return ResolventResidualReport(residuals=res, max_per_mode=np.max(np.abs(res), axis=0))
