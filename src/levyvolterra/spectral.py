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

from .grid import TimeGrid, _frozen_floats
from .kernels import KernelSpec, eval_kernel, solve_resolvent_modes

DIRICHLET_LAPLACIAN = "dirichlet_laplacian"


@dataclass(frozen=True)
class SpectralModel:
    """K retained modes with eigenvalues mu of -A (strictly increasing > 0)."""

    K: int
    mu: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mu", _frozen_floats(self.mu))


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
        return SpectralModel(K=K, mu=mu)
    mu = np.asarray(list(rule), dtype=float)
    if mu.shape != (K,):
        raise ValueError(f"custom eigenvalue list must have length K={K}")
    if np.any(mu <= 0.0) or np.any(np.diff(mu) <= 0.0):
        raise ValueError("custom eigenvalues must be strictly increasing and > 0")
    return SpectralModel(K=K, mu=mu)


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
        s = _frozen_floats(self.s_matrix)
        if s.shape != (self.grid.n_steps + 1, self.model.K):
            raise ValueError(f"s_matrix must be (n_steps + 1, K) = "
                             f"{(self.grid.n_steps + 1, self.model.K)}, got {s.shape}")
        object.__setattr__(self, "s_matrix", s)

    @property
    def K(self) -> int:
        return self.model.K

    @property
    def gammas(self) -> np.ndarray:
        return self.model.mu


def build_resolvent_family(model: SpectralModel, kernel: KernelSpec, grid: TimeGrid) -> ResolventFamily:
    """Solve the scalar resolvent for all modes in one Toeplitz solve on the shared grid."""
    s = solve_resolvent_modes(kernel, model.mu, grid)
    return ResolventFamily(model=model, kernel=kernel, grid=grid, s_matrix=s)


def identity_resolvent_family(K: int, kernel: KernelSpec, grid: TimeGrid) -> ResolventFamily:
    """Degenerate A = 0 surrogate: every mode solved at gamma = 0, so R == I.

    Test-harness device: the model's eigenvalues are all zero, which
    build_spectral_model would refuse, so the model is built directly.
    """
    model = SpectralModel(K=K, mu=np.zeros(K))
    return build_resolvent_family(model, kernel, grid)


@dataclass(frozen=True)
class ResidualProfile:
    """Per-node, per-mode residuals of one identity; node 0 is exactly 0."""

    grid: TimeGrid
    residuals: np.ndarray  # (n_steps + 1, K)

    def __post_init__(self):
        object.__setattr__(self, "residuals", _frozen_floats(self.residuals))

    @property
    def max_per_mode(self) -> np.ndarray:
        return np.max(np.abs(self.residuals), axis=0)

    @property
    def max_abs(self) -> float:
        return float(np.max(np.abs(self.residuals)))


def _causal_convolution(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """c[i] = sum_{j <= i} a[i - j] x[j] for every row i and column of x.

    One zero-padded real FFT product: a (m,) kernel against (m, K) columns,
    padded to a power of two of at least 2m - 1 points so the circular
    product holds the whole linear convolution.  Shared by the two residual
    oracles only; the solver and the convolution routes they check never
    call it.
    """
    m = a.shape[0]
    size = 1 << (2 * m - 2).bit_length()
    fa = np.fft.rfft(a, size)
    fx = np.fft.rfft(x, size, axis=0)
    return np.fft.irfft(fa[:, None] * fx, size, axis=0)[:m]


def resolvent_equation_residual(family: ResolventFamily) -> ResidualProfile:
    """Re-evaluate r_{k,i} = s_i - 1 + gamma_k * Q_i with independent quadrature code.

    Q_i re-applies the solver's order-3 Gregory rule to the solved values:
    the trapezoid rule plus -1/12 on the two end columns j = 0, i and +1/12
    on their neighbours j = 1, i - 1 (both on column 1 at i = 2); row 1 is
    the plain (1/2, 1/2) rule and row 0 is exactly 0.  The full sums
    sum_j a(t_i - t_j) s_j for all rows and modes are one FFT product, and
    the end weights are rank-1 terms in a(t_i) s_0, a(0) s_i, a(t_{i-1}) s_1
    and a(t_1) s_{i-1}.  Neither the product nor the weight placement goes
    through the solver's Toeplitz symbol and weight sums, so any defect in
    the solver's weights or indexing shows up at the gamma * dt scale instead
    of cancelling by construction.  For a correct solve the residual is pure
    roundoff.
    """
    grid = family.grid
    n, dt = grid.n_steps, grid.dt
    a_vals = np.asarray(eval_kernel(family.kernel, grid.nodes()), dtype=float)
    s = family.s_matrix

    q = _causal_convolution(a_vals, s)
    ends = np.outer(a_vals, s[0]) + a_vals[0] * s  # row i: a(t_i) s_0 + a(0) s_i
    q -= 0.5 * ends
    # Gregory rows i >= 2 (none at n = 1): a(t_{i-1}) s_1 + a(t_1) s_{i-1}
    # in, 1/12 of the ends out
    inner = np.outer(a_vals[1:n], s[1]) + a_vals[1] * s[1:n]
    q[2:] += (inner - ends[2:]) / 12.0
    res = s - 1.0 + family.gammas * (dt * q)
    res[0] = 0.0
    return ResidualProfile(grid=grid, residuals=res)
