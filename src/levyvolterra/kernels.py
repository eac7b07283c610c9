"""Scalar memory kernels a(t) and the scalar resolvent equation.

The central object is the solution s(t, gamma) of

    s(t) + gamma * int_0^t a(t - tau) s(tau) dtau = 1,      t >= 0,

solved on a uniform grid by an order-3 Gregory product rule (composite
trapezoid with end corrections).  For a completely positive kernel the
solution is nonnegative and nonincreasing with s(0) = 1; those consequences
are certified a posteriori on the solved values, all modes at once.
"""

from __future__ import annotations

from dataclasses import field
from typing import Optional

import numpy as np

from .grid import TimeGrid, _frozen_floats, frozen

EXPONENTIAL = "exponential"
CONSTANT = "constant"
TABULATED = "tabulated"


@frozen
class KernelSpec:
    """A scalar kernel a(t): closed-form family or a tabulated curve.

    Exponential and Constant evaluate for every t >= 0; Tabulated evaluates
    by linear interpolation and only inside its grid span.  All supported
    kernels are nonsingular: a(0) is finite.
    """

    family: str
    rate: float = 1.0
    level: float = 1.0
    times: Optional[np.ndarray] = field(default=None, repr=False)
    values: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self):
        if self.family not in (EXPONENTIAL, CONSTANT, TABULATED):
            raise ValueError(f"unknown kernel family {self.family!r}")
        if self.family == EXPONENTIAL and not self.rate > 0.0:
            raise ValueError(f"exponential decay rate must be > 0, got {self.rate}")
        if self.family == CONSTANT and not self.level > 0.0:
            raise ValueError(f"constant kernel level must be > 0, got {self.level}")
        if self.family == TABULATED:
            t, v = _frozen_floats(self.times), _frozen_floats(self.values)
            if t.ndim != 1 or t.size < 2 or v.shape != t.shape:
                raise ValueError("tabulated kernel needs matching 1-d times and values, len >= 2")
            if np.any(np.diff(t) <= 0) or t[0] > 0.0:
                raise ValueError("tabulated times must be strictly increasing and start at 0")
            if not np.all(np.isfinite(v)):
                raise ValueError("tabulated kernel values must be finite")
            object.__setattr__(self, "times", t)
            object.__setattr__(self, "values", v)

    @classmethod
    def exponential(cls, rate: float = 1.0) -> "KernelSpec":
        """a(t) = exp(-rate * t)."""
        return cls(family=EXPONENTIAL, rate=rate)

    @classmethod
    def constant(cls, level: float = 1.0) -> "KernelSpec":
        """a(t) = level."""
        return cls(family=CONSTANT, level=level)

    @classmethod
    def tabulated(cls, times, values) -> "KernelSpec":
        return cls(family=TABULATED, times=times, values=values)


def eval_kernel(kernel: KernelSpec, t) -> np.ndarray | float:
    """Evaluate a(t) for scalar or array t >= 0.

    Raises ValueError for negative arguments and for tabulated queries
    outside the tabulated span.
    """
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError("kernel argument must be >= 0")
    if kernel.family == EXPONENTIAL:
        out = np.exp(-kernel.rate * arr)
    elif kernel.family == CONSTANT:
        out = np.full_like(arr, kernel.level)
    else:
        if np.any(arr > kernel.times[-1] * (1 + 1e-12)):
            raise ValueError(
                f"tabulated kernel queried at t up to {arr.max()}, span ends at {kernel.times[-1]}"
            )
        out = np.interp(arr, kernel.times, kernel.values)
    return out if arr.ndim else float(out)


def _lower_toeplitz_solve(g: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with sum_{j <= i} g[i - j] x[j] = b[i] for every row i, column by column.

    The inverse has the symbol h = 1/g, a power series in m terms grown from
    1/g[0] by Newton doubling h <- h - h*(g*h - 1).  x = h*b then takes one
    refinement step x += h*(b - g*x).  Every product is a zero-padded real
    FFT one: O(m log m) per column.
    """
    def conv(p, q, size):
        fp, fq = np.fft.rfft(p, size, axis=0), np.fft.rfft(q, size, axis=0)
        return np.fft.irfft(fp * fq, size, axis=0)

    m = g.shape[0]
    h = 1.0 / g[:1]
    while (k := h.shape[0]) < m:
        # g*h - 1 vanishes below term k, and terms k..2k-1 do not alias at 2k points
        h = np.concatenate([h, -conv(h, conv(g[: 2 * k], h, 2 * k)[k:], 2 * k)[:k]])
    size = 1 << (2 * m - 2).bit_length()
    x = conv(h[:m], b, size)[:m]
    return x + conv(h[:m], b - conv(g, x, size)[:m], size)[:m]


def solve_resolvent_modes(kernel: KernelSpec, gammas, grid: TimeGrid) -> np.ndarray:
    """Solve s(t) + gamma * int_0^t a(t-tau) s(tau) dtau = 1 for every gamma at once.

    Returns the (n_steps + 1, K) array of s(t_i, gamma_k).  The memory
    integral is discretized by the order-3 Gregory product rule (trapezoid
    weights with end corrections -1/12 at both ends and +1/12 next to them
    once there are three nodes; the plain trapezoid at node 1).  In
    u = 1 - s, u_0 = 0 and rows i >= 1 are one lower-triangular Toeplitz
    system in u_1..u_n, once the u_1 column's extra weight is moved to the
    right side; it is solved for all modes at once, O(n log n) per mode.
    The right side is a multiple of gamma, so gamma = 0 gives s = 1 exactly.
    Raises ValueError when a solved table is not finite.
    """
    gammas = np.asarray(gammas, dtype=float)
    for gamma in gammas:
        if not (gamma >= 0.0 and np.isfinite(gamma)):
            raise ValueError(f"gamma must be >= 0 and finite, got {gamma}")
    n, dt = grid.n_steps, grid.dt
    a_vals = np.asarray(eval_kernel(kernel, grid.nodes()), dtype=float)
    if not np.all(np.isfinite(a_vals)):
        raise ValueError("kernel evaluated to NaN/inf on the grid")

    gdt = gammas * dt
    s = np.ones((n + 1, gammas.size))
    with np.errstate(over="ignore", invalid="ignore"):  # reported below as not finite
        # row i >= 1: every Gregory weight against a(t_i - t_j); row 1 is the
        # plain trapezoid (1/2, 1/2) and alone gives u_1
        weight_sum = (np.cumsum(a_vals)[1:] - (7.0 / 12.0) * (a_vals[1:] + a_vals[0])
                      + (a_vals[:n] + a_vals[1]) / 12.0)
        u1 = gdt * weight_sum[0] / (1.0 + gdt * 0.5 * a_vals[0])
        # symbol 1 + gdt*(5/12)*a(0), gdt*(13/12)*a(t_1), gdt*a(t_m) for m >= 2;
        # the u_1 column's extra weight a(t_{i-1})/12 moves to the right side
        g = np.outer(a_vals[:n], gdt)
        g[0] = 1.0 + (5.0 / 12.0) * g[0]
        g[1:2] *= 13.0 / 12.0
        rhs = gdt * (weight_sum[:, None] - np.outer(a_vals[:n], u1) / 12.0)
        s[1:] -= _lower_toeplitz_solve(g, rhs)
    if not np.all(np.isfinite(s)):
        bad = gammas[~np.all(np.isfinite(s), axis=0)]
        raise ValueError(f"resolvent table is not finite for gamma {bad.tolist()} on {grid}")
    return s


def solve_scalar_resolvent(kernel: KernelSpec, gamma: float, grid: TimeGrid) -> np.ndarray:
    """Solve s(t) + gamma * int_0^t a(t-tau) s(tau) dtau = 1 on the grid.

    The single-mode case of solve_resolvent_modes: the (n_steps + 1,) values.
    """
    return solve_resolvent_modes(kernel, [gamma], grid)[:, 0]


def closed_form_exponential_resolvent(mu, t) -> np.ndarray | float:
    """Oracle for a(t) = exp(-t): s(t, mu) = (1+mu)^-1 * (1 + mu*exp(-(1+mu)t)).

    mu and t broadcast against each other, so nodes[:, None] against a
    (K,) mu gives every mode's column at once.
    """
    mu = np.asarray(mu, dtype=float)
    if not (np.all(mu >= 0.0) and np.all(np.isfinite(mu))):
        raise ValueError(f"mu must be >= 0 and finite, got {mu}")
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 0.0) or not np.all(np.isfinite(arr)):
        raise ValueError("t must be >= 0 and finite")
    out = (1.0 + mu * np.exp(-(1.0 + mu) * arr)) / (1.0 + mu)
    return out if np.ndim(out) else float(out)


def _unit_exponential(kernel: KernelSpec) -> bool:
    """True when kernel is a(t) = exp(-t), the kernel the closed form is the oracle for."""
    return kernel.family == EXPONENTIAL and abs(kernel.rate - 1.0) < 1e-15


@frozen
class PropertyReport:
    """Certificate of the completely-positive consequences on solved values.

    Each field holds one entry per mode (a scalar for a single column):
    max_range_violation: how far any s_i leaves [0, 1] (0 if none).
    max_increase: largest positive jump s_{i+1} - s_i (0 if nonincreasing).
    total_variation: sum |s_{i+1} - s_i|, reported by the resolvent stage
    and read by no gate (the parts route gates on the range violation and
    max_increase).  For a monotone column it is s_0 - s_n only in exact
    arithmetic: in floats the sum adds every step's roundoff, so it moves
    with n (about 2e-10 between two solves 1e-13 apart at n = 20000).
    """

    max_range_violation: np.ndarray
    max_increase: np.ndarray
    total_variation: np.ndarray
    tolerance: float

    @property
    def mode_passed(self) -> np.ndarray:
        return (self.max_range_violation <= self.tolerance) & (self.max_increase <= self.tolerance)

    @property
    def passed(self) -> bool:
        return bool(np.all(self.mode_passed))


def certify_resolvent_properties(values, tolerance: float = 1e-10) -> PropertyReport:
    """Check 0 <= s <= 1 and monotone nonincrease of every column of values.

    values is one (n_steps + 1,) column or an (n_steps + 1, K) array with one
    column per mode.
    """
    # mode-major: each mode's variation is then summed along contiguous
    # memory, so it equals the sum over that column alone bit for bit
    s = np.ascontiguousarray(np.asarray(values, dtype=float).T)
    diffs = np.diff(s, axis=-1)
    return PropertyReport(
        max_range_violation=np.max(np.maximum(s - 1.0, -s), axis=-1, initial=0.0),
        max_increase=np.max(diffs, axis=-1, initial=0.0),
        total_variation=np.sum(np.abs(diffs), axis=-1),
        tolerance=float(tolerance),
    )
