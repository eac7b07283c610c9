"""Scalar memory kernels a(t) and the scalar resolvent equation.

The central object is the solution s(t, gamma) of

    s(t) + gamma * int_0^t a(t - tau) s(tau) dtau = 1,      t >= 0,

solved on a uniform grid by an order-3 Gregory product rule (composite
trapezoid with end corrections).  For a completely positive kernel the
solution is nonnegative and nonincreasing with s(0) = 1; those consequences
are certified a posteriori on every solved table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .grid import TimeGrid

EXPONENTIAL = "exponential"
CONSTANT = "constant"
TABULATED = "tabulated"


@dataclass(frozen=True)
class KernelSpec:
    """A scalar kernel a(t): closed-form family or a tabulated curve.

    Exponential and Constant evaluate for every t >= 0; Tabulated evaluates
    by linear interpolation and only inside its grid span.  All supported
    kernels are nonsingular: a(0) is finite.

    ``claims_completely_positive`` is declared metadata, not enforced; the
    consequences (s in [0, 1], nonincreasing) are certified on solved tables.
    """

    family: str
    rate: float = 1.0
    level: float = 1.0
    times: Optional[np.ndarray] = field(default=None, repr=False)
    values: Optional[np.ndarray] = field(default=None, repr=False)
    claims_completely_positive: bool = True

    def __post_init__(self):
        if self.family not in (EXPONENTIAL, CONSTANT, TABULATED):
            raise ValueError(f"unknown kernel family {self.family!r}")
        if self.family == EXPONENTIAL and not self.rate > 0.0:
            raise ValueError(f"exponential decay rate must be > 0, got {self.rate}")
        if self.family == CONSTANT and not self.level > 0.0:
            raise ValueError(f"constant kernel level must be > 0, got {self.level}")
        if self.family == TABULATED:
            t = np.asarray(self.times, dtype=float)
            v = np.asarray(self.values, dtype=float)
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
    def tabulated(cls, times, values, claims_completely_positive: bool = True) -> "KernelSpec":
        return cls(
            family=TABULATED,
            times=np.asarray(times, dtype=float),
            values=np.asarray(values, dtype=float),
            claims_completely_positive=claims_completely_positive,
        )


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


@dataclass(frozen=True)
class ScalarResolventTable:
    """Solved values s_i = s(t_i, gamma) on a uniform grid, s_0 = 1."""

    gamma: float
    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n_steps + 1,):
            raise ValueError("table length must be n_steps + 1")
        object.__setattr__(self, "values", v)
        v.flags.writeable = False

    def interp(self, t) -> np.ndarray | float:
        """Linear interpolation of s between grid nodes (exact at nodes)."""
        return np.interp(t, self.grid.nodes(), self.values)


def solve_resolvent_modes(kernel: KernelSpec, gammas, grid: TimeGrid) -> np.ndarray:
    """Solve s(t) + gamma * int_0^t a(t-tau) s(tau) dtau = 1 for every gamma at once.

    Returns the (n_steps + 1, K) array of s(t_i, gamma_k).  The memory
    integral is discretized by the order-3 Gregory product rule (trapezoid
    weights with end corrections -1/12 at both ends and +1/12 next to them
    once there are three nodes); each step solves the resulting implicit
    equation exactly (in exact arithmetic) for all modes, so every column
    satisfies the discrete equation to roundoff.  The implicit coefficient
    1 + gamma*dt*w_i*a(0) is >= 1 for gamma, a(0) >= 0, so every step is
    solvable.  Raises ValueError when a solved table is not finite.
    """
    gammas = np.asarray(gammas, dtype=float)
    for gamma in gammas:
        if not (gamma >= 0.0 and np.isfinite(gamma)):
            raise ValueError(f"gamma must be >= 0 and finite, got {gamma}")
    n, dt = grid.n_steps, grid.dt
    a_vals = np.asarray(eval_kernel(kernel, grid.nodes()), dtype=float)
    if not np.all(np.isfinite(a_vals)):
        raise ValueError("kernel evaluated to NaN/inf on the grid")

    a_rev = a_vals[::-1].copy()  # a_rev[n - m] = a(t_m)
    a_twelfth = a_vals / 12.0
    gdt = gammas * dt
    s = np.empty((n + 1, gammas.size))
    s[0] = 1.0
    row = np.empty(n)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below as not finite
        # step 1 is the plain trapezoid, weights (1/2, 1/2)
        s[1] = (1.0 - gdt * (0.5 * a_vals[1])) / (1.0 + gdt * 0.5 * a_vals[0])
        denom = 1.0 + gdt * (5.0 / 12.0) * a_vals[0]
        for i in range(2, n + 1):
            # w_j * a(t_i - t_j) over the known nodes j < i
            r = row[:i]
            r[:] = a_rev[n - i : n]
            r[0] *= 5.0 / 12.0
            r[1] += a_twelfth[i - 1]
            r[i - 1] += a_twelfth[1]
            s[i] = (1.0 - gdt * (r @ s[:i])) / denom
    if not np.all(np.isfinite(s)):
        bad = gammas[~np.all(np.isfinite(s), axis=0)]
        raise ValueError(f"resolvent table is not finite for gamma {bad.tolist()} on {grid}")
    return s


def solve_scalar_resolvent(kernel: KernelSpec, gamma: float, grid: TimeGrid) -> ScalarResolventTable:
    """Solve s(t) + gamma * int_0^t a(t-tau) s(tau) dtau = 1 on the grid.

    The single-mode case of solve_resolvent_modes.
    """
    values = solve_resolvent_modes(kernel, [gamma], grid)[:, 0]
    return ScalarResolventTable(gamma=gamma, grid=grid, values=values)


def closed_form_exponential_resolvent(mu: float, t) -> np.ndarray | float:
    """Oracle for a(t) = exp(-t): s(t, mu) = (1+mu)^-1 * (1 + mu*exp(-(1+mu)t))."""
    if not (mu >= 0.0 and np.isfinite(mu)):
        raise ValueError(f"mu must be >= 0 and finite, got {mu}")
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 0.0) or not np.all(np.isfinite(arr)):
        raise ValueError("t must be >= 0 and finite")
    out = (1.0 + mu * np.exp(-(1.0 + mu) * arr)) / (1.0 + mu)
    return out if arr.ndim else float(out)


@dataclass(frozen=True)
class PropertyReport:
    """Certificate of the completely-positive consequences on a solved table.

    max_range_violation: how far any s_i leaves [0, 1] (0 if none).
    max_increase: largest positive jump s_{i+1} - s_i (0 if nonincreasing).
    total_variation: sum |s_{i+1} - s_i|; for a monotone table this equals
    s_0 - s_n and is the bounded-variation certificate used by the
    integration-by-parts route.
    """

    gamma: float
    max_range_violation: float
    max_increase: float
    total_variation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_range_violation <= self.tolerance and self.max_increase <= self.tolerance


def certify_resolvent_properties(table: ScalarResolventTable, tolerance: float = 1e-10) -> PropertyReport:
    """Check 0 <= s <= 1 and monotone nonincrease against a caller tolerance."""
    s = table.values
    diffs = np.diff(s)
    range_viol = max(float(np.max(s - 1.0)), float(np.max(-s)), 0.0)
    max_incr = max(float(np.max(diffs)), 0.0) if diffs.size else 0.0
    tv = float(np.sum(np.abs(diffs)))
    return PropertyReport(
        gamma=table.gamma,
        max_range_violation=range_viol,
        max_increase=max_incr,
        total_variation=tv,
        tolerance=float(tolerance),
    )


def default_property_tolerance(table: ScalarResolventTable, kernel: KernelSpec) -> float:
    """Roundoff-scale tolerance: 10 * eps * a conditioning guard for the solve."""
    a_max = float(np.max(np.abs(eval_kernel(kernel, table.grid.nodes()))))
    cond = 1.0 + table.gamma * table.grid.t_end * a_max
    return 10.0 * np.finfo(float).eps * cond
