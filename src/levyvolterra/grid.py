"""Uniform time grids shared by every solver and sampler in the package."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _frozen_floats(value, ndmin: int = 0) -> np.ndarray:
    """A read-only float copy of value with at least ndmin dimensions.

    Every frozen value object stores its arrays through this, so it never
    keeps (or makes read-only) the caller's own array or a view of it.
    """
    arr = np.array(value, dtype=float, ndmin=ndmin)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [0, t_end] into n_steps steps.

    Nodes are t_i = i * dt with dt = t_end / n_steps, so t_0 = 0 and
    t_{n_steps} = t_end up to one rounding of the division.
    """

    t_end: float
    n_steps: int

    def __post_init__(self):
        if not (self.t_end > 0.0 and np.isfinite(self.t_end)):
            raise ValueError(f"t_end must be positive and finite, got {self.t_end}")
        if not (isinstance(self.n_steps, (int, np.integer)) and self.n_steps >= 1):
            raise ValueError(f"n_steps must be a positive integer, got {self.n_steps}")

    @property
    def dt(self) -> float:
        return self.t_end / self.n_steps

    def nodes(self) -> np.ndarray:
        """All n_steps + 1 grid nodes, node i computed as i * dt."""
        return self.dt * np.arange(self.n_steps + 1)

    def node_index(self, t: float, rtol: float = 1e-9) -> int:
        """Index i with t_i == t; raises if t is not (within rtol) a node."""
        i = int(round(t / self.dt))
        if i < 0 or i > self.n_steps or abs(t - i * self.dt) > rtol * max(self.dt, 1.0):
            raise ValueError(f"t={t} is not a node of {self}")
        return i

    def coarsened(self, factor: int) -> "TimeGrid":
        """Grid with every factor-th node kept; n_steps must be divisible."""
        if factor < 1 or self.n_steps % factor != 0:
            raise ValueError(f"coarsening factor {factor} does not divide n_steps={self.n_steps}")
        return TimeGrid(self.t_end, self.n_steps // factor)
