"""Uniform time grids shared by every solver and sampler in the package.

`frozen` owns value-class construction: every value class in the package
(the grid, the triplet and its laws, families, paths, reports) is a frozen
record made by it, not by `dataclasses`.
"""

from __future__ import annotations

from dataclasses import MISSING, Field, FrozenInstanceError, field

import numpy as np


def _frozen_floats(value, ndmin: int = 0) -> np.ndarray:
    """A read-only float copy of value with at least ndmin dimensions.

    Every frozen value object stores its arrays through this, so it never
    keeps (or makes read-only) the caller's own array or a view of it.
    """
    arr = np.array(value, dtype=float, ndmin=ndmin)
    arr.flags.writeable = False
    return arr


def _refuse_assign(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_delete(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def frozen(cls):
    """Make cls a frozen record of its annotated fields, in class-body order.

    A field may be a `dataclasses.field(default=..., init=..., repr=...)`
    marker. The record takes its init fields by position or keyword, then
    calls `__post_init__`, which sets derived fields by `object.__setattr__`;
    it compares, hashes and prints like a frozen dataclass, and assigning or
    deleting a field raises `FrozenInstanceError`. The methods are closures
    compiled once with this module, not source generated per class.
    """
    names = tuple(cls.__annotations__)
    params, shown = {}, []  # init field -> default (MISSING if required), repr fields
    for name in names:
        spec = cls.__dict__.get(name, MISSING)
        if not isinstance(spec, Field):
            spec = field(default=spec)
        elif spec.default is MISSING:
            delattr(cls, name)
        else:
            setattr(cls, name, spec.default)
        if spec.init:
            params[name] = spec.default
        if spec.repr:
            shown.append(name)
    post_init = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kwargs):
        given = {**dict(zip(params, args)), **kwargs}
        values = {**params, **given}  # in field order, unknown keywords last
        if (len(given) < len(args) + len(kwargs)  # too many by position, or a name given twice
                or len(values) > len(params) or any(value is MISSING for value in values.values())):
            raise TypeError(f"{cls.__name__}() takes the arguments ({', '.join(params)}), got "
                            f"{len(args)} by position and the keywords ({', '.join(kwargs)})")
        self.__dict__.update(values)
        if post_init is not None:
            post_init(self)

    def key(self):
        return tuple([getattr(self, name) for name in names])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return key(self) == key(other)

    def __hash__(self):
        return hash(key(self))

    def __repr__(self):
        shown_fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in shown)
        return f"{type(self).__qualname__}({shown_fields})"

    cls.__init__, cls.__eq__, cls.__hash__, cls.__repr__ = __init__, __eq__, __hash__, __repr__
    cls.__setattr__, cls.__delattr__ = _refuse_assign, _refuse_delete
    return cls


@frozen
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
