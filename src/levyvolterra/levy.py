"""Finite-activity Levy triplets, path sampling, and the characteristic exponent.

A triplet [drift, gauss_var, (rate, jump law)] describes a K-dimensional
process Z(t) = drift*t + W(t) + J(t) with diagonal Gaussian covariance and a
compound-Poisson jump part.  The jump truncation convention is fixed at the
indicator 1_{|x| < 1}, so the drift stored here is the triplet drift of that
convention and the characteristic exponent carries the matching compensator.

Sampling is reproducible by construction: each sample index owns a Philox
counter-based stream keyed by (seed, sample_index), so results are bitwise
identical across runs and any parallel execution plan.  Within one stream the
draw order is fixed: Gaussian step increments first (skipped entirely when
all Gaussian variances are zero), then jump count, jump times, jump marks.
Gaussian variates use numpy's Generator.standard_normal on that stream, which
pins the transform within this implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import erf, exp, pi, sqrt
from typing import Callable, Optional

import numpy as np

from .grid import TimeGrid

# Gauss-Hermite nodes per dimension for Gaussian-jump ball expectations
_HERMITE_NODES = {2: 64, 3: 24, 4: 16}


@dataclass(frozen=True)
class PointMass:
    """Every jump equals the fixed mark vector."""

    mark: np.ndarray

    def __post_init__(self):
        m = np.atleast_1d(np.asarray(self.mark, dtype=float))
        if m.ndim != 1 or not np.all(np.isfinite(m)):
            raise ValueError("point mass mark must be a finite vector")
        object.__setattr__(self, "mark", m)
        m.flags.writeable = False

    @property
    def dim(self) -> int:
        return self.mark.shape[0]


@dataclass(frozen=True)
class DiscreteMixture:
    """Jumps drawn from finitely many atoms with given probabilities."""

    weights: np.ndarray
    atoms: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        a = np.atleast_2d(np.asarray(self.atoms, dtype=float))
        if w.ndim != 1 or a.shape[0] != w.shape[0]:
            raise ValueError("need one atom row per weight")
        if np.any(w < 0) or abs(float(np.sum(w)) - 1.0) > 1e-12:
            raise ValueError("weights must be nonnegative and sum to 1")
        if not np.all(np.isfinite(a)):
            raise ValueError("atoms must be finite")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "atoms", a)
        w.flags.writeable = False
        a.flags.writeable = False

    @property
    def dim(self) -> int:
        return self.atoms.shape[1]


@dataclass(frozen=True)
class GaussianJumps:
    """Jumps drawn from N(mean, diag(var))."""

    mean: np.ndarray
    var: np.ndarray

    def __post_init__(self):
        m = np.atleast_1d(np.asarray(self.mean, dtype=float))
        v = np.atleast_1d(np.asarray(self.var, dtype=float))
        if m.shape != v.shape or m.ndim != 1 or np.any(v < 0):
            raise ValueError("mean and var must be matching vectors with var >= 0")
        object.__setattr__(self, "mean", m)
        object.__setattr__(self, "var", v)
        m.flags.writeable = False
        v.flags.writeable = False

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


# a PEP 604 union: typing.Union[...] would sit in typing's cache and keep
# every imported copy of these classes (and this module) alive
JumpLaw = PointMass | DiscreteMixture | GaussianJumps


def jump_cf(law: JumpLaw, y: np.ndarray) -> complex | np.ndarray:
    """E exp(i <y, J>), closed form for every supported law.

    y may be a single K-vector or an (m, K) batch; the batch form returns an
    (m,) complex array.
    """
    Y = np.atleast_2d(np.asarray(y, dtype=float))
    if isinstance(law, PointMass):
        out = np.exp(1j * (Y @ law.mark))
    elif isinstance(law, DiscreteMixture):
        out = np.exp(1j * (Y @ law.atoms.T)) @ law.weights
    else:
        out = np.exp(1j * (Y @ law.mean) - 0.5 * (Y**2 @ law.var))
    return out if np.asarray(y).ndim == 2 else complex(out[0])


def jump_expectation(law: JumpLaw, fn: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """E[fn(J)] where fn maps an (m, K) batch of jump values to (m, ...).

    Exact enumeration for discrete laws; tensorized Gauss-Hermite quadrature
    for Gaussian jumps (exact only for smooth integrands, so indicator-type
    integrands carry quadrature error that shrinks with the node table).
    """
    if isinstance(law, PointMass):
        return np.asarray(fn(law.mark[None, :]))[0]
    if isinstance(law, DiscreteMixture):
        vals = np.asarray(fn(law.atoms))
        return np.tensordot(law.weights, vals, axes=(0, 0))
    K = law.dim
    n_nodes = _HERMITE_NODES.get(K, 10) if K > 1 else 96
    x, w = np.polynomial.hermite_e.hermegauss(n_nodes)
    w = w / np.sqrt(2.0 * pi)
    grids = np.meshgrid(*([x] * K), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    wts = np.ones(pts.shape[0])
    for axis in range(K):
        wts = wts * w[np.searchsorted(x, pts[:, axis])]
    samples = law.mean[None, :] + np.sqrt(law.var)[None, :] * pts
    vals = np.asarray(fn(samples))
    return np.tensordot(wts, vals, axes=(0, 0))


def jump_mean_inside_unit_ball(law: JumpLaw) -> np.ndarray:
    """E[J * 1_{|J| < 1}], the compensator vector of the truncation convention."""
    if isinstance(law, PointMass):
        return law.mark * (1.0 if np.linalg.norm(law.mark) < 1.0 else 0.0)
    if isinstance(law, DiscreteMixture):
        inside = (np.linalg.norm(law.atoms, axis=1) < 1.0).astype(float)
        return (law.weights * inside) @ law.atoms
    if law.dim == 1:
        m, v = float(law.mean[0]), float(law.var[0])
        if v == 0.0:
            return law.mean * (1.0 if abs(m) < 1.0 else 0.0)
        sd = sqrt(v)
        a, b = (-1.0 - m) / sd, (1.0 - m) / sd
        cdf = lambda z: 0.5 * (1.0 + erf(z / sqrt(2.0)))
        pdf = lambda z: exp(-0.5 * z * z) / sqrt(2.0 * pi)
        return np.array([m * (cdf(b) - cdf(a)) + sd * (pdf(a) - pdf(b))])
    return jump_expectation(law, lambda x: x * (np.linalg.norm(x, axis=1) < 1.0)[:, None])


def sample_jumps(law: JumpLaw, rng: np.random.Generator, count: int) -> np.ndarray:
    """Draw (count, K) i.i.d. jump marks from the law on the given stream."""
    if isinstance(law, PointMass):
        return np.tile(law.mark, (count, 1))
    if isinstance(law, DiscreteMixture):
        idx = rng.choice(law.weights.shape[0], size=count, p=law.weights)
        return law.atoms[idx]
    return law.mean[None, :] + np.sqrt(law.var)[None, :] * rng.standard_normal((count, law.dim))


@dataclass(frozen=True)
class JumpPart:
    """Compound-Poisson jump component: arrival rate and mark law."""

    rate: float
    law: JumpLaw

    def __post_init__(self):
        if not (self.rate > 0.0 and np.isfinite(self.rate)):
            raise ValueError(f"jump rate must be positive and finite, got {self.rate}")


@dataclass(frozen=True)
class LevyTriplet:
    """Drift vector, diagonal Gaussian variance, optional finite-activity jumps."""

    drift: np.ndarray
    gauss_var: np.ndarray
    jump: Optional[JumpPart] = None

    def __post_init__(self):
        d = np.atleast_1d(np.asarray(self.drift, dtype=float))
        v = np.atleast_1d(np.asarray(self.gauss_var, dtype=float))
        if d.ndim != 1 or v.shape != d.shape:
            raise ValueError("drift and gauss_var must be vectors of equal length")
        if np.any(v < 0):
            raise ValueError("gauss_var must be componentwise >= 0")
        if self.jump is not None and self.jump.law.dim != d.shape[0]:
            raise ValueError("jump law dimension must match the triplet dimension")
        object.__setattr__(self, "drift", d)
        object.__setattr__(self, "gauss_var", v)
        d.flags.writeable = False
        v.flags.writeable = False

    @property
    def dim(self) -> int:
        return self.drift.shape[0]

    def pathwise_drift(self) -> np.ndarray:
        """Linear coefficient of the sampled decomposition Z = bt + W + jumps.

        The stored drift is the triplet drift of the 1_{|x|<1} convention;
        raw compound-Poisson jump sums contribute rate * E[J 1_{|J|<1}] of
        triplet drift on their own, so the path accrues b = drift - that
        compensator and the sampled Z(1) realizes exactly the triplet law.
        """
        if self.jump is None:
            return self.drift
        return self.drift - self.jump.rate * jump_mean_inside_unit_ball(self.jump.law)

    @classmethod
    def zero(cls, K: int) -> "LevyTriplet":
        return cls(drift=np.zeros(K), gauss_var=np.zeros(K))


def phi_batch(triplet: LevyTriplet, Y: np.ndarray) -> np.ndarray:
    """Characteristic exponent at an (m, K) batch of arguments, returns (m,)."""
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    out = 1j * (Y @ triplet.drift) - 0.5 * (Y**2 @ triplet.gauss_var)
    out = np.asarray(out, dtype=complex)
    if triplet.jump is not None:
        lam = triplet.jump.rate
        comp = jump_mean_inside_unit_ball(triplet.jump.law)
        out = out + lam * (jump_cf(triplet.jump.law, Y) - 1.0) - 1j * lam * (Y @ comp)
    return out


def characteristic_exponent(triplet: LevyTriplet, y) -> complex:
    """phi(y) = log E exp(i <y, Z(1)>); Re phi <= 0.

    phi(y) = i<drift, y> - (1/2) sum_k gauss_var_k y_k^2
             + rate * (E exp(i<y, J>) - 1) - i * rate * <y, E[J 1_{|J|<1}]>,
    with the compensator implementing the 1_{|x|<1} truncation so the stored
    drift is the triplet drift of that convention.
    """
    return complex(phi_batch(triplet, np.asarray(y, dtype=float)[None, :])[0])


@dataclass(frozen=True)
class SamplePath:
    """Cadlag piecewise record of Z on a grid with exact jump bookkeeping.

    values[i] = drift * t_i + (cumulative Gaussian increments) + (sum of
    marks with jump time <= t_i); jump times are kept exactly, not snapped
    to nodes, so downstream convolutions can weight each jump at its true
    elapsed time.  Between nodes the Gaussian part is piecewise constant by
    convention while drift accrues continuously (see path_value).
    """

    grid: TimeGrid
    drift: np.ndarray
    gauss_increments: np.ndarray  # (n_steps, K) per-step Gaussian increments
    jump_times: np.ndarray  # (m,) sorted, in (0, t_end]
    jump_marks: np.ndarray  # (m, K)
    values: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        d = np.atleast_1d(np.array(self.drift, dtype=float))
        object.__setattr__(self, "drift", d)
        n, K = self.grid.n_steps, d.shape[0]
        g = np.array(self.gauss_increments, dtype=float)
        if g.shape != (n, K):
            raise ValueError(f"gauss_increments must be ({n}, {K})")
        jt = np.atleast_1d(np.array(self.jump_times, dtype=float))
        jm = np.atleast_2d(np.array(self.jump_marks, dtype=float)) if jt.size else np.zeros((0, K))
        if jt.size and (jm.shape != (jt.size, K) or np.any(np.diff(jt) < 0)):
            raise ValueError("jump_marks must be (m, K) with sorted jump_times")
        if jt.size and (jt[0] <= 0.0 or jt[-1] > self.grid.t_end * (1 + 1e-12)):
            raise ValueError("jump times must lie in (0, t_end]")
        object.__setattr__(self, "gauss_increments", g)
        object.__setattr__(self, "jump_times", jt)
        object.__setattr__(self, "jump_marks", jm)

        gauss_cum = np.vstack([np.zeros((1, K)), np.cumsum(g, axis=0)])
        # grouping pinned as (drift part + Gaussian part) + jump part so that
        # the identity-resolvent convolution reproduces these floats exactly
        vals = self.drift[None, :] * self.grid.nodes()[:, None] + gauss_cum
        vals = vals + self.jump_cumulative()
        for arr in (vals, d, g, jt, jm):
            arr.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def dim(self) -> int:
        return self.drift.shape[0]

    def jump_cumulative(self) -> np.ndarray:
        """(n_steps + 1, K): summed marks with jump time <= t_i, left-fold order."""
        K = self.drift.shape[0]
        if self.jump_times.size == 0:
            return np.zeros((self.grid.n_steps + 1, K))
        cum = np.vstack([np.zeros((1, K)), np.cumsum(self.jump_marks, axis=0)])
        idx = np.searchsorted(self.jump_times, self.grid.nodes(), side="right")
        return cum[idx]

    def continuous_values(self) -> np.ndarray:
        """Node values of the drift + Gaussian component only."""
        K = self.drift.shape[0]
        gauss_cum = np.vstack([np.zeros((1, K)), np.cumsum(self.gauss_increments, axis=0)])
        return self.drift[None, :] * self.grid.nodes()[:, None] + gauss_cum


def stream_key(seed: int, sample_index: int) -> np.ndarray:
    """Philox key of the dedicated per-sample stream."""
    return np.array([np.uint64(seed), np.uint64(sample_index)], dtype=np.uint64)


def sample_rng(seed: int, sample_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=stream_key(seed, sample_index)))


def _draw_path_data(triplet: LevyTriplet, grid: TimeGrid, rng: np.random.Generator):
    """Fixed-order draws on one stream: Gaussian block, then jump data."""
    n, K = grid.n_steps, triplet.dim
    if np.any(triplet.gauss_var > 0.0):
        scale = np.sqrt(triplet.gauss_var * grid.dt)
        gauss = rng.standard_normal((n, K)) * scale[None, :]
    else:
        gauss = np.zeros((n, K))
    if triplet.jump is None:
        times = np.zeros(0)
        marks = np.zeros((0, K))
    else:
        count = int(rng.poisson(triplet.jump.rate * grid.t_end))
        u = rng.random(count)
        times = grid.t_end * (1.0 - u)  # uniform on (0, t_end]
        marks = sample_jumps(triplet.jump.law, rng, count)
        order = np.argsort(times, kind="stable")
        times = times[order]
        marks = marks[order]
    return gauss, times, marks


def sample_path(triplet: LevyTriplet, grid: TimeGrid, sample_index: int, seed: int) -> SamplePath:
    """Deterministic function of (seed, sample_index, grid, triplet).

    Gaussian step increments are N(0, gauss_var * dt) per mode; the jump
    count over [0, t_end] is Poisson(rate * t_end) with times uniform on
    (0, t_end] and i.i.d. marks from the jump law.
    """
    rng = sample_rng(seed, sample_index)
    gauss, times, marks = _draw_path_data(triplet, grid, rng)
    return SamplePath(grid=grid, drift=triplet.pathwise_drift(), gauss_increments=gauss,
                      jump_times=times, jump_marks=marks)


def coupled_sample_paths(
    triplet: LevyTriplet, fine_grid: TimeGrid, factors, sample_index: int, seed: int
) -> list[SamplePath]:
    """One random outcome realized consistently on several grid resolutions.

    Draws once on the finest grid (identically to sample_path on that grid)
    and block-sums the Gaussian increments for each coarsening factor; jump
    times and marks are shared exactly.  Used by convergence studies so all
    levels see the same outcome.
    """
    rng = sample_rng(seed, sample_index)
    gauss, times, marks = _draw_path_data(triplet, fine_grid, rng)
    K = triplet.dim
    drift = triplet.pathwise_drift()
    paths = []
    for f in factors:
        coarse = fine_grid.coarsened(int(f))
        inc = gauss.reshape(coarse.n_steps, int(f), K).sum(axis=1)
        paths.append(SamplePath(grid=coarse, drift=drift, gauss_increments=inc,
                                jump_times=times, jump_marks=marks))
    return paths


def path_value(path: SamplePath, t: float) -> np.ndarray:
    """Cadlag evaluation between nodes.

    Exact at grid nodes; elsewhere returns the previous node value plus
    drift accrual and any exactly-recorded jumps in (t_node, t] (the
    Gaussian part is piecewise constant between nodes by convention).
    """
    if not (0.0 <= t <= path.grid.t_end * (1 + 1e-12)):
        raise ValueError(f"t={t} outside [0, {path.grid.t_end}]")
    nodes = path.grid.nodes()
    j = int(np.searchsorted(nodes, t, side="right")) - 1
    j = min(j, path.grid.n_steps)
    out = path.values[j] + path.drift * (t - nodes[j])
    if path.jump_times.size:
        lo = int(np.searchsorted(path.jump_times, nodes[j], side="right"))
        hi = int(np.searchsorted(path.jump_times, t, side="right"))
        if hi > lo:
            out = out + path.jump_marks[lo:hi].sum(axis=0)
    return out
