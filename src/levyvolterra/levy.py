"""Finite-activity Levy triplets, path sampling, and the characteristic exponent.

A triplet [drift, gauss_var, (rate, jump law)] describes a K-dimensional
process Z(t) = drift*t + W(t) + J(t) with diagonal Gaussian covariance and a
compound-Poisson jump part.  The jump truncation convention is fixed at the
indicator 1_{|x| < 1}, so the drift stored here is the triplet drift of that
convention and the characteristic exponent carries the matching compensator.

Sampling is reproducible by construction: each sample index owns a Philox
counter-based stream keyed by (seed, sample_index), so results are bitwise
identical across runs and any parallel execution plan.  ``sample_rng`` owns
that keying: it sets the Philox state of a new generator, or of one it
returned before, which then draws exactly what a new one would.  A Monte
Carlo worker keeps one generator and re-keys it once per sample; keyed
streams are the design use of Philox (Salmon, Moraes, Dror & Shaw,
"Parallel random numbers: as easy as 1, 2, 3", SC 2011).  ``_draw_blocks``
owns the draw order and the block memory: within one stream Gaussian step
increments come first (skipped entirely when all Gaussian variances are
zero), then jump count, jump times, jump marks (none for a point mass,
whose marks are filled in per block; a mixture draws one uniform per mark
and looks it up in the law's cdf, as Generator.choice with its weights
would), and samples are drawn in blocks of about _BLOCK_BYTES.  A block is
mode-major, (B, K, n): each sample's normals are drawn in stream order into
row r of a (B, n, K) buffer, and the whole block is scaled and transposed
in one pass, so every mode's time series is contiguous for the contractions
that read it; the jump times of a block are formed from its uniforms in one
pass too.  sample_path and coupled_sample_paths read one-sample blocks and
_block_path builds their SamplePath; _path_block is the one packer of a
SamplePath back into a one-row block, which its own values and every
one-path convolution read.  characterization.terminal_values,
verification.convergence_study and the verify-parts command read
multi-sample blocks row for row without building one (_block_values gives
a block's path values).
Gaussian variates use numpy's Generator.standard_normal on that stream,
which pins the transform within this implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import erf, exp, pi, sqrt
from typing import Callable, Optional

import numpy as np

from .grid import TimeGrid, _frozen_floats

# Gauss-Hermite nodes per dimension for Gaussian-jump ball expectations
_HERMITE_NODES = {2: 64, 3: 24, 4: 16}
# most points of the tensor Hermite grid; 10 nodes per axis pass at K = 6
# and fail from K = 7, where the grid would take gigabytes
HERMITE_NODE_BUDGET = 10**6
# the four counter words and the four buffered outputs of a Philox just keyed
_PHILOX_ZEROS = (0, 0, 0, 0)
# per-sample data one _draw_blocks caller holds at once, per block
_BLOCK_BYTES = 256 * 1024


@dataclass(frozen=True)
class PointMass:
    """Every jump equals the fixed mark vector."""

    mark: np.ndarray

    def __post_init__(self):
        m = _frozen_floats(self.mark, 1)
        if m.ndim != 1 or not np.all(np.isfinite(m)):
            raise ValueError("point mass mark must be a finite vector")
        object.__setattr__(self, "mark", m)

    @property
    def dim(self) -> int:
        return self.mark.shape[0]


@dataclass(frozen=True)
class DiscreteMixture:
    """Jumps drawn from finitely many atoms with given probabilities."""

    weights: np.ndarray
    atoms: np.ndarray
    # normalized cumulative weights, as Generator.choice builds them
    cdf: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        w = _frozen_floats(self.weights)
        a = _frozen_floats(self.atoms, 2)
        if w.ndim != 1 or a.shape[0] != w.shape[0]:
            raise ValueError("need one atom row per weight")
        if np.any(w < 0) or abs(float(np.sum(w)) - 1.0) > 1e-12:
            raise ValueError("weights must be nonnegative and sum to 1")
        if not np.all(np.isfinite(a)):
            raise ValueError("atoms must be finite")
        cdf = w.cumsum()
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "atoms", a)
        object.__setattr__(self, "cdf", _frozen_floats(cdf / cdf[-1]))

    @property
    def dim(self) -> int:
        return self.atoms.shape[1]


@dataclass(frozen=True)
class GaussianJumps:
    """Jumps drawn from N(mean, diag(var))."""

    mean: np.ndarray
    var: np.ndarray

    def __post_init__(self):
        m, v = _frozen_floats(self.mean, 1), _frozen_floats(self.var, 1)
        if m.shape != v.shape or m.ndim != 1 or np.any(v < 0):
            raise ValueError("mean and var must be matching vectors with var >= 0")
        object.__setattr__(self, "mean", m)
        object.__setattr__(self, "var", v)

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


def check_hermite_budget(K: int) -> int:
    """Nodes per axis of the K-dimensional Hermite grid; ValueError above the budget."""
    n_nodes = _HERMITE_NODES.get(K, 10) if K > 1 else 96
    if n_nodes**K > HERMITE_NODE_BUDGET:
        raise ValueError(f"a Gaussian jump law of dimension {K} needs {n_nodes}**{K} Hermite "
                         f"nodes, above the budget of {HERMITE_NODE_BUDGET}")
    return n_nodes


def jump_rule(law: JumpLaw) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature rule (points (m, K), weights (m,)) with E[f(J)] = sum_m w_m f(x_m).

    The mark with weight 1 for a point mass, the atoms with their weights for
    a mixture, and the tensorized Gauss-Hermite grid for Gaussian jumps (exact
    only for smooth integrands, so indicator-type integrands carry quadrature
    error that shrinks with the node table).  The tensor grid is refused with
    ValueError, before it is built, when it would exceed HERMITE_NODE_BUDGET
    points.
    """
    if isinstance(law, PointMass):
        return law.mark[None, :], np.ones(1)
    if isinstance(law, DiscreteMixture):
        return law.atoms, law.weights
    K = law.dim
    n_nodes = check_hermite_budget(K)
    x, w = np.polynomial.hermite_e.hermegauss(n_nodes)
    w = w / np.sqrt(2.0 * pi)
    grids = np.meshgrid(*([x] * K), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    wts = np.ones(pts.shape[0])
    for axis in range(K):
        wts = wts * w[np.searchsorted(x, pts[:, axis])]
    return law.mean[None, :] + np.sqrt(law.var)[None, :] * pts, wts


def jump_expectation(law: JumpLaw, fn: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """E[fn(J)] where fn maps an (m, K) batch of jump values to (m, ...), by jump_rule."""
    points, weights = jump_rule(law)
    return np.tensordot(weights, np.asarray(fn(points)), axes=(0, 0))


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
        return law.atoms[np.searchsorted(law.cdf, rng.random(count), side="right")]
    return law.mean[None, :] + np.sqrt(law.var)[None, :] * rng.standard_normal((count, law.dim))


@dataclass(frozen=True)
class JumpPart:
    """Compound-Poisson jump component: arrival rate and mark law.

    compensator = E[J 1_{|J| < 1}] of the law, computed on first use and then
    kept (for a Gaussian law of dimension >= 2 it is a tensor Hermite
    quadrature, which can take a large share of a second and hundreds of MB).
    The node budget is checked here, so a law above it raises ValueError when
    the jump part is built, before any grid exists.
    """

    rate: float
    law: JumpLaw

    def __post_init__(self):
        if not (self.rate > 0.0 and np.isfinite(self.rate)):
            raise ValueError(f"jump rate must be positive and finite, got {self.rate}")
        if isinstance(self.law, GaussianJumps):
            check_hermite_budget(self.law.dim)

    @cached_property
    def compensator(self) -> np.ndarray:
        return _frozen_floats(jump_mean_inside_unit_ball(self.law))


@dataclass(frozen=True)
class LevyTriplet:
    """Drift vector, diagonal Gaussian variance, optional finite-activity jumps."""

    drift: np.ndarray
    gauss_var: np.ndarray
    jump: Optional[JumpPart] = None

    def __post_init__(self):
        d, v = _frozen_floats(self.drift, 1), _frozen_floats(self.gauss_var, 1)
        if d.ndim != 1 or v.shape != d.shape:
            raise ValueError("drift and gauss_var must be vectors of equal length")
        if np.any(v < 0):
            raise ValueError("gauss_var must be componentwise >= 0")
        if self.jump is not None and self.jump.law.dim != d.shape[0]:
            raise ValueError("jump law dimension must match the triplet dimension")
        object.__setattr__(self, "drift", d)
        object.__setattr__(self, "gauss_var", v)

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
        return self.drift - self.jump.rate * self.jump.compensator

    @classmethod
    def zero(cls, K: int) -> "LevyTriplet":
        return cls(drift=np.zeros(K), gauss_var=np.zeros(K))


def phi_batch(triplet: LevyTriplet, Y: np.ndarray) -> np.ndarray:
    """Characteristic exponent at an (m, K) batch of arguments, returns (m,)."""
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    out = 1j * (Y @ triplet.drift) - 0.5 * (Y**2 @ triplet.gauss_var)
    out = np.asarray(out, dtype=complex)
    if triplet.jump is not None:
        lam, comp = triplet.jump.rate, triplet.jump.compensator
        out = out + lam * (jump_cf(triplet.jump.law, Y) - 1.0) - 1j * lam * (Y @ comp)
    return out


@dataclass(frozen=True)
class SamplePath:
    """Cadlag piecewise record of Z on a grid with exact jump bookkeeping.

    values[i] = drift * t_i + (cumulative Gaussian increments) + (sum of
    marks with jump time <= t_i); jump times are kept exactly, not snapped
    to nodes, so downstream convolutions can weight each jump at its true
    elapsed time.  Between nodes the Gaussian part is piecewise constant by
    convention while drift accrues continuously.
    """

    grid: TimeGrid
    drift: np.ndarray
    gauss_increments: np.ndarray  # (n_steps, K) per-step Gaussian increments
    jump_times: np.ndarray  # (m,) sorted, in (0, t_end]
    jump_marks: np.ndarray  # (m, K)
    values: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        d = _frozen_floats(self.drift, 1)
        object.__setattr__(self, "drift", d)
        n, K = self.grid.n_steps, d.shape[0]
        g = _frozen_floats(self.gauss_increments)
        if g.shape != (n, K):
            raise ValueError(f"gauss_increments must be ({n}, {K})")
        jt = _frozen_floats(self.jump_times, 1)
        jm = _frozen_floats(self.jump_marks if jt.size else np.zeros((0, K)), 2)
        if jt.size and (jm.shape != (jt.size, K) or np.any(np.diff(jt) < 0)):
            raise ValueError("jump_marks must be (m, K) with sorted jump_times")
        if jt.size and (jt[0] <= 0.0 or jt[-1] > self.grid.t_end * (1 + 1e-12)):
            raise ValueError("jump times must lie in (0, t_end]")
        object.__setattr__(self, "gauss_increments", g)
        object.__setattr__(self, "jump_times", jt)
        object.__setattr__(self, "jump_marks", jm)

        # grouping pinned as (drift part + Gaussian part) + jump part so that
        # the identity-resolvent convolution reproduces these floats exactly
        object.__setattr__(self, "values", _frozen_floats(self.continuous_values()
                                                          + self.jump_cumulative()))

    @property
    def dim(self) -> int:
        return self.drift.shape[0]

    def jump_cumulative(self) -> np.ndarray:
        """(n_steps + 1, K): summed marks with jump time <= t_i, left-fold order."""
        return _jump_cumulative(self.grid, self.dim, 1, _path_block(self)[1])[0]

    def continuous_values(self) -> np.ndarray:
        """Node values of the drift + Gaussian component only."""
        return _continuous_values(self.grid, self.drift, _path_block(self)[0])[0]


def _path_block(path: SamplePath):
    """(gauss (1, K, n_steps), jumps): a path as the one-row _draw_blocks block _block_path reads."""
    return (path.gauss_increments.T[None],
            (np.array([path.jump_times.size]), path.jump_times, path.jump_marks))


def sample_rng(
    seed: int, sample_index: int, rng: Optional[np.random.Generator] = None
) -> np.random.Generator:
    """The dedicated per-sample stream: Philox keyed by (seed, sample_index).

    Given rng, a Generator on a Philox bit generator (one this function
    returned, say), it re-keys that generator in place and returns it; with
    rng None it first builds one on ``Philox(0)``, a fixed seed that draws no
    OS entropy.  Keying sets the key to (seed, sample_index), zeroes the
    counter and the output buffer, sets buffer_pos to 4 (the buffer is spent)
    and clears the spare 32-bit half.  That is the state of
    ``Philox(key=...)`` with that key, so the generator draws exactly what a
    new one on that stream would, without the OS-entropy SeedSequence that
    ``Philox(key=...)`` builds and the key then replaces.
    """
    if rng is None:
        rng = np.random.Generator(np.random.Philox(0))
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _PHILOX_ZEROS, "key": (int(seed), int(sample_index))},
        "buffer": _PHILOX_ZEROS,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


def _jump_bytes(K: int) -> int:
    """Bytes of one jump: its time and mark, drawn and sorted, and its weight in a jump sum."""
    return 8 * (2 + 4 * K)


def _sample_bytes(triplet: LevyTriplet, n: int, K: int, t_end: float) -> float:
    """Bytes one sample holds in a _draw_blocks block.

    The n * K Gaussian increments when it draws them, plus _jump_bytes for
    each of about 1 + rate * t_end jumps.  Blocks shrink as the jump rate
    grows, with or without Gaussian noise.
    """
    gauss = 8.0 * n * K if np.any(triplet.gauss_var > 0.0) else 0.0
    rate = triplet.jump.rate if triplet.jump is not None else 0.0
    return gauss + (1.0 + rate * t_end) * _jump_bytes(K)


def _draw_blocks(triplet: LevyTriplet, grid: TimeGrid, seed: int, lo: int, hi: int):
    """Samples lo..hi-1 in consecutive blocks: yields (b0, b1, gauss, jumps).

    The one owner of the stream layout.  One generator is re-keyed per
    sample by sample_rng and draws, in order, the n * K Gaussian increments
    (skipped when every variance is 0), then the jump count, the jump times
    uniform on (0, t_end] and the marks.  gauss is the block's (B, K, n)
    scaled increments, mode-major, in one buffer reused by the next block,
    or None: each sample's normals fill row r of a (B, n, K) buffer in
    stream order, and one multiply scales and transposes the block, the
    same products a scaled (n, K) row would hold.  jumps is None without a jump
    part, else (counts (B,), times (J,), marks (J, K)): the block's J jumps
    row by row, each row's counts[r] jumps in stable time order, so row r
    holds jumps counts[:r].sum() up to counts[:r + 1].sum().  A block holds
    about _BLOCK_BYTES (_sample_bytes per sample, at least one sample).
    """
    n, K, t_end, jump = grid.n_steps, triplet.dim, grid.t_end, triplet.jump
    draw_gauss = bool(np.any(triplet.gauss_var > 0.0))
    scale = np.sqrt(triplet.gauss_var * grid.dt)[:, None]
    block = max(1, int(_BLOCK_BYTES // _sample_bytes(triplet, n, K, t_end)))
    buf = np.empty((min(block, hi - lo), K, n)) if draw_gauss else None
    normals = np.empty((min(block, hi - lo), n, K)) if draw_gauss else None
    mean_count = jump.rate * t_end if jump is not None else 0.0
    # point-mass marks draw nothing, so they are filled in once per block
    point_mass = jump is not None and isinstance(jump.law, PointMass)
    rng = None
    for b0 in range(lo, hi, block):
        b1 = min(b0 + block, hi)
        # each sample's jump data in draw order, led by an empty entry
        counts, uniforms, marks = [], [np.zeros(0)], [np.zeros((0, K))]
        for b in range(b0, b1):
            rng = sample_rng(seed, b, rng)
            if draw_gauss:
                rng.standard_normal(out=normals[b - b0])
            if jump is not None:
                count = int(rng.poisson(mean_count))
                counts.append(count)
                if count:
                    uniforms.append(rng.random(count))
                    if not point_mass:
                        marks.append(sample_jumps(jump.law, rng, count))
        gauss = None
        if draw_gauss:
            gauss = np.multiply(normals[: b1 - b0].transpose(0, 2, 1), scale, out=buf[: b1 - b0])
        if jump is None:
            yield b0, b1, gauss, None
            continue
        counts, times = np.array(counts), t_end * (1.0 - np.concatenate(uniforms))
        # rows are drawn in order, so one stable sort by (row, time) sorts each row
        order = np.lexsort((times, np.repeat(np.arange(b1 - b0), counts)))
        marks = (np.broadcast_to(jump.law.mark, (times.size, K)) if point_mass
                 else np.concatenate(marks)[order])
        yield b0, b1, gauss, (counts, times[order], marks)


def _level_sums(gauss: np.ndarray, factor: int) -> np.ndarray:
    """(B, K, n / factor) sums of each factor consecutive increments of a (B, K, n) block.

    Added to 0.0 in time order, as numpy reduces the step axis of a
    time-major (B, n / factor, factor, K) block when K >= 2, so a level's
    increments do not depend on the block layout.
    """
    parts = gauss.reshape(gauss.shape[:2] + (-1, factor))
    out = np.zeros(parts.shape[:3])
    for q in range(factor):
        out += parts[..., q]
    return out


def _continuous_values(grid: TimeGrid, drift: np.ndarray, gauss: np.ndarray) -> np.ndarray:
    """(B, n_steps + 1, K) drift * t plus the cumulative Gaussian sum of (B, K, n_steps) increments."""
    gauss_cum = np.zeros((gauss.shape[0], grid.n_steps + 1, gauss.shape[1]))
    gauss_cum[:, 1:] = np.cumsum(gauss, axis=2).transpose(0, 2, 1)
    return (drift[None, :] * grid.nodes()[:, None]) + gauss_cum


def _jump_cumulative(grid: TimeGrid, K: int, n_rows: int, jumps) -> np.ndarray:
    """(n_rows, n_steps + 1, K) summed marks with jump time <= t_i of each row's jumps."""
    out = np.zeros((n_rows, grid.n_steps + 1, K))
    if jumps is not None:
        counts, times, marks = jumps
        ends = np.cumsum(counts)
        for r in np.flatnonzero(counts):
            row = slice(ends[r] - counts[r], ends[r])
            cum = np.vstack([np.zeros((1, K)), np.cumsum(marks[row], axis=0)])
            out[r] = cum[np.searchsorted(times[row], grid.nodes(), side="right")]
    return out


def _block_values(grid: TimeGrid, drift: np.ndarray, n_rows: int, gauss, jumps) -> np.ndarray:
    """Node values Z of every row of a _draw_blocks block, (n_rows, n_steps + 1, K).

    The continuous part, then plus the jump part: the grouping
    SamplePath.values pins, so row r is that row's SamplePath values bit
    for bit.  gauss and jumps are as _block_path takes them.
    """
    K = drift.shape[0]
    if gauss is None:
        gauss = np.zeros((n_rows, K, grid.n_steps))
    return _continuous_values(grid, drift, gauss) + _jump_cumulative(grid, K, n_rows, jumps)


def _block_path(grid: TimeGrid, drift: np.ndarray, gauss, jumps, r: int) -> SamplePath:
    """Row r of a _draw_blocks block as a SamplePath on grid.

    gauss is the block's (B, K, n_steps) increments or None (zero
    increments), jumps its (counts, times, marks) or None (no jumps).
    """
    K = drift.shape[0]
    counts, times, marks = jumps or (np.zeros(r + 1, int), np.zeros(0), np.zeros((0, K)))
    row = slice(int(counts[:r].sum()), int(counts[: r + 1].sum()))
    return SamplePath(
        grid=grid, drift=drift,
        gauss_increments=(np.zeros((grid.n_steps, K)) if gauss is None
                          else np.ascontiguousarray(gauss[r].T)),
        jump_times=times[row], jump_marks=marks[row])


def sample_path(triplet: LevyTriplet, grid: TimeGrid, sample_index: int, seed: int) -> SamplePath:
    """Deterministic function of (seed, sample_index, grid, triplet).

    Gaussian step increments are N(0, gauss_var * dt) per mode; the jump
    count over [0, t_end] is Poisson(rate * t_end) with times uniform on
    (0, t_end] and i.i.d. marks from the jump law.
    """
    _, _, gauss, jumps = next(_draw_blocks(triplet, grid, seed, sample_index, sample_index + 1))
    return _block_path(grid, triplet.pathwise_drift(), gauss, jumps, 0)


def coupled_sample_paths(
    triplet: LevyTriplet, fine_grid: TimeGrid, factors, sample_index: int, seed: int
) -> list[SamplePath]:
    """One random outcome realized consistently on several grid resolutions.

    Draws once on the finest grid (identically to sample_path on that grid)
    and block-sums the Gaussian increments for each coarsening factor with
    _level_sums; jump times and marks are shared exactly, so all levels see
    the same outcome.  verification.convergence_study reads the same
    coupling from multi-sample blocks; this is its one-outcome form, which
    no stage calls and the package does not export (perfbench's tracer
    wraps it by name).
    """
    _, _, gauss, jumps = next(_draw_blocks(triplet, fine_grid, seed, sample_index,
                                           sample_index + 1))
    drift = triplet.pathwise_drift()
    return [_block_path(fine_grid.coarsened(int(f)), drift,
                        None if gauss is None else _level_sums(gauss, int(f)), jumps, 0)
            for f in factors]
