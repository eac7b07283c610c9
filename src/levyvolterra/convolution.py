"""Stochastic convolution of the resolvent family against sampled paths.

Two routes compute int_0^t R(t - tau) dZ(tau) on the grid:

* Stieltjes sums over a tagged partition: each drift + Gaussian step
  increment is weighted by s evaluated at the elapsed time to the chosen
  tag point, and each jump is weighted at its exact elapsed time.
* Summation by parts, valid under the bounded-variation certificate: the
  same sums rearranged against the increments of s, so the two routes agree
  to roundoff on every node and every outcome.

The convolution re-weights all past increments at every output node (the
resolvent is a genuine two-time kernel, so values are not a running sum),
so the arithmetic is O(n^2 K) per path.  It runs as O(n) vector operations,
one per step increment spread over every later node and all modes, with
O(n K) memory, plus O(n K) per jump for the exact-time jump weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .grid import TimeGrid
from .levy import SamplePath
from .spectral import ResolventFamily, total_variation_certificate


class TagRule(Enum):
    """Tag point s_j in [t_j, t_{j+1}] weighting the step increment."""

    LEFT = "left"
    RIGHT = "right"
    MIDPOINT = "midpoint"

    @property
    def theta(self) -> float:
        return {"left": 0.0, "right": 1.0, "midpoint": 0.5}[self.value]


@dataclass(frozen=True)
class ConvolutionPath:
    """Node values of a convolution (or mild solution) on the grid."""

    grid: TimeGrid
    values: np.ndarray  # (n_steps + 1, K)
    method: str
    tag_rule: Optional[TagRule] = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape[0] != self.grid.n_steps + 1:
            raise ValueError("values must have one row per grid node")
        object.__setattr__(self, "values", v)
        v.flags.writeable = False

    @property
    def dim(self) -> int:
        return self.values.shape[1]


def _check_shared_grid(family: ResolventFamily, path: SamplePath):
    if family.grid != path.grid:
        raise ValueError(f"family grid {family.grid} != path grid {path.grid}")
    if family.K != path.dim:
        raise ValueError(f"family has K={family.K} modes, path has dimension {path.dim}")


def _lag_weights(family: ResolventFamily, tag_rule: TagRule) -> np.ndarray:
    """w[m, k] = s((m - theta) * dt, gamma_k) for lag m = 1..n_steps.

    Row m weights an increment whose step ends m subintervals before the
    output node; the tag falls on grid nodes for the endpoint rules and on
    the linear interpolant for midpoints.
    """
    s = family.s_matrix
    if tag_rule is TagRule.LEFT:
        return s[1:, :]
    if tag_rule is TagRule.RIGHT:
        return s[:-1, :]
    return 0.5 * (s[:-1, :] + s[1:, :])


def _lag_fold(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """out[i] = sum_{j<i} w[i-1-j] * x[j] for i = 0..n, all columns at once.

    One vector update per increment j spreads it over every later node, so
    each node accumulates strictly left to right in j (the order of a
    per-node cumsum) and identity weights reproduce cumulative sums bitwise.
    """
    n = x.shape[0]
    # mode-major copies, so each update runs along the nodes rather than the K modes
    wt, xt = w.T.copy(), x.T[:, :, None]
    out = np.zeros((x.shape[1], n + 1))
    for j in range(n):
        out[:, j + 1 :] += wt[:, : n - j] * xt[:, j]
    return out.T


def _jump_weights(family: ResolventFamily, path: SamplePath, node_indices: np.ndarray):
    """Exact-time jump weights for the given output nodes.

    Returns (W, live): live[r, m] marks jump m at or before node
    node_indices[r], and W[r, m, k] = s(t_i - tau_m, gamma_k) on live
    entries and 0 elsewhere, interpolated once per mode.
    """
    nodes = family.grid.nodes()
    t = nodes[node_indices]
    live = path.jump_times[None, :] <= t[:, None]
    elapsed = t[:, None] - path.jump_times[None, :]
    W = np.empty(elapsed.shape + (family.K,))
    for k in range(family.K):
        W[..., k] = np.interp(elapsed, nodes, family.s_matrix[:, k])
    W[~live] = 0.0
    return W, live


def _stieltjes_jumps(family: ResolventFamily, path: SamplePath, node_indices: np.ndarray):
    """sum over jumps tau_m <= t_i of s(t_i - tau_m) * mark_m, folded left to right in m."""
    W, _ = _jump_weights(family, path, node_indices)
    acc = np.zeros((len(node_indices), family.K))
    for m in range(path.jump_times.size):
        acc += W[:, m] * path.jump_marks[m]
    return acc


def convolve_at(
    family: ResolventFamily, path: SamplePath, node_index: int, tag_rule: TagRule = TagRule.LEFT
) -> np.ndarray:
    """Z_R(t_i) for a single output node, O(n K) work.

    The single-row form of stieltjes_convolution: the same products folded
    in the same order, so it equals that route's row i bitwise.
    """
    _check_shared_grid(family, path)
    n, dt = family.grid.n_steps, family.grid.dt
    i = node_index
    if not 0 <= i <= n:
        raise ValueError(f"node index {i} outside 0..{n}")
    if i == 0:
        return np.zeros(family.K)
    lagw = _lag_weights(family, tag_rule)
    drift_part = path.drift * (dt * np.cumsum(lagw[:i], axis=0)[-1])
    gauss_part = np.cumsum(lagw[i - 1 :: -1] * path.gauss_increments[:i], axis=0)[-1]
    return (drift_part + gauss_part) + _stieltjes_jumps(family, path, np.array([i]))[0]


def stieltjes_convolution(
    family: ResolventFamily, path: SamplePath, tag_rule: TagRule = TagRule.LEFT
) -> ConvolutionPath:
    """Tagged-partition sums at every node.

    Z_R(t_i)_k = sum_{j<i} s(t_i - tag_j, gamma_k) * dZcont_{j,k}
               + sum_{jump times tau <= t_i} s(t_i - tau, gamma_k) * mark_k,

    with dZcont the drift + Gaussian step increments and each jump weighted
    at its exact recorded time through the mode table's interpolant.  With
    all tables identically 1 this reproduces the path values float for
    float.
    """
    _check_shared_grid(family, path)
    grid = family.grid
    lagw = _lag_weights(family, tag_rule)
    wcum = np.vstack([np.zeros((1, family.K)), np.cumsum(lagw, axis=0)])  # wcum[i] = sum_{m<=i} w_m
    drift_part = path.drift[None, :] * (grid.dt * wcum)
    gauss_part = _lag_fold(lagw, path.gauss_increments)
    jump_part = _stieltjes_jumps(family, path, np.arange(grid.n_steps + 1))
    vals = (drift_part + gauss_part) + jump_part
    return ConvolutionPath(grid=grid, values=vals, method="stieltjes", tag_rule=tag_rule)


def parts_convolution(
    family: ResolventFamily, path: SamplePath, variation_tolerance: float = 1e-8
) -> ConvolutionPath:
    """Summation-by-parts route, gated on the bounded-variation certificate.

    Continuous part per node (left tags):

        s_0 Zc(t_i) - s_i Zc(0) - sum_{j<i} Zc(t_{j+1}) [s_{i-j-1} - s_{i-j}]

    and the jump sum rearranged the same way against its own exact-time
    partition:

        w_last * (cumulative mark)_last - sum_m (cumulative mark)_m [w_{m+1} - w_m].

    Both are pure rearrangements of the Stieltjes sums, so the two routes
    agree to roundoff node by node.
    """
    _check_shared_grid(family, path)
    cert = total_variation_certificate(family, tolerance=variation_tolerance)
    if not cert.passed:
        bad = [k for k, r in enumerate(cert.reports) if not r.passed]
        raise ValueError(
            "integration by parts inapplicable: monotonicity/variation certificate "
            f"failed for modes {bad} (max increase {cert.monotone_violations.max():.3e})"
        )
    grid = family.grid
    s = family.s_matrix
    zc = path.continuous_values()
    vals = s[0] * zc - s * zc[0] - _lag_fold(s[:-1] - s[1:], zc[1:])

    if path.jump_times.size:
        W, live = _jump_weights(family, path, np.arange(grid.n_steps + 1))
        cummarks = np.cumsum(path.jump_marks, axis=0)
        rows = np.flatnonzero(live[:, 0])
        last = live[rows].sum(axis=1) - 1  # index of the latest jump at or before t_i
        dW = np.diff(W[rows], axis=1)
        dW[~live[rows, 1:]] = 0.0  # no step from the latest jump to one after t_i
        vals[rows] += W[rows, last] * cummarks[last] - np.einsum("rmk,mk->rk", dW, cummarks[:-1])
    return ConvolutionPath(grid=grid, values=vals, method="parts", tag_rule=None)


def mild_solution(
    family: ResolventFamily, x0, path: SamplePath, tag_rule: TagRule = TagRule.LEFT
) -> ConvolutionPath:
    """X(t_i)_k = s(t_i, gamma_k) x0_k + Z_R(t_i)_k."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (family.K,):
        raise ValueError(f"x0 must have length K={family.K}")
    zr = stieltjes_convolution(family, path, tag_rule)
    vals = family.s_matrix * x0[None, :] + zr.values
    return ConvolutionPath(grid=family.grid, values=vals, method="mild", tag_rule=tag_rule)


def functional_projection_check(
    family: ResolventFamily, path: SamplePath, y, tag_rule: TagRule = TagRule.LEFT
) -> float:
    """Max over nodes of |<y, Z_R(t_i)> - sum_k y_k * (scalar convolution)_k|.

    The scalar route convolves each projected component through separately
    written sums (combined per-step increments, dot-product accumulation),
    so agreement to roundoff genuinely exercises bilinearity of the sums
    rather than comparing one code path with itself.
    """
    _check_shared_grid(family, path)
    y = np.asarray(y, dtype=float)
    if y.shape != (family.K,):
        raise ValueError(f"y must have length K={family.K}")
    zr = stieltjes_convolution(family, path, tag_rule)
    vector_route = zr.values @ y

    grid = family.grid
    n, dt = grid.n_steps, grid.dt
    nodes = grid.nodes()
    lagw = _lag_weights(family, tag_rule)
    m_at_node = np.searchsorted(path.jump_times, nodes, side="right")
    scalar_route = np.zeros(n + 1)
    for k in range(family.K):
        dz = path.drift[k] * dt + path.gauss_increments[:, k]
        ck = np.zeros(n + 1)
        for i in range(1, n + 1):
            acc = float(np.dot(lagw[i - 1 :: -1, k], dz[:i]))
            m_i = m_at_node[i]
            if m_i:
                w = np.interp(nodes[i] - path.jump_times[:m_i], nodes, family.s_matrix[:, k])
                acc += float(np.dot(w, path.jump_marks[:m_i, k]))
            ck[i] = acc
        scalar_route = scalar_route + y[k] * ck
    return float(np.max(np.abs(vector_route - scalar_route)))
