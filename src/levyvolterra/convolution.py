"""Stochastic convolution of the resolvent family against sampled paths.

Two routes compute int_0^t R(t - tau) dZ(tau) on the grid:

* Stieltjes sums over a tagged partition: each drift + Gaussian step
  increment is weighted by s evaluated at the elapsed time to the chosen
  tag point, and each jump is weighted at its exact elapsed time.
* Summation by parts, valid under the bounded-variation certificate: the
  same sums rearranged against the increments of s, so the two routes agree
  to roundoff on every node and every outcome.  The jumps are Abel-summed,
  sum_m C_m (w_m - w_{m+1}) with C_m the cumulative mark and w = 0 after
  the latest jump, so every node runs the same sum over every jump.

The convolution re-weights all past increments at every output node (the
resolvent is a genuine two-time kernel, so values are not a running sum).
Both routes form that lag sum for all nodes and modes as one zero-padded
numpy.fft.rfft product along the time axis: O(n log n K) work and O(n K)
memory per route and outcome.  The m jumps add O(n m K) work for their
exact-time weights, which are built for slices of output nodes, about
_JUMP_BLOCK_ENTRIES at a time, and summed left to right in m, so the slices
change no bit of the result.

Both routes are block routes: _block_routes takes a levy._draw_blocks
block's (B, K, n) increments and (counts, times, marks) jumps and returns
each route's (B, n + 1, K) values.  A pass of rows folds its B * K columns
in one _lag_fold call and builds each node slice of its jump weights once
for every route it was asked for.  The weights are mode-major, (jumps, K,
nodes), and _mark_sums is the one mark-weighted jump sum: one broadcast
multiply by the marks, then each row's terms added to 0.0 left to right
(_row_sums); the Stieltjes route, both Abel halves of the parts route and
_jump_sums call it.  Every column of the FFT and every row's jump sum come
out as they would alone, so a block row is that row's one-path result bit
for bit; stieltjes_convolution and parts_convolution are the one-row
calls, on the block levy._path_block packs a path into.

One node's value for a block of outcomes is the single-node sum
_node_values: the step increments come mode-major, (B, K, i), as
levy._draw_blocks lays them out, and the weights of every requested tag
rule are contracted along each mode's contiguous time row in one einsum.
convolve_at is its one-outcome, one-rule call, on the first i steps of
levy._path_block.

The Stieltjes route adds the cumulative sum of the step increments to their
fold against w - 1.  For an identity family w - 1 is exactly 0, so the fold
adds only zeros and the route reproduces the path float for float.  The
parts route folds its weights s_{m-1} - s_m directly: they are O(dt), so
w - 1 is close to -1 there, the cumulative sum and the fold nearly cancel,
and the FFT roundoff would scale with the path instead of with the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .grid import TimeGrid, _frozen_floats
from .kernels import certify_resolvent_properties
from . import levy
from .levy import SamplePath, _continuous_values, _path_block
from .spectral import ResolventFamily

# largest increase of s, or excursion outside [0, 1], that the parts route accepts
VARIATION_TOL = 1e-8

# entries of the (jumps, K, nodes) jump-weight array held at once
_JUMP_BLOCK_ENTRIES = 1 << 20
# terms per jump from which _row_sums adds jump by jump instead of by np.add.at
_LOOP_TERMS = 100


class TagRule(Enum):
    """Tag point s_j in [t_j, t_{j+1}] weighting the step increment."""

    LEFT = "left"
    RIGHT = "right"
    MIDPOINT = "midpoint"


@dataclass(frozen=True)
class ConvolutionPath:
    """Node values of a convolution (or mild solution) on the grid."""

    grid: TimeGrid
    values: np.ndarray  # (n_steps + 1, K)
    method: str
    tag_rule: Optional[TagRule] = None

    def __post_init__(self):
        v = _frozen_floats(self.values)
        if v.shape[0] != self.grid.n_steps + 1:
            raise ValueError("values must have one row per grid node")
        object.__setattr__(self, "values", v)

    @property
    def dim(self) -> int:
        return self.values.shape[1]


def _check_shared_grid(family: ResolventFamily, path: SamplePath):
    if family.grid != path.grid:
        raise ValueError(f"family grid {family.grid} != path grid {path.grid}")
    if family.K != path.dim:
        raise ValueError(f"family has K={family.K} modes, path has dimension {path.dim}")


def _lag_weights(family: ResolventFamily, tag_rule: TagRule) -> np.ndarray:
    """w[m, k] = s((m - f) * dt, gamma_k) for lag m = 1..n_steps.

    f is the tag's place in its step as a fraction of dt: 0 for LEFT, 1 for
    RIGHT, 1/2 for MIDPOINT.  Row m weights an increment whose step ends m subintervals before the
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
    """out[i] = sum_{j<i} w[i-1-j] * x[j] for i = 0..n, every column of x at once.

    x is (n, ...), w broadcasts against it.  One real FFT product along axis
    0, zero-padded to the next power of two >= 2n - 1 so that the circular
    product is the linear one; a column's result does not depend on the
    others.  It agrees with the in-order sums to roundoff relative to their
    largest entry, not bit for bit; node 0 is +0.0.
    """
    n = x.shape[0]
    size = 1 << (2 * n - 2).bit_length()
    spectrum = np.fft.rfft(x, size, axis=0)
    np.multiply(np.fft.rfft(w, size, axis=0), spectrum, out=spectrum)
    conv = np.fft.irfft(spectrum, size, axis=0)
    out = np.empty((n + 1,) + conv.shape[1:])
    out[0] = 0.0
    out[1:] = conv[:n]
    return out


def _jump_weights(family: ResolventFamily, t, jump_times: np.ndarray) -> np.ndarray:
    """Exact-time jump weights, mode-major: W[:, k] = s(t - tau, gamma_k).

    t - tau of shape (J, ...) gives W of shape (J, K, ...), one np.interp
    per mode column of s into its slice.  nodes[0] is 0.0, so left=0.0
    makes the weight 0 exactly where tau > t; at tau == t it is s(0).
    """
    elapsed = t - jump_times
    nodes, s = family.grid.nodes(), family.s_matrix
    W = np.empty(elapsed.shape[:1] + (family.K,) + elapsed.shape[1:])
    for k in range(family.K):
        W[:, k] = np.interp(elapsed, nodes, s[:, k], left=0.0)
    return W


def _jump_weight_blocks(family: ResolventFamily, jump_times: np.ndarray, weights=None):
    """Exact-time jump weights for every output node, a block of nodes at a time.

    Yields (rows, W) for consecutive slices rows of the grid nodes: W is the
    (m, K, nodes) weights(family, t, tau) (by default _jump_weights) of the
    m jump_times tau at those nodes' times t, about _JUMP_BLOCK_ENTRIES
    entries (at least one node).
    """
    t = family.grid.nodes()
    weights = weights or _jump_weights
    block = max(1, _JUMP_BLOCK_ENTRIES // max(1, jump_times.size * family.K))
    for r0 in range(0, t.size, block):
        rows = slice(r0, r0 + block)
        yield rows, weights(family, t[None, rows], jump_times[:, None])


def _row_sums(terms: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """(B, ...) sums of a block's jump terms (J, ...), row r's counts[r] terms after row r - 1's.

    Each row's terms are added to 0.0 left to right: one vector add per
    jump while a jump has _LOOP_TERMS terms or more, else one np.add.at
    over all jumps, which adds them in the same order.
    """
    out = np.zeros((counts.size,) + terms.shape[1:])
    owner = np.repeat(np.arange(counts.size), counts)
    if terms.size >= _LOOP_TERMS * owner.size:
        for j, r in enumerate(owner):
            out[r] += terms[j]
    else:
        np.add.at(out, owner, terms)
    return out


def _mark_sums(W: np.ndarray, marks: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """(B, K, nodes) _row_sums of a block's (J, K, nodes) jump weights times their (J, K) marks.

    The one place a jump weight meets its mark: one broadcast multiply, then
    each row's terms added to 0.0 left to right.
    """
    return _row_sums(W * marks[:, :, None], counts)


def _node_weights(family: ResolventFamily, rules, i: int, drift: np.ndarray):
    """(drift parts (R, K), step weights (R, K, i)) of Z_R(t_i) for the tag rules, for _node_values.

    Row r of the drift parts is drift * dt * (sum of the first i lag
    weights of rules[r]), summed in lag order; entry [r, k, j] of the step
    weights is mode k's lag i - j weight of that rule, the weight of step j,
    so each mode's weights are contiguous in time.
    """
    drift_parts = np.zeros((len(rules), family.K))
    step_weights = np.empty((len(rules), family.K, i))
    for r, rule in enumerate(rules):
        lagw = _lag_weights(family, rule)[:i]
        if i:
            drift_parts[r] = drift * (family.grid.dt * np.sum(lagw, axis=0))
        step_weights[r] = lagw[::-1].T
    return drift_parts, step_weights


def _jump_sums(family: ResolventFamily, t: float, jumps) -> np.ndarray:
    """(B, K) jump sums at time t of _draw_blocks' jumps (counts, times, marks), one per row.

    Each row's terms _jump_weights * mark are added to 0.0 left to right.
    """
    counts, times, marks = jumps
    return _mark_sums(_jump_weights(family, t, times)[:, :, None], marks, counts)[:, :, 0]


def _node_values(family: ResolventFamily, i: int, weights, gauss, jumps):
    """Z_R(t_i) for B outcomes under R tag rules, (B, R, K): the one single-node Stieltjes sum.

    weights is _node_weights' pair; gauss (B, K, i) holds each outcome's
    first i step increments mode-major, and jumps its (counts, times,
    marks) as levy._draw_blocks lays them out; either is None when there
    are none, and with both None the result is the (R, K) drift parts.
    One einsum("bkj,rkj->brk") contracts every rule along each mode's
    contiguous time row; it sums every row over j in the same order
    whatever B, R, the row's neighbours or the block's alignment, and the
    jumps, which weigh the same under every rule, are summed by _jump_sums,
    so no row depends on the others.
    """
    drift_parts, step_weights = weights
    vals = drift_parts
    if gauss is not None:
        vals = drift_parts + np.einsum("bkj,rkj->brk", gauss, step_weights)
    if jumps is not None:
        vals = vals + _jump_sums(family, family.grid.nodes()[i], jumps)[:, None, :]
    return vals


def convolve_at(
    family: ResolventFamily, path: SamplePath, node_index: int, tag_rule: TagRule = TagRule.LEFT
) -> np.ndarray:
    """Z_R(t_i) for a single output node, O(n K) work.

    Row i of stieltjes_convolution to roundoff (its jump part bit for bit),
    summed along each mode's time row rather than through the FFT fold.  It
    is the one-outcome, one-rule _node_values call, so
    characterization.terminal_values' rows equal it on each sample's path
    bit for bit.
    """
    _check_shared_grid(family, path)
    i = node_index
    if not 0 <= i <= family.grid.n_steps:
        raise ValueError(f"node index {i} outside 0..{family.grid.n_steps}")
    weights = _node_weights(family, (tag_rule,), i, path.drift)
    gauss, jumps = _path_block(path)
    return _node_values(family, i, weights, np.ascontiguousarray(gauss[:, :, :i]), jumps)[0, 0]


def stieltjes_convolution(
    family: ResolventFamily, path: SamplePath, tag_rule: TagRule = TagRule.LEFT
) -> ConvolutionPath:
    """Tagged-partition sums at every node.

    Z_R(t_i)_k = sum_{j<i} s(t_i - tag_j, gamma_k) * dZcont_{j,k}
               + sum_{jump times tau <= t_i} s(t_i - tau, gamma_k) * mark_k,

    with dZcont the drift + Gaussian step increments and each jump weighted
    at its exact recorded time through the mode column's interpolant.  With
    all columns identically 1 this reproduces the path values float for
    float.  It is the one-row _block_routes call.
    """
    _check_shared_grid(family, path)
    vals = _block_routes(family, (tag_rule,), path.drift, 1, *_path_block(path))[0][0]
    return ConvolutionPath(grid=family.grid, values=vals, method="stieltjes", tag_rule=tag_rule)


def _cumsum_with_error(x: np.ndarray):
    """(hi, lo): hi = np.cumsum(x, axis=0) and lo the cumsum of its step rounding errors.

    Each step hi[m] = fl(hi[m-1] + x[m]) loses exactly the error TwoSum
    recovers (Knuth; Ogita, Rump & Oishi 2005), all steps in one vectorized
    pass, so hi + lo is the cumulative sum to about eps * sum|x| instead
    of eps times the partial sums that m steps of rounding reach.
    """
    hi = np.cumsum(x, axis=0)
    prev = np.zeros_like(hi)
    prev[1:] = hi[:-1]
    added = hi - prev  # the part of x[m] that reached hi[m]
    err = (prev - (hi - added)) + (x - added)
    return hi, np.cumsum(err, axis=0)


def parts_convolution(family: ResolventFamily, path: SamplePath) -> ConvolutionPath:
    """Summation-by-parts route, gated on the bounded-variation certificate.

    Continuous part per node (left tags):

        s_0 Zc(t_i) - s_i Zc(0) - sum_{j<i} Zc(t_{j+1}) [s_{i-j-1} - s_{i-j}]

    and the jump sum rearranged the same way against its own exact-time
    partition, over every jump of the path:

        sum_m C_m [w_m - w_{m+1}],

    with C_m the cumulative mark of the first m + 1 jumps, w_m the jump's
    exact-time weight, and w = 0 after the latest jump at or before t_i.
    C_m is carried as hi + lo (_cumsum_with_error) and both are Abel-summed:
    C_m can be far larger than the result when the compensator drift
    cancels the jumps, and the rounding of a plain cumsum would then enter
    every term.

    Both are pure rearrangements of the Stieltjes sums, so the two routes
    agree to roundoff node by node.  It is the one-row _block_routes call.
    """
    _check_shared_grid(family, path)
    vals = _block_routes(family, (None,), path.drift, 1, *_path_block(path))[0][0]
    return ConvolutionPath(grid=family.grid, values=vals, method="parts", tag_rule=None)


def _block_routes(family: ResolventFamily, routes, drift: np.ndarray, n_rows: int, gauss, jumps):
    """Route values of every row of a levy._draw_blocks block, one (n_rows, n + 1, K) array per route.

    routes holds a TagRule for each Stieltjes route and None for the parts
    route, whose certificate is checked once per call (ValueError if it
    fails).  gauss is the block's (n_rows, K, n) increments or None (zero
    increments), jumps its (counts, times, marks) or None (no jumps).
    Rows go in passes of about levy._BLOCK_BYTES of FFT spectrum: each
    route folds a pass's B * K columns in one _lag_fold call, and each node
    slice of the pass's jump weights is built once for every route.  Every
    row equals the route's one-path call on that row's SamplePath bit for
    bit, whatever else the block holds.
    """
    cert = certify_resolvent_properties(family.s_matrix, VARIATION_TOL) if None in routes else None
    if cert is not None and not cert.passed:
        bad = np.flatnonzero(~cert.mode_passed).tolist()
        raise ValueError(
            "integration by parts inapplicable: monotonicity/variation certificate "
            f"failed for modes {bad} (max increase {cert.max_increase.max():.3e})"
        )
    n, K = family.grid.n_steps, family.K
    if gauss is None:
        gauss = np.zeros((n_rows, K, n))
    outs = [np.empty((n_rows, n + 1, K)) for _ in routes]
    step = max(1, int(levy._BLOCK_BYTES // (32 * n * K)))
    ends = None if jumps is None else np.cumsum(jumps[0])
    for r0 in range(0, n_rows, step):
        r1 = min(r0 + step, n_rows)
        for out, rule in zip(outs, routes):
            cont = (_parts_continuous(family, drift, gauss[r0:r1]) if rule is None
                    else _stieltjes_continuous(family, rule, drift, gauss[r0:r1]))
            out[r0:r1] = cont.transpose(1, 0, 2)
        if jumps is None:
            continue
        j0, j1 = ends[r0] - jumps[0][r0], ends[r1 - 1]
        counts, times, marks = jumps[0][r0:r1], jumps[1][j0:j1], jumps[2][j0:j1]
        abel = _abel_marks(counts, marks) if None in routes else None
        for rows, W in _jump_weight_blocks(family, times):
            for out, rule in zip(outs, routes):
                out[r0:r1, rows] += (_parts_jump_sums(W, counts, abel) if rule is None
                                     else _mark_sums(W, marks, counts)).transpose(0, 2, 1)
    return outs


def _stieltjes_continuous(family: ResolventFamily, rule: TagRule, drift, gauss) -> np.ndarray:
    """Drift and Gaussian part of the Stieltjes route, (n + 1, B, K), of (B, K, n) increments."""
    lagw = _lag_weights(family, rule)
    wcum = np.vstack([np.zeros((1, family.K)), np.cumsum(lagw, axis=0)])  # wcum[i] = sum_{m<=i} w_m
    drift_part = drift[None, :] * (family.grid.dt * wcum)
    dx = gauss.transpose(2, 0, 1)
    dx_cum = np.zeros((dx.shape[0] + 1,) + dx.shape[1:])
    dx_cum[1:] = np.cumsum(dx, axis=0)
    # w - 1 is exactly 0 for an identity family
    return drift_part[:, None] + (dx_cum + _lag_fold((lagw - 1.0)[:, None], dx))


def _parts_continuous(family: ResolventFamily, drift, gauss) -> np.ndarray:
    """Continuous part of the parts route, (n + 1, B, K), of (B, K, n) increments."""
    s = family.s_matrix
    zc = _continuous_values(family.grid, drift, gauss).transpose(1, 0, 2)
    return s[0] * zc - s[:, None] * zc[0] - _lag_fold((s[:-1] - s[1:])[:, None], zc[1:])


def _abel_marks(counts: np.ndarray, marks: np.ndarray):
    """(hi, lo, last): each row's _cumsum_with_error of its marks, and each row's last jump index."""
    ends = np.cumsum(counts)
    hi, lo = (np.concatenate(c) for c in zip(*(_cumsum_with_error(marks[e - c : e])
                                                for c, e in zip(counts, ends))))
    return hi, lo, ends[counts > 0] - 1


def _parts_jump_sums(W: np.ndarray, counts: np.ndarray, abel) -> np.ndarray:
    """Abel sums of each row's jumps against the (J, K, nodes) weights W, (B, K, nodes)."""
    hi, lo, last = abel
    steps = np.empty_like(W)  # w_m - w_{m+1} inside a row, w_m at its last jump
    np.subtract(W[:-1], W[1:], out=steps[:-1])
    steps[last] = W[last]
    return _mark_sums(steps, lo, counts) + _mark_sums(steps, hi, counts)


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
