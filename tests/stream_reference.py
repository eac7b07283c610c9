"""Reference draws of the per-sample Monte Carlo streams, shared by the test modules.

Each sample's stream is drawn on its own, on numpy's own keying of the
(seed, index) Philox stream, in the documented order: the n * K Gaussian
step normals (none when every variance is 0), the Poisson jump count, the
count uniforms, the marks, then a stable sort into time order.
coupled_reference realizes one such outcome on several coarsenings of a
grid, summing each level's Gaussian increments in time order.
"""

import numpy as np

from levyvolterra import (
    DiscreteMixture,
    GaussianJumps,
    JumpPart,
    LevyTriplet,
    PointMass,
    SamplePath,
)
from levyvolterra.levy import sample_jumps

# triplets covering each branch of the stream layout and of the node sum
BLOCKED_TRIPLETS = {
    "gaussian": LevyTriplet(np.array([0.3, -0.2]), np.array([1.0, 0.5])),
    "jump-only": LevyTriplet(np.zeros(3), np.zeros(3), JumpPart(3.0, DiscreteMixture(
        np.array([0.5, 0.3, 0.2]),
        np.array([[0.5, 0.2, -0.1], [-0.4, 0.1, 0.2], [0.2, -0.3, 0.4]])))),
    "mixed": LevyTriplet(np.array([0.3, -0.2]), np.array([0.5, 0.25]),
                         JumpPart(1.5, PointMass(np.array([0.6, -0.4])))),
    # rate 20: many samples carry 8 or more jumps, where np.sum adds pairwise
    "rate-20-K1": LevyTriplet(np.array([0.1]), np.array([0.3]),
                              JumpPart(20.0, GaussianJumps(np.array([0.2]), np.array([0.5])))),
    "rate-20-K2": LevyTriplet(np.array([0.1, 0.0]), np.array([0.3, 0.2]),
                              JumpPart(20.0, PointMass(np.array([0.3, -0.7])))),
    # normals, then mixture marks (a choice draw) on one stream
    "mixture-and-noise": LevyTriplet(np.zeros(3), np.array([0.4, 0.3, 0.2]), JumpPart(
        3.0, DiscreteMixture(np.array([0.5, 0.3, 0.2]),
                             np.array([[0.5, 0.2, -0.1], [-0.4, 0.1, 0.2], [0.2, -0.3, 0.4]])))),
}


def philox_stream(seed, index):
    """numpy's own keying of the (seed, index) stream, independent of sample_rng."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


def reference_draw(trip, grid, index, seed):
    """(gauss (n, K), jump times (m,), marks (m, K)) of one sample, jumps in time order."""
    rng = philox_stream(seed, index)
    n, K, t_end = grid.n_steps, trip.dim, grid.t_end
    gauss = np.zeros((n, K))
    if np.any(trip.gauss_var > 0.0):
        gauss = rng.standard_normal((n, K)) * np.sqrt(trip.gauss_var * grid.dt)[None, :]
    times, marks = np.zeros(0), np.zeros((0, K))
    if trip.jump is not None:
        count = int(rng.poisson(trip.jump.rate * t_end))
        if count:
            times = t_end * (1.0 - rng.random(count))
            marks = sample_jumps(trip.jump.law, rng, count)
            order = np.argsort(times, kind="stable")
            times, marks = times[order], marks[order]
    return gauss, times, marks


def coupled_reference(trip, fine_grid, factors, index, seed):
    """One outcome's SamplePath on fine_grid coarsened by each factor, from reference_draw.

    Each level's increment is the sum of its factor fine increments, added
    to 0.0 in time order; jumps are shared.
    """
    gauss, times, marks = reference_draw(trip, fine_grid, index, seed)
    paths = []
    for f in factors:
        coarse = fine_grid.coarsened(int(f))
        inc = np.zeros((coarse.n_steps, trip.dim))
        for q in range(int(f)):
            inc += gauss[q :: int(f)]
        paths.append(SamplePath(grid=coarse, drift=trip.pathwise_drift(), gauss_increments=inc,
                                jump_times=times, jump_marks=marks))
    return paths
