"""Reference solve of the scalar resolvent equation by its step-by-step recurrence.

solve_reference solves the same order-3 Gregory discretization as
kernels.solve_resolvent_modes, one node at a time: node i is the implicit
equation

    s_i * (1 + gamma*dt*(5/12)*a(0)) = 1 - gamma*dt * sum_{j < i} w_ij a(t_i - t_j) s_j,

with the trapezoid weights, -1/12 on both end columns and +1/12 next to
them (both on column 1 at i = 2), and the plain (1/2, 1/2) rule at node 1.
It is O(n_steps**2) per mode and serves as the reference the Toeplitz
solve is compared against.
"""

import numpy as np

from levyvolterra.kernels import eval_kernel


def solve_reference(kernel, gammas, grid) -> np.ndarray:
    """The (n_steps + 1, K) table s(t_i, gamma_k), solved node by node."""
    gammas = np.asarray(gammas, dtype=float)
    n, dt = grid.n_steps, grid.dt
    a_vals = np.asarray(eval_kernel(kernel, grid.nodes()), dtype=float)
    a_rev = a_vals[::-1].copy()  # a_rev[n - m] = a(t_m)
    a_twelfth = a_vals / 12.0
    gdt = gammas * dt
    s = np.empty((n + 1, gammas.size))
    s[0] = 1.0
    row = np.empty(n)
    with np.errstate(over="ignore", invalid="ignore"):
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
    return s
