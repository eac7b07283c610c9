"""In-memory span tracing of the levyvolterra layers, installed from outside.

The tracer replaces selected public functions with timing wrappers in every
``levyvolterra`` module namespace that holds them (``from .x import f`` makes
a second reference), so no package source changes.  Each wrapped call records
a span (name, start, end, parent span, op id, CPU time); a few functions are
wrapped as counters only, because they run once per Monte Carlo sample,
sometimes on worker threads.  Spans stay in memory until the run writes them.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict


def _family_key(model, kernel, grid):
    arrays = tuple(a.tobytes() for a in (kernel.times, kernel.values) if a is not None)
    return (model.mu.tobytes(), repr(kernel), arrays, grid.t_end, grid.n_steps)


def _gauss_normals(triplet, grid):
    """Normals one path stream draws for the Gaussian block (0 when skipped)."""
    return grid.n_steps * triplet.dim if (triplet.gauss_var > 0.0).any() else 0


def _count_family(tracer, args, kwargs, result):
    tracer.add("spectral.modes_solved", result.K)
    tracer.add("spectral.families_built", 1)
    tracer.note("spectral.family_keys", _family_key(result.model, result.kernel, result.grid))


def _count_path(tracer, args, kwargs, result):
    # sample_path(triplet, grid, ...) and coupled_sample_paths(triplet, fine_grid, ...)
    tracer.add("levy.normals_drawn", _gauss_normals(args[0], args[1]))


def _count_terminal(tracer, args, kwargs, result):
    family, triplet = args[0], args[1]
    tracer.add("levy.normals_drawn", result.shape[0] * _gauss_normals(triplet, family.grid))


def _count_route(tracer, args, kwargs, result):
    # both routes fold every past step into every node: K * n(n+1)/2
    n, K = result.grid.n_steps, result.dim
    tracer.add("convolution.madds_computed", K * n * (n + 1) // 2)


def _count_convolve_at(tracer, args, kwargs, result):
    node = args[2] if len(args) > 2 else kwargs["node_index"]
    tracer.add("convolution.madds_computed", result.shape[0] * int(node))


def _count_stream(tracer, args, kwargs, result):
    tracer.add("levy.streams_constructed", 1)
    tracer.note("levy.stream_keys", (int(args[0]), int(args[1])))


def _count_bytes(tracer, args, kwargs, result):
    tracer.add("reports.bytes_written", len(args[1].encode()))


# (module, function, counter hook); each becomes the span "<module>.<function>"
SPANNED = [
    ("kernels", "solve_scalar_resolvent", None),
    ("spectral", "build_resolvent_family", _count_family),
    ("spectral", "resolvent_equation_residual", None),
    ("levy", "sample_path", _count_path),
    ("levy", "coupled_sample_paths", _count_path),
    ("convolution", "stieltjes_convolution", _count_route),
    ("convolution", "parts_convolution", _count_route),
    ("convolution", "convolve_at", _count_convolve_at),
    ("verification", "weak_solution_residual", None),
    ("verification", "bounded_A_identity_residual", None),
    ("verification", "convergence_study", None),
    ("characterization", "terminal_values", _count_terminal),
    ("characterization", "predicted_log_cf", None),
    ("characterization", "predicted_triplet", None),
    ("characterization", "empirical_cf", None),
    ("characterization", "ecf_comparison", None),
    ("characterization", "gaussian_covariance_check", None),
    ("config", "load_config", None),
    ("reports", "write_json", None),
    ("reports", "write_csv", None),
    ("reports", "series_csv", None),
    ("cli", "cmd_resolvent", None),
    ("cli", "cmd_simulate", None),
    ("cli", "cmd_verify_parts", None),
    ("cli", "cmd_verify_weak", None),
    ("cli", "cmd_verify_ecf", None),
    ("cli", "cmd_study", None),
]

COUNTED = [
    ("levy", "sample_rng", _count_stream),
    ("reports", "atomic_write_text", _count_bytes),
]

ROOT = "op"


class Tracer:
    """Spans and counters of traced ops; inactive outside ``run_op`` calls."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, op_id, cpu_start, cpu_end]
        self.counts = defaultdict(float)  # (op_id, name) -> value
        self.notes = defaultdict(set)  # (op_id, name) -> distinct keys
        self._op_id = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched = []

    # -- recording ---------------------------------------------------------
    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, name, fn, args, kwargs):
        stack = self._stack()
        rec = [name, 0.0, 0.0, stack[-1] if stack else None, self._op_id, 0.0, 0.0]
        with self._lock:
            index = len(self.spans)
            self.spans.append(rec)
        stack.append(index)
        rec[5] = time.process_time()
        rec[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            rec[6] = time.process_time()
            stack.pop()

    def add(self, name, value):
        with self._lock:
            self.counts[(self._op_id, name)] += value

    def note(self, name, key):
        with self._lock:
            self.notes[(self._op_id, name)].add(key)

    def run_op(self, op_id, fn, *args):
        """Call fn(*args) as the root span of one traced op."""
        self._op_id = op_id
        try:
            return self._span(ROOT, fn, args, {})
        finally:
            self._op_id = None

    # -- installation ------------------------------------------------------
    def _wrapper(self, name, fn, hook, spanned):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op_id is None:
                return fn(*args, **kwargs)
            if spanned:
                result = self._span(name, fn, args, kwargs)
            else:
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def install(self, package="levyvolterra"):
        """Wrap every target in every loaded module of the package."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == package or key.startswith(package + "."))]
        for spanned, table in ((True, SPANNED), (False, COUNTED)):
            for mod_name, fn_name, hook in table:
                original = getattr(sys.modules[f"{package}.{mod_name}"], fn_name)
                wrapper = self._wrapper(f"{mod_name}.{fn_name}", original, hook, spanned)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- aggregation -------------------------------------------------------
    def self_times(self):
        """{(op_id, name): self seconds}: span time minus direct children's time."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[3] is not None:
                child[rec[3]] += rec[2] - rec[1]
        out = defaultdict(float)
        for i, rec in enumerate(self.spans):
            out[(rec[4], rec[0])] += (rec[2] - rec[1]) - child[i]
        return out

    def dump(self):
        keys = ("name", "start", "end", "parent", "op", "cpu_start", "cpu_end")
        return [dict(zip(keys, rec)) for rec in self.spans]
