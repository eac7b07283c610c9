"""Benchmark of the levyvolterra pipeline: one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N --seconds S --trace 0|1]

Run from the root of a source checkout; the package is imported from
``src/``.  For about S seconds a run sets up afresh (median reported as
setup_s) and then runs one op with a fresh per-op seed, again and again,
the determinism pass included.  With --trace 0 the last stdout line is the end-to-end result;
with --trace 1 every other op is traced and the per-layer metrics are
reported instead.  ``--workload all`` runs each workload in its own process
and prints one table.  See perfbench/README.md for the metric map.
"""

from __future__ import annotations

import os

# BLAS reads these when numpy loads, so they are pinned before any import of it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from tracing import SPANNED, Tracer  # noqa: E402
from workloads import WORKLOADS, Context  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_OPS = 11  # the tail percentile needs at least ten ops beyond it
TAIL_BEYOND = 10
PACKAGE = "levyvolterra"


def op_seed(workload_seed: int, index: int) -> int:
    return int(np.random.SeedSequence([workload_seed, index]).generate_state(1, np.uint64)[0])


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def environment(seed: int, workers: int) -> dict:
    cpu = platform.machine()  # platform.processor() would spawn `uname -p`
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cpu_model": cpu,
        "nproc": nproc(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "workers": workers,
        "workload_seed": seed,
    }


# -- set-up ------------------------------------------------------------------

def setup(workload, src: Path, config_dir: Path):
    """Fresh import of the package, config parse, and any family build."""
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for key in [k for k in sys.modules if k == PACKAGE or k.startswith(PACKAGE + ".")]:
        del sys.modules[key]
    gc.collect()  # free the previous import's module cycles outside the timed region
    start = time.perf_counter()
    lv = importlib.import_module(PACKAGE)
    cli = importlib.import_module(PACKAGE + ".cli")
    cfg = cli.load_config(Path(config_dir) / f"{workload.name}.json")
    family = lv.build_resolvent_family(cfg.model, cfg.kernel, cfg.grid) if workload.family_in_setup else None
    elapsed = time.perf_counter() - start
    if not Path(lv.__file__).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"{PACKAGE} imported from {lv.__file__}, not from {src}")
    return elapsed, Context(lv=lv, cli=cli, cfg=cfg, family=family)


# -- ops ---------------------------------------------------------------------

def attempt(workload, ctx, seed, workers, out: Path, tracer=None, op_id=None) -> dict:
    """One op, timed, then checked untimed; a failure is recorded, never raised."""
    out.mkdir(parents=True, exist_ok=True)
    rec = {"seed": seed, "workers": workers, "traced": tracer is not None, "error": None,
           "outcome": None}
    cpu0, t0 = time.process_time(), time.perf_counter()
    try:
        if tracer is None:
            raw = workload.op(ctx, seed, workers, out)
        else:
            raw = tracer.run_op(op_id, workload.op, ctx, seed, workers, out)
    except (Exception, SystemExit):  # boundary: a failing op must not end the run
        raw = None
        rec["error"] = traceback.format_exc()
    rec["wall_s"] = time.perf_counter() - t0
    rec["cpu_s"] = time.process_time() - cpu0
    if rec["error"] is None:
        try:
            outcome = workload.check(ctx, raw, out)
            rec["outcome"] = outcome
            if outcome.errors:
                rec["error"] = "; ".join(outcome.errors)
        except Exception:  # boundary: malformed output is a failed op
            rec["error"] = traceback.format_exc()
    shutil.rmtree(out, ignore_errors=True)
    return rec


def replay(workload, ctx, first: dict, workers: int, out: Path) -> dict:
    """Rerun the first op with its seed; differing output bytes fail the replay."""
    rec = attempt(workload, ctx, first["seed"], workers, out)
    if rec["error"] is None and first["outcome"] is not None \
            and rec["outcome"].digest != first["outcome"].digest:
        rec["error"] = f"determinism: output differs from op 0 at workers={workers}"
    return rec


def tail(values):
    """Highest nearest-rank percentile with TAIL_BEYOND values above it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    k = n - TAIL_BEYOND  # 1-based rank
    return ordered[k - 1], 100.0 * k / n


def run_workload(name, seed, seconds, trace, work_dir: Path, src: Path = ROOT / "src",
                 config_dir: Path = HERE / "configs", min_ops=MIN_OPS, after_setup=None) -> dict:
    workload = WORKLOADS[name]
    workers = min(2, nproc())
    tracer = Tracer() if trace else None
    setups = []

    def fresh_setup():
        # a set-up before every op spreads the set-up samples over the whole
        # run, so host speed swings affect setup_s as they affect op times
        if tracer is not None:
            tracer.uninstall()
        elapsed, ctx = setup(workload, src, config_dir)
        setups.append(elapsed)
        if after_setup is not None:
            after_setup(ctx)
        if tracer is not None:
            tracer.install(PACKAGE)
        return ctx

    ops, replays = [], []
    deadline = time.perf_counter() + seconds
    try:
        while True:
            i = len(ops)
            traced = tracer is not None and i % 2 == 1
            ops.append(attempt(workload, fresh_setup(), op_seed(seed, i), workers,
                               work_dir / f"op{i}", tracer if traced else None, i))
            if i == 0:
                replays.append(replay(workload, fresh_setup(), ops[0], workers, work_dir / "replay"))
                if workload.replay_workers_1 and workers != 1:
                    replays.append(replay(workload, fresh_setup(), ops[0], 1, work_dir / "replay1"))
            expected = statistics.median(r["wall_s"] for r in ops) + statistics.median(setups)
            if len(ops) >= min_ops and time.perf_counter() + expected > deadline:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()

    attempted = ops + replays
    failed = [r for r in attempted if r["error"] is not None]
    result = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "env": environment(seed, workers),
        "setup_s_all": setups,
        "ops": [{k: v for k, v in r.items() if k != "outcome"} for r in ops],
        "replays": [{k: v for k, v in r.items() if k != "outcome"} for r in replays],
        "attempted": len(attempted),
        "failed": len(failed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    plain = [r for r in ops if not r["traced"]]
    walls = [r["wall_s"] for r in plain]
    tail_value, tail_pct = tail(walls)
    result["tail_percentile"] = tail_pct
    result["timed_ops"] = len(plain)
    result["end_to_end"] = {
        "setup_s": (statistics.median(setups), "s"),
        "op_s_p50": (statistics.median(walls), "s"),
        "op_s_tail": (tail_value, "s"),
        "cpu_s_p50": (statistics.median(r["cpu_s"] for r in plain), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "ops_ok_frac": ((len(attempted) - len(failed)) / len(attempted), "ratio"),
    }
    if tracer is not None:
        result["per_layer"] = per_layer(tracer, ops)
        result["spans"] = tracer.dump()
    return result


# -- per-layer aggregation ---------------------------------------------------

def per_layer(tracer: Tracer, ops) -> dict:
    """Per-op means over the traced ops, so self times add up to the op wall."""
    traced = [i for i, r in enumerate(ops) if r["traced"]]
    plain = [r["wall_s"] for r in ops if not r["traced"]]
    n = len(traced)
    selfs = tracer.self_times()

    def mean_self(name):
        return sum(selfs.get((i, name), 0.0) for i in traced) / n

    def mean_count(name):
        return sum(tracer.counts.get((i, name), 0.0) for i in traced) / n

    def distinct_ratio(note, count):
        total = sum(tracer.counts.get((i, count), 0.0) for i in traced)
        distinct = sum(len(tracer.notes.get((i, note), ())) for i in traced)
        return distinct / total if total else 0.0

    out = {}
    names = [f"{m}.{f}" for m, f, _ in SPANNED]
    for name in names:
        out[f"{name}_s"] = (mean_self(name), "s")
    out["spectral.modes_solved"] = (mean_count("spectral.modes_solved"), "count")
    out["spectral.family_distinct_ratio"] = (
        distinct_ratio("spectral.family_keys", "spectral.families_built"), "ratio")
    out["levy.streams_constructed"] = (mean_count("levy.streams_constructed"), "count")
    out["levy.stream_distinct_ratio"] = (
        distinct_ratio("levy.stream_keys", "levy.streams_constructed"), "ratio")
    out["levy.normals_drawn"] = (mean_count("levy.normals_drawn"), "count")
    madds = mean_count("convolution.madds_computed")
    conv_s = sum(mean_self(f"convolution.{f}")
                 for f in ("stieltjes_convolution", "parts_convolution", "convolve_at"))
    out["convolution.madds_computed"] = (madds, "count")
    out["convolution.madd_rate"] = (madds / conv_s if conv_s else 0.0, "1/s")
    tv = [s for s in tracer.spans if s[0] == "characterization.terminal_values" and s[4] in traced]
    tv_wall = sum(s[2] - s[1] for s in tv)
    out["characterization.cpu_per_wall"] = (
        sum(s[6] - s[5] for s in tv) / tv_wall if tv_wall else 0.0, "ratio")
    outcomes = [ops[i]["outcome"] for i in traced if ops[i]["outcome"] is not None]
    out["characterization.law_checks_failed"] = (
        sum(o.law_checks_failed for o in outcomes) / n, "count")
    out["reports.bytes_written"] = (mean_count("reports.bytes_written"), "B")
    out["cli.checks_failed"] = (sum(o.checks_failed for o in outcomes) / n, "count")
    traced_walls = [ops[i]["wall_s"] for i in traced]
    layer_sum = sum(mean_self(name) for name in names)
    out["trace.op_s_p50"] = (statistics.median(traced_walls), "s")
    out["trace.overhead_s"] = (statistics.median(traced_walls) - statistics.median(plain), "s")
    out["trace.unattributed_s"] = (statistics.fmean(traced_walls) - layer_sum, "s")
    out["trace.ops"] = (n, "count")
    return out


# -- entry points ------------------------------------------------------------

def _print_result(result):
    print("env: " + json.dumps(result["env"], sort_keys=True))
    key = "per_layer" if result["trace"] else "end_to_end"
    for metric, (value, unit) in result[key].items():
        print(f"{result['workload']:>10} {metric:<48} {value:>16.6g} {unit}")
    counts = (f"{result['workload']:>10} attempted {result['attempted']}, failed {result['failed']}"
              f" (ops_failed_frac {result['failed'] / result['attempted']:.6g})")
    if not result["trace"]:
        counts += (f"; {result['timed_ops']} ops timed, op_s_tail is"
                   f" p{result['tail_percentile']:.1f}")
    print(counts)
    for rec in result["ops"] + result["replays"]:
        if rec["error"] is not None:
            print(f"failed op (seed {rec['seed']}): {rec['error']}", file=sys.stderr)


def run_one(args) -> int:
    src = ROOT / "src"
    if not (src / PACKAGE / "__init__.py").is_file():
        print(f"error: {src / PACKAGE} not found; run from a source checkout", file=sys.stderr)
        return 2
    work_dir = ROOT / ".perfbench_work" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    (work_dir / "result.json").write_text(json.dumps(result, default=str, indent=1))
    _print_result(result)
    key = "per_layer" if args.trace else "end_to_end"
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in result[key].items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another; a summary table."""
    table = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        table[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(table, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be a non-negative 63-bit integer")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
