"""Self-tests of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_selftest.py -q

They check that every metric named in BENCHMARK.json is emitted with its
unit, that no op fails at these sizes, and that an op that raises, breaks a
gate or is not reproducible is counted as failed instead of ending the run.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (pins BLAS threads before numpy is used)

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = {
    "cli_all": {"grid": {"t_end": 1.0, "n_steps": 100}, "mc": {"n_samples": 1000, "seed": 1}},
    "long_grid": {"grid": {"t_end": 1.0, "n_steps": 100}, "model": {"K": 3, "rule": "dirichlet_laplacian"},
                  "triplet": {"drift": [0.3, -0.2, 0.1], "gauss_var": [0.5, 0.25, 0.2],
                              "jump": {"rate": 10.0, "law": {"kind": "point_mass",
                                                             "mark": [0.6, -0.4, 0.3]}}}},
    "mc_gauss": {"grid": {"t_end": 1.0, "n_steps": 50}, "mc": {"n_samples": 1000, "seed": 1},
                 "panel_size": 8},
    "mc_jumps": {"grid": {"t_end": 1.0, "n_steps": 50}, "mc": {"n_samples": 1000, "seed": 1},
                 "panel_size": 8},
}


@pytest.fixture(scope="module")
def tiny_configs(tmp_path_factory):
    out = tmp_path_factory.mktemp("configs")
    for name, override in TINY.items():
        cfg = json.loads((HERE / "configs" / f"{name}.json").read_text())
        cfg.update(override)
        (out / f"{name}.json").write_text(json.dumps(cfg))
    return out


def tiny_run(name, trace, tmp_path, configs, after_setup=None):
    return run.run_workload(name, seed=5, seconds=0, trace=trace, work_dir=tmp_path / "work",
                            config_dir=configs, min_ops=3,
                            after_setup=after_setup)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_every_metric_emitted_with_unit(name, trace, tmp_path, tiny_configs):
    result = tiny_run(name, trace, tmp_path, tiny_configs)
    assert result["failed"] == 0, [r["error"] for r in result["ops"] + result["replays"]]
    metrics = result["per_layer" if trace else "end_to_end"]
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(metrics) == {m["name"] for m in spec}
    for m in spec:
        value, unit = metrics[m["name"]]
        assert unit == m["unit"]
        assert isinstance(value, (int, float)) and math.isfinite(value)
    if not trace:
        assert result["end_to_end"]["ops_ok_frac"][0] == 1.0
        assert all(metrics[m["name"]][0] > 0 for m in spec)


def test_traced_self_times_add_up_to_op_wall(tmp_path, tiny_configs):
    result = tiny_run("long_grid", 1, tmp_path, tiny_configs)
    layers = result["per_layer"]
    self_sum = sum(v for k, (v, unit) in layers.items()
                   if k.endswith("_s") and not k.startswith("trace."))
    traced = [r["wall_s"] for r in result["ops"] if r["traced"]]
    assert self_sum + layers["trace.unattributed_s"][0] == pytest.approx(np.mean(traced))
    assert layers["convolution.stieltjes_convolution_s"][0] > 0
    assert layers["spectral.modes_solved"][0] == 3


def test_raising_op_is_counted_not_fatal(tmp_path, tiny_configs):
    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    def inject(ctx):
        ctx.lv.parts_convolution = broken

    result = tiny_run("long_grid", 0, tmp_path, tiny_configs, inject)
    assert result["failed"] == result["attempted"] >= 3
    assert "injected" in result["ops"][0]["error"]
    assert result["end_to_end"]["ops_ok_frac"][0] == 0.0


def test_gate_break_is_counted(tmp_path, tiny_configs):
    def inject(ctx):
        original = ctx.lv.parts_convolution

        def skewed(family, path, *args, **kwargs):
            conv = original(family, path, *args, **kwargs)
            return type(conv)(grid=conv.grid, values=conv.values * (1 + 1e-9), method="parts")

        ctx.lv.parts_convolution = skewed

    result = tiny_run("long_grid", 0, tmp_path, tiny_configs, inject)
    assert result["failed"] == result["attempted"]
    assert "parts discrepancy" in result["ops"][0]["error"]


def test_nondeterministic_op_fails_determinism_pass(tmp_path, tiny_configs):
    calls = []

    def inject(ctx):
        original = ctx.lv.ecf_comparison

        def drifting(family, triplet, t, panel_size, n_samples, seed, *args, **kwargs):
            calls.append(seed)
            return original(family, triplet, t, panel_size, n_samples, seed + len(calls),
                            *args, **kwargs)

        ctx.lv.ecf_comparison = drifting

    result = tiny_run("mc_jumps", 0, tmp_path, tiny_configs, inject)
    assert all(r["error"] is None for r in result["ops"])
    assert result["replays"] and all(r["error"].startswith("determinism") for r in result["replays"])
    assert result["failed"] == len(result["replays"])


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "mc_jumps", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
