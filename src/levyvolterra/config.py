"""Strict JSON run configuration: schema, parsing, and domain-object assembly."""

from __future__ import annotations

import json
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path

import numpy as np

from .grid import TimeGrid
from .kernels import KernelSpec
from .levy import (
    DiscreteMixture,
    GaussianJumps,
    JumpPart,
    LevyTriplet,
    PointMass,
)
from .spectral import SpectralModel, build_spectral_model

SCHEMA_VERSION = 1
# most work K * n_steps**2 a config may ask of the weak_solution_residual
# oracle, O(n_steps**2) per mode; long_grid (K = 8, n_steps = 4000) asks 1.28e8
SOLVE_WORK_BUDGET = 10**10
# most Monte Carlo normals n_samples * n_steps * K a config may ask for (the
# terminal values alone are n_samples * K floats); mc_jumps asks 8e7
NORMALS_BUDGET = 10**9
# most expected jumps per path, triplet.jump.rate * grid.t_end: each path
# draws that many jump times and marks; long_grid asks 10
JUMPS_PER_PATH_BUDGET = 10**4
# most jump work a config may ask for, on either of two estimates: the jumps
# verify-ecf draws, n_samples * rate * t_end, and the exact-time weights one
# convolution route builds, n_steps * rate * t_end * K; long_grid asks 3.2e5
JUMP_WORK_BUDGET = 10**8
# most ECF panel rows: build_panel and ecf_comparison loop over them in Python
PANEL_SIZE_BUDGET = 10**4


class ConfigError(Exception):
    """Config parse/schema violation; the CLI maps this to exit code 2."""


def _require_keys(section: dict, allowed: set, required: set, where: str):
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in {where}")
    for key in required:
        if key not in section:
            raise ConfigError(f"missing key {key!r} in {where}")


def _integer(value, where: str) -> int:
    """An integer-valued JSON number; booleans, strings and fractions are refused."""
    integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral:
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return int(value)


def _real(value, where: str) -> float:
    """A finite JSON number; booleans, strings, null and the rest are refused."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:  # an integer beyond the float range
            x = np.inf
        if np.isfinite(x):
            return x
    raise ConfigError(f"{where} must be a finite number, got {value!r}")


def _reals(value, where: str) -> np.ndarray:
    """A finite JSON number or (nested) array of them, as a float array."""
    pending = [value]
    while pending:
        item = pending.pop()
        if isinstance(item, list):
            pending.extend(item)
        else:
            _real(item, f"every entry of {where}")
    try:
        return np.asarray(value, dtype=float)
    except ValueError as exc:  # ragged nesting
        raise ConfigError(f"{where} must be a rectangular array: {exc}") from exc


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration plus the raw dict echoed into reports."""

    kernel: KernelSpec
    model: SpectralModel
    triplet: LevyTriplet
    grid: TimeGrid
    n_samples: int
    seed: int
    panel_size: int
    output_dir: str
    formats: tuple
    raw: dict


def _parse_kernel(section, where="kernel") -> KernelSpec:
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be an object")
    family = section.get("family")
    try:
        if family == "exponential":
            _require_keys(section, {"family", "rate"}, {"family", "rate"}, where)
            return KernelSpec.exponential(_real(section["rate"], f"{where}.rate"))
        if family == "constant":
            _require_keys(section, {"family", "level"}, {"family", "level"}, where)
            return KernelSpec.constant(_real(section["level"], f"{where}.level"))
        if family == "tabulated":
            _require_keys(section, {"family", "times", "values"}, {"family", "times", "values"}, where)
            return KernelSpec.tabulated(_reals(section["times"], f"{where}.times"),
                                       _reals(section["values"], f"{where}.values"))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid {where}: {exc}") from exc
    raise ConfigError(f"unknown kernel family {family!r} in {where}")


def _parse_model(section, dim: int) -> SpectralModel:
    """The spectral model; K must equal the triplet dimension dim.

    K is checked before the model is built, so a huge K allocates nothing.
    """
    if not isinstance(section, dict):
        raise ConfigError("model must be an object")
    _require_keys(section, {"K", "rule", "mu"}, {"K", "rule"}, "model")
    K = _integer(section["K"], "model.K")
    if K != dim:
        raise ConfigError(f"triplet dimension {dim} != model K {K}")
    try:
        if section["rule"] == "dirichlet_laplacian":
            if "mu" in section:
                raise ConfigError("model.mu is only valid with rule 'custom'")
            return build_spectral_model(K, "dirichlet_laplacian")
        if section["rule"] == "custom":
            if "mu" not in section:
                raise ConfigError("model rule 'custom' requires key 'mu'")
            return build_spectral_model(K, _reals(section["mu"], "model.mu"))
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid model: {exc}") from exc
    raise ConfigError(f"unknown model rule {section['rule']!r}")


def _parse_law(section):
    if not isinstance(section, dict):
        raise ConfigError("triplet.jump.law must be an object")
    kind = section.get("kind")
    try:
        if kind == "point_mass":
            _require_keys(section, {"kind", "mark"}, {"kind", "mark"}, "triplet.jump.law")
            return PointMass(_reals(section["mark"], "triplet.jump.law.mark"))
        if kind == "discrete_mixture":
            _require_keys(section, {"kind", "weights", "atoms"}, {"kind", "weights", "atoms"},
                          "triplet.jump.law")
            return DiscreteMixture(_reals(section["weights"], "triplet.jump.law.weights"),
                                   _reals(section["atoms"], "triplet.jump.law.atoms"))
        if kind == "gaussian":
            _require_keys(section, {"kind", "mean", "var"}, {"kind", "mean", "var"},
                          "triplet.jump.law")
            return GaussianJumps(_reals(section["mean"], "triplet.jump.law.mean"),
                                 _reals(section["var"], "triplet.jump.law.var"))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid triplet.jump.law: {exc}") from exc
    raise ConfigError(f"unknown jump law kind {kind!r}")


def _parse_triplet(section) -> LevyTriplet:
    if not isinstance(section, dict):
        raise ConfigError("triplet must be an object")
    _require_keys(section, {"drift", "gauss_var", "jump"}, {"drift", "gauss_var"}, "triplet")
    jump = None
    if section.get("jump") is not None:
        jsec = section["jump"]
        if not isinstance(jsec, dict):
            raise ConfigError("triplet.jump must be an object or null")
        _require_keys(jsec, {"rate", "law"}, {"rate", "law"}, "triplet.jump")
        try:
            jump = JumpPart(rate=_real(jsec["rate"], "triplet.jump.rate"), law=_parse_law(jsec["law"]))
        except ValueError as exc:
            raise ConfigError(f"invalid triplet.jump: {exc}") from exc
    try:
        return LevyTriplet(
            drift=_reals(section["drift"], "triplet.drift"),
            gauss_var=_reals(section["gauss_var"], "triplet.gauss_var"),
            jump=jump,
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid triplet: {exc}") from exc


def parse_config(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    allowed = {"schema_version", "kernel", "model", "triplet", "grid", "mc", "panel_size", "output"}
    required = {"schema_version", "kernel", "model", "triplet", "grid", "mc"}
    _require_keys(data, allowed, required, "config")
    if isinstance(data["schema_version"], bool) or data["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {data['schema_version']!r}")

    kernel = _parse_kernel(data["kernel"])
    triplet = _parse_triplet(data["triplet"])
    model = _parse_model(data["model"], triplet.dim)

    gsec = data["grid"]
    if not isinstance(gsec, dict):
        raise ConfigError("grid must be an object")
    _require_keys(gsec, {"t_end", "n_steps"}, {"t_end", "n_steps"}, "grid")
    n_steps = _integer(gsec["n_steps"], "grid.n_steps")
    try:
        grid = TimeGrid(_real(gsec["t_end"], "grid.t_end"), n_steps)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid grid: {exc}") from exc
    residual_work = model.K * n_steps**2
    if residual_work > SOLVE_WORK_BUDGET:
        raise ConfigError(f"grid.n_steps = {n_steps} at K = {model.K} needs a weak-solution "
                          f"residual of K * n_steps**2 = {Decimal(residual_work):.3g} steps, above "
                          f"the budget of {SOLVE_WORK_BUDGET:.3g}")
    # the same span tolerance eval_kernel applies to tabulated queries
    if kernel.family == "tabulated" and grid.t_end > kernel.times[-1] * (1 + 1e-12):
        raise ConfigError(f"tabulated kernel ends at t={kernel.times[-1]}, "
                          f"before grid.t_end={grid.t_end}")

    msec = data["mc"]
    if not isinstance(msec, dict):
        raise ConfigError("mc must be an object")
    _require_keys(msec, {"n_samples", "seed"}, {"n_samples", "seed"}, "mc")
    n_samples = _integer(msec["n_samples"], "mc.n_samples")
    seed = _integer(msec["seed"], "mc.seed")
    if n_samples < 1:
        raise ConfigError("mc.n_samples must be >= 1")
    if not 0 <= seed < 2**64:
        raise ConfigError("mc.seed must be a 64-bit unsigned value")
    normals = n_samples * n_steps * model.K
    if normals > NORMALS_BUDGET:
        raise ConfigError(f"mc.n_samples = {n_samples} at n_steps = {n_steps} and K = {model.K} "
                          f"needs n_samples * n_steps * K = {Decimal(normals):.3g} normals, "
                          f"above the budget of {NORMALS_BUDGET:.3g}")
    if triplet.jump is not None:
        jumps = triplet.jump.rate * grid.t_end
        if jumps > JUMPS_PER_PATH_BUDGET:
            raise ConfigError(f"triplet.jump.rate * grid.t_end = {jumps:.3g} expected jumps per "
                              f"path, above the budget of {JUMPS_PER_PATH_BUDGET:.3g}")
        drawn = n_samples * jumps
        if drawn > JUMP_WORK_BUDGET:
            raise ConfigError(f"mc.n_samples * triplet.jump.rate * grid.t_end = {drawn:.3g} jumps "
                              f"drawn by verify-ecf, above the budget of {JUMP_WORK_BUDGET:.3g}")
        weights = n_steps * jumps * model.K
        if weights > JUMP_WORK_BUDGET:
            raise ConfigError(f"grid.n_steps * triplet.jump.rate * grid.t_end * K = {weights:.3g} "
                              f"jump weights per convolution, above the budget of "
                              f"{JUMP_WORK_BUDGET:.3g}")

    panel_size = _integer(data.get("panel_size", 40), "panel_size")
    if panel_size < 1:
        raise ConfigError("panel_size must be >= 1")
    if panel_size > PANEL_SIZE_BUDGET:
        raise ConfigError(f"panel_size = {panel_size} is above the budget of "
                          f"{PANEL_SIZE_BUDGET:.3g} panel rows")

    osec = data.get("output", {"directory": "out", "formats": ["csv", "json"]})
    if not isinstance(osec, dict):
        raise ConfigError("output must be an object")
    _require_keys(osec, {"directory", "formats"}, {"directory"}, "output")
    directory = osec["directory"]
    if not (isinstance(directory, str) and directory):
        raise ConfigError(f"output.directory must be a non-empty string, got {directory!r}")
    formats = osec.get("formats", ["csv", "json"])
    if not isinstance(formats, list):
        raise ConfigError(f"output.formats must be a list of format names, got {formats!r}")
    for fmt in formats:
        if fmt not in ("csv", "json"):
            raise ConfigError(f"unknown output format {fmt!r}")

    return RunConfig(kernel=kernel, model=model, triplet=triplet, grid=grid,
                     n_samples=n_samples, seed=seed, panel_size=panel_size,
                     output_dir=directory, formats=tuple(formats), raw=data)


def load_config(path) -> RunConfig:
    """Parse and validate the JSON config file at path (strict mode)."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        data = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:  # a directory, no permission, not UTF-8
        raise ConfigError(f"cannot read config file {p}: {exc}") from exc
    return parse_config(data)
