"""Strict JSON run configuration: schema, parsing, and domain-object assembly."""

from __future__ import annotations

import json
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path

import numpy as np

from .grid import TimeGrid
from .kernels import KernelSpec, eval_kernel
from .levy import DiscreteMixture, GaussianJumps, JumpPart, LevyTriplet, PointMass
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


def _object(value, where: str, keys, optional=()) -> dict:
    """value as a JSON object with every key of keys and none outside keys and optional."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be an object")
    for key in value:
        if key not in keys and key not in optional:
            raise ConfigError(f"unknown key {key!r} in {where}")
    for key in keys:
        if key not in value:
            raise ConfigError(f"missing key {key!r} in {where}")
    return value


def _refuse_above(work, budget, estimate: str):
    """Refuse a config whose work exceeds budget; estimate says what it would be."""
    if work > budget:
        raise ConfigError(f"{estimate}, above the budget of {budget:.3g}")


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


# each kind: its constructor and the (field, reader) pairs of its arguments
_KERNEL_FAMILIES = {
    "exponential": (KernelSpec.exponential, ("rate", _real)),
    "constant": (KernelSpec.constant, ("level", _real)),
    "tabulated": (KernelSpec.tabulated, ("times", _reals), ("values", _reals)),
}
_JUMP_LAWS = {
    "point_mass": (PointMass, ("mark", _reals)),
    "discrete_mixture": (DiscreteMixture, ("weights", _reals), ("atoms", _reals)),
    "gaussian": (GaussianJumps, ("mean", _reals), ("var", _reals)),
}


def _parse_kind(section, where: str, tag: str, kinds: dict):
    """The object kinds[section[tag]] builds from the section's fields."""
    kind = _object(section, where, (tag,), optional=section)[tag]  # any key until kind is known
    if not (isinstance(kind, str) and kind in kinds):
        raise ConfigError(f"unknown {tag} {kind!r} in {where}")
    build, *fields = kinds[kind]
    _object(section, where, (tag, *(name for name, _ in fields)))
    try:
        return build(*(read(section[name], f"{where}.{name}") for name, read in fields))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid {where}: {exc}") from exc


def _parse_model(section, dim: int) -> SpectralModel:
    """The spectral model; K must equal the triplet dimension dim.

    K is checked before the model is built, so a huge K allocates nothing.
    """
    rule = _object(section, "model", ("K", "rule"), optional=("mu",))["rule"]
    K = _integer(section["K"], "model.K")
    if K != dim:
        raise ConfigError(f"triplet dimension {dim} != model K {K}")
    if rule not in ("dirichlet_laplacian", "custom"):
        raise ConfigError(f"unknown rule {rule!r} in model")
    if ("mu" in section) != (rule == "custom"):
        raise ConfigError("model.mu is required with rule 'custom' and refused with any other")
    spectrum = _reals(section["mu"], "model.mu") if rule == "custom" else rule
    try:
        return build_spectral_model(K, spectrum)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid model: {exc}") from exc


def _parse_triplet(section) -> LevyTriplet:
    section = _object(section, "triplet", ("drift", "gauss_var"), optional=("jump",))
    jump = section.get("jump")
    if jump is not None:
        if not isinstance(jump, dict):
            raise ConfigError("triplet.jump must be an object or null")
        _object(jump, "triplet.jump", ("rate", "law"))
        try:
            jump = JumpPart(rate=_real(jump["rate"], "triplet.jump.rate"),
                            law=_parse_kind(jump["law"], "triplet.jump.law", "kind", _JUMP_LAWS))
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
    _object(data, "config", ("schema_version", "kernel", "model", "triplet", "grid", "mc"),
            optional=("panel_size", "output"))
    if isinstance(data["schema_version"], bool) or data["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {data['schema_version']!r}")

    kernel = _parse_kind(data["kernel"], "kernel", "family", _KERNEL_FAMILIES)
    triplet = _parse_triplet(data["triplet"])
    model = _parse_model(data["model"], triplet.dim)
    K = model.K

    gsec = _object(data["grid"], "grid", ("t_end", "n_steps"))
    n_steps = _integer(gsec["n_steps"], "grid.n_steps")
    try:
        grid = TimeGrid(_real(gsec["t_end"], "grid.t_end"), n_steps)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid grid: {exc}") from exc
    residual_work = K * n_steps**2
    _refuse_above(residual_work, SOLVE_WORK_BUDGET,
                  f"grid.n_steps = {n_steps} at K = {K} needs a weak-solution residual of "
                  f"K * n_steps**2 = {Decimal(residual_work):.3g} steps")
    try:  # a tabulated kernel must span the grid
        eval_kernel(kernel, grid.t_end)
    except ValueError as exc:
        raise ConfigError(f"invalid kernel: {exc}") from exc

    msec = _object(data["mc"], "mc", ("n_samples", "seed"))
    n_samples = _integer(msec["n_samples"], "mc.n_samples")
    seed = _integer(msec["seed"], "mc.seed")
    if n_samples < 1:
        raise ConfigError("mc.n_samples must be >= 1")
    if not 0 <= seed < 2**64:
        raise ConfigError("mc.seed must be a 64-bit unsigned value")
    normals = n_samples * n_steps * K
    _refuse_above(normals, NORMALS_BUDGET,
                  f"mc.n_samples = {n_samples} at n_steps = {n_steps} and K = {K} needs "
                  f"n_samples * n_steps * K = {Decimal(normals):.3g} normals")
    if triplet.jump is not None:
        jumps = triplet.jump.rate * grid.t_end
        _refuse_above(jumps, JUMPS_PER_PATH_BUDGET,
                      f"triplet.jump.rate * grid.t_end = {jumps:.3g} expected jumps per path")
        _refuse_above(n_samples * jumps, JUMP_WORK_BUDGET,
                      f"mc.n_samples * triplet.jump.rate * grid.t_end = {n_samples * jumps:.3g} "
                      f"jumps drawn by verify-ecf")
        _refuse_above(n_steps * jumps * K, JUMP_WORK_BUDGET,
                      f"grid.n_steps * triplet.jump.rate * grid.t_end * K = "
                      f"{n_steps * jumps * K:.3g} jump weights per convolution")

    panel_size = _integer(data.get("panel_size", 40), "panel_size")
    if panel_size < 1:
        raise ConfigError("panel_size must be >= 1")
    if panel_size > PANEL_SIZE_BUDGET:
        raise ConfigError(f"panel_size = {panel_size} is above the budget of "
                          f"{PANEL_SIZE_BUDGET:.3g} panel rows")

    osec = _object(data.get("output", {"directory": "out"}), "output", ("directory",),
                   optional=("formats",))
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
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:  # a directory, no permission, not UTF-8
        raise ConfigError(f"cannot read config file {p}: {exc}") from exc
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad syntax, a too-long integer, deep nesting
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(data)
