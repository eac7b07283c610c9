"""Strict JSON run configuration: schema, parsing, and domain-object assembly."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .grid import TimeGrid
from .kernels import KernelSpec
from .levy import DiscreteMixture, GaussianJumps, JumpPart, LevyTriplet, PointMass
from .spectral import SpectralModel, build_spectral_model

SCHEMA_VERSION = 1


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
            return KernelSpec.exponential(float(section["rate"]))
        if family == "constant":
            _require_keys(section, {"family", "level"}, {"family", "level"}, where)
            return KernelSpec.constant(float(section["level"]))
        if family == "tabulated":
            _require_keys(section, {"family", "times", "values"}, {"family", "times", "values"}, where)
            return KernelSpec.tabulated(section["times"], section["values"])
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid {where}: {exc}") from exc
    raise ConfigError(f"unknown kernel family {family!r} in {where}")


def _parse_model(section) -> SpectralModel:
    if not isinstance(section, dict):
        raise ConfigError("model must be an object")
    _require_keys(section, {"K", "rule", "mu"}, {"K", "rule"}, "model")
    try:
        K = _integer(section["K"], "model.K")
        if section["rule"] == "dirichlet_laplacian":
            if "mu" in section:
                raise ConfigError("model.mu is only valid with rule 'custom'")
            return build_spectral_model(K, "dirichlet_laplacian")
        if section["rule"] == "custom":
            if "mu" not in section:
                raise ConfigError("model rule 'custom' requires key 'mu'")
            return build_spectral_model(K, [float(m) for m in section["mu"]])
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
            return PointMass(np.asarray(section["mark"], dtype=float))
        if kind == "discrete_mixture":
            _require_keys(section, {"kind", "weights", "atoms"}, {"kind", "weights", "atoms"},
                          "triplet.jump.law")
            return DiscreteMixture(np.asarray(section["weights"], dtype=float),
                                   np.asarray(section["atoms"], dtype=float))
        if kind == "gaussian":
            _require_keys(section, {"kind", "mean", "var"}, {"kind", "mean", "var"},
                          "triplet.jump.law")
            return GaussianJumps(np.asarray(section["mean"], dtype=float),
                                 np.asarray(section["var"], dtype=float))
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
            jump = JumpPart(rate=float(jsec["rate"]), law=_parse_law(jsec["law"]))
        except ValueError as exc:
            raise ConfigError(f"invalid triplet.jump: {exc}") from exc
    try:
        return LevyTriplet(
            drift=np.asarray(section["drift"], dtype=float),
            gauss_var=np.asarray(section["gauss_var"], dtype=float),
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
    model = _parse_model(data["model"])
    triplet = _parse_triplet(data["triplet"])

    gsec = data["grid"]
    if not isinstance(gsec, dict):
        raise ConfigError("grid must be an object")
    _require_keys(gsec, {"t_end", "n_steps"}, {"t_end", "n_steps"}, "grid")
    n_steps = _integer(gsec["n_steps"], "grid.n_steps")
    try:
        grid = TimeGrid(float(gsec["t_end"]), n_steps)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid grid: {exc}") from exc
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

    panel_size = _integer(data.get("panel_size", 40), "panel_size")
    if panel_size < 1:
        raise ConfigError("panel_size must be >= 1")

    osec = data.get("output", {"directory": "out", "formats": ["csv", "json"]})
    if not isinstance(osec, dict):
        raise ConfigError("output must be an object")
    _require_keys(osec, {"directory", "formats"}, {"directory"}, "output")
    formats = tuple(osec.get("formats", ["csv", "json"]))
    for fmt in formats:
        if fmt not in ("csv", "json"):
            raise ConfigError(f"unknown output format {fmt!r}")

    if triplet.dim != model.K:
        raise ConfigError(f"triplet dimension {triplet.dim} != model K {model.K}")

    return RunConfig(kernel=kernel, model=model, triplet=triplet, grid=grid,
                     n_samples=n_samples, seed=seed, panel_size=panel_size,
                     output_dir=str(osec["directory"]), formats=formats, raw=data)


def load_config(path) -> RunConfig:
    """Parse and validate the JSON config file at path (strict mode)."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        data = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(data)
