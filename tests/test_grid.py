import copy
import dataclasses
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import levyvolterra
from levyvolterra import (
    ConvergenceStudy,
    ConvolutionPath,
    CovarianceCheck,
    DiscreteMixture,
    EcfReport,
    EcfRow,
    GaussianJumps,
    JumpPart,
    KernelSpec,
    LevyTriplet,
    PointMass,
    PredictedTriplet,
    ResidualProfile,
    ResolventFamily,
    SamplePath,
    SpectralModel,
    StudyConfig,
    TagRule,
    TimeGrid,
    build_resolvent_family,
    certify_resolvent_properties,
)
from levyvolterra.config import RunConfig, parse_config

EXAMPLE_CONFIG = Path(__file__).parents[1] / "example-config.json"
GRID4 = TimeGrid(1.0, 4)

# each value object: a build from the caller's named float arrays, those
# arrays, and the names of every array the object exposes
VALUE_OBJECTS = {
    "PointMass": (lambda a: PointMass(a["mark"]), {"mark": [0.6, -0.4]}, ("mark",)),
    "DiscreteMixture": (
        lambda a: DiscreteMixture(a["weights"], a["atoms"]),
        {"weights": [0.5, 0.0, 0.5], "atoms": [[0.5, 0.2], [9.0, -9.0], [-0.4, 0.1]]},
        ("weights", "atoms", "cdf")),
    "GaussianJumps": (lambda a: GaussianJumps(a["mean"], a["var"]),
                      {"mean": [0.2, -0.1], "var": [0.5, 0.3]}, ("mean", "var")),
    "JumpPart": (lambda a: JumpPart(2.0, PointMass(a["mark"])), {"mark": [0.6, -0.4]},
                 ("compensator",)),
    "LevyTriplet": (lambda a: LevyTriplet(a["drift"], a["gauss_var"]),
                    {"drift": [0.3, -0.2], "gauss_var": [0.5, 0.25]}, ("drift", "gauss_var")),
    "SamplePath": (
        lambda a: SamplePath(GRID4, a["drift"], a["gauss"], a["times"], a["marks"]),
        {"drift": [0.3, -0.2], "gauss": np.arange(8.0).reshape(4, 2) / 10.0,
         "times": [0.3, 0.7], "marks": [[0.6, -0.4], [0.1, 0.2]]},
        ("drift", "gauss_increments", "jump_times", "jump_marks", "values")),
    "SpectralModel": (lambda a: SpectralModel(2, a["mu"]), {"mu": [1.0, 4.0]}, ("mu",)),
    "ResolventFamily": (
        lambda a: ResolventFamily(SpectralModel(2, np.zeros(2)), KernelSpec.exponential(),
                                  GRID4, a["s_matrix"]),
        {"s_matrix": np.ones((5, 2))}, ("s_matrix",)),
    "ResidualProfile": (lambda a: ResidualProfile(GRID4, a["residuals"]),
                        {"residuals": np.zeros((5, 2))}, ("residuals",)),
    "ConvolutionPath": (lambda a: ConvolutionPath(GRID4, a["values"], "stieltjes"),
                        {"values": np.ones((5, 2))}, ("values",)),
    "PredictedTriplet": (lambda a: PredictedTriplet(1.0, a["alpha"], a["q_diag"], 1.5),
                         {"alpha": [0.1, 0.2], "q_diag": [0.3, 0.4]}, ("alpha", "q_diag")),
    "KernelSpec.tabulated": (lambda a: KernelSpec.tabulated(a["times"], a["values"]),
                             {"times": [0.0, 0.5, 1.0], "values": [1.0, 0.6, 0.4]},
                             ("times", "values")),
}


def test_nodes_uniform():
    g = TimeGrid(2.0, 8)
    nodes = g.nodes()
    assert nodes[0] == 0.0
    assert nodes[-1] == pytest.approx(2.0, abs=1e-15)
    assert np.allclose(np.diff(nodes), g.dt)


def test_validation():
    with pytest.raises(ValueError):
        TimeGrid(0.0, 10)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0)
    with pytest.raises(ValueError):
        TimeGrid(-1.0, 5)


def test_node_index_roundtrip():
    g = TimeGrid(1.0, 1000)
    for i in (0, 1, 499, 1000):
        assert g.node_index(g.nodes()[i]) == i
    with pytest.raises(ValueError):
        g.node_index(0.00037)
    with pytest.raises(ValueError):
        g.node_index(1.5)


def test_coarsened():
    g = TimeGrid(1.0, 1000)
    c = g.coarsened(4)
    assert c.n_steps == 250 and c.t_end == 1.0
    assert np.array_equal(c.nodes(), g.nodes()[::4])
    with pytest.raises(ValueError):
        g.coarsened(3)


@pytest.mark.parametrize("view", [False, True], ids=["array", "view"])
@pytest.mark.parametrize("name", sorted(VALUE_OBJECTS))
def test_value_objects_hold_read_only_copies(name, view):
    # the caller passes its own arrays, or views of the first row of arrays
    # it owns, and keeps writing them afterwards
    build, inputs, exposed = VALUE_OBJECTS[name]
    owned = {key: np.array([value, value] if view else value, dtype=float)
             for key, value in inputs.items()}
    given = {key: arr[0] if view else arr for key, arr in owned.items()}
    obj = build(given)
    arrays = {attr: getattr(obj, attr) for attr in exposed}
    assert {k for k, v in vars(obj).items() if isinstance(v, np.ndarray)} == set(exposed)
    before = {attr: arr.copy() for attr, arr in arrays.items()}
    for attr, arr in arrays.items():
        assert not arr.flags.writeable, attr
        for key, mine in owned.items():
            assert not np.shares_memory(arr, mine), (attr, key)
    for key, mine in owned.items():
        assert mine.flags.writeable and given[key].flags.writeable, key
        mine[...] = 7.0
    for attr, arr in arrays.items():
        assert np.array_equal(arr, before[attr]), attr


# -- the value-class contract ----------------------------------------------------

PACKAGE_MODULES = [importlib.import_module(f"levyvolterra.{info.name}")
                   for info in pkgutil.iter_modules(levyvolterra.__path__)]
# every frozen record in the package: each class defines its own __setattr__
VALUE_CLASSES = sorted({cls for module in PACKAGE_MODULES for cls in vars(module).values()
                        if isinstance(cls, type) and cls.__module__ == module.__name__
                        and "__setattr__" in vars(cls)}, key=lambda cls: cls.__name__)
# fields that __post_init__ derives, so they are not constructor arguments
NOT_ARGUMENTS = {"DiscreteMixture": {"cdf"}, "SamplePath": {"values"}}


def _arguments(cls):
    return [name for name in cls.__annotations__ if name not in NOT_ARGUMENTS.get(cls.__name__, ())]


def _value_class_examples():
    """One instance of each value class: the VALUE_OBJECTS builds and the rest."""
    levels = [build_resolvent_family(SpectralModel(2, [1.0, 4.0]), KernelSpec.exponential(),
                                     GRID4.coarsened(f)) for f in (4, 2, 1)]
    row = EcfRow(np.array([0.5, 0.0]), 0.9 + 0.1j, 0.88 + 0.11j, 0.03, 0.02, 0.8)
    examples = [build(inputs) for build, inputs, _ in VALUE_OBJECTS.values()] + [
        GRID4, row,
        EcfReport(1.0, 1000, 7, TagRule.LEFT, (row,)),
        CovarianceCheck(1.0, 1000, 7, np.array([0.3, 0.4]), np.array([0.31, 0.38]),
                        np.array([0.4, -0.9])),
        certify_resolvent_properties(levels[-1].s_matrix, 1e-10),
        parse_config(json.loads(EXAMPLE_CONFIG.read_text())),
        StudyConfig("resolvent_error", levels),
        ConvergenceStudy("resolvent_error", np.array([0.5, 0.25, 0.125]),
                         np.array([1e-2, 2.5e-3, 6e-4]), None),
    ]
    return {type(obj): obj for obj in examples}


@pytest.fixture(scope="module")
def examples():
    return _value_class_examples()


def _same(a, b):
    """Equal field for field: arrays by value, records and tuples recursively."""
    if "__setattr__" in vars(type(a)):
        return type(a) is type(b) and all(_same(getattr(a, name), getattr(b, name))
                                          for name in type(a).__annotations__)
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and np.array_equal(a, b)
    if isinstance(a, tuple):
        return isinstance(b, tuple) and len(a) == len(b) and all(map(_same, a, b))
    return a == b


def test_one_helper_makes_every_value_class(examples):
    assert set(VALUE_CLASSES) == set(examples)
    for cls in VALUE_CLASSES:
        assert cls.__setattr__ is TimeGrid.__setattr__ and not dataclasses.is_dataclass(cls), cls


@pytest.mark.parametrize("cls", VALUE_CLASSES, ids=lambda cls: cls.__name__)
def test_value_class_fields_are_frozen(cls, examples):
    obj = examples[cls]
    for name in [*cls.__annotations__, "not_a_field"]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(obj, name)


@pytest.mark.parametrize("cls", VALUE_CLASSES, ids=lambda cls: cls.__name__)
def test_value_class_takes_arguments_by_position_or_keyword(cls, examples):
    names = _arguments(cls)
    args = [getattr(examples[cls], name) for name in names]
    by_position, by_keyword = cls(*args), cls(**dict(zip(names, args)))
    assert _same(by_position, examples[cls]) and _same(by_keyword, examples[cls])
    bad_calls = [((*args, 0), {}),  # one too many by position
                 (args, {"not_a_field": 0}),
                 (args, {names[0]: args[0]})]  # a name given twice
    bad_calls += [([], {n: a for n, a in zip(names, args) if n != name})
                  for name in names if name not in vars(cls)]  # each required argument left out
    for call_args, call_kwargs in bad_calls:
        with pytest.raises(TypeError):
            cls(*call_args, **call_kwargs)


def test_derived_fields_are_not_arguments(examples):
    mixture, path = examples[DiscreteMixture], examples[SamplePath]
    with pytest.raises(TypeError):
        DiscreteMixture(mixture.weights, mixture.atoms, cdf=mixture.cdf)
    with pytest.raises(TypeError):
        DiscreteMixture(mixture.weights, mixture.atoms, mixture.cdf)
    with pytest.raises(TypeError):
        SamplePath(path.grid, path.drift, path.gauss_increments, path.jump_times, path.jump_marks,
                   values=path.values)


def test_value_class_defaults():
    spec = KernelSpec("exponential")
    assert (spec.rate, spec.level, spec.times, spec.values) == (1.0, 1.0, None, None)
    assert spec == KernelSpec.exponential()


def test_time_grid_equality_hash_and_repr():
    grid = TimeGrid(1.0, 1000)
    assert grid == TimeGrid(t_end=1.0, n_steps=1000) and grid != TimeGrid(1.0, 500)
    assert grid.coarsened(1) == grid and grid.coarsened(1) is not grid
    families = {grid: "fine", grid.coarsened(2): "coarse"}
    assert families[TimeGrid(1.0, 1000)] == "fine" and families[TimeGrid(1.0, 500)] == "coarse"
    assert repr(grid) == "TimeGrid(t_end=1.0, n_steps=1000)"


def test_repr_leaves_out_hidden_fields(examples):
    assert repr(examples[KernelSpec]) == "KernelSpec(family='tabulated', rate=1.0, level=1.0)"
    assert "cdf=" not in repr(examples[DiscreteMixture])
    assert "values=" not in repr(examples[SamplePath])


@pytest.mark.parametrize("cls", [RunConfig, SamplePath], ids=lambda cls: cls.__name__)
def test_deepcopy_stays_frozen_and_equal(cls, examples):
    original = examples[cls]
    clone = copy.deepcopy(original)
    assert clone is not original and _same(clone, original)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(clone, _arguments(cls)[0], None)


def test_importing_the_package_generates_no_code():
    # the stdlib and numpy modules the package imports are loaded first, so
    # the hook sees only what importing the package itself compiles; source
    # files compile under their own names, code built from strings as <string>
    script = (
        "import argparse, concurrent.futures, csv, dataclasses, datetime, decimal, enum, functools\n"
        "import io, json, math, os, pathlib, sys, time, typing\n"
        "import numpy, numpy.lib.stride_tricks\n"
        "compiled = []\n"
        "sys.addaudithook(lambda event, args: event == 'compile' and compiled.append(args[1]))\n"
        "import levyvolterra.cli\n"
        "print(sum(name == '<string>' for name in compiled))\n")
    src = Path(levyvolterra.__file__).parents[1]
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env,
                          timeout=60, check=True)
    assert done.stdout.strip() == "0"
