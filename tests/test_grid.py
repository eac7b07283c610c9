import numpy as np
import pytest

from levyvolterra import (
    ConvolutionPath,
    DiscreteMixture,
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
    TimeGrid,
)

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
