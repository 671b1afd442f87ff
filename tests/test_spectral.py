import math
import random
import re

import numpy as np
import pytest

from covertnet import (
    GraphError,
    LabeledGraph,
    PreconditionError,
    adjacency_matrix,
    bisect,
    cost_matrix,
    crossing_subgraph,
    fiedler,
    node_order,
    spectral_bisection,
    weighted_laplacian,
)

from oracles import dense_fiedler, eigenspace_cosine
from util import (
    barbell_graph,
    complete_graph,
    cycle_graph,
    path_graph,
    random_connected_graph,
    star_graph,
)


def unit_laplacian(g):
    a = adjacency_matrix(g)
    return np.diag(a.sum(axis=1)) - a


def test_adjacency_matrix_follows_order():
    g = LabeledGraph(["b", "a"], [("b", "a")])
    assert np.array_equal(adjacency_matrix(g), np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_cost_matrix_hand_value():
    g = path_graph(3)
    b = cost_matrix(g)
    # edge (v0, v1): 1 + 2 - 1 = 2, and symmetrically for (v1, v2)
    expect = np.array([[0, 2, 0], [2, 0, 2], [0, 2, 0]], dtype=float)
    assert np.array_equal(b, expect)


def test_weighted_laplacian_hand_value():
    b = np.array([[0, 2, 0], [2, 0, 2], [0, 2, 0]], dtype=float)
    l = weighted_laplacian(b)
    assert np.array_equal(l, np.array([[2, -2, 0], [-2, 4, -2], [0, -2, 2]], dtype=float))
    assert np.allclose(l.sum(axis=1), 0.0)


def test_weighted_laplacian_validation():
    with pytest.raises(GraphError):
        weighted_laplacian(np.zeros((2, 3)))
    with pytest.raises(GraphError):
        weighted_laplacian(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(GraphError):
        weighted_laplacian(np.array([[1.0, 0.0], [0.0, 0.0]]))


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_weighted_laplacian_rejects_non_finite_entries(bad):
    # a NaN is unequal to itself, so without this check it read as asymmetric
    with pytest.raises(GraphError, match="entries must be finite"):
        weighted_laplacian(np.array([[0.0, bad], [bad, 0.0]]))


def test_fiedler_path3():
    lam, vec = fiedler(unit_laplacian(path_graph(3)))
    assert lam == pytest.approx(1.0, abs=1e-9)
    assert vec == pytest.approx(np.array([1.0, 0.0, -1.0]) / math.sqrt(2), abs=1e-6)


def test_fiedler_k2():
    lam, vec = fiedler(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    assert lam == pytest.approx(2.0, abs=1e-9)
    assert vec == pytest.approx(np.array([1.0, -1.0]) / math.sqrt(2), abs=1e-6)


def test_fiedler_complete_graph():
    # K_n: every non-kernel eigenvalue is n
    lam, _ = fiedler(unit_laplacian(complete_graph(5)))
    assert lam == pytest.approx(5.0, abs=1e-8)


def test_fiedler_matches_dense_solver_random():
    rng = random.Random(31)
    for _ in range(30):
        g = random_connected_graph(rng, rng.randrange(2, 14), rng.randrange(0, 10))
        l = unit_laplacian(g)
        lam, vec = fiedler(l)
        lam_star, basis = dense_fiedler(l)
        assert abs(lam - lam_star) <= 1e-6
        assert eigenspace_cosine(vec, basis) >= 1.0 - 1e-6


def test_fiedler_matches_dense_solver_weighted():
    rng = random.Random(32)
    for _ in range(20):
        g = random_connected_graph(rng, rng.randrange(3, 12), rng.randrange(0, 12))
        l = weighted_laplacian(cost_matrix(g))
        lam, vec = fiedler(l)
        lam_star, basis = dense_fiedler(l)
        assert abs(lam - lam_star) <= 1e-6
        assert eigenspace_cosine(vec, basis) >= 1.0 - 1e-6


def test_fiedler_rejects_disconnected():
    g = LabeledGraph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
    with pytest.raises(PreconditionError):
        fiedler(unit_laplacian(g))


def test_fiedler_rejects_edgeless():
    with pytest.raises(PreconditionError):
        fiedler(np.zeros((3, 3)))
    with pytest.raises(PreconditionError):
        spectral_bisection(LabeledGraph(["a", "b", "c"]))


def test_fiedler_input_validation():
    with pytest.raises(GraphError):
        fiedler(np.zeros((2, 3)))
    with pytest.raises(GraphError):
        fiedler(np.array([[1.0, -1.0], [0.0, 1.0]]))
    with pytest.raises(GraphError):
        fiedler(np.array([[1.0, 1.0], [1.0, 1.0]]))
    # too small: the 0-node case used to escape as numpy's zero-size ValueError
    for n in (0, 1):
        with pytest.raises(PreconditionError):
            fiedler(np.zeros((n, n)))
        with pytest.raises(PreconditionError):
            spectral_bisection(LabeledGraph(["a"][:n]))


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_fiedler_rejects_non_finite_entries(bad):
    # inf - inf rows used to reach the eigensolver and come back as NaNs
    with pytest.raises(GraphError, match="entries must be finite"):
        fiedler(np.array([[bad, -bad], [-bad, bad]]))


def test_fiedler_sign_convention_is_stable():
    l = unit_laplacian(barbell_graph(4))
    lam1, v1 = fiedler(l)
    lam2, v2 = fiedler(l)
    assert lam1 == lam2
    assert np.array_equal(v1, v2)
    first = next(c for c in v1 if abs(c) > 1e-12)
    assert first > 0


@pytest.mark.parametrize(
    "g",
    [cycle_graph(8), complete_graph(5), star_graph(3)],
    ids=["C8", "K5", "star3"],
)
def test_fiedler_degenerate_eigenspace_returns_first_basis_projection(g):
    l = unit_laplacian(g)
    _, basis = dense_fiedler(l)
    assert basis.shape[1] >= 2
    # the projection of e_i onto the eigenspace is basis @ basis[i],
    # whichever orthonormal basis the solver picked; in star3 the hub
    # (sorted first) is orthogonal to the eigenspace, so e_1 is used
    i = next(i for i in range(len(basis)) if np.linalg.norm(basis[i]) > 1e-6)
    want = basis @ basis[i]
    want /= np.linalg.norm(want)
    _, vec = fiedler(l)
    assert np.abs(vec - want).max() <= 1e-9


def test_fiedler_zero_entry_goes_to_part_m():
    g = path_graph(3)
    split = spectral_bisection(g)
    assert split.fiedler_vector["v1"] == 0.0
    assert split.part_m == frozenset({"v0", "v1"})
    assert split.part_m_bar == frozenset({"v2"})


def test_spectral_bisection_large_cycle_finishes():
    g = cycle_graph(400)
    split = spectral_bisection(g)
    assert split.fiedler_value == pytest.approx(6.0 * (1.0 - math.cos(2.0 * math.pi / 400)))
    assert len(crossing_subgraph(g, split).edges()) == 2


def test_bisect_by_sign():
    g = path_graph(3)
    split = bisect(g, {"v0": 0.7, "v1": 0.0, "v2": -0.7}, fiedler_value=1.0)
    # zero components land on the non-negative side
    assert split.part_m == frozenset({"v0", "v1"})
    assert split.part_m_bar == frozenset({"v2"})
    assert split.fiedler_value == 1.0
    norm = math.sqrt(sum(c * c for c in split.fiedler_vector.values()))
    assert norm == pytest.approx(1.0)
    # a subnormal vector's norm underflows to 0 and a huge one's overflows
    half = 1.0 / math.sqrt(2.0)
    for scale in (1e-320, 1e-310, 1e300):
        split = bisect(g, {"v0": scale, "v1": 0.0, "v2": -scale})
        assert split.fiedler_vector == pytest.approx({"v0": half, "v1": 0.0, "v2": -half})


def test_bisect_validation():
    g = path_graph(3)
    with pytest.raises(GraphError):
        bisect(g, {"v0": 1.0, "v1": -1.0})
    with pytest.raises(GraphError):
        bisect(g, {"v0": 1.0, "v1": -1.0, "v2": 0.0, "ghost": 1.0})
    with pytest.raises(PreconditionError):
        bisect(g, {"v0": 1.0, "v1": 1.0, "v2": 2.0})
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(GraphError, match=re.escape(f"'v1' must be finite, got {bad!r}")):
            bisect(g, {"v0": 1.0, "v1": bad, "v2": -1.0})
        # the first in sorted label order is named, whatever the dict order
        with pytest.raises(GraphError, match="'v0' must be finite"):
            bisect(g, {"v2": bad, "v1": -1.0, "v0": math.nan})


def test_crossing_subgraph():
    g = LabeledGraph(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
    split = bisect(g, {"a": 1.0, "b": 1.0, "c": -1.0, "d": -1.0})
    crossing = crossing_subgraph(g, split)
    assert crossing.edges() == [("a", "d"), ("b", "c")]
    assert set(crossing.nodes) == {"a", "b", "c", "d"}


def test_crossing_subgraph_rejects_foreign_partition():
    g = path_graph(3)
    other = path_graph(4)
    split = bisect(other, {"v0": 1.0, "v1": 1.0, "v2": -1.0, "v3": -1.0})
    with pytest.raises(GraphError):
        crossing_subgraph(g, split)


def test_spectral_bisection_separates_barbell_cliques():
    g = barbell_graph(4)
    split = spectral_bisection(g)
    left = frozenset(f"a{i}" for i in range(4))
    right = frozenset(f"b{i}" for i in range(4))
    assert {split.part_m, split.part_m_bar} == {left, right}
    crossing = crossing_subgraph(g, split)
    assert crossing.edges() == [("a0", "b0")]


def test_spectral_bisection_deterministic():
    g = barbell_graph(5)
    a = spectral_bisection(g)
    b = spectral_bisection(g)
    assert a.part_m == b.part_m
    assert a.fiedler_vector == b.fiedler_vector


def test_node_order_is_sorted():
    g = LabeledGraph(["z", "a", "m"])
    assert node_order(g) == ("a", "m", "z")
