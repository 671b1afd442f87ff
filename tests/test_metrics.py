import json
import random
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from covertnet import (
    GraphError,
    LabeledGraph,
    MetricsReport,
    PreconditionError,
    adjacency_matrix,
    average_clustering,
    average_degree,
    betweenness,
    degree_centralization,
    density,
    diameter_lcc,
    eigenvector_centrality,
    fragmentation,
    largest_connected_component,
    local_clustering,
    mean_betweenness,
    node_order,
    reference_network,
    report,
)
from covertnet.metrics import (
    _closed,
    _clustering,
    _diameter,
    _distance_sums,
    _largest_component,
    _mean_betweenness,
    _paths,
    _raw_betweenness,
    _Sweep,
)

from oracles import (
    bfs_paths,
    brute_diameter,
    enumerate_betweenness,
    frozen_closed,
    frozen_clustering,
    frozen_distances,
    frozen_raw_betweenness,
)
from util import (
    barbell_graph,
    complete_graph,
    cycle_graph,
    gnp_graph,
    labels,
    layered_graph,
    path_graph,
    random_connected_graph,
    star_graph,
)


def test_density_and_fragmentation_hand_values():
    k4 = complete_graph(4)
    assert density(k4) == pytest.approx(1.0)
    assert fragmentation(k4) == pytest.approx(0.0)
    p4 = path_graph(4)  # 3 of 6 possible edges
    assert density(p4) == pytest.approx(0.5)
    assert fragmentation(p4) == pytest.approx(0.5)


def test_density_fragmentation_complement():
    rng = random.Random(3)
    for _ in range(200):
        g = gnp_graph(rng, rng.randrange(2, 40), rng.random())
        assert density(g) + fragmentation(g) == pytest.approx(1.0, abs=1e-15)


def test_small_graph_preconditions():
    one = LabeledGraph(["a"])
    with pytest.raises(PreconditionError):
        density(one)
    with pytest.raises(PreconditionError):
        fragmentation(one)
    with pytest.raises(PreconditionError):
        average_degree(LabeledGraph())
    with pytest.raises(PreconditionError):
        diameter_lcc(one)
    with pytest.raises(PreconditionError):
        betweenness(LabeledGraph(["a", "b"], [("a", "b")]))
    with pytest.raises(PreconditionError):
        degree_centralization(LabeledGraph(["a", "b"], [("a", "b")]))
    with pytest.raises(PreconditionError):
        eigenvector_centrality(LabeledGraph())
    with pytest.raises(PreconditionError):
        average_clustering(LabeledGraph())


def test_average_degree_hand_values():
    assert average_degree(star_graph(5)) == pytest.approx(10 / 6)
    assert average_degree(cycle_graph(7)) == pytest.approx(2.0)
    assert average_degree(LabeledGraph(["a"])) == 0.0


def test_diameter_uses_largest_component():
    g = LabeledGraph(
        ["a", "b", "c", "d", "x", "y"],
        [("a", "b"), ("b", "c"), ("c", "d"), ("x", "y")],
    )
    assert diameter_lcc(g) == 3  # the path, not the far-away pair
    # a longer path outside the largest component does not count
    k5 = complete_graph(5)
    g = LabeledGraph(
        [*k5.nodes, "p0", "p1", "p2", "p3"],
        [*k5.edges(), ("p0", "p1"), ("p1", "p2"), ("p2", "p3")],
    )
    assert diameter_lcc(g) == 1


def test_diameter_matches_brute_force():
    rng = random.Random(21)
    for _ in range(40):
        g = gnp_graph(rng, rng.randrange(2, 20), 0.25)
        if g.edge_count == 0:
            continue
        assert diameter_lcc(g) == brute_diameter(g)


def test_clustering_hand_values():
    tri = complete_graph(3)
    assert local_clustering(tri, "v1") == pytest.approx(1.0)
    assert average_clustering(tri) == pytest.approx(1.0)
    assert average_clustering(path_graph(3)) == pytest.approx(0.0)
    # one triangle with a pendant: c = (1, 1, 1/3, 0)
    g = LabeledGraph(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")])
    assert local_clustering(g, "c") == pytest.approx(1 / 3)
    assert average_clustering(g) == pytest.approx((1 + 1 + 1 / 3 + 0) / 4)
    with pytest.raises(GraphError, match="unknown node 'ghost'"):
        local_clustering(g, "ghost")


def test_clustering_kernel_is_bit_identical_to_the_frozen_formula():
    # sparse graphs leave isolated and degree-1 nodes, where the frozen
    # formula wrote 0.0 and the kernel divides a zero triangle count by 1
    rng = random.Random(61)
    isolated = pendant = 0
    for _ in range(200):
        a = adjacency_matrix(gnp_graph(rng, rng.randrange(1, 45), rng.uniform(0.0, 0.4)))
        want = frozen_clustering(a).tobytes()
        deg = a.sum(axis=1)
        assert _clustering(deg, _closed(a)).tobytes() == want
        # the annealer's form: integer degrees and the sweep's closed walks
        assert _clustering(deg.astype(np.int64), _paths(a).closed).tobytes() == want
        isolated += int((deg == 0).sum())
        pendant += int((deg == 1).sum())
    assert min(isolated, pendant) >= 100


def test_betweenness_hand_values():
    # middle of a 3-path lies on the one shortest path of the one pair
    assert betweenness(path_graph(3)) == {"v0": 0.0, "v1": 1.0, "v2": 0.0}
    hub = betweenness(star_graph(4))["hub"]
    assert hub == pytest.approx(1.0)
    flat = betweenness(complete_graph(5))
    assert all(score == pytest.approx(0.0) for score in flat.values())


def test_betweenness_on_cycle():
    # C5: each pair at distance 2 has one geodesic through one node;
    # each node sits inside exactly 5 - 3 = 2 of the 10 pairs... by
    # symmetry every node gets the same score, which must average to
    # the mean pair-dependency
    scores = betweenness(cycle_graph(5))
    values = list(scores.values())
    assert max(values) == pytest.approx(min(values))
    assert values[0] == pytest.approx(float(enumerate_betweenness(cycle_graph(5))["v1"]))


def test_betweenness_matches_path_enumeration():
    rng = random.Random(77)
    for _ in range(60):
        g = random_connected_graph(rng, rng.randrange(3, 9), rng.randrange(0, 8))
        mine = betweenness(g)
        oracle = enumerate_betweenness(g)
        for v in g.nodes:
            assert mine[v] == pytest.approx(float(oracle[v]), abs=1e-12)


def test_betweenness_handles_disconnection():
    g = LabeledGraph(["a", "b", "c", "x", "y", "z"],
                     [("a", "b"), ("b", "c"), ("x", "y"), ("y", "z")])
    mine = betweenness(g)
    oracle = enumerate_betweenness(g)
    for v in g.nodes:
        assert mine[v] == pytest.approx(float(oracle[v]), abs=1e-12)


def test_mean_betweenness():
    g = path_graph(3)
    assert mean_betweenness(g) == pytest.approx(1.0 / 3.0)


def test_eigenvector_centrality_star():
    scores = eigenvector_centrality(star_graph(6))
    assert scores["hub"] == pytest.approx(1.0)
    leaf = scores["leaf0"]
    # analytic leaf score for a star: 1/sqrt(k)
    assert leaf == pytest.approx(1 / 6**0.5, abs=1e-6)
    assert all(scores[f"leaf{i}"] == pytest.approx(leaf) for i in range(6))


def test_eigenvector_centrality_regular_graph_is_flat():
    scores = eigenvector_centrality(cycle_graph(8))
    assert all(v == pytest.approx(1.0, abs=1e-7) for v in scores.values())


def test_eigenvector_centrality_bipartite_converges():
    # even-length cycles are bipartite, so -2 is an eigenvalue next to 2:
    # the scores must come from the flat vector of 2, not the alternating one
    scores = eigenvector_centrality(cycle_graph(6))
    assert all(v == pytest.approx(1.0, abs=1e-7) for v in scores.values())


def test_eigenvector_centrality_off_component_zero():
    g = LabeledGraph(["a", "b", "c", "z"], [("a", "b"), ("b", "c")])
    scores = eigenvector_centrality(g)
    assert scores["z"] == 0.0
    assert scores["b"] == pytest.approx(1.0)
    # equal-size components: the one holding the smallest label scores
    g = LabeledGraph(["a", "b", "c", "x", "y", "z"],
                     [("x", "y"), ("y", "z"), ("x", "z"), ("a", "b"), ("b", "c")])
    scores = eigenvector_centrality(g)
    assert scores["b"] == 1.0
    assert scores["a"] == pytest.approx(2**-0.5)
    assert scores["x"] == scores["y"] == scores["z"] == 0.0
    # edgeless: every component is a single node, the smallest label wins
    scores = eigenvector_centrality(LabeledGraph(["q", "p", "r"]))
    assert scores == {"p": 1.0, "q": 0.0, "r": 0.0}


def test_eigenvector_centrality_matches_dense_solver():
    np = pytest.importorskip("numpy")
    from covertnet import adjacency_matrix, node_order

    rng = random.Random(13)
    graphs = [random_connected_graph(rng, rng.randrange(3, 12), rng.randrange(0, 12))
              for _ in range(20)]
    # a K25 with a 37-node tail: scores far down the tail sit near 0
    k25 = complete_graph(25)
    tail = [f"t{i:02d}" for i in range(37)]
    graphs.append(LabeledGraph([*k25.nodes, *tail],
                               [*k25.edges(), ("v00", tail[0]), *zip(tail, tail[1:])]))
    for g in graphs:
        order = node_order(g)
        a = adjacency_matrix(g)
        vals, vecs = np.linalg.eigh(a)
        lead = np.abs(vecs[:, -1])
        lead /= lead.max()
        scores = eigenvector_centrality(g)
        assert min(scores.values()) >= 0.0
        for v, expect in zip(order, lead):
            assert scores[v] == pytest.approx(float(expect), abs=1e-12)


def test_degree_centralization_extremes():
    assert degree_centralization(star_graph(7)) == pytest.approx(1.0)
    assert degree_centralization(cycle_graph(9)) == pytest.approx(0.0)
    assert degree_centralization(complete_graph(5)) == pytest.approx(0.0)


def test_degree_centralization_hand_value():
    # P4 degrees (1, 2, 2, 1), max 2: (1 + 0 + 0 + 1) / (3 * 2)
    assert degree_centralization(path_graph(4)) == pytest.approx(2 / 6)


def test_report_round_trips_to_json():
    g = barbell_graph(4)
    rep = report(g)
    assert rep.node_count == 8 and rep.edge_count == 13
    doc = json.loads(rep.to_json())
    assert doc["density"] == pytest.approx(density(g))
    assert doc["diameter_lcc"] == 3
    assert set(doc["eigenvector_centrality"]) == set(g.nodes)


def test_report_is_deterministic():
    rng = random.Random(4)
    g = random_connected_graph(rng, 12, 14)
    assert report(g).to_json() == report(g).to_json()


def _standalone_report(g):
    """The report assembled from the standalone functions, in report's field order."""
    return MetricsReport(
        node_count=g.node_count,
        edge_count=g.edge_count,
        density=density(g),
        fragmentation=fragmentation(g),
        average_degree=average_degree(g),
        diameter_lcc=diameter_lcc(g),
        average_clustering=average_clustering(g),
        mean_betweenness=mean_betweenness(g),
        degree_centralization=degree_centralization(g),
        eigenvector_centrality=eigenvector_centrality(g),
    )


def _outcome(build, g):
    try:
        return build(g)
    except PreconditionError as exc:
        return str(exc)


def test_report_equals_the_standalone_functions():
    rng = random.Random(17)
    graphs = [reference_network()]
    for _ in range(10):
        graphs.append(random_connected_graph(rng, rng.randrange(3, 40), rng.randrange(0, 60)))
        graphs.append(gnp_graph(rng, rng.randrange(3, 40), rng.uniform(0.02, 0.15)))
    graphs += [LabeledGraph(labels(n)) for n in (0, 1, 2, 3, 7)]
    graphs.append(path_graph(2))
    k5 = complete_graph(5)  # the longer path lies outside the largest component
    path = [("p0", "p1"), ("p1", "p2"), ("p2", "p3")]
    graphs.append(LabeledGraph([*k5.nodes, "p0", "p1", "p2", "p3"], [*k5.edges(), *path]))
    disconnected = 0
    for g in graphs:
        got = _outcome(report, g)
        assert got == _outcome(_standalone_report, g)
        if isinstance(got, MetricsReport):
            disconnected += len(largest_connected_component(g)) < g.node_count
    assert disconnected >= 3


def _kernel_input(g):
    order = node_order(g)
    return order, adjacency_matrix(g)


def test_paths_match_a_per_source_bfs():
    rng = random.Random(41)
    graphs = [LabeledGraph(labels(n)) for n in (0, 1, 2, 5)]  # n <= 2 and edgeless
    graphs += [path_graph(2), barbell_graph(3), reference_network()]
    graphs += [gnp_graph(rng, rng.randrange(3, 25), rng.uniform(0.05, 0.3)) for _ in range(15)]
    graphs += [random_connected_graph(rng, rng.randrange(3, 25), rng.randrange(0, 30))
               for _ in range(15)]
    disconnected = 0
    for g in graphs:
        order, a = _kernel_input(g)
        dist = _paths(a).dist
        assert dist.tolist() == bfs_paths(g, order)[0]
        # the kernel counts the paths in its own forward pass
        raw = _raw_betweenness(a)
        if g.node_count:
            assert raw.tobytes() == frozen_raw_betweenness(a, frozen_distances(a)).tobytes()
        oracle = enumerate_betweenness(g)
        scale = max((g.node_count - 1) * (g.node_count - 2), 1)
        assert raw.tolist() == pytest.approx([float(oracle[v] * scale) for v in order],
                                             rel=1e-12, abs=1e-12)
        disconnected += bool((dist == np.inf).any())
    assert disconnected >= 5


def test_sweep_hands_back_its_mask_and_depth():
    # the annealer reads its connectivity and diameter off the sweep,
    # and Brandes starts its backward pass at the depth
    rng = random.Random(47)
    graphs = [LabeledGraph(labels(n)) for n in (1, 4)]
    graphs += [path_graph(40), cycle_graph(31), complete_graph(6), barbell_graph(5)]
    graphs += [gnp_graph(rng, rng.randrange(3, 40), rng.uniform(0.02, 0.3)) for _ in range(30)]
    disconnected = 0
    for g in graphs:
        _order, a = _kernel_input(g)
        sweep = _paths(a)
        dist = sweep.dist
        assert sweep.depth == int(dist.max(initial=0.0, where=dist < np.inf))
        assert sweep.left == np.count_nonzero(dist == np.inf)
        disconnected += sweep.left > 0
    assert disconnected >= 10


def test_sweep_equals_the_frozen_kernels_byte_for_byte():
    # the distances-only sweep hands back what the frozen kernels give:
    # distances (the frozen -1 read as inf), depth and unreached count,
    # and the closed walks of clustering; it holds no path counts and no
    # mask that only restates the distances
    assert "sigma" not in _Sweep._fields
    assert "unreached" not in _Sweep._fields
    rng = random.Random(53)
    graphs = [LabeledGraph(labels(n)) for n in (0, 1, 2, 6)]  # n <= 2 and edgeless
    graphs += [path_graph(2), barbell_graph(4), layered_graph(5, extra=["lone"])]
    graphs += [gnp_graph(rng, rng.randrange(1, 40), rng.uniform(0.0, 0.3)) for _ in range(60)]
    graphs += [random_connected_graph(rng, rng.randrange(1, 40), rng.randrange(0, 40))
               for _ in range(30)]
    disconnected = 0
    for g in graphs:
        _order, a = _kernel_input(g)
        sweep = _paths(a)
        frozen = frozen_distances(a)
        dist = np.where(frozen < 0, np.inf, frozen)
        assert sweep.dist.tobytes() == dist.tobytes()
        assert sweep.depth == (int(frozen.max()) if g.node_count else 0)
        assert sweep.left == np.count_nonzero(dist == np.inf)
        assert sweep.closed.tobytes() == frozen_closed(a).tobytes()
        disconnected += sweep.left > 0
    assert disconnected >= 30


def test_sweep_sums_equal_the_distance_sums_and_the_trace_byte_for_byte():
    # the annealer reads its Brandes bracket and its eigenvalue bound off
    # the sweep: `excess` and n(n - 1) - `left` are `_distance_sums` of
    # the distances, and `walks4` is tr(A^4) = |a @ a|_F^2, exact integers
    rng = random.Random(59)
    graphs = [LabeledGraph(labels(n)) for n in (0, 1, 2, 7)]  # n <= 2 and edgeless
    graphs += [path_graph(2), path_graph(30), barbell_graph(4), layered_graph(5, extra=["lone"])]
    graphs += [gnp_graph(rng, rng.randrange(1, 40), rng.uniform(0.0, 0.3)) for _ in range(40)]
    graphs += [random_connected_graph(rng, rng.randrange(1, 40), rng.randrange(0, 40))
               for _ in range(30)]
    disconnected = 0
    for g in graphs:
        _order, a = _kernel_input(g)
        n = g.node_count
        sweep = _paths(a)
        excess, pairs = _distance_sums(sweep.dist)
        assert float(sweep.excess) == excess and n * (n - 1) - sweep.left == pairs
        squares = a @ a
        assert sweep.walks4 == float((squares * squares).sum())
        assert sweep.walks4 == float(np.trace(np.linalg.matrix_power(a, 4)))
        disconnected += sweep.left > 0
    assert disconnected >= 20


def test_distance_free_sweep_equals_the_full_sweep():
    # the annealer's sweep fills no distance matrix; every field it reads
    # must equal the full sweep's, disconnected and edgeless graphs included
    rng = random.Random(67)
    graphs = [LabeledGraph(labels(n)) for n in (1, 2, 9)]  # edgeless
    graphs += [path_graph(40), cycle_graph(17), complete_graph(7)]
    graphs.append(layered_graph(6, extra=["lone"]))
    graphs += [gnp_graph(rng, rng.randrange(1, 41), rng.uniform(0.0, 0.3)) for _ in range(60)]
    graphs += [random_connected_graph(rng, rng.randrange(1, 41), rng.randrange(0, 60))
               for _ in range(40)]
    disconnected = edgeless = 0
    for g in graphs:
        _order, a = _kernel_input(g)
        full, lean = _paths(a), _paths(a, distances=False)
        assert lean.dist is None
        assert (lean.depth, lean.left, lean.walks4, lean.excess) == (
            full.depth, full.left, full.walks4, full.excess)
        assert lean.closed.tobytes() == full.closed.tobytes()
        disconnected += full.left > 0
        edgeless += g.edge_count == 0
    assert disconnected >= 30 and edgeless >= 3


def test_betweenness_memory_does_not_grow_with_the_diameter():
    # the backward pass derives each hop level from `dist` as it goes, so
    # a 300-node path (diameter 299) peaks at a few n x n arrays; keeping
    # one mask and one count array per level would take about 240 MB
    n = 300
    g = path_graph(n)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        scores = betweenness(g)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert peak < 16 * n * n * 8
    # the i-th node of a path lies on every path between its two sides
    want = [2.0 * i * (n - 1 - i) / ((n - 1) * (n - 2)) for i in range(n)]
    assert [scores[v] for v in labels(n)] == pytest.approx(want, rel=1e-12, abs=0.0)


def test_paths_kernel_is_bit_identical_to_the_frozen_reference():
    rng = random.Random(97)
    connected = 0
    for i in range(200):
        n = rng.randrange(3, 45)
        if i % 2:
            g = random_connected_graph(rng, n, rng.randrange(0, 2 * n))
        else:
            g = gnp_graph(rng, n, rng.uniform(0.02, 0.3))
        _order, a = _kernel_input(g)
        sweep = _paths(a)
        dist = sweep.dist
        frozen = frozen_distances(a)
        assert dist.tobytes() == np.where(frozen < 0, np.inf, frozen).tobytes()
        got = _raw_betweenness(a)
        assert got.tobytes() == frozen_raw_betweenness(a, frozen).tobytes()
        connected += bool((dist < np.inf).all())
    assert 60 <= connected <= 160


def test_paths_distances_survive_overflowing_counts():
    # A graph needs about 1 940 nodes before its path counts pass the
    # largest float; scaling every edge to 1e100 overflows the counts of
    # a 30-node layered graph within four levels instead. The distances
    # depend only on which entries are nonzero, so they must not move.
    g = layered_graph(10, extra=["lone"])
    order, a = _kernel_input(g)
    dist = _paths(a * 1e100).dist
    assert dist.tobytes() == _paths(a)[0].tobytes()
    # the exact counts a level's product forms, scaled, pass the largest float
    hops, counts = bfs_paths(g, order)
    scaled = [c * 10 ** (100 * d) for row_d, row_c in zip(hops, counts)
              for d, c in zip(row_d, row_c) if c]
    assert max(scaled) > sys.float_info.max
    assert _largest_component(dist).tolist() == list(range(30))
    assert _diameter(dist) == brute_diameter(g) == 9


def test_betweenness_rejects_saturated_counts():
    # a saturated count is no longer exact, so dividing by it would give
    # a wrong per-node betweenness; the mean reads only the distances
    # (test above), so it keeps its value
    g = layered_graph(10, extra=["lone"])
    _order, a = _kernel_input(g)
    dist = _paths(a * 1e100).dist
    with np.errstate(over="ignore"), pytest.raises(PreconditionError, match="overflows a float"):
        _raw_betweenness(a * 1e100)
    assert _mean_betweenness(dist, 31) == _mean_betweenness(_paths(a)[0], 31)
    assert _mean_betweenness(dist, 31) == mean_betweenness(g)


def test_overflowing_counts_raise_only_the_typed_error():
    # the cap at the largest float is how the count pass handles an
    # overflow, so no RuntimeWarning may escape ahead of PreconditionError
    _order, a = _kernel_input(layered_graph(10, extra=["lone"]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PreconditionError, match="overflows a float"):
            _raw_betweenness(a * 1e100)


def _oracle_mean(g):
    return float(sum(enumerate_betweenness(g).values()) / g.node_count)


def test_mean_betweenness_equals_the_path_enumeration_mean_exactly():
    # the distance identity sums exact integers and divides once, so it
    # lands on the correctly rounded value of the exact Fraction mean
    rng = random.Random(43)
    graphs = [reference_network(), layered_graph(4, extra=["lone"])]
    graphs += [random_connected_graph(rng, rng.randrange(3, 14), rng.randrange(0, 20))
               for _ in range(25)]
    graphs += [gnp_graph(rng, rng.randrange(3, 14), rng.uniform(0.05, 0.4)) for _ in range(25)]
    disconnected = 0
    for g in graphs:
        want = _oracle_mean(g)
        assert mean_betweenness(g) == want
        if g.edge_count:
            assert report(g).mean_betweenness == want
        disconnected += len(largest_connected_component(g)) < g.node_count
    assert disconnected >= 10
    assert mean_betweenness(reference_network()) == 0.01999777183600713


def test_clustering_mean_is_numpys_mean_bit_for_bit():
    # np.mean reduces with add.reduce and divides by the count, so sum / n
    # is the same float; every reader of the mean keeps np.mean's bits
    rng = np.random.default_rng(17)
    for size in [1, 2, 3, 7, 8, 9, 33, 34, 127, 128, 129, 1000, 4099]:
        for _ in range(20):
            v = rng.random(size) * rng.choice([1e-3, 1.0, 1e3])
            assert v.sum() / size == np.mean(v)
    rand = random.Random(17)
    graphs = [reference_network(), path_graph(3), complete_graph(5)]
    graphs += [gnp_graph(rand, rand.randrange(1, 40), rand.uniform(0.05, 0.6)) for _ in range(40)]
    for g in graphs:
        want = float(np.mean(frozen_clustering(adjacency_matrix(g))))
        assert average_clustering(g) == want
        if g.edge_count and g.node_count >= 3:
            assert report(g).average_clustering == want


def gamma(k):
    """Higham's gamma_k = ku / (1 - ku) for k roundings of unit roundoff u = 2**-53."""
    ku = k * 2.0**-53
    return ku / (1.0 - ku)


def test_brandes_sum_stays_within_its_forward_error_bound():
    # the float sum of the per-node kernel rounds non-negative terms only
    # (but for the diagonal it subtracts), so it stays within
    # gamma_K (I + 2R) of the exact integer I, K = D(n + 2) + 2n + 2 for
    # depth D. Paths have the largest depth, D = n - 1.
    rng = random.Random(29)
    graphs = [path_graph(n) for n in (3, 10, 40, 120, 300)]
    graphs += [gnp_graph(rng, rng.randrange(3, 60), rng.uniform(0.03, 0.5)) for _ in range(40)]
    graphs += [random_connected_graph(rng, rng.randrange(3, 80), rng.randrange(0, 40))
               for _ in range(40)]
    worst = 0.0
    for g in graphs:
        a = adjacency_matrix(g)
        sweep = _paths(a)
        total = float(_raw_betweenness(a).sum())
        excess, pairs = _distance_sums(sweep.dist)
        n = g.node_count
        bound = gamma(sweep.depth * (n + 2) + 2 * n + 2) * (excess + 2 * pairs)
        assert abs(total - excess) <= bound
        worst = max(worst, abs(total - excess) / max(excess + 2 * pairs, 1))
    assert worst < 1e-12
