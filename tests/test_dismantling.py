import csv
import io
import json
import math
import random
from dataclasses import replace

import pytest

from covertnet import (
    GraphError,
    LabeledGraph,
    PreconditionError,
    StrategySpec,
    adjacency_matrix,
    crossing_subgraph,
    density,
    fragmentation,
    induced_subgraph,
    largest_connected_component,
    mean_betweenness,
    node_order,
    reference_network,
    removals,
    report,
    run_strategy,
    threshold_cost,
    wvc,
)
from covertnet.dismantling import (
    COST_MODELS,
    STRATEGY_KINDS,
    Removals,
    _residual_steps,
    run_strategies,
)
from covertnet.metrics import _distance_sums, _paths
from oracles import greedy_cover_order, lazy_trace, report_dict, spec_dict, trace_csv, trace_json
from util import (
    barbell_graph,
    complete_graph,
    gnp_graph,
    path_graph,
    random_connected_graph,
    sign_split,
    star_graph,
)


def test_strategy_spec_validation():
    with pytest.raises(PreconditionError):
        StrategySpec(kind="zap")
    with pytest.raises(PreconditionError):
        StrategySpec(kind="hub", target_lcc_fraction=0.0)
    with pytest.raises(PreconditionError):
        StrategySpec(kind="hub", target_lcc_fraction=1.5)
    with pytest.raises(PreconditionError):
        StrategySpec(kind="hub", rng_seed=1)  # seed only makes sense for random
    with pytest.raises(PreconditionError):
        StrategySpec(kind="random")  # and random requires one
    with pytest.raises(PreconditionError):
        StrategySpec(kind="hub", cost_model="free")
    for bad in (True, "0.5", None, math.nan):  # True is not read as 1.0, "0.5" is not parsed
        with pytest.raises(PreconditionError, match="target_lcc_fraction"):
            StrategySpec(kind="hub", target_lcc_fraction=bad)
    assert repr(StrategySpec(kind="hub", target_lcc_fraction=1).target_lcc_fraction) == "1.0"


def test_wvc_single_edge_prefers_lower_label():
    g = LabeledGraph(["u", "v"], [("u", "v")])
    assert wvc(g, g) == ("u",)


def test_wvc_triangle():
    g = complete_graph(3)
    # ratios start equal at 1, lexicographic tie-break picks v0; the
    # remaining edge (v1, v2) then needs one more pick
    assert wvc(g, g) == ("v0", "v1")


def test_wvc_hub_beats_leaves():
    star = star_graph(4)
    assert wvc(star, star) == ("hub",)


def test_wvc_weighs_host_degree():
    # host gives u degree 3 but v only 1, so v covers the star edge
    # at ratio 1/1 versus u's 1/3
    host = LabeledGraph(["u", "v", "x", "y"], [("u", "v"), ("u", "x"), ("u", "y")])
    star = LabeledGraph(["u", "v"], [("u", "v")])
    assert wvc(star, host) == ("v",)


def test_wvc_empty_star():
    host = complete_graph(3)
    assert wvc(LabeledGraph(), host) == ()


def test_wvc_rejects_non_subgraph():
    host = star_graph(3)
    with pytest.raises(GraphError):
        wvc(LabeledGraph(["a", "b"], [("a", "b")]), host)  # nodes not in host
    foreign = LabeledGraph(["leaf0", "leaf1"], [("leaf0", "leaf1")])
    with pytest.raises(GraphError):
        wvc(foreign, host)  # edge not in host


def test_wvc_matches_greedy_simulation():
    # the larger graphs give ties between unequal pairs such as 2/6 and
    # 1/3, which the oracle compares as Fractions
    rng = random.Random(50)
    for trial in range(200):
        if trial < 150:
            g = random_connected_graph(rng, rng.randrange(3, 8), rng.randrange(0, 10))
        else:
            g = random_connected_graph(rng, rng.randrange(20, 41), rng.randrange(10, 80))
        vector = {v: rng.uniform(-1.0, 1.0) for v in g.nodes}
        split = sign_split(g, vector)
        if split is None:
            continue
        star = crossing_subgraph(g, split)
        assert wvc(star, g) == tuple(greedy_cover_order(star.edges(), g.edges()))


def test_wvc_output_is_a_cover():
    rng = random.Random(51)
    for _ in range(150):
        g = random_connected_graph(rng, rng.randrange(3, 20), rng.randrange(0, 20))
        vector = {v: rng.uniform(-1.0, 1.0) for v in g.nodes}
        split = sign_split(g, vector)
        if split is None:
            continue
        star = crossing_subgraph(g, split)
        picks = set(wvc(star, g))
        assert all(u in picks or v in picks for u, v in star.edges())


def test_hub_strategy_takes_highest_degree_first():
    g = star_graph(6)
    trace = run_strategy(g, StrategySpec(kind="hub", target_lcc_fraction=0.2))
    assert trace.steps[0].node == "hub"
    assert trace.steps[0].cost == 6
    # after the hub, the LCC is a single leaf: 1/7 < 0.2, so done
    assert len(trace.steps) == 1
    assert trace.steps[0].lcc_size_after == 1


def test_hub_strategy_tie_breaks_on_label():
    g = complete_graph(3)
    trace = run_strategy(g, StrategySpec(kind="hub", target_lcc_fraction=0.3))
    assert trace.removal_order()[0] == "v0"


def test_random_strategy_is_seed_deterministic():
    g = gnp_graph(random.Random(8), 15, 0.3)
    spec = StrategySpec(kind="random", rng_seed=42)
    a = run_strategy(g, spec)
    b = run_strategy(g, spec)
    assert a == b
    c = run_strategy(g, StrategySpec(kind="random", rng_seed=43))
    assert c.removal_order() != a.removal_order()


def _random_attack_graphs():
    rng = random.Random(404)
    graphs = [
        LabeledGraph(),
        LabeledGraph(["a"]),
        LabeledGraph(["a", "b"]),
        LabeledGraph(["a", "b"], [("a", "b")]),
        LabeledGraph([f"x{i}" for i in range(6)]),
    ]
    for _ in range(70):
        graphs.append(random_connected_graph(rng, rng.randrange(3, 30), rng.randrange(0, 40)))
    for _ in range(70):  # mostly disconnected, often with isolated nodes
        graphs.append(gnp_graph(rng, rng.randrange(3, 30), rng.uniform(0.02, 0.2)))
    for _ in range(60):  # a connected core plus isolated nodes
        core = random_connected_graph(rng, rng.randrange(2, 20), rng.randrange(0, 20))
        loners = [f"z{i}" for i in range(rng.randrange(1, 6))]
        graphs.append(LabeledGraph(core.nodes + tuple(loners), core.edges()))
    return graphs


def test_random_removals_match_the_lazy_replay():
    # every strategy's trace must equal the one-removal-at-a-time replay
    # field for field, floats exactly, and its unlogged removals must
    # equal the replay's removals
    rng = random.Random(405)
    graphs = _random_attack_graphs()
    assert len(graphs) >= 200
    untouched = 0
    for g in graphs:
        for target, model in ((t, m) for t in (0.2, 0.5, 1.0) for m in ("residual", "initial")):
            seed = rng.randrange(10**6)
            for kind in ("gnd", "hub", "random"):
                spec = StrategySpec(
                    kind=kind,
                    target_lcc_fraction=target,
                    rng_seed=seed if kind == "random" else None,
                    cost_model=model,
                )
                expected = lazy_trace(g, spec)
                assert run_strategy(g, spec) == expected
                core = removals(g, spec)
                assert core.steps == tuple(
                    (s.node, s.cost, s.cumulative_cost, s.lcc_size_after)
                    for s in expected.steps
                )
                assert core.initial_node_count == g.node_count
                assert core.initial_lcc_size == expected.initial_lcc_size
            untouched += not expected.steps and expected.initial_lcc_size > 0
    # every graph at target 1.0, plus edgeless ones, starts within its target
    assert untouched >= 2 * (len(graphs) - 3)


@pytest.mark.parametrize("kind", STRATEGY_KINDS)
def test_logged_trace_down_to_an_empty_graph_matches_the_lazy_replay(kind):
    # every node goes, so logging starts from an empty residual graph and
    # puts nodes back through disconnected residual graphs on the way
    rng = random.Random(406)
    graphs = [barbell_graph(4), reference_network(), gnp_graph(rng, 20, 0.12)]
    split = []  # mean betweenness of each disconnected residual graph
    for g in graphs:
        spec = StrategySpec(
            kind=kind, target_lcc_fraction=0.01, rng_seed=5 if kind == "random" else None
        )
        trace = run_strategy(g, spec)
        assert len(trace.steps) == g.node_count
        assert trace == lazy_trace(g, spec)
        split += [
            s.mean_betweenness_after
            for k, s in enumerate(trace.steps, 1)
            if s.lcc_size_after < g.node_count - k
        ]
    assert max(split) > 0.0


def test_gnd_on_barbell_cuts_the_bridge():
    g = barbell_graph(4)
    trace = run_strategy(g, StrategySpec(kind="gnd", target_lcc_fraction=0.5))
    # the spectral split separates the cliques; the only crossing edge
    # is the bridge, and a0 covers it (tie with b0 broken by label)
    assert trace.steps[0].node == "a0"
    assert trace.steps[0].cost == 4
    assert trace.steps[0].lcc_size_after == 4
    assert threshold_cost(trace, 0.5) == 4


def test_strategies_reach_their_target():
    rng = random.Random(60)
    for kind in ("gnd", "hub", "random"):
        for _ in range(10):
            g = random_connected_graph(rng, rng.randrange(6, 25), rng.randrange(5, 30))
            spec = StrategySpec(
                kind=kind,
                target_lcc_fraction=0.3,
                rng_seed=7 if kind == "random" else None,
            )
            trace = run_strategy(g, spec)
            assert trace.steps, "a connected graph above target must need removals"
            assert trace.steps[-1].lcc_size_after <= 0.3 * g.node_count + 1e-9
            # and the stop was not overshot by a whole round boundary
            survivors = set(g.nodes) - set(trace.removal_order())
            leftover = induced_subgraph(g, survivors)
            assert len(largest_connected_component(leftover)) == trace.steps[-1].lcc_size_after


def test_trace_costs_and_metrics_are_consistent():
    rng = random.Random(61)
    g = random_connected_graph(rng, 18, 25)
    trace = run_strategy(g, StrategySpec(kind="hub", target_lcc_fraction=0.2))
    running = 0
    remaining = g
    for step in trace.steps:
        assert step.cost == remaining.degree(step.node)  # residual cost model
        running += step.cost
        assert step.cumulative_cost == running
        remaining = induced_subgraph(g, set(remaining.nodes) - {step.node})
        assert step.density_after == pytest.approx(density(remaining))
        assert step.fragmentation_after == pytest.approx(fragmentation(remaining))
        assert step.mean_betweenness_after == pytest.approx(mean_betweenness(remaining))
        assert step.lcc_size_after == len(largest_connected_component(remaining))
    assert trace.total_cost() == running


def test_initial_cost_model_charges_original_degree():
    g = star_graph(5)
    residual = run_strategy(g, StrategySpec(kind="hub", target_lcc_fraction=0.9))
    initial = run_strategy(
        g, StrategySpec(kind="hub", target_lcc_fraction=0.9, cost_model="initial")
    )
    assert residual.removal_order() == initial.removal_order()
    assert residual.steps[0].cost == initial.steps[0].cost == 5
    # the second removal is an isolated leaf: free now, degree 1 originally
    if len(residual.steps) > 1:
        assert residual.steps[1].cost == 0
        assert initial.steps[1].cost == 1


def test_threshold_cost_star():
    g = star_graph(4)
    trace = run_strategy(g, StrategySpec(kind="hub", target_lcc_fraction=0.2))
    assert threshold_cost(trace, 0.8) == 4


def test_threshold_cost_zero_when_already_met():
    g = LabeledGraph(["a", "b", "c", "d", "e"], [("a", "b")])
    trace = run_strategy(g, StrategySpec(kind="hub", target_lcc_fraction=0.5))
    assert threshold_cost(trace, 0.5) == 0


def test_threshold_cost_errors():
    g = star_graph(4)
    trace = run_strategy(g, StrategySpec(kind="hub", target_lcc_fraction=0.9))
    with pytest.raises(PreconditionError):
        threshold_cost(trace, 0.0)
    with pytest.raises(PreconditionError):
        threshold_cost(trace, 1.5)
    assert threshold_cost(trace, 0.95) is None  # one hub removal only got the LCC to 1/5


def test_threshold_cost_survives_float_products():
    # (1 - 0.8) * 5 lands a hair under 1.0 in floats; a 5-node trace
    # that reaches an LCC of exactly 1 must still count as done
    g = star_graph(4)
    trace = run_strategy(g, StrategySpec(kind="hub", target_lcc_fraction=0.2))
    assert trace.steps[-1].lcc_size_after == 1
    assert threshold_cost(trace, 0.8) == trace.total_cost()


def test_run_strategy_dispatch():
    g = star_graph(5)
    hub = run_strategy(g, StrategySpec(kind="hub", target_lcc_fraction=0.2))
    assert hub.strategy.kind == "hub"
    assert hub.removal_order() == ("hub",)
    rnd = run_strategy(g, StrategySpec(kind="random", target_lcc_fraction=0.2, rng_seed=3))
    assert rnd.strategy.kind == "random"
    gnd_trace = run_strategy(g, StrategySpec(kind="gnd", target_lcc_fraction=0.2))
    assert gnd_trace.strategy.kind == "gnd"


def test_trace_csv_shape():
    g = star_graph(6)
    trace = run_strategy(g, StrategySpec(kind="hub", target_lcc_fraction=0.2))
    rows = list(csv.DictReader(io.StringIO(trace.to_csv())))
    assert len(rows) == len(trace.steps)
    assert rows[0]["removed_node"] == "hub"
    assert rows[0]["step"] == "1"
    assert float(rows[0]["lcc_fraction"]) == pytest.approx(1 / 7)


def test_trace_json_round_trip():
    g = barbell_graph(3)
    trace = run_strategy(g, StrategySpec(kind="gnd", target_lcc_fraction=0.5))
    doc = json.loads(trace.to_json())
    assert doc["strategy"]["kind"] == "gnd"
    assert doc["initial_node_count"] == 6
    assert doc["initial_metrics"]["edge_count"] == 7
    assert [s["removed_node"] for s in doc["steps"]] == list(trace.removal_order())


def test_initial_metrics_missing_on_tiny_graphs():
    g = LabeledGraph(["a", "b"], [("a", "b")])
    trace = run_strategy(g, StrategySpec(kind="hub", target_lcc_fraction=0.5))
    assert trace.initial_metrics is None  # too small for a full report
    assert json.loads(trace.to_json())["initial_metrics"] is None
    # n <= 2, or no edge at all: every strategy logs no report
    tiny = [LabeledGraph(), LabeledGraph(["a"]), LabeledGraph(["a", "b"]), g]
    edgeless = [LabeledGraph([f"x{i}" for i in range(k)]) for k in (3, 7)]
    for h in tiny + edgeless:
        for kind in STRATEGY_KINDS:
            for target in (0.01, 0.5, 1.0):
                spec = StrategySpec(
                    kind=kind, target_lcc_fraction=target, rng_seed=1 if kind == "random" else None
                )
                assert run_strategy(h, spec).initial_metrics is None


@pytest.mark.parametrize("kind", STRATEGY_KINDS)
def test_initial_metrics_equal_the_report(kind):
    # the report built from the logged run's final distances equals a
    # fresh `report`, every field and floats exactly, whatever was removed;
    # those distances are one `_paths` sweep's byte for byte, inf where
    # unreachable, with the sweep's distance sums
    rng = random.Random(407)
    graphs = [reference_network(), barbell_graph(4)]
    graphs += [random_connected_graph(rng, rng.randrange(3, 40), rng.randrange(0, 60))
               for _ in range(25)]
    graphs += [gnp_graph(rng, rng.randrange(3, 30), rng.uniform(0.03, 0.2)) for _ in range(25)]
    for _ in range(15):  # a connected core plus isolated nodes
        core = random_connected_graph(rng, rng.randrange(3, 20), rng.randrange(0, 20))
        loners = [f"z{i}" for i in range(rng.randrange(1, 6))]
        graphs.append(LabeledGraph(core.nodes + tuple(loners), core.edges()))
    graphs += [LabeledGraph([f"x{i}" for i in range(n)]) for n in (0, 1, 2, 5)]  # edgeless
    compared = emptied = disconnected = 0
    for g in graphs:
        expected = report(g) if g.edge_count else None
        n = g.node_count
        a = adjacency_matrix(g)
        index = {v: i for i, v in enumerate(node_order(g))}
        sweep = _paths(a)
        for target in (0.01, 0.2, 0.5, 1.0):  # 0.01 removes every node
            seed = rng.randrange(10**6) if kind == "random" else None
            spec = StrategySpec(kind=kind, target_lcc_fraction=target, rng_seed=seed)
            trace = run_strategy(g, spec)
            assert trace.initial_metrics == expected
            full = _residual_steps(a, index, removals(g, spec))[1]
            assert full.tobytes() == sweep.dist.tobytes()
            assert _distance_sums(full) == (sweep.excess, n * (n - 1) - sweep.left)
            compared += expected is not None
            emptied += len(trace.steps) == n
        disconnected += sweep.left > 0
    assert compared >= 250 and emptied >= 60 and disconnected >= 30


def test_runs_logged_together_share_one_initial_report():
    # compare logs gnd, hub and a random run on one graph; they get the
    # traces that separate runs give, with the report built once
    rng = random.Random(408)
    graphs = [reference_network(), path_graph(2), LabeledGraph([f"x{i}" for i in range(4)])]
    graphs += [gnp_graph(rng, rng.randrange(3, 25), rng.uniform(0.05, 0.3)) for _ in range(10)]
    for g in graphs:
        for target in (0.01, 0.2, 0.5):
            specs = [
                StrategySpec(kind="gnd", target_lcc_fraction=target),
                StrategySpec(kind="hub", target_lcc_fraction=target, cost_model="initial"),
                StrategySpec(kind="random", target_lcc_fraction=target, rng_seed=5),
            ]
            traces = run_strategies(g, specs)
            assert traces == [run_strategy(g, spec) for spec in specs]
            assert all(t.initial_metrics is traces[0].initial_metrics for t in traces)


def test_serialisers_match_the_field_by_field_writers():
    # the row generator and dataclasses.asdict write the same text as
    # spelling every field out, and a trace's removals answer the same
    # order and cost questions as the unlogged run's
    rng = random.Random(12)
    graphs = [
        reference_network(),
        LabeledGraph(),
        LabeledGraph(["a"]),
        LabeledGraph(["a", "b"], [("a", "b")]),
        LabeledGraph(["x", "y", "z"]),
        path_graph(3),
        star_graph(4),
    ]
    for _ in range(20):
        graphs.append(random_connected_graph(rng, rng.randrange(3, 25), rng.randrange(0, 30)))
    graphs += [gnp_graph(rng, rng.randrange(3, 15), 0.15) for _ in range(6)]
    for g in graphs:
        for kind in STRATEGY_KINDS:
            for model in COST_MODELS:
                spec = StrategySpec(
                    kind=kind,
                    target_lcc_fraction=rng.choice((0.2, 0.5, 1.0)),
                    rng_seed=rng.randrange(100) if kind == "random" else None,
                    cost_model=model,
                )
                trace = run_strategy(g, spec)
                assert trace.to_csv() == trace_csv(trace)
                assert trace.to_json() == trace_json(trace)
                assert list(spec.to_dict().items()) == list(spec_dict(spec).items())
                core = removals(g, spec)
                assert isinstance(trace, Removals)
                assert core.removal_order() == trace.removal_order()
                assert core.total_cost() == trace.total_cost()
                assert core.lcc_fraction(core.initial_lcc_size) == trace.lcc_fraction(
                    trace.initial_lcc_size
                )
        if trace.initial_metrics is not None:
            rep = trace.initial_metrics
            # scores are written by label even when stored out of order
            shuffled = dict(reversed(rep.eigenvector_centrality.items()))
            for r in (rep, replace(rep, eigenvector_centrality=shuffled)):
                assert r.to_json() == json.dumps(report_dict(r), indent=2) + "\n"


def test_gnd_first_pick_is_not_simply_the_biggest_hub():
    # a hub inside a clique is expensive per covered edge; the cheap
    # cut is the low-degree bridge chain between the cliques
    left = [f"a{i}" for i in range(5)]
    right = [f"b{i}" for i in range(5)]
    edges = [(a, b) for i, a in enumerate(left) for b in left[i + 1 :]]
    edges += [(a, b) for i, a in enumerate(right) for b in right[i + 1 :]]
    edges += [("a0", "mid"), ("mid", "b0")]
    g = LabeledGraph(left + right + ["mid"], edges)
    trace = run_strategy(g, StrategySpec(kind="gnd", target_lcc_fraction=0.5))
    assert trace.steps[0].node == "mid"
    assert trace.steps[0].cost == 2


@pytest.mark.parametrize("cost_model, costs", [("residual", [1, 1, 0]), ("initial", [1, 1, 2])])
def test_gnd_removes_a_singleton_lcc_directly(cost_model, costs):
    # target 0.2 of 3 nodes leaves no room even for an isolated node; the
    # last survivor is a one-node LCC that is removed without a bisection
    spec = StrategySpec(kind="gnd", target_lcc_fraction=0.2, cost_model=cost_model)
    trace = run_strategy(path_graph(3), spec)
    assert trace.removal_order() == ("v2", "v0", "v1")
    assert [s.cost for s in trace.steps] == costs
    assert trace.steps[-1].lcc_size_after == 0


GND_REFERENCE_ORDER = (
    "B1", "Ps2", "Ex1", "P3", "G2", "C1", "C2", "B2", "Ps1", "Ps3", "G1", "Ex2",
    "P4", "Ra4", "Co1", "Rv1", "Ra3", "P2", "Re1", "Ra1", "Rv4", "Es3", "Es2", "Ra2",
)


@pytest.mark.parametrize("cost_model, total", [("residual", 210), ("initial", 326)])
def test_gnd_on_bundled_network_is_pinned(cost_model, total):
    g = reference_network()
    spec = StrategySpec(kind="gnd", target_lcc_fraction=0.2, cost_model=cost_model)
    trace = run_strategy(g, spec)
    assert trace.removal_order() == GND_REFERENCE_ORDER
    assert trace.total_cost() == total
    assert threshold_cost(trace, 0.8) == total
