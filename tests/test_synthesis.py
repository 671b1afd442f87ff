import copy
import json
import math
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest

from covertnet import (
    AnnealingSchedule,
    FileFormatError,
    GraphError,
    HardConstraints,
    InfeasibleTargetError,
    LabeledGraph,
    PreconditionError,
    SoftTarget,
    SynthesisTarget,
    adjacency_matrix,
    average_clustering,
    average_degree,
    chiapas_roster,
    connected_components,
    default_chiapas_target,
    degree_centralization,
    density,
    diameter_lcc,
    eigenvector_centrality,
    fragmentation,
    load_synthesis_target,
    mean_betweenness,
    objective,
    reference_network,
    soft_report,
    synthesize_reference,
)
from covertnet import synthesis
from covertnet.metrics import (
    _distance_sums,
    _largest_component,
    _leading_vector,
    _path_counts,
    _paths,
)
from covertnet.metrics import _raw_betweenness
from covertnet.synthesis import SOFT_METRICS, _candidate, _HardCheck, _index_pairs, _State

from oracles import MetricDictEvaluator, eager_anneal
from util import (
    complete_graph,
    cycle_graph,
    gnm_graph,
    labels,
    layered_graph,
    path_graph,
    random_connected_graph,
    star_graph,
)

ALL_PLAIN_METRICS = (
    "density",
    "fragmentation",
    "average_degree",
    "diameter_lcc",
    "average_clustering",
    "mean_betweenness",
    "degree_centralization",
)


NAMES = labels(10)


def quick_schedule(seed=1, iterations=4000):
    return AnnealingSchedule(
        initial_temperature=0.5, cooling_factor=0.998, iterations=iterations, rng_seed=seed
    )


def small_target(**overrides):
    kw = dict(
        nodes=tuple(NAMES),
        edge_count=18,
        hard=HardConstraints(connected=True),
        soft=(),
        schedule=quick_schedule(),
    )
    kw.update(overrides)
    return SynthesisTarget(**kw)


def full_soft_target(g, nodes3):
    soft = tuple(SoftTarget(metric=m, value=0.0) for m in ALL_PLAIN_METRICS)
    soft += (SoftTarget(metric="eigenvector_top3", value=1.0, nodes=nodes3),)
    return SynthesisTarget(
        nodes=tuple(g.nodes), edge_count=g.edge_count, soft=soft, schedule=quick_schedule()
    )


def test_schedule_validation():
    with pytest.raises(PreconditionError):
        AnnealingSchedule(initial_temperature=0.0)
    with pytest.raises(PreconditionError):
        AnnealingSchedule(cooling_factor=0.0)
    with pytest.raises(PreconditionError):
        AnnealingSchedule(cooling_factor=1.1)
    with pytest.raises(PreconditionError):
        AnnealingSchedule(iterations=-1)
    with pytest.raises(PreconditionError):
        AnnealingSchedule(iterations=10.5)


def test_soft_target_validation():
    with pytest.raises(PreconditionError):
        SoftTarget(metric="volume", value=1.0)
    with pytest.raises(PreconditionError):
        SoftTarget(metric="density", value=0.5, weight=-1.0)
    with pytest.raises(PreconditionError):
        SoftTarget(metric="density", value=0.5, nodes=("a",))
    with pytest.raises(PreconditionError):
        SoftTarget(metric="eigenvector_top3", value=1.0)  # needs 1..3 nodes
    with pytest.raises(PreconditionError):
        SoftTarget(metric="eigenvector_top3", value=1.0, nodes=("a", "b", "c", "d"))


def test_target_validation():
    with pytest.raises(PreconditionError):
        small_target(nodes=("a", "a"))
    with pytest.raises(InfeasibleTargetError):
        small_target(edge_count=46)  # ten nodes hold at most 45
    with pytest.raises(InfeasibleTargetError):
        small_target(edge_count=-1)
    with pytest.raises(InfeasibleTargetError):
        small_target(hard=HardConstraints(degrees=((NAMES[0], 10),)))
    with pytest.raises(PreconditionError):
        small_target(hard=HardConstraints(degrees=(("ghost", 3),)))
    with pytest.raises(PreconditionError):
        small_target(hard=HardConstraints(adjacent=((NAMES[0], NAMES[0]),)))
    with pytest.raises(PreconditionError):
        small_target(hard=HardConstraints(pair_coverage=(NAMES[0], NAMES[0], 3)))
    with pytest.raises(InfeasibleTargetError):
        small_target(hard=HardConstraints(pair_coverage=(NAMES[0], NAMES[1], 18)))
    with pytest.raises(PreconditionError, match="two distinct nodes"):
        small_target(hard=HardConstraints(top_degree_pair=(NAMES[0], NAMES[0])))
    with pytest.raises(PreconditionError):
        small_target(soft=(SoftTarget(metric="eigenvector_top3", value=1.0, nodes=("ghost",)),))
    with pytest.raises(PreconditionError, match="connected must be a bool"):
        HardConstraints(connected="false")
    with pytest.raises(PreconditionError, match="top_degree_margin must be non-negative"):
        HardConstraints(top_degree_margin=-1)
    with pytest.raises(PreconditionError, match="exactly 3 entries"):
        HardConstraints(pair_coverage=(NAMES[0], NAMES[1]))
    with pytest.raises(PreconditionError, match="exactly 2 entries"):
        HardConstraints(top_degree_pair=(NAMES[0], NAMES[1], NAMES[2]))
    with pytest.raises(PreconditionError, match="exactly 2 entries"):
        HardConstraints(adjacent=("ab",))  # a string is not split into two labels
    with pytest.raises(PreconditionError, match="list of labels"):
        SoftTarget(metric="eigenvector_top3", value=1.0, nodes="ab")
    with pytest.raises(PreconditionError, match="list of labels"):
        SynthesisTarget(nodes="abc", edge_count=2)  # not the roster ('a', 'b', 'c')


@pytest.mark.parametrize("bad", [2.5, 2.0, True, "2"])
@pytest.mark.parametrize(
    "build",
    [
        lambda bad: small_target(hard=HardConstraints(degrees=((NAMES[0], bad),))),
        lambda bad: small_target(edge_count=bad),
        lambda bad: small_target(hard=HardConstraints(pair_coverage=(NAMES[0], NAMES[1], bad))),
        lambda bad: small_target(hard=HardConstraints(top_degree_margin=bad)),
        lambda bad: AnnealingSchedule(rng_seed=bad),
    ],
    ids=[
        "pinned_degree", "edge_count", "pair_coverage_count", "top_degree_margin", "rng_seed"
    ],
)
def test_constructors_reject_non_integral_counts(build, bad):
    with pytest.raises(PreconditionError, match="must be an integer"):
        build(bad)


# True is not 1.0, and an int too big for a float is not finite
@pytest.mark.parametrize(
    "bad", [math.nan, math.inf, -math.inf, True, pytest.param(10**400, id="huge_int")]
)
@pytest.mark.parametrize(
    "build",
    [
        lambda bad: SoftTarget(metric="density", value=bad),
        lambda bad: SoftTarget(metric="density", value=0.5, weight=bad),
        lambda bad: AnnealingSchedule(initial_temperature=bad),
        lambda bad: small_target(missing_metric_penalty=bad),
    ],
    ids=["soft_value", "soft_weight", "initial_temperature", "missing_metric_penalty"],
)
def test_constructors_reject_non_finite_numbers(build, bad):
    with pytest.raises(PreconditionError, match="finite"):
        build(bad)


@pytest.mark.parametrize(
    "metric, value, weight, penalty",
    [
        ("density", 1e308, 1e308, 100.0),  # weight * d * d overflows
        ("density", 0.5, 1e307, 100.0),  # d is at most 1, but the penalty term overflows
        ("diameter_lcc", 1e154, 1e3, 0.0),  # d is measured from 0 and from n - 1
        ("mean_betweenness", -1e200, 1.0, 0.0),
    ],
)
def test_targets_that_can_overflow_the_objective_are_rejected(metric, value, weight, penalty):
    soft = (SoftTarget(metric=metric, value=value, weight=weight),)
    with pytest.raises(PreconditionError, match="overflow the objective"):
        small_target(soft=soft, missing_metric_penalty=penalty)


def test_worst_case_objective_just_inside_the_float_range_is_accepted():
    # density's deviation is at most 1 on [0, 1]; average_degree's is
    # n - 1 = 9 from a target of 0 on ten nodes
    small_target(soft=(SoftTarget(metric="density", value=0.0, weight=1e307),),
                 missing_metric_penalty=1.0)
    small_target(soft=(SoftTarget(metric="average_degree", value=0.0, weight=1e306),),
                 missing_metric_penalty=0.0)
    # two terms that fit alone but not together
    soft = (SoftTarget(metric="density", value=0.0, weight=1e308),) * 2
    with pytest.raises(PreconditionError, match="overflow the objective"):
        small_target(soft=soft, missing_metric_penalty=1.0)


def test_static_infeasibility_is_detected_before_annealing():
    # the constructor finds it, so an infeasible target cannot be built;
    # connected on 10 nodes needs at least 9 edges
    with pytest.raises(InfeasibleTargetError):
        small_target(edge_count=5)
    # pinned degrees alone exceed the edge budget
    with pytest.raises(InfeasibleTargetError):
        small_target(
            edge_count=9,
            hard=HardConstraints(degrees=tuple((v, 9) for v in NAMES[:3])),
        )
    # a required adjacency contradicts a degree-zero pin
    with pytest.raises(InfeasibleTargetError):
        small_target(
            hard=HardConstraints(
                connected=False,
                degrees=((NAMES[0], 0),),
                adjacent=((NAMES[0], NAMES[1]),),
            )
        )


def test_synthesize_meets_hard_constraints_exactly():
    target = small_target(
        edge_count=20,
        hard=HardConstraints(
            connected=True,
            degrees=((NAMES[3], 6), (NAMES[7], 2)),
            adjacent=((NAMES[0], NAMES[1]),),
            pair_coverage=(NAMES[0], NAMES[2], 13),
            top_degree_pair=(NAMES[0], NAMES[2]),
            top_degree_margin=1,
        ),
    )
    g = synthesize_reference(target)
    assert sorted(g.nodes) == NAMES
    assert g.edge_count == 20
    assert g.degree(NAMES[3]) == 6
    assert g.degree(NAMES[7]) == 2
    assert g.has_edge(NAMES[0], NAMES[1])
    a, b = NAMES[0], NAMES[2]
    covered = g.degree(a) + g.degree(b) - (1 if g.has_edge(a, b) else 0)
    assert covered == 13
    others = [g.degree(v) for v in g.nodes if v not in (a, b)]
    assert min(g.degree(a), g.degree(b)) >= max(others) + 1
    from covertnet import connected_components

    assert len(connected_components(g)) == 1


def test_synthesize_is_deterministic_per_seed():
    target = small_target()
    assert synthesize_reference(target) == synthesize_reference(target)
    other = small_target(schedule=quick_schedule(seed=2))
    assert synthesize_reference(other) != synthesize_reference(target)


def test_synthesize_moves_toward_soft_targets():
    soft = (SoftTarget(metric="average_clustering", value=0.6, weight=1.0),)
    base = small_target(edge_count=20, soft=soft, schedule=quick_schedule(iterations=0))
    start = synthesize_reference(base)
    tuned = synthesize_reference(
        small_target(edge_count=20, soft=soft, schedule=quick_schedule(iterations=8000))
    )
    assert objective(tuned, base) <= objective(start, base)


def test_objective_rejects_roster_mismatch():
    target = small_target()
    with pytest.raises(GraphError):
        objective(LabeledGraph(["a", "b"], [("a", "b")]), target)


def test_evaluator_agrees_with_plain_metrics():
    # the annealer scores candidates with its own reductions of the
    # metric kernels; they must match the public metric functions
    rng = random.Random(90)
    for trial in range(25):
        g = random_connected_graph(rng, rng.randrange(5, 17), rng.randrange(2, 25))
        nodes3 = tuple(sorted(g.nodes)[:3])
        rows = {r["metric"]: r for r in soft_report(g, full_soft_target(g, nodes3))}
        assert rows["density"]["achieved"] == pytest.approx(density(g), abs=1e-12)
        assert rows["fragmentation"]["achieved"] == pytest.approx(fragmentation(g), abs=1e-12)
        assert rows["average_degree"]["achieved"] == pytest.approx(average_degree(g), abs=1e-12)
        # both sides call the same kernels, so these agree exactly
        assert rows["diameter_lcc"]["achieved"] == diameter_lcc(g)
        assert rows["average_clustering"]["achieved"] == average_clustering(g)
        assert rows["degree_centralization"]["achieved"] == degree_centralization(g)
        # the annealer sums the Brandes kernel; the public mean reads the
        # distances alone and may differ from it in the last bits
        a = adjacency_matrix(g)
        n = g.node_count
        kernel = float(_raw_betweenness(a, _paths(a)).sum()) / (n * (n - 1) * (n - 2))
        assert rows["mean_betweenness"]["achieved"] == kernel
        assert kernel == pytest.approx(mean_betweenness(g), rel=1e-15, abs=0.0)


def test_evaluator_top3_agrees_with_eigenvector_ranking():
    rng = random.Random(91)
    checked = 0
    while checked < 15:
        g = random_connected_graph(rng, rng.randrange(6, 15), rng.randrange(4, 20))
        scores = eigenvector_centrality(g)
        ranked = sorted(sorted(scores), key=lambda v: (-scores[v], v))
        gap = scores[ranked[2]] - scores[ranked[3]]
        if gap < 1e-6:
            continue  # a genuine tie would make the ranking ambiguous
        top3 = tuple(ranked[:3])
        rows = {r["metric"]: r for r in soft_report(g, full_soft_target(g, top3))}
        assert rows["eigenvector_top3"]["achieved"] == pytest.approx(1.0)
        checked += 1


def test_objective_matches_soft_report_contributions():
    rng = random.Random(92)
    g = random_connected_graph(rng, 9, 14)
    target = full_soft_target(g, tuple(sorted(g.nodes)[:2]))
    # weights other than powers of two show a second score formula's
    # rounding, such as weight * d ** 2 beside weight * d * d
    soft = tuple(replace(t, weight=1.1 + 0.3 * k) for k, t in enumerate(target.soft))
    target = replace(target, soft=soft)
    rows = soft_report(g, target)
    total = 0.0
    for row in rows:
        total += row["contribution"]
    assert objective(g, target) == total


def random_soft_target(rng, g):
    """Up to a dozen soft entries, repeats allowed, every eigenvector_top3 naming the same nodes."""
    roster = sorted(g.nodes)
    top3 = tuple(rng.sample(roster, rng.randrange(1, min(3, len(roster)) + 1)))
    soft = []
    for _ in range(rng.randrange(1, 13)):
        metric = rng.choice(SOFT_METRICS)
        soft.append(SoftTarget(
            metric=metric,
            value=rng.uniform(-1.0, 3.0),
            weight=rng.uniform(0.0, 4.0),
            nodes=top3 if metric == "eigenvector_top3" else (),
        ))
    return SynthesisTarget(
        nodes=tuple(g.nodes),
        edge_count=g.edge_count,
        hard=HardConstraints(connected=False),
        soft=tuple(soft),
        missing_metric_penalty=rng.uniform(0.0, 50.0),
    )


def test_evaluator_matches_the_metric_dict_oracle():
    rng = random.Random(93)
    repeats = 0
    for _ in range(150):
        n = rng.randrange(1, 13)
        g = gnm_graph(rng, n, rng.randrange(n * (n - 1) // 2 + 1))
        target = random_soft_target(rng, g)
        state, evaluator = _candidate(g, target)
        oracle = MetricDictEvaluator(target, tuple(sorted(target.nodes)))
        want = list(oracle.contributions(state))
        assert list(evaluator.contributions(state)) == want
        total = 0.0
        for _metric, _got, contribution in want:
            total += contribution
        assert evaluator.objective(state) == total
        repeats += len({t.metric for t in target.soft}) < len(target.soft)
    assert repeats >= 50  # targets that list one metric twice are exercised


def stretched_graph(rng, kind, n, isolated):
    """A path, cycle or barbell (4-cliques at both ends of a path) through
    n shuffled labels, plus `isolated` nodes without an edge."""
    names = labels(n + isolated)
    rng.shuffle(names)
    line = names[:n]
    edges = list(zip(line, line[1:]))
    if kind == "cycle":
        edges.append((line[-1], line[0]))
    elif kind == "barbell":
        for end in (line[:4], line[-4:]):
            edges += [(u, v) for i, u in enumerate(end) for v in end[i + 2:]]
    return LabeledGraph(names, edges)


def test_evaluator_matches_the_oracle_on_long_and_split_graphs():
    # diameters of 10 and more give Brandes many hop levels and the sweep
    # a deep depth; isolated nodes and swaps that cut the line leave pairs
    # unreached. The oracle reads neither the sweep's depth nor its mask
    # (tests/oracles.py).
    rng = random.Random(95)
    deep = split = 0
    for trial in range(30):
        kind = ("path", "cycle", "barbell")[trial % 3]
        isolated = rng.randrange(1, 4) if trial % 2 else 0
        g = stretched_graph(rng, kind, rng.randrange(20, 41 - isolated), isolated)
        roster = tuple(sorted(g.nodes))
        soft = tuple(
            SoftTarget(
                metric=metric,
                value=rng.uniform(0.0, 12.0),
                weight=rng.uniform(0.5, 2.0),
                nodes=tuple(rng.sample(roster, 3)) if metric == "eigenvector_top3" else (),
            )
            for metric in SOFT_METRICS
        )
        target = SynthesisTarget(
            nodes=roster,
            edge_count=g.edge_count,
            hard=HardConstraints(connected=False),
            soft=soft,
        )
        state, evaluator = _candidate(g, target)
        oracle = MetricDictEvaluator(target, roster)
        for _ in range(6):
            got = list(evaluator.contributions(state))
            assert got == list(oracle.contributions(state))
            diameter = {metric: achieved for metric, achieved, _c in got}["diameter_lcc"]
            deep += diameter is not None and diameter >= 10
            split += diameter is None
            swap_walk(rng, state, 1)
    assert deep >= 30 and split >= 60


def test_each_eigenvector_top3_entry_is_scored_with_its_own_nodes():
    # P1 ranks in the bundled network's eigenvector top 3 and Ps2 does not
    g = reference_network()
    soft = tuple(SoftTarget(metric="eigenvector_top3", value=1.0, nodes=(v,)) for v in ("P1", "Ps2"))
    target = SynthesisTarget(nodes=tuple(g.nodes), edge_count=g.edge_count, soft=soft)
    assert [row["achieved"] for row in soft_report(g, target)] == [1.0, 0.0]
    assert objective(g, target) == 1.0


def top3_target(g):
    """An eigenvector_top3 target on g's roster whose hard rules never bind."""
    roster = tuple(sorted(g.nodes))
    return SynthesisTarget(
        nodes=roster,
        edge_count=g.edge_count,
        hard=HardConstraints(connected=False),
        soft=(SoftTarget(metric="eigenvector_top3", value=1.0, nodes=roster[:3]),),
    )


@pytest.fixture
def dense_calls(monkeypatch):
    """A list that grows by one on every dense solve the annealer's evaluator makes."""
    calls = []

    def counted(a, members):
        calls.append(a.shape[0])
        return _leading_vector(a, members)

    monkeypatch.setattr(synthesis, "_leading_vector", counted)
    return calls


def certified_top3(evaluator, state):
    """The evaluator's top-3 set for state, with connectivity decided as `contributions` does."""
    sweep = _paths(state.a)
    return evaluator._top3(state, sweep, sweep.left == 0, int(state.deg.max()))


def dense_top3_scores(state):
    return _leading_vector(state.a, _largest_component(_paths(state.a).dist))


def dense_top3(state):
    return set(np.argsort(-dense_top3_scores(state), kind="stable")[:3].tolist())


def test_certified_top3_matches_the_dense_ranking_on_swap_walks(dense_calls):
    # one evaluator per walk, as in the annealer, so every state after the
    # first may be decided by power iteration from the previous ones
    rng = random.Random(94)
    calls = 0
    for walk in range(40):
        n = rng.randrange(4, 41)
        if walk % 2:
            g = gnm_graph(rng, n, rng.randrange(n * (n - 1) // 2 + 1))
        else:
            g = random_connected_graph(rng, n, rng.randrange(3 * n))
        state, evaluator = _candidate(g, top3_target(g))
        for _ in range(60):
            assert certified_top3(evaluator, state) == dense_top3(state)
            calls += 1
            if not state.edges or not state.non_edges:
                break
            out_pair = state.edges[rng.randrange(len(state.edges))]
            state.swap(out_pair, state.non_edges[rng.randrange(len(state.non_edges))])
    # both branches ran, many times each
    assert min(len(dense_calls), calls - len(dense_calls)) >= 200


def complete_bipartite(a, b):
    names = labels(a + b)
    return LabeledGraph(names, [(names[i], names[a + j]) for i in range(a) for j in range(b)])


def lopsided_pair(tail_edges, bridge):
    """A 7-node cluster with a clear top three (v04-v06), optionally joined
    at v06 to the edges on v07-v16; with the bridge gone the larger
    component is the tail, although the cluster holds the top eigenvalue."""
    names = labels(17)
    dropped = {(0, 1), (0, 2), (1, 2), (0, 3)}
    pairs = [(i, j) for i in range(7) for j in range(i + 1, 7) if (i, j) not in dropped]
    edges = [(names[i], names[j]) for i, j in pairs]
    edges += [(names[i], names[j]) for i, j in tail_edges]
    if bridge:
        edges.append((names[6], names[7]))
    return LabeledGraph(names, edges)


PATH_TAIL = [(i, i + 1) for i in range(7, 16)]
# a chain v07-v09 to a second cluster, a path or a K7 on v10-v16
CHAIN = [(i, i + 1) for i in range(7, 10)]
CHAIN_TO_PATH = CHAIN + [(i, i + 1) for i in range(10, 16)]
CHAIN_TO_K7 = CHAIN + [(i, j) for i in range(10, 17) for j in range(i + 1, 17)]


def flip_to(state, g, idx):
    """Flip the state's pairs one at a time until its matrix is g's. The
    edge lists are left as they were: `_top3` does not read them."""
    want = set(_index_pairs(idx, g.edges()))
    for i in range(state.n):
        for j in range(i + 1, state.n):
            if state.has(i, j) != ((i, j) in want):
                state._link((i, j), not state.has(i, j))


@pytest.mark.parametrize(
    "graphs",
    [
        [complete_graph(7)] * 2,
        [cycle_graph(8)] * 2,
        [complete_bipartite(4, 5)] * 2,
        [star_graph(6)] * 2,
        [cycle_graph(3)] * 2,
        [lopsided_pair(PATH_TAIL, True), lopsided_pair(PATH_TAIL, False)],
        [lopsided_pair(CHAIN_TO_PATH, True), lopsided_pair(CHAIN_TO_K7, True)],
    ],
    ids=["K7", "C8", "K4,5", "star", "n=3", "split", "second-eigenvector-start"],
)
def test_top3_falls_back_to_eigh_where_nothing_is_proved(graphs, dense_calls):
    # one evaluator scores one state, flipped to each graph in turn, so the
    # first dense solve gives the second call its start. On the symmetric
    # graphs the second call starts from the exact leading vector, yet a
    # tie between the 3rd and 4th entries, or n <= 3, leaves the set to the
    # dense solve; K4,5 is bipartite as well, so lambda_n = -lambda_1 keeps
    # the trace bound at rho or above. "split" drops the bridge: power
    # iteration would settle on the cluster, the dense solve ranks the
    # larger component. "second-eigenvector-start" makes the second cluster
    # dominant: the start vector is nearly an eigenvector of the second
    # eigenvalue, so rho is near lambda_2 and tr(A^4) - rho^4 still holds
    # lambda_1^4, which keeps it from passing as the leading one.
    idx = {v: i for i, v in enumerate(sorted(graphs[0].nodes))}
    state, evaluator = _candidate(graphs[0], top3_target(graphs[0]))
    for k, g in enumerate(graphs, 1):
        flip_to(state, g, idx)
        assert certified_top3(evaluator, state) == dense_top3(state)
        assert len(dense_calls) == k


def test_certified_top3_decides_without_eigh_once_warm(dense_calls):
    g = reference_network()
    state, evaluator = _candidate(g, top3_target(g))
    for _ in range(5):
        assert certified_top3(evaluator, state) == dense_top3(state)
    assert len(dense_calls) == 1  # the first call only


def swap_walk(rng, state, steps, hub=None):
    """Random single-edge swaps; with `hub`, each swap moves an edge of that node."""
    for _ in range(steps):
        if hub is not None:
            near = [u for u in range(state.n) if u != hub and state.has(hub, u)]
            far = [u for u in range(state.n) if u != hub and not state.has(hub, u)]
            if not near or not far:
                return
            out_u, in_u = rng.choice(near), rng.choice(far)
            state.swap((min(hub, out_u), max(hub, out_u)), (min(hub, in_u), max(hub, in_u)))
        elif state.edges and state.non_edges:
            out_pair = state.edges[rng.randrange(len(state.edges))]
            state.swap(out_pair, state.non_edges[rng.randrange(len(state.non_edges))])


def unit_iterates(a, w, steps):
    """The float Rayleigh quotients w . (a @ w) of `steps` power iterates
    from w >= 0, each w = x / |x| as the certificate forms it."""
    w = w / math.sqrt(float(w.dot(w)))
    for _ in range(steps):
        x = a @ w
        yield float(w.dot(x))
        w = x / math.sqrt(float(x.dot(x)))


def test_trace_bound_covers_every_other_eigenvalue():
    # (tr A^4 - rho^4)^(1/4), rounded as `_second_bound` rounds it, is at
    # least |lambda_i| for every i >= 2, for the Rayleigh quotients of
    # power iterates from eigh's leading vector (as the annealer starts)
    # and of random non-negative unit vectors, on random graphs, swap
    # walks and graphs whose |lambda_n| equals lambda_1 or comes close.
    # eigvalsh's own error is allowed for, at 1e-13 lambda_1.
    rng = random.Random(19)
    np_rng = np.random.default_rng(19)
    graphs = [complete_bipartite(4, 5), cycle_graph(8), star_graph(6), complete_graph(5)]
    for _ in range(60):
        n = rng.randrange(5, 36)
        graphs.append(random_connected_graph(rng, n, rng.randrange(3 * n)))
    tight = useful = checked = 0
    for k, g in enumerate(graphs):
        state = _candidate(g, top3_target(g))[0]
        hub = rng.randrange(state.n) if k % 2 else None
        for _ in range(6):
            a = state.a
            vals = np.linalg.eigvalsh(a)
            lam1 = vals[-1]
            others = float(np.abs(vals[:-1]).max())
            sweep = _paths(a)
            starts = [np.abs(np.linalg.eigh(a)[1][:, -1])]
            starts += [np_rng.random(state.n) ** 3 for _ in range(3)]
            for w in starts:
                for rho in unit_iterates(a, w, 4):
                    bound = synthesis._second_bound(sweep.walks4, rho, state.n)
                    assert bound >= others - 1e-13 * lam1
                    checked += 1
                    tight += bool(bound - others < 1e-12 * lam1)
                    useful += bound < rho
            swap_walk(rng, state, rng.randrange(1, 4), hub)
    assert checked >= 4000 and tight >= 5 and useful >= 500


def exact_residual(a, w, rho):
    """(|Az - rho z|^2, z'Az) for z = w / |w|, in exact rational arithmetic."""
    w = [Fraction(float(v)) for v in w]
    rows = [[j for j in range(len(w)) if a[i, j]] for i in range(len(w))]
    aw = [sum((w[j] for j in row), Fraction(0)) for row in rows]
    norm = sum(v * v for v in w)
    rho = Fraction(rho)
    square = sum((y - rho * v) ** 2 for y, v in zip(aw, w)) / norm
    return square, sum(y * v for y, v in zip(aw, w)) / norm


def test_certificate_bounds_hold_in_exact_arithmetic():
    # for the power iterates of random non-negative starts and of eigh's
    # leading vector, where the iterates converge and the residual is all
    # rounding: the eigenvalue bound's fourth power plus that of the exact
    # Rayleigh quotient R (at most lambda_1) is at least tr(A^4), and the
    # certificate's |Az - rho z|^2, x . x - rho^2 plus a slack, is at
    # least the exact value; the slack stays of the order of the
    # rounding, so the bound is not vacuous
    rng = random.Random(67)
    np_rng = np.random.default_rng(67)
    converged = 0
    for walk in range(24):
        n = rng.randrange(4, 21)
        g = random_connected_graph(rng, n, rng.randrange(2 * n))
        a = _candidate(g, top3_target(g))[0].a
        walks4 = int(_paths(a).walks4)
        starts = [np.abs(np.linalg.eigh(a)[1][:, -1]), np_rng.random(n) ** 3]
        for w in starts:
            w = w / math.sqrt(float(w.dot(w)))
            for _ in range(6):
                x = a @ w
                rho = float(w.dot(x))
                xx = float(x.dot(x))
                got = synthesis._residual_square(xx, rho, n)
                want, quotient = exact_residual(a, w, rho)
                bound = synthesis._second_bound(walks4, rho, n)
                assert Fraction(bound) ** 4 + quotient**4 >= walks4
                assert Fraction(got) >= want
                assert got - float(want) <= 64 * (n + 2) * 2.0**-53 * (xx + rho * rho)
                converged += float(want) < 1e-20
                w = x / math.sqrt(xx)
    assert converged >= 20


def test_every_certified_top3_set_clears_the_dense_vector_by_its_slack(dense_calls):
    # each set the certificate accepts must be the dense vector's top three
    # with room for eigh's error: min inside minus max outside > 2e-9
    rng = random.Random(58)
    certified = 0
    for walk in range(40):
        n = rng.randrange(5, 36)
        g = random_connected_graph(rng, n, rng.randrange(n, 4 * n))
        state, evaluator = _candidate(g, top3_target(g))
        hub = rng.randrange(n) if walk % 2 else None
        for _ in range(40):
            before = len(dense_calls)
            got = certified_top3(evaluator, state)
            if len(dense_calls) == before:
                scores = dense_top3_scores(state)
                inside = np.array(sorted(got))
                outside = np.setdiff1d(np.arange(n), inside)
                assert scores[inside].min() - scores[outside].max() > 2e-9
                certified += 1
            swap_walk(rng, state, 1, hub)
    assert certified >= 500


def replay_target(n, m, seed):
    names = labels(n)
    return SynthesisTarget(
        nodes=tuple(names),
        edge_count=m,
        hard=HardConstraints(connected=True),
        soft=(
            SoftTarget(metric="eigenvector_top3", value=1.0, weight=5.0, nodes=tuple(names[-3:])),
            SoftTarget(metric="average_clustering", value=0.6),
            SoftTarget(metric="diameter_lcc", value=2.0),
            SoftTarget(metric="mean_betweenness", value=0.02),
        ),
        schedule=AnnealingSchedule(
            initial_temperature=0.5, cooling_factor=0.998, iterations=2000, rng_seed=seed
        ),
    )


REPLAYS = [(12, 26, 1), (16, 40, 2), (20, 52, 3)]
REPLAY_DENSE_CAPS = [60, 25, 35]  # 33, 10 and 17 dense solves measured


@pytest.mark.parametrize("n, m, seed", REPLAYS)
def test_synthesis_replays_with_the_dense_oracle_evaluator(n, m, seed, monkeypatch):
    # the annealer's path depends on every score, so equal edges mean the
    # certified top-3 sets equalled the dense ones all the way
    target = replay_target(n, m, seed)
    built = synthesize_reference(target)
    monkeypatch.setattr(synthesis, "_Evaluator", MetricDictEvaluator)
    assert synthesize_reference(target).edges() == built.edges()


def chiapas_prefix():
    """The default target cut to its first 1 500 proposals."""
    t = default_chiapas_target()
    return replace(t, schedule=replace(t.schedule, iterations=1500))


@pytest.mark.parametrize(
    "target, most",
    [(replay_target(*args), cap) for args, cap in zip(REPLAYS, REPLAY_DENSE_CAPS)]
    + [(chiapas_prefix(), 3)],
    ids=[f"replay-n{n}" for n, _m, _seed in REPLAYS] + ["chiapas-prefix"],
)
def test_dense_solves_stay_rare_on_sparse_and_default_targets(target, most, dense_calls):
    # each candidate bounds its own second eigenvalue by its tr(A^4), so
    # the bound does not grow with the swaps since a dense solve: of about
    # 2 000 evaluations (870 on the default target's 1 500-proposal
    # prefix, which needs its first solve only) almost all are certified
    synthesize_reference(target)
    assert len(dense_calls) <= most


def test_score_brackets_the_exact_objective_on_random_states():
    # lo <= objective <= hi on random states of random targets, disconnected
    # ones included. A mean betweenness entry valued at the graph's own mean
    # makes its bracket straddle the value, where the low end scores 0.
    rng = random.Random(71)
    opened = straddled = split = 0
    for _ in range(150):
        n = rng.randrange(3, 16)
        g = gnm_graph(rng, n, rng.randrange(n * (n - 1) // 2 + 1))
        target = random_soft_target(rng, g)
        value = mean_betweenness(g) if rng.random() < 0.5 else rng.uniform(0.0, 0.3)
        extra = SoftTarget(metric="mean_betweenness", value=value, weight=rng.uniform(0.5, 4.0))
        target = replace(target, soft=target.soft + (extra,))
        state, evaluator = _candidate(g, target)
        for _ in range(4):
            score = evaluator.score(state)
            exact = evaluator.objective(state)
            assert score.lo <= exact <= score.hi
            opened += score.lo < score.hi
            straddled += any(
                type(got) is tuple and got[0] < t.value < got[1]
                for t, (_metric, got, _c) in zip(target.soft, score.rows)
            )
            split += state.component_count() > 1
            assert score.exact() == exact
            assert score.rows == evaluator.contributions(state)
            swap_walk(rng, state, 1)
    assert opened >= 400 and straddled >= 100 and split >= 100


def test_bracket_decisions_equal_the_exact_comparisons():
    # the annealer's comparisons on brackets must equal the comparisons of
    # the exact values inside them, also for u just either side of the
    # acceptance probability, where only the exact values can decide
    rng = random.Random(61)
    pinned = []

    def score(x):
        lo = x - rng.choice([0.0, 1e-12, 1e-9, 1e-6, 1e-3]) * rng.random()
        hi = x + rng.choice([0.0, 1e-12, 1e-9, 1e-6, 1e-3]) * rng.random()
        return synthesis._Score(lo, hi, [], lambda: pinned.append(x) or [("x", x, x)])

    settled = 0
    for _ in range(4000):
        x_cur = rng.choice([0.0, rng.random()])
        step = rng.choice([1e-13, 1e-10, 1e-7, 1e-4, 0.1]) * rng.random()
        x_new = rng.choice([x_cur, x_cur + step])
        if rng.random() < 0.5:
            x_cur, x_new = x_new, x_cur
        cur, new = score(x_cur), score(x_new)
        before = len(pinned)
        assert synthesis._at_most(cur, synthesis._ZERO) == (x_cur <= 0.0)
        assert synthesis._at_most(new, cur) == (x_new <= x_cur)
        assert synthesis._at_most(cur, new) == (x_cur <= x_new)
        if x_new > x_cur:
            t = 10.0 ** rng.uniform(-6.0, 0.0)
            p = math.exp(-(x_new - x_cur) / t)
            nudge = rng.choice([-1.0, 1.0]) * rng.choice([0.0, 1e-15, 1e-13, 1e-11, 1e-8])
            u = min(p * (1.0 + nudge), 1.0 - 2.0**-53)
            u = rng.choice([u, rng.random()])
            assert synthesis._coin(u, score(x_new), score(x_cur), t) == (u < p)
        settled += len(pinned) == before
    assert min(settled, 4000 - settled) >= 500


def betweenness_target(n, m, seed, connected, value, extra=()):
    """A target that scores mean betweenness, alone or with `extra` soft
    entries, cooled from a low temperature so that runs settle on it."""
    return SynthesisTarget(
        nodes=tuple(labels(n)),
        edge_count=m,
        hard=HardConstraints(connected=connected),
        soft=(SoftTarget(metric="mean_betweenness", value=value, weight=5.0), *extra),
        schedule=AnnealingSchedule(
            initial_temperature=0.01, cooling_factor=0.998, iterations=1500, rng_seed=seed
        ),
    )


def test_largest_degree_bounds_every_path_count():
    # the d - 1 inner nodes of a shortest path are each one of at most
    # dmax neighbours, so dmax ** (depth - 1) bounds every count; a
    # layered graph of width w meets it within a factor 2 per level
    rng = random.Random(83)
    graphs = [layered_graph(k, w) for k in (2, 3, 6, 12) for w in (1, 2, 4)]
    graphs += [LabeledGraph(labels(n)) for n in (1, 3)] + [complete_graph(5), star_graph(6)]
    graphs += [gnm_graph(rng, n, rng.randrange(n * (n - 1) // 2 + 1))
               for n in (rng.randrange(1, 30) for _ in range(40))]
    graphs += [random_connected_graph(rng, rng.randrange(2, 40), rng.randrange(0, 60))
               for _ in range(40)]
    tight = 0
    for g in graphs:
        a = adjacency_matrix(g)
        sweep = _paths(a)
        dmax = int(a.sum(axis=1).max())
        top = float(_path_counts(a, sweep).max())
        assert dmax ** max(sweep.depth - 1, 0) >= top
        tight += sweep.depth > 2 and top * 2 ** (sweep.depth - 1) >= dmax ** (sweep.depth - 1)
    assert tight >= 6


def test_brandes_sums_at_once_where_the_degree_bound_fails():
    # width-3 layers: dmax = 6 and depth 23 put the bound at 6**22 > 2**53,
    # while the counts themselves stay below 3**22, so the kernel's own sum
    # comes back, and it lies within the bracket the bound could not grant
    a = adjacency_matrix(layered_graph(24, 3, extra=["lone"]))
    sweep = _paths(a)
    assert (sweep.depth, int(a.sum(axis=1).max())) == (23, 6)
    got = synthesis._brandes(a, sweep, 6)
    assert type(got) is float
    assert got == float(_raw_betweenness(a, sweep).sum())
    excess, pairs = _distance_sums(sweep.dist)
    assert abs(got - excess) <= 1e-9 * (excess + 2 * pairs)
    assert type(synthesis._brandes(a[:66, :66], _paths(a[:66, :66]), 6)) is tuple


@pytest.mark.parametrize(
    "target",
    [
        betweenness_target(10, 14, 1, True, 0.1),
        betweenness_target(12, 16, 2, False, 0.05),
        betweenness_target(14, 30, 3, True, 0.04),
        betweenness_target(
            11, 20, 4, True, 0.06, (SoftTarget(metric="average_clustering", value=0.2, weight=0.1),)
        ),
    ],
    ids=["n10-hits-zero", "n12-split", "n14", "n11-with-clustering"],
)
def test_bracketed_annealer_replays_the_eager_loop(target, monkeypatch):
    # the eager loop scores every candidate exactly with the oracle
    # evaluator and keeps only swapped states without a violation; the
    # bracketed loop, guarded by `propose` before the swap, must take the
    # same path, so it ends on equal edges with the RNG in an equal state.
    # Betweenness-led targets leave many decisions open, so the kernel
    # runs to pin them.
    order = tuple(sorted(target.nodes))
    check = _HardCheck(target, order)
    sched = target.schedule
    seed_rng = random.Random(sched.rng_seed)
    n, m = len(order), target.edge_count
    if target.hard.connected:
        g = random_connected_graph(seed_rng, n, m - (n - 1))
    else:
        g = gnm_graph(seed_rng, n, m)
    kernel_calls = []

    def counted(a, sweep):
        kernel_calls.append(a.shape[0])
        return _raw_betweenness(a, sweep)

    monkeypatch.setattr(synthesis, "_raw_betweenness", counted)
    runs = []
    for anneal in (eager_anneal, synthesis._anneal):
        state, evaluator = _candidate(g, target)
        if anneal is eager_anneal:
            score = MetricDictEvaluator(target, order).objective
            guard = lambda s, _cut: check.violations(s) == 0.0
        else:
            score, guard = evaluator.score, check.propose
        rng = random.Random(sched.rng_seed)
        result = anneal(
            state, rng, sched.iterations, sched.initial_temperature, sched.cooling_factor,
            score, guard, check.required,
        )
        runs.append((result, rng.getstate()))
    assert runs[0] == runs[1]
    assert len(kernel_calls) >= 20


def test_missing_metric_draws_the_penalty():
    # an edgeless graph has no diameter; the target treats that as a
    # miss worth the full configured penalty
    names = labels(4)
    g = LabeledGraph(names)
    target = SynthesisTarget(
        nodes=tuple(names),
        edge_count=0,
        hard=HardConstraints(connected=False),
        soft=(SoftTarget(metric="diameter_lcc", value=2.0, weight=3.0),),
        schedule=quick_schedule(),
        missing_metric_penalty=50.0,
    )
    (row,) = soft_report(g, target)
    assert row["achieved"] is None
    assert row["contribution"] == pytest.approx(150.0)
    assert objective(g, target) == pytest.approx(150.0)


def test_load_target_with_named_nodes():
    doc = {
        "hard": {
            "nodes": ["a", "b", "c", "d"],
            "edges": 4,
            "connected": True,
            "degrees": {"a": 3},
            "adjacent": [["a", "b"]],
            "pair_coverage": {"pair": ["a", "b"], "count": 4},
            "top_degree_pair": {"pair": ["a", "b"], "margin": 1},
        },
        "soft": [{"metric": "density", "value": 0.6, "weight": 2.0}],
        "schedule": {"iterations": 500, "rng_seed": 3},
        "missing_metric_penalty": 10.0,
    }
    target = load_synthesis_target(json.dumps(doc))
    assert target.nodes == ("a", "b", "c", "d")
    assert target.edge_count == 4
    assert target.hard.degrees == (("a", 3),)
    assert target.hard.pair_coverage == ("a", "b", 4)
    assert target.hard.top_degree_pair == ("a", "b")
    assert target.hard.top_degree_margin == 1
    assert target.soft[0].weight == 2.0
    assert target.schedule.iterations == 500
    assert target.missing_metric_penalty == 10.0


def test_load_target_with_numbered_roster():
    doc = {"hard": {"nodes": 12, "edges": 16}}
    target = load_synthesis_target(json.dumps(doc))
    assert len(target.nodes) == 12
    assert target.nodes[0] == "n01"
    assert target.nodes[-1] == "n12"


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("hard", "nodes", 4.5),
        ("hard", "edges", 5.7),
        ("hard", "edges", 4.0),
        ("hard", "edges", True),
        ("hard", "degrees", {"a": 2.5}),
        ("hard", "pair_coverage", {"pair": ["a", "b"], "count": 3.5}),
        ("hard", "top_degree_pair", {"pair": ["a", "b"], "margin": 1.5}),
        ("schedule", "iterations", 10.5),
        # json writes these as NaN and Infinity, which Python's parser accepts
        ("soft", "value", math.nan),
        ("soft", "weight", math.nan),
        ("soft", "weight", math.inf),
        ("schedule", "initial_temperature", math.inf),
        ("schedule", "initial_temperature", math.nan),
        ("top", "missing_metric_penalty", math.inf),
    ],
)
def test_load_target_rejects_non_integral_numbers(section, key, value):
    doc = {
        "hard": {"nodes": ["a", "b", "c", "d"], "edges": 4},
        "soft": [{"metric": "density", "value": 0.5}],
        "schedule": {"iterations": 10},
    }
    sections = {"hard": doc["hard"], "soft": doc["soft"][0], "schedule": doc["schedule"], "top": doc}
    sections[section][key] = value
    with pytest.raises(FileFormatError):
        load_synthesis_target(json.dumps(doc))


def test_load_target_rejects_bad_documents():
    with pytest.raises(FileFormatError):
        load_synthesis_target("not json at all")
    with pytest.raises(FileFormatError):
        load_synthesis_target('["list", "not", "object"]')
    with pytest.raises(FileFormatError):
        load_synthesis_target('{"hard": {"nodes": 4}}')  # edges missing
    with pytest.raises(FileFormatError):
        load_synthesis_target('{"hard": {"nodes": 4, "edges": 3, "colour": "red"}}')
    with pytest.raises(FileFormatError):
        load_synthesis_target(
            '{"hard": {"nodes": 4, "edges": 3}, "soft": [{"metric": "density"}]}'
        )
    # structurally valid JSON whose constraints cannot be satisfied is
    # not a format error
    with pytest.raises(InfeasibleTargetError):
        load_synthesis_target('{"hard": {"nodes": 4, "edges": 99}}')


def test_default_target_round_trips_through_json():
    # written field by field, as the benchmark's anneal workload writes it
    t = default_chiapas_target()
    hard = t.hard
    u, v, count = hard.pair_coverage
    doc = {
        "hard": {
            "nodes": list(t.nodes),
            "edges": t.edge_count,
            "connected": hard.connected,
            "degrees": dict(hard.degrees),
            "adjacent": [list(p) for p in hard.adjacent],
            "pair_coverage": {"pair": [u, v], "count": count},
            "top_degree_pair": {"pair": list(hard.top_degree_pair),
                                "margin": hard.top_degree_margin},
        },
        "soft": [
            {"metric": s.metric, "value": s.value, "weight": s.weight}
            | ({"nodes": list(s.nodes)} if s.nodes else {})
            for s in t.soft
        ],
        "schedule": {
            "initial_temperature": t.schedule.initial_temperature,
            "cooling_factor": t.schedule.cooling_factor,
            "iterations": t.schedule.iterations,
            "rng_seed": t.schedule.rng_seed,
        },
        "missing_metric_penalty": t.missing_metric_penalty,
    }
    assert load_synthesis_target(json.dumps(doc)) == t


def test_zero_iteration_schedule_still_satisfies_hard_constraints():
    target = small_target(
        edge_count=15,
        hard=HardConstraints(connected=True, degrees=((NAMES[5], 4),)),
        schedule=quick_schedule(iterations=0),
    )
    g = synthesize_reference(target)
    assert g.edge_count == 15
    assert g.degree(NAMES[5]) == 4


def test_session_build_matches_bundled_edge_list(synthesized_reference_bytes):
    built, _ = synthesized_reference_bytes
    bundled = resources.files("covertnet").joinpath("data", "chiapas_reference.edges")
    assert built == bundled.read_bytes()


def test_bundled_roles_come_from_the_roster():
    # the edge list is the only bundled data file; the roles are not stored twice
    data = resources.files("covertnet").joinpath("data")
    assert sorted(p.name for p in data.iterdir()) == ["chiapas_reference.edges"]
    assert dict(reference_network().roles) == chiapas_roster()


def test_chiapas_roster_labels_roles_and_order():
    # the test above compares the roster only with itself, so labels, roles and order are pinned here
    assert [(label, role.value) for label, role in chiapas_roster().items()] == [
        ("C1", "Caretaker"), ("C2", "Caretaker"),
        ("Co1", "Company"), ("Co2", "Company"),
        ("B1", "BodyGuard"), ("B2", "BodyGuard"),
        ("Es1", "Estafeta"), ("Es2", "Estafeta"), ("Es3", "Estafeta"),
        ("Ex1", "Exploiter"), ("Ex2", "Exploiter"), ("Ex3", "Exploiter"),
        ("Ps1", "PublicServant"), ("Ps2", "PublicServant"), ("Ps3", "PublicServant"),
        ("G1", "Guide"), ("G2", "Guide"), ("G3", "Guide"),
        ("P1", "Participant"), ("P2", "Participant"), ("P3", "Participant"), ("P4", "Participant"),
        ("Ra1", "Raitero"), ("Ra2", "Raitero"), ("Ra3", "Raitero"), ("Ra4", "Raitero"),
        ("Re1", "Recruiter"), ("Re2", "Recruiter"), ("Re3", "Recruiter"), ("Re4", "Recruiter"),
        ("Rv1", "RecruiterVictim"), ("Rv2", "RecruiterVictim"),
        ("Rv3", "RecruiterVictim"), ("Rv4", "RecruiterVictim"),
    ]


@pytest.fixture
def counted_components(monkeypatch):
    """A list that grows by one on every full component count."""
    calls = []
    full = _State.component_count

    def counted(state):
        calls.append(state.n)
        return full(state)

    monkeypatch.setattr(_State, "component_count", counted)
    return calls


def connected_check(g):
    """g's state and a hard check whose only rule is connectedness."""
    order = tuple(sorted(g.nodes))
    target = small_target(nodes=order, edge_count=g.edge_count)
    idx = {v: i for i, v in enumerate(order)}
    return _State(len(order), _index_pairs(idx, g.edges())), _HardCheck(target, order)


def test_guard_witness_agrees_with_the_full_component_count(counted_components):
    # from a connected state, the swapped-out edge's ends sharing a
    # neighbour after the swap proves the swap keeps it connected, and
    # `propose` counts no component; without a witness it counts once, so
    # its answer equals the full check's. The walk moves by accepted
    # proposals, so every state it proposes from is connected.
    rng = random.Random(29)
    witnessed = counted = refused = 0
    for _ in range(60):
        n = rng.randrange(5, 31)
        state, check = connected_check(random_connected_graph(rng, n, rng.randrange(n)))
        for _ in range(30):
            out_pair = state.edges[rng.randrange(len(state.edges))]
            in_pair = state.non_edges[rng.randrange(len(state.non_edges))]
            oracle = copy.deepcopy(state)
            oracle.swap(out_pair, in_pair)
            witness = oracle.bits[out_pair[0]] & oracle.bits[out_pair[1]]
            want = check.violations(oracle) == 0.0
            before = len(counted_components)
            verdict = check.propose(state, out_pair, in_pair)
            assert len(counted_components) - before == (0 if witness else 1)
            assert verdict == want
            witnessed += bool(witness)
            counted += not witness
            refused += not verdict
    assert min(witnessed, counted, refused) >= 150


def test_guard_counts_components_when_a_bridge_has_no_witness(counted_components):
    # v1-v2 is a bridge of the path v0-...-v4 whose ends share no
    # neighbour, and the edge swapped in (v2-v4) stays on one side: the
    # components are counted once, and the split is refused and undone
    state, check = connected_check(path_graph(5))
    oracle = copy.deepcopy(state)
    oracle.swap((1, 2), (2, 4))
    oracle.swap((2, 4), (1, 2))
    assert not check.propose(state, (1, 2), (2, 4))
    assert counted_components == [5]
    assert state_fields(state) == state_fields(oracle)


def feasible_hard_target(rng, g):
    """A target whose every hard rule binds and holds on g: connected, a
    few pinned degrees and required edges, pair coverage and the top
    degree pair of g, at the largest margin g allows."""
    order = sorted(g.nodes)
    deg = {v: g.degree(v) for v in order}
    top = sorted(order, key=lambda v: -deg[v])
    u, v = top[0], top[1]
    rest = max((deg[w] for w in top[2:]), default=0)
    pair = rng.sample(order, 2)
    return SynthesisTarget(
        nodes=tuple(order),
        edge_count=g.edge_count,
        hard=HardConstraints(
            connected=True,
            degrees=tuple((w, deg[w]) for w in rng.sample(order, 2)),
            adjacent=tuple(rng.sample(sorted(g.edges()), 2)),
            pair_coverage=(*pair, deg[pair[0]] + deg[pair[1]] - g.has_edge(*pair)),
            top_degree_pair=(u, v),
            top_degree_margin=max(0, min(deg[u], deg[v]) - rest),
        ),
    )


def feasible_state(rng, low, high):
    """A random connected graph on low to high - 1 nodes as a state, a
    hard check whose every rule binds and holds on it, and its top pair."""
    n = rng.randrange(low, high)
    g = random_connected_graph(rng, n, rng.randrange(1, n * (n - 3) // 2))
    target = feasible_hard_target(rng, g)
    order = tuple(sorted(target.nodes))
    state = _State(n, _index_pairs({v: i for i, v in enumerate(order)}, g.edges()))
    top = tuple(order.index(w) for w in target.hard.top_degree_pair)
    return state, _HardCheck(target, order), top


def test_proposal_equals_violations_on_the_swapped_state(monkeypatch):
    # from feasible states, every proposal is accepted iff the swapped
    # state has no violation, and it is decided before the swap unless
    # out_pair's ends keep no shared neighbour: an accepted proposal swaps
    # once, a refused one with a witness not at all, and one refused for
    # a split alone swaps and undoes. The walk moves by accepted
    # proposals, so each state it proposes from keeps every rule.
    swaps = []
    full = _State.swap

    def counted(state, out_pair, in_pair):
        swaps.append(out_pair)
        full(state, out_pair, in_pair)

    monkeypatch.setattr(_State, "swap", counted)
    rng = random.Random(37)
    seen = Counter()
    for _ in range(24):
        state, check, (u, v) = feasible_state(rng, 6, 13)
        for _ in range(6):
            assert check.violations(state) == 0.0
            for out_pair in list(state.edges):
                for in_pair in list(state.non_edges):
                    i, j = out_pair
                    shared = state.bits[i] & state.bits[j]
                    state.swap(out_pair, in_pair)
                    want = check.violations(state)
                    split = state.component_count() - 1
                    witness = state.bits[i] & state.bits[j]
                    state.swap(in_pair, out_pair)
                    before = len(swaps)
                    verdict = check.propose(state, out_pair, in_pair)
                    made = len(swaps) - before
                    if verdict:
                        state.swap(in_pair, out_pair)
                    assert verdict == (want == 0.0)
                    undecided = not witness and want == split
                    assert made == (1 if verdict else 2 if undecided else 0)
                    seen[verdict] += 1
                    seen["undecided"] += undecided
                    seen["witness from in_pair"] += verdict and not shared and bool(witness)
                    seen["touching"] += bool(set(out_pair) & set(in_pair))
                    loses = (u in out_pair and u not in in_pair) or (
                        v in out_pair and v not in in_pair)
                    seen["loses, accepted"] += loses and verdict
                    seen["loses, refused"] += loses and not verdict
            for _ in range(40):
                out_pair = state.edges[rng.randrange(len(state.edges))]
                in_pair = state.non_edges[rng.randrange(len(state.non_edges))]
                state.swap(out_pair, in_pair)
                want = check.violations(state) == 0.0
                state.swap(in_pair, out_pair)
                assert check.propose(state, out_pair, in_pair) == want
    assert min(seen[True], seen[False], seen["touching"], seen["loses, refused"]) >= 500
    assert seen["loses, accepted"] >= 500
    assert seen["witness from in_pair"] >= 20
    assert 0 < seen["undecided"] < seen[True] + seen[False] - seen["undecided"]


def state_fields(state):
    return (list(state.edges), dict(state.edge_pos), list(state.non_edges),
            dict(state.non_edge_pos), state.a.tobytes(), state.deg.tobytes(), list(state.bits))


def test_refused_proposal_leaves_the_state_of_swap_then_undo():
    # the annealer samples edges and non-edges by position, so a proposal
    # refused unmade must leave the lists as the swap and its undo would;
    # an accepted one must leave the swapped state
    rng = random.Random(43)
    refused = accepted = 0
    for _ in range(30):
        state, check, _top = feasible_state(rng, 6, 15)
        for _ in range(40):
            out_pair = state.edges[rng.randrange(len(state.edges))]
            in_pair = state.non_edges[rng.randrange(len(state.non_edges))]
            oracle = copy.deepcopy(state)
            oracle.swap(out_pair, in_pair)
            if check.violations(oracle) == 0.0:
                accepted += 1
            else:
                oracle.swap(in_pair, out_pair)
                refused += 1
            check.propose(state, out_pair, in_pair)
            assert state_fields(state) == state_fields(oracle)
    assert min(refused, accepted) >= 100


def hard_rule_distances(g, hard):
    """Each hard rule's distance from holding, from LabeledGraph queries alone."""
    out = [abs(g.degree(v) - d) for v, d in hard.degrees]
    out += [0 if g.has_edge(u, v) else 1 for u, v in {tuple(sorted(p)) for p in hard.adjacent}]
    if hard.pair_coverage is not None:
        u, v, count = hard.pair_coverage
        out.append(abs(g.degree(u) + g.degree(v) - g.has_edge(u, v) - count))
    if hard.top_degree_pair is not None and g.node_count > 2:
        u, v = hard.top_degree_pair
        lim = min(g.degree(u), g.degree(v)) - hard.top_degree_margin
        out.append(sum(max(0, g.degree(w) - lim) for w in g.nodes if w not in (u, v)))
    if hard.connected and g.node_count > 1:
        out.append(len(connected_components(g)) - 1)
    return out


def sparse_hard_target():
    return small_target(
        edge_count=12,
        hard=HardConstraints(
            connected=True,
            degrees=((NAMES[0], 4),),
            adjacent=((NAMES[2], NAMES[1]),),
            pair_coverage=(NAMES[0], NAMES[3], 6),
            top_degree_pair=(NAMES[0], NAMES[3]),
            top_degree_margin=0,
        ),
        schedule=quick_schedule(iterations=0),
    )


@pytest.mark.parametrize("which", ["chiapas", "sparse"])
def test_hard_check_matches_graph_queries_on_swap_walks(which):
    # a walk of single swaps from a feasible graph that, like the
    # annealer's guard, undoes every swap that breaks a rule
    if which == "chiapas":
        target, start = default_chiapas_target(), reference_network()
    else:
        target = sparse_hard_target()
        start = synthesize_reference(target)
    order = tuple(sorted(target.nodes))
    idx = {v: i for i, v in enumerate(order)}
    state = _State(len(order), _index_pairs(idx, start.edges()))
    check = _HardCheck(target, order)
    every_pair = [(i, j) for i in range(len(order)) for j in range(i + 1, len(order))]

    def compared():
        assert sorted(state.edges + state.non_edges) == every_pair
        assert state.edge_pos == {p: k for k, p in enumerate(state.edges)}
        assert state.non_edge_pos == {p: k for k, p in enumerate(state.non_edges)}
        g = LabeledGraph(order, [(order[i], order[j]) for i, j in state.edges])
        a = np.zeros((len(order), len(order)))
        for i, j in state.edges:
            a[i, j] = a[j, i] = 1.0
        assert np.array_equal(state.a, a)
        assert [int(d) for d in state.deg] == [g.degree(v) for v in order]
        assert all(state.has(i, j) == g.has_edge(order[i], order[j]) for i, j in every_pair)
        distances = hard_rule_distances(g, target.hard)
        assert check.violations(state) == float(sum(distances))
        return not any(distances)

    rng = random.Random(17)
    verdicts = [compared()]
    for _ in range(400):
        out_pair = state.edges[rng.randrange(len(state.edges))]
        in_pair = state.non_edges[rng.randrange(len(state.non_edges))]
        state.swap(out_pair, in_pair)
        verdicts.append(compared())
        if not verdicts[-1]:
            state.swap(in_pair, out_pair)
    assert verdicts[0] and verdicts.count(True) >= 20 and verdicts.count(False) >= 20
    # random fills sit far from feasibility
    for _ in range(20):
        state = _State(len(order), rng.sample(every_pair, target.edge_count))
        assert not compared()


SPARSE_REPAIR = {"hard": {"nodes": 20, "edges": 22}, "schedule": {"rng_seed": 1}}
HARD_REPAIR = {  # every hard rule binds, as in CI's hard.json synthesis
    "hard": {"nodes": 14, "edges": 32, "degrees": {"n03": 5}, "adjacent": [["n01", "n04"]],
             "pair_coverage": {"pair": ["n01", "n02"], "count": 14},
             "top_degree_pair": {"pair": ["n01", "n02"], "margin": 1}},
    "schedule": {"rng_seed": 4},
}


def repair_targets():
    """Named targets whose repair binds every hard rule or starts split,
    then random ones whose every rule binds, each with an iteration cap."""
    rng = random.Random(89)
    targets = [(default_chiapas_target(), synthesis._REPAIR_ITERATIONS)]
    targets += [(load_synthesis_target(json.dumps(doc)), synthesis._REPAIR_ITERATIONS)
                for doc in (SPARSE_REPAIR, HARD_REPAIR)]
    for _ in range(24):
        n = rng.randrange(6, 16)
        g = random_connected_graph(rng, n, rng.randrange(0, n * (n - 3) // 2))
        target = feasible_hard_target(rng, g)
        targets.append((replace(target, schedule=quick_schedule(rng.randrange(100))), 3000))
    return targets


def test_repair_replays_the_swap_then_undo_loop(counted_components):
    # repair keeps a running component count and scores the other rules
    # on integers; the eager loop scores `violations` in full. From the
    # same random fill both must end on the same state, edge and non-edge
    # order included, with the RNG in an equal state, and repair counts
    # components only while split or off the witness
    starts = Counter()
    counts = []
    for target, iterations in repair_targets():
        order = tuple(sorted(target.nodes))
        n, m = len(order), target.edge_count
        check = _HardCheck(target, order)
        sched = target.schedule
        runs = []
        for loop in ("eager", "repair"):
            rng = random.Random(sched.rng_seed)
            state = _State(n, synthesis._random_fill(rng, n, m, check.required))
            if loop == "eager":
                starts[state.component_count()] += 1
                final, _best = eager_anneal(
                    state, rng, iterations, sched.initial_temperature, sched.cooling_factor,
                    check.violations, None, check.required,
                )
            else:
                before = len(counted_components)
                final = check.repair(
                    state, rng, iterations, sched.initial_temperature, sched.cooling_factor
                )
                counts.append(len(counted_components) - before)
            runs.append((final, state_fields(state), rng.getstate()))
        assert runs[0] == runs[1]
        starts["feasible"] += runs[0][0] == 0.0
    # the sparse fill starts with 4 components, and the chiapas repair,
    # about 640 proposals, counts them a few times only
    assert starts[4] >= 1 and starts["feasible"] >= 20
    assert counts[0] <= 10 and counts[1] > counts[0]


def test_state_largest_component_follows_the_distance_rule():
    # the dense top-3 fallback reads the largest component off the state's
    # bitsets; it must be `_largest_component`'s, a size tie going to the
    # component that holds the smallest index
    rng = random.Random(71)
    names = labels(9)
    tied = [(1, 4), (4, 7), (0, 3), (3, 8), (2, 5)]  # {0, 3, 8} beats {1, 4, 7}
    graphs = [LabeledGraph(labels(n)) for n in (1, 5)]
    graphs.append(LabeledGraph(names, [(names[i], names[j]) for i, j in tied]))
    for _ in range(80):
        n = rng.randrange(2, 41)
        graphs.append(gnm_graph(rng, n, rng.randrange(n)))
    ties = 0
    for g in graphs:
        order = tuple(sorted(g.nodes))
        idx = {v: i for i, v in enumerate(order)}
        state = _State(len(order), _index_pairs(idx, g.edges()))
        got = state.largest_component().tolist()
        assert got == _largest_component(_paths(state.a).dist).tolist()
        sizes = sorted((c.bit_count() for c in state._components()), reverse=True)
        ties += len(sizes) > 1 and sizes[0] == sizes[1]
    assert ties >= 20


@pytest.fixture
def sweeps(monkeypatch):
    """The annealer's sweeps with distances ("full") and without ("lean"),
    and its Brandes kernel runs, counted."""
    counts = Counter()

    def paths(a, distances=True):
        counts["full" if distances else "lean"] += 1
        return _paths(a, distances)

    def kernel(a, sweep):
        counts["kernel"] += 1
        return _raw_betweenness(a, sweep)

    monkeypatch.setattr(synthesis, "_paths", paths)
    monkeypatch.setattr(synthesis, "_raw_betweenness", kernel)
    return counts


def test_split_top3_fallback_takes_no_full_sweep(sweeps, dense_calls):
    # on a disconnected candidate `_top3` solves on the largest component
    # read off the bitsets, so no candidate's distances are formed
    doc = {"hard": {"nodes": 30, "edges": 30, "connected": False},
           "soft": [{"metric": "eigenvector_top3", "value": 1.0, "nodes": ["n01", "n02", "n03"]}],
           "schedule": {"iterations": 200, "rng_seed": 1}}
    synthesize_reference(load_synthesis_target(json.dumps(doc)))
    assert sweeps["full"] == 0 and sweeps["lean"] >= 150
    assert len(dense_calls) >= 150


def test_unbracketed_candidates_take_one_sweep_each(sweeps):
    # a long tree-like graph's path counts may pass 2**53, so no candidate
    # is bracketed: the first one's kernel takes a full sweep of its own,
    # and every sweep after it fills the distances the kernel reads
    doc = {"hard": {"nodes": 250, "edges": 262},
           "soft": [{"metric": "mean_betweenness", "value": 0.1}],
           "schedule": {"iterations": 40, "rng_seed": 1}}
    synthesize_reference(load_synthesis_target(json.dumps(doc)))
    assert sweeps["lean"] == 1 and sweeps["full"] == sweeps["kernel"] >= 10
