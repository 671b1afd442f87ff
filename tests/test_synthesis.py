import json
import math
import random
from dataclasses import replace
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
from covertnet.synthesis import SOFT_METRICS, _candidate, _HardCheck, _index_pairs, _State

from oracles import MetricDictEvaluator
from util import gnm_graph, labels, random_connected_graph

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
        assert rows["mean_betweenness"]["achieved"] == mean_betweenness(g)
        assert rows["degree_centralization"]["achieved"] == degree_centralization(g)


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


def test_each_eigenvector_top3_entry_is_scored_with_its_own_nodes():
    # P1 ranks in the bundled network's eigenvector top 3 and Ps2 does not
    g = reference_network()
    soft = tuple(SoftTarget(metric="eigenvector_top3", value=1.0, nodes=(v,)) for v in ("P1", "Ps2"))
    target = SynthesisTarget(nodes=tuple(g.nodes), edge_count=g.edge_count, soft=soft)
    assert [row["achieved"] for row in soft_report(g, target)] == [1.0, 0.0]
    assert objective(g, target) == 1.0


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
        assert check.ok(state) == (not any(distances))
        return check.ok(state)

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
