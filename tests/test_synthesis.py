import json
import random
from importlib import resources

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
    degree_centralization,
    density,
    diameter_lcc,
    eigenvector_centrality,
    fragmentation,
    load_synthesis_target,
    mean_betweenness,
    objective,
    soft_report,
    synthesize_reference,
)

from util import labels, random_connected_graph

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
    with pytest.raises(PreconditionError):
        small_target(soft=(SoftTarget(metric="eigenvector_top3", value=1.0, nodes=("ghost",)),))


def test_static_infeasibility_is_detected_before_annealing():
    # connected on 10 nodes needs at least 9 edges
    with pytest.raises(InfeasibleTargetError):
        synthesize_reference(small_target(edge_count=5))
    # pinned degrees alone exceed the edge budget
    with pytest.raises(InfeasibleTargetError):
        synthesize_reference(
            small_target(
                edge_count=9,
                hard=HardConstraints(degrees=tuple((v, 9) for v in NAMES[:3])),
            )
        )
    # a required adjacency contradicts a degree-zero pin
    with pytest.raises(InfeasibleTargetError):
        synthesize_reference(
            small_target(
                hard=HardConstraints(
                    connected=False,
                    degrees=((NAMES[0], 0),),
                    adjacent=((NAMES[0], NAMES[1]),),
                )
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


def test_synthesize_accepts_matching_initial_graph():
    target = small_target(schedule=quick_schedule(iterations=0))
    g = synthesize_reference(target)
    again = synthesize_reference(target, initial=g)
    assert again.edge_count == target.edge_count
    assert sorted(again.nodes) == sorted(target.nodes)


def test_synthesize_rejects_bad_initial_graph():
    target = small_target()
    wrong_nodes = LabeledGraph(["x", "y"], [("x", "y")])
    with pytest.raises(GraphError):
        synthesize_reference(target, initial=wrong_nodes)
    wrong_edges = LabeledGraph(NAMES, [(NAMES[0], NAMES[1])])
    with pytest.raises(GraphError):
        synthesize_reference(target, initial=wrong_edges)


def test_objective_rejects_roster_mismatch():
    target = small_target()
    with pytest.raises(GraphError):
        objective(LabeledGraph(["a", "b"], [("a", "b")]), target)


def test_evaluator_agrees_with_plain_metrics():
    # the annealer scores candidates with a vectorized evaluator; its
    # numbers must match the plain per-metric implementations
    rng = random.Random(90)
    for trial in range(25):
        g = random_connected_graph(rng, rng.randrange(5, 17), rng.randrange(2, 25))
        nodes3 = tuple(sorted(g.nodes)[:3])
        rows = {r["metric"]: r for r in soft_report(g, full_soft_target(g, nodes3))}
        assert rows["density"]["achieved"] == pytest.approx(density(g), abs=1e-12)
        assert rows["fragmentation"]["achieved"] == pytest.approx(fragmentation(g), abs=1e-12)
        assert rows["average_degree"]["achieved"] == pytest.approx(average_degree(g), abs=1e-12)
        assert rows["diameter_lcc"]["achieved"] == pytest.approx(diameter_lcc(g), abs=0)
        assert rows["average_clustering"]["achieved"] == pytest.approx(
            average_clustering(g), abs=1e-9
        )
        assert rows["mean_betweenness"]["achieved"] == pytest.approx(
            mean_betweenness(g), abs=1e-9
        )
        assert rows["degree_centralization"]["achieved"] == pytest.approx(
            degree_centralization(g), abs=1e-12
        )


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
    rows = soft_report(g, target)
    assert objective(g, target) == pytest.approx(sum(r["contribution"] for r in rows))


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
