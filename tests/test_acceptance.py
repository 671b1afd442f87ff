"""Acceptance gate: one test per shipping criterion.

Each test prints a single pass/fail line (visible even under captured
output) and enforces its own runtime budget. Later criteria reuse the
session-built reference network without re-paying its build time;
only the synthesis criterion charges it.
"""

import contextlib
import io
import json
import random
import time
from contextlib import contextmanager

import pytest

from covertnet import (
    SamplingConfig,
    StrategySpec,
    adjacency_matrix,
    average_clustering,
    average_degree,
    betweenness,
    connected_components,
    crossing_subgraph,
    degree_centralization,
    density,
    diameter_lcc,
    dump_edge_list,
    fiedler,
    fragmentation,
    remove_nodes,
    run_strategy,
    snowball_run,
    threshold_cost,
    weighted_laplacian,
    wvc,
)
from covertnet.cli import build_comparison, main as cli_main

from oracles import (
    connected_atlas,
    dense_fiedler,
    eigenspace_cosine,
    enumerate_betweenness,
    greedy_cover_order,
)
from util import complete_graph, gnm_graph, gnp_graph, labels, random_connected_graph, sign_split


@contextmanager
def criterion(num: int, budget_s: float, capsys, precharged_s: float = 0.0):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"criterion {num:2d}: FAIL")
        raise
    elapsed = time.perf_counter() - started + precharged_s
    ok = elapsed < budget_s
    with capsys.disabled():
        print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s of {budget_s:.0f}s)")
    assert ok, f"criterion {num} took {elapsed:.2f}s, budget {budget_s}s"


def test_criterion_01_forced_density_and_degree(capsys):
    # density and average degree depend on (n, m) alone, so any graph
    # at the reference size must land on the published values
    with criterion(1, 1.0, capsys):
        rng = random.Random(1)
        for trial in range(20):
            g = gnm_graph(rng, 34, 225)
            assert density(g) == pytest.approx(0.40107, abs=1e-5)
            assert average_degree(g) == pytest.approx(13.2353, abs=1e-4)


def test_criterion_02_fragmentation_complement(capsys):
    with criterion(2, 5.0, capsys):
        rng = random.Random(2)
        for _ in range(500):
            n = rng.randrange(2, 51)
            g = gnp_graph(rng, n, rng.random())
            assert abs(fragmentation(g) + density(g) - 1.0) <= 1e-12


def test_criterion_03_oracle_equivalence(capsys):
    with criterion(3, 60.0, capsys):
        # betweenness against exhaustive geodesic enumeration, one
        # representative per isomorphism class of connected graphs up
        # to 7 nodes (the metric is label-independent)
        for g in connected_atlas(3, 7):
            mine = betweenness(g)
            oracle = enumerate_betweenness(g)
            for v in g.nodes:
                assert abs(mine[v] - float(oracle[v])) <= 1e-12
        # Fiedler pairs against a dense symmetric eigensolve on the
        # unweighted Laplacian, connected graphs up to 6 nodes
        for g in connected_atlas(2, 6):
            l = weighted_laplacian(adjacency_matrix(g))
            lam, vec = fiedler(l)
            lam_star, basis = dense_fiedler(l)
            assert abs(lam - lam_star) <= 1e-6
            assert eigenspace_cosine(vec, basis) >= 1.0 - 1e-6


def test_criterion_04_wvc_certificate(capsys):
    with criterion(4, 30.0, capsys):
        rng = random.Random(4)
        produced = 0
        while produced < 1000:
            small = produced % 2 == 0  # alternate exact-replay sizes with larger covers
            n = rng.randrange(3, 8) if small else rng.randrange(8, 31)
            g = random_connected_graph(rng, n, rng.randrange(0, 2 * n))
            vector = {v: rng.uniform(-1.0, 1.0) for v in g.nodes}
            split = sign_split(g, vector)
            if split is None:
                continue
            produced += 1
            star = crossing_subgraph(g, split)
            picks = wvc(star, g)
            covered = set(picks)
            assert all(u in covered or v in covered for u, v in star.edges())
            if n <= 7:
                assert picks == tuple(greedy_cover_order(star.edges(), g.edges()))


def test_criterion_05_synthesis_fidelity(synthesized_reference, capsys):
    g, build_seconds = synthesized_reference
    with criterion(5, 120.0, capsys, precharged_s=build_seconds):
        assert g.node_count == 34
        assert g.edge_count == 225
        assert len(connected_components(g)) == 1
        assert g.degree("P3") == 15
        assert g.degree("Ra4") == 11
        assert g.has_edge("Ex1", "Ex2")
        assert g.has_edge("Ex1", "Ex3")
        joint = g.degree("Ex1") + g.degree("P1") - (1 if g.has_edge("Ex1", "P1") else 0)
        assert joint == 53
        others = [g.degree(v) for v in g.nodes if v not in ("Ex1", "P1")]
        assert min(g.degree("Ex1"), g.degree("P1")) >= max(others) + 2
        assert diameter_lcc(g) == 3
        assert average_clustering(g) == pytest.approx(0.647, abs=0.02)
        assert degree_centralization(g) == pytest.approx(0.4432, abs=0.01)


def test_criterion_06_top_pair_removal(synthesized_reference, capsys):
    g, _ = synthesized_reference
    with criterion(6, 1.0, capsys):
        top2 = sorted(g.nodes, key=lambda v: (-g.degree(v), v))[:2]
        assert set(top2) == {"Ex1", "P1"}
        h = remove_nodes(g, ("Ex1", "P1"))
        assert h.node_count == 32
        assert h.edge_count == 172
        assert density(h) == pytest.approx(0.347, abs=0.002)
        assert fragmentation(h) == pytest.approx(0.653, abs=0.002)


def test_criterion_07_strategy_cost_ordering(synthesized_reference, capsys):
    g, _ = synthesized_reference
    with criterion(7, 60.0, capsys):
        comparison = build_comparison(g, target_lcc=0.2, base_seed=0, runs=100)
        gnd_cost = threshold_cost(comparison.gnd, 0.8)
        hub_cost = threshold_cost(comparison.hub, 0.8)
        random_mean = comparison.random_mean[0.8]
        assert gnd_cost < hub_cost
        assert gnd_cost < random_mean


def test_criterion_08_gnd_attacks_mid_degree_first(synthesized_reference, capsys):
    g, _ = synthesized_reference
    with criterion(8, 10.0, capsys):
        trace = run_strategy(g, StrategySpec(kind="gnd", target_lcc_fraction=0.2))
        first = trace.steps[0].node
        assert abs(g.degree(first) - average_degree(g)) <= 2.0
        top2 = sorted(g.nodes, key=lambda v: (-g.degree(v), v))[:2]
        assert first not in top2


def test_criterion_09_snowball_soundness(capsys):
    with criterion(9, 30.0, capsys):
        rng = random.Random(9)
        for trial in range(700):
            truth = gnp_graph(rng, rng.randrange(2, 17), rng.random())
            cfg = SamplingConfig(
                seed_count=rng.randrange(1, truth.node_count + 1),
                names_per_interview=rng.randrange(0, 6),
                waves=rng.randrange(0, 4),
                rng_seed=trial,
                mutual_confirmation=rng.random() < 0.5,
            )
            got = snowball_run(truth, cfg).graph
            assert set(got.nodes) <= set(truth.nodes)
            assert set(got.edges()) <= set(truth.edges())
        for trial in range(300):
            n = rng.randrange(2, 12)
            truth = complete_graph(n)
            cfg = SamplingConfig(
                seed_count=1,
                names_per_interview=rng.randrange(n - 1, n + 3),
                waves=rng.randrange(1, 4),
                rng_seed=trial,
                mutual_confirmation=rng.random() < 0.5,
            )
            assert snowball_run(truth, cfg).graph == truth


def test_criterion_10_cli_determinism(tmp_path, capsys):
    def run(argv):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli_main(argv)
        assert code == 0, sink.getvalue()

    with criterion(10, 30.0, capsys):
        truth_path = tmp_path / "truth.edges"
        truth_path.write_text(
            dump_edge_list(random_connected_graph(random.Random(10), 24, 40))
        )
        target_path = tmp_path / "target.json"
        target_path.write_text(
            json.dumps(
                {
                    "hard": {"nodes": 16, "edges": 24},
                    "soft": [{"metric": "average_clustering", "value": 0.4}],
                    "schedule": {"iterations": 1500, "rng_seed": 12},
                }
            )
        )
        commands = {
            "metrics": ["metrics", "--format", "json", "--output"],
            "dismantle-gnd": ["dismantle", "--strategy", "gnd", "--output"],
            "dismantle-random": [
                "dismantle", "--strategy", "random", "--seed", "3",
                "--format", "json", "--output",
            ],
            "compare": ["compare", "--runs", "10", "--curves", str(tmp_path / "_c.csv"),
                        "--output"],
            "sample": [
                "sample", "--input", str(truth_path), "--seeds", "3", "--k", "4",
                "--waves", "2", "--rng-seed", "5", "--output",
            ],
            "synthesize": ["synthesize", "--target", str(target_path), "--output"],
        }
        for name, argv in commands.items():
            first = tmp_path / f"{name}-a.out"
            second = tmp_path / f"{name}-b.out"
            run(argv + [str(first)])
            run(argv + [str(second)])
            assert first.read_bytes() == second.read_bytes(), f"{name} output drifted"
