import random

import pytest

from covertnet import (
    LabeledGraph,
    PreconditionError,
    Role,
    SamplingConfig,
    StrategySpec,
    reference_network,
    snowball_run,
)

from oracles import mention_snowball_run
from util import complete_graph, gnp_graph, path_graph


def config(**kw):
    base = dict(seed_count=1, names_per_interview=3, waves=2, rng_seed=0)
    base.update(kw)
    return SamplingConfig(**base)


def test_config_validation():
    with pytest.raises(PreconditionError):
        config(seed_count=0)
    with pytest.raises(PreconditionError):
        config(names_per_interview=-1)
    with pytest.raises(PreconditionError):
        config(waves=-1)
    for bad in ("no", 1, None):  # "no" is truthy, so it would sample with confirmation on
        with pytest.raises(PreconditionError, match="mutual_confirmation must be a bool"):
            config(mutual_confirmation=bad)


@pytest.mark.parametrize("bad", [1.5, True, "1"])
@pytest.mark.parametrize(
    "build",
    [
        lambda bad: config(seed_count=bad),
        lambda bad: config(names_per_interview=bad),
        lambda bad: config(waves=bad),
        lambda bad: config(rng_seed=bad),
        lambda bad: StrategySpec(kind="random", rng_seed=bad),
    ],
    ids=["seed_count", "names_per_interview", "waves", "rng_seed", "strategy_rng_seed"],
)
def test_specs_take_counts_and_seeds_as_integers(build, bad):
    # 1.5 is not truncated, True is not read as 1 and "1" is not parsed
    with pytest.raises(PreconditionError, match="must be an integer"):
        build(bad)


def test_seed_count_cannot_exceed_population():
    with pytest.raises(PreconditionError):
        snowball_run(path_graph(3), config(seed_count=4))


def test_complete_graph_is_fully_recovered():
    for n in (2, 3, 5, 8):
        g = complete_graph(n)
        got = snowball_run(g, config(names_per_interview=n - 1, waves=1, rng_seed=n)).graph
        assert got == g


def test_sample_is_a_subgraph_of_the_truth():
    rng = random.Random(14)
    for trial in range(80):
        g = gnp_graph(rng, rng.randrange(2, 20), 0.3)
        cfg = config(
            seed_count=rng.randrange(1, g.node_count + 1),
            names_per_interview=rng.randrange(0, 5),
            waves=rng.randrange(0, 4),
            rng_seed=trial,
            mutual_confirmation=rng.random() < 0.5,
        )
        got = snowball_run(g, cfg).graph
        assert set(got.nodes) <= set(g.nodes)
        assert set(got.edges()) <= set(g.edges())


def test_same_seed_same_sample():
    g = gnp_graph(random.Random(9), 15, 0.4)
    cfg = config(seed_count=2, waves=2, rng_seed=123)
    assert snowball_run(g, cfg).graph == snowball_run(g, cfg).graph


def test_different_seeds_usually_differ():
    g = gnp_graph(random.Random(9), 15, 0.4)
    runs = {snowball_run(g, config(seed_count=1, waves=1, rng_seed=s)).graph for s in range(8)}
    assert len(runs) > 1


def test_zero_names_yields_isolated_seeds():
    g = complete_graph(6)
    cfg = config(seed_count=3, names_per_interview=0, waves=2, rng_seed=4)
    got = snowball_run(g, cfg).graph
    assert got.node_count == 3
    assert got.edge_count == 0


def test_final_wave_mentions_do_not_join():
    # one seed on a long path, one wave: the final wave's interviewees
    # mention their own neighbors, but those people are never
    # interviewed and must not appear in the sample
    g = path_graph(9)
    cfg = config(seed_count=1, names_per_interview=2, waves=1, rng_seed=5)
    run = snowball_run(g, cfg)
    rng = random.Random(cfg.rng_seed)
    (seed,) = rng.sample(sorted(g.nodes), 1)
    reach = {v for v in g.nodes if abs(int(v[1:]) - int(seed[1:])) <= 1}
    assert set(run.graph.nodes) == reach
    assert run.waves[-1].new_nodes == 0


def test_mutual_confirmation_only_narrows_the_edge_set():
    rng = random.Random(77)
    for trial in range(40):
        g = gnp_graph(rng, rng.randrange(3, 16), 0.4)
        strict = SamplingConfig(
            seed_count=min(2, g.node_count),
            names_per_interview=2,
            waves=2,
            rng_seed=trial,
            mutual_confirmation=True,
        )
        loose = SamplingConfig(
            seed_count=min(2, g.node_count),
            names_per_interview=2,
            waves=2,
            rng_seed=trial,
            mutual_confirmation=False,
        )
        a = snowball_run(g, strict).graph
        b = snowball_run(g, loose).graph
        # the RNG draw sequence is identical, confirmation only filters
        assert set(a.nodes) == set(b.nodes)
        assert set(a.edges()) <= set(b.edges())


def test_roles_survive_sampling():
    g = complete_graph(3).with_roles({"v0": Role.EXPLOITER, "v1": Role.GUIDE})
    cfg = config(seed_count=3, names_per_interview=2, waves=1, rng_seed=1)
    got = snowball_run(g, cfg).graph
    assert got.role("v0") is Role.EXPLOITER
    assert got.role("v1") is Role.GUIDE
    assert got.role("v2") is None


def test_wave_stats_account_for_everything():
    rng = random.Random(6)
    for trial in range(30):
        g = gnp_graph(rng, rng.randrange(4, 18), 0.35)
        cfg = config(
            seed_count=min(2, g.node_count),
            names_per_interview=3,
            waves=3,
            rng_seed=trial,
        )
        run = snowball_run(g, cfg)
        assert run.waves[0].interviews == cfg.seed_count
        assert cfg.seed_count + sum(w.new_nodes for w in run.waves) == run.graph.node_count
        assert sum(w.edges_observed for w in run.waves) == run.graph.edge_count
        for w in run.waves:
            assert w.interviews >= 0 and w.new_nodes >= 0 and w.edges_observed >= 0



def assert_same_run(g, cfg):
    got, want = snowball_run(g, cfg), mention_snowball_run(g, cfg)
    assert got.graph == want.graph
    assert got.graph.nodes == want.graph.nodes
    assert dict(got.graph.roles) == dict(want.graph.roles)
    assert got.waves == want.waves
    return got


def test_recording_rule_matches_the_mention_bookkeeping():
    rng = random.Random(2024)
    roles = list(Role)
    covered = set()
    for trial in range(600):
        n = rng.randrange(1, 60)
        # unpadded labels on a shuffled roster: sorted, numeric and insertion order all differ
        names = [f"{rng.choice('aZm')}{i}" for i in range(n)]
        rng.shuffle(names)
        p = rng.choice((0.0, 0.05, 0.15, 0.4, 1.0))
        edges = [
            (names[i], names[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < p
        ]
        g = LabeledGraph(names, edges, {v: rng.choice(roles) for v in names if rng.random() < 0.3})
        cfg = SamplingConfig(
            seed_count=rng.choice((1, rng.randrange(1, n + 1), n)),
            names_per_interview=rng.randrange(0, 12),
            waves=rng.randrange(0, 7),
            rng_seed=trial,
            mutual_confirmation=rng.random() < 0.5,
        )
        sample = assert_same_run(g, cfg).graph
        covered.update(
            flag
            for flag, hit in (
                ("k=0", cfg.names_per_interview == 0),
                ("waves=0", cfg.waves == 0),
                ("all seeds", cfg.seed_count == n),
                ("isolated", any(not g.neighbors(v) for v in sample.nodes)),
                ("mutual", cfg.mutual_confirmation),
                ("loose", not cfg.mutual_confirmation),
            )
            if hit
        )
    assert covered == {"k=0", "waves=0", "all seeds", "isolated", "mutual", "loose"}


def test_recording_rule_matches_the_mention_bookkeeping_on_the_bundled_network():
    g = reference_network()
    for rng_seed in range(6):
        for mutual in (True, False):
            for k, waves in ((0, 2), (1, 4), (3, 0), (5, 2), (33, 3)):
                seeds = (1, 3, 34)[rng_seed % 3]
                assert_same_run(g, SamplingConfig(seeds, k, waves, rng_seed, mutual))
    messages = set()
    for run in (snowball_run, mention_snowball_run):
        with pytest.raises(PreconditionError) as err:
            run(g, SamplingConfig(35, 5, 2, 0))
        messages.add(str(err.value))
    assert messages == {"seed_count 35 exceeds the population of 34"}
