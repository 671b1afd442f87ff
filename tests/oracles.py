"""Independent reference implementations used to validate the package.

Each oracle here deliberately avoids the algorithms and data structures of
the code under test: betweenness is path enumeration instead of dependency
accumulation, the Fiedler oracle returns the whole eigenspace of a bare
dense eigensolve so that comparisons do not depend on the package's tie
rules or on the basis LAPACK picks, the coverage oracle recounts from
edge lists instead of maintaining incremental state, and the dismantling
oracle replays removals one at a time on a rebuilt graph, with a fresh
largest component and fresh metrics after each, instead of taking a
removal order up front, inserting the nodes back with union-find and
masking one adjacency matrix. The snowball oracle keeps every mention
and confirmation and scans every pair of discovered actors, instead of
recording a tie when its first-interviewed endpoint names it. The
serialisation oracles write a trace, a strategy spec and a metrics
report field by field, instead of from one row generator and
`dataclasses.asdict`. The soft-score oracle computes each requested
metric once into a dict keyed by metric name and then scores the
targets from that dict, instead of scoring each target in one pass; so
it scores every `eigenvector_top3` entry with the first entry's node
list. It takes distances, clustering and betweenness from the frozen
kernels below, as first written, instead of from `_clustering`, the
closed-walk counts, depth and distances of one `_paths` sweep and the path
counts `_raw_betweenness` forms from them. It ranks that term's
nodes by a bare dense eigensolve of the largest component on every
call, instead of through `_leading_vector` and the annealer's certified
power iteration. The eager annealing loop scores every candidate exactly
and decides on those floats, instead of on certified brackets of the
objective that are pinned down only where they leave a decision open.
"""

from __future__ import annotations

import functools
import json
import math
import random
from collections import deque
from fractions import Fraction
from io import StringIO

import numpy as np

from covertnet import (
    DismantlingTrace,
    LabeledGraph,
    MetricsReport,
    PreconditionError,
    SamplingConfig,
    SnowballRun,
    StrategySpec,
    SynthesisTarget,
    WaveStats,
)
from covertnet.metrics import _degree_centralization, _density
from covertnet.synthesis import _Score


# Frozen regression references: the clustering, distance and betweenness
# kernels as first written, before one BFS sweep gave distances, path
# counts, the unreached mask and the depth. They are kept verbatim so the
# sweep and the kernels that read it can be held to the same bits.
def frozen_closed(a):
    """Per node: twice its triangle count, as first written."""
    return ((a @ a) * a).sum(axis=1)


def frozen_clustering(a):
    """The per-node clustering formula as first written, with two np.where."""
    deg = a.sum(axis=1)
    closed = frozen_closed(a)
    pairs = deg * (deg - 1.0)
    safe = np.where(pairs > 0.0, pairs, 1.0)
    return np.where(pairs > 0.0, closed / safe, 0.0)


def frozen_distances(a):
    n = a.shape[0]
    dist = np.full((n, n), -1.0)
    np.fill_diagonal(dist, 0.0)
    frontier = np.eye(n)
    d = 0
    while True:
        nxt = ((frontier @ a) > 0) & (dist < 0)
        if not nxt.any():
            return dist
        d += 1
        dist[nxt] = d
        frontier = nxt.astype(float)


def frozen_raw_betweenness(a, dist):
    n = a.shape[0]
    maxd = int(dist.max())
    sigma = np.eye(n)
    for k in range(1, maxd + 1):
        prev = sigma * (dist == k - 1)
        sigma = sigma + (prev @ a) * (dist == k)
    delta = np.zeros((n, n))
    for k in range(maxd, 0, -1):
        on_level = (dist == k) & (sigma > 0)
        ratio = np.where(on_level, (1.0 + delta) / np.where(sigma > 0, sigma, 1.0), 0.0)
        delta += (ratio @ a) * (dist == k - 1) * sigma
    return delta.sum(axis=0) - np.diag(delta)


def enumerate_betweenness(g: LabeledGraph) -> dict[str, Fraction]:
    """Betweenness by listing every shortest path between every pair.

    For each pair (s, t) all geodesics are generated explicitly by
    depth-first walk over the BFS distance field, and each interior node is
    credited with (paths through it) / (total paths), kept exact as a
    Fraction.  Scores are scaled by 2 / ((n - 1)(n - 2)): both pair
    orientations count, so a node on every geodesic scores exactly 1.
    """
    nodes = sorted(g.nodes)
    n = len(nodes)
    score = {v: Fraction(0) for v in nodes}
    if n < 3:
        return score
    for si in range(n):
        s = nodes[si]
        dist = {s: 0}
        frontier = deque([s])
        while frontier:
            u = frontier.popleft()
            for w in g.neighbors(u):
                if w not in dist:
                    dist[w] = dist[u] + 1
                    frontier.append(w)
        for t in nodes[si + 1 :]:
            if t not in dist or t == s:
                continue
            paths: list[list[str]] = []
            stack = [[s]]
            while stack:
                partial = stack.pop()
                tip = partial[-1]
                if tip == t:
                    paths.append(partial)
                    continue
                for w in g.neighbors(tip):
                    if dist.get(w) == dist[tip] + 1 and dist.get(w, -1) <= dist[t]:
                        stack.append(partial + [w])
            total = len(paths)
            interior: dict[str, int] = {}
            for p in paths:
                for v in p[1:-1]:
                    interior[v] = interior.get(v, 0) + 1
            for v, hits in interior.items():
                score[v] += Fraction(hits, total)
    norm = Fraction(2, (n - 1) * (n - 2))
    return {v: c * norm for v, c in score.items()}


def dense_fiedler(l: np.ndarray) -> tuple[float, np.ndarray]:
    """Second-smallest eigenvalue and its eigenspace basis, columnwise.

    Eigenvalues within 1e-9 of the second-smallest are grouped into one
    eigenspace so that degenerate spectra compare fairly.
    """
    vals, vecs = np.linalg.eigh(l)
    lam = float(vals[1])
    cols = [i for i in range(len(vals)) if abs(float(vals[i]) - lam) <= 1e-9]
    return lam, vecs[:, cols]


def eigenspace_cosine(vector: np.ndarray, basis: np.ndarray) -> float:
    """Norm of the projection of a unit vector onto an orthonormal basis."""
    v = vector / np.linalg.norm(vector)
    return float(np.linalg.norm(basis.T @ v))


def greedy_cover_order(
    star_edges: list[tuple[str, str]], host_edges: list[tuple[str, str]]
) -> list[str]:
    """Replay weighted vertex coverage with naive full recounts.

    Both edge lists shrink as nodes are chosen; ratios are exact fractions
    of (edges covered in the star) over (degree in the host), largest first,
    lexicographically smallest label on ties.
    """
    star = [tuple(sorted(e)) for e in star_edges]
    host = [tuple(sorted(e)) for e in host_edges]
    order: list[str] = []
    while star:
        candidates = sorted({v for e in star for v in e})
        best = None
        best_ratio = None
        for v in candidates:
            covered = sum(1 for e in star if v in e)
            load = sum(1 for e in host if v in e)
            ratio = Fraction(covered, load)
            if best_ratio is None or ratio > best_ratio:
                best, best_ratio = v, ratio
        order.append(best)
        star = [e for e in star if best not in e]
        host = [e for e in host if best not in e]
    return order


def brute_diameter(g: LabeledGraph) -> int:
    """Longest shortest path inside the largest component, by full BFS."""
    from covertnet import induced_subgraph, largest_connected_component

    core = induced_subgraph(g, largest_connected_component(g))
    best = 0
    for s in core.nodes:
        dist = {s: 0}
        frontier = deque([s])
        while frontier:
            u = frontier.popleft()
            for w in core.neighbors(u):
                if w not in dist:
                    dist[w] = dist[u] + 1
                    frontier.append(w)
        best = max(best, max(dist.values()))
    return best


def connected_atlas(n_min: int, n_max: int) -> list[LabeledGraph]:
    """One representative of every connected isomorphism class, n_min..n_max.

    Backed by the published atlas of all graphs on up to seven nodes;
    exhaustiveness over unlabeled graphs therefore covers every labeled
    graph too, since the properties under test are label-independent.
    """
    import networkx as nx

    out = []
    for raw in nx.graph_atlas_g():
        n = raw.number_of_nodes()
        if n < n_min or n > n_max:
            continue
        if not nx.is_connected(raw):
            continue
        names = [f"v{i}" for i in range(n)]
        out.append(LabeledGraph(names, [(names[a], names[b]) for a, b in raw.edges()]))
    return out


@functools.lru_cache(maxsize=1024)
def _residual_metrics(h: LabeledGraph) -> tuple[float, float, float]:
    # cached because replays of one graph under several targets and cost
    # models revisit the same residual graphs
    from covertnet import density, fragmentation, mean_betweenness

    n = h.node_count
    return (
        density(h) if n >= 2 else 0.0,
        fragmentation(h) if n >= 2 else 1.0,
        mean_betweenness(h) if n >= 3 else 0.0,
    )


@functools.lru_cache(maxsize=16)
def _initial_metrics(g: LabeledGraph) -> MetricsReport | None:
    from covertnet import report

    try:
        return report(g)
    except PreconditionError:
        return None


def lazy_trace(g: LabeledGraph, spec: StrategySpec) -> DismantlingTrace:
    """Replay a dismantling strategy one removal at a time on the graph.

    While the largest component exceeds target * n: hub removes the
    highest-degree node (smallest label on ties), random a uniformly drawn
    node from the sorted remaining labels, and gnd bisects the largest
    component and removes the greedy cover of its crossing edges, a whole
    round at a time, or the component itself when it is a single node.
    Each removal charges the current ("residual") or original ("initial")
    degree, rebuilds the graph, finds its largest component by BFS and
    logs density, fragmentation and mean betweenness from the public
    metric functions, as 0.0, 1.0 and 0.0 below their size preconditions.
    """
    from covertnet import (
        RemovalStep,
        crossing_subgraph,
        induced_subgraph,
        largest_connected_component,
        remove_nodes,
        spectral_bisection,
        wvc,
    )

    def lcc(h: LabeledGraph) -> int:
        return len(largest_connected_component(h)) if h.node_count else 0

    rng = random.Random(spec.rng_seed)
    bound = spec.target_lcc_fraction * g.node_count + 1e-9
    current = g
    total = 0
    steps = []

    def remove(v: str) -> None:
        nonlocal current, total
        cost = current.degree(v) if spec.cost_model == "residual" else g.degree(v)
        current = remove_nodes(current, [v])
        total += cost
        steps.append(RemovalStep(v, cost, total, lcc(current), *_residual_metrics(current)))

    while lcc(current) > bound:
        if spec.kind == "hub":
            remove(min(current.nodes, key=lambda v: (-current.degree(v), v)))
        elif spec.kind == "random":
            remaining = sorted(current.nodes)
            remove(remaining[rng.randrange(len(remaining))])
        else:
            core = induced_subgraph(current, largest_connected_component(current))
            if core.node_count == 1:
                remove(core.nodes[0])
                continue
            picks = wvc(crossing_subgraph(core, spectral_bisection(core)), core)
            assert picks, "a connected core of two or more nodes has crossing edges"
            for v in picks:
                remove(v)
    return DismantlingTrace(
        strategy=spec,
        initial_node_count=g.node_count,
        initial_lcc_size=lcc(g),
        initial_metrics=_initial_metrics(g),
        steps=tuple(steps),
    )


def spec_dict(spec: StrategySpec) -> dict:
    """A strategy spec's JSON object, field by field."""
    return {
        "kind": spec.kind,
        "target_lcc_fraction": spec.target_lcc_fraction,
        "rng_seed": spec.rng_seed,
        "cost_model": spec.cost_model,
    }


def report_dict(rep: MetricsReport) -> dict:
    """A metrics report's JSON object, field by field, eigenvector scores by label."""
    return {
        "node_count": rep.node_count,
        "edge_count": rep.edge_count,
        "density": rep.density,
        "fragmentation": rep.fragmentation,
        "average_degree": rep.average_degree,
        "diameter_lcc": rep.diameter_lcc,
        "average_clustering": rep.average_clustering,
        "mean_betweenness": rep.mean_betweenness,
        "degree_centralization": rep.degree_centralization,
        "eigenvector_centrality": {
            v: rep.eigenvector_centrality[v] for v in sorted(rep.eigenvector_centrality)
        },
    }


def trace_csv(trace: DismantlingTrace) -> str:
    """A trace's CSV, one f-string per step with every float as its repr."""
    out = StringIO()
    out.write(
        "step,removed_node,node_cost,cumulative_cost,lcc_size,"
        "lcc_fraction,density,fragmentation,mean_betweenness\n"
    )
    for i, s in enumerate(trace.steps, start=1):
        frac = trace.lcc_fraction(s.lcc_size_after)
        out.write(
            f"{i},{s.node},{s.cost},{s.cumulative_cost},{s.lcc_size_after},"
            f"{frac!r},{s.density_after!r},{s.fragmentation_after!r},"
            f"{s.mean_betweenness_after!r}\n"
        )
    return out.getvalue()


def trace_json(trace: DismantlingTrace) -> str:
    """A trace's JSON, each step's object spelled out key by key."""
    doc = {
        "strategy": spec_dict(trace.strategy),
        "initial_node_count": trace.initial_node_count,
        "initial_lcc_size": trace.initial_lcc_size,
        "initial_metrics": report_dict(trace.initial_metrics) if trace.initial_metrics else None,
        "steps": [
            {
                "step": i,
                "removed_node": s.node,
                "node_cost": s.cost,
                "cumulative_cost": s.cumulative_cost,
                "lcc_size": s.lcc_size_after,
                "lcc_fraction": trace.lcc_fraction(s.lcc_size_after),
                "density": s.density_after,
                "fragmentation": s.fragmentation_after,
                "mean_betweenness": s.mean_betweenness_after,
            }
            for i, s in enumerate(trace.steps, start=1)
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def mention_snowball_run(ground_truth: LabeledGraph, config: SamplingConfig) -> SnowballRun:
    """Snowball sample by tracking every mention and confirmation.

    Keeps, per interviewee, whom they named and which earlier mentions of
    them they confirmed, then scans every pair of discovered actors and
    keeps a true tie when both ends vouched for it (by naming it, or by
    confirming a prior mention) under mutual confirmation, or when either
    end named it otherwise. A kept tie counts toward the wave that first
    named it. The RNG draws are the package's: the seeds from the sorted
    population, then each interviewee's names from their sorted contacts.
    """
    if config.seed_count > ground_truth.node_count:
        raise PreconditionError(
            f"seed_count {config.seed_count} exceeds the population "
            f"of {ground_truth.node_count}"
        )
    rng = random.Random(config.rng_seed)
    population = sorted(ground_truth.nodes)
    seeds = rng.sample(population, config.seed_count)

    discovered = set(seeds)
    frontier = sorted(seeds)
    named: dict[str, set[str]] = {}
    confirmed: dict[str, set[str]] = {}
    pending_mentions: dict[str, set[str]] = {}
    first_named_wave: dict[frozenset[str], int] = {}
    stats: list[WaveStats] = []

    for wave in range(config.waves + 1):
        fresh: set[str] = set()
        for person in frontier:
            # a mention made before this interview gets confirmed now;
            # mentions always come from true contacts, so the answer
            # is honest by construction
            confirmed[person] = set(pending_mentions.get(person, ()))
            contacts = sorted(ground_truth.neighbors(person))
            quota = min(config.names_per_interview, len(contacts))
            chosen = rng.sample(contacts, quota) if quota else []
            named[person] = set(chosen)
            for other in chosen:
                pending_mentions.setdefault(other, set()).add(person)
                first_named_wave.setdefault(frozenset((person, other)), wave)
                fresh.add(other)
        joining = sorted(fresh - discovered) if wave < config.waves else []
        stats.append(
            WaveStats(wave=wave, interviews=len(frontier), new_nodes=len(joining), edges_observed=0)
        )
        if wave == config.waves:
            break
        discovered.update(joining)
        frontier = joining
        if not frontier:
            break

    nodes = sorted(discovered)
    edges = []
    edge_waves: dict[int, int] = {}
    for i, u in enumerate(nodes):
        for v in nodes[i + 1 :]:
            if not ground_truth.has_edge(u, v):
                continue
            named_uv = v in named.get(u, ())
            named_vu = u in named.get(v, ())
            if config.mutual_confirmation:
                vouched_u = named_uv or v in confirmed.get(u, ())
                vouched_v = named_vu or u in confirmed.get(v, ())
                keep = vouched_u and vouched_v
            else:
                keep = named_uv or named_vu
            if keep:
                edges.append((u, v))
                w = first_named_wave[frozenset((u, v))]
                edge_waves[w] = edge_waves.get(w, 0) + 1

    stats = [
        WaveStats(s.wave, s.interviews, s.new_nodes, edge_waves.get(s.wave, 0)) for s in stats
    ]
    roles = {v: r for v, r in ground_truth.roles.items() if v in discovered}
    return SnowballRun(graph=LabeledGraph(nodes, edges, roles), waves=tuple(stats))


class MetricDictEvaluator:
    """Soft-target scoring through a dict of metric values keyed by name."""

    def __init__(self, target: SynthesisTarget, order: tuple[str, ...]):
        idx = {v: i for i, v in enumerate(order)}
        self.penalty = target.missing_metric_penalty
        self.terms = [
            (t.metric, t.value, t.weight, tuple(idx[v] for v in t.nodes)) for t in target.soft
        ]
        wanted = {t.metric for t in target.soft}
        self.need_dist = bool(wanted & {"diameter_lcc", "mean_betweenness", "eigenvector_top3"})

    def values(self, state) -> dict[str, float | None]:
        """Every requested metric's value, None where not computable."""
        n = state.n
        m = len(state.edges)
        a = state.a
        out: dict[str, float | None] = {}
        dist = frozen_distances(a) if self.need_dist else None
        for metric, _value, _weight, nodes in self.terms:
            if metric in out:
                continue
            if metric == "density":
                out[metric] = _density(n, m) if n >= 2 else None
            elif metric == "fragmentation":
                out[metric] = 1.0 - _density(n, m) if n >= 2 else None
            elif metric == "average_degree":
                out[metric] = (2.0 * m) / n if n >= 1 else None
            elif metric == "diameter_lcc":
                out[metric] = float(dist.max()) if m and (dist >= 0).all() else None
            elif metric == "average_clustering":
                out[metric] = float(frozen_clustering(a).mean()) if n >= 1 else None
            elif metric == "mean_betweenness":
                out[metric] = (
                    float(frozen_raw_betweenness(a, dist).sum()) / (n * (n - 1) * (n - 2))
                    if n >= 3
                    else None
                )
            elif metric == "degree_centralization":
                deg = state.deg
                out[metric] = _degree_centralization(deg, int(deg.max())) if n >= 3 else None
            elif metric == "eigenvector_top3":
                # the largest component, a size tie going to the lowest index
                reach = dist >= 0
                members = np.flatnonzero(reach[int(reach.sum(axis=1).argmax())])
                vec = np.linalg.eigh(a[np.ix_(members, members)])[1][:, -1]
                if vec[int(np.abs(vec).argmax())] < 0:
                    vec = -vec
                scores = np.zeros(n)
                scores[members] = vec
                top = np.argsort(-scores, kind="stable")[:3].tolist()
                out[metric] = len(set(top).intersection(nodes)) / len(nodes)
        return out

    def objective(self, state) -> float:
        total = 0.0
        for _metric, _got, contribution in self.contributions(state):
            total += contribution
        return total

    def score(self, state) -> _Score:
        """The objective as the annealer takes it, a bracket with nothing open."""
        return _Score(self.objective(state))

    def contributions(self, state):
        """(metric, achieved, contribution) for each soft target, in target order."""
        vals = self.values(state)
        for metric, value, weight, _nodes in self.terms:
            got = vals[metric]
            if got is None:
                yield metric, None, weight * self.penalty
            else:
                diff = got - value
                yield metric, got, weight * diff * diff


def eager_anneal(
    state: _State,
    rng: random.Random,
    iterations: int,
    t0: float,
    cooling: float,
    score,
    guard,
    protected: frozenset[tuple[int, int]],
) -> tuple[float, list[tuple[int, int]]]:
    """The annealing loop as it was before brackets: `score` is a float
    function, evaluated exactly on every candidate, and each decision reads
    those floats. Kept verbatim to replay the bracketed loop against.

    Returns (final score, best edge list). Scores are
    non-negative, so the loop stops early at 0.0. Temperature cools
    every proposal; the acceptance coin is only flipped for uphill
    moves, so the RNG sequence is reproducible. A `guard` sees each
    swapped state with the edge swapped out, and a swap it refuses is
    undone, so from a state the guard accepts every state it sees is
    one swap from an accepted one.
    """
    cur = score(state)
    best = cur
    best_edges = list(state.edges)
    t = t0
    for _ in range(iterations):
        if cur <= 0.0 or not state.edges or not state.non_edges:
            break
        out_pair = state.edges[rng.randrange(len(state.edges))]
        in_pair = state.non_edges[rng.randrange(len(state.non_edges))]
        t *= cooling
        if out_pair in protected:
            continue
        state.swap(out_pair, in_pair)
        if guard is not None and not guard(state, out_pair):
            state.swap(in_pair, out_pair)
            continue
        new = score(state)
        diff = new - cur
        if diff <= 0.0 or (t > 0.0 and rng.random() < math.exp(-diff / t)):
            cur = new
            if cur < best:
                best = cur
                best_edges = list(state.edges)
        else:
            state.swap(in_pair, out_pair)
    return cur, best_edges
