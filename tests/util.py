"""Shared graph builders for the test suite."""

from __future__ import annotations

import random

from covertnet import LabeledGraph, SpectralBisection


def labels(n: int) -> list[str]:
    width = len(str(max(n, 1)))
    return [f"v{i:0{width}d}" for i in range(n)]


def path_graph(n: int) -> LabeledGraph:
    names = labels(n)
    return LabeledGraph(names, [(names[i], names[i + 1]) for i in range(n - 1)])


def cycle_graph(n: int) -> LabeledGraph:
    names = labels(n)
    edges = [(names[i], names[(i + 1) % n]) for i in range(n)]
    return LabeledGraph(names, edges)


def complete_graph(n: int) -> LabeledGraph:
    names = labels(n)
    edges = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)]
    return LabeledGraph(names, edges)


def star_graph(leaves: int) -> LabeledGraph:
    names = ["hub"] + [f"leaf{i}" for i in range(leaves)]
    return LabeledGraph(names, [("hub", leaf) for leaf in names[1:]])


def barbell_graph(k: int = 4) -> LabeledGraph:
    """Two K_k cliques joined by a single bridge edge."""
    left = [f"a{i}" for i in range(k)]
    right = [f"b{i}" for i in range(k)]
    edges = []
    for grp in (left, right):
        edges.extend((grp[i], grp[j]) for i in range(k) for j in range(i + 1, k))
    edges.append((left[0], right[0]))
    return LabeledGraph(left + right, edges)


def layered_graph(layers: int, width: int = 3, extra=()) -> LabeledGraph:
    """Chain of `width`-node layers, every edge between neighbouring layers."""
    names = [[f"l{i:02d}_{j}" for j in range(width)] for i in range(layers)]
    edges = [(u, v) for left, right in zip(names, names[1:]) for u in left for v in right]
    return LabeledGraph([v for layer in names for v in layer] + list(extra), edges)


def sign_split(g: LabeledGraph, vector: dict[str, float]) -> SpectralBisection | None:
    """Split g's nodes by the sign of `vector` (v >= 0 to part_m); None if a side is empty."""
    part_m = frozenset(v for v in g.nodes if vector[v] >= 0.0)
    if part_m and len(part_m) < g.node_count:
        return SpectralBisection(part_m, frozenset(g.nodes) - part_m, 0.0, dict(vector))


def gnm_graph(rng: random.Random, n: int, m: int) -> LabeledGraph:
    """Uniform random graph with exactly m edges."""
    names = labels(n)
    pairs = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)]
    return LabeledGraph(names, rng.sample(pairs, m))


def gnp_graph(rng: random.Random, n: int, p: float) -> LabeledGraph:
    names = labels(n)
    edges = [
        (names[i], names[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    return LabeledGraph(names, edges)


def random_connected_graph(rng: random.Random, n: int, extra: int) -> LabeledGraph:
    """Random spanning tree plus `extra` random chords."""
    names = labels(n)
    shuffled = names[:]
    rng.shuffle(shuffled)
    edges = set()
    for i in range(1, n):
        anchor = shuffled[rng.randrange(i)]
        edges.add(tuple(sorted((shuffled[i], anchor))))
    pool = [
        (names[i], names[j])
        for i in range(n)
        for j in range(i + 1, n)
        if (names[i], names[j]) not in edges
    ]
    for pair in rng.sample(pool, min(extra, len(pool))):
        edges.add(pair)
    return LabeledGraph(names, sorted(edges))
