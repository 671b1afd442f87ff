"""Independent reference implementations used to validate the package.

Each oracle here deliberately avoids the algorithms and data structures of
the code under test: betweenness is path enumeration instead of dependency
accumulation, the Fiedler oracle returns the whole eigenspace of a bare
dense eigensolve so that comparisons do not depend on the package's tie
rules or on the basis LAPACK picks, and the coverage oracle recounts from
edge lists instead of maintaining incremental state.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction

import numpy as np

from covertnet import LabeledGraph


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
