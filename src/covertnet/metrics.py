"""Topology and centrality metrics.

All centrality scores are reported as fractions in [0, 1], never
percentages. Functions that need a minimum graph size raise
PreconditionError rather than guessing a value.

Each metric has one implementation: a dense numpy kernel over the
adjacency matrix in sorted label order, shared with the annealer in
`synthesis`. One BFS sweep from every source (`_paths`) serves every
metric but per-node betweenness. In O(n^2) memory it hands back the hop
distances, inf for a pair it did not reach, the count of such pairs, its
depth, the sum of the distances less one over the pairs it reached and,
from its first product, each node's closed walks of length 3 and the
closed walks of length 4 in all, tr(A^4); it forms no path counts.
Diameter, mean betweenness, eigenvector centrality and dismantling's
logged runs read the distances, and clustering reads the closed walks.
Only per-node betweenness and the annealer's Brandes sum need the
shortest-path counts, and `_raw_betweenness` is a sweep of its own: its
forward pass finds each hop level and counts that level's paths with one
product, then it walks the levels back. The annealer takes its diameter
from the depth, its connectivity from the unreached count, its Brandes
bracket from the distance sum and its bound on the second eigenvalue
from tr(A^4), so its sweeps fill no distance matrix. Mean betweenness is
read from the distances alone, so unlike per-node betweenness it never
needs a path count past the largest float. The annealer's mean
betweenness is the per-node kernel's float sum, so that the bundled
network rebuilds bit for bit; it brackets that sum by the same distance
sums and runs the kernel only where the bracket leaves a decision open.
Eigenvector centrality is the leading eigenvector of one dense `eigh` on
the largest connected component, a size tie going to the component
holding the smallest label as in `graph.largest_connected_component`; it
is scaled so the maximum is 1, and nodes outside that component score 0.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .errors import GraphError, PreconditionError
from .graph import LabeledGraph
from .spectral import adjacency_matrix, node_order


def _density(n: int, m: int) -> float:
    return (2.0 * m) / (n * (n - 1))


def density(g: LabeledGraph) -> float:
    """Fraction of the n(n-1)/2 possible edges that are present."""
    n = g.node_count
    if n < 2:
        raise PreconditionError("density needs at least 2 nodes")
    return _density(n, g.edge_count)


def fragmentation(g: LabeledGraph) -> float:
    """One minus density: the fraction of node pairs left unconnected."""
    n = g.node_count
    if n < 2:
        raise PreconditionError("fragmentation needs at least 2 nodes")
    return 1.0 - _density(n, g.edge_count)


def average_degree(g: LabeledGraph) -> float:
    if g.node_count == 0:
        raise PreconditionError("average degree of an empty graph")
    return (2.0 * g.edge_count) / g.node_count


class _Sweep(NamedTuple):
    """What one `_paths` sweep computes; `dist` is n x n, or None from a
    sweep told to fill no distances."""

    dist: np.ndarray | None  # hop distances, inf if unreachable
    depth: int  # the largest finite hop distance
    left: int  # the ordered pairs not reached, so 0 iff the graph is connected
    closed: np.ndarray  # per node: twice its triangle count, from the first product
    walks4: float  # tr(A^4) = |a @ a|_F^2, an exact integer while n^2 (n - 1)^2 < 2**53
    excess: int  # sum of d(s, t) - 1 over the ordered pairs s != t with a path


def _paths(a: np.ndarray, distances: bool = True) -> _Sweep:
    """All-pairs hop distances level by level, inf if unreachable; no path counts.

    One BFS sweep, started at level 1: level 1 is `a` itself, and the
    pairs reaching level k are the unreached ones that the boolean level
    k-1 frontier times `a` makes positive. The frontier is boolean, so
    nothing is carried from level to level but which pairs it holds, and
    `depth` is the diameter of a connected graph, and `excess` adds each
    level's pair count times its distance less one as the level is found.
    The first product, a @ a, also gives each node's closed walks of
    length 3 (`closed`), which clustering reads, and its squared
    Frobenius norm, tr(A^4) (`walks4`), a sum of exact integers in any
    order. Only one level's product is held at a time, so memory is
    O(n^2) whatever the diameter. Without `distances` no distance matrix
    is filled and `dist` is None; every other field is the same, for a
    caller that reads only those, as the annealer does.
    """
    n = a.shape[0]
    unreached = a <= 0.0
    unreached.flat[:: n + 1] = False
    dist = None
    if distances:
        dist = np.where(unreached, np.inf, 1.0)
        dist.flat[:: n + 1] = 0.0
    left = np.count_nonzero(unreached)
    depth = int(left < n * (n - 1))  # level 1 is empty without an edge
    excess = 0
    counts = a @ a
    closed = np.einsum("ij,ij->i", counts, a)
    walks4 = float(np.vdot(counts, counts))
    while left:
        nxt = counts > 0
        nxt &= unreached
        found = np.count_nonzero(nxt)
        if not found:
            break
        left -= found
        excess += depth * found  # the new level's pairs lie depth + 1 apart
        depth += 1
        unreached ^= nxt
        if dist is not None:
            np.putmask(dist, nxt, depth)
        if left:  # else every pair is reached, and a further level would be empty
            counts = nxt @ a
    return _Sweep(dist, depth, left, closed, walks4, excess)


def _largest_component(dist: np.ndarray) -> np.ndarray:
    """Indexes of the largest component; ties go to the smallest index."""
    root = int((dist < np.inf).sum(axis=1).argmax())
    return np.flatnonzero(dist[root] < np.inf)


def _closed(a: np.ndarray) -> np.ndarray:
    """Per node: twice its triangle count, the row sums of a @ a * a, as
    `_paths` forms it. Each is an exact integer, whatever the order of
    the sum."""
    return np.einsum("ij,ij->i", a @ a, a)


def _clustering(deg: np.ndarray, closed: np.ndarray) -> np.ndarray:
    """Per-node local clustering from the degrees and `closed`; a node of
    degree below 2 closes no triangle, so it scores 0 / 1 = 0."""
    return closed / np.maximum(deg * (deg - 1.0), 1.0)


def _raw_betweenness(a: np.ndarray) -> np.ndarray:
    """Per-node Brandes dependency sums over the ordered pairs of `a`'s nodes.

    The forward pass is a BFS sweep of its own from every source at once:
    the counts reaching level 1 are `a` itself, and those reaching level k
    are the level k-1 counts times `a`, one product per level, each an
    exact integer in float. The pairs reaching level k are the unreached
    ones that product makes positive. A count past the largest float is
    carried as that float, so an overflow never turns into inf * 0 = NaN,
    and a saturated count raises. The backward pass walks the hop levels
    from the depth: the dependency of level k's pairs flows through `a` to
    the pairs of level k-1, weighted by their path counts. Each level's
    pairs are derived from the distances as the pass reaches them, two
    levels at a time, so memory stays O(n^2) whatever the diameter.
    """
    n = a.shape[0]
    big = np.finfo(float).max
    dist = np.where(a > 0.0, 1.0, np.inf)
    dist.flat[:: n + 1] = 0.0
    left = np.count_nonzero(dist == np.inf)
    depth = int(left < n * (n - 1))  # level 1 is empty without an edge
    sigma = a + np.eye(n)
    front = a
    with np.errstate(over="ignore"):  # the cap below is how an overflow is handled
        while left:
            front = front @ a
            np.minimum(front, big, out=front)  # an overflow is carried as the largest float
            front *= dist == np.inf  # capped counts are finite, so this zeroes exactly
            nxt = front > 0.0  # the new level's pairs
            found = np.count_nonzero(nxt)
            if not found:
                break
            left -= found
            depth += 1
            np.putmask(dist, nxt, depth)
            sigma += front
    if sigma.max(initial=0.0) >= big:  # a saturated count is not exact
        raise PreconditionError("a shortest-path count overflows a float")
    safe = np.maximum(sigma, 1.0)  # 1 where no path, so the ratio stays finite
    delta = np.zeros(sigma.shape)
    step = np.empty(sigma.shape)
    ratio = 1.0 / safe  # the deepest level carries no dependency yet
    level = dist == depth
    for k in range(depth, 0, -1):
        below = dist == k - 1
        # in place, in the order of ((1 + delta) / safe * level) @ a * below * sigma
        ratio *= level
        np.matmul(ratio, a, out=step)
        step *= below
        step *= sigma
        delta += step
        if k > 1:
            np.add(delta, 1.0, out=ratio)
            ratio /= safe
        level = below
    return delta.sum(axis=0) - np.diag(delta)


def _leading_vector(a: np.ndarray, members: np.ndarray) -> np.ndarray:
    """Leading eigenvector of the component `members`, the largest one
    (`_largest_component`), 0 elsewhere; its largest |entry| is > 0."""
    vec = np.linalg.eigh(a[np.ix_(members, members)])[1][:, -1]
    if vec[int(np.abs(vec).argmax())] < 0:
        vec = -vec
    scores = np.zeros(a.shape[0])
    scores[members] = vec
    return scores


def _matrices(g: LabeledGraph) -> tuple[tuple[str, ...], np.ndarray, _Sweep]:
    """Sorted label order, adjacency matrix and `_paths` sweep of g."""
    a = adjacency_matrix(g)
    return node_order(g), a, _paths(a)


def _require_edge(g: LabeledGraph) -> None:
    if g.edge_count == 0:
        raise PreconditionError("diameter needs at least one edge")


def _require_three(g: LabeledGraph) -> None:
    if g.node_count < 3:
        raise PreconditionError("betweenness needs at least 3 nodes")


def _diameter(dist: np.ndarray) -> int:
    members = _largest_component(dist)
    return int(dist[np.ix_(members, members)].max())


def diameter_lcc(g: LabeledGraph) -> int:
    """Longest shortest path within the largest connected component."""
    _require_edge(g)
    return _diameter(_matrices(g)[2].dist)


def local_clustering(g: LabeledGraph, v: str) -> float:
    """Fraction of the node's neighbor pairs that are themselves linked."""
    if not g.has_node(v):
        raise GraphError(f"unknown node {v!r}")
    a = adjacency_matrix(g)
    return float(_clustering(a.sum(axis=1), _closed(a))[node_order(g).index(v)])


def average_clustering(g: LabeledGraph) -> float:
    if g.node_count == 0:
        raise PreconditionError("average clustering of an empty graph")
    a = adjacency_matrix(g)
    # sum / n is np.mean's own reduction and division, so the bits are its
    return float(_clustering(a.sum(axis=1), _closed(a)).sum() / g.node_count)


def betweenness(g: LabeledGraph) -> dict[str, float]:
    """Shortest-path betweenness for every node, normalized to [0, 1].

    Raw pair-dependency sums are divided by (n-1)(n-2), which both
    removes the double count of unordered pairs and rescales so a
    node on every shortest path scores exactly 1.
    """
    _require_three(g)
    a = adjacency_matrix(g)
    raw = _raw_betweenness(a)
    n = g.node_count
    scale = 1.0 / ((n - 1) * (n - 2))
    return {v: float(x * scale) for v, x in zip(node_order(g), raw)}


def _distance_sums(dist: np.ndarray) -> tuple[float, int]:
    """(I, R) from hop distances: R the ordered pairs s != t with a path,
    and I the sum of d(s, t) - 1 over them, the betweenness summed over
    every node (Barthelemy, EPJ B 38:163, 2004). R is the count of finite
    entries of `dist` (inf if unreachable) less its n zeros, and I their
    sum less R, an exact integer in float whatever the order of the sum.
    A `_paths` sweep holds them already: I is its `excess`, R is n(n - 1)
    less its `left`."""
    reach = dist < np.inf
    pairs = np.count_nonzero(reach) - dist.shape[0]
    return float(dist.sum(where=reach) - pairs), pairs


def _mean_betweenness(dist: np.ndarray, n: int) -> float:
    """Mean betweenness of an n-node graph (n >= 3) from its hop distances
    alone: `_distance_sums`' I needs no path count, so the value is rounded
    once, in the division."""
    return _distance_sums(dist)[0] / (n * (n - 1) * (n - 2))


def mean_betweenness(g: LabeledGraph) -> float:
    """Mean normalized betweenness, from hop distances alone (no path counts)."""
    _require_three(g)
    return _mean_betweenness(_matrices(g)[2].dist, g.node_count)


def _eigenvector_scores(
    order: tuple[str, ...], a: np.ndarray, dist: np.ndarray
) -> dict[str, float]:
    # the component's leading eigenvector is positive; abs clears the
    # rounding-level negatives eigh can leave on near-zero entries
    vec = np.abs(_leading_vector(a, _largest_component(dist)))
    return {v: float(x) for v, x in zip(order, vec / vec.max())}


def eigenvector_centrality(g: LabeledGraph) -> dict[str, float]:
    """Principal-eigenvector scores scaled so the maximum is 1.

    One dense eigensolve on the largest connected component (the module
    docstring gives the tie rule); nodes outside it score 0.
    """
    if g.node_count == 0:
        raise PreconditionError("eigenvector centrality of an empty graph")
    order, a, sweep = _matrices(g)
    return _eigenvector_scores(order, a, sweep.dist)


def _degree_centralization(deg: np.ndarray, top: int) -> float:
    """Freeman centralization of an integer degree vector (n >= 3) whose
    largest entry is `top`, rounded once."""
    n = deg.shape[0]
    return float(top * n - int(deg.sum())) / ((n - 1) * (n - 2))


def degree_centralization(g: LabeledGraph) -> float:
    """Freeman centralization: star graphs score 1, regular graphs 0."""
    if g.node_count < 3:
        raise PreconditionError("degree centralization needs at least 3 nodes")
    deg = np.array([g.degree(v) for v in g.nodes])
    return _degree_centralization(deg, int(deg.max()))


@dataclass(frozen=True)
class MetricsReport:
    """One full set of topology metrics for a graph."""

    node_count: int
    edge_count: int
    density: float
    fragmentation: float
    average_degree: float
    diameter_lcc: int
    average_clustering: float
    mean_betweenness: float
    degree_centralization: float
    eigenvector_centrality: dict[str, float]

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["eigenvector_centrality"] = dict(sorted(self.eigenvector_centrality.items()))
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


def _report(
    g: LabeledGraph, order: tuple[str, ...], a: np.ndarray, dist: np.ndarray,
    closed: np.ndarray,
) -> MetricsReport:
    """The report of g from its sorted label order, adjacency matrix, hop
    distances (inf if unreachable) and `closed` counts, whoever computed
    them."""
    dens, frag, avg_deg = density(g), fragmentation(g), average_degree(g)
    _require_edge(g)
    _require_three(g)
    return MetricsReport(
        node_count=g.node_count,
        edge_count=g.edge_count,
        density=dens,
        fragmentation=frag,
        average_degree=avg_deg,
        diameter_lcc=_diameter(dist),
        average_clustering=float(_clustering(a.sum(axis=1), closed).sum() / g.node_count),
        mean_betweenness=_mean_betweenness(dist, g.node_count),
        degree_centralization=degree_centralization(g),
        eigenvector_centrality=_eigenvector_scores(order, a, dist),
    )


def report(g: LabeledGraph) -> MetricsReport:
    """Compute every metric at once; needs n >= 3 and at least one edge.

    The adjacency matrix and one `_paths` sweep are built once and shared
    by the metrics that need them; each field equals its standalone
    function.
    """
    order, a, sweep = _matrices(g)
    return _report(g, order, a, sweep.dist, sweep.closed)
