"""Dismantling strategies and their removal traces.

Three strategies reduce a graph's largest connected component below a
target fraction of the starting node count:

* spectral dismantling (gnd): each round bisects the current component
  with a degree-cost Fiedler vector and removes a greedy vertex cover
  of the crossing edges (best coverage-per-cost ratio first);
* adaptive hub attack: always remove the current highest-degree node;
* random attack: remove uniformly chosen nodes under a fixed seed.

A strategy only chooses its removal order. One pass over the order
gives every removal's cost and the LCC size after it (`Removals`).
Logging a run puts the removed nodes back in reverse order, carrying
the residual graph's hop distances and edge count from one step to the
one before it; these give the density, fragmentation and mean
betweenness of each residual graph, so that strategies can be compared
step for step in a `DismantlingTrace`. Once every node is back those
distances are the whole graph's, and the trace's initial metrics report
is built from them rather than from a second sweep; runs logged together
on one graph share one report.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from . import metrics
from .errors import GraphError, PreconditionError, _is_int, _set_real
from .graph import LabeledGraph, induced_subgraph, largest_connected_component, remove_nodes
from .spectral import adjacency_matrix, crossing_subgraph, node_order, spectral_bisection

STRATEGY_KINDS = ("gnd", "hub", "random")
COST_MODELS = ("residual", "initial")

TRACE_COLUMNS = (
    "step",
    "removed_node",
    "node_cost",
    "cumulative_cost",
    "lcc_size",
    "lcc_fraction",
    "density",
    "fragmentation",
    "mean_betweenness",
)
TRACE_CSV_HEADER = ",".join(TRACE_COLUMNS)


@dataclass(frozen=True)
class StrategySpec:
    """Which strategy to run and when to stop.

    `cost_model` only changes how removal costs are logged: "residual"
    charges a node its degree at removal time, "initial" charges its
    degree in the untouched graph.
    """

    kind: str
    target_lcc_fraction: float = 0.2
    rng_seed: int | None = None
    cost_model: str = "residual"

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise PreconditionError(f"unknown strategy kind {self.kind!r}")
        _set_real(self, "target_lcc_fraction", "a finite number")
        if not 0.0 < self.target_lcc_fraction <= 1.0:
            raise PreconditionError("target_lcc_fraction must be in (0, 1]")
        if not (_is_int(self.rng_seed) if self.kind == "random" else self.rng_seed is None):
            raise PreconditionError("rng_seed must be an integer for random and None otherwise")
        if self.cost_model not in COST_MODELS:
            raise PreconditionError(f"unknown cost model {self.cost_model!r}")

    def to_dict(self) -> dict:
        return asdict(self)


class Removal(NamedTuple):
    """One removal without the residual metrics: what a threshold cost needs."""

    node: str
    cost: int
    cumulative_cost: int
    lcc_size_after: int


@dataclass(frozen=True)
class RemovalStep:
    """One removal and the state of the graph right after it."""

    node: str
    cost: int
    cumulative_cost: int
    lcc_size_after: int
    density_after: float
    fragmentation_after: float
    mean_betweenness_after: float


@dataclass(frozen=True)
class Removals:
    """Removal order, costs and LCC sizes of one run, with no residual metrics."""

    initial_node_count: int
    initial_lcc_size: int
    steps: tuple[Removal, ...]

    def removal_order(self) -> tuple[str, ...]:
        return tuple(s.node for s in self.steps)

    def total_cost(self) -> int:
        return self.steps[-1].cumulative_cost if self.steps else 0

    def lcc_fraction(self, lcc_size: int) -> float:
        """lcc_size over the initial node count; 0.0 on an empty graph."""
        n0 = self.initial_node_count
        return lcc_size / n0 if n0 else 0.0


@dataclass(frozen=True)
class DismantlingTrace(Removals):
    """Full record of one strategy run: its removals with the residual metrics."""

    steps: tuple[RemovalStep, ...]
    strategy: StrategySpec
    initial_metrics: metrics.MetricsReport | None

    def _rows(self):
        """Each step's values in `TRACE_COLUMNS` order."""
        for i, s in enumerate(self.steps, start=1):
            yield (
                i,
                s.node,
                s.cost,
                s.cumulative_cost,
                s.lcc_size_after,
                self.lcc_fraction(s.lcc_size_after),
                s.density_after,
                s.fragmentation_after,
                s.mean_betweenness_after,
            )

    def to_csv(self) -> str:
        # str of a Python float or int is its repr, so no digit is lost
        lines = [TRACE_CSV_HEADER] + [",".join(map(str, row)) for row in self._rows()]
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        doc = {
            "strategy": self.strategy.to_dict(),
            "initial_node_count": self.initial_node_count,
            "initial_lcc_size": self.initial_lcc_size,
            "initial_metrics": self.initial_metrics.to_dict() if self.initial_metrics else None,
            "steps": [dict(zip(TRACE_COLUMNS, row)) for row in self._rows()],
        }
        return json.dumps(doc, indent=2) + "\n"


def threshold_cost(trace: Removals, p: float) -> int | None:
    """Cumulative cost of the first step that cut the LCC by fraction p.

    Zero when the starting graph already satisfies the reduction; None
    when the trace never got there.
    """
    if not 0.0 < p <= 1.0:
        raise PreconditionError("reduction fraction must be in (0, 1]")
    # the grace term absorbs float error in the product, e.g.
    # (1 - 0.8) * 5 landing a hair under the intended integer 1
    bound = (1.0 - p) * trace.initial_node_count + 1e-9
    if trace.initial_lcc_size <= bound:
        return 0
    for s in trace.steps:
        if s.lcc_size_after <= bound:
            return s.cumulative_cost
    return None


def wvc(g_star: LabeledGraph, g: LabeledGraph) -> tuple[str, ...]:
    """Greedy weighted vertex cover of g_star's edges, in pick order.

    Repeatedly takes the node with the best ratio of uncovered
    g_star edges to removal cost (its degree in g), smallest label on
    ties, deleting the pick from both graphs. Ratios k/h are compared
    by cross-multiplying their integer terms, so ties are exact.
    """
    for v in g_star.nodes:
        if not g.has_node(v):
            raise GraphError(f"cover candidate {v!r} is not in the host graph")
    for u, v in g_star.edges():
        if not g.has_edge(u, v):
            raise GraphError(f"edge {u!r} -- {v!r} is not in the host graph")
    star_adj = {v: set(g_star.neighbors(v)) for v in g_star.nodes}
    host_adj = {v: set(g.neighbors(v)) for v in g.nodes}
    picks: list[str] = []
    while True:
        best, best_k, best_h = None, 0, 1
        for v in sorted(star_adj):
            k = len(star_adj[v])
            if k == 0:
                continue
            h = len(host_adj[v])
            if k * best_h > best_k * h:
                best, best_k, best_h = v, k, h
        if best is None:
            return tuple(picks)
        picks.append(best)
        for w in star_adj.pop(best):
            star_adj[w].discard(best)
        for w in host_adj.pop(best):
            host_adj[w].discard(best)


def _random_order(g: LabeledGraph, spec: StrategySpec, bound: float) -> list[str]:
    # the draws do not depend on the graph, so they are made up front, as
    # far as the node count alone can still exceed the target
    rng = random.Random(spec.rng_seed)
    alive = sorted(g.nodes)
    order: list[str] = []
    while len(alive) > bound:
        order.append(alive.pop(rng.randrange(len(alive))))
    return order


def _hub_order(g: LabeledGraph, spec: StrategySpec, bound: float) -> list[str]:
    # a pick depends on residual degrees only, never on the LCC; ties go
    # to the smallest label
    degree = {v: g.degree(v) for v in g.nodes}
    order: list[str] = []
    while len(degree) > bound:
        pick = min(degree, key=lambda v: (-degree[v], v))
        order.append(pick)
        del degree[pick]
        for w in g.neighbors(pick):
            if w in degree:
                degree[w] -= 1
    return order


def _gnd_order(g: LabeledGraph, spec: StrategySpec, bound: float) -> list[str]:
    """Spectral dismantling: bisect the LCC, cover the crossing edges.

    Each round works on the current largest component with fresh
    degree costs, so earlier removals reshape later rounds. A round's
    whole cover is removed before the stop condition is rechecked.
    A single-node component has nothing to bisect, so when it is the
    largest and still above the target it is removed directly.
    """
    current = g
    order: list[str] = []
    while True:
        lcc = largest_connected_component(current)
        if len(lcc) <= bound:
            return order
        if len(lcc) == 1:
            picks: tuple[str, ...] = tuple(lcc)
        else:
            core = induced_subgraph(current, lcc)
            picks = wvc(crossing_subgraph(core, spectral_bisection(core)), core)
        order.extend(picks)
        current = remove_nodes(current, picks)


_ORDERS = {"gnd": _gnd_order, "hub": _hub_order, "random": _random_order}


def _find(parent: list[int], i: int) -> int:
    while parent[i] != i:
        parent[i] = parent[parent[i]]
        i = parent[i]
    return i


def removals(g: LabeledGraph, spec: StrategySpec) -> Removals:
    """The strategy's removal order with its costs and LCC sizes, without
    the residual metrics that `run_strategy` logs.

    The LCC size after each prefix of the order comes from inserting the
    nodes back in reverse order with union-find (Newman & Ziff, PRL
    85:4104, 2000); a node's residual cost is the count of neighbours
    already back when it is inserted, those removed after it or never.
    hub and random stop at the first step whose LCC is within the target;
    gnd's order ends with the round that got there, and a round is never
    cut.
    """
    bound = spec.target_lcc_fraction * g.node_count + 1e-9
    pool = sorted(g.nodes)
    index = {v: i for i, v in enumerate(pool)}
    adj = [[index[w] for w in g.neighbors(v)] for v in pool]
    n = len(pool)
    order = [index[v] for v in _ORDERS[spec.kind](g, spec, bound)]
    removed = set(order)
    alive = [i for i in range(n) if i not in removed]
    parent = list(range(n))
    size = [1] * n
    present = [False] * n
    largest = 0
    lcc = [0] * (len(order) + 1)  # lcc[k]: LCC size once the first k removals are made
    residual = [0] * len(order)  # residual[k]: neighbours still there when order[k] goes
    for t, i in enumerate(alive + order[::-1]):
        present[i] = True
        root = _find(parent, i)
        linked = 0
        for j in adj[i]:
            if present[j]:
                linked += 1
                other = _find(parent, j)
                if other != root:
                    if size[root] < size[other]:
                        root, other = other, root
                    parent[other] = root
                    size[root] += size[other]
        largest = max(largest, size[root])
        k = n - t - 1  # removed nodes still out; i is order[k] when k < len(order)
        if k <= len(order):
            lcc[k] = largest
        if k < len(order):
            residual[k] = linked
    steps: list[Removal] = []
    cumulative = 0
    for k, i in enumerate(order):
        if lcc[k] <= bound and spec.kind != "gnd":
            break
        cost = residual[k] if spec.cost_model == "residual" else len(adj[i])
        cumulative += cost
        steps.append(Removal(pool[i], cost, cumulative, lcc[k + 1]))
    return Removals(n, lcc[0], tuple(steps))


def _residual_steps(
    a: np.ndarray, index: dict[str, int], run: Removals
) -> tuple[list[RemovalStep], np.ndarray]:
    """The logged steps of `run` on the graph with adjacency matrix `a`
    (rows in `index` order), and the whole graph's hop distances, inf if
    unreachable.

    The adjacency matrix is permuted once into insertion order: the nodes
    never removed, then the removals reversed, so the residual graph of
    every step is the leading p x p block. One `_paths` sweep gives the
    hop distances of the last residual graph.
    The steps are then walked backwards, putting each removed node back
    as `removals` does: its distance row is 1 + the minimum over its
    present neighbours' rows, and one relaxation through it updates the
    block. Density comes from a running edge count and mean betweenness
    from the distances alone. A residual graph below a metric's size
    precondition logs density 0.0, fragmentation 1.0 and mean betweenness
    0.0. Once every node is back the block holds the whole graph's
    distances, un-permuted once at the end.
    """
    removed = [index[s.node] for s in run.steps]
    out = set(removed)
    perm = [i for i in range(a.shape[0]) if i not in out] + removed[::-1]
    b = a[np.ix_(perm, perm)]
    p = a.shape[0] - len(removed)
    m = int(b[:p, :p].sum()) // 2
    dist = np.full(a.shape, np.inf)
    dist[:p, :p] = metrics._paths(b[:p, :p]).dist
    steps: list[RemovalStep] = []
    for s in reversed(run.steps):
        density = metrics._density(p, m) if p >= 2 else 0.0
        betweenness = metrics._mean_betweenness(dist[:p, :p], p) if p >= 3 else 0.0
        steps.append(RemovalStep(*s, density, 1.0 - density, betweenness))
        linked = np.flatnonzero(b[p, :p])  # the neighbours already back
        row = np.min(dist[linked, : p + 1], axis=0, initial=np.inf) + 1.0
        row[p] = 0.0
        dist[p, : p + 1] = dist[: p + 1, p] = row
        block = dist[: p + 1, : p + 1]
        np.minimum(block, row[:, None] + row[None, :], out=block)
        p, m = p + 1, m + linked.size
    full = np.empty_like(dist)
    full[np.ix_(perm, perm)] = dist
    return steps[::-1], full


def run_strategies(g: LabeledGraph, specs: list[StrategySpec]) -> list[DismantlingTrace]:
    """`run_strategy` for each spec on one graph, in order.

    The initial metrics report is the same for every run, so it is built
    once, from the whole-graph distances that logging the first run ends
    with, and shared by every trace.
    """
    order = node_order(g)
    index = {v: i for i, v in enumerate(order)}
    a = adjacency_matrix(g)
    traces: list[DismantlingTrace] = []
    for spec in specs:
        run = removals(g, spec)
        steps, full = _residual_steps(a, index, run)
        if not traces:
            try:
                initial_metrics = metrics._report(g, order, a, full, metrics._closed(a))
            except PreconditionError:
                initial_metrics = None
        traces.append(
            DismantlingTrace(
                strategy=spec,
                initial_node_count=run.initial_node_count,
                initial_lcc_size=run.initial_lcc_size,
                initial_metrics=initial_metrics,
                steps=tuple(steps),
            )
        )
    return traces


def run_strategy(g: LabeledGraph, spec: StrategySpec) -> DismantlingTrace:
    """Run the strategy named by the spec and log its trace."""
    return run_strategies(g, [spec])[0]
