"""Dismantling strategies and their removal traces.

Three strategies reduce a graph's largest connected component below a
target fraction of the starting node count:

* spectral dismantling: each round bisects the current component with
  a degree-cost Fiedler vector and removes a greedy vertex cover of
  the crossing edges (best coverage-per-cost ratio first);
* adaptive hub attack: always remove the current highest-degree node;
* random attack: remove uniformly chosen nodes under a fixed seed.

Every removal of a written trace is logged with its cost and the
metrics of the residual graph, so strategies can be compared step for
step. A random run whose trace is never written (ensemble runs beyond the
first in `compare`) keeps only its removal order, costs and LCC sizes
(`random_removals`).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from io import StringIO
from typing import NamedTuple

from . import metrics
from .errors import DismantlingError, GraphError, PreconditionError
from .graph import LabeledGraph, induced_subgraph, largest_connected_component, remove_nodes
from .spectral import crossing_subgraph, spectral_bisection

STRATEGY_KINDS = ("gnd", "hub", "random")
COST_MODELS = ("residual", "initial")

TRACE_CSV_HEADER = (
    "step,removed_node,node_cost,cumulative_cost,lcc_size,"
    "lcc_fraction,density,fragmentation,mean_betweenness"
)


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
        if not 0.0 < self.target_lcc_fraction <= 1.0:
            raise PreconditionError("target_lcc_fraction must be in (0, 1]")
        if (self.rng_seed is not None) != (self.kind == "random"):
            raise PreconditionError("rng_seed is required for random and forbidden otherwise")
        if self.cost_model not in COST_MODELS:
            raise PreconditionError(f"unknown cost model {self.cost_model!r}")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "target_lcc_fraction": self.target_lcc_fraction,
            "rng_seed": self.rng_seed,
            "cost_model": self.cost_model,
        }


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
class DismantlingTrace:
    """Full record of one strategy run."""

    strategy: StrategySpec
    initial_node_count: int
    initial_lcc_size: int
    initial_metrics: metrics.MetricsReport | None
    steps: tuple[RemovalStep, ...]

    def removal_order(self) -> tuple[str, ...]:
        return tuple(s.node for s in self.steps)

    def total_cost(self) -> int:
        return self.steps[-1].cumulative_cost if self.steps else 0

    def to_csv(self) -> str:
        out = StringIO()
        out.write(TRACE_CSV_HEADER + "\n")
        n0 = self.initial_node_count
        for i, s in enumerate(self.steps, start=1):
            frac = s.lcc_size_after / n0 if n0 else 0.0
            out.write(
                f"{i},{s.node},{s.cost},{s.cumulative_cost},{s.lcc_size_after},"
                f"{frac!r},{s.density_after!r},{s.fragmentation_after!r},"
                f"{s.mean_betweenness_after!r}\n"
            )
        return out.getvalue()

    def to_json(self) -> str:
        doc = {
            "strategy": self.strategy.to_dict(),
            "initial_node_count": self.initial_node_count,
            "initial_lcc_size": self.initial_lcc_size,
            "initial_metrics": self.initial_metrics.to_dict() if self.initial_metrics else None,
            "steps": [
                {
                    "step": i,
                    "removed_node": s.node,
                    "node_cost": s.cost,
                    "cumulative_cost": s.cumulative_cost,
                    "lcc_size": s.lcc_size_after,
                    "lcc_fraction": s.lcc_size_after / self.initial_node_count
                    if self.initial_node_count
                    else 0.0,
                    "density": s.density_after,
                    "fragmentation": s.fragmentation_after,
                    "mean_betweenness": s.mean_betweenness_after,
                }
                for i, s in enumerate(self.steps, start=1)
            ],
        }
        return json.dumps(doc, indent=2) + "\n"


class Removal(NamedTuple):
    """One removal without the residual metrics: what a threshold cost needs."""

    node: str
    cost: int
    cumulative_cost: int
    lcc_size_after: int


@dataclass(frozen=True)
class Removals:
    """Removal order, costs and LCC sizes of one run, with no residual metrics."""

    initial_node_count: int
    initial_lcc_size: int
    steps: tuple[Removal, ...]


def threshold_cost(trace: DismantlingTrace | Removals, p: float) -> int:
    """Cumulative cost of the first step that cut the LCC by fraction p.

    Zero when the starting graph already satisfies the reduction; an
    error when the trace never got there.
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
    raise DismantlingError(f"trace never reduced the LCC by fraction {p}")


def wvc(g_star: LabeledGraph, g: LabeledGraph) -> tuple[str, ...]:
    """Greedy weighted vertex cover of g_star's edges, in pick order.

    Repeatedly takes the node with the best ratio of uncovered
    g_star edges to removal cost (its degree in g), smallest label on
    ties, deleting the pick from both graphs. Ratios are compared as
    exact rationals so ties are genuine.
    """
    for v in g_star.nodes:
        if not g.has_node(v):
            raise GraphError(f"cover candidate {v!r} is not in the host graph")
    for u, v in g_star.edges():
        if not g.has_edge(u, v):
            raise GraphError(f"edge {u!r} -- {v!r} is not in the host graph")
    star_adj = {v: set(g_star.neighbors(v)) for v in g_star.nodes}
    host_deg = {v: g.degree(v) for v in g.nodes}
    host_adj = {v: set(g.neighbors(v)) for v in g.nodes}
    picks: list[str] = []
    while True:
        best = None
        best_ratio = None
        for v in sorted(star_adj):
            k = len(star_adj[v])
            if k == 0:
                continue
            h = host_deg[v]
            if h == 0:
                raise GraphError(f"node {v!r} has uncovered edges but zero cost")
            ratio = Fraction(k, h)
            if best_ratio is None or ratio > best_ratio:
                best, best_ratio = v, ratio
        if best is None:
            return tuple(picks)
        picks.append(best)
        for w in star_adj.pop(best):
            star_adj[w].discard(best)
        for w in host_adj.pop(best):
            host_adj[w].discard(best)
            host_deg[w] -= 1
        host_deg.pop(best)


def _lenient_density(g: LabeledGraph) -> float:
    # residual graphs can shrink below the metric preconditions;
    # log an empty/singleton graph as fully fragmented
    return metrics.density(g) if g.node_count >= 2 else 0.0


def _lenient_fragmentation(g: LabeledGraph) -> float:
    return metrics.fragmentation(g) if g.node_count >= 2 else 1.0


def _lenient_betweenness(g: LabeledGraph) -> float:
    return metrics.mean_betweenness(g) if g.node_count >= 3 else 0.0


class _TraceBuilder:
    def __init__(self, g: LabeledGraph, spec: StrategySpec):
        self.spec = spec
        self.initial = g
        self.current = g
        self.cumulative = 0
        self.steps: list[RemovalStep] = []

    def lcc_size(self) -> int:
        if self.current.node_count == 0:
            return 0
        return len(largest_connected_component(self.current))

    def remove(self, node: str) -> None:
        if self.spec.cost_model == "residual":
            cost = self.current.degree(node)
        else:
            cost = self.initial.degree(node)
        self.current = remove_nodes(self.current, [node])
        self.cumulative += cost
        self._append(node, cost, self.lcc_size())

    def log(self, step: Removal) -> None:
        """Record a removal whose cost and LCC size are already known."""
        self.current = remove_nodes(self.current, [step.node])
        self.cumulative = step.cumulative_cost
        self._append(step.node, step.cost, step.lcc_size_after)

    def _append(self, node: str, cost: int, lcc_size: int) -> None:
        self.steps.append(
            RemovalStep(
                node=node,
                cost=cost,
                cumulative_cost=self.cumulative,
                lcc_size_after=lcc_size,
                density_after=_lenient_density(self.current),
                fragmentation_after=_lenient_fragmentation(self.current),
                mean_betweenness_after=_lenient_betweenness(self.current),
            )
        )

    def finish(self) -> DismantlingTrace:
        try:
            initial_metrics = metrics.report(self.initial)
        except PreconditionError:
            initial_metrics = None
        lcc0 = 0
        if self.initial.node_count:
            lcc0 = len(largest_connected_component(self.initial))
        return DismantlingTrace(
            strategy=self.spec,
            initial_node_count=self.initial.node_count,
            initial_lcc_size=lcc0,
            initial_metrics=initial_metrics,
            steps=tuple(self.steps),
        )


def _require_kind(spec: StrategySpec, kind: str) -> None:
    if spec.kind != kind:
        raise PreconditionError(f"spec kind {spec.kind!r} given to the {kind} strategy")


def hub_strategy(g: LabeledGraph, spec: StrategySpec) -> DismantlingTrace:
    """Adaptively remove the highest-degree node until the target holds."""
    _require_kind(spec, "hub")
    run = _TraceBuilder(g, spec)
    bound = spec.target_lcc_fraction * g.node_count + 1e-9
    while run.lcc_size() > bound:
        pick = min(run.current.nodes, key=lambda v: (-run.current.degree(v), v))
        run.remove(pick)
    return run.finish()


def _find(parent: list[int], i: int) -> int:
    while parent[i] != i:
        parent[i] = parent[parent[i]]
        i = parent[i]
    return i


def random_removals(g: LabeledGraph, spec: StrategySpec) -> Removals:
    """The random strategy's removals, costs and LCC sizes, without residual metrics.

    Each step removes `remaining[rng.randrange(len(remaining))]` from the
    sorted remaining labels. The draws do not depend on the graph, so the
    order is drawn up front, as far as the node count alone can still
    exceed the target. The LCC size after each prefix then comes from
    inserting the nodes back in reverse order with union-find (Newman &
    Ziff, PRL 85:4104, 2000); a node's residual cost is the count of
    neighbours already back when it is inserted, those removed after it
    or never. The run stops at the first step whose LCC is within the
    target.
    """
    _require_kind(spec, "random")
    rng = random.Random(spec.rng_seed)
    bound = spec.target_lcc_fraction * g.node_count + 1e-9
    pool = sorted(g.nodes)
    index = {v: i for i, v in enumerate(pool)}
    adj = [[index[w] for w in g.neighbors(v)] for v in pool]
    n = len(pool)
    order: list[int] = []
    alive = list(range(n))
    while len(alive) > bound:
        order.append(alive.pop(rng.randrange(len(alive))))
    parent = list(range(n))
    size = [1] * n
    present = [False] * n
    largest = 0
    lcc = [0] * (len(order) + 1)  # lcc[k]: LCC size once the first k drawn nodes are gone
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
        k = n - t - 1  # drawn nodes still out; i is order[k] when k < len(order)
        if k <= len(order):
            lcc[k] = largest
        if k < len(order):
            residual[k] = linked
    steps: list[Removal] = []
    cumulative = 0
    for k, i in enumerate(order):
        if lcc[k] <= bound:
            break
        cost = residual[k] if spec.cost_model == "residual" else len(adj[i])
        cumulative += cost
        steps.append(Removal(pool[i], cost, cumulative, lcc[k + 1]))
    return Removals(n, lcc[0], tuple(steps))


def random_strategy(g: LabeledGraph, spec: StrategySpec) -> DismantlingTrace:
    """Remove uniformly chosen remaining nodes until the target holds.

    The removals come from `random_removals`; this adds the residual
    metrics of each step's graph.
    """
    run = _TraceBuilder(g, spec)
    for step in random_removals(g, spec).steps:
        run.log(step)
    return run.finish()


def gnd(g: LabeledGraph, spec: StrategySpec) -> DismantlingTrace:
    """Spectral dismantling: bisect the LCC, cover the crossing edges.

    Each round works on the current largest component with fresh
    degree costs, so earlier removals reshape later rounds. A round's
    whole cover is removed before the stop condition is rechecked.
    A single-node component has nothing to bisect, so when it is the
    largest and still above the target it is removed directly.
    """
    _require_kind(spec, "gnd")
    run = _TraceBuilder(g, spec)
    bound = spec.target_lcc_fraction * g.node_count + 1e-9
    while run.lcc_size() > bound:
        lcc = largest_connected_component(run.current)
        if len(lcc) == 1:
            run.remove(next(iter(lcc)))
            continue
        core = induced_subgraph(run.current, lcc)
        bisection = spectral_bisection(core)
        star = crossing_subgraph(core, bisection)
        picks = wvc(star, core)
        if not picks:
            raise DismantlingError("bisection produced no crossing edges to cover")
        for node in picks:
            run.remove(node)
    return run.finish()


_STRATEGY_RUNNERS = {"gnd": gnd, "hub": hub_strategy, "random": random_strategy}


def run_strategy(g: LabeledGraph, spec: StrategySpec) -> DismantlingTrace:
    """Dispatch to the strategy named by the spec."""
    return _STRATEGY_RUNNERS[spec.kind](g, spec)
