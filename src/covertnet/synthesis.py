"""Simulated-annealing synthesis of graphs matching target statistics.

A synthesis target fixes the node roster and edge count, a set of
hard structural constraints (connectivity, pinned degrees, required
adjacencies, pair coverage, a protected top-degree pair), and a set
of soft metric targets, each entry scored on its own as a weighted
squared deviation. The annealer starts from a random fill that already
holds every required adjacency, repairs it until the other hard
constraints hold too, then walks the feasible space with single edge
swaps, keeping the best-scoring graph it visits.

Every run is driven by one seeded RNG, so a target synthesizes to the
same graph on every machine.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    FileFormatError,
    GraphError,
    InfeasibleTargetError,
    PreconditionError,
    _is_int,
    _set_real,
)
from .graph import LabeledGraph, _check_label
from .metrics import _clustering, _degree_centralization, _density, _leading_vector
from .metrics import _mean_betweenness, _paths

SOFT_METRICS = (
    "density",
    "fragmentation",
    "average_degree",
    "diameter_lcc",
    "average_clustering",
    "mean_betweenness",
    "degree_centralization",
    "eigenvector_top3",
)

_REPAIR_ATTEMPTS = 8
_REPAIR_ITERATIONS = 50_000


def _entries(value, size: int, what: str) -> tuple:
    """`value` as a tuple of exactly `size` entries; a string is not split into characters."""
    if not isinstance(value, (tuple, list)) or len(value) != size:
        raise PreconditionError(f"{what} must have exactly {size} entries, got {value!r}")
    return tuple(value)


@dataclass(frozen=True)
class AnnealingSchedule:
    initial_temperature: float = 1.0
    cooling_factor: float = 0.999
    iterations: int = 200_000
    rng_seed: int = 7

    def __post_init__(self):
        _set_real(self, "initial_temperature", "a positive finite number", lambda x: x > 0.0)
        _set_real(self, "cooling_factor", "a number in (0, 1]", lambda x: 0.0 < x <= 1.0)
        if not _is_int(self.iterations):
            raise PreconditionError("iterations must be an integer")
        if self.iterations < 0:
            raise PreconditionError("iterations must be non-negative")
        if not _is_int(self.rng_seed):
            raise PreconditionError(f"rng_seed must be an integer, got {self.rng_seed!r}")


@dataclass(frozen=True)
class SoftTarget:
    """One metric the annealer should steer toward.

    `nodes` is only used by eigenvector_top3: the value scored is the
    fraction of those nodes present in the graph's top-3 eigenvector
    ranking, compared against `value` (normally 1.0).
    """

    metric: str
    value: float
    weight: float = 1.0
    nodes: tuple[str, ...] = ()

    def __post_init__(self):
        if self.metric not in SOFT_METRICS:
            raise PreconditionError(f"unknown soft metric {self.metric!r}")
        _set_real(self, "value", "a finite number")
        _set_real(self, "weight", "a non-negative finite number", lambda x: x >= 0)
        if isinstance(self.nodes, str):
            raise PreconditionError(f"nodes must be a list of labels, got {self.nodes!r}")
        object.__setattr__(self, "nodes", tuple(self.nodes))
        if self.metric == "eigenvector_top3":
            if not 1 <= len(self.nodes) <= 3:
                raise PreconditionError("eigenvector_top3 takes between 1 and 3 nodes")
        elif self.nodes:
            raise PreconditionError(f"soft metric {self.metric!r} takes no node list")


@dataclass(frozen=True)
class HardConstraints:
    """Structural facts the synthesized graph must satisfy exactly."""

    connected: bool = True
    degrees: tuple[tuple[str, int], ...] = ()
    adjacent: tuple[tuple[str, str], ...] = ()
    pair_coverage: tuple[str, str, int] | None = None
    top_degree_pair: tuple[str, str] | None = None
    top_degree_margin: int = 2

    def __post_init__(self):
        if not isinstance(self.connected, bool):
            raise PreconditionError(f"connected must be a bool, got {self.connected!r}")
        for name in ("degrees", "adjacent"):
            pairs = tuple(_entries(p, 2, f"each of {name}") for p in getattr(self, name))
            object.__setattr__(self, name, pairs)
        for name, size in (("pair_coverage", 3), ("top_degree_pair", 2)):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _entries(getattr(self, name), size, name))
        for v, d in self.degrees:
            if not _is_int(d):
                raise PreconditionError(f"pinned degree of {v!r} must be an integer, got {d!r}")
        if self.pair_coverage is not None and not _is_int(self.pair_coverage[2]):
            raise PreconditionError(
                f"pair coverage count must be an integer, got {self.pair_coverage[2]!r}"
            )
        if not _is_int(self.top_degree_margin):
            raise PreconditionError(
                f"top_degree_margin must be an integer, got {self.top_degree_margin!r}"
            )
        if self.top_degree_margin < 0:
            raise PreconditionError("top_degree_margin must be non-negative")


@dataclass(frozen=True)
class SynthesisTarget:
    """What to synthesize. Construction checks every field and raises
    InfeasibleTargetError when the hard constraints provably cannot all hold."""

    nodes: tuple[str, ...]
    edge_count: int
    hard: HardConstraints = field(default_factory=HardConstraints)
    soft: tuple[SoftTarget, ...] = ()
    schedule: AnnealingSchedule = field(default_factory=AnnealingSchedule)
    missing_metric_penalty: float = 100.0

    def __post_init__(self):
        if isinstance(self.nodes, str):
            raise PreconditionError(f"nodes must be a list of labels, got {self.nodes!r}")
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "soft", tuple(self.soft))
        for v in self.nodes:
            _check_label(v)
        if len(set(self.nodes)) != len(self.nodes):
            raise PreconditionError("target roster contains duplicate labels")
        n = len(self.nodes)
        m = self.edge_count
        if not _is_int(m):
            raise PreconditionError(f"edge_count must be an integer, got {m!r}")
        if m < 0 or m > n * (n - 1) // 2:
            raise InfeasibleTargetError(f"edge count {m} is impossible on {n} nodes")
        roster = set(self.nodes)
        hc = self.hard

        def known(label: str) -> str:
            if label not in roster:
                raise PreconditionError(f"constraint names unknown node {label!r}")
            return label

        for v, d in hc.degrees:
            known(v)
            if not 0 <= d <= n - 1:
                raise InfeasibleTargetError(f"degree {d} pinned on {v!r} is impossible")
        for u, v in hc.adjacent:
            known(u), known(v)
            if u == v:
                raise PreconditionError("required adjacency cannot be a self-loop")
        if hc.pair_coverage is not None:
            u, v, count = hc.pair_coverage
            known(u), known(v)
            if u == v:
                raise PreconditionError("pair coverage needs two distinct nodes")
            if count < 0 or count > max(0, 2 * n - 3):
                raise InfeasibleTargetError(f"pair coverage {count} is impossible")
        if hc.top_degree_pair is not None:
            u, v = map(known, hc.top_degree_pair)
            if u == v:
                raise PreconditionError("top degree pair needs two distinct nodes")
        for t in self.soft:
            for v in t.nodes:
                known(v)
        _set_real(self, "missing_metric_penalty", "a non-negative finite number", lambda x: x >= 0)
        worst = 0.0  # the objective with every metric at its farthest value or missing
        for t in self.soft:
            top = max(n - 1, 0) if t.metric in ("average_degree", "diameter_lcc") else 1
            d = max(abs(t.value), abs(t.value - top))
            worst += max(t.weight * d * d, t.weight * self.missing_metric_penalty)
            if not math.isfinite(worst):
                raise PreconditionError(f"soft target {t.metric!r} can overflow the objective")

        # static infeasibility comes last, so a malformed target is reported as malformed
        if hc.connected and n >= 2 and m < n - 1:
            raise InfeasibleTargetError(f"{m} edges cannot connect {n} nodes")
        if len({tuple(sorted(p)) for p in hc.adjacent}) > m:
            raise InfeasibleTargetError("more adjacencies are required than edges exist")
        if hc.connected and n >= 2 and any(d == 0 for _v, d in hc.degrees):
            raise InfeasibleTargetError("a degree-0 pin contradicts connectedness")
        if sum(d for _v, d in hc.degrees) > 2 * m:
            raise InfeasibleTargetError("pinned degrees exceed twice the edge count")
        pins = dict(hc.degrees)
        for v, load in Counter(w for pair in hc.adjacent for w in pair).items():
            if v in pins and pins[v] < load:
                raise InfeasibleTargetError(
                    f"{v!r} is pinned to degree {pins[v]} but {load} adjacencies are required"
                )
        if hc.pair_coverage is not None:
            u, v, count = hc.pair_coverage
            du, dv = pins.get(u), pins.get(v)
            if du is not None and dv is not None and count not in (du + dv, du + dv - 1):
                raise InfeasibleTargetError("pair coverage contradicts the pinned degrees")
        if hc.top_degree_pair is not None:
            cap = n - 1 - hc.top_degree_margin
            for w, d in hc.degrees:
                if w not in hc.top_degree_pair and d > cap:
                    raise InfeasibleTargetError(
                        f"{w!r} pinned to degree {d} cannot sit "
                        f"{hc.top_degree_margin} below the top pair"
                    )


_TARGET_KEYS = {"hard", "soft", "schedule", "missing_metric_penalty"}
_HARD_KEYS = {"nodes", "edges", "connected", "degrees", "adjacent", "pair_coverage",
              "top_degree_pair"}


def _object(value, what: str, keys=None) -> dict:
    """`value` if it is a JSON object whose keys, when `keys` is given, all come from it."""
    if not isinstance(value, dict):
        raise TypeError(f"{what} must be an object, got {value!r}")
    unknown = set(value) - keys if keys is not None else ()
    if unknown:
        raise ValueError(f"unknown {what} key {min(unknown)!r}")
    return value


def load_synthesis_target(text: str) -> SynthesisTarget:
    """Parse the JSON target format; see the README for the schema.

    Keys map onto constructor fields and values pass through unconverted,
    so the constructors check every type and range. Every error is a
    FileFormatError, except InfeasibleTargetError for an infeasible target."""
    try:
        doc = _object(json.loads(text), "target", _TARGET_KEYS)
        hard = _object(doc.get("hard", {}), "hard", _HARD_KEYS)
        nodes = hard["nodes"]
        if _is_int(nodes) and nodes >= 0:
            width = len(str(nodes))
            nodes = [f"n{i:0{width}d}" for i in range(1, nodes + 1)]
        elif not isinstance(nodes, list):
            raise TypeError(f"nodes must be a count or a list of labels, got {nodes!r}")
        cov = hard.get("pair_coverage")
        if cov is not None:
            cov = _object(cov, "pair_coverage", {"pair", "count"})
            cov = [*_entries(cov["pair"], 2, "pair_coverage pair"), cov["count"]]
        top, margin = hard.get("top_degree_pair"), 2
        if top is not None:
            top = _object(top, "top_degree_pair", {"pair", "margin"})
            top, margin = _entries(top["pair"], 2, "top_degree_pair pair"), top.get("margin", 2)
        return SynthesisTarget(
            nodes=nodes,
            edge_count=hard["edges"],
            hard=HardConstraints(
                connected=hard.get("connected", True),
                degrees=sorted(_object(hard.get("degrees", {}), "degrees").items()),
                adjacent=hard.get("adjacent", []),
                pair_coverage=cov,
                top_degree_pair=top,
                top_degree_margin=margin,
            ),
            soft=[SoftTarget(**t) for t in doc.get("soft", [])],
            schedule=AnnealingSchedule(**doc.get("schedule", {})),
            missing_metric_penalty=doc.get("missing_metric_penalty", 100.0),
        )
    except InfeasibleTargetError:
        raise
    except (KeyError, TypeError, ValueError, RecursionError) as exc:  # deep nesting recurses
        raise FileFormatError(f"target JSON: {exc}") from None


def _index_pairs(idx: dict[str, int], edges) -> list[tuple[int, int]]:
    """Labelled edges as (low, high) index pairs."""
    return [(min(idx[u], idx[v]), max(idx[u], idx[v])) for u, v in edges]


def _push(items: list, pos: dict, pair: tuple[int, int]) -> None:
    pos[pair] = len(items)
    items.append(pair)


def _pop(items: list, pos: dict, pair: tuple[int, int]) -> None:
    """Swap-remove `pair`. The annealer samples edges and non-edges by
    position, so the order of pushes and pops is part of the RNG path."""
    at = pos.pop(pair)
    last = items.pop()
    if last != pair:
        items[at] = last
        pos[last] = at


class _State:
    """Mutable adjacency state with O(1) edge/non-edge sampling."""

    def __init__(self, n: int, edges: list[tuple[int, int]]):
        self.n = n
        self.a = np.zeros((n, n))
        self.deg = np.zeros(n, dtype=np.int64)
        self.bits = [0] * n
        self.edges: list[tuple[int, int]] = []
        self.edge_pos: dict[tuple[int, int], int] = {}
        self.non_edges: list[tuple[int, int]] = []
        self.non_edge_pos: dict[tuple[int, int], int] = {}
        edge_set = set(edges)
        for i in range(n):
            for j in range(i + 1, n):
                pair = (i, j)
                if pair in edge_set:
                    self._link(pair, True)
                    _push(self.edges, self.edge_pos, pair)
                else:
                    _push(self.non_edges, self.non_edge_pos, pair)

    def _link(self, pair: tuple[int, int], on: bool) -> None:
        """Flip `pair` in the matrix, degrees and bitsets: add it (on) or drop it."""
        i, j = pair
        step = 1 if on else -1
        self.a[i, j] = self.a[j, i] = float(on)
        self.deg[i] += step
        self.deg[j] += step
        self.bits[i] ^= 1 << j
        self.bits[j] ^= 1 << i

    def swap(self, out_pair: tuple[int, int], in_pair: tuple[int, int]) -> None:
        """Replace edge `out_pair` with non-edge `in_pair`."""
        self._link(out_pair, False)
        _pop(self.edges, self.edge_pos, out_pair)
        _push(self.non_edges, self.non_edge_pos, out_pair)
        _pop(self.non_edges, self.non_edge_pos, in_pair)
        self._link(in_pair, True)
        _push(self.edges, self.edge_pos, in_pair)

    def has(self, i: int, j: int) -> bool:
        return bool(self.bits[i] >> j & 1)

    def component_count(self) -> int:
        """Bitset BFS from each lowest unseen node."""
        unseen = (1 << self.n) - 1
        count = 0
        while unseen:
            count += 1
            frontier = unseen & -unseen
            unseen ^= frontier
            while frontier:
                grown = 0
                f = frontier
                while f:
                    low = f & -f
                    grown |= self.bits[low.bit_length() - 1]
                    f ^= low
                frontier = grown & unseen
                unseen ^= frontier
        return count


class _HardCheck:
    """Hard constraints compiled to node indexes for the hot loop."""

    def __init__(self, target: SynthesisTarget, order: tuple[str, ...]):
        idx = {v: i for i, v in enumerate(order)}
        hc = target.hard
        # one node or none is trivially connected
        self.connected = hc.connected and len(order) > 1
        self.pins = tuple((idx[v], d) for v, d in hc.degrees)
        self.required = frozenset(_index_pairs(idx, hc.adjacent))
        self.pair_cov = None
        if hc.pair_coverage is not None:
            u, v, count = hc.pair_coverage
            self.pair_cov = (idx[u], idx[v], count)
        self.top_pair = None
        # with two nodes or fewer there is no other node to outrank
        if hc.top_degree_pair is not None and len(order) > 2:
            u, v = hc.top_degree_pair
            others = np.ones(len(order), dtype=np.int64)
            others[idx[u]] = others[idx[v]] = 0
            self.top_pair = (idx[u], idx[v], hc.top_degree_margin, others)

    def _excess(self, state: _State):
        """Each rule's integer distance from holding, cheapest rules first."""
        deg = state.deg
        for i, want in self.pins:
            yield abs(int(deg[i]) - want)
        for i, j in self.required:
            yield 1 - state.has(i, j)
        if self.pair_cov is not None:
            i, j, count = self.pair_cov
            yield abs(int(deg[i]) + int(deg[j]) - state.has(i, j) - count)
        if self.top_pair is not None:
            i, j, margin, others = self.top_pair
            lim = min(int(deg[i]), int(deg[j])) - margin
            yield int(np.maximum(deg - lim, 0) @ others)
        if self.connected:
            yield state.component_count() - 1

    def ok(self, state: _State) -> bool:
        return not any(self._excess(state))

    def violations(self, state: _State) -> float:
        """Integer-valued distance from feasibility; zero means feasible."""
        return float(sum(self._excess(state)))


class _Evaluator:
    """Vectorized soft-metric scoring against one compiled target."""

    def __init__(self, target: SynthesisTarget, order: tuple[str, ...]):
        idx = {v: i for i, v in enumerate(order)}
        self.penalty = target.missing_metric_penalty
        self.terms = [
            (t.metric, t.value, t.weight, tuple(idx[v] for v in t.nodes)) for t in target.soft
        ]
        wanted = {t.metric for t in target.soft}
        self.need_dist = bool(wanted & {"diameter_lcc", "mean_betweenness", "eigenvector_top3"})

    def contributions(self, state: _State):
        """(metric, achieved, contribution) for each soft target, in target
        order; each entry is scored on its own, achieved None where the
        metric is not computable."""
        n = state.n
        m = len(state.edges)
        a = state.a
        dist, sigma = _paths(a) if self.need_dist else (None, None)
        for metric, value, weight, nodes in self.terms:
            if metric == "density":
                got = _density(n, m) if n >= 2 else None
            elif metric == "fragmentation":
                got = 1.0 - _density(n, m) if n >= 2 else None
            elif metric == "average_degree":
                got = (2.0 * m) / n if n >= 1 else None
            elif metric == "diameter_lcc":
                # a disconnected candidate has no diameter
                got = float(dist.max()) if m and (dist >= 0).all() else None
            elif metric == "average_clustering":
                got = float(_clustering(a).mean()) if n >= 1 else None
            elif metric == "mean_betweenness":
                got = _mean_betweenness(a, dist, sigma) if n >= 3 else None
            elif metric == "degree_centralization":
                got = _degree_centralization(state.deg) if n >= 3 else None
            else:
                # eigenvector_top3: the fraction of `nodes` (on the roster,
                # so n >= 1) in the top-3 eigenvector ranking
                scores = _leading_vector(a, dist)
                top = np.argsort(-scores, kind="stable")[:3].tolist()
                got = len(set(top).intersection(nodes)) / len(nodes)
            if got is None:
                yield metric, None, weight * self.penalty
            else:
                diff = got - value
                yield metric, got, weight * diff * diff

    def objective(self, state: _State) -> float:
        # an explicit left-to-right sum: builtin sum() rounds differently
        # on newer Pythons, and the annealer's path depends on every bit
        total = 0.0
        for _metric, _got, contribution in self.contributions(state):
            total += contribution
        return total


def _candidate(g: LabeledGraph, target: SynthesisTarget) -> tuple[_State, _Evaluator]:
    """g's state and the target's evaluator, both in sorted roster order."""
    if set(g.nodes) != set(target.nodes):
        raise GraphError("candidate graph and target roster disagree")
    order = tuple(sorted(target.nodes))
    idx = {v: i for i, v in enumerate(order)}
    return _State(len(order), _index_pairs(idx, g.edges())), _Evaluator(target, order)


def objective(g: LabeledGraph, target: SynthesisTarget) -> float:
    """Weighted squared deviation of g from the target's soft metrics."""
    state, evaluator = _candidate(g, target)
    return evaluator.objective(state)


def soft_report(g: LabeledGraph, target: SynthesisTarget) -> list[dict]:
    """Achieved-versus-target rows for every soft metric; adding their
    contributions in row order gives `objective` exactly."""
    state, evaluator = _candidate(g, target)
    return [
        {
            "metric": metric,
            "target": t.value,
            "weight": t.weight,
            "achieved": got,
            "contribution": contribution,
        }
        for t, (metric, got, contribution) in zip(target.soft, evaluator.contributions(state))
    ]


def _random_fill(
    rng: random.Random, n: int, m: int, required: frozenset[tuple[int, int]]
) -> list[tuple[int, int]]:
    """Every required pair, then m - len(required) random others."""
    rest = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in required]
    return sorted(required) + rng.sample(rest, m - len(required))


def _anneal(
    state: _State,
    rng: random.Random,
    iterations: int,
    t0: float,
    cooling: float,
    score,
    guard,
    protected: frozenset[tuple[int, int]],
) -> tuple[float, list[tuple[int, int]]]:
    """Generic annealing loop over single edge swaps.

    Returns (final score, best edge list). Scores are
    non-negative, so the loop stops early at 0.0. Temperature cools
    every proposal; the acceptance coin is only flipped for uphill
    moves, so the RNG sequence is reproducible.
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
        if guard is not None and not guard(state):
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


def synthesize_reference(target: SynthesisTarget) -> LabeledGraph:
    """Anneal a graph toward the target; deterministic per rng_seed.

    Raises InfeasibleTargetError when the hard constraints are
    provably unsatisfiable, or when repeated repair attempts cannot
    reach a feasible starting point.
    """
    order = tuple(sorted(target.nodes))
    n = len(order)
    check = _HardCheck(target, order)
    evaluator = _Evaluator(target, order)
    sched = target.schedule
    rng = random.Random(sched.rng_seed)

    for _ in range(_REPAIR_ATTEMPTS):
        state = _State(n, _random_fill(rng, n, target.edge_count, check.required))
        violations, _edges = _anneal(
            state,
            rng,
            iterations=_REPAIR_ITERATIONS,
            t0=sched.initial_temperature,
            cooling=sched.cooling_factor,
            score=check.violations,
            guard=None,
            protected=check.required,
        )
        if violations == 0.0:
            break
    else:
        raise InfeasibleTargetError(
            "hard constraints not satisfied after "
            f"{_REPAIR_ATTEMPTS} repair attempts (remaining violation score {violations})"
        )

    _final, best_edges = _anneal(
        state,
        rng,
        iterations=sched.iterations,
        t0=sched.initial_temperature,
        cooling=sched.cooling_factor,
        score=evaluator.objective,
        guard=check.ok,
        protected=check.required,
    )
    return LabeledGraph(order, [(order[i], order[j]) for i, j in sorted(best_edges)])
