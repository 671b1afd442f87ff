"""Simulated-annealing synthesis of graphs matching target statistics.

A synthesis target fixes the node roster and edge count, a set of
hard structural constraints (connectivity, pinned degrees, required
adjacencies, pair coverage, a protected top-degree pair), and a set
of soft metric targets, each entry scored on its own as a weighted
squared deviation. The annealer starts from a random fill that already
holds every required adjacency, repairs it until the other hard
constraints hold too, then walks the feasible space with single edge
swaps, keeping the best-scoring graph it visits.

The eigenvector_top3 term needs only the set of the three largest
leading-eigenvector entries. The annealer proves that set by a short
power iteration from the previous candidate's leading vector. The fourth
powers of the eigenvalues add up to tr(A^4), an exact integer of the
candidate's own sweep, so for any rho <= lambda_1, such as an iterate's
Rayleigh quotient, every other eigenvalue is at most (tr(A^4) - rho^4)^(1/4)
in absolute value; and the three largest entries of x = Aw must clear the
fourth by more than x's entrywise distance from the scaled leading
vector. It falls back to one dense eigensolve whenever the proof fails,
so the set always equals the dense ranking's and no score depends on
which path decided it.

The mean_betweenness term is the per-node Brandes kernel's float sum S,
whose last bits decide some moves, but the annealer decides each move on
a bracket of it. S approximates the integer I = sum (d(s, t) - 1) over the
R ordered pairs with a path, which the sweep adds up as it finds the
distances. The kernel rounds non-negative terms only, apart from
subtracting the diagonal, so |S - I| <= gamma_K (I + 2R) for
K = D(n + 2) + 2n + 2 roundings at depth D, gamma_K = Ku / (1 - Ku) and
u = 2**-53 (Higham, Accuracy and Stability of Numerical Algorithms, 2002,
section 3). With D < n <= 1930, gamma_K < 1e-9, so S lies within
1e-9 (I + 2R) of I while the path counts, below 2**53, are exact. The
sweep forms no counts, so that is proved from the largest degree dmax:
each of a shortest path's d - 1 inner nodes is one of at most dmax
neighbours of the node before it, so every count is at most
dmax ** (D - 1), and dmax ** (D - 1) < 2**53, an exact integer test,
proves every count exact. Float division, subtraction and products are
monotone on either side of the target value, and so is a left-to-right
sum, so scoring both ends of the bracket as the exact value is scored
gives lo <= objective <= hi. A comparison the brackets settle is settled.
One they leave open runs the kernel on the compared states' own sweeps,
so the walk is the one the exact scores take. Past 1930 nodes, or where
the degree test fails, the kernel runs on every candidate; a bracket
never changes a decision, so the walk is the same either way.

Every run is driven by one seeded RNG, so a target synthesizes to the
same graph on every run. Across machines that is checked, not proved:
the annealer's path depends on the last bits of numpy's float kernels,
and the bundled network rebuilds identically under OpenBLAS's SkylakeX,
Haswell, Sandybridge and Prescott kernels; MKL and Accelerate were not
tried.
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
from .metrics import _closed, _clustering, _degree_centralization, _density, _leading_vector
from .metrics import _paths, _raw_betweenness

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
_POWER_STEPS = 16  # power iterations tried before eigenvector_top3 falls back to eigh
_TRACE_MAX_N = 9742  # n^2 (n - 1)^2 < 2**53, so a sweep's tr(A^4) is exact
_DOWN = 1.0 - 2.0**-51  # 1 - 4u and 1 + 4u, u = 2**-53 the unit roundoff
_UP = 1.0 + 2.0**-51


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
    """Mutable adjacency state with O(1) edge/non-edge sampling: the
    matrix, degrees and per-node neighbour bitsets of one graph, and its
    edges and non-edges in the order the annealer samples them."""

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

    def decline(self, out_pair: tuple[int, int]) -> None:
        """Leave the state as swapping edge `out_pair` out and back would:
        the same graph, with `out_pair` moved to the end of the edge list.
        The annealer samples by position, so a proposal refused unmade
        must leave this order for the RNG path to stay the same."""
        _pop(self.edges, self.edge_pos, out_pair)
        _push(self.edges, self.edge_pos, out_pair)

    def has(self, i: int, j: int) -> bool:
        return bool(self.bits[i] >> j & 1)

    def _components(self):
        """Each component's node bitset, by bitset BFS from each lowest unseen node."""
        unseen = (1 << self.n) - 1
        while unseen:
            frontier = unseen & -unseen
            unseen ^= frontier
            reached = frontier
            while frontier:
                grown = 0
                f = frontier
                while f:
                    low = f & -f
                    grown |= self.bits[low.bit_length() - 1]
                    f ^= low
                frontier = grown & unseen
                unseen ^= frontier
                reached |= frontier
            yield reached

    def component_count(self) -> int:
        return sum(1 for _ in self._components())

    def largest_component(self) -> np.ndarray:
        """Indexes of the largest component, a size tie going to the one
        holding the smallest index, as in `metrics._largest_component`."""
        members = max(self._components(), key=int.bit_count)  # the first of equal sizes
        return np.array([i for i in range(self.n) if members >> i & 1])


def _keeps_link(bits: list[int], out_pair: tuple[int, int], in_pair: tuple[int, int]) -> bool:
    """Whether the ends of edge `out_pair` still share a neighbour once it
    is swapped for non-edge `in_pair`, read off the bitsets before the
    swap: one they share now, or the other end of an in_pair that touches
    one of them, if it neighbours the other. A swap that keeps one keeps a
    connected graph connected."""
    i, j = out_pair
    k, l = in_pair
    if bits[i] & bits[j]:
        return True
    if i == k or i == l:
        return bool(bits[j] >> (k + l - i) & 1)
    return (j == k or j == l) and bool(bits[i] >> (k + l - j) & 1)


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
            self.pair_cov = (idx[u], idx[v], count, tuple(sorted((idx[u], idx[v]))))
        self.top_pair = None
        # with two nodes or fewer there is no other node to outrank
        if hc.top_degree_pair is not None and len(order) > 2:
            u, v = hc.top_degree_pair
            others = np.ones(len(order), dtype=np.int64)
            others[idx[u]] = others[idx[v]] = 0
            self.top_pair = (idx[u], idx[v], hc.top_degree_margin, others)

    def _top_excess(self, deg: np.ndarray) -> int:
        """How far, in all, the other nodes' degrees `deg` reach past the
        top pair's lead."""
        i, j, margin, others = self.top_pair
        lim = min(int(deg[i]), int(deg[j])) - margin
        return int(np.maximum(deg - lim, 0) @ others)

    def violations(self, state: _State) -> float:
        """Integer-valued distance from feasibility, each rule's distance
        from holding summed in one pass; zero means feasible. `repair`
        anneals it to zero, and `propose` guards the walk after."""
        total = self._rules(state)
        if self.connected:
            total += state.component_count() - 1
        return float(total)

    def _rules(self, state: _State) -> int:
        """`violations` less its component term."""
        deg = state.deg
        total = 0
        for i, want in self.pins:
            total += abs(int(deg[i]) - want)
        for i, j in self.required:
            total += 1 - state.has(i, j)
        if self.pair_cov is not None:
            i, j, count, _pair = self.pair_cov
            total += abs(int(deg[i]) + int(deg[j]) - state.has(i, j) - count)
        if self.top_pair is not None:
            total += self._top_excess(deg)
        return total

    def repair(
        self, state: _State, rng: random.Random, iterations: int, t0: float, cooling: float
    ) -> int:
        """Anneal `state`, a random fill holding every required pair,
        toward `violations` zero, and return the final count: `_anneal`'s
        loop with `violations` as the score, `required` protected and
        every proposal swapped in, a rejected one undone. The component
        term is kept as a running count: a connected state whose out_pair
        keeps a shared neighbour (`_keeps_link`) stays connected, so only
        a split state or a swap without one is counted."""
        comps = state.component_count() if self.connected else 1
        cur = self._rules(state) + comps - 1
        t = t0
        for _ in range(iterations):
            if cur <= 0 or not state.edges or not state.non_edges:
                break
            out_pair = state.edges[rng.randrange(len(state.edges))]
            in_pair = state.non_edges[rng.randrange(len(state.non_edges))]
            t *= cooling
            if out_pair in self.required:
                continue
            kept = not self.connected or comps == 1 and _keeps_link(state.bits, out_pair, in_pair)
            state.swap(out_pair, in_pair)
            counted = comps if kept else state.component_count()
            new = self._rules(state) + counted - 1
            # `_anneal`'s test, as `_at_most` and `_coin` decide it on exact scores
            if new <= cur or (t > 0.0 and rng.random() < math.exp(-(new - cur) / t)):
                cur, comps = new, counted
            else:
                state.swap(in_pair, out_pair)
        return cur

    def propose(
        self, state: _State, out_pair: tuple[int, int], in_pair: tuple[int, int]
    ) -> bool:
        """Swap edge `out_pair` for non-edge `in_pair` if every rule holds
        after, and say whether it did; a refused proposal leaves the state
        as the swap and its undo would (`_State.decline`).

        `state` must keep every rule. The annealer's walk after repair
        does: it starts feasible, and every swap it keeps passed here. So
        the rules are read off the degree changes and bitsets before the
        swap. Pins, required pairs and pair coverage keep holding iff
        their degrees, adjacencies and sums do not move. Where neither
        top-pair node loses degree, the pair keeps its lead iff each other
        node that gains one stays within the pair's new limit; where one
        does, the top-pair excess is taken on the degrees after the swap.
        The state stays connected when out_pair's ends still share a
        neighbour after the swap (`_keeps_link`). Only a proposal without
        one is swapped before it is decided: its components are counted,
        and a split is undone."""
        i, j = out_pair
        k, l = in_pair
        step = {i: -1, j: -1}
        step[k] = step.get(k, 0) + 1
        step[l] = step.get(l, 0) + 1
        keeps = out_pair not in self.required
        for v, _want in self.pins:
            if step.get(v):
                keeps = False
        if keeps and self.pair_cov is not None:
            u, v, _count, pair = self.pair_cov
            keeps = step.get(u, 0) + step.get(v, 0) == (in_pair == pair) - (out_pair == pair)
        if keeps and self.top_pair is not None:
            u, v, margin, _others = self.top_pair
            du, dv = step.get(u, 0), step.get(v, 0)
            deg = state.deg
            if du < 0 or dv < 0:
                moved = deg.copy()
                moved[list(step)] += list(step.values())
                keeps = not self._top_excess(moved)
            else:
                lim = min(int(deg[u]) + du, int(deg[v]) + dv) - margin
                for w, dw in step.items():
                    if dw > 0 and w != u and w != v and int(deg[w]) + dw > lim:
                        keeps = False
        if not keeps:
            state.decline(out_pair)
            return False
        witness = not self.connected or _keeps_link(state.bits, out_pair, in_pair)
        state.swap(out_pair, in_pair)
        if witness or state.component_count() == 1:
            return True
        state.swap(in_pair, out_pair)
        return False


def _second_bound(walks4: float, rho: float, n: int) -> float:
    """An upper bound on |lambda_i|, i >= 2, for the eigenvalues of a
    symmetric non-negative n x n matrix A whose tr(A^4) is the exact
    `walks4`, given rho, the float w . (A @ w) of a float w = x / |x|
    for some x >= 0, as `_top3` computes it.

    For any 0 <= low <= lambda_1 the lambda_i^4 add up to tr(A^4), so the
    others' add up to at most walks4 - low^4. Each float operation rounds
    to nearest, within a factor 1 -+ u, u = 2**-53, and k of them within
    1 -+ gamma_k, gamma_k = ku / (1 - ku) (Higham, Accuracy and Stability
    of Numerical Algorithms, 2002, section 3). The sums of rho and |x|^2
    add non-negative terms only, so rho exceeds the Rayleigh quotient of
    w, at most lambda_1, by a factor 1 + gamma_(3n+4) at most, which
    low = rho (1 - 4(n + 2)u), rounded, undoes. The computed low^4 is at
    most low^4 (1 + u)^3, and times 1 - 4u, rounded, it is at most low^4,
    so walks4 less that is at least walks4 - low^4. The difference,
    rounded and times 1 + 4u, rounded, is at least the exact one, since
    (1 - u)^2 (1 + 4u) > 1; each square root loses at most a factor
    1 - u, and the root times 1 + 4u, rounded, makes up
    (1 - u)^(5/2) (1 + 4u) > 1."""
    low = rho * (1.0 - (n + 2) * 2.0**-51)
    low *= low
    low *= low
    return math.sqrt(math.sqrt((walks4 - low * _DOWN) * _UP)) * _UP


def _residual_square(xx: float, rho: float, n: int) -> float:
    """An upper bound on |Az - rho z|^2 for z = w / |w|, from the floats
    xx = x . x and rho = w . x of x = A @ w, w as in `_second_bound`.

    For R the Rayleigh quotient of z, |Az - rho z|^2 = |Az|^2 - R^2 +
    (R - rho)^2. The sums of xx and rho add non-negative terms only, and
    |w|^2 is 1 within gamma_(n+4), so |Az|^2 is at most
    xx (1 + gamma_(4n+4)), R^2 at least rho^2 (1 - 2 gamma_(3n+4)) and
    R - rho at most gamma_(3n+4) rho: the exact square is within
    (6n + 8)u (xx + rho^2), plus terms of order u^2, of xx - rho^2, and
    computing xx - rho^2 adds 2u (xx + rho^2) more. The slack
    8(n + 2)u (xx + rho^2) covers both and the rounding of the last
    sum."""
    sq = rho * rho
    return xx - sq + (n + 2) * 2.0**-50 * (xx + sq)


_BRACKET_MAX_N = 1930  # gamma_K < 1e-9 up to this n (module docstring)
_EXACT_COUNT = 2**53  # path counts below this are exact integers in float


def _brandes(a: np.ndarray, sweep, dmax: int) -> float | tuple[float, float]:
    """The Brandes sum S, `_raw_betweenness(a, sweep)` summed in float, or
    a bracket (lo, hi) around it: I -+ 1e-9 (I + 2R), for I the sweep's
    `excess` and R = n(n - 1) less its `left`. The bracket holds while
    n <= 1930 and every path count is exact, which dmax ** (depth - 1) <
    2**53 proves for `dmax` the largest degree (module docstring);
    otherwise S is computed at once (`_kernel_sum`), so a saturated count
    raises here as the kernel does."""
    n = a.shape[0]
    if n <= _BRACKET_MAX_N and dmax ** max(sweep.depth - 1, 0) < _EXACT_COUNT:
        excess, pairs = sweep.excess, n * (n - 1) - sweep.left
        slack = 1e-9 * (excess + 2 * pairs)
        return excess - slack, excess + slack
    return _kernel_sum(a, sweep)


def _kernel_sum(a: np.ndarray, sweep) -> float:
    """`_raw_betweenness(a, sweep)` summed in float, on a full sweep of `a`
    where `sweep` holds no distances."""
    if sweep.dist is None:
        sweep = _paths(a)
    return float(_raw_betweenness(a, sweep).sum())


def _deviation(got: float, value: float, weight: float) -> float:
    """One soft target's contribution: its weighted squared deviation."""
    diff = got - value
    return weight * diff * diff


def _bounds(rows) -> tuple[float, float]:
    """The low and high ends of the rows' contributions, each summed left
    to right: builtin sum() rounds differently on newer Pythons, and the
    annealer's path depends on every bit. A bracketed contribution is a
    (low, high) pair; float addition is monotone, so the sums bound the
    exact one."""
    lo = hi = 0.0
    for _metric, _got, contribution in rows:
        if type(contribution) is tuple:
            lo += contribution[0]
            hi += contribution[1]
        else:
            lo += contribution
            hi += contribution
    return lo, hi


class _Score:
    """One state's objective x as certified bounds lo <= x <= hi, with its
    rows (metric, achieved, contribution) in target order. Until `exact`
    pins x down, the mean betweenness rows hold (low, high) brackets."""

    __slots__ = ("lo", "hi", "rows", "_pending")

    def __init__(self, lo: float, hi: float | None = None, rows=None, pending=None):
        self.lo = lo
        self.hi = lo if hi is None else hi
        self.rows = rows
        self._pending = pending

    def exact(self) -> float:
        """x itself; the first call on an open bracket runs the Brandes kernel."""
        if self._pending is not None:
            self.rows = self._pending()
            self._pending = None
            self.lo, self.hi = _bounds(self.rows)
        return self.lo


_ZERO = _Score(0.0)


class _Evaluator:
    """Vectorized soft-metric scoring against one compiled target.

    The eigenvector_top3 term needs only the set of the three largest
    leading-vector entries, which one evaluator decides without a dense
    eigensolve where it can prove the answer (see `_top3`). The mean
    betweenness term is bracketed until a decision needs it (see `score`).
    """

    def __init__(self, target: SynthesisTarget, order: tuple[str, ...]):
        idx = {v: i for i, v in enumerate(order)}
        self.penalty = target.missing_metric_penalty
        self.terms = [
            (t.metric, t.value, t.weight, tuple(idx[v] for v in t.nodes)) for t in target.soft
        ]
        wanted = {t.metric for t in target.soft}
        self.need_sweep = bool(wanted & {"diameter_lcc", "mean_betweenness", "eigenvector_top3"})
        self.unbracketed = False  # whether a candidate's Brandes sum has run unbracketed
        self.lead = None  # the last leading vector (unit, >= 0), where power iteration starts

    def _top3(self, state: _State, sweep, connected: bool, dmax: int) -> set[int]:
        """The indexes of the three largest entries of `_leading_vector`,
        the lowest index first among float-equal entries. Entries equal in
        exact arithmetic, as on a symmetric graph, are ordered by eigh's
        rounding, not by index: K4's set is {1, 2, 3}, and K5 and C6 rank
        [1, 0, 2] and [0, 5, 1].

        On a connected candidate with 3 < n <= 9742, power iteration from
        the last leading vector w (unit, >= 0) tries to prove the set.
        Each step bounds every eigenvalue of the candidate but the first by
        `_second_bound` of the sweep's tr(A^4) and rho = w'Aw, so no
        earlier solve is trusted. With rho above the bound, Davis-Kahan
        (SIAM J. Numer. Anal. 7:1, 1970) puts w within
        delta = sqrt(2) |Aw - rho w| / (rho - bound) of the unit leading
        vector v, the residual's square bounded from x . x and rho by
        `_residual_square`. Then x = Aw is entrywise close to lambda v:
        the rows of a 0/1 matrix of largest degree d differ by at most
        sqrt(2d), so lambda (v_i - v_j) >= x_i - x_j - sqrt(2d) delta. When
        x's third and fourth largest entries are more than sqrt(2d) delta +
        2e-9 d apart (eigh's own 1e-9 per entry, times lambda <= d), the
        dense solve's top three are x's. Otherwise, on a disconnected
        candidate and before the first dense solve, one dense solve
        decides, on the largest component read off the state's bitsets,
        and on a connected candidate its vector is the next start. `sweep`
        needs no distances, and `dmax` is the state's largest degree d.
        """
        a = state.a
        n = state.n
        certifiable = connected and 3 < n <= _TRACE_MAX_N
        if certifiable and self.lead is not None:
            d = float(dmax)
            spread, slack = math.sqrt(2.0 * d), 2e-9 * d
            w = self.lead
            for _ in range(_POWER_STEPS):
                x = a @ w
                rho = float(w.dot(x))
                bound = _second_bound(sweep.walks4, rho, n)
                if rho <= bound:  # rho starts near lambda_1, so more steps barely lower the bound
                    break
                xx = float(x.dot(x))
                delta = math.sqrt(2.0 * _residual_square(xx, rho, n)) / (rho - bound)
                rank = x.argsort()
                w = x / math.sqrt(xx)
                if x[rank[-3]] - x[rank[-4]] > spread * delta + slack:
                    self.lead = w
                    return set(rank[-3:].tolist())
        scores = _leading_vector(a, np.arange(n) if connected else state.largest_component())
        if certifiable:
            lead = np.abs(scores)  # abs clears the rounding-level negatives eigh can leave
            self.lead = lead / math.sqrt(float(lead.dot(lead)))
        return set(np.argsort(-scores, kind="stable")[:3].tolist())

    def score(self, state: _State) -> _Score:
        """The objective of `state` and its rows, each soft target scored on
        its own, achieved None where the metric is not computable.

        Every term is exact but mean betweenness, which `_brandes` brackets
        where it can; its rows then hold (low, high) pairs. Each end is
        scored by the same float operations as the exact value, and each
        is monotone on either side of the target value, so the ends bound
        the exact contribution: 0 at the low end if the bracket straddles
        the target. The sweep fills no distances until one candidate's
        Brandes sum runs unbracketed; from then on, as such candidates
        tend to recur, each sweep fills the distances the kernel reads.
        `exact` runs the kernel on a copy of this state's adjacency taken
        here and on its sweep.
        """
        n = state.n
        m = len(state.edges)
        a = state.a
        sweep = _paths(a, distances=self.unbracketed) if self.need_sweep else None
        connected = sweep is not None and sweep.left == 0
        dmax = int(state.deg.max()) if n else 0
        top = None
        brandes = None
        rows = []
        for metric, value, weight, nodes in self.terms:
            if metric == "density":
                got = _density(n, m) if n >= 2 else None
            elif metric == "fragmentation":
                got = 1.0 - _density(n, m) if n >= 2 else None
            elif metric == "average_degree":
                got = (2.0 * m) / n if n >= 1 else None
            elif metric == "diameter_lcc":
                # a disconnected candidate has no diameter
                got = float(sweep.depth) if m and connected else None
            elif metric == "average_clustering":
                # sum / n is np.mean's own reduction and division
                closed = sweep.closed if sweep is not None else _closed(a)
                got = float(_clustering(state.deg, closed).sum() / n) if n >= 1 else None
            elif metric == "mean_betweenness":
                # the Brandes kernel's sum, not `metrics.mean_betweenness`'s
                # distance identity: the annealer's path depends on every
                # bit, so the identity only brackets the sum (`_brandes`)
                got = None
                if n >= 3:
                    if brandes is None:
                        brandes = _brandes(a, sweep, dmax)
                        self.unbracketed |= type(brandes) is not tuple
                    scale = n * (n - 1) * (n - 2)
                    if type(brandes) is tuple:
                        got = (brandes[0] / scale, brandes[1] / scale)
                    else:
                        got = brandes / scale
            elif metric == "degree_centralization":
                got = _degree_centralization(state.deg, dmax) if n >= 3 else None
            else:
                # eigenvector_top3: the fraction of `nodes` (on the roster,
                # so n >= 1) in the top-3 eigenvector ranking
                if top is None:
                    top = self._top3(state, sweep, connected, dmax)
                got = len(top.intersection(nodes)) / len(nodes)
            if got is None:
                rows.append((metric, None, weight * self.penalty))
            elif type(got) is tuple:
                ends = [_deviation(x, value, weight) for x in got]
                low = 0.0 if got[0] < value < got[1] else min(ends)
                rows.append((metric, got, (low, max(ends))))
            else:
                rows.append((metric, got, _deviation(got, value, weight)))
        lo, hi = _bounds(rows)
        if type(brandes) is not tuple:
            return _Score(lo, hi, rows)
        snapshot = a.copy()  # the state may have moved on when the kernel runs
        return _Score(lo, hi, rows, lambda: self._pinned(rows, snapshot, sweep))

    def _pinned(self, rows: list, a: np.ndarray, sweep) -> list:
        """`rows` with each bracketed row scored exactly, from the
        adjacency `a` of the state they score and its sweep."""
        n = a.shape[0]
        got = _kernel_sum(a, sweep) / (n * (n - 1) * (n - 2))
        pinned = []
        for (metric, value, weight, _nodes), row in zip(self.terms, rows):
            if type(row[1]) is tuple:
                row = (metric, got, _deviation(got, value, weight))
            pinned.append(row)
        return pinned

    def contributions(self, state: _State) -> list:
        """The exact rows (metric, achieved, contribution) of `score`."""
        score = self.score(state)
        score.exact()
        return score.rows

    def objective(self, state: _State) -> float:
        return self.score(state).exact()


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


def _at_most(x: _Score, y: _Score) -> bool:
    """x <= y, from the brackets where they settle it, else exactly."""
    if x.hi <= y.lo:
        return True
    if x.lo > y.hi:
        return False
    return x.exact() <= y.exact()


def _coin(u: float, new: _Score, cur: _Score, t: float) -> bool:
    """u < exp(-(new - cur) / t) for new > cur and t > 0, from the
    brackets where they settle it, else exactly. The slack of 1e-12 on
    each side covers exp's rounding; exp is monotone, and so is the float
    difference at the brackets' ends."""
    if u < math.exp(-(new.hi - cur.lo) / t) * (1.0 - 1e-12):
        return True
    near = new.lo - cur.hi
    if near > 0.0 and u >= math.exp(-near / t) * (1.0 + 1e-12):
        return False
    return u < math.exp(-(new.exact() - cur.exact()) / t)


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

    Returns (final score, best edge list). `score` gives a state's
    `_Score`; every comparison is decided on the brackets where they
    settle it and on the exact scores otherwise, so the path is that of
    the exact scores. Scores are non-negative, so the loop stops early at
    0.0. Temperature cools every proposal; the acceptance coin is only
    flipped for uphill moves, so the RNG sequence is reproducible. The
    `guard`, called as guard(state, out_pair, in_pair) on the state before
    the swap, makes the swaps it accepts and leaves the state of a refused
    one as the swap and its undo would (`_HardCheck.propose`). A swap the
    score rejects is undone, so every current state is the start or one
    the guard accepted: from a start that keeps every rule, each state the
    guard sees keeps them all, which `propose` relies on. Repair follows
    the same rules on integers (`_HardCheck.repair`).
    """
    cur = score(state)
    best = cur
    best_edges = list(state.edges)
    t = t0
    for _ in range(iterations):
        if _at_most(cur, _ZERO) or not state.edges or not state.non_edges:
            break
        out_pair = state.edges[rng.randrange(len(state.edges))]
        in_pair = state.non_edges[rng.randrange(len(state.non_edges))]
        t *= cooling
        if out_pair in protected:
            continue
        if not guard(state, out_pair, in_pair):
            continue
        new = score(state)
        # new <= cur is the sign of the float difference new - cur
        if _at_most(new, cur) or (t > 0.0 and _coin(rng.random(), new, cur, t)):
            cur = new
            if not _at_most(best, cur):
                best = cur
                best_edges = list(state.edges)
        else:
            state.swap(in_pair, out_pair)
    return cur.exact(), best_edges


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
        violations = check.repair(
            state,
            rng,
            iterations=_REPAIR_ITERATIONS,
            t0=sched.initial_temperature,
            cooling=sched.cooling_factor,
        )
        if violations == 0:
            break
    else:
        raise InfeasibleTargetError(
            "hard constraints not satisfied after "
            f"{_REPAIR_ATTEMPTS} repair attempts (remaining violation score {float(violations)})"
        )

    _final, best_edges = _anneal(
        state,
        rng,
        iterations=sched.iterations,
        t0=sched.initial_temperature,
        cooling=sched.cooling_factor,
        score=evaluator.score,
        guard=check.propose,
        protected=check.required,
    )
    return LabeledGraph(order, [(order[i], order[j]) for i, j in sorted(best_edges)])
