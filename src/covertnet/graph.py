"""Undirected labeled graphs and their on-disk formats.

The graph type is an immutable value: every mutation-shaped operation
returns a new graph. Node labels are short whitespace-free strings so
they survive the edge-list format unescaped.

A graph is checked once, where it enters (the constructor or the
edge-list parser). Derived graphs are built on its checked neighbour
sets, so they check only the roles a caller adds.
"""

from __future__ import annotations

import enum
from collections import deque
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import FileFormatError, GraphError


class Role(enum.Enum):
    """Actor roles observed in trafficking networks."""

    CARETAKER = "Caretaker"
    COMPANY = "Company"
    BODY_GUARD = "BodyGuard"
    ESTAFETA = "Estafeta"
    EXPLOITER = "Exploiter"
    PUBLIC_SERVANT = "PublicServant"
    GUIDE = "Guide"
    PARTICIPANT = "Participant"
    RAITERO = "Raitero"
    RECRUITER = "Recruiter"
    RECRUITER_VICTIM = "RecruiterVictim"


def _check_label(label: object) -> str:
    if not isinstance(label, str) or not label:
        raise GraphError(f"node label must be a non-empty string, got {label!r}")
    if any(ch.isspace() for ch in label) or "," in label or label.startswith("#"):
        # keeps labels safe in both the edge-list format and the roles CSV
        raise GraphError(f"label {label!r} contains whitespace, a comma, or starts with '#'")
    return label


class LabeledGraph:
    """Immutable simple undirected graph with optional per-node roles."""

    __slots__ = ("_order", "_adj", "_m", "_roles")

    def __init__(
        self,
        nodes: Iterable[str] = (),
        edges: Iterable[tuple[str, str]] = (),
        roles: Mapping[str, Role] | None = None,
    ):
        adj: dict[str, set[str]] = {}
        for label in nodes:
            _check_label(label)
            if label in adj:
                raise GraphError(f"duplicate node label {label!r}")
            adj[label] = set()
        for u, v in edges:
            if u not in adj or v not in adj:
                missing = u if u not in adj else v
                raise GraphError(f"edge endpoint {missing!r} is not a node")
            if u == v:
                raise GraphError(f"self-loop at {u!r}")
            if v in adj[u]:
                raise GraphError(f"duplicate edge {u!r} -- {v!r}")
            adj[u].add(v)
            adj[v].add(u)
        g = self._of(adj, roles)
        self._order, self._adj, self._m, self._roles = g._order, g._adj, g._m, g._roles

    @classmethod
    def _of(cls, adj: Mapping[str, Iterable[str]], roles: Mapping[str, Role] | None = None):
        """Graph on a symmetric, loop-free map of checked labels, in map order; checks `roles`."""
        role_map: dict[str, Role] = {}
        if roles:
            for label, role in roles.items():
                if label not in adj:
                    raise GraphError(f"role assigned to unknown node {label!r}")
                if not isinstance(role, Role):
                    raise GraphError(f"role for {label!r} must be a Role, got {role!r}")
                role_map[label] = role
        g = cls.__new__(cls)
        g._order = tuple(adj)
        g._adj = {v: frozenset(s) for v, s in adj.items()}
        g._m = sum(map(len, g._adj.values())) // 2
        g._roles = role_map
        return g

    @property
    def nodes(self) -> tuple[str, ...]:
        return self._order

    @property
    def node_count(self) -> int:
        return len(self._order)

    @property
    def edge_count(self) -> int:
        return self._m

    @property
    def roles(self) -> Mapping[str, Role]:
        return MappingProxyType(self._roles)

    def has_node(self, label: str) -> bool:
        return label in self._adj

    def has_edge(self, u: str, v: str) -> bool:
        return u in self._adj and v in self._adj[u]

    def neighbors(self, v: str) -> frozenset[str]:
        try:
            return self._adj[v]
        except KeyError:
            raise GraphError(f"unknown node {v!r}") from None

    def degree(self, v: str) -> int:
        return len(self.neighbors(v))

    def edges(self) -> list[tuple[str, str]]:
        """All edges as (min, max) label pairs, sorted."""
        out = []
        for u, nbrs in self._adj.items():
            for v in nbrs:
                if u < v:
                    out.append((u, v))
        out.sort()
        return out

    def role(self, v: str) -> Role | None:
        if v not in self._adj:
            raise GraphError(f"unknown node {v!r}")
        return self._roles.get(v)

    def with_roles(self, roles: Mapping[str, Role]) -> "LabeledGraph":
        """New graph with `roles` merged over any existing assignments."""
        merged = dict(self._roles)
        merged.update(roles)
        return LabeledGraph._of(self._adj, merged)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabeledGraph):
            return NotImplemented
        return (
            set(self._order) == set(other._order)
            and self._adj == other._adj
            and self._roles == other._roles
        )

    def __hash__(self) -> int:
        return hash(
            (
                frozenset(self._order),
                frozenset(self._adj.items()),
                frozenset(self._roles.items()),
            )
        )

    def __repr__(self) -> str:
        return f"LabeledGraph(nodes={self.node_count}, edges={self.edge_count})"


def _content_lines(source):
    """(line number, text) of each line of a string or of lines that is not blank
    once its `#` comment and surrounding whitespace are stripped."""
    lines = source.splitlines() if isinstance(source, str) else source
    for lineno, raw in enumerate(lines, start=1):
        # most lines hold no comment: testing for "#" first is cheaper than always splitting
        line = (raw.partition("#")[0] if "#" in raw else raw).strip()
        if line:
            yield lineno, line


def load_edge_list(source) -> LabeledGraph:
    """Parse an edge list from a string, an open text file, or lines.

    Each non-comment line holds two whitespace-separated labels (an
    edge) or a single label (an isolated node). `#` starts a comment,
    blank lines are skipped. Nodes appear in first-mention order.
    """
    adj: dict[str, set[str]] = {}

    def note(label: str, lineno: int) -> set[str]:
        if label not in adj:  # checked on first sight, so an error names that line
            try:
                _check_label(label)
            except GraphError as exc:
                raise FileFormatError(f"line {lineno}: {exc}") from None
            adj[label] = set()
        return adj[label]

    for lineno, line in _content_lines(source):
        parts = line.split()
        if len(parts) == 1:
            note(parts[0], lineno)
            continue
        if len(parts) != 2:
            raise FileFormatError(f"line {lineno}: expected 1 or 2 labels, got {len(parts)}")
        u, v = parts
        if u == v:
            raise FileFormatError(f"line {lineno}: self-loop at {u!r}")
        if v in adj.get(u, ()):
            raise FileFormatError(f"line {lineno}: duplicate edge {u!r} -- {v!r}")
        note(u, lineno).add(v)
        note(v, lineno).add(u)
    return LabeledGraph._of(adj)


def dump_edge_list(g: LabeledGraph) -> str:
    """Serialize to the edge-list format; round-trips through load_edge_list."""
    lines = []
    for v in sorted(g.nodes):
        if g.degree(v) == 0:
            lines.append(v)
    for u, v in g.edges():
        lines.append(f"{u} {v}")
    return "\n".join(lines) + ("\n" if lines else "")


def load_roles(source, g: LabeledGraph) -> LabeledGraph:
    """Attach roles from `label,role` CSV lines to a copy of `g`."""
    parsed: dict[str, Role] = {}
    for lineno, line in _content_lines(source):
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 2 or not all(parts):
            raise FileFormatError(f"line {lineno}: expected 'label,role'")
        label, role_name = parts
        if not g.has_node(label):
            raise FileFormatError(f"line {lineno}: unknown node {label!r}")
        if label in parsed:
            raise FileFormatError(f"line {lineno}: duplicate role for {label!r}")
        try:
            parsed[label] = Role(role_name)
        except ValueError:
            raise FileFormatError(f"line {lineno}: unknown role {role_name!r}") from None
    return g.with_roles(parsed)


def dump_roles(g: LabeledGraph) -> str:
    lines = [f"{v},{g.role(v).value}" for v in sorted(g.roles)]
    return "\n".join(lines) + ("\n" if lines else "")


def induced_subgraph(g: LabeledGraph, keep: Iterable[str]) -> LabeledGraph:
    """Subgraph on `keep`: those nodes plus every edge between them."""
    keep_set = set(keep)
    for v in keep_set:
        if not g.has_node(v):
            raise GraphError(f"unknown node {v!r}")
    adj = {v: g.neighbors(v) & keep_set for v in g.nodes if v in keep_set}
    roles = {v: r for v, r in g.roles.items() if v in keep_set}
    return LabeledGraph._of(adj, roles)


def remove_nodes(g: LabeledGraph, drop: Iterable[str]) -> LabeledGraph:
    """Graph without `drop` and without every edge touching them."""
    drop_set = set(drop)
    for v in drop_set:
        if not g.has_node(v):
            raise GraphError(f"unknown node {v!r}")
    return induced_subgraph(g, (v for v in g.nodes if v not in drop_set))


def connected_components(g: LabeledGraph) -> list[frozenset[str]]:
    """Components ordered by size descending, then smallest member label."""
    seen: set[str] = set()
    comps: list[frozenset[str]] = []
    for start in g.nodes:
        if start in seen:
            continue
        queue = deque([start])
        seen.add(start)
        comp = {start}
        while queue:
            v = queue.popleft()
            for w in g.neighbors(v):
                if w not in seen:
                    seen.add(w)
                    comp.add(w)
                    queue.append(w)
        comps.append(frozenset(comp))
    comps.sort(key=lambda c: (-len(c), min(c)))
    return comps


def largest_connected_component(g: LabeledGraph) -> frozenset[str]:
    """Node set of the largest component; ties go to the smallest label."""
    if g.node_count == 0:
        return frozenset()
    return connected_components(g)[0]
