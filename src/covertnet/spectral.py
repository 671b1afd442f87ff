"""Degree-cost spectral bisection (gnd; Ren et al., PNAS 116:6554, 2019).

Pipeline: a node costs its degree, so the weighted adjacency matrix B
has entries A_ij * (d_i + d_j - 1), B yields the Laplacian
L = diag(B 1) - B, and the Laplacian's second-smallest eigenpair
(the Fiedler pair) splits the nodes by vector sign. Edges crossing
the split are the candidates a dismantler should attack. Both ends of
an edge have degree at least 1, so every edge weight is at least 1.

L is dense, so the Fiedler pair comes from one dense symmetric
eigensolve. Where the maths
leaves the vector open, `fiedler` fixes it by rule: a degenerate
eigenspace yields the normalised projection of the first standard
basis vector (in sorted label order) with a non-negligible one, and
entries within 1e-9 of zero relative to the largest become exactly
0.0. `spectral_bisection` puts every v_i >= 0 in part_m.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GraphError, PreconditionError
from .graph import LabeledGraph


def node_order(g: LabeledGraph) -> tuple[str, ...]:
    """Canonical (sorted) label order used for every matrix view."""
    return tuple(sorted(g.nodes))


def adjacency_matrix(g: LabeledGraph) -> np.ndarray:
    """0/1 adjacency matrix in `node_order`."""
    order = node_order(g)
    idx = {v: i for i, v in enumerate(order)}
    a = np.zeros((len(order), len(order)))
    for u, v in g.edges():
        a[idx[u], idx[v]] = 1.0
        a[idx[v], idx[u]] = 1.0
    return a


def cost_matrix(g: LabeledGraph) -> np.ndarray:
    """Weighted adjacency in `node_order`: entry (i, j) is A_ij * (d_i + d_j - 1)."""
    a = adjacency_matrix(g)
    d = a.sum(axis=1)
    return a * (d[:, None] + d[None, :] - 1.0)


def weighted_laplacian(b: np.ndarray) -> np.ndarray:
    """L = diag(row sums) - b for a finite, symmetric, zero-diagonal matrix."""
    b = np.asarray(b, dtype=float)
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise GraphError("cost matrix must be square")
    if not np.isfinite(b).all():
        raise GraphError("cost matrix entries must be finite")
    if not np.array_equal(b, b.T):
        raise GraphError("cost matrix must be symmetric")
    if np.any(b.diagonal() != 0.0):
        raise GraphError("cost matrix must have a zero diagonal")
    return np.diag(b.sum(axis=1)) - b


def fiedler(l: np.ndarray) -> tuple[float, np.ndarray]:
    """Second-smallest eigenpair of a connected graph's Laplacian.

    One dense symmetric eigensolve (`np.linalg.eigh`) gives every
    eigenpair; the second-smallest is the Fiedler pair. Returns
    (eigenvalue, unit vector). An eigenvalue below 1e-10 means the
    graph was disconnected, which is reported as an error.

    Where the eigenvector is not unique, fixed rules pick it, so the
    result does not depend on the basis the LAPACK build returns:

    * eigenvalues within 1e-9 * max(1, lambda_max) of lambda_2 form one
      eigenspace; the vector is the first projection of a standard basis
      vector e_0, e_1, ... (sorted label order) onto it whose norm is
      above 1e-6, normalised. The squared norms of these projections
      sum to the eigenspace's dimension, so one always qualifies. On a
      one-dimensional eigenspace this is the eigenvector itself;
    * entries with |v_i| <= 1e-9 * max_j |v_j| are set to exactly 0.0;
    * the sign is chosen so that the first non-zero entry is positive.
    """
    l = np.asarray(l, dtype=float)
    if l.ndim != 2 or l.shape[0] != l.shape[1]:
        raise GraphError("laplacian must be square")
    if l.shape[0] < 2:
        raise PreconditionError("fiedler pair needs at least 2 nodes")
    if not np.isfinite(l).all():
        raise GraphError("laplacian entries must be finite")
    if not np.allclose(l, l.T, atol=1e-9):
        raise GraphError("laplacian must be symmetric")
    scale = max(1.0, float(np.abs(l).max()))
    if np.abs(l.sum(axis=1)).max() > 1e-8 * scale:
        raise GraphError("laplacian rows must sum to zero")
    if float(l.diagonal().max()) <= 0.0:
        raise PreconditionError("graph has no edges, so it is disconnected")
    vals, vecs = np.linalg.eigh(l)
    lam = float(vals[1])
    if lam < 1e-10:
        raise PreconditionError("graph is disconnected (algebraic connectivity is zero)")
    basis = vecs[:, np.abs(vals - lam) <= 1e-9 * max(1.0, float(vals[-1]))]
    # row i of the basis holds the coordinates of e_i's projection
    i = int(np.argmax(np.linalg.norm(basis, axis=1) > 1e-6))
    vec = basis @ basis[i]
    vec /= np.linalg.norm(vec)
    small = np.abs(vec) <= 1e-9 * np.abs(vec).max()
    if vec[np.flatnonzero(~small)[0]] < 0.0:
        vec = -vec
    vec[small] = 0.0
    return lam, vec


@dataclass(frozen=True)
class SpectralBisection:
    """A sign split of the nodes induced by a Fiedler vector."""

    part_m: frozenset[str]
    part_m_bar: frozenset[str]
    fiedler_value: float
    fiedler_vector: dict[str, float]


def crossing_subgraph(g: LabeledGraph, bisection: SpectralBisection) -> LabeledGraph:
    """Subgraph of the edges whose endpoints straddle the bisection."""
    union = bisection.part_m | bisection.part_m_bar
    if union != set(g.nodes) or (bisection.part_m & bisection.part_m_bar):
        raise GraphError("bisection does not partition this graph's nodes")
    adj = {}
    for v in g.nodes:
        side = bisection.part_m if v in bisection.part_m else bisection.part_m_bar
        if crossing := g.neighbors(v) - side:
            adj[v] = crossing
    return LabeledGraph._of(adj)


def spectral_bisection(g: LabeledGraph) -> SpectralBisection:
    """Full pipeline: degree costs -> B -> L -> Fiedler pair -> sign split.

    v_i >= 0 goes to part_m. The vector is orthogonal to the all-ones
    vector, so both parts are non-empty.
    """
    lam, vec = fiedler(weighted_laplacian(cost_matrix(g)))
    vector = dict(zip(node_order(g), vec.tolist()))
    part_m = frozenset(v for v, comp in vector.items() if comp >= 0.0)
    return SpectralBisection(part_m, frozenset(vector) - part_m, lam, vector)
