"""The bundled Chiapas reference network.

The real actor-level data behind the reported Chiapas trafficking
statistics is confidential, so this package ships a synthetic
stand-in: a 34-actor, 225-tie network annealed until it reproduces
the published summary statistics. Only a handful of actors are
individually characterized by those statistics (Ex1, Ex2, Ex3, P1,
P3, Ra4, Rv1); the rest of the roster is an illustrative breakdown
across the eleven observed roles.
"""

from __future__ import annotations

import functools
from importlib import resources

from .graph import LabeledGraph, Role, load_edge_list
from .synthesis import (
    AnnealingSchedule,
    HardConstraints,
    SoftTarget,
    SynthesisTarget,
    synthesize_reference,
)

# (label prefix, role, actor count); the counts sum to the 34 documented actors
_ROSTER = (
    ("C", Role.CARETAKER, 2),
    ("Co", Role.COMPANY, 2),
    ("B", Role.BODY_GUARD, 2),
    ("Es", Role.ESTAFETA, 3),
    ("Ex", Role.EXPLOITER, 3),
    ("Ps", Role.PUBLIC_SERVANT, 3),
    ("G", Role.GUIDE, 3),
    ("P", Role.PARTICIPANT, 4),
    ("Ra", Role.RAITERO, 4),
    ("Re", Role.RECRUITER, 4),
    ("Rv", Role.RECRUITER_VICTIM, 4),
)


def chiapas_roster() -> dict[str, Role]:
    """Label-to-role map for the 34 reference actors.

    Labels are role prefixes plus a 1-based index (P1 is sometimes
    written Pa1 elsewhere; P1 is the canonical key here).
    """
    return {
        f"{prefix}{i}": role for prefix, role, count in _ROSTER for i in range(1, count + 1)
    }


def default_chiapas_target() -> SynthesisTarget:
    """Synthesis target encoding the published Chiapas statistics.

    Hard constraints pin the structure the statistics fix exactly:
    the two most connected actors (Ex1 and P1) jointly touch 53 of
    the 225 ties and clear everyone else by a margin, Ex1 works with
    both other exploiters, Participant 3 has 15 contacts and
    Raitero 4 has 11. Soft targets steer the remaining topology.
    """
    return SynthesisTarget(
        nodes=tuple(sorted(chiapas_roster())),
        edge_count=225,
        hard=HardConstraints(
            connected=True,
            degrees=(("P3", 15), ("Ra4", 11)),
            adjacent=(("Ex1", "Ex2"), ("Ex1", "Ex3")),
            pair_coverage=("Ex1", "P1", 53),
            top_degree_pair=("Ex1", "P1"),
            top_degree_margin=2,
        ),
        soft=(
            SoftTarget(metric="diameter_lcc", value=3.0, weight=1.0),
            SoftTarget(metric="average_clustering", value=0.647, weight=1.0),
            SoftTarget(metric="degree_centralization", value=0.4432, weight=1.0),
            SoftTarget(metric="mean_betweenness", value=0.02, weight=1.0),
            SoftTarget(
                metric="eigenvector_top3",
                value=1.0,
                weight=5.0,
                nodes=("Ex1", "P1", "Rv1"),
            ),
        ),
        schedule=AnnealingSchedule(
            initial_temperature=1.0,
            cooling_factor=0.999,
            iterations=200_000,
            rng_seed=8,
        ),
    )


def build_reference_network() -> LabeledGraph:
    """Synthesize the reference network from scratch (about 8 s on a 2-core VM)."""
    graph = synthesize_reference(default_chiapas_target())
    return graph.with_roles(chiapas_roster())


@functools.cache
def reference_network() -> LabeledGraph:
    """The bundled pre-synthesized reference network, with `chiapas_roster()` attached.

    The edge list is parsed once per process; every call returns that one
    shared graph, which is safe because graphs are immutable (`with_roles`
    and `load_roles` return new graphs).
    """
    edges = resources.files("covertnet").joinpath("data", "chiapas_reference.edges")
    return load_edge_list(edges.read_text()).with_roles(chiapas_roster())


def _write_data_files() -> None:
    from pathlib import Path

    from .graph import dump_edge_list

    graph = build_reference_network()
    out = Path(__file__).resolve().parent / "data"
    out.mkdir(exist_ok=True)
    (out / "chiapas_reference.edges").write_text(dump_edge_list(graph))
    print(f"wrote {graph.node_count} nodes / {graph.edge_count} edges to {out}")


if __name__ == "__main__":
    _write_data_files()
