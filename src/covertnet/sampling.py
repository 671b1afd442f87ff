"""Snowball sampling of a hidden ground-truth network.

Models field interviews: seed actors are interviewed first, each
interviewee names up to k of their true contacts, and newly named
people are interviewed in the next wave. Every sampled actor is
interviewed exactly once, in a fixed order, and a tie enters the sample
only when both of its endpoints are interviewed. With mutual
confirmation on, it is recorded exactly when the endpoint interviewed
first names it, and the later endpoint then confirms it, which mirrors
how field studies validate relationships before recording them; with
it off, a tie is recorded when either endpoint names it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import PreconditionError, _is_int
from .graph import LabeledGraph


@dataclass(frozen=True)
class SamplingConfig:
    seed_count: int
    names_per_interview: int
    waves: int
    rng_seed: int
    mutual_confirmation: bool = True

    def __post_init__(self):
        for name in ("seed_count", "names_per_interview", "waves", "rng_seed"):
            if not _is_int(getattr(self, name)):
                raise PreconditionError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not isinstance(self.mutual_confirmation, bool):
            raise PreconditionError(
                f"mutual_confirmation must be a bool, got {self.mutual_confirmation!r}"
            )
        if self.seed_count < 1:
            raise PreconditionError("seed_count must be at least 1")
        if self.names_per_interview < 0:
            raise PreconditionError("names_per_interview must be non-negative")
        if self.waves < 0:
            raise PreconditionError("waves must be non-negative")


@dataclass(frozen=True)
class WaveStats:
    """Per-wave tallies for reporting a sampling run.

    `edges_observed` counts the sampled ties first named in this wave:
    with mutual confirmation, the wave of the endpoint interviewed first;
    without it, the wave of whichever endpoint named the tie first. The
    tallies of a run add up to the sample's edge count.
    """

    wave: int
    interviews: int
    new_nodes: int
    edges_observed: int


@dataclass(frozen=True)
class SnowballRun:
    graph: LabeledGraph
    waves: tuple[WaveStats, ...]


def snowball_run(ground_truth: LabeledGraph, config: SamplingConfig) -> SnowballRun:
    """Sampled subgraph and per-wave tallies of one interview campaign.

    Wave 0 interviews the seeds; each of `waves` further waves
    interviews the people first named in the wave before. People named
    in the final wave are recorded as mentions but never join the
    sample. The sampled graph is always a subgraph of the ground truth,
    and turning mutual confirmation off can only add edges, never remove
    any, for the same seed.
    """
    if config.seed_count > ground_truth.node_count:
        raise PreconditionError(
            f"seed_count {config.seed_count} exceeds the population "
            f"of {ground_truth.node_count}"
        )
    rng = random.Random(config.rng_seed)
    frontier = sorted(rng.sample(sorted(ground_truth.nodes), config.seed_count))
    interviewed: set[str] = set()
    tie_wave: dict[tuple[str, str], int] = {}
    tallies: list[tuple[int, int, int]] = []

    for wave in range(config.waves + 1):
        fresh: set[str] = set()
        for person in frontier:
            interviewed.add(person)
            contacts = sorted(ground_truth.neighbors(person))
            for other in rng.sample(contacts, min(config.names_per_interview, len(contacts))):
                fresh.add(other)
                # under mutual confirmation a tie is recorded only by its first interviewee
                if not (config.mutual_confirmation and other in interviewed):
                    tie_wave.setdefault((min(person, other), max(person, other)), wave)
        joining = sorted(fresh - interviewed) if wave < config.waves else []
        tallies.append((wave, len(frontier), len(joining)))
        frontier = joining
        if not frontier:
            break

    adj: dict[str, set[str]] = {v: set() for v in sorted(interviewed)}
    observed = [0] * len(tallies)
    for (u, v), wave in tie_wave.items():
        if u in adj and v in adj:
            adj[u].add(v)
            adj[v].add(u)
            observed[wave] += 1
    roles = {v: r for v, r in ground_truth.roles.items() if v in adj}
    stats = tuple(WaveStats(w, n, new, observed[w]) for w, n, new in tallies)
    return SnowballRun(graph=LabeledGraph._of(adj, roles), waves=stats)
