"""Snowball sampling of a hidden ground-truth network.

Models field interviews: seed actors are interviewed first, each
interviewee names up to k of their true contacts, and newly named
people are interviewed in the next wave. An edge enters the sample
only once the interviews support it; with mutual confirmation on,
both endpoints must independently vouch for the tie (by naming it or
by confirming a prior mention when interviewed), which mirrors how
field studies validate relationships before recording them.
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
    """Per-wave tallies for reporting a sampling run."""

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
    population = sorted(ground_truth.nodes)
    seeds = rng.sample(population, config.seed_count)

    discovered = set(seeds)
    frontier = sorted(seeds)
    named: dict[str, set[str]] = {}
    confirmed: dict[str, set[str]] = {}
    pending_mentions: dict[str, set[str]] = {}
    first_named_wave: dict[frozenset[str], int] = {}
    stats: list[WaveStats] = []

    for wave in range(config.waves + 1):
        fresh: set[str] = set()
        for person in frontier:
            # a mention made before this interview gets confirmed now;
            # mentions always come from true contacts, so the answer
            # is honest by construction
            confirmed[person] = set(pending_mentions.get(person, ()))
            contacts = sorted(ground_truth.neighbors(person))
            quota = min(config.names_per_interview, len(contacts))
            chosen = rng.sample(contacts, quota) if quota else []
            named[person] = set(chosen)
            for other in chosen:
                pending_mentions.setdefault(other, set()).add(person)
                first_named_wave.setdefault(frozenset((person, other)), wave)
                fresh.add(other)
        joining = sorted(fresh - discovered) if wave < config.waves else []
        stats.append(
            WaveStats(wave=wave, interviews=len(frontier), new_nodes=len(joining), edges_observed=0)
        )
        if wave == config.waves:
            break
        discovered.update(joining)
        frontier = joining
        if not frontier:
            break

    nodes = sorted(discovered)
    edges = []
    edge_waves: dict[int, int] = {}
    for i, u in enumerate(nodes):
        for v in nodes[i + 1 :]:
            if not ground_truth.has_edge(u, v):
                continue
            named_uv = v in named.get(u, ())
            named_vu = u in named.get(v, ())
            if config.mutual_confirmation:
                vouched_u = named_uv or v in confirmed.get(u, ())
                vouched_v = named_vu or u in confirmed.get(v, ())
                keep = vouched_u and vouched_v
            else:
                keep = named_uv or named_vu
            if keep:
                edges.append((u, v))
                w = first_named_wave[frozenset((u, v))]
                edge_waves[w] = edge_waves.get(w, 0) + 1

    stats = [
        WaveStats(s.wave, s.interviews, s.new_nodes, edge_waves.get(s.wave, 0)) for s in stats
    ]
    roles = {v: r for v, r in ground_truth.roles.items() if v in discovered}
    return SnowballRun(graph=LabeledGraph(nodes, edges, roles), waves=tuple(stats))
