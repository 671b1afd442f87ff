"""Workload inputs and command scripts, generated from the workload seed.

A workload is a list of CLI invocations (operations) run in order; one
run of the list is a pass. Inputs are written to a scratch directory and
the program sees only those files.

* chiapas: the bundled 34-actor network, every command a user runs on it.
* ladder: sparse spanning-tree-plus-chords graphs at n = 100, 200, 300.
  Not listed in BENCHMARK.json: its calls at n >= 200 last 3-10 s each,
  too few per run to time steadily on a shared host (perfbench/README.md),
  but it runs the same way by name.
  Each rung's graph is fixed (its own generator seed); the workload seed
  draws the edge-line order, the edge orientation and the sampling
  campaign. gnd's cost depends on how fast power iteration converges on
  each residual component, which differs from graph to graph: with the
  graph or even just its labels drawn from the seed, one gnd call at a
  rung spreads 2-6x between seeds, too wide for a figure that one pass per
  run must report. See perfbench/README.md for the measurements.
* anneal: the default Chiapas synthesis target with its schedule cut to a
  1500-proposal prefix of the default 200 000; same RNG seed, temperature and
  cooling, so the run walks the start of the bundled build's path.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("chiapas", "ladder", "anneal")

LADDER_SIZES = (100, 200, 300)
LADDER_MEAN_DEGREE = 6
HUB_MAX_N = 200

# random-attack ensemble size of the chiapas `compare` call; each run costs
# the same, so 10 show the per-run cost while keeping the call near a
# second, short enough to repeat many times in one benchmark run
COMPARE_RUNS = 10

# the prefix length is drawn from this range; the whole range costs within
# about one percent of the same time, and a call lasts about half a second,
# short enough to repeat many times in one benchmark run
ANNEAL_ITERATIONS = (1500, 1525)


@dataclass
class Op:
    """One CLI invocation and what the runner needs to check it."""

    name: str
    command: str  # per-command metric family, e.g. "dismantle_gnd"
    argv: list[str]
    outputs: list[str] = field(default_factory=list)  # files the op writes
    info: dict = field(default_factory=dict)  # facts the checks need


@dataclass
class Plan:
    workload: str
    seed: int
    inputs: dict[str, str]  # role -> path of a generated input
    ops: list[Op]

    def to_json(self) -> str:
        return json.dumps(
            {
                "workload": self.workload,
                "seed": self.seed,
                "inputs": self.inputs,
                "ops": [vars(op) for op in self.ops],
            },
            indent=1,
        )

    @staticmethod
    def from_json(text: str) -> "Plan":
        doc = json.loads(text)
        return Plan(doc["workload"], doc["seed"], doc["inputs"], [Op(**op) for op in doc["ops"]])


def ladder_structure(n: int) -> list[tuple[int, int]]:
    """Fixed rung graph on 0..n-1: random recursive tree plus chords to mean degree 6."""
    rng = random.Random(f"ladder-{n}")
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for i in range(1, n):
        u, v = order[i], order[rng.randrange(i)]
        edges.add((min(u, v), max(u, v)))
    target = LADDER_MEAN_DEGREE * n // 2
    while len(edges) < target:
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def ladder_edge_list(n: int, seed: int) -> str:
    """The rung graph with seed-drawn line order and edge orientation."""
    rng = random.Random(seed * 7919 + n)
    width = len(str(n - 1))
    names = [f"v{i:0{width}d}" for i in range(n)]
    lines = []
    for u, v in ladder_structure(n):
        a, b = names[u], names[v]
        lines.append(f"{a} {b}" if rng.random() < 0.5 else f"{b} {a}")
    rng.shuffle(lines)
    return "\n".join(lines) + "\n"


def anneal_target(iterations: int) -> str:
    """default_chiapas_target() as target JSON, schedule cut to `iterations`."""
    from covertnet.reference import default_chiapas_target

    t = default_chiapas_target()
    hard = t.hard
    u, v, count = hard.pair_coverage
    doc = {
        "hard": {
            "nodes": list(t.nodes),
            "edges": t.edge_count,
            "connected": hard.connected,
            "degrees": dict(hard.degrees),
            "adjacent": [list(p) for p in hard.adjacent],
            "pair_coverage": {"pair": [u, v], "count": count},
            "top_degree_pair": {"pair": list(hard.top_degree_pair), "margin": hard.top_degree_margin},
        },
        "soft": [
            {"metric": s.metric, "value": s.value, "weight": s.weight}
            | ({"nodes": list(s.nodes)} if s.nodes else {})
            for s in t.soft
        ],
        "schedule": {
            "initial_temperature": t.schedule.initial_temperature,
            "cooling_factor": t.schedule.cooling_factor,
            "iterations": iterations,
            "rng_seed": t.schedule.rng_seed,
        },
        "missing_metric_penalty": t.missing_metric_penalty,
    }
    return json.dumps(doc, indent=2) + "\n"


def _chiapas(seed: int, out: Path) -> Plan:
    rng = random.Random(seed)
    ops = [
        Op("metrics_table", "metrics", ["metrics"]),
        Op("metrics_json", "metrics", ["metrics", "--format", "json", "--output", str(out / "metrics.json")],
           [str(out / "metrics.json")]),
    ]
    random_seed = rng.randrange(10_000)
    for kind in ("gnd", "hub", "random"):
        for model, fmt in (("residual", "csv"), ("initial", "json")):
            path = str(out / f"{kind}_{model}.{fmt}")
            argv = ["dismantle", "--strategy", kind, "--cost-model", model, "--format", fmt, "--output", path]
            if kind == "random":
                argv += ["--seed", str(random_seed)]
            ops.append(Op(f"dismantle_{kind}_{model}", f"dismantle_{kind}", argv, [path],
                          {"kind": kind, "cost_model": model, "format": fmt, "target": 0.2}))
    ops.append(Op("compare", "compare",
                  ["compare", "--runs", str(COMPARE_RUNS), "--seed", str(random_seed),
                   "--output", str(out / "compare.json"), "--curves", str(out / "curves.csv")],
                  [str(out / "compare.json"), str(out / "curves.csv")],
                  {"runs": COMPARE_RUNS, "base_seed": random_seed, "target": 0.2}))
    for seeds in (1, 3):
        for k in (2, 5):
            for waves in (1, 2):
                rng_seed = rng.randrange(10_000)
                for mutual in (True, False):
                    tag = f"s{seeds}_k{k}_w{waves}_{'mutual' if mutual else 'any'}"
                    path = str(out / f"sample_{tag}.edges")
                    argv = ["sample", "--seeds", str(seeds), "--k", str(k), "--waves", str(waves),
                            "--rng-seed", str(rng_seed), "--output", path]
                    if not mutual:
                        argv.append("--no-mutual-confirmation")
                    ops.append(Op(f"sample_{tag}", "sample", argv, [path], {"mutual": mutual}))
    return Plan("chiapas", seed, {}, ops)


def _ladder(seed: int, out: Path) -> Plan:
    rng = random.Random(seed)
    inputs = {}
    ops = []
    for n in LADDER_SIZES:
        graph = str(out / f"ladder_{n}.edges")
        inputs[f"ladder_{n}"] = graph
        Path(graph).write_text(ladder_edge_list(n, seed))
        src = ["--input", graph]
        ops.append(Op(f"metrics_{n}", "metrics",
                      ["metrics", *src, "--format", "json", "--output", str(out / f"metrics_{n}.json")],
                      [str(out / f"metrics_{n}.json")], {"input": graph}))
        strategies = ("gnd", "hub") if n <= HUB_MAX_N else ("gnd",)
        for kind in strategies:
            path = str(out / f"{kind}_{n}.csv")
            ops.append(Op(f"dismantle_{kind}_{n}", f"dismantle_{kind}",
                          ["dismantle", *src, "--strategy", kind, "--output", path], [path],
                          {"input": graph, "kind": kind, "cost_model": "residual", "format": "csv",
                           "target": 0.2}))
    top = LADDER_SIZES[-1]
    path = str(out / f"sample_{top}.edges")
    ops.append(Op(f"sample_{top}", "sample",
                  ["sample", "--input", inputs[f"ladder_{top}"], "--seeds", "5", "--k", "4", "--waves", "3",
                   "--rng-seed", str(rng.randrange(10_000)), "--output", path],
                  [path], {"input": inputs[f"ladder_{top}"], "mutual": True}))
    return Plan("ladder", seed, inputs, ops)


def _anneal(seed: int, out: Path) -> Plan:
    iterations = random.Random(seed).randrange(*ANNEAL_ITERATIONS)
    target = str(out / "target.json")
    Path(target).write_text(anneal_target(iterations))
    made = str(out / "made.edges")
    op = Op("synthesize", "synthesize", ["synthesize", "--target", target, "--output", made], [made],
            {"target": target, "iterations": iterations})
    return Plan("anneal", seed, {"target": target}, [op])


def make_plan(workload: str, seed: int, out: Path) -> Plan:
    """Write the workload's inputs under `out` and return its operations."""
    plans = {"chiapas": _chiapas, "ladder": _ladder, "anneal": _anneal}
    return plans[workload](seed, out)
