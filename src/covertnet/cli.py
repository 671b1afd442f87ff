"""Command-line interface.

Subcommands: metrics, dismantle, compare, sample, synthesize. Exit
codes: 0 success, 1 unreadable or malformed input, 2 violated
precondition or failed computation, 3 infeasible synthesis target.
All output is deterministic for fixed flags, so reruns are
byte-identical.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from dataclasses import dataclass

from . import metrics as metrics_mod
from . import reference, sampling, synthesis
from .dismantling import (
    DismantlingTrace,
    StrategySpec,
    TRACE_CSV_HEADER,
    removals,
    run_strategy,
    threshold_cost,
)
from .errors import (
    DismantlingError,
    FileFormatError,
    GraphError,
    InfeasibleTargetError,
    PreconditionError,
)
from .graph import LabeledGraph, dump_edge_list, dump_roles, load_edge_list, load_roles

THRESHOLDS = (0.2, 0.5, 0.8)


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _load_graph(args) -> LabeledGraph:
    if args.input is None:
        g = reference.reference_network()
    else:
        g = load_edge_list(_read_text(args.input))
    if args.roles:  # merged over the bundled roster when there is no --input
        g = load_roles(_read_text(args.roles), g)
    return g


def _metrics_table(rep: metrics_mod.MetricsReport) -> str:
    rows = [
        ("nodes", str(rep.node_count)),
        ("edges", str(rep.edge_count)),
        ("density", f"{rep.density:.6f}"),
        ("fragmentation", f"{rep.fragmentation:.6f}"),
        ("average degree", f"{rep.average_degree:.6f}"),
        ("diameter (lcc)", str(rep.diameter_lcc)),
        ("average clustering", f"{rep.average_clustering:.6f}"),
        ("mean betweenness", f"{rep.mean_betweenness:.6f}"),
        ("degree centralization", f"{rep.degree_centralization:.6f}"),
    ]
    width = max(len(name) for name, _ in rows)
    lines = [f"{name:<{width}}  {value}" for name, value in rows]
    ranked = sorted(rep.eigenvector_centrality.items(), key=lambda kv: (-kv[1], kv[0]))
    lines.append("top eigenvector scores:")
    for label, score in ranked[:5]:
        lines.append(f"  {label:<8} {score:.6f}")
    return "\n".join(lines) + "\n"


def cmd_metrics(args) -> int:
    g = _load_graph(args)
    rep = metrics_mod.report(g)
    if args.format == "json":
        _write_text(args.output, rep.to_json())
    else:
        _write_text(args.output, _metrics_table(rep))
    return 0


def _spec_for(args) -> StrategySpec:
    if (args.seed is None) == (args.strategy == "random"):
        raise PreconditionError("--seed is required by the random strategy and taken by no other")
    return StrategySpec(
        kind=args.strategy,
        target_lcc_fraction=args.target_lcc,
        rng_seed=args.seed,
        cost_model=args.cost_model,
    )


def _cell(value: float | None, fmt: str = "") -> str:
    return "not reached" if value is None else format(value, fmt)


def _threshold_summary(trace: DismantlingTrace) -> list[str]:
    return [
        f"cost to cut lcc by {int(p * 100)}%: {_cell(threshold_cost(trace, p))}"
        for p in THRESHOLDS
    ]


def cmd_dismantle(args) -> int:
    g = _load_graph(args)
    spec = _spec_for(args)
    trace = run_strategy(g, spec)
    if args.format == "json":
        _write_text(args.output, trace.to_json())
    else:
        _write_text(args.output, trace.to_csv())
    summary = [
        f"strategy: {spec.kind}",
        f"removals: {len(trace.steps)}",
        f"total cost: {trace.total_cost()}",
    ]
    summary.extend(_threshold_summary(trace))
    if args.output is not None:
        print("\n".join(summary))
    return 0


@dataclass(frozen=True)
class ComparisonReport:
    """Strategy-versus-strategy costs on one graph, ready to serialize."""

    target_lcc_fraction: float
    node_count: int
    gnd: DismantlingTrace
    hub: DismantlingTrace
    random: DismantlingTrace
    random_runs: int
    random_base_seed: int
    random_mean: dict[float, float | None]
    random_stddev: dict[float, float | None]

    def _curves(self, trace: DismantlingTrace) -> dict:
        start = trace.lcc_fraction(trace.initial_lcc_size)
        cost = [[start, 0]]
        dens = []
        betw = []
        if trace.initial_metrics is not None:
            dens.append([start, trace.initial_metrics.density])
            betw.append([start, trace.initial_metrics.mean_betweenness])
        for s in trace.steps:
            frac = trace.lcc_fraction(s.lcc_size_after)
            cost.append([frac, s.cumulative_cost])
            dens.append([frac, s.density_after])
            betw.append([frac, s.mean_betweenness_after])
        return {
            "cost_curve": cost,
            "density_curve": dens,
            "betweenness_curve": betw,
        }

    def _strategy_doc(self, trace: DismantlingTrace) -> dict:
        doc = {
            "strategy": trace.strategy.to_dict(),
            "removals": len(trace.steps),
            "total_cost": trace.total_cost(),
            "threshold_costs": {str(p): threshold_cost(trace, p) for p in THRESHOLDS},
        }
        doc.update(self._curves(trace))
        return doc

    def to_json(self) -> str:
        doc = {
            "target_lcc_fraction": self.target_lcc_fraction,
            "node_count": self.node_count,
            "thresholds": list(THRESHOLDS),
            "strategies": {
                "gnd": self._strategy_doc(self.gnd),
                "hub": self._strategy_doc(self.hub),
                "random": self._strategy_doc(self.random),
            },
            "random_ensemble": {
                "runs": self.random_runs,
                "base_seed": self.random_base_seed,
                "threshold_cost_mean": {str(p): self.random_mean[p] for p in THRESHOLDS},
                "threshold_cost_stddev": {str(p): self.random_stddev[p] for p in THRESHOLDS},
            },
        }
        return json.dumps(doc, indent=2) + "\n"

    def to_tidy_csv(self) -> str:
        lines = ["strategy," + TRACE_CSV_HEADER]
        for name, trace in (("gnd", self.gnd), ("hub", self.hub), ("random", self.random)):
            body = trace.to_csv().splitlines()[1:]
            lines.extend(f"{name},{row}" for row in body)
        return "\n".join(lines) + "\n"


def build_comparison(
    g: LabeledGraph, target_lcc: float = 0.2, base_seed: int = 0, runs: int = 100
) -> ComparisonReport:
    """Run all three strategies plus a seeded random ensemble.

    Only the ensemble's first run is a logged trace; the others keep
    just their removals, which is all their threshold costs need. The
    ensemble's mean and stddev of a threshold are None unless every run
    reached it.
    """
    if runs < 1:
        raise PreconditionError("--runs must be at least 1")
    gnd_trace = run_strategy(g, StrategySpec(kind="gnd", target_lcc_fraction=target_lcc))
    hub_trace = run_strategy(g, StrategySpec(kind="hub", target_lcc_fraction=target_lcc))
    specs = [
        StrategySpec(kind="random", target_lcc_fraction=target_lcc, rng_seed=base_seed + i)
        for i in range(runs)
    ]
    random_trace = run_strategy(g, specs[0])
    ensemble = [random_trace] + [removals(g, spec) for spec in specs[1:]]
    mean: dict[float, float | None] = {}
    stddev: dict[float, float | None] = {}
    for p in THRESHOLDS:
        costs = [threshold_cost(t, p) for t in ensemble]
        reached = None not in costs
        mean[p] = statistics.fmean(costs) if reached else None
        stddev[p] = statistics.pstdev(costs) if reached else None
    return ComparisonReport(
        target_lcc_fraction=target_lcc,
        node_count=g.node_count,
        gnd=gnd_trace,
        hub=hub_trace,
        random=random_trace,
        random_runs=runs,
        random_base_seed=base_seed,
        random_mean=mean,
        random_stddev=stddev,
    )


def cmd_compare(args) -> int:
    g = _load_graph(args)
    report = build_comparison(g, args.target_lcc, args.seed, args.runs)
    if args.output is not None:
        _write_text(args.output, report.to_json())
    if args.curves is not None:
        _write_text(args.curves, report.to_tidy_csv())
    rows = [
        (name, [_cell(threshold_cost(trace, p)) for p in THRESHOLDS])
        for name, trace in (
            ("gnd", report.gnd),
            ("hub", report.hub),
            (f"random(seed={args.seed})", report.random),
        )
    ]
    for name, stat in (
        (f"random mean(n={args.runs})", report.random_mean),
        (f"random stddev(n={args.runs})", report.random_stddev),
    ):
        rows.append((name, [_cell(stat[p], ".1f") for p in THRESHOLDS]))
    # columns widen only when a "not reached" cell would not fit
    width = max(10, 1 + max(len(cell) for _name, cells in rows for cell in cells))
    print("strategy".ljust(22) + "".join(f"cost@{int(p * 100)}%".rjust(width) for p in THRESHOLDS))
    for name, cells in rows:
        print(name.ljust(22) + "".join(cell.rjust(width) for cell in cells))
    return 0


def cmd_sample(args) -> int:
    g = _load_graph(args)
    config = sampling.SamplingConfig(
        seed_count=args.seeds,
        names_per_interview=args.k,
        waves=args.waves,
        rng_seed=args.rng_seed,
        mutual_confirmation=not args.no_mutual_confirmation,
    )
    run = sampling.snowball_run(g, config)
    _write_text(args.output, dump_edge_list(run.graph))
    stats_lines = [
        f"wave {w.wave}: interviews={w.interviews} new_nodes={w.new_nodes} "
        f"edges_observed={w.edges_observed}"
        for w in run.waves
    ]
    stats_lines.append(
        f"sampled {run.graph.node_count}/{g.node_count} nodes and "
        f"{run.graph.edge_count}/{g.edge_count} edges"
    )
    out = sys.stdout if args.output is not None else sys.stderr
    out.write("\n".join(stats_lines) + "\n")
    return 0


def cmd_synthesize(args) -> int:
    if args.target is not None:
        target = synthesis.load_synthesis_target(_read_text(args.target))
        roles = None
    else:
        target = reference.default_chiapas_target()
        roles = reference.chiapas_roster()
    graph = synthesis.synthesize_reference(target)
    _write_text(args.output, dump_edge_list(graph))
    written = [args.output]
    if roles is not None:
        roles_path = args.output + ".roles.csv"
        _write_text(roles_path, dump_roles(graph.with_roles(roles)))
        written.append(roles_path)
    print(f"wrote {', '.join(written)}")
    print(f"objective: {synthesis.objective(graph, target)!r}")
    print(f"{'metric':<24}{'target':>12}{'achieved':>14}{'weight':>8}")
    for row in synthesis.soft_report(graph, target):
        achieved = "n/a" if row["achieved"] is None else f"{row['achieved']:.6f}"
        print(
            f"{row['metric']:<24}{row['target']:>12.6f}{achieved:>14}{row['weight']:>8.1f}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covertnet",
        description="Analyze, sample, and dismantle covert social networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument(
            "--input",
            default=None,
            help="edge-list file (default: the bundled reference network)",
        )
        p.add_argument("--roles", default=None, help="roles CSV to attach")

    p = sub.add_parser("metrics", help="report topology metrics")
    add_input(p)
    p.add_argument("--format", choices=("json", "table"), default="table")
    p.add_argument("--output", default=None, help="write here instead of stdout")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("dismantle", help="run one dismantling strategy")
    add_input(p)
    p.add_argument("--strategy", choices=("gnd", "hub", "random"), required=True)
    p.add_argument("--target-lcc", type=float, default=0.2, help="stop at this LCC fraction")
    p.add_argument("--seed", type=int, default=None, help="RNG seed (random strategy)")
    p.add_argument("--cost-model", choices=("residual", "initial"), default="residual")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", default=None, help="trace file (default: stdout)")
    p.set_defaults(func=cmd_dismantle)

    p = sub.add_parser("compare", help="compare all three strategies")
    add_input(p)
    p.add_argument("--target-lcc", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=0, help="base seed for the random ensemble")
    p.add_argument("--runs", type=int, default=100, help="random ensemble size")
    p.add_argument("--output", default=None, help="comparison JSON file")
    p.add_argument("--curves", default=None, help="tidy per-step CSV file")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("sample", help="simulate snowball sampling")
    add_input(p)
    p.add_argument("--seeds", type=int, required=True, help="number of seed interviews")
    p.add_argument("--k", type=int, required=True, help="names elicited per interview")
    p.add_argument("--waves", type=int, required=True, help="waves after the seed round")
    p.add_argument("--rng-seed", type=int, required=True)
    p.add_argument("--no-mutual-confirmation", action="store_true")
    p.add_argument("--output", default=None, help="sampled edge list (default: stdout)")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("synthesize", help="anneal a graph toward target statistics")
    p.add_argument("--target", default=None, help="target JSON (default: Chiapas reference)")
    p.add_argument("--output", required=True, help="synthesized edge list")
    p.set_defaults(func=cmd_synthesize)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FileFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InfeasibleTargetError as exc:
        print(f"error: infeasible target: {exc}", file=sys.stderr)
        return 3
    except (GraphError, PreconditionError, DismantlingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
