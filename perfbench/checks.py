"""Output checks, made from outside the program and outside the timed region.

Each check takes what one operation wrote (files and stdout) and returns a
list of problems; an empty list means the output is correct. References
come from networkx, numpy and plain re-derivations, never from covertnet.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import statistics
from pathlib import Path

import networkx as nx
import numpy as np

TOL = 1e-9  # scalar metrics against networkx
EIGEN_TOL = 1e-8  # eigenvector scores come from power iteration stopped at 1e-9 drift
PRINTED_TOL = 5e-7 + 1e-9  # values printed with six decimals
THRESHOLDS = (0.2, 0.5, 0.8)


def read_edge_list(text: str) -> nx.Graph:
    g = nx.Graph()
    for raw in text.splitlines():
        parts = raw.split("#", 1)[0].split()
        if len(parts) == 1:
            g.add_node(parts[0])
        elif len(parts) == 2:
            g.add_edge(*parts)
    return g


def _close(got, want, tol=TOL) -> bool:
    return abs(got - want) <= tol * max(1.0, abs(want))


def lcc_nodes(g: nx.Graph) -> set:
    if g.number_of_nodes() == 0:
        return set()
    comps = sorted(nx.connected_components(g), key=lambda c: (-len(c), min(c)))
    return set(comps[0])


def _density(g: nx.Graph, empty: float) -> float:
    n = g.number_of_nodes()
    return 2.0 * g.number_of_edges() / (n * (n - 1)) if n >= 2 else empty


def _mean_betweenness(g: nx.Graph) -> float:
    if g.number_of_nodes() < 3:
        return 0.0
    return statistics.fmean(nx.betweenness_centrality(g, normalized=True).values())


def eigenvector_scores(g: nx.Graph) -> dict:
    """Principal eigenvector of the LCC, max scaled to 1; zero elsewhere."""
    members = sorted(lcc_nodes(g))
    a = nx.to_numpy_array(g, nodelist=members)
    vec = np.abs(np.linalg.eigh(a)[1][:, -1])
    out = dict.fromkeys(g.nodes, 0.0)
    out.update(zip(members, vec / vec.max()))
    return out


def reference_metrics(g: nx.Graph) -> dict:
    n, m = g.number_of_nodes(), g.number_of_edges()
    degs = [d for _, d in g.degree()]
    lcc = g.subgraph(lcc_nodes(g))
    return {
        "node_count": n,
        "edge_count": m,
        "density": nx.density(g),
        "fragmentation": 1.0 - nx.density(g),
        "average_degree": 2.0 * m / n,
        "diameter_lcc": nx.diameter(lcc),
        "average_clustering": nx.average_clustering(g),
        "mean_betweenness": _mean_betweenness(g),
        "degree_centralization": sum(max(degs) - d for d in degs) / ((n - 1) * (n - 2)),
        "eigenvector_centrality": eigenvector_scores(g),
    }


def check_metrics_json(text: str, g: nx.Graph) -> list[str]:
    doc = json.loads(text)
    ref = reference_metrics(g)
    problems = []
    for key, want in ref.items():
        got = doc.get(key)
        if key == "eigenvector_centrality":
            if set(got) != set(want):
                problems.append("eigenvector_centrality covers the wrong nodes")
            elif any(not _close(got[v], want[v], EIGEN_TOL) for v in want):
                problems.append("eigenvector_centrality differs from the dense eigenvector")
        elif isinstance(want, int):
            if got != want:
                problems.append(f"{key} is {got}, expected {want}")
        elif got is None or not _close(got, want):
            problems.append(f"{key} is {got}, networkx gives {want!r}")
    return problems


_TABLE_KEYS = {
    "nodes": "node_count",
    "edges": "edge_count",
    "density": "density",
    "fragmentation": "fragmentation",
    "average degree": "average_degree",
    "diameter (lcc)": "diameter_lcc",
    "average clustering": "average_clustering",
    "mean betweenness": "mean_betweenness",
    "degree centralization": "degree_centralization",
}


def check_metrics_table(text: str, g: nx.Graph) -> list[str]:
    ref = reference_metrics(g)
    problems = []
    seen = set()
    listed = []
    for line in text.splitlines():
        if line.startswith("  "):
            label, score = line.split()
            listed.append((label, float(score)))
            continue
        name, _, value = line.rpartition("  ")
        key = _TABLE_KEYS.get(name.strip())
        if key is None:
            continue
        seen.add(key)
        if not _close(float(value), ref[key], PRINTED_TOL):
            problems.append(f"table row {name.strip()!r} is {value}, networkx gives {ref[key]!r}")
    if seen != set(_TABLE_KEYS.values()):
        problems.append("metrics table is missing rows")
    scores = ref["eigenvector_centrality"]
    top = sorted(scores.values(), reverse=True)[: len(listed)]
    if len(listed) != min(5, len(scores)):
        problems.append("metrics table lists the wrong number of top eigenvector scores")
    for (label, score), want in zip(listed, top):
        if not (_close(score, scores.get(label, math.inf), PRINTED_TOL) and _close(score, want, PRINTED_TOL)):
            problems.append(f"top eigenvector entry {label} {score} is not among the top scores")
    return problems


def parse_trace_rows(records) -> list[dict]:
    """Typed trace rows from CSV records (extra columns are ignored)."""
    return [
        {
            "step": int(r["step"]),
            "removed_node": r["removed_node"],
            "node_cost": int(r["node_cost"]),
            "cumulative_cost": int(r["cumulative_cost"]),
            "lcc_size": int(r["lcc_size"]),
            "lcc_fraction": float(r["lcc_fraction"]),
            "density": float(r["density"]),
            "fragmentation": float(r["fragmentation"]),
            "mean_betweenness": float(r["mean_betweenness"]),
        }
        for r in records
    ]


def parse_trace_csv(text: str) -> list[dict]:
    return parse_trace_rows(csv.DictReader(io.StringIO(text)))


def check_trace(rows: list[dict], g0: nx.Graph, kind: str, cost_model: str, target: float) -> list[str]:
    """Costs, cumulative costs, LCC sizes and residual density re-derived step by step."""
    n0 = g0.number_of_nodes()
    bound = target * n0 + 1e-9
    g = g0.copy()
    total = 0
    if not rows and len(lcc_nodes(g0)) > bound:
        return ["trace is empty but the LCC is above the target"]
    for i, row in enumerate(rows, start=1):
        node = row["removed_node"]
        where = f"step {i} ({node})"
        if row["step"] != i:
            return [f"{where}: step number {row['step']}"]
        if node not in g:
            return [f"{where}: node is not in the residual graph"]
        if kind in ("hub", "random") and len(lcc_nodes(g)) <= bound:
            return [f"{where}: removal after the target was met"]
        if kind == "hub":
            pick = min(g.nodes, key=lambda v: (-g.degree(v), v))
            if node != pick:
                return [f"{where}: hub removed instead of {pick}"]
        cost = g.degree(node) if cost_model == "residual" else g0.degree(node)
        total += cost
        if row["node_cost"] != cost or row["cumulative_cost"] != total:
            return [f"{where}: cost {row['node_cost']}/{row['cumulative_cost']}, expected {cost}/{total}"]
        g.remove_node(node)
        lcc = len(lcc_nodes(g))
        if row["lcc_size"] != lcc or not _close(row["lcc_fraction"], lcc / n0):
            return [f"{where}: lcc_size {row['lcc_size']}, recomputed {lcc}"]
        if not _close(row["density"], _density(g, 0.0)) or not _close(
            row["fragmentation"], 1.0 - _density(g, 0.0) if g.number_of_nodes() >= 2 else 1.0
        ):
            return [f"{where}: residual density differs"]
    if rows:
        if rows[-1]["lcc_size"] > bound:
            return ["last step does not meet the target"]
        if not _close(rows[-1]["mean_betweenness"], _mean_betweenness(g)):
            return ["last step's mean betweenness differs from networkx"]
    return []


def check_dismantle(path: str, stdout: str, g0: nx.Graph, info: dict) -> list[str]:
    text = Path(path).read_text()
    if info["format"] == "json":
        doc = json.loads(text)
        rows = doc["steps"]
        spec = doc["strategy"]
        if (spec["kind"], spec["cost_model"], spec["target_lcc_fraction"]) != (
            info["kind"], info["cost_model"], info["target"]
        ):
            return [f"trace strategy {spec} does not match the command"]
        if doc["initial_node_count"] != g0.number_of_nodes() or doc["initial_lcc_size"] != len(lcc_nodes(g0)):
            return ["initial node count or LCC size is wrong"]
    else:
        rows = parse_trace_csv(text)
    problems = check_trace(rows, g0, info["kind"], info["cost_model"], info["target"])
    summary = dict(line.split(": ", 1) for line in stdout.splitlines() if ": " in line)
    total = rows[-1]["cumulative_cost"] if rows else 0
    if summary.get("removals") != str(len(rows)) or summary.get("total cost") != str(total):
        problems.append("stdout summary disagrees with the trace")
    return problems


def replay_random(g0: nx.Graph, seed: int, target: float) -> list[str]:
    """Removal order of the seeded random attack: a uniform pick among the sorted survivors."""
    rng = random.Random(seed)
    g = g0.copy()
    order = []
    bound = target * g0.number_of_nodes() + 1e-9
    while len(lcc_nodes(g)) > bound:
        remaining = sorted(g.nodes)
        pick = remaining[rng.randrange(len(remaining))]
        order.append(pick)
        g.remove_node(pick)
    return order


def threshold_costs(rows: list[dict], g0: nx.Graph) -> dict:
    n0 = g0.number_of_nodes()
    out = {}
    for p in THRESHOLDS:
        bound = (1.0 - p) * n0 + 1e-9
        if len(lcc_nodes(g0)) <= bound:
            out[str(p)] = 0
            continue
        out[str(p)] = next((r["cumulative_cost"] for r in rows if r["lcc_size"] <= bound), None)
    return out


def check_compare(json_path: str, curves_path: str, g0: nx.Graph, info: dict, siblings: dict) -> list[str]:
    doc = json.loads(Path(json_path).read_text())
    tidy = list(csv.DictReader(io.StringIO(Path(curves_path).read_text())))
    problems = []
    for name in ("gnd", "hub", "random"):
        rows = parse_trace_rows(r for r in tidy if r["strategy"] == name)
        problems += [f"{name} curve: {p}" for p in check_trace(rows, g0, name, "residual", info["target"])]
        entry = doc["strategies"][name]
        total = rows[-1]["cumulative_cost"] if rows else 0
        if entry["removals"] != len(rows) or entry["total_cost"] != total:
            problems.append(f"{name}: removals or total cost disagree with its curve")
        if entry["threshold_costs"] != threshold_costs(rows, g0):
            problems.append(f"{name}: threshold costs disagree with its curve")
        order = [r["removed_node"] for r in rows]
        if name == "random" and order != replay_random(g0, info["base_seed"], info["target"]):
            problems.append("random: removal order differs from the seeded replay")
        sibling = siblings.get(name)
        if sibling is not None and parse_trace_csv(Path(sibling).read_text()) != rows:
            problems.append(f"{name}: curve differs from the standalone dismantle trace")
    ensemble = doc["random_ensemble"]
    costs = {str(p): [] for p in THRESHOLDS}
    for i in range(info["runs"]):
        g = g0.copy()
        rows, total = [], 0
        for node in replay_random(g0, info["base_seed"] + i, info["target"]):
            total += g.degree(node)
            g.remove_node(node)
            rows.append({"cumulative_cost": total, "lcc_size": len(lcc_nodes(g))})
        for p, c in threshold_costs(rows, g0).items():
            costs[p].append(c)
    for p, values in costs.items():
        if not _close(ensemble["threshold_cost_mean"][p], statistics.fmean(values)) or not _close(
            ensemble["threshold_cost_stddev"][p], statistics.pstdev(values)
        ):
            problems.append(f"random ensemble at {p} differs from the replayed ensemble")
    if ensemble["runs"] != info["runs"] or ensemble["base_seed"] != info["base_seed"]:
        problems.append("random ensemble header does not match the command")
    return problems


def check_sample(path: str, stdout: str, g0: nx.Graph) -> list[str]:
    got = read_edge_list(Path(path).read_text())
    problems = []
    if not set(got.nodes) <= set(g0.nodes):
        problems.append("sampled nodes outside the ground truth")
    if any(not g0.has_edge(u, v) for u, v in got.edges):
        problems.append("sampled edge not in the ground truth")
    lines = stdout.splitlines()
    want = (
        f"sampled {got.number_of_nodes()}/{g0.number_of_nodes()} nodes and "
        f"{got.number_of_edges()}/{g0.number_of_edges()} edges"
    )
    if not lines or lines[-1] != want:
        problems.append("sampling summary disagrees with the sampled graph")
    waves = [dict(kv.split("=") for kv in line.split(": ", 1)[1].split()) for line in lines[:-1]]
    if sum(int(w["edges_observed"]) for w in waves) != got.number_of_edges():
        problems.append("per-wave edge counts do not add up")
    if int(waves[0]["interviews"]) + sum(int(w["new_nodes"]) for w in waves) != got.number_of_nodes():
        problems.append("per-wave node counts do not add up")
    return problems


def check_synthesis(path: str, stdout: str, target_path: str) -> list[str]:
    doc = json.loads(Path(target_path).read_text())
    hard = doc["hard"]
    g = read_edge_list(Path(path).read_text())
    deg = dict(g.degree())
    problems = []
    if set(g.nodes) != set(hard["nodes"]) or g.number_of_edges() != hard["edges"]:
        problems.append("roster or edge count differs from the target")
        return problems
    if hard["connected"] and not nx.is_connected(g):
        problems.append("graph is not connected")
    problems += [f"degree of {v} is {deg[v]}, pinned to {d}"
                 for v, d in hard["degrees"].items() if deg[v] != d]
    problems += [f"required tie {u}-{v} missing" for u, v in hard["adjacent"] if not g.has_edge(u, v)]
    u, v = hard["pair_coverage"]["pair"]
    if deg[u] + deg[v] - g.has_edge(u, v) != hard["pair_coverage"]["count"]:
        problems.append("pair coverage differs from the target")
    a, b = hard["top_degree_pair"]["pair"]
    others = max(d for w, d in deg.items() if w not in (a, b))
    if min(deg[a], deg[b]) - hard["top_degree_pair"]["margin"] < others:
        problems.append("top degree pair does not clear the rest by the margin")
    achieved = _soft_values(g, doc["soft"])
    rows = {line.split()[0]: line.split() for line in stdout.splitlines()[3:]}
    objective = 0.0
    for term in doc["soft"]:
        value = achieved[term["metric"]]
        objective += term["weight"] * (value - term["value"]) ** 2
        row = rows.get(term["metric"])
        if row is None or not _close(float(row[2]), value, PRINTED_TOL):
            problems.append(f"soft metric {term['metric']} printed as {row}, recomputed {value!r}")
    printed = float(stdout.splitlines()[1].split(": ", 1)[1])
    if not _close(printed, objective):
        problems.append(f"objective {printed!r}, recomputed {objective!r}")
    return problems


def check_sample_pair(mutual_path: str, any_path: str) -> list[str]:
    """Turning mutual confirmation off may only add edges for the same campaign."""
    mutual = read_edge_list(Path(mutual_path).read_text())
    loose = read_edge_list(Path(any_path).read_text())
    if any(not loose.has_edge(u, v) for u, v in mutual.edges):
        return ["an edge confirmed mutually is missing without mutual confirmation"]
    return []


def _soft_values(g: nx.Graph, soft: list[dict]) -> dict:
    out = reference_metrics(g)
    scores = out.pop("eigenvector_centrality")
    top3 = set(sorted(sorted(g.nodes), key=lambda v: -scores[v])[:3])
    for term in soft:
        if term["metric"] == "eigenvector_top3":
            out["eigenvector_top3"] = len(top3 & set(term["nodes"])) / len(term["nodes"])
    return out
