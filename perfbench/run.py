"""covertnet benchmark runner.

    python3 perfbench/run.py --workload chiapas|ladder|anneal --seed N \
        --seconds S --trace 0|1

Run from the repository root. The runner writes the workload's inputs
(from --seed) to a scratch directory, times set-up in fresh interpreters,
then runs the workload in one fresh worker process (perfbench/worker.py)
that calls covertnet.cli.main in-process, pass after pass, for about S
seconds. wall_s and the per-command times add up each call's fastest
repeat; setup_s is the median of the fresh interpreters. Afterwards it
checks every output against networkx and plain re-derivations, and prints
a summary, then one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics. --trace 1 runs the workload
twice, S/2 seconds each, first untraced and then with the public functions
listed in perfbench/tracing.py wrapped, and reports the per-layer metrics.
The full record (environment, per-operation times, digests, problems) is
also written to .perfbench/<workload>-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, Plan, make_plan  # noqa: E402

SETUP_REPEATS = 5  # per side of the workload
COMMANDS = ("metrics", "dismantle_gnd", "dismantle_hub", "dismantle_random", "compare", "sample",
            "synthesize")


def _median(values):
    return statistics.median(values) if values else 0.0


def _wall(passes: list[dict]) -> list[float]:
    """Per-pass time: the sum of the pass's CLI calls."""
    return [sum(r["seconds"] for r in p["ops"]) for p in passes]


def _fastest(passes: list[dict], keep=lambda name: True) -> float:
    """Sum over the kept operations of each one's fastest call across passes.

    The host's speed swings by tens of percent from second to second, as
    neighbours come and go; a call's fastest repeat is the one the swings
    touched least, so it repeats from run to run far better than a median."""
    fastest: dict[str, float] = {}
    for p in passes:
        for r in p["ops"]:
            if keep(r["name"]):
                fastest[r["name"]] = min(fastest.get(r["name"], r["seconds"]), r["seconds"])
    return sum(fastest.values())


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, asked from the library itself."""
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.split()[-1]}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def measure_setup(plan_path: Path) -> list[float]:
    """Fresh interpreter to inputs loaded: import covertnet.cli plus the workload's inputs.

    Runs SETUP_REPEATS times and returns every duration."""
    times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "worker.py"), "setup", str(plan_path)],
                       check=True, capture_output=True, timeout=120)
        times.append(time.perf_counter() - started)
    return times


def run_worker(plan_path: Path, seconds: float, trace: bool) -> dict:
    result_path = plan_path.with_name(f"result-{int(trace)}.json")
    subprocess.run([sys.executable, str(HERE / "worker.py"), "run", str(plan_path), str(result_path),
                    str(seconds), "1" if trace else "0"], check=True, timeout=170)
    return json.loads(result_path.read_text())


def check_outputs(plan: Plan, last: dict[str, dict]) -> dict[str, list[str]]:
    """Problems per operation, from the files and stdout of the last pass."""
    import checks

    def ground_truth(op):
        path = op.info.get("input") or str(SRC / "covertnet" / "data" / "chiapas_reference.edges")
        return checks.read_edge_list(Path(path).read_text())

    files = {op.name: op.outputs for op in plan.ops}
    problems = {}
    for op in plan.ops:
        rec = last[op.name]
        if rec["rc"] != 0:
            continue  # counted as a failed operation, nothing to check
        stdout = rec["stdout"]
        try:
            if op.command == "metrics":
                if op.outputs:
                    found = checks.check_metrics_json(Path(op.outputs[0]).read_text(), ground_truth(op))
                else:
                    found = checks.check_metrics_table(stdout, ground_truth(op))
            elif op.command.startswith("dismantle_"):
                found = checks.check_dismantle(op.outputs[0], stdout, ground_truth(op), op.info)
            elif op.command == "compare":
                siblings = {kind: files[f"dismantle_{kind}_residual"][0]
                            for kind in ("gnd", "hub", "random") if f"dismantle_{kind}_residual" in files}
                found = checks.check_compare(*op.outputs, ground_truth(op), op.info, siblings)
            elif op.command == "sample":
                found = checks.check_sample(op.outputs[0], stdout, ground_truth(op))
                loose = op.name.replace("_mutual", "_any")
                if op.info["mutual"] and loose in files and last[loose]["rc"] == 0:
                    found += checks.check_sample_pair(op.outputs[0], files[loose][0])
            elif op.command == "synthesize":
                found = checks.check_synthesis(op.outputs[0], stdout, op.info["target"])
            else:
                found = [f"no check for command {op.command}"]
        except Exception as exc:  # a malformed output can break a parser
            found = [f"check raised {type(exc).__name__}: {exc}"]
        problems[op.name] = found
    return problems


def logged_rows_written(plan: Plan, last: dict[str, dict]) -> int:
    """Trace rows that dismantle and compare wrote to their output files."""
    import checks

    rows = 0
    for op in plan.ops:
        if last[op.name]["rc"] != 0:
            continue
        if op.command.startswith("dismantle_"):
            text = Path(op.outputs[0]).read_text()
            steps = json.loads(text)["steps"] if op.info["format"] == "json" else checks.parse_trace_csv(text)
            rows += len(steps)
        elif op.command == "compare":
            rows += len(Path(op.outputs[1]).read_text().splitlines()) - 1
    return rows


def per_command(passes: list[dict], plan: Plan) -> dict[str, float]:
    """Time of each command the workload runs: its calls' fastest repeats, summed."""
    family = {op.name: op.command for op in plan.ops}
    return {
        command: _fastest(passes, lambda name: family[name] == command)
        for command in COMMANDS
        if command in family.values()
    }


def score(results: list[dict], problems: dict[str, list[str]]) -> tuple[bool, int, int, list[str]]:
    """(correct, attempted, failed, notes) over every operation of every pass."""
    reference = {r["name"]: r["digests"] for r in results[0]["passes"][-1]["ops"]}
    correct, attempted, failed, notes = True, 0, 0, []
    for worker, result in zip(("", "traced "), results):
        for index, p in enumerate(result["passes"]):
            for rec in p["ops"]:
                attempted += 1
                name = rec["name"]
                if rec["rc"] != 0:
                    failed += 1
                    detail = rec["error"] or (rec["stderr"].strip().splitlines() or [""])[-1]
                    notes.append(f"{worker}pass {index} {name}: exit {rec['rc']} {detail}")
                elif rec["digests"] != reference[name]:
                    failed += 1
                    correct = False
                    notes.append(f"{worker}pass {index} {name}: output differs from another pass")
                elif problems.get(name):
                    failed += 1
                    correct = False
                    notes.append(f"{worker}pass {index} {name}: " + "; ".join(problems[name][:3]))
    return correct, attempted, failed, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "covertnet" / "__init__.py").is_file():
        print(f"error: no covertnet sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    load_before = os.getloadavg()
    env = environment()
    # paths relative to the root keep stdout (which echoes them) identical
    # from run to run, so output digests compare across runs and commits
    os.chdir(ROOT)
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    scratch = WORK.relative_to(ROOT) / label
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        plan = make_plan(args.workload, args.seed, scratch)
        plan_path = scratch / "plan.json"
        plan_path.write_text(plan.to_json())
        # set-up is sampled before and after the passes, so its samples span
        # the same stretch of machine time as the passes do
        setup = measure_setup(plan_path)
        if args.trace:
            results = [run_worker(plan_path, args.seconds / 2, False)]
        else:
            results = [run_worker(plan_path, args.seconds, False)]
        last = {r["name"]: r for r in results[0]["passes"][-1]["ops"]}
        problems = check_outputs(plan, last)
        rows = logged_rows_written(plan, last)
        if args.trace:
            results.append(run_worker(plan_path, args.seconds / 2, True))
        setup += measure_setup(plan_path)
        correct, attempted, failed, notes = score(results, problems)
        plain = results[0]["passes"]
        walls = _wall(plain)
        commands = per_command(plain, plan)
        if args.trace:
            metrics = layer_metrics(plan, results, commands, rows)
        else:
            metrics = {
                "setup_s": {"value": _median(setup), "unit": "s"},
                "wall_s": {"value": _fastest(plain), "unit": "s"},
                "peak_rss_mb": {"value": results[0]["peak_rss_mb"], "unit": "MB"},
            }
        env["loadavg_before"] = load_before
        env["loadavg_after"] = os.getloadavg()
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "environment": env,
            "setup_s": setup,
            "pass_wall_s": walls,
            "command_s": commands,
            "absent": results[-1]["absent"],
            "digests": {r["name"]: r["digests"] for r in plain[-1]["ops"]},
            "ops": {op.name: [p["ops"][i]["seconds"] for p in plain] for i, op in enumerate(plan.ops)},
            "problems": {k: v for k, v in problems.items() if v},
            "notes": notes,
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }
        (WORK / f"{label}.json").write_text(json.dumps(record, indent=1))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print_summary(record)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def layer_metrics(plan: Plan, results: list[dict], commands: dict[str, float], rows: int) -> dict:
    from tracing import KEYS

    traced = [p["layers"] for p in results[1]["passes"]]
    out = {}
    for key in KEYS:
        calls = statistics.median_low([t[key]["calls"] for t in traced])  # the same every pass
        out[f"{key}.calls"] = {"value": calls, "unit": "count"}
        # fastest pass, as for the end-to-end times
        out[f"{key}.total_s"] = {"value": min(t[key]["total_s"] for t in traced), "unit": "s"}
        out[f"{key}.self_s"] = {"value": min(t[key]["self_s"] for t in traced), "unit": "s"}
    logged = out["metrics.mean_betweenness.calls"]["value"]
    out["dismantling.logged_rows_written"] = {"value": rows, "unit": "count"}
    out["dismantling.logged_rows_used_ratio"] = {"value": rows / logged if logged else 0.0, "unit": "ratio"}
    iterations = sum(op.info.get("iterations", 0) for op in plan.ops)
    synth = out["synthesis.synthesize_reference.total_s"]["value"]
    out["synthesis.proposals_per_s"] = {"value": iterations / synth if synth else 0.0, "unit": "1/s"}
    overhead = _fastest(results[1]["passes"]) - _fastest(results[0]["passes"])
    out["trace_overhead_s"] = {"value": overhead, "unit": "s"}
    for command in COMMANDS:
        out[f"{command}_s"] = {"value": commands.get(command, 0.0), "unit": "s"}
    return out


def print_summary(record: dict) -> None:
    env = record["environment"]
    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']}")
    print("environment " + json.dumps(env))
    setup = record["setup_s"]
    print(f"setup_s median {_median(setup):.4f} over {len(setup)} fresh interpreters")
    walls = record["pass_wall_s"]
    print(f"passes {len(walls)}: wall_s " + " ".join(f"{w:.3f}" for w in walls))
    for command, seconds in record["command_s"].items():
        print(f"  {command + '_s':<22}{seconds:10.4f} s  (median per pass)")
    for name, times in record["ops"].items():
        print(f"  op {name:<34}{_median(times):10.4f} s  digest {record['digests'][name]['stdout']}"
              f" {' '.join(str(d) for k, d in record['digests'][name].items() if k != 'stdout')}")
    if record["absent"]:
        print("absent from this code (reported as 0): " + ", ".join(record["absent"]))
    for note in record["notes"]:
        print("failed: " + note)
    for name, value in record["metrics"].items():
        print(f"metric {name} = {value['value']!r} {value['unit']}")


if __name__ == "__main__":
    sys.exit(main())
