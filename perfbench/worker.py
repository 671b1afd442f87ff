"""One fresh process per workload: runs the plan's CLI calls in-process.

    python3 perfbench/worker.py setup PLAN
    python3 perfbench/worker.py run PLAN RESULT SECONDS TRACE

`setup` imports covertnet.cli, loads the workload's inputs and exits; the
runner times it from outside. `run` repeats whole passes over the plan's
operations until another pass would overrun SECONDS (at least one pass),
timing each `covertnet.cli.main` call, and writes per-pass records to
RESULT. With TRACE=1 the public functions listed in tracing.py are
wrapped first and each pass also records their calls, total and self time.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

from workloads import Plan  # noqa: E402


def _import_cli():
    import covertnet.cli

    package = Path(covertnet.cli.__file__).resolve().parent
    if package.parent != SRC:
        raise SystemExit(f"covertnet was imported from {package}, not from {SRC}")
    return covertnet.cli


def load_inputs(plan: Plan) -> None:
    """What a user's first command pays for before it computes anything."""
    from covertnet import graph, reference, synthesis

    if plan.workload == "chiapas":
        reference.reference_network()
    for role, path in plan.inputs.items():
        text = Path(path).read_text()
        if role == "target":
            synthesis.load_synthesis_target(text)
        else:
            graph.load_edge_list(text)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def run_pass(plan: Plan, cli) -> list[dict]:
    records = []
    for op in plan.ops:
        out, err = io.StringIO(), io.StringIO()
        error = None
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(op.argv)
        except SystemExit as exc:  # argparse rejects the command line
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # an untyped error escaped the CLI
            rc, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - started
        digests = {"stdout": _digest(out.getvalue().encode())}
        for path in op.outputs:
            p = Path(path)
            digests[p.name] = _digest(p.read_bytes()) if p.exists() else None
        records.append({
            "name": op.name,
            "seconds": seconds,
            "rc": rc,
            "error": error,
            "stdout": out.getvalue(),
            "stderr": err.getvalue()[-2000:],
            "digests": digests,
        })
    return records


def run(plan: Plan, seconds: float, trace: bool) -> dict:
    cli = _import_cli()
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    passes = []
    began = time.perf_counter()
    while True:
        pass_began = time.perf_counter()
        ops = run_pass(plan, cli)
        layers = tracer.drain() if tracer else None
        passes.append({"ops": ops, "layers": layers})
        took = time.perf_counter() - pass_began
        if time.perf_counter() - began + took > seconds:
            break
    for record in passes[:-1]:
        for op in record["ops"]:
            op["stdout"] = None  # the checks read the last pass only
    return {
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "absent": tracer.absent if tracer else [],
    }


def main(argv: list[str]) -> int:
    mode, plan_path = argv[0], argv[1]
    plan = Plan.from_json(Path(plan_path).read_text())
    if mode == "setup":
        _import_cli()
        load_inputs(plan)
        return 0
    result_path, seconds, trace = argv[2], float(argv[3]), argv[4] == "1"
    result = run(plan, seconds, trace)
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
