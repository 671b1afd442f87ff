import hashlib
import json

import pytest

from covertnet import dump_edge_list, load_edge_list, reference_network, threshold_cost
from covertnet.cli import build_comparison, main

from util import barbell_graph, path_graph, star_graph


@pytest.fixture
def barbell_file(tmp_path):
    path = tmp_path / "barbell.edges"
    path.write_text(dump_edge_list(barbell_graph(4)))
    return str(path)


def read(path):
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def test_metrics_table_to_stdout(barbell_file, capsys):
    assert main(["metrics", "--input", barbell_file]) == 0
    out = capsys.readouterr().out
    assert "density" in out
    assert "0.464286" in out  # 13 of 28 possible edges
    assert "top eigenvector scores:" in out


def test_metrics_json_to_file(barbell_file, tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = main(
        ["metrics", "--input", barbell_file, "--format", "json", "--output", str(out_path)]
    )
    assert code == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(read(out_path))
    assert doc["node_count"] == 8
    assert doc["edge_count"] == 13
    assert doc["diameter_lcc"] == 3


def test_metrics_defaults_to_bundled_network(capsys):
    assert main(["metrics", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["node_count"] == 34
    assert doc["edge_count"] == 225
    assert doc["density"] == pytest.approx(0.40107, abs=1e-5)


def test_dismantle_csv_trace(barbell_file, capsys):
    code = main(["dismantle", "--input", barbell_file, "--strategy", "gnd"])
    assert code == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0].startswith("step,removed_node,node_cost")
    assert lines[1].split(",")[1] == "a0"  # bridge endpoint goes first


def test_dismantle_gnd_down_to_singletons(tmp_path, capsys):
    path = tmp_path / "path3.edges"
    path.write_text(dump_edge_list(path_graph(3)))
    code = main(["dismantle", "--input", str(path), "--strategy", "gnd", "--target-lcc", "0.2"])
    assert code == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert [r.split(",")[1] for r in rows] == ["v2", "v0", "v1"]


def test_dismantle_json_with_output_prints_summary(barbell_file, tmp_path, capsys):
    out_path = tmp_path / "trace.json"
    code = main(
        [
            "dismantle",
            "--input",
            barbell_file,
            "--strategy",
            "hub",
            "--target-lcc",
            "0.5",
            "--format",
            "json",
            "--output",
            str(out_path),
        ]
    )
    assert code == 0
    doc = json.loads(read(out_path))
    assert doc["strategy"]["kind"] == "hub"
    assert doc["steps"]
    summary = capsys.readouterr().out
    assert "strategy: hub" in summary
    assert "total cost:" in summary
    assert "cost to cut lcc by 80%" in summary


def test_dismantle_random_needs_seed(barbell_file, capsys):
    assert main(["dismantle", "--input", barbell_file, "--strategy", "random"]) == 2
    assert "--seed" in capsys.readouterr().err
    assert (
        main(
            [
                "dismantle",
                "--input",
                barbell_file,
                "--strategy",
                "random",
                "--seed",
                "5",
            ]
        )
        == 0
    )


def test_seed_for_a_seedless_strategy_and_an_empty_ensemble_are_exit_2(barbell_file, capsys):
    for strategy in ("gnd", "hub"):
        argv = ["dismantle", "--input", barbell_file, "--strategy", strategy, "--seed", "5"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "--seed" in captured.err
    assert main(["compare", "--input", barbell_file, "--runs", "0"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_compare_prints_cost_table(barbell_file, tmp_path, capsys):
    out_path = tmp_path / "comparison.json"
    curves_path = tmp_path / "curves.csv"
    code = main(
        [
            "compare",
            "--input",
            barbell_file,
            "--runs",
            "5",
            "--output",
            str(out_path),
            "--curves",
            str(curves_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "cost@20%" in out and "cost@80%" in out
    assert "gnd" in out and "hub" in out
    assert "random mean(n=5)" in out
    doc = json.loads(read(out_path))
    assert doc["strategies"]["gnd"]["strategy"]["kind"] == "gnd"
    assert doc["random_ensemble"]["runs"] == 5
    assert set(doc["strategies"]["gnd"]["threshold_costs"]) == {"0.2", "0.5", "0.8"}
    curves = read(curves_path).splitlines()
    assert curves[0].startswith("strategy,")
    assert len(curves) > 3


def test_compare_on_empty_graph_writes_json(tmp_path, capsys):
    empty = tmp_path / "empty.edges"
    empty.write_text("")
    out_path = tmp_path / "comparison.json"
    assert main(["compare", "--input", str(empty), "--output", str(out_path)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    doc = json.loads(read(out_path))
    assert doc["node_count"] == 0
    assert doc["strategies"]["gnd"]["cost_curve"] == [[0.0, 0]]


def test_sample_writes_edge_list(tmp_path, capsys):
    src = tmp_path / "truth.edges"
    src.write_text(dump_edge_list(star_graph(6)))
    out_path = tmp_path / "sampled.edges"
    code = main(
        [
            "sample",
            "--input",
            str(src),
            "--seeds",
            "2",
            "--k",
            "3",
            "--waves",
            "1",
            "--rng-seed",
            "11",
            "--output",
            str(out_path),
        ]
    )
    assert code == 0
    sampled = load_edge_list(read(out_path))
    truth = star_graph(6)
    assert set(sampled.nodes) <= set(truth.nodes)
    assert set(sampled.edges()) <= set(truth.edges())
    stats = capsys.readouterr().out
    assert "wave 0:" in stats and "sampled" in stats


def test_sample_stats_go_to_stderr_without_output(tmp_path, capsys):
    src = tmp_path / "truth.edges"
    src.write_text(dump_edge_list(star_graph(4)))
    code = main(
        ["sample", "--input", str(src), "--seeds", "1", "--k", "2", "--waves", "1",
         "--rng-seed", "3"]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "wave 0:" in captured.err
    # stdout carries only the sampled edge list
    load_edge_list(captured.out)


def test_synthesize_custom_target(tmp_path, capsys):
    target_path = tmp_path / "target.json"
    target_path.write_text(
        json.dumps(
            {
                "hard": {"nodes": 8, "edges": 12},
                "soft": [{"metric": "average_clustering", "value": 0.5}],
                "schedule": {"iterations": 400, "rng_seed": 5},
            }
        )
    )
    out_path = tmp_path / "made.edges"
    code = main(["synthesize", "--target", str(target_path), "--output", str(out_path)])
    assert code == 0
    g = load_edge_list(read(out_path))
    assert g.node_count == 8
    assert g.edge_count == 12
    out = capsys.readouterr().out
    assert "objective:" in out
    assert "average_clustering" in out


def test_synthesize_reruns_are_byte_identical(tmp_path, capsys):
    target_path = tmp_path / "target.json"
    target_path.write_text(
        json.dumps({"hard": {"nodes": 7, "edges": 9}, "schedule": {"iterations": 200}})
    )
    first = tmp_path / "a.edges"
    second = tmp_path / "b.edges"
    assert main(["synthesize", "--target", str(target_path), "--output", str(first)]) == 0
    assert main(["synthesize", "--target", str(target_path), "--output", str(second)]) == 0
    capsys.readouterr()
    assert read(first) == read(second)


def test_missing_input_file_is_exit_1(capsys):
    assert main(["metrics", "--input", "/definitely/not/here.edges"]) == 1
    assert "error:" in capsys.readouterr().err


def test_malformed_edge_list_is_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.edges"
    bad.write_text("a b c d\n")
    assert main(["metrics", "--input", str(bad)]) == 1
    assert "line 1" in capsys.readouterr().err


def test_metrics_below_minimum_size_is_exit_2(tmp_path, capsys):
    tiny = tmp_path / "tiny.edges"
    tiny.write_text("a b\n")
    assert main(["metrics", "--input", str(tiny)]) == 2
    assert "error:" in capsys.readouterr().err


def test_infeasible_target_is_exit_3(tmp_path, capsys):
    target_path = tmp_path / "target.json"
    # connected is on by default and 3 edges cannot connect 8 nodes
    target_path.write_text(json.dumps({"hard": {"nodes": 8, "edges": 3}}))
    out_path = tmp_path / "never.edges"
    code = main(["synthesize", "--target", str(target_path), "--output", str(out_path)])
    assert code == 3
    assert "infeasible" in capsys.readouterr().err


def test_target_no_repair_can_satisfy_is_exit_3(tmp_path, capsys):
    # every static check passes, but a and b of degree 3 on four nodes
    # need 5 distinct edges, so each repair attempt stops short
    doc = {"hard": {"nodes": ["a", "b", "c", "d"], "edges": 3, "degrees": {"a": 3, "b": 3}}}
    target_path = tmp_path / "target.json"
    target_path.write_text(json.dumps(doc))
    out_path = tmp_path / "never.edges"
    code = main(["synthesize", "--target", str(target_path), "--output", str(out_path)])
    assert code == 3
    assert capsys.readouterr().err == (
        "error: infeasible target: hard constraints not satisfied after 8 repair "
        "attempts (remaining violation score 2.0)\n"
    )
    assert not out_path.exists()


def test_non_integral_target_field_is_exit_1(tmp_path, capsys):
    target_path = tmp_path / "target.json"
    target_path.write_text(
        json.dumps({"hard": {"nodes": 8, "edges": 12}, "schedule": {"iterations": 10.5}})
    )
    out_path = tmp_path / "never.edges"
    code = main(["synthesize", "--target", str(target_path), "--output", str(out_path)])
    assert code == 1
    assert "iterations must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc, message",
    [
        (
            {"hard": {"nodes": 3, "edges": 3},
             "soft": [{"metric": "density", "value": 1e308, "weight": 1e308}]},
            "soft target 'density' can overflow the objective",
        ),
        (
            {"hard": {"nodes": 4, "edges": 3, "top_degree_pair": {"pair": ["n1", "n1"]}}},
            "top degree pair needs two distinct nodes",
        ),
    ],
    ids=["objective_overflow", "duplicate_top_pair"],
)
def test_self_inconsistent_target_is_exit_1(tmp_path, capsys, doc, message):
    target_path = tmp_path / "target.json"
    target_path.write_text(json.dumps(doc))
    out_path = tmp_path / "never.edges"
    code = main(["synthesize", "--target", str(target_path), "--output", str(out_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"error: target JSON: {message}\n"
    assert not out_path.exists()


def test_bad_roles_file_is_exit_1(barbell_file, tmp_path, capsys):
    roles = tmp_path / "roles.csv"
    roles.write_text("a0,NotARole\n")
    assert main(["metrics", "--input", barbell_file, "--roles", str(roles)]) == 1
    assert "line 1" in capsys.readouterr().err


@pytest.mark.parametrize("lines", [None, "Ex1,Guide\nnobody,Guide\n"], ids=["missing", "unknown"])
def test_roles_without_input_are_read_and_checked(lines, tmp_path, capsys):
    # --roles attaches to the bundled network too, so a bad file is not ignored
    roles = tmp_path / "roles.csv"
    if lines is not None:
        roles.write_text(lines)
    assert main(["metrics", "--roles", str(roles)]) == 1
    assert "error:" in capsys.readouterr().err


# the README's sample command on the bundled network, pinned byte for byte
@pytest.mark.parametrize(
    "flags, digest, observed, summary",
    [
        (
            [],
            "5447d905078f04de2430231d2541e00a898fc38e43aac16de0c2cb38297f5d52",
            (14, 40, 19),
            "sampled 30/34 nodes and 73/225 edges",
        ),
        (
            ["--no-mutual-confirmation"],
            "5aae1d5de66266287fbacab832ac0b908a23b032dec3110f40434f14756643f1",
            (14, 49, 53),
            "sampled 30/34 nodes and 116/225 edges",
        ),
    ],
    ids=["mutual", "loose"],
)
def test_readme_sample_command_is_pinned(flags, digest, observed, summary, tmp_path, capsys):
    out_path = tmp_path / "s.edges"
    argv = ["sample", "--seeds", "3", "--k", "5", "--waves", "2", "--rng-seed", "11"]
    assert main(argv + flags + ["--output", str(out_path)]) == 0
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest
    interviews, new_nodes = (3, 12, 15), (12, 15, 0)
    assert capsys.readouterr().out.splitlines() == [
        f"wave {w}: interviews={interviews[w]} new_nodes={new_nodes[w]} "
        f"edges_observed={observed[w]}"
        for w in range(3)
    ] + [summary]


def test_unknown_command_exits_via_argparse(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])


# threshold costs are integers, so the ensemble's mean and population
# stddev are exact functions of them and do not depend on the machine
@pytest.mark.parametrize(
    "runs, mean, stddev",
    [
        (
            100,
            {0.2: 82.45, 0.5: 168.5, 0.8: 217.13},
            {0.2: 11.699038422024264, 0.5: 8.784645695758025, 0.8: 1.9982742554514383},
        ),
        (1, {0.2: 82.0, 0.5: 170.0, 0.8: 216.0}, {0.2: 0.0, 0.5: 0.0, 0.8: 0.0}),
    ],
)
def test_random_ensemble_on_bundled_network_is_pinned(runs, mean, stddev):
    report = build_comparison(reference_network(), runs=runs, base_seed=0)
    assert report.random_mean == mean
    assert report.random_stddev == stddev
    assert report.random_runs == runs
    assert [threshold_cost(report.random, p) for p in (0.2, 0.5, 0.8)] == [82, 170, 216]


@pytest.mark.parametrize("target", [0.3, 0.5])
def test_compare_reports_unreached_thresholds(target, tmp_path, capsys):
    # a run that stops at an LCC fraction of 0.3 or 0.5 never cuts the LCC
    # by 80 %: that threshold is "not reached" in the table and null in JSON
    out_path = tmp_path / "comparison.json"
    argv = ["compare", "--runs", "3", "--target-lcc", str(target), "--output", str(out_path)]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6
    assert len({len(line) for line in lines}) == 1  # the columns stay aligned
    for line in (lines[1], lines[3], lines[4], lines[5]):  # gnd, random(seed=0), mean, stddev
        assert line.endswith(" not reached")
    doc = json.loads(read(out_path))
    assert doc["strategies"]["gnd"]["threshold_costs"] == {"0.2": 69, "0.5": 169, "0.8": None}
    assert doc["strategies"]["random"]["threshold_costs"]["0.8"] is None
    ensemble = doc["random_ensemble"]
    for stat in ("threshold_cost_mean", "threshold_cost_stddev"):
        assert ensemble[stat]["0.8"] is None
        assert ensemble[stat]["0.2"] is not None and ensemble[stat]["0.5"] is not None


SWEEP_EDGE_LISTS = {
    "empty": "",
    "one-node": "a\n",
    "two-isolated": "a\nb\n",
    "one-edge": "a b\n",
    "three-isolated": "a\nb\nc\n",
    "path-3": "a b\nb c\n",
    "two-triangles": "a b\nb c\na c\nd e\ne f\nd f\n",
    "triangle-and-isolated": "a b\nb c\na c\nd\n",
    "two-k2": "a b\nc d\n",
}


def _sweep_commands(path, tmp_path):
    yield ["metrics", "--input", path]
    yield ["metrics", "--input", path, "--format", "json"]
    for strategy in ("gnd", "hub", "random"):
        seed = ["--seed", "4"] if strategy == "random" else []
        for fmt in ("csv", "json"):
            for cost_model in ("residual", "initial"):
                yield [
                    "dismantle", "--input", path, "--strategy", strategy, *seed,
                    "--format", fmt, "--cost-model", cost_model,
                ]
    yield ["compare", "--input", path, "--runs", "5"]
    yield [
        "compare", "--input", path, "--runs", "5",
        "--output", str(tmp_path / "cmp.json"), "--curves", str(tmp_path / "curves.csv"),
    ]
    for confirm in ([], ["--no-mutual-confirmation"]):
        yield ["sample", "--input", path, "--seeds", "1", "--k", "2", "--waves", "1",
               "--rng-seed", "3", *confirm]


@pytest.mark.parametrize("name", sorted(SWEEP_EDGE_LISTS))
def test_every_subcommand_ends_in_an_exit_code_on_tiny_graphs(name, tmp_path, capsys):
    path = tmp_path / "g.edges"
    path.write_text(SWEEP_EDGE_LISTS[name])
    for argv in _sweep_commands(str(path), tmp_path):
        assert main(argv) in (0, 1, 2, 3), argv
        capsys.readouterr()


def _target(hard=None, **top):
    """A small feasible target document, with `hard` merged over its hard section."""
    doc = {"hard": {"nodes": 6, "edges": 7}, "schedule": {"iterations": 50, "rng_seed": 3}}
    doc["hard"].update(hard or {})
    return json.dumps(doc | top)


def _soft(**entry):
    return [{"metric": "density", "value": 0.5} | entry]


_NAMED = {"nodes": ["a", "b", "c", "d"], "edges": 4}

# (target file text, exit code); every misread a value conversion used to
# hide is exit 1, and each static infeasibility rule is exit 3
SWEEP_TARGETS = {
    # values of the wrong JSON type, or keys nothing reads
    "connected-string": (_target({"connected": "false"}), 1),
    "soft-key-typo": (_target(soft=_soft(wieght=9.0)), 1),
    "top-level-key-typo": (_target(missing_penalty=5.0), 1),
    "pair-of-three": (
        _target(_NAMED | {"pair_coverage": {"pair": ["a", "b", "c"], "count": 3}}), 1
    ),
    "pair-string": (_target(_NAMED | {"pair_coverage": {"pair": "ab", "count": 3}}), 1),
    "adjacent-string": (_target(_NAMED | {"adjacent": ["ab"]}), 1),
    "top-pair-null": (_target({"top_degree_pair": {"pair": None, "margin": 1}}), 1),
    "integer-labels": (_target({"nodes": [1, 2, 3, 4], "edges": 3}), 1),
    "label-with-space": (_target({"nodes": ["a b", "c", "d"], "edges": 2}), 1),
    "negative-nodes": (_target({"nodes": -3, "edges": 0}), 1),
    "seed-true": (_target(schedule={"rng_seed": True}), 1),
    "seed-string": (_target(schedule={"rng_seed": "abc"}), 1),
    "value-string": (_target(soft=_soft(value="0.5")), 1),
    "weight-true": (_target(soft=_soft(weight=True)), 1),
    "soft-nodes-string": (
        _target(_NAMED, soft=[{"metric": "eigenvector_top3", "value": 1.0, "nodes": "ab"}]), 1
    ),
    "cooling-true": (_target(schedule={"cooling_factor": True}), 1),
    "penalty-string": (_target(missing_metric_penalty="5"), 1),
    "value-huge-integer": (_target(soft=_soft(value=10**400)), 1),
    # malformed documents
    "not-json": ("not json at all", 1),
    "not-an-object": ('["list", "not", "object"]', 1),
    "deeply-nested": ("[" * 100_000, 1),
    "edges-missing": (json.dumps({"hard": {"nodes": 4}}), 1),
    "unknown-hard-key": (_target({"colour": "red"}), 1),
    "soft-without-value": (_target(soft=[{"metric": "density"}]), 1),
    "value-nan": (_target(soft=_soft(value=float("nan"))), 1),
    "weight-inf": (_target(soft=_soft(weight=float("inf"))), 1),
    "temperature-minus-inf": (_target(schedule={"initial_temperature": float("-inf")}), 1),
    "nodes-fractional": (_target({"nodes": 4.5}), 1),
    "edges-integral-float": (_target({"edges": 7.0}), 1),
    "degree-fractional": (_target({"degrees": {"n1": 2.5}}), 1),
    "margin-fractional": (_target({"top_degree_pair": {"pair": ["n1", "n2"], "margin": 1.5}}), 1),
    "iterations-fractional": (_target(schedule={"iterations": 10.5}), 1),
    "objective-overflow": (_target(soft=_soft(value=1e308, weight=1e308)), 1),
    # statically infeasible
    "edges-impossible": (_target({"nodes": 4, "edges": 99}), 3),
    "too-few-edges-to-connect": (_target({"nodes": 8, "edges": 3}), 3),
    "more-adjacencies-than-edges": (
        _target(_NAMED | {"edges": 1, "connected": False, "adjacent": [["a", "b"], ["c", "d"]]}),
        3,
    ),
    "degree-0-pin-connected": (_target({"degrees": {"n1": 0}}), 3),
    "pins-above-2m": (_target({"edges": 5, "degrees": {"n1": 5, "n2": 5, "n3": 5}}), 3),
    "pin-below-adjacencies": (
        _target(_NAMED | {"degrees": {"a": 1}, "adjacent": [["a", "b"], ["a", "c"]]}), 3
    ),
    "pair-coverage-against-pins": (
        _target(_NAMED | {"degrees": {"a": 2, "b": 2},
                          "pair_coverage": {"pair": ["a", "b"], "count": 2}}),
        3,
    ),
    "pin-above-top-pair-margin": (
        _target({"degrees": {"n3": 5}, "top_degree_pair": {"pair": ["n1", "n2"], "margin": 1}}),
        3,
    ),
    # tiny valid targets
    "n0": (json.dumps({"hard": {"nodes": 0, "edges": 0}}), 0),
    "n1": (json.dumps({"hard": {"nodes": 1, "edges": 0}}), 0),
    "n2": (json.dumps({"hard": {"nodes": 2, "edges": 1}}), 0),
    "n3-edgeless-disconnected": (
        json.dumps({"hard": {"nodes": 3, "edges": 0, "connected": False}}), 0
    ),
}


@pytest.mark.parametrize("name", list(SWEEP_TARGETS))
def test_synthesize_ends_in_its_exit_code_on_every_target(name, tmp_path, capsys):
    text, code = SWEEP_TARGETS[name]
    target_path = tmp_path / "target.json"
    target_path.write_text(text)
    out_path = tmp_path / "made.edges"
    assert main(["synthesize", "--target", str(target_path), "--output", str(out_path)]) == code
    err = capsys.readouterr().err
    prefix = {0: "", 1: "error: target JSON: ", 3: "error: infeasible target: "}[code]
    assert err.startswith(prefix) and err.count("\n") == (code != 0)
    assert out_path.exists() == (code == 0)
