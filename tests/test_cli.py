import json

import pytest

from covertnet import dump_edge_list, load_edge_list
from covertnet.cli import main

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


def test_bad_roles_file_is_exit_1(barbell_file, tmp_path, capsys):
    roles = tmp_path / "roles.csv"
    roles.write_text("a0,NotARole\n")
    assert main(["metrics", "--input", barbell_file, "--roles", str(roles)]) == 1
    assert "line 1" in capsys.readouterr().err


def test_unknown_command_exits_via_argparse(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])
