import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import landmark_minsum
from landmark_minsum import (
    InstanceSpec,
    MetricMatrix,
    generate,
    generate_adversarial,
    save_bundle,
    write_labels_csv,
)
from landmark_minsum.cli import build_parser, main

from conftest import random_metric, random_symmetric, structure_violation_case
from oracles import exhaustive_check_metric


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_matrix(tmp_path, m, name="matrix.csv"):
    path = tmp_path / name
    m.to_csv(path)
    return str(path)


@pytest.fixture
def bundle_dir(tmp_path):
    inst = generate(
        InstanceSpec(sizes=(30, 20, 15), theta=4.0, bad_fraction=0.02, seed=5)
    )
    out = tmp_path / "bundle"
    save_bundle(inst, out)
    return out, inst


class TestGenerateCommand:
    def test_generates_bundle(self, capsys, tmp_path):
        out = tmp_path / "inst"
        code, stdout, _ = run_cli(
            capsys, "generate", "--sizes", "20,15", "--theta", "3.0",
            "--seed", "1", "--output", str(out),
        )
        assert code == 0
        payload = json.loads(stdout)
        assert payload["n"] == 35 and payload["k"] == 2
        assert (out / "matrix.csv").exists()
        assert (out / "matrix.csv.f8").exists()
        assert (out / "labels.csv").exists()
        assert (out / "instance.json").exists()

    def test_unwritable_twin_leaves_no_file(self, capsys, tmp_path):
        # a directory where the matrix's binary twin goes
        twin = tmp_path / "inst" / "matrix.csv.f8"
        twin.mkdir(parents=True)
        code, stdout, err = run_cli(
            capsys, "generate", "--sizes", "5,4", "--theta", "1.0",
            "--seed", "1", "--output", str(tmp_path / "inst"),
        )
        assert code == 3 and stdout == ""
        payload = json.loads(err)
        assert payload["error"] == "DataError"
        assert payload["message"].startswith(f"{twin}: cannot write: ")
        assert list((tmp_path / "inst").iterdir()) == [twin]
        assert list(twin.iterdir()) == []

    def test_missing_output_is_parameter_error(self, capsys, monkeypatch):
        # refused before any point is generated
        monkeypatch.setattr("landmark_minsum.cli.generate", pytest.fail)
        code, _, err = run_cli(
            capsys, "generate", "--sizes", "5,5", "--theta", "1.0"
        )
        assert code == 2
        assert json.loads(err)["error"] == "ParameterError"

    @pytest.mark.parametrize("extra", [
        ["--theta", "inf"],
        ["--theta", "nan"],
        ["--theta", "1.0", "--separation-factor", "nan"],
        ["--theta", "1.0", "--separation-factor", "inf"],
    ])
    def test_non_finite_parameter_is_parameter_error(
        self, capsys, tmp_path, extra
    ):
        code, _, err = run_cli(
            capsys, "generate", "--sizes", "3,3", *extra,
            "--output", str(tmp_path / "inst"),
        )
        assert code == 2
        assert json.loads(err)["error"] == "ParameterError"
        assert not (tmp_path / "inst").exists()

    @pytest.mark.parametrize("sizes, entry", [("3,abc", "'abc'"), ("", "''")])
    def test_bad_sizes_entry_is_parameter_error(
        self, capsys, tmp_path, sizes, entry
    ):
        code, _, err = run_cli(
            capsys, "generate", "--sizes", sizes, "--theta", "1.0",
            "--output", str(tmp_path / "inst"),
        )
        assert code == 2
        payload = json.loads(err)
        assert payload["error"] == "ParameterError"
        assert payload["message"].endswith(entry)

    def test_compact_format_is_single_line(self, capsys, tmp_path):
        out = tmp_path / "inst"
        code, stdout, _ = run_cli(
            capsys, "generate", "--sizes", "6,5", "--theta", "2.0",
            "--output", str(out), "--format", "compact",
        )
        assert code == 0
        assert stdout.count("\n") == 1
        json.loads(stdout)


class TestClusterCommand:
    def test_threshold_run(self, capsys, bundle_dir):
        out, inst = bundle_dir
        code, stdout, _ = run_cli(
            capsys, "cluster", "--input", str(out / "matrix.csv"),
            "--k", "3", "--landmarks", "6", "--threshold", "50",
            "--seed", "2",
        )
        assert code == 0
        payload = json.loads(stdout)
        assert payload["queries_issued"] == 6
        assert len(payload["clusters"]) == 3
        assert payload["params"]["version"]

    def test_opt_derives_threshold(self, capsys, tmp_path):
        m = random_metric(20, 2, seed=3)
        path = write_matrix(tmp_path, m)
        code, stdout, _ = run_cli(
            capsys, "cluster", "--input", path, "--k", "2",
            "--landmarks", "4", "--opt", "800", "--alpha", "1.0",
            "--epsilon", "0.05", "--seed", "0",
        )
        assert code == 0
        payload = json.loads(stdout)
        assert payload["params"]["threshold"] == pytest.approx(
            1.0 * 800 / (40 * 0.05 * 20)
        )

    def test_threshold_with_opt_is_parameter_error(self, capsys, bundle_dir):
        # both flags set the threshold; neither is dropped silently
        out, _ = bundle_dir
        code, stdout, err = run_cli(
            capsys, "cluster", "--input", str(out / "matrix.csv"), "--k", "3",
            "--landmarks", "6", "--threshold", "30", "--opt", "5",
            "--alpha", "1", "--epsilon", "0.004",
        )
        assert code == 2 and stdout == ""
        payload = json.loads(err)
        assert payload["error"] == "ParameterError"
        assert "--threshold" in payload["message"] and "--opt" in payload["message"]

    def test_missing_threshold_is_parameter_error(self, capsys, tmp_path):
        path = write_matrix(tmp_path, random_metric(10, 2, seed=4))
        code, _, err = run_cli(
            capsys, "cluster", "--input", path, "--k", "2", "--landmarks", "3"
        )
        assert code == 2
        assert "threshold" in json.loads(err)["message"]

    def test_budget_exhaustion_is_parameter_error(self, capsys, tmp_path):
        path = write_matrix(tmp_path, random_metric(10, 2, seed=5))
        code, _, err = run_cli(
            capsys, "cluster", "--input", path, "--k", "2",
            "--landmarks", "5", "--threshold", "1", "--budget", "3",
        )
        assert code == 2
        assert json.loads(err)["error"] == "BudgetExhaustedError"

    def test_non_numeric_cell_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "matrix.csv"
        path.write_text("3\n0,1,2\n1,0,abc\n2,1,0\n")
        code, _, err = run_cli(
            capsys, "cluster", "--input", str(path), "--k", "2",
            "--landmarks", "2", "--threshold", "1",
        )
        assert code == 3
        payload = json.loads(err)
        assert payload["error"] == "DataError"
        assert "row 1, column 2" in payload["message"]

    def test_deterministic_artifacts(self, capsys, tmp_path):
        path = write_matrix(tmp_path, random_metric(25, 2, seed=6))
        outputs = []
        for _ in range(2):
            code, stdout, _ = run_cli(
                capsys, "cluster", "--input", path, "--k", "3",
                "--landmarks", "5", "--threshold", "9", "--seed", "42",
            )
            assert code == 0
            outputs.append(stdout)
        assert outputs[0] == outputs[1]

    def test_pairs_input_autodetected(self, capsys, tmp_path):
        from importlib import resources

        with resources.as_file(
            resources.files("landmark_minsum").joinpath("data/toy_scores.tsv")
        ) as src:
            tsv = tmp_path / "scores.tsv"
            tsv.write_text(src.read_text())
        code, stdout, _ = run_cli(
            capsys, "cluster", "--input", str(tsv), "--k", "3",
            "--landmarks", "6", "--threshold", "2.0", "--seed", "3",
        )
        assert code == 0
        payload = json.loads(stdout)
        assert payload["n"] == 27
        assert payload["queries_issued"] == 6

    def test_env_seed_used_and_flag_overrides(self, capsys, tmp_path, monkeypatch):
        path = write_matrix(tmp_path, random_metric(15, 2, seed=7))
        monkeypatch.setenv("LANDMARK_MINSUM_SEED", "9")
        code, stdout, _ = run_cli(
            capsys, "cluster", "--input", path, "--k", "2",
            "--landmarks", "3", "--threshold", "5",
        )
        assert json.loads(stdout)["params"]["seed"] == 9
        code, stdout, _ = run_cli(
            capsys, "cluster", "--input", path, "--k", "2",
            "--landmarks", "3", "--threshold", "5", "--seed", "4",
        )
        assert json.loads(stdout)["params"]["seed"] == 4


class TestSweepCommand:
    def test_sweep_with_stability(self, capsys, bundle_dir, tmp_path):
        out, inst = bundle_dir
        st = inst.stability
        code, stdout, _ = run_cli(
            capsys, "sweep", "--input", str(out / "matrix.csv"),
            "--k", "3", "--landmarks", "6",
            "--alpha", str(st.alpha), "--epsilon", str(st.epsilon),
            "--seed", "3",
        )
        assert code == 0
        payload = json.loads(stdout)
        assert payload["queries_issued"] == 6
        assert payload["chosen_T"] > 0
        assert len(payload["candidates_tried"]) == payload["runs_executed"]

    @pytest.mark.parametrize("k, bound", [("0", "0"), ("2", "5")],
                             ids=["k-zero", "bound-above-n"])
    def test_bad_k_or_bound_is_checked_before_the_distances(
        self, capsys, tmp_path, k, bound
    ):
        # the all-zero matrix has no positive distance, a DataError; a k or
        # b out of range is refused first, as `cluster` refuses --k 0
        path = write_matrix(tmp_path, MetricMatrix(np.zeros((3, 3))))
        code, stdout, err = run_cli(
            capsys, "sweep", "--input", path, "--k", k, "--landmarks", "2",
            "--stop-bound", bound,
        )
        assert code == 2 and stdout == ""
        assert json.loads(err)["error"] == "ParameterError"


class TestBaselineCommand:
    def test_baseline_runs(self, capsys, bundle_dir):
        out, _ = bundle_dir
        code, stdout, _ = run_cli(
            capsys, "baseline", "--input", str(out / "matrix.csv"),
            "--k", "3", "--landmarks", "5", "--seed", "1",
        )
        assert code == 0
        payload = json.loads(stdout)
        assert payload["queries_issued"] == 5
        assert sum(len(c) for c in payload["clusters"]) == 66

    @pytest.mark.parametrize("max_iters", ["0", "-4"])
    def test_max_iters_below_one_is_parameter_error(
        self, capsys, bundle_dir, max_iters
    ):
        out, _ = bundle_dir
        code, stdout, err = run_cli(
            capsys, "baseline", "--input", str(out / "matrix.csv"),
            "--k", "3", "--landmarks", "5", "--max-iters", max_iters,
        )
        assert code == 2 and stdout == ""
        payload = json.loads(err)
        assert payload["error"] == "ParameterError"
        assert "max_iters" in payload["message"]


@pytest.mark.parametrize("argv", [
    ["cluster", "--input", "{matrix}", "--k", "3", "--landmarks", "5",
     "--threshold", "30"],
    ["sweep", "--input", "{matrix}", "--k", "3", "--landmarks", "5",
     "--stop-bound", "3"],
    ["baseline", "--input", "{matrix}", "--k", "3", "--landmarks", "5"],
], ids=["cluster", "sweep", "baseline"])
def test_landmark_commands_share_params(capsys, bundle_dir, argv):
    # one setup: the same common params block, and one query per landmark
    out, _ = bundle_dir
    argv = [a.format(matrix=out / "matrix.csv") for a in argv]
    code, stdout, _ = run_cli(capsys, *argv, "--seed", "4")
    assert code == 0
    payload = json.loads(stdout)
    params = payload["params"]
    assert {"command", "version", "seed", "k", "landmarks"} <= params.keys()
    assert params["command"] == argv[0]
    assert params["version"] == landmark_minsum.__version__
    assert (params["seed"], params["k"]) == (4, 3)
    assert payload["queries_issued"] == params["landmarks"] == 5


class TestEvaluateCommand:
    def test_identical_labels_give_zero(self, capsys, bundle_dir, tmp_path):
        out, inst = bundle_dir
        clustering = {
            "n": inst.n,
            "clusters": [list(c) for c in inst.target.clusters],
            "unassigned": [],
            "warnings": [],
        }
        cpath = tmp_path / "c.json"
        cpath.write_text(json.dumps(clustering))
        code, stdout, _ = run_cli(
            capsys, "evaluate", "--clustering", str(cpath),
            "--labels", str(out / "labels.csv"),
            "--input", str(out / "matrix.csv"),
        )
        assert code == 0
        payload = json.loads(stdout)
        assert payload["dist_to_target"] == 0.0
        assert payload["psi"] / 2.0 <= payload["phi"] <= payload["psi"]

    def test_any_label_spelling_is_a_label(self, capsys, tmp_path):
        # --3 is a string label; 7 and 007 are two clusters
        labels = tmp_path / "labels.csv"
        labels.write_text("point_id,cluster_label\n0,--3\n1,--3\n2,7\n3,007\n")
        cpath = tmp_path / "c.json"
        cpath.write_text(json.dumps({"n": 4, "clusters": [[0, 1], [2, 3]]}))
        code, stdout, _ = run_cli(
            capsys, "evaluate", "--clustering", str(cpath), "--labels", str(labels)
        )
        assert code == 0
        assert json.loads(stdout)["dist_to_target"] == 0.25

    @pytest.mark.parametrize("flag", ["--clustering", "--against"])
    @pytest.mark.parametrize("text", [
        "not json", '{"clusters": [[0, 1]]}', '{"n": 2, "clusters": [[0, "x"]]}',
        "[0, 1]", '{"n": 2, "clusters": [[0, 1.7]]}',
        '{"n": 2, "clusters": [[0, true]]}', '{"n": -1, "clusters": []}',
        '{"n": 2, "clusters": [[0, 1]], "warnings": "oops"}',
        '{"n": 2, "clusters": [[0, 1]], "warnings": [1]}',
    ], ids=["not-json", "no-n", "bad-member", "not-object", "float-member",
            "bool-member", "negative-n", "string-warnings", "int-warning"])
    def test_malformed_clustering_json_is_data_error(
        self, capsys, tmp_path, text, flag
    ):
        good = tmp_path / "good.json"
        good.write_text(json.dumps({"n": 2, "clusters": [[0, 1]]}))
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        clustering, against = (bad, good) if flag == "--clustering" else (good, bad)
        code, _, err = run_cli(
            capsys, "evaluate", "--clustering", str(clustering),
            "--against", str(against),
        )
        assert code == 3
        payload = json.loads(err)
        assert payload["error"] == "DataError"
        assert str(bad) in payload["message"]

    @pytest.mark.parametrize("clustering, message", [
        ({"n": 2, "clusters": [[0, 5]]}, "point 5 outside [0,2)"),
        ({"n": 2, "clusters": [[0, 1], [1]]}, "point 1 appears in two clusters"),
        ({"n": 2, "clusters": [[0, 1]], "unassigned": [1]},
         "point 1 both clustered and unassigned"),
        ({"n": 3, "clusters": [[0, 2]]}, "point 1 missing from the clustering"),
    ], ids=["outside", "two-clusters", "clustered-and-unassigned", "missing"])
    def test_inconsistent_clustering_is_data_error(
        self, capsys, tmp_path, clustering, message
    ):
        good = tmp_path / "good.json"
        good.write_text(json.dumps({"n": clustering["n"], "clusters": [[0, 1]]}))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(clustering))
        code, _, err = run_cli(
            capsys, "evaluate", "--clustering", str(bad), "--against", str(good)
        )
        assert code == 3
        payload = json.loads(err)
        assert payload["error"] == "DataError"
        assert payload["message"] == message

    def test_against_with_labels_is_refused_before_reading(
        self, capsys, tmp_path
    ):
        code, stdout, err = run_cli(
            capsys, "evaluate", "--clustering", str(tmp_path / "absent.json"),
            "--against", str(tmp_path / "c.json"),
            "--labels", str(tmp_path / "absent.csv"),
        )
        assert code == 2 and stdout == ""
        payload = json.loads(err)
        assert payload["error"] == "ParameterError"
        assert "--against" in payload["message"]
        assert "--labels" in payload["message"]

    def test_requires_comparison_target(self, capsys, bundle_dir, tmp_path):
        out, inst = bundle_dir
        cpath = tmp_path / "c.json"
        cpath.write_text(json.dumps({"n": inst.n, "clusters": [[0]]}))
        code, _, err = run_cli(capsys, "evaluate", "--clustering", str(cpath))
        assert code == 2


class TestVerifyCommand:
    def test_bundle_verifies(self, capsys, bundle_dir):
        out, _ = bundle_dir
        code, stdout, _ = run_cli(capsys, "verify", "--input", str(out))
        assert code == 0
        payload = json.loads(stdout)
        assert payload["structure"] == {"part1": True, "part2": True,
                                        "part3": True}
        assert payload["metric_check"]["violations"] == 0

    @pytest.mark.parametrize("text", [
        "not json", '{"spec": {"theta": 1}}', '{"stability": {"alpha": 1}}',
        '{"core_members": [["x"]]}', '{"spec": {"sizes": [0], "theta": 1}}',
        "[1]", '{"core_members": [[0, 1.7]]}', '{"core_members": [["3"]]}',
        '{"core_members": [[-4]]}', '{"core_members": [[0, 1000000]]}',
    ], ids=["not-json", "spec-no-sizes", "stability-no-epsilon",
            "bad-core-member", "spec-out-of-range", "not-object",
            "float-core-member", "string-core-member", "negative-core-member",
            "core-member-past-n"])
    def test_malformed_instance_json_is_data_error(self, capsys, bundle_dir, text):
        out, _ = bundle_dir
        (out / "instance.json").write_text(text)
        code, _, err = run_cli(capsys, "verify", "--input", str(out))
        assert code == 3
        payload = json.loads(err)
        assert payload["error"] == "DataError"
        assert str(out / "instance.json") in payload["message"]

    def test_structure_witnesses_in_artifact(self, capsys, tmp_path):
        m, target, _ = structure_violation_case()
        labels = tmp_path / "labels.csv"
        write_labels_csv(labels, target.labels())
        code, stdout, _ = run_cli(
            capsys, "verify", "--input", write_matrix(tmp_path, m),
            "--labels", str(labels), "--alpha", "1", "--epsilon", "0.004",
        )
        assert code == 0
        payload = json.loads(stdout)
        assert payload["structure"] == {"part1": False, "part2": False,
                                        "part3": True}
        part1, part2 = payload["witnesses"]["part1"], payload["witnesses"]["part2"]
        assert (part1["cluster"], part1["pair"], part1["distance"]) == (
            0, [1, 2], 100.0
        )
        assert (part2["clusters"], part2["pair"], part2["distance"]) == (
            [0, 1], [2, 4], 0.5
        )
        assert "part3" not in payload["witnesses"]

    def test_triangle_violations_counted(self, capsys, tmp_path):
        # a non-metric input is audited, not refused: the artifact counts
        # its violating triples
        m = random_symmetric(40, seed=8)
        labels = tmp_path / "labels.csv"
        write_labels_csv(labels, [i % 2 for i in range(40)])
        code, stdout, _ = run_cli(
            capsys, "verify", "--input", write_matrix(tmp_path, m),
            "--labels", str(labels), "--alpha", "1", "--epsilon", "0.1",
        )
        assert code == 0
        violations = len(exhaustive_check_metric(m))
        assert violations > 0
        assert json.loads(stdout)["metric_check"] == {
            "mode": "exhaustive", "triples_checked": 9880, "violations": violations,
        }

    def test_stability_check_on_tiny_instance(self, capsys, tmp_path):
        inst = generate(InstanceSpec(sizes=(5, 4), theta=1.5, seed=11))
        out = tmp_path / "tiny"
        save_bundle(inst, out)
        code, stdout, _ = run_cli(
            capsys, "verify", "--input", str(out), "--check-stability",
        )
        assert code == 0
        assert json.loads(stdout)["stability_holds"] is True

    def test_stability_counterexample_on_uniform_metric(self, capsys, tmp_path):
        # every partition of the uniform metric is near optimal
        out = tmp_path / "uniform"
        save_bundle(generate_adversarial("uniform", n=9, k=2), out)
        code, stdout, _ = run_cli(
            capsys, "verify", "--input", str(out), "--check-stability",
            "--alpha", "1", "--epsilon", "0.2",
        )
        assert code == 0
        payload = json.loads(stdout)
        assert payload["stability_holds"] is False
        counterexample = payload["stability_counterexample"]
        assert counterexample["distance"] >= 0.2
        clusters = counterexample["clusters"]
        assert sorted(p for c in clusters for p in c) == list(range(9))

    def test_bundle_with_labels_is_refused_before_reading(
        self, capsys, bundle_dir, monkeypatch
    ):
        monkeypatch.setattr("landmark_minsum.cli.load_bundle", pytest.fail)
        out, _ = bundle_dir
        code, stdout, err = run_cli(
            capsys, "verify", "--input", str(out),
            "--labels", str(out / "absent.csv"),
        )
        assert code == 2 and stdout == ""
        payload = json.loads(err)
        assert payload["error"] == "ParameterError"
        assert "--input" in payload["message"]
        assert "--labels" in payload["message"]

    def test_stability_at_thirteen_points(self, capsys, tmp_path):
        # at k = 2 the walk holds 2^13 + 4,096 scores, far below the limit
        out = tmp_path / "n13"
        save_bundle(generate(InstanceSpec(sizes=(7, 6), theta=1.5, seed=11)), out)
        code, stdout, _ = run_cli(
            capsys, "verify", "--input", str(out), "--check-stability",
        )
        assert code == 0
        assert isinstance(json.loads(stdout)["stability_holds"], bool)

    def test_stability_walk_over_the_limit_is_parameter_error(
        self, capsys, tmp_path
    ):
        out = tmp_path / "n23"
        save_bundle(generate(InstanceSpec(sizes=(12, 11), theta=1.5, seed=11)), out)
        code, stdout, err = run_cli(
            capsys, "verify", "--input", str(out), "--check-stability",
        )
        assert code == 2 and stdout == ""
        payload = json.loads(err)
        assert payload["error"] == "ParameterError"
        assert "n=23, k=2 holds more than 2^23 scores" in payload["message"]

    def test_bundle_label_file_missing_point_is_data_error(
        self, capsys, bundle_dir
    ):
        out, inst = bundle_dir
        labels = out / "labels.csv"
        lines = labels.read_text().splitlines()
        labels.write_text("\n".join(l for l in lines if not l.startswith("7,")))
        code, _, err = run_cli(capsys, "verify", "--input", str(out))
        assert code == 3
        payload = json.loads(err)
        assert payload["error"] == "DataError"
        assert "misses point 7" in payload["message"]

    @pytest.mark.parametrize("extra", ["99,5", "-1,0"])
    def test_labels_id_out_of_range_is_data_error(self, capsys, tmp_path, extra):
        path = write_matrix(tmp_path, random_metric(8, 2, seed=12))
        labels = tmp_path / "labels.csv"
        labels.write_text(
            "point_id,cluster_label\n"
            + "\n".join(f"{i},{i % 2}" for i in range(8))
            + f"\n{extra}\n"
        )
        code, _, err = run_cli(
            capsys, "verify", "--input", path, "--labels", str(labels),
            "--alpha", "1.0", "--epsilon", "0.1",
        )
        assert code == 3
        payload = json.loads(err)
        assert payload["error"] == "DataError"
        assert "outside [0,8)" in payload["message"]

    def test_needs_stability_parameters(self, capsys, tmp_path):
        m = random_metric(8, 2, seed=12)
        path = write_matrix(tmp_path, m)
        labels = tmp_path / "labels.csv"
        labels.write_text(
            "point_id,cluster_label\n"
            + "\n".join(f"{i},{i % 2}" for i in range(8))
        )
        code, _, err = run_cli(
            capsys, "verify", "--input", path, "--labels", str(labels)
        )
        assert code == 2


@pytest.mark.parametrize("argv", [
    ["cluster", "--input", "{matrix}", "--k", "3", "--landmarks", "4",
     "--threshold", "5"],
    ["sweep", "--input", "{matrix}", "--k", "3", "--landmarks", "4",
     "--stop-bound", "3"],
    ["verify", "--input", "{bundle}"],
], ids=["cluster", "sweep", "verify"])
def test_delta_without_alpha_and_epsilon_is_parameter_error(
    capsys, bundle_dir, argv
):
    # a --delta that no stability parameters use is refused, not dropped
    out, _ = bundle_dir
    argv = [a.format(matrix=out / "matrix.csv", bundle=out) for a in argv]
    code, _, err = run_cli(capsys, *argv, "--delta", "0.5")
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "ParameterError"
    assert "--delta" in payload["message"]


@pytest.mark.parametrize("argv", [
    ["evaluate", "--clustering", "c.json", "--labels", "labels.csv"],
    ["ingest", "--input", "pairs.tsv", "--output", "matrix.csv"],
], ids=["evaluate", "ingest"])
def test_seed_refused_where_nothing_is_drawn(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", "3"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["generate", "--sizes", "5,4", "--theta", "1.0", "--output", "{tmp}/inst"],
    ["cluster", "--input", "{matrix}", "--k", "3", "--landmarks", "4",
     "--threshold", "5"],
    ["sweep", "--input", "{matrix}", "--k", "3", "--landmarks", "4",
     "--stop-bound", "3"],
    ["baseline", "--input", "{matrix}", "--k", "3", "--landmarks", "4"],
    ["verify", "--input", "{bundle}"],
], ids=["generate", "cluster", "sweep", "baseline", "verify"])
@pytest.mark.parametrize("source", ["--seed", "LANDMARK_MINSUM_SEED"])
def test_negative_seed_is_parameter_error(
    capsys, bundle_dir, tmp_path, monkeypatch, argv, source
):
    out, _ = bundle_dir
    argv = [a.format(matrix=out / "matrix.csv", bundle=out, tmp=tmp_path)
            for a in argv]
    if source == "--seed":
        argv += ["--seed", "-1"]
    else:
        monkeypatch.setenv(source, "-4")
    code, stdout, err = run_cli(capsys, *argv)
    assert code == 2 and stdout == ""
    payload = json.loads(err)
    assert payload["error"] == "ParameterError"
    assert payload["message"].startswith(f"{source} must be non-negative, got -")
    assert not (tmp_path / "inst").exists()


def test_readme_cli_examples_parse():
    # every command in the README's CLI block names only existing flags
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [
        shlex.split(line)
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("landmark-minsum ")
    ]
    assert len(commands) == 8
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])



class TestSharedParser:
    def test_calls_in_one_process_match_fresh_calls(self, capsys, tmp_path):
        # `main` parses with one parser per process; a failing call, in
        # `main` or in argparse, leaves it as it was
        path = write_matrix(tmp_path, random_metric(8, 2, seed=1))
        calls = [
            ["cluster", "--input", path, "--k", "2", "--landmarks", "3"],
            ["cluster", "--input", path, "--k", "2", "--landmarks", "3",
             "--threshold", "5.0", "--seed", "1"],
            ["cluster", "--k"],
            ["sweep", "--input", path, "--k", "2", "--landmarks", "3",
             "--stop-bound", "1", "--seed", "1", "--format", "compact"],
            ["--version"],
        ]

        def call(argv):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage errors and --version
                code = exc.code
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        shared = [call(argv) for argv in calls]
        fresh = []
        for argv in calls:
            build_parser.cache_clear()
            fresh.append(call(argv))
        assert shared == fresh
        assert [code for code, _, _ in shared] == [2, 0, 2, 0, 0]
        assert build_parser() is build_parser()

class TestMissingInput:
    @pytest.mark.parametrize("reader", ["matrix", "labels", "clustering", "bundle"])
    def test_missing_file_is_data_error(self, capsys, bundle_dir, tmp_path, reader):
        out, inst = bundle_dir
        good = tmp_path / "good.json"
        good.write_text(json.dumps({"n": inst.n, "clusters": [list(range(inst.n))]}))
        missing = tmp_path / "missing"
        argv = {
            "matrix": ["verify", "--input", str(missing)],
            "labels": ["evaluate", "--clustering", str(good),
                       "--labels", str(missing)],
            "clustering": ["evaluate", "--clustering", str(missing),
                           "--against", str(good)],
            "bundle": ["verify", "--input", str(out)],
        }[reader]
        if reader == "bundle":
            missing = out / "matrix.csv"
            missing.unlink()
        code, _, err = run_cli(capsys, *argv)
        assert code == 3
        payload = json.loads(err)
        assert payload["error"] == "DataError"
        assert f"{missing}: cannot open" in payload["message"]

    @pytest.mark.parametrize("argv", [
        ["cluster", "--input", "{twin}", "--k", "3", "--landmarks", "4",
         "--threshold", "5"],
        ["sweep", "--input", "{twin}", "--k", "3", "--landmarks", "4",
         "--stop-bound", "3"],
        ["verify", "--input", "{matrix}", "--labels", "{twin}",
         "--alpha", "1", "--epsilon", "0.1"],
        ["ingest", "--input", "{twin}", "--output", "{tmp}/m.csv"],
    ], ids=["cluster", "sweep", "verify-labels", "ingest"])
    def test_binary_file_is_data_error(self, capsys, bundle_dir, tmp_path, argv):
        # the matrix's binary twin, passed where a text file goes
        out, _ = bundle_dir
        twin = out / "matrix.csv.f8"
        argv = [a.format(twin=twin, matrix=out / "matrix.csv", tmp=tmp_path)
                for a in argv]
        code, stdout, err = run_cli(capsys, *argv)
        assert code == 3 and stdout == ""
        payload = json.loads(err)
        assert payload["error"] == "DataError"
        # "not utf-8 text" under a UTF-8 locale
        assert payload["message"].startswith(f"{twin}: not ")
        assert " text: " in payload["message"]
        assert not (tmp_path / "m.csv").exists()


@pytest.mark.parametrize("argv, path", [
    (["cluster", "--input", "{matrix}", "--k", "3", "--landmarks", "5",
      "--threshold", "30", "--output", "{tmp}/nodir/c.json"], "nodir/c.json"),
    (["ingest", "--input", "{tsv}", "--output", "{tmp}/nodir/m.csv"],
     "nodir/m.csv"),
    (["ingest", "--input", "{tsv}", "--output", "{tmp}/m.csv",
      "--ids-output", "{tmp}/nodir/ids.csv"], "nodir/ids.csv"),
    (["generate", "--sizes", "5,5", "--theta", "1", "--output", "{tmp}/a_file"],
     "a_file"),
], ids=["cluster-output", "ingest-output", "ingest-ids-output", "generate-onto-file"])
def test_unwritable_output_is_data_error(capsys, bundle_dir, tmp_path, argv, path):
    out, _ = bundle_dir
    tsv = tmp_path / "pairs.tsv"
    tsv.write_text("id_a\tid_b\tbit_score\na\tb\t50\n")
    (tmp_path / "a_file").write_text("")
    argv = [a.format(matrix=out / "matrix.csv", tsv=tsv, tmp=tmp_path) for a in argv]
    code, stdout, err = run_cli(capsys, *argv)
    assert code == 3 and stdout == ""
    payload = json.loads(err)
    assert payload["error"] == "DataError"
    assert payload["message"].startswith(f"{tmp_path / path}: cannot write: ")


class TestIngestCommand:
    def test_round_trip(self, capsys, tmp_path):
        tsv = tmp_path / "pairs.tsv"
        tsv.write_text("id_a\tid_b\tbit_score\na\tb\t50\nb\tc\t25\n")
        out = tmp_path / "matrix.csv"
        ids = tmp_path / "ids.csv"
        code, stdout, _ = run_cli(
            capsys, "ingest", "--input", str(tsv), "--output", str(out),
            "--ids-output", str(ids),
        )
        assert code == 0
        m = MetricMatrix.from_csv(out)
        assert m.values[0, 1] == 0.02
        assert m.values[1, 2] == 0.04
        assert math.isinf(m.values[0, 2])
        assert "a" in ids.read_text()

    @pytest.mark.parametrize("unwritable", ["ids", "matrix"])
    def test_unwritable_output_leaves_no_file(self, capsys, tmp_path, unwritable):
        tsv = tmp_path / "pairs.tsv"
        tsv.write_text("id_a\tid_b\tbit_score\na\tb\t50\n")
        out = tmp_path / ("nodir/m.csv" if unwritable == "matrix" else "m.csv")
        ids = tmp_path / ("nodir/i.csv" if unwritable == "ids" else "i.csv")
        code, stdout, err = run_cli(
            capsys, "ingest", "--input", str(tsv), "--output", str(out),
            "--ids-output", str(ids),
        )
        assert code == 3 and stdout == ""
        assert json.loads(err)["error"] == "DataError"
        assert list(tmp_path.iterdir()) == [tsv]

    def test_unwritable_twin_leaves_no_file(self, capsys, tmp_path):
        # a directory where the matrix's binary twin goes
        tsv = tmp_path / "pairs.tsv"
        tsv.write_text("id_a\tid_b\tbit_score\na\tb\t50\n")
        twin = tmp_path / "m.csv.f8"
        twin.mkdir()
        code, stdout, err = run_cli(
            capsys, "ingest", "--input", str(tsv), "--output",
            str(tmp_path / "m.csv"), "--ids-output", str(tmp_path / "i.csv"),
        )
        assert code == 3 and stdout == ""
        payload = json.loads(err)
        assert payload["error"] == "DataError"
        assert payload["message"].startswith(f"{twin}: cannot write: ")
        assert sorted(tmp_path.iterdir()) == [twin, tsv]
        assert list(twin.iterdir()) == []

    def test_one_file_for_both_outputs_is_refused(self, capsys, tmp_path):
        out = tmp_path / "m.csv"
        code, stdout, err = run_cli(
            capsys, "ingest", "--input", str(tmp_path / "absent.tsv"),
            "--output", str(out), "--ids-output", str(tmp_path / "." / "m.csv"),
        )
        assert code == 2 and stdout == ""
        payload = json.loads(err)
        assert payload["error"] == "ParameterError"
        assert "--output" in payload["message"]
        assert "--ids-output" in payload["message"]
        assert list(tmp_path.iterdir()) == []

    def test_ids_output_on_the_binary_twin_is_refused(self, capsys, tmp_path):
        # the twin would overwrite the ids file that is open for writing
        code, stdout, err = run_cli(
            capsys, "ingest", "--input", str(tmp_path / "absent.tsv"),
            "--output", str(tmp_path / "m.csv"),
            "--ids-output", str(tmp_path / "m.csv.f8"),
        )
        assert code == 2 and stdout == ""
        payload = json.loads(err)
        assert payload["error"] == "ParameterError"
        assert "--output" in payload["message"]
        assert "--ids-output" in payload["message"]
        assert list(tmp_path.iterdir()) == []

    def test_missing_output_is_refused_before_reading(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "ingest", "--input", str(tmp_path / "absent.tsv")
        )
        assert code == 2
        assert json.loads(err)["error"] == "ParameterError"

    def test_text_is_utf8_under_a_c_locale(self, tmp_path):
        # without UTF-8 mode, a C locale makes the locale's encoding ASCII
        tsv = tmp_path / "pairs.tsv"
        tsv.write_bytes("id_a\tid_b\tbit_score\nés\tb\t50\n".encode())
        src = os.path.dirname(os.path.dirname(landmark_minsum.__file__))
        ids = {}
        for utf8 in ("0", "1"):
            env = dict(os.environ, PYTHONPATH=src, LC_ALL="C", PYTHONUTF8=utf8,
                       PYTHONCOERCECLOCALE="0")
            ids[utf8] = tmp_path / f"ids{utf8}.csv"
            done = subprocess.run(
                [sys.executable, "-m", "landmark_minsum.cli", "ingest",
                 "--input", str(tsv), "--output", str(tmp_path / f"m{utf8}.csv"),
                 "--ids-output", str(ids[utf8])],
                env=env, capture_output=True, text=True,
            )
            assert done.returncode == 0, done.stderr
        assert ids["0"].read_bytes() == ids["1"].read_bytes()
        assert "és".encode() in ids["0"].read_bytes()

    def test_bad_file_is_data_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("only\ttwo\n")
        out = tmp_path / "matrix.csv"
        code, _, err = run_cli(
            capsys, "ingest", "--input", str(bad), "--output", str(out)
        )
        assert code == 3
        assert json.loads(err)["error"] == "DataError"


class TestPipeline:
    def test_generate_cluster_evaluate_round_trip(self, capsys, tmp_path):
        # end-to-end: generate -> cluster with derived T* -> evaluate vs labels
        inst_dir = tmp_path / "inst"
        code, stdout, _ = run_cli(
            capsys, "generate", "--sizes", "40,30,20", "--theta", "5.0",
            "--bad-fraction", "0.02", "--seed", "8", "--output", str(inst_dir),
        )
        assert code == 0
        gen = json.loads(stdout)
        st = gen["stability"]

        from landmark_minsum import (
            MatrixDistanceSource, balanced_k_median, classify_points,
            load_bundle, StabilityParams,
        )
        inst = load_bundle(inst_dir)
        psi = balanced_k_median(inst.target, inst.matrix).value
        params = StabilityParams(**st)
        report = classify_points(inst.matrix, inst.target, params)

        cpath = tmp_path / "clustering.json"
        code, stdout, _ = run_cli(
            capsys, "cluster", "--input", str(inst_dir / "matrix.csv"),
            "--k", "3", "--landmarks", "8",
            "--opt", str(psi), "--alpha", str(st["alpha"]),
            "--epsilon", str(st["epsilon"]), "--seed", "3",
            "--output", str(cpath),
        )
        assert code == 0

        code, stdout, _ = run_cli(
            capsys, "evaluate", "--clustering", str(cpath),
            "--labels", str(inst_dir / "labels.csv"),
        )
        assert code == 0
        dist = json.loads(stdout)["dist_to_target"]
        bound = (report.b_observed + params.epsilon * inst.n) / inst.n
        assert dist <= bound


# every subcommand once, at n <= 200, in a process where importing scipy fails
_NO_SCIPY_RUN = """
import sys
sys.modules["scipy"] = None
from importlib import resources
from pathlib import Path
from landmark_minsum.cli import main

tmp = Path(sys.argv[1])
tsv = resources.files("landmark_minsum").joinpath("data/toy_scores.tsv")
runs = [
    ["generate", "--sizes", "40,30,20", "--theta", "5", "--bad-fraction",
     "0.02", "--seed", "8", "--output", tmp / "b3"],
    ["generate", "--sizes", "10,10,10,10,10,10,10,10", "--theta", "5",
     "--seed", "3", "--output", tmp / "b8"],
    ["generate", "--sizes", "5,4", "--theta", "1.5", "--seed", "11",
     "--output", tmp / "tiny"],
    ["cluster", "--input", tmp / "b8/matrix.csv", "--k", "8",
     "--landmarks", "16", "--threshold", "5", "--output", tmp / "c.json"],
    ["sweep", "--input", tmp / "b3/matrix.csv", "--k", "3",
     "--landmarks", "8", "--stop-bound", "5"],
    ["baseline", "--input", tmp / "b8/matrix.csv", "--k", "8",
     "--landmarks", "16", "--output", tmp / "base.json"],
    ["evaluate", "--clustering", tmp / "c.json", "--labels",
     tmp / "b8/labels.csv", "--input", tmp / "b8/matrix.csv"],
    ["evaluate", "--clustering", tmp / "c.json", "--against",
     tmp / "base.json"],
    ["verify", "--input", tmp / "tiny", "--check-stability"],
    ["ingest", "--input", tsv, "--output", tmp / "toy.csv"],
]
for argv in runs:
    code = main([str(a) for a in argv])
    assert code == 0, (argv, code)
"""


def test_cli_import_loads_no_scipy(tmp_path):
    # scipy is a test-only dependency: no subcommand may need it
    src = os.path.dirname(os.path.dirname(landmark_minsum.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_RUN, str(tmp_path)],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
