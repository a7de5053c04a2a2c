"""End-to-end tests for the `mmm` command line front end."""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from mmmspace import FiniteMmmSpace, MarkSpace, euclidean_cloud, load_space, save_space
from mmmspace.cli import replay, run
from mmmspace.serialize import dump_path, sha256_path, space_to_obj

from conftest import AB_MARKS, nan_cloud, two_point


@pytest.fixture
def ab_space(tmp_path):
    path = tmp_path / "ab.json"
    save_space(two_point(marks=("a", "b"), mark_space=AB_MARKS, label="ab"),
               path)
    return path


@pytest.fixture
def ab2_space(tmp_path):
    path = tmp_path / "ab2.json"
    save_space(two_point(d=2.0, marks=("a", "b"), mark_space=AB_MARKS,
                         label="ab2"), path)
    return path


def run_cli(capsys, *argv):
    code = run([str(t) for t in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- validate ----------------------------------------------------------------


def test_validate_ok(capsys, ab_space, tmp_path):
    out = tmp_path / "report.json"
    code, stdout, _ = run_cli(capsys, "validate", "--space", ab_space,
                              "--out", out)
    assert code == 0
    report = json.loads(stdout)
    assert report["ok"] is True
    assert report["n"] == 2
    assert report["violations"] == []
    assert out.read_text() == stdout
    assert (tmp_path / "report.json.manifest.json").exists()


def test_validate_flags_triangle_violation(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    dump_path(
        {
            "schema": "mmm-space/v1",
            "label": "broken",
            "mark_space": {"kind": "discrete", "labels": ["a"]},
            "n": 3,
            "weights": [1 / 3, 1 / 3, 1 / 3],
            "marks": ["a", "a", "a"],
            "distances": [1.0, 1.0, 5.0],
        },
        bad,
    )
    code, stdout, stderr = run_cli(capsys, "validate", "--space", bad)
    assert code == 1
    assert stdout == ""
    report = json.loads(stderr)
    assert report["ok"] is False
    assert report["error"] == "invariant-violation"
    kinds = {v["kind"] for v in report["violations"]}
    assert "triangle" in kinds
    worst = report["violations"][0]
    assert set(worst) == {"kind", "indices", "magnitude", "message"}


# --- sample --------------------------------------------------------------------


def test_sample_lines_and_seed_resolution(capsys, ab_space, monkeypatch):
    code, out1, _ = run_cli(capsys, "sample", "--space", ab_space,
                            "--n", 3, "--count", 4, "--seed", 3)
    assert code == 0
    lines = out1.strip().split("\n")
    assert len(lines) == 4
    for line in lines:
        rec = json.loads(line)
        assert rec["n"] == 3
        assert len(rec["dist_upper"]) == 3
        assert len(rec["marks"]) == 3
        assert set(rec["marks"]) <= {"a", "b"}

    code, out2, _ = run_cli(capsys, "sample", "--space", ab_space,
                            "--n", 3, "--count", 4, "--seed", 3)
    assert out2 == out1

    monkeypatch.setenv("MMM_SEED", "3")
    code, out3, _ = run_cli(capsys, "sample", "--space", ab_space,
                            "--n", 3, "--count", 4)
    assert out3 == out1

    monkeypatch.setenv("MMM_SEED", "4")
    code, out4, _ = run_cli(capsys, "sample", "--space", ab_space,
                            "--n", 3, "--count", 4)
    assert out4 != out1


def test_sample_writes_file_instead_of_stdout(capsys, ab_space, tmp_path):
    out = tmp_path / "draws.jsonl"
    code, stdout, _ = run_cli(capsys, "sample", "--space", ab_space,
                              "--n", 2, "--count", 3, "--seed", 1,
                              "--out", out)
    assert code == 0
    assert stdout == ""
    assert len(out.read_text().strip().split("\n")) == 3
    manifest = json.loads((tmp_path / "draws.jsonl.manifest.json").read_text())
    assert manifest["schema"] == "mmm-manifest/v1"
    assert manifest["command"] == "sample"
    assert str(ab_space) in manifest["inputs"]
    assert manifest["outputs"][str(out)] == sha256_path(out)


# --- poly-eval -------------------------------------------------------------------


def test_poly_eval_exact_column(capsys, ab_space):
    code, stdout, _ = run_cli(capsys, "poly-eval", "--space", ab_space,
                              "--n-max", 2, "--size", 3, "--mc", 50,
                              "--seed", 0)
    assert code == 0
    rows = list(csv.reader(stdout.strip().split("\n")))
    assert rows[0] == ["polynomial", "exact", "mc_estimate", "mc_stderr"]
    assert rows[1][0] == "ind[u1=a]"
    assert float(rows[1][1]) == pytest.approx(0.5, abs=1e-15)
    assert len(rows) == 4
    for row in rows[1:]:
        assert row[1] != ""  # tiny space: every cell is exact
        assert abs(float(row[2]) - float(row[1])) <= 6 * float(row[3]) + 1e-9


def test_poly_eval_unknown_panel(capsys, ab_space):
    code, _, stderr = run_cli(capsys, "poly-eval", "--space", ab_space,
                              "--panel", "exotic")
    assert code == 1
    assert json.loads(stderr)["error"] == "bad-parameter"


# --- prohorov ---------------------------------------------------------------------


def test_prohorov_from_files(capsys, tmp_path):
    metric = tmp_path / "metric.json"
    dump_path({"schema": "mmm-metric/v1", "n": 2,
               "matrix": [[0.0, 1.0], [1.0, 0.0]]}, metric)
    p = tmp_path / "p.json"
    dump_path({"schema": "mmm-measure/v1", "atoms": [0, 1],
               "probs": [0.75, 0.25]}, p)
    q = tmp_path / "q.json"
    dump_path({"schema": "mmm-measure/v1", "atoms": [0, 1],
               "probs": [0.25, 0.75]}, q)
    code, stdout, _ = run_cli(capsys, "prohorov", "--metric", metric,
                              "--p", p, "--q", q)
    assert code == 0
    result = json.loads(stdout)
    assert result["value"] == pytest.approx(0.5, abs=1e-12)
    witness = np.asarray(result["witness"])
    assert witness.shape == (2, 2)
    assert np.abs(witness.sum(axis=1) - [0.75, 0.25]).max() <= 1e-10


def test_prohorov_rejects_atoms_outside_the_metric(capsys, tmp_path):
    metric = tmp_path / "metric.json"
    dump_path({"schema": "mmm-metric/v1", "n": 3,
               "matrix": [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]}, metric)
    p = tmp_path / "p.json"
    dump_path({"schema": "mmm-measure/v1", "atoms": [5], "probs": [1.0]}, p)
    q = tmp_path / "q.json"
    dump_path({"schema": "mmm-measure/v1", "atoms": [0, 1], "probs": [0.5, 0.5]}, q)
    code, stdout, stderr = run_cli(capsys, "prohorov", "--metric", metric, "--p", p, "--q", q)
    assert (code, stdout) == (1, "")
    payload = json.loads(stderr)
    assert payload["error"] == "bad-marginal"
    assert payload["detail"] == "atom index 5 is outside the 3-point metric"


def test_nan_tokens_in_input_files_are_rejected(capsys, tmp_path):
    metric = tmp_path / "metric.json"
    metric.write_text('{"schema": "mmm-metric/v1", "n": 2, "matrix": [[0.0, NaN], [1.0, 0.0]]}')
    p = tmp_path / "p.json"
    dump_path({"schema": "mmm-measure/v1", "atoms": [0, 1], "probs": [0.5, 0.5]}, p)
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"leaves": 5, "theta": float("inf")}))
    for argv in (("prohorov", "--metric", metric, "--p", p, "--q", p),
                 ("simulate", "--model", "kingman", "--params", params,
                  "--out", tmp_path / "x.json")):
        code, stdout, stderr = run_cli(capsys, *argv)
        assert (code, stdout) == (1, "")
        payload = json.loads(stderr)
        assert payload["error"] == "bad-parameter"
        assert "is not a finite JSON number" in payload["detail"]


# --- dist --------------------------------------------------------------------------


def test_dist_self_is_zero(capsys, ab_space):
    code, stdout, _ = run_cli(capsys, "dist", "--a", ab_space, "--b", ab_space,
                              "--seed", 0)
    assert code == 0
    result = json.loads(stdout)
    assert result["upper"] <= 1e-9
    assert result["lower"] <= result["upper"] + 1e-12
    assert result["exact"] is None


def test_dist_exact_flag(capsys, ab_space, ab2_space):
    code, stdout, _ = run_cli(capsys, "dist", "--a", ab_space,
                              "--b", ab2_space, "--exact", "--seed", 0)
    assert code == 0
    result = json.loads(stdout)
    assert result["exact"] == pytest.approx(0.5, abs=1e-9)
    assert result["slack"] <= 1e-9
    assert np.asarray(result["witness_cross"]).shape == (2, 2)
    coupling = np.asarray(result["witness_coupling"])
    assert coupling.sum() == pytest.approx(1.0, abs=1e-10)


def test_validate_rejects_nan_distance(capsys, tmp_path):
    bad = tmp_path / "nan.json"
    bad.write_text(
        '{"schema": "mmm-space/v1", "label": "nan", '
        '"mark_space": {"kind": "discrete", "labels": ["a", "b"]}, "n": 2, '
        '"weights": [0.5, 0.5], "marks": ["a", "b"], "distances": [NaN]}\n'
    )
    code, stdout, stderr = run_cli(capsys, "validate", "--space", bad)
    assert code == 1
    assert stdout == ""
    report = json.loads(stderr)
    assert report["error"] == "invariant-violation"
    assert {v["kind"] for v in report["violations"]} == {"non-finite"}


def test_dist_and_test_reject_nan_distance(capsys, tmp_path):
    cloud = euclidean_cloud(6, 2, seed=4)
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    save_space(cloud, good)
    obj = space_to_obj(cloud)
    obj["distances"][0] = float("nan")  # d(0, 1)
    bad.write_text(json.dumps(obj))
    for argv in (("dist", "--a", bad, "--b", good),
                 ("test", "--a", good, "--b", bad, "--m", 20, "--perms", 99)):
        code, stdout, stderr = run_cli(capsys, *argv)
        assert code == 1
        assert stdout == ""
        report = json.loads(stderr)
        assert report["error"] == "bad-parameter"
        assert "d(0,1) = nan is not finite" in report["detail"]


def test_validate_manifest_replays(capsys, ab_space, tmp_path):
    out = tmp_path / "report.json"
    assert run_cli(capsys, "validate", "--space", ab_space, "--out", out)[0] == 0
    manifest = tmp_path / "report.json.manifest.json"
    assert "--seed" not in json.loads(manifest.read_text())["argv"]
    digest = sha256_path(out)
    out.write_text("scribble")
    assert replay(manifest) == 0
    capsys.readouterr()
    assert sha256_path(out) == digest


# --- tightness ------------------------------------------------------------------------


def test_tightness_writes_curves_and_verdicts(capsys, tmp_path):
    family = tmp_path / "family"
    family.mkdir()
    for k in (1, 2, 4):
        save_space(
            two_point(d=1.0 / k, marks=("a", "b"), mark_space=AB_MARKS,
                      label=f"pair-{k}"),
            family / f"pair{k}.json",
        )
    out = tmp_path / "tight"
    code, _, _ = run_cli(capsys, "tightness", "--spaces", family,
                         "--eps", "0.5,2.0", "--delta", "0.25,0.6",
                         "--mark-labels", "a,b", "--out", out)
    assert code == 0
    curves = (out / "tightness_curves.csv").read_text()
    rows = list(csv.reader(curves.strip().split("\n")))
    assert rows[0] == ["curve", "eps_or_threshold", "delta", "value"]
    names = {r[0] for r in rows[1:]}
    assert names == {"modulus", "distance_tail", "mark_tail"}
    verdicts = json.loads((out / "tightness_verdicts.json").read_text())
    assert verdicts["tightness_consistent"] is True
    assert len(verdicts["spaces"]) == 3
    manifest = out / "tightness_curves.csv.manifest.json"
    digests = json.loads(manifest.read_text())["outputs"]
    for path in digests:
        Path(path).write_text("scribble")
    assert replay(manifest) == 0
    assert {p: sha256_path(p) for p in digests} == digests


def test_tightness_rejects_nan_distance(capsys, tmp_path):
    family = tmp_path / "family"
    family.mkdir()
    (family / "nan.json").write_text(json.dumps(space_to_obj(nan_cloud())))
    code, stdout, stderr = run_cli(capsys, "tightness", "--spaces", family,
                                   "--eps", "0.5", "--delta", "0.25",
                                   "--out", tmp_path / "tight")
    assert (code, stdout) == (1, "")
    report = json.loads(stderr)
    assert report["error"] == "bad-parameter"
    assert "d(0,1) = nan is not finite" in report["detail"]


# --- simulate and replay -----------------------------------------------------------------


def test_simulate_validate_and_replay(capsys, tmp_path):
    params = tmp_path / "params.json"
    params.write_text('{"leaves": 6, "theta": 1.0}\n')
    out = tmp_path / "king.json"
    code, _, _ = run_cli(capsys, "simulate", "--model", "kingman",
                         "--params", params, "--seed", 9, "--out", out)
    assert code == 0
    space = load_space(out)
    assert space.n == 6
    assert space.label == "kingman-n6-seed9"
    code, stdout, _ = run_cli(capsys, "validate", "--space", out)
    assert code == 0
    assert json.loads(stdout)["ok"] is True

    first = out.read_bytes()
    digest = sha256_path(out)
    out.write_text("scribble")
    code = replay(tmp_path / "king.json.manifest.json")
    capsys.readouterr()
    assert code == 0
    assert out.read_bytes() == first
    assert sha256_path(out) == digest


def test_simulate_seed_changes_output(capsys, tmp_path):
    outs = []
    for seed in (1, 2):
        out = tmp_path / f"cloud{seed}.json"
        code, _, _ = run_cli(capsys, "simulate", "--model", "cloud",
                             "--params", write_params(tmp_path, seed,
                                                      {"n": 5, "dim": 2}),
                             "--seed", seed, "--out", out)
        assert code == 0
        outs.append(out.read_text())
    assert outs[0] != outs[1]


def write_params(tmp_path, tag, obj):
    path = tmp_path / f"params-{tag}.json"
    path.write_text(json.dumps(obj) + "\n")
    return path


def test_simulate_rejects_bad_params(capsys, tmp_path):
    params = write_params(tmp_path, "bad", {"wrong_field": 3})
    code, _, stderr = run_cli(capsys, "simulate", "--model", "kingman",
                              "--params", params,
                              "--out", tmp_path / "x.json")
    assert code == 1
    payload = json.loads(stderr)
    assert payload["error"] == "bad-parameter"
    assert "kingman" in payload["detail"]


# --- test and converge ----------------------------------------------------------------------


def test_two_sample_subcommand(capsys, ab_space, ab2_space, tmp_path):
    out = tmp_path / "test.json"
    code, stdout, _ = run_cli(capsys, "test", "--a", ab_space,
                              "--b", ab2_space, "--m", 60, "--perms", 99,
                              "--seed", 2, "--out", out)
    assert code == 0
    result = json.loads(stdout)
    assert 0.01 <= result["p_value"] <= 1.0
    assert result["order"] == 2
    assert result["samples"] == 60
    assert result["feature"] == "sorted-distances+sorted-mark-embeddings"
    assert out.read_text() == stdout


def test_converge_table_and_trends(capsys, ab_space, tmp_path):
    seq = tmp_path / "seq"
    seq.mkdir()
    for k, w in enumerate((0.8, 0.6, 0.52)):
        save_space(
            two_point(weights=(w, 1.0 - w), marks=("a", "b"),
                      mark_space=AB_MARKS, label=f"step-{k}"),
            seq / f"{k}.json",
        )
    out = tmp_path / "conv.csv"
    code, _, _ = run_cli(capsys, "converge", "--seq", seq,
                         "--target", ab_space, "--n-max", 2, "--size", 2,
                         "--mc", 100, "--seed", 0, "--out", out)
    assert code == 0
    rows = list(csv.reader(out.read_text().strip().split("\n")))
    assert rows[0] == ["space", "polynomial", "estimate", "stderr",
                       "target", "gap"]
    assert len(rows) == 1 + 3 * 2
    assert rows[1][0] == "step-0"
    sidecar = json.loads((tmp_path / "conv_trends.json").read_text())
    assert sidecar["trends"] == ["decreasing", "decreasing"]

    # byte-identical replay of both outputs
    before = (out.read_bytes(), (tmp_path / "conv_trends.json").read_bytes())
    out.write_text("scribble")
    code = replay(tmp_path / "conv.csv.manifest.json")
    capsys.readouterr()
    assert code == 0
    assert (out.read_bytes(),
            (tmp_path / "conv_trends.json").read_bytes()) == before


# --- exit codes ------------------------------------------------------------------------------


def test_usage_errors_exit_two(capsys):
    assert run_cli(capsys, "no-such-command")[0] == 2
    assert run_cli(capsys, "sample", "--space", "x.json")[0] == 2  # missing --n
    assert run_cli(capsys, "simulate", "--model", "weird",
                   "--out", "x.json")[0] == 2  # not in choices


def test_missing_file_exits_one(capsys, tmp_path):
    code, _, stderr = run_cli(capsys, "validate", "--space",
                              tmp_path / "ghost.json")
    assert code == 1
    assert json.loads(stderr)["error"] == "bad-input"


def test_memory_error_exits_one(capsys, ab_space, monkeypatch):
    def exhausted(space, tol):
        raise MemoryError("Unable to allocate 11.9 GiB")

    monkeypatch.setattr("mmmspace.cli.validate", exhausted)
    code, stdout, stderr = run_cli(capsys, "validate", "--space", ab_space)
    assert code == 1
    assert stdout == ""
    assert json.loads(stderr) == {"error": "too-large",
                                  "detail": "MemoryError: Unable to allocate 11.9 GiB"}


def test_threads_flag(capsys, ab_space):
    code, _, stderr = run_cli(capsys, "--threads", 0, "validate",
                              "--space", ab_space)
    assert code == 1
    assert json.loads(stderr)["error"] == "bad-parameter"
    code, out_a, _ = run_cli(capsys, "--threads", 2, "validate",
                             "--space", ab_space)
    assert code == 0
    code, out_b, _ = run_cli(capsys, "validate", "--space", ab_space)
    assert out_a == out_b
