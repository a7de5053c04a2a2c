"""End-to-end tests for the `mmm` command line front end."""

import base64
import csv
import json
import time
from pathlib import Path

import numpy as np
import pytest

import mmmspace.cli
from mmmspace import FiniteMmmSpace, MarkSpace, euclidean_cloud, load_space, save_space
from mmmspace.cli import replay, run
from mmmspace.serialize import dump_path, dumps, sha256_path, space_to_obj

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


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_validate_rejects_a_bad_tol(capsys, tmp_path, tol):
    # with --tol nan every comparison was false and a broken space read ok
    bad = tmp_path / "bad.json"
    dump_path({"schema": "mmm-space/v1", "label": "broken",
               "mark_space": {"kind": "discrete", "labels": ["a"]}, "n": 3,
               "weights": [1 / 3, 1 / 3, 1 / 3], "marks": ["a", "a", "a"],
               "distances": [1.0, 1.0, 5.0]}, bad)
    code, stdout, stderr = run_cli(capsys, "validate", "--space", bad, "--tol", tol)
    assert (code, stdout) == (1, "")
    report = json.loads(stderr)
    assert report["error"] == "bad-parameter"
    assert "tol must be finite and nonnegative" in report["detail"]


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
        # one float format: each CSV cell is that float's JSON text
        assert all(dumps(float(cell)) == cell for cell in row[1:])


def test_poly_eval_rejects_a_single_draw(capsys, ab_space, tmp_path):
    # no NaN standard error in mc_stderr: one draw is a bad parameter
    code, stdout, stderr = run_cli(capsys, "poly-eval", "--space", ab_space,
                                   "--n-max", 2, "--size", 2, "--mc", 1,
                                   "--out", tmp_path / "poly.csv")
    assert (code, stdout) == (1, "")
    payload = json.loads(stderr)
    assert payload["error"] == "bad-parameter"
    assert "at least two Monte Carlo draws" in payload["detail"]
    assert not list(tmp_path.glob("poly.csv*"))


@pytest.mark.parametrize("command, argv, detail", [
    ("sample", ("--n", 0, "--count", 3), "order and sample count must be >= 1"),
    ("sample", ("--n", 2, "--count", 0), "order and sample count must be >= 1"),
    ("sample", ("--n", 2, "--count", -1), "order and sample count must be >= 1"),
    ("poly-eval", ("--n-max", 0, "--size", 3, "--mc", 10), "n_max and panel size must be >= 1"),
    # every cell here is exact, so --mc 0 used to go unchecked
    ("converge", ("--n-max", 2, "--size", 2, "--mc", 0), "at least two Monte Carlo draws"),
])
def test_bad_counts_exit_one(capsys, ab_space, tmp_path, command, argv, detail):
    if command == "converge":
        seq = tmp_path / "seq"
        seq.mkdir()
        save_space(load_space(ab_space), seq / "0.json")
        inputs = ("--seq", seq, "--target", ab_space)
    else:
        inputs = ("--space", ab_space)
    out = tmp_path / "out.txt"
    code, stdout, stderr = run_cli(capsys, command, *inputs, *argv, "--out", out)
    assert (code, stdout) == (1, "")
    payload = json.loads(stderr)
    assert payload["error"] == "bad-parameter"
    assert detail in payload["detail"]
    assert not list(tmp_path.glob("out.txt*"))


@pytest.mark.parametrize("command, argv", [
    ("sample", ("--space", "{neg}", "--n", 2, "--count", 5)),
    ("poly-eval", ("--space", "{neg}", "--n-max", 2, "--size", 3, "--mc", 10)),
    ("test", ("--a", "{neg}", "--b", "{neg}", "--m", 20, "--perms", 99)),
])
def test_sampling_commands_reject_a_negative_weight(capsys, tmp_path, command, argv):
    # sample and poly-eval exited with numpy's "bad-input", and test drew
    # from canonical forms without the negative atom
    neg = tmp_path / "neg.json"
    save_space(FiniteMmmSpace(distances=np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.5],
                                                  [2.0, 1.5, 0.0]]),
                              marks=("a", "b", "a"), weights=np.array([0.6, 0.6, -0.2]),
                              mark_space=AB_MARKS, label="neg"), neg)
    out = tmp_path / "out.txt"
    argv = [str(neg) if t == "{neg}" else t for t in argv]
    code, stdout, stderr = run_cli(capsys, command, *argv, "--out", out)
    assert (code, stdout) == (1, "")
    assert json.loads(stderr) == {"error": "bad-parameter",
                                  "detail": "space 'neg': weight 2 = -0.2 is negative"}
    assert not list(tmp_path.glob("out.txt*"))


def test_poly_eval_unknown_panel(capsys, ab_space):
    # there is no --panel option: the default panel is the only one
    for panel in ("exotic", "default"):
        code, stdout, stderr = run_cli(capsys, "poly-eval", "--space", ab_space,
                                       "--panel", panel)
        assert code == 2
        assert stdout == "" and stderr.startswith("usage: mmm")


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


def test_prohorov_rejects_fractional_atoms(capsys, tmp_path):
    metric = tmp_path / "metric.json"
    dump_path({"schema": "mmm-metric/v1", "n": 2, "matrix": [[0.0, 1.0], [1.0, 0.0]]}, metric)
    p = tmp_path / "p.json"
    dump_path({"schema": "mmm-measure/v1", "atoms": [0.9], "probs": [1.0]}, p)
    q = tmp_path / "q.json"
    dump_path({"schema": "mmm-measure/v1", "atoms": [1.5], "probs": [1.0]}, q)
    code, stdout, stderr = run_cli(capsys, "prohorov", "--metric", metric, "--p", p, "--q", q)
    assert (code, stdout) == (1, "")
    assert json.loads(stderr) == {"error": "bad-marginal",
                                  "detail": "atoms must be whole numbers within int64"}


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
    # the relation scan finishes on this pair, so the bounds are the value
    assert result["lower"] == result["exact"] == result["upper"]
    assert result["slack"] == 0.0


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


def test_dist_exact_rejects_a_negative_budget(capsys, ab_space, ab2_space, tmp_path):
    out = tmp_path / "exact.json"
    code, stdout, stderr = run_cli(capsys, "dist", "--a", ab_space, "--b", ab2_space,
                                   "--exact", "--budget", -5, "--out", out)
    assert code == 1 and stdout == "" and not out.exists()
    assert json.loads(stderr) == {"error": "bad-parameter",
                                  "detail": "budget must be a nonnegative integer, not -5"}


def test_dist_rejects_a_budget_without_exact(capsys, ab_space, ab2_space, tmp_path):
    out = tmp_path / "bounds.json"
    for budget in (-5, 3):
        code, stdout, stderr = run_cli(capsys, "dist", "--a", ab_space, "--b", ab2_space,
                                       "--budget", budget, "--out", out)
        assert code == 1 and stdout == "" and not out.exists()
        assert json.loads(stderr) == {"error": "bad-parameter",
                                      "detail": "--budget applies only with --exact"}


def test_dist_output_does_not_depend_on_the_seed(capsys, tmp_path):
    # --seed stays parseable for old manifests but reaches no MGP bound; on
    # this pair, bounds drawn from random candidates differ between seeds
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_space(euclidean_cloud(8, 2, "sign", seed=2), a)
    save_space(euclidean_cloud(8, 2, "sign", seed=52), b)
    outs = [run_cli(capsys, "dist", "--a", a, "--b", b, "--seed", seed)
            for seed in (0, 5)]
    assert outs[0][0] == 0
    assert outs[0] == outs[1]


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


def test_validate_reports_an_all_zero_space_briefly(capsys, tmp_path):
    # 499 500 duplicate pairs: 100 listed plus the count (8.6 s and a 63 MB
    # report when every pair was listed)
    n = 1000
    zero = tmp_path / "zero1000.json"
    save_space(FiniteMmmSpace(distances=np.zeros((n, n)), marks=("a",) * n,
                              weights=np.full(n, 1 / n),
                              mark_space=MarkSpace.discrete(("a",))), zero)
    start = time.perf_counter()
    code, stdout, stderr = run_cli(capsys, "validate", "--space", zero)
    assert time.perf_counter() - start < 5.0
    assert (code, stdout) == (1, "")
    assert len(stderr) < 100_000
    report = json.loads(stderr)
    assert report["detail"] == "points 0,1 at distance 0 share a mark"
    assert len(report["violations"]) == 101
    assert report["violations"][-1]["message"] == (
        "499500 pairs of points at distance 0 share a mark, the first 100 and the largest listed")


def test_validate_reports_an_all_nan_space_briefly(capsys, tmp_path):
    # 999 000 NaN distances: 100 listed plus the count, not one per entry
    n = 1000
    bad = tmp_path / "nan1000.json"
    space = FiniteMmmSpace(distances=np.full((n, n), np.nan), marks=("a",) * n,
                           weights=np.full(n, 1 / n), mark_space=MarkSpace.discrete(("a",)))
    bad.write_text(json.dumps(space_to_obj(space), allow_nan=True))
    start = time.perf_counter()
    code, stdout, stderr = run_cli(capsys, "validate", "--space", bad)
    assert time.perf_counter() - start < 5.0  # 15 s when every entry was listed
    assert code == 1 and stdout == ""
    assert len(stderr) < 100_000
    report = json.loads(stderr)
    assert report["detail"] == "d(0,1) = nan is not finite"
    assert len(report["violations"]) == 101
    assert report["violations"][-1]["message"] == (
        "999000 entries are not finite, the first 100 and the largest listed")


def test_dist_names_the_space_whose_weights_do_not_sum_to_one(capsys, tmp_path, ab_space):
    heavy = tmp_path / "heavy.json"
    save_space(two_point(weights=(1.0, 1.0), marks=("a", "b"), mark_space=AB_MARKS,
                         label="heavy"), heavy)
    for argv in (("--a", heavy, "--b", ab_space), ("--a", ab_space, "--b", heavy),
                 ("--a", heavy, "--b", ab_space, "--exact")):
        code, stdout, stderr = run_cli(capsys, "dist", *argv)
        assert code == 1 and stdout == ""
        assert json.loads(stderr) == {
            "error": "bad-marginal",
            "detail": "space 'heavy': probabilities sum to 2.0, not 1",
        }


def test_dist_and_test_reject_nan_distance(capsys, tmp_path):
    cloud = euclidean_cloud(6, 2, seed=4)
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    save_space(cloud, good)
    obj = space_to_obj(cloud)
    vals = np.frombuffer(base64.b64decode(obj["distances"]), dtype="<f8").copy()
    vals[0] = np.nan  # d(0, 1)
    obj["distances"] = base64.b64encode(vals.tobytes()).decode("ascii")
    bad.write_text(json.dumps(obj))
    for argv in (("dist", "--a", bad, "--b", good),
                 ("test", "--a", good, "--b", bad, "--m", 20, "--perms", 99)):
        code, stdout, stderr = run_cli(capsys, *argv)
        assert code == 1
        assert stdout == ""
        report = json.loads(stderr)
        assert report["error"] == "bad-parameter"
        assert "d(0,1) = nan is not finite" in report["detail"]


def test_validate_reports_nan_inside_a_v2_payload(capsys, tmp_path):
    # space_to_obj writes what it is given; the NaN travels in the base64 bytes
    bad = tmp_path / "nan.json"
    obj = space_to_obj(nan_cloud())
    assert obj["schema"] == "mmm-space/v2" and isinstance(obj["distances"], str)
    bad.write_text(json.dumps(obj))
    assert "NaN" not in bad.read_text()
    code, stdout, stderr = run_cli(capsys, "validate", "--space", bad)
    assert (code, stdout) == (1, "")
    report = json.loads(stderr)
    assert report["error"] == "invariant-violation"
    assert report["detail"] == "d(0,1) = nan is not finite"
    assert {v["kind"] for v in report["violations"]} == {"non-finite"}
    assert [v["indices"] for v in report["violations"]] == [[0, 1], [1, 0]]


@pytest.mark.parametrize("payload, detail", [
    ([0.5] * 15, "must be a base64 string, got list"),
    ("AAAA*AAA", "distances are not base64"),
    ("AAAAAAAA8D8=", "for 6 points need 120 bytes, got 8"),
], ids=["not-a-string", "bad-base64", "wrong-length"])
def test_malformed_v2_payload_is_a_bad_parameter(capsys, tmp_path, payload, detail):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**space_to_obj(euclidean_cloud(6, 2, seed=4)),
                               "distances": payload}))
    for argv in (("validate", "--space", bad), ("dist", "--a", bad, "--b", bad)):
        code, stdout, stderr = run_cli(capsys, *argv)
        assert (code, stdout) == (1, "")
        report = json.loads(stderr)
        assert report["error"] == "bad-parameter"
        assert detail in report["detail"]


def test_validate_lists_a_hundred_triangles_on_a_line(capsys, tmp_path):
    # 400 sorted points on a line at tol 0: 427 290 triples whose rounded
    # excess d(i,k) - (d(i,j) + d(j,k)) is above 0, of which only the first
    # 100, the worst and a count are listed
    x = np.sort(np.random.default_rng(1).uniform(0, 100, 400))
    line = tmp_path / "line.json"
    save_space(FiniteMmmSpace(distances=np.abs(np.subtract.outer(x, x)), marks=("a",) * 400,
                              weights=np.full(400, 1 / 400),
                              mark_space=MarkSpace.discrete(("a",))), line)
    start = time.perf_counter()
    code, stdout, stderr = run_cli(capsys, "validate", "--space", line, "--tol", 0)
    assert time.perf_counter() - start < 5.0
    assert (code, stdout) == (1, "")
    assert len(stderr) < 100_000
    report = json.loads(stderr)
    triangles = report["violations"]
    assert {v["kind"] for v in triangles} == {"triangle"}
    assert len(triangles) == 102  # the worst triple lies past the first 100
    assert [tuple(v["indices"]) for v in triangles[:100]] == sorted(
        tuple(v["indices"]) for v in triangles[:100])
    assert triangles[-1]["message"] == ("427290 triples violate the triangle inequality, "
                                        "the first 100 and the largest listed")
    assert max(triangles, key=lambda v: v["magnitude"]) == triangles[100]
    assert report["detail"] == triangles[100]["message"]


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


def test_out_may_not_name_an_input(capsys, ab_space, ab2_space, tmp_path):
    before = ab_space.read_bytes()
    for argv in (("validate", "--space", ab_space, "--out", ab_space),
                 ("dist", "--a", ab2_space, "--b", ab_space,
                  "--out", tmp_path / "sub" / ".." / ab_space.name),
                 ("sample", "--space", ab_space, "--n", 2, "--count", 3, "--out", ab_space)):
        code, stdout, stderr = run_cli(capsys, *argv)
        assert (code, stdout) == (1, "")
        payload = json.loads(stderr)
        assert payload["error"] == "bad-parameter"
        assert payload["detail"].endswith("would overwrite an input")
        assert ab_space.read_bytes() == before
    assert not list(tmp_path.glob("*.manifest.json"))


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
    # a label set has no radius, so its tail row leaves that cell empty
    assert [r for r in rows if r[0] == "mark_tail"] == [["mark_tail", "", "", "0.0"]]
    verdicts = json.loads((out / "tightness_verdicts.json").read_text())
    assert verdicts["tightness_consistent"] is True
    assert len(verdicts["spaces"]) == 3
    manifest = out / "tightness_curves.csv.manifest.json"
    digests = json.loads(manifest.read_text())["outputs"]
    for path in digests:
        Path(path).write_text("scribble")
    assert replay(manifest) == 0
    assert {p: sha256_path(p) for p in digests} == digests
    # Euclidean marks keep their radii in that cell
    clouds = tmp_path / "clouds"
    clouds.mkdir()
    for k in (1, 2):
        save_space(euclidean_cloud(5, 2, "point", seed=k), clouds / f"cloud{k}.json")
    code, _, _ = run_cli(capsys, "tightness", "--spaces", clouds, "--eps", "0.5",
                         "--delta", "0.25", "--mark-radii", "0.5,2.0",
                         "--out", tmp_path / "tight_clouds")
    assert code == 0
    curves = (tmp_path / "tight_clouds" / "tightness_curves.csv").read_text()
    rows = list(csv.reader(curves.strip().split("\n")))
    assert [r[1] for r in rows if r[0] == "mark_tail"] == ["0.5", "2.0"]


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


def test_tightness_rejects_nan_eps(capsys, tmp_path):
    # the tail grid defaults to eps, and a NaN threshold read as a tail of 0
    family = tmp_path / "family"
    family.mkdir()
    save_space(two_point(marks=("a", "b"), mark_space=AB_MARKS), family / "ab.json")
    code, stdout, stderr = run_cli(capsys, "tightness", "--spaces", family,
                                   "--eps", "nan", "--delta", "0.05",
                                   "--out", tmp_path / "tight")
    assert (code, stdout) == (1, "")
    assert json.loads(stderr)["error"] == "bad-parameter"
    assert not (tmp_path / "tight").exists()


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


def test_simulate_writes_v2(capsys, tmp_path):
    out = tmp_path / "cloud.json"
    code, _, _ = run_cli(capsys, "simulate", "--model", "cloud",
                         "--params", write_params(tmp_path, "v2", {"n": 5, "dim": 2}),
                         "--seed", 3, "--out", out)
    assert code == 0
    obj = json.loads(out.read_text())
    assert obj["schema"] == "mmm-space/v2"
    assert len(base64.b64decode(obj["distances"], validate=True)) == 8 * 10
    assert load_space(out) == euclidean_cloud(5, 2, seed=3)


def test_simulate_refuses_a_non_finite_space(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(mmmspace.cli, "euclidean_cloud", lambda **params: nan_cloud())
    out = tmp_path / "nan.json"
    code, stdout, stderr = run_cli(capsys, "simulate", "--model", "cloud",
                                   "--params", write_params(tmp_path, "nan", {"n": 6}),
                                   "--out", out)
    assert (code, stdout) == (1, "")
    assert json.loads(stderr) == {"error": "bad-parameter",
                                  "detail": "space 'nan': d(0,1) = nan is not finite"}
    assert not out.exists()
    assert not (tmp_path / "nan.json.manifest.json").exists()


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


def test_simulate_creates_a_missing_output_directory(capsys, tmp_path):
    out = tmp_path / "new" / "deeper" / "cloud.json"
    params = write_params(tmp_path, "cloud", {"n": 4, "dim": 2})
    code, stdout, stderr = run_cli(capsys, "simulate", "--model", "cloud",
                                   "--params", params, "--seed", 1, "--out", out)
    assert (code, stdout, stderr) == (0, "", "")
    assert load_space(out).n == 4
    assert (out.parent / "cloud.json.manifest.json").exists()


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
    # there is no --threads option: everything runs single-threaded
    code, stdout, stderr = run_cli(capsys, "--threads", 2, "validate",
                                   "--space", ab_space)
    assert code == 2
    assert stdout == "" and stderr.startswith("usage: mmm")


# --- manifests ---------------------------------------------------------------------------------


@pytest.fixture
def cli_inputs(tmp_path, ab_space, ab2_space):
    family = tmp_path / "family"
    family.mkdir()
    for k in (1, 2, 4):
        save_space(two_point(d=1.0 / k, marks=("a", "b"), mark_space=AB_MARKS,
                             label=f"pair-{k}"), family / f"pair{k}.json")
    metric, p, q = tmp_path / "metric.json", tmp_path / "p.json", tmp_path / "q.json"
    dump_path({"schema": "mmm-metric/v1", "n": 2, "matrix": [[0.0, 1.0], [1.0, 0.0]]}, metric)
    dump_path({"schema": "mmm-measure/v1", "atoms": [0, 1], "probs": [0.75, 0.25]}, p)
    dump_path({"schema": "mmm-measure/v1", "atoms": [0, 1], "probs": [0.25, 0.75]}, q)
    return {"ab": ab_space, "ab2": ab2_space, "family": family, "metric": metric,
            "p": p, "q": q, "params": write_params(tmp_path, "tree", {"leaves": 5})}


# (name, argv without --out, whether --out is optional, number of outputs)
MANIFEST_COMMANDS = [
    ("validate", ["validate", "--space", "{ab}"], True, 1),
    ("sample", ["sample", "--space", "{ab}", "--n", "2", "--count", "3"], True, 1),
    ("poly-eval", ["poly-eval", "--space", "{ab}", "--n-max", "2", "--size", "3",
                   "--mc", "50"], True, 1),
    ("prohorov", ["prohorov", "--metric", "{metric}", "--p", "{p}", "--q", "{q}"], True, 1),
    ("dist", ["dist", "--a", "{ab}", "--b", "{ab2}"], True, 1),
    ("dist-exact", ["dist", "--a", "{ab}", "--b", "{ab2}", "--exact"], True, 1),
    ("tightness", ["tightness", "--spaces", "{family}", "--eps", "0.5,2.0",
                   "--delta", "0.25,0.6", "--mark-labels", "a"], False, 2),
    ("simulate", ["simulate", "--model", "kingman", "--params", "{params}"], False, 1),
    ("test", ["test", "--a", "{ab}", "--b", "{ab2}", "--m", "40", "--perms", "99"], True, 1),
    ("converge", ["converge", "--seq", "{family}", "--n-max", "2", "--size", "2",
                  "--mc", "50"], False, 1),
    ("converge-target", ["converge", "--seq", "{family}", "--target", "{ab}",
                         "--n-max", "2", "--size", "2", "--mc", "50"], False, 2),
]


@pytest.mark.parametrize("name, argv, optional_out, n_outputs", MANIFEST_COMMANDS,
                         ids=[c[0] for c in MANIFEST_COMMANDS])
def test_every_manifest_replays(capsys, monkeypatch, tmp_path, cli_inputs,
                                name, argv, optional_out, n_outputs):
    argv = [t.format(**cli_inputs) for t in argv]
    monkeypatch.chdir(tmp_path)
    if optional_out:
        before = sorted(tmp_path.rglob("*"))
        code, stdout, _ = run_cli(capsys, *argv)
        assert code == 0 and stdout != ""
        assert sorted(tmp_path.rglob("*")) == before
    assert run_cli(capsys, *argv, "--out", tmp_path / "out" / name)[0] == 0
    [manifest] = (tmp_path / "out").rglob("*.manifest.json")
    recorded = json.loads(manifest.read_text())["outputs"]
    assert len(recorded) == n_outputs
    assert {p: sha256_path(p) for p in recorded} == recorded
    for path in recorded:
        Path(path).write_text("scribble")
    assert replay(manifest) == 0
    capsys.readouterr()
    assert {p: sha256_path(p) for p in recorded} == recorded
