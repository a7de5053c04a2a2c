import base64
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mmmspace import (
    FiniteMmmSpace, MarkSpace, ParameterError, euclidean_cloud, load_space, save_space,
)
from mmmspace.serialize import (
    _upper_values,
    dumps,
    from_upper_triangle,
    load_path,
    measure_from_obj,
    measure_to_obj,
    metric_from_obj,
    metric_to_obj,
    space_from_obj,
    space_to_obj,
)

from conftest import nan_cloud, random_space, two_point


def test_floats_round_trip_exactly():
    values = [1 / 3, math.pi, 0.1, 1e-17, 2**53 - 1.0, 4.9e-324, 1.0, -0.0, 1e16]
    text = dumps({"v": values})
    assert text == ('{"v": [0.3333333333333333, 3.141592653589793, 0.1, 1e-17, '
                    '9007199254740991.0, 5e-324, 1.0, -0.0, 1e+16]}')
    back = json.loads(text)["v"]
    assert [type(x) for x in back] == [float] * len(values)
    assert [x.hex() for x in back] == [x.hex() for x in values]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(x=st.floats(allow_nan=False, allow_infinity=False))
def test_every_finite_float_reads_back_as_the_same_float(x):
    back = json.loads(dumps(x))
    assert type(back) is float and back.hex() == x.hex()


def test_numpy_values_are_written_as_their_python_values():
    values = [np.float32(0.1), np.int64(-7), np.bool_(True), np.array(2.5),
              np.array([[1.0, -0.0], [1 / 3, 4.0]]), np.arange(3)]
    for v in values:
        assert dumps(v) == json.dumps(v.tolist())


def test_nan_and_inf_rejected():
    for bad in (float("nan"), float("inf"), np.float64(-np.inf),
                np.array([0.5, np.nan]), [[1.0], np.array([np.inf])]):
        with pytest.raises(ParameterError, match="not JSON compliant"):
            dumps({"v": bad})
    with pytest.raises(ParameterError, match="cannot serialize set"):
        dumps({"v": {1, 2}})


def test_upper_triangle_round_trip():
    rng = np.random.default_rng(1)
    for n in (1, 2, 5):
        pts = rng.uniform(size=(n, 2))
        d = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(2))
        np.fill_diagonal(d, 0.0)
        flat = _upper_values(d).tolist()
        assert len(flat) == n * (n - 1) // 2
        assert np.array_equal(from_upper_triangle(flat, n), d)


def test_space_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(8)
    for k in range(8):
        s = random_space(rng)
        path = tmp_path / f"s{k}.json"
        save_space(s, path)
        t = load_space(path)
        assert t == s  # value equality includes label
        assert np.array_equal(t.distances, s.distances)
        assert np.array_equal(t.weights, s.weights)


def test_euclidean_marks_round_trip(tmp_path):
    s = FiniteMmmSpace(
        distances=np.array([[0.0, 1.0], [1.0, 0.0]]),
        marks=((0.1, -0.2), (1 / 3, 2.5)),
        weights=np.array([0.5, 0.5]),
        mark_space=MarkSpace.euclidean(2),
        label="eu",
    )
    path = tmp_path / "eu.json"
    save_space(s, path)
    assert load_space(path) == s


def test_schema_checked():
    obj = space_to_obj(two_point())
    obj["schema"] = "mmm-space/v999"
    with pytest.raises(ParameterError, match="schema"):
        space_from_obj(obj)


def test_output_is_valid_json_with_sorted_structure(tmp_path):
    s = two_point()
    path = tmp_path / "a.json"
    save_space(s, path)
    obj = json.loads(path.read_text())
    assert obj["schema"] == "mmm-space/v2"
    assert obj["n"] == 2
    assert obj["distances"] == base64.b64encode(struct.pack("<d", 1.0)).decode("ascii")
    assert obj["distances"] == "AAAAAAAA8D8="
    assert obj["weights"] == [0.5, 0.5]


def test_v2_round_trip_keeps_every_bit(tmp_path):
    # -0.0, the smallest subnormal, a near-overflow value and a non-dyadic one
    n = 5
    vals = np.array([-0.0, 5e-324, 1e308, 1 / 3, 0.0, 2.5, -0.0, 5e-324, 1e308, 1 / 3])
    d = np.zeros((n, n))
    d[np.triu_indices(n, 1)] = vals
    d.T[np.triu_indices(n, 1)] = vals
    s = FiniteMmmSpace(distances=d, marks=("a",) * n, weights=np.full(n, 0.2),
                       mark_space=MarkSpace.discrete(("a",)), label="bits")
    path = tmp_path / "bits.json"
    save_space(s, path)
    t = load_space(path)
    assert t.distances.tobytes() == s.distances.tobytes()
    assert t.weights.tobytes() == s.weights.tobytes()
    assert np.signbit(t.distances[0, 1]) and np.signbit(t.distances[1, 0])
    raw = base64.b64decode(json.loads(path.read_text())["distances"])
    assert raw == vals.astype("<f8").tobytes()
    save_space(t, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_v1_files_are_still_read(tmp_path):
    # a file as earlier versions wrote it: the triangle as JSON numbers,
    # among them an integer and -0.0
    path = tmp_path / "v1.json"
    path.write_text(
        '{"schema": "mmm-space/v1", "label": "old", '
        '"mark_space": {"kind": "euclidean", "dim": 2}, "n": 3, '
        '"weights": [0.25, 0.25, 0.5], "marks": [[0.1, -0.2], [1.0, 2.0], [0.0, 0.0]], '
        '"distances": [1, -0.0, 0.3333333333333333]}\n'
    )
    old = load_space(path)
    assert old.distances.tolist() == [[0.0, 1.0, -0.0], [1.0, 0.0, 1 / 3], [-0.0, 1 / 3, 0.0]]
    assert np.signbit(old.distances[0, 2]) and np.signbit(old.distances[2, 0])
    assert old.marks == ((0.1, -0.2), (1.0, 2.0), (0.0, 0.0))
    save_space(old, tmp_path / "v2.json")
    assert json.loads((tmp_path / "v2.json").read_text())["schema"] == "mmm-space/v2"
    new = load_space(tmp_path / "v2.json")
    assert new == old
    assert new.distances.tobytes() == old.distances.tobytes()
    assert new.weights.tobytes() == old.weights.tobytes()


def v2_obj_with_distances(payload):
    obj = space_to_obj(euclidean_cloud(4, 2, seed=1))
    obj["distances"] = payload
    return obj


def test_v2_payload_must_be_a_string():
    with pytest.raises(ParameterError, match="must be a base64 string, got list"):
        space_from_obj(v2_obj_with_distances([1.0] * 6))


def test_v2_payload_must_be_base64():
    good = v2_obj_with_distances(None)
    for bad in ("not base64!", "AAAA" * 11 + "A", "AAAAAAAA8D8=" * 4 + "é"):
        with pytest.raises(ParameterError, match="distances are not base64"):
            space_from_obj({**good, "distances": bad})


def test_v2_payload_must_hold_the_whole_triangle():
    whole = space_to_obj(euclidean_cloud(4, 2, seed=1))["distances"]
    assert len(base64.b64decode(whole)) == 8 * 6
    for payload in (base64.b64encode(base64.b64decode(whole)[:40]).decode(),
                    base64.b64encode(base64.b64decode(whole) + b"\0" * 8).decode(), ""):
        with pytest.raises(ParameterError, match="for 4 points need 48 bytes"):
            space_from_obj(v2_obj_with_distances(payload))


def test_save_space_refuses_non_finite_entries_before_writing(tmp_path):
    path = tmp_path / "nan.json"
    with pytest.raises(ParameterError, match=r"space 'nan': d\(0,1\) = nan is not finite"):
        save_space(nan_cloud(), path)
    assert not path.exists()
    # space_to_obj stays a plain conversion: the NaN is in the payload
    raw = base64.b64decode(space_to_obj(nan_cloud())["distances"])
    assert math.isnan(np.frombuffer(raw, dtype="<f8")[0])


def test_metric_and_measure_round_trip():
    d = np.array([[0.0, 0.25], [0.25, 0.0]])
    m2 = metric_from_obj(metric_to_obj(d))
    assert np.array_equal(m2, d)
    atoms, probs = measure_from_obj(measure_to_obj([0, 1], [0.75, 0.25]))
    assert atoms.tolist() == [0, 1]
    assert probs.tolist() == [0.75, 0.25]


def test_load_path_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(json.JSONDecodeError):
        load_path(bad)
    for token in ("NaN", "Infinity", "-Infinity"):
        bad.write_text('{"x": [1.0, %s]}' % token)
        with pytest.raises(ParameterError, match=f"{token} is not a finite JSON number"):
            load_path(bad)
