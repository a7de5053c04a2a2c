import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mmmspace import FiniteMmmSpace, MarkSpace, ParameterError, load_space, save_space
from mmmspace.serialize import (
    dumps,
    from_upper_triangle,
    load_path,
    measure_from_obj,
    measure_to_obj,
    metric_from_obj,
    metric_to_obj,
    space_from_obj,
    space_to_obj,
    upper_triangle,
)

from conftest import random_space, two_point


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
        flat = upper_triangle(d)
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
    assert obj["schema"] == "mmm-space/v1"
    assert obj["n"] == 2
    assert obj["distances"] == [1]
    assert obj["weights"] == [0.5, 0.5]


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
