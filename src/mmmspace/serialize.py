"""JSON interchange for spaces, measures, metrics, and results.

Schema names are versioned ("mmm-space/v2" etc).  The writer is the
standard library's JSON encoder: floats go out as Python's shortest
round-trip ``repr`` (``0.1``, ``1.0``, ``-0.0``, ``1e+16``), which reads
back as the same IEEE double, and NaN or infinity is refused.  numpy
arrays and scalars are written as their ``tolist()`` values.  The reader
is plain JSON.

A space's distances travel as the strict upper triangle in row-major
order.  "mmm-space/v2", the only space schema written, stores it as one
ASCII base64 string of little-endian float64 bytes, so the round trip is
bit-exact by construction and costs no float text; `save_space` refuses a
space with a NaN or infinite entry before writing.  "mmm-space/v1" files,
which hold the triangle as a JSON list of numbers, are still read.
"""

from __future__ import annotations

import base64
import hashlib
import json
from typing import Any

import numpy as np

from .core import FiniteMmmSpace, MarkSpace, _require_finite
from .errors import ParameterError

SPACE_SCHEMA = "mmm-space/v2"
SPACE_SCHEMA_V1 = "mmm-space/v1"
METRIC_SCHEMA = "mmm-metric/v1"
MEASURE_SCHEMA = "mmm-measure/v1"
MANIFEST_SCHEMA = "mmm-manifest/v1"


# ---------------------------------------------------------------------------
# writer
# ---------------------------------------------------------------------------

def _plain(obj: Any) -> Any:
    """numpy arrays and scalars as their Python values (``tolist``)."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise ParameterError(f"cannot serialize {type(obj).__name__}")


def dumps(obj: Any) -> str:
    """Serialize to JSON, floats as their shortest round-trip ``repr``;
    NaN and infinities raise ParameterError."""
    try:
        return json.dumps(obj, allow_nan=False, default=_plain)
    except ValueError as exc:
        raise ParameterError(str(exc)) from None


def dump_path(obj: Any, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))
        fh.write("\n")


def load_path(path: str) -> Any:
    """Parse a JSON file; the tokens NaN, Infinity, -Infinity raise ParameterError."""

    def reject(token):
        raise ParameterError(f"{path}: {token} is not a finite JSON number")

    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, parse_constant=reject)


def sha256_path(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# mark spaces and spaces
# ---------------------------------------------------------------------------

def mark_space_to_obj(ms: MarkSpace) -> dict:
    if ms.kind == "discrete":
        return {"kind": "discrete", "labels": list(ms.labels)}
    return {"kind": "euclidean", "dim": ms.dim}


def mark_space_from_obj(obj: dict) -> MarkSpace:
    kind = obj.get("kind")
    if kind == "discrete":
        return MarkSpace.discrete(tuple(obj["labels"]))
    if kind == "euclidean":
        return MarkSpace.euclidean(int(obj["dim"]))
    raise ParameterError(f"unknown mark space kind {kind!r}")


def _upper_values(d: np.ndarray) -> np.ndarray:
    """The strict upper triangle of ``d`` in row-major order, as float64."""
    # row slices, not np.triu_indices: two n^2/2 index arrays would outweigh
    # the values themselves
    d = np.asarray(d, dtype=float)
    return np.concatenate([d[i, i + 1:] for i in range(d.shape[0])] or [np.zeros(0)])


def _payload(d: np.ndarray) -> str:
    """The strict upper triangle in row-major order as the ASCII base64
    string of its little-endian float64 (``<f8``) bytes: the ``distances``
    of an "mmm-space/v2" file."""
    return base64.b64encode(_upper_values(d).astype("<f8", copy=False).tobytes()).decode("ascii")


def _payload_values(payload, n: int) -> np.ndarray:
    """Decode an "mmm-space/v2" ``distances`` payload for ``n`` points;
    ParameterError for a non-string, bad base64 or a byte count other than
    8 n (n - 1) / 2."""
    if not isinstance(payload, str):
        raise ParameterError(
            f"mmm-space/v2 distances must be a base64 string, got {type(payload).__name__}"
        )
    try:
        raw = base64.b64decode(payload, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise ParameterError(f"mmm-space/v2 distances are not base64: {exc}") from None
    need = 8 * (n * (n - 1) // 2)
    if len(raw) != need:
        raise ParameterError(
            f"mmm-space/v2 distances for {n} points need {need} bytes, got {len(raw)}"
        )
    return np.frombuffer(raw, dtype="<f8")


def from_upper_triangle(vals, n: int) -> np.ndarray:
    """The symmetric n x n matrix, zero on the diagonal, whose strict upper
    triangle in row-major order is ``vals`` (numbers, or an array such as
    `_payload_values` gives).  Each value is copied into both of its
    entries, so -0.0, subnormals and NaN keep their bits."""
    need = n * (n - 1) // 2
    vals = (vals if isinstance(vals, np.ndarray)
            else np.fromiter(map(float, vals), dtype=float))
    if vals.size != need:
        raise ParameterError(
            f"upper triangle for {n} points needs {need} entries, got {vals.size}"
        )
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)
    d = np.zeros((n, n))
    d[upper] = vals
    d.T[upper] = vals  # the upper triangle of d.T in row-major order is d's lower one
    return d


def marks_to_obj(marks, ms: MarkSpace) -> list:
    """Marks as JSON values: Euclidean marks become lists."""
    return [list(m) if ms.kind == "euclidean" else m for m in marks]


def space_to_obj(space: FiniteMmmSpace) -> dict:
    return {
        "schema": SPACE_SCHEMA,
        "label": space.label,
        "mark_space": mark_space_to_obj(space.mark_space),
        "n": space.n,
        "weights": [float(w) for w in space.weights],
        "marks": marks_to_obj(space.marks, space.mark_space),
        "distances": _payload(space.distances),
    }


def space_from_obj(obj: dict) -> FiniteMmmSpace:
    """Read an "mmm-space/v2" object, or an "mmm-space/v1" one, whose
    distances are a list of numbers."""
    schema = obj.get("schema")
    if schema not in (SPACE_SCHEMA, SPACE_SCHEMA_V1):
        raise ParameterError(
            f"expected schema {SPACE_SCHEMA} or {SPACE_SCHEMA_V1}, got {schema!r}"
        )
    ms = mark_space_from_obj(obj["mark_space"])
    n = int(obj["n"])
    marks = [tuple(m) if ms.kind == "euclidean" else m for m in obj["marks"]]
    vals = obj["distances"]
    if schema == SPACE_SCHEMA:
        vals = _payload_values(vals, n)
    return FiniteMmmSpace(
        distances=from_upper_triangle(vals, n),
        marks=tuple(marks),
        weights=np.asarray(obj["weights"], dtype=float),
        mark_space=ms,
        label=str(obj.get("label", "")),
    )


def space_text(space: FiniteMmmSpace) -> str:
    """The "mmm-space/v2" file text of a space, newline included.  A NaN or
    infinite distance, weight or Euclidean mark coordinate raises
    ParameterError naming it (`FiniteMmmSpace._first_non_finite`), since
    the base64 payload would carry it silently."""
    _require_finite(space)
    return dumps(space_to_obj(space)) + "\n"


def save_space(space: FiniteMmmSpace, path: str) -> None:
    """Write `space_text` to ``path``; a space it refuses leaves no file."""
    text = space_text(space)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_space(path: str) -> FiniteMmmSpace:
    """Read a space file, NaN/Infinity included (tokens in a v1 file, bytes in
    a v2 payload): `validate` reports them as ``non-finite`` and every
    computing entry point rejects them by index."""
    with open(path, "r", encoding="utf-8") as fh:
        return space_from_obj(json.load(fh))


# ---------------------------------------------------------------------------
# plain metrics and point measures (prohorov CLI inputs)
# ---------------------------------------------------------------------------

def metric_to_obj(d: np.ndarray) -> dict:
    d = np.asarray(d, dtype=float)
    return {"schema": METRIC_SCHEMA, "n": d.shape[0], "matrix": d.tolist()}


def metric_from_obj(obj: dict) -> np.ndarray:
    if obj.get("schema") != METRIC_SCHEMA:
        raise ParameterError(f"expected schema {METRIC_SCHEMA}")
    d = np.asarray(obj["matrix"], dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ParameterError("metric matrix must be square")
    return d


def measure_to_obj(atoms, probs) -> dict:
    return {
        "schema": MEASURE_SCHEMA,
        "atoms": [int(a) for a in atoms],
        "probs": [float(p) for p in probs],
    }


def measure_from_obj(obj: dict):
    if obj.get("schema") != MEASURE_SCHEMA:
        raise ParameterError(f"expected schema {MEASURE_SCHEMA}")
    return (
        np.asarray(obj["atoms"]),
        np.asarray(obj["probs"], dtype=float),
    )
