"""JSON and CSV wire formats.

Matrix JSON: {"rows": n, "cols": m, "re": [...], "im": [...]} with row-major
entry lists; vectors have cols == 1. Serialized floats use Python's shortest
round-trip repr (at most 17 significant digits), and objects are emitted with
sorted keys so identical inputs serialize byte-identically.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
import math
import numbers
import os
import stat
import tempfile

import numpy as np

from .bipartite import PureState
from .errors import DimensionError
from .linalg import as_matrix, as_vector
from .measurement import MeasurementScheme, POVM


def matrix_to_json(m: np.ndarray) -> dict:
    m = as_matrix(m)
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "re": m.real.ravel().tolist(),
        "im": m.imag.ravel().tolist(),
    }


def _int_field(obj: dict, key: str) -> int:
    """obj[key] when it is an integer (a JSON integer, or a numpy one in a
    dict built in memory); ValueError for floats such as 2.9 or 2.0, for
    booleans (which Python counts as integers) and for anything else."""
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _entries(obj: dict, key: str) -> np.ndarray:
    """obj[key] as a float64 array; ValueError unless it is a flat list of
    numbers. The dtype numpy infers refuses strings, nulls, nested lists,
    all-boolean lists and integers too large for a float; numpy reads a
    boolean among numbers as 0 or 1, so the entries' types are checked for
    booleans too. Both are C-level passes, with no Python loop over the
    entries."""
    value = obj[key]
    entries = np.asarray(value)
    if (
        entries.ndim != 1
        or entries.dtype.kind not in "iuf"
        or not isinstance(value, np.ndarray) and {bool, np.bool_} & set(map(type, value))
    ):
        raise ValueError(f"{key} must be a flat list of numbers")
    return entries.astype(np.float64, copy=False)


def matrix_from_json(obj: dict) -> np.ndarray:
    rows, cols = _int_field(obj, "rows"), _int_field(obj, "cols")
    re, im = _entries(obj, "re"), _entries(obj, "im")
    if rows < 1 or cols < 1:
        raise DimensionError(f"non-positive matrix shape ({rows}, {cols})")
    if re.size != rows * cols or im.size != rows * cols:
        raise DimensionError(
            f"entry count {re.size}/{im.size} != rows*cols = {rows * cols}"
        )
    return as_matrix((re + 1j * im).reshape(rows, cols))


def vector_to_json(v: np.ndarray) -> dict:
    return matrix_to_json(as_vector(v).reshape(-1, 1))


def vector_from_json(obj: dict) -> np.ndarray:
    m = matrix_from_json(obj)
    if m.shape[1] != 1:
        raise DimensionError(f"expected a column vector, got shape {m.shape}")
    return m[:, 0]


def state_to_json(psi: PureState) -> dict:
    return {
        "d1": psi.space.d1,
        "d2": psi.space.d2,
        "vec": vector_to_json(psi.vec),
    }


def povm_to_json(e: POVM) -> dict:
    return {
        "dim": e.dim,
        "outcomes": list(e.outcomes),
        "effects": [matrix_to_json(eff) for eff in e.effects],
    }


def povm_from_json(obj: dict) -> POVM:
    """The POVM of povm_to_json's fields; ValueError unless outcomes is a
    list (a string would otherwise be read as one label per character)."""
    outcomes = obj["outcomes"]
    if not isinstance(outcomes, list):
        raise ValueError(f"outcomes must be a list of labels, got {outcomes!r}")
    return POVM(
        _int_field(obj, "dim"),
        tuple(outcomes),
        tuple(matrix_from_json(eff) for eff in obj["effects"]),
    )


def scheme_to_json(s: MeasurementScheme) -> dict:
    return {
        "object_dim": s.object_dim,
        "probe_dim": s.probe_dim,
        "probe_init": vector_to_json(s.probe_init),
        "coupling": matrix_to_json(s.coupling),
        "pointer": povm_to_json(s.pointer),
    }


def scheme_from_json(obj: dict) -> MeasurementScheme:
    return MeasurementScheme(
        _int_field(obj, "object_dim"),
        _int_field(obj, "probe_dim"),
        vector_from_json(obj["probe_init"]),
        matrix_from_json(obj["coupling"]),
        povm_from_json(obj["pointer"]),
    )


# json.dumps(obj, sort_keys=True, indent=2) without building an encoder per call.
_encode = json.JSONEncoder(sort_keys=True, indent=2).encode

_CONTAINERS = (list, tuple, dict)


def _scalar(obj, pad: str) -> str:
    """A value that _render leaves to json, as json.dumps(obj, sort_keys=True,
    indent=2) renders it nested at indentation pad: a string or a finite
    Python float as json writes it, a container by the indented encoder, and
    any other scalar by json.dumps's default encoder, which runs in C (an
    indent changes no scalar's rendering)."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if type(obj) is float and math.isfinite(obj):
        return float.__repr__(obj)
    if isinstance(obj, _CONTAINERS):
        # json escapes every newline inside a string, so each "\n" starts a line.
        return _encode(obj).replace("\n", "\n" + pad)
    return json.dumps(obj)


def _render(obj: list | tuple | dict, pad: str) -> str | None:
    """A list, tuple or dict as json.dumps(obj, sort_keys=True, indent=2)
    renders it, nested at indentation pad; None when it holds no non-empty
    flat list of finite Python floats, for json.dumps to render.

    json.dumps with an indent runs the pure-Python encoder, one generator
    step per entry. A matrix's entry list is instead one join of
    float.__repr__, the rendering json uses for a finite float; the lists and
    string-keyed dicts around such lists are walked here, and every other
    value is json.dumps's."""
    inner = pad + "  "
    if isinstance(obj, dict):
        values = list(obj.values())
    elif obj and set(map(type, obj)) == {float}:
        body = (",\n" + inner).join(map(float.__repr__, obj))
        # A finite float's repr has no "n"; json spells NaN and inf its own way.
        return None if "n" in body else "[\n" + inner + body + "\n" + pad + "]"
    else:
        values = obj
    parts = [_render(v, inner) if isinstance(v, _CONTAINERS) else None for v in values]
    if parts.count(None) == len(parts) or isinstance(obj, dict) and not all(type(k) is str for k in obj):
        return None
    items = [_scalar(v, inner) if p is None else p for v, p in zip(values, parts)]
    if isinstance(obj, dict):
        lines = (f"{inner}{encode_basestring_ascii(k)}: {item}" for k, item in sorted(zip(obj, items)))
        return "{\n" + ",\n".join(lines) + "\n" + pad + "}"
    return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"


def canonical_json(obj) -> str:
    """Deterministic rendering: sorted keys, newline-terminated; the bytes of
    json.dumps(obj, sort_keys=True, indent=2) + "\n"."""
    text = _render(obj, "") if isinstance(obj, _CONTAINERS) else None
    return (_encode(obj) if text is None else text) + "\n"


def profile_csv(points) -> str:
    """CSV with one row per grid point of an entanglement profile."""
    lines = ["t,max_entropy_bits,verdict,maximizing_input_id"]
    for pt in points:
        lines.append(f"{pt.t!r},{pt.max_entropy_bits!r},{pt.verdict},{pt.maximizing_input_id}")
    return "\n".join(lines) + "\n"


def write_atomic(path: str, text: str) -> None:
    """Write via a temp file in the same directory; no partial files on error.

    The file gets the mode an existing target has, else 0o666 less the
    umask, as open() would give it; mkstemp alone would leave it 0o600.
    """
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            os.fchmod(fh.fileno(), mode)
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
