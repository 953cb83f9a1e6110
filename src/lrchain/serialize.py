"""Deterministic text serialization shared by the report writers, and the
one JSON reader shared by the config and model loaders.

Every JSON input (model, experiment, sweep and constants files) is decoded
by `read_json_object`, key-checked by `check_keys` and read field by field
through `read_field`, so all of them reject keys they do not know and values
of the wrong type the same way, with the JSON path of the offending node in
the message.

Floats are written with 17 significant digits (round-trip exact for IEEE
doubles); booleans as lowercase true/false; missing values as empty fields.
Reports rendered through these helpers are byte-identical for identical
inputs, which the reproducibility tests rely on.
"""

from __future__ import annotations

import dataclasses
import json
import math
from typing import NamedTuple

import numpy as np

from .operators import PAULI


def fmt_float(x: float) -> str:
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return f"{x:.17g}"


def fmt_value(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return fmt_float(x)
    return str(x)


def csv_line(values) -> str:
    return ",".join(fmt_value(v) for v in values)


def render_csv(header, rows) -> str:
    lines = [",".join(header)]
    lines.extend(csv_line(row) for row in rows)
    return "\n".join(lines) + "\n"


def record_fields(record) -> dict:
    """A dataclass record as {field name: value}, in field order; `dataclasses.asdict` would deep-copy each value."""
    return {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}


def _json_default(x):
    raise TypeError(f"not JSON serializable: {type(x)}")


def render_json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=False, default=_json_default) + "\n"


def fmt_path(where: str, *keys) -> str:
    """JSON path of a node below `where`: names joined by dots, list indices in brackets."""
    return where + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys)


def read_json_object(path: str, error: type, known, required=()) -> dict:
    """Decode the JSON file at `path`, which must hold an object with keys from `known`.

    A missing or unreadable file, malformed JSON (reported by line and
    column), a non-object top level and the key checks of `check_keys` all
    raise `error` with the path.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise error(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise error(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise error(f"{path}: top-level value must be an object")
    return check_keys(doc, path, error, known, required)


def check_keys(node, where: str, error: type, known, required=()) -> dict:
    """`node` must be an object whose keys all lie in `known` and include all of `required`."""
    if not isinstance(node, dict):
        raise error(f"{where}: expected an object with keys {sorted(known)}")
    unknown = set(node) - set(known)
    if unknown:
        raise error(f"{where}: unknown keys {sorted(unknown)}")
    missing = set(required) - set(node)
    if missing:
        raise error(f"{where}: missing required keys {sorted(missing)}")
    return node


class JsonKind(NamedTuple):
    """A field type: its name in error messages, the Python types it decodes to, and a list's entry kind."""

    expected: str
    types: tuple
    item: JsonKind | None = None

    def test(self, val) -> bool:
        if isinstance(val, bool) or not isinstance(val, self.types):
            return False  # JSON true decodes to a Python int
        return not isinstance(val, float) or math.isfinite(val)  # Python's json accepts NaN and Infinity


NUMBER = JsonKind("a number", (int, float))
INTEGER = JsonKind("an integer", (int,))
STRING = JsonKind("a string", (str,))
PATH = JsonKind("a file path string", (str,))
NUMBERS = JsonKind("a list of numbers", (list,), NUMBER)
LIST = JsonKind("a list", (list,))
OBJECT = JsonKind("an object", (dict,))

_REQUIRED = object()


def read_field(node: dict, key: str, kind: JsonKind, where: str, error: type, default=_REQUIRED):
    """`node[key]`, checked against `kind`; errors raise `error` with the field's JSON path.

    A field given a `default` is optional: absent or null, it reads as the
    default.  A required field that is absent is reported as missing.
    Numbers, also inside lists, are read as floats.
    """
    if node.get(key) is None and default is not _REQUIRED:
        return default
    if key not in node:
        raise error(f"{where}: missing required key {key!r}")
    return _checked(node[key], kind, fmt_path(where, key), error)


def _checked(val, kind: JsonKind, at: str, error: type):
    if not kind.test(val):
        raise error(f"{at}: expected {kind.expected}, got {val!r}")
    if kind.item is not None:
        return [_checked(entry, kind.item, fmt_path(at, i), error) for i, entry in enumerate(val)]
    return float(val) if kind is NUMBER else val


def read_matrix(node, dim: int, where: str, error: type) -> np.ndarray:
    """A dim x dim complex matrix: a Pauli name, or rows of numbers and [re, im] pairs."""
    if isinstance(node, str):
        if node not in PAULI:
            raise error(f"{where}: unknown named matrix {node!r}; known names: {sorted(PAULI)}")
        if dim != 2:
            raise error(f"{where}: named matrix {node!r} needs local dimension 2, model has {dim}")
        return np.array(PAULI[node])
    if not LIST.test(node) or len(node) != dim:
        raise error(f"{where}: expected {dim} matrix rows")
    rows = []
    for i, row in enumerate(node):
        if not LIST.test(row) or len(row) != dim:
            raise error(f"{fmt_path(where, i)}: expected {dim} entries per row")
        rows.append([_matrix_entry(v, fmt_path(where, i, j), error) for j, v in enumerate(row)])
    return np.array(rows, dtype=complex)


def _matrix_entry(node, where: str, error: type) -> complex:
    if NUMBER.test(node):
        return complex(node)
    if LIST.test(node) and len(node) == 2 and all(NUMBER.test(v) for v in node):
        return complex(node[0], node[1])
    raise error(f"{where}: matrix entry must be a number or a [re, im] pair, got {node!r}")
