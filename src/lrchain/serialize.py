"""Deterministic text serialization shared by the report writers, and the
one JSON reader shared by the config and model loaders.

Floats are written with 17 significant digits (round-trip exact for IEEE
doubles); booleans as lowercase true/false; missing values as empty fields.
Reports rendered through these helpers are byte-identical for identical
inputs, which the reproducibility tests rely on.
"""

from __future__ import annotations

import json
import math


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


def _json_default(x):
    raise TypeError(f"not JSON serializable: {type(x)}")


def render_json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=False, default=_json_default) + "\n"


def read_json_object(path: str, error: type = ValueError) -> dict:
    """Decode the JSON file at `path`, which must hold an object.

    A missing or unreadable file, malformed JSON (reported by line and
    column) and a non-object top level all raise `error` with the path.
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
    return doc
