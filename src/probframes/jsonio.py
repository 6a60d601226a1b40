"""Deterministic report rendering.

The stock json module prints floats via repr, whose digit count varies
with the value; reports here pin every float to a fixed number of
significant digits (17 in JSON mode, enough to round-trip any double)
so identical runs emit byte-identical documents.
"""

from __future__ import annotations

import json
import math

import numpy as np

JSON_DIGITS = 17
TEXT_DIGITS = 6


def _number(x: float, digits: int) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x}")
    return format(x, f".{digits}g")


def dumps(obj) -> str:
    """JSON text with fixed-precision floats and stable key order."""
    pieces: list[str] = []
    _emit(obj, pieces)
    return "".join(pieces)


def _emit(obj, out: list[str]):
    if obj is None:
        out.append("null")
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_number(float(obj), JSON_DIGITS))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(", ")
            out.append(json.dumps(str(k)))
            out.append(": ")
            _emit(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(", ")
            _emit(v, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def render_text(obj, indent: int = 0) -> str:
    """Human-oriented rendering of the same report structure."""
    pad = "  " * indent
    if isinstance(obj, dict):
        lines = []
        for k, v in obj.items():
            if isinstance(v, (dict, list, tuple, np.ndarray)) and _is_nested(v):
                lines.append(f"{pad}{k}:")
                lines.append(render_text(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {_scalar_text(v)}")
        return "\n".join(lines)
    if isinstance(obj, (list, tuple, np.ndarray)):
        lines = []
        for v in obj:
            if isinstance(v, (dict, list, tuple, np.ndarray)) and _is_nested(v):
                lines.append(render_text(v, indent))
            else:
                lines.append(f"{pad}{_scalar_text(v)}")
        return "\n".join(lines)
    return f"{pad}{_scalar_text(obj)}"


def _is_nested(v) -> bool:
    if isinstance(v, dict):
        return True
    return any(isinstance(x, (dict, list, tuple, np.ndarray)) for x in v)


def _scalar_text(v) -> str:
    if v is None:
        return "none"
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return _number(float(v), TEXT_DIGITS)
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_scalar_text(x) for x in v) + "]"
    return str(v)
