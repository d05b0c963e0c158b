"""Deterministic JSON writing with 17-significant-digit floats.

The stdlib encoder renders floats with shortest-roundtrip repr; artifact
files (graphs, manifests, reports) instead pin floats to %.17g so their byte
layout is stable and still lossless.  Dict order is insertion order; callers
build their dicts deterministically.
"""

from __future__ import annotations

import json
import math

__all__ = ["dumps", "scalar"]


def _fmt(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"non-finite float {x!r} has no JSON form")
    return format(x, ".17g")


def _scalar(x) -> str | None:
    """x's JSON text if it is a scalar, else None."""
    # exact types first, the bulk of every artifact; bool, None and subclasses take the chain
    t = type(x)
    if t is float:
        return _fmt(x)
    if t is int:
        return str(x)
    if t is str and x.isascii() and x.isidentifier():
        return f'"{x}"'  # letters, digits and underscores need no escaping
    if isinstance(x, bool) or x is None or isinstance(x, (int, str)):
        return json.dumps(x)
    if isinstance(x, float):
        return _fmt(x)
    return None


def scalar(x) -> str:
    """x's JSON text as `dumps` writes it; TypeError if x is not a scalar."""
    s = _scalar(x)
    if s is None:
        raise TypeError(f"cannot serialize {type(x).__name__}")
    return s


def _row(obj) -> str | None:
    """obj on one line if each item is a scalar or a list of scalars, else None.

    Checked while rendering, so a row is walked once; the walk stops at the
    first item that is neither, before rendering anything after it.
    """
    parts = []
    for v in obj:
        if isinstance(v, (list, tuple)):
            inner = []
            for w in v:
                s = _scalar(w)
                if s is None:
                    return None
                inner.append(s)
            parts.append(f"[{','.join(inner)}]")
        else:
            s = _scalar(v)
            if s is None:
                return None
            parts.append(s)
    return f"[{','.join(parts)}]"


def _write(obj, out: list[str], pad: str) -> None:
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        inner = pad + "  "
        for i, (k, v) in enumerate(obj.items()):
            out.append(f"{inner}{json.dumps(str(k))}: ")
            _write(v, out, inner)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "}")
        return
    if isinstance(obj, (list, tuple)):
        # scalar rows stay on one line; containers get their own lines
        row = _row(obj)
        if row is not None:
            out.append(row)
            return
        out.append("[\n")
        inner = pad + "  "
        for i, v in enumerate(obj):
            out.append(inner)
            _write(v, out, inner)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "]")
        return
    out.append(scalar(obj))


def dumps(obj) -> str:
    out: list[str] = []
    _write(obj, out, "")
    out.append("\n")
    return "".join(out)
