"""The artifact JSON writer of qtp before `_inline` dispatched on exact types.

Kept verbatim (apart from this docstring) as a test oracle:
`tests/test_jsonio.py` checks that `qtp.jsonio.dumps` writes the same bytes.
Its own docstring follows.

Deterministic JSON writing with 17-significant-digit floats.

The stdlib encoder renders floats with shortest-roundtrip repr; artifact
files (graphs, manifests, reports) instead pin floats to %.17g so their byte
layout is stable and still lossless.  Dict order is insertion order; callers
build their dicts deterministically.
"""

from __future__ import annotations

import json

__all__ = ["dumps"]


def _fmt(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError(f"non-finite float {x!r} has no JSON form")
    return format(x, ".17g")


def _is_scalar(x) -> bool:
    return x is None or isinstance(x, (bool, int, float, str))


def _inline(obj) -> str:
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return json.dumps(obj)
    if isinstance(obj, float):
        return _fmt(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_inline(v) for v in obj) + "]"
    if isinstance(obj, dict):
        return "{" + ",".join(f"{json.dumps(str(k))}:{_inline(v)}" for k, v in obj.items()) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


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
        if all(_is_scalar(v) or isinstance(v, (list, tuple)) and all(_is_scalar(w) for w in v)
               for v in obj):
            out.append(_inline(obj))
            return
        out.append("[\n")
        inner = pad + "  "
        for i, v in enumerate(obj):
            out.append(inner)
            _write(v, out, inner)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "]")
        return
    out.append(_inline(obj))


def dumps(obj) -> str:
    out: list[str] = []
    _write(obj, out, "")
    out.append("\n")
    return "".join(out)
