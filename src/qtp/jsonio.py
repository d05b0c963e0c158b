"""UTF-8 file text, the naming of a bad input file, JSON values read by exact
type, and deterministic JSON with 17-significant-digit floats.

qtp reads and writes its text files through `read_text` and `write_text`:
UTF-8 whatever the locale, with universal newlines on reading.  A bad input
file is named once, in `path_text`'s form, by the `reading` frame it is read
in.  Every JSON file qtp reads is parsed by `loads`, and its values are read
by `integer`, `number` and `string`, which take only their exact JSON type
(no bool is a count, no float a qubit, no number a name) and raise
TypeError, which `reading` reports; ranges stay with the loaders.  `fmt_float`
is the one 17-digit float form, of graphs, manifests, QASM, CSV tables and
predict's line: stable and lossless, where the stdlib encoder gives the
shortest round-trip repr.  Dict order is insertion order; callers build
their dicts deterministically.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import re
import sys
from pathlib import Path

from . import DataError

__all__ = ["dumps", "fmt_float", "integer", "loads", "number", "path_text", "read_text",
           "reading", "scalar", "string", "write_text"]


def path_text(path: str | Path) -> str:
    """A path's bytes as UTF-8 text, other bytes as backslash escapes: the one
    form in which a message names a file."""
    return os.fsencode(path).decode("utf-8", "backslashreplace")


@contextlib.contextmanager
def reading(path: str | Path, error: type[DataError], fields: bool = True):
    """Bad data met while reading `path` re-raised as `error`, with the message
    `<path_text(path)>: <detail>`, which names the file once.  Bad data is a
    DataError and, in a file of `fields` (JSON), a malformed field's lookup,
    type, attribute or value error; in a circuit file those are defects."""
    try:
        yield
    except (AttributeError, LookupError, TypeError, ValueError) as exc:  # DataError: a ValueError
        if not (fields or isinstance(exc, DataError)):
            raise
        detail = exc if isinstance(exc, DataError) else f"malformed ({type(exc).__name__}: {exc})"
        raise error(f"{path_text(path)}: {detail}") from None


def read_text(path: str | Path) -> str:
    """The file's text as UTF-8; DataError with the codec's message for other bytes."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(str(exc)) from None


def write_text(path: str | Path, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def loads(text: str | bytes):
    """The JSON value of text; DataError for invalid JSON or too deep a nesting."""
    try:
        return json.loads(text)
    except (RecursionError, ValueError) as exc:  # ValueError: also bytes that are not UTF-8
        raise DataError(f"invalid JSON ({exc})") from None


def integer(x, what: str = "value") -> int:
    """x if it is a JSON integer; TypeError for anything else, bools and floats too."""
    if type(x) is not int:
        raise TypeError(f"{what} must be an integer, got {x!r}")
    return x


def number(x, what: str = "value") -> int | float:
    """x if it is a JSON int or float of finite float value; TypeError for anything
    else, bools, NaN and infinities too."""
    if type(x) is float and math.isfinite(x) or type(x) is int and abs(x) <= sys.float_info.max:
        return x
    shown = "an int past the float range" if type(x) is int else repr(x)  # such reprs run long
    raise TypeError(f"{what} must be a finite number, got {shown}")


_SURROGATE = re.compile("[\ud800-\udfff]")


def string(x, what: str = "value") -> str:
    """x if it is a JSON string with a UTF-8 form, which a JSON escape of a lone
    surrogate lacks; TypeError for anything else."""
    if type(x) is not str or _SURROGATE.search(x):
        raise TypeError(f"{what} must be a UTF-8 string, got {x!r}")
    return x


def fmt_float(x: float) -> str:
    """x as a float with 17 significant digits; ValueError for inf and NaN."""
    if not math.isfinite(x):
        raise ValueError(f"non-finite float {x!r} has no JSON form")
    return format(float(x), ".17g")


def _scalar(x) -> str | None:
    """x's JSON text if it is a scalar, else None."""
    # exact types first, the bulk of every artifact; bool, None and subclasses take the chain
    t = type(x)
    if t is float:
        return fmt_float(x)
    if t is int:
        return str(x)
    if t is str and x.isascii() and x.isidentifier():
        return f'"{x}"'  # letters, digits and underscores need no escaping
    if isinstance(x, bool) or x is None or isinstance(x, (int, str)):
        return json.dumps(x)
    if isinstance(x, float):
        return fmt_float(x)
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
