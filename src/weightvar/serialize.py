"""Exact-rational serialization shared by the CLI, cache and reports.

Every rational crosses the process boundary as a "p/q" (or plain integer)
string; floats never appear in any output. Parsing accepts integers,
fractions and finite decimal literals, all of which are exact; anything
else (scientific notation, inf/nan, stray text) is rejected.

Reports and the cached tables are written by `json_text`, which emits
exactly the bytes of `json.dumps(obj, sort_keys=True, indent=k)` for the
values our outputs hold (dicts with str keys, lists, str, int, bool and
None) and raises TypeError on anything else, floats and Fractions
included. `json.dumps` with an indent runs CPython's pure-Python encoder;
this one takes about half its time on the restriction tables.
"""

from __future__ import annotations

import re
from fractions import Fraction as Q
from json.encoder import encode_basestring_ascii as _quote

from .errors import ConfigError

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/[1-9]\d*|\.\d+)?$")


def rational_str(x: Q) -> str:
    x = Q(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def parse_rational(text: str) -> Q:
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise ConfigError(
            f"{text!r} is not an exact rational (use p, p/q, or a finite decimal)")
    try:
        return Q(text)
    except ValueError as exc:  # more digits than int() converts
        raise ConfigError(f"rational literal of {len(text)} characters has "
                          f"too many digits to read exactly") from exc


def parse_rational_list(text: str, expect: int | None = None) -> tuple[Q, ...]:
    parts = text.split(",")
    if not all(p.strip() for p in parts):
        raise ConfigError(f"empty field in the list {text!r}")
    values = tuple(parse_rational(p) for p in parts)
    if expect is not None and len(values) != expect:
        raise ConfigError(f"expected {expect} comma-separated rationals, "
                          f"got {len(values)}")
    return values


def poly_free_vector(v) -> list[str]:
    return [rational_str(c) for c in v]


def json_text(obj, indent: int) -> str:
    """`obj` as JSON with sorted keys, `indent` spaces per level and ASCII
    escapes: byte-identical to `json.dumps(obj, sort_keys=True,
    indent=indent)`. Only dict (str keys), list, str, int, bool and None
    are accepted; anything else raises TypeError."""
    out: list[str] = []
    _emit(obj, out.append, "\n", " " * indent)
    return "".join(out)


def _emit(o, put, nl: str, step: str) -> None:
    """Append the JSON of `o` at the nesting whose newline-plus-indent is
    `nl`."""
    if isinstance(o, str):
        put(_quote(o))
    elif o is None:
        put("null")
    elif o is True:
        put("true")
    elif o is False:
        put("false")
    elif isinstance(o, int):
        put(int.__repr__(o))
    elif isinstance(o, list):
        if not o:
            put("[]")
            return
        inner = nl + step
        if all(type(x) is int for x in o):  # an exponent vector or a word
            put("[" + inner + ("," + inner).join(map(int.__repr__, o))
                + nl + "]")
            return
        sep = "[" + inner
        for x in o:
            put(sep)
            _emit(x, put, inner, step)
            sep = "," + inner
        put(nl + "]")
    elif isinstance(o, dict):
        if not o:
            put("{}")
            return
        inner = nl + step
        sep = "{" + inner
        for k in sorted(o):
            if not isinstance(k, str):
                raise TypeError(f"JSON object keys must be str, "
                                f"not {type(k).__name__}")
            put(sep + _quote(k) + ": ")
            _emit(o[k], put, inner, step)
            sep = "," + inner
        put(nl + "}")
    else:
        raise TypeError(f"Object of type {type(o).__name__} "
                        f"is not JSON serializable")


def canonical_json(obj) -> str:
    """Deterministic rendering used for stdout and stderr: sorted keys, an
    indent of 2 and ASCII escapes, byte-identical to `json.dumps(obj,
    sort_keys=True, indent=2)`, plus a final newline."""
    return json_text(obj, 2) + "\n"
