"""Exact-rational serialization shared by the CLI, cache and reports.

Every rational crosses the process boundary as a "p/q" (or plain integer)
string; floats never appear in any output. Parsing accepts integers,
fractions and finite decimal literals, all of which are exact; anything
else (scientific notation, inf/nan, stray text) is rejected.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction as Q

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
    parts = [p for p in text.split(",") if p.strip()]
    values = tuple(parse_rational(p) for p in parts)
    if expect is not None and len(values) != expect:
        raise ConfigError(f"expected {expect} comma-separated rationals, "
                          f"got {len(values)}")
    return values


def poly_free_vector(v) -> list[str]:
    return [rational_str(c) for c in v]


def canonical_json(obj) -> str:
    """Deterministic rendering used for files, stdout and checksums."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
