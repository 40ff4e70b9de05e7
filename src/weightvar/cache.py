"""Versioned on-disk cache of the restriction tables, used by `restrict`.

The subword-sum matrix depends only on (type, rank), never on the orbit,
so it is cached per root system as `billey-<type><rank>-v1.json`. The file
carries the canonical element order and a content checksum; any payload
`load_table` cannot use (header, element words, checksum, malformed body)
raises `CacheCorrupt`, and the caller rebuilds. Writes go through a temp
file and an atomic rename. Level queries build their columns in process.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

from .errors import CacheCorrupt, DimensionMismatch
from .poly import Polynomial
from .serialize import json_text
from .weyl import WeylGroup

CACHE_VERSION = 1
ENV_VAR = "WEIGHTVAR_CACHE"


def default_cache_dir() -> Path:
    env = os.environ.get(ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "weightvar"


def cache_path(cache_dir: Path, type_label: str, rank: int) -> Path:
    return Path(cache_dir) / f"billey-{type_label}{rank}-v{CACHE_VERSION}.json"


def _checksum(payload: dict) -> str:
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def store_table(path: Path, g: WeylGroup,
                columns: dict[int, dict[int, Polynomial]]) -> None:
    payload = {
        "format": "billey",
        "version": CACHE_VERSION,
        "type": g.rs.type_label,
        "rank": g.rs.rank,
        "elements": [list(e.word) for e in g.elements],
        "columns": {
            str(v): {str(w): p.to_json() for w, p in sorted(col.items())}
            for v, col in sorted(columns.items())
        },
    }
    payload["checksum"] = _checksum({k: v for k, v in payload.items()
                                     if k != "checksum"})
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(json_text(payload, 1) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_table(path: Path, g: WeylGroup) -> dict[int, dict[int, Polynomial]]:
    """Load and verify a cached table; raises CacheCorrupt on any mismatch."""
    path = Path(path)
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CacheCorrupt(f"unreadable cache file {path}: {exc}") from exc
    if (not isinstance(payload, dict) or payload.get("format") != "billey"
            or payload.get("version") != CACHE_VERSION):
        raise CacheCorrupt(f"wrong cache header in {path}")
    if payload.get("type") != g.rs.type_label or payload.get("rank") != g.rs.rank:
        raise CacheCorrupt(f"cache {path} is for another root system")
    stated = payload.get("checksum")
    body = {k: v for k, v in payload.items() if k != "checksum"}
    if stated != _checksum(body):
        raise CacheCorrupt(f"checksum mismatch in {path}")
    try:
        words = [tuple(w) for w in payload["elements"]]
        columns = {int(v): {int(w): Polynomial.from_json(g.rs.rank, data)
                            for w, data in col.items()}
                   for v, col in payload["columns"].items()}
    except (KeyError, TypeError, AttributeError, ValueError,
            ZeroDivisionError, DimensionMismatch) as exc:
        raise CacheCorrupt(f"malformed cache body in {path}: {exc!r}") from exc
    if words != [e.word for e in g.elements]:
        raise CacheCorrupt(f"element order in {path} does not match")
    if sorted(columns) != list(range(g.order)):
        raise CacheCorrupt(f"cache {path} is missing columns")
    if any(not 0 <= w < g.order for col in columns.values() for w in col):
        raise CacheCorrupt(f"cache {path} names an unknown element")
    return columns
