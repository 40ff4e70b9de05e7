"""Output verification for benchmark queries, run outside the timed region.

`Checker.check` returns None for a correct query or a one-line reason for a
failed one. A query fails on an exception, a wrong exit code, output that
does not parse or does not validate against `docs/schemas/`, or output that
breaks a property the mathematics guarantees.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import jsonschema

from gen import DIAGNOSTIC_WORDS, Query
from weightvar.rootsys import build_root_system

RESTRICT_SAMPLE = 2000  # restrict entries schema-checked per distinct output


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_validators(schema_dir: Path) -> dict[str, jsonschema.Draft7Validator]:
    out = {}
    for path in sorted(Path(schema_dir).glob("*.schema.json")):
        schema = json.loads(path.read_text())
        out[path.name[: -len(".schema.json")]] = jsonschema.Draft7Validator(schema)
    return out


class Checker:
    def __init__(self, schema_dir: Path, tables: dict[str, dict] | None = None):
        self.validators = load_validators(schema_dir)
        # label -> {"sha256": cold restrict json digest, "entries": count}
        self.tables = tables or {}
        self._shape: dict[str, tuple[int, int]] = {}
        self._valid_digests: set[str] = set()

    def shape(self, label: str) -> tuple[int, int]:
        """(rank, len w0) of a '<type><rank>' label, from rootsys data."""
        got = self._shape.get(label)
        if got is None:
            rs = build_root_system(label[0], int(label[1:]))
            got = (rs.rank, len(rs.positive_roots))
            self._shape[label] = got
        return got

    def _schema_errors(self, name: str, obj) -> str | None:
        err = jsonschema.exceptions.best_match(self.validators[name].iter_errors(obj))
        return None if err is None else f"{name} schema: {err.message[:120]}"

    def check(self, q: Query, code: int | None, out: str, err: str,
              exc: BaseException | None = None) -> str | None:
        if exc is not None:
            return f"exception {type(exc).__name__}: {exc}"
        if code != q.expect_exit:
            return f"exit {code}, expected {q.expect_exit}"
        if q.expect_exit != 0:
            return self._check_refusal(q, out, err)
        if err:
            return f"unexpected stderr: {err[:120]}"
        if q.command == "restrict-csv":
            return self._check_csv(q, out)
        if q.command == "restrict":
            return self._check_restrict(q, out)
        try:
            obj = json.loads(out)
        except json.JSONDecodeError as e:
            return f"stdout is not JSON: {e}"
        problem = self._schema_errors(q.command, obj)
        if problem:
            return problem
        return getattr(self, "_" + q.command.replace("-", "_"))(q, obj)

    # -- per command ----------------------------------------------------------------

    def _check_refusal(self, q: Query, out: str, err: str) -> str | None:
        if out:
            return "refused query wrote to stdout"
        try:
            obj = json.loads(err)
        except json.JSONDecodeError as e:
            return f"stderr is not JSON: {e}"
        problem = self._schema_errors("error", obj)
        if problem:
            return problem
        if obj["error"] != "MuNotRegularValue":
            return f"refused with {obj['error']}"
        word = DIAGNOSTIC_WORDS[q.planted]
        if word not in obj.get("diagnostic", ""):
            return f"diagnostic lacks {word!r}: {obj.get('diagnostic')!r}"
        return None

    def _betti(self, q: Query, obj) -> str | None:
        rank, top = self.shape(q.label)
        b = obj["betti"]
        dim = top - rank
        if len(b) != dim + 1:
            return f"betti has {len(b)} entries, expected {dim + 1}"
        if b[0] != 1 or b[-1] != 1:
            return f"betti ends are {b[0]}, {b[-1]}, expected 1, 1"
        if b != b[::-1]:
            return f"betti {b} is not palindromic"
        return None

    def _kernel(self, q: Query, obj) -> str | None:
        _, top = self.shape(q.label)
        if obj["count"] != len(obj["generators"]):
            return f"count {obj['count']} != {len(obj['generators'])} generators"
        bad = [g["half_degree"] for g in obj["generators"]
               if not 0 <= g["half_degree"] <= top]
        return f"half-degrees {bad} outside [0, {top}]" if bad else None

    def _oracle_compare(self, q: Query, obj) -> str | None:
        if not (obj["same_classes"] and obj["dims_equal"]):
            return (f"oracle disagrees: same_classes={obj['same_classes']} "
                    f"dims_equal={obj['dims_equal']}")
        return None

    def _weyl(self, q: Query, obj) -> str | None:
        if sum(obj["length_counts"]) != obj["order"] or len(obj["elements"]) != obj["order"]:
            return "weyl element counts disagree with the order"
        return None

    def _check_restrict(self, q: Query, out: str) -> str | None:
        digest = sha256(out)
        table = self.tables.get(q.label)
        if table is None:
            return f"no cold restrict output recorded for {q.label}"
        if digest != table["sha256"]:
            return "warm restrict output differs from the cold output"
        if digest not in self._valid_digests:  # schema-check each text once
            obj = json.loads(out)
            entries = obj["entries"]
            if len(entries) > RESTRICT_SAMPLE:
                # the entry schema is uniform; a seeded sample keeps an 8 MB
                # output from costing ~9 s of validation per run
                rng = random.Random(digest)
                obj["entries"] = rng.sample(entries, RESTRICT_SAMPLE)
            problem = self._schema_errors("restrict", obj)
            if problem:
                return problem
            self._valid_digests.add(digest)
        return None

    def _check_csv(self, q: Query, out: str) -> str | None:
        table = self.tables.get(q.label)
        lines = out.splitlines()
        if not lines or lines[0] != "w,v,value":
            return "csv header is not w,v,value"
        if table is None or len(lines) - 1 != table["entries"]:
            return f"csv has {len(lines) - 1} rows, json has {table and table['entries']}"
        return None
