"""Span tracer that wraps weightvar's public functions from outside.

`Tracer.install()` replaces each traced function in every weightvar module
namespace that holds it (so `from .cache import load_table` in `cli` and a
module-global call inside `kirwan` are both caught), and methods on their
classes; `uninstall()` puts the originals back. The package's own files are
never edited.

A span records (name, start, end, parent span, query id). Spans are kept in
compact arrays in memory and written out by `dump()` when the run ends.
Self time is a span's duration minus the time its child spans cover.
Polynomial arithmetic is deliberately not wrapped: it runs about 1e5 times
per A3 query and a wrapper there would swamp what it measures.
"""

from __future__ import annotations

import gzip
import os
import sys
from array import array
from time import perf_counter

# (module, attribute path, metric prefix, span?) -- span=False only counts
TRACED = [
    ("rootsys", "build_root_system", "rootsys.build_root_system", True),
    ("weyl", "generate_weyl", "weyl.generate_weyl", True),
    ("workers", "compute_columns", "workers.compute_columns", True),
    ("schubert", "SchubertCalculus.ensure_table", "schubert.ensure_table", True),
    ("schubert", "SchubertCalculus.schubert_class", "schubert.schubert_class", True),
    ("schubert", "SchubertCalculus.twisted_class", "schubert.twisted_class", True),
    ("schubert", "SchubertCalculus.twisted_support", "schubert.twisted_support", True),
    ("poly", "LinearSubstitution.__call__", "poly.LinearSubstitution", True),
    ("poly", "ModularRank.add_row", "poly.ModularRank.add_row", False),
    ("poly", "IncrementalRank.add_row", "poly.IncrementalRank.add_row", False),
    ("kirwan", "is_regular", "kirwan.is_regular", True),
    ("kirwan", "kernel_generators", "kirwan.kernel_generators", True),
    ("kirwan", "tw_oracle_generators", "kirwan.tw_oracle_generators", True),
    ("kirwan", "fourier_motzkin_feasible", "kirwan.fourier_motzkin_feasible", True),
    ("kirwan", "ideal_graded_dims", "kirwan.ideal_graded_dims", True),
    ("kirwan", "quotient_betti", "kirwan.quotient_betti", True),
    ("cache", "store_table", "cache.store_table", True),
    ("cache", "load_table", "cache.load_table", True),
    ("serialize", "canonical_json", "serialize.canonical_json", True),
    ("cli", "main", "cli.main", True),
]


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


# extra counters: prefix -> (counter suffix, f(args, result) -> increment)
_COUNTERS = {
    "weyl.generate_weyl": ("elements", lambda a, r: r.order),
    "workers.compute_columns": ("columns", lambda a, r: len(r)),
    "poly.ModularRank.add_row": ("accepted", lambda a, r: int(bool(r))),
    "poly.IncrementalRank.add_row": ("accepted", lambda a, r: int(bool(r))),
    "kirwan.is_regular": ("refused", lambda a, r: int(not r[0])),
    "kirwan.kernel_generators": ("generators", lambda a, r: len(r)),
    "kirwan.fourier_motzkin_feasible": ("feasible", lambda a, r: int(bool(r))),
    "cache.store_table": ("bytes", lambda a, r: _file_size(a[0])),
    "cache.load_table": ("bytes", lambda a, r: _file_size(a[0])),
    "serialize.canonical_json": ("bytes", lambda a, r: len(r.encode())),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.query_id = -1
        # span columns
        self.s_name = array("i")
        self.s_parent = array("q")
        self.s_query = array("q")
        self.s_start = array("d")
        self.s_end = array("d")
        self._stack: list[int] = []
        self._child: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------------

    def _span_wrapper(self, fn, prefix: str):
        name_id = len(self.names)
        self.names.append(prefix)
        counter = _COUNTERS.get(prefix)
        stack, child = self._stack, self._child
        calls, total, self_time = self.calls, self.total, self.self_time
        s_name, s_parent, s_query = self.s_name, self.s_parent, self.s_query
        s_start, s_end = self.s_start, self.s_end
        calls.setdefault(prefix, 0)
        total.setdefault(prefix, 0.0)
        self_time.setdefault(prefix, 0.0)
        if counter is not None:
            self.counts[f"{prefix}.{counter[0]}"] = 0

        def wrapper(*args, **kwargs):
            sid = len(s_start)
            s_name.append(name_id)
            s_parent.append(stack[-1] if stack else -1)
            s_query.append(self.query_id)
            s_start.append(0.0)
            s_end.append(0.0)
            stack.append(sid)
            child.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                covered = child.pop()
                dur = t1 - t0
                if child:
                    child[-1] += dur
                s_start[sid] = t0
                s_end[sid] = t1
                calls[prefix] += 1
                total[prefix] += dur
                self_time[prefix] += dur - covered
            if counter is not None:
                self.counts[f"{prefix}.{counter[0]}"] += counter[1](args, result)
            return result

        return wrapper

    def _count_wrapper(self, fn, prefix: str):
        suffix, inc = _COUNTERS[prefix]
        key = f"{prefix}.{suffix}"
        calls, counts = self.calls, self.counts
        calls.setdefault(prefix, 0)
        counts[key] = 0

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            calls[prefix] += 1
            counts[key] += inc(args, result)
            return result

        return wrapper

    # -- install / uninstall ----------------------------------------------------

    def install(self) -> None:
        modules = {name[len("weightvar."):]: mod
                   for name, mod in list(sys.modules.items())
                   if name.startswith("weightvar.") and mod is not None}
        modules["weightvar"] = sys.modules["weightvar"]
        for mod_name, attr, prefix, span in TRACED:
            owner = modules[mod_name]
            parts = attr.split(".")
            for p in parts[:-1]:
                owner = getattr(owner, p)
            original = getattr(owner, parts[-1])
            wrapped = (self._span_wrapper if span else self._count_wrapper)(
                original, prefix)
            if len(parts) > 1:  # method: patch the class
                self._patch(owner, parts[-1], wrapped)
                continue
            for mod in modules.values():
                if getattr(mod, parts[-1], None) is original:
                    self._patch(mod, parts[-1], wrapped)

    def _patch(self, owner, attr: str, new) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results ----------------------------------------------------------------

    def layer_values(self) -> dict[str, float]:
        """Raw totals: <prefix>.calls|total_s|self_s and extra counters."""
        out: dict[str, float] = {}
        for prefix, n in self.calls.items():
            out[f"{prefix}.calls"] = n
            if prefix in self.total:
                out[f"{prefix}.total_s"] = self.total[prefix]
                out[f"{prefix}.self_s"] = self.self_time[prefix]
        out.update(self.counts)
        return out

    def dump(self, path) -> int:
        """Write every span as a tab-separated line; returns the count."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tname\tparent\tquery\tstart\tend\n")
            names = self.names
            for sid in range(len(self.s_start)):
                fh.write(f"{sid}\t{names[self.s_name[sid]]}\t"
                         f"{self.s_parent[sid]}\t{self.s_query[sid]}\t"
                         f"{self.s_start[sid]!r}\t{self.s_end[sid]!r}\n")
        return len(self.s_start)
