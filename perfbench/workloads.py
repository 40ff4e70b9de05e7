"""The benchmark's workloads.

Each workload is a fixed round of queries; the seed picks the levels and
the order inside a round, never the round's make-up. A run executes whole
rounds only, so every run, whatever its seed or speed, samples the same
mix of query sizes and its median lands in the same part of the mix.

The tail (the value with ten samples beyond it) moves between size
clusters as the number of rounds changes. Each round puts one query above
the cluster the tail should land in (G2 oracle-compare; A4 restrict), so
that for the round counts a run makes the tail sits inside that cluster
rather than on its edge; `min_rounds` is the count from which it does.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from gen import PLANTED_KINDS, Generator, Query

LEVEL_COMMANDS = ("kernel", "betti", "oracle-compare")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    tables: tuple[tuple[str, int], ...]   # (type, rank) pairs built in set-up
    setup_threads: int                    # --threads of the cold builds (capped at nproc)
    setup_reps: int                       # cold builds per run; median reported
    min_rounds: int                       # keeps the tail inside one size cluster
    round: Callable[[Generator, random.Random, int], list[Query]]


def _levels_rank2(gen: Generator, rng: random.Random, k: int) -> list[Query]:
    """A2 and B2: every command on three orbits. G2: kernel and betti on the
    three orbits, oracle-compare (~0.8 s, the costliest query) on one. Plus
    3 planted irregular levels, one of each kind, rotating over types and
    commands: 28 queries, 1 in 9 planted."""
    orbits = ((1, 1), (2, 1), (1, 3))
    qs = [gen.level_query(cmd, t, 2, lam)
          for t in ("A", "B") for lam in orbits for cmd in LEVEL_COMMANDS]
    qs += [gen.level_query(cmd, "G", 2, lam)
           for lam in orbits for cmd in LEVEL_COMMANDS[:2]]
    qs.append(gen.level_query("oracle-compare", "G", 2, orbits[k % 3]))
    for i, kind in enumerate(PLANTED_KINDS):
        qs.append(gen.level_query(LEVEL_COMMANDS[(i + k) % 3], "ABG"[(i + 2 * k) % 3],
                                  2, orbits[(i + k) % 3], planted=kind))
    rng.shuffle(qs)
    return qs


def _levels_a3(gen: Generator, rng: random.Random, k: int) -> list[Query]:
    """Twelve kernel queries (three levels on each of four orbits), two betti
    and one oracle-compare. Kernel queries are the majority, so the median
    and the tail (the 5th fastest of 15 in a one-round run) both sit inside
    the kernel cluster, away from its fastest sample and from the betti
    cluster."""
    orbits = ((1, 1, 1), (2, 1, 3), (1, 2, 1), (3, 1, 2))
    qs = [gen.level_query("kernel", "A", 3, lam) for lam in orbits * 3]
    qs += [gen.level_query("betti", "A", 3, lam) for lam in orbits[:2]]
    qs.append(gen.level_query("oracle-compare", "A", 3, orbits[2]))
    rng.shuffle(qs)
    return qs


def _tables(gen: Generator, rng: random.Random, k: int) -> list[Query]:
    """Warm restrict (json and csv) on B3 and C3, warm restrict json on A4
    (~1.5 s, 8 MB), and weyl on all three."""
    qs = []
    for t, r in (("B", 3), ("C", 3)):
        qs.append(gen.table_query("restrict", t, r))
        qs.append(gen.table_query("restrict", t, r, fmt="csv"))
    qs.append(gen.table_query("restrict", "A", 4))
    qs += [gen.table_query("weyl", t, r) for t, r in (("B", 3), ("C", 3), ("A", 4))]
    rng.shuffle(qs)
    return qs


WORKLOADS = {w.name: w for w in (
    Workload("levels-rank2",
             "kernel/betti/oracle-compare on A2, B2, G2 at seeded levels; "
             "fixed per-query costs (parsing, table load, rendering) weigh most",
             (("A", 2), ("B", 2), ("G", 2)), 1, 9, 4, _levels_rank2),
    Workload("levels-a3",
             "the same commands on A3 only; the kernel math dominates and "
             "fixed per-query overhead is under 2%",
             (("A", 3),), 1, 9, 1, _levels_a3),
    Workload("tables",
             "cold restriction-table builds in set-up, warm restrict/weyl "
             "queries after: the cache write path beside the read path",
             (("B", 3), ("C", 3), ("A", 4)), 2, 3, 3, _tables),
)}
