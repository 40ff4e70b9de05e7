"""Seeded query generator for the weightvar benchmark.

Every query is an argv list for `weightvar.cli.main` plus the outcome the
benchmark expects. Levels are drawn as exact convex combinations of the
fixed-point images v(lambda) with random positive integer weights and are
then converted to fundamental-weight coordinates. The expected outcome of
each level comes from the regularity test in this file, which is built from
`rootsys` and `weyl` data only and never calls into `kirwan`:

* strictly inside the orbit polytope (every chamber direction),
* off every critical segment [v lambda, v s_alpha lambda],
* no tie between the level's height and a fixed-point height in any
  chamber direction (the CLI refuses those as wall coincidences).

Planted irregular levels come in three kinds: outside the polytope, on a
facet, and at the midpoint of a critical segment through the interior.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction as Q

from weightvar.rootsys import (RootSystem, build_root_system, vadd, vscale,
                               vsub, vzero)
from weightvar.serialize import rational_str
from weightvar.weyl import WeylGroup, generate_weyl

PLANTED_KINDS = ("outside", "facet", "segment")
# substring each planted kind's diagnostic must contain
DIAGNOSTIC_WORDS = {"outside": "outside", "facet": "facet",
                    "segment": "critical segment"}


@dataclass(frozen=True)
class Query:
    """One CLI call and what it must produce."""

    argv: tuple[str, ...]
    command: str
    label: str          # "<type><rank>" for grouping
    expect_exit: int
    planted: str | None = None   # planted irregular kind, if any


class Orbit:
    """Fixed-point images, chamber directions, critical segments and the
    exact regularity test for one (type, rank, lambda)."""

    def __init__(self, rs: RootSystem, g: WeylGroup, coeffs: tuple[int, ...]):
        self.rs = rs
        self.g = g
        self.coeffs = coeffs
        lam = vzero(rs.rank)
        for c, w in zip(coeffs, rs.fundamental_weights):
            lam = vadd(lam, vscale(Q(-c), w))
        self.images = [g.act(v, lam) for v in range(g.order)]
        dirs: dict[tuple[Q, ...], None] = {}
        for t in range(g.order):
            for w in rs.fundamental_weights:
                dirs.setdefault(g.act(t, w))
        self.directions = list(dirs)
        # heights[d] = sorted distinct fixed-point heights in direction d
        self.heights = [sorted({rs.inner(d, p) for p in self.images})
                        for d in self.directions]
        segs: dict[frozenset, tuple] = {}
        for v in range(g.order):
            for alpha in rs.positive_roots:
                w = g.multiply(v, g.reflection_element(alpha))
                a, b = self.images[v], self.images[w]
                segs.setdefault(frozenset((a, b)), (a, b))
        self.segments = list(segs.values())

    def classify(self, mu: tuple[Q, ...]) -> str:
        """'regular', or the first reason the level is not regular."""
        rs = self.rs
        tie = False
        for d, hs in zip(self.directions, self.heights):
            h = rs.inner(d, mu)
            if h > hs[-1]:
                return "outside"
            if h == hs[-1]:
                return "facet"
            if h in hs:
                tie = True
        if rs.rank >= 2 and any(_on_segment(mu, a, b) for a, b in self.segments):
            return "segment"
        return "tie" if tie else "regular"

    def _combination(self, weights: list[int], points) -> tuple[Q, ...]:
        total = sum(weights)
        mu = vzero(self.rs.rank)
        for wt, p in zip(weights, points):
            mu = vadd(mu, vscale(Q(wt, total), p))
        return mu

    def interior_point(self, rng: random.Random) -> tuple[Q, ...]:
        return self._combination([rng.randint(1, 6) ** 3 for _ in self.images],
                                 self.images)

    def planted(self, kind: str, rng: random.Random) -> tuple[Q, ...]:
        """A level of the given irregular kind, verified by classify."""
        if kind == "outside":
            mu = vscale(Q(3, 2), rng.choice(self.images))
        elif kind == "facet":
            d = rng.choice(self.directions)
            top = max(self.rs.inner(d, p) for p in self.images)
            face = [p for p in self.images if self.rs.inner(d, p) == top]
            mu = self._combination([rng.randint(1, 4) for _ in face], face)
        else:
            inner = [(a, b) for a, b in self.segments
                     if self.classify(vscale(Q(1, 2), vadd(a, b))) == "segment"]
            a, b = rng.choice(inner)
            mu = vscale(Q(1, 2), vadd(a, b))
        got = self.classify(mu)
        if got != kind:
            raise AssertionError(f"planted {kind} level classified as {got}")
        return mu


def _on_segment(mu, a, b) -> bool:
    d, m = vsub(b, a), vsub(mu, a)
    k = next(i for i, x in enumerate(d) if x != 0)  # a != b: images are distinct
    t = m[k] / d[k]
    return 0 <= t <= 1 and m == vscale(t, d)


class Generator:
    """Builds queries for one seed; orbits are built once per key."""

    def __init__(self, seed: int, cache_dir: str):
        self.rng = random.Random(seed)
        self.cache_dir = cache_dir
        self._groups: dict[tuple[str, int], tuple[RootSystem, WeylGroup]] = {}
        self._orbits: dict[tuple, Orbit] = {}
        self.redraws = 0

    def orbit(self, type_label: str, rank: int, coeffs: tuple[int, ...]) -> Orbit:
        key = (type_label, rank, coeffs)
        got = self._orbits.get(key)
        if got is None:
            grp = self._groups.get((type_label, rank))
            if grp is None:
                rs = build_root_system(type_label, rank)
                grp = (rs, generate_weyl(rs))
                self._groups[(type_label, rank)] = grp
            got = Orbit(*grp, coeffs)
            self._orbits[key] = got
        return got

    def level_query(self, command: str, type_label: str, rank: int,
                    coeffs: tuple[int, ...], planted: str | None = None) -> Query:
        orb = self.orbit(type_label, rank, coeffs)
        if planted is None:
            while True:
                mu = orb.interior_point(self.rng)
                if orb.classify(mu) == "regular":
                    break
                self.redraws += 1
        else:
            mu = orb.planted(planted, self.rng)
        coords = ",".join(rational_str(c) for c in orb.rs.chamber_coefficients(mu))
        argv = (command, "--type", type_label, "--rank", str(rank),
                "--lambda", ",".join(map(str, coeffs)), f"--mu={coords}",
                "--cache-dir", self.cache_dir)
        return Query(argv, command, f"{type_label}{rank}",
                     2 if planted else 0, planted)

    def table_query(self, command: str, type_label: str, rank: int,
                    fmt: str = "json") -> Query:
        argv = (command, "--type", type_label, "--rank", str(rank),
                "--format", fmt, "--cache-dir", self.cache_dir)
        return Query(argv, command if fmt == "json" else f"{command}-{fmt}",
                     f"{type_label}{rank}", 0)
