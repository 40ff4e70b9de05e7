"""Kernel generators and graded Betti numbers of weight varieties.

The orbit parameter is stored ANTIDOMINANT: the user supplies positive
coefficients (c_1..c_l) and the orbit point is -sum c_j lambda_j. With
that orientation heights in chamber directions increase along the Bruhat
order, which is what makes the one-sided-support description of the kernel
match the twisted-basis lower sets. The CLI applies the sign internally;
callers of this module get the same convention.

Two independent enumerations of the kernel generators exist on purpose:

* kernel_generators tests the closed inequality of the main description
  directly, pair by pair, using only heights of fixed-point images;
* tw_oracle_generators asks, for each twisted basis element, whether SOME
  nonzero chamber direction puts every point of its support weakly below
  the level, as an exact linear feasibility problem solved by
  Fourier-Motzkin elimination. It takes neither shortcut of the first
  route (the single-weight test, height monotonicity along Bruhat), only
  the support theorem that `schubert` states and `check` verifies.

Both enumerate at a level certified by regular_level, the one
regularity test, and read only the height table it certifies: the
heights <lambda_j, u lambda> of the fixed points and <lambda_j, t mu> of
the level's W-translates, both times one positive integer D that makes
every entry an int. Scaling by one positive factor keeps every
comparison, tie, maximum and margin sign, and each margin row's
half-space in the oracle. They must select the same classes; the
acceptance suite compares the graded dimensions of the two ideals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from math import gcd, lcm

from .errors import (ConfigError, DegreeOverflow,
                     InternalConsistencyError, MuNotRegularValue)
from .poly import IncrementalRank, monomial_basis
from .rootsys import RootSystem, TVector, vadd, vscale, vzero
from .schubert import EquivariantClass, SchubertCalculus
from .weyl import WeylGroup


@dataclass(frozen=True)
class OrbitParameter:
    """Generic orbit datum: positive coefficients, the antidominant point
    lambda = -sum c_j lambda_j, and the fixed-point images v(lambda)."""

    coeffs: tuple[Q, ...]
    lam: TVector
    images: tuple[TVector, ...]


@dataclass(frozen=True)
class RegularLevel:
    """A level `mu` that `regular_level` certified regular for `orbit`, with
    the int height tables the test read: pre[j][u] = D <lambda_j, u lambda>
    and lvl[j][t] = D <lambda_j, t mu>, where D > 0 is the lcm of every
    denominator of the unscaled heights in both tables. One positive factor
    for both keeps every comparison between them. The generator
    enumerations at that orbit read their heights from here and do not test
    the level again."""

    mu: TVector
    orbit: OrbitParameter
    pre: tuple[tuple[int, ...], ...]
    lvl: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class KernelGeneratorSpec:
    """A generator of the kernel ideal: the basis element indexed by v in
    the tau-twisted basis, with every witnessing weight index (0-based)."""

    tau: int
    v: int
    witnesses: tuple[int, ...]


@dataclass(frozen=True)
class GradedDims:
    """Even Betti numbers b_0, b_2, ... and the Poincare polynomial."""

    betti: tuple[int, ...]
    poincare: str


def orbit_parameter(g: WeylGroup, rs: RootSystem, coeffs) -> OrbitParameter:
    cs = tuple(Q(c) for c in coeffs)
    if len(cs) != rs.rank:
        raise ConfigError(f"need {rs.rank} orbit coefficients, got {len(cs)}")
    if any(c <= 0 for c in cs):
        raise ConfigError("orbit coefficients must all be positive")
    lam = vzero(rs.rank)
    for c, w in zip(cs, rs.fundamental_weights):
        lam = vadd(lam, vscale(-c, w))
    images = tuple(g.act(v, lam) for v in range(g.order))
    if len(set(images)) != g.order:
        raise InternalConsistencyError("fixed-point images not distinct")
    return OrbitParameter(coeffs=cs, lam=lam, images=images)


def mu_from_weight_coords(rs: RootSystem, coords) -> TVector:
    """Reduction level from coefficients in the fundamental-weight basis."""
    cs = tuple(Q(c) for c in coords)
    if len(cs) != rs.rank:
        raise ConfigError(f"need {rs.rank} level coordinates, got {len(cs)}")
    mu = vzero(rs.rank)
    for c, w in zip(cs, rs.fundamental_weights):
        mu = vadd(mu, vscale(c, w))
    return mu


# -- regularity ---------------------------------------------------------------


def _height_tables(g: WeylGroup, rs: RootSystem, orbit: OrbitParameter,
                   mu: TVector):
    """The int tables pre[j][u] = D <lambda_j, u lambda> and
    lvl[j][t] = D <lambda_j, t mu>, D > 0 the lcm of every denominator in
    both.

    lambda_j is dual to the coroot of alpha_j, so in simple-root
    coordinates <lambda_j, x> = x_j (alpha_j, alpha_j) / 2."""
    half = [rs.gram[j][j] / 2 for j in range(rs.rank)]
    moved = [g.act(t, mu) for t in range(g.order)]
    tables = [[[p[j] * c for p in points] for j, c in enumerate(half)]
              for points in (orbit.images, moved)]
    den = lcm(*(x.denominator for table in tables for row in table
                for x in row))
    pre, lvl = (tuple(tuple(x.numerator * (den // x.denominator) for x in row)
                      for row in table) for table in tables)
    return pre, lvl


def regular_level(g: WeylGroup, rs: RootSystem, orbit: OrbitParameter,
                  mu: TVector | RegularLevel) -> RegularLevel:
    """The one regular-value test: strictly inside the orbit polytope, and
    no tie between the level's height and a fixed-point height in any
    chamber direction. Refuses the level with MuNotRegularValue, whose
    diagnostic names the offender, and otherwise certifies it with its
    height tables.

    By W-invariance the chamber direction t lambda_j has fixed-point
    heights pre[j] and level height lvl[j][t^-1]; directions are scanned
    in (t, j) order, so the first one that fails is the first distinct
    Weyl translate of a fundamental weight that fails.

    Every point of a critical segment [v lambda, v s_a lambda] is a tie
    (pick t with t^-1 v a = a_k and j != k: the height in direction
    t lambda_j is constant along it), so the segments only name a tied
    level's refusal, read from the same tables: the first (v, a), v
    ascending and then a in `rs.positive_roots` order, whose segment holds
    the level. Any other tie is a wall coincidence at the first (tau, v, j)
    whose kernel inequality ties.
    """
    if isinstance(mu, RegularLevel) and mu.orbit == orbit:
        return mu
    mu = mu.mu if isinstance(mu, RegularLevel) else mu
    pre, lvl = _height_tables(g, rs, orbit, mu)
    tops = [max(row) for row in pre]
    fw = rs.fundamental_weights
    for t in range(g.order):
        ti = g.inverse(t)
        for j, top in enumerate(tops):
            h = lvl[j][ti]
            if h >= top:
                d = _fmt(g.act(t, fw[j]))
                raise MuNotRegularValue(
                    f"outside the moment polytope in direction {d}" if h > top
                    else f"on the facet with outward direction {d}")
    heights = [set(row) for row in pre]
    tied = [t for t in range(g.order)
            if any(lvl[j][t] in hs for j, hs in enumerate(heights))]
    if tied:
        # the columns pre[.][u] and lvl[.][0] (id 0 is the identity) are
        # u lambda and mu in simple-root coordinates times the positive
        # factors D (alpha_j, alpha_j) / 2, so mu is on [a, b] iff mu - a
        # is s (b - a) with 0 <= s <= 1, tested by cross-multiplying
        reflections = [(alpha, g.reflection_element(alpha))
                       for alpha in rs.positive_roots]
        for v in range(g.order):
            a = [row[v] for row in pre]
            m = [row[0] - x for row, x in zip(lvl, a)]
            for alpha, refl in reflections:
                u = g.multiply(v, refl)
                d = [row[u] - x for row, x in zip(pre, a)]
                k = next(i for i, x in enumerate(d) if x)
                if (0 <= m[k] * d[k] <= d[k] * d[k]
                        and all(x * d[k] == y * m[k] for x, y in zip(m, d))):
                    raise MuNotRegularValue(
                        f"on the critical segment [v.lam, v.s_a.lam] "
                        f"with v id {v}, alpha {_fmt(alpha)}")
        ti = min(tied, key=g.inverse)
        tau = g.inverse(ti)
        v, j = next((v, j) for v in range(g.order) for j in range(rs.rank)
                    if pre[j][g.multiply(ti, v)] == lvl[j][ti])
        raise MuNotRegularValue(
            f"wall coincidence: <lambda_{j + 1}, tau^-1 v lambda> "
            f"= <lambda_{j + 1}, tau^-1 mu> at tau id {tau}, v id {v}")
    return RegularLevel(mu, orbit, pre, lvl)


def is_regular(g: WeylGroup, rs: RootSystem, orbit: OrbitParameter,
               mu: TVector | RegularLevel) -> tuple[bool, str]:
    """(ok, diagnostic) view of `regular_level`: (True, "regular"), or False
    with the refusal's diagnostic."""
    try:
        regular_level(g, rs, orbit, mu)
    except MuNotRegularValue as exc:
        return False, exc.diagnostic
    return True, "regular"


def _fmt(x: TVector) -> str:
    return "(" + ", ".join(str(c) for c in x) + ")"


# -- the main enumeration ------------------------------------------------------


def kernel_generators(g: WeylGroup, rs: RootSystem, calc: SchubertCalculus,
                      orbit: OrbitParameter,
                      mu: TVector | RegularLevel) -> list[KernelGeneratorSpec]:
    """Enumerate the kernel generators by the height inequality over all
    (tau, v, j), one spec per class by `_dedupe_by_class`, which twists no
    class. The level is certified by `regular_level`, so no inequality
    ties."""
    level = regular_level(g, rs, orbit, mu)
    pre, lvl = level.pre, level.lvl
    inv = g.inverse
    mult = g.multiply
    specs: list[KernelGeneratorSpec] = []
    for tau in range(g.order):
        ti = inv(tau)
        for v in range(g.order):
            u = mult(ti, v)
            witnesses = []
            for j in range(rs.rank):
                if pre[j][u] < lvl[j][ti]:
                    witnesses.append(j)
            if witnesses:
                specs.append(KernelGeneratorSpec(tau, v, tuple(witnesses)))
    return _dedupe_by_class(calc, specs)


def _dedupe_by_class(calc: SchubertCalculus,
                     specs: list[KernelGeneratorSpec]) -> list[KernelGeneratorSpec]:
    """Keep the first spec, in (tau, v) order, of each distinct class, named
    by its basis index w = tau^-1 v and its twisted support, which
    `twisted_support` reads from the Bruhat order.

    The spec (tau, v) is the twist tau.s_w of the basis class s_w, whose
    support S_w is the Bruhat lower set of w. Claim: tau.s_w =
    tau'.s_w' iff w = w' and tau S_w = tau' S_w.
    1. A class of half-degree codim(w) supported in S_w is a s_w for a
       rational a: a basis term s_u with nonzero coefficient has u <= w and
       a coefficient of degree len(u) - len(w), negative unless u = w.
    2. The twist is the left action of N(T) on G/T; G is connected, so it
       is trivial on ordinary cohomology, where s_w maps to a nonzero class.
    3. If h = tau'^-1 tau maps S_w onto itself, h.s_w = a s_w by step 1 and
       a = 1 by step 2. Conversely, equal classes have equal supports and
       equal ordinary images, so w = w'.
    """
    g = calc.group
    seen: set[tuple[int, frozenset[int]]] = set()
    out = []
    for spec in sorted(specs, key=lambda s: (s.tau, s.v)):
        key = (g.multiply(g.inverse(spec.tau), spec.v),
               calc.twisted_support(spec.tau, spec.v))
        if key not in seen:
            seen.add(key)
            out.append(spec)
    return out


def generator_classes(calc: SchubertCalculus,
                      specs: list[KernelGeneratorSpec]) -> list[EquivariantClass]:
    return [calc.twisted_class(s.tau, s.v) for s in specs]


# -- the feasibility oracle ----------------------------------------------------


def fourier_motzkin_feasible(rows: list[tuple[tuple[Q, ...], Q]]) -> bool:
    """Decide whether {x real : coeffs . x <= rhs for every row} is nonempty.

    Each row is scaled to integers once, on entry, by the lcm of its
    denominators; the factor is positive, so the half-space is unchanged,
    and a row of ints is scaled by 1. Variables are then eliminated left to
    right in Python ints: every row with a positive first coefficient a is
    combined with every row with a negative one -b through the positive
    multipliers b and a, divided by gcd(a, b), and `_dedupe_rows` keeps one
    row per direction. A constant row 0 <= r with r < 0 proves the system
    empty; one with r >= 0 is dropped.
    """
    cur = _dedupe_rows([_int_constraint(c, r) for c, r in rows])
    while cur:
        pos, neg, combined = [], [], []
        for c, r in cur:
            if c[0] > 0:
                pos.append((c, r))
            elif c[0] < 0:
                neg.append((c, r))
            else:
                combined.append((c[1:], r))
        for cp, rp in pos:
            for cn, rn in neg:
                a, b = cp[0], -cn[0]
                g = gcd(a, b)
                a //= g
                b //= g
                row = tuple(b * x + a * y for x, y in zip(cp[1:], cn[1:]))
                combined.append((row, b * rp + a * rn))
        cur = _dedupe_rows(combined)
    return cur is not None


def _int_constraint(coeffs, rhs) -> tuple[tuple[int, ...], int]:
    """The row coeffs . x <= rhs times the lcm of its denominators."""
    d = lcm(rhs.denominator, *(v.denominator for v in coeffs))
    return (tuple(v.numerator * (d // v.denominator) for v in coeffs),
            rhs.numerator * (d // rhs.denominator))


def _dedupe_rows(rows):
    """One integer row per direction, or None if a constant row 0 <= r has
    r < 0; constant rows with r >= 0 are dropped.

    A row c . x <= r has the direction c / g, g = gcd(c) > 0, and the bound
    r / g. Of the rows sharing a direction the one with the least bound
    stays, compared exactly as r1 g2 < r2 g1; x is real, so a bound is never
    rounded. The kept row is divided by gcd(g, r).
    """
    seen = {}
    for c, r in rows:
        g = gcd(*c)
        if not g:
            if r < 0:
                return None
            continue
        key = tuple(v // g for v in c)
        got = seen.get(key)
        if got is None or r * got[1] < got[0] * g:
            seen[key] = (r, g, c)
    out = []
    for r, g, c in seen.values():
        h = gcd(g, r)
        out.append((tuple(v // h for v in c), r // h) if h != 1 else (c, r))
    return out


def tw_oracle_generators(g: WeylGroup, rs: RootSystem, calc: SchubertCalculus,
                         orbit: OrbitParameter,
                         mu: TVector | RegularLevel) -> list[KernelGeneratorSpec]:
    """Enumerate generators by exact one-sidedness of the supports.

    For each twisted basis element, feasibility over the closed weight
    simplex of 'every support image weakly below the level in direction
    tau(sum r_j lambda_j)' is decided by Fourier-Motzkin elimination, with
    one constraint per point u of the Bruhat lower set of tau^-1 v, whose
    tau-translate is the support, at a level certified by `regular_level`.
    Neither the single-weight test nor Bruhat monotonicity enters this path.
    """
    level = regular_level(g, rs, orbit, mu)
    pre, lvl = level.pre, level.lvl
    l = rs.rank
    inv = g.inverse
    mult = g.multiply
    # the closed simplex: -r_j <= 0 for j < l, sum_{j<l} r_j <= 1
    simplex = [(tuple(-1 if k == j else 0 for k in range(l - 1)), 0)
               for j in range(l - 1)] + [((1,) * (l - 1), 1)]
    specs = []
    for tau in range(g.order):
        ti = inv(tau)
        at_level = [lvl[j][ti] for j in range(l)]
        for v in range(g.order):
            margins = [[pre[j][u] - at_level[j] for j in range(l)]
                       for u in g.bruhat_lower_ids(mult(ti, v))]
            # substitute r_l = 1 - sum_{j<l} r_j over the closed simplex
            rows = [(tuple(m[j] - m[l - 1] for j in range(l - 1)), -m[l - 1])
                    for m in margins]
            if fourier_motzkin_feasible(rows + simplex):
                witnesses = tuple(j for j in range(l)
                                  if all(m[j] <= 0 for m in margins))
                if not witnesses:
                    raise InternalConsistencyError(
                        "feasible support with no single-weight witness")
                specs.append(KernelGeneratorSpec(tau, v, witnesses))
    return _dedupe_by_class(calc, specs)


# -- graded dimensions ---------------------------------------------------------


def ideal_graded_dims(g: WeylGroup, rs: RootSystem, calc: SchubertCalculus,
                      generators: list[EquivariantClass], dmax: int) -> list[int]:
    """Dimension of the ideal's slice in each half-degree 0..dmax.

    The ideal K is the H_T(pt)-span of the products gen * s_w, so its slice
    K_d is x_1 K_{d-1} + ... + x_l K_{d-1} plus the span of the products of
    degree exactly d. Rows are restriction coordinates, flattened over
    (fixed point, degree-d monomial), the monomials in graded-lex
    descending order. Each slice is one exact elimination, stopped as soon
    as its rank fills the slice; its pivot rows, an exact basis, are
    carried up to the next slice. Rows arrive in three runs:

    * the previous slice's pivot rows shifted by each variable. Multiplying
      by x_k keeps the fixed point and the lex order of monomials of one
      degree, so a shift keeps its row primitive and moves its leading
      column to the image of the old one. A shift whose leading column no
      earlier shift took is already the pivot the eliminator would store,
      and is stored unreduced;
    * the products gen * s_w of degree exactly d;
    * the shifts whose leading column was taken, reduced as usual.

    Rank does not depend on the order rows arrive in, so every slice is
    the same. At d = deg(gen) the one product that involves gen is
    gen * s_{w0}, s_{w0} the unit class. If it does not enlarge the span,
    or the slice fills before it is offered, gen lies in the span of the
    other generators' products and of x K_{d-1}, so in their ideal, and no
    later product gen * s_w is offered.
    """
    l = rs.rank
    top = g.elements[g.w0].length
    of_codim: dict[int, list[int]] = {}
    for e in g.elements:
        of_codim.setdefault(top - e.length, []).append(e.id)
    dims = []
    live = list(generators)
    prev_rows: list[dict[int, int]] = []
    for d, h_dim in enumerate(h_slice_dims(g, rs, dmax)):
        monos = monomial_basis(l, d)
        mono_rank = {m: i for i, m in enumerate(monos)}
        nm = len(monos)
        # moves[k][c]: the column of x_k times the entry in column c of the
        # previous slice, increasing in c
        lower = monomial_basis(l, d - 1)
        moves = [[u * nm + mono_rank[m[:k] + (m[k] + 1,) + m[k + 1:]]
                  for u in range(g.order) for m in lower] for k in range(l)]
        # shifts on distinct leading columns are independent, so they never
        # overfill the slice
        acc = IncrementalRank()
        leads: set[int] = set()
        clashes = []
        for prow in prev_rows:
            low = min(prow)
            for move in moves:
                if move[low] in leads:
                    clashes.append((prow, move))
                else:
                    leads.add(move[low])
                    acc.store_pivot(move[low],
                                    {move[c]: v for c, v in prow.items()})
        kept = []
        for gen in live:
            grew = False
            for w in of_codim.get(d - gen.half_degree, ()):
                if acc.rank == h_dim:
                    break
                prod = gen * calc.schubert_class(w)
                grew |= acc.add_row({u * nm + mono_rank[e]: c
                                     for u, p in prod.restrictions.items()
                                     for e, c in p.terms.items()})
            if grew or gen.half_degree != d:
                kept.append(gen)
        live = kept
        for prow, move in clashes:
            if acc.rank == h_dim:
                break
            acc.add_row({move[c]: v for c, v in prow.items()})
        dims.append(acc.rank)
        prev_rows = acc.pivot_rows()
    return dims


def h_slice_dims(g: WeylGroup, rs: RootSystem, dmax: int) -> list[int]:
    """Dimension of the full equivariant slice per half-degree."""
    top = g.elements[g.w0].length
    codims = [top - e.length for e in g.elements]
    return [sum(len(monomial_basis(rs.rank, d - c)) for c in codims if c <= d)
            for d in range(dmax + 1)]


def quotient_betti(g: WeylGroup, rs: RootSystem, calc: SchubertCalculus,
                   orbit: OrbitParameter, mu: TVector | RegularLevel,
                   dmax: int | None = None) -> GradedDims:
    """Graded Betti numbers of the reduction at mu.

    The output runs to the half real dimension D = len(w0) - l; two guard
    degrees past D are always computed and must vanish (internal check).
    An explicit dmax may be neither negative nor above len(w0).
    """
    top = g.elements[g.w0].length
    dim_half = top - rs.rank
    if dmax is not None and dmax > top:
        raise DegreeOverflow(f"dmax {dmax} exceeds the top half-degree {top}")
    if dmax is not None and dmax < 0:
        raise DegreeOverflow(f"dmax {dmax} is negative")
    out_to = dim_half if dmax is None else dmax
    compute_to = max(out_to, dim_half + 2)
    specs = kernel_generators(g, rs, calc, orbit, mu)
    gens = generator_classes(calc, specs)
    ideal = ideal_graded_dims(g, rs, calc, gens, compute_to)
    full = h_slice_dims(g, rs, compute_to)
    betti = [f - i for f, i in zip(full, ideal)]
    if any(b < 0 for b in betti):
        raise InternalConsistencyError(
            f"negative graded dimension in {betti}")
    for d in range(dim_half + 1, compute_to + 1):
        if betti[d] != 0:
            raise InternalConsistencyError(
                f"guard-band Betti number b_{2 * d} = {betti[d]} is nonzero")
    trimmed = tuple(betti[: out_to + 1])
    return GradedDims(betti=trimmed, poincare=poincare_string(trimmed))


def poincare_string(betti: tuple[int, ...]) -> str:
    parts = []
    for d, b in enumerate(betti):
        if b == 0:
            continue
        if d == 0:
            parts.append(str(b))
        else:
            var = f"t^{2 * d}"
            parts.append(var if b == 1 else f"{b}*{var}")
    return " + ".join(parts) if parts else "0"
