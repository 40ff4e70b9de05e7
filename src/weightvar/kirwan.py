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
  nonzero chamber direction puts its ACTUAL computed support weakly below
  the level, as an exact linear feasibility problem solved by
  Fourier-Motzkin elimination.

They must select the same classes; the acceptance suite compares the
graded dimensions of the two ideals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from math import gcd

from .errors import (ConfigError, DegreeOverflow,
                     InternalConsistencyError, MuNotRegularValue)
from .poly import IncrementalRank, ModularRank, monomial_basis
from .rootsys import RootSystem, TVector, vadd, vscale, vsub, vzero
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
class ReductionLevel:
    """A reduction level; operations refuse it unless it is regular."""

    mu: TVector


def _mu_vector(mu) -> TVector:
    return mu.mu if isinstance(mu, ReductionLevel) else mu


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


def moment_vertices(g: WeylGroup, orbit: OrbitParameter) -> dict[int, TVector]:
    """Images of the fixed points: the orbit polytope's vertex candidates."""
    return {v: orbit.images[v] for v in range(g.order)}


def height(rs: RootSystem, xi: TVector, p: TVector) -> Q:
    """Height function <xi, p> whose level sets slice the polytope."""
    return rs.inner(xi, p)


# -- regularity ---------------------------------------------------------------


def chamber_directions(g: WeylGroup, rs: RootSystem) -> list[TVector]:
    """Deduplicated Weyl translates of the fundamental weights; these are
    the outward facet directions of the orbit polytope."""
    seen: dict[TVector, None] = {}
    for t in range(g.order):
        for w in rs.fundamental_weights:
            seen.setdefault(g.act(t, w))
    return list(seen)


def gkm_segments(g: WeylGroup, rs: RootSystem,
                 orbit: OrbitParameter) -> list[tuple[TVector, TVector, int, TVector]]:
    """Critical segments [v lambda, v s_a lambda], deduplicated, with the
    (v, alpha) naming used in diagnostics."""
    out = []
    seen: set[frozenset[TVector]] = set()
    reflections = [(alpha, g.reflection_element(alpha))
                   for alpha in rs.positive_roots]
    for v in range(g.order):
        for alpha, refl in reflections:
            w = g.multiply(v, refl)
            a, b = orbit.images[v], orbit.images[w]
            key = frozenset((a, b))
            if key not in seen:
                seen.add(key)
                out.append((a, b, v, alpha))
    return out


def _on_segment(mu: TVector, a: TVector, b: TVector) -> bool:
    d = vsub(b, a)
    m = vsub(mu, a)
    k = next((i for i, x in enumerate(d) if x != 0), None)
    if k is None:
        return mu == a
    t = m[k] / d[k]
    return Q(0) <= t <= Q(1) and m == vscale(t, d)


def is_regular(g: WeylGroup, rs: RootSystem, orbit: OrbitParameter,
               mu: TVector | ReductionLevel) -> tuple[bool, str]:
    """Regular-value test: strictly inside the orbit polytope and (rank >= 2)
    off every critical segment. The diagnostic names the offender."""
    mu = _mu_vector(mu)
    for d in chamber_directions(g, rs):
        top = max(rs.inner(d, p) for p in orbit.images)
        h = rs.inner(d, mu)
        if h > top:
            return False, f"outside the moment polytope in direction {_fmt(d)}"
        if h == top:
            return False, f"on the facet with outward direction {_fmt(d)}"
    if rs.rank >= 2:
        for a, b, v, alpha in gkm_segments(g, rs, orbit):
            if _on_segment(mu, a, b):
                return False, (f"on the critical segment [v.lam, v.s_a.lam] "
                               f"with v id {v}, alpha {_fmt(alpha)}")
    return True, "regular"


def _fmt(x: TVector) -> str:
    return "(" + ", ".join(str(c) for c in x) + ")"


def facet_normals(g: WeylGroup, rs: RootSystem,
                  orbit: OrbitParameter) -> list[TVector]:
    """Chamber directions whose touching set spans a full facet; for a
    generic orbit this is every chamber direction (the walls remark)."""
    out = []
    for d in chamber_directions(g, rs):
        heights = [rs.inner(d, p) for p in orbit.images]
        top = max(heights)
        touch = [orbit.images[v] for v, h in enumerate(heights) if h == top]
        base = touch[0]
        acc = IncrementalRank()
        for p in touch[1:]:
            acc.add_row({i: c for i, c in enumerate(vsub(p, base)) if c != 0})
        if acc.rank == rs.rank - 1:
            out.append(d)
    return out


# -- the main enumeration ------------------------------------------------------


def _height_tables(g: WeylGroup, rs: RootSystem, orbit: OrbitParameter,
                   mu: TVector):
    """pre[j][u] = <lambda_j, u lambda>, lvl[j][t] = <lambda_j, t mu>."""
    fw = rs.fundamental_weights
    pre = [[rs.inner(w, img) for img in orbit.images] for w in fw]
    lvl = [[rs.inner(w, g.act(t, mu)) for t in range(g.order)] for w in fw]
    return pre, lvl


def kernel_generators(g: WeylGroup, rs: RootSystem, calc: SchubertCalculus,
                      orbit: OrbitParameter,
                      mu: TVector | ReductionLevel) -> list[KernelGeneratorSpec]:
    """Enumerate the kernel generators by the closed height inequality over
    all (tau, v, j), deduplicated by restriction-vector identity.

    An exact tie in any inequality is refused as a wall coincidence: ties
    cannot happen at a regular level in rank <= 2, and refusing them keeps
    the closed/open distinction immaterial everywhere.
    """
    mu = _mu_vector(mu)
    ok, diag = is_regular(g, rs, orbit, mu)
    if not ok:
        raise MuNotRegularValue(diag)
    pre, lvl = _height_tables(g, rs, orbit, mu)
    inv = g.inverse
    mult = g.multiply
    specs: list[KernelGeneratorSpec] = []
    for tau in range(g.order):
        ti = inv(tau)
        for v in range(g.order):
            u = mult(ti, v)
            witnesses = []
            for j in range(rs.rank):
                lhs, rhs = pre[j][u], lvl[j][ti]
                if lhs == rhs:
                    raise MuNotRegularValue(
                        f"wall coincidence: <lambda_{j + 1}, tau^-1 v lambda> "
                        f"= <lambda_{j + 1}, tau^-1 mu> at tau id {tau}, v id {v}")
                if lhs < rhs:
                    witnesses.append(j)
            if witnesses:
                specs.append(KernelGeneratorSpec(tau, v, tuple(witnesses)))
    return _dedupe_by_class(calc, specs)


def _dedupe_by_class(calc: SchubertCalculus,
                     specs: list[KernelGeneratorSpec]) -> list[KernelGeneratorSpec]:
    """Keep one spec per distinct restriction vector, in (tau, v) order.

    Equal classes necessarily share (half-degree, support), so specs are
    bucketed by that cheap signature first and the polynomials are only
    materialized inside buckets that actually collide.
    """
    g = calc.group
    top = g.elements[g.w0].length
    buckets: dict[tuple, list[KernelGeneratorSpec]] = {}
    for spec in sorted(specs, key=lambda s: (s.tau, s.v)):
        u = g.multiply(g.inverse(spec.tau), spec.v)
        sig = (top - g.elements[u].length,
               calc.twisted_support(spec.tau, spec.v))
        buckets.setdefault(sig, []).append(spec)
    out = []
    for sig, members in buckets.items():
        if len(members) == 1:
            out.append(members[0])
            continue
        seen: set[tuple] = set()
        for spec in members:
            key = calc.twisted_class(spec.tau, spec.v).key()
            if key not in seen:
                seen.add(key)
                out.append(spec)
    out.sort(key=lambda s: (s.tau, s.v))
    return out


def generator_classes(calc: SchubertCalculus,
                      specs: list[KernelGeneratorSpec]) -> list[EquivariantClass]:
    return [calc.twisted_class(s.tau, s.v) for s in specs]


# -- the feasibility oracle ----------------------------------------------------


def fourier_motzkin_feasible(rows: list[tuple[tuple[Q, ...], Q]]) -> bool:
    """Decide whether {x : coeffs . x <= rhs for every row} is nonempty,
    eliminating variables left to right over exact rationals."""
    if not rows:
        return True
    nvars = len(rows[0][0])
    cur = [(tuple(c), Q(r)) for c, r in rows]
    for _ in range(nvars):
        pos, neg, rest = [], [], []
        for c, r in cur:
            if c[0] > 0:
                pos.append((c, r))
            elif c[0] < 0:
                neg.append((c, r))
            else:
                rest.append((c[1:], r))
        combined = rest
        for cp, rp in pos:
            for cn, rn in neg:
                a, b = cp[0], -cn[0]
                row = tuple(b * x + a * y for x, y in zip(cp[1:], cn[1:]))
                combined.append((row, b * rp + a * rn))
        cur = _dedupe_rows(combined)
    return all(r >= 0 for _, r in cur)


def _dedupe_rows(rows):
    seen = {}
    constant_min = None
    width = 0
    for c, r in rows:
        width = len(c)
        denom = 1
        for v in list(c) + [r]:
            denom = denom * v.denominator // gcd(denom, v.denominator)
        ints = [int(v * denom) for v in c]
        g_all = 0
        for v in ints:
            g_all = gcd(g_all, v)
        if g_all == 0:
            # constant constraint 0 <= r
            if constant_min is None or r < constant_min:
                constant_min = r
            continue
        key = tuple(v // g_all for v in ints)
        val = Q(int(r * denom), g_all)
        if key not in seen or val < seen[key]:
            seen[key] = val
    out = [(k, v) for k, v in seen.items()]
    if constant_min is not None:
        out.append(((Q(0),) * width, constant_min))
    return out


def tw_oracle_generators(g: WeylGroup, rs: RootSystem, calc: SchubertCalculus,
                         orbit: OrbitParameter, mu: TVector) -> list[KernelGeneratorSpec]:
    """Enumerate generators by exact one-sidedness of the computed supports.

    For each twisted basis element, feasibility over the closed weight
    simplex of 'every support image weakly below the level in direction
    tau(sum r_j lambda_j)' is decided by Fourier-Motzkin elimination, with
    one constraint per support point. No Bruhat shortcut and no
    monotonicity lemma enter this path.
    """
    mu = _mu_vector(mu)
    ok, diag = is_regular(g, rs, orbit, mu)
    if not ok:
        raise MuNotRegularValue(diag)
    l = rs.rank
    pre, lvl = _height_tables(g, rs, orbit, mu)
    inv = g.inverse
    mult = g.multiply
    specs = []
    for tau in range(g.order):
        ti = inv(tau)
        for v in range(g.order):
            supp = calc.twisted_support(tau, v)
            margins = []
            for w in supp:
                u = mult(ti, w)
                margins.append(tuple(pre[j][u] - lvl[j][ti] for j in range(l)))
            # substitute r_l = 1 - sum_{j<l} r_j over the closed simplex
            rows: list[tuple[tuple[Q, ...], Q]] = []
            for m in margins:
                rows.append((tuple(m[j] - m[l - 1] for j in range(l - 1)),
                             -m[l - 1]))
            for j in range(l - 1):
                rows.append((tuple(Q(-1) if k == j else Q(0)
                                   for k in range(l - 1)), Q(0)))
            rows.append(((Q(1),) * (l - 1), Q(1)))
            if fourier_motzkin_feasible(rows):
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

    Rows are restriction coordinates of generator * basis-element products,
    flattened over (fixed point, degree-d monomial). Each slice is first
    streamed through a mod-p eliminator: reaching the full slice dimension
    there certifies the exact answer (mod-p independence of integer rows
    implies independence over Q). Slices that fall short are recomputed by
    exact fraction-free elimination, seeded with the rows the modular pass
    proved independent.
    """
    l = rs.rank
    top = g.elements[g.w0].length
    codims = [top - e.length for e in g.elements]
    dims = []
    product_cache: dict[tuple[int, int], EquivariantClass] = {}

    def product(gi: int, w: int) -> EquivariantClass:
        key = (gi, w)
        prod = product_cache.get(key)
        if prod is None:
            prod = generators[gi] * calc.schubert_class(w)
            product_cache[key] = prod
        return prod

    prev_monos: list[tuple[int, ...]] = []
    prev_modular: list[dict[int, int]] = []
    prev_exact: list[dict[int, int]] = []
    for d in range(dmax + 1):
        monos = monomial_basis(l, d)
        mono_rank = {m: i for i, m in enumerate(monos)}
        nm = len(monos)
        h_dim = sum(len(monomial_basis(l, d - codims[w])) for w in range(g.order)
                    if codims[w] <= d)

        def carried(rows_prev: list[dict[int, int]]):
            # the ideal is closed under multiplication by the coordinate
            # forms, so pivot rows of the previous slice, with every
            # exponent vector shifted by one variable, land in this slice
            nm_prev = len(prev_monos)
            for prow in rows_prev:
                for i in range(l):
                    row: dict[int, int] = {}
                    for col, val in prow.items():
                        u, k = divmod(col, nm_prev)
                        exp = list(prev_monos[k])
                        exp[i] += 1
                        row[u * nm + mono_rank[tuple(exp)]] = val
                    yield row

        # low monomial multiplicity first: maximizes generator variety
        # early, which is where the new independent directions come from
        blocks = sorted(
            (d - generators[gi].half_degree - codims[w], gi, w)
            for gi in range(len(generators))
            if generators[gi].half_degree <= d
            for w in range(g.order)
            if d - generators[gi].half_degree - codims[w] >= 0)

        def rows():
            for rem, gi, w in blocks:
                prod = product(gi, w)
                if prod.is_zero():
                    continue
                for m in monomial_basis(l, rem):
                    row: dict[int, Q] = {}
                    for u, p in prod.restrictions.items():
                        base = u * nm
                        for e, cf in p.terms.items():
                            shifted = tuple(a + b for a, b in zip(e, m))
                            row[base + mono_rank[shifted]] = cf
                    yield row

        modular = ModularRank()
        for row in carried(prev_modular):
            if modular.add_modular_row(row):
                if modular.rank == h_dim:
                    break
        seeds: list[dict[int, Q]] = []
        if modular.rank != h_dim:
            for row in rows():
                if modular.add_row(row):
                    seeds.append(row)
                if modular.rank == h_dim:
                    break
        if modular.rank == h_dim:
            dims.append(h_dim)
            prev_monos, prev_modular = monos, modular.pivot_rows()
            prev_exact = []
            continue

        acc = IncrementalRank()
        for row in carried(prev_exact):
            if acc.add_row(row) and acc.rank == h_dim:
                break
        for row in seeds:
            if acc.rank == h_dim:
                break
            acc.add_row(row)
        if acc.rank != h_dim:
            for row in rows():
                acc.add_row(row)
                if acc.rank == h_dim:
                    break
        dims.append(acc.rank)
        prev_monos, prev_modular = monos, modular.pivot_rows()
        prev_exact = acc.pivot_rows()
    return dims


def h_slice_dims(g: WeylGroup, rs: RootSystem, dmax: int) -> list[int]:
    """Dimension of the full equivariant slice per half-degree."""
    top = g.elements[g.w0].length
    codims = [top - e.length for e in g.elements]
    return [sum(len(monomial_basis(rs.rank, d - c)) for c in codims if c <= d)
            for d in range(dmax + 1)]


def quotient_betti(g: WeylGroup, rs: RootSystem, calc: SchubertCalculus,
                   orbit: OrbitParameter, mu: TVector | ReductionLevel,
                   dmax: int | None = None) -> GradedDims:
    """Graded Betti numbers of the reduction at mu.

    The output runs to the half real dimension D = len(w0) - l; two guard
    degrees past D are always computed and must vanish (internal check).
    An explicit dmax may not exceed len(w0).
    """
    mu = _mu_vector(mu)
    top = g.elements[g.w0].length
    dim_half = top - rs.rank
    if dmax is not None and dmax > top:
        raise DegreeOverflow(f"dmax {dmax} exceeds the top half-degree {top}")
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
