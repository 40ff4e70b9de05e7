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
from .poly import IncrementalRank, monomial_basis
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


@dataclass(frozen=True)
class RegularLevel(ReductionLevel):
    """A level that `regular_level` certified regular for `orbit`, with the
    height tables the test read: pre[j][u] = <lambda_j, u lambda> and
    lvl[j][t] = <lambda_j, t mu>. The generator enumerations at that orbit
    read their heights from here and do not test the level again."""

    orbit: OrbitParameter
    pre: tuple[tuple[Q, ...], ...]
    lvl: tuple[tuple[Q, ...], ...]


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


def _height_tables(g: WeylGroup, rs: RootSystem, orbit: OrbitParameter,
                   mu: TVector):
    """pre[j][u] = <lambda_j, u lambda>, lvl[j][t] = <lambda_j, t mu>.

    lambda_j is dual to the coroot of alpha_j, so in simple-root
    coordinates <lambda_j, x> = x_j (alpha_j, alpha_j) / 2."""
    half = [rs.gram[j][j] / 2 for j in range(rs.rank)]
    moved = [g.act(t, mu) for t in range(g.order)]
    pre = tuple(tuple(img[j] * c for img in orbit.images)
                for j, c in enumerate(half))
    lvl = tuple(tuple(x[j] * c for x in moved) for j, c in enumerate(half))
    return pre, lvl


def regular_level(g: WeylGroup, rs: RootSystem, orbit: OrbitParameter,
                  mu: TVector | ReductionLevel) -> RegularLevel:
    """The one regular-value test: strictly inside the orbit polytope and
    (rank >= 2) off every critical segment. Refuses the level with
    MuNotRegularValue, whose diagnostic names the offender, and otherwise
    certifies it with its height tables.

    The polytope part reads the height tables alone. By W-invariance the
    chamber direction t lambda_j has top height max_u pre[j][u] and level
    height lvl[j][t^-1]; directions are scanned in (t, j) order, so the
    first one that fails is the first distinct Weyl translate of a
    fundamental weight that fails.
    """
    if isinstance(mu, RegularLevel) and mu.orbit == orbit:
        return mu
    mu = _mu_vector(mu)
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
    if rs.rank >= 2:
        for a, b, v, alpha in gkm_segments(g, rs, orbit):
            if _on_segment(mu, a, b):
                raise MuNotRegularValue(
                    f"on the critical segment [v.lam, v.s_a.lam] "
                    f"with v id {v}, alpha {_fmt(alpha)}")
    return RegularLevel(mu, orbit, pre, lvl)


def is_regular(g: WeylGroup, rs: RootSystem, orbit: OrbitParameter,
               mu: TVector | ReductionLevel) -> tuple[bool, str]:
    """(ok, diagnostic) view of `regular_level`: (True, "regular"), or False
    with the refusal's diagnostic."""
    try:
        regular_level(g, rs, orbit, mu)
    except MuNotRegularValue as exc:
        return False, exc.diagnostic
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


def kernel_generators(g: WeylGroup, rs: RootSystem, calc: SchubertCalculus,
                      orbit: OrbitParameter,
                      mu: TVector | ReductionLevel) -> list[KernelGeneratorSpec]:
    """Enumerate the kernel generators by the closed height inequality over
    all (tau, v, j), deduplicated by restriction-vector identity.

    An exact tie in any inequality is refused as a wall coincidence: ties
    cannot happen at a regular level in rank <= 2, and refusing them keeps
    the closed/open distinction immaterial everywhere.
    """
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
    """Keep the first spec, in (tau, v) order, of each distinct class,
    twisting only the classes an exact equality check needs.

    Equal classes have equal supports, so a spec is compared only with the
    specs already kept in its support bucket; `twisted_support` needs no
    polynomial work. The spec (tau, v) is the twist tau.s_w of the basis
    class s_w, w = tau^-1 v. Twisting is a group action by ring
    automorphisms, so two twists tau_k.s_w and tau.s_w of one basis class
    are equal iff h = tau_k^-1 tau fixes s_w: one twist h.s_w per distinct
    (w, h), which the calculator keeps. Twists of different basis classes
    are compared as classes.
    """
    g = calc.group
    buckets: dict[frozenset[int], list[tuple[int, int, int]]] = {}
    out = []
    for spec in sorted(specs, key=lambda s: (s.tau, s.v)):
        tau, v = spec.tau, spec.v
        w = g.multiply(g.inverse(tau), v)
        bucket = buckets.setdefault(calc.twisted_support(tau, v), [])
        for tk, vk, wk in bucket:
            if wk == w:
                # h.s_w is the twisted class (h, h w), and h w = tk^-1 v
                tki = g.inverse(tk)
                h = g.multiply(tki, tau)
                same = (calc.twisted_class(h, g.multiply(tki, v))
                        == calc.schubert_class(w))
            else:
                same = calc.twisted_class(tk, vk) == calc.twisted_class(tau, v)
            if same:
                break
        else:
            bucket.append((tau, v, w))
            out.append(spec)
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
                         orbit: OrbitParameter,
                         mu: TVector | ReductionLevel) -> list[KernelGeneratorSpec]:
    """Enumerate generators by exact one-sidedness of the computed supports.

    For each twisted basis element, feasibility over the closed weight
    simplex of 'every support image weakly below the level in direction
    tau(sum r_j lambda_j)' is decided by Fourier-Motzkin elimination, with
    one constraint per support point. No Bruhat shortcut and no
    monotonicity lemma enter this path.
    """
    level = regular_level(g, rs, orbit, mu)
    pre, lvl = level.pre, level.lvl
    l = rs.rank
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

    The ideal K is the H_T(pt)-span of the products gen * s_w, so its slice
    K_d is x_1 K_{d-1} + ... + x_l K_{d-1} plus the span of the products of
    degree exactly d. Rows are restriction coordinates, flattened over
    (fixed point, degree-d monomial). Each slice is one exact elimination:
    the previous slice's pivot rows, an exact basis of K_{d-1}, shifted by
    each variable, then the degree-d products, until the rank fills the
    slice. Its pivot rows are the basis carried up to the next slice.
    """
    l = rs.rank
    top = g.elements[g.w0].length
    codims = [top - e.length for e in g.elements]
    dims = []
    prev_rows: list[dict[int, int]] = []
    nm_prev = 0
    for d, h_dim in enumerate(h_slice_dims(g, rs, dmax)):
        monos = monomial_basis(l, d)
        mono_rank = {m: i for i, m in enumerate(monos)}
        nm = len(monos)
        # shifts[k][i]: the index of x_k times monomial i of degree d - 1
        shifts = [[mono_rank[m[:k] + (m[k] + 1,) + m[k + 1:]]
                   for m in monomial_basis(l, d - 1)] for k in range(l)]

        def rows():
            for prow in prev_rows:
                for shift in shifts:
                    row = {}
                    for col, val in prow.items():
                        u, i = divmod(col, nm_prev)
                        row[u * nm + shift[i]] = val
                    yield row
            for gen in generators:
                for w in range(g.order):
                    if gen.half_degree + codims[w] == d:
                        prod = gen * calc.schubert_class(w)
                        yield {u * nm + mono_rank[e]: c
                               for u, p in prod.restrictions.items()
                               for e, c in p.terms.items()}

        acc = IncrementalRank()
        for row in rows():
            if acc.add_row(row) and acc.rank == h_dim:
                break
        dims.append(acc.rank)
        prev_rows, nm_prev = acc.pivot_rows(), nm
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
