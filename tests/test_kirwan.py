import random
from fractions import Fraction as Q
from math import gcd, lcm

import pytest

from weightvar import kirwan as K
from weightvar.errors import (ConfigError, DegreeOverflow, MuNotRegularValue)
from weightvar.poly import (IncrementalRank, ModularRank, Polynomial,
                            monomial_basis)
from weightvar.rootsys import vadd, vscale, vsub
from weightvar.schubert import SchubertCalculus
from weightvar.weyl import generate_weyl


def ctx_parts(session, t, r):
    ctx = session(t, r)
    return ctx.rs, ctx.group, ctx.calc


def mk(session, t, r, lam):
    rs, g, calc = ctx_parts(session, t, r)
    return rs, g, calc, K.orbit_parameter(g, rs, lam)


def mu_of(rs, coords):
    return K.mu_from_weight_coords(rs, coords)


# frozen regular levels (verified against is_regular when chosen)
A2_CHAMBER_MUS = [(Q(-4, 7), Q(-4, 11)), (Q(-4, 7), Q(4, 11)),
                  (Q(-2, 7), Q(-4, 11)), (Q(-1, 7), Q(4, 11))]
A2_NEARBY = [(Q(-4, 7), Q(-4, 11)), (Q(-4, 7), Q(-3, 11))]
B2_MUS = [(Q(1, 5), Q(1, 7)), (Q(3, 5), Q(1, 11))]
B2_NEARBY = [(Q(1, 5), Q(1, 7)), (Q(1, 5), Q(2, 13))]
A3_MU = (Q(1, 5), Q(1, 7), Q(1, 11))
A3_NEARBY = (Q(1, 5) + Q(1, 101), Q(1, 7), Q(1, 11))


def test_orbit_parameter(session):
    rs, g, calc, orbit = mk(session, "A", 1, [1])
    assert orbit.lam == (Q(-1, 2),)
    assert orbit.images == ((Q(-1, 2),), (Q(1, 2),))
    with pytest.raises(ConfigError):
        K.orbit_parameter(g, rs, [0])
    with pytest.raises(ConfigError):
        K.orbit_parameter(g, rs, [-1])

    rs2, g2, _, orbit2 = mk(session, "A", 2, [1, 1])
    assert len(orbit2.images) == len(set(orbit2.images)) == 6
    assert orbit2.images[0] == orbit2.lam


def test_height(session):
    # heights <xi, p> are the Gram pairing; the A1 orbit point is -lambda_1
    rs, g, calc, orbit = mk(session, "A", 1, [1])
    l1 = rs.fundamental_weights[0]
    assert orbit.lam == vscale(Q(-1), l1)
    assert rs.inner(l1, orbit.lam) == Q(-1, 2)
    assert rs.inner((Q(0),), orbit.lam) == 0
    assert rs.inner(vscale(Q(3), l1), orbit.lam) == \
        3 * rs.inner(l1, orbit.lam)


def test_is_regular_a1(session):
    rs, g, calc, orbit = mk(session, "A", 1, [1])
    assert K.is_regular(g, rs, orbit, mu_of(rs, [0]))[0]
    ok, diag = K.is_regular(g, rs, orbit, mu_of(rs, [-1]))
    assert not ok and "facet" in diag
    ok, diag = K.is_regular(g, rs, orbit, mu_of(rs, [2]))
    assert not ok and "outside" in diag


def test_is_regular_a2_segment(session):
    rs, g, calc, orbit = mk(session, "A", 2, [1, 1])
    # midpoint of [lam, s_{a1} lam] sits on a critical segment by
    # construction (it is also a boundary edge, so either diagnostic is fine)
    s1 = next(e.id for e in g.elements if e.word == (0,))
    p, q = orbit.images[0], orbit.images[s1]
    mid = vscale(Q(1, 2), vadd(p, q))
    ok, diag = K.is_regular(g, rs, orbit, mid)
    assert not ok
    # an interior point of a long diagonal is caught by the segment test
    theta = g.reflection_element((Q(1), Q(1)))
    inner_pt = vadd(orbit.images[0],
                    vscale(Q(1, 3), vsub(orbit.images[theta], orbit.images[0])))
    ok, diag = K.is_regular(g, rs, orbit, inner_pt)
    assert not ok and "segment" in diag
    for muw in A2_CHAMBER_MUS + [A2_NEARBY[1]]:
        assert K.is_regular(g, rs, orbit, mu_of(rs, muw))[0]


def _chamber_directions(g, rs):
    """The distinct Weyl translates of the fundamental weights, in (t, j)
    order: the outward facet directions of a generic orbit polytope."""
    directions = {}
    for t in range(g.order):
        for w in rs.fundamental_weights:
            directions.setdefault(g.act(t, w))
    return list(directions)


def _critical_segments(g, rs, orbit):
    """The critical segments [v lambda, v s_a lambda] with their (v, alpha),
    scanned v ascending and then alpha in positive-root order, keeping the
    first occurrence of each segment."""
    segments = []
    seen = set()
    reflections = [(alpha, g.reflection_element(alpha))
                   for alpha in rs.positive_roots]
    for v in range(g.order):
        for alpha, refl in reflections:
            a = orbit.images[v]
            b = orbit.images[g.multiply(v, refl)]
            if frozenset((a, b)) not in seen:
                seen.add(frozenset((a, b)))
                segments.append((a, b, v, alpha))
    return segments


def _reference_is_regular(g, rs, orbit):
    """The regular-value test as a loop over chamber directions: each
    distinct Weyl translate of a fundamental weight, with the top height of
    the fixed points in it; then the critical segments; then every (tau, v,
    j) of the kernel inequality, refusing the first exact tie. Returns the
    test as a function of the level."""
    def fmt(x):
        return "(" + ", ".join(str(c) for c in x) + ")"

    tops = [(d, max(rs.inner(d, p) for p in orbit.images))
            for d in _chamber_directions(g, rs)]
    fw = rs.fundamental_weights
    # vertex[j][u] = <lambda_j, u lambda>
    vertex = [[rs.inner(w, p) for p in orbit.images] for w in fw]
    segments = _critical_segments(g, rs, orbit)

    def test(mu):
        for d, top in tops:
            h = rs.inner(d, mu)
            if h > top:
                return False, f"outside the moment polytope in direction {fmt(d)}"
            if h == top:
                return False, f"on the facet with outward direction {fmt(d)}"
        if rs.rank >= 2:
            for a, b, v, alpha in segments:
                d, m = vsub(b, a), vsub(mu, a)
                k = next(i for i, x in enumerate(d) if x != 0)
                s = m[k] / d[k]
                if 0 <= s <= 1 and m == vscale(s, d):
                    return False, (f"on the critical segment [v.lam, v.s_a.lam] "
                                   f"with v id {v}, alpha {fmt(alpha)}")
        for tau in range(g.order):
            ti = g.inverse(tau)
            moved = g.act(ti, mu)
            for v in range(g.order):
                u = g.multiply(ti, v)
                for j, w in enumerate(fw):
                    if vertex[j][u] == rs.inner(w, moved):
                        return False, (
                            f"wall coincidence: <lambda_{j + 1}, tau^-1 v lambda> "
                            f"= <lambda_{j + 1}, tau^-1 mu> at tau id {tau}, v id {v}")
        return True, "regular"

    return test


@pytest.mark.parametrize("t,r,lam", [("A", 1, [2]), ("A", 2, [2, 1]),
                                     ("B", 2, [1, 3]), ("G", 2, [1, 1]),
                                     ("A", 3, [1, 2, 1]), ("B", 3, [2, 1, 1])])
def test_is_regular_matches_chamber_direction_reference(session, t, r, lam):
    rs, g, calc, orbit = mk(session, t, r, lam)
    rng = random.Random(7)
    images = orbit.images

    def combination(points, weights):
        total = sum(weights)
        mu = tuple(Q(0) for _ in range(r))
        for p, w in zip(points, weights):
            mu = vadd(mu, vscale(Q(w, total), p))
        return mu

    levels = [combination(images, [rng.randint(1, 6) ** 3 for _ in images])
              for _ in range(8)]
    levels += [vscale(Q(3, 2), rng.choice(images)) for _ in range(4)]
    levels += [rng.choice(images) for _ in range(2)]
    simple = [e.id for e in g.elements if len(e.word) == 1]
    for _ in range(4):
        v = rng.randrange(g.order)
        levels.append(combination(
            [images[v], images[g.multiply(v, rng.choice(simple))]], [1, 1]))
    highest = max(rs.positive_roots, key=sum)
    for alpha in [highest] * 2 + [rng.choice(rs.positive_roots)] * 2:
        v = rng.randrange(g.order)
        refl = g.reflection_element(alpha)
        levels.append(combination([images[v], images[g.multiply(v, refl)]],
                                  [1, 2]))
    if r >= 3:
        # ties off every segment: inside the slice of the fixed points at a
        # height between the extremes of some fundamental weight
        fw = rs.fundamental_weights
        for _ in range(4):
            w = rng.choice(fw)
            heights = sorted({rs.inner(w, p) for p in images})
            h = rng.choice(heights[1:-1])
            plane = [p for p in images if rs.inner(w, p) == h]
            levels.append(combination(
                plane, [rng.randint(1, 6) ** 3 for _ in plane]))
    reference = _reference_is_regular(g, rs, orbit)
    kinds = set()
    for mu in levels:
        got = K.is_regular(g, rs, orbit, mu)
        assert got == reference(mu)
        kinds.add(next(k for k in ("regular", "outside", "facet", "segment",
                                   "wall coincidence") if k in got[1]))
    # interior, outside, facet, (rank >= 2) critical-segment and (rank >= 3)
    # wall-coincidence levels
    assert len(kinds) == min(r + 2, 5), kinds


def _seeded_levels(rs, g, calc, orbit, rng, count):
    """`count` levels drawn as random convex combinations of the fixed-point
    images, keeping those `regular_level` accepts."""
    levels = []
    while len(levels) < count:
        weights = [rng.randint(1, 6) ** 3 for _ in orbit.images]
        mu = tuple(Q(0) for _ in range(rs.rank))
        for p, w in zip(orbit.images, weights):
            mu = vadd(mu, vscale(Q(w, sum(weights)), p))
        try:
            K.regular_level(g, rs, orbit, mu)
        except MuNotRegularValue:
            continue
        levels.append(mu)
    return levels


def _reference_height_tables(g, rs, orbit, mu):
    """The height tables through the full Gram form."""
    fw = rs.fundamental_weights
    pre = tuple(tuple(rs.inner(w, img) for img in orbit.images) for w in fw)
    lvl = tuple(tuple(rs.inner(w, g.act(t, mu)) for t in range(g.order))
                for w in fw)
    return pre, lvl


ORBITS = [("A", 1, [2]), ("A", 2, [2, 1]), ("B", 2, [1, 3]),
                ("G", 2, [1, 1]), ("A", 3, [1, 2, 1]), ("B", 3, [1, 2, 1]),
                ("C", 3, [2, 1, 1])]


@pytest.mark.parametrize("t,r,lam", ORBITS)
def test_height_tables_match_gram_form_reference(session, t, r, lam):
    # the tables are all-int and equal the Gram-form heights times D, the
    # lcm of every denominator in both reference tables
    def scaled_reference(rs, mu):
        pre, lvl = _reference_height_tables(g, rs, orbit, mu)
        den = lcm(*(x.denominator for table in (pre, lvl) for row in table
                    for x in row))
        return tuple(tuple(tuple(x * den for x in row) for row in table)
                     for table in (pre, lvl))

    def check(tables, rs, mu):
        assert all(type(x) is int for table in tables for row in table
                   for x in row)
        assert tables == scaled_reference(rs, mu)

    rs, g, calc, orbit = mk(session, t, r, lam)
    rng = random.Random(13)
    levels = [tuple(Q(rng.randint(-30, 30), rng.randint(1, 30))
                    for _ in range(r)) for _ in range(3)]
    for mu in levels:
        check(K._height_tables(g, rs, orbit, mu), rs, mu)
    rs3 = rs.rescaled(3)
    check(K._height_tables(g, rs3, orbit, levels[0]), rs3, levels[0])
    level = _seeded_levels(rs, g, calc, orbit, rng, 1)[0]
    cert = K.regular_level(g, rs, orbit, level)
    check((cert.pre, cert.lvl), rs, level)


_DEDUPE = K._dedupe_by_class


def _reference_dedupe(calc, specs):
    """Twist every spec and keep the first, in (tau, v) order, of each
    distinct class key."""
    seen, out = set(), []
    for spec in sorted(specs, key=lambda s: (s.tau, s.v)):
        key = calc.twisted_class(spec.tau, spec.v).key()
        if key not in seen:
            seen.add(key)
            out.append(spec)
    return out


def _record_dedupe(monkeypatch):
    """Make both generator routes record (specs in, specs out) of their
    de-duplication."""
    calls = []

    def record(calc, specs):
        out = _DEDUPE(calc, specs)
        calls.append((specs, out))
        return out

    monkeypatch.setattr(K, "_dedupe_by_class", record)
    return calls


# (type, rank, lambda, seeded levels); the oracle route costs ~9 s per level
# on B3 and C3
@pytest.mark.parametrize("t,r,lam,count",
                         [o + (3,) for o in ORBITS[:4]]
                         + [ORBITS[4] + (2,)]
                         + [o + (1,) for o in ORBITS[5:]])
def test_dedupe_matches_twist_every_class_reference(session, monkeypatch,
                                                    t, r, lam, count):
    rs, g, calc, orbit = mk(session, t, r, lam)
    levels = _seeded_levels(rs, g, calc, orbit, random.Random(11), count)
    calls = _record_dedupe(monkeypatch)
    for mu in levels:
        K.kernel_generators(g, rs, calc, orbit, mu)
        K.tw_oracle_generators(g, rs, calc, orbit, mu)
    assert len(calls) == 2 * count
    for specs, out in calls:
        assert out == _reference_dedupe(calc, specs)
        assert r == 1 or len(out) < len(specs)


@pytest.mark.parametrize("t,r,lam", ORBITS[1:5])
def test_dedupe_exact_checks_alone_match_reference(session, monkeypatch,
                                                   t, r, lam):
    # with every spec in one support bucket, the stabilizer test and the
    # class comparison decide every pair on their own
    rs, g, calc, orbit = mk(session, t, r, lam)
    levels = _seeded_levels(rs, g, calc, orbit, random.Random(17), 1)
    calls = _record_dedupe(monkeypatch)
    K.kernel_generators(g, rs, calc, orbit, levels[0])
    specs, out = calls[0]
    one_bucket = SchubertCalculus(g)
    monkeypatch.setattr(one_bucket, "twisted_support", lambda tau, v: 0)
    assert _DEDUPE(one_bucket, specs) == out == _reference_dedupe(calc, specs)


def test_kernel_generators_a1(session):
    rs, g, calc, orbit = mk(session, "A", 1, [1])
    specs = K.kernel_generators(g, rs, calc, orbit, mu_of(rs, [0]))
    assert [(s.tau, s.v, s.witnesses) for s in specs] == \
        [(0, 0, (0,)), (1, 1, (0,))]
    classes = K.generator_classes(calc, specs)
    assert [c.support() for c in classes] == [{0}, {1}]


def test_kernel_generators_refuse_irregular(session):
    rs, g, calc, orbit = mk(session, "A", 1, [1])
    with pytest.raises(MuNotRegularValue):
        K.kernel_generators(g, rs, calc, orbit, mu_of(rs, [-1]))
    with pytest.raises(MuNotRegularValue):
        K.tw_oracle_generators(g, rs, calc, orbit, mu_of(rs, [-1]))


def test_point_classes_always_qualify(session):
    # tau^{-1} v = e gives the class tau . x_e, supported on the single
    # fixed point tau(lam), whose height is minimal in every tau-chamber
    # direction: it must be selected at every regular level.
    for (t, r, lam, muw) in [("A", 2, [1, 1], A2_CHAMBER_MUS[0]),
                             ("B", 2, [1, 1], B2_MUS[0])]:
        rs, g, calc, orbit = mk(session, t, r, lam)
        specs = K.kernel_generators(g, rs, calc, orbit, mu_of(rs, muw))
        keys = {calc.twisted_class(s.tau, s.v).key() for s in specs}
        for tau in range(g.order):
            point_class = calc.weyl_twist(calc.schubert_class(0), tau)
            assert point_class.key() in keys


def test_generator_one_sidedness(session):
    for (t, r, lam, muw) in [("A", 2, [1, 1], A2_CHAMBER_MUS[1]),
                             ("B", 2, [1, 1], B2_MUS[1])]:
        rs, g, calc, orbit = mk(session, t, r, lam)
        mu = mu_of(rs, muw)
        for s in K.kernel_generators(g, rs, calc, orbit, mu):
            cl = calc.twisted_class(s.tau, s.v)
            assert s.witnesses
            for j in s.witnesses:
                xi = g.act(s.tau, rs.fundamental_weights[j])
                lvl = rs.inner(xi, mu)
                assert all(rs.inner(xi, orbit.images[w]) <= lvl
                           for w in cl.support())


def test_oracle_matches_theorem_a1(session):
    rs, g, calc, orbit = mk(session, "A", 1, [1])
    mu = mu_of(rs, [0])
    theorem = K.kernel_generators(g, rs, calc, orbit, mu)
    oracle = K.tw_oracle_generators(g, rs, calc, orbit, mu)
    assert [(s.tau, s.v) for s in theorem] == [(s.tau, s.v) for s in oracle]


def test_oracle_unit_direction_recovers_theorem_inequality(session):
    # restricting the feasibility weights to a unit vector must reproduce
    # the per-j inequality test exactly, pair by pair
    rs, g, calc, orbit = mk(session, "A", 2, [1, 1])
    mu = mu_of(rs, A2_CHAMBER_MUS[2])
    fw = rs.fundamental_weights
    for tau in range(g.order):
        ti = g.inverse(tau)
        for v in range(g.order):
            supp = calc.twisted_class(tau, v).support()
            for j in range(2):
                xi = g.act(tau, fw[j])
                oracle_j = all(
                    rs.inner(xi, orbit.images[w]) <= rs.inner(xi, mu)
                    for w in supp)
                u = g.multiply(ti, v)
                theorem_j = rs.inner(fw[j], orbit.images[u]) <= \
                    rs.inner(fw[j], g.act(ti, mu))
                assert oracle_j == theorem_j


def test_fourier_motzkin_basics():
    one = Q(1)
    # x <= 1, -x <= -2 is empty; x <= 3, -x <= 0 is not
    assert not K.fourier_motzkin_feasible([((one,), Q(1)), ((-one,), Q(-2))])
    assert K.fourier_motzkin_feasible([((one,), Q(3)), ((-one,), Q(0))])
    # two variables, a wedge with a point solution
    rows = [((one, one), Q(1)), ((-one, Q(0)), Q(0)), ((Q(0), -one), Q(0))]
    assert K.fourier_motzkin_feasible(rows)
    assert not K.fourier_motzkin_feasible(rows + [((one, one), Q(-1))])
    assert K.fourier_motzkin_feasible([])
    assert not K.fourier_motzkin_feasible([((), Q(-1))])


def _reference_fourier_motzkin(rows):
    """Fourier-Motzkin elimination over Fractions, left to right, keeping
    the least bound of each primitive direction and the least constant."""
    if not rows:
        return True
    cur = [(tuple(map(Q, c)), Q(r)) for c, r in rows]
    nvars = len(rows[0][0])
    for step in range(nvars):
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
                combined.append((tuple(b * x + a * y
                                       for x, y in zip(cp[1:], cn[1:])),
                                 b * rp + a * rn))
        seen, constant = {}, None
        for c, r in combined:
            denom = 1
            for v in c + (r,):
                denom = denom * v.denominator // gcd(denom, v.denominator)
            ints = [int(v * denom) for v in c]
            g = 0
            for v in ints:
                g = gcd(g, v)
            if g == 0:
                constant = r if constant is None else min(constant, r)
                continue
            key = tuple(v // g for v in ints)
            val = Q(int(r * denom), g)
            if key not in seen or val < seen[key]:
                seen[key] = val
        cur = [(tuple(map(Q, k)), v) for k, v in seen.items()]
        if constant is not None:
            cur.append(((Q(0),) * (nvars - step - 1), constant))
    return all(r >= 0 for _, r in cur)


def _reference_oracle_rows(g, rs, calc, level):
    """Each (tau, v) oracle problem of `tw_oracle_generators` over
    Fractions, from the level's unscaled height tables."""
    l = rs.rank
    for tau in range(g.order):
        ti = g.inverse(tau)
        for v in range(g.order):
            margins = [tuple(level.pre[j][g.multiply(ti, w)] - level.lvl[j][ti]
                             for j in range(l))
                       for w in calc.twisted_support(tau, v)]
            rows = [(tuple(m[j] - m[l - 1] for j in range(l - 1)), -m[l - 1])
                    for m in margins]
            rows += [(tuple(Q(-1) if k == j else Q(0) for k in range(l - 1)),
                      Q(0)) for j in range(l - 1)]
            rows.append(((Q(1),) * (l - 1), Q(1)))
            yield rows


@pytest.mark.parametrize("t,r,lam", ORBITS[1:5])
def test_fourier_motzkin_matches_fraction_reference_on_oracle_problems(
        session, monkeypatch, t, r, lam):
    # every problem the oracle solves at seeded levels: its integer rows are
    # the Fraction rows of the unscaled tables, each margin row times one
    # positive factor and the simplex rows unscaled, and both get the
    # verdict of the Fraction elimination
    rs, g, calc, orbit = mk(session, t, r, lam)
    fm = K.fourier_motzkin_feasible
    calls = []

    def recording(rows):
        calls.append((rows, fm(rows)))
        return calls[-1][1]

    monkeypatch.setattr(K, "fourier_motzkin_feasible", recording)
    for mu in _seeded_levels(rs, g, calc, orbit, random.Random(29),
                             1 if r >= 3 else 2):
        level = K.regular_level(g, rs, orbit, mu)
        del calls[:]
        K.tw_oracle_generators(g, rs, calc, orbit, level)
        problems = list(_reference_oracle_rows(g, rs, calc, level))
        assert len(calls) == len(problems) == g.order ** 2
        factors = set()
        for (rows, _), ref in zip(calls, problems):
            assert len(rows) == len(ref)
            assert all(type(x) is int for c, b in rows for x in c + (b,))
            assert rows[-r:] == ref[-r:]
            for (c, b), (rc, rb) in zip(rows[:-r], ref[:-r]):
                k = next(x / y for x, y in zip(c + (b,), rc + (rb,)) if y)
                assert k > 0 and c == tuple(k * y for y in rc) and b == k * rb
                factors.add(k)
        assert len(factors) == 1
        verdicts = [v for _, v in calls]
        assert verdicts == [_reference_fourier_motzkin(p) for p in problems]
        assert verdicts == [fm(p) for p in problems]
        assert 0 < sum(verdicts) < len(verdicts)


def test_fourier_motzkin_matches_fraction_reference_on_random_systems():
    # mixed signs, zero columns, constant rows, int and Fraction entries
    rng = random.Random(31)
    verdicts = []
    for trial in range(400):
        nvars = rng.randint(0, 4)
        zero_cols = {k for k in range(nvars) if rng.random() < 0.2}

        def value():
            v = rng.randint(-5, 5)
            return v if trial % 3 == 0 else Q(v, rng.choice([1, 2, 3, 6]))

        rows = []
        for _ in range(rng.randint(0, 9)):
            constant = rng.random() < 0.1
            coeffs = tuple(0 if constant or k in zero_cols else value()
                           for k in range(nvars))
            rows.append((coeffs, value() + rng.randint(0, 4)))
        got = K.fourier_motzkin_feasible(rows)
        assert got == _reference_fourier_motzkin(rows), rows
        verdicts.append(got)
    assert 100 < sum(verdicts) < 300


def test_ideal_graded_dims_examples(session):
    rs, g, calc, orbit = mk(session, "A", 1, [1])
    mu = mu_of(rs, [0])
    specs = K.kernel_generators(g, rs, calc, orbit, mu)
    gens = K.generator_classes(calc, specs)
    assert K.ideal_graded_dims(g, rs, calc, gens, 1) == [0, 2]
    assert K.ideal_graded_dims(g, rs, calc, [], 3) == [0, 0, 0, 0]
    unit = [calc.unit_class()]
    assert K.ideal_graded_dims(g, rs, calc, unit, 2) == \
        K.h_slice_dims(g, rs, 2)


class _CarryingModularRank(ModularRank):
    """`ModularRank` with the two methods the two-pass count used to carry
    its F_p pivot rows from one slice to the next."""

    def pivot_rows(self):
        return [dict(r) for r in self._pivots.values()]

    def add_modular_row(self, row):
        return self._reduce({c: v for c, v in row.items() if v % self.p})


def _reference_ideal_graded_dims(g, rs, calc, generators, dmax):
    """The two-pass count: per slice, a mod-p pass over the shifted F_p
    pivot rows of the previous slice and then every generator x basis
    class x monomial row, which certifies the slice only when it is full;
    otherwise an exact elimination of the same generator rows."""
    l = rs.rank
    top = g.elements[g.w0].length
    codims = [top - e.length for e in g.elements]
    dims = []
    product_cache = {}

    def product(gi, w):
        key = (gi, w)
        prod = product_cache.get(key)
        if prod is None:
            prod = generators[gi] * calc.schubert_class(w)
            product_cache[key] = prod
        return prod

    prev_monos, prev_modular = [], []
    for d in range(dmax + 1):
        monos = monomial_basis(l, d)
        mono_rank = {m: i for i, m in enumerate(monos)}
        nm = len(monos)
        h_dim = sum(len(monomial_basis(l, d - codims[w]))
                    for w in range(g.order) if codims[w] <= d)

        def carried():
            nm_prev = len(prev_monos)
            for prow in prev_modular:
                for i in range(l):
                    row = {}
                    for col, val in prow.items():
                        u, k = divmod(col, nm_prev)
                        exp = list(prev_monos[k])
                        exp[i] += 1
                        row[u * nm + mono_rank[tuple(exp)]] = val
                    yield row

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
                    row = {}
                    for u, p in prod.restrictions.items():
                        base = u * nm
                        for e, cf in p.terms.items():
                            shifted = tuple(a + b for a, b in zip(e, m))
                            row[base + mono_rank[shifted]] = cf
                    yield row

        modular = _CarryingModularRank()
        for row in carried():
            if modular.add_modular_row(row) and modular.rank == h_dim:
                break
        if modular.rank != h_dim:
            for row in rows():
                if modular.add_row(row) and modular.rank == h_dim:
                    break
        prev_monos, prev_modular = monos, modular.pivot_rows()
        if modular.rank == h_dim:
            dims.append(h_dim)
            continue
        acc = IncrementalRank()
        for row in rows():
            if acc.add_row(row) and acc.rank == h_dim:
                break
        dims.append(acc.rank)
    return dims


@pytest.mark.parametrize("t,r,lam", ORBITS[:5])
def test_ideal_graded_dims_match_two_pass_reference(session, t, r, lam):
    # both routes' generator lists at seeded levels, the empty list and the
    # unit class, every half-degree up to len(w0)
    rs, g, calc, orbit = mk(session, t, r, lam)
    top = g.elements[g.w0].length
    lists = [[], [calc.unit_class()]]
    for mu in _seeded_levels(rs, g, calc, orbit, random.Random(19),
                             1 if r >= 3 else 2):
        for route in (K.kernel_generators, K.tw_oracle_generators):
            specs = route(g, rs, calc, orbit, mu)
            lists.append(K.generator_classes(calc, specs))
    got = [K.ideal_graded_dims(g, rs, calc, gens, top) for gens in lists]
    assert got == [_reference_ideal_graded_dims(g, rs, calc, gens, top)
                   for gens in lists]
    full = K.h_slice_dims(g, rs, top)
    assert got[0] == [0] * (top + 1) and got[1] == full
    # at a level the quotient lives exactly in the degrees up to
    # D = top - rank
    dim_half = top - r
    for dims in got[2:]:
        assert all(k < f for k, f in zip(dims[:dim_half + 1], full))
        assert dims[dim_half + 1:] == full[dim_half + 1:]


def test_quotient_betti_a1(session):
    rs, g, calc, orbit = mk(session, "A", 1, [1])
    for t in [Q(0), Q(1, 4), Q(-1, 4), Q(3, 5), Q(-3, 5)]:
        gd = K.quotient_betti(g, rs, calc, orbit, mu_of(rs, [t]))
        assert gd.betti == (1,)
        assert gd.poincare == "1"
    with pytest.raises(DegreeOverflow):
        K.quotient_betti(g, rs, calc, orbit, mu_of(rs, [0]), dmax=2)
    gd = K.quotient_betti(g, rs, calc, orbit, mu_of(rs, [0]), dmax=1)
    assert gd.betti == (1, 0)


def test_quotient_betti_a2(session):
    rs, g, calc, orbit = mk(session, "A", 2, [1, 1])
    for muw in A2_CHAMBER_MUS[:2]:
        gd = K.quotient_betti(g, rs, calc, orbit, mu_of(rs, muw))
        assert gd.betti[0] == 1
        assert len(gd.betti) == 2  # half real dimension (6 - 4)/2 = 1
        assert gd.betti == (1, 1)
        assert gd.poincare == "1 + t^2"


def test_quotient_betti_b2_duality(session):
    rs, g, calc, orbit = mk(session, "B", 2, [1, 1])
    for muw in B2_MUS:
        gd = K.quotient_betti(g, rs, calc, orbit, mu_of(rs, muw))
        assert len(gd.betti) == 3
        assert gd.betti[0] == 1
        assert gd.betti[2] == gd.betti[0]


def test_chamber_invariance(session):
    rs, g, calc, orbit = mk(session, "A", 2, [1, 1])
    g1 = K.quotient_betti(g, rs, calc, orbit, mu_of(rs, A2_NEARBY[0]))
    g2 = K.quotient_betti(g, rs, calc, orbit, mu_of(rs, A2_NEARBY[1]))
    assert g1 == g2
    rsb, gb, calcb, orbitb = mk(session, "B", 2, [1, 1])
    h1 = K.quotient_betti(gb, rsb, calcb, orbitb, mu_of(rsb, B2_NEARBY[0]))
    h2 = K.quotient_betti(gb, rsb, calcb, orbitb, mu_of(rsb, B2_NEARBY[1]))
    assert h1 == h2


def test_wall_coincidence_refusal_a3(session):
    # mu = 0 in A3 is off every critical segment but ties a vertex height in
    # several directions, and so does mu = (0, +-5/4, 0); the regularity test
    # refuses them, so every route refuses them with the same diagnostic
    # rather than silently depend on the closed inequality.
    rs, g, calc, orbit = mk(session, "A", 3, [1, 1, 1])
    for coords, tau, v in (([0, 0, 0], 0, 6), ([0, Q(5, 4), 0], 2, 1),
                           ([0, Q(-5, 4), 0], 2, 1)):
        mu = mu_of(rs, coords)
        diag = (f"wall coincidence: <lambda_2, tau^-1 v lambda> "
                f"= <lambda_2, tau^-1 mu> at tau id {tau}, v id {v}")
        assert K.is_regular(g, rs, orbit, mu) == (False, diag)
        for route in (K.kernel_generators, K.tw_oracle_generators):
            with pytest.raises(MuNotRegularValue) as exc:
                route(g, rs, calc, orbit, mu)
            assert exc.value.diagnostic == diag


@pytest.mark.parametrize("t,r,lam", [("A", 2, [2, 1]), ("B", 2, [1, 3]),
                                     ("G", 2, [1, 1]), ("A", 3, [1, 2, 1]),
                                     ("B", 3, [1, 2, 1]), ("C", 3, [2, 1, 1])])
def test_every_segment_point_is_a_tie(session, t, r, lam):
    # pick t with t^-1 v alpha = alpha_k and j != k: the height in direction
    # t lambda_j is constant along [v lam, v s_alpha lam], so each point of
    # the segment ties its endpoints' height there
    rs, g, calc, orbit = mk(session, t, r, lam)
    directions = _chamber_directions(g, rs)
    segments = _critical_segments(g, rs, orbit)
    assert len(segments) == g.order * len(rs.positive_roots) // 2
    for a, b, _, _ in segments:
        mu = vadd(a, vscale(Q(1, 3), vsub(b, a)))
        assert any(rs.inner(d, a) == rs.inner(d, b) == rs.inner(d, mu)
                   for d in directions)


def test_scale_invariance_of_generators(session):
    rs, g, calc, orbit = mk(session, "A", 2, [1, 1])
    mu = mu_of(rs, A2_CHAMBER_MUS[3])
    base = K.kernel_generators(g, rs, calc, orbit, mu)
    for c in (Q(3), Q(1, 7)):
        rs_c = rs.rescaled(c)
        g_c = generate_weyl(rs_c)
        from weightvar.schubert import SchubertCalculus
        calc_c = SchubertCalculus(g_c)
        orbit_c = K.orbit_parameter(g_c, rs_c, orbit.coeffs)
        got = K.kernel_generators(g_c, rs_c, calc_c, orbit_c, mu)
        assert [(s.tau, s.v, s.witnesses) for s in got] == \
            [(s.tau, s.v, s.witnesses) for s in base]
    # joint rescaling of the orbit and the level changes nothing either
    orbit_s = K.orbit_parameter(g, rs, [3 * c for c in orbit.coeffs])
    got = K.kernel_generators(g, rs, calc, orbit_s, vscale(Q(3), mu))
    assert [(s.tau, s.v, s.witnesses) for s in got] == \
        [(s.tau, s.v, s.witnesses) for s in base]


def _facet_normals(g, rs, orbit):
    """Chamber directions whose touching set (the fixed points of top
    height) spans a full facet: its differences have rank l - 1."""
    out = []
    for d in _chamber_directions(g, rs):
        heights = [rs.inner(d, p) for p in orbit.images]
        top = max(heights)
        touch = [orbit.images[v] for v, h in enumerate(heights) if h == top]
        acc = IncrementalRank()
        for p in touch[1:]:
            acc.add_row({i: c for i, c in enumerate(vsub(p, touch[0])) if c})
        if acc.rank == rs.rank - 1:
            out.append(d)
    return out


def test_walls_remark_directions_are_facet_normals(session):
    # for a generic orbit every chamber direction is a facet normal
    for t, r, lam in [("A", 1, [1]), ("A", 2, [1, 1]), ("B", 2, [1, 1]),
                      ("A", 3, [1, 1, 1])]:
        rs, g, calc, orbit = mk(session, t, r, lam)
        assert _facet_normals(g, rs, orbit) == _chamber_directions(g, rs)


def test_monotonicity_lemma_small(session):
    # heights in twisted chamber directions increase along twisted Bruhat
    # order; exhaustive sweep at rank 2 (A3 runs in the acceptance suite)
    for t, r, lam in [("A", 2, [1, 1]), ("B", 2, [1, 1])]:
        rs, g, calc, orbit = mk(session, t, r, lam)
        for tau in range(g.order):
            ti = g.inverse(tau)
            for j in range(r):
                xi = g.act(tau, rs.fundamental_weights[j])
                for v in range(g.order):
                    for w in range(g.order):
                        if g.bruhat_leq(g.multiply(ti, v), g.multiply(ti, w)):
                            assert rs.inner(xi, orbit.images[v]) <= \
                                rs.inner(xi, orbit.images[w])


def test_decomposition_support_contract(session):
    # one-sided classes decompose with every contributing basis element
    # one-sided for the same direction (the key support contract)
    rs, g, calc, orbit = mk(session, "A", 2, [1, 1])
    mu = mu_of(rs, A2_CHAMBER_MUS[0])
    specs = K.kernel_generators(g, rs, calc, orbit, mu)
    s = specs[len(specs) // 2]
    j = s.witnesses[0]
    xi = g.act(s.tau, rs.fundamental_weights[j])
    lvl = rs.inner(xi, mu)
    cl = calc.twisted_class(s.tau, s.v)
    # multiply by a scalar to get a non-basis one-sided class
    q = Polynomial(2, {(1, 0): Q(2), (0, 1): Q(-3)})
    c = cl.scale_poly(q)
    sc = calc.decompose(c, s.tau)
    assert calc.reassemble(sc) == c
    for w, a in sc.coeffs.items():
        if a.is_zero():
            continue
        supp = calc.twisted_class(s.tau, w).support()
        assert all(rs.inner(xi, orbit.images[u]) <= lvl for u in supp)
