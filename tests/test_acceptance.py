"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the report lines.
All comparisons are exact; there are no tolerances anywhere.
"""

import random
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction as Q

import pytest

from weightvar import kirwan as K
from weightvar.poly import IncrementalRank, Polynomial, monomial_basis
from weightvar.rootsys import vsub
from weightvar.schubert import SchubertCalculus
from weightvar.weyl import generate_weyl

from test_kirwan import (A2_CHAMBER_MUS, A2_NEARBY, A3_MU, A3_NEARBY, B2_MUS,
                         B2_NEARBY, _critical_segments)
from test_schubert import random_homogeneous_class


@contextmanager
def criterion(n, desc):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {n}: {desc}")
        raise
    print(f"[PASS] criterion {n}: {desc}")


def parts(session, t, r):
    ctx = session(t, r)
    return ctx.rs, ctx.group, ctx.calc


def test_criterion_1_billey_suite(session):
    with criterion(1, "Billey suite on A2, B2, A3, G2 (exact)"):
        for t, r in [("A", 2), ("B", 2), ("A", 3), ("G", 2)]:
            rs, g, calc = parts(session, t, r)
            for v in range(g.order):
                col = calc.xi_column(v)
                for w in range(g.order):
                    p = col.get(w, Polynomial.zero(r))
                    assert (not p.is_zero()) == g.bruhat_leq(w, v)
                    assert all(c.denominator == 1 and c > 0
                               for c in p.terms.values())
            for w in range(g.order):
                prod = Polynomial.one(r)
                for root in g.inversions(w):
                    prod = prod * Polynomial.linear_form(root)
                assert calc.billey_restriction(w, w) == prod
            for i in range(r):
                si = next(e.id for e in g.elements if e.word == (i,))
                li = rs.fundamental_weights[i]
                for v in range(g.order):
                    assert calc.billey_restriction(si, v) == \
                        Polynomial.linear_form(li) - \
                        Polynomial.linear_form(g.act(v, li))


def test_criterion_2_basis_injectivity(session):
    with criterion(2, "basis freeness per degree and decompose round-trip"):
        for t, r in [("A", 2), ("B", 2)]:
            rs, g, calc = parts(session, t, r)
            top = g.elements[g.w0].length
            for d in range(top + 1):
                monos = monomial_basis(r, d)
                mono_rank = {m: i for i, m in enumerate(monos)}
                nm = len(monos)
                acc = IncrementalRank()
                count = 0
                for w in range(g.order):
                    rem = d - (top - g.elements[w].length)
                    if rem < 0:
                        continue
                    xw = calc.schubert_class(w)
                    for m in monomial_basis(r, rem):
                        count += 1
                        row = {}
                        for u, p in xw.restrictions.items():
                            for e, cf in p.terms.items():
                                shifted = tuple(a + b for a, b in zip(e, m))
                                row[u * nm + mono_rank[shifted]] = cf
                        assert acc.add_row(row), \
                            f"dependent basis vector at {t}{r} degree {d}"
                assert acc.rank == count

        rng = random.Random(2024)
        for t, r in [("A", 2), ("B", 2)]:
            rs, g, calc = parts(session, t, r)
            top = g.elements[g.w0].length
            for _ in range(100):
                c = random_homogeneous_class(calc, rng, rng.randint(0, top))
                if (t, r) == ("A", 2):
                    for tau in range(g.order):
                        assert calc.reassemble(calc.decompose(c, tau)) == c
                else:
                    tau = rng.randrange(g.order)
                    assert calc.reassemble(calc.decompose(c, tau)) == c


def test_criterion_3_localization(session):
    with criterion(3, "localization polynomial on 200 products; "
                      "point class integrates to 1"):
        rng = random.Random(7)
        for t, r in [("A", 2), ("B", 2)]:
            rs, g, calc = parts(session, t, r)
            assert calc.integrate(calc.schubert_class(0)) == Polynomial.one(r)
            for _ in range(100):
                c = calc.schubert_class(rng.randrange(g.order)) * \
                    calc.schubert_class(rng.randrange(g.order))
                m = Polynomial.monomial(
                    tuple(rng.randint(0, 2) for _ in range(r)))
                out = calc.integrate(c.scale_poly(m))  # raises if rational
                expect = c.half_degree + m.degree - g.elements[g.w0].length
                if expect < 0:
                    assert out.is_zero()


def test_criterion_4_monotonicity(session):
    with criterion(4, "height monotonicity exhaustive on A2, B2, A3"):
        for t, r in [("A", 2), ("B", 2), ("A", 3)]:
            rs, g, calc = parts(session, t, r)
            orbit = K.orbit_parameter(g, rs, [1] * r)
            violations = 0
            for tau in range(g.order):
                ti = g.inverse(tau)
                tv = [g.multiply(ti, v) for v in range(g.order)]
                for j in range(r):
                    xi = g.act(tau, rs.fundamental_weights[j])
                    h = [rs.inner(xi, img) for img in orbit.images]
                    for v in range(g.order):
                        for w in range(g.order):
                            if g.bruhat_leq(tv[v], tv[w]) and h[v] > h[w]:
                                violations += 1
            assert violations == 0


def _dims_both_ways(rs, g, calc, orbit, mu, dmax):
    theorem = K.kernel_generators(g, rs, calc, orbit, mu)
    oracle = K.tw_oracle_generators(g, rs, calc, orbit, mu)
    dims_t = K.ideal_graded_dims(
        g, rs, calc, K.generator_classes(calc, theorem), dmax)
    dims_o = K.ideal_graded_dims(
        g, rs, calc, K.generator_classes(calc, oracle), dmax)
    return dims_t, dims_o


def _segment_sign_vector(rs, g, orbit, mu):
    out = []
    for a, b, _, _ in _critical_segments(g, rs, orbit):
        d, m = vsub(b, a), vsub(mu, a)
        c = d[0] * m[1] - d[1] * m[0]
        out.append(0 if c == 0 else (1 if c > 0 else -1))
    return tuple(out)


def test_criterion_5_main_theorem_equivalence(session):
    with criterion(5, "theorem vs Tolman-Weitsman oracle ideal dimensions"):
        rs, g, calc = parts(session, "A", 1)
        orbit = K.orbit_parameter(g, rs, [1])
        for t in [Q(0), Q(1, 4), Q(-1, 4)]:
            mu = K.mu_from_weight_coords(rs, [t])
            dims_t, dims_o = _dims_both_ways(rs, g, calc, orbit, mu, 1)
            assert dims_t == dims_o

        rs, g, calc = parts(session, "A", 2)
        orbit = K.orbit_parameter(g, rs, [1, 1])
        top = g.elements[g.w0].length
        sign_vectors = set()
        for muw in A2_CHAMBER_MUS[:3]:
            mu = K.mu_from_weight_coords(rs, muw)
            assert K.is_regular(g, rs, orbit, mu)[0]
            sign_vectors.add(_segment_sign_vector(rs, g, orbit, mu))
            dims_t, dims_o = _dims_both_ways(rs, g, calc, orbit, mu, top)
            assert dims_t == dims_o
        assert len(sign_vectors) == 3, "test levels not in distinct chambers"

        rs, g, calc = parts(session, "B", 2)
        orbit = K.orbit_parameter(g, rs, [1, 1])
        top = g.elements[g.w0].length
        for muw in B2_MUS:
            mu = K.mu_from_weight_coords(rs, muw)
            dims_t, dims_o = _dims_both_ways(rs, g, calc, orbit, mu, top)
            assert dims_t == dims_o


def test_criterion_6_a1_end_to_end(session):
    with criterion(6, "A1 reduction is a point at five regular levels"):
        rs, g, calc = parts(session, "A", 1)
        orbit = K.orbit_parameter(g, rs, [1])
        for t in [Q(0), Q(1, 4), Q(-1, 4), Q(3, 5), Q(-3, 5)]:
            gd = K.quotient_betti(g, rs, calc, orbit,
                                  K.mu_from_weight_coords(rs, [t]))
            assert gd.betti == (1,)
            assert gd.poincare == "1"


def test_criterion_7_quotient_sanity(session):
    with criterion(7, "b_0 = 1, guard band, duality, chamber constancy, "
                      "scale invariance on A2, B2, A3"):
        cases = [
            ("A", 2, [1, 1], [A2_NEARBY[0], A2_NEARBY[1], A2_CHAMBER_MUS[1]]),
            ("B", 2, [1, 1], [B2_NEARBY[0], B2_NEARBY[1], B2_MUS[1]]),
            ("A", 3, [1, 1, 1], [A3_MU, A3_NEARBY]),
        ]
        for t, r, lam, mus in cases:
            rs, g, calc = parts(session, t, r)
            orbit = K.orbit_parameter(g, rs, lam)
            D = g.elements[g.w0].length - r
            results = []
            for muw in mus:
                mu = K.mu_from_weight_coords(rs, muw)
                # quotient_betti internally computes D+2 guard degrees and
                # raises unless they vanish
                gd = K.quotient_betti(g, rs, calc, orbit, mu)
                assert gd.betti[0] == 1
                assert len(gd.betti) == D + 1
                for d in range(D + 1):
                    assert gd.betti[d] == gd.betti[D - d]
                results.append(gd)
            # first two levels are nearby points of one chamber
            assert results[0] == results[1]

            # generator sets are invariant under rescaling the product
            mu = K.mu_from_weight_coords(rs, mus[0])
            base = [(s.tau, s.v, s.witnesses)
                    for s in K.kernel_generators(g, rs, calc, orbit, mu)]
            for c in (Q(3), Q(1, 7)):
                rs_c = rs.rescaled(c)
                g_c = generate_weyl(rs_c)
                calc_c = SchubertCalculus(g_c)
                orbit_c = K.orbit_parameter(g_c, rs_c, lam)
                got = [(s.tau, s.v, s.witnesses) for s in
                       K.kernel_generators(g_c, rs_c, calc_c, orbit_c, mu)]
                assert got == base


def test_criterion_8_determinism(tmp_path):
    with criterion(8, "byte-identical output across --threads 1/2/8 and "
                      "cold/warm cache"):
        level = ["--lambda", "1,1", "--mu=-4/7,-4/11"]
        # restrict is the command that reads and writes the cache
        for cmd, extra in (("betti", level), ("kernel", level),
                           ("restrict", [])):
            outs = []
            for threads in ("1", "2", "8"):
                cache = tmp_path / f"{cmd}-t{threads}"
                for _run in range(2):  # first cold, second warm
                    proc = subprocess.run(
                        [sys.executable, "-m", "weightvar", cmd,
                         "--type", "A", "--rank", "2", *extra,
                         "--threads", threads, "--cache-dir", str(cache)],
                        capture_output=True, check=True)
                    outs.append(proc.stdout)
            assert len(set(outs)) == 1
