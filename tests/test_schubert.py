import random
from fractions import Fraction as Q

import pytest

from weightvar.cache import cache_path, load_table, store_table
from weightvar.errors import InhomogeneousInput
from weightvar.poly import IncrementalRank, Polynomial, monomial_basis
from weightvar.schubert import EquivariantClass, SchubertCalculus


def wid(g, word):
    cur = 0
    for i in word:
        cur = g.right_mult(cur, i)
    return cur


def lf(coords):
    return Polynomial.linear_form(tuple(Q(c) for c in coords))


def test_billey_examples_a2(session):
    ctx = session("A", 2)
    calc, g = ctx.calc, ctx.group
    s1, s2 = wid(g, (0,)), wid(g, (1,))
    assert calc.billey_restriction(s1, s1) == lf((1, 0))
    assert calc.billey_restriction(s1, g.w0) == lf((1, 1))
    assert calc.billey_restriction(s1, s2).is_zero()


@pytest.mark.parametrize("type_label,rank", [("A", 2), ("B", 2), ("A", 3)])
def test_billey_support_triangularity(session, type_label, rank):
    ctx = session(type_label, rank)
    calc, g = ctx.calc, ctx.group
    for w in range(g.order):
        for v in range(g.order):
            nonzero = not calc.billey_restriction(w, v).is_zero()
            assert nonzero == g.bruhat_leq(w, v)


@pytest.mark.parametrize("type_label,rank", [("A", 2), ("B", 2)])
def test_billey_diagonal_formula(session, type_label, rank):
    # independent product over the inversion set
    ctx = session(type_label, rank)
    calc, g = ctx.calc, ctx.group
    for w in range(g.order):
        prod = Polynomial.one(rank)
        for root in g.inversions(w):
            prod = prod * Polynomial.linear_form(root)
        assert calc.billey_restriction(w, w) == prod


@pytest.mark.parametrize("type_label,rank", [("A", 2), ("B", 2), ("A", 3)])
def test_billey_degree2_closed_form(session, type_label, rank):
    ctx = session(type_label, rank)
    calc, g, rs = ctx.calc, ctx.group, ctx.rs
    for i in range(rank):
        si = wid(g, (i,))
        li = rs.fundamental_weights[i]
        for v in range(g.order):
            expect = Polynomial.linear_form(li) - \
                Polynomial.linear_form(g.act(v, li))
            assert calc.billey_restriction(si, v) == expect


@pytest.mark.parametrize("type_label,rank", [("A", 2), ("B", 2), ("G", 2)])
def test_billey_positivity(session, type_label, rank):
    ctx = session(type_label, rank)
    calc, g = ctx.calc, ctx.group
    for v in range(g.order):
        for w in range(g.order):
            p = calc.billey_restriction(w, v)
            assert all(c.denominator == 1 and c > 0 for c in p.terms.values())
            if not p.is_zero():
                assert p.degree == g.elements[w].length
                assert p.is_homogeneous()


@pytest.mark.parametrize("type_label,rank",
                         [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2),
                          ("B", 3), ("C", 3), ("G", 2)])
def test_restriction_table_is_integral(session, tmp_path, type_label, rank):
    g = session(type_label, rank).group
    table = SchubertCalculus(g).ensure_table()
    assert all(type(c) is int for col in table.values()
               for p in col.values() for c in p.terms.values())
    # the cached copy (parsed back as Fractions) equals it entry by entry
    path = cache_path(tmp_path, type_label, rank)
    store_table(path, g, table)
    loaded = load_table(path, g)
    assert sorted(loaded) == sorted(table)
    for v, col in table.items():
        assert sorted(loaded[v]) == sorted(col)
        for w, p in col.items():
            assert loaded[v][w] == p and loaded[v][w].key() == p.key()


def _column_along_word(g, word):
    """Subword DP along an arbitrary reduced word (test-local oracle)."""
    rs = g.rs
    state = {0: Polynomial.one(rs.rank)}
    prefix = 0
    for letter in word:
        root = g.act(prefix, rs.simple_root(letter))
        assert rs.is_positive_root(root)
        form = Polynomial.linear_form(root)
        new = dict(state)
        for u, acc in state.items():
            us = g.right_mult(u, letter)
            if g.elements[us].length > g.elements[u].length:
                new[us] = (new[us] + acc * form) if us in new else acc * form
        state = new
        prefix = g.right_mult(prefix, letter)
    return state


@pytest.mark.parametrize("type_label,rank",
                         [("A", 2), ("B", 2), ("A", 3), ("G", 2)])
def test_billey_word_independence(session, type_label, rank):
    ctx = session(type_label, rank)
    calc, g = ctx.calc, ctx.group
    for v in range(g.order):
        for word in g.reduced_words(v):
            col = _column_along_word(g, word)
            for w in range(g.order):
                assert col.get(w, Polynomial.zero(rank)) == \
                    calc.billey_restriction(w, v)


def test_schubert_class_unit_and_point(session):
    ctx1 = session("A", 1)
    calc1, g1 = ctx1.calc, ctx1.group
    xe = calc1.schubert_class(0)
    assert xe.half_degree == 1
    assert xe.support() == {0}
    assert xe.restriction(0) == lf((-1,))
    unit = calc1.unit_class()
    assert unit.half_degree == 0
    assert all(unit.restriction(v) == Polynomial.one(1)
               for v in range(g1.order))

    ctx2 = session("A", 2)
    calc2, g2 = ctx2.calc, ctx2.group
    unit2 = calc2.unit_class()
    assert unit2.support() == set(range(g2.order))
    assert all(p == Polynomial.one(2) for p in unit2.restrictions.values())


def test_schubert_support_is_bruhat_lower_set(session):
    for t, r in [("A", 2), ("B", 2)]:
        ctx = session(t, r)
        calc, g = ctx.calc, ctx.group
        for w in range(g.order):
            x = calc.schubert_class(w)
            assert x.half_degree == g.elements[g.w0].length - g.elements[w].length
            assert x.support() == set(g.bruhat_lower_ids(w))
            for v in range(g.order):
                if not g.bruhat_leq(v, w):
                    assert x.restriction(v).is_zero()


def test_support_operation(session):
    ctx = session("A", 2)
    calc, g = ctx.calc, ctx.group
    s1 = wid(g, (0,))
    assert calc.unit_class().support() == set(range(g.order))
    assert calc.schubert_class(s1).support() == {0, s1}
    zero = EquivariantClass(2, 3, {})
    assert zero.support() == set()


def test_weyl_twist(session):
    ctx1 = session("A", 1)
    calc1 = ctx1.calc
    xe = calc1.schubert_class(0)
    assert calc1.weyl_twist(xe, 0) == xe
    tw = calc1.weyl_twist(xe, 1)
    assert tw.support() == {1}
    assert tw.restriction(1) == lf((1,))

    ctx2 = session("A", 2)
    calc2, g2 = ctx2.calc, ctx2.group
    for tau in range(g2.order):
        for w in range(g2.order):
            c = calc2.twisted_class(tau, w)
            u = g2.multiply(g2.inverse(tau), w)
            assert c.half_degree == calc2.schubert_class(u).half_degree
            expect = {v for v in range(g2.order)
                      if g2.bruhat_leq(g2.multiply(g2.inverse(tau), v), u)}
            assert c.support() == expect


@pytest.mark.parametrize("type_label,rank", [("A", 2), ("B", 2), ("G", 2),
                                             ("A", 3)])
def test_weyl_twist_is_an_action_by_ring_automorphisms(session, type_label,
                                                       rank):
    # the premise of the kernel de-duplication: a.(b.c) = (ab).c and
    # a.(c d) = (a.c)(a.d), so a.c = b.c iff b^-1 a fixes c
    ctx = session(type_label, rank)
    calc, g = ctx.calc, ctx.group
    rng = random.Random(5)
    for _ in range(12):
        a, b = rng.randrange(g.order), rng.randrange(g.order)
        c = calc.schubert_class(rng.randrange(g.order))
        d = calc.schubert_class(rng.randrange(g.order))
        assert calc.weyl_twist(calc.weyl_twist(c, b), a) == \
            calc.weyl_twist(c, g.multiply(a, b))
        assert calc.weyl_twist(c * d, a) == \
            calc.weyl_twist(c, a) * calc.weyl_twist(d, a)


def test_integrate(session):
    ctx = session("A", 2)
    calc, g = ctx.calc, ctx.group
    s1 = wid(g, (0,))
    assert calc.integrate(calc.schubert_class(0)) == Polynomial.one(2)
    assert calc.integrate(calc.schubert_class(s1)).is_zero()
    assert calc.integrate(calc.schubert_class(0) * calc.unit_class()) == \
        Polynomial.one(2)
    ctx_b = session("B", 2)
    assert ctx_b.calc.integrate(ctx_b.calc.schubert_class(0)) == \
        Polynomial.one(2)


def test_integrate_random_products_polynomial(session):
    rng = random.Random(3)
    for t, r in [("A", 2), ("B", 2)]:
        ctx = session(t, r)
        calc, g = ctx.calc, ctx.group
        for _ in range(30):
            c = calc.schubert_class(rng.randrange(g.order)) * \
                calc.schubert_class(rng.randrange(g.order))
            m = Polynomial.monomial(tuple(rng.randint(0, 1) for _ in range(r)))
            calc.integrate(c.scale_poly(m))  # raises on failure


def random_homogeneous_class(calc, rng, half_degree):
    g = calc.group
    top = g.elements[g.w0].length
    total = EquivariantClass(calc.nvars, half_degree, {})
    for w in range(g.order):
        rem = half_degree - (top - g.elements[w].length)
        if rem < 0:
            continue
        coeff = Polynomial(calc.nvars, {
            tuple(m): Q(rng.randint(-3, 3)) for m in
            monomial_basis(calc.nvars, rem)})
        if not coeff.is_zero():
            total = total + calc.schubert_class(w).scale_poly(coeff)
    return total


def test_decompose_examples(session):
    ctx = session("A", 2)
    calc, g = ctx.calc, ctx.group
    s1, s2 = wid(g, (0,)), wid(g, (1,))
    # a basis element decomposes as itself
    sc = calc.decompose(calc.schubert_class(s1), 0)
    assert sc.coeffs == {s1: Polynomial.one(2)}
    # scalar multiples of the unit land on the top index
    q = Polynomial(2, {(2, 0): Q(3), (1, 1): Q(-1, 2)})
    sc = calc.decompose(calc.unit_class().scale_poly(q), 0)
    assert sc.coeffs == {g.w0: q}
    # product reassembles exactly
    prod = calc.schubert_class(s1) * calc.schubert_class(s2)
    sc = calc.decompose(prod, 0)
    assert calc.reassemble(sc) == prod


def test_decompose_roundtrip_all_twists(session):
    ctx = session("A", 2)
    calc, g = ctx.calc, ctx.group
    rng = random.Random(17)
    top = g.elements[g.w0].length
    for tau in range(g.order):
        for _ in range(4):
            c = random_homogeneous_class(calc, rng, rng.randint(0, top))
            sc = calc.decompose(c, tau)
            assert calc.reassemble(sc) == c
            for w, a in sc.coeffs.items():
                assert a.is_homogeneous()
                u = g.multiply(g.inverse(tau), w)
                expected = c.half_degree - (top - g.elements[u].length)
                assert a.degree == expected


def test_decompose_coefficients_unique(session):
    # coefficients in the untwisted basis match the construction exactly
    ctx = session("B", 2)
    calc, g = ctx.calc, ctx.group
    rng = random.Random(29)
    top = g.elements[g.w0].length
    d = 3
    chosen = {}
    total = EquivariantClass(2, d, {})
    for w in range(g.order):
        rem = d - (top - g.elements[w].length)
        if rem < 0:
            continue
        coeff = Polynomial(2, {tuple(m): Q(rng.randint(-2, 2))
                               for m in monomial_basis(2, rem)})
        if coeff.is_zero():
            continue
        chosen[w] = coeff
        total = total + calc.schubert_class(w).scale_poly(coeff)
    sc = calc.decompose(total, 0)
    assert sc.coeffs == chosen


def test_class_validation():
    with pytest.raises(InhomogeneousInput):
        EquivariantClass(2, 2, {0: Polynomial.one(2)})
    with pytest.raises(InhomogeneousInput):
        EquivariantClass(2, 1, {0: Polynomial.one(2) + lf((1, 0))})
    c = EquivariantClass(2, 1, {0: lf((1, 0)), 1: Polynomial.zero(2)})
    assert c.support() == {0}
    with pytest.raises(InhomogeneousInput):
        c.scale_poly(Polynomial.one(2) + lf((0, 1)))


@pytest.mark.parametrize("t,r", [("A", 2), ("B", 2), ("G", 2)])
def test_twists_and_products_pass_the_public_checks(session, t, r):
    # twists and products skip the homogeneity checks: each is the class
    # the validating constructor builds from its restrictions, and that
    # constructor still refuses them one degree off
    ctx = session(t, r)
    calc, g = ctx.calc, ctx.group
    derived = [calc.twisted_class(tau, v)
               for tau in range(g.order) for v in range(0, g.order, 3)]
    derived += [a * b for a, b in zip(derived, derived[1:])]
    for c in derived:
        assert c == EquivariantClass(c.nvars, c.half_degree, c.restrictions)
        assert all(p.is_homogeneous() and p.degree == c.half_degree
                   for p in c.restrictions.values())
        if c.restrictions:
            with pytest.raises(InhomogeneousInput):
                EquivariantClass(c.nvars, c.half_degree + 1, c.restrictions)


@pytest.mark.parametrize("type_label,rank", [("A", 2)])
def test_basis_freeness_per_degree(session, type_label, rank):
    # restriction vectors of {x_w * monomial} are independent slice by slice
    ctx = session(type_label, rank)
    calc, g = ctx.calc, ctx.group
    top = g.elements[g.w0].length
    for d in range(top + 1):
        monos = monomial_basis(rank, d)
        mono_rank = {m: i for i, m in enumerate(monos)}
        nm = len(monos)
        acc = IncrementalRank()
        count = 0
        for w in range(g.order):
            rem = d - (top - g.elements[w].length)
            if rem < 0:
                continue
            xw = calc.schubert_class(w)
            for m in monomial_basis(rank, rem):
                count += 1
                row = {}
                for u, p in xw.restrictions.items():
                    for e, cf in p.terms.items():
                        shifted = tuple(a + b for a, b in zip(e, m))
                        row[u * nm + mono_rank[shifted]] = cf
                assert acc.add_row(row) is True
        assert acc.rank == count
