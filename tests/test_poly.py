import random
from fractions import Fraction as Q
from math import gcd

import pytest

from weightvar import kirwan as K
from weightvar.errors import DimensionMismatch, NonExactDivision
from weightvar.poly import (IncrementalRank, LinearSubstitution, ModularRank,
                            Polynomial, monomial_basis)


def P(nvars, terms):
    return Polynomial(nvars, {tuple(e): Q(c) for e, c in terms.items()})


A1 = P(2, {(1, 0): 1})
A2 = P(2, {(0, 1): 1})


def test_basic_arithmetic_and_normalization():
    p = A1 + A2
    assert p.terms == {(1, 0): Q(1), (0, 1): Q(1)}
    assert (p - p).is_zero()
    assert (A1 * A2).terms == {(1, 1): Q(1)}
    q = P(2, {(2, 0): Q(1, 3)}) + P(2, {(2, 0): Q(-1, 3)})
    assert q.is_zero() and q.terms == {}
    assert p.scale(Q(5, 7)).coefficient((1, 0)) == Q(5, 7)
    assert p.degree == 1 and p.is_homogeneous()
    assert (p + Polynomial.one(2)).is_homogeneous() is False
    assert Polynomial.zero(2).degree == -1


def test_constructors_store_integral_values_as_ints():
    polys = [Polynomial.constant(2, Q(6, 3)), Polynomial.one(2),
             Polynomial.monomial((1, 2), Q(-4, 2)),
             Polynomial.linear_form((Q(2), Q(-1), Q(0))),
             Polynomial.one(2).scale(Q(14, 7))]
    for p in polys:
        assert all(type(c) is int for c in p.terms.values()), p
    # non-integral values stay exact Fractions
    assert Polynomial.linear_form((Q(1, 2),)).terms == {(1,): Q(1, 2)}
    assert A1.scale(Q(2, 3)).terms == {(1, 0): Q(2, 3)}


def test_exactness_with_huge_coefficients():
    big = Q(10 ** 40 + 1, 10 ** 39)
    p = P(1, {(1,): big})
    q = p * p * p
    assert q.coefficient((3,)) == big ** 3


def test_apply_matrix_examples(session):
    ctx1 = session("A", 1)
    g1 = ctx1.group
    p = Polynomial.linear_form((Q(1),))
    assert LinearSubstitution(g1.elements[1].action)(p) == \
        Polynomial.linear_form((Q(-1),))
    # identity leaves polynomials alone
    ctx2 = session("A", 2)
    g2 = ctx2.group
    prod = A1 * A2
    assert LinearSubstitution(g2.elements[0].action)(prod) == prod
    # s1(a1*a2) = (-a1)(a1+a2) = -a1^2 - a1*a2, expanded by hand
    s1 = next(e.id for e in g2.elements if e.word == (0,))
    assert LinearSubstitution(g2.elements[s1].action)(prod) == \
        P(2, {(2, 0): -1, (1, 1): -1})


def test_apply_matrix_is_ring_homomorphism_and_action(session):
    g = session("A", 2).group
    rng = random.Random(11)

    def rand_poly():
        return Polynomial(2, {
            (rng.randint(0, 2), rng.randint(0, 2)): Q(rng.randint(-4, 4))
            for _ in range(3)})

    for _ in range(10):
        p, q = rand_poly(), rand_poly()
        for w in range(g.order):
            m = LinearSubstitution(g.elements[w].action)
            assert m(p * q) == m(p) * m(q)
            assert m(p + q) == m(p) + m(q)
    for a in range(g.order):
        for b in range(g.order):
            ab = g.multiply(a, b)
            p = rand_poly()
            act = [LinearSubstitution(g.elements[x].action)
                   for x in (ab, a, b)]
            assert act[0](p) == act[1](act[2](p))


def _evaluate(p, point):
    """p at a point, term by term over Fractions."""
    total = Q(0)
    for e, c in p.terms.items():
        term = Q(c)
        for x, k in zip(point, e):
            term *= Q(x) ** k
        total += term
    return total


@pytest.mark.parametrize("type_label,rank",
                         [("A", 2), ("B", 2), ("G", 2), ("A", 3)])
def test_apply_matrix_matches_evaluation_at_transformed_point(session,
                                                             type_label, rank):
    # variable i goes to the form in column i, so p(M)(y) = p(M^T y)
    g = session(type_label, rank).group
    top = g.elements[g.w0].length
    rng = random.Random(31 + rank)
    monos = [m for d in range(top + 1) for m in monomial_basis(rank, d)]
    polys = [Polynomial(rank, {m: Q(rng.randint(-3, 3))
                               for m in rng.sample(monos, 6)})
             for _ in range(3)]
    polys.append(Polynomial(rank, {m: Q(1) for m in monomial_basis(rank, top)}))
    for w in range(g.order):
        m = g.elements[w].action
        subst = LinearSubstitution(m)
        for p in polys:
            image = subst(p)
            assert image == LinearSubstitution(m)(p)  # a fresh memo
            for _ in range(3):
                y = [rng.randint(-4, 4) for _ in range(rank)]
                x = [sum(m[r][i] * y[r] for r in range(rank))
                     for i in range(rank)]
                assert _evaluate(image, y) == _evaluate(p, x)


def test_apply_matrix_coefficient_types(session):
    g = session("B", 2).group
    m = LinearSubstitution(next(e.action for e in g.elements
                                if e.word == (0, 1)))
    integral = P(2, {(2, 1): 3, (0, 3): -1, (1, 0): 5})
    image = m(integral)
    assert image.terms and all(type(c) is int
                               for c in image.terms.values())
    assert image.key() == tuple((e, int(c), 1)
                                for e, c in image.sorted_terms())
    # sums, differences and products of int coefficients stay ints
    other = m(P(2, {(3, 0): 1, (2, 1): 2}))
    for q in (image + other, image - other, image * other):
        assert q.terms and all(type(c) is int for c in q.terms.values())
    half =P(2, {(2, 1): Q(1, 2), (0, 3): -1})
    image = m(half)
    assert all(isinstance(c, (int, Q)) for c in image.terms.values())
    assert any(isinstance(c, Q) and c.denominator == 2
               for c in image.terms.values())
    assert image == (m(P(2, {(2, 1): 1})).scale(Q(1, 2))
                     - m(P(2, {(0, 3): 1})))


def test_divide_exact_examples():
    p = P(2, {(2, 0): 1, (1, 1): 1})
    assert p.divide_exact(A1) == A1 + A2
    assert Polynomial.zero(2).divide_exact(A1).is_zero()
    prod = A1 * A2 * (A1 + A2)
    assert prod.divide_exact(A1 * A2) == A1 + A2
    with pytest.raises(NonExactDivision):
        A1.divide_exact(A2)
    with pytest.raises(NonExactDivision):
        (A1 * A1 + A2).divide_exact(A1)
    with pytest.raises(ZeroDivisionError):
        A1.divide_exact(Polynomial.zero(2))
    # int coefficients divide exactly, never into floats
    q = Polynomial(2, {(1, 0): 3}).divide_exact(Polynomial(2, {(1, 0): 2}))
    assert q == Polynomial.constant(2, Q(3, 2))
    assert isinstance(q.coefficient((0, 0)), Q)


def test_divide_exact_roundtrip_randomized():
    rng = random.Random(23)
    for _ in range(50):
        d1, d2 = rng.randint(0, 3), rng.randint(1, 3)
        p = Polynomial(2, {tuple(m): Q(rng.randint(-5, 5))
                           for m in monomial_basis(2, d1)})
        q = Polynomial(2, {tuple(m): Q(rng.randint(-5, 5))
                           for m in monomial_basis(2, d2)})
        if p.is_zero() or q.is_zero():
            continue
        assert (p * q).divide_exact(q) == p


def test_monomial_basis():
    assert monomial_basis(2, 1) == [(1, 0), (0, 1)]
    assert len(monomial_basis(3, 2)) == 6
    assert monomial_basis(1, 0) == [(0,)]
    assert monomial_basis(2, 0) == [(0, 0)]
    assert monomial_basis(2, -1) == []
    # graded-lex descending, all of the right degree, no repeats
    ms = monomial_basis(3, 4)
    assert len(set(ms)) == len(ms) == 15
    assert all(sum(m) == 4 for m in ms)
    assert ms == sorted(ms, reverse=True)


def _rank(rows):
    """Exact rank of a dense matrix given as rows, by `IncrementalRank`."""
    acc = IncrementalRank()
    for row in rows:
        acc.add_row({c: Q(v) for c, v in enumerate(row) if v != 0})
    return acc.rank


def test_rank_examples():
    assert _rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3
    assert _rank([[0, 0], [0, 0]]) == 0
    assert _rank([[1, 2], [2, 4]]) == 1
    assert _rank([[Q(1, 2), Q(1, 3)], [Q(3), Q(2)]]) == 1


def _rank_oracle(rows):
    """Plain Gaussian elimination over Fractions, for cross-checking."""
    rows = [list(map(Q, r)) for r in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = Q(1) / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
        rank += 1
    return rank


def test_rank_randomized_vs_oracle_and_invariance():
    rng = random.Random(5)
    for trial in range(30):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[Q(rng.randint(-3, 3), rng.choice([1, 1, 2, 3]))
                 for _ in range(nc)] for _ in range(nr)]
        expected = _rank_oracle(rows)
        assert _rank(rows) == expected
        shuffled = rows[:]
        rng.shuffle(shuffled)
        scaled = [[Q(rng.choice([1, 2, 5, 7]), rng.choice([1, 3])) * x
                   for x in row] for row in shuffled]
        assert _rank(scaled) == expected
        transposed = [list(col) for col in zip(*rows)]
        assert _rank(transposed) == expected


def test_incremental_rank_growth():
    acc = IncrementalRank()
    assert acc.add_row({0: Q(1), 2: Q(2)}) is True
    assert acc.add_row({0: Q(2), 2: Q(4)}) is False  # scalar multiple
    assert acc.add_row({1: Q(1)}) is True
    assert acc.add_row({0: Q(1), 1: Q(1), 2: Q(2)}) is False  # dependent
    assert acc.rank == 2
    assert acc.add_row({}) is False
    # int rows, zero entries included, count as their Fraction equals
    for acc in (IncrementalRank(), ModularRank()):
        assert acc.add_row({0: 2, 1: 0, 2: 4}) is True
        assert acc.add_row({0: Q(1, 3), 2: Q(2, 3)}) is False
        assert acc.add_row({1: -6, 2: Q(1, 2)}) is True
        assert acc.add_row({0: 0}) is False
        assert acc.rank == 2


def test_incremental_rank_pivot_rows_span_the_rows():
    rng = random.Random(5)
    rows = [{c: Q(rng.randint(-4, 4), rng.randint(1, 3)) for c in range(6)
             if rng.random() < 0.6} for _ in range(12)]
    acc = IncrementalRank()
    for row in rows:
        acc.add_row(row)
    pivots = acc.pivot_rows()
    assert len(pivots) == acc.rank
    assert all(isinstance(v, int) for row in pivots for v in row.values())
    # the pivot rows add nothing to the span and span it on their own
    again = IncrementalRank()
    assert all(again.add_row(row) for row in pivots)
    assert not any(again.add_row(row) for row in rows)


def _reference_int_row(values):
    """A sparse rational row scaled to coprime integers whose leading entry
    is positive, by an lcm of the denominators built one at a time."""
    denom = 1
    for v in values.values():
        denom = denom * v.denominator // gcd(denom, v.denominator)
    row = {c: int(v * denom) for c, v in values.items() if v != 0}
    if not row:
        return {}
    g = 0
    for v in row.values():
        g = gcd(g, v)
    if row[min(row)] < 0:
        g = -g
    return {c: v // g for c, v in row.items()}


class _ReferenceRank:
    """The fraction-free eliminator that rebuilds the row and divides it by
    the gcd of its entries after every reduction step."""

    def __init__(self):
        self.pivots = {}
        self.seen = set()

    def add_row(self, values):
        row = _reference_int_row(values)
        if not row:
            return False
        sig = tuple(sorted(row.items()))
        if sig in self.seen:
            return False
        self.seen.add(sig)
        while row:
            lead = min(row)
            piv = self.pivots.get(lead)
            if piv is None:
                self.pivots[lead] = row
                return True
            a, b = piv[lead], row[lead]
            g = gcd(a, b)
            a //= g
            b //= g
            new = {c: v * a for c, v in row.items()}
            for c, v in piv.items():
                nv = new.get(c, 0) - v * b
                if nv:
                    new[c] = nv
                else:
                    new.pop(c, None)
            g = 0
            for v in new.values():
                g = gcd(g, v)
            row = {c: v // g for c, v in new.items()} if g else {}
        return False


def _check_against_reference(rows):
    """Offer `rows` to `IncrementalRank` and to the reference: the
    accepted/refused sequences and the ranks agree, every stored pivot is
    primitive with a positive leading entry, and it is the reference's
    pivot on the same leading column up to sign."""
    acc, ref = IncrementalRank(), _ReferenceRank()
    got = [acc.add_row(row) for row in rows]
    assert got == [ref.add_row(row) for row in rows]
    assert acc.rank == len(ref.pivots)
    for piv in acc.pivot_rows():
        lead = min(piv)
        assert gcd(*piv.values()) == 1 and piv[lead] > 0
        want = ref.pivots[lead]
        if want[lead] < 0:
            want = {c: -v for c, v in want.items()}
        assert piv == want
    return got


def test_incremental_rank_matches_normalize_every_step_reference():
    # integer and Fraction matrices, dense (zeros offered) and sparse; most
    # rows are integer combinations of fewer basis rows, so the matrices
    # are rank-deficient and most rows are refused
    rng = random.Random(23)
    deficient = 0
    for trial in range(80):
        ncols = rng.randint(1, 12)
        dens = [1] if trial % 2 == 0 else [1, 2, 3, 4, 7]

        def entry():
            return Q(rng.randint(-9, 9), rng.choice(dens))

        basis = [[entry() for _ in range(ncols)]
                 for _ in range(rng.randint(0, min(ncols, 7)))]
        rows = [list(b) for b in basis]
        for _ in range(rng.randint(0, 10)):
            ks = [rng.randint(-3, 3) for _ in basis]
            rows.append([sum((k * b[c] for k, b in zip(ks, basis)), Q(0))
                         for c in range(ncols)])
        rng.shuffle(rows)
        if trial % 2 == 0:
            rows = [[int(v) for v in row] for row in rows]
        sparse = trial % 4 >= 2
        got = _check_against_reference(
            [{c: v for c, v in enumerate(row) if v or not sparse}
             for row in rows])
        assert sum(got) == _rank_oracle(rows) if rows else not got
        deficient += sum(got) < len(rows)
    assert deficient > 40


@pytest.mark.parametrize("t,r,lam,mu", [
    # the betti-G2 and kernel-A3 levels of tests/test_golden.py
    ("G", 2, (1, 1), (Q(-82, 63), Q(286, 357))),
    ("A", 3, (2, 1, 3), (Q(1551, 1559), Q(405, 1559), Q(-1728, 1559))),
])
def test_incremental_rank_matches_reference_on_golden_slices(
        session, monkeypatch, t, r, lam, mu):
    # every ideal slice the Betti count eliminates at the level, row by row;
    # a pivot stored unreduced is a row the reference must accept
    offered = []

    class Recording(IncrementalRank):
        def __init__(self):
            super().__init__()
            self.rows, self.got = [], []
            offered.append(self)

        def add_row(self, values):
            self.rows.append(values)
            self.got.append(super().add_row(values))
            return self.got[-1]

        def store_pivot(self, lead, row):
            self.rows.append(dict(row))
            self.got.append(True)
            super().store_pivot(lead, row)

    monkeypatch.setattr(K, "IncrementalRank", Recording)
    ctx = session(t, r)
    orbit = K.orbit_parameter(ctx.group, ctx.rs, lam)
    K.quotient_betti(ctx.group, ctx.rs, ctx.calc, orbit,
                     K.mu_from_weight_coords(ctx.rs, mu))
    top = ctx.group.elements[ctx.group.w0].length
    assert len(offered) == top - r + 3
    for acc in offered:
        assert _check_against_reference(acc.rows) == acc.got


def test_json_roundtrip():
    p = P(2, {(2, 0): Q(3, 7), (0, 1): -2})
    data = p.to_json()
    assert all(set(t) == {"exp", "num", "den"} for t in data)
    assert Polynomial.from_json(2, data) == p
    with pytest.raises(DimensionMismatch):
        Polynomial.from_json(3, data)


def test_from_json_stores_integral_values_as_ints():
    p = Polynomial.from_json(2, [{"exp": [1, 0], "num": "-3", "den": "1"},
                                 {"exp": [0, 2], "num": "2", "den": "2"},
                                 {"exp": [0, 1], "num": "3", "den": "6"}])
    assert p.terms == {(1, 0): -3, (0, 2): 1, (0, 1): Q(1, 2)}
    assert [type(c) for c in (p.terms[(1, 0)], p.terms[(0, 2)])] == [int, int]
    assert type(p.terms[(0, 1)]) is Q
    with pytest.raises(ZeroDivisionError):
        Polynomial.from_json(1, [{"exp": [1], "num": "1", "den": "0"}])


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        A1 + Polynomial.one(3)
    with pytest.raises(DimensionMismatch):
        A1 * Polynomial.one(1)
