from fractions import Fraction as Q

import pytest

from weightvar.errors import (DimensionMismatch, InvalidRank,
                              RankLimitExceeded)
from weightvar.rootsys import build_root_system


def a(rs, i):
    return rs.simple_root(i)


def test_a1_forced_values():
    rs = build_root_system("A", 1)
    assert len(rs.positive_roots) == 1
    assert rs.positive_roots[0] == (Q(1),)
    assert rs.fundamental_weights[0] == (Q(1, 2),)
    assert rs.inner(a(rs, 0), a(rs, 0)) == 2


def test_a2_weights_and_pairings():
    # lambda_1 = (2a1 + a2)/3 from inverting the Cartan matrix by hand
    rs = build_root_system("A", 2)
    assert len(rs.positive_roots) == 3
    assert set(rs.positive_roots) == {(Q(1), Q(0)), (Q(0), Q(1)), (Q(1), Q(1))}
    assert rs.fundamental_weights[0] == (Q(2, 3), Q(1, 3))
    l1, l2 = rs.fundamental_weights
    assert rs.inner(l1, l1) == Q(2, 3)
    assert rs.inner(l1, l2) == Q(1, 3)
    assert rs.inner(a(rs, 0), a(rs, 1)) == -1
    assert rs.inner(l1, a(rs, 1)) == 0


def test_g2_short_long():
    rs = build_root_system("G", 2)
    assert len(rs.positive_roots) == 6
    norms = sorted({rs.norm2(r) for r in rs.positive_roots})
    # long roots at 2, short at 2/3 (classical 1:3 length-squared ratio)
    assert norms == [Q(2, 3), Q(2)]
    # the classical G2 positive root list in simple-root coordinates
    assert set(rs.positive_roots) == {
        (Q(1), Q(0)), (Q(0), Q(1)), (Q(1), Q(1)),
        (Q(2), Q(1)), (Q(3), Q(1)), (Q(3), Q(2))}


@pytest.mark.parametrize("type_label,rank,count", [
    ("A", 3, 6), ("B", 2, 4), ("B", 3, 9), ("C", 3, 9),
    ("D", 4, 12), ("F", 4, 24), ("A", 5, 15), ("D", 5, 20),
])
def test_positive_root_counts(type_label, rank, count):
    rs = build_root_system(type_label, rank)
    assert len(rs.positive_roots) == count
    for r in rs.positive_roots:
        assert all(type(c) is int and c >= 0 for c in r)


def test_gram_is_dc_and_positive_definite(session):
    for t, r in [("A", 2), ("B", 2), ("G", 2), ("A", 3), ("C", 3)]:
        rs = build_root_system(t, r)
        for i in range(r):
            d = rs.gram[i][i] / 2
            assert d > 0
            for j in range(r):
                assert rs.gram[i][j] == d * rs.cartan[i][j]
        assert max(rs.gram[i][i] for i in range(r)) == 2
        for x in [(Q(1),) * r, tuple(Q(k + 1, 3) for k in range(r))]:
            assert rs.inner(x, x) > 0


def test_weights_dual_to_coroots():
    for t, r in [("A", 2), ("B", 3), ("G", 2), ("F", 4)]:
        rs = build_root_system(t, r)
        for i, w in enumerate(rs.fundamental_weights):
            for j in range(r):
                pairing = 2 * rs.inner(w, a(rs, j)) / rs.gram[j][j]
                assert pairing == (1 if i == j else 0)


def test_chamber_coefficients():
    rs = build_root_system("A", 2)
    assert rs.chamber_coefficients(rs.fundamental_weights[0]) == (1, 0)
    assert rs.chamber_coefficients(a(rs, 0)) == (2, -1)
    assert rs.chamber_coefficients((Q(0), Q(0))) == (0, 0)
    # reconstruction: x = sum r_j lambda_j
    x = (Q(3, 7), Q(-2, 5))
    r = rs.chamber_coefficients(x)
    back = tuple(sum(rj * w[k] for rj, w in zip(r, rs.fundamental_weights))
                 for k in range(2))
    assert back == x


def test_inner_invariance_under_simple_reflections():
    for t, r in [("A", 2), ("B", 2), ("G", 2)]:
        rs = build_root_system(t, r)
        xs = [(Q(1), Q(-2)), (Q(3, 2), Q(1, 3)), (Q(0), Q(5))]
        for i in range(r):
            for x in xs:
                for y in xs:
                    assert rs.inner(rs.reflect(i, x), rs.reflect(i, y)) == \
                        rs.inner(x, y)


def test_rescaled_inner_product():
    rs = build_root_system("B", 2)
    rs3 = rs.rescaled(Q(3))
    x, y = (Q(1), Q(2)), (Q(-1), Q(1, 2))
    assert rs3.inner(x, y) == 3 * rs.inner(x, y)
    assert rs3.fundamental_weights == rs.fundamental_weights
    with pytest.raises(ValueError):
        rs.rescaled(0)


def test_invalid_rank_and_guard():
    for t, r in [("G", 3), ("F", 5), ("E", 5), ("A", 0), ("B", 1), ("H", 2)]:
        with pytest.raises(InvalidRank):
            build_root_system(t, r)
    with pytest.raises(RankLimitExceeded):
        build_root_system("A", 6)
    with pytest.raises(RankLimitExceeded):
        build_root_system("E", 6)
    # guard is configurable; E6 has 36 positive roots
    rs = build_root_system("E", 6, max_rank=8)
    assert len(rs.positive_roots) == 36


def test_dimension_mismatch():
    rs = build_root_system("A", 2)
    with pytest.raises(DimensionMismatch):
        rs.inner((Q(1),), (Q(1), Q(0)))
    with pytest.raises(DimensionMismatch):
        rs.chamber_coefficients((Q(1),))
