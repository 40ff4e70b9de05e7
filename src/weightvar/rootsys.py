"""Finite root systems of types A-G, exact throughout.

Every vector lives in the simple-root basis: a TVector is a tuple of
length `rank` of ints or Fractions, and the i-th simple root is the i-th
unit vector. Roots have integer coordinates and are held as int tuples,
which keeps the reflections, the Weyl action and the subword products
downstream in integer arithmetic. Fundamental weights, orbit points and
levels are Fraction tuples, and the Gram matrix is rational; the
reflections and the Cartan pairing keep a Fraction input a Fraction.

The invariant inner product is G = D * C (Cartan matrix times a positive
diagonal), normalized so long roots have squared norm 2. Downstream
comparisons are invariant under rescaling G; `RootSystem.rescaled` exists
so tests can assert that.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q

from .errors import DimensionMismatch, InvalidRank, RankLimitExceeded

TVector = tuple[int | Q, ...]

DEFAULT_MAX_RANK = 5

# positive-root counts per (type, rank), used as a generation cross-check
_POSITIVE_COUNTS = {
    "A": lambda l: l * (l + 1) // 2,
    "B": lambda l: l * l,
    "C": lambda l: l * l,
    "D": lambda l: l * (l - 1),
    "E": lambda l: {6: 36, 7: 63, 8: 120}[l],
    "F": lambda l: 24,
    "G": lambda l: 6,
}


def vadd(x: TVector, y: TVector) -> TVector:
    return tuple(a + b for a, b in zip(x, y))


def vsub(x: TVector, y: TVector) -> TVector:
    return tuple(a - b for a, b in zip(x, y))


def vscale(c: int | Q, x: TVector) -> TVector:
    return tuple(c * a for a in x)


def vzero(rank: int) -> TVector:
    return (Q(0),) * rank


# which ranks each type allows, with the refusal of the others
_RANK_RULES = {
    "A": (lambda l: l >= 1, "A_l requires l >= 1"),
    "B": (lambda l: l >= 2, "B_l requires l >= 2"),
    "C": (lambda l: l >= 2, "C_l requires l >= 2"),
    "D": (lambda l: l >= 3, "D_l requires l >= 3"),
    "E": (lambda l: l in (6, 7, 8), "E_l requires l in {6, 7, 8}"),
    "F": (lambda l: l == 4, "F_l requires l = 4"),
    "G": (lambda l: l == 2, "G_l requires l = 2"),
}


def check_type_rank(type_label: str, rank: int, max_rank: int) -> None:
    """Refuse an impossible (type, rank) with InvalidRank, then a rank above
    the enumeration guard with RankLimitExceeded."""
    rule = _RANK_RULES.get(type_label)
    if rule is None:
        raise InvalidRank(f"unknown type label {type_label!r}")
    valid, refusal = rule
    if not valid(rank):
        raise InvalidRank(refusal)
    if rank > max_rank:
        raise RankLimitExceeded(
            f"rank {rank} exceeds the configured maximum {max_rank}")


def _cartan_matrix(type_label: str, rank: int) -> list[list[int]]:
    """Integer Cartan matrix of a valid (type, rank), rows indexed by the
    pairing coroot: C[i][j] = 2<a_i, a_j> / <a_i, a_i>, so
    s_i(a_j) = a_j - C[i][j] a_i."""
    l = rank
    chain_pairs = [(i, i + 1) for i in range(l - 1)]
    if type_label == "A":
        edges = {(i, j): -1 for i, j in chain_pairs}
        edges.update({(j, i): -1 for i, j in chain_pairs})
    elif type_label in ("B", "C"):
        edges = {(i, j): -1 for i, j in chain_pairs}
        edges.update({(j, i): -1 for i, j in chain_pairs})
        if type_label == "B":
            edges[(l - 1, l - 2)] = -2  # a_{l} short
        else:
            edges[(l - 2, l - 1)] = -2  # a_{l} long
    elif type_label == "D":
        pairs = [(i, i + 1) for i in range(l - 2)] + [(l - 3, l - 1)]
        edges = {}
        for i, j in pairs:
            edges[(i, j)] = edges[(j, i)] = -1
    elif type_label == "E":
        pairs = [(0, 2), (2, 3), (3, 4), (4, 5), (1, 3), (5, 6), (6, 7)][: l - 1]
        edges = {}
        for i, j in pairs:
            edges[(i, j)] = edges[(j, i)] = -1
    elif type_label == "F":
        edges = {(0, 1): -1, (1, 0): -1, (1, 2): -1, (2, 1): -2,
                 (2, 3): -1, (3, 2): -1}
    else:  # G
        edges = {(0, 1): -3, (1, 0): -1}
    return [[2 if i == j else edges.get((i, j), 0) for j in range(l)]
            for i in range(l)]


def _root_lengths(cartan: list[list[int]]) -> list[Q]:
    """Half squared norms d_i with max d_i = 1 (long roots norm^2 = 2),
    from d_i C[i][j] = d_j C[j][i] propagated over the Dynkin graph."""
    l = len(cartan)
    d: list[Q | None] = [None] * l
    d[0] = Q(1)
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for j in range(l):
            if i != j and cartan[i][j] != 0 and d[j] is None:
                d[j] = d[i] * cartan[i][j] / cartan[j][i]
                frontier.append(j)
    if any(x is None for x in d):
        raise InvalidRank("Dynkin diagram is not connected")
    top = max(d)  # type: ignore[type-var]
    return [x / top for x in d]  # type: ignore[operator]


def _invert(matrix: list[list[Q]]) -> list[list[Q]]:
    """Gauss-Jordan inverse over exact rationals."""
    n = len(matrix)
    aug = [row[:] + [Q(1) if i == j else Q(0) for j in range(n)]
           for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Q(1) / aug[col][col]
        aug[col] = [a * inv for a in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


@dataclass(frozen=True)
class RootSystem:
    """Immutable Cartan data of a finite root system.

    cartan[i][j] = 2<a_i,a_j>/<a_i,a_i>; gram[i][j] = <a_i,a_j>;
    positive_roots and fundamental_weights are in simple-root coordinates.
    """

    type_label: str
    rank: int
    cartan: tuple[tuple[int, ...], ...]
    gram: tuple[tuple[Q, ...], ...]
    positive_roots: tuple[TVector, ...]
    fundamental_weights: tuple[TVector, ...]

    def _check_dim(self, x: TVector) -> None:
        if len(x) != self.rank:
            raise DimensionMismatch(
                f"vector has {len(x)} coordinates, rank is {self.rank}")

    def inner(self, x: TVector, y: TVector) -> Q:
        """Invariant inner product <x, y> in simple-root coordinates."""
        self._check_dim(x)
        self._check_dim(y)
        return sum((xi * sum(g * yj for g, yj in zip(row, y))
                    for xi, row in zip(x, self.gram)), Q(0))

    def norm2(self, x: TVector) -> Q:
        return self.inner(x, x)

    def chamber_coefficients(self, x: TVector) -> tuple[Q, ...]:
        """Coefficients (r_1..r_l) with x = sum r_j lambda_j; all r_j >= 0
        iff x lies in the closed fundamental chamber. Equals cartan @ x."""
        self._check_dim(x)
        return tuple(sum(c * xj for c, xj in zip(row, x))
                     for row in self.cartan)

    def simple_root(self, i: int) -> TVector:
        return tuple(int(j == i) for j in range(self.rank))

    def reflect(self, i: int, x: TVector) -> TVector:
        """Simple reflection s_i(x) = x - <x, a_i^v> a_i."""
        self._check_dim(x)
        return _reflect(self.cartan, i, x)

    def is_positive_root(self, x: TVector) -> bool:
        return x in self._positive_set()

    def _positive_set(self) -> frozenset[TVector]:
        cached = getattr(self, "_pos_cache", None)
        if cached is None:
            cached = frozenset(self.positive_roots)
            object.__setattr__(self, "_pos_cache", cached)
        return cached

    def rescaled(self, c: Q | int) -> "RootSystem":
        """Copy with the inner product scaled by c > 0. Deliberately skips
        the long-root normalization; used to assert scale invariance."""
        c = Q(c)
        if c <= 0:
            raise ValueError("inner-product scale must be positive")
        gram = tuple(tuple(c * g for g in row) for row in self.gram)
        return RootSystem(self.type_label, self.rank, self.cartan, gram,
                          self.positive_roots, self.fundamental_weights)

    def to_json(self) -> dict:
        from .serialize import poly_free_vector, rational_str
        return {
            "type": self.type_label,
            "rank": self.rank,
            "cartan": [list(row) for row in self.cartan],
            "gram": [[rational_str(g) for g in row] for row in self.gram],
            "positive_roots": [poly_free_vector(r) for r in self.positive_roots],
            "fundamental_weights": [poly_free_vector(w)
                                    for w in self.fundamental_weights],
        }


def _reflect(cartan, i: int, x: TVector) -> TVector:
    """s_i(x) = x - <x, a_i^v> a_i, with <x, a_i^v> row i of the Cartan
    matrix applied to x; ints stay ints and Fractions stay Fractions."""
    coeff = sum(c * xj for c, xj in zip(cartan[i], x))
    return x[:i] + (x[i] - coeff,) + x[i + 1:]


def _generate_roots(cartan: list[list[int]], rank: int) -> list[TVector]:
    """All roots, as int tuples: the closure of the simple roots under
    simple reflections."""
    simple = [tuple(int(j == i) for j in range(rank)) for i in range(rank)]
    seen: set[TVector] = set(simple)
    frontier = list(simple)
    while frontier:
        x = frontier.pop()
        for i in range(rank):
            y = _reflect(cartan, i, x)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return sorted(seen)


def build_root_system(type_label: str, rank: int,
                      max_rank: int = DEFAULT_MAX_RANK) -> RootSystem:
    """Construct the root system of the given finite type.

    Refuses the pair first by `check_type_rank`: impossible (type, rank)
    pairs, and ranks above the enumeration guard (default 5), past which
    Weyl-group squared enumeration downstream is intractable at desk scale.
    """
    type_label = type_label.upper()
    check_type_rank(type_label, rank, max_rank)
    cartan = _cartan_matrix(type_label, rank)  # rank^2 entries: past the guard
    d = _root_lengths(cartan)
    gram = [[d[i] * cartan[i][j] for j in range(rank)] for i in range(rank)]

    # fundamental weights are the columns of the inverse Cartan matrix
    cinv = _invert([[Q(c) for c in row] for row in cartan])
    weights = [tuple(cinv[k][i] for k in range(rank)) for i in range(rank)]

    all_roots = _generate_roots(cartan, rank)
    positive = [r for r in all_roots if all(c >= 0 for c in r)]

    expected = _POSITIVE_COUNTS[type_label](rank)
    if len(positive) != expected or len(all_roots) != 2 * expected:
        raise AssertionError(
            f"root generation for {type_label}{rank} produced "
            f"{len(positive)} positive roots, expected {expected}")

    rs = RootSystem(
        type_label=type_label,
        rank=rank,
        cartan=tuple(tuple(row) for row in cartan),
        gram=tuple(tuple(row) for row in gram),
        positive_roots=tuple(positive),
        fundamental_weights=tuple(weights),
    )
    _validate(rs)
    return rs


def _validate(rs: RootSystem) -> None:
    l = rs.rank
    # gram symmetric, G = D*C with positive D, long roots norm^2 = 2
    for i in range(l):
        for j in range(l):
            assert rs.gram[i][j] == rs.gram[j][i], "gram not symmetric"
    assert max(rs.gram[i][i] for i in range(l)) == 2, "long root norm^2 != 2"
    # positive definite: leading principal minors
    m = [list(row) for row in rs.gram]
    for k in range(1, l + 1):
        assert _det([row[:k] for row in m[:k]]) > 0, "gram not positive definite"
    # weights dual to coroots: G[j][k] = d_j C[j][k] is symmetric, so
    # 2<lambda_i, a_j>/<a_j, a_j> = 2 d_j (C lambda_i)_j / (2 d_j), and the
    # pairings of lambda_i are its chamber coefficients C lambda_i = e_i
    for i, w in enumerate(rs.fundamental_weights):
        assert rs.chamber_coefficients(w) == rs.simple_root(i), \
            "weight/coroot duality failed"


def _det(m: list[list[Q]]) -> Q:
    n = len(m)
    m = [row[:] for row in m]
    det = Q(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Q(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = Q(1) / m[col][col]
        for r in range(col + 1, n):
            if m[r][col] != 0:
                f = m[r][col] * inv
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return det
