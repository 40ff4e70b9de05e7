"""Weyl group generation: elements, words, products, Bruhat order.

Elements are discovered by breadth-first closure of the simple reflections
acting as permutations of the full root list, so lengths fall out of the
BFS depth and the action is a root permutation by construction. Each
element gets one canonical reduced word (the lexicographically smallest,
built by repeatedly stripping the smallest left descent) and the final
element order is (length, word), which makes every downstream table and
output deterministic.

The Bruhat table is the subword-property closure computed incrementally:
the set {v : v <= w} is the set of products of reduced subwords of w's
canonical word, and extending the word by its last letter extends that set
by the length-increasing right multiples. Tests validate this against
brute-force subword checks over all reduced words.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q

from .errors import DimensionMismatch
from .rootsys import RootSystem, TVector, vscale

_CLASSICAL_ORDER = {
    "A": lambda l: _fact(l + 1),
    "B": lambda l: 2 ** l * _fact(l),
    "C": lambda l: 2 ** l * _fact(l),
    "D": lambda l: 2 ** (l - 1) * _fact(l),
    "E": lambda l: {6: 51840, 7: 2903040, 8: 696729600}[l],
    "F": lambda l: 1152,
    "G": lambda l: 12,
}


def _fact(n: int) -> int:
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


@dataclass(frozen=True)
class WeylElement:
    """One group element: dense id, canonical reduced word (0-indexed
    letters), length, and the action matrix on t* in simple-root
    coordinates (column j = image of the j-th simple root)."""

    id: int
    word: tuple[int, ...]
    length: int
    action: tuple[tuple[Q, ...], ...]


class WeylGroup:
    """The Weyl group of a root system with dense product/Bruhat tables."""

    def __init__(self, rs: RootSystem):
        self.rs = rs
        self.roots: list[TVector] = list(rs.positive_roots) + [
            vscale(Q(-1), r) for r in rs.positive_roots]
        self._root_index = {r: k for k, r in enumerate(self.roots)}
        self._generate()
        self._build_bruhat()

    # -- generation -------------------------------------------------------

    def _simple_perm(self, i: int) -> tuple[int, ...]:
        return tuple(self._root_index[self.rs.reflect(i, r)]
                     for r in self.roots)

    def _generate(self) -> None:
        rs = self.rs
        l = rs.rank
        nroots = len(self.roots)
        gen_perms = [self._simple_perm(i) for i in range(l)]
        identity = tuple(range(nroots))

        perms: list[tuple[int, ...]] = [identity]
        index: dict[tuple[int, ...], int] = {identity: 0}
        depth = [0]
        frontier = [0]
        while frontier:
            nxt = []
            for a in frontier:
                pa = perms[a]
                for gp in gen_perms:
                    q = tuple(pa[gp[k]] for k in range(nroots))  # a * s_i
                    if q not in index:
                        index[q] = len(perms)
                        perms.append(q)
                        depth.append(depth[a] + 1)
                        nxt.append(index[q])
            frontier = nxt
        n = len(perms)

        order_fn = _CLASSICAL_ORDER.get(rs.type_label)
        if order_fn is not None and n != order_fn(rs.rank):
            raise AssertionError(
                f"generated {n} elements for {rs.type_label}{rs.rank}, "
                f"expected {order_fn(rs.rank)}")

        # canonical word: strip the smallest left descent until identity
        def left_mult(i: int, a: int) -> int:
            pa = perms[a]
            gp = gen_perms[i]
            return index[tuple(gp[pa[k]] for k in range(nroots))]

        words = []
        for a in range(n):
            word, cur = [], a
            while depth[cur] > 0:
                for i in range(l):
                    cand = left_mult(i, cur)
                    if depth[cand] < depth[cur]:
                        word.append(i)
                        cur = cand
                        break
            words.append(tuple(word))

        order = sorted(range(n), key=lambda a: (depth[a], words[a]))
        old_to_new = [0] * n
        for new, old in enumerate(order):
            old_to_new[old] = new

        simple_idx = [self._root_index[rs.simple_root(j)] for j in range(l)]
        self.elements: list[WeylElement] = []
        self._perms: list[tuple[int, ...]] = []
        for new, old in enumerate(order):
            p = perms[old]
            action = tuple(tuple(self.roots[p[simple_idx[c]]][r]
                                 for c in range(l)) for r in range(l))
            self.elements.append(WeylElement(new, words[old], depth[old], action))
            self._perms.append(p)
        self._perm_to_id = {p: k for k, p in enumerate(self._perms)}

        self._right = [
            [old_to_new[index[tuple(p[gp[k]] for k in range(nroots))]]
             for gp in gen_perms]
            for p in self._perms]
        self._left = [
            [old_to_new[index[tuple(gp[p[k]] for k in range(nroots))]]
             for gp in gen_perms]
            for p in self._perms]
        self._inverse = [0] * n
        for a, p in enumerate(self._perms):
            inv = [0] * nroots
            for k, pk in enumerate(p):
                inv[pk] = k
            self._inverse[a] = self._perm_to_id[tuple(inv)]

        npos = len(rs.positive_roots)
        if self.elements[-1].length != npos or self.elements[-2].length == npos:
            raise AssertionError("longest element is not unique of length "
                                 "#positive roots")
        self.w0 = n - 1

        # mult[a][b] by walking b's canonical word; prefixes come earlier
        # in the (length, word) order so each step is a table lookup
        mult = [[0] * n for _ in range(n)]
        for a in range(n):
            row = mult[a]
            row[0] = a
            right = self._right
            for b in range(1, n):
                wb = self.elements[b].word
                row[b] = right[row[self._right[b][wb[-1]]]][wb[-1]]
        self._mult = mult

    # -- Bruhat order ------------------------------------------------------

    def _build_bruhat(self) -> None:
        n = self.order
        leq = [0] * n
        leq[0] = 1
        for w in range(1, n):
            s = self.elements[w].word[-1]
            prefix = self._right[w][s]
            mask = leq[prefix]
            new = mask
            right = self._right
            lengths = self._lengths
            m = mask
            while m:
                low = m & -m
                v = low.bit_length() - 1
                m ^= low
                vs = right[v][s]
                if lengths[vs] > lengths[v]:
                    new |= 1 << vs
            leq[w] = new
        self._leq = leq

    # -- queries -----------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def _lengths(self) -> list[int]:
        cached = getattr(self, "_len_cache", None)
        if cached is None:
            cached = [el.length for el in self.elements]
            self._len_cache = cached
        return cached

    def multiply(self, a: int, b: int) -> int:
        return self._mult[a][b]

    def inverse(self, a: int) -> int:
        return self._inverse[a]

    def right_mult(self, a: int, i: int) -> int:
        return self._right[a][i]

    def bruhat_leq(self, v: int, w: int) -> bool:
        return bool((self._leq[w] >> v) & 1)

    def bruhat_lower_ids(self, w: int) -> list[int]:
        """All v with v <= w, ascending."""
        out, m = [], self._leq[w]
        while m:
            low = m & -m
            out.append(low.bit_length() - 1)
            m ^= low
        return out

    def act(self, w: int, x: TVector) -> TVector:
        if len(x) != self.rs.rank:
            raise DimensionMismatch(
                f"vector has {len(x)} coordinates, rank is {self.rs.rank}")
        mat = self.elements[w].action
        return tuple(sum((m * xj for m, xj in zip(row, x)), Q(0))
                     for row in mat)

    def reflection_element(self, alpha: TVector) -> int:
        """Group element of the reflection in a root alpha: v s_i v^-1 for
        the first v (in element order) and i with v(alpha_i) = alpha. Every
        root is such a translate of a simple root."""
        k = self._root_index[tuple(alpha)]
        simple = [self._root_index[self.rs.simple_root(i)]
                  for i in range(self.rs.rank)]
        for v, perm in enumerate(self._perms):
            for i, si in enumerate(simple):
                if perm[si] == k:
                    return self._mult[self._right[v][i]][self._inverse[v]]

    def inversions(self, w: int) -> list[TVector]:
        """Positive roots sent negative by w^{-1}: {a > 0 : w^{-1} a < 0}."""
        npos = len(self.rs.positive_roots)
        winv = self._perms[self._inverse[w]]
        return [self.roots[k] for k in range(npos) if winv[k] >= npos]

    def reduced_words(self, w: int) -> list[tuple[int, ...]]:
        """All reduced words of w; the canonical word comes first.

        Exponential in general; meant for cross-checks at small rank.
        """
        memo: dict[int, list[tuple[int, ...]]] = {0: [()]}

        def rec(u: int) -> list[tuple[int, ...]]:
            got = memo.get(u)
            if got is None:
                got = []
                lu = self.elements[u].length
                for i in range(self.rs.rank):
                    su = self._left[u][i]
                    if self.elements[su].length < lu:
                        got.extend((i,) + t for t in rec(su))
                memo[u] = got
            return got

        return rec(w)


def generate_weyl(rs: RootSystem) -> WeylGroup:
    """Generate the full Weyl group with dense tables."""
    return WeylGroup(rs)
