"""Weyl group generation: elements, words, products, Bruhat order.

Elements are discovered by one breadth-first pass of right
multiplications by the simple reflections, acting as permutations of the
full root list, so lengths fall out of the BFS depth and the action is a
root permutation by construction. Each element is numbered when first
found, and that number is final: the element order is (length, canonical
word), the canonical word being the lexicographically smallest reduced
word, which makes every downstream table and output deterministic.

Why the first discovery gives that word: every reduced word of x ends in
a right descent i, so lexmin(x) = min over those i of (lexmin(x s_i), i).
A level is walked in element order with the letters ascending, so, if the
level is sorted by canonical word, the first pair (a, i) that reaches x
is that minimum and x's word is word(a) + (i,). The next level then comes
out sorted by word as well, and the induction runs from the identity.

The Bruhat table is the subword-property closure computed incrementally:
the set {v : v <= w} is the set of products of reduced subwords of w's
canonical word, and extending the word by its last letter extends that set
by the length-increasing right multiples. Tests validate this against
brute-force subword checks over all reduced words.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    letters), length, and the integer action matrix on t* in simple-root
    coordinates (column j = image of the j-th simple root)."""

    id: int
    word: tuple[int, ...]
    length: int
    action: tuple[tuple[int, ...], ...]


class WeylGroup:
    """The Weyl group of a root system with dense product/Bruhat tables."""

    def __init__(self, rs: RootSystem):
        self.rs = rs
        self.roots: list[TVector] = list(rs.positive_roots) + [
            vscale(-1, r) for r in rs.positive_roots]
        self._root_index = {r: k for k, r in enumerate(self.roots)}
        self._generate()
        self._build_bruhat()

    # -- generation -------------------------------------------------------

    def _generate(self) -> None:
        """One BFS, level by level, numbering each element in its final
        (length, word) order when first found (see the module docstring)
        and filling the right-multiplication table as it goes."""
        rs = self.rs
        l = rs.rank
        gen_perms = [tuple(self._root_index[rs.reflect(i, r)]
                           for r in self.roots) for i in range(l)]
        identity = tuple(range(len(self.roots)))
        perms: list[tuple[int, ...]] = [identity]
        words: list[tuple[int, ...]] = [()]
        index = {identity: 0}
        right: list[list[int]] = [[0] * l]
        level = [0]
        while level:
            nxt = []
            for a in level:
                pa, row = perms[a], right[a]
                for i, gp in enumerate(gen_perms):
                    q = tuple([pa[k] for k in gp])  # a * s_i
                    b = index.get(q)
                    if b is None:
                        b = index[q] = len(perms)
                        perms.append(q)
                        words.append(words[a] + (i,))
                        right.append([0] * l)
                        nxt.append(b)
                    row[i] = b
            level = nxt
        n = len(perms)

        order_fn = _CLASSICAL_ORDER.get(rs.type_label)
        if order_fn is not None and n != order_fn(rs.rank):
            raise AssertionError(
                f"generated {n} elements for {rs.type_label}{rs.rank}, "
                f"expected {order_fn(rs.rank)}")

        simple_idx = [self._root_index[rs.simple_root(j)] for j in range(l)]
        self.elements: list[WeylElement] = []
        for a, (p, w) in enumerate(zip(perms, words)):
            columns = [self.roots[p[k]] for k in simple_idx]
            self.elements.append(WeylElement(a, w, len(w),
                                             tuple(zip(*columns))))
        self._perms = perms
        self._lengths = [len(w) for w in words]
        self._right = right
        # the reversed word is a reduced word of the inverse
        self._inverse = [0] * n
        for a, w in enumerate(words):
            b = 0
            for i in reversed(w):
                b = right[b][i]
            self._inverse[a] = b

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
            for b in range(1, n):
                s = words[b][-1]
                row[b] = right[row[right[b][s]]][s]
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
        return tuple(sum(m * xj for m, xj in zip(row, x))
                     for row in self.elements[w].action)

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
                    su = self._inverse[self._right[self._inverse[u]][i]]
                    if self.elements[su].length < lu:
                        got.extend((i,) + t for t in rec(su))
                memo[u] = got
            return got

        return rec(w)


def generate_weyl(rs: RootSystem) -> WeylGroup:
    """Generate the full Weyl group with dense tables."""
    return WeylGroup(rs)
