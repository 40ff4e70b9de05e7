"""Equivariant Schubert basis as restriction vectors.

A class of the torus-equivariant cohomology of the flag manifold is
modeled by its restrictions to the fixed points: a map from Weyl-group
elements to homogeneous polynomials. By injectivity of the fixed-point
restriction this map IS the class, so equality, products and supports are
all pointwise.

Restrictions of the upper-triangular basis come from the subword-sum
formula: walking one reduced word of v and keeping the length-increasing
subword products yields every restriction at v, each summand a product of
positive roots. The sum does not depend on the word walked, and canonical
words are lex-minimal, so every prefix of one is canonical too: the column
at v is one walking step from the column at its parent v s, where s is the
last letter of v's canonical word. The basis actually used downstream is
the reflected one (apply the longest element to both the index and the
polynomials); its support is the Bruhat lower set (a nonempty subword sum
of products of positive roots cannot cancel; `check` tests this), and
translating it by any group element gives the twisted bases.

Localization: the fixed-point Euler class at v is the product of the
v-images of the positive roots, which equals the untranslated product up
to the sign (-1)^len(v). Summing signed restrictions and dividing once by
the product of positive roots therefore evaluates the integral exactly;
the residual global sign is pinned by requiring the point class to
integrate to +1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (InhomogeneousInput, LocalizationNotPolynomial,
                     NonExactDivision)
from .poly import LinearSubstitution, Polynomial
from .rootsys import RootSystem
from .weyl import WeylGroup


class EquivariantClass:
    """Restriction-vector model of an equivariant cohomology class.

    `restrictions` maps element ids to nonzero homogeneous polynomials of
    total degree `half_degree` (cohomological degree 2*half_degree).
    """

    __slots__ = ("nvars", "half_degree", "restrictions", "_key")

    def __init__(self, nvars: int, half_degree: int,
                 restrictions: dict[int, Polynomial]):
        clean: dict[int, Polynomial] = {}
        for v, p in restrictions.items():
            if p.is_zero():
                continue
            if not p.is_homogeneous() or p.degree != half_degree:
                raise InhomogeneousInput(
                    f"restriction at {v} has degree {p.degree}, "
                    f"class is graded {half_degree}")
            clean[v] = p
        self.nvars = nvars
        self.half_degree = half_degree
        self.restrictions = clean
        self._key: tuple | None = None

    @classmethod
    def _derived(cls, nvars: int, half_degree: int,
                 restrictions: dict[int, Polynomial]) -> "EquivariantClass":
        """A class built from classes already checked, such as a Weyl twist
        or a product: every restriction is homogeneous of `half_degree` by
        construction, so only zero restrictions are dropped."""
        self = cls.__new__(cls)
        self.nvars = nvars
        self.half_degree = half_degree
        self.restrictions = {v: p for v, p in restrictions.items() if p.terms}
        self._key = None
        return self

    def restriction(self, v: int) -> Polynomial:
        return self.restrictions.get(v) or Polynomial.zero(self.nvars)

    def support(self) -> set[int]:
        return set(self.restrictions)

    def is_zero(self) -> bool:
        return not self.restrictions

    def key(self) -> tuple:
        """Canonical identity: equal keys iff equal restriction vectors."""
        if self._key is None:
            self._key = (self.half_degree,
                         tuple((v, p.key()) for v, p in
                               sorted(self.restrictions.items())))
        return self._key

    def __eq__(self, other) -> bool:
        return (isinstance(other, EquivariantClass)
                and self.half_degree == other.half_degree
                and self.restrictions == other.restrictions)

    def __hash__(self) -> int:
        return hash(self.key())

    def __mul__(self, other: "EquivariantClass") -> "EquivariantClass":
        common = self.restrictions.keys() & other.restrictions.keys()
        return EquivariantClass._derived(
            self.nvars, self.half_degree + other.half_degree,
            {v: self.restrictions[v] * other.restrictions[v] for v in common})

    def __add__(self, other: "EquivariantClass") -> "EquivariantClass":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.half_degree != other.half_degree:
            raise InhomogeneousInput("adding classes of different degrees")
        out = dict(self.restrictions)
        for v, p in other.restrictions.items():
            out[v] = (out[v] + p) if v in out else p
        return EquivariantClass(self.nvars, self.half_degree, out)

    def __sub__(self, other: "EquivariantClass") -> "EquivariantClass":
        return self + other.scale_poly(Polynomial.constant(self.nvars, -1))

    def scale_poly(self, q: Polynomial) -> "EquivariantClass":
        """Multiply by a polynomial scalar from H_T*(pt)."""
        if q.is_zero():
            return EquivariantClass(self.nvars, self.half_degree, {})
        if not q.is_homogeneous():
            raise InhomogeneousInput("scalar polynomial is not homogeneous")
        return EquivariantClass(
            self.nvars, self.half_degree + q.degree,
            {v: p * q for v, p in self.restrictions.items()})


@dataclass(frozen=True)
class SchubertCoefficients:
    """Coefficients of one class in a twisted basis: w -> a_w (nonzero)."""

    tau: int
    coeffs: dict[int, Polynomial]


class SchubertCalculus:
    """Restriction tables and basis operations for one Weyl group.

    The subword-sum table is built by need, column by column (a column is
    one restriction point and holds the values of every basis element
    there), each from its parent's; `ensure_table` forces the whole matrix.

    Basis and twisted-basis classes are kept once built, for the life of the
    instance, so a query twists each class it multiplies once. Supports come
    from the Bruhat order and build no class. Build one per query.
    """

    def __init__(self, group: WeylGroup):
        self.group = group
        self.rs: RootSystem = group.rs
        self.nvars = self.rs.rank
        self._xi_columns: dict[int, dict[int, Polynomial]] = {
            0: {0: Polynomial.one(self.nvars)}}
        self._schubert: dict[int, EquivariantClass] = {}
        self._twisted: dict[tuple[int, int], EquivariantClass] = {}
        self._subst: dict[int, LinearSubstitution] = {}
        e_plus = Polynomial.one(self.nvars)
        for r in self.rs.positive_roots:
            e_plus = e_plus * Polynomial.linear_form(r)
        self._e_plus = e_plus
        # sign fixed by integrate(point class) = +1
        self._sign = -1 if len(self.rs.positive_roots) % 2 else 1

    def _substitution(self, w: int) -> LinearSubstitution:
        got = self._subst.get(w)
        if got is None:
            got = LinearSubstitution(self.group.elements[w].action)
            self._subst[w] = got
        return got

    # -- subword sums --------------------------------------------------------

    def xi_column(self, v: int) -> dict[int, Polynomial]:
        """All nonzero values of the upper-triangular basis at point v:
        one subword-sum step from the column at v's parent."""
        got = self._xi_columns.get(v)
        if got is None:
            g = self.group
            letter = g.elements[v].word[-1]
            parent = g.right_mult(v, letter)
            got = _extend_column(g, self.xi_column(parent), parent, letter)
            self._xi_columns[v] = got
        return got

    def ensure_table(self) -> dict[int, dict[int, Polynomial]]:
        """Force every column and return the whole table. Parents precede
        children in element order, so each forced column is a single step."""
        for v in range(self.group.order):
            self.xi_column(v)
        return self._xi_columns

    def billey_restriction(self, w: int, v: int) -> Polynomial:
        """Value of the w-th upper-triangular basis element at point v;
        zero unless w <= v, homogeneous of degree len(w) otherwise."""
        return self.xi_column(v).get(w) or Polynomial.zero(self.nvars)

    # -- the reflected basis ---------------------------------------------------

    def schubert_class(self, w: int) -> EquivariantClass:
        """Basis element supported on the Bruhat lower set of w, graded in
        half-degree len(w0) - len(w)."""
        got = self._schubert.get(w)
        if got is None:
            g = self.group
            w0 = g.w0
            w0w = g.multiply(w0, w)
            subst = self._substitution(w0)
            restr = {}
            for v in g.bruhat_lower_ids(w):
                p = self.billey_restriction(w0w, g.multiply(w0, v))
                if not p.is_zero():
                    restr[v] = subst(p)
            got = EquivariantClass(
                self.nvars, g.elements[w0].length - g.elements[w].length,
                restr)
            self._schubert[w] = got
        return got

    def weyl_twist(self, c: EquivariantClass, tau: int) -> EquivariantClass:
        """Translate a class: (tau.c)|_v = tau applied to c|_{tau^{-1} v}."""
        g = self.group
        if tau == 0:
            return c
        subst = self._substitution(tau)
        restr = {g.multiply(tau, u): subst(p)
                 for u, p in c.restrictions.items()}
        return EquivariantClass._derived(self.nvars, c.half_degree, restr)

    def twisted_class(self, tau: int, v: int) -> EquivariantClass:
        """Element of the tau-twisted basis indexed by v, supported on
        {u : tau^{-1} u <= tau^{-1} v}."""
        got = self._twisted.get((tau, v))
        if got is None:
            g = self.group
            got = self.weyl_twist(
                self.schubert_class(g.multiply(g.inverse(tau), v)), tau)
            self._twisted[(tau, v)] = got
        return got

    def twisted_support(self, tau: int, v: int) -> frozenset[int]:
        """Support of the twisted basis element, read from the Bruhat order
        without building any class: the translate by tau of the lower set
        of w = tau^{-1} v, which is the support of the basis class s_w."""
        g = self.group
        return frozenset(g.multiply(tau, u) for u in
                         g.bruhat_lower_ids(g.multiply(g.inverse(tau), v)))

    # -- localization ----------------------------------------------------------

    def integrate(self, c: EquivariantClass) -> Polynomial:
        """Fixed-point integration; exact, polynomial by construction."""
        g = self.group
        total = Polynomial.zero(self.nvars)
        for v, p in c.restrictions.items():
            total = (total + p) if g.elements[v].length % 2 == 0 else (total - p)
        if total.is_zero():
            return Polynomial.zero(self.nvars)
        try:
            quot = total.divide_exact(self._e_plus)
        except NonExactDivision as exc:
            raise LocalizationNotPolynomial(
                "signed restriction sum is not divisible by the product of "
                "positive roots") from exc
        return quot if self._sign == 1 else -quot

    # -- triangular decomposition ----------------------------------------------

    def decompose(self, c: EquivariantClass, tau: int) -> SchubertCoefficients:
        """Expand c in the tau-twisted basis by descending elimination.

        Walking points in decreasing twisted length, the residue at each
        point is exactly divisible by the diagonal restriction there; the
        residual class is identically zero at the end (asserted).
        """
        g = self.group
        tau_inv = g.inverse(tau)
        order = sorted(range(g.order),
                       key=lambda v: (-g.elements[g.multiply(tau_inv, v)].length, v))
        residual = {v: p for v, p in c.restrictions.items()}
        coeffs: dict[int, Polynomial] = {}
        for v in order:
            rv = residual.get(v)
            if rv is None or rv.is_zero():
                continue
            basis_el = self.twisted_class(tau, v)
            a = rv.divide_exact(basis_el.restriction(v))
            coeffs[v] = a
            for u, p in basis_el.restrictions.items():
                cur = residual.get(u)
                nxt = (cur - a * p) if cur is not None else -(a * p)
                if nxt.is_zero():
                    residual.pop(u, None)
                else:
                    residual[u] = nxt
        if residual:
            raise NonExactDivision(
                "decomposition left a nonzero residual class")  # unreachable
        return SchubertCoefficients(tau=tau, coeffs=coeffs)

    def reassemble(self, sc: SchubertCoefficients) -> EquivariantClass:
        """Inverse of decompose: sum of a_w-scaled twisted basis elements."""
        total: dict[int, Polynomial] = {}
        hd = None
        for w, a in sc.coeffs.items():
            el = self.twisted_class(sc.tau, w).scale_poly(a)
            hd = el.half_degree if hd is None else hd
            if el.half_degree != hd:
                raise InhomogeneousInput("mixed degrees in coefficients")
            for u, p in el.restrictions.items():
                total[u] = (total[u] + p) if u in total else p
        return EquivariantClass(self.nvars, 0 if hd is None else hd, total)


def _extend_column(group: WeylGroup, column: dict[int, Polynomial],
                   prefix: int, letter: int) -> dict[int, Polynomial]:
    """One subword-sum step: the column at prefix * s_letter from the
    column at `prefix`; the letter must lengthen the prefix.

    A column maps each reduced subword product to the accumulated sum of
    products of the walked positive roots; the step keeps every entry and
    appends the letter wherever that grows the length. The walked root is
    asserted positive, which makes each summand a product of positive roots
    by construction.
    """
    rs = group.rs
    root = group.act(prefix, rs.simple_root(letter))
    assert rs.is_positive_root(root), "reduced-word root not positive"
    form = Polynomial.linear_form(root)
    lengths = group._lengths
    new = dict(column)
    for u, acc in column.items():
        us = group.right_mult(u, letter)
        if lengths[us] > lengths[u]:
            add = acc * form
            got = new.get(us)
            new[us] = add if got is None else got + add
    return new
