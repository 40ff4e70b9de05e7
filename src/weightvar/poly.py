"""Sparse multivariate polynomials over exact rationals, plus the exact
rank computations the graded dimension counts rest on.

Variables are the simple-root coordinates of t*: exponent tuples of fixed
length l map to nonzero exact rationals, held as ints or Fractions (the two
compare, hash and serialize alike). Integral values are held as ints: the
constructors, `scale` and the Weyl action (`LinearSubstitution`) coerce
them, and int arithmetic stays int, so the restriction table and every
class built from it carry ints, whether built or read back by `from_json`
(`divide_exact` too stores each integral quotient coefficient as an int).
All grading downstream is in half-degrees (a cohomological degree-2d class
carries polynomials of total degree d); odd cohomology never exists here
so it is never represented.

Rank is computed in Python ints by `IncrementalRank`, the one eliminator.
Each row is scaled once to coprime integers (a row of ints needs no
scaling), then reduced in place against the stored pivots by
cross-multiplication with gcd-reduced multipliers, multiplying the row
only when the pivot's multiplier is not 1, so no rational division ever
happens during elimination. Intermediate rows are not re-normalized: a row
is divided by the gcd of its entries, and signed to a positive leading
entry, once, when it is stored as a pivot. Its pivot rows are an exact
basis of the span, which the graded dimension count carries up one degree.
There a pivot times a variable is again primitive with a positive leading
entry, on a known column; when no pivot holds that column yet it is the
row `add_row` would store, and `store_pivot` stores it without reduction.
"""

from __future__ import annotations

from fractions import Fraction as Q
from math import gcd, lcm

from .errors import DimensionMismatch, NonExactDivision


def _exact(c):
    """An exact rational as an int when it is integral, else a Fraction."""
    c = Q(c)
    return c.numerator if c.denominator == 1 else c


def _grlex_key(exp: tuple[int, ...]) -> tuple:
    return (sum(exp), exp)


class Polynomial:
    """Immutable sparse polynomial: exponent tuple -> nonzero int or
    Fraction."""

    __slots__ = ("nvars", "terms", "_hash")

    def __init__(self, nvars: int, terms: dict[tuple[int, ...], Q]):
        self.nvars = nvars
        self.terms = {e: c for e, c in terms.items() if c != 0}
        self._hash: int | None = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars: int, c) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: _exact(c)})

    @classmethod
    def one(cls, nvars: int) -> "Polynomial":
        return cls.constant(nvars, 1)

    @classmethod
    def linear_form(cls, coords) -> "Polynomial":
        """The element of t* with the given simple-root coordinates, viewed
        as a degree-1 polynomial."""
        coords = tuple(_exact(c) for c in coords)
        n = len(coords)
        return cls(n, {tuple(1 if j == i else 0 for j in range(n)): c
                       for i, c in enumerate(coords) if c != 0})

    @classmethod
    def monomial(cls, exp: tuple[int, ...], coeff=1) -> "Polynomial":
        return cls(len(exp), {tuple(exp): _exact(coeff)})

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def leading(self) -> tuple[tuple[int, ...], Q]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=_grlex_key)
        return e, self.terms[e]

    def coefficient(self, exp: tuple[int, ...]) -> Q:
        return self.terms.get(tuple(exp), Q(0))

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Q]]:
        return sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]),
                      reverse=True)

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: "Polynomial") -> None:
        if self.nvars != other.nvars:
            raise DimensionMismatch(
                f"polynomials in {self.nvars} and {other.nvars} variables")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out[e] + c if e in out else c
        return Polynomial(self.nvars, out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out[e] - c if e in out else -c
        return Polynomial(self.nvars, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        out: dict[tuple[int, ...], Q] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                out[e] = out[e] + c if e in out else c
        return Polynomial(self.nvars, out)

    def scale(self, c) -> "Polynomial":
        c = _exact(c)
        return Polynomial(self.nvars, {e: c * v for e, v in self.terms.items()})

    def __eq__(self, other) -> bool:
        return (isinstance(other, Polynomial) and self.nvars == other.nvars
                and self.terms == other.terms)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.nvars, frozenset(self.terms.items())))
        return self._hash

    def key(self) -> tuple:
        """Canonical hashable form, stable across processes."""
        return tuple((e, c.numerator, c.denominator)
                     for e, c in self.sorted_terms())

    def __repr__(self) -> str:
        return f"Polynomial({self.as_string()})"

    def as_string(self, var: str = "a") -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            factors = [f"{var}{i + 1}" + (f"^{p}" if p > 1 else "")
                       for i, p in enumerate(e) if p > 0]
            body = "*".join(factors)
            if not body:
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{c}*{body}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    # -- exact division ------------------------------------------------------

    def divide_exact(self, q: "Polynomial") -> "Polynomial":
        """Return r with self = q * r, raising NonExactDivision otherwise."""
        self._check(q)
        if q.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        out: dict[tuple[int, ...], Q] = {}
        rem = self
        qe, qc = q.leading()
        while not rem.is_zero():
            re, rc = rem.leading()
            exp = tuple(a - b for a, b in zip(re, qe))
            if any(x < 0 for x in exp):
                raise NonExactDivision(
                    f"{self.as_string()} is not divisible by {q.as_string()}")
            coeff = _exact(Q(rc, qc))
            out[exp] = out.get(exp, 0) + coeff
            rem = rem - q * Polynomial.monomial(exp, coeff)
            if not rem.is_zero() and _grlex_key(rem.leading()[0]) >= _grlex_key(re):
                raise NonExactDivision("division did not reduce")  # unreachable
        return Polynomial(self.nvars, out)

    # -- serialization ------------------------------------------------------

    def to_json(self) -> list[dict]:
        return [{"exp": list(e), "num": str(c.numerator), "den": str(c.denominator)}
                for e, c in self.sorted_terms()]

    @classmethod
    def from_json(cls, nvars: int, data: list[dict]) -> "Polynomial":
        terms = {}
        for t in data:
            exp = tuple(map(int, t["exp"]))
            if len(exp) != nvars:
                raise DimensionMismatch("exponent length mismatch in JSON")
            num, den = int(t["num"]), int(t["den"])
            terms[exp] = num if den == 1 else _exact(Q(num, den))
        return cls(nvars, terms)


class LinearSubstitution:
    """Variable substitution by linear forms, with a memo of monomial images.

    Variable i goes to the linear form in column i of `matrix` (the image
    of the i-th simple root), which realizes the Weyl action on S(t*). The
    Weyl action applies the same matrix to thousands of polynomials, so
    the image of every monomial met is kept for the life of the instance,
    as a sparse {exponent: coefficient} map; build one instance per matrix
    and reuse it. Each image is the image one degree lower times one
    column's linear form. Coefficients stay ints wherever they are integral
    (a Weyl action matrix in simple-root coordinates is an integer matrix,
    and every restriction-table polynomial is integral), and exact
    Fractions otherwise.
    """

    def __init__(self, matrix):
        n = len(matrix)
        self.nvars = n
        # column i, the image of variable i, as (row, coefficient) pairs
        self._columns = [[(r, _exact(matrix[r][i])) for r in range(n)
                          if matrix[r][i] != 0] for i in range(n)]
        zero = (0,) * n
        self._images: dict[tuple[int, ...], dict[tuple[int, ...], int | Q]] = {
            zero: {zero: 1}}

    def _image(self, e: tuple[int, ...]) -> dict[tuple[int, ...], int | Q]:
        got = self._images.get(e)
        if got is None:
            i = next(i for i, k in enumerate(e) if k)
            lower = self._image(e[:i] + (e[i] - 1,) + e[i + 1:])
            got = {}
            for r, a in self._columns[i]:
                for m, c in lower.items():
                    m = m[:r] + (m[r] + 1,) + m[r + 1:]
                    got[m] = got.get(m, 0) + a * c
            got = {m: c for m, c in got.items() if c}
            self._images[e] = got
        return got

    def __call__(self, p: Polynomial) -> Polynomial:
        if p.nvars != self.nvars:
            raise DimensionMismatch("matrix size does not match variables")
        out: dict[tuple[int, ...], int | Q] = {}
        for e, c in p.terms.items():
            if c.denominator == 1:
                c = c.numerator
            for m, a in self._image(e).items():
                out[m] = out.get(m, 0) + c * a
        return Polynomial(self.nvars, out)


def monomial_basis(nvars: int, degree: int) -> list[tuple[int, ...]]:
    """All exponent tuples of the given total degree, graded-lex descending."""
    if degree < 0:
        return []
    if nvars == 0:
        return [()] if degree == 0 else []
    out: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], remaining: int, slots: int) -> None:
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for first in range(remaining, -1, -1):
            rec(prefix + (first,), remaining - first, slots - 1)

    rec((), degree, nvars)
    return out


# -- exact rank ---------------------------------------------------------------


def _int_row(values: dict[int, int | Q]) -> dict[int, int]:
    """Scale a sparse rational row (ints or Fractions, zeros allowed) to
    coprime integers (sign-normalized)."""
    vals = values.values()
    if all(type(v) is int for v in vals):
        row = {c: v for c, v in values.items() if v}
    else:
        denom = lcm(*(v.denominator for v in vals))
        row = {c: v.numerator * (denom // v.denominator)
               for c, v in values.items() if v}
    return _primitive(row)


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """A sparse integer row divided by the gcd of its entries, signed so
    that its leading (lowest-column) entry is positive."""
    if not row:
        return row
    g = gcd(*row.values())
    if row[min(row)] < 0:
        g = -g
    return row if g == 1 else {c: v // g for c, v in row.items()}


class IncrementalRank:
    """Echelon accumulator over Q using fraction-free integer row ops.

    Rows arrive as sparse {column: value} maps; add_row reports whether the
    row enlarged the span. Insertion order does not affect the final rank.
    """

    def __init__(self) -> None:
        self._pivots: dict[int, dict[int, int]] = {}
        self._seen: set[tuple] = set()

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def pivot_rows(self) -> list[dict[int, int]]:
        """The stored echelon rows, primitive integer rows with a positive
        leading entry spanning every row added or stored so far; callers
        read them and must not mutate them."""
        return list(self._pivots.values())

    def store_pivot(self, lead: int, row: dict[int, int]) -> None:
        """Store `row` as the pivot on column `lead` without reducing it.

        The caller vouches that `row` is primitive, that `lead` is its
        lowest column and holds a positive entry, and that no pivot is
        stored on `lead` yet: exactly the row `add_row` would store, so the
        span grows by one. The row is kept, not copied.
        """
        self._pivots[lead] = row

    def add_row(self, values: dict[int, int | Q]) -> bool:
        row = _int_row(values)
        if not row:
            return False
        sig = tuple(sorted(row.items()))
        if sig in self._seen:
            return False
        self._seen.add(sig)
        pivots = self._pivots
        # reduced in place and never re-normalized; `_primitive` runs once,
        # on the row that is stored
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                pivots[lead] = _primitive(row)
                return True
            a, b = piv[lead], row[lead]
            g = gcd(a, b)
            a //= g
            b //= g
            if a != 1:
                for c in row:
                    row[c] *= a
            for c, v in piv.items():
                nv = row.get(c, 0) - v * b
                if nv:
                    row[c] = nv
                else:
                    del row[c]
        return False


class ModularRank:
    """Echelon accumulator over F_p; the rank of integer rows mod p is a
    lower bound on their rank over Q.

    No computation uses it: `IncrementalRank` is the only eliminator. The
    benchmark tracer still wraps `ModularRank.add_row` by name, so the class
    stays until the benchmark drops its metrics.
    """

    PRIME = (1 << 31) - 1

    def __init__(self, p: int = PRIME) -> None:
        self.p = p
        self._pivots: dict[int, dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def add_row(self, values: dict[int, int | Q]) -> bool:
        p = self.p
        ints = _int_row(values)
        row = {}
        for c, v in ints.items():
            m = v % p
            if m:
                row[c] = m
        return self._reduce(row)

    def _reduce(self, row: dict[int, int]) -> bool:
        p = self.p
        while row:
            lead = min(row)
            piv = self._pivots.get(lead)
            if piv is None:
                inv = pow(row[lead], p - 2, p)
                self._pivots[lead] = {c: (v * inv) % p for c, v in row.items()}
                return True
            f = row[lead]
            new = {}
            for c, v in row.items():
                pv = piv.get(c)
                nv = (v - f * pv) % p if pv else v
                if nv:
                    new[c] = nv
            for c, pv in piv.items():
                if c not in row:
                    nv = (-f * pv) % p
                    if nv:
                        new[c] = nv
            row = new
        return False
