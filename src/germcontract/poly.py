"""Sparse polynomials over Q keyed by exponent tuples.

One class carries every polynomial of the package.  A key form or a witness
curve lives in Q[x, x^-1, y] and is keyed (x, y); the lift of a key form
lives in Q[x, x^-1, y_1, ..., y_k] and is keyed (x, y_1, ..., y_k); a generic
series substituted into a form is keyed (x, xi) by the semidegree (delta_x
times the rational x-exponent) and the degree of the free coefficient xi.
Exponents are integers; the first may be negative, every later one is
non-negative.

Coefficients are stored as nonzero Fractions, but products are not formed
Fraction by Fraction.  mul and evaluate write each polynomial they read as
integer numerators over the lcm of its denominators (as FLINT's fmpq_poly
stores one), sum the products as Python ints in one kernel (_combine) and
build a single Fraction per nonzero term of the result.  power and the
shared powers of evaluate go through mul.
"""

from __future__ import annotations

from fractions import Fraction
from math import inf, lcm
from operator import add

from .errors import PreconditionError


class Poly:
    """Map from exponent tuples to nonzero Fraction coefficients, with the
    names of its variables (the first one is x)."""

    __slots__ = ("names", "terms")

    def __init__(self, names, terms=None):
        names = tuple(names)
        clean: dict[tuple, Fraction] = {}
        for key, c in (terms or {}).items():
            c = Fraction(c)
            if c == 0:
                continue
            key = tuple(key)
            if len(key) != len(names):
                raise ValueError(f"term key {key} does not match the variables {names}")
            if any(e < 0 for e in key[1:]):
                raise ValueError(f"negative exponent of {names[1:]} in {key}")
            clean[key] = c
        self.names = names
        self.terms = clean

    @classmethod
    def _make(cls, names: tuple, terms: dict) -> "Poly":
        """Wrap terms that are already clean (Fraction values, no zeros)."""
        out = object.__new__(cls)
        out.names = names
        out.terms = terms
        return out

    @classmethod
    def monomial(cls, names, key, c=1) -> "Poly":
        return cls(names, {key: c})

    def is_zero(self) -> bool:
        return not self.terms

    def deg(self, i: int = 0) -> int:
        """Largest exponent of variable i."""
        if not self.terms:
            raise PreconditionError("deg of the zero polynomial is undefined")
        return max(key[i] for key in self.terms)

    def ord(self, i: int = 0) -> int:
        """Smallest exponent of variable i."""
        if not self.terms:
            raise PreconditionError("ord of the zero polynomial is undefined")
        return min(key[i] for key in self.terms)

    def leading(self, i: int = 0) -> "Poly":
        """The terms whose exponent of variable i is deg(i)."""
        d = self.deg(i)
        return Poly._make(self.names, {k: c for k, c in self.terms.items() if k[i] == d})

    def coeff(self, key) -> Fraction:
        return self.terms.get(tuple(key), Fraction(0))

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for k, c in other.terms.items():
            v = out.get(k)
            out[k] = c if v is None else v + c
        return Poly._make(self.names, {k: c for k, c in out.items() if c})

    def __neg__(self) -> "Poly":
        return Poly._make(self.names, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for k, c in other.terms.items():
            v = out.get(k)
            out[k] = -c if v is None else v - c
        return Poly._make(self.names, {k: c for k, c in out.items() if c})

    def __mul__(self, other: "Poly") -> "Poly":
        return self.mul(other)

    def scale(self, c) -> "Poly":
        c = Fraction(c)
        if c == 0:
            return Poly._make(self.names, {})
        return Poly._make(self.names, {k: v * c for k, v in self.terms.items()})

    def mul(self, other: "Poly", floor=-inf) -> "Poly":
        """The terms of self * other whose first exponent is at least floor;
        the products of terms that fall below it are never formed.

        Each factor is written as integer numerators over the lcm of its
        denominators, so the products are summed as ints and one Fraction is
        built per nonzero term of the result (see _combine)."""
        lhs, da = _numerators(self.terms)
        rhs, db = _numerators(other.terms)
        rhs.sort(key=lambda t: t[0][0], reverse=True)
        return _combine(self.names, ((k, n, rhs) for k, n in lhs), da * db, floor)

    def __pow__(self, n: int) -> "Poly":
        return self.power(n)

    def power(self, n: int, floor=-inf) -> "Poly":
        """The terms of self**n whose first exponent is at least floor, by
        squaring.  A partial power self**m keeps only the terms that can
        still reach floor through the n - m factors left, each of first
        degree deg()."""
        if n < 0:
            raise ValueError("negative power of a polynomial")
        if n == 0:
            result = Poly._make(self.names, {(0,) * len(self.names): Fraction(1)})
        elif self.is_zero():
            result = self
        else:
            d = self.deg()
            result, have = None, 0  # result = self**have
            base, step = self, 1  # base = self**step
            rest = n
            while rest:
                if rest & 1:
                    have += step
                    result = base if result is None else result.mul(base, floor - (n - have) * d)
                rest >>= 1
                if rest:
                    step *= 2
                    base = base.mul(base, floor - (n - step) * d)
        return Poly._make(self.names, {k: c for k, c in result.terms.items() if k[0] >= floor})

    def evaluate(self, images) -> "Poly":
        """self(images[0], images[1], ..., images[n-1]) in the ring of the
        images.

        images[0] is a monomial m; x^a maps to m^a, also for negative a (so
        x^-1 stays a monomial).  The powers of images[1:] are shared between
        the terms, and so is their product among the terms with the same
        exponents of images[1:].  The terms are summed as integer numerators
        over one common denominator (see _combine).
        """
        cache: dict[tuple[int, int], Poly] = {}
        names = images[0].names
        ((m, cm),) = images[0].terms.items()
        # numerators of the product of powers per exponent tuple of images[1:];
        # no powers at all give 1
        prods = {(0,) * (len(self.names) - 1): ([((0,) * len(names), 1)], 1)}
        parts = []
        d = 1
        for key, c in self.terms.items():
            ys = key[1:]
            if ys not in prods:
                prod = None
                for j, b in enumerate(ys, 1):
                    if b:
                        pw = _power(images, j, b, cache)
                        prod = pw if prod is None else prod * pw
                prods[ys] = _numerators(prod.terms)
            a = key[0]
            c = c * cm**a
            q, dq = prods[ys]
            d = lcm(d, c.denominator * dq)
            parts.append((tuple(a * e for e in m), c, q, dq))
        rows = ((s, c.numerator * (d // (c.denominator * dq)), q) for s, c, q, dq in parts)
        return _combine(names, rows, d)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.names == other.names
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.names, frozenset(self.terms.items())))

    def format(self) -> str:
        """Terms ordered by the last variable's exponent first, then the one
        before it, down to x, each descending."""
        keys = sorted(self.terms, key=lambda k: k[::-1], reverse=True)
        return format_terms(((k, self.terms[k]) for k in keys), self.names)

    def __repr__(self) -> str:
        return self.format()


def _numerators(terms: dict) -> tuple[list, int]:
    """The (key, numerator) pairs of terms over their common denominator d,
    and d (the lcm of the denominators)."""
    # one lcm call per term, not lcm(*denominators): with the star form the
    # peak RSS of a process looping over the analyze_germs corpus kept
    # growing, by 1.7 MB over 50 passes (CPython 3.11.7); with this loop
    # it stays flat
    d = 1
    for c in terms.values():
        d = lcm(d, c.denominator)
    return [(k, c.numerator * (d // c.denominator)) for k, c in terms.items()], d


def _combine(names: tuple, rows, d: int, floor=-inf) -> Poly:
    """The terms at or above floor of the sum of n * x^s * q / d over the
    rows (s, n, q): s an exponent tuple, n an int and q a list of (key, int)
    pairs, sorted by first exponent, largest first, when floor is finite.
    The sums are ints; each nonzero one becomes a single Fraction.  The
    integer kernel of mul and evaluate."""
    out: dict[tuple, int] = {}
    get = out.get
    for s, n, q in rows:
        low = floor - s[0]
        for k, v in q:
            if k[0] < low:
                break
            k = tuple(map(add, s, k))
            out[k] = get(k, 0) + n * v
    return Poly._make(names, {k: Fraction(v, d) for k, v in out.items() if v})


def _power(images, j: int, m: int, cache: dict) -> Poly:
    """images[j]**m, multiplied up from the largest cached power below it."""
    if (j, m) not in cache:
        n = m - 1
        while n and (j, n) not in cache:
            n -= 1
        pw = cache[(j, n)] if n else None
        for i in range(n + 1, m + 1):
            pw = images[j] if pw is None else pw * images[j]
            cache[(j, i)] = pw
    return cache[(j, m)]


def _format_exponent(e) -> str:
    if e == 1:
        return ""
    if e.denominator == 1 and e >= 0:
        return f"^{e}"
    return f"^({e})"


def format_terms(terms, names) -> str:
    """Signed sum of the (exponent tuple, coefficient) pairs in the order
    given, e.g. "y^5 - 5*x^(-1)*y^4 - x^2"; "0" for no terms."""
    parts: list[str] = []
    for key, c in terms:
        factors = [f"{n}{_format_exponent(e)}" for n, e in zip(names, key) if e != 0]
        mag = abs(c)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) if parts else "0"
