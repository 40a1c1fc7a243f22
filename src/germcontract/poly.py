"""Sparse polynomials over Q keyed by exponent tuples.

One class carries every polynomial of the package.  A key form or a witness
curve lives in Q[x, x^-1, y] and is keyed (x, y); the lift of a key form
lives in Q[x, x^-1, y_1, ..., y_k] and is keyed (x, y_1, ..., y_k); a generic
series substituted into a form is keyed (x, xi) by the semidegree (delta_x
times the rational x-exponent) and the degree of the free coefficient xi.
Exponents are integers; the first may be negative, every later one is
non-negative.

Coefficients are stored as FLINT's fmpq_poly stores them: nonzero integer
numerators num over one common denominator den > 0, with no factor common
to den and every numerator.  Every operation runs on these ints and divides
its result by their gcd once (_canonical); products of terms are summed in
one kernel (_combine), which mul, power and evaluate share.  A Fraction is
built only when terms or coeff is read.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, inf, lcm
from operator import add
from types import MappingProxyType

from .errors import PreconditionError


class Poly:
    """Map from exponent tuples to nonzero rational coefficients, stored as
    integer numerators num over the denominator den, with the names of its
    variables (the first one is x)."""

    __slots__ = ("names", "num", "den")

    def __init__(self, names, terms=None):
        names = tuple(names)
        coeffs: dict[tuple, Fraction] = {}
        for key, c in (terms or {}).items():
            c = Fraction(c)
            if c:
                key = tuple(key)
                _check_key(key, names)
                coeffs[key] = c
        # over the lcm of reduced denominators no factor is common to all
        # numerators and the denominator, so the form is already canonical
        d = 1
        for c in coeffs.values():
            d = lcm(d, c.denominator)
        self.names = names
        self.num = {k: c.numerator * (d // c.denominator) for k, c in coeffs.items()}
        self.den = d

    @classmethod
    def _make(cls, names: tuple, num: dict, den: int) -> "Poly":
        """Wrap numerators that are already canonical (see _canonical)."""
        out = object.__new__(cls)
        out.names = names
        out.num = num
        out.den = den
        return out

    @classmethod
    def monomial(cls, names, key, c=1) -> "Poly":
        names, key = tuple(names), tuple(key)
        _check_key(key, names)
        n, d = _ratio(c)
        if not n:
            return cls._make(names, {}, 1)
        return cls._make(names, {key: n}, d)

    @property
    def terms(self) -> MappingProxyType:
        """Read-only map from exponent tuples to Fraction coefficients."""
        d = self.den
        return MappingProxyType({k: Fraction(v, d) for k, v in self.num.items()})

    def is_zero(self) -> bool:
        return not self.num

    def deg(self, i: int = 0) -> int:
        """Largest exponent of variable i."""
        if not self.num:
            raise PreconditionError("deg of the zero polynomial is undefined")
        return max(key[i] for key in self.num)

    def ord(self, i: int = 0) -> int:
        """Smallest exponent of variable i."""
        if not self.num:
            raise PreconditionError("ord of the zero polynomial is undefined")
        return min(key[i] for key in self.num)

    def leading(self, i: int = 0) -> "Poly":
        """The terms whose exponent of variable i is deg(i)."""
        d = self.deg(i)
        return _canonical(self.names, {k: v for k, v in self.num.items() if k[i] == d}, self.den)

    def coeff(self, key) -> Fraction:
        return Fraction(self.num.get(tuple(key), 0), self.den)

    def __add__(self, other: "Poly") -> "Poly":
        return self._add(other, 1)

    def __neg__(self) -> "Poly":
        return Poly._make(self.names, {k: -v for k, v in self.num.items()}, self.den)

    def __sub__(self, other: "Poly") -> "Poly":
        return self._add(other, -1)

    def _add(self, other: "Poly", sign: int) -> "Poly":
        """self + sign * other over the lcm of the two denominators."""
        da, db = self.den, other.den
        d = lcm(da, db)
        ma, mb = d // da, sign * (d // db)
        out = {k: v * ma for k, v in self.num.items()} if ma != 1 else dict(self.num)
        get = out.get
        for k, v in other.num.items():
            out[k] = get(k, 0) + v * mb
        return _canonical(self.names, {k: v for k, v in out.items() if v}, d)

    def __mul__(self, other: "Poly") -> "Poly":
        return self.mul(other)

    def scale(self, c) -> "Poly":
        return self._scaled(*_ratio(c))

    def _scaled(self, n: int, d: int) -> "Poly":
        """self * n/d for ints n and d > 0."""
        if not n:
            return Poly._make(self.names, {}, 1)
        return _canonical(self.names, {k: v * n for k, v in self.num.items()}, self.den * d)

    def mul(self, other: "Poly", floor=-inf) -> "Poly":
        """The terms of self * other whose first exponent is at least floor;
        the products of terms that fall below it are never formed.  The
        numerators are multiplied and summed as ints (see _combine)."""
        rhs = sorted(other.num.items(), key=lambda t: t[0][0], reverse=True)
        rows = ((k, n, rhs) for k, n in self.num.items())
        return _combine(self.names, rows, self.den * other.den, floor)

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
            result = Poly._make(self.names, {(0,) * len(self.names): 1}, 1)
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
        kept = {k: v for k, v in result.num.items() if k[0] >= floor}
        return result if len(kept) == len(result.num) else _canonical(self.names, kept, result.den)

    def evaluate(self, images) -> "Poly":
        """self(images[0], images[1], ..., images[n-1]) in the ring of the
        images.

        images[0] is a monomial c*m; x^a maps to c^a*m^a, also for negative a
        (so x^-1 stays a monomial).  The powers of images[1:] are shared
        between the terms, and so is their product among the terms with the
        same exponents of images[1:].  The terms are summed as integer
        numerators over one common denominator (see _combine).
        """
        cache: dict[tuple[int, int], Poly] = {}
        names = images[0].names
        ((m, cn),) = images[0].num.items()
        cd = images[0].den
        # numerators and denominator of the product of powers per exponent
        # tuple of images[1:]; no powers at all give 1
        prods = {(0,) * (len(self.names) - 1): ([((0,) * len(names), 1)], 1)}
        parts = []
        d = 1
        for key, v in self.num.items():
            ys = key[1:]
            if ys not in prods:
                prod = None
                for j, b in enumerate(ys, 1):
                    if b:
                        pw = _power(images, j, b, cache)
                        prod = pw if prod is None else prod * pw
                prods[ys] = (list(prod.num.items()), prod.den)
            q, dq = prods[ys]
            # v * c^a over dq, c = cn/cd, with a positive denominator
            a = key[0]
            if a >= 0:
                n, dn = v * cn**a, cd**a * dq
            else:
                n, dn = v * cd**-a, cn**-a * dq
                if dn < 0:
                    n, dn = -n, -dn
            d = lcm(d, dn)
            parts.append((tuple(a * e for e in m), n, dn, q))
        rows = ((s, n * (d // dn), q) for s, n, dn, q in parts)
        return _combine(names, rows, self.den * d)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.names == other.names
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self) -> int:
        return hash((self.names, self.den, frozenset(self.num.items())))

    def format(self) -> str:
        """Terms ordered by the last variable's exponent first, then the one
        before it, down to x, each descending."""
        keys = sorted(self.num, key=lambda k: k[::-1], reverse=True)
        return format_terms(((k, Fraction(self.num[k], self.den)) for k in keys), self.names)

    def __repr__(self) -> str:
        return self.format()


def _ratio(v) -> tuple[int, int]:
    """A rational input (int, Fraction, str, ...) as its reduced numerator
    and positive denominator; an int is read without a Fraction."""
    return (v, 1) if type(v) is int else Fraction(v).as_integer_ratio()


def _check_key(key: tuple, names: tuple) -> None:
    if len(key) != len(names):
        raise ValueError(f"term key {key} does not match the variables {names}")
    if any(e < 0 for e in key[1:]):
        raise ValueError(f"negative exponent of {names[1:]} in {key}")


def _canonical(names: tuple, num: dict, den: int) -> Poly:
    """The Poly num / den (no zero numerators, den > 0) divided by the gcd
    of den and every numerator."""
    # folded one numerator at a time and stopped at 1, not gcd(den, *values):
    # with the star form the peak RSS of a process looping over the
    # analyze_germs corpus kept growing (CPython 3.11.7)
    g = den
    for v in num.values():
        if g == 1:
            break
        g = gcd(g, v)
    if g != 1:
        num = {k: v // g for k, v in num.items()}
        den //= g
    return Poly._make(names, num, den)


def _combine(names: tuple, rows, d: int, floor=-inf) -> Poly:
    """The terms at or above floor of the sum of n * x^s * q / d over the
    rows (s, n, q): s an exponent tuple, n an int and q a list of (key, int)
    pairs, sorted by first exponent, largest first, when floor is finite.
    The sums are ints, reduced once by their gcd with d.  The integer
    kernel of mul and evaluate."""
    out: dict[tuple, int] = {}
    get = out.get
    for s, n, q in rows:
        low = floor - s[0]
        for k, v in q:
            if k[0] < low:
                break
            k = tuple(map(add, s, k))
            out[k] = get(k, 0) + n * v
    return _canonical(names, {k: v for k, v in out.items() if v}, d)


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
