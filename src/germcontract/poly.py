"""Sparse polynomials over Q with each monomial packed into one int.

One class carries every polynomial of the package.  A key form or a witness
curve lives in Q[x, x^-1, y] and is keyed (x, y); the lift of a key form
lives in Q[x, x^-1, y_1, ..., y_k] and is keyed (x, y_1, ..., y_k); a generic
series substituted into a form is keyed (x, xi) by the semidegree (delta_x
times the rational x-exponent) and the degree of the free coefficient xi.
Exponents are integers; the first may be negative, every later one lies in
0 .. 2^15 - 1.

The store keys each term by one int (_pack, _unpack): the first exponent in
the high bits and each later one in its own 16-bit field below it, the last
variable lowest.  Adding two keys multiplies the monomials, int order is the
lexicographic order of the exponent tuples, and the first exponent is the
key shifted right by 16 bits per later variable.  A field's top bit stays
clear, so the sum of two keys never carries; a product that would set it is
refused (_combine).  16-bit fields keep a key of (x, xi) a one-digit CPython
int while its semidegree lies in -2^14 .. 2^14 - 1.  num and terms are views
keyed by exponent tuples, built on access.

Coefficients are stored as FLINT's fmpq_poly stores them: nonzero integer
numerators over one common denominator den > 0, with no factor common to
den and every numerator.  Every operation runs on these ints and divides
its result by their gcd once (_canonical); products of terms are summed in
mul's kernel (_combine).  A Fraction is built only when terms or coeff is
read.  evaluate runs Horner's rule, so each of its products is one by an
image, through mul; it serves substitute and the tests, and the key-form
engine forms each key form from its absorption steps (see keyforms) and
never evaluates a lift.

Only mul takes a floor, below which it forms no term.  One routine raises
every power (_power), as the product of the powers m//2 and m - m//2 kept
in a table, and one forms every product f_1^b_1 ... f_k^b_k (_product).
Both take the product to use: mul for power and the key forms, the window
product of keyforms, where the window rule lives alone, for the
absorption.  The engine changes a series in place through three primitives
here (_x_offset, _top_term, _subtract_into), which + and - run on too, so
that no other module knows the key layout.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import ceil, gcd, inf, lcm
from operator import or_
from types import MappingProxyType

from .errors import PreconditionError

_W = 16  # bits per later exponent
_MASK = (1 << _W) - 1
_LIMIT = 1 << (_W - 1)  # later exponents stay below it


class Poly:
    """Map from exponent tuples to nonzero rational coefficients, stored as
    integer numerators over the denominator den under packed keys, with the
    names of its variables (the first one is x)."""

    __slots__ = ("names", "_num", "den")

    def __init__(self, names, terms=None):
        names = tuple(names)
        coeffs: dict[int, Fraction] = {}
        for key, c in (terms or {}).items():
            c = Fraction(c)
            if c:
                coeffs[_pack(tuple(key), names)] = c
        # over the lcm of reduced denominators no factor is common to all
        # numerators and the denominator, so the form is already canonical
        d = 1
        for c in coeffs.values():
            d = lcm(d, c.denominator)
        self.names = names
        self._num = {k: c.numerator * (d // c.denominator) for k, c in coeffs.items()}
        self.den = d

    @classmethod
    def _make(cls, names: tuple, num: dict, den: int) -> "Poly":
        """Wrap packed numerators that are already canonical (see _canonical)."""
        out = object.__new__(cls)
        out.names = names
        out._num = num
        out.den = den
        return out

    @classmethod
    def monomial(cls, names, key, c=1) -> "Poly":
        names = tuple(names)
        key = _pack(tuple(key), names)
        n, d = _ratio(c)
        if not n:
            return cls._make(names, {}, 1)
        return cls._make(names, {key: n}, d)

    @property
    def num(self) -> MappingProxyType:
        """Read-only map from exponent tuples to integer numerators."""
        n = len(self.names)
        return MappingProxyType({_unpack(k, n): v for k, v in self._num.items()})

    @property
    def terms(self) -> MappingProxyType:
        """Read-only map from exponent tuples to Fraction coefficients."""
        n, d = len(self.names), self.den
        return MappingProxyType({_unpack(k, n): Fraction(v, d) for k, v in self._num.items()})

    def is_zero(self) -> bool:
        return not self._num

    def _exponents(self, i: int = 0) -> list[int]:
        """The exponent of variable i in each term, in the order of the store."""
        s, mask = _W * (len(self.names) - 1 - i), _MASK if i else -1
        return [k >> s & mask for k in self._num]

    def deg(self, i: int = 0) -> int:
        """Largest exponent of variable i."""
        if not self._num:
            raise PreconditionError("deg of the zero polynomial is undefined")
        if not i:  # int order starts with the first exponent
            return max(self._num) >> _W * (len(self.names) - 1)
        return max(self._exponents(i))

    def ord(self, i: int = 0) -> int:
        """Smallest exponent of variable i."""
        if not self._num:
            raise PreconditionError("ord of the zero polynomial is undefined")
        if not i:
            return min(self._num) >> _W * (len(self.names) - 1)
        return min(self._exponents(i))

    def leading(self, i: int = 0) -> "Poly":
        """The terms whose exponent of variable i is deg(i)."""
        d = self.deg(i)
        if i:
            num = self._num
            top = {k: v for k, e, v in zip(num, self._exponents(i), num.values()) if e == d}
        else:  # the keys from the smallest one of first exponent d up
            low = d << _W * (len(self.names) - 1)
            top = {k: v for k, v in self._num.items() if k >= low}
        return _canonical(self.names, top, self.den)

    def coeff(self, key) -> Fraction:
        return Fraction(self._num.get(_pack(tuple(key), self.names), 0), self.den)

    def __add__(self, other: "Poly") -> "Poly":
        return self._add(other, 1)

    def __neg__(self) -> "Poly":
        return Poly._make(self.names, {k: -v for k, v in self._num.items()}, self.den)

    def __sub__(self, other: "Poly") -> "Poly":
        return self._add(other, -1)

    def _add(self, other: "Poly", sign: int) -> "Poly":
        """self + sign * other over the lcm of the two denominators."""
        _same_names(self, other)
        num = dict(self._num)
        return _canonical(self.names, num, _subtract_into(num, self.den, other, -sign, 1, 0))

    def __mul__(self, other: "Poly") -> "Poly":
        return self.mul(other)

    def scale(self, c) -> "Poly":
        return self._scaled(*_ratio(c))

    def _scaled(self, n: int, d: int) -> "Poly":
        """self * n/d for ints n and d > 0."""
        if not n:
            return Poly._make(self.names, {}, 1)
        return _canonical(self.names, {k: v * n for k, v in self._num.items()}, self.den * d)

    def mul(self, other: "Poly", floor=-inf) -> "Poly":
        """The terms of self * other whose first exponent is at least floor;
        the products of terms that fall below it are never formed.  The
        numerators are multiplied and summed as ints (see _combine)."""
        _same_names(self, other)
        return _combine(self.names, self._num, other._num, self.den * other.den, floor)

    def power(self, n: int) -> "Poly":
        """self**n, as products of halves (see _power)."""
        if type(n) is not int or n < 0:
            raise PreconditionError(f"power {n!r} of a polynomial is not an int >= 0")
        return _power({(0, 0): Poly._make(self.names, {0: 1}, 1), (0, 1): self}, 0, n, Poly.mul)

    __pow__ = power

    def evaluate(self, images) -> "Poly":
        """self(images[0], images[1], ..., images[n-1]) in the ring of the
        images, by Horner's rule from the last variable down to x.

        Over each later variable j the terms are grouped by their exponent
        of j; from the top exponent down to 0 the sum so far is multiplied
        by images[j] and the group, evaluated over the variables before j,
        is added, so every product is one by an image.  images[0] is a
        monomial c*m; x^a maps to c^a*m^a, also for negative a (so x^-1
        stays a monomial).  Any other count of images, or an image over
        other variables, is refused.
        """
        ok = len(images) == len(self.names) and len({g.names for g in images}) == 1
        if not ok or len(images[0]._num) != 1:
            raise PreconditionError(
                f"evaluate takes one image per variable of {self.names}, all over "
                "the variables of images[0], which is a nonzero monomial"
            )
        names = images[0].names
        ((m, cn),) = images[0]._num.items()
        cd = images[0].den
        mt = _unpack(m, len(names))

        def at_x(num: dict) -> Poly:
            # the sum of v * c^a * m^a / self.den over num (a -> v), over one
            # denominator; a*m is packed afresh, so a negative later exponent is refused
            top, low = max([0, *num]), -min([0, *num])
            d = self.den * cd**top * cn**low
            sign = 1 if d > 0 else -1
            out: dict[int, int] = {}
            for a, v in num.items():
                s = _pack(tuple(a * e for e in mt), names)
                out[s] = out.get(s, 0) + sign * v * cn ** (a + low) * cd ** (top - a)
            return _canonical(names, {k: v for k, v in out.items() if v}, sign * d)

        def horner(num: dict, j: int) -> Poly:
            # num keyed by the exponents of x .. variable j, j in the lowest field
            if not j:
                return at_x(num)
            groups: dict[int, dict] = {}
            for k, v in num.items():
                groups.setdefault(k & _MASK, {})[k >> _W] = v
            acc = Poly._make(names, {}, 1)
            for e in range(max(groups, default=-1), -1, -1):
                acc = acc.mul(images[j])
                if e in groups:
                    acc += horner(groups[e], j - 1)
            return acc

        return horner(self._num, len(self.names) - 1)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.names == other.names
            and self.den == other.den
            and self._num == other._num
        )

    def __hash__(self) -> int:
        return hash((self.names, self.den, frozenset(self._num.items())))

    def format(self) -> str:
        """Terms ordered by the last variable's exponent first, then the one
        before it, down to x, each descending."""
        num = self.num
        keys = sorted(num, key=lambda k: k[::-1], reverse=True)
        return format_terms(((k, Fraction(num[k], self.den)) for k in keys), self.names)

    def __repr__(self) -> str:
        return self.format()


def _ratio(v) -> tuple[int, int]:
    """A rational input (int, Fraction, str, ...) as its reduced numerator
    and positive denominator; an int is read without a Fraction."""
    return (v, 1) if type(v) is int else Fraction(v).as_integer_ratio()


def _same_names(a: Poly, b: Poly) -> None:
    """Refuse operands over other variables: their packed keys would mix."""
    if a.names != b.names:
        raise PreconditionError(f"operands over {a.names} and {b.names}")


def _pack(key: tuple, names: tuple) -> int:
    """The int of the exponent tuple key over names (see the module
    docstring).  The one home of the key rule: one integer per variable,
    every later one in 0 .. 2^15 - 1."""
    if not key or len(key) != len(names) or type(key[0]) is not int:
        raise PreconditionError(f"term key {key} is not one integer per variable of {names}")
    k = key[0]
    for e in key[1:]:
        if type(e) is not int or not 0 <= e < _LIMIT:
            raise PreconditionError(
                f"exponent {e!r} of {names[1:]} in {key} is not an integer in 0 .. 2^{_W - 1} - 1"
            )
        k = k << _W | e
    return k


def _unpack(k: int, n: int) -> tuple[int, ...]:
    """The exponent tuple of n variables packed in k."""
    later = []
    for _ in range(n - 1):
        later.append(k & _MASK)
        k >>= _W
    return (k, *reversed(later))


def _x_offset(e: int, names: tuple) -> int:
    """The key of x^e over names: adding it to a key multiplies the term by
    x^e."""
    return e << _W * (len(names) - 1)


def _top_term(num: dict, names: tuple) -> tuple[int, bool, int]:
    """Of the largest key of the numerators num over names: its first
    exponent, whether every later exponent in it is 0, and its numerator.
    Later exponents fill the lowest fields, so they are all 0 exactly when
    the term is the only one of its first exponent."""
    if not num:
        raise PreconditionError("top term of the zero polynomial is undefined")
    k = max(num)
    shift = _W * (len(names) - 1)
    return k >> shift, not k & (1 << shift) - 1, num[k]


def _subtract_into(num: dict, den: int, q: Poly, n: int, m: int, offset: int) -> int:
    """num / den - (n / m) * q * x^e in place, for the key offset of x^e
    (see _x_offset), ints n and m > 0 and nonzero numerators num over the
    same variables as q; returns the new denominator, the lcm of den and
    m * q.den.  No gcd is taken: _canonical reduces the result once."""
    dq = m * q.den
    d = lcm(den, dq)
    if d != den:
        g = d // den
        for k in num:
            num[k] *= g
    c = n * (d // dq)
    get = num.get
    for k, v in q._num.items():
        k += offset
        v = get(k, 0) - c * v
        if v:
            num[k] = v
        else:
            del num[k]
    return d


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


def _combine(names: tuple, left: dict, right: dict, d: int, floor=-inf) -> Poly:
    """The terms at or above floor of left * right / d, for numerator dicts
    left and right over names.  The sums are ints, reduced once by their
    gcd with d.  The integer kernel of mul, and the one place where
    exponents add: a later exponent that reaches 2^15 is refused here,
    before a further product could carry it into the field above."""
    shift = _W * (len(names) - 1)
    if floor > -inf:  # the smallest key of first exponent at least floor
        floor = ceil(floor) << shift
    rhs = sorted(right.items(), reverse=True)  # each row stops below floor
    out: dict[int, int] = {}
    get = out.get
    for s, n in left.items():
        low = floor - s
        for k, v in rhs:
            if k < low:
                break
            k += s
            out[k] = get(k, 0) + n * v
    # the top bit of every field below the first exponent
    if reduce(or_, out, 0) & _LIMIT * ((1 << shift) - 1) // _MASK:
        raise PreconditionError(f"an exponent of {names[1:]} in a product is 2^{_W - 1} or more")
    return _canonical(names, {k: v for k, v in out.items() if v}, d)


def _power(cache: dict, j: int, m: int, times):
    """cache[(j, 1)]**m: times of the powers m//2 and m - m//2, each formed
    once and kept in cache by (j, m); the powers 0 and 1 are read as seeded."""
    if m < 2 or (j, m) in cache:
        return cache[(j, m)]
    h = m // 2
    cache[(j, m)] = times(_power(cache, j, h, times), _power(cache, j, m - h, times))
    return cache[(j, m)]


def _product(cache: dict, betas, times, one):
    """prod_j cache[(j, 1)]**b_j over betas = (b_1, b_2, ...), the powers
    (see _power) multiplied left to right with times; one if all b_j are 0."""
    factors = [_power(cache, j, b, times) for j, b in enumerate(betas, start=1) if b]
    return reduce(times, factors) if factors else one


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
