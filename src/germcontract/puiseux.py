"""Finite Puiseux series with exact rational exponents and coefficients.

Two orientations of the same data are used throughout:

* local (variable ``u``): germ expansions v = phi(u), exponents read in
  ascending order, the order ``ord`` is the smallest exponent;
* degree-wise (variable ``x``): expansions at infinity psi(x), exponents read
  in descending order, the degree ``deg`` is the largest exponent.

A term c*u^e of a local series corresponds to c*x^(1-e) of its degree-wise
counterpart (and back), so the two carry the same information; the
characteristic pairs transform accordingly.

Characteristic pairs are extracted by walking the support in order of
significance while maintaining the lattice (1/D)Z of exponents seen so far:
every exponent that escapes the lattice starts a new pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm, prod
from operator import mul
from types import MappingProxyType

from .errors import InvariantViolationError, PreconditionError, SeriesParseError
from .poly import format_terms

RatLike = Fraction | int | str


class Orientation(Enum):
    LOCAL = "u"
    DEGREEWISE = "x"

    @property
    def var(self) -> str:
        return self.value


class PuiseuxPoly:
    """A finite sum of terms c * var^e with c, e rational, c != 0.

    Immutable after construction; zero coefficients are dropped, duplicate
    exponents rejected.  Supports either orientation; all exponent-order
    conventions (significance, ord/deg) follow the orientation.  The
    characteristic pairs are walked once, by the first puiseux_pairs call,
    and kept in _pairs; keep_above and local_to_degreewise set them without
    a walk when they are known.
    """

    __slots__ = ("orientation", "_terms", "_pairs")

    def __init__(self, orientation: Orientation, terms):
        items = terms.items() if hasattr(terms, "items") else terms
        clean: dict[Fraction, Fraction] = {}
        for e, c in items:
            e = Fraction(e)
            c = Fraction(c)
            if c == 0:
                continue
            if e in clean:
                raise ValueError(f"duplicate exponent {e}")
            clean[e] = c
        object.__setattr__(self, "orientation", orientation)
        object.__setattr__(self, "_terms", clean)
        object.__setattr__(self, "_pairs", None)

    def __setattr__(self, name, value):
        raise AttributeError("PuiseuxPoly is immutable")

    @classmethod
    def zero(cls, orientation: Orientation) -> "PuiseuxPoly":
        return cls(orientation, {})

    @property
    def terms(self):
        """Read-only exponent -> coefficient view."""
        return MappingProxyType(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def support(self) -> tuple[Fraction, ...]:
        """Exponents in order of significance (ascending local, descending
        degree-wise)."""
        rev = self.orientation is Orientation.DEGREEWISE
        return tuple(sorted(self._terms, reverse=rev))

    def coeff(self, e) -> Fraction:
        return self._terms.get(Fraction(e), Fraction(0))

    def ord(self) -> Fraction:
        if self.orientation is not Orientation.LOCAL:
            raise PreconditionError("ord is defined for local series")
        if self.is_zero():
            raise PreconditionError("ord of the zero series is undefined")
        return min(self._terms)

    def deg(self) -> Fraction:
        if self.orientation is not Orientation.DEGREEWISE:
            raise PreconditionError("deg is defined for degree-wise series")
        if self.is_zero():
            raise PreconditionError("deg of the zero series is undefined")
        return max(self._terms)

    def keep_above(self, threshold, pairs=None) -> "PuiseuxPoly":
        """Sub-sum of terms with exponent strictly greater than threshold.
        A caller that knows the characteristic pairs of the result passes
        them as pairs (CharacteristicData, not checked) to spare the walk;
        they are dropped when the result is zero, which has none."""
        t = Fraction(threshold)
        out = PuiseuxPoly(
            self.orientation, {e: c for e, c in self._terms.items() if e > t}
        )
        if out._terms:
            object.__setattr__(out, "_pairs", pairs)
        return out

    def with_term(self, e, c) -> "PuiseuxPoly":
        """Copy with one extra term (the exponent must be fresh)."""
        new = dict(self._terms)
        e = Fraction(e)
        if e in new:
            raise ValueError(f"exponent {e} already present")
        new[e] = Fraction(c)
        return PuiseuxPoly(self.orientation, new)

    def polydromy(self) -> int:
        """lcm of the exponent denominators (1 for the zero series)."""
        out = 1
        for e in self._terms:
            out = lcm(out, e.denominator)
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PuiseuxPoly)
            and self.orientation is other.orientation
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        return hash((self.orientation, frozenset(self._terms.items())))

    def __repr__(self) -> str:
        return f"PuiseuxPoly({self.orientation.name}, {format_puiseux(self)!r})"

    def __str__(self) -> str:
        return format_puiseux(self)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _pair_tuples(pairs) -> tuple:
    """pairs as a tuple of (q, p) tuples, or PreconditionError."""
    try:
        return tuple((q, p) for q, p in pairs)
    except (TypeError, ValueError):
        raise PreconditionError(f"pairs must be (q, p) tuples, not {pairs!r}") from None


@dataclass(frozen=True)
class CharacteristicData:
    """Characteristic pairs (q_k, p_k) plus the polydromy order p = prod p_k.

    Every entry is an int (a bool is not), every p_k >= 2 and
    gcd(q_k, p_k) = 1.  The sign/monotonicity pattern of the q_k depends on
    which orientation the pairs were extracted from; the local-side
    validation lives in local_pair_data.
    """

    pairs: tuple[tuple[int, int], ...]
    polydromy: int

    def __post_init__(self):
        acc = 1
        for q, p in self.pairs:
            if not (_is_int(q) and _is_int(p)):
                raise PreconditionError(f"pair ({q!r},{p!r}): entries must be integers")
            if p < 2:
                raise PreconditionError(f"pair ({q},{p}): p must be >= 2")
            if gcd(q, p) != 1:
                raise PreconditionError(f"pair ({q},{p}) is not coprime")
            acc *= p
        if acc != self.polydromy:
            raise PreconditionError(
                f"polydromy {self.polydromy} != product of the p_k = {acc}"
            )

    @classmethod
    def from_pairs(cls, pairs) -> "CharacteristicData":
        pairs = _pair_tuples(pairs)
        # a non-integer p is left out of the product and reported by __post_init__
        return cls(pairs, prod(p for _, p in pairs if _is_int(p)))

    def cumulative_p(self) -> tuple[int, ...]:
        """(p_1, p_1p_2, ..., p_1..p_k)."""
        return cumulative_products(self.pairs)

    def char_exponents(self) -> tuple[Fraction, ...]:
        """q_k / (p_1..p_k) for each pair."""
        return tuple(
            Fraction(q, cp) for (q, _), cp in zip(self.pairs, self.cumulative_p())
        )

    def betas(self) -> tuple[int, ...]:
        """The scaled characteristic exponents beta_k = q_k * p / (p_1..p_k),
        i.e. the polydromy times char_exponents()."""
        p = self.polydromy
        return tuple(q * (p // cp) for (q, _), cp in zip(self.pairs, self.cumulative_p()))


def check_r(r) -> None:
    """Reject r, the number of extra blow-ups, unless it is a non-negative int
    (a bool is not)."""
    if not _is_int(r) or r < 0:
        raise PreconditionError(f"r = {r!r} must be a non-negative integer")


def local_pair_data(local_pairs) -> CharacteristicData:
    """The pairs as CharacteristicData (passed through if they already are),
    checked on the local side: at least one pair, positive q_k and strictly
    increasing exponents q_k/(p_1..p_k).

    The q_k >= 1 rule is read before CharacteristicData's own checks, so a
    pair (0, p) is refused by it rather than as not coprime."""
    given = isinstance(local_pairs, CharacteristicData)
    pairs = local_pairs.pairs if given else _pair_tuples(local_pairs)
    for q, _ in pairs:
        if _is_int(q) and q < 1:
            raise PreconditionError(f"local pair with q = {q}: q must be >= 1")
    data = local_pairs if given else CharacteristicData.from_pairs(pairs)
    if not data.pairs:
        raise PreconditionError("need at least one characteristic pair")
    exps = data.char_exponents()
    for k in range(1, len(exps)):
        if exps[k] <= exps[k - 1]:
            raise PreconditionError(
                f"characteristic exponents must increase: {exps[k - 1]} then {exps[k]}"
            )
    return data


def is_tangent(data: CharacteristicData) -> bool:
    """Whether the germ of the local pairs is tangent to the line: its order
    q_1/p_1 is < 1."""
    q1, p1 = data.pairs[0]
    return q1 < p1


def check_tangent(data: CharacteristicData) -> None:
    """Reject a germ of order >= 1 where a contraction is asked for."""
    if not is_tangent(data):
        raise PreconditionError(
            "the germ has order >= 1: the line's strict transform cannot "
            "be part of a contractible configuration"
        )


def cumulative_products(pairs) -> tuple[int, ...]:
    """Running products p_1, p_1p_2, ... of the p's of pairs (q_k, p_k)."""
    return tuple(accumulate((p for _, p in pairs), mul))


def puiseux_pairs(phi: PuiseuxPoly) -> CharacteristicData:
    """Extract the characteristic pairs of a nonzero series.  The walk is
    made on the first call and kept on the (immutable) series."""
    if phi._pairs is None:
        object.__setattr__(phi, "_pairs", _walk_pairs(phi))
    return phi._pairs


def _walk_pairs(phi: PuiseuxPoly) -> CharacteristicData:
    """The characteristic pairs of phi.

    Walks the support in order of significance with a running lattice
    denominator D (starting at 1); an exponent outside (1/D)Z contributes the
    pair (e*D', D'/D) with D' = lcm(D, den(e)).
    """
    if phi.is_zero():
        raise PreconditionError("characteristic pairs of the zero series")
    d = 1
    pairs = []
    for e in phi.support():
        if e.denominator == 1 or d % e.denominator == 0:
            continue
        d_new = lcm(d, e.denominator)
        p_k = d_new // d
        q_k = e * d_new
        if q_k.denominator != 1 or gcd(int(q_k), p_k) != 1:
            raise InvariantViolationError(
                "new characteristic pair is not a coprime integer pair",
                exponent=e, q=q_k, p=p_k, lattice=d,
            )
        pairs.append((int(q_k), p_k))
        d = d_new
    return CharacteristicData(tuple(pairs), d)


def local_to_degreewise(phi: PuiseuxPoly) -> PuiseuxPoly:
    """c*u^e  ->  c*x^(1-e).

    When the pairs of phi have been walked, the result gets its pairs from
    them: e and 1 - e have the same denominator and the map keeps the order
    of significance, so each local pair (q_k, p_k) becomes the degree-wise
    pair (p_1..p_k - q_k, p_k)."""
    if phi.orientation is not Orientation.LOCAL:
        raise PreconditionError("expected a local series")
    psi = PuiseuxPoly(
        Orientation.DEGREEWISE, {1 - e: c for e, c in phi.terms.items()}
    )
    data = phi._pairs
    if data is not None:
        pairs = tuple((cp - q, p) for (q, p), cp in zip(data.pairs, data.cumulative_p()))
        object.__setattr__(psi, "_pairs", CharacteristicData(pairs, data.polydromy))
    return psi


def degreewise_to_local(psi: PuiseuxPoly) -> PuiseuxPoly:
    """c*x^e  ->  c*u^(1-e) (inverse of local_to_degreewise)."""
    if psi.orientation is not Orientation.DEGREEWISE:
        raise PreconditionError("expected a degree-wise series")
    return PuiseuxPoly(Orientation.LOCAL, {1 - e: c for e, c in psi.terms.items()})


# ---------------------------------------------------------------------------
# text form
#
# series   := ['-'] term (('+'|'-') term)*
# term     := coeff | [coeff '*'] var ['^' exponent]
# coeff    := integer ['/' integer]
# exponent := ['-'] integer | '(' ['-'] integer ['/' integer] ')'
#
# The variable letter decides the orientation: u = local, x = degree-wise.


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.i = 0

    def skip_ws(self):
        while self.i < len(self.text) and self.text[self.i].isspace():
            self.i += 1

    def peek(self) -> str:
        return self.text[self.i] if self.i < len(self.text) else ""

    def take(self) -> str:
        ch = self.peek()
        self.i += 1
        return ch

    def fail(self, message: str):
        raise SeriesParseError(message, self.i)

    def integer(self) -> int:
        self.skip_ws()
        start = self.i
        if self.peek() == "-":
            self.i += 1
        if not self.peek().isdigit():
            self.fail("expected an integer")
        while self.peek().isdigit():
            self.i += 1
        return int(self.text[start : self.i])

    def rational(self) -> Fraction:
        num = self.integer()
        if self.peek() == "/":
            self.i += 1
            pos = self.i
            den = self.integer()
            if den == 0:
                raise SeriesParseError("zero denominator", pos)
            return Fraction(num, den)
        return Fraction(num)

    def exponent(self) -> Fraction:
        self.skip_ws()
        if self.peek() == "(":
            self.i += 1
            value = self.rational()
            self.skip_ws()
            if self.peek() != ")":
                self.fail("expected ')'")
            self.i += 1
            return value
        return Fraction(self.integer())


def _parse_term(sc: _Scanner, variables) -> tuple[Fraction, dict[str, Fraction]]:
    """One unsigned term: '*'-separated factors, at most one leading
    coefficient, each variable at most once.  Returns (coeff, var -> exp)."""
    coeff = Fraction(1)
    powers: dict[str, Fraction] = {}
    saw_factor = False
    while True:
        sc.skip_ws()
        ch = sc.peek()
        if ch.isdigit():
            if saw_factor:
                sc.fail("coefficient must come first in a term")
            coeff = sc.rational()
        elif ch.isalpha():
            name = sc.take()
            while sc.peek().isdigit():
                name += sc.take()
            if name not in variables:
                sc.fail(f"unknown variable {name!r}")
            if name in powers:
                sc.fail(f"variable {name!r} repeated in one term")
            exp = Fraction(1)
            sc.skip_ws()
            if sc.peek() == "^":
                sc.i += 1
                exp = sc.exponent()
            powers[name] = exp
        else:
            sc.fail("expected a coefficient or a variable")
        saw_factor = True
        sc.skip_ws()
        if sc.peek() == "*":
            sc.i += 1
            continue
        return coeff, powers


def parse_terms(text: str, variables):
    """Signed-sum driver shared by the series and polynomial parsers.

    Yields (signed coefficient, variable -> exponent, term position) per term.
    """
    sc = _Scanner(text)
    sc.skip_ws()
    if not sc.peek():
        sc.fail("empty input")
    sign = Fraction(1)
    if sc.peek() == "-":
        sc.i += 1
        sign = Fraction(-1)
    while True:
        sc.skip_ws()
        pos = sc.i
        coeff, powers = _parse_term(sc, variables)
        yield sign * coeff, powers, pos
        sc.skip_ws()
        ch = sc.peek()
        if not ch:
            return
        if ch == "+":
            sign = Fraction(1)
        elif ch == "-":
            sign = Fraction(-1)
        else:
            sc.fail(f"unexpected {ch!r}")
        sc.i += 1


def parse_puiseux(text: str, orientation: Orientation | None = None) -> PuiseuxPoly:
    """Parse a one-variable series; the variable letter (u or x) fixes the
    orientation unless one is supplied.  parse o format o parse = id."""
    terms: dict[Fraction, Fraction] = {}
    seen: Orientation | None = None
    for coeff, powers, pos in parse_terms(text, ("u", "x")):
        if len(powers) > 1:
            raise SeriesParseError("one variable per term expected", pos)
        var = next(iter(powers), None)
        if var is not None:
            this = Orientation.LOCAL if var == "u" else Orientation.DEGREEWISE
            if seen is None:
                seen = this
            elif seen is not this:
                raise SeriesParseError("mixed variables u and x", pos)
        e = powers.get(var, Fraction(0)) if var else Fraction(0)
        if coeff == 0:
            continue
        if e in terms:
            raise SeriesParseError(f"duplicate exponent {e}", pos)
        terms[e] = coeff
    if seen is not None and orientation is not None and seen is not orientation:
        raise SeriesParseError("series variable conflicts with the requested orientation", 0)
    final = seen or orientation
    if final is None:
        raise SeriesParseError("cannot infer the orientation (no variable present)", 0)
    return PuiseuxPoly(final, terms)


def format_puiseux(phi: PuiseuxPoly) -> str:
    terms = (((e,), phi.terms[e]) for e in phi.support())
    return format_terms(terms, (phi.orientation.var,))
