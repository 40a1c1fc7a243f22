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

A series stores integer numerators over one exponent denominator and one
coefficient denominator (see PuiseuxPoly); the walk, the conversions, the
parser and the truncations run on these ints, and a Fraction is built only
when a view (terms, support, coeff, ord, deg) is read.
"""

from __future__ import annotations

import re
from enum import Enum
from fractions import Fraction
from math import gcd, lcm, prod
from types import MappingProxyType

from .errors import InvariantViolationError, PreconditionError, SeriesParseError
from .poly import _ratio, format_terms


class Orientation(Enum):
    LOCAL = "u"
    DEGREEWISE = "x"

    @property
    def var(self) -> str:
        return self.value


class PuiseuxPoly:
    """A finite sum of terms c * var^e with c, e rational, c != 0.

    Stored as Poly stores its coefficients: the exponents are integer
    numerators over one lattice denominator den, the coefficients integer
    numerators over one coefficient denominator cden, both canonical (no
    factor common to den and every exponent numerator, none common to cden
    and every coefficient numerator), so den is the polydromy.  _num maps
    exponent numerators to coefficient numerators in order of significance.
    terms, support, coeff, ord and deg build Fractions on access.

    Immutable after construction; zero coefficients are dropped, duplicate
    exponents rejected.  Supports either orientation; all exponent-order
    conventions (significance, ord/deg) follow the orientation.  The
    characteristic pairs are walked when the series is made and kept in
    _pairs (None for the zero series, which has none).
    """

    __slots__ = ("orientation", "_num", "_den", "_cden", "_pairs")

    def __init__(self, orientation: Orientation, terms):
        items = terms.items() if hasattr(terms, "items") else terms
        clean: dict[tuple[int, int], tuple[int, int]] = {}
        for e, c in items:
            e, c = _ratio(e), _ratio(c)
            if not c[0]:
                continue
            if e in clean:
                raise ValueError(f"duplicate exponent {Fraction(*e)}")
            clean[e] = c
        _set(self, orientation, *_store(orientation, clean))

    @classmethod
    def _make(cls, orientation: Orientation, num: dict, den: int, cden: int) -> "PuiseuxPoly":
        """Wrap a store that is already canonical and in order of significance."""
        out = object.__new__(cls)
        _set(out, orientation, num, den, cden)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("PuiseuxPoly is immutable")

    @classmethod
    def zero(cls, orientation: Orientation) -> "PuiseuxPoly":
        return cls._make(orientation, {}, 1, 1)

    @property
    def terms(self):
        """Read-only exponent -> coefficient view."""
        d, cd = self._den, self._cden
        return MappingProxyType({Fraction(n, d): Fraction(c, cd) for n, c in self._num.items()})

    def is_zero(self) -> bool:
        return not self._num

    def support(self) -> tuple[Fraction, ...]:
        """Exponents in order of significance (ascending local, descending
        degree-wise)."""
        return tuple(Fraction(n, self._den) for n in self._num)

    def coeff(self, e) -> Fraction:
        a, b = _ratio(e)
        if self._den % b:
            return Fraction(0)
        return Fraction(self._num.get(a * (self._den // b), 0), self._cden)

    def ord(self) -> Fraction:
        if self.orientation is not Orientation.LOCAL:
            raise PreconditionError("ord is defined for local series")
        if self.is_zero():
            raise PreconditionError("ord of the zero series is undefined")
        return Fraction(next(iter(self._num)), self._den)

    def deg(self) -> Fraction:
        if self.orientation is not Orientation.DEGREEWISE:
            raise PreconditionError("deg is defined for degree-wise series")
        if self.is_zero():
            raise PreconditionError("deg of the zero series is undefined")
        return Fraction(next(iter(self._num)), self._den)

    def keep_above(self, threshold) -> "PuiseuxPoly":
        """Sub-sum of terms with exponent strictly greater than threshold."""
        return self._above(*_ratio(threshold))

    def _above(self, a: int, b: int) -> "PuiseuxPoly":
        """keep_above(a/b) for ints a and b > 0."""
        d = self._den
        return _canonical(
            self.orientation, {n: c for n, c in self._num.items() if n * b > a * d}, d, self._cden
        )

    def with_term(self, e, c) -> "PuiseuxPoly":
        """Copy with one extra term (the exponent must be fresh)."""
        e, terms = Fraction(e), self.terms
        if e in terms:
            raise ValueError(f"exponent {e} already present")
        return PuiseuxPoly(self.orientation, {**terms, e: c})

    def polydromy(self) -> int:
        """lcm of the exponent denominators (1 for the zero series)."""
        return self._den

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PuiseuxPoly)
            and self.orientation is other.orientation
            and self._den == other._den
            and self._cden == other._cden
            and self._num == other._num
        )

    def __hash__(self) -> int:
        return hash((self.orientation, self._den, self._cden, frozenset(self._num.items())))

    def __repr__(self) -> str:
        return f"PuiseuxPoly({self.orientation.name}, {format_puiseux(self)!r})"

    def __str__(self) -> str:
        return format_puiseux(self)


def _set(phi: PuiseuxPoly, orientation: Orientation, num: dict, den: int, cden: int) -> None:
    object.__setattr__(phi, "orientation", orientation)
    object.__setattr__(phi, "_num", num)
    object.__setattr__(phi, "_den", den)
    object.__setattr__(phi, "_cden", cden)
    object.__setattr__(phi, "_pairs", _walk_pairs(phi) if num else None)


def _store(orientation: Orientation, terms: dict) -> tuple[dict, int, int]:
    """(num, den, cden) of the series whose terms map reduced exponents
    (a, b) to reduced nonzero coefficients (n, d), b, d > 0.  Over the lcms
    of reduced denominators the store is already canonical."""
    den = cden = 1
    for (_, b), (_, d) in terms.items():
        den = lcm(den, b)
        cden = lcm(cden, d)
    num = {a * (den // b): n * (cden // d) for (a, b), (n, d) in terms.items()}
    rev = orientation is Orientation.DEGREEWISE
    return {n: num[n] for n in sorted(num, reverse=rev)}, den, cden


def _canonical(orientation: Orientation, num: dict, den: int, cden: int) -> PuiseuxPoly:
    """The series num over den and cden (no zero coefficients, in order of
    significance), with den divided by its gcd with every exponent numerator
    and cden by its gcd with every coefficient numerator."""
    # folded one value at a time and stopped at 1, as poly._canonical does
    g, h = den, cden
    for n, v in num.items():
        if g != 1:
            g = gcd(g, n)
        if h != 1:
            h = gcd(h, v)
        if g == h == 1:
            break
    if g != 1 or h != 1:
        num = {n // g: v // h for n, v in num.items()}
        den //= g
        cden //= h
    return PuiseuxPoly._make(orientation, num, den, cden)


def _pair_tuples(pairs) -> tuple:
    """pairs, a list or tuple of (q, p) lists or tuples, as a tuple of
    tuples, or PreconditionError."""
    if isinstance(pairs, (list, tuple)):
        out = tuple([tuple(pr) for pr in pairs if isinstance(pr, (list, tuple)) and len(pr) == 2])
        if len(out) == len(pairs):
            return out
    raise PreconditionError("pairs must be a list of (q, p) tuples")


class CharacteristicData:
    """Characteristic pairs (q_k, p_k) plus the polydromy order p = prod p_k.

    Every entry is exactly an int (no subclass such as bool), every p_k >= 2
    and gcd(q_k, p_k) = 1.  The sign/monotonicity pattern of the q_k depends on
    which orientation the pairs were extracted from; the local-side
    validation lives in local_pair_data.  The running products of the p_k
    and the betas are formed by the validation and kept.

    Immutable; equal and of equal hash when pairs and polydromy are.  Not a
    tuple, so local_pair_data and the CLI tell it apart from raw pairs.
    """

    __slots__ = ("pairs", "polydromy", "_cum", "_betas")

    def __init__(self, pairs: tuple[tuple[int, int], ...], polydromy: int):
        cum = []
        acc = 1
        for q, p in pairs:
            if type(q) is not int or type(p) is not int:
                raise PreconditionError(f"pair ({q!r},{p!r}): entries must be integers")
            if p < 2:
                raise PreconditionError(f"pair ({q},{p}): p must be >= 2")
            if gcd(q, p) != 1:
                raise PreconditionError(f"pair ({q},{p}) is not coprime")
            acc *= p
            cum.append(acc)
        if acc != polydromy:
            raise PreconditionError(f"polydromy {polydromy} != product of the p_k = {acc}")
        _set_pairs(self, pairs)
        _set_polydromy(self, polydromy)
        _set_cum(self, tuple(cum))
        _set_betas(self, tuple(q * (acc // cp) for (q, _), cp in zip(pairs, cum)))

    def __setattr__(self, name, value):
        raise AttributeError("CharacteristicData is immutable")

    def __delattr__(self, name):
        raise AttributeError("CharacteristicData is immutable")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.pairs == other.pairs and self.polydromy == other.polydromy

    def __hash__(self) -> int:
        return hash((self.pairs, self.polydromy))

    def __repr__(self) -> str:
        return f"CharacteristicData(pairs={self.pairs!r}, polydromy={self.polydromy!r})"

    @classmethod
    def from_pairs(cls, pairs) -> "CharacteristicData":
        pairs = _pair_tuples(pairs)
        # a non-integer p is left out of the product and reported by __init__
        return cls(pairs, prod(p for _, p in pairs if type(p) is int))

    def cumulative_p(self) -> tuple[int, ...]:
        """(p_1, p_1p_2, ..., p_1..p_k)."""
        return self._cum

    def char_exponents(self) -> tuple[Fraction, ...]:
        """q_k / (p_1..p_k) for each pair."""
        return tuple(
            Fraction(q, cp) for (q, _), cp in zip(self.pairs, self.cumulative_p())
        )

    def betas(self) -> tuple[int, ...]:
        """The scaled characteristic exponents beta_k = q_k * p / (p_1..p_k),
        i.e. the polydromy times char_exponents()."""
        return self._betas


# The slots' own setters: they pass by the refusing __setattr__ at less than
# half the cost of object.__setattr__.
_set_pairs = CharacteristicData.pairs.__set__
_set_polydromy = CharacteristicData.polydromy.__set__
_set_cum = CharacteristicData._cum.__set__
_set_betas = CharacteristicData._betas.__set__


def check_r(r) -> None:
    """Reject r, the number of extra blow-ups, unless it is a non-negative int
    (a bool or other subclass of int is not)."""
    if type(r) is not int or r < 0:
        raise PreconditionError(f"r = {r!r} must be a non-negative integer")


def check_text(text, what: str) -> None:
    """Reject the text argument of a reader unless it is a str."""
    if not isinstance(text, str):
        raise PreconditionError(f"{what} must be a string")


def local_pair_data(local_pairs) -> CharacteristicData:
    """The pairs as CharacteristicData (passed through if they already are),
    checked on the local side: at least one pair, positive q_k and strictly
    increasing exponents q_k/(p_1..p_k).

    The q_k >= 1 rule is read before CharacteristicData's own checks, so a
    pair (0, p) is refused by it rather than as not coprime."""
    given = isinstance(local_pairs, CharacteristicData)
    pairs = local_pairs.pairs if given else _pair_tuples(local_pairs)
    for q, _ in pairs:
        if type(q) is int and q < 1:
            raise PreconditionError(f"local pair with q = {q}: q must be >= 1")
    data = local_pairs if given else CharacteristicData.from_pairs(pairs)
    if not data.pairs:
        raise PreconditionError("need at least one characteristic pair")
    # q_k/c_k > q_{k-1}/c_{k-1} with c_k = p_1..p_k, cross-multiplied
    q_prev, c_prev = 0, 1
    for k, ((q, _), c) in enumerate(zip(data.pairs, data.cumulative_p())):
        if k and q * c_prev <= q_prev * c:
            exps = data.char_exponents()
            raise PreconditionError(
                f"characteristic exponents must increase: {exps[k - 1]} then {exps[k]}"
            )
        q_prev, c_prev = q, c
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


def puiseux_pairs(phi: PuiseuxPoly) -> CharacteristicData:
    """The characteristic pairs of a nonzero series, walked when the series
    was made."""
    if phi._pairs is None:
        raise PreconditionError("characteristic pairs of the zero series")
    return phi._pairs


def _walk_pairs(phi: PuiseuxPoly) -> CharacteristicData:
    """The characteristic pairs of a nonzero series.

    Walks the support in order of significance with a running lattice
    denominator D (starting at 1); an exponent e = a/b in lowest terms
    outside (1/D)Z contributes the pair (e*D', D'/D) with D' = lcm(D, b).
    """
    den = phi._den
    d = 1
    pairs = []
    for n in phi._num:
        g = gcd(n, den)
        b = den // g
        if d % b == 0:
            continue
        d_new = lcm(d, b)
        p_k = d_new // d
        q_k = n // g * (d_new // b)
        if gcd(q_k, p_k) != 1:
            raise InvariantViolationError(
                "new characteristic pair is not a coprime integer pair",
                exponent=Fraction(n, den), q=q_k, p=p_k, lattice=d,
            )
        pairs.append((q_k, p_k))
        d = d_new
    return CharacteristicData(tuple(pairs), d)


def local_to_degreewise(phi: PuiseuxPoly) -> PuiseuxPoly:
    """c*u^e  ->  c*x^(1-e)."""
    if phi.orientation is not Orientation.LOCAL:
        raise PreconditionError("expected a local series")
    return _flip(phi, Orientation.DEGREEWISE)


def degreewise_to_local(psi: PuiseuxPoly) -> PuiseuxPoly:
    """c*x^e  ->  c*u^(1-e) (inverse of local_to_degreewise)."""
    if psi.orientation is not Orientation.DEGREEWISE:
        raise PreconditionError("expected a degree-wise series")
    return _flip(psi, Orientation.LOCAL)


def _flip(phi: PuiseuxPoly, orientation: Orientation) -> PuiseuxPoly:
    """e -> 1 - e into the other orientation.  n/D maps to (D - n)/D over
    the same lattice and coefficients, which stays canonical, and the
    order of significance is kept."""
    d = phi._den
    return PuiseuxPoly._make(
        orientation, {d - n: c for n, c in phi._num.items()}, d, phi._cden
    )


# ---------------------------------------------------------------------------
# text form
#
# series   := ['-'] term (('+' | '-') term)*
# term     := (coeff | factor) ('*' factor)*     each variable at most once
# factor   := var ['^' exponent]
# coeff    := digits ['/' digits]
# exponent := integer | '(' integer ['/' digits] ')'
# integer  := ['-'] digits
# var      := letter digits*
#
# Whitespace may stand between any two tokens except between the '-' of an
# integer and its digits and between a numerator and its '/'; digits and
# variable names hold none.  A denominator takes no sign.  The variable
# letter decides the orientation: u = local, x = degree-wise.

# one token per match: the whitespace before it, then digits, a variable
# name or any other single character
_TOKEN = re.compile(r"(\s*)(\d+|[A-Za-z]\d*|\S)")


def parse_terms(text: str, variables):
    """Signed-sum driver shared by the series and polynomial parsers.

    Yields (signed coefficient, variable -> exponent, term position) per
    term, each rational as a reduced (numerator, denominator) pair.
    """
    # (text, start, whether whitespace came before), closed by an empty token
    toks = [(m[2], m.start(2), bool(m[1])) for m in _TOKEN.finditer(text)]
    toks.append(("", len(text), False))
    if not toks[0][0]:
        raise SeriesParseError("empty input", len(text))
    sign, i = (-1, 1) if toks[0][0] == "-" else (1, 0)
    while True:
        pos = toks[i][1]
        (n, d), powers, i = _term(toks, i, variables)
        yield (sign * n, d), powers, pos
        t, at, _ = toks[i]
        if not t:
            return
        if t not in ("+", "-"):
            raise SeriesParseError(f"unexpected {t[0]!r}", at)
        sign = -1 if t == "-" else 1
        i += 1


def _term(toks, i: int, variables) -> tuple[tuple[int, int], dict, int]:
    """The unsigned term at toks[i] as (coeff, var -> exp, index after it),
    each rational as a reduced (numerator, denominator) pair."""
    first = i
    coeff = (1, 1)
    powers: dict[str, tuple[int, int]] = {}
    while True:
        t, at, _ = toks[i]
        if t.isdecimal():
            if i > first:
                raise SeriesParseError("coefficient must come first in a term", at)
            coeff, i = _rational(toks, i)
        elif t[:1].isalpha():
            if t not in variables:
                raise SeriesParseError(f"unknown variable {t!r}", at + len(t))
            if t in powers:
                raise SeriesParseError(f"variable {t!r} repeated in one term", at + len(t))
            exp, i = (1, 1), i + 1
            if toks[i][0] == "^":
                exp, i = _exponent(toks, i + 1)
            powers[t] = exp
        else:
            raise SeriesParseError("expected a coefficient or a variable", at)
        if toks[i][0] != "*":
            return coeff, powers, i
        i += 1


def _exponent(toks, i: int) -> tuple[tuple[int, int], int]:
    """integer or '(' rational ')' at toks[i], and the index after it."""
    if toks[i][0] != "(":
        num, i = _integer(toks, i)
        return (num, 1), i
    value, i = _rational(toks, i + 1)
    t, at, _ = toks[i]
    if t != ")":
        raise SeriesParseError("expected ')'", at)
    return value, i + 1


def _rational(toks, i: int) -> tuple[tuple[int, int], int]:
    """integer ['/' digits] at toks[i] as a reduced numerator and positive
    denominator, and the index after it.  A '/' after whitespace is left to
    the caller."""
    num, i = _integer(toks, i)
    t, at, spaced = toks[i]
    if t != "/" or spaced:
        return (num, 1), i
    t, sign_at, _ = toks[i + 1]
    if t in ("+", "-"):
        raise SeriesParseError("sign in a denominator", sign_at)
    den, i = _integer(toks, i + 1)
    if not den:
        raise SeriesParseError("zero denominator", at + 1)
    g = gcd(num, den)
    return (num // g, den // g), i


def _integer(toks, i: int) -> tuple[int, int]:
    """['-'] digits at toks[i], the digits right after the sign, and the
    index after them."""
    t, at, _ = toks[i]
    sign = 1
    if t == "-":
        i += 1
        t, start, spaced = toks[i]
        if spaced or not t.isdecimal():
            raise SeriesParseError("expected an integer", at + 1)
        sign, at = -1, start
    elif not t.isdecimal():
        raise SeriesParseError("expected an integer", at)
    try:
        return sign * int(t), i + 1
    except ValueError:  # more digits than sys.get_int_max_str_digits() allows
        raise SeriesParseError("integer has too many digits", at) from None


# one term of a series as the walk reads it, from the whitespace before its
# sign through the whitespace after it: sign, coefficient (numerator,
# denominator), variable, and its exponent (an integer, or the numerator and
# denominator in parentheses); the '*' stands only after a coefficient
_SERIES_TERM = re.compile(
    r"\s*([+-]?)\s*"
    r"(?:([0-9]+)(?:/\s*([0-9]+))?)?"
    r"(?:(?(2)\s*\*\s*)([ux])"
    r"(?:\s*\^\s*(?:(-?[0-9]+)|\(\s*(-?[0-9]+)(?:/\s*([0-9]+))?\s*\)))?)?"
    r"\s*"
)


def parse_puiseux(text: str, orientation: Orientation | None = None) -> PuiseuxPoly:
    """Parse a one-variable series; the variable letter (u or x) fixes the
    orientation unless one is supplied.  parse o format o parse = id.

    Well-formed text is read one _SERIES_TERM match per term; any text the
    matches do not take in full, or whose terms break a rule, is read again
    by the token walk, which raises the SeriesParseError."""
    check_text(text, "series")
    read = _match_series(text)
    terms, seen = read if read is not None else _walk_series(text)
    if seen is not None and orientation is not None and seen is not orientation:
        raise SeriesParseError("series variable conflicts with the requested orientation", 0)
    final = seen or orientation
    if final is None:
        raise SeriesParseError("cannot infer the orientation (no variable present)", 0)
    return PuiseuxPoly._make(final, *_store(final, terms))


def _match_series(text: str):
    """(exponent -> coefficient, orientation of the variable or None) of a
    series read by _SERIES_TERM, each rational a reduced (numerator,
    denominator) pair; None where the walk must read it: a match with no
    coefficient and no variable, a missing or extra sign, a zero
    denominator, mixed variables, a repeated exponent or more digits than
    int() reads."""
    terms: dict[tuple[int, int], tuple[int, int]] = {}
    seen: Orientation | None = None
    pos, end = 0, len(text)
    match = _SERIES_TERM.match
    while True:
        m = match(text, pos)
        sign, var = m[1], m[4]
        try:  # the digit groups, None where one did not match
            n, d, e, en, ed = [v and int(v) for v in m.group(2, 3, 5, 6, 7)]
        except ValueError:  # more digits than sys.get_int_max_str_digits() allows
            return None
        if not (m[2] or var) or (sign == "+" if pos == 0 else not sign) or d == 0 or ed == 0:
            return None
        if var is None:
            exp = (0, 1)
        else:
            this = Orientation.LOCAL if var == "u" else Orientation.DEGREEWISE
            if seen is not this:
                if seen is not None:
                    return None
                seen = this
            if e is not None:
                exp = (e, 1)
            elif en is not None:
                ed = ed or 1
                g = gcd(en, ed)
                exp = (en // g, ed // g)
            else:
                exp = (1, 1)
        n, d = (1, 1) if n is None else (n, d or 1)
        if n:
            if exp in terms:
                return None
            g = gcd(n, d)
            terms[exp] = ((-n if sign == "-" else n) // g, d // g)
        pos = m.end()
        if pos == end:
            return terms, seen


def _walk_series(text: str):
    """What _match_series reads, by the token walk, or SeriesParseError."""
    terms: dict[tuple[int, int], tuple[int, int]] = {}
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
        e = powers[var] if var else (0, 1)
        if not coeff[0]:
            continue
        if e in terms:
            raise SeriesParseError(f"duplicate exponent {Fraction(*e)}", pos)
        terms[e] = coeff
    return terms, seen


def format_puiseux(phi: PuiseuxPoly) -> str:
    d, cd = phi._den, phi._cden
    terms = (((Fraction(n, d),), Fraction(c, cd)) for n, c in phi._num.items())
    return format_terms(terms, (phi.orientation.var,))
