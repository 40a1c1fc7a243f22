"""Generic degree-wise series and the semidegree they induce.

A GenericDPS is a finite degree-wise series phi plus one formal tail term
xi * x^r_delta whose coefficient xi is a free parameter sitting strictly
below every exponent of phi.  Substituting it for y in a Laurent polynomial
f(x, y) produces a finite sum of terms c * x^e * xi^d.  Its Poly is keyed
(delta_x * e, d), where delta_x is the lattice denominator of the generic
series (product of its formal pair p's), so every key is an integer and the
semidegree of f is the largest first key carrying a nonzero term.

The formal pairs of a GenericDPS extend the characteristic pairs of phi by
the pair of r_delta relative to phi's lattice; for series derived from a
curve germ plus an integer r >= 1 the extra pair has p = 1.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import InvariantViolationError, PreconditionError, SeriesParseError
from .poly import Poly, _pack, _ratio
from .puiseux import (
    CharacteristicData,
    Orientation,
    PuiseuxPoly,
    check_r,
    check_text,
    parse_terms,
    puiseux_pairs,
)


XY = ("x", "y")  # variables of key forms and witness curves
XI = ("x", "xi")  # variables of a substituted generic series
NO_PAIRS = CharacteristicData((), 1)  # the pairs of the zero series


def parse_poly(text: str, xname: str = "x", yname: str = "y") -> Poly:
    """Parse a two-variable polynomial (negative powers of the first
    variable allowed) into a Poly in x, y; same term grammar as the series
    parser, repeated monomials accumulate."""
    check_text(text, "poly")
    terms: dict[tuple[int, int], Fraction] = {}
    for coeff, powers, pos in parse_terms(text, (xname, yname)):
        a, da = powers.get(xname, (0, 1))
        b, db = powers.get(yname, (0, 1))
        if da != 1 or db != 1:
            raise SeriesParseError("integer exponents expected", pos)
        if b < 0:
            raise SeriesParseError(f"negative {yname}-exponent", pos)
        terms[(a, b)] = terms.get((a, b), 0) + Fraction(*coeff)
    return Poly(XY, terms)


class GenericDPS:
    """phi + xi*x^r_delta: a degree-wise series with one generic tail term.

    phi must be degree-wise and r_delta strictly below every exponent of phi.
    """

    __slots__ = ("phi", "_r_num", "_r_den", "phi_pairs", "xi_pair", "delta_x")

    def __init__(self, phi: PuiseuxPoly, r_delta):
        self._init(phi, *_ratio(r_delta))

    @classmethod
    def _at(cls, phi: PuiseuxPoly, num: int, den: int) -> "GenericDPS":
        """GenericDPS(phi, num/den) for ints num and den > 0."""
        out = object.__new__(cls)
        out._init(phi, num, den)
        return out

    def _init(self, phi: PuiseuxPoly, num: int, den: int) -> None:
        """Set the fields for r_delta = num/den, den > 0, kept in lowest
        terms as _r_num/_r_den."""
        if phi.orientation is not Orientation.DEGREEWISE:
            raise PreconditionError("phi must be a degree-wise series")
        g = gcd(num, den)
        num, den = num // g, den // g
        d = phi._den
        if any(n * den <= num * d for n in phi._num):
            raise PreconditionError(
                f"r_delta = {Fraction(num, den)} must lie strictly below every exponent of phi"
            )
        base = NO_PAIRS if phi.is_zero() else puiseux_pairs(phi)
        # r_delta * polydromy in lowest terms
        g = gcd(num * base.polydromy, den)
        xi_q, xi_p = num * base.polydromy // g, den // g
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "_r_num", num)
        object.__setattr__(self, "_r_den", den)
        object.__setattr__(self, "phi_pairs", base)
        object.__setattr__(self, "xi_pair", (xi_q, xi_p))
        object.__setattr__(self, "delta_x", base.polydromy * xi_p)

    def __setattr__(self, name, value):
        raise AttributeError("GenericDPS is immutable")

    @property
    def r_delta(self) -> Fraction:
        return Fraction(self._r_num, self._r_den)

    @property
    def formal_pairs(self) -> tuple[tuple[int, int], ...]:
        """(q_1,p_1)..(q_l,p_l) of phi followed by the xi pair (q_{l+1}, p_{l+1})."""
        return self.phi_pairs.pairs + (self.xi_pair,)

    @property
    def l(self) -> int:
        return len(self.phi_pairs.pairs)

    def cumulative_p(self) -> tuple[int, ...]:
        """(p_1, p_1p_2, ..., p_1..p_{l+1})."""
        return self.phi_pairs.cumulative_p() + (self.delta_x,)

    def formal_exponents(self) -> tuple[Fraction, ...]:
        """q_k/(p_1..p_k) for every formal pair; the last one is r_delta."""
        return self.phi_pairs.char_exponents() + (self.r_delta,)

    def xiseries(self) -> Poly:
        """phi + xi*x^r_delta keyed (delta_x * x-exponent, xi-degree).

        Its coefficients are phi's numerators and 1 over phi's coefficient
        denominator, which is canonical as it stands."""
        phi, dx = self.phi, self.delta_x
        # delta_x * n / den and delta_x * r_delta must be integers
        if dx % phi._den or dx % self._r_den:
            raise InvariantViolationError(
                "semidegree exponent is not an integer", delta_x=dx, g=self
            )
        step = dx // phi._den
        num = {_pack((step * n, 0), XI): c for n, c in phi._num.items()}
        num[_pack((dx // self._r_den * self._r_num, 1), XI)] = phi._cden
        return Poly._make(XI, num, phi._cden)

    def truncated(self, k: int) -> "GenericDPS":
        """The k-th truncation: keep the terms of phi strictly above the k-th
        formal exponent and make that exponent the new generic position
        (1 <= k <= l+1; k = l+1 returns an equal copy)."""
        if not 1 <= k <= self.l + 1:
            raise PreconditionError(f"truncation index {k} out of range")
        q, c = self.formal_pairs[k - 1][0], self.cumulative_p()[k - 1]
        return GenericDPS._at(self.phi._above(q, c), q, c)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GenericDPS)
            and self.phi == other.phi
            and self._r_num == other._r_num
            and self._r_den == other._r_den
        )

    def __repr__(self) -> str:
        return f"GenericDPS({self.phi} + xi*x^({self.r_delta}))"


def generic_dps_from_curve(psi: PuiseuxPoly, r: int) -> GenericDPS:
    """Generic series attached to a curve's degree-wise expansion and r >= 0.

    With q/p the last characteristic exponent of psi, the series keeps the
    part of psi strictly above (q - r)/p and places the generic term there.
    For r = 0 this replaces the last characteristic term by the generic one;
    for r >= 1 the whole of psi survives and the extra formal pair has p = 1.
    """
    if psi.orientation is not Orientation.DEGREEWISE:
        raise PreconditionError("expected a degree-wise series")
    check_r(r)
    data = puiseux_pairs(psi)
    if not data.pairs:
        raise PreconditionError(
            "the series has no fractional exponent; the generic position is undefined"
        )
    # the last characteristic exponent is q/p over the polydromy p
    cut, p = data.pairs[-1][0] - r, data.polydromy
    return GenericDPS._at(psi._above(cut, p), cut, p)


def substitute(f: Poly, g: GenericDPS) -> Poly:
    """f(x, g) keyed (delta_x * x-exponent, xi-degree).  Ring homomorphism
    in f."""
    return f.evaluate((Poly.monomial(XI, (g.delta_x, 0)), g.xiseries()))


def semidegree_eval(f: Poly, g: GenericDPS) -> int:
    """delta_x * deg_x(f(x, g)): the degree of the substituted series."""
    if f.is_zero():
        raise PreconditionError("semidegree of the zero polynomial is undefined")
    s = substitute(f, g)
    if s.is_zero():
        raise InvariantViolationError(
            "substitution of a nonzero polynomial vanished", f=f, g=g
        )
    return s.deg()
