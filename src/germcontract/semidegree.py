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
from .poly import Poly
from .puiseux import (
    CharacteristicData,
    Orientation,
    PuiseuxPoly,
    check_r,
    cumulative_products,
    parse_terms,
    puiseux_pairs,
)


XY = ("x", "y")  # variables of key forms and witness curves
XI = ("x", "xi")  # variables of a substituted generic series


def parse_poly(text: str, xname: str = "x", yname: str = "y") -> Poly:
    """Parse a two-variable polynomial (negative powers of the first
    variable allowed) into a Poly in x, y; same term grammar as the series
    parser, repeated monomials accumulate."""
    terms: dict[tuple[int, int], Fraction] = {}
    for coeff, powers, pos in parse_terms(text, (xname, yname)):
        a = powers.get(xname, Fraction(0))
        b = powers.get(yname, Fraction(0))
        if a.denominator != 1 or b.denominator != 1:
            raise SeriesParseError("integer exponents expected", pos)
        if b < 0:
            raise SeriesParseError(f"negative {yname}-exponent", pos)
        key = (int(a), int(b))
        terms[key] = terms.get(key, Fraction(0)) + coeff
    return Poly(XY, terms)


class GenericDPS:
    """phi + xi*x^r_delta: a degree-wise series with one generic tail term.

    phi must be degree-wise and r_delta strictly below every exponent of phi.
    """

    __slots__ = ("phi", "r_delta", "phi_pairs", "xi_pair", "delta_x")

    def __init__(self, phi: PuiseuxPoly, r_delta):
        if phi.orientation is not Orientation.DEGREEWISE:
            raise PreconditionError("phi must be a degree-wise series")
        r_delta = Fraction(r_delta)
        if any(e <= r_delta for e in phi.terms):
            raise PreconditionError(
                f"r_delta = {r_delta} must lie strictly below every exponent of phi"
            )
        if phi.is_zero():
            base = CharacteristicData((), 1)
        else:
            base = puiseux_pairs(phi)
        scaled = r_delta * base.polydromy
        xi_p = scaled.denominator
        xi_q = int(scaled * xi_p)
        if gcd(xi_q, xi_p) != 1 and xi_q != 0:
            raise InvariantViolationError(
                "generic pair is not coprime", r_delta=r_delta, pair=(xi_q, xi_p)
            )
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "r_delta", r_delta)
        object.__setattr__(self, "phi_pairs", base)
        object.__setattr__(self, "xi_pair", (xi_q, xi_p))
        object.__setattr__(self, "delta_x", base.polydromy * xi_p)

    def __setattr__(self, name, value):
        raise AttributeError("GenericDPS is immutable")

    @property
    def formal_pairs(self) -> tuple[tuple[int, int], ...]:
        """(q_1,p_1)..(q_l,p_l) of phi followed by the xi pair (q_{l+1}, p_{l+1})."""
        return self.phi_pairs.pairs + (self.xi_pair,)

    @property
    def l(self) -> int:
        return len(self.phi_pairs.pairs)

    def cumulative_p(self) -> tuple[int, ...]:
        """(p_1, p_1p_2, ..., p_1..p_{l+1})."""
        return cumulative_products(self.formal_pairs)

    def formal_exponents(self) -> tuple[Fraction, ...]:
        """q_k/(p_1..p_k) for every formal pair; the last one is r_delta."""
        return tuple(
            Fraction(q, cp) for (q, _), cp in zip(self.formal_pairs, self.cumulative_p())
        )

    def xiseries(self) -> Poly:
        """phi + xi*x^r_delta keyed (delta_x * x-exponent, xi-degree)."""
        out = {(self.delta_x * e, 0): c for e, c in self.phi.terms.items()}
        out[(self.delta_x * self.r_delta, 1)] = Fraction(1)
        if any(a.denominator != 1 for a, _ in out):
            raise InvariantViolationError(
                "semidegree exponent is not an integer", delta_x=self.delta_x, g=self
            )
        return Poly(XI, {(int(a), d): c for (a, d), c in out.items()})

    def truncated(self, k: int) -> "GenericDPS":
        """The k-th truncation: keep the terms of phi strictly above the k-th
        formal exponent and make that exponent the new generic position
        (1 <= k <= l+1; k = l+1 returns an equal copy)."""
        if not 1 <= k <= self.l + 1:
            raise PreconditionError(f"truncation index {k} out of range")
        e_k = self.formal_exponents()[k - 1]
        return GenericDPS(self.phi.keep_above(e_k), e_k)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GenericDPS)
            and self.phi == other.phi
            and self.r_delta == other.r_delta
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
    last = data.char_exponents()[-1]
    cut = last - Fraction(r, data.polydromy)
    # the terms above the cut carry every pair for r >= 1, all but the last for r = 0
    kept = CharacteristicData.from_pairs(data.pairs if r else data.pairs[:-1])
    return GenericDPS(psi.keep_above(cut, kept), cut)


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
