"""Shared hypothesis strategies: small random germs with bounded polydromy.

By default a germ has at most two pairs and the product of its pair
denominators is at most 12, so that an example runs the full key-form engine
in a few milliseconds; the point of the property suites is breadth, not
stress.  The key-form suites ask for up to three pairs and polydromy up to 24
(max_pairs, max_polydromy).  seeded_curve makes the same draws from a seeded
random.Random, for tests that pin a digest over fixed germs.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

from hypothesis import strategies as st

from germcontract import (
    CharacteristicData,
    Orientation,
    Poly,
    PuiseuxPoly,
    generic_dps_from_curve,
    local_to_degreewise,
)

# small nonzero rationals used for every random coefficient
COEFFS = tuple(
    Fraction(n, d) for n in (-3, -2, -1, 1, 2, 3) for d in (1, 2, 3)
)


def _hypothesis_draws(draw):
    """The two draws the germ builders make, taken from hypothesis."""
    return (
        lambda seq: draw(st.sampled_from(seq)),
        lambda lo, hi: draw(st.integers(lo, hi)),
    )


def _pair_data(pick, between, max_pairs, tangent, max_polydromy) -> CharacteristicData:
    """The pairs of local_pair_data, drawn with pick(sequence) and
    between(lo, hi) (both ends included)."""
    p1 = pick((2, 3, 4, 5, 6, 7))
    if tangent is True:
        qs = [q for q in range(1, p1) if gcd(q, p1) == 1]
    elif tangent is False:
        qs = [q for q in range(p1 + 1, 3 * p1) if gcd(q, p1) == 1]
    else:
        qs = [q for q in range(1, 3 * p1) if gcd(q, p1) == 1 and q != p1]
    pairs = [(pick(qs), p1)]
    for _ in range(between(0, max_pairs - 1)):
        cum = 1
        for _, p in pairs:
            cum *= p
        p_choices = [p for p in (2, 3) if cum * p <= max_polydromy]
        if not p_choices:
            break
        p_k = pick(p_choices)
        lo = pairs[-1][0] * p_k  # exponents must keep increasing
        q_choices = [
            q for q in range(lo + 1, lo + 2 * p_k * cum + 1) if gcd(q, p_k) == 1
        ]
        pairs.append((pick(q_choices), p_k))
    return CharacteristicData.from_pairs(pairs)


def _curve(pick, between, data: CharacteristicData, extra_terms: int) -> PuiseuxPoly:
    """The series of local_curves on the given pairs, drawn as in _pair_data."""
    terms = {e: pick(COEFFS) for e in data.char_exponents()}
    for _ in range(between(0, extra_terms)):
        e = Fraction(between(1, 4))
        if e not in terms:
            terms[e] = pick(COEFFS)
    return PuiseuxPoly(Orientation.LOCAL, terms)


@st.composite
def local_pair_data(
    draw, max_pairs: int = 2, tangent: bool | None = None, max_polydromy: int = 12
):
    """Characteristic pairs valid on the local side: q_k >= 1, coprime,
    strictly increasing exponents q_k/(p_1..p_k), at most max_pairs of them
    with p_1..p_k <= max_polydromy.

    tangent=True forces q_1 < p_1 (germ order < 1), tangent=False forces
    q_1 > p_1, None leaves both in play.
    """
    return _pair_data(*_hypothesis_draws(draw), max_pairs, tangent, max_polydromy)


@st.composite
def local_curves(
    draw,
    data: CharacteristicData | None = None,
    tangent: bool | None = None,
    extra_terms: int = 2,
    max_pairs: int = 2,
    max_polydromy: int = 12,
):
    """A local series realizing the given pairs, or pairs freshly drawn with
    local_pair_data(max_pairs, tangent, max_polydromy).

    Nonzero coefficients go on every characteristic exponent; up to
    extra_terms additional integer-exponent terms are sprinkled in, which
    never disturb the pairs (integers sit in every lattice).
    """
    if data is None:
        data = draw(local_pair_data(max_pairs, tangent, max_polydromy))
    return _curve(*_hypothesis_draws(draw), data, extra_terms)


def seeded_curve(seed: int, max_pairs: int = 3, max_polydromy: int = 24) -> PuiseuxPoly:
    """The local_curves draw made by random.Random(seed) in place of
    hypothesis: the same germ on every run and every platform."""
    rng = random.Random(seed)
    data = _pair_data(rng.choice, rng.randint, max_pairs, None, max_polydromy)
    return _curve(rng.choice, rng.randint, data, 2)


@st.composite
def generic_series(draw, tangent: bool | None = None, max_r: int = 10):
    """A GenericDPS obtained by attaching a generic term to a random curve."""
    curve = draw(local_curves(tangent=tangent))
    r = draw(st.integers(0, max_r))
    return generic_dps_from_curve(local_to_degreewise(curve), r)


@st.composite
def laurent_polys(draw, max_terms: int = 4):
    """Small nonzero element of Q[x, x^-1, y]."""
    n = draw(st.integers(1, max_terms))
    terms = {}
    for _ in range(n):
        a = draw(st.integers(-3, 4))
        b = draw(st.integers(0, 3))
        terms[(a, b)] = draw(st.sampled_from(COEFFS))
    return Poly(("x", "y"), terms)
