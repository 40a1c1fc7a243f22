"""Generic series, substitution, and the induced semidegree."""

import random
from fractions import Fraction

import pytest

from germcontract import (
    GenericDPS,
    Orientation,
    Poly,
    PreconditionError,
    PuiseuxPoly,
    SeriesParseError,
    generic_dps_from_curve,
    local_to_degreewise,
    parse_poly,
    parse_puiseux,
    puiseux_pairs,
    semidegree_eval,
    substitute,
)

F = Fraction
XY = ("x", "y")
XI = ("x", "xi")

SIX_TERM = "x^3 + x^2 + x^(5/3) + x + x^(-13/6) + x^(-7/3)"


def six_term_series():
    return parse_puiseux(SIX_TERM)


# --- xi-series: polynomials keyed (x-exponent, xi-degree) ------------------


def test_xipoly_arithmetic():
    one_plus_xi = Poly(XI, {(0, 0): 1, (0, 1): 1})
    sq = one_plus_xi * one_plus_xi
    assert sq == Poly(XI, {(0, 0): F(1), (0, 1): F(2), (0, 2): F(1)})
    assert sq.deg(1) == 2
    assert (sq - sq).is_zero()
    assert Poly(XI, {(0, 0): F(5, 2)}).coeff((0, 0)) == F(5, 2)


def test_xipoly_drops_leading_zeros():
    p = Poly(XI, {(0, 0): 1, (0, 1): 2}) - Poly(XI, {(0, 1): 2})
    assert p == Poly(XI, {(0, 0): F(1)})
    assert p.deg(1) == 0


def test_xiseries_degree_and_lead():
    # semidegree keys are integers (delta_x times the x-exponent)
    s = Poly(XI, {(5, 0): 3, (-20, 1): 1})
    assert s.deg() == 5
    assert s.leading() == Poly(XI, {(5, 0): 3})
    assert (s - s).is_zero()
    with pytest.raises(PreconditionError):
        Poly(XI).deg()
    with pytest.raises(PreconditionError, match="not one integer per variable"):
        Poly(XI, {(F(1, 2), 0): 3})


def test_xiseries_pow_matches_repeated_product():
    s = Poly(XI, {(2, 0): 1, (-6, 1): 1})
    assert s**3 == s * s * s
    assert s**0 == Poly(XI, {(0, 0): 1})
    with pytest.raises(ValueError):
        s ** (-1)
    # xi^(2^13) to the 4th would reach 2^15, where its field may carry
    with pytest.raises(PreconditionError, match="2\\^15 or more"):
        Poly(XI, {(0, 2**13): 1}) ** 4


# --- Laurent polynomials --------------------------------------------------


def test_laurent_basic_queries():
    y = Poly.monomial(XY, (0, 1))
    f = parse_poly("y^5 - x^2")
    assert f.deg(1) == 5
    assert f.leading(1) == y**5
    assert f.ord() == 0
    g = parse_poly("y^5 - 5*x^(-1)*y^4 - x^2")
    assert g.ord() == -1
    assert parse_poly("2*y^3 - x").leading(1) != y**3
    assert parse_poly("x*y^3 + y^3 - x").leading(1) != y**3
    # the zero polynomial has no degree and no order in any variable
    with pytest.raises(PreconditionError):
        Poly(XY).ord()
    with pytest.raises(PreconditionError):
        Poly(XY).deg(1)


def test_laurent_arithmetic_and_pow():
    x, y = Poly.monomial(XY, (1, 0)), Poly.monomial(XY, (0, 1))
    f = (y - x * x) ** 5 - x**3
    assert f.coeff((2, 4)) == -5
    assert f.coeff((10, 0)) == -1
    assert f.coeff((3, 0)) == -1
    assert f.deg(1) == 5
    assert (f - f).is_zero()
    with pytest.raises(ValueError):
        y ** (-2)


def test_laurent_rejects_negative_y():
    with pytest.raises(ValueError):
        Poly(XY, {(0, -1): F(1)})


def test_laurent_format_round_trip():
    for text in ("y^5 - x^2", "y^5 - 5*x^(-1)*y^4 - x^2", "x", "3/2*x*y - 1"):
        f = parse_poly(text)
        assert f.format() == text
        assert parse_poly(f.format()) == f
    assert Poly(XY).format() == "0"


def test_parse_poly_accumulates_repeats():
    assert parse_poly("x + x") == parse_poly("2*x")
    assert parse_poly("x - x").is_zero()


def test_parse_poly_other_variable_names():
    f = parse_poly("v^5 - u^3", xname="u", yname="v")
    assert f == parse_poly("y^5 - x^3")


def test_parse_poly_errors():
    with pytest.raises(SeriesParseError):
        parse_poly("y^(1/2)")
    with pytest.raises(SeriesParseError):
        parse_poly("y^(-1)")
    with pytest.raises(SeriesParseError):
        parse_poly("x + z")


# --- generic series -------------------------------------------------------


def test_generic_dps_of_the_six_term_series():
    g = GenericDPS(six_term_series().keep_above(F(-8, 3)), F(-8, 3))
    assert g.formal_pairs == ((5, 3), (-13, 2), (-16, 1))
    assert g.delta_x == 6
    assert g.cumulative_p() == (3, 6, 6)
    assert g.formal_exponents() == (F(5, 3), F(-13, 6), F(-8, 3))
    assert g.l == 2


def test_generic_dps_from_curve_cuts_r_steps_below():
    psi = six_term_series()
    g3 = generic_dps_from_curve(psi, 3)
    # r = 3 lands the generic position at -13/6 - 3/6 = -8/3
    assert g3 == GenericDPS(psi.keep_above(F(-8, 3)), F(-8, 3))
    g0 = generic_dps_from_curve(psi, 0)
    assert g0.r_delta == F(-13, 6)
    assert g0.formal_pairs == ((5, 3), (-13, 2))
    assert F(-13, 6) not in g0.phi.terms


def test_generic_dps_keeps_lattice_terms_out_of_the_pairs():
    # -7/3 lies in the lattice of -13/6, so it contributes no formal pair
    # but stays a term of phi when the cut is below it
    g = generic_dps_from_curve(six_term_series(), 3)
    assert g.phi.coeff(F(-7, 3)) == 1


def _seeded_local_series(count: int, seed: int):
    """Local series of 1-5 terms with exponents a/b, b <= 12: characteristic
    terms, terms in the lattice of the ones before them and integer terms
    all occur."""
    rng = random.Random(seed)
    for _ in range(count):
        terms = {}
        for _ in range(rng.randint(1, 5)):
            b = rng.randint(1, 12)
            terms[F(rng.randint(1, 3 * b), b)] = F(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3))
        yield PuiseuxPoly(Orientation.LOCAL, terms)


def test_walked_pairs_match_the_closed_forms():
    """The walked pairs of a flipped series and of the part that
    generic_dps_from_curve keeps, against their closed forms: e and 1 - e
    share a denominator, so a local pair (q_k, p_k) flips to
    (p_1..p_k - q_k, p_k); the cut keeps every pair for r >= 1 and all but
    the last for r = 0."""
    seen = 0
    for curve in _seeded_local_series(400, 20261018):
        local = puiseux_pairs(curve).pairs
        if not local:
            continue
        flipped, cum = [], 1
        for q, p in local:
            cum *= p
            flipped.append((cum - q, p))
        psi = local_to_degreewise(curve)
        pairs = puiseux_pairs(psi).pairs
        assert pairs == tuple(flipped), curve
        for r in (0, 1, 3):
            g = generic_dps_from_curve(psi, r)
            assert g.phi_pairs.pairs == (pairs if r else pairs[:-1]), (curve, r)
            if not g.phi.is_zero():
                assert puiseux_pairs(g.phi) is g.phi_pairs, (curve, r)
        seen += 1
    assert seen > 250


def test_generic_dps_preconditions():
    psi = six_term_series()
    with pytest.raises(PreconditionError):
        GenericDPS(parse_puiseux("u^(3/5)"), F(0))  # local orientation
    with pytest.raises(PreconditionError):
        GenericDPS(psi, F(0))  # an exponent of phi sits at/below the cut
    with pytest.raises(PreconditionError):
        generic_dps_from_curve(parse_puiseux("u^(3/5)"), 1)
    with pytest.raises(PreconditionError, match="r = -1 must be a non-negative integer"):
        generic_dps_from_curve(psi, -1)
    with pytest.raises(PreconditionError):
        generic_dps_from_curve(parse_puiseux("x^2 + x"), 0)  # no pairs


def test_generic_dps_is_immutable():
    g = generic_dps_from_curve(six_term_series(), 0)
    with pytest.raises(AttributeError):
        g.r_delta = F(0)


def test_truncation_moves_the_generic_position():
    g = generic_dps_from_curve(six_term_series(), 3)
    t1 = g.truncated(1)
    assert t1.r_delta == F(5, 3)
    assert dict(t1.phi.terms) == {F(3): 1, F(2): 1}
    assert t1.formal_pairs == ((5, 3),)
    assert g.truncated(g.l + 1) == g
    with pytest.raises(PreconditionError):
        g.truncated(0)
    with pytest.raises(PreconditionError):
        g.truncated(g.l + 2)


def test_xiseries_of_generic_dps_has_the_xi_term():
    g = generic_dps_from_curve(parse_puiseux("x^(2/5) + x^(-1)"), 8)
    s = g.xiseries()
    assert s.leading(1) == Poly(XI, {(-6, 1): 1})
    assert s.coeff((-6, 0)) == 0
    assert s.coeff((2, 0)) == 1


# --- substitution and the semidegree --------------------------------------


def test_substitute_is_a_ring_homomorphism():
    g = generic_dps_from_curve(six_term_series(), 3)
    f1 = parse_poly("y^2 - 3*x^(-1)*y + x^4")
    f2 = parse_poly("x*y - 2")
    assert substitute(f1 * f2, g) == substitute(f1, g) * substitute(f2, g)
    assert substitute(f1 + f2, g) == substitute(f1, g) + substitute(f2, g)


def test_semidegree_of_coordinates():
    g = generic_dps_from_curve(six_term_series(), 3)
    assert semidegree_eval(Poly.monomial(XY, (1, 0)), g) == 6
    assert semidegree_eval(Poly.monomial(XY, (0, 1)), g) == 18  # 6 * deg = 6 * 3
    assert semidegree_eval(parse_poly("x^(-1)"), g) == -6


def test_semidegree_drops_on_the_initial_form():
    g = generic_dps_from_curve(six_term_series(), 3)
    # y - x^3 kills the leading term of the substituted series
    assert semidegree_eval(parse_poly("y - x^3"), g) == 12
    assert semidegree_eval(parse_poly("y - x^3 - x^2"), g) == 10


def test_substituted_series_is_keyed_by_integer_semidegrees():
    for r in (0, 1, 3):
        g = generic_dps_from_curve(six_term_series(), r)
        for text in ("x", "y", "x^(-1)", "y - x^3", "y^2 - 3*x^(-1)*y + x^4", "x*y - 2"):
            f = parse_poly(text)
            s = substitute(f, g)
            assert all(type(e) is int for key in s.terms for e in key), (text, r)
            assert semidegree_eval(f, g) == s.deg()


def test_semidegree_of_zero_is_undefined():
    g = generic_dps_from_curve(six_term_series(), 0)
    with pytest.raises(PreconditionError):
        semidegree_eval(Poly(XY), g)
