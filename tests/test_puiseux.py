"""Series parsing/printing, orientation conversion, the pair walk, and the
integer store against a Fraction-dict oracle."""

import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import SeriesParseError as OracleParseError
from oracles import parse_terms_oracle, puiseux_oracle
from strategies import generic_series

from germcontract import (
    CharacteristicData,
    Orientation,
    Poly,
    PreconditionError,
    PuiseuxPoly,
    SeriesParseError,
    degreewise_to_local,
    format_puiseux,
    local_to_degreewise,
    parse_poly,
    parse_puiseux,
    puiseux_pairs,
)
from germcontract import puiseux
from germcontract.puiseux import local_pair_data, parse_terms
from germcontract.semidegree import XI

F = Fraction

SIX_TERM = "x^3 + x^2 + x^(5/3) + x + x^(-13/6) + x^(-7/3)"


def test_parse_local_series():
    phi = parse_puiseux("u^(3/5) + u^2")
    assert phi.orientation is Orientation.LOCAL
    assert dict(phi.terms) == {F(3, 5): 1, F(2): 1}


def test_parse_degreewise_series():
    psi = parse_puiseux(SIX_TERM)
    assert psi.orientation is Orientation.DEGREEWISE
    assert psi.coeff(F(-13, 6)) == 1
    assert psi.deg() == 3


def test_parse_coefficients_and_signs():
    phi = parse_puiseux("-3/2*u^(1/2) + u - 5")
    assert dict(phi.terms) == {F(1, 2): F(-3, 2), F(1): 1, F(0): -5}


def test_parse_constant_needs_orientation():
    with pytest.raises(SeriesParseError):
        parse_puiseux("5")
    phi = parse_puiseux("5", Orientation.LOCAL)
    assert dict(phi.terms) == {F(0): 5}


def test_parse_drops_zero_coefficients():
    phi = parse_puiseux("0*u^2 + u")
    assert dict(phi.terms) == {F(1): 1}


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "u^(1/0)",
        "u + x",
        "u^2 + u^2",
        "2*",
        "u^",
        "2u",
        "u**2",
        "u^2 +",
        "y^2",
        "u^2 ~ u",
        "3/2/5*u",
        "u^²",
        "²*u",
        "u^(1/²)",
    ],
)
def test_parse_errors(bad):
    with pytest.raises(SeriesParseError):
        parse_puiseux(bad)


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="int() reads any length"
)
def test_integer_past_the_digit_limit_is_a_parse_error():
    digits = "1" * (sys.get_int_max_str_digits() + 1)
    with pytest.raises(SeriesParseError, match="too many digits") as err:
        parse_puiseux(f"u^(1/{digits})")
    assert err.value.position == 5


def test_parse_error_carries_position():
    with pytest.raises(SeriesParseError) as err:
        parse_puiseux("u^2 + q")
    assert err.value.position == 7
    assert "position 7" in str(err.value)


def test_orientation_conflict():
    with pytest.raises(SeriesParseError):
        parse_puiseux("u^2", Orientation.DEGREEWISE)


@pytest.mark.parametrize(
    "text",
    ["u^(3/5) + u^2", SIX_TERM, "-u + 1/2", "x^(-1)", "2*u^(7/3) - 3/4*u^4"],
)
def test_parse_format_round_trip(text):
    phi = parse_puiseux(text)
    assert parse_puiseux(format_puiseux(phi)) == phi


def test_format_orders_by_significance():
    assert format_puiseux(parse_puiseux("u^2 + u^(3/5)")) == "u^(3/5) + u^2"
    psi = parse_puiseux("x^(-13/6) + x^3")
    assert format_puiseux(psi) == "x^3 + x^(-13/6)"


def test_format_zero():
    assert format_puiseux(PuiseuxPoly.zero(Orientation.LOCAL)) == "0"


def test_terms_view_is_read_only():
    phi = parse_puiseux("u^2")
    with pytest.raises(TypeError):
        phi.terms[F(3)] = F(1)
    with pytest.raises(AttributeError):
        phi.orientation = Orientation.DEGREEWISE


def test_ord_and_deg_guards():
    phi = parse_puiseux("u^(3/5) + u^2")
    assert phi.ord() == F(3, 5)
    with pytest.raises(PreconditionError):
        phi.deg()
    psi = local_to_degreewise(phi)
    assert psi.deg() == F(2, 5)
    with pytest.raises(PreconditionError):
        psi.ord()
    with pytest.raises(PreconditionError):
        PuiseuxPoly.zero(Orientation.LOCAL).ord()


def test_keep_above_is_strict():
    phi = parse_puiseux("u^(3/5) + u^2")
    assert dict(phi.keep_above(F(3, 5)).terms) == {F(2): 1}
    assert phi.keep_above(F(1, 2)) == phi


def test_keep_above_takes_no_pairs():
    # unchecked pairs would poison the kept walk: these are not the kept series'
    phi = parse_puiseux("u^(3/5) + u^2")
    with pytest.raises(TypeError):
        phi.keep_above(0, pairs=CharacteristicData(((1, 2),), 2))
    assert puiseux_pairs(phi.keep_above(0)).pairs == ((3, 5),)


def test_with_term_requires_fresh_exponent():
    phi = parse_puiseux("u^(3/5)")
    assert dict(phi.with_term(2, 1).terms) == {F(3, 5): 1, F(2): 1}
    with pytest.raises(ValueError):
        phi.with_term(F(3, 5), 1)


def test_duplicate_exponent_rejected_in_constructor():
    with pytest.raises(ValueError):
        PuiseuxPoly(Orientation.LOCAL, [(F(1, 2), F(1)), (F(1, 2), F(2))])


def test_conversion_maps_exponents_through_one_minus_e():
    phi = parse_puiseux("u^(3/5) + u^2")
    psi = local_to_degreewise(phi)
    assert dict(psi.terms) == {F(2, 5): 1, F(-1): 1}
    assert degreewise_to_local(psi) == phi
    with pytest.raises(PreconditionError):
        local_to_degreewise(psi)
    with pytest.raises(PreconditionError):
        degreewise_to_local(phi)


def test_polydromy():
    assert parse_puiseux("u^(3/5) + u^2").polydromy() == 5
    assert parse_puiseux(SIX_TERM).polydromy() == 6
    assert PuiseuxPoly.zero(Orientation.LOCAL).polydromy() == 1


# --- characteristic pairs -------------------------------------------------


def test_pairs_single():
    data = puiseux_pairs(parse_puiseux("u^(3/5) + u^2"))
    assert data.pairs == ((3, 5),)
    assert data.polydromy == 5


def test_pairs_two_levels():
    data = puiseux_pairs(parse_puiseux("u^(3/5) + u^(23/10)"))
    assert data.pairs == ((3, 5), (23, 2))
    assert data.polydromy == 10
    assert data.char_exponents() == (F(3, 5), F(23, 10))
    assert data.cumulative_p() == (5, 10)


def test_pairs_skip_lattice_exponents():
    # the degree-wise six-term series: 3, 2, 1 are integers, and -7/3 already
    # sits in the (1/6)-lattice opened by -13/6, so only two pairs appear
    data = puiseux_pairs(parse_puiseux(SIX_TERM))
    assert data.pairs == ((5, 3), (-13, 2))
    assert data.polydromy == 6
    assert data.char_exponents() == (F(5, 3), F(-13, 6))


def test_pairs_walk_updates_lattice():
    data = puiseux_pairs(parse_puiseux("u^(1/2) + u^(3/4)"))
    assert data.pairs == ((1, 2), (3, 2))


def test_pairs_integer_series_has_none():
    assert puiseux_pairs(parse_puiseux("u + u^2")).pairs == ()


def test_pairs_of_zero_rejected():
    with pytest.raises(PreconditionError):
        puiseux_pairs(PuiseuxPoly.zero(Orientation.LOCAL))


def test_pairs_are_walked_once_per_series():
    curve = parse_puiseux("u^(3/5) + u^(23/10)")
    assert puiseux_pairs(curve) is puiseux_pairs(curve)
    # an equal series built apart walks its own pairs, to the same result
    again = parse_puiseux("u^(3/5) + u^(23/10)")
    assert again == curve and hash(again) == hash(curve)
    assert puiseux_pairs(again) == puiseux_pairs(curve)
    # the zero series is refused on every call, not once
    zero = PuiseuxPoly.zero(Orientation.LOCAL)
    for _ in range(2):
        with pytest.raises(PreconditionError):
            puiseux_pairs(zero)


def test_betas_are_the_scaled_char_exponents():
    grid = [[(q, p)] for p in range(2, 14) for q in range(1, 2 * p) if gcd(q, p) == 1]
    grid += [[(3, 5), (23, 2)], [(1, 2), (3, 2)], [(5, 3), (-13, 2)], [(1, 2), (3, 2), (7, 2)]]
    for pairs in grid:
        data = CharacteristicData.from_pairs(pairs)
        assert data.betas() == tuple(data.polydromy * e for e in data.char_exponents())
        assert all(type(b) is int for b in data.betas())
    assert CharacteristicData.from_pairs([(3, 5), (23, 2)]).betas() == (6, 23)


def test_local_q_rule_is_read_before_coprimality():
    # gcd(0, p) = p, so (0, p) is also not coprime; the local rule names it
    for pairs, q in [([(0, 5)], 0), ([(-3, 5)], -3), ([(0, 1)], 0), ([(3, 5), (0, 2)], 0)]:
        with pytest.raises(PreconditionError, match=rf"^local pair with q = {q}: q must be >= 1$"):
            local_pair_data(pairs)
    with pytest.raises(PreconditionError, match=r"^pair \(2,4\) is not coprime$"):
        local_pair_data([(2, 4)])
    with pytest.raises(PreconditionError, match="entries must be integers"):
        local_pair_data([(0.5, 5)])


def test_characteristic_data_validation():
    for pairs, message in [
        ([(2, 4)], r"pair \(2,4\) is not coprime"),
        ([(3, 1)], r"pair \(3,1\): p must be >= 2"),
        ([(0.5, 5)], r"pair \(0\.5,5\): entries must be integers"),
        ([(True, 2)], r"pair \(True,2\): entries must be integers"),
    ]:
        with pytest.raises(PreconditionError, match=f"^{message}$"):
            CharacteristicData.from_pairs(pairs)
    with pytest.raises(PreconditionError, match=r"^polydromy 6 != product of the p_k = 5$"):
        CharacteristicData(((3, 5),), 6)  # stated polydromy is wrong
    data = CharacteristicData.from_pairs([(3, 5), (23, 2)])
    assert data.polydromy == 10


# --- signed denominators ------------------------------------------------------


@pytest.mark.parametrize(
    "text, position",
    [("u^(1/-2)", 5), ("u^(1/ -2)", 6), ("u^(1/+2)", 5), ("2/-3*u", 2), ("u - 1/-2", 6)],
)
def test_signed_denominator_is_refused(text, position):
    with pytest.raises(SeriesParseError, match="sign in a denominator") as err:
        parse_puiseux(text)
    assert err.value.position == position


def test_signed_denominator_is_refused_in_polynomials():
    with pytest.raises(SeriesParseError, match="sign in a denominator") as err:
        parse_poly("y^2 - 2/-3*x")
    assert err.value.position == 8
    with pytest.raises(SeriesParseError, match="sign in a denominator"):
        parse_poly("y^2 - x^(4/-2)")


def test_signed_numerators_still_parse():
    phi = parse_puiseux("-u^(-1/2) - 2/3*u")
    assert dict(phi.terms) == {F(-1, 2): -1, F(1): F(-2, 3)}
    assert dict(parse_puiseux("u^(2/4) + 4/6").terms) == {F(1, 2): 1, F(0): F(2, 3)}


# --- the token parser against the character scanner --------------------------

# characters of the grammar, whitespace, and characters outside ASCII: a
# digit int() cannot read (²), one it can (٣), a letter, a vulgar fraction
# and a no-break space
TEXT_PIECES = (
    "u", "x", "y", "v", "u2", "0", "2", "13", "^", "(", ")", "/", "*", "+", "-",
    " ", "\t", "²", "٣", "é", "½", "\u00a0",
)
TEXT_TERMS = (
    "u", "x", "y^2", "13", "2/4", "u^(3/5)", "x^-2", "2*y ^ ( -1/ 3 )", "0*v", "u*v",
    "٣/5*u^(1/٣)",
)


@st.composite
def series_texts(draw):
    """A run of pieces, or a signed sum of terms with at most one piece put
    in somewhere."""
    piece = st.sampled_from(TEXT_PIECES)
    if draw(st.booleans()):
        return "".join(draw(st.lists(piece, max_size=12)))
    terms = draw(st.lists(st.sampled_from(TEXT_TERMS), min_size=1, max_size=4))
    text = draw(st.sampled_from(["", "-", " - "])) + draw(st.sampled_from(["+", " - "])).join(terms)
    if draw(st.booleans()):
        k = draw(st.integers(0, len(text)))
        text = text[:k] + draw(piece) + text[k:]
    return text


def _outcome(parse, text, variables):
    """The yields of parse, or its error as (type, message, position)."""
    try:
        return list(parse(text, variables))
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(
    text=series_texts(),
    variables=st.sampled_from([("u", "x"), ("x", "y"), ("u", "v")]),
)
def test_parse_terms_matches_the_scanner(text, variables):
    want = _outcome(parse_terms_oracle, text, variables)
    got = _outcome(parse_terms, text, variables)
    if isinstance(want, list):
        assert got == want
        return
    # a rejection, or a bare ValueError where the scanner crashed on '²'
    assert got[0] is SeriesParseError
    if want[0] is OracleParseError and text.isascii():
        assert got[1:] == want[1:]


# terms in one variable, spaced as the grammar allows
SUM_TERMS = (
    "{v}", "13", "2/4", "{v}^(3/5)", "{v}^-2", "7/ 3 * {v} ^ ( -1/ 3 )", "0*{v}", "0",
    "{v}^(4/6)", "{v} ^2", "5*{v}^(0/3)",
)


@st.composite
def series_sums(draw):
    """A signed sum of terms in u or in x, mostly well formed; a repeated
    exponent or a stray piece makes it one the walk refuses."""
    v = draw(st.sampled_from("ux"))
    terms = draw(st.lists(st.sampled_from(SUM_TERMS), min_size=1, max_size=5))
    signs = draw(st.lists(st.sampled_from(["+", " - ", "-", " + "]), min_size=len(terms)))
    text = draw(st.sampled_from(["", "-", " - "])) + terms[0].format(v=v)
    for sign, term in zip(signs, terms[1:]):
        text += sign + term.format(v=v)
    if draw(st.integers(0, 4)) == 0:
        k = draw(st.integers(0, len(text)))
        text = text[:k] + draw(st.sampled_from(TEXT_PIECES)) + text[k:]
    return text


@settings(derandomize=True, max_examples=500, deadline=None)
@given(text=st.one_of(series_texts(), series_sums()))
def test_term_pattern_reads_what_the_token_walk_reads(text):
    """parse_puiseux reads a series one pattern match per term and hands any
    text the matches do not take in full to the token walk: where the
    pattern gives a reading it is the walk's, term order included, and a
    text the walk refuses never gets one."""
    try:
        want = puiseux._walk_series(text)
    except SeriesParseError:
        want = None
    got = puiseux._match_series(text)
    if got is not None:
        assert got == want and list(got[0]) == list(want[0])


@pytest.mark.parametrize(
    "text",
    ["u^(3/5) + u^2", " - 2/4*x^(-6/ 4) - 3 + x ", "u^( -1/3 )+0*u", "7/ 3 * u ^ 2 - u^-1"],
)
def test_term_pattern_takes_well_formed_series(text):
    got = puiseux._match_series(text)
    assert got is not None and got == puiseux._walk_series(text)


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="int() reads any length"
)
def test_digits_past_the_limit_go_to_the_token_walk():
    """A coefficient past int()'s digit limit matches the term pattern but
    is not read by it; the walk reports it at its position."""
    digits = "1" * (sys.get_int_max_str_digits() + 1)
    assert puiseux._match_series(f"u + {digits}*u^2") is None
    with pytest.raises(SeriesParseError, match="too many digits") as err:
        parse_puiseux(f"u + {digits}*u^2")
    assert err.value.position == 4


# --- the integer store against the Fraction-dict oracle ----------------------

STORE = settings(derandomize=True, max_examples=150, deadline=None)


def _orientation(local: bool) -> Orientation:
    return Orientation.LOCAL if local else Orientation.DEGREEWISE


def _spellings(v: Fraction):
    """v as a Fraction, a str, and an int when it is integral."""
    return st.sampled_from([v, str(v)] + ([int(v)] if v.denominator == 1 else []))


RATIONALS = st.builds(F, st.integers(-30, 30), st.sampled_from((1, 2, 3, 4, 6, 12)))
COEFFICIENTS = st.builds(F, st.integers(-9, 9), st.integers(1, 12))


@st.composite
def series_inputs(draw, max_terms: int = 6):
    """(local, [(e, c)]): distinct exponents, some coefficients zero, each
    exponent and coefficient spelled as an int, a Fraction or a str."""
    local = draw(st.booleans())
    exps = draw(st.lists(RATIONALS, unique=True, max_size=max_terms))
    terms = [(draw(_spellings(e)), draw(_spellings(draw(COEFFICIENTS)))) for e in exps]
    return local, terms


def _assert_matches(phi: PuiseuxPoly, oracle: dict, local: bool) -> None:
    """Every view of phi against the oracle, and phi equal to the series
    built afresh from the oracle's Fractions."""
    assert phi.orientation is _orientation(local)
    assert dict(phi.terms) == oracle["terms"]
    assert all(type(e) is F and type(c) is F for e, c in phi.terms.items())
    assert phi.support() == oracle["support"]
    for e, c in oracle["terms"].items():
        assert phi.coeff(e) == c and phi.coeff(str(e)) == c
    assert phi.coeff(F(1, 5)) == 0
    assert phi.polydromy() == oracle["polydromy"]
    assert phi.is_zero() is (not oracle["terms"])
    lead = phi.ord if local else phi.deg
    if oracle["lead"] is None:
        with pytest.raises(PreconditionError):
            lead()
    else:
        assert lead() == oracle["lead"]
    fresh = PuiseuxPoly(_orientation(local), oracle["terms"])
    assert phi == fresh and hash(phi) == hash(fresh)


@STORE
@given(spec=series_inputs())
def test_store_views_match_the_oracle(spec):
    local, terms = spec
    _assert_matches(PuiseuxPoly(_orientation(local), terms), puiseux_oracle(terms, local), local)


@STORE
@given(spec=series_inputs())
def test_equal_series_hash_alike(spec):
    local, terms = spec
    orientation = _orientation(local)
    phi = PuiseuxPoly(orientation, terms)
    want = puiseux_oracle(terms, local)["terms"]
    flip, back = (
        (local_to_degreewise, degreewise_to_local) if local
        else (degreewise_to_local, local_to_degreewise)
    )
    built = [
        PuiseuxPoly(orientation, dict(reversed(list(want.items())))),
        PuiseuxPoly(orientation, [(str(e), str(c)) for e, c in want.items()]),
        parse_puiseux(format_puiseux(phi), orientation),
        phi.keep_above(min(want, default=F(0)) - 1),
        back(flip(phi)),
    ]
    for other in built:
        assert other == phi and hash(other) == hash(phi)
    if want:
        e = min(want)
        assert PuiseuxPoly(orientation, {**want, e: want[e] + F(1, 7)}) != phi
        assert PuiseuxPoly(_orientation(not local), want) != phi


@STORE
@given(spec=series_inputs(), threshold=RATIONALS, data=st.data())
def test_keep_above_matches_the_oracle(spec, threshold, data):
    local, terms = spec
    phi = PuiseuxPoly(_orientation(local), terms)
    kept = phi.keep_above(data.draw(_spellings(threshold)))
    above = [(e, c) for e, c in puiseux_oracle(terms, local)["terms"].items() if e > threshold]
    _assert_matches(kept, puiseux_oracle(above, local), local)


@STORE
@given(spec=series_inputs(), e=RATIONALS, c=COEFFICIENTS, data=st.data())
def test_with_term_matches_the_oracle(spec, e, c, data):
    local, terms = spec
    phi = PuiseuxPoly(_orientation(local), terms)
    have = puiseux_oracle(terms, local)["terms"]
    e_in, c_in = data.draw(_spellings(e)), data.draw(_spellings(c))
    if e in have:
        with pytest.raises(ValueError):
            phi.with_term(e_in, c_in)
        return
    _assert_matches(phi.with_term(e_in, c_in), puiseux_oracle([*have.items(), (e, c)], local), local)


@STORE
@given(spec=series_inputs())
def test_conversions_and_text_round_trip(spec):
    local, terms = spec
    phi = PuiseuxPoly(_orientation(local), terms)
    assert parse_puiseux(format_puiseux(phi), phi.orientation) == phi
    if not local:
        phi = degreewise_to_local(phi)
    psi = local_to_degreewise(phi)
    flipped = [(1 - e, c) for e, c in phi.terms.items()]
    _assert_matches(psi, puiseux_oracle(flipped, False), False)
    assert degreewise_to_local(psi) == phi


@STORE
@given(g=generic_series())
def test_xiseries_matches_the_fraction_build(g):
    dx = g.delta_x
    want = {(dx * e, 0): c for e, c in g.phi.terms.items()}
    want[(dx * g.r_delta, 1)] = F(1)
    assert all(a.denominator == 1 for a, _ in want)
    assert g.xiseries() == Poly(XI, {(int(a), d): c for (a, d), c in want.items()})
