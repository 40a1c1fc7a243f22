"""The packed Poly store against poly_oracle, a plain dict of exponent tuples
to Fractions: every operation for one to four variables with negative first
exponents, and the refusal of an exponent that would carry into the field
of the variable before it."""

from fractions import Fraction
from math import inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import poly_oracle
from strategies import COEFFS

from germcontract import Poly, PreconditionError

F = Fraction
XI = ("x", "xi")
PROPS = settings(derandomize=True, max_examples=150, deadline=None)
FLOORS = st.one_of(st.just(-inf), st.integers(-16, 16))
LIMIT = 2**15  # later exponents stay below it


def _names(n: int) -> tuple[str, ...]:
    return ("x",) + tuple(f"y{j}" for j in range(1, n))


@st.composite
def pairs(draw, n=None, max_terms: int = 5, names=None):
    """(Poly, poly_oracle) over the same terms in n variables (1 to 4 when
    n is None, named x, y1, y2, ... unless names are given); first
    exponents -8..8, later ones 0..3."""
    n = draw(st.integers(1, 4)) if n is None else n
    names = names or _names(n)
    later = [st.integers(0, 3)] * (n - 1)
    keys = draw(st.lists(st.tuples(st.integers(-8, 8), *later), max_size=max_terms, unique=True))
    terms = {k: draw(st.sampled_from(COEFFS)) for k in keys}
    return Poly(names, terms), poly_oracle(names, terms)


@st.composite
def two(draw, max_terms: int = 5):
    """Two pairs over the same variables."""
    n = draw(st.integers(1, 4))
    return draw(pairs(n, max_terms)), draw(pairs(n, max_terms))


def _same(got: Poly, want: poly_oracle) -> bool:
    return got.names == want.names and dict(got.terms) == want.terms


@PROPS
@given(fg=two(), floor=FLOORS)
def test_mul_matches_the_oracle(fg, floor):
    (f, of), (g, og) = fg
    assert _same(f.mul(g, floor), of.mul(og, floor))
    assert _same(f * g, of.mul(og))


@PROPS
@given(f=pairs(max_terms=4), n=st.integers(0, 4))
def test_power_matches_the_oracle(f, n):
    f, of = f
    assert _same(f.power(n), of.power(n))
    assert _same(f**n, of.power(n))


@PROPS
@given(fg=two(), q=st.sampled_from(COEFFS), n=st.integers(-3, 3), d=st.integers(1, 4))
def test_sums_and_scalings_match_the_oracle(fg, q, n, d):
    (f, of), (g, og) = fg
    assert _same(f + g, of.add(og))
    assert _same(f - g, of.add(og, -1))
    assert _same(-f, of.scaled(-1))
    assert _same(f.scale(q), of.scaled(q))
    assert _same(f._scaled(n, d), of.scaled(F(n, d)))


@PROPS
@given(f=pairs(max_terms=6))
def test_degrees_and_leading_terms_match_the_oracle(f):
    f, of = f
    for i in range(len(f.names)):
        if not of.terms:
            with pytest.raises(PreconditionError):
                f.deg(i)
            with pytest.raises(PreconditionError):
                f.ord(i)
            continue
        assert (f.deg(i), f.ord(i)) == (of.deg(i), of.ord(i))
        assert _same(f.leading(i), of.leading(i))


@PROPS
@given(
    f=pairs(max_terms=4),
    dx=st.integers(-3, 3),
    e=st.integers(0, 2),
    cm=st.sampled_from(COEFFS),
    ys=st.lists(pairs(2, max_terms=3, names=XI), min_size=3, max_size=3),
)
def test_evaluate_matches_the_oracle(f, dx, e, cm, ys):
    """images[0] = cm * x^dx * xi^e; x^a with a < 0 cannot map to a
    monomial in xi^e for e > 0, and is refused."""
    f, of = f
    x = (Poly.monomial(XI, (dx, e), cm), poly_oracle(XI, {(dx, e): cm}))
    images = [x, *ys][: len(f.names)]
    if e and any(k[0] < 0 for k in of.terms):
        with pytest.raises(PreconditionError):
            f.evaluate([i for i, _ in images])
        return
    assert _same(f.evaluate([i for i, _ in images]), of.evaluate([o for _, o in images]))


def test_evaluate_takes_one_image_per_variable_over_one_set_of_names():
    """Too few images raised a bare KeyError or IndexError, extra ones were
    ignored, an image over other variables was read in the key layout of
    images[0] (y(x, z) came back as y), and an images[0] that is no monomial
    failed to unpack."""
    xy = ("x", "y")
    x, y = Poly.monomial(xy, (1, 0)), Poly.monomial(xy, (0, 1))
    z = Poly.monomial(("x", "y", "z"), (0, 0, 1))
    f = Poly(xy, {(0, 1): 1, (1, 0): 2})
    for g in (f, y):
        for images in ([x], [], [x, x, x], [x, z], [x + y, x], [Poly(xy), x]):
            with pytest.raises(PreconditionError, match="one image per variable"):
                g.evaluate(images)
    assert f.evaluate([x, y]) == f and f.evaluate((x, x)) == x.scale(3)


def test_num_and_terms_are_tuple_keyed_views():
    f = Poly(("x", "y", "z"), {(-3, 2, 1): F(1, 2), (5, 0, 7): 3})
    assert f.num == {(-3, 2, 1): 1, (5, 0, 7): 6} and f.den == 2
    assert f.terms == {(-3, 2, 1): F(1, 2), (5, 0, 7): F(3)}
    assert f.coeff((5, 0, 7)) == 3 and f.coeff((5, 0, 6)) == 0
    assert repr(f) == "3*x^5*z^7 + 1/2*x^(-3)*y^2*z"
    with pytest.raises(TypeError):
        f.num[(5, 0, 7)] = 1


def test_keys_must_be_integer_tuples_over_the_variables():
    for key in ((F(1, 2), 0), (F(2), 0), (0, F(1)), (0, 1.0), (0, -1), (), (0,), (0, 0, 0)):
        with pytest.raises(PreconditionError):
            Poly(XI, {key: 1})
        with pytest.raises(PreconditionError):
            Poly.monomial(XI, key)
    assert Poly(XI, {(-(2**40), LIMIT - 1): 1}).num == {(-(2**40), LIMIT - 1): 1}


def test_a_bool_exponent_is_refused():
    """True is an int subclass: taken as 1 it made x*y^2 of (True, 2)."""
    xy = ("x", "y")
    for key in ((True, 2), (1, True), (False, 0), (0, False)):
        with pytest.raises(PreconditionError):
            Poly.monomial(xy, key)
        with pytest.raises(PreconditionError):
            Poly(xy, {key: 3})
        with pytest.raises(PreconditionError):
            Poly.monomial(xy, (1, 2)).coeff(key)


def test_a_power_is_an_int_at_least_zero():
    """A float, a bool or a negative int is refused; PreconditionError is a
    ValueError.  2.0 equals 2 as a key of the power table, and True
    equals 1."""
    f = Poly(XI, {(1, 0): 1, (0, 1): F(-1, 2)})
    for n in (2.0, 2.5, True, False, F(2), "2", None, -1, -3):
        with pytest.raises(PreconditionError):
            f**n
        with pytest.raises(ValueError):
            f.power(n)
    assert f**0 == Poly(XI, {(0, 0): 1}) and f**1 == f


def test_operands_over_other_variables_are_refused():
    """Packed keys over other names would mix: (x, y) + (x, y, z) read
    x*y^2*z^0 as x^65538, and (x, y) * (x, z) gave x^2*y^4."""
    xy = Poly(("x", "y"), {(1, 2): 1})
    for other in (Poly(("x", "y", "z"), {(1, 2, 0): 1}), Poly(("x", "z"), {(1, 2): 1})):
        ops = (lambda: xy + other, lambda: xy - other, lambda: xy * other, lambda: xy.mul(other))
        for op in ops:
            with pytest.raises(PreconditionError, match="operands over"):
                op()
    assert (xy + xy).num == {(1, 2): 2} and (xy * xy).num == {(2, 4): 1}


def test_a_later_exponent_that_would_carry_is_refused():
    """Each product here has one term: the refusal comes from the exponent
    reaching 2^15, not from the size of the product."""
    names = ("x", "y", "z")
    with pytest.raises(PreconditionError):
        Poly(names, {(0, 0, LIMIT): 1})
    half = Poly(names, {(0, 0, LIMIT // 2): 1})
    below = Poly(names, {(0, 0, LIMIT // 2 - 1): 1})
    # z^(2^15) would set the top bit of z's field, and a product of two
    # such keys would carry into y
    assert (half * below).num == {(0, 0, LIMIT - 1): 1}
    for product in (lambda: half * half, lambda: half.mul(half, 0), lambda: half**2):
        with pytest.raises(PreconditionError):
            product()
    quarter = Poly(XI, {(-1, LIMIT // 4): 1})
    assert (quarter**3).num == {(-3, 3 * LIMIT // 4): 1}
    with pytest.raises(PreconditionError):
        quarter**4
    # y^2 with y -> xi^(2^14)
    image = (Poly.monomial(XI, (1, 0)), Poly(XI, {(0, LIMIT // 2): 1}))
    assert Poly(("x", "y"), {(3, 1): 1}).evaluate(image).num == {(3, LIMIT // 2): 1}
    with pytest.raises(PreconditionError):
        Poly(("x", "y"), {(0, 2): 1}).evaluate(image)
