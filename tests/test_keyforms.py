"""The key-form engine: worked chains, lifts, pole orders, decompositions,
and the windowed products it raises its powers with."""

import gc
import hashlib
from fractions import Fraction
from math import gcd, inf, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import decompose_bruteforce, evaluate_oracle, poly_oracle, product_oracle
from strategies import COEFFS, seeded_curve

from germcontract import keyforms, poly
from germcontract import (
    GenericDPS,
    InvariantViolationError,
    Poly,
    PreconditionError,
    PuiseuxPoly,
    Orientation,
    all_key_forms,
    essential_key_forms,
    generic_dps_from_curve,
    is_algebraic,
    is_polynomial,
    local_to_degreewise,
    omega_decompose,
    parse_poly,
    parse_puiseux,
    puiseux_pairs,
    semidegree_eval,
    substitute,
    virtual_poles,
)

F = Fraction
XY = ("x", "y")
X = Poly.monomial(XY, (1, 0))
Y = Poly.monomial(XY, (0, 1))

SIX_TERM = "x^3 + x^2 + x^(5/3) + x + x^(-13/6) + x^(-7/3)"


@pytest.fixture(scope="module")
def worked():
    """The flagship three-level series with the generic position at -8/3."""
    g = generic_dps_from_curve(parse_puiseux(SIX_TERM), 3)
    return g, essential_key_forms(g)


def test_worked_chain_shape(worked):
    g, keys = worked
    assert g.formal_pairs == ((5, 3), (-13, 2), (-16, 1))
    assert len(keys.forms) == 4  # l + 2 with l = 2
    assert keys.l == 2
    assert keys.alphas == (3, 2, 1)
    assert keys.omegas == (6, 10, 7, 11)


def test_worked_first_form(worked):
    _, keys = worked
    assert keys.forms[0] == X
    assert keys.forms[1] == parse_poly("y - x^3 - x^2")


def test_worked_second_lift(worked):
    _, keys = worked
    expected = Poly(
        ("x", "y1"),
        {
            (0, 3): F(1),
            (1, 2): F(-3),
            (2, 1): F(3),
            (5, 0): F(-1),
            (3, 0): F(-1),
        },
    )
    assert keys.lifts[1] == expected
    assert keys.lifts[1].format() == "y1^3 - 3*x*y1^2 + 3*x^2*y1 - x^5 - x^3"


def test_worked_third_lift(worked):
    _, keys = worked
    expected = Poly(
        ("x", "y1", "y2"),
        {
            (0, 0, 2): F(1),
            (1, 0, 1): F(-6),
            (-1, 2, 0): F(-9),
            (2, 0, 0): F(9),
        },
    )
    assert keys.lifts[2] == expected
    assert keys.lifts[2].format() == "y2^2 - 6*x*y2 - 9*x^(-1)*y1^2 + 9*x^2"


def test_worked_forms_are_the_projected_lifts(worked):
    _, keys = worked
    # F_1 is written in the plain coordinate y; later lifts in the forms so far
    assert keys.forms[1] == keys.lifts[0].evaluate((X, Y))
    for k in (2, 3):
        assert keys.forms[k] == keys.lifts[k - 1].evaluate(keys.forms[:k])


def test_worked_poles_match_semidegrees(worked):
    g, keys = worked
    for f, w in zip(keys.forms, keys.omegas):
        assert semidegree_eval(f, g) == w


def test_worked_constant_term_is_forced(worked):
    """Changing the x^2 coefficient of the last lift from 9 to 18 breaks both
    defining properties of the chain: the pole order and the stopping rule."""
    g, keys = worked
    good = keys.forms[3]
    lift = keys.lifts[2]
    bad = (lift - Poly(lift.names, {(2, 0, 0): F(-9)})).evaluate(keys.forms[:3])
    assert bad == good + parse_poly("9*x^2")
    assert semidegree_eval(good, g) == 11
    assert semidegree_eval(bad, g) == 12
    # the substituted series must stop on a xi-carrying exponent; the +18x^2
    # variant instead leaves a constant-coefficient term on top
    s_good, s_bad = substitute(good, g), substitute(bad, g)
    assert s_good.deg() == 11
    assert s_good.leading().deg(1) >= 1
    assert s_bad.deg() == 12
    assert s_bad.leading().deg(1) == 0


def test_worked_full_chain_starts_with_the_head_truncations(worked):
    _, keys = worked
    chain = list(keys.chain())
    assert chain[:4] == [
        (X, 6), (Y, 18), (parse_poly("y - x^3"), 12), (parse_poly("y - x^3 - x^2"), 10)
    ]
    assert chain[-1] == (keys.forms[-1], keys.omegas[-1])


def test_worked_monic_with_expected_y_degrees(worked):
    _, keys = worked
    degrees = [f.deg(1) for f in keys.forms]
    assert degrees == [0, 1, 3, 6]  # 1, p_1, p_1 p_2
    for f in keys.forms[1:]:
        assert f.leading(1) == Y ** f.deg(1)


def test_gcd_ladder_of_pole_orders(worked):
    g, keys = worked
    ps = [p for _, p in g.formal_pairs]
    for k in range(len(keys.omegas)):
        assert gcd(*keys.omegas[: k + 1]) == prod(ps[k:])


def test_pole_recursion(worked):
    g, keys = worked
    pairs = g.formal_pairs
    w = keys.omegas
    for k in range(1, len(pairs)):
        q_next, p_next = pairs[k]
        q_k, p_k = pairs[k - 1]
        tail = prod(p for _, p in pairs[k + 1 :])
        assert w[k + 1] == p_k * w[k] + (q_next - q_k * p_next) * tail


def test_single_generic_term_gives_the_two_trivial_forms():
    g = GenericDPS(PuiseuxPoly.zero(Orientation.DEGREEWISE), F(2, 5))
    keys = essential_key_forms(g)
    assert keys.forms == (X, Y)
    assert keys.omegas == (5, 2)
    assert keys.lifts == (Poly(("x", "y1"), {(0, 1): F(1)}),)
    assert all_key_forms(g) == keys.forms


# --- the r-tables for the two cusp curves ---------------------------------

Y5X2 = parse_poly("y^5 - x^2")
Y5X2TAIL = parse_poly("y^5 - 5*x^(-1)*y^4 - x^2")


def chain_for(curve: str, r: int):
    g = generic_dps_from_curve(local_to_degreewise(parse_puiseux(curve)), r)
    return all_key_forms(g)


@pytest.mark.parametrize("r,expected", [(0, (X, Y))] + [(r, (X, Y, Y5X2)) for r in range(1, 11)])
def test_chain_table_plain_cusp(r, expected):
    assert chain_for("u^(3/5)", r) == expected


@pytest.mark.parametrize(
    "r,expected",
    [(0, (X, Y))]
    + [(r, (X, Y, Y5X2)) for r in range(1, 8)]
    + [(r, (X, Y, Y5X2, Y5X2TAIL)) for r in (8, 9)],
)
def test_chain_table_perturbed_cusp(r, expected):
    assert chain_for("u^(3/5) + u^2", r) == expected


def test_perturbed_cusp_essential_forms_skip_the_absorbed_step():
    """At r = 8 the intermediate y^5 - x^2 has a trivial jump (gcd(5,2) = 1),
    so the essential subsequence keeps only x, y and the final form."""
    g = generic_dps_from_curve(local_to_degreewise(parse_puiseux("u^(3/5) + u^2")), 8)
    keys = essential_key_forms(g)
    assert keys.forms == (X, Y, Y5X2TAIL)
    assert list(keys.chain()) == [(X, 5), (Y, 2), (Y5X2, 3), (Y5X2TAIL, 2)]
    assert keys.omegas == (5, 2, 2)
    assert keys.alphas == (5, 1)


# --- polynomiality and weight decomposition -------------------------------


def test_is_polynomial():
    assert is_polynomial(Y5X2)
    assert not is_polynomial(Y5X2TAIL)
    assert is_polynomial(X)
    assert is_polynomial(Poly(XY))


@pytest.mark.parametrize(
    "n,k,expected",
    [
        (13, 1, (1, (2,))),
        (11, 1, (2, (1,))),
        (14, 2, (-1, (2, 0))),
        (11, 3, (-1, (1, 1, 0))),
    ],
)
def test_omega_decompose_worked_values(worked, n, k, expected):
    _, keys = worked
    a, betas = omega_decompose(n, k, keys)
    assert (a, betas) == expected
    scale = prod(p for _, p in keys.source.formal_pairs[k:])
    assert a * keys.omegas[0] + sum(
        b * w for b, w in zip(betas, keys.omegas[1:])
    ) == n * scale


def test_omega_decompose_agrees_with_brute_force(worked):
    _, keys = worked
    ps = [p for _, p in keys.source.formal_pairs]
    for k in (1, 2, 3):
        for n in range(-5, 20):
            scale = prod(ps[k:])
            sols = decompose_bruteforce(n * scale, list(keys.omegas[: k + 1]), ps[:k])
            assert sols == [omega_decompose(n, k, keys)]


def _seeded_engines(seeds=range(0, 100, 4), rs=(0, 1, 3, 8, 21)):
    """(generic series, key forms) of seeded germs of the engine pin below."""
    for seed in seeds:
        curve = local_to_degreewise(seeded_curve(seed))
        for r in rs:
            g = generic_dps_from_curve(curve, r)
            yield g, essential_key_forms(g)


def test_closed_form_decomposition_agrees_with_brute_force_off_the_lattice_too():
    """Every target in a band around each level's poles: where brute force
    finds the one bounded writing the plan gives it, and where it finds none
    (the target is off the lattice of the poles) the plan refuses it."""
    for g, keys in _seeded_engines():
        ps = [p for _, p in g.formal_pairs]
        for k in range(len(keys.omegas)):
            omegas = keys.omegas[: k + 1]
            plan = keyforms._weight_plan(omegas, ps[:k])
            for t in range(-2 * omegas[0], 3 * omegas[0] + 1):
                sols = decompose_bruteforce(t, list(omegas), ps[:k])
                if sols:
                    assert sols == [keyforms._decompose(t, plan)]
                else:
                    with pytest.raises(InvariantViolationError):
                        keyforms._decompose(t, plan)


def test_weight_plan_checks_the_gcd_structure():
    """Over the poles (6, 10) with p_1 = 2, g_1 = 6 is not p_1 * h_1 =
    2 * gcd(6, 10), so the bounded writings are not unique for every target;
    the plan refuses the poles before any target is read."""
    with pytest.raises(InvariantViolationError, match="weight decomposition not unique"):
        keyforms._weight_plan((6, 10, 7), (2, 2))
    with pytest.raises(InvariantViolationError, match="one bound p_j per pole"):
        keyforms._weight_plan((6, 10, 7), (3,))
    assert keyforms._decompose(13 * 2, keyforms._weight_plan((6, 10), (3,))) == (1, (2,))


def test_omega_decompose_range_check(worked):
    _, keys = worked
    with pytest.raises(PreconditionError):
        omega_decompose(1, 4, keys)
    with pytest.raises(PreconditionError):
        omega_decompose(1, -1, keys)
    # ints only: 3.5 failed as a non-unique decomposition, k = True read as 1
    for n, k in [(3.5, 1), (1, True), (True, 1), (6, 1.0), (F(6), 1), ("6", 1)]:
        with pytest.raises(PreconditionError, match="must be ints"):
            omega_decompose(n, k, keys)


@pytest.mark.parametrize("series", ["u^(3/5)", "u^(3/5) + u^(23/10)"])
def test_one_plan_checks_the_whole_gcd_ladder(monkeypatch, series):
    """At r = 0 the last formal pair has p_{l+1} > 1.  A last pole scaled by
    it leaves gcd(omega_0..omega_{l+1}) = p_{l+1}, which no level's plan
    reads; the plan over all the poles refuses it."""
    g = _germ(series, 0)
    p_last = g.formal_pairs[-1][1]
    assert p_last > 1
    run = keyforms._absorb

    def tampered(g, subs, width):
        omegas, steps = run(g, subs, width)
        return omegas[:-1] + [omegas[-1] * p_last], steps

    monkeypatch.setattr(keyforms, "_absorb", tampered)
    with pytest.raises(InvariantViolationError, match="weight decomposition not unique"):
        essential_key_forms(g)


# --- lifted polynomials ---------------------------------------------------


def test_lifted_poly_validation():
    with pytest.raises(ValueError):
        Poly(("x", "y1"), {(0,): F(1)})  # key too short for y1
    with pytest.raises(ValueError):
        Poly(("x", "y1"), {(0, -1): F(1)})  # negative y-exponent
    assert Poly(("x", "y1"), {(0, 1): F(0)}).terms == {}


def test_lifted_poly_projection_multiplies_out():
    lift = Poly(("x", "y1", "y2"), {(1, 1, 1): F(2), (0, 0, 0): F(-1)})
    f1, f2 = parse_poly("y - x"), parse_poly("y^2 + x")
    assert lift.evaluate([X, f1, f2]) == parse_poly("2*x") * f1 * f2 - parse_poly("1")


def test_lifted_poly_weight_bound_on_stored_monomials(worked):
    """Each stored monomial of a lift keeps y_j-exponents below p_j."""
    g, keys = worked
    ps = [p for _, p in g.formal_pairs]
    for lift in keys.lifts:
        for key in lift.terms:
            for j, e in enumerate(key[1:-1], start=1):
                assert e < ps[j - 1]


# --- the windowed engine ----------------------------------------------------

XI = ("x", "xi")
WINDOW = settings(derandomize=True, max_examples=200, deadline=None)


@st.composite
def xi_series(draw, max_terms: int = 12):
    """A nonzero series keyed (semidegree, xi-degree), as substitute returns."""
    keys = draw(
        st.lists(
            st.tuples(st.integers(-20, 20), st.integers(0, 3)),
            min_size=1, max_size=max_terms, unique=True,
        )
    )
    return Poly(XI, {k: draw(st.sampled_from(COEFFS)) for k in keys})


def _above(f: Poly, floor) -> dict:
    return {k: c for k, c in f.terms.items() if k[0] >= floor}


def _schoolbook(a: Poly, b: Poly) -> Poly:
    """a*b term by term, the reference for the cut products."""
    return Poly(a.names, product_oracle(a.terms, b.terms))


def _fraction_valued(f: Poly) -> bool:
    # == cannot tell an int from a Fraction: 3 == Fraction(3)
    return all(type(c) is Fraction for c in f.terms.values())


@st.composite
def floored(draw, max_terms: int = 12):
    """(exact series, stored copy, floor): the copy agrees with the series at
    or above the floor and carries made-up terms below it."""
    exact = draw(xi_series(max_terms))
    floor = draw(st.one_of(st.just(-inf), st.integers(exact.ord() - 2, exact.deg())))
    stored = dict(_above(exact, floor))
    if floor > -inf:
        for _ in range(draw(st.integers(0, 4))):
            key = (draw(st.integers(floor - 12, floor - 1)), draw(st.integers(0, 3)))
            stored[key] = Fraction(draw(st.integers(1, 9)))
    return exact, Poly(XI, stored), floor


@WINDOW
@given(a=xi_series(), b=xi_series(), floor=st.integers(-45, 45))
def test_cut_product_is_the_full_one_above_the_floor(a, b, floor):
    full = _schoolbook(a, b)
    assert a.mul(b, floor).terms == _above(full, floor)
    assert a * b == full


LIFT = ("x", "y1", "y2", "y3")
FLOORS = st.one_of(st.just(-inf), st.integers(-30, 20))


@st.composite
def lift_polys(draw, max_terms: int = 6):
    """A polynomial keyed like a lift, (x, y1, y2, y3), x exponents from -6."""
    keys = draw(
        st.lists(
            st.tuples(st.integers(-6, 4), st.integers(0, 3), st.integers(0, 2), st.integers(0, 2)),
            max_size=max_terms, unique=True,
        )
    )
    return Poly(LIFT, {k: draw(st.sampled_from(COEFFS)) for k in keys})


@WINDOW
@given(f=lift_polys(), g=lift_polys(), floor=FLOORS)
def test_integer_kernel_product_matches_the_oracle(f, g, floor):
    # (f + g)(f - g) = f^2 - g^2: the cross terms cancel inside the product
    for a, b in ((f, g), (f + g, f - g)):
        got = a.mul(b, floor)
        assert got.terms == _above(_schoolbook(a, b), floor)
        assert _fraction_valued(got)
    assert (f + g) * (f - g) == f * f - g * g


@WINDOW
@given(f=lift_polys(max_terms=4), n=st.integers(0, 4))
def test_integer_kernel_power_matches_the_oracle(f, n):
    full = Poly(LIFT, {(0, 0, 0, 0): 1})
    for _ in range(n):
        full = _schoolbook(full, f)
    got = f.power(n)
    assert got == full
    assert _fraction_valued(got)


@WINDOW
@given(
    f=lift_polys(),
    dx=st.integers(1, 6),
    cm=st.sampled_from(COEFFS),
    ys=st.lists(xi_series(max_terms=4), min_size=3, max_size=3),
)
def test_evaluate_matches_the_oracle(f, dx, cm, ys):
    images = [Poly.monomial(XI, (dx, 0), cm), *ys]
    got = f.evaluate(images)
    assert got.terms == evaluate_oracle(f.terms, [i.terms for i in images])
    assert got.names == XI and _fraction_valued(got)


def test_coefficients_are_numerators_over_one_denominator():
    f = Poly(XY, {(0, 1): F(1, 2), (1, 0): F(-2, 3), (2, 0): 0})
    assert (f.num, f.den) == ({(0, 1): 3, (1, 0): -4}, 6)
    assert f.terms == {(0, 1): F(1, 2), (1, 0): F(-2, 3)} and _fraction_valued(f)
    with pytest.raises(TypeError):
        f.terms[(0, 1)] = F(1)  # a view: the numerators are the store
    half = Poly.monomial(XY, (1, 0), F(1, 2))
    assert ((half + half).num, (half + half).den) == ({(1, 0): 1}, 1)
    assert ((half - half).num, (half - half).den) == ({}, 1)


def _canonical(f: Poly) -> bool:
    """den > 0, no zero numerator, nothing common to den and the numerators."""
    ints = [f.den, *f.num.values()]
    return (
        all(type(v) is int for v in ints)
        and f.den > 0
        and all(f.num.values())
        and gcd(*ints) == 1
    )


@WINDOW
@given(
    f=lift_polys(),
    g=lift_polys(),
    q=st.sampled_from(COEFFS),
    n=st.integers(0, 3),
    floor=FLOORS,
    cm=st.sampled_from(COEFFS),
    ys=st.lists(xi_series(max_terms=4), min_size=3, max_size=3),
)
def test_every_operation_keeps_the_canonical_form(f, g, q, n, floor, cm, ys):
    got = [
        f + g, f - g, -f, f.scale(q), f.scale(0),
        f * g, f.mul(g, floor), (f + g).mul(f - g, floor),
        f.power(n),
        f.evaluate([Poly.monomial(XI, (2, 0), cm), *ys]),
    ]
    if not f.is_zero():
        got += [f.leading(i) for i in range(len(LIFT))]
    for h in got:
        assert _canonical(h), (h.num, h.den)


@WINDOW
@given(a=lift_polys(), b=lift_polys(), c=lift_polys(), q=st.sampled_from(COEFFS))
def test_routes_to_one_polynomial_compare_and_hash_equal(a, b, c, q):
    for left, right in (((a + b) * c, a * c + b * c), (a.scale(q).scale(1 / q), a)):
        assert left == right and hash(left) == hash(right)
        assert left.terms == right.terms


@WINDOW
@given(a=xi_series(max_terms=5), n=st.integers(0, 5))
def test_cut_power_is_the_full_one_above_the_floor(a, n):
    full = Poly(XI, {(0, 0): 1})
    for _ in range(n):
        full = _schoolbook(full, a)
    assert a**n == full


@WINDOW
@given(a=floored(), b=floored(), width=st.integers(0, 40))
def test_window_product_is_exact_above_its_floor(a, b, width):
    (ea, sa, fa), (eb, sb, fb) = a, b
    got, floor = keyforms._times(sa, fa, sb, fb, width)
    true = _schoolbook(ea, eb)
    assert floor <= true.deg()
    assert _above(got, floor) == _above(true, floor)
    if fa == fb == -inf and width >= true.deg() - true.ord():
        assert floor == -inf and got == true


@WINDOW
@given(a=floored(max_terms=5), n=st.integers(2, 6), width=st.integers(0, 80))
def test_window_power_is_exact_above_its_floor(a, n, width):
    """S^n for n >= 2 as the engine builds it, the _times product of
    S^(n//2) and S^(n - n//2): for S of degree d and floor f its floor is
    max((n-1)*d + f, n*d - W), or -inf when S is exact and the window cuts
    nothing from S^n, and it is exact at or above that floor."""
    exact, stored, f = a

    def power(m):
        if m == 1:
            return stored, f
        return keyforms._times(*power(m // 2), *power(m - m // 2), width)

    got, floor = power(n)
    true = exact
    for _ in range(n - 1):
        true = _schoolbook(true, exact)
    d = exact.deg()
    closed = max((n - 1) * d + f, n * d - width)
    if f == -inf and closed <= n * exact.ord():
        closed = -inf
    assert floor == closed
    assert floor <= true.deg()
    assert _above(got, floor) == _above(true, floor)
    if floor == -inf:
        assert got == true


def test_an_xi_dependent_top_term_is_an_invariant_violation(worked):
    """xi on the top term of f_1 substituted puts xi into the top term of
    its raised power, which the first step reads."""
    g, keys = worked
    subs = (substitute(keys.forms[0], g), substitute(keys.forms[1], g))
    top = subs[1].deg()
    subs = (subs[0], subs[1] + Poly(XI, {(top, 1): 1}))
    with pytest.raises(InvariantViolationError) as err:
        keyforms._absorb(g, subs, 1 << 12)
    assert str(err.value).startswith("xi-dependent coefficient above the stopping exponent [")
    state = err.value.state
    assert set(state) == {"coefficient", "k", "degree", "stopping"}
    p = g.formal_pairs[0][1]
    assert state["k"] == 1 and state["degree"] == p * top > state["stopping"]
    assert state["coefficient"] == repr(subs[1].leading() ** p)


@WINDOW
@given(
    s=xi_series(), q=xi_series(), c=st.sampled_from(COEFFS), e=st.integers(-20, 20)
)
def test_in_place_subtraction_and_top_read_match_the_oracle(s, q, c, e):
    """The in-place step of the absorption against the Fraction dicts of
    poly_oracle (Poly's + and - run on this kernel themselves): s - c * x^e
    * q, and the top term it reads."""
    num = dict(s._num)
    den = poly._subtract_into(num, s.den, q, c.numerator, c.denominator, poly._x_offset(e, XI))
    shifted = poly_oracle(XI, {(a + e, b): v for (a, b), v in q.terms.items()})
    want = poly_oracle(XI, s.terms).add(shifted.scaled(c), -1)
    assert poly._canonical(XI, num, den).terms == want.terms
    if not want.terms:
        return
    d, xi_free, n = poly._top_term(num, XI)
    assert d == want.deg()
    assert xi_free == (want.leading().deg(1) == 0)
    top = max(k for k in want.terms if k[0] == d)
    assert F(n, den) == want.terms[top]


def _germ(series: str, r: int) -> GenericDPS:
    return generic_dps_from_curve(local_to_degreewise(parse_puiseux(series)), r)


@pytest.fixture
def absorb_runs(monkeypatch):
    """The (subs, width) of every _absorb run the engine makes."""
    runs = []
    run = keyforms._absorb

    def counted(g, subs, width):
        runs.append((subs, width))
        return run(g, subs, width)

    monkeypatch.setattr(keyforms, "_absorb", counted)
    return runs


# Forms and poles recorded from the engine that raised every power in full.
RESTART_ANCHORS = [
    (
        "u^(3/5) + u^(23/10)", 1, 32, (10, 4, 3, 5),
        ("x", "y", "y^5 - x^2", "y^10 - 2*x^2*y^5 - 25*x^(-1)*y^4 + x^4"),
    ),
    (
        "u^(7/11) + u^(15/22)", 40, 64, (22, 8, 87, 134),
        (
            "x", "y", "y^11 - x^4",
            "y^22 - 22*x*y^19 + 187*x^2*y^16 - 770*x^3*y^13 - 2*x^4*y^11"
            " + 1573*x^4*y^10 - 99*x^5*y^8 - 1452*x^5*y^7 - 308*x^6*y^5"
            " + 462*x^6*y^4 - 77*x^7*y^2 - 22*x^7*y + x^8 - x^7",
        ),
    ),
]


@pytest.mark.parametrize("series,r,width,omegas,forms", RESTART_ANCHORS)
def test_anchors_that_widen_the_window(series, r, width, omegas, forms):
    """The rerun path of the engine, driven by hand: both germs overflow a
    first window of width 16, so the absorption run from there is abandoned
    and rerun at double the width until it fits.  The rerun must give the
    poles and steps of the engine's one run, and the engine the forms of
    the full-power engine."""
    g = _germ(series, r)
    keys = essential_key_forms(g)
    subs = (substitute(keys.forms[0], g), substitute(keys.forms[1], g))
    got = 16
    while True:
        try:
            rerun = keyforms._absorb(g, subs, got)
            break
        except keyforms._WindowTooSmall:
            got *= 2
    assert got == width > 16
    xs = g.xiseries()
    assert rerun == keyforms._absorb(g, subs, xs.deg() - xs.ord())
    assert keys.omegas == tuple(rerun[0]) == omegas
    assert tuple(f.format() for f in keys.forms) == forms


def test_the_engine_reruns_at_double_the_width(monkeypatch):
    """The engine's own rerun loop: a first run that reports its window too
    small is made again at exactly twice the width, and the rerun's forms,
    lifts and poles are those of a run that fit at once."""
    g = _germ(RESTART_ANCHORS[0][0], 1)
    plain = essential_key_forms(g)
    xs = g.xiseries()
    first = xs.deg() - xs.ord()
    assert first > 1
    widths = []
    run = keyforms._absorb

    def too_small_once(g, subs, width):
        widths.append(width)
        if len(widths) == 1:
            raise keyforms._WindowTooSmall
        return run(g, subs, width)

    monkeypatch.setattr(keyforms, "_absorb", too_small_once)
    keys = essential_key_forms(g)
    assert widths == [first, 2 * first]
    assert keys.forms == plain.forms
    assert keys.lifts == plain.lifts
    assert keys.omegas == plain.omegas


FOUR_PAIR = "u^(5/7) + u^(11/14) + u^(23/28) + u^(47/56)"
FIVE_PAIR = FOUR_PAIR + " + u^(95/112)"


@pytest.mark.parametrize(
    "series,r,width",
    [
        (RESTART_ANCHORS[0][0], 1, 18),
        (RESTART_ANCHORS[1][0], 40, 41),
        (FOUR_PAIR, 3, None),
        (FOUR_PAIR, 300, None),
        (FIVE_PAIR, 3, None),
        (FIVE_PAIR, 50, 65),
        (FIVE_PAIR, 200, None),
        ("u^(3/5)", 0, 1),
        ("u^(1/2)", 0, 1),
    ],
)
def test_the_engine_absorbs_once_from_the_span_of_its_series(absorb_runs, series, r, width):
    """The first window is the semidegree span of the generic series (at
    least 1: a lone generic term spans 0, and doubling 0 would never end),
    and it is wide enough for one run.  x and f_1 substituted are read off
    the series; they are the substitutions of the first two forms."""
    g = _germ(series, r)
    keys = essential_key_forms(g)
    ((subs, got),) = absorb_runs
    xs = g.xiseries()
    assert got == max(1, xs.deg() - xs.ord())
    if width is not None:
        assert got == width
    assert subs == (substitute(keys.forms[0], g), substitute(keys.forms[1], g))
    assert keys.forms[1] == keys.lifts[0].evaluate((X, Y))


MULTI_PAIR = [
    ("u^(5/7) + u^(11/14) + u^(23/28)", None),
    ("u^(5/7) + u^(11/14) + u^(23/28) + u^(47/56)", None),
    (
        "u^(5/7) + u^(11/14) + u^(23/28) + u^(47/56) + u^(95/112)",
        (112, 32, 216, 428, 854, 1707, 3411),
    ),
]


@pytest.mark.parametrize("series,omegas", MULTI_PAIR)
def test_multi_pair_anchors(series, omegas):
    curve = parse_puiseux(series)
    vp = virtual_poles(puiseux_pairs(curve).pairs, 3)
    rep = is_algebraic(curve, 3)
    assert rep.key_forms.omegas == vp.omegas + (vp.generic_pole,)
    if omegas is not None:
        assert rep.key_forms.omegas == omegas
    assert rep.algebraic is True


def test_four_pair_forms_substitute_to_their_poles():
    """Every essential form of the 4-pair germ at r = 3, substituted whole,
    has the semidegree the engine records, and those are the virtual poles
    and the generic pole: polydromy 56, beyond the property suites' 24."""
    g = _germ(FOUR_PAIR, 3)
    keys = essential_key_forms(g)
    vp = virtual_poles(puiseux_pairs(parse_puiseux(FOUR_PAIR)).pairs, 3)
    assert tuple(semidegree_eval(f, g) for f in keys.forms) == keys.omegas
    assert keys.omegas == vp.omegas + (vp.generic_pole,)


def _prefix_chain(keys):
    """The full chain by its definition: each form a partial sum of its
    lift, leading power first and then by decreasing weight, evaluated
    afresh at the forms before it."""
    def weight(key):
        return sum(e * w for e, w in zip(key, keys.omegas))

    out = [(keys.forms[0], keys.omegas[0])]
    for k, lift in enumerate(keys.lifts):
        images = keys.forms[: k + 1] if k else (X, Y)
        top = lift.deg(len(lift.names) - 1)
        terms = sorted(lift.terms.items(), key=lambda t: (t[0][-1] != top, -weight(t[0])))
        for n in range(1 if k == 0 else 2, len(terms) + 1):
            pole = weight(terms[n][0]) if n < len(terms) else keys.omegas[k + 1]
            out.append((Poly(lift.names, dict(terms[:n])).evaluate(images), pole))
    return out


def test_forms_and_chain_are_their_lifts_evaluated():
    """The engine forms f_{k+1} as f_k^p_k minus its absorption steps, and
    the chain yields the running form of that subtraction; both are the lift
    evaluated at the forms before it, the form whole and the chain prefix by
    prefix, on seeded germs of the engine pin and both restart anchors."""
    engines = list(_seeded_engines(range(100)))
    anchors = [_germ(series, r) for series, r, *_ in RESTART_ANCHORS]
    engines += [(g, essential_key_forms(g)) for g in anchors]
    for n, (_, keys) in enumerate(engines):
        assert keys.forms[1] == keys.lifts[0].evaluate((X, Y))
        for k in range(2, len(keys.forms)):
            assert keys.forms[k] == keys.lifts[k - 1].evaluate(keys.forms[:k])
        if n % 10 == 0:
            assert list(keys.chain()) == _prefix_chain(keys)


def test_the_engine_leaves_no_cyclic_garbage():
    """No reference cycle outlives an engine call: with the collector off,
    the engine on both restart anchors leaves nothing for it to collect."""
    germs = [_germ(series, r) for series, r, *_ in RESTART_ANCHORS]
    was_on = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for g in germs:
            essential_key_forms(g)
        assert gc.collect() == 0
    finally:
        if was_on:
            gc.enable()


def _engine_text(keys) -> str:
    lines = [f.format() for f in keys.forms + keys.lifts]
    return "\n".join([*lines, repr(keys.omegas), ""])


# SHA-256 of the forms, lifts and poles below, recorded from the step loop
# that subtracted each correction as a new Poly
ENGINE_PIN = "7bc32073929bff6ef125b1920882421b2ac8c453474a7c5f5fa5606f1f5cc191"


def test_forms_lifts_and_poles_of_seeded_germs_are_pinned():
    """Seeded germs of up to three pairs and polydromy up to 24, at several
    r including 0 (most of them overflow a first window of width 16), and
    both restart anchors."""
    h = hashlib.sha256()
    for seed in range(100):
        curve = local_to_degreewise(seeded_curve(seed))
        for r in (0, 1, 3, 8, 21):
            h.update(_engine_text(essential_key_forms(generic_dps_from_curve(curve, r))).encode())
    for series, r, *_ in RESTART_ANCHORS:
        g = generic_dps_from_curve(local_to_degreewise(parse_puiseux(series)), r)
        h.update(_engine_text(essential_key_forms(g)).encode())
    assert h.hexdigest() == ENGINE_PIN
