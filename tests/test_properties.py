"""Randomized invariants tying the independent computation paths together.

Each suite runs wide (100+ examples) over germs with polydromy <= 12, and
the two suites of the key-form chain over germs with up to three pairs and
polydromy <= 24; the seeds are derandomized so a run is reproducible byte
for byte.
"""

from math import gcd, prod

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import decompose_bruteforce
from strategies import generic_series, laurent_polys, local_curves, local_pair_data

from germcontract import (
    Classification,
    Poly,
    essential_key_forms,
    generic_dps_from_curve,
    is_algebraic,
    is_polynomial,
    local_to_degreewise,
    omega_decompose,
    puiseux_pairs,
    semidegree_eval,
    semigroup_conditions,
    virtual_poles,
    witness_curves,
)

BREADTH = settings(derandomize=True, max_examples=120, deadline=None)
HEAVY = settings(derandomize=True, max_examples=100, deadline=None)


@BREADTH
@given(f=laurent_polys(), g=laurent_polys(), dps=generic_series())
def test_semidegree_is_multiplicative(f, g, dps):
    df = semidegree_eval(f, dps)
    dg = semidegree_eval(g, dps)
    assert semidegree_eval(f * g, dps) == df + dg
    total = f + g
    if total.terms:
        assert semidegree_eval(total, dps) <= max(df, dg)


@BREADTH
@given(
    curve=local_curves(tangent=True, max_pairs=3, max_polydromy=24),
    r=st.integers(0, 10),
)
def test_chain_poles_match_the_closed_form(curve, r):
    pairs = puiseux_pairs(curve).pairs
    vp = virtual_poles(pairs, r)
    g = generic_dps_from_curve(local_to_degreewise(curve), r)
    keys = essential_key_forms(g)
    assert keys.omegas == vp.omegas + (vp.generic_pole,)
    chain = list(keys.chain())
    for f, w in chain:
        assert semidegree_eval(f, g) == w
    # the forms of a level share the y-degree of its essential form and end on it
    last = {f.deg(1): (f, w) for f, w in chain}
    assert list(last.values()) == list(zip(keys.forms, keys.omegas))


@BREADTH
@given(
    curve=local_curves(tangent=True, max_pairs=3, max_polydromy=24),
    r=st.integers(0, 10),
)
def test_forms_are_their_lifts_evaluated(curve, r):
    """The engine forms f_{k+1} from f_k^p_k and its absorption steps; that
    is the lift F_{k+1} evaluated at the forms before it (F_1 at x and y)."""
    keys = essential_key_forms(generic_dps_from_curve(local_to_degreewise(curve), r))
    x, y = keys.forms[0], Poly.monomial(("x", "y"), (0, 1))
    assert keys.forms[1] == keys.lifts[0].evaluate((x, y))
    for k in range(2, len(keys.forms)):
        assert keys.forms[k] == keys.lifts[k - 1].evaluate(keys.forms[:k])


@BREADTH
@given(dps=generic_series())
def test_pole_recursion_and_gcd_ladder(dps):
    keys = essential_key_forms(dps)
    pairs = dps.formal_pairs
    ps = [p for _, p in pairs]
    w = keys.omegas
    assert w[0] == prod(ps)
    assert w[1] == pairs[0][0] * prod(ps[1:])
    for k in range(1, len(pairs)):
        q_next, p_next = pairs[k]
        q_k, p_k = pairs[k - 1]
        tail = prod(ps[k + 1 :])
        assert w[k + 1] == p_k * w[k] + (q_next - q_k * p_next) * tail
    for k in range(len(w)):
        assert gcd(*w[: k + 1]) == prod(ps[k:])


@BREADTH
@given(dps=generic_series(), data=st.data())
def test_omega_decompose_is_the_unique_bounded_writing(dps, data):
    keys = essential_key_forms(dps)
    k = data.draw(st.integers(1, keys.l + 1))
    n = data.draw(st.integers(-6, 24))
    ps = [p for _, p in dps.formal_pairs]
    scale = prod(ps[k:])
    sols = decompose_bruteforce(n * scale, list(keys.omegas[: k + 1]), ps[:k])
    assert sols == [omega_decompose(n, k, keys)]


@HEAVY
@given(
    curve=local_curves(tangent=True, max_pairs=3, max_polydromy=24),
    r=st.integers(0, 12),
)
def test_verdict_is_the_polynomial_chain_condition(curve, r):
    rep = is_algebraic(curve, r, force_keyforms=True)
    keys = rep.key_forms
    last_poly = is_polynomial(keys.forms[-1])
    assert all(is_polynomial(f) for f in keys.forms) == last_poly
    if not rep.contractible:
        assert rep.algebraic is None
        return
    assert rep.algebraic is last_poly
    cls = semigroup_conditions(puiseux_pairs(curve).pairs, r).classification
    if cls is Classification.ONLY_ALGEBRAIC:
        assert rep.algebraic is True
    elif cls is Classification.ONLY_NONALGEBRAIC:
        assert rep.algebraic is False


@HEAVY
@given(data=local_pair_data(tangent=True), r=st.integers(0, 25))
def test_witnesses_realize_their_prediction(data, r):
    ws = witness_curves(data.pairs, r)
    cls = semigroup_conditions(data.pairs, r).classification
    if cls is Classification.NOT_CONTRACTIBLE:
        assert ws == ()
        return
    predictions = sorted(w.predicted_algebraic for w in ws)
    expected = {
        Classification.ONLY_ALGEBRAIC: [True],
        Classification.ONLY_NONALGEBRAIC: [False],
        Classification.BOTH: [False, True],
    }[cls]
    assert predictions == expected
    for w in ws:
        rep = is_algebraic(w.curve, r)
        assert rep.contractible
        assert rep.algebraic is w.predicted_algebraic
