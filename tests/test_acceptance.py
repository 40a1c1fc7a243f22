"""End-to-end acceptance checks, one verdict line per criterion.

Every test prints exactly one line, ACCEPTANCE <n> <label>: PASS or FAIL,
bypassing capture so the lines land in plain pytest output as well.
"""

from fractions import Fraction
from math import gcd

import pytest

import test_properties

from germcontract import (
    Classification,
    Poly,
    alpha_invariant,
    all_key_forms,
    build_dual_graph,
    generic_dps_from_curve,
    intersection_matrix,
    is_algebraic,
    is_contractible,
    is_negative_definite,
    local_to_degreewise,
    parse_poly,
    parse_puiseux,
    semidegree_eval,
    semigroup_conditions,
    single_pair_closed_form,
    single_pair_test,
    substitute,
    virtual_poles,
)
from germcontract.keyforms import essential_key_forms

F = Fraction

C1 = parse_puiseux("u^(3/5)")
C2 = parse_puiseux("u^(3/5) + u^2")


def single_pair_grid():
    for p in range(2, 8):
        for q in range(1, p):
            if gcd(q, p) == 1:
                for r in range(0, p * (p - q) + 1):
                    yield q, p, r


def _criterion(capsys, label, body):
    try:
        body()
    except BaseException:
        with capsys.disabled():
            print(f"ACCEPTANCE {label}: FAIL")
        raise
    with capsys.disabled():
        print(f"ACCEPTANCE {label}: PASS")


def test_acceptance_1_worked_key_form_chain(capsys):
    def body():
        series = parse_puiseux(
            "x^3 + x^2 + x^(5/3) + x + x^(-13/6) + x^(-7/3)"
        )
        g = generic_dps_from_curve(series, 3)
        assert g.formal_exponents()[-1] == F(-8, 3)
        keys = essential_key_forms(g)
        assert keys.forms[1] == parse_poly("y - x^3 - x^2")
        assert keys.lifts[1] == Poly(
            ("x", "y1"),
            {(0, 3): F(1), (1, 2): F(-3), (2, 1): F(3), (5, 0): F(-1), (3, 0): F(-1)},
        )
        assert keys.lifts[2] == Poly(
            ("x", "y1", "y2"),
            {(0, 0, 2): F(1), (1, 0, 1): F(-6), (-1, 2, 0): F(-9), (2, 0, 0): F(9)},
        )
        assert (
            keys.lifts[1].format() == "y1^3 - 3*x*y1^2 + 3*x^2*y1 - x^5 - x^3"
        )
        assert keys.lifts[2].format() == "y2^2 - 6*x*y2 - 9*x^(-1)*y1^2 + 9*x^2"
        assert keys.omegas == (6, 10, 7, 11)
        # the constant term of the last form is pinned down by the chain's
        # defining properties; the doubled variant breaks both of them
        good = keys.forms[3]
        lift = keys.lifts[2]
        bad = (lift - Poly(lift.names, {(2, 0, 0): F(-9)})).evaluate(keys.forms[:3])
        assert semidegree_eval(good, g) == 11
        assert semidegree_eval(bad, g) == 12
        assert substitute(good, g).leading().deg(1) >= 1
        assert substitute(bad, g).leading().deg(1) == 0

    _criterion(capsys, "1 worked-key-form-chain", body)


def test_acceptance_2_cusp_family_tables(capsys):
    def body():
        x, y = parse_poly("x"), parse_poly("y")
        y5x2 = parse_poly("y^5 - x^2")
        tail = parse_poly("y^5 - 5*x^(-1)*y^4 - x^2")

        def chain(curve, r):
            g = generic_dps_from_curve(local_to_degreewise(curve), r)
            return all_key_forms(g)

        for r in range(0, 11):
            assert alpha_invariant([(3, 5)], r) == 15 + r
            assert is_contractible([(3, 5)], r) == (r < 10)
            a1 = is_algebraic(C1, r).algebraic
            a2 = is_algebraic(C2, r).algebraic
            assert a1 is (True if r < 10 else None)
            assert a2 is (None if r == 10 else r <= 7)
            assert chain(C1, r) == ((x, y) if r == 0 else (x, y, y5x2))
            if r == 0:
                assert chain(C2, r) == (x, y)
            elif r <= 7:
                assert chain(C2, r) == (x, y, y5x2)
            elif r <= 9:
                assert chain(C2, r) == (x, y, y5x2, tail)

    _criterion(capsys, "2 cusp-family-tables", body)


def test_acceptance_3_single_pair_sweep(capsys):
    def body():
        u, v = parse_poly("x"), parse_poly("y")
        count = 0
        for q, p, r in single_pair_grid():
            count += 1
            closed = single_pair_closed_form(q, p, r)
            rep = semigroup_conditions([(q, p)], r)
            contractible = rep.classification is not Classification.NOT_CONTRACTIBLE
            assert rep.classification is not Classification.ONLY_NONALGEBRAIC
            assert closed["contractible"] == contractible
            assert closed["contractible"] == (r < p * (p - q))
            assert closed["nonalgebraic_exists"] == (
                rep.classification is Classification.BOTH
            )
            assert closed["nonalgebraic_exists"] == (2 * p - q < r < p * (p - q))

            plain = is_algebraic(parse_puiseux(f"u^({q}/{p})"), r)
            pert = is_algebraic(parse_puiseux(f"u^({q}/{p}) + u^2"), r)
            assert plain.contractible == contractible == pert.contractible
            if contractible:
                assert plain.algebraic is True
                assert pert.algebraic is (r <= 2 * p - q)
            else:
                assert plain.algebraic is None is pert.algebraic

            if contractible:
                weier = (v - u**2) ** p - u**q
                assert single_pair_test(weier, p, q, r) == pert.algebraic
                assert single_pair_test(v**p - u**q, p, q, r) is True
        assert count == 277

    _criterion(capsys, "3 single-pair-sweep", body)


def test_acceptance_4_two_pair_classification(capsys):
    def body():
        pairs = [(3, 5), (23, 2)]
        rep = semigroup_conditions(pairs, 1)
        vp = rep.poles
        assert vp.omegas == (10, 4, 3)
        assert rep.s1 == (True, False)
        assert 2 * vp.omegas[2] == 6
        assert rep.classification is Classification.ONLY_NONALGEBRAIC

        g = build_dual_graph(pairs, 1)
        assert [v.weight for v in g.vertices] == [-1, -3, -3] + [-2] * 9 + [-3, -2, -2]
        first = ((0, 2), (1, 3), (2, 4), (3, 4))
        chain = tuple((i, i + 1) for i in range(4, 11))
        assert g.edges == first + chain + ((11, 12), (12, 14), (13, 14))
        assert g.estar_attachment == ("E14",)

    _criterion(capsys, "4 two-pair-classification", body)


def test_acceptance_5_dual_graph_ground_truth(capsys):
    def body():
        g0 = build_dual_graph([(3, 5)], 0)
        assert [v.weight for v in g0.vertices] == [-1, -3, -3, -2]
        assert g0.edges == ((0, 2), (1, 3))
        assert g0.component_count() == 2
        assert g0.estar_attachment == ("E2", "E3")

        for r in range(1, 9):
            g = build_dual_graph([(3, 5)], r)
            assert [v.weight for v in g.vertices] == [-1, -3, -3] + [-2] * (r + 1)
            head = ((0, 2), (1, 3), (2, 4), (3, 4))
            assert g.edges == head + tuple((i, i + 1) for i in range(4, 3 + r))
            assert g.estar_attachment == (f"E{r + 3}",)

        for q, p, r in single_pair_grid():
            g = build_dual_graph([(q, p)], r)
            definite = is_contractible([(q, p)], r)
            assert is_negative_definite(intersection_matrix(g)) == definite
            assert g.is_negative_definite() == definite

    _criterion(capsys, "5 dual-graph-ground-truth", body)


def test_acceptance_6_property_suites(capsys):
    def body():
        test_properties.test_semidegree_is_multiplicative()
        test_properties.test_chain_poles_match_the_closed_form()
        test_properties.test_pole_recursion_and_gcd_ladder()
        test_properties.test_omega_decompose_is_the_unique_bounded_writing()
        test_properties.test_verdict_is_the_polynomial_chain_condition()
        test_properties.test_witnesses_realize_their_prediction()

    _criterion(capsys, "6 property-suites", body)
