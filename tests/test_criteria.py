"""Closed-form invariants, semigroup classification, witnesses, shortcuts."""

import random
import tracemalloc
from fractions import Fraction
from math import gcd, prod

import pytest

from oracles import (
    alpha_oracle,
    semigroup_member_bruteforce,
    semigroup_member_fixpoint,
    tilde_omegas_oracle,
)

import germcontract.criteria as criteria
from germcontract import (
    CharacteristicData,
    Classification,
    InvariantViolationError,
    Poly,
    Orientation,
    PreconditionError,
    PuiseuxPoly,
    S2Entry,
    alpha_invariant,
    is_algebraic,
    is_contractible,
    parse_poly,
    parse_puiseux,
    semigroup_conditions,
    semigroup_membership,
    single_pair_closed_form,
    single_pair_test,
    virtual_poles,
    witness_curves,
)

F = Fraction

TWO_PAIR = ((3, 5), (23, 2))


# --- alpha ----------------------------------------------------------------

# values frozen from the intersection-multiplicity oracle (tests/oracles.py)
FROZEN_ALPHA = {
    (((3, 5),), 0): 15,
    (((3, 5),), 8): 23,
    (((3, 5),), 9): 24,
    (((1, 2),), 0): 2,
    (TWO_PAIR, 1): 95,
    (((2, 3), (7, 2)), 2): 32,
}


@pytest.mark.parametrize("pairs,r", sorted(FROZEN_ALPHA))
def test_alpha_matches_frozen_oracle_values(pairs, r):
    assert alpha_invariant(pairs, r) == FROZEN_ALPHA[(pairs, r)]


@pytest.mark.parametrize("pairs,r", [(((2, 7),), 3), (((1, 3), (10, 3)), 2)])
def test_alpha_against_live_oracle(pairs, r):
    assert alpha_invariant(pairs, r) == alpha_oracle(list(pairs), r)


def test_alpha_linear_in_r():
    for r in range(0, 11):
        assert alpha_invariant([(3, 5)], r) == 15 + r


def test_alpha_single_pair_closed_form():
    for q, p in [(1, 2), (3, 5), (5, 7), (2, 9)]:
        for r in (0, 1, 4):
            assert alpha_invariant([(q, p)], r) == p * q + r


def test_alpha_equals_last_semigroup_generator_scaled():
    for pairs, r in FROZEN_ALPHA:
        vp = virtual_poles(pairs, r)
        p_last = pairs[-1][1]
        assert vp.alpha == p_last * vp.tilde_omegas[-1] + r


def test_alpha_input_validation():
    # one pairs rule and one r rule, shared by every entry point on pairs
    for entry in (
        alpha_invariant, is_contractible, virtual_poles, semigroup_conditions, witness_curves
    ):
        with pytest.raises(PreconditionError, match="need at least one characteristic pair"):
            entry([], 0)
        with pytest.raises(PreconditionError, match="r = -1 must be a non-negative integer"):
            entry([(3, 5)], -1)
        with pytest.raises(PreconditionError, match="r = True must be a non-negative integer"):
            entry([(3, 5)], True)
        # entries are ints, never truncated: (3.9, 5) is not read as (3, 5)
        for bad in ([(3.9, 5)], [(3, 5.0)], [("3", 5)], [(3, 5), (23, "2")], [(True, 2)]):
            with pytest.raises(PreconditionError, match="entries must be integers"):
                entry(bad, 0)
    with pytest.raises(PreconditionError):
        alpha_invariant([(3, 5)], F(1, 2))
    with pytest.raises(PreconditionError):
        alpha_invariant([(-3, 5)], 0)
    with pytest.raises(PreconditionError):
        alpha_invariant([(3, 5), (5, 2)], 0)  # 5/10 < 3/5: not increasing


# --- contractibility ------------------------------------------------------


def test_contractible_threshold():
    assert is_contractible([(3, 5)], 9)
    assert not is_contractible([(3, 5)], 10)


def test_order_at_least_one_is_never_contractible():
    assert not is_contractible([(7, 5)], 0)


def test_two_pair_case_is_contractible():
    assert is_contractible(TWO_PAIR, 1)  # alpha = 95 < 100


def test_semigroup_conditions_short_circuit_exactly_off_is_contractible():
    """semigroup_conditions reads contractibility off its virtual poles;
    it must short-circuit on exactly the input is_contractible refuses,
    non-tangent germs included."""
    cases = [
        ([(q, p)], r)
        for p in range(2, 8)
        for q in range(1, 2 * p)
        if gcd(q, p) == 1
        for r in range(p * p + 1)
    ]
    cases += [
        ([(q1, p1), (q2, 2)], r)
        for q1, p1 in ((2, 3), (3, 5), (5, 4))
        for q2 in (2 * q1 + 1, 2 * q1 + 7)
        for r in range(0, 40, 3)
    ]
    for pairs, r in cases:
        rep = semigroup_conditions(pairs, r)
        short = rep.classification is Classification.NOT_CONTRACTIBLE
        assert short == (not is_contractible(pairs, r)), (pairs, r)


# --- virtual poles --------------------------------------------------------


def test_poles_single_pair_r8():
    vp = virtual_poles([(3, 5)], 8)
    assert vp.tilde_omegas == (5, 3)
    assert vp.omegas == (5, 2)
    assert vp.generic_pole == 2
    assert vp.l == 1
    assert (vp.alpha, vp.p) == (23, 5)


def test_poles_two_pair_r1():
    vp = virtual_poles(TWO_PAIR, 1)
    assert vp.tilde_omegas == (10, 6, 47)
    assert vp.omegas == (10, 4, 3)
    assert vp.generic_pole == 5
    assert vp.delta_sequence() == (10, 4, 3)


def test_poles_r0_drops_a_level():
    vp = virtual_poles([(3, 5)], 0)
    assert vp.l == 0
    assert vp.omegas == (5,)
    assert vp.generic_pole == 2
    # the r = 0 branch of the generic-pole identity
    assert vp.generic_pole * 5 == vp.p**2 - vp.alpha
    assert vp.delta_sequence() == (1,)


def test_generic_pole_identity_for_positive_r():
    for pairs in [((3, 5),), TWO_PAIR, ((2, 3), (7, 2))]:
        for r in (1, 2, 5):
            vp = virtual_poles(pairs, r)
            assert vp.generic_pole == vp.p**2 - vp.alpha


def test_poles_are_independent_of_r_up_to_l():
    for r in (1, 3, 7):
        assert virtual_poles([(3, 5)], r).omegas == (5, 2)
        assert virtual_poles(TWO_PAIR, r).omegas == (10, 4, 3)


def _seeded_local_pairs(count: int, seed: int):
    """Two- to four-pair local pairs with p_k in (2, 3) after the first, and
    small r."""
    rng = random.Random(seed)
    for _ in range(count):
        p1 = rng.choice((2, 3, 4, 5))
        pairs = [(rng.choice([q for q in range(1, 2 * p1) if gcd(q, p1) == 1]), p1)]
        for _ in range(rng.randint(1, 3)):
            p_k = rng.choice((2, 3))
            lo = pairs[-1][0] * p_k  # exponents must keep increasing
            qs = [q for q in range(lo + 1, lo + 2 * p_k) if gcd(q, p_k) == 1]
            pairs.append((rng.choice(qs), p_k))
        yield pairs, rng.randint(0, 5)


def test_tilde_omegas_match_the_weighted_exponent_sum():
    """Zariski's recurrence against the weighted sum of the lower
    characteristic exponents (tests/oracles.py)."""
    single = [
        ([(q, p)], r)
        for p in range(2, 14)
        for q in range(1, 2 * p)
        if gcd(q, p) == 1
        for r in (0, 3)
    ]
    multi = list(_seeded_local_pairs(300, 20261018))
    assert {len(pairs) for pairs, _ in multi} == {2, 3, 4}
    for pairs, r in single + multi:
        assert virtual_poles(pairs, r).tilde_omegas == tilde_omegas_oracle(pairs), pairs


# --- semigroup membership -------------------------------------------------


def test_membership_frozen_examples():
    assert not semigroup_membership(6, (10, 4))
    assert not semigroup_membership(3, (5, 2))
    assert semigroup_membership(7, (5, 2))
    assert semigroup_membership(11, (5, 2))
    assert semigroup_membership(0, (7, 3))
    assert not semigroup_membership(-2, (7, 3))


def test_membership_against_brute_force():
    for gens in [(5, 2), (10, 4), (7, 3, 5), (6,)]:
        for n in range(0, 30):
            assert semigroup_membership(n, gens) == semigroup_member_bruteforce(
                n, list(gens)
            )


def _membership_cases(seed):
    """About 2,000 seeded (n, gens): 1-5 generators and n up to 5,000, sets
    with a common factor > 1, and n = 2^j * g for the smallest generator g,
    where the last doubled shift is n itself."""
    rng = random.Random(seed)
    for _ in range(800):
        gens = [rng.randint(1, 1000) for _ in range(rng.randint(1, 5))]
        yield rng.randint(-3, 5000), gens
    for _ in range(600):
        d = rng.randint(2, 12)
        gens = [d * rng.randint(1, 80) for _ in range(rng.randint(1, 5))]
        n = rng.randint(0, 5000)
        yield (n - n % d if rng.random() < 0.5 else n), gens
    for _ in range(600):
        gens = [rng.randint(1, 300) for _ in range(rng.randint(1, 5))]
        g = min(gens)
        j = rng.randint(0, (5000 // g).bit_length() - 1)
        yield g << j, gens


def test_membership_against_the_fixpoint_closure():
    """The doubled shifts against the old closure, one shift by g at a time
    until nothing changes (tests/oracles.py)."""
    seen = {True: 0, False: 0}
    powers = 0
    for n, gens in _membership_cases(20261021):
        got = semigroup_membership(n, gens)
        assert got is semigroup_member_fixpoint(n, gens), (n, gens)
        seen[got] += 1
        powers += len(gens) == 1 and n >= min(gens) and n % min(gens) == 0
    assert seen[True] > 400 and seen[False] > 400, seen
    assert powers > 50, powers


def _bound_cases(seed):
    """About 2,000 seeded (n, gens) around the cut to n + 1 bits: 1-5
    generators up to 60 with n up to 3,000, sets with a common factor > 1,
    n one below, at and one above 2^j * g for each generator g, and n below
    every generator."""
    rng = random.Random(seed)
    for _ in range(500):
        gens = [rng.randint(1, 60) for _ in range(rng.randint(1, 5))]
        yield rng.randint(0, 3000), gens
    for _ in range(300):
        d = rng.randint(2, 12)
        gens = [d * rng.randint(1, 60 // d) for _ in range(rng.randint(1, 5))]
        n = rng.randint(0, 3000)
        yield (n - n % d if rng.random() < 0.5 else n), gens
    for _ in range(100):
        gens = [rng.randint(1, 60) for _ in range(rng.randint(1, 5))]
        for g in gens:
            top = g << rng.randint(0, (3000 // g).bit_length() - 1)
            for n in (top - 1, top, top + 1):
                yield n, gens
    for _ in range(200):
        gens = [rng.randint(1, 60) for _ in range(rng.randint(1, 5))]
        yield rng.randint(0, min(gens) - 1), gens


def test_membership_at_the_bit_bound():
    """The closure cut to bits 0..n after each generator against the
    fixpoint closure, and against exhaustive search wherever that has at
    most 3,000 coefficient vectors to try."""
    seen = {True: 0, False: 0}
    searched = below = 0
    for n, gens in _bound_cases(20261021):
        got = semigroup_membership(n, gens)
        assert got is semigroup_member_fixpoint(n, gens), (n, gens)
        if prod(n // g + 1 for g in gens) <= 3000:
            assert got is semigroup_member_bruteforce(n, gens), (n, gens)
            searched += 1
        seen[got] += 1
        below += n < min(gens)
    assert seen[True] > 1000 and seen[False] > 600, seen
    assert searched > 800 and below > 200, (searched, below)


def test_membership_with_every_generator_above_n_allocates_nothing():
    """No mask of n + 1 bits (125 MB here) is built when no generator fits."""
    tracemalloc.start()
    try:
        assert semigroup_membership(10**9, (2 * 10**9, 3 * 10**9)) is False
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_membership_rejects_non_positive_generators():
    with pytest.raises(PreconditionError):
        semigroup_membership(5, (5, 0))
    with pytest.raises(PreconditionError):
        semigroup_membership(5, (5, -2))
    # ints only: 2.5 was read as 2, True as 1, and a float n raised TypeError
    for n, gens in [(4, (2.5,)), (4, (True,)), (True, (1,)), (2.5, (1,)), (4, ("2",))]:
        with pytest.raises(PreconditionError):
            semigroup_membership(n, gens)


# --- the classification ---------------------------------------------------

EXPECTED_LADDER = (
    [Classification.ONLY_ALGEBRAIC] * 8
    + [Classification.BOTH] * 2
    + [Classification.NOT_CONTRACTIBLE]
)


def test_classification_ladder_for_the_cusp():
    got = [semigroup_conditions([(3, 5)], r).classification for r in range(11)]
    assert got == EXPECTED_LADDER


def test_conditions_hold_at_r7():
    rep = semigroup_conditions([(3, 5)], 7)
    assert rep.s1 == (True,)
    assert rep.s2[0].holds and rep.s2[0].offender is None
    assert rep.classification is Classification.ONLY_ALGEBRAIC


def test_gap_element_at_r8():
    rep = semigroup_conditions([(3, 5)], 8)
    assert rep.s1 == (True,)
    # 3 sits in (2, 10), is a multiple of gcd(5,2) = 1, but is not in <5,2>
    assert rep.s2 == (type(rep.s2[0])(1, False, 3),)
    assert rep.classification is Classification.BOTH


def test_two_pair_s1_failure():
    rep = semigroup_conditions(TWO_PAIR, 1)
    assert rep.s1 == (True, False)
    # p_2 * omega_2 = 6 is not a combination of 10 and 4
    assert not semigroup_membership(2 * 3, (10, 4))
    assert rep.classification is Classification.ONLY_NONALGEBRAIC


def test_not_contractible_short_circuits():
    rep = semigroup_conditions([(3, 5)], 10)
    assert rep.classification is Classification.NOT_CONTRACTIBLE
    assert rep.s1 == () and rep.s2 == ()
    assert rep.poles.generic_pole == 0


def test_trivial_level_count_is_vacuously_algebraic():
    rep = semigroup_conditions([(3, 5)], 0)  # l = 0: no conditions to check
    assert rep.s1 == () and rep.s2 == ()
    assert rep.classification is Classification.ONLY_ALGEBRAIC


def _conditions_by_brute_force(pairs, poles):
    """S1 and the S2 offenders (None where S2 holds) from the definitions:
    each membership by exhaustive search, and each offender the largest
    gap of the group in the open window, collected from the bottom."""
    ladder = poles.omegas + (poles.generic_pole,)
    s1, offenders = [], []
    for k in range(1, poles.l + 1):
        target = pairs[k - 1][1] * poles.omegas[k]
        gens = list(poles.omegas[: k + 1])
        s1.append(semigroup_member_bruteforce(target, gens[:-1]))
        gaps = [
            n
            for n in range(ladder[k + 1] + 1, target)
            if n % gcd(*gens) == 0 and not semigroup_member_bruteforce(n, gens)
        ]
        offenders.append(max(gaps, default=None))
    return tuple(s1), offenders


def _small_germs():
    """Every single pair with q < p <= 8, and two pairs with q_1 < p_1 <= 4,
    p_2 in (2, 3) and q_2 just above q_1 * p_2."""
    for p in range(2, 9):
        yield from ([(q, p)] for q in range(1, p) if gcd(q, p) == 1)
    for p1 in (2, 3, 4):
        for q1 in (q for q in range(1, p1) if gcd(q, p1) == 1):
            for p2 in (2, 3):
                for q2 in range(q1 * p2 + 1, q1 * p2 + 2 * p2):
                    if gcd(q2, p2) == 1:
                        yield [(q1, p1), (q2, p2)]


# TWO_PAIR at r = 1 fails S1 at k = 2 and S2 at k = 1; the two 3-pair germs
# are class Both with S2 failing at k = 2 and k = 3 (the strict xfails below)
S2_EXAMPLES = [
    (TWO_PAIR, 1, (6, None)),
    (((1, 3), (17, 3), (39, 2)), 6, (None, 22, 33)),
    (((2, 3), (7, 3), (43, 2)), 13, (None, 26, 33)),
]


def test_s2_offenders_are_the_largest_window_gaps():
    """S1, S2 and the offenders against exhaustive search, on the examples
    and at every r from 0 up to the first one that is not contractible."""
    for pairs, r, offenders in S2_EXAMPLES:
        assert tuple(e.offender for e in semigroup_conditions(pairs, r).s2) == offenders
    cases = [(pairs, r) for pairs, r, _ in S2_EXAMPLES]
    for pairs in _small_germs():
        r = 0
        while is_contractible(pairs, r):
            cases.append((pairs, r))
            r += 1
    seen = set()
    for pairs, r in cases:
        rep = semigroup_conditions(pairs, r)
        s1, offenders = _conditions_by_brute_force(pairs, rep.poles)
        assert rep.s1 == s1, (pairs, r)
        assert rep.s2 == tuple(
            S2Entry(k, n is None, n) for k, n in enumerate(offenders, start=1)
        ), (pairs, r)
        seen.add(rep.classification)
    assert seen == set(Classification) - {Classification.NOT_CONTRACTIBLE}


# --- witnesses ------------------------------------------------------------


def test_witnesses_for_the_both_class():
    ws = witness_curves([(3, 5)], 8)
    assert len(ws) == 2
    assert ws[0].curve == parse_puiseux("u^(3/5)")
    assert ws[0].predicted_algebraic is True
    assert ws[1].curve == parse_puiseux("u^(3/5) + u^2")
    assert ws[1].predicted_algebraic is False


def test_witness_for_only_algebraic():
    ws = witness_curves([(3, 5)], 5)
    assert len(ws) == 1 and ws[0].predicted_algebraic is True


def test_witness_for_only_nonalgebraic():
    ws = witness_curves(TWO_PAIR, 1)
    assert len(ws) == 1
    assert ws[0].curve == parse_puiseux("u^(3/5) + u^(23/10)")
    assert ws[0].predicted_algebraic is False


def test_witnesses_empty_when_not_contractible():
    assert witness_curves([(3, 5)], 10) == ()


def test_witness_classification_cross_check():
    with pytest.raises(PreconditionError):
        witness_curves([(3, 5)], 5, Classification.BOTH)
    rep = semigroup_conditions([(3, 5)], 8)
    assert witness_curves([(3, 5)], 8, rep) == witness_curves([(3, 5)], 8)
    assert witness_curves([(3, 5)], 8, Classification.BOTH)


@pytest.mark.parametrize(
    "pairs,r,report_of",
    [([(3, 5)], 9, ([(2, 3)], 1)), ([(2, 3)], 1, ([(3, 5)], 9))],
)
def test_witness_refuses_a_report_of_other_input(pairs, r, report_of):
    """(3,5) at r = 9 is class Both, (2,3) at r = 1 only algebraic: a report
    of the one must not be taken for the other."""
    with pytest.raises(PreconditionError, match="not the one of these pairs"):
        witness_curves(pairs, r, semigroup_conditions(*report_of))


def test_witness_round_trips_through_the_pipeline():
    for pairs, r in [(((3, 5),), 8), (((3, 5),), 5), (TWO_PAIR, 1)]:
        for w in witness_curves(pairs, r):
            rep = is_algebraic(w.curve, r)
            assert rep.contractible
            assert rep.algebraic is w.predicted_algebraic


# Part of class Both: the all-ones witness is predicted algebraic, but its
# last key form keeps a negative power of x, so the pipeline says it is not.
# Here S2 fails at k = 2 and k = 3 (the last form of u^(1/3) + u^(17/9) +
# u^(13/6) keeps x^(-1)*y^14 terms).  Realizing an algebraic contraction
# needs a different construction.
BOTH_WITNESS_DEFECT = "the all-ones witness is not algebraic on part of class Both"


@pytest.mark.xfail(strict=True, reason=BOTH_WITNESS_DEFECT)
@pytest.mark.parametrize("pairs,r", [([(1, 3), (17, 3), (39, 2)], 6), ([(2, 3), (7, 3), (43, 2)], 13)])
def test_algebraic_witness_when_s2_fails_at_two_levels(pairs, r):
    rep = semigroup_conditions(pairs, r)
    assert rep.classification is Classification.BOTH
    assert [e.holds for e in rep.s2] == [True, False, False]
    for w in witness_curves(pairs, r):
        assert is_algebraic(w.curve, r).algebraic is w.predicted_algebraic


# The same defect where S2 fails at one level only, with its offender.
@pytest.mark.xfail(strict=True, reason=BOTH_WITNESS_DEFECT)
@pytest.mark.parametrize(
    "pairs,r,offender",
    [
        ([(1, 3), (9, 2)], 8, 7),
        ([(1, 3), (9, 2)], 9, 7),
        ([(2, 3), (15, 4)], 15, 11),
        ([(1, 2), (5, 2), (16, 3)], 12, 7),
    ],
)
def test_algebraic_witness_when_s2_fails_at_one_level(pairs, r, offender):
    rep = semigroup_conditions(pairs, r)
    assert rep.classification is Classification.BOTH
    assert [e.offender for e in rep.s2 if not e.holds] == [offender]
    for w in witness_curves(pairs, r):
        assert is_algebraic(w.curve, r).algebraic is w.predicted_algebraic


# --- the full pipeline ----------------------------------------------------


def test_pipeline_plain_cusp_r8():
    rep = is_algebraic(parse_puiseux("u^(3/5)"), 8)
    assert rep.contractible and rep.algebraic
    assert rep.witness_curve == parse_poly("y^5 - x^2")
    assert rep.wp_weights == (1, 5, 2, 2)


def test_pipeline_perturbed_cusp():
    rep8 = is_algebraic(parse_puiseux("u^(3/5) + u^2"), 8)
    assert rep8.contractible and rep8.algebraic is False
    assert rep8.witness_curve is None and rep8.wp_weights is None
    rep7 = is_algebraic(parse_puiseux("u^(3/5) + u^2"), 7)
    assert rep7.algebraic is True


def test_pipeline_r0_weights():
    rep = is_algebraic(parse_puiseux("u^(3/5)"), 0)
    assert rep.algebraic
    assert rep.wp_weights == (1, 5, 2)
    assert rep.witness_curve == Poly.monomial(("x", "y"), (0, 1))


def test_pipeline_short_circuits_when_not_contractible():
    rep = is_algebraic(parse_puiseux("u^(3/5)"), 10)
    assert not rep.contractible
    assert rep.algebraic is None and rep.key_forms is None
    forced = is_algebraic(parse_puiseux("u^(3/5)"), 10, force_keyforms=True)
    assert forced.key_forms is not None
    assert forced.algebraic is None


_VIRTUAL_POLES = criteria._virtual_poles


def _poles_off_by_one(data, r):
    """The virtual poles with the generic pole one too high."""
    vp = _VIRTUAL_POLES(data, r)
    return vp._replace(generic_pole=vp.generic_pole + 1)


@pytest.mark.parametrize("series,r", [("u^(3/5) + u^2", 8), ("u^(3/5) + u^(23/10)", 1)])
def test_pipeline_checks_the_pole_orders_against_the_virtual_poles(monkeypatch, series, r):
    monkeypatch.setattr(criteria, "_virtual_poles", _poles_off_by_one)
    with pytest.raises(InvariantViolationError) as info:
        is_algebraic(parse_puiseux(series), r)
    assert set(info.value.state) == {"pole_orders", "virtual_poles", "generic_pole", "r"}
    pole_orders = info.value.state["pole_orders"]
    assert pole_orders[-1] + 1 == info.value.state["generic_pole"]


def test_forced_key_forms_of_non_contractible_input_go_unchecked(monkeypatch):
    monkeypatch.setattr(criteria, "_virtual_poles", _poles_off_by_one)
    forced = is_algebraic(parse_puiseux("u^(3/5)"), 10, force_keyforms=True)
    assert forced.contractible is False and forced.key_forms is not None


def test_pipeline_input_validation():
    with pytest.raises(PreconditionError):
        is_algebraic("u^(3/5)", 1)
    with pytest.raises(PreconditionError):
        is_algebraic(parse_puiseux("x^(2/5)"), 1)  # wrong orientation
    with pytest.raises(PreconditionError):
        is_algebraic(parse_puiseux("u + u^2"), 1)  # no pairs


def test_decision_coherence_on_random_coefficients():
    """Definite classes decide the verdict for every coefficient choice."""
    rng = random.Random(20240817)
    cases = [(((3, 5),), 7, True), (TWO_PAIR, 1, False)]
    coeffs = [F(n, d) for n in (-3, -2, -1, 1, 2, 3) for d in (1, 2, 3)]
    for pairs, r, expected in cases:
        data = CharacteristicData.from_pairs(pairs)
        for _ in range(20):
            terms = {e: rng.choice(coeffs) for e in data.char_exponents()}
            curve = PuiseuxPoly(Orientation.LOCAL, terms)
            assert is_algebraic(curve, r).algebraic is expected


# --- single-pair shortcuts ------------------------------------------------


def test_single_pair_weierstrass_plain():
    f = parse_poly("v^5 - u^3", xname="u", yname="v")
    assert single_pair_test(f, 5, 3, 9) is True


def test_single_pair_weierstrass_perturbed():
    u, v = parse_poly("x"), parse_poly("y")
    f = (v - u**2) ** 5 - u**3
    # surviving part v^5 - u^3 - 5u^2v^4 has total degree 6 > 5
    assert single_pair_test(f, 5, 3, 8) is False
    # at r = 0 nothing survives the weight filter
    assert single_pair_test(f, 5, 3, 0) is True


def test_single_pair_test_validation():
    u, v = parse_poly("x"), parse_poly("y")
    f = v**5 - u**3
    with pytest.raises(PreconditionError):
        single_pair_test(f, 5, 10, 0)  # not coprime
    with pytest.raises(PreconditionError):
        single_pair_test(f, 4, 3, 0)  # wrong v-degree
    with pytest.raises(PreconditionError):
        single_pair_test(f.scale(2), 5, 3, 0)  # not monic
    with pytest.raises(PreconditionError):
        single_pair_test(f - parse_poly("x^(-1)"), 5, 3, 0)
    with pytest.raises(PreconditionError):
        single_pair_test(f, 5, 3, -1)
    with pytest.raises(PreconditionError):
        single_pair_test(f, 5, 3, True)
    for p, q in ((5.0, 3), (5, 3.5), (5, "3")):
        with pytest.raises(PreconditionError, match="entries must be integers"):
            single_pair_test(f, p, q, 0)


def test_single_pair_closed_form_values():
    assert single_pair_closed_form(3, 5, 9) == {
        "contractible": True,
        "nonalgebraic_exists": True,
    }
    assert single_pair_closed_form(3, 5, 10)["contractible"] is False
    for r in range(0, 8):
        assert single_pair_closed_form(3, 5, r)["nonalgebraic_exists"] is False
    # (1,2): the window 2p-q < r < p(p-q) is (3, 2): empty
    for r in range(0, 5):
        assert single_pair_closed_form(1, 2, r)["nonalgebraic_exists"] is False
    with pytest.raises(PreconditionError):
        single_pair_closed_form(2, 4, 0)
    with pytest.raises(PreconditionError):
        single_pair_closed_form(3, 5, -1)
    with pytest.raises(PreconditionError):
        single_pair_closed_form(3, 5, True)
    with pytest.raises(PreconditionError, match="p must be >= 2"):
        single_pair_closed_form(1, 1, 0)  # (1, 1) is not a characteristic pair
    for q, p in ((3.5, 5), ("3", 5)):
        with pytest.raises(PreconditionError, match="entries must be integers"):
            single_pair_closed_form(q, p, 0)


def test_single_pair_never_only_nonalgebraic():
    for p in (2, 3, 4, 5):
        for q in range(1, p):
            if gcd(q, p) != 1:
                continue
            for r in range(0, p * (p - q) + 1):
                rep = semigroup_conditions([(q, p)], r)
                assert rep.classification is not Classification.ONLY_NONALGEBRAIC


def _closed_form_mutant(q, p, r):
    """single_pair_closed_form with 2p - q + 1 in place of 2p - q."""
    contractible = r < p * (p - q)
    return {
        "contractible": contractible,
        "nonalgebraic_exists": contractible and r > 2 * p - q + 1,
    }


def _bound_mutant(q, p, r):
    """single_pair_closed_form with r <= p(p - q) in place of r < p(p - q)."""
    contractible = r <= p * (p - q)
    return {
        "contractible": contractible,
        "nonalgebraic_exists": contractible and r > 2 * p - q,
    }


@pytest.mark.parametrize(
    "mutant,r,classes",
    [(_closed_form_mutant, 8, ("Both", "OnlyAlgebraic")),
     (_bound_mutant, 10, ("NotContractible", "Both"))],
)
def test_single_pair_class_is_checked_against_the_closed_form(monkeypatch, mutant, r, classes):
    """Both returns, the scan's and the not-contractible one, are compared."""
    monkeypatch.setattr(criteria, "single_pair_closed_form", mutant)
    with pytest.raises(InvariantViolationError) as info:
        semigroup_conditions([(3, 5)], r)
    state = info.value.state
    assert (state["classification"], state["closed_form_class"]) == classes
    assert state["pair"] == (3, 5) and state["r"] == r
    # more than one pair is not compared
    assert semigroup_conditions(TWO_PAIR, 1).classification is Classification.ONLY_NONALGEBRAIC


def test_shortcut_coherence_small_grid():
    for p in (2, 3, 4, 5):
        for q in range(1, p):
            if gcd(q, p) != 1:
                continue
            for r in range(0, p * (p - q) + 1):
                closed = single_pair_closed_form(q, p, r)
                rep = semigroup_conditions([(q, p)], r)
                contractible = rep.classification is not Classification.NOT_CONTRACTIBLE
                assert closed["contractible"] == contractible
                assert closed["nonalgebraic_exists"] == (
                    rep.classification is Classification.BOTH
                )
