"""Decision layer: which contractions exist and which are algebraic.

The closed-form side works from the characteristic pairs (q_k, p_k) of a
local curve germ together with a non-negative integer r: the alpha
invariant, the semigroup generators omega-tilde, the virtual poles omega
and the generic pole, and a per-level pair of semigroup conditions that
classify the possible contractions.  The constructive side runs the
key-form engine on an actual curve and reads algebraicity off the last
essential key form (it is decisive: the contraction has an algebraic
model iff that form has no negative power of x).  Witness curves
realizing each predicted behavior are built explicitly so the two sides
can be cross-checked on concrete inputs.  is_algebraic imports the engine
(keyforms, semidegree) on its first call, so the closed-form side loads
without it.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cache
from math import gcd

from .errors import InvariantViolationError, PreconditionError
from .puiseux import (
    CharacteristicData,
    Orientation,
    PuiseuxPoly,
    check_r,
    is_tangent,
    local_pair_data,
    local_to_degreewise,
    puiseux_pairs,
)
from .poly import Poly


def alpha_invariant(local_pairs, r: int) -> int:
    """Intersection multiplicity of the germ with a generic curve through
    the r-th extra infinitely near point; for a single pair (q, p) this is
    p*q + r."""
    data = local_pair_data(local_pairs)
    check_r(r)
    return _alpha(data, r)


def _alpha(data: CharacteristicData, r: int) -> int:
    """alpha_invariant of pairs and r that are already checked."""
    total = 0
    tail = 1  # product of p_j for j > k, built from the right
    for (_, p_k), beta in zip(reversed(data.pairs), reversed(data.betas())):
        total += (p_k - 1) * tail * beta
        tail *= p_k
    return total + data.pairs[-1][0] + r


def is_contractible(local_pairs, r: int) -> bool:
    """True iff the exceptional configuration of (pairs, r) contracts
    analytically: the germ has order < 1 (first pair has q < p) and
    alpha < p^2."""
    data = local_pair_data(local_pairs)
    check_r(r)
    if not is_tangent(data):
        return False
    return _alpha(data, r) < data.polydromy**2


def _tilde_omegas(data: CharacteristicData) -> tuple[int, ...]:
    """Semigroup generators (w~_0 .. w~_lt): w~_0 is the polydromy, w~_1 is
    beta_1 and w~_(k+1) = p_k * w~_k + beta_(k+1) - beta_k (Zariski's
    recurrence over the scaled characteristic exponents beta_k)."""
    betas = data.betas()
    out = [data.polydromy, betas[0]]
    for (_, p_k), beta, beta_next in zip(data.pairs, betas, betas[1:]):
        out.append(p_k * out[-1] + beta_next - beta)
    return tuple(out)


class VirtualPoles(namedtuple("VirtualPoles", "tilde_omegas omegas generic_pole l alpha p")):
    """Closed-form pole data of (pairs, r).

    tilde_omegas = (w~_0..w~_lt) generate the semigroup of intersection
    numbers; omegas = (w_0..w_l) are the virtual poles, and generic_pole is
    w_{l+1}, positive exactly on contractible input; alpha and p are the
    alpha invariant and the polydromy.  Every field is an int or a tuple of
    ints.
    """

    __slots__ = ()

    def delta_sequence(self) -> tuple[int, ...]:
        """The omegas divided by their gcd; realized as the pole orders of
        the coordinate restrictions on a curve with one place at infinity."""
        g = gcd(*self.omegas)
        return tuple(w // g for w in self.omegas)


def virtual_poles(local_pairs, r: int) -> VirtualPoles:
    """Evaluate the pole formulas exactly.

    l is the number of pairs when r > 0 and one less when r = 0;
    w_0 = p and w_k = p_1^2..p_{k-1}^2 p_k..p_lt - w~_k; the generic pole
    is p^2 - alpha for r > 0 and (p^2 - alpha)/p_lt for r = 0.  The omegas,
    with the generic pole appended, coincide with the pole orders of the
    essential key forms of any curve having these pairs.
    """
    data = local_pair_data(local_pairs)
    check_r(r)
    return _virtual_poles(data, r)


def _virtual_poles(data: CharacteristicData, r: int) -> VirtualPoles:
    """virtual_poles of pairs and r that are already checked."""
    ps = [p for _, p in data.pairs]
    lt = len(ps)
    p = data.polydromy
    alpha = _alpha(data, r)
    tilde = _tilde_omegas(data)
    if alpha != ps[-1] * tilde[-1] + r:
        raise InvariantViolationError(
            "alpha differs from p_lt * w~_lt + r", alpha=alpha, tilde_omegas=tilde, r=r
        )
    l = lt - 1 if r == 0 else lt
    omegas = [p]
    head = 1  # p_1^2 .. p_{k-1}^2
    tail = p  # p_k .. p_lt
    for k in range(1, l + 1):
        omegas.append(head * tail - tilde[k])
        head *= ps[k - 1] * ps[k - 1]
        tail //= ps[k - 1]
    if r > 0:
        generic = p * p - alpha
    else:
        generic = head * tail - tilde[lt]
        if generic * ps[-1] != p * p - alpha:
            raise InvariantViolationError(
                "generic pole at r = 0 differs from (p^2 - alpha)/p_lt",
                generic_pole=generic, p=p, alpha=alpha, pairs=data.pairs,
            )
    return VirtualPoles(tilde, tuple(omegas), generic, l, alpha, p)


def semigroup_membership(n: int, gens) -> bool:
    """Is the int n a non-negative integer combination of gens (positive
    ints)?  A bool, float or other type is refused, never read as an int.
    Shifts by g, 2g, 4g, ... <= n add every multiple of g up to n in
    floor(log2(n/g)) + 1 passes per generator, and the reachable set is cut
    back to its n + 1 low bits after each generator, so no generator
    shifts the bits above n that the ones before it made."""
    if type(n) is not int:
        raise PreconditionError(f"n = {n!r} must be an int")
    gens = tuple(gens)
    for g in gens:
        if type(g) is not int or g <= 0:
            raise PreconditionError(f"generator {g!r} must be a positive int")
    if n < 0:
        return False
    reach = 1  # bit i set iff i is reachable
    mask = None  # bits 0..n, built at the first generator <= n
    for g in gens:
        if g > n:
            continue
        if mask is None:
            mask = (2 << n) - 1
        s = g
        while s <= n:
            reach |= reach << s
            s <<= 1
        reach &= mask
    return bool(reach >> n)


class Classification(Enum):
    """Which contractions the configuration admits: only algebraic ones,
    only non-algebraic ones, both kinds (depending on the curve's
    coefficients), or none at all."""

    ONLY_ALGEBRAIC = "OnlyAlgebraic"
    BOTH = "Both"
    ONLY_NONALGEBRAIC = "OnlyNonAlgebraic"
    NOT_CONTRACTIBLE = "NotContractible"


@dataclass(frozen=True)
class S2Entry:
    """Outcome of the gap check at level k; offender is the largest integer
    of the group in the open interval that misses the semigroup."""

    k: int
    holds: bool
    offender: int | None


@dataclass(frozen=True)
class SemigroupReport:
    s1: tuple[bool, ...]
    s2: tuple[S2Entry, ...]
    classification: Classification
    poles: VirtualPoles


def semigroup_conditions(local_pairs, r: int) -> SemigroupReport:
    """Run the two semigroup checks at every level k = 1..l:

    S1-k: p_k * w_k is a non-negative combination of w_0..w_{k-1};
    S2-k: every integer of the group Z<w_0..w_k> lying strictly between
    w_{k+1} and p_k * w_k also lies in the semigroup of those generators.
    The offender of a failing S2-k is the largest such gap, read from the
    top: the first multiple of gcd(w_0..w_k) below p_k * w_k, going down,
    that semigroup_membership refuses.

    All S1 and all S2 hold -> every contraction is algebraic; all S1 hold
    but some S2 fails -> both kinds occur; some S1 fails -> no contraction
    is algebraic.  Non-contractible input short-circuits.  On a single
    pair the class is compared with single_pair_closed_form, on both
    returns, and a disagreement raises InvariantViolationError.
    """
    data = local_pair_data(local_pairs)
    check_r(r)
    vp = _virtual_poles(data, r)
    if not (is_tangent(data) and vp.alpha < vp.p**2):
        report = SemigroupReport((), (), Classification.NOT_CONTRACTIBLE, vp)
        return _closed_form_checked(report, data, r)
    if vp.generic_pole <= 0:
        raise InvariantViolationError(
            "non-positive generic pole on contractible input",
            generic_pole=vp.generic_pole, pairs=data.pairs, r=r,
        )
    for w in vp.omegas:
        if w <= 0:
            raise InvariantViolationError(
                "non-positive virtual pole alongside a positive generic pole",
                omegas=vp.omegas,
                generic_pole=vp.generic_pole,
            )
    ladder = vp.omegas + (vp.generic_pole,)
    s1 = []
    s2 = []
    for k in range(1, vp.l + 1):
        p_k = data.pairs[k - 1][1]
        target = p_k * vp.omegas[k]
        s1.append(semigroup_membership(target, vp.omegas[:k]))
        gens = vp.omegas[: k + 1]
        step = gcd(*gens)  # it divides target, so the scan stays on the group
        window = range(target - step, ladder[k + 1], -step)
        offender = next((n for n in window if not semigroup_membership(n, gens)), None)
        s2.append(S2Entry(k, offender is None, offender))
    if all(s1):
        cls = (
            Classification.ONLY_ALGEBRAIC
            if all(e.holds for e in s2)
            else Classification.BOTH
        )
    else:
        cls = Classification.ONLY_NONALGEBRAIC
    report = SemigroupReport(tuple(s1), tuple(s2), cls, vp)
    return _closed_form_checked(report, data, r)


def _closed_form_checked(
    report: SemigroupReport, data: CharacteristicData, r: int
) -> SemigroupReport:
    """report, once its class on a single pair (q, p) agrees with
    single_pair_closed_form(q, p, r): not contractible, BOTH when a
    non-algebraic contraction exists, ONLY_ALGEBRAIC otherwise.  Neither
    side reads the other's result."""
    if len(data.pairs) != 1:
        return report
    ((q, p),) = data.pairs
    closed = single_pair_closed_form(q, p, r)
    if not closed["contractible"]:
        expected = Classification.NOT_CONTRACTIBLE
    elif closed["nonalgebraic_exists"]:
        expected = Classification.BOTH
    else:
        expected = Classification.ONLY_ALGEBRAIC
    if report.classification is not expected:
        raise InvariantViolationError(
            "semigroup class differs from the single-pair closed form",
            classification=report.classification.value,
            closed_form_class=expected.value,
            pair=(q, p),
            r=r,
        )
    return report


class WitnessCurve(namedtuple("WitnessCurve", "curve predicted_algebraic")):
    """A local series (PuiseuxPoly) realizing one branch of the
    classification, and whether its contraction is predicted algebraic."""

    __slots__ = ()


def witness_curves(local_pairs, r: int, classification=None) -> tuple[WitnessCurve, ...]:
    """Explicit curves realizing the classification of (pairs, r).

    The all-ones series (coefficient 1 on every characteristic exponent)
    is predicted algebraic exactly when all S1 hold.  In the BOTH case a
    second series with one extra term u^((q_k + r')/(p_1..p_k)) is added,
    where k is the first level with S2 failing and r' = (p_k*w_k - n)/g
    for the largest gap element n and g = gcd(w_0..w_k); the inserted
    term makes the level-(k+1) key form pick up a tail of pole order
    exactly n, whose decomposition over w_0..w_k must go negative, so the
    contraction is never algebraic.  n > w_(k+1) is precisely what keeps
    the new exponent strictly below the next characteristic one.

    classification, when given (either the enum value or a full
    SemigroupReport), must agree with what (pairs, r) actually computes; a
    report is checked by its virtual poles, which (pairs, r) fix.
    """
    data = local_pair_data(local_pairs)
    if isinstance(classification, SemigroupReport):
        report = classification
        if report.poles != virtual_poles(data, r):
            raise PreconditionError("the given report is not the one of these pairs and r")
    else:
        report = semigroup_conditions(data, r)
        if classification is not None and classification is not report.classification:
            raise PreconditionError(
                f"requested classification {classification} does not match the "
                f"computed {report.classification}"
            )
    if report.classification is Classification.NOT_CONTRACTIBLE:
        return ()
    exps = data.char_exponents()
    base = PuiseuxPoly(Orientation.LOCAL, {e: Fraction(1) for e in exps})
    if puiseux_pairs(base).pairs != data.pairs:
        raise InvariantViolationError(
            "all-ones series has other pairs", series=str(base), pairs=data.pairs
        )
    out = [WitnessCurve(base, all(report.s1))]
    if report.classification is Classification.BOTH:
        entry = next(e for e in report.s2 if not e.holds)
        k = entry.k
        p_k = data.pairs[k - 1][1]
        step = gcd(*report.poles.omegas[: k + 1])
        r_prime = (p_k * report.poles.omegas[k] - entry.offender) // step
        e_ins = Fraction(data.pairs[k - 1][0] + r_prime, data.cumulative_p()[k - 1])
        upper = (
            exps[k]
            if k < len(data.pairs)
            else Fraction(data.pairs[-1][0] + r, data.polydromy)
        )
        if not exps[k - 1] < e_ins < upper:
            raise InvariantViolationError(
                "witness exponent fell outside its window",
                inserted=e_ins,
                window=(exps[k - 1], upper),
            )
        out.append(WitnessCurve(base.with_term(e_ins, Fraction(1)), False))
    return tuple(out)


@dataclass(frozen=True)
class AlgebraicityReport:
    """contractible/algebraic verdicts plus the certificates: the key forms,
    the witness curve cut out by the last form when it is a polynomial, and
    the ambient weighted-projective weights."""

    contractible: bool
    algebraic: bool | None
    key_forms: EssentialKeyForms | None
    witness_curve: Poly | None
    wp_weights: tuple[int, ...] | None


@cache
def _engine():
    """The key-form modules, imported on the first is_algebraic call.  Their
    functions are read at each call, so a name rebound in its module (a
    tracer's wrapper) is seen."""
    from . import keyforms, semidegree

    return keyforms, semidegree


def is_algebraic(curve: PuiseuxPoly, r: int, force_keyforms: bool = False) -> AlgebraicityReport:
    """Full pipeline on a local curve germ.

    Converts to the degree-wise picture, attaches the generic term for r,
    computes the essential key forms and reads the answer off the last
    one: the contraction is algebraic iff that form has no negative power
    of x.  When it is, the form cuts out a witness curve in the weighted
    projective space with weights (1, w_0..w_{l+1}).

    Non-contractible input short-circuits without computing key forms
    unless force_keyforms is set (the engine itself does not need
    contractibility).  On contractible input the pole orders of the key
    forms are compared with the closed-form virtual poles plus the generic
    pole, and a disagreement raises InvariantViolationError; the forms
    that force_keyforms computes on non-contractible input go unchecked.
    """
    keyforms, semidegree = _engine()
    if not isinstance(curve, PuiseuxPoly):
        raise PreconditionError("curve must be a PuiseuxPoly")
    if curve.orientation is not Orientation.LOCAL:
        raise PreconditionError("curve must be a local series (in u)")
    data = puiseux_pairs(curve)
    contractible = is_contractible(data, r)
    keys = None
    if contractible or force_keyforms:
        g = semidegree.generic_dps_from_curve(local_to_degreewise(curve), r)
        keys = keyforms.essential_key_forms(g)
    if not contractible:
        return AlgebraicityReport(False, None, keys, None, None)
    vp = _virtual_poles(data, r)
    if keys.omegas != vp.omegas + (vp.generic_pole,):
        raise InvariantViolationError(
            "key-form pole orders differ from the virtual poles",
            pole_orders=keys.omegas,
            virtual_poles=vp.omegas,
            generic_pole=vp.generic_pole,
            r=r,
        )
    last = keys.last()
    algebraic = keyforms.is_polynomial(last)
    if algebraic != all(keyforms.is_polynomial(f) for f in keys.forms):
        raise InvariantViolationError(
            "the last key form does not decide for the whole chain",
            forms=[f.format() for f in keys.forms], r=r,
        )
    if not algebraic:
        return AlgebraicityReport(True, False, keys, None, None)
    return AlgebraicityReport(True, True, keys, last, (1,) + keys.omegas)


def single_pair_test(f: Poly, p: int, q_tilde: int, r: int) -> bool:
    """Shortcut for germs with a single pair (q_tilde, p), defined by a
    Weierstrass polynomial f(u, v), monic of degree p in v (stored as a
    Poly in x, y with x playing u and y playing v).

    Weigh each monomial u^a v^b by a*p + b*q_tilde, drop everything of
    weight >= p*q_tilde + r; the contraction is algebraic iff what is left
    (possibly nothing) has total degree at most p.
    """
    check_r(r)
    local_pair_data([(q_tilde, p)])
    if f.is_zero() or f.leading(1) != Poly.monomial(f.names, (0, p)):
        raise PreconditionError(f"f must be monic of degree {p} in v")
    if f.ord() < 0:
        raise PreconditionError("f must be a nonzero polynomial in u, v")
    alpha = p * q_tilde + r
    best = None
    for (a, b) in f.num:
        if a * p + b * q_tilde < alpha:
            best = a + b if best is None else max(best, a + b)
    return best is None or best <= p


def single_pair_closed_form(q: int, p: int, r: int) -> dict:
    """Closed-form answers for a single pair (q, p): the configuration is
    contractible iff r < p(p - q), and admits a non-algebraic contraction
    iff additionally r > 2p - q."""
    local_pair_data([(q, p)])
    check_r(r)
    contractible = r < p * (p - q)
    return {
        "contractible": contractible,
        "nonalgebraic_exists": contractible and r > 2 * p - q,
    }
