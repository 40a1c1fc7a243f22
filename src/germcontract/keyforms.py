"""Essential key forms of a generic degree-wise series.

The engine runs the inductive construction: f_0 = x, f_1 = y minus the
integer-exponent head of the series, and for each formal pair a power of the
previous form is corrected monomial by monomial ("absorption") until its
substituted degree drops to the next pole position.  Substituted series are
keyed by semidegrees (see semidegree), so every degree read here is already
an integer pole value.  The corrections are recorded in lifted coordinates
y_1..y_k (one variable per form), so each step also returns the lift F_{k+1}
in Q[x, x^-1, y_1..y_k] with f_{k+1} = F_{k+1}(x, f_1, ..., f_k).  The form
itself comes from the same steps: f_k^p_k in (x, y) minus each step's
(n/m) * x^a0 * f_1^b_1 ... f_k^b_k, subtracted in place with the primitives
the absorption uses, from one power table per call (_running_forms).  The
lift is never evaluated here; Poly.evaluate serves substitute and the tests.

The absorbed semidegrees are multiples of delta_x/(p_1..p_k) while k is not
final, and carry xi-free coefficients; both facts are enforced at runtime and
raised as invariant violations with a state dump if they ever fail, since the
decomposition of the target weight over (omega_0..omega_k) with bounded
middle coefficients only exists under them.  That decomposition is in closed
form: each b_j is one modular inverse away from the rest of the target, by a
plan built once per level (_weight_plan, _decompose).  A plan checks the gcd
ladder of the poles it reads, and one plan over all of omega_0..omega_{l+1}
checks the whole ladder once the run ends.

The absorption reads only the top of each raised power, so substituted series
are built only that far down.  Each one carries an exactness floor f: its
terms at or above semidegree f are exact, the ones below it may be missing
or wrong.  x and f_1 substituted are exact (f = -inf) and are read off the
generic series: x^delta_x, and the series without its integer head.  f_1
itself is its lift F_1 under the names (x, y).  A product A*B is
exact at or above max(f_A + deg B, f_B + deg A); it is formed only at or
above that bound and deg A + deg B - W, for a window width W, and the larger
of the two is its floor; a product of exact factors that the window cuts
nothing from stays exact.  That is the one window rule (_times).  Every
power comes from poly._power, the one power routine, as the product of the
powers b//2 and b - b//2; with the window product the power S^b of S of
degree d and floor f has floor max((b-1)*d + f, b*d - W).  A difference
takes the larger floor.  When the stopping exponent has no candidate at or above the
floor, or a degree or leading coefficient the absorption reads lies below
it, the run is abandoned and redone from level 1 with W doubled.  W starts
at the semidegree span deg - ord of the generic series (at least 1), which
was wide enough for one run on every germ tried; the floors, not this rule,
keep the result exact.  Once W spans every product nothing is cut, so the
engine then is the exact one and the reruns end.  W comes from the series
alone and never from the closed-form poles, so the omegas stay an
independent check of virtual_poles.

A level keeps its raised power as integer numerators over one denominator
and changes them in place.  Each step reads the top term once, for its
degree, its coefficient and whether it is free of xi, and subtracts the
scaled correction x^a0 * f_1^b_1 ... f_k^b_k.  The x^a0 factor is a shift of
every key and of the floor by a0*omega_0, which is the window product with
that monomial, because a power that is exact spans at most W; the product
of the f_j^b_j is formed once per distinct (b_1..b_k) of a level.  The
series is divided by its content gcd once, when the level ends.  The power
tables go in and out of the helpers as arguments, so a call leaves no
reference cycle behind for the collector.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, inf, lcm

from .errors import InvariantViolationError, PreconditionError
from .poly import Poly, _canonical, _pack, _power, _product, _subtract_into, _top_term, _x_offset
from .semidegree import XI, XY, GenericDPS


@dataclass(frozen=True)
class EssentialKeyForms:
    """Output of the key-form construction.

    forms[k] is the k-th essential key form in Q[x, x^-1, y] (forms[0] = x),
    lifts[k-1] its expression in the previous forms, omegas the pole values
    delta(f_k) (omega_0 = delta_x through omega_{l+1}).
    """

    source: GenericDPS
    forms: tuple[Poly, ...]
    lifts: tuple[Poly, ...]
    omegas: tuple[int, ...]

    @property
    def l(self) -> int:
        return len(self.forms) - 2

    @property
    def alphas(self) -> tuple[int, ...]:
        """The formal pair p's."""
        return tuple(p for _, p in self.source.formal_pairs)

    def last(self) -> Poly:
        return self.forms[-1]

    def chain(self) -> Iterator[tuple[Poly, int]]:
        """The full key-form chain with the pole order of each form.

        x, then y and the head truncations of f_1, then for each later level
        the running form of its step-wise subtraction: the leading power
        minus the other terms of its lift one at a time, in order of
        decreasing weight a*omega_0 + sum b_j*omega_j (the order in which the
        engine absorbed them).  A form's pole order is the weight of the
        lift's next term, or omega_{k+1} after the last term of level k; the
        last form of each level is the essential f_{k+1}.
        """
        def weight(key) -> int:
            return sum(e * w for e, w in zip(key, self.omegas))

        yield self.forms[0], self.omegas[0]
        y = Poly.monomial(XY, (0, 1))
        powers: dict = {}  # shared by the levels after the first
        for k, lift in enumerate(self.lifts):
            # F_1 is written in the plain coordinate y; later lifts in the forms
            images = self.forms[: k + 1] if k else (self.forms[0], y)
            # the leading power is the one term of full degree in the last y
            last = len(lift.names) - 1
            top = lift.deg(last)
            lead = (0,) * last + (top,)
            steps = sorted(
                ((key, (-v, lift.den)) for key, v in lift.num.items() if key != lead),
                key=lambda step: -weight(step[0]),
            )
            poles = [weight(key) for key, _ in steps] + [self.omegas[k + 1]]
            running = zip(_running_forms(images, top, steps, powers if k else {}), poles)
            if k:  # the bare power f_k^p_k is no key form
                next(running)
            for (num, den), pole in running:
                yield _canonical(XY, dict(num), den), pole


def is_polynomial(f: Poly) -> bool:
    """No negative x-exponents (the zero polynomial counts as polynomial)."""
    return f.is_zero() or f.ord() >= 0


def _weight_plan(omegas, ps) -> tuple[int, tuple[tuple[int, int, int, int], ...]]:
    """What _decompose needs to write targets over the poles omega_0..omega_k
    with bounds p_1..p_k: omega_0, and for j = k down to 1 the tuple
    (omega_j, h_j, p_j, (omega_j/h_j)^-1 mod p_j), h_j = gcd(omega_0..omega_j).

    With g_j = gcd(omega_0..omega_{j-1}) the decomposition is unique exactly
    when g_j = p_j*h_j for every j; that gcd ladder is checked here, once
    for all the targets of a level."""
    k = len(omegas) - 1
    if len(ps) != k:
        raise InvariantViolationError(
            "one bound p_j per pole after omega_0 expected", omegas=tuple(omegas), ps=tuple(ps)
        )
    plan = []
    g = omegas[0]
    for w, p in zip(omegas[1:], ps):
        h = gcd(g, w)
        if g != p * h:
            raise InvariantViolationError(
                "weight decomposition not unique",
                omegas=tuple(omegas),
                ps=tuple(ps),
                j=len(plan) + 1,
                gcd=g,
                expected=p * h,
            )
        # g/h = p is prime to w/h, so the inverse exists (it is 0 for p = 1)
        plan.append((w, h, p, pow(w // h, -1, p)))
        g = h
    return omegas[0], tuple(reversed(plan))


def _decompose(target: int, plan) -> tuple[int, tuple[int, ...]]:
    """The unique (a, (b_1..b_k)) with a*omega_0 + sum b_j omega_j = target
    and 0 <= b_j < p_j, for the plan of the poles (see _weight_plan).  Going
    down from j = k, the rest t of the target must be a multiple of h_j,
    and b_j = (t/h_j) * (omega_j/h_j)^-1 mod p_j is the one residue that
    leaves t - b_j*omega_j a multiple of g_j; the targets the absorption
    loop produces are exactly those on the lattice h_k*Z."""
    w0, steps = plan
    t = target
    betas = []
    for w, h, p, inv in steps:
        if t % h:
            raise InvariantViolationError(
                "weight decomposition not unique", target=target, plan=plan, rest=t, candidates=[]
            )
        b = t // h * inv % p
        betas.append(b)
        t -= b * w
    if t % w0:
        raise InvariantViolationError(
            "x-part of the weight decomposition is fractional",
            target=target,
            plan=plan,
            remainder=t,
        )
    return t // w0, tuple(reversed(betas))


def omega_decompose(n: int, k: int, keys: EssentialKeyForms) -> tuple[int, tuple[int, ...]]:
    """Represent n over the poles of the first k+1 forms: returns (a, betas)
    with a*omega_0 + sum_j betas[j]*omega_j = n * p_{k+1}..p_{l+1} and
    0 <= betas[j] < p_{j+1}."""
    pairs = keys.source.formal_pairs
    if type(n) is not int or type(k) is not int or not 0 <= k <= len(pairs):
        raise PreconditionError(f"n = {n!r} and k = {k!r} must be ints, k in 0 .. {len(pairs)}")
    scale = 1
    for _, p in pairs[k:]:
        scale *= p
    ps = [p for _, p in pairs[:k]]
    return _decompose(n * scale, _weight_plan(keys.omegas[: k + 1], ps))


def _integer_head(g: GenericDPS) -> tuple[list[tuple[int, int]], int]:
    """Terms of phi above the first formal exponent q_1/p_1, most
    significant first, as (exponent, coefficient numerator) pairs over
    phi's coefficient denominator, which is returned beside them.  Their
    exponents are integral by construction of the pairs."""
    phi = g.phi
    d = phi._den
    q1, p1 = g.formal_pairs[0]
    head = [(n, c) for n, c in phi._num.items() if n * p1 > q1 * d]
    for n, _ in head:
        if n % d:
            raise InvariantViolationError(
                "fractional exponent above the first formal exponent",
                exponent=Fraction(n, d),
                first_formal=Fraction(q1, p1),
            )
    return [(n // d, c) for n, c in head], phi._cden


def essential_key_forms(g: GenericDPS) -> EssentialKeyForms:
    """Run the full construction on a generic degree-wise series."""
    pairs = g.formal_pairs

    head, hd = _integer_head(g)
    # F_1 is f_1 with y written as y_1 (there is no previous y-form to lift
    # to); both have two variables, so their packed keys are the same
    names = _lift_names(1)
    f1 = {_pack((0, 1), names): hd, **{_pack((e, 0), names): -c for e, c in head}}
    lifts: list[Poly] = [_canonical(names, f1, hd)]
    forms: list[Poly] = [Poly.monomial(XY, (1, 0)), Poly._make(XY, lifts[0]._num, lifts[0].den)]

    # x substituted is x^delta_x; f_1 substituted is the series without its head
    xs = g.xiseries()
    dx = g.delta_x
    cut = {_x_offset(e * dx, XI) for e, _ in head}
    subs = (
        Poly.monomial(XI, (dx, 0)),
        _canonical(XI, {k: v for k, v in xs._num.items() if k not in cut}, xs.den),
    )
    # the span of the generic series, at least 1 so that doubling widens it
    width = max(1, xs.deg() - xs.ord())
    while True:
        try:
            omegas, steps = _absorb(g, subs, width)
            break
        except _WindowTooSmall:
            width *= 2

    powers: dict = {}  # (j, b) -> f_j**b, shared by the levels
    for k, level in enumerate(steps, start=1):
        # x^0 y_k^p_k minus the absorbed terms, over the lcm of their denominators
        p = pairs[k - 1][1]
        d = 1
        for _, (_, cd) in level:
            d = lcm(d, cd)
        names = _lift_names(k)
        lift = {_pack((0,) * k + (p,), names): d}
        for key, (cn, cd) in level:
            key = _pack(key, names)
            lift[key] = lift.get(key, 0) - cn * (d // cd)
        lifts.append(_canonical(names, {key: v for key, v in lift.items() if v}, d))
        # f_{k+1} = f_k^p_k minus the same steps in (x, y)
        *_, (num, den) = _running_forms(forms, p, level, powers)
        forms.append(_canonical(XY, num, den))

    # the whole gcd ladder: omega_0 = delta_x = p_1..p_{l+1}, so this plan
    # also forces gcd(omega_0..omega_{l+1}) = 1
    _weight_plan(omegas, [p for _, p in pairs])
    return EssentialKeyForms(g, tuple(forms), tuple(lifts), tuple(omegas))


_ONE = Poly.monomial(XI, (0, 0))
_ONE_XY = Poly.monomial(XY, (0, 0))


class _WindowTooSmall(Exception):
    """A read fell below an exactness floor: rerun with a wider window."""


def _running_forms(images, p: int, steps, powers: dict):
    """The step-wise subtraction that turns a lift into its form: with k the
    last index of images, images[k]**p, then after each step (key, (n, m))
    in turn the form so far minus (n/m) * x^a0 * prod_j images[j]**b_j for
    key = (a0, b_1..b_k).  Yields (numerators, denominator) after the power
    and after each step; the numerator dict is the same one, changed in
    place.  powers caches images[j]**b by (j, b) (see poly._power) and is
    seeded here with each images[j] as (j, 1); the product of each distinct
    (b_1..b_k) is formed once."""
    k = len(images) - 1
    powers.update({(j, 1): image for j, image in enumerate(images[1:], 1)})
    start = _power(powers, k, p, Poly.mul)
    num, den = dict(start._num), start.den
    yield num, den
    names = start.names
    products: dict[tuple[int, ...], Poly] = {}
    for (a0, *betas), (n, m) in steps:
        betas = tuple(betas)
        q = products.get(betas)
        if q is None:
            q = products[betas] = _product(powers, betas, Poly.mul, _ONE_XY)
        den = _subtract_into(num, den, q, n, m, _x_offset(a0, names))
        yield num, den


def _top(num: dict, floor) -> tuple[int, bool, int]:
    """The top semidegree of the numerators num of a series keyed (x, xi),
    whether its term is free of xi, and its numerator; the degree is exact
    only at or above the floor of the series."""
    if not num and floor > -inf:
        raise _WindowTooSmall
    top = _top_term(num, XI)
    if top[0] < floor:
        raise _WindowTooSmall
    return top


def _times(a: Poly, fa, b: Poly, fb, width: int) -> tuple[Poly, float | int]:
    """a*b with its floor, where a and b are exact at or above fa and fb.
    The product is exact at or above max(fa + deg b, fb + deg a), and the
    window keeps width below deg a + deg b.  A product of exact factors
    that the window cuts nothing from stays exact."""
    da, db = _top(a._num, fa)[0], _top(b._num, fb)[0]
    from_factors = max(fa + db, fb + da)
    floor = max(from_factors, da + db - width)
    if from_factors == -inf and floor <= a.ord() + b.ord():
        floor = -inf
    return a.mul(b, floor), floor


def _absorb(g: GenericDPS, subs, width: int):
    """The absorption of every level on series cut to the window width.

    subs holds x and f_1 substituted.  Returns the poles omega_0..omega_{l+1}
    and, per level, the absorbed (lift key, coefficient) steps in order,
    each coefficient a (numerator, denominator > 0) pair in lowest terms.
    Raises _WindowTooSmall when a read falls below a floor.
    """
    pairs = g.formal_pairs
    ps = [p for _, p in pairs]
    cum = g.cumulative_p()
    l = g.l
    omegas: list[int] = [subs[0].deg(), subs[1].deg()]
    # f_j**b substituted, with its floor, by (j, b); (j, 1) is f_j itself
    powers: dict[tuple[int, int], tuple[Poly, float | int]] = {(1, 1): (subs[1], -inf)}

    def times(a, b):
        return _times(*a, *b, width)

    steps: list[list[tuple[tuple[int, ...], tuple[int, int]]]] = []
    for k in range(1, l + 1):
        s, fs = _power(powers, k, ps[k - 1], times)
        w_stop = _stopping_exponent(s, fs, k, l, cum)
        plan = _weight_plan(omegas, ps[:k])
        # f_1^b_1 ... f_k^b_k substituted, its floor and its lead numerator,
        # by (b_1..b_k): steps of one level repeat them with other a0
        corrections: dict[tuple[int, ...], tuple[Poly, float | int, int]] = {}
        # s as numerators over one denominator, changed in place step by step
        num, den = dict(s._num), s.den
        level: list[tuple[tuple[int, ...], tuple[int, int]]] = []
        last_deg: int | None = None
        while True:
            d, xi_free, cn = _top(num, fs)
            if d == w_stop:
                if not level:
                    raise InvariantViolationError(
                        "raised power already sits on the stopping exponent",
                        k=k,
                        stopping=w_stop,
                    )
                break
            if d < w_stop or (last_deg is not None and d >= last_deg):
                raise InvariantViolationError(
                    "absorption failed to descend onto the stopping exponent",
                    k=k,
                    degree=d,
                    stopping=w_stop,
                    previous=last_deg,
                    series=repr(_canonical(XI, dict(num), den)),
                )
            if not xi_free:
                raise InvariantViolationError(
                    "xi-dependent coefficient above the stopping exponent",
                    coefficient=repr(_canonical(XI, dict(num), den).leading()),
                    k=k,
                    degree=d,
                    stopping=w_stop,
                )
            last_deg = d
            a0, betas = _decompose(d, plan)
            key = (a0, *betas)
            if betas in corrections:
                correction, fc, ln = corrections[betas]
            else:
                correction, fc = _product(powers, betas, times, (_ONE, -inf))
                _, xi_free, ln = _top(correction._num, fc)
                if not xi_free:
                    raise InvariantViolationError(
                        "xi-dependent leading coefficient in a correction factor",
                        coefficient=repr(correction.leading()),
                        k=k,
                        key=key,
                    )
                corrections[betas] = correction, fc, ln
            # the coefficient (cn/den) / (ln/correction.den), in lowest terms
            # over a positive denominator, cancels the top term; x^a0 shifts
            # the correction by a0*omega_0
            n, m = cn * correction.den, den * ln
            if m < 0:
                n, m = -n, -m
            h = gcd(n, m)
            n, m = n // h, m // h
            level.append((key, (n, m)))
            shift = a0 * omegas[0]
            den = _subtract_into(num, den, correction, n, m, _x_offset(shift, XI))
            fs = max(fs, fc + shift)
        steps.append(level)
        powers[(k + 1, 1)] = _canonical(XI, num, den), fs
        omegas.append(w_stop)
    return omegas, steps


@lru_cache(maxsize=None)
def _lift_names(k: int) -> tuple[str, ...]:
    return ("x",) + tuple(f"y{j}" for j in range(1, k + 1))


def _stopping_exponent(s: Poly, floor, k: int, l: int, cum) -> int:
    """Next pole position, read off the freshly raised power, which is
    exact at or above floor.

    Below the final level: the largest semidegree that is not a multiple of
    delta_x/(p_1..p_k) (delta_x = cum[-1]).  At the final level: the largest
    semidegree whose coefficient actually involves xi.
    """
    if k < l:
        step = cum[-1] // cum[k - 1]
        cand = [e for e in s._exponents(0) if e % step and e >= floor]
        what = "exponent outside the current lattice"
    else:
        cand = [e for e, d in zip(s._exponents(0), s._exponents(1)) if d >= 1 and e >= floor]
        what = "xi-dependent exponent"
    if not cand and floor > -inf:
        raise _WindowTooSmall
    if not cand:
        raise InvariantViolationError(
            f"no {what} in the raised power",
            k=k,
            series=repr(s),
        )
    return max(cand)


def all_key_forms(g: GenericDPS) -> tuple[Poly, ...]:
    """The full key-form chain: x, the head truncations of f_1, and every
    intermediate absorption state, ending at the last essential form."""
    return tuple(f for f, _ in essential_key_forms(g).chain())
