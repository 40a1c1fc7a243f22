"""Essential key forms of a generic degree-wise series.

The engine runs the inductive construction: f_0 = x, f_1 = y minus the
integer-exponent head of the series, and for each formal pair a power of the
previous form is corrected monomial by monomial ("absorption") until its
substituted degree drops to the next pole position.  Substituted series are
keyed by semidegrees (see semidegree), so every degree read here is already
an integer pole value.  The corrections are recorded in lifted coordinates
y_1..y_k (one variable per form), so each step also returns the lift F_{k+1}
in Q[x, x^-1, y_1..y_k] with f_{k+1} = F_{k+1}(x, f_1, ..., f_k).

The absorbed semidegrees are multiples of delta_x/(p_1..p_k) while k is not
final, and carry xi-free coefficients; both facts are enforced at runtime and
raised as invariant violations with a state dump if they ever fail, since the
decomposition of the target weight over (omega_0..omega_k) with bounded
middle coefficients only exists under them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import InvariantViolationError, PreconditionError
from .poly import Poly
from .semidegree import XY, GenericDPS, substitute


@dataclass(frozen=True)
class EssentialKeyForms:
    """Output of the key-form construction.

    forms[k] is the k-th essential key form in Q[x, x^-1, y] (forms[0] = x),
    lifts[k-1] its expression in the previous forms, omegas the pole values
    delta(f_k) (omega_0 = delta_x through omega_{l+1}), alphas the formal
    pair p's.  all_forms, when requested, is the full chain including the
    head truncations of f_1 and every intermediate absorption state.
    """

    source: GenericDPS
    forms: tuple[Poly, ...]
    lifts: tuple[Poly, ...]
    omegas: tuple[int, ...]
    alphas: tuple[int, ...]
    all_forms: tuple[Poly, ...] | None = None

    @property
    def l(self) -> int:
        return len(self.forms) - 2

    def last(self) -> Poly:
        return self.forms[-1]


def is_polynomial(f: Poly) -> bool:
    """No negative x-exponents (the zero polynomial counts as polynomial)."""
    return f.is_zero() or f.ord() >= 0


def _decompose_weight(target: int, omegas, ps) -> tuple[int, tuple[int, ...]]:
    """Unique (a, (b_1..b_k)) with a*omega_0 + sum b_j omega_j = target,
    0 <= b_j < p_j.  Existence needs gcd(omega_0..omega_{j-1}) | things, which
    holds exactly on the lattice targets the absorption loop produces."""
    k = len(omegas) - 1
    if len(ps) != k:
        raise InvariantViolationError(
            "one bound p_j per pole after omega_0 expected", omegas=tuple(omegas), ps=tuple(ps)
        )
    t = target
    betas = [0] * k
    for j in range(k, 0, -1):
        g = 0
        for w in omegas[:j]:
            g = gcd(g, w)
        found = [b for b in range(ps[j - 1]) if (t - b * omegas[j]) % g == 0]
        if len(found) != 1:
            raise InvariantViolationError(
                "weight decomposition not unique",
                target=target,
                omegas=tuple(omegas),
                ps=tuple(ps),
                j=j,
                candidates=found,
            )
        betas[j - 1] = found[0]
        t -= found[0] * omegas[j]
    if t % omegas[0] != 0:
        raise InvariantViolationError(
            "x-part of the weight decomposition is fractional",
            target=target,
            omegas=tuple(omegas),
            remainder=t,
        )
    return t // omegas[0], tuple(betas)


def omega_decompose(n: int, k: int, keys: EssentialKeyForms) -> tuple[int, tuple[int, ...]]:
    """Represent n over the poles of the first k+1 forms: returns (a, betas)
    with a*omega_0 + sum_j betas[j]*omega_j = n * p_{k+1}..p_{l+1} and
    0 <= betas[j] < p_{j+1}."""
    pairs = keys.source.formal_pairs
    if not 0 <= k <= len(pairs):
        raise PreconditionError(f"k = {k} out of range")
    scale = 1
    for _, p in pairs[k:]:
        scale *= p
    ps = [p for _, p in pairs[:k]]
    return _decompose_weight(n * scale, keys.omegas[: k + 1], ps)


def _integer_head(g: GenericDPS) -> list[tuple[Fraction, Fraction]]:
    """Terms of phi above the first formal exponent, most significant first.
    Their exponents are integral by construction of the pairs."""
    e1 = g.formal_exponents()[0]
    head = [(e, c) for e, c in g.phi.terms.items() if e > e1]
    head.sort(key=lambda t: -t[0])
    for e, _ in head:
        if e.denominator != 1:
            raise InvariantViolationError(
                "fractional exponent above the first formal exponent",
                exponent=e,
                first_formal=e1,
            )
    return head


def essential_key_forms(g: GenericDPS, want_all: bool = False) -> EssentialKeyForms:
    """Run the full construction on a generic degree-wise series."""
    pairs = g.formal_pairs
    cum = g.cumulative_p()
    delta_x = g.delta_x
    l = g.l

    x = Poly.monomial(XY, (1, 0))
    forms: list[Poly] = [x]
    chain: list[Poly] = [x]

    head = _integer_head(g)
    f1 = Poly.monomial(XY, (0, 1))
    if want_all:
        chain.append(f1)
    for e, c in head:
        f1 = f1 - Poly.monomial(XY, (int(e), 0), c)
        if want_all:
            chain.append(f1)
    forms.append(f1)
    # F_1 is f_1 with y written as y_1 (there is no previous y-form to lift to)
    lifts: list[Poly] = [
        Poly(_lift_names(1), {(0, 1): 1, **{(int(e), 0): -c for e, c in head}})
    ]

    subs: list[Poly] = [substitute(x, g), substitute(f1, g)]
    omegas: list[int] = [delta_x, subs[1].deg()]

    for k in range(1, l + 1):
        p_k = pairs[k - 1][1]
        names = _lift_names(k)
        lift = {(0,) * k + (p_k,): Fraction(1)}
        s = subs[k] ** p_k
        w_stop = _stopping_exponent(s, k, l, cum)
        pow_cache: dict[tuple[int, int], Poly] = {}
        last_deg: int | None = None
        absorbed = 0
        while True:
            d = s.deg()
            if d == w_stop:
                if absorbed == 0:
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
                    series=repr(s),
                )
            last_deg = d
            c = _xi_free_lead(
                s, "xi-dependent coefficient above the stopping exponent",
                k=k, degree=d, stopping=w_stop,
            )
            a0, betas = _decompose_weight(d, omegas[: k + 1], [p for _, p in pairs[:k]])
            key = (a0, *betas)
            # x^a0 * f_1^b_1 ... f_k^b_k substituted, then scaled to cancel the top term
            correction = Poly.monomial(names, key).evaluate(subs, pow_cache)
            coef = c / _xi_free_lead(
                correction, "xi-dependent leading coefficient in a correction factor",
                k=k, key=key,
            )
            lift[key] = lift.get(key, 0) - coef
            s = s - correction.scale(coef)
            absorbed += 1
            if want_all:
                chain.append(Poly(names, lift).evaluate(forms))
        lift = Poly(names, lift)
        lifts.append(lift)
        forms.append(chain[-1] if want_all else lift.evaluate(forms))
        subs.append(s)
        omegas.append(w_stop)

    result = EssentialKeyForms(
        source=g,
        forms=tuple(forms),
        lifts=tuple(lifts),
        omegas=tuple(omegas),
        alphas=tuple(p for _, p in pairs),
        all_forms=tuple(chain) if want_all else None,
    )
    _check_gcd_structure(result)
    return result


def _lift_names(k: int) -> tuple[str, ...]:
    return ("x",) + tuple(f"y{j}" for j in range(1, k + 1))


def _xi_free_lead(s: Poly, message: str, **state) -> Fraction:
    """Coefficient of the top power of x in a series keyed (x, xi), which
    must not involve xi."""
    lead = s.leading()
    if lead.deg(1) != 0:
        raise InvariantViolationError(message, coefficient=repr(lead), **state)
    (c,) = lead.terms.values()
    return c


def _stopping_exponent(s: Poly, k: int, l: int, cum) -> int:
    """Next pole position, read off the freshly raised power.

    Below the final level: the largest semidegree that is not a multiple of
    delta_x/(p_1..p_k) (delta_x = cum[-1]).  At the final level: the largest
    semidegree whose coefficient actually involves xi.
    """
    if k < l:
        step = cum[-1] // cum[k - 1]
        cand = [e for e, _ in s.terms if e % step]
        what = "exponent outside the current lattice"
    else:
        cand = [e for e, d in s.terms if d >= 1]
        what = "xi-dependent exponent"
    if not cand:
        raise InvariantViolationError(
            f"no {what} in the raised power",
            k=k,
            series=repr(s),
        )
    return max(cand)


def _check_gcd_structure(keys: EssentialKeyForms) -> None:
    """gcd(omega_0..omega_k) = p_{k+1}..p_{l+1} for every k."""
    pairs = keys.source.formal_pairs
    g = 0
    for k, w in enumerate(keys.omegas):
        g = gcd(g, w)
        tail = 1
        for _, p in pairs[k:]:
            tail *= p
        if g != tail:
            raise InvariantViolationError(
                "pole gcd structure broken",
                k=k,
                gcd=g,
                expected=tail,
                omegas=keys.omegas,
            )


def all_key_forms(g: GenericDPS) -> tuple[Poly, ...]:
    """The full key-form chain: x, the head truncations of f_1, and every
    intermediate absorption state, ending at the last essential form."""
    return essential_key_forms(g, want_all=True).all_forms
