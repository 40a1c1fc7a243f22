"""Seeded corpora for the four benchmark workloads.

Every item is plain JSON data (strings, integers, lists), so a corpus can be
compared byte for byte.  The generators sample germs by input properties
only -- pair count, polydromy, r and coefficient size -- and cap them with
limits written in terms of those properties, never of a measured time.  The
numbers in the caps were chosen so that no seeded item dominates a run of
the code the benchmark was defined on; the anchor items come from the
ROADMAP baseline table and are the same for every seed.

Nothing here imports the package under test.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

WORKLOADS = ("analyze_germs", "classify_census", "dualgraph_check", "cli_cold")

# small nonzero coefficients: numerator and denominator sizes are the
# "coefficient size" property of an analyze_germs item
COEFF_NUMS = (-3, -2, -1, 1, 2, 3)
COEFF_DENS = (1, 2, 3)


# --- pair arithmetic (input properties) -------------------------------------


def polydromy(pairs) -> int:
    p = 1
    for _, pk in pairs:
        p *= pk
    return p


def char_exponents(pairs) -> list[Fraction]:
    """q_k / (p_1..p_k) for each local pair."""
    out, acc = [], 1
    for q, pk in pairs:
        acc *= pk
        out.append(Fraction(q, acc))
    return out


def r_bound(pairs) -> int:
    """p^2 - alpha(pairs, 0): the configuration is contractible exactly for
    r below this (for tangent germs).  The generators use it only to place r
    around the contractibility threshold."""
    exps = char_exponents(pairs)
    total, tail = Fraction(0), 1
    for k in range(len(pairs) - 1, -1, -1):
        pk = pairs[k][1]
        total += (pk - 1) * tail * exps[k]
        tail *= pk
    p = polydromy(pairs)
    alpha0 = p * total + pairs[-1][0]
    return p * p - int(alpha0)


def _coprime(q: int, p: int) -> bool:
    return gcd(q, p) == 1


def spread(rng: random.Random, n: int, dim: str) -> list[float]:
    """n draws in [0, 1), one in each of n equal slices.  The order of the
    slices is fixed per dimension name, not by the seed, so item i sits at the
    same grid point of (p, q, r) for every seed and the seed moves it only
    within its slice.  That keeps the size mix of a corpus, and so its cost
    profile, steady from seed to seed."""
    order = list(range(n))
    random.Random(f"grid:{dim}:{n}").shuffle(order)
    return [(i + rng.random()) / n for i in order]


def _pick(seq, u: float):
    return seq[int(u * len(seq))]


def _in_range(lo: int, hi: int, u: float) -> int:
    return lo + int(u * (hi - lo + 1))


def _next_pair(q_prev: int, pk: int, span: int, u: float) -> tuple[int, int]:
    """(q_k, p_k) with q_k/(p_1..p_k) above the exponent of the pair before,
    whose numerator is q_prev: q_k is one of the next `span` integers after
    q_prev * p_k that are coprime to p_k, picked by u."""
    lo = q_prev * pk
    return _pick([q for q in range(lo + 1, lo + span + 1) if _coprime(q, pk)], u), pk


def _tangent_first(p1: int, u: float) -> tuple[int, int]:
    """(q, p1) with q < p1 coprime to it, q picked by u in [0, 1)."""
    return _pick([q for q in range(1, p1) if _coprime(q, p1)], u), p1


def _fmt_exp(e: Fraction) -> str:
    return f"^{e.numerator}" if e.denominator == 1 else f"^({e})"


def format_series(terms) -> str:
    """terms: (exponent, coefficient) in increasing exponent order."""
    out = []
    for e, c in terms:
        mag = abs(c)
        body = f"u{_fmt_exp(e)}" if mag == 1 else f"{mag}*u{_fmt_exp(e)}"
        if not out:
            out.append(body if c > 0 else f"-{body}")
        else:
            out.append(("+ " if c > 0 else "- ") + body)
    return " ".join(out)


def bit_size(pairs, r: int, coeffs=()) -> int:
    """Bits of every integer in the input: pairs, r and coefficients."""
    ints = [abs(v) for pr in pairs for v in pr] + [r]
    for c in coeffs:
        ints += [abs(c.numerator), c.denominator]
    return sum(max(1, v.bit_length()) for v in ints)


def _properties(pairs, r, coeffs=()) -> dict:
    return {
        "pairs": [list(pr) for pr in pairs],
        "npairs": len(pairs),
        "polydromy": polydromy(pairs),
        "r": r,
        "bits": bit_size(pairs, r, coeffs),
    }


# --- analyze_germs ------------------------------------------------------------

# key-form cost grows with the polydromy and with r; the caps bound both
ANALYZE_STRATA = (
    # (label, count, pair count, p_1 choices, later p_k choices, max polydromy)
    ("one", 112, 1, (2, 3, 4, 5, 6, 7, 8, 9), (), 9),
    ("two", 80, 2, (2, 3, 4, 5), (2, 3), 12),
    ("three", 24, 3, (2,), (2,), 8),
)
ANALYZE_R_PAST = 2  # r runs up to this much past the contractibility bound


def within_caps(npairs: int, p: int, r: int) -> bool:
    """Do these properties lie inside what the analyze_germs generator draws?"""
    pmax = {n: pm for _, _, n, _, _, pm in ANALYZE_STRATA}
    return npairs in pmax and p <= pmax[npairs] and r <= analyze_cap(npairs, p)


def analyze_cap(npairs: int, p: int) -> int:
    """Largest r drawn for a germ with this pair count and polydromy."""
    if npairs == 1:
        return 60
    if npairs == 2:
        return 24 if p <= 8 else 8 if p <= 10 else 4
    return 12


ANALYZE_ANCHORS = (
    ("anchor-cusp-r8", "u^(3/5) + u^2", 8, [(3, 5)]),
    ("anchor-2pair-r1", "u^(3/5) + u^(23/10)", 1, [(3, 5), (23, 2)]),
    ("anchor-2pair-r40", "u^(7/11) + u^(15/22)", 40, [(7, 11), (15, 2)]),
    ("anchor-3pair-r3", "u^(5/7) + u^(11/14) + u^(23/28)", 3, [(5, 7), (11, 2), (23, 2)]),
)

# inputs with no characteristic pair: the decision functions must refuse
# them with a PreconditionError (mirrors analyze on a smooth germ)
ANALYZE_SMOOTH = ("u^2", "u^2 - 1/2*u^3", "3*u^4 + u^5")


def _random_coeff(rng: random.Random) -> Fraction:
    return Fraction(rng.choice(COEFF_NUMS), rng.choice(COEFF_DENS))


def _extra_exponent(pairs, u_level: float, u_exp: float) -> Fraction:
    """A non-characteristic exponent: on the lattice of some level k and
    strictly between the k-th and (k+1)-th characteristic exponents (or above
    the last one), so it changes no pair."""
    exps = char_exponents(pairs)
    k = int(u_level * len(pairs))
    den = polydromy(pairs[: k + 1])
    lo = exps[k]
    hi = exps[k + 1] if k + 1 < len(exps) else lo + 1
    cands = [
        Fraction(n, den)
        for n in range(int(lo * den) + 1, int(hi * den) + 1)
        if lo < Fraction(n, den) < hi
    ]
    if not cands:  # adjacent exponents: put the term above the last one
        return exps[-1] + 1
    return _pick(cands, u_exp)


def _pairs_above(first, npairs: int, pks, span_factor: int, p_range, draws):
    """Extend the first pair to npairs pairs.  draws holds one (u_p, u_q)
    per later pair; p_k is picked among the choices from which the polydromy
    can still end inside p_range."""
    lo, hi = p_range
    pairs = [first]
    for left, (u_p, u_q) in zip(range(npairs - 1, 0, -1), draws):
        cur = polydromy(pairs)
        ok = [pk for pk in pks
              if cur * pk * min(pks) ** (left - 1) <= hi and cur * pk * max(pks) ** (left - 1) >= lo]
        pairs.append(_next_pair(pairs[-1][0], _pick(ok, u_p), span_factor * cur, u_q))
    return pairs


def _grid(rng: random.Random, n: int, label: str, dims: str = "pqrabcd"):
    """Per item, one draw per dimension named in dims: p and q of the first
    pair, r, and (a, b), (c, d) for p_k and q_k of the second and third."""
    return list(zip(*(spread(rng, n, f"{label}-{d}") for d in dims)))


def analyze_corpus(seed: int) -> list[dict]:
    rng = random.Random(f"analyze_germs:{seed}")
    items = []
    for ident, series, r, pairs in ANALYZE_ANCHORS:
        items.append({"id": ident, "series": series, "expect": "verdict", **_properties(pairs, r)})
    for label, count, npairs, p1s, pks, pmax in ANALYZE_STRATA:
        for i, (u_p, u_q, u_r, u_e, u_f, *later) in enumerate(_grid(rng, count, label, "pqrefabcd")):
            first = _tangent_first(_pick(p1s, u_p), u_q)
            pairs = _pairs_above(first, npairs, pks, 2, (1, pmax), zip(later[::2], later[1::2]))
            top = max(0, r_bound(pairs)) + ANALYZE_R_PAST
            r = _in_range(0, min(top, analyze_cap(npairs, polydromy(pairs))), u_r)
            terms = {e: _random_coeff(rng) for e in char_exponents(pairs)}
            terms[_extra_exponent(pairs, u_e, u_f)] = _random_coeff(rng)
            items.append({
                "id": f"{label}-{i}",
                "series": format_series(sorted(terms.items())),
                "expect": "verdict",
                **_properties(pairs, r, terms.values()),
            })
    for i, series in enumerate(ANALYZE_SMOOTH):
        items.append({"id": f"smooth-{i}", "series": series, "expect": "precondition",
                      **_properties([], rng.randint(0, 5))})
    return items


# --- classify_census -------------------------------------------------------------

CLASSIFY_SINGLE = 80  # single pairs with p in CLASSIFY_P
CLASSIFY_P = (30, 120)
CLASSIFY_MULTI = 48  # 2-3 pair data with polydromy in CLASSIFY_MULTI_P
CLASSIFY_MULTI_P = (100, 400)
CLASSIFY_MULTI_P1 = {2: (20, 80), 3: (5, 40)}  # p_1 range per pair count; every p_1 can reach the polydromy range
CLASSIFY_R_PAST = 3


def classify_cap(p: int) -> int:
    """Largest r drawn for polydromy p.  The S2 scan costs about
    window * p / 64 word operations and the window grows with r, so the cap
    keeps p^2 * r bounded."""
    return 20_000_000 // (p * p)


CLASSIFY_ANCHORS = (("anchor-1-200-r500", [(1, 200)], 500),)


def classify_corpus(seed: int) -> list[dict]:
    rng = random.Random(f"classify_census:{seed}")
    items = [{"id": ident, **_properties(pairs, r)} for ident, pairs, r in CLASSIFY_ANCHORS]
    for i, (u_p, u_q, u_r) in enumerate(_grid(rng, CLASSIFY_SINGLE, "single", "pqr")):
        pairs = [_tangent_first(_in_range(*CLASSIFY_P, u_p), u_q)]
        p = pairs[0][1]
        r = _in_range(0, min(max(0, r_bound(pairs)) + CLASSIFY_R_PAST, classify_cap(p)), u_r)
        items.append({"id": f"single-{i}", **_properties(pairs, r)})
    for i, (u_p, u_q, u_r, *later) in enumerate(_grid(rng, CLASSIFY_MULTI, "multi")):
        npairs = 2 + i % 2
        first = _tangent_first(_in_range(*CLASSIFY_MULTI_P1[npairs], u_p), u_q)
        pairs = _pairs_above(first, npairs, (2, 3, 5), 3, CLASSIFY_MULTI_P, zip(later[::2], later[1::2]))
        p = polydromy(pairs)
        r = _in_range(0, min(max(0, r_bound(pairs)) + CLASSIFY_R_PAST, classify_cap(p)), u_r)
        items.append({"id": f"multi-{i}", **_properties(pairs, r)})
    return items


# --- dualgraph_check ---------------------------------------------------------------

DUAL_SINGLE = 68  # single pairs at large r: the dense elimination dominates
DUAL_SINGLE_P = (5, 40)
DUAL_SINGLE_N = (90, 200)  # target vertex count, about sum of Euclid quotients + r
DUAL_MULTI = 40  # multi-pair data at moderate r: the simulator dominates
DUAL_MULTI_P = (4, 12)


def dual_multi_cap(p: int) -> int:
    """Largest r drawn for a multi-pair germ of polydromy p: the
    rational-function simulator grows with both."""
    return 128 // p


DUAL_ANCHORS = (
    ("anchor-cusp-r8", [(3, 5)], 8),
    ("anchor-2pair-r1", [(3, 5), (23, 2)], 1),
    ("anchor-2pair-r40", [(7, 11), (15, 2)], 40),
    ("anchor-3pair-r3", [(5, 7), (11, 2), (23, 2)], 3),
)


def euclid_quotient_sum(q: int, p: int) -> int:
    a, b, total = p, q, 0
    while b:
        total += a // b
        a, b = b, a % b
    return total


def dualgraph_corpus(seed: int) -> list[dict]:
    rng = random.Random(f"dualgraph_check:{seed}")
    items = [{"id": ident, **_properties(pairs, r)} for ident, pairs, r in DUAL_ANCHORS]
    for i, (u_p, u_q, u_n) in enumerate(_grid(rng, DUAL_SINGLE, "single", "pqn")):
        pairs = [_tangent_first(_in_range(*DUAL_SINGLE_P, u_p), u_q)]
        r = max(0, _in_range(*DUAL_SINGLE_N, u_n) - euclid_quotient_sum(*pairs[0]))
        items.append({"id": f"single-{i}", **_properties(pairs, r)})
    for i, (u_p, u_q, u_r, u_a, u_b) in enumerate(_grid(rng, DUAL_MULTI, "multi", "pqrab")):
        first = _tangent_first(_pick((2, 3, 4, 5), u_p), u_q)
        pairs = _pairs_above(first, 2, (2, 3), 2, DUAL_MULTI_P, [(u_a, u_b)])
        r = _in_range(0, min(max(0, r_bound(pairs)) + 2, dual_multi_cap(polydromy(pairs))), u_r)
        items.append({"id": f"multi-{i}", **_properties(pairs, r)})
    return items


# --- cli_cold ------------------------------------------------------------------------

CLI_PER_KIND = 6  # items per subcommand
CLI_ERRORS = 3  # items per expected non-zero exit code


def cli_corpus(seed: int) -> list[dict]:
    """Cheap inputs for each of the six subcommands with --json, plus inputs
    that must exit 2 (unparseable) or 3 (violated precondition)."""
    rng = random.Random(f"cli_cold:{seed}")
    items = []

    def add(kind, i, argv, exit_code=0):
        items.append({"id": f"{kind}-{i}", "argv": argv, "exit": exit_code})

    for i in range(CLI_PER_KIND):
        pairs = [_tangent_first(rng.randint(2, 7), rng.random())]
        r = rng.randint(0, max(0, r_bound(pairs)) + 1)
        coeffs = [_random_coeff(rng) for _ in range(2)]
        e1 = char_exponents(pairs)[0]
        series = format_series([(e1, coeffs[0]), (Fraction(2), coeffs[1])])
        add("analyze", i, ["analyze", "--series", series, "--r", str(r), "--json"])
        add("keyforms", i, ["keyforms", "--series", series, "--r", str(r), "--json"])
        two = pairs + [_next_pair(pairs[0][0], 2, 2 * pairs[0][1], rng.random())]
        pairs_text = "[" + ",".join(f"({q},{p})" for q, p in two) + "]"
        add("classify", i, ["classify", "--pairs", pairs_text, "--r", str(rng.randint(0, 6)), "--json"])
        add("dualgraph", i, ["dualgraph", "--pairs", f"[({pairs[0][0]},{pairs[0][1]})]",
                             "--r", str(rng.randint(0, 8)), "--json"])
        q, p = pairs[0]
        add("singlepair", i, ["singlepair", "--poly", f"v^{p} - u^{q}", "--p", str(p),
                              "--q", str(q), "--r", str(rng.randint(0, p * (p - q))), "--json"])
        add("sweep", i, ["sweep", "--pairs", f"[({q},{p})]", "--r-max", str(rng.randint(2, 8)),
                         "--seed", str(rng.randint(0, 99)), "--json"])
    for i in range(CLI_ERRORS):
        q, p = _tangent_first(rng.randint(3, 7), rng.random())
        add("parse-error", i, ["analyze", "--series", f"u^({q}/", "--r", "1", "--json"], 2)
        add("order-error", i, ["analyze", "--series", f"u^({p + q}/{p})", "--r", "1", "--json"], 3)
    return items


GENERATORS = {
    "analyze_germs": analyze_corpus,
    "classify_census": classify_corpus,
    "dualgraph_check": dualgraph_corpus,
    "cli_cold": cli_corpus,
}


def corpus(workload: str, seed: int) -> list[dict]:
    return GENERATORS[workload](seed)
