"""Independent oracles used to freeze expected values in the test suite.

Nothing in here imports the package under test.  Each oracle recomputes a
quantity from first principles by a different route than the library:

* ``alpha_oracle`` -- the contact invariant as an actual intersection
  multiplicity: build the Weierstrass polynomial of the germ as a resultant
  (sympy), substitute the parametrization of the generic comparison germ with
  a symbolic coefficient, and read off the vanishing order in ``t``.
* ``semigroup_member_bruteforce`` -- membership in a numerical semigroup by
  exhaustive enumeration of coefficient vectors.
* ``semigroup_member_fixpoint`` -- the same membership for large n: the
  reachable set as a bitmask of n + 1 bits, closed under each generator one
  shift at a time until it stops changing (the package doubles the shift).
* ``decompose_bruteforce`` -- all representations of an integer over a weight
  vector with bounded middle coefficients (uniqueness oracle).
* ``dual_graph_oracle`` -- the weighted dual graph by simulating the blow-ups
  on an exact parametrization: the branch is followed through the charts as
  a pair of rational functions in t.
* ``dual_graph_stepwise_oracle`` -- the same dual graph from the vanishing
  orders alone, one blow-up at a time with a set of edges (the package lays
  down one Euclid run at a time); cheap enough for r in the hundreds of
  thousands and for germs past the simulation's reach.
* ``tilde_omegas_oracle`` -- the semigroup generators w~_k as the weighted
  sum of the lower characteristic exponents, in Fractions, one sum per level.
* ``negative_definite_oracle`` -- negative definiteness of a symmetric
  matrix by dense Gaussian elimination in the natural order, checking the
  sign of every leading principal minor (Sylvester's criterion), O(n^3).
* ``graph_json_oracle`` -- the JSON export of a dual graph as the standard
  library writes it: ``json.dumps`` of the document with sorted keys and an
  indent of 2 (the package writes the same text itself).
* ``product_oracle`` / ``evaluate_oracle`` -- sparse polynomial products and
  substitutions term by term in Fraction arithmetic, on plain dicts from
  exponent tuples to coefficients (the package multiplies integer
  numerators over a common denominator).
* ``puiseux_oracle`` -- the views of a finite Puiseux series from a plain
  dict of Fraction exponents to Fraction coefficients (the package stores
  integer numerators over one exponent and one coefficient denominator).
* ``poly_oracle`` -- a sparse polynomial as a plain dict from exponent
  tuples to Fractions, every operation done term by term (the package packs
  each exponent tuple into one int and keeps integer numerators).
* ``parse_terms_oracle`` -- the series and polynomial text read one
  character at a time by a scanner object (the package tokenizes the text
  with one regular expression); on a digit that ``int`` cannot read, such
  as ``²``, it raises a bare ``ValueError``.

Run as a script to print the frozen values used in the deterministic tests.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from math import gcd, lcm

import sympy


def _check_local_pairs(pairs: list[tuple[int, int]]) -> None:
    prev = Fraction(0)
    acc = 1
    for q, p in pairs:
        assert p >= 2 and q >= 1 and gcd(q, p) == 1
        acc *= p
        exp = Fraction(q, acc)
        assert exp > prev
        prev = exp


def alpha_oracle(pairs: list[tuple[int, int]], r: int) -> int:
    """Intersection multiplicity of the all-ones representative with the
    generic comparison germ carrying a symbolic coefficient.

    The representative is v = sum_k u^(qt_k/(p_1..p_k)); the comparison germ
    is v = (the same series truncated strictly below theta) + xi*u^theta with
    theta = (qt_last + r)/p.  Both are parametrized by u = t^p and the
    multiplicity is the t-order of f_C evaluated on the comparison
    parametrization, where f_C is the Weierstrass polynomial of the
    representative obtained as Res_s(s^p - u, v - phi(s)).
    """
    _check_local_pairs(pairs)
    p = 1
    for _, pk in pairs:
        p *= pk
    # monomial exponents of the representative, in t after u = t^p
    acc = 1
    texps = []
    for q, pk in pairs:
        acc *= pk
        texps.append(q * (p // acc))  # q/(p_1..p_k) * p
    u, v, s, t, xi = sympy.symbols("u v s t xi")
    phi_s = sum(s**e for e in texps)  # phi(u) with s = u^(1/p)
    f_c = sympy.expand(sympy.resultant(s**p - u, v - phi_s, s))
    theta_t = texps[-1] + r  # p * theta, an integer
    v_gen = sum(t**e for e in texps if e < theta_t) + xi * t**theta_t
    val = sympy.expand(f_c.subs({u: t**p, v: v_gen}))
    poly = sympy.Poly(val, t)
    ords = [mono[0] for mono, coeff in zip(poly.monoms(), poly.coeffs()) if coeff != 0]
    return min(ords)


def semigroup_member_bruteforce(n: int, gens: list[int]) -> bool:
    """Is n a non-negative integer combination of gens?  Exhaustive search."""
    assert all(g > 0 for g in gens)
    if n < 0:
        return False
    ranges = [range(n // g + 1) for g in gens]
    return any(
        sum(c * g for c, g in zip(combo, gens)) == n
        for combo in itertools.product(*ranges)
    )


def semigroup_member_fixpoint(n: int, gens: list[int]) -> bool:
    """Is n a non-negative integer combination of gens?  One shift by g at a
    time, masked to n + 1 bits, until the reachable set is closed."""
    assert all(g > 0 for g in gens)
    if n < 0:
        return False
    mask = (1 << (n + 1)) - 1
    reach = 1  # bit i set iff i is reachable
    for g in gens:
        while True:
            grown = (reach | (reach << g)) & mask
            if grown == reach:
                break
            reach = grown
    return bool(reach >> n & 1)


def decompose_bruteforce(
    target: int, omegas: list[int], ps: list[int]
) -> list[tuple[int, tuple[int, ...]]]:
    """All (a, (b_1..b_k)) with a*omega_0 + sum b_j*omega_j = target and
    0 <= b_j < p_j.  The engine's decomposition is the unique element."""
    k = len(omegas) - 1
    assert len(ps) == k
    out = []
    for betas in itertools.product(*[range(pj) for pj in ps]):
        rest = target - sum(b * w for b, w in zip(betas, omegas[1:]))
        if rest % omegas[0] == 0:
            out.append((rest // omegas[0], betas))
    return out


# --- Puiseux series ------------------------------------------------------------


def puiseux_oracle(terms, local: bool) -> dict:
    """The series sum c*var^e over the (e, c) pairs of terms (each an int,
    Fraction or str), local or degree-wise, as a plain dict of Fractions
    with its views: "terms" (zero coefficients dropped, a repeated exponent
    raises ValueError), "support" in order of significance (ascending
    local, descending degree-wise), "lead" (ord of a local series, deg of a
    degree-wise one; None when zero) and "polydromy" (lcm of the exponent
    denominators)."""
    out: dict[Fraction, Fraction] = {}
    for e, c in terms:
        e, c = Fraction(e), Fraction(c)
        if not c:
            continue
        if e in out:
            raise ValueError(f"duplicate exponent {e}")
        out[e] = c
    support = tuple(sorted(out, reverse=not local))
    polydromy = 1
    for e in out:
        polydromy = lcm(polydromy, e.denominator)
    return {
        "terms": out,
        "support": support,
        "lead": support[0] if support else None,
        "polydromy": polydromy,
    }


# --- series text ---------------------------------------------------------------


class SeriesParseError(ValueError):
    """The package's parse error, restated so this module imports nothing of
    the package: the message with its position, and the position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.i = 0

    def skip_ws(self):
        while self.i < len(self.text) and self.text[self.i].isspace():
            self.i += 1

    def peek(self) -> str:
        return self.text[self.i] if self.i < len(self.text) else ""

    def take(self) -> str:
        ch = self.peek()
        self.i += 1
        return ch

    def fail(self, message: str):
        raise SeriesParseError(message, self.i)

    def integer(self) -> int:
        self.skip_ws()
        start = self.i
        if self.peek() == "-":
            self.i += 1
        if not self.peek().isdigit():
            self.fail("expected an integer")
        while self.peek().isdigit():
            self.i += 1
        return int(self.text[start : self.i])

    def rational(self) -> tuple[int, int]:
        """integer ['/' integer] as a reduced numerator and positive
        denominator; the denominator takes no sign."""
        num = self.integer()
        if self.peek() != "/":
            return num, 1
        self.i += 1
        pos = self.i
        self.skip_ws()
        if self.peek() in ("+", "-"):
            self.fail("sign in a denominator")
        den = self.integer()
        if den == 0:
            raise SeriesParseError("zero denominator", pos)
        g = gcd(num, den)
        return num // g, den // g

    def exponent(self) -> tuple[int, int]:
        self.skip_ws()
        if self.peek() == "(":
            self.i += 1
            value = self.rational()
            self.skip_ws()
            if self.peek() != ")":
                self.fail("expected ')'")
            self.i += 1
            return value
        return self.integer(), 1


def _parse_term(sc: _Scanner, variables) -> tuple[tuple[int, int], dict[str, tuple[int, int]]]:
    """One unsigned term: '*'-separated factors, at most one leading
    coefficient, each variable at most once.  Returns (coeff, var -> exp),
    each rational as a reduced (numerator, denominator) pair."""
    coeff = (1, 1)
    powers: dict[str, tuple[int, int]] = {}
    saw_factor = False
    while True:
        sc.skip_ws()
        ch = sc.peek()
        if ch.isdigit():
            if saw_factor:
                sc.fail("coefficient must come first in a term")
            coeff = sc.rational()
        elif ch.isalpha():
            name = sc.take()
            while sc.peek().isdigit():
                name += sc.take()
            if name not in variables:
                sc.fail(f"unknown variable {name!r}")
            if name in powers:
                sc.fail(f"variable {name!r} repeated in one term")
            exp = (1, 1)
            sc.skip_ws()
            if sc.peek() == "^":
                sc.i += 1
                exp = sc.exponent()
            powers[name] = exp
        else:
            sc.fail("expected a coefficient or a variable")
        saw_factor = True
        sc.skip_ws()
        if sc.peek() == "*":
            sc.i += 1
            continue
        return coeff, powers


def parse_terms_oracle(text: str, variables):
    """Signed-sum driver shared by the series and polynomial parsers.

    Yields (signed coefficient, variable -> exponent, term position) per
    term, each rational as a reduced (numerator, denominator) pair.
    """
    sc = _Scanner(text)
    sc.skip_ws()
    if not sc.peek():
        sc.fail("empty input")
    sign = 1
    if sc.peek() == "-":
        sc.i += 1
        sign = -1
    while True:
        sc.skip_ws()
        pos = sc.i
        (n, d), powers = _parse_term(sc, variables)
        yield (sign * n, d), powers, pos
        sc.skip_ws()
        ch = sc.peek()
        if not ch:
            return
        if ch == "+":
            sign = 1
        elif ch == "-":
            sign = -1
        else:
            sc.fail(f"unexpected {ch!r}")
        sc.i += 1


# --- sparse polynomials ------------------------------------------------------


def product_oracle(f: dict, g: dict) -> dict:
    """f*g, one Fraction product per pair of terms; zero sums dropped."""
    out: dict[tuple, Fraction] = {}
    for k1, c1 in f.items():
        for k2, c2 in g.items():
            k = tuple(a + b for a, b in zip(k1, k2))
            out[k] = out.get(k, Fraction(0)) + Fraction(c1) * Fraction(c2)
    return {k: c for k, c in out.items() if c}


def evaluate_oracle(f: dict, images: list[dict]) -> dict:
    """f(images[0], ..., images[n-1]) with images[0] a one-term dict {m: c}:
    x^a maps to c^a times the key a*m, also for negative a, and every other
    variable is raised by repeated products, with nothing shared."""
    ((m, cm),) = images[0].items()
    out: dict[tuple, Fraction] = {}
    for key, c in f.items():
        a = key[0]
        term = {tuple(a * e for e in m): Fraction(c) * Fraction(cm) ** a}
        for j, e in enumerate(key[1:], 1):
            for _ in range(e):
                term = product_oracle(term, images[j])
        for k, v in term.items():
            out[k] = out.get(k, Fraction(0)) + v
    return {k: c for k, c in out.items() if c}


class poly_oracle:
    """Poly's operations on a plain dict terms from exponent tuples over
    names to nonzero Fractions.  Products and substitutions go through
    product_oracle and evaluate_oracle; the floor of mul keeps the terms
    whose first exponent is at least floor, after the whole product is
    formed."""

    def __init__(self, names, terms):
        self.names = tuple(names)
        self.terms = {tuple(k): Fraction(c) for k, c in terms.items() if c}

    def _new(self, terms: dict) -> "poly_oracle":
        return poly_oracle(self.names, terms)

    def above(self, floor) -> "poly_oracle":
        return self._new({k: c for k, c in self.terms.items() if k[0] >= floor})

    def add(self, other: "poly_oracle", sign: int = 1) -> "poly_oracle":
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, Fraction(0)) + sign * c
        return self._new(out)

    def scaled(self, c) -> "poly_oracle":
        return self._new({k: v * Fraction(c) for k, v in self.terms.items()})

    def mul(self, other: "poly_oracle", floor=float("-inf")) -> "poly_oracle":
        return self._new(product_oracle(self.terms, other.terms)).above(floor)

    def power(self, n: int) -> "poly_oracle":
        out = {(0,) * len(self.names): Fraction(1)}
        for _ in range(n):
            out = product_oracle(out, self.terms)
        return self._new(out)

    def evaluate(self, images) -> "poly_oracle":
        return poly_oracle(images[0].names, evaluate_oracle(self.terms, [i.terms for i in images]))

    def deg(self, i: int = 0) -> int:
        return max(k[i] for k in self.terms)

    def ord(self, i: int = 0) -> int:
        return min(k[i] for k in self.terms)

    def leading(self, i: int = 0) -> "poly_oracle":
        d = self.deg(i)
        return self._new({k: c for k, c in self.terms.items() if k[i] == d})


# --- dual graph by blow-up simulation ----------------------------------------


def _pmul(f: dict, g: dict) -> dict:
    out: dict[int, Fraction] = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = e1 + e2
            c = out.get(e, Fraction(0)) + c1 * c2
            if c:
                out[e] = c
            else:
                out.pop(e, None)
    return out


def _psub(f: dict, g: dict) -> dict:
    out = dict(f)
    for e, c in g.items():
        v = out.get(e, Fraction(0)) - c
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def _pscale(f: dict, c: Fraction) -> dict:
    return {e: c * v for e, v in f.items()} if c else {}


class _RatF:
    """num/den pair of polynomials in t (dict exponent -> Fraction), exact;
    common powers of t are stripped on construction."""

    __slots__ = ("num", "den")

    def __init__(self, num: dict, den: dict):
        num = {e: c for e, c in num.items() if c}
        den = {e: c for e, c in den.items() if c}
        if not den:
            raise ZeroDivisionError("zero denominator")
        if num:
            s = min(min(num), min(den))
            if s:
                num = {e - s: c for e, c in num.items()}
                den = {e - s: c for e, c in den.items()}
        self.num = num
        self.den = den

    def ord(self) -> int | None:
        """Vanishing order at t = 0; None for the zero function."""
        if not self.num:
            return None
        return min(self.num) - min(self.den)

    def lead(self) -> Fraction:
        return self.num[min(self.num)] / self.den[min(self.den)]

    def __truediv__(self, other: "_RatF") -> "_RatF":
        return _RatF(_pmul(self.num, other.den), _pmul(self.den, other.num))

    def sub_const(self, c: Fraction) -> "_RatF":
        return _RatF(_psub(self.num, _pscale(self.den, c)), self.den)


def dual_graph_oracle(pairs: list[tuple[int, int]], r: int):
    """(labels, weights, edges, estar_attachment) of the dual graph of
    (pairs, r), in the layout of the package's DualGraph.

    The curve with coefficient 1 on every characteristic exponent is followed
    through the charts as (a(t), b(t)).  Each blow-up centers at the point
    the branch sits on, updates the two tracked axis curves, decrements the
    self-intersection of every curve through the center and connects the new
    exceptional curve to them.  The simulation stops once the branch meets a
    single exceptional curve transversally, continues with r further
    blow-ups, and removes the last exceptional curve E*.
    """
    p = 1
    for _, pk in pairs:
        p *= pk
    one = {0: Fraction(1)}
    a = _RatF({p: Fraction(1)}, one)
    bterms: dict[int, Fraction] = {}
    acc = 1
    for q, pk in pairs:
        acc *= pk
        bterms[q * (p // acc)] = Fraction(1)
    b = _RatF(bterms, one)

    weights = {"Ltilde": 1}  # a line in the plane starts at +1
    order = ["Ltilde"]
    edges: set[frozenset[str]] = set()
    axis_a: str | None = "Ltilde"  # the curve {a = 0} currently is
    axis_b: str | None = None  # the curve {b = 0} currently is

    def blow_up() -> None:
        nonlocal a, b, axis_a, axis_b
        label = f"E{len(order)}"
        order.append(label)
        weights[label] = -1
        oa, ob = a.ord(), b.ord()
        assert oa is not None and oa >= 1
        assert axis_b is None or (ob is not None and ob >= 1)
        for ax in (axis_a, axis_b):
            if ax is not None:
                weights[ax] -= 1
        if axis_a is not None and axis_b is not None:
            edges.discard(frozenset((axis_a, axis_b)))
        for ax in (axis_a, axis_b):
            if ax is not None:
                edges.add(frozenset((label, ax)))
        if ob is None or oa < ob:
            b = b / a
            axis_a = label
        elif ob < oa:
            a = a / b
            axis_b = label
        else:
            quot = b / a
            b = quot.sub_const(quot.lead())
            axis_a = label
            axis_b = None

    while not (axis_b is None and a.ord() == 1):
        blow_up()
    for _ in range(r):
        blow_up()

    estar = order.pop()
    attach = sorted(
        (next(iter(e - {estar})) for e in edges if estar in e),
        key=order.index,
    )
    remaining = [e for e in edges if estar not in e]
    del weights[estar]
    index = {lab: i for i, lab in enumerate(order)}
    edge_idx = tuple(
        sorted(tuple(sorted((index[x], index[y]))) for x, y in remaining)
    )
    return order, [weights[lab] for lab in order], edge_idx, tuple(attach)


def dual_graph_stepwise_oracle(pairs: list[tuple[int, int]], r: int):
    """(labels, weights, edges, estar_attachment) of the dual graph of
    (pairs, r), in the layout of the package's DualGraph.

    The same vanishing-order construction as the package, laid down one
    blow-up at a time: each blow-up removes the edge between the two axis
    curves from a set of edges, decrements the weight of each axis curve and
    connects the new curve to them.  Linear in the number of blow-ups, so it
    reaches r in the hundreds of thousands, where dual_graph_oracle's
    rational functions do not.
    """
    _check_local_pairs(pairs)
    p = 1
    for _, pk in pairs:
        p *= pk
    acc = 1
    betas = []
    for q, pk in pairs:
        acc *= pk
        betas.append(q * (p // acc))
    assert betas[0] < p  # the germ is tangent to the line
    gaps = iter([b - a for a, b in zip(betas, betas[1:])])
    oa, ob = p, betas[0]  # ob is None once b vanishes on the branch

    weights = [1]  # vertex 0 is the line, which starts at +1 in the plane
    edges: set[tuple[int, int]] = set()  # (i, j) with i < j
    axis_a: int | None = 0  # the curve {a = 0} currently is
    axis_b: int | None = None  # the curve {b = 0} currently is

    def blow_up() -> None:
        nonlocal oa, ob, axis_a, axis_b
        new = len(weights)
        weights.append(-1)
        if axis_a is not None and axis_b is not None:
            edges.discard((min(axis_a, axis_b), max(axis_a, axis_b)))
        for ax in (axis_a, axis_b):
            if ax is not None:
                weights[ax] -= 1
                edges.add((ax, new))
        if ob is None or oa < ob:
            if ob is not None:
                ob -= oa
            axis_a = new
        elif ob < oa:
            oa -= ob
            axis_b = new
        else:
            ob = next(gaps, None)
            axis_a = new
            axis_b = None

    # minimal embedded resolution: stop once the branch is transverse to a
    # single exceptional curve
    while not (axis_b is None and oa == 1):
        blow_up()
    for _ in range(r):
        blow_up()

    estar = len(weights) - 1  # the last vertex, so j == estar on its edges
    del weights[estar]
    labels = [f"E{i}" if i else "Ltilde" for i in range(len(weights))]
    edge_list = sorted(edges)
    attach = tuple([labels[i] for i, j in edge_list if j == estar])
    return labels, weights, tuple([e for e in edge_list if e[1] != estar]), attach


def tilde_omegas_oracle(pairs: list[tuple[int, int]]) -> tuple[int, ...]:
    """(w~_0, ..., w~_lt) with w~_0 = p and
    w~_k = p * (e_k + sum_{j<k} (p_j - 1) * p_(j+1)..p_(k-1) * e_j),
    e_j = q_j/(p_1..p_j) the characteristic exponents."""
    _check_local_pairs(pairs)
    exps = []
    p = 1
    for q, pk in pairs:
        p *= pk
        exps.append(Fraction(q, p))
    out = [p]
    for k in range(1, len(pairs) + 1):
        total = exps[k - 1]
        tail = 1  # product of p_i for j < i <= k-1
        for j in range(k - 1, 0, -1):
            p_j = pairs[j - 1][1]
            total += (p_j - 1) * tail * exps[j - 1]
            tail *= p_j
        val = p * total
        assert val.denominator == 1
        out.append(int(val))
    return tuple(out)


def negative_definite_oracle(matrix) -> bool:
    """Exact sign test on a symmetric matrix: the k-th leading principal
    minor must have sign (-1)^k for every k."""
    n = len(matrix)
    a = [[Fraction(v) for v in row] for row in matrix]
    minor = Fraction(1)
    for k in range(n):
        minor *= a[k][k]
        if minor == 0 or (minor > 0) != (k % 2 == 1):
            return False
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            if f:
                for j in range(k, n):
                    a[i][j] -= f * a[k][j]
    return True


def graph_json_oracle(g) -> str:
    """export_graph(g, "json") by way of json.dumps: the document as a
    dict, keys sorted, two-space indent."""
    doc = {
        "vertices": [
            {"label": v.label, "weight": v.weight, "is_Ltilde": v.is_Ltilde}
            for v in g.vertices
        ],
        "edges": [list(e) for e in g.edges],
        "estar_attachment": list(g.estar_attachment),
    }
    return json.dumps(doc, sort_keys=True, indent=2)


if __name__ == "__main__":
    cases = [
        ([(3, 5)], 0),
        ([(3, 5)], 8),
        ([(3, 5)], 9),
        ([(1, 2)], 0),
        ([(3, 5), (23, 2)], 1),
        ([(2, 3), (7, 2)], 2),
    ]
    for pairs, r in cases:
        print(f"alpha{pairs, r} = {alpha_oracle(pairs, r)}")
    for n, gens in [(6, [10, 4]), (3, [5, 2]), (7, [5, 2]), (11, [5, 2]), (3, [2, 10])]:
        print(f"{n} in <{gens}> : {semigroup_member_bruteforce(n, gens)}")
    print("decompose 26 over (6,10,7) ps=(3,2):", decompose_bruteforce(26, [6, 10, 7], [3, 2]))
    print("decompose 22 over (6,10,7) ps=(3,2):", decompose_bruteforce(22, [6, 10, 7], [3, 2]))
    print("decompose 14 over (6,10,7,11) ps=(3,2,1):", decompose_bruteforce(14, [6, 10, 7, 11], [3, 2, 1]))
