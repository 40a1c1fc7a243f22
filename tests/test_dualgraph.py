"""Weighted dual graphs: construction, Grauert check, exports."""

import json
import random
import re
from fractions import Fraction
from math import gcd

import pytest

from oracles import (
    dual_graph_oracle,
    dual_graph_stepwise_oracle,
    graph_json_oracle,
    negative_definite_oracle,
)

import germcontract.dualgraph as dualgraph
from germcontract import (
    DGVertex,
    DualGraph,
    PreconditionError,
    build_dual_graph,
    export_graph,
    intersection_matrix,
    is_contractible,
    is_negative_definite,
    parse_graph_json,
)

TWO_PAIR = [(3, 5), (23, 2)]


def shape(g: DualGraph):
    return (
        [v.label for v in g.vertices],
        [v.weight for v in g.vertices],
        g.edges,
        g.estar_attachment,
    )


def test_cusp_r0_graph():
    g = build_dual_graph([(3, 5)], 0)
    assert shape(g) == (
        ["Ltilde", "E1", "E2", "E3"],
        [-1, -3, -3, -2],
        ((0, 2), (1, 3)),
        ("E2", "E3"),
    )
    assert g.component_count() == 2
    assert [v.is_Ltilde for v in g.vertices] == [True, False, False, False]


def test_cusp_r1_graph():
    g = build_dual_graph([(3, 5)], 1)
    assert shape(g) == (
        ["Ltilde", "E1", "E2", "E3", "E4"],
        [-1, -3, -3, -2, -2],
        ((0, 2), (1, 3), (2, 4), (3, 4)),
        ("E4",),
    )
    assert g.component_count() == 1


def test_cusp_r8_graph():
    g = build_dual_graph([(3, 5)], 8)
    labels = ["Ltilde"] + [f"E{i}" for i in range(1, 12)]
    chain = tuple((i, i + 1) for i in range(4, 11))
    assert shape(g) == (
        labels,
        [-1, -3, -3] + [-2] * 9,
        ((0, 2), (1, 3), (2, 4), (3, 4)) + chain,
        ("E11",),
    )


def test_two_pair_r1_graph():
    g = build_dual_graph(TWO_PAIR, 1)
    labels = ["Ltilde"] + [f"E{i}" for i in range(1, 15)]
    weights = [-1, -3, -3] + [-2] * 9 + [-3, -2, -2]
    first_level = ((0, 2), (1, 3), (2, 4), (3, 4))
    chain = tuple((i, i + 1) for i in range(4, 11))
    second_level = ((11, 12), (12, 14), (13, 14))
    assert shape(g) == (labels, weights, first_level + chain + second_level, ("E14",))
    # E13 is a pendant leg; E14 becomes a junction once E* is drawn back in
    degrees = [0] * len(g.vertices)
    for a, b in g.edges:
        degrees[a] += 1
        degrees[b] += 1
    assert degrees[g.index_of("E13")] == 1
    assert degrees[g.index_of("E14")] == 2
    assert degrees[g.index_of("E4")] == 3


def test_family_shape_in_r():
    for r in range(1, 12):
        g = build_dual_graph([(3, 5)], r)
        assert len(g.vertices) == r + 4
        assert [v.weight for v in g.vertices].count(-2) == r + 1
        assert len(g.edges) == len(g.vertices) - 1
        assert g.estar_attachment == (g.vertices[-1].label,)


def test_vertex_count_is_euclid_quotient_sum():
    def quotient_sum(q, p):
        a, b, total = p, q, 0
        while b:
            total += a // b
            a, b = b, a % b
        return total

    for q, p in [(3, 5), (2, 7), (5, 7), (1, 4)]:
        for r in (0, 1, 6):
            g = build_dual_graph([(q, p)], r)
            # one vertex per blow-up of the p/q resolution, plus L-tilde,
            # plus the r free blow-ups (the first quotient absorbs L-tilde)
            assert len(g.vertices) == quotient_sum(q, p) + r


def _seeded_multi_pair_germs(count: int, seed: int):
    """Two- and three-pair local pairs with polydromy <= 12, and small r."""
    rng = random.Random(seed)
    for _ in range(count):
        npairs = rng.choice((2, 2, 3))
        p1 = rng.choice((2, 3) if npairs == 3 else (2, 3, 4, 5, 6))
        pairs = [(rng.choice([q for q in range(1, p1) if gcd(q, p1) == 1]), p1)]
        cum = p1
        for _ in range(npairs - 1):
            p_k = 2 if npairs == 3 else rng.choice([p for p in (2, 3) if cum * p <= 12])
            cum *= p_k
            lo = pairs[-1][0] * p_k  # exponents must keep increasing
            qs = [q for q in range(lo + 1, lo + 2 * p_k) if gcd(q, p_k) == 1]
            pairs.append((rng.choice(qs), p_k))
        yield pairs, rng.randint(0, 4 if npairs == 2 else 3)


def test_graph_matches_the_blow_up_simulation():
    """The Euclid-order construction against the chart-by-chart simulation
    on an exact parametrization."""
    single = [
        ([(q, p)], r)
        for p in range(2, 14)
        for q in range(1, p)
        if gcd(q, p) == 1
        for r in (0, 1, 3, 9)
    ]
    cases = single + list(_seeded_multi_pair_germs(150, 20261018))
    assert len(single) == 228
    for pairs, r in cases:
        labels, weights, edges, attach = dual_graph_oracle(pairs, r)
        assert shape(build_dual_graph(pairs, r)) == (labels, weights, edges, attach), (pairs, r)


def _seeded_long_germs(count: int, seed: int):
    """Two- to four-pair local pairs whose steps q_k - p_k*q_(k-1) go up to
    40, each with r in (0, 1, 5, 50): far past the simulation's reach."""
    rng = random.Random(seed)
    for _ in range(count):
        p1 = rng.randint(2, 12)
        pairs = [(rng.choice([q for q in range(1, p1) if gcd(q, p1) == 1]), p1)]
        for _ in range(rng.randint(1, 3)):
            p_k = rng.randint(2, 5)
            lo = pairs[-1][0] * p_k
            pairs.append((rng.choice([q for q in range(lo + 1, lo + 41) if gcd(q, p_k) == 1]), p_k))
        yield pairs, rng.choice((0, 1, 5, 50))


def test_graph_matches_the_stepwise_construction():
    """One step per Euclid run against one step per blow-up
    (dual_graph_stepwise_oracle), on every single pair with p <= 60 and on
    multi-pair germs with long runs."""
    single = [
        ([(q, p)], r)
        for p in range(2, 61)
        for q in range(1, p)
        if gcd(q, p) == 1
        for r in (0, 1, 2, 17)
    ]
    cases = single + list(_seeded_long_germs(4000, 20261021))
    assert len(single) == 4404
    assert {len(pairs) for pairs, _ in cases} == {1, 2, 3, 4}
    for pairs, r in cases:
        assert shape(build_dual_graph(pairs, r)) == dual_graph_stepwise_oracle(pairs, r), (pairs, r)


def _bfs_component_count(g: DualGraph) -> int:
    adj = [[] for _ in g.vertices]
    for i, j in g.edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = [False] * len(adj)
    count = 0
    for s in range(len(adj)):
        if not seen[s]:
            count += 1
            seen[s] = True
            queue = [s]
            for v in queue:
                for u in adj[v]:
                    if not seen[u]:
                        seen[u] = True
                        queue.append(u)
    return count


def test_component_count_matches_a_breadth_first_search():
    rng = random.Random(20261022)
    path = list(range(5000))
    rng.shuffle(path)  # a path visited in random order, so the trees grow deep
    hand_made = [
        (_graph([], []), 0),
        (_graph([-2] * 3, []), 3),
        (_graph([-2] * 7, [(0, 1), (2, 3), (3, 4), (5, 6)]), 3),
        (_graph([-2] * 4, [(0, 1), (1, 2), (0, 2)]), 2),  # a cycle and an isolated vertex
        (_graph([-2] * 4, [(0, 1), (1, 2), (2, 3), (0, 3)]), 1),
        (_graph([-2] * 5000, [(i, i + 1) for i in range(4999)]), 1),
        (_graph([-2] * 5000, sorted(tuple(sorted(e)) for e in zip(path, path[1:]))), 1),
    ]
    for g, count in hand_made:
        assert g.component_count() == _bfs_component_count(g) == count, g.edges[:10]
    for _ in range(500):
        n = rng.randint(2, 60)
        edges = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(rng.randint(0, n))}
        g = _graph([-2] * n, sorted(edges))
        assert g.component_count() == _bfs_component_count(g), g.edges


def test_intersection_matrix_entries():
    g = build_dual_graph([(3, 5)], 1)
    M = intersection_matrix(g)
    assert [M[i][i] for i in range(5)] == [-1, -3, -3, -2, -2]
    assert M[0][2] == M[2][0] == 1
    assert M[0][1] == M[1][0] == 0
    assert all(M[i][j] == M[j][i] for i in range(5) for j in range(5))


def test_negative_definite_basics():
    assert is_negative_definite([])
    assert is_negative_definite([[-1]])
    assert not is_negative_definite([[1]])
    assert not is_negative_definite([[0]])
    assert is_negative_definite([[-2, 1], [1, -2]])
    assert not is_negative_definite([[-1, 1], [1, -1]])  # singular
    zero = (0, 0.0, Fraction(0))
    assert all(is_negative_definite([[-2, z], [z, -2]]) for z in zero)
    with pytest.raises(
        PreconditionError, match=r"the matrix must be square: row 1 has 1 entries, not 2"
    ):
        is_negative_definite([[-2, 1], [1]])
    with pytest.raises(
        PreconditionError, match=r"the matrix must be square: row 0 has 2 entries, not 1"
    ):
        is_negative_definite([[-2, 1]])
    with pytest.raises(
        PreconditionError,
        match=r"the matrix must be symmetric: entry \(0, 1\) is 1 but entry \(1, 0\) is 2",
    ):
        is_negative_definite([[-5, 1], [2, -5]])
    with pytest.raises(
        PreconditionError,
        match=r"the matrix must be symmetric: entry \(2, 1\) is 3 but entry \(1, 2\) is 0",
    ):
        is_negative_definite([[-5, 0, 0], [0, -5, 0], [0, 3, -5]])
    nan, inf = float("nan"), float("inf")
    for matrix, where, what in (
        ([[nan]], "(0, 0)", "nan"),
        ([[-2, 0], [0, inf]], "(1, 1)", "inf"),
        ([[-2, -inf], [-inf, -2]], "(0, 1)", "-inf"),
        ([[None]], "(0, 0)", "None"),
        ([["a"]], "(0, 0)", "'a'"),
        # nan != nan, yet the pair is a bad entry, not an asymmetric one
        ([[-2, nan], [nan, -2]], "(0, 1)", "nan"),
        # falsy entries that are not zeros, which an off-diagonal scan
        # that skips falsy entries would read as 0
        ([[-2, None], [None, -2]], "(0, 1)", "None"),
        ([[-2, ""], ["", -2]], "(0, 1)", "''"),
        ([[-2, None], [0, -2]], "(0, 1)", "None"),
        ([[-2, 0], [[], -2]], "(1, 0)", "[]"),
    ):
        message = f"entry {where} of the matrix is {what}, not a finite rational number"
        with pytest.raises(PreconditionError, match=re.escape(message)):
            is_negative_definite(matrix)
    # a matrix or row without a length raised a bare TypeError; a row with
    # a length but no indexing (a set) raised one too, and a dict row an
    # AttributeError
    for matrix, message in (
        ([5], "row 0 of the matrix must be a sequence, not 5"),
        ([[-2, 1], 3], "row 1 of the matrix must be a sequence, not 3"),
        (None, "the matrix must be a sequence, not None"),
        ([{-1}], "row 0 of the matrix must be a sequence, not {-1}"),
        ([{0: -1}], "row 0 of the matrix must be a sequence, not {0: -1}"),
        ([[-2, 1], {0: 1, 1: -2}], "row 1 of the matrix must be a sequence, not {0: 1, 1: -2}"),
        ({(-1,)}, "the matrix must be a sequence, not {(-1,)}"),
    ):
        with pytest.raises(PreconditionError, match=re.escape(message)):
            is_negative_definite(matrix)


def _seeded_symmetric_matrices(count: int, seed: int):
    """Symmetric integer matrices with n <= 9 and dense random off-diagonal
    entries, so that their graphs have cycles and elimination fills in.
    Every third one is -(B^T B) - D with D >= 0 diagonal, negative definite
    when D > 0 and singular when D = 0 and B has fewer rows than columns."""
    rng = random.Random(seed)
    for k in range(count):
        n = rng.randint(1, 9)
        if k % 3 == 0:
            rows = rng.randint(1, n + 2)
            b = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rows)]
            shift = rng.choice((0, 1, 1, 2))
            yield [
                [
                    -sum(b[t][i] * b[t][j] for t in range(rows)) - (shift if i == j else 0)
                    for j in range(n)
                ]
                for i in range(n)
            ]
        else:
            m = [[0] * n for _ in range(n)]
            for i in range(n):
                m[i][i] = rng.randint(-9, 1)
                for j in range(i + 1, n):
                    if rng.random() < 0.5:
                        m[i][j] = m[j][i] = rng.randint(-3, 3)
            yield m


def test_negative_definite_matches_the_dense_oracle():
    """Least-degree-first elimination against dense leading-principal-minor
    elimination: intersection matrices of single pairs and of 2-3 pair
    germs, and random symmetric matrices whose graphs have cycles."""
    single = [
        ([(q, p)], r)
        for p in range(2, 14)
        for q in range(1, p)
        if gcd(q, p) == 1
        for r in (0, 1, 2, 5, 13, 40)
    ]
    multi = [
        (pairs, r + extra)
        for pairs, r in _seeded_multi_pair_germs(100, 20261019)
        for extra in (0, 12, 30)
    ]
    graphs = [intersection_matrix(build_dual_graph(pairs, r)) for pairs, r in single + multi]
    matrices = list(_seeded_symmetric_matrices(3000, 20261020))
    answers = {True: 0, False: 0}
    for m in graphs + matrices:
        answer = is_negative_definite(m)
        assert answer == negative_definite_oracle(m), m
        answers[answer] += 1
    assert len(single) == 342
    assert min(answers.values()) > 500


@pytest.mark.parametrize("scale", [Fraction(1, 3), 0.5])
def test_negative_definite_takes_fractions_and_floats(scale):
    """A positive multiple has the same answer; 0.5 scales the integers
    exactly, so the float path is checked against the same oracle."""
    answers = {True: 0, False: 0}
    for m in _seeded_symmetric_matrices(1000, 20261021):
        scaled = [[scale * a for a in row] for row in m]
        answer = is_negative_definite(scaled)
        assert answer == negative_definite_oracle(scaled) == is_negative_definite(m), m
        answers[answer] += 1
    assert min(answers.values()) > 150


def test_int_matrices_build_no_fraction(monkeypatch):
    """All-int matrices are eliminated on int pairs alone: Fraction is
    only for entries of other types."""

    def no_fraction(value):
        raise AssertionError(f"Fraction({value!r}) built for an all-int matrix")

    monkeypatch.setattr(dualgraph, "Fraction", no_fraction)
    cases = [
        ([(q, p)], r)
        for p in range(2, 14)
        for q in range(1, p)
        if gcd(q, p) == 1
        for r in (0, 3, 40)
    ]
    cases += [(pairs, r + 30) for pairs, r in _seeded_multi_pair_germs(100, 20261019)]
    matrices = [intersection_matrix(build_dual_graph(pairs, r)) for pairs, r in cases]
    matrices += _seeded_symmetric_matrices(500, 20261020)  # fill-in on cycles
    answers = {True: 0, False: 0}
    for m in matrices:
        answer = is_negative_definite(m)
        assert answer == negative_definite_oracle(m), m
        answers[answer] += 1
    assert min(answers.values()) > 100


def test_negative_definite_mixes_entry_types():
    """Each entry as an int, bool, Fraction or float of the same value,
    picked at random: both sides of the symmetry check and the pivots see
    mixed types.  A scale of 1/2 or 1/4 keeps every float exact."""
    rng = random.Random(20261023)

    def any_type(x: Fraction):
        kinds = [x, float(x)]
        if x.denominator == 1:
            kinds.append(int(x))
        if x in (0, 1):
            kinds.append(bool(x))
        return rng.choice(kinds)

    answers = {True: 0, False: 0}
    for m in _seeded_symmetric_matrices(1000, 20261022):
        scale = rng.choice((1, 2, 4))
        mixed = [[any_type(Fraction(a, scale)) for a in row] for row in m]
        answer = is_negative_definite(mixed)
        assert answer == negative_definite_oracle(mixed) == is_negative_definite(m), mixed
        answers[answer] += 1
    assert min(answers.values()) > 150


def _graph(weights, edges) -> DualGraph:
    """A hand-made graph."""
    vertices = tuple(DGVertex(f"V{i}", w) for i, w in enumerate(weights))
    return DualGraph(vertices, tuple(edges), ())


def _both_routes(g: DualGraph) -> bool:
    """The graph entry's answer, checked against the dense one."""
    answer = g.is_negative_definite()
    assert is_negative_definite(intersection_matrix(g)) == answer, g
    return answer


def test_exact_pivots_at_the_zero_boundary():
    """A (-1)-vertex, eliminated last, with (-2)-legs: a leg of m vertices
    adds m/(m+1), so one leg leaves the pivot -1/(m+1) and two legs of
    length 1 leave exactly 0, which is not negative.  A long (-2)-chain
    runs its pivots -(k+1)/k down to the end."""
    two_legs = _graph([-2, -2, -1], [(0, 2), (1, 2)])
    assert not _both_routes(two_legs)
    assert not negative_definite_oracle(intersection_matrix(two_legs))
    for m in (1, 10, 2000):
        one_leg = _graph([-2] * m + [-1], [(k, k + 1) for k in range(m)])
        assert _both_routes(one_leg), m
        assert m > 10 or negative_definite_oracle(intersection_matrix(one_leg))
    assert _both_routes(_graph([-2] * 2000, [(k, k + 1) for k in range(1999)]))


def _seeded_cyclic_graphs(count: int, seed: int):
    """Graphs with n <= 9 vertices, weights -4..-1 and each edge drawn with
    probability 1/2, so that most have cycles and their elimination runs
    out of leaves and fills in."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(3, 9)
        weights = [rng.randint(-4, -1) for _ in range(n)]
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
        yield _graph(weights, edges)


def test_graph_entry_matches_the_matrix_route_and_the_oracle():
    """DualGraph.is_negative_definite() against the dense front end and the
    leading-principal-minor oracle: dual graphs of single pairs and of 2-3
    pair germs, whose elimination removes only leaves, and graphs with
    cycles, where the leaf stack empties and a vertex is eliminated in full.
    The full elimination is the only caller of _minus_product, counted to
    tell the two apart."""
    single = [
        ([(q, p)], r)
        for p in range(2, 14)
        for q in range(1, p)
        if gcd(q, p) == 1
        for r in (0, 3, 40)
    ]
    multi = [
        (pairs, r + extra)
        for pairs, r in _seeded_multi_pair_germs(100, 20261024)
        for extra in (0, 30)
    ]
    forests = [build_dual_graph(pairs, r) for pairs, r in single + multi]
    four_cycle = _graph([-3] * 4, [(0, 1), (1, 2), (2, 3), (0, 3)])  # eigenvalues -1, -3, -3, -5
    three_cycle = _graph([-2] * 3, [(0, 1), (1, 2), (0, 2)])  # -3I + J, eigenvalues 0, -3, -3
    cyclic = [four_cycle, three_cycle] + list(_seeded_cyclic_graphs(1500, 20261025))
    assert len(single) == 171

    full_steps = 0
    real = dualgraph._minus_product

    def counted(*args):
        nonlocal full_steps
        full_steps += 1
        return real(*args)

    answers = {True: 0, False: 0}
    filled = 0
    for g, forest in [(g, True) for g in forests] + [(g, False) for g in cyclic]:
        full_steps = 0
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dualgraph, "_minus_product", counted)
            answer = g.is_negative_definite()
            steps = full_steps
            assert is_negative_definite(intersection_matrix(g)) == answer, g
        assert negative_definite_oracle(intersection_matrix(g)) == answer, g
        assert steps == 0 or not forest, g
        filled += steps > 0
        answers[answer] += 1
    assert four_cycle.is_negative_definite() and not three_cycle.is_negative_definite()
    assert min(answers.values()) > 300
    assert filled > 500


def test_graph_entry_builds_no_matrix(monkeypatch):
    """The graph entry reads the weights and edges, never a dense matrix."""

    def no_matrix(g):
        raise AssertionError("intersection_matrix called")

    monkeypatch.setattr(dualgraph, "intersection_matrix", no_matrix)
    assert build_dual_graph([(1, 4)], 11).is_negative_definite()
    assert not build_dual_graph([(1, 4)], 12).is_negative_definite()
    assert not build_dual_graph(TWO_PAIR, 6).is_negative_definite()


def test_graph_entry_refuses_a_malformed_graph():
    for g, message in (
        (_graph([-2, 0.5], [(0, 1)]), "the weights of a dual graph must be ints"),
        (_graph([-2, True], [(0, 1)]), "the weights of a dual graph must be ints"),
        (_graph([-2, -2], [(1, 0)]), "edge (1, 0) is not a pair i < j of vertex indices"),
        (_graph([-2, -2], [(1, 1)]), "edge (1, 1) is not a pair i < j of vertex indices"),
        (_graph([-2, -2], [(-1, 1)]), "edge (-1, 1) is not a pair i < j of vertex indices"),
        (_graph([-2, -2], [(0, 2)]), "edge (0, 2) is not a pair i < j of vertex indices"),
        (_graph([-2, -2], [(0, 1, 1)]), "edge (0, 1, 1) is not a pair i < j of vertex indices"),
        (_graph([-2, -2], [[0, 1]]), "edge [0, 1] is not a pair i < j of vertex indices"),
        (_graph([-2, -2], [(0, 1.0)]), "edge (0, 1.0) is not a pair i < j of vertex indices"),
        (_graph([-2, -2], [(0, 1), (0, 1)]), "edge (0, 1) is listed twice"),
    ):
        with pytest.raises(PreconditionError, match=re.escape(message)):
            g.is_negative_definite()


def test_graph_fields_are_tuples():
    for pairs in ([(3, 5)], [(1, 4)], TWO_PAIR):
        for r in (0, 1, 9):
            g = build_dual_graph(pairs, r)
            assert [type(field) for field in g] == [tuple] * 3  # vertices, edges, attachment


def test_grauert_matches_alpha_criterion():
    for p in range(2, 14):
        for q in range(1, p):
            if gcd(q, p) != 1:
                continue
            for r in range(0, p * (p - q) + 1):
                g = build_dual_graph([(q, p)], r)
                assert _both_routes(g) == is_contractible([(q, p)], r)


def test_grauert_two_pair():
    assert _both_routes(build_dual_graph(TWO_PAIR, 1))
    assert not _both_routes(build_dual_graph(TWO_PAIR, 6))
    assert not is_contractible(TWO_PAIR, 6)


def test_dot_export_exact():
    expected = (
        "graph G {\n"
        '  Ltilde [label="w=-1"];\n'
        '  E1 [label="w=-3"];\n'
        '  E2 [label="w=-3"];\n'
        '  E3 [label="w=-2"];\n'
        "  Ltilde -- E2;\n"
        "  E1 -- E3;\n"
        "}"
    )
    assert export_graph(build_dual_graph([(3, 5)], 0), "dot") == expected


def test_dot_export_quotes_a_label_that_is_no_plain_id():
    """Labels read back from JSON may hold any text; one that is not
    [A-Za-z_][A-Za-z0-9_]* (or is a DOT keyword) is written as a quoted
    string with \\ and " escaped, the package's own labels as they are."""
    labels = ["a b", 'c"d', "e\\", "node", "_x1", "1", "E\u00e9"]
    doc = {
        "edges": [[0, 1], [1, 2], [3, 4], [5, 6]],
        "estar_attachment": [],
        "vertices": [{"is_Ltilde": False, "label": lab, "weight": -2} for lab in labels],
    }
    ids = ['"a b"', '"c\\"d"', '"e\\\\"', '"node"', "_x1", '"1"', '"E\u00e9"']
    expected = "\n".join(
        ["graph G {"]
        + [f'  {i} [label="w=-2"];' for i in ids]
        + [f"  {ids[i]} -- {ids[j]};" for i, j in doc["edges"]]
        + ["}"]
    )
    assert export_graph(parse_graph_json(json.dumps(doc)), "dot") == expected


def test_json_round_trip():
    for pairs, r in [([(3, 5)], 0), ([(3, 5)], 8), (TWO_PAIR, 1)]:
        g = build_dual_graph(pairs, r)
        text = export_graph(g, "json")
        back = parse_graph_json(text)
        assert shape(back) == shape(g)
        assert [v.is_Ltilde for v in back.vertices] == [
            v.is_Ltilde for v in g.vertices
        ]
        # serialization is deterministic
        assert export_graph(back, "json") == text


def test_json_export_matches_json_dumps():
    """The directly written JSON against json.dumps(doc, sort_keys=True,
    indent=2), byte for byte."""
    single = [
        ([(q, p)], r)
        for p in range(2, 14)
        for q in range(1, p)
        if gcd(q, p) == 1
        for r in (0, 1, 2, 5, 13, 40)
    ]
    multi = list(_seeded_multi_pair_germs(150, 20261018))
    for pairs, r in single + multi:
        g = build_dual_graph(pairs, r)
        assert export_graph(g, "json") == graph_json_oracle(g), (pairs, r)


@pytest.mark.parametrize(
    "g",
    [
        DualGraph((), (), ()),
        DualGraph((DGVertex("Ltilde", -1, True), DGVertex("E1", -2)), (), ()),
        DualGraph((DGVertex("E1", -3), DGVertex("E2", -2)), ((0, 1),), ()),
        DualGraph(
            (DGVertex('say "Grauert"', -2), DGVertex("Fläché", -5, True)),
            ((0, 1),),
            ('say "Grauert"', "Fläché"),
        ),
    ],
    ids=["empty", "no-edges", "no-attachment", "quote-and-non-ascii"],
)
def test_json_export_of_hand_made_graphs(g):
    text = export_graph(g, "json")
    assert text == graph_json_oracle(g)
    assert text.isascii()
    assert parse_graph_json(text) == g


V = {"is_Ltilde": False, "label": "E1", "weight": -2}


def _graph_doc(vertices=(), edges=(), attachment=(), **extra) -> str:
    return json.dumps(
        {"edges": edges, "estar_attachment": attachment, "vertices": vertices, **extra}
    )


MALFORMED_GRAPHS = {
    "empty-object": "{}",
    "list": "[]",
    "not-json": "not json",
    "nested-too-deep": "[" * 100000,
    "vertices-not-a-list": _graph_doc(vertices={}),
    "extra-key": _graph_doc(extra=[]),
    "vertex-not-an-object": _graph_doc([[]]),
    "vertex-key-missing": _graph_doc([{"label": "E1", "weight": -2}]),
    "float-weight": _graph_doc([{**V, "weight": 2.7}]),
    "bool-weight": _graph_doc([{**V, "weight": True}]),
    "string-is-Ltilde": _graph_doc([{**V, "is_Ltilde": "false"}]),
    "int-label": _graph_doc([{**V, "label": 1}]),
    "edge-out-of-range": _graph_doc([V], [[0, 1]]),
    "edge-reversed": _graph_doc([V, V], [[1, 0]]),
    "float-edge-index": _graph_doc([V, V], [[0, 1.0]]),
    "one-ended-edge": _graph_doc([V, V], [[0]]),
    "repeated-edge": _graph_doc([V, V], [[0, 1], [0, 1]]),
    "null-attachment": _graph_doc(attachment=[None]),
}


@pytest.mark.parametrize("text", MALFORMED_GRAPHS.values(), ids=MALFORMED_GRAPHS.keys())
def test_parse_graph_json_refuses_what_export_cannot_write(text):
    with pytest.raises(PreconditionError):
        parse_graph_json(text)


def test_export_rejects_unknown_format():
    g = build_dual_graph([(3, 5)], 0)
    with pytest.raises(PreconditionError):
        export_graph(g, "xml")
    # a format that is not a str raised AttributeError on .lower()
    for fmt in (5, None, b"json"):
        with pytest.raises(PreconditionError, match="unknown format"):
            export_graph(g, fmt)


def test_builder_preconditions():
    with pytest.raises(PreconditionError, match="need at least one characteristic pair"):
        build_dual_graph([], 0)
    with pytest.raises(PreconditionError, match="r = -1 must be a non-negative integer"):
        build_dual_graph([(3, 5)], -1)
    with pytest.raises(PreconditionError, match="r = True must be a non-negative integer"):
        build_dual_graph([(3, 5)], True)
    with pytest.raises(PreconditionError, match="entries must be integers"):
        build_dual_graph([(3.5, 5)], 0)
    with pytest.raises(PreconditionError, match="entries must be integers"):
        build_dual_graph([(3, "5")], 0)
    # the tangency text of the analyze subcommand (tests/test_cli.py)
    with pytest.raises(PreconditionError, match=r"^the germ has order >= 1: the line's strict"):
        build_dual_graph([(7, 5)], 0)
    with pytest.raises(PreconditionError):
        build_dual_graph([(3, 5), (1, 2)], 0)  # exponents must increase
    with pytest.raises(PreconditionError):
        build_dual_graph([(-3, 5)], 0)  # q must be >= 1


def test_two_components_exactly_at_r0():
    for pairs in ([(3, 5)], [(2, 3)], TWO_PAIR):
        for r in (0, 1, 2):
            g = build_dual_graph(pairs, r)
            assert (g.component_count() == 2) == (r == 0)
            assert len(g.estar_attachment) == (2 if r == 0 else 1)
