"""Weighted dual graphs of the exceptional configurations.

By Enriques' theorem the resolution graph of a branch depends only on the
Euclid expansions of its characteristic exponents, so the graph is built
from two vanishing orders alone.  Along the branch the two chart
coordinates a and b vanish to orders (oa, ob), starting at (p, beta_1) with
beta_k = q_k * p / (p_1..p_k).  A blow-up at the point the branch sits on
subtracts the smaller order from the larger (a Euclid step); when they are
equal the branch leaves the current exceptional curve at a free point and
ob becomes the next difference beta_(k+1) - beta_k, or infinite after the
last pair.  The graph is laid down one Euclid run at a time, not one
blow-up at a time.  While oa < ob, each of m = (ob - 1) // oa blow-ups
moves the axis curve {a = 0} onto the new exceptional curve (likewise for
{b = 0} while ob < oa), and an equal pair is a run of one.  A run of m
blow-ups moving the axis M against the fixed axis F lays down the chain
M - v1 - ... - vm - F with weights -2, ..., -2, -1, decrements M by 1 and
F by m, and removes the edge between M and F, which is always the last
edge the previous run laid.  The construction stops once the branch meets
a single exceptional curve transversally (minimal embedded resolution of
curve plus tangent line), continues with r further blow-ups at the moving
intersection point, one more run, removes the last exceptional curve E*
and reports what remains.  The edges are collected in a list, nearly in
order, and sorted once.  The graph is a forest, so Grauert's criterion
(the intersection form is negative definite) is decided by eliminating one
leaf at a time from a stack, on integer numerator/denominator pairs, with
no heap.  DualGraph.is_negative_definite() reads the form straight from the
weights and edges in O(n); is_negative_definite(matrix) runs the same
elimination on any symmetric matrix, after an O(n^2) read of the dense
input.

The vertices are numbered in order of appearance while the graph is built,
and their labels (Ltilde, E1, E2, ...) are made once at the end.  The JSON
export writes the text of json.dumps(doc, sort_keys=True, indent=2) itself,
one f-string per vertex and per edge: with an indent json.dumps runs its
pure-Python encoder, which would cost more than building the graph.

The test suite compares the graph against a simulation of the blow-ups on
an exact parametrization of the germ and against the same construction one
blow-up at a time, the definiteness test against dense
leading-principal-minor elimination and the JSON export against json.dumps
byte for byte (tests/oracles.py).
"""

from __future__ import annotations

import json
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from itertools import compress, repeat
from json.encoder import encode_basestring_ascii as _json_str
from math import gcd

from .errors import InvariantViolationError, PreconditionError
from .puiseux import check_r, check_tangent, check_text, local_pair_data


class DGVertex(namedtuple("DGVertex", "label weight is_Ltilde", defaults=(False,))):
    """A vertex: its label, its self-intersection and whether it is the
    line's strict transform."""

    __slots__ = ()


class DualGraph(namedtuple("DualGraph", "vertices edges estar_attachment")):
    """Vertices in order of appearance (the line's strict transform first,
    then E1, E2, ...); edges as index pairs i < j; estar_attachment lists
    the labels of the removed curve E*'s former neighbors.  Each field is a
    tuple."""

    __slots__ = ()

    def index_of(self, label: str) -> int:
        for i, v in enumerate(self.vertices):
            if v.label == label:
                return i
        raise KeyError(label)

    def component_count(self) -> int:
        """The number of connected components, by union-find with path
        halving: each union of two roots joins two components."""
        parent = list(range(len(self.vertices)))
        count = len(parent)
        for i, j in self.edges:
            while parent[i] != i:
                parent[i] = i = parent[parent[i]]
            while parent[j] != j:
                parent[j] = j = parent[parent[j]]
            if i != j:
                parent[i] = j
                count -= 1
        return count

    def is_negative_definite(self) -> bool:
        """Grauert's criterion: is the intersection form of the curves
        negative definite?  The form is read from the weights and edges in
        O(n), with no intersection matrix, and decided by the elimination of
        is_negative_definite(intersection_matrix(self)), one leaf at a time
        on a forest.  Raises PreconditionError on a weight that is not an
        int, on an edge that is not a pair i < j of vertex indices and on
        an edge listed twice."""
        n = len(self.vertices)
        diag = [(v.weight, 1) for v in self.vertices]
        if any(type(w) is not int for w, _ in diag):
            raise PreconditionError("the weights of a dual graph must be ints")
        adj: list[dict[int, tuple[int, int]]] = [{} for _ in range(n)]
        one = (1, 1)
        for e in self.edges:
            pair = type(e) is tuple and len(e) == 2 and type(e[0]) is int and type(e[1]) is int
            if not (pair and 0 <= e[0] < e[1] < n):
                raise PreconditionError(f"edge {e!r} is not a pair i < j of vertex indices")
            i, j = e
            if j in adj[i]:
                raise PreconditionError(f"edge {e!r} is listed twice")
            adj[i][j] = adj[j][i] = one
        return _eliminate(diag, adj)


def build_dual_graph(local_pairs, r: int) -> DualGraph:
    """Resolve the germ of (pairs) tangent to a line, blow up r more times
    along the strict transform, drop the last exceptional curve and return
    the weighted dual graph of the rest.

    One step per Euclid run of the vanishing orders (oa, ob), each laid
    down by _lay_run; the r further blow-ups are one more run.  The edges
    to E* are the last ones laid."""
    data = local_pair_data(local_pairs)
    check_r(r)
    check_tangent(data)

    betas = data.betas()
    gaps = iter([b - a for a, b in zip(betas, betas[1:])])
    oa, ob = data.polydromy, betas[0]  # ob is None once b vanishes on the branch

    weights = [1]  # vertex 0 is the line, which starts at +1 in the plane
    edges: list[tuple[int, int]] = []  # (i, j) with i < j, in the order laid
    axis_a = 0  # the curve {a = 0} currently is
    axis_b: int | None = None  # the curve {b = 0} currently is

    # minimal embedded resolution: stop once the branch is transverse to a
    # single exceptional curve
    while not (axis_b is None and oa == 1):
        if oa < ob:
            m = (ob - 1) // oa
            ob -= m * oa
            axis_a = _lay_run(weights, edges, m, axis_a, axis_b)
        elif ob < oa:
            m = (oa - 1) // ob
            oa -= m * ob
            axis_b = _lay_run(weights, edges, m, axis_b, axis_a)
        else:
            ob = next(gaps, None)
            axis_a, axis_b = _lay_run(weights, edges, 1, axis_a, axis_b), None
    if r:
        _lay_run(weights, edges, r, axis_a, None)

    estar = len(weights) - 1  # the last vertex, laid by the last run
    del weights[estar]
    # E* has at most two neighbours, and its edges are the last ones laid
    attach = sorted([e for e in edges[-2:] if e[1] == estar])
    del edges[-len(attach) :]
    edges.sort()  # one break in order per run
    n = len(weights)
    labels = [f"E{i}" for i in range(n)]
    labels[0] = "Ltilde"
    flags = [True] + [False] * (n - 1)
    # tuple.__new__ skips _make's length check; tuple() of a list, not a map, sizes exactly
    vertices = tuple(list(map(tuple.__new__, repeat(DGVertex), zip(labels, weights, flags))))
    graph = DualGraph(vertices, tuple(edges), tuple([labels[i] for i, _ in attach]))

    if max(weights) > -1:
        v = next(v for v in vertices if v.weight > -1)
        raise InvariantViolationError("dual-graph weight above -1", vertex=v, pairs=data.pairs, r=r)
    if graph.component_count() > 2:
        raise InvariantViolationError(
            "dual graph split into more than two components",
            pairs=data.pairs,
            r=r,
        )
    return graph


def _lay_run(weights: list[int], edges: list, m: int, mover, fixed) -> int:
    """Lay down m blow-ups, each at the point where the axis curve mover
    meets the axis curve fixed (None for no curve), the new curve becoming
    the mover each time, for m >= 1; return the last new curve.

    The run gives the chain mover - v1 - ... - vm - fixed with weights -2,
    ..., -2, -1, decrements mover by 1 and fixed by m, and removes the edge
    between mover and fixed, which the previous run laid last."""
    first = len(weights)
    last = first + m - 1
    if mover is not None:
        if fixed is not None:
            axes = edges.pop()
            if axes != (min(mover, fixed), max(mover, fixed)):
                raise InvariantViolationError(
                    "the last edge laid does not join the axes", edge=axes, axes=(mover, fixed)
                )
        weights[mover] -= 1
        edges.append((mover, first))
    weights += [-2] * (m - 1) + [-1]
    edges += zip(range(first, last), range(first + 1, last + 1))
    if fixed is not None:
        weights[fixed] -= m
        edges.append((fixed, last))
    return last


def intersection_matrix(g: DualGraph) -> list[list[int]]:
    """Symmetric matrix: weights on the diagonal, 1 for each edge.

    The list takes n^2 entries, about 3 GB at 20,000 vertices: for
    Grauert's criterion on a large graph call g.is_negative_definite(),
    which needs no matrix."""
    n = len(g.vertices)
    m = [[0] * n for _ in range(n)]
    for i, v in enumerate(g.vertices):
        m[i][i] = v.weight
    for i, j in g.edges:
        m[i][j] = m[j][i] = 1
    return m


def is_negative_definite(matrix) -> bool:
    """Exact test that the symmetric matrix (a list of rows of integers,
    Fractions or floats) is negative definite; the empty matrix is.

    Reads the dense matrix, then decides it by the elimination of
    _eliminate, which is exact for any symmetric matrix;
    DualGraph.is_negative_definite() runs the same elimination on a dual
    graph, read straight from its weights and edges.  Each entry becomes
    an exact (numerator, denominator) pair of ints in lowest terms, the
    denominator positive: an int entry is (x, 1), any other goes through
    Fraction once.  Past the one O(n^2) read, the graph of an
    intersection matrix is a forest and each step removes one leaf, so the
    elimination costs O(n).  Raises PreconditionError when the matrix or
    one of its rows is not a sequence, when the matrix is not square or not
    symmetric, or when an entry is neither a zero (an entry equal to 0) nor
    a finite rational number.
    """
    if not isinstance(matrix, Sequence):
        raise PreconditionError(f"the matrix must be a sequence, not {matrix!r}")
    n = len(matrix)
    for i, row in enumerate(matrix):
        if type(row) is not list and not isinstance(row, Sequence):  # a list costs no ABC check
            raise PreconditionError(f"row {i} of the matrix must be a sequence, not {row!r}")
        if len(row) != n:
            raise PreconditionError(
                f"the matrix must be square: row {i} has {len(row)} entries, not {n}"
            )
    diag: list[tuple[int, int]] = []
    adj: list[dict[int, tuple[int, int]]] = [{} for _ in range(n)]  # nonzero a_ij, j != i
    try:
        for i, row in enumerate(matrix):
            j = i
            x = row[i]
            diag.append((x, 1) if type(x) is int else Fraction(x).as_integer_ratio())
            kept = 0
            for j in compress(range(n), row):
                kept += 1
                if matrix[j][i] != row[j]:
                    Fraction(row[j])  # nan != nan: a bad entry, not an asymmetry
                    raise PreconditionError(
                        f"the matrix must be symmetric: entry ({i}, {j}) is "
                        f"{row[j]} but entry ({j}, {i}) is {matrix[j][i]}"
                    )
                if j > i:
                    x = row[j]
                    adj[i][j] = adj[j][i] = (
                        (x, 1) if type(x) is int else Fraction(x).as_integer_ratio()
                    )
            # compress skips every falsy entry: each must be a zero
            if kept + row.count(0) != n:
                j = next(j for j, v in enumerate(row) if not v and v != 0)
                raise PreconditionError(
                    f"entry ({i}, {j}) of the matrix is {row[j]!r}, not a finite rational number"
                )
    except PreconditionError:
        raise
    except (TypeError, ValueError, OverflowError):
        # the conversion at (i, j) failed
        raise PreconditionError(
            f"entry ({i}, {j}) of the matrix is {matrix[i][j]!r}, not a finite rational number"
        ) from None
    return _eliminate(diag, adj)


def _eliminate(diag, adj) -> bool:
    """Is the symmetric matrix with diagonal entries diag[v] and nonzero
    off-diagonal entries adj[v][i] = adj[i][v] negative definite?  Every
    entry is a (numerator, denominator) pair of ints in lowest terms with
    the denominator positive; diag and adj are used up.

    Symmetric Gaussian elimination in an order chosen as it goes: removing
    the pivot d_v subtracts a_iv*a_vj/d_v from each entry a_ij between two
    of its neighbours.  Eliminating in some order is eliminating P^T A P in
    its natural order for a permutation matrix P, which is negative
    definite exactly when A is, and whose k-th leading principal minor is
    the product of the first k pivots.  So by Sylvester's criterion the
    answer is False at the first pivot d_v >= 0 and True once every vertex
    is gone, for any order and any symmetric matrix.

    The order takes a vertex of degree <= 1 from a stack of leaves while
    there is one.  A leaf's removal changes only d_i of its one neighbour
    i, to d_i - a_iv^2/d_v, in a few integer products and one gcd.  The
    graph of an intersection matrix is a forest, which never runs out of
    leaves, so its elimination is n such steps.  Only when every vertex
    left has degree >= 2, which takes a cycle, is a vertex of least degree
    eliminated in full: each entry between two of its neighbours is
    updated, which may create new entries (fill-in) or cancel old ones.
    """
    n = len(diag)
    gone = bytearray(n)
    leaves = [v for v in range(n) if len(adj[v]) <= 1]
    while True:
        if leaves:
            v = leaves.pop()
            if gone[v] or len(adj[v]) > 1:
                continue  # a stale entry: v is pushed again whenever its degree drops to <= 1
        elif 0 in gone:
            v = min((u for u in range(n) if not gone[u]), key=lambda u: len(adj[u]))
        else:
            return True
        dn, dd = d = diag[v]
        if dn >= 0:
            return False
        gone[v] = 1
        nbrs = adj[v]
        if len(nbrs) == 1:
            i, (an, ad) = nbrs.popitem()
            rest = adj[i]
            del rest[v]
            cn, cd = diag[i]
            an *= an
            ad *= ad
            # d_i - a^2/d_v over the denominator -cd*ad^2*dn, positive as dn < 0
            num = an * dd * cd - cn * ad * dn
            den = -cd * ad * dn
            g = gcd(num, den)
            diag[i] = (num // g, den // g)
            if len(rest) <= 1:
                leaves.append(i)
        elif nbrs:
            nbrs = list(nbrs.items())
            for i, _ in nbrs:
                del adj[i][v]
            for k, (i, a_iv) in enumerate(nbrs):
                diag[i] = _minus_product(diag[i], a_iv, a_iv, d)
                for j, a_jv in nbrs[k + 1 :]:
                    a_ij = _minus_product(adj[i].get(j, (0, 1)), a_iv, a_jv, d)
                    if a_ij[0]:
                        adj[i][j] = adj[j][i] = a_ij
                    else:
                        adj[i].pop(j, None)
                        adj[j].pop(i, None)
            leaves += [i for i, _ in nbrs if len(adj[i]) <= 1]


def _minus_product(c, a, b, d) -> tuple[int, int]:
    """c - a*b/d in lowest terms, for d < 0: each rational is a (numerator,
    denominator) pair with the denominator positive."""
    (cn, cd), (an, ad), (bn, bd), (dn, dd) = c, a, b, d
    num = an * bn * dd * cd - cn * ad * bd * dn
    den = -cd * ad * bd * dn
    g = gcd(num, den)
    return num // g, den // g


def export_graph(g: DualGraph, format: str = "dot") -> str:
    """Serialize: DOT (vertices in creation order, weights as labels) or
    JSON (schema: vertices / edges by index / estar_attachment).

    The JSON text is written directly and equals json.dumps(doc,
    sort_keys=True, indent=2) of the document, byte for byte: keys in
    sorted order, two-space indent, labels escaped to ASCII by the json
    module's own string encoder and [] for an empty list.  The test suite
    checks it against that json.dumps call (tests/oracles.py)."""
    fmt = format.lower() if isinstance(format, str) else None
    if fmt == "dot":
        lines = ["graph G {"]
        for v in g.vertices:
            lines.append(f'  {_dot_id(v.label)} [label="w={v.weight}"];')
        for i, j in g.edges:
            lines.append(f"  {_dot_id(g.vertices[i].label)} -- {_dot_id(g.vertices[j].label)};")
        lines.append("}")
        return "\n".join(lines)
    if fmt == "json":
        edges = [f"    [\n      {i},\n      {j}\n    ]" for i, j in g.edges]
        attach = [f"    {_json_str(lab)}" for lab in g.estar_attachment]
        vertices = [
            f'    {{\n      "is_Ltilde": {"true" if v.is_Ltilde else "false"},\n'
            f'      "label": {_json_str(v.label)},\n      "weight": {v.weight}\n    }}'
            for v in g.vertices
        ]
        return (
            f'{{\n  "edges": {_json_list(edges)},\n'
            f'  "estar_attachment": {_json_list(attach)},\n'
            f'  "vertices": {_json_list(vertices)}\n}}'
        )
    raise PreconditionError(f"unknown format {format!r} (dot or json)")


_DOT_KEYWORDS = {"node", "edge", "graph", "digraph", "subgraph", "strict"}


def _dot_id(label: str) -> str:
    """label as it is when a plain DOT ID ([A-Za-z_][A-Za-z0-9_]*, not a
    keyword), else double-quoted with \\ and " escaped."""
    if label.isascii() and label.isidentifier() and label.lower() not in _DOT_KEYWORDS:
        return label
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _json_list(items: list[str]) -> str:
    """A JSON array at indent level 1 from its already indented items."""
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


def parse_graph_json(text: str) -> DualGraph:
    """Inverse of export_graph(..., 'json').  Text that export_graph could
    not have written raises PreconditionError: a value that is not a str,
    text that is not JSON, a key missing or extra, a value of another JSON
    type, or an edge that is not a pair i < j of vertex indices or is
    listed twice."""
    check_text(text, "graph JSON")
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise PreconditionError(f"graph JSON does not parse: {exc}") from None
    if _types(doc) != {"edges": list, "estar_attachment": list, "vertices": list}:
        raise PreconditionError("a graph is the lists edges, estar_attachment and vertices")
    n = len(doc["vertices"])
    for v in doc["vertices"]:
        if _types(v) != {"is_Ltilde": bool, "label": str, "weight": int}:
            raise PreconditionError(f"vertex {v!r} needs is_Ltilde: bool, label: str, weight: int")
    for e in doc["edges"]:
        if type(e) is not list or list(map(type, e)) != [int, int] or not 0 <= e[0] < e[1] < n:
            raise PreconditionError(f"edge {e!r} is not a pair i < j of vertex indices")
    edges = sorted(map(tuple, doc["edges"]))
    for e, f in zip(edges, edges[1:]):
        if e == f:
            raise PreconditionError(f"edge {list(e)} is listed twice")
    if any(type(label) is not str for label in doc["estar_attachment"]):
        raise PreconditionError("estar_attachment is not a list of labels")
    return DualGraph(
        tuple(DGVertex(v["label"], v["weight"], v["is_Ltilde"]) for v in doc["vertices"]),
        tuple(edges),
        tuple(doc["estar_attachment"]),
    )


def _types(value) -> dict | None:
    """The type of each entry of a JSON object (None for any other value)."""
    return {k: type(v) for k, v in value.items()} if type(value) is dict else None
