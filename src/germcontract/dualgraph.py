"""Weighted dual graphs of the exceptional configurations.

By Enriques' theorem the resolution graph of a branch depends only on the
Euclid expansions of its characteristic exponents, so the graph is built
from two vanishing orders alone.  Along the branch the two chart
coordinates a and b vanish to orders (oa, ob), starting at (p, beta_1) with
beta_k = q_k * p / (p_1..p_k).  A blow-up at the point the branch sits on
subtracts the smaller order from the larger (a Euclid step); when they are
equal the branch leaves the current exceptional curve at a free point and
ob becomes the next difference beta_(k+1) - beta_k, or infinite after the
last pair.  Each blow-up updates the two tracked axis curves, decrements
the self-intersection of every curve through the center and connects the
new exceptional curve to them.  The construction stops once the branch
meets a single exceptional curve transversally (minimal embedded
resolution of curve plus tangent line), continues with r further blow-ups
at the moving intersection point, removes the last exceptional curve E*
and reports what remains.

The test suite compares this against a simulation of the blow-ups on an
exact parametrization of the germ (tests/oracles.py).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvariantViolationError, PreconditionError
from .puiseux import check_r, local_pair_data


@dataclass(frozen=True)
class DGVertex:
    label: str
    weight: int
    is_Ltilde: bool = False


@dataclass(frozen=True)
class DualGraph:
    """Vertices in order of appearance (the line's strict transform first,
    then E1, E2, ...); edges as index pairs i < j; estar_attachment lists
    the labels of the removed curve E*'s former neighbors."""

    vertices: tuple[DGVertex, ...]
    edges: tuple[tuple[int, int], ...]
    estar_attachment: tuple[str, ...]

    def index_of(self, label: str) -> int:
        for i, v in enumerate(self.vertices):
            if v.label == label:
                return i
        raise KeyError(label)

    def component_count(self) -> int:
        n = len(self.vertices)
        parent = list(range(n))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for i, j in self.edges:
            parent[find(i)] = find(j)
        return len({find(i) for i in range(n)})


def build_dual_graph(local_pairs, r: int) -> DualGraph:
    """Resolve the germ of (pairs) tangent to a line, blow up r more times
    along the strict transform, drop the last exceptional curve and return
    the weighted dual graph of the rest."""
    data = local_pair_data(local_pairs)
    check_r(r)
    q1, p1 = data.pairs[0]
    if q1 >= p1:
        raise PreconditionError(
            "the germ must have order < 1 (tangent to the line)"
        )

    betas = data.betas()
    gaps = iter([b - a for a, b in zip(betas, betas[1:])])
    oa, ob = data.polydromy, betas[0]  # ob is None once b vanishes on the branch

    weights = {"Ltilde": 1}  # a line in the plane starts at +1
    order = ["Ltilde"]
    edges: set[frozenset[str]] = set()
    axis_a: str | None = "Ltilde"  # the curve {a = 0} currently is
    axis_b: str | None = None  # the curve {b = 0} currently is

    def blow_up() -> None:
        nonlocal oa, ob, axis_a, axis_b
        label = f"E{len(order)}"
        order.append(label)
        weights[label] = -1
        for ax in (axis_a, axis_b):
            if ax is not None:
                weights[ax] -= 1
        if axis_a is not None and axis_b is not None:
            edges.discard(frozenset((axis_a, axis_b)))
        for ax in (axis_a, axis_b):
            if ax is not None:
                edges.add(frozenset((label, ax)))
        if ob is None or oa < ob:
            if ob is not None:
                ob -= oa
            axis_a = label
        elif ob < oa:
            oa -= ob
            axis_b = label
        else:
            ob = next(gaps, None)
            axis_a = label
            axis_b = None

    # minimal embedded resolution: stop once the branch is transverse to a
    # single exceptional curve
    while not (axis_b is None and oa == 1):
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
    vertices = tuple(
        DGVertex(lab, weights[lab], lab == "Ltilde") for lab in order
    )
    edge_idx = tuple(
        sorted(tuple(sorted((index[x], index[y]))) for x, y in remaining)
    )
    graph = DualGraph(vertices, edge_idx, tuple(attach))

    for v in graph.vertices:
        if v.weight > -1:
            raise InvariantViolationError(
                "dual-graph weight above -1", vertex=v, pairs=data.pairs, r=r
            )
    if graph.component_count() > 2:
        raise InvariantViolationError(
            "dual graph split into more than two components",
            pairs=data.pairs,
            r=r,
        )
    return graph


def intersection_matrix(g: DualGraph) -> list[list[int]]:
    """Symmetric matrix: weights on the diagonal, 1 for each edge."""
    n = len(g.vertices)
    m = [[0] * n for _ in range(n)]
    for i, v in enumerate(g.vertices):
        m[i][i] = v.weight
    for i, j in g.edges:
        m[i][j] = m[j][i] = 1
    return m


def is_negative_definite(matrix) -> bool:
    """Exact sign test: the k-th leading principal minor must have sign
    (-1)^k for every k."""
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


def export_graph(g: DualGraph, format: str = "dot") -> str:
    """Serialize: DOT (vertices in creation order, weights as labels) or
    JSON (schema: vertices / edges by index / estar_attachment)."""
    fmt = format.lower()
    if fmt == "dot":
        lines = ["graph G {"]
        for v in g.vertices:
            lines.append(f'  {v.label} [label="w={v.weight}"];')
        for i, j in g.edges:
            lines.append(f"  {g.vertices[i].label} -- {g.vertices[j].label};")
        lines.append("}")
        return "\n".join(lines)
    if fmt == "json":
        doc = {
            "vertices": [
                {"label": v.label, "weight": v.weight, "is_Ltilde": v.is_Ltilde}
                for v in g.vertices
            ],
            "edges": [list(e) for e in g.edges],
            "estar_attachment": list(g.estar_attachment),
        }
        return json.dumps(doc, sort_keys=True, indent=2)
    raise PreconditionError(f"unknown format {format!r} (dot or json)")


def parse_graph_json(text: str) -> DualGraph:
    """Inverse of export_graph(..., 'json')."""
    doc = json.loads(text)
    vertices = tuple(
        DGVertex(v["label"], int(v["weight"]), bool(v["is_Ltilde"]))
        for v in doc["vertices"]
    )
    edges = tuple(sorted((int(i), int(j)) for i, j in doc["edges"]))
    return DualGraph(vertices, edges, tuple(doc["estar_attachment"]))
