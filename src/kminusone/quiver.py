"""The doubled-quiver path algebra attached to a nodal tree of projective
lines, and basis enumeration for its path algebra modulo relations.

For a tree with an edge between p and q the quiver carries arrows
a: p -> q and a*: q -> p, with every composition a a* and a* a set to
zero.  Since the relations are quadratic monomials, a path is nonzero in
the algebra exactly when it never immediately backtracks, so the basis is
enumerated directly as non-backtracking walks; in a tree those walks are
simple paths, giving dimension V^2.
"""

from __future__ import annotations

from .curves import DualGraph, is_tree_of_lines
from .errors import InputError
from .records import record


@record
class Arrow:
    source: int
    target: int
    name: str


@record
class QuiverWithRelations:
    """Quiver with length-2 monomial relations, given as pairs of arrow
    indices (first traversed, second traversed)."""

    vertices: int
    arrows: tuple = ()
    relations: tuple = ()

    def __post_init__(self):
        arrows = tuple(self.arrows)
        for a in arrows:
            if not (0 <= a.source < self.vertices and 0 <= a.target < self.vertices):
                raise ValueError(f"arrow {a.name} out of range")
        rels = tuple(tuple(r) for r in self.relations)
        for i, j in rels:
            if arrows[i].target != arrows[j].source:
                raise ValueError("relation pair is not composable")
        object.__setattr__(self, "arrows", arrows)
        object.__setattr__(self, "relations", rels)


@record
class AlgebraBasis:
    """Nonzero paths as (source, target, arrow indices) rows, with their
    labels: e_v for the idempotent at v, else the arrow names joined by '·'."""

    paths: tuple
    labels: tuple

    @property
    def dimension(self) -> int:
        return len(self.paths)


def doubled_quiver(graph: DualGraph) -> QuiverWithRelations:
    """Doubled quiver of a loop-free graph with the back-and-forth
    compositions killed; no connectivity requirement (used for forests)."""
    if graph.has_loop():
        raise InputError("the dual graph has a loop")
    arrows = []
    relations = []
    single = graph.edge_count == 1
    for i, (u, v) in enumerate(graph.edges):
        name = "a" if single else f"a{i + 1}"
        arrows.append(Arrow(u, v, name))
        arrows.append(Arrow(v, u, name + "*"))
        relations.append((2 * i, 2 * i + 1))
        relations.append((2 * i + 1, 2 * i))
    return QuiverWithRelations(graph.vertex_count, tuple(arrows), tuple(relations))


def burban_quiver(tree: DualGraph) -> QuiverWithRelations:
    """Quiver with relations of the tilting algebra of a nodal tree of
    projective lines."""
    if not is_tree_of_lines(tree):
        raise InputError(
            "input must be a connected loop-free tree of smooth rational curves")
    return doubled_quiver(tree)


def algebra_basis(quiver: QuiverWithRelations) -> AlgebraBasis:
    """All nonzero paths of length below the vertex count, in the order
    (length, source, arrow indices).

    A valid path as long as the vertex count raises InputError instead of
    returning a truncated basis.  That refusal is exact for doubled forests,
    where a non-backtracking walk that long cannot exist.  Other quivers may
    be refused although their basis is finite: arrows a: 1 -> 2 and
    b: 2 -> 1 with only a·b = 0 have the basis e1, e2, a, b, b·a, and are
    refused because b·a has length 2.
    """
    arrows, forbidden = quiver.arrows, set(quiver.relations)
    leaving = [[] for _ in range(quiver.vertices)]
    for i, a in enumerate(arrows):
        leaving[a.source].append(i)
    # relations are composable pairs, so what may follow a path depends only
    # on its last arrow: (index, target, name) of each arrow allowed after it
    follow = [[(j, arrows[j].target, arrows[j].name) for j in leaving[a.target]
               if (i, j) not in forbidden] for i, a in enumerate(arrows)]
    paths = [(v, v, ()) for v in range(quiver.vertices)]
    labels = [f"e{v + 1}" for v in range(quiver.vertices)]
    # each level lists (source, target, arrows, label, follow) in basis order,
    # so extending its paths in turn by increasing arrow index keeps that order
    level = [(v, arrows[i].target, (i,), arrows[i].name, follow[i])
             for v in range(quiver.vertices) for i in leaving[v]]
    length = 1
    while level:
        if length >= quiver.vertices:
            raise InputError(
                f"a nonzero path of length {quiver.vertices} exists; non-tree input")
        paths += [(s, t, p) for s, t, p, _, _ in level]
        labels += [label for _, _, _, label, _ in level]
        level = [(s, u, p + (j,), f"{label}·{name}", follow[j])
                 for s, _, p, label, nxt in level for j, u, name in nxt]
        length += 1
    return AlgebraBasis(tuple(paths), tuple(labels))
