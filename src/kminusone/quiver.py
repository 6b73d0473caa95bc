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
    """All nonzero paths, in the order (length, source, arrow indices).

    The basis is finite exactly when the graph on arrows with an edge i -> j
    whenever j may follow i has no cycle; otherwise InputError is raised
    before any path is listed.
    """
    arrows, forbidden = quiver.arrows, set(quiver.relations)
    leaving = [[] for _ in range(quiver.vertices)]
    for i, a in enumerate(arrows):
        leaving[a.source].append(i)
    # relations are composable pairs, so what may follow a path depends only
    # on its last arrow: (index, target, name) of each arrow allowed after it
    follow = [[(j, arrows[j].target, arrows[j].name) for j in leaving[a.target]
               if (i, j) not in forbidden] for i, a in enumerate(arrows)]
    indegree = [0] * len(arrows)
    for j, _, _ in (x for nxt in follow for x in nxt):
        indegree[j] += 1
    order = [i for i, d in enumerate(indegree) if not d]
    for i in order:  # Kahn's algorithm: the arrows on no cycle nor after one
        for j, _, _ in follow[i]:
            indegree[j] -= 1
            if not indegree[j]:
                order.append(j)
    if len(order) < len(arrows):
        raise InputError("nonzero paths of every length exist; "
                         "the algebra is infinite-dimensional")
    paths = [(v, v, ()) for v in range(quiver.vertices)]
    labels = [f"e{v + 1}" for v in range(quiver.vertices)]
    # each level lists (source, target, arrows, label, follow) in basis order,
    # so extending its paths in turn by increasing arrow index keeps that order
    level = [(v, arrows[i].target, (i,), arrows[i].name, follow[i])
             for v in range(quiver.vertices) for i in leaving[v]]
    while level:
        paths += [(s, t, p) for s, t, p, _, _ in level]
        labels += [label for _, _, _, label, _ in level]
        level = [(s, u, p + (j,), f"{label}·{name}", follow[j])
                 for s, _, p, label, nxt in level for j, u, name in nxt]
    return AlgebraBasis(tuple(paths), tuple(labels))
