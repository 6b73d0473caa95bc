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
class BasisPath:
    """A nonzero path: length-0 paths are the vertex idempotents e_v."""

    source: int
    target: int
    arrows: tuple = ()

    @property
    def length(self) -> int:
        return len(self.arrows)

    def label(self, quiver: QuiverWithRelations) -> str:
        if not self.arrows:
            return f"e{self.source + 1}"
        return "·".join(quiver.arrows[i].name for i in self.arrows)


@record
class AlgebraBasis:
    paths: tuple
    dimension: int

    def labels(self, quiver: QuiverWithRelations):
        return [p.label(quiver) for p in self.paths]


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
    """All nonzero paths of length below the vertex count.

    If a valid path as long as the vertex count exists, the algebra is
    suspected infinite dimensional (a non-backtracking walk that long in
    a doubled tree cannot exist) and InputError is raised instead of
    returning a truncated basis.
    """
    forbidden = set(quiver.relations)
    by_source = {}
    for idx, a in enumerate(quiver.arrows):
        by_source.setdefault(a.source, []).append(idx)

    paths = [BasisPath(v, v) for v in range(quiver.vertices)]
    frontier = list(paths)
    length = 0
    while frontier:
        length += 1
        nxt = []
        for p in frontier:
            for idx in by_source.get(p.target, ()):
                if p.arrows and (p.arrows[-1], idx) in forbidden:
                    continue
                nxt.append(BasisPath(p.source, quiver.arrows[idx].target,
                                     p.arrows + (idx,)))
        if nxt and length >= quiver.vertices:
            raise InputError(
                f"a nonzero path of length {quiver.vertices} exists; non-tree input")
        paths.extend(nxt)
        frontier = nxt
    paths.sort(key=lambda p: (p.length, p.source, p.arrows))
    return AlgebraBasis(tuple(paths), len(paths))
