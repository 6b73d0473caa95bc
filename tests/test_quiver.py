"""Doubled tree quivers and path algebra basis enumeration.

The independent oracle is a recursive count of non-backtracking walks on
the underlying graph, written directly against the adjacency structure
(never through the quiver machinery).
"""

import random

import pytest

from kminusone.curves import DualGraph
from kminusone.errors import InputError
from kminusone.quiver import (
    Arrow,
    QuiverWithRelations,
    algebra_basis,
    burban_quiver,
    doubled_quiver,
)

NOT_A_TREE = "input must be a connected loop-free tree of smooth rational curves"


def random_tree(rng, max_v=12):
    v = rng.randint(1, max_v)
    edges = tuple((rng.randrange(i), i) for i in range(1, v))
    return DualGraph(v, edges)


def count_non_backtracking_walks(graph, max_len):
    """Oracle: walks in the doubled graph that never traverse an edge and
    immediately traverse it back; counts walks of length 0..max_len."""
    darts = []  # (source, target, edge_id)
    for eid, (u, v) in enumerate(graph.edges):
        darts.append((u, v, eid))
        darts.append((v, u, eid))
    total = graph.vertex_count  # trivial walks
    frontier = [(v, None) for v in range(graph.vertex_count)]
    for _ in range(max_len):
        nxt = []
        for at, last in frontier:
            for s, t, eid in darts:
                if s != at:
                    continue
                if last is not None and eid == last[2] and t == last[0]:
                    continue  # immediate backtrack of the same edge
                nxt.append((t, (s, t, eid)))
        total += len(nxt)
        frontier = nxt
        if not frontier:
            break
    return total


def path_label(quiver, source, arrows):
    """Oracle for a basis label: e_v for an idempotent, else the arrow names
    joined by '·'."""
    if not arrows:
        return f"e{source + 1}"
    return "·".join(quiver.arrows[i].name for i in arrows)


def basis_walks(quiver, basis):
    """The (source, target, arrow indices) walk of each basis label, read
    back through the arrow names, which are unique in these quivers."""
    index = {a.name: i for i, a in enumerate(quiver.arrows)}
    assert len(index) == len(quiver.arrows)
    n = quiver.vertices
    assert basis.labels[:n] == tuple(f"e{v + 1}" for v in range(n))
    walks = [(v, v, ()) for v in range(n)]
    for label in basis.labels[n:]:
        arrows = tuple(index[name] for name in label.split("·"))
        walks.append((quiver.arrows[arrows[0]].source, quiver.arrows[arrows[-1]].target, arrows))
    return walks


class TestBurbanQuiver:
    def test_a2_chain(self):
        q = burban_quiver(DualGraph(2, ((0, 1),)))
        assert q.vertices == 2
        assert [(a.name, a.source, a.target) for a in q.arrows] == \
            [("a", 0, 1), ("a*", 1, 0)]
        assert set(q.relations) == {(0, 1), (1, 0)}

    def test_single_vertex(self):
        q = burban_quiver(DualGraph(1))
        assert q.vertices == 1 and not q.arrows and not q.relations

    def test_star_with_three_leaves(self):
        q = burban_quiver(DualGraph(4, ((0, 1), (0, 2), (0, 3))))
        assert q.vertices == 4
        assert len(q.arrows) == 6
        assert len(q.relations) == 6

    def test_rejects_non_trees(self):
        with pytest.raises(InputError, match=NOT_A_TREE):
            burban_quiver(DualGraph(1, ((0, 0),)))
        with pytest.raises(InputError, match=NOT_A_TREE):
            burban_quiver(DualGraph(4, ((0, 1), (2, 3))))  # disconnected
        with pytest.raises(InputError, match=NOT_A_TREE):
            burban_quiver(DualGraph(2, ((0, 1),), rational=(True, False)))


class TestAlgebraBasis:
    def test_a2_basis_exact(self):
        q = burban_quiver(DualGraph(2, ((0, 1),)))
        basis = algebra_basis(q)
        assert basis.dimension == 4
        assert set(basis.labels) == {"e1", "e2", "a", "a*"}

    def test_single_vertex(self):
        q = burban_quiver(DualGraph(1))
        assert algebra_basis(q).dimension == 1

    def test_chain_of_three(self):
        q = burban_quiver(DualGraph(3, ((0, 1), (1, 2))))
        assert algebra_basis(q).dimension == 9

    def test_dimension_is_vertex_count_squared(self):
        rng = random.Random(8)
        for _ in range(40):
            tree = random_tree(rng)
            q = burban_quiver(tree)
            basis = algebra_basis(q)
            assert basis.dimension == tree.vertex_count ** 2
            assert basis.dimension == count_non_backtracking_walks(
                tree, tree.vertex_count - 1)

    def test_idempotents_and_degree_one_part(self):
        rng = random.Random(12)
        for _ in range(20):
            tree = random_tree(rng, max_v=8)
            q = burban_quiver(tree)
            basis = algebra_basis(q)
            by_len = {}
            for _, _, arrows in basis_walks(q, basis):
                by_len[len(arrows)] = by_len.get(len(arrows), 0) + 1
            assert by_len.get(0, 0) == tree.vertex_count
            assert by_len.get(1, 0) == 2 * tree.edge_count

    def test_doubled_cycle_suspected_infinite(self):
        cycle = DualGraph(3, ((0, 1), (1, 2), (0, 2)))
        q = doubled_quiver(cycle)
        with pytest.raises(InputError, match="nonzero paths of every length exist"):
            algebra_basis(q)

    def test_two_cycle_with_one_relation_is_finite(self):
        q = QuiverWithRelations(2, (Arrow(0, 1, "a"), Arrow(1, 0, "b")), ((0, 1),))
        assert algebra_basis(q).labels == ("e1", "e2", "a", "b", "b·a")

    def test_finite_exactly_when_no_long_path_exists(self):
        # brute force: a nonzero path longer than the arrow count repeats an
        # arrow, so the algebra is infinite exactly when one exists
        rng, infinite = random.Random(21), 0
        for _ in range(200):
            n = rng.randint(1, 4)
            arrows = tuple(Arrow(rng.randrange(n), rng.randrange(n), f"x{i}")
                           for i in range(rng.randint(0, 5)))
            pairs = [(i, j) for i, x in enumerate(arrows) for j, y in enumerate(arrows)
                     if x.target == y.source]
            q = QuiverWithRelations(n, arrows, rng.sample(pairs, rng.randint(0, len(pairs))))
            allowed = set(pairs) - set(q.relations)
            walks, level = [], [(i,) for i in range(len(arrows))]
            for _ in range(len(arrows)):
                walks += level
                level = [p + (j,) for p in level for i, j in allowed if i == p[-1]]
            if level:
                infinite += 1
                with pytest.raises(InputError, match="every length"):
                    algebra_basis(q)
            else:
                basis = algebra_basis(q)
                assert sorted(p for _, _, p in basis_walks(q, basis) if p) == sorted(walks)
                assert basis.dimension == n + len(walks)
        assert 40 < infinite < 160

    def test_paths_respect_relations(self):
        rng = random.Random(3)
        tree = random_tree(rng)
        q = burban_quiver(tree)
        forbidden = set(q.relations)
        for _, _, arrows in basis_walks(q, algebra_basis(q)):
            for x, y in zip(arrows, arrows[1:]):
                assert (x, y) not in forbidden


class TestForestQuiver:
    def test_forest_dimension_is_sum_of_squares(self):
        forest = DualGraph(5, ((0, 1), (2, 3)))
        q = doubled_quiver(forest)
        assert algebra_basis(q).dimension == 4 + 4 + 1


class TestBasisOrderAndLabels:
    """The basis lists its paths by (length, source, arrow indices), each a
    walk along its arrows, with the label of its arrow names."""

    @staticmethod
    def check(q):
        basis = algebra_basis(q)
        rows = basis_walks(q, basis)
        assert rows == sorted(rows, key=lambda r: (len(r[2]), r[0], r[2]))
        assert len(set(rows)) == len(rows) == basis.dimension
        for source, target, arrows in rows:
            at = source
            for i in arrows:
                assert q.arrows[i].source == at
                at = q.arrows[i].target
            assert at == target
        assert basis.labels == tuple(path_label(q, s, a) for s, _, a in rows)
        return basis

    def test_random_trees(self):
        rng = random.Random(40)
        for _ in range(40):
            tree = random_tree(rng, max_v=40)
            assert self.check(burban_quiver(tree)).dimension == tree.vertex_count ** 2

    def test_forests(self):
        rng = random.Random(41)
        for _ in range(20):
            tree = random_tree(rng, max_v=15)
            edges = tuple(e for e in tree.edges if rng.random() < 0.6)
            forest = DualGraph(tree.vertex_count, edges)
            self.check(doubled_quiver(forest))

    def test_quiver_that_is_not_a_tree(self):
        # a, c: 1 -> 2 and b: 2 -> 3 with a·b = 0
        q = QuiverWithRelations(3, (Arrow(0, 1, "a"), Arrow(1, 2, "b"), Arrow(0, 1, "c")),
                                ((0, 1),))
        basis = self.check(q)
        assert basis.labels == ("e1", "e2", "e3", "a", "c", "b", "c·b")
        assert basis.dimension == 7
