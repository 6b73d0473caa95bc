"""The tilting algebra of a nodal tree of projective lines.

Doubling the tree (one arrow each way per edge) and killing every
back-and-forth composition yields a finite-dimensional algebra whose
basis is exactly the non-backtracking walks; in a tree those are the
simple paths, so the dimension is the square of the vertex count.
"""

import random

from kminusone import DualGraph, algebra_basis, burban_quiver

print("The A2 chain: two lines meeting at a node.")
q = burban_quiver(DualGraph(2, ((0, 1),)))
for a in q.arrows:
    print(f"  arrow {a.name}: {a.source + 1} -> {a.target + 1}")
print("  relations:", ", ".join(
    f"{q.arrows[i].name}{q.arrows[j].name} = 0" for i, j in q.relations))
basis = algebra_basis(q)
print(f"  basis = {{{', '.join(basis.labels)}}}, dimension {basis.dimension}")

print()
print("A star with three leaves:")
star = DualGraph(4, ((0, 1), (0, 2), (0, 3)))
q = burban_quiver(star)
basis = algebra_basis(q)
print(f"  {q.vertices} vertices, {len(q.arrows)} arrows, "
      f"{len(q.relations)} relations, dimension {basis.dimension} = 4^2")

print()
print("Random trees: dimension is always V^2 (one simple path per")
print("ordered vertex pair, including the idempotents).")
rng = random.Random(0)
for _ in range(5):
    v = rng.randint(2, 9)
    tree = DualGraph(v, tuple((rng.randrange(i), i) for i in range(1, v)))
    dim = algebra_basis(burban_quiver(tree)).dimension
    print(f"  V = {v}: dimension = {dim}")
    assert dim == v * v
