"""K_-1 of reduced projective curves from combinatorial data.

A nodal curve is encoded by its dual graph (vertices = irreducible
components, edges = nodes, loops = self-nodes); K_-1 is free of rank
equal to the first Betti number.  General curves enter through branch
data per connected piece: the rank is br - #Sing - N + 1, summed over
pieces, and the group is torsion free.
"""

from __future__ import annotations

from .errors import InputError
from .exact import FinAbGroup
from .records import record


@record
class DualGraph:
    """Finite multigraph with loops.  Per-vertex flags record whether the
    component is rational and whether it is a smooth P^1.

    A vertex carrying a loop has a self-node, so it cannot be a smooth
    P^1; when the flag is not supplied it defaults to ``rational and
    loop-free``.
    """

    vertex_count: int
    edges: tuple = ()
    rational: tuple = ()
    smooth_p1: tuple = ()

    def __post_init__(self):
        if self.vertex_count < 0:
            raise ValueError("negative vertex count")
        edges = tuple(tuple(sorted((int(u), int(v)))) for u, v in self.edges)
        for u, v in edges:
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise ValueError(f"edge ({u}, {v}) out of range")
        object.__setattr__(self, "edges", edges)
        loops = {u for u, v in edges if u == v}
        rational = self.rational or (True,) * self.vertex_count
        if len(rational) != self.vertex_count:
            raise ValueError("rationality flags must cover every vertex")
        rational = tuple(bool(x) for x in rational)
        if self.smooth_p1:
            smooth = tuple(bool(x) for x in self.smooth_p1)
            if len(smooth) != self.vertex_count:
                raise ValueError("smooth_p1 flags must cover every vertex")
            for v in range(self.vertex_count):
                if smooth[v] and v in loops:
                    raise ValueError(
                        f"vertex {v} has a self-node, so it is not a smooth P^1")
                if smooth[v] and not rational[v]:
                    raise ValueError(f"vertex {v}: a smooth P^1 is rational")
        else:
            smooth = tuple(rational[v] and v not in loops
                           for v in range(self.vertex_count))
        object.__setattr__(self, "rational", rational)
        object.__setattr__(self, "smooth_p1", smooth)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def has_loop(self) -> bool:
        return any(u == v for u, v in self.edges)

    def connected_components(self):
        """Vertex sets of the connected components, via union-find, in
        deterministic order of smallest member."""
        parent = list(range(self.vertex_count))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in self.edges:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[max(ru, rv)] = min(ru, rv)
        comps = {}
        for v in range(self.vertex_count):
            comps.setdefault(find(v), []).append(v)
        return [comps[r] for r in sorted(comps)]


@record
class GeneralCurvePiece:
    """Branch data of one connected curve: N irreducible components and
    the local branch number at each singular point.  A cusp has branch
    number 1, a node 2."""

    irreducible_components: int
    branch_numbers: tuple = ()

    def __post_init__(self):
        if self.irreducible_components < 1:
            raise ValueError("a connected curve has at least one component")
        brs = tuple(int(b) for b in self.branch_numbers)
        if any(b < 1 for b in brs):
            raise ValueError("branch numbers are >= 1")
        object.__setattr__(self, "branch_numbers", brs)


@record
class CurveSpec:
    """Either a dual graph (nodal case) or general branch data."""

    graph: DualGraph | None = None
    pieces: tuple = ()

    def __post_init__(self):
        if (self.graph is None) == (not self.pieces):
            raise ValueError("give exactly one of: dual graph, branch data")
        object.__setattr__(self, "pieces", tuple(self.pieces))


def betti1(graph: DualGraph) -> int:
    """First Betti number |E| - |V| + #components of the dual graph."""
    return graph.edge_count - graph.vertex_count + len(graph.connected_components())


def _piece_rank(piece: GeneralCurvePiece) -> int:
    br = sum(piece.branch_numbers)
    sing = len(piece.branch_numbers)
    rank = br - sing - piece.irreducible_components + 1
    if rank < 0:
        raise InputError(
            f"rank formula gives {rank} < 0; no genuine curve has this data")
    return rank


def curve_k_minus_one(spec) -> FinAbGroup:
    """K_-1 of the curve: free of rank b_1 of the dual graph, or of rank
    br - #Sing - N + 1 per connected piece, summed over pieces.  Accepts a
    CurveSpec, a DualGraph, or an iterable of GeneralCurvePiece."""
    if isinstance(spec, CurveSpec):
        spec = spec.pieces if spec.graph is None else spec.graph
    if isinstance(spec, DualGraph):
        return FinAbGroup.free(betti1(spec))
    return FinAbGroup.free(sum(_piece_rank(p) for p in spec))


def is_tree_of_lines(graph: DualGraph) -> bool:
    """True iff the graph is a connected loop-free tree whose components
    are all smooth P^1: the hypotheses of the tilting-object theorem for
    nodal trees of projective lines.  A forest is connected exactly when
    it has one edge fewer than vertices."""
    return is_forest_of_lines(graph) and graph.edge_count == graph.vertex_count - 1


def is_forest_of_lines(graph: DualGraph) -> bool:
    """Every connected component a tree of smooth P^1 (possibly several)."""
    if graph.vertex_count < 1:
        return False
    if graph.has_loop() or betti1(graph) != 0:
        return False
    return all(graph.smooth_p1)
