"""Global invariants of threefolds with isolated cA_n singularities:
defect, the local-class-group total L, the rank (or exact value) of K_-1,
and the enough-Weil-divisors predicate; also the surface rank formula and
the del Pezzo threefold catalog.

Everything routes through the exact sequence

    0 -> Z^delta -> Z^L -> K_-1(X) -> 0,

with L = br(X) - #Sing(X) and delta = rk Cl(X) - rk Pic(X).  When the
restriction matrix of Cl(X) -> (+)_p Cl(O^_{X,p}) is supplied on free
generators, K_-1 is its cokernel computed exactly; otherwise only the
rank L - delta is known.
"""

from __future__ import annotations

from enum import Enum
from itertools import combinations

from .errors import InputError
from .exact import FinAbGroup, IntMatrix, cokernel
from .localsing import ordinary_double_point
from .records import integers, record


class EnoughWeil(Enum):
    YES = "Yes"
    NO = "No"
    RANK_ZERO_UNVERIFIED = "RankZeroUnverified"


@record
class VarietySpec:
    """Global input record for a projective threefold with isolated cA_n
    singularities.  cl_rank >= pic_rank; the optional restriction matrix
    has one row per free generator of the local class groups (L rows) and
    one column per generator of Cl/Pic (delta columns)."""

    singularities: tuple
    pic_rank: int
    cl_rank: int
    restriction_matrix: IntMatrix | None = None
    label: str = ""

    def __post_init__(self):
        if self.pic_rank < 0 or self.cl_rank < self.pic_rank:
            raise ValueError("need 0 <= pic_rank <= cl_rank")
        object.__setattr__(self, "singularities", tuple(self.singularities))

    @property
    def L(self) -> int:
        return sum(s.cl_rank for s in self.singularities)

    @property
    def defect(self) -> int:
        return self.cl_rank - self.pic_rank

    @property
    def is_nodal(self) -> bool:
        return all(s.is_node for s in self.singularities)

    @property
    def is_smooth(self) -> bool:
        return not self.singularities


@record
class GlobalReport:
    L: int
    delta: int
    k_minus_one: FinAbGroup
    enough_weil: EnoughWeil
    exact: bool  # True when K_-1 is known integrally, not just its rank

    def __post_init__(self):
        if not (0 <= self.delta <= self.L):
            raise ValueError("need 0 <= delta <= L")
        if self.k_minus_one.free_rank != self.L - self.delta:
            raise ValueError("rank of K_-1 must be L - delta")


def _checked_cokernel(m: IntMatrix | None, name: str, shape: tuple, rank: int,
                      rank_error: str, exact: bool) -> tuple:
    """(K_-1, exact) from restriction data: the cokernel of the matrix m,
    which must have the given shape and a cokernel of the given free rank;
    without m, the free group of that rank, exact as the caller's rule says."""
    if m is None:
        return FinAbGroup.free(rank), exact
    if (m.rows, m.cols) != shape:
        raise InputError(
            f"{name} must be {shape[0]} x {shape[1]}, got {m.rows} x {m.cols}")
    k = cokernel(m)
    if k.free_rank != rank:
        raise InputError(rank_error)
    return k, True


def threefold_invariants(spec: VarietySpec) -> GlobalReport:
    """L, defect, K_-1 and the enough-Weil-divisors verdict of a threefold
    with isolated cA_n singularities.

    Without a restriction matrix the group is rank-only: K_-1 = Z^(L-delta),
    exact when delta = 0.  delta = L > 0 then reports RankZeroUnverified
    because rank equality alone does not certify surjectivity of the
    restriction map (an integral condition); L = 0 forces delta = 0, so a
    factorial variety has enough Weil divisors.
    """
    L = spec.L
    delta = spec.defect
    if delta > L:
        raise InputError(
            f"defect {delta} exceeds L = {L}: the map Z^delta -> Z^L "
            "cannot be injective, so the input is inconsistent")
    k, exact = _checked_cokernel(spec.restriction_matrix, "restriction matrix", (L, delta),
                                 L - delta, "restriction matrix does not have full "
                                 "column rank delta", delta == 0)
    ew = (EnoughWeil.NO if not k.is_trivial() else EnoughWeil.YES if exact
          else EnoughWeil.RANK_ZERO_UNVERIFIED)
    return GlobalReport(L, delta, k, ew, exact)


def nodal_quadric_spec() -> VarietySpec:
    """The nodal quadric threefold xy - zw = 0 in P^4: Pic = Z (hyperplane),
    Cl = Z^2 (the two planes through the node), restriction map an
    isomorphism."""
    return VarietySpec(singularities=(ordinary_double_point(),),
                       pic_rank=1, cl_rank=2,
                       restriction_matrix=IntMatrix.from_rows([[1]]),
                       label="nodal-quadric")


def kawamata_p2p2_spec() -> VarietySpec:
    """Blow-up of two points on P^3 with the line through them contracted
    to a node (a nodal linear section of the Segre P^2 x P^2): Pic = Z^2,
    Cl = Z^3, maximally nonfactorial."""
    return VarietySpec(singularities=(ordinary_double_point(),),
                       pic_rank=2, cl_rank=3,
                       restriction_matrix=IntMatrix.from_rows([[1]]),
                       label="kawamata-p2p2")


def contracted_curves(mu: int) -> list:
    """The curves that the half-anticanonical contraction of the blow-up of
    mu general points of P^3 contracts, as rows (H.C, E_1.C, ..., E_mu.C):
    the line through each pair of points, and for mu >= 6 the twisted
    cubic through each six of them."""
    curves = [(1, points) for points in combinations(range(mu), 2)]
    curves += [(3, points) for points in combinations(range(mu), 6)]
    return [[h] + [int(i in points) for i in range(mu)] for h, points in curves]


def del_pezzo_spec(d: int) -> VarietySpec:
    """The del Pezzo threefold X of degree d with maximal class group rank
    (1 <= d <= 5), with its restriction matrix (the source paper, arXiv:
    1910.09531; Prokhorov, "G-Fano threefolds, I", Adv. Geom. 13, 2013).

    X~ = Bl_mu P^3, the blow-up of mu = 8 - d general points, is a small
    resolution of X; it contracts the curves of contracted_curves(mu), one
    per node.  Cl(X) = Pic(X~) = Z<H, E_1 .. E_mu> and Pic(X) = Z(2H - sum
    E_i), which meets every contracted curve in degree 0.  The local class
    group at the node x is Z, read as the degree on its exceptional curve
    C_x, so the restriction map is D -> (D.C_x)_x; on the basis H, E_1 ..
    E_(mu-1) of Cl/Pic it is the L x mu matrix of those degrees."""
    if not 1 <= d <= 5:
        raise InputError("del Pezzo blow-up description covers 1 <= d <= 5")
    mu = 8 - d
    rows = [row[:-1] for row in contracted_curves(mu)]
    return VarietySpec(singularities=(ordinary_double_point(),) * len(rows),
                       pic_rank=1, cl_rank=1 + mu,
                       restriction_matrix=IntMatrix.from_rows(rows),
                       label=f"del-pezzo-{d}")


def surface_rank(rho_x: int, rho_resolution: int, n_exceptional: int) -> int:
    """rk K_-1 of a rational surface with rational singularities from
    resolution data: the four-term sequence
    0 -> Pic(X) -> Pic(X~) -> Pic(E) -> K_-1(X) -> 0 with Pic(E) = Z^N
    gives N - (rho(X~) - rho(X))."""
    if rho_resolution < rho_x:
        raise InputError("the resolution Picard rank cannot drop")
    rank = n_exceptional - (rho_resolution - rho_x)
    if rank < 0:
        raise InputError(f"rank {rank} < 0: inconsistent surface resolution data")
    return rank


@record
class SurfaceResolutionSpec:
    """Resolution data of a normal rational projective surface with
    rational singularities.  The optional matrix is the restriction map
    Pic(X~) -> Pic(E) = Z^N on generators; its cokernel is K_-1 exactly."""

    pic_rank: int
    resolution_pic_rank: int
    exceptional_components: int
    toric_gorenstein: bool = False
    singularity_orders: tuple = ()
    restriction_matrix: IntMatrix | None = None
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "singularity_orders",
                           integers(self.singularity_orders, "singularity orders"))
        if any(n < 2 for n in self.singularity_orders):
            raise ValueError("cyclic quotient singularity orders are >= 2")

    @property
    def is_smooth(self) -> bool:
        return (self.exceptional_components == 0
                and self.resolution_pic_rank == self.pic_rank)


def surface_k_minus_one(spec: SurfaceResolutionSpec):
    """(group, exact) for a surface spec: exact when a restriction matrix
    pins the cokernel down integrally."""
    rank = surface_rank(spec.pic_rank, spec.resolution_pic_rank,
                        spec.exceptional_components)
    shape = (spec.exceptional_components, spec.resolution_pic_rank)
    return _checked_cokernel(spec.restriction_matrix, "surface restriction matrix", shape,
                             rank, "matrix cokernel rank disagrees with the resolution "
                             "rank data", rank == 0 and spec.is_smooth)
