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
from math import comb

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


def _checked_cokernel(m: IntMatrix, name: str, shape: tuple, rank: int,
                      rank_error: str) -> FinAbGroup:
    """Cokernel of the restriction matrix m, which must have the given
    shape and a cokernel of the given free rank."""
    if (m.rows, m.cols) != shape:
        raise InputError(
            f"{name} must be {shape[0]} x {shape[1]}, got {m.rows} x {m.cols}")
    k = cokernel(m)
    if k.free_rank != rank:
        raise InputError(rank_error)
    return k


def threefold_invariants(spec: VarietySpec) -> GlobalReport:
    """L, defect, K_-1 and the enough-Weil-divisors verdict of a threefold
    with isolated cA_n singularities.

    Without a restriction matrix the group is rank-only; delta = L then
    reports RankZeroUnverified because rank equality alone does not
    certify surjectivity of the restriction map (an integral condition).
    L = 0 is the exception: the variety is factorial and has enough Weil
    divisors at the same time.
    """
    L = spec.L
    delta = spec.defect
    if delta > L:
        raise InputError(
            f"defect {delta} exceeds L = {L}: the map Z^delta -> Z^L "
            "cannot be injective, so the input is inconsistent")
    m = spec.restriction_matrix
    if m is not None:
        k = _checked_cokernel(m, "restriction matrix", (L, delta), L - delta,
                              "restriction matrix does not have full column rank delta")
        ew = EnoughWeil.YES if k.is_trivial() else EnoughWeil.NO
        return GlobalReport(L, delta, k, ew, exact=True)
    if L == 0:
        # factorial and with enough Weil divisors at the same time
        return GlobalReport(0, 0, FinAbGroup.trivial(), EnoughWeil.YES, exact=True)
    k = FinAbGroup.free(L - delta)
    if delta < L:
        ew = EnoughWeil.NO
        # delta = 0 makes the sequence split off nothing: K_-1 = Z^L exactly
        return GlobalReport(L, delta, k, ew, exact=(delta == 0))
    return GlobalReport(L, delta, k, EnoughWeil.RANK_ZERO_UNVERIFIED, exact=False)


@record
class SmallResolutionRank:
    rank_k_minus_one: int
    defect: int


def small_resolution_rank(r: int, mu: int, rho_x: int, rho_y: int) -> SmallResolutionRank:
    """rk K_-1 = r - mu + rho_X - rho_Y for a nodal threefold X with r
    nodes whose small resolution is the blow-up of mu points on a smooth
    Y; the defect is mu + rho_Y - rho_X."""
    if r < 0 or mu < 0:
        raise InputError("node and point counts must be >= 0")
    rank = r - mu + rho_x - rho_y
    delta = mu + rho_y - rho_x
    if rank < 0 or delta < 0:
        raise InputError(
            f"rank {rank}, defect {delta}: inconsistent small-resolution data")
    return SmallResolutionRank(rank, delta)


@record
class DelPezzoRow:
    d: int
    singular_points: int
    pic_rank: int
    cl_rank: int
    k_rank: int
    verdict: str


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


def del_pezzo_node_count(mu: int) -> int:
    """Nodes of the half-anticanonical contraction of the blow-up of mu
    general points on P^3: one per contracted line through a point pair
    plus one per twisted cubic through a six-tuple."""
    return comb(mu, 2) + comb(mu, 6)


def del_pezzo_spec(d: int) -> VarietySpec:
    """Rank-only VarietySpec of the del Pezzo threefold of degree d with
    maximal class group rank (1 <= d <= 5)."""
    if not 1 <= d <= 5:
        raise InputError("del Pezzo blow-up description covers 1 <= d <= 5")
    mu = 8 - d
    r = del_pezzo_node_count(mu)
    res = small_resolution_rank(r, mu, 1, 1)
    sing = (ordinary_double_point(),) * r
    return VarietySpec(singularities=sing, pic_rank=1,
                       cl_rank=1 + res.defect, label=f"del-pezzo-{d}")


def del_pezzo_case(d: int) -> DelPezzoRow:
    """One row of the del Pezzo threefold summary table: the threefold
    report of del_pezzo_spec(d), built from the blow-up description
    (mu = 8 - d points on Y = P^3, rho_Y = 1), or of the catalog spec for
    d = 6.  Only the d = 5 and d = 6 verdicts are stored: "?" remains
    open in degree 5, and degree 6 is the P^2 x P^2-section example."""
    if not 1 <= d <= 6:
        raise InputError("the summary table covers 1 <= d <= 6")
    spec = kawamata_p2p2_spec() if d == 6 else del_pezzo_spec(d)
    rank = threefold_invariants(spec).k_minus_one.free_rank
    verdict = "Yes" if d == 6 else "No" if rank > 0 else "Unknown"
    return DelPezzoRow(d, len(spec.singularities), spec.pic_rank, spec.cl_rank,
                       rank, verdict)


def del_pezzo_table() -> list:
    return [del_pezzo_case(d) for d in range(1, 7)]


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
    m = spec.restriction_matrix
    if m is None:
        return FinAbGroup.free(rank), rank == 0 and spec.is_smooth
    shape = (spec.exceptional_components, spec.resolution_pic_rank)
    return _checked_cokernel(m, "surface restriction matrix", shape, rank,
                             "matrix cokernel rank disagrees with the resolution "
                             "rank data"), True
