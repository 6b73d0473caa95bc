"""Three-valued decision on the existence of a Kawamata-type
semiorthogonal decomposition, with a machine-checkable obstruction or
certificate.

`No` is sound: it always carries a nonzero K_-1 recomputable from the
input.  `Yes` is only issued for constructions with a replayable
certificate: smooth varieties, nodal trees of projective lines (the
doubled-quiver tilting algebra), Gorenstein toric surfaces with verified
K_-1 = 0, the two known nodal Fano threefolds (matched by catalog label,
never by structural recognition), and blow-ups of Yes-pairs.  Everything
in between is `Unknown` by design: the mathematics provides a necessary
condition and scattered sufficient constructions, and the gap is real.
"""

from __future__ import annotations

from enum import Enum

from .curves import CurveSpec, DualGraph, curve_k_minus_one, is_forest_of_lines
from .errors import SpecValidationError
from .exact import FinAbGroup
from .quiver import QuiverWithRelations, doubled_quiver
from .records import record
from .varieties import (
    EnoughWeil,
    SurfaceResolutionSpec,
    VarietySpec,
    kawamata_p2p2_spec,
    nodal_quadric_spec,
    surface_k_minus_one,
    threefold_invariants,
)

CHELTSOV_NOTE = ("Cheltsov conjecture: the only nodal Fano threefolds of "
                 "Picard rank one with a Kawamata type decomposition are "
                 "the quadric, V5 and V22")


class Decision(Enum):
    NO = "No"
    YES = "Yes"
    UNKNOWN = "Unknown"


class CertificateKind(Enum):
    SMOOTH_TRIVIAL = "SmoothTrivial"
    BURBAN_TREE = "BurbanTree"
    KAWAMATA_QUADRIC = "KawamataQuadric"
    KAWAMATA_P2P2_SECTION = "KawamataP2P2Section"
    TORIC_SURFACE = "ToricSurface"
    BLOWUP_OF_YES_PAIR = "BlowupOfYesPair"


@record
class Certificate:
    kind: CertificateKind
    quiver: QuiverWithRelations | None = None  # BurbanTree
    algebra_orders: tuple = ()                 # ToricSurface
    parts: tuple = ()                          # BlowupOfYesPair

    def __post_init__(self):
        if self.kind is CertificateKind.BURBAN_TREE and self.quiver is None:
            raise ValueError("a BurbanTree certificate carries its quiver")
        if self.kind is CertificateKind.BLOWUP_OF_YES_PAIR:
            if not self.parts or any(p.decision is not Decision.YES for p in self.parts):
                raise ValueError("a BlowupOfYesPair certificate replays Yes on "
                                 "both the base and the center")
        object.__setattr__(self, "algebra_orders", tuple(self.algebra_orders))
        object.__setattr__(self, "parts", tuple(self.parts))


@record
class Verdict:
    decision: Decision
    obstruction: FinAbGroup | None = None
    certificate: Certificate | None = None
    notes: tuple = ()
    k_minus_one: FinAbGroup | None = None

    def __post_init__(self):
        object.__setattr__(self, "notes", tuple(self.notes))
        if self.decision is Decision.NO:
            if self.obstruction is None or self.obstruction.is_trivial():
                raise ValueError("a No verdict carries a nonzero obstruction")
            if self.certificate is not None:
                raise ValueError("a verdict never carries both")
        elif self.decision is Decision.YES:
            if self.certificate is None:
                raise ValueError("a Yes verdict carries a certificate")
            if self.obstruction is not None:
                raise ValueError("a verdict never carries both")
        else:
            if self.obstruction is not None or self.certificate is not None:
                raise ValueError("an Unknown verdict carries neither "
                                 "obstruction nor certificate")


def smooth_verdict() -> Verdict:
    return Verdict(Decision.YES,
                   certificate=Certificate(CertificateKind.SMOOTH_TRIVIAL),
                   k_minus_one=FinAbGroup.trivial())


def _verdict(k: FinAbGroup, smooth: bool, certify, notes, exact: bool = True) -> Verdict:
    """The soundness contract, the one decision rule of every input kind: a
    smooth input is Yes; K_-1 != 0 is No with K_-1 as the obstruction; K_-1 = 0
    is Yes with certify()'s certificate, run only then, or else Unknown with
    the notes, carrying K_-1 only when it is known exactly."""
    if smooth:
        return smooth_verdict()
    if not k.is_trivial():
        return Verdict(Decision.NO, obstruction=k, k_minus_one=k)
    cert = certify()
    if cert is not None:
        return Verdict(Decision.YES, certificate=cert, k_minus_one=k)
    return Verdict(Decision.UNKNOWN, k_minus_one=k if exact else None, notes=tuple(notes))


def _decide_curve(spec: CurveSpec) -> Verdict:
    k = curve_k_minus_one(spec)
    graph = spec.graph
    if graph is None:
        return _verdict(k, all(not p.branch_numbers for p in spec.pieces), lambda: None, (
            "K_-1 vanishes, but no certified construction covers this "
            "singularity data",))
    return _verdict(k, graph.edge_count == 0, lambda: (
        Certificate(CertificateKind.BURBAN_TREE, quiver=doubled_quiver(graph))
        if is_forest_of_lines(graph) else None), (
        "K_-1 vanishes, but the tree certificate needs all components "
        "to be smooth rational curves",))


_CATALOG = {
    "nodal-quadric": (nodal_quadric_spec, CertificateKind.KAWAMATA_QUADRIC),
    "kawamata-p2p2": (kawamata_p2p2_spec, CertificateKind.KAWAMATA_P2P2_SECTION),
}
_REPLAYED = {}  # label -> whether its catalog spec replayed


def _catalog_certificate(spec: VarietySpec) -> Certificate | None:
    entry = _CATALOG.get(spec.label)
    if entry is None:
        return None
    make, kind = entry
    reference = make()
    same = (spec.pic_rank == reference.pic_rank
            and spec.cl_rank == reference.cl_rank
            and sorted(s.br for s in spec.singularities)
            == sorted(s.br for s in reference.singularities))
    if not same:
        raise SpecValidationError(
            "label", f"invariants do not match the catalog entry {spec.label!r}")
    # replay, once per label: the catalog spec certifies K_-1 = 0 through its matrix
    if spec.label not in _REPLAYED:
        _REPLAYED[spec.label] = threefold_invariants(reference).k_minus_one.is_trivial()
    if not _REPLAYED[spec.label]:
        raise SpecValidationError("label", "catalog replay failed")
    return Certificate(kind)


def _decide_threefold(spec: VarietySpec) -> Verdict:
    rep = threefold_invariants(spec)
    notes = ["rk K_-1 = 0, but rank data alone does not certify "
             "surjectivity of the restriction map; supply a "
             "restriction matrix to verify"
             if rep.enough_weil is EnoughWeil.RANK_ZERO_UNVERIFIED else
             "K_-1 = 0 and the variety has enough Weil divisors: "
             "the necessary condition holds, but no certified "
             "construction matches"]
    if spec.pic_rank == 1:
        notes.append(CHELTSOV_NOTE)
    return _verdict(rep.k_minus_one, spec.is_smooth, lambda: _catalog_certificate(spec),
                    notes, rep.exact)


def _decide_surface(spec: SurfaceResolutionSpec) -> Verdict:
    k, exact = surface_k_minus_one(spec)
    note = ("K_-1 = 0; for a Gorenstein toric surface this would be "
            "decisive, but toricity was not asserted" if exact else
            "rk K_-1 = 0, but vanishing is unverified without the "
            "restriction matrix of the resolution")
    return _verdict(k, spec.is_smooth, lambda: (
        Certificate(CertificateKind.TORIC_SURFACE, algebra_orders=spec.singularity_orders)
        if exact and spec.toric_gorenstein else None), (note,), exact)


def _decide_blowup(pipeline) -> Verdict:
    def certify():
        parts = [smooth_verdict()]
        parts += [_decide_curve(CurveSpec(graph=step.center)) for step in pipeline.steps]
        return (Certificate(CertificateKind.BLOWUP_OF_YES_PAIR, parts=parts)
                if all(p.decision is Decision.YES for p in parts) else None)

    return _verdict(pipeline.k_minus_one(), False, certify, (
        "K_-1 of the blow-up vanishes, but a center is not a certified "
        "Yes (non-rational or non-smooth components)",))


def decide(obj) -> Verdict:
    """Decide existence of a Kawamata-type semiorthogonal decomposition
    for a curve, a threefold spec, a surface resolution spec, or a
    blow-up pipeline."""
    from .blowup import BlowupPipeline  # local import to avoid a cycle

    if isinstance(obj, DualGraph):
        obj = CurveSpec(graph=obj)
    if isinstance(obj, CurveSpec):
        return _decide_curve(obj)
    if isinstance(obj, VarietySpec):
        return _decide_threefold(obj)
    if isinstance(obj, SurfaceResolutionSpec):
        return _decide_surface(obj)
    if isinstance(obj, BlowupPipeline):
        return _decide_blowup(obj)
    raise TypeError(f"decide() cannot handle {type(obj).__name__}")
