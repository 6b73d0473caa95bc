"""Blow-ups with locally-complete-intersection centers: K-theory
propagation, the singularities acquired from a singular center curve,
and the decision for blow-ups of smooth threefolds along nodal curves.

Blowing up a codimension-c lci center Z in X gives
K_j(X~) = K_j(X) (+) K_j(Z)^(c-1) for every j; for a codimension-2
curve with an isolated plane-germ singularity f the blow-up acquires one
threefold hypersurface point x_n x_{n+1} + f per center singularity.
"""

from __future__ import annotations

from fractions import Fraction

from .curves import DualGraph, betti1, curve_k_minus_one, is_forest_of_lines
from .errors import InputError, SpecValidationError, at_field
from .exact import BiPoly, FinAbGroup
from .localsing import classify_cAn
from .records import record
from .verdicts import Verdict, decide


def blowup_k_theory(base: FinAbGroup, center: FinAbGroup, codim: int) -> FinAbGroup:
    """K_j of the blow-up: base (+) center^(codim - 1).  Ranks add and
    invariant factors concatenate and renormalize."""
    if codim < 2:
        raise InputError("blow-up centers have codimension >= 2")
    return base.direct_sum(center.repeated(codim - 1))


def blowup_singularities(center_germs) -> list:
    """Singularities of the blow-up of a smooth threefold along a
    codimension-2 lci curve whose isolated plane-germ singularities are
    given: one threefold germ xy + f per center germ f."""
    return [classify_cAn(f) for f in center_germs]


def node_germ() -> BiPoly:
    """The nodal plane germ z*w."""
    return BiPoly({(1, 1): Fraction(1)})


@record
class BlowupStep:
    """One blow-up along a nodal curve inside the current (smooth ambient)
    threefold.  center_germs optionally refines the plane germs at the
    singular points of the center: one two-branch germ per node, that is
    per edge of the dual graph, in edge order.  By default every node
    contributes the germ z*w."""

    center: DualGraph
    center_germs: tuple = ()

    def __post_init__(self):
        germs = tuple(self.center_germs)
        object.__setattr__(self, "center_germs", germs)
        # the graph and the germs describe the same nodes, so they must agree
        if germs and len(germs) != self.center.edge_count:
            raise SpecValidationError(
                "center_germs", f"expected one germ per node of the center "
                f"({self.center.edge_count}), got {len(germs)}")
        acquired = tuple(at_field(f"center_germs[{j}]", classify_cAn, g)
                         for j, g in enumerate(germs))
        for j, sing in enumerate(acquired):
            if sing.br != 2:
                raise SpecValidationError(
                    f"center_germs[{j}]", f"a node of the center has 2 branches, "
                    f"this germ has {sing.br}")
        object.__setattr__(self, "acquired", acquired)  # not a field: outside ==, hash, repr

    def germs(self):
        if self.center_germs:
            return list(self.center_germs)
        return [node_germ() for _ in self.center.edges]

    def singularities(self):
        """The points the blow-up acquires, one per node of the center."""
        if self.center_germs:
            return list(self.acquired)
        return blowup_singularities([node_germ()]) * self.center.edge_count


@record
class BlowupPipeline:
    """A smooth projective threefold blown up along a sequence of
    disjoint lci center curves."""

    steps: tuple

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))
        if not self.steps:
            raise InputError("a blow-up pipeline needs at least one step")

    def k_minus_one(self) -> FinAbGroup:
        total = FinAbGroup.trivial()
        for step in self.steps:
            total = blowup_k_theory(total, curve_k_minus_one(step.center), 2)
        return total

    def singularities(self):
        return [s for step in self.steps for s in step.singularities()]


def blowup_curve_verdict(curve: DualGraph) -> Verdict:
    """Decision for the blow-up of a smooth projective threefold along a
    nodal curve with rational components: Yes exactly when every
    connected component is a tree of smooth P^1; otherwise No with the
    obstruction Z^(sum of first Betti numbers) = K_-1 of the center."""
    if not all(curve.rational):
        raise InputError(
            "blowup_curve_verdict requires all center components rational; "
            "use decide() on a pipeline for the general soundness-only check")
    if betti1(curve) == 0 and not is_forest_of_lines(curve):
        raise InputError(
            "contradictory flags: a loop-free nodal curve with rational "
            "components has smooth P^1 components")
    return decide(BlowupPipeline((BlowupStep(curve),)))
