"""Classification of isolated threefold compound-A_n germs xy + g(z, w)
and the ADE catalog of local class groups.

A germ is classified by its (z, w)-part alone: the index is ord(g) - 1
and the local class group is free of rank (branch number of g) - 1.  ADE
equations are stored in the xy + g normal form obtained from the usual
x^2 + y^2 + ... shape by the linear change x^2 + y^2 -> xy.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InputError
from .exact import BiPoly
from .germs import BranchReport, branch_count
from .records import record


@record
class LocalSingularity:
    """An isolated cA_n point: index n and branch number br.

    ``n`` is None for raw branch-count input, where the index is not
    determined by the data.
    """

    n: int | None
    br: int

    def __post_init__(self):
        if self.br < 1:
            raise ValueError("branch number must be >= 1")
        if self.n is not None and self.n < 0:
            raise ValueError("cA_n index must be >= 0")

    @property
    def cl_rank(self) -> int:
        """Rank of the local class group Cl(O^_{X,p}) = Z^(br-1)."""
        return self.br - 1

    @property
    def is_node(self) -> bool:
        return self.n == 1 and self.br == 2


def from_branch_report(rep: BranchReport) -> LocalSingularity:
    """The threefold germ xy + g(z, w) whose (z, w)-part has the branch
    report rep (of g, or of its factors taken together)."""
    return LocalSingularity(n=rep.cAn_index, br=rep.branch_count)


def classify_cAn(g: BiPoly) -> LocalSingularity:
    """Classify the threefold germ xy + g(z, w): n = ord(g) - 1, branch
    number br of g, local class group Z^(br-1)."""
    return from_branch_report(branch_count(g))


def from_branch_number(br: int) -> LocalSingularity:
    """A cA_n point known only through its branch number (raw input mode).
    The index is left undetermined."""
    return LocalSingularity(n=None, br=br)


def ordinary_double_point() -> LocalSingularity:
    """The node xy + zw = 0."""
    return LocalSingularity(n=1, br=2)


def _check_ade(family: str, index: int):
    ok = (family == "A" and index >= 1) or (family == "D" and index >= 4) \
        or (family == "E" and index in (6, 7, 8))
    if not ok:
        raise InputError(f"no ADE threefold singularity {family}{index}")


def ade_germ(family: str, index: int) -> BiPoly:
    """The (z, w)-part of the ADE threefold equation, in xy + g form."""
    _check_ade(family, index)
    one = Fraction(1)
    if family == "A":
        return BiPoly({(2, 0): one, (0, index + 1): one})
    if family == "D":
        return BiPoly({(2, 1): one, (0, index - 1): one})
    if index == 6:
        return BiPoly({(3, 0): one, (0, 4): one})
    if index == 7:
        return BiPoly({(3, 0): one, (1, 3): one})
    return BiPoly({(3, 0): one, (0, 5): one})


def ade_lookup(family: str, index: int) -> LocalSingularity:
    """Catalog row for the ADE threefold singularity.

    A_n has two branches for n odd and one for n even; D_n has three for
    n even and two for n odd; E_6 and E_8 have one branch, E_7 has two.
    The stored germs give cA_1 for the A family and cA_2 for D and E.
    """
    _check_ade(family, index)
    if family == "A":
        br, n = (2 if index % 2 == 1 else 1), 1
    elif family == "D":
        br, n = (3 if index % 2 == 0 else 2), 2
    else:
        br, n = (2 if index == 7 else 1), 2
    return LocalSingularity(n=n, br=br)


def ade_labels(k_values) -> list:
    """All ADE labels realized by the table's parameter k running over
    k_values, in canonical order.  Rows outside their validity range
    (D_{2k} needs k >= 2, D_{2k-1} needs k >= 3) are skipped."""
    a_idx = set()
    d_idx = set()
    for k in k_values:
        if k >= 1:
            a_idx.add(2 * k)
            a_idx.add(2 * k - 1)
        if k >= 2:
            d_idx.add(2 * k)
        if k >= 3:
            d_idx.add(2 * k - 1)
    labels = [("A", n) for n in sorted(a_idx)]
    labels += [("D", n) for n in sorted(d_idx)]
    labels += [("E", n) for n in (6, 7, 8)]
    return labels
