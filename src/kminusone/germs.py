"""Plane-curve germ analysis: order, Newton polygon, isolatedness, and the
branch number br_0 of g(z, w) at the origin.

The branch count runs the classical Newton-polygon recursion.  Distinct
simple roots of an edge polynomial are counted by the degree of its
squarefree part (no root extraction needed), so germs whose branches live
over extensions of Q, like z^2 + w^2, cost nothing extra.  Only a
*multiple* root forces a coordinate shift.  A rational root r/s shifts in
integers, the chart germ G becoming s^D * G(u, (v + r)/s) over its content
(an affine map onto the root times a unit: same br_0 and reducedness, see
_recursion_germ); irrational ones adjoin a single certified extension
Q[t]/(m), and anything beyond that raises ExtensionUnsupported, which the
factored-input fallback avoids.  A germ with one edge c*(t - gamma)^l, monic
of degree l in its unit-step variable, first shifts by its whole root
(Tschirnhausen), which fixes the origin and br_0.

Isolatedness is local and comes from the same recursion: a factor
repeated through the origin surfaces as monomial content with exponent
at least 2 once its strict transform is a chart axis (Casas-Alvero,
Singularities of Plane Curves, ch. 1-3).  Germs the recursion follows two
shifts deep are proved reduced at the origin first, which catches repeated
factors whose expansion never ends.  That, and the coprimality of factored
input, is certified by exact.coprime_certified, the one modular coprimality
certificate (Euclid modulo 2^61 - 1) at small integers z, before the exact
bivariate gcd runs.  Integral coefficients stay ints.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import accumulate
from math import comb, gcd, lcm
from operator import mul

from .errors import ExtensionUnsupported, InputError, KMinusOneError, NotIsolated
from .exact import (BiPoly, UniPoly, bipoly_gcd, coprime_certified, quotient,
                    squarefree_decomposition)
from .fields import FACTORS_HINT, NFElem, NumberField, irreducible_factors
from .records import record

# Stated resource limit: the Newton recursion goes at most this many
# coordinate shifts deep.  Each level but the last sits at a distinct
# singular infinitely near point and adds at least 1 to the delta
# invariant, which is at most d(d-1)/2 for a germ of total degree d reduced
# at the origin; so only such germs of degree above 32 can reach the limit.
_MAX_DEPTH = 500

# A germ whose recursion reaches this depth has its reducedness at the
# origin confirmed by the exact global test before the recursion goes on.
# A repeated factor with an infinite expansion would otherwise be followed
# forever, its chart germs growing at every level.
_CONFIRM_DEPTH = 2

_LAST_GERM = []  # [germ, answer] of the last _local_branch_total call


@record
class NewtonEdge:
    """One compact edge of the Newton polygon.

    ``start`` is the endpoint with the larger z-exponent; the primitive
    step along the edge is (-q, +p) for ``direction`` = (q, p).  The edge
    polynomial collects the coefficients on the edge, indexed by lattice
    position from ``start``, so its degree equals the lattice length.
    """

    start: tuple
    end: tuple
    direction: tuple
    lattice_length: int
    edge_polynomial: UniPoly


@record
class BranchReport:
    order: int
    branch_count: int

    @property
    def cAn_index(self) -> int:
        """Index n of the cA_n point xy + g(z, w): ord(g) - 1."""
        return self.order - 1


# ---------------------------------------------------------------------------
# basic germ predicates
# ---------------------------------------------------------------------------

def is_isolated(g: BiPoly) -> bool:
    """True iff g is nonzero, vanishes at the origin, and is reduced there:
    no factor of g through the origin is repeated.  Equivalently the
    singular point of xy + g(z, w) = 0 at the origin is isolated.

    This is a local property: a repeated factor away from the origin does
    not matter.  The Newton recursion at the origin decides it, with the
    test of _reduced_at_origin for germs it follows _CONFIRM_DEPTH shifts
    deep.
    Raises ExtensionUnsupported when the recursion cannot decide without
    an unsupported field extension.
    """
    if g.is_zero() or not g.vanishes_at_origin():
        return False
    return _local_branch_total(g) is not None


def _local_branch_total(g: BiPoly):
    """Branch number of g at the origin, or None when g is not reduced there.
    _LAST_GERM keeps the last germ, matched by identity, so is_isolated and
    branch_count share one recursion."""
    if not _LAST_GERM or _LAST_GERM[0] is not g:
        try:
            _LAST_GERM[:] = g, _branch_total(g.terms, None, 0, g)
        except NotIsolated:
            _LAST_GERM[:] = g, None
    return _LAST_GERM[1]


@lru_cache(maxsize=1)
def _reduced_at_origin(g: BiPoly) -> bool:
    """Exact test that no repeated factor of g vanishes at the origin: h^2
    divides g exactly when h divides g, g_z and g_w, and h = z is the case
    z^2 | g.  A Q-irreducible h through the rational point 0 has all its
    conjugate components through it, so the test is geometric."""
    return not _share_factor_at_origin(g, g.derivative_z(), g.derivative_w())


def _share_factor_at_origin(f: BiPoly, *others: BiPoly) -> bool:
    """Whether f and the others share a factor through the origin: in Q[z]
    that is z; one of positive w-degree is ruled out by coprime_certified
    on f and the last of the others, else decided by their exact gcd."""
    if all(a for h in (f, *others) for a, _ in h.terms):
        return True  # z divides them all
    if coprime_certified(f, others[-1]):
        return False
    return reduce(bipoly_gcd, others, f).vanishes_at_origin()


# ---------------------------------------------------------------------------
# Newton polygon
# ---------------------------------------------------------------------------

def _strip_monomial_content(terms):
    """Remove the common factor z^alpha w^beta; returns (alpha, beta, rest)."""
    alpha = min(terms)[0]
    beta = min(b for _, b in terms)
    if alpha == 0 and beta == 0:
        return 0, 0, terms
    return alpha, beta, {(a - alpha, b - beta): c for (a, b), c in terms.items()}


def _compact_edges(terms):
    """NewtonEdge list from a stripped support (min a = min b = 0), ordered
    by decreasing z-exponent: the lower convex hull, by Andrew's monotone
    chain, of the support from a = 0 up to its first point (A, 0)."""
    hull = []
    for pnt in sorted(terms):
        while len(hull) > 1 and ((hull[-1][0] - hull[-2][0]) * (pnt[1] - hull[-2][1])
                                 <= (hull[-1][1] - hull[-2][1]) * (pnt[0] - hull[-2][0])):
            hull.pop()  # not a strict left turn: hull[-1] is no vertex
        hull.append(pnt)
        if not pnt[1]:  # the chain ends at its first point (A, 0)
            break
    hull.reverse()
    zero = next(iter(terms.values())) * 0
    edges = []
    for v, u in zip(hull, hull[1:]):
        da, db = v[0] - u[0], u[1] - v[1]
        ell = gcd(da, db)
        q, p = da // ell, db // ell
        coeffs = [terms.get((v[0] - j * q, v[1] + j * p), zero) for j in range(ell + 1)]
        edges.append(NewtonEdge(v, u, (q, p), ell, UniPoly(coeffs)))
    return edges


def newton_polygon(g: BiPoly):
    """Compact edges of the Newton polygon after stripping monomial content.

    Raises InputError when g is a pure monomial (no compact edges); that
    case is handled by branch_count directly through the content count.
    """
    if g.is_zero():
        raise InputError("newton polygon of the zero polynomial")
    if not g.vanishes_at_origin():
        raise NotIsolated("germ must vanish at the origin")
    if len(g.terms) == 1:
        raise InputError("a pure monomial has no compact Newton polygon edges")
    _, _, stripped = _strip_monomial_content(g.terms)
    return _compact_edges(stripped)


# ---------------------------------------------------------------------------
# branch counting
# ---------------------------------------------------------------------------

def _bezout_chart(q: int, p: int):
    """Nonnegative (alpha, beta) with p*beta - q*alpha = 1, beta in 1..q."""
    beta = pow(p, -1, q) or q
    return (p * beta - 1) // q, beta


def _recursion_germ(terms, edge: NewtonEdge, gamma):
    """Shifted strict transform at the exceptional point v = gamma of the
    toric chart z = u^p v^alpha, w = u^q v^beta attached to the edge.

    With gamma = r/s (s = 1 for a number-field root) and G the strict
    transform, of degree D in v after its content v^m (supported on v = 0,
    away from gamma != 0) is divided out, the result is s^D * G(u, (v + r)/s)
    over its content.  (1) v -> (v + r)/s is an affine automorphism of the
    (u, v)-plane taking the origin to (0, gamma), so it carries the germ of G
    at (0, gamma) to a germ at the origin with the same br_0 and the same
    reducedness.  (2) s^D over the content is a nonzero rational, a unit of
    the local ring, so it changes neither.  The exponent map is unimodular
    (p*beta - q*alpha = 1), so no two terms meet; a rational G is first
    scaled to integers, and then every coefficient is an int."""
    q, p = edge.direction
    n_min = p * edge.start[0] + q * edge.start[1]
    alpha, beta = _bezout_chart(q, p)
    chart = {(alpha * a + beta * b, p * a + q * b - n_min): c for (a, b), c in terms.items()}
    vmin = min(ve for ve, _ in chart)
    top = max(ve for ve, _ in chart) - vmin
    r, s, rational = gamma, 1, not any(isinstance(c, NFElem) for c in (gamma, *chart.values()))
    if rational:
        r, s, den = gamma.numerator, gamma.denominator, lcm(*(c.denominator
                                                              for c in chart.values()))
        chart = {k: c.numerator * (den // c.denominator) for k, c in chart.items()}
    r_pows = list(accumulate([r] * top, mul, initial=r * 0 + 1))
    out = {}
    for (ve, ue), c in chart.items():
        ve -= vmin
        c = c * s ** (top - ve)
        for i in range(ve + 1):
            out[i, ue] = out.get((i, ue), 0) + c * comb(ve, i) * r_pows[ve - i]
    out = {k: c for k, c in out.items() if c}
    content = gcd(*out.values()) if rational else 1
    return {k: c // content for k, c in out.items()} if content != 1 else out


def _roots_of_multiple_factor(fac: UniPoly, field):
    """Split a squarefree factor carrying multiple roots into usable roots:
    yields (gamma, conjugate_count, field_of_gamma).  Conjugate roots have
    conjugate branch structures, so one representative is recursed and the
    result multiplied by the factor degree.  A rational factor is split by
    irreducible_factors: its rational roots stay rational, and a factor of
    degree >= 2 adjoins Q[t]/(m), over Q only.  Any other factor must be
    linear, with its root in the current field."""
    if field is not None and all(c.is_rational() for c in fac.coeffs):
        fac = UniPoly(tuple(c.as_rational() for c in fac.coeffs))
    out = []
    rational = not isinstance(fac.leading, NFElem)
    for irr, d in irreducible_factors(fac) if rational else [(fac, fac.degree)]:
        if d == 1:
            out.append((quotient(-irr.coeffs[0], irr.coeffs[1]), 1, field))
        elif field is None:
            ext = NumberField(irr)
            out.append((ext.generator, d, ext))
        else:
            raise ExtensionUnsupported(
                f"a multiple root needs a second field extension; {FACTORS_HINT}")
    return out


def _whole_root_shift(terms, edges):
    """_branch_total's Tschirnhausen step (Abhyankar-Moh 1973): the stripped
    germ with compact ``edges`` shifted exactly by its whole root, or None.
    Each term c z^a w^b becomes c z^a (w + S)^b, expanded by the binomial
    theorem with the powers of the shift S(z)."""
    ell, e = edges[0].lattice_length, edges[0].edge_polynomial.coeffs
    if len(edges) > 1 or ell < 2 or not e[ell - 1]:
        return None
    for swap in (False, True):
        f = {(b, a): c for (a, b), c in terms.items()} if swap else terms
        if all(b < ell or a == 0 and b == ell for a, b in f):  # unit step, monic
            root = quotient(-e[ell - 1], ell * e[ell])
            if any(e[j] != e[ell] * comb(ell, j) * (-root) ** (ell - j) for j in range(ell - 1)):
                return None  # not c*(t - root)^l
            shift = BiPoly._of({(a, 0): quotient(-c, ell * f[0, ell])
                                for (a, b), c in f.items() if b == ell - 1})
            pows, out = list(accumulate([shift] * ell, mul, initial=BiPoly.constant(1))), {}
            for (a, b), c in f.items():
                for i in range(b + 1):
                    m = c * comb(b, i)
                    for (k, _), x in pows[b - i].terms.items():
                        out[a + k, i] = out.get((a + k, i), 0) + m * x
            return {((i, a) if swap else (a, i)): c for (a, i), c in out.items() if c}


def _branch_total(terms, field, depth: int, germ: BiPoly) -> int:
    """Branches at the current point of the chart germ with support
    ``terms``, reached ``depth`` shifts below the origin germ ``germ``;
    raises NotIsolated when ``germ`` is not reduced at the origin.

    A repeated factor through the origin shows up as monomial content
    with exponent >= 2 once its strict transform is a chart axis.  One
    whose expansion never ends is caught at _CONFIRM_DEPTH instead.

    Before any chart, a stripped germ f = sum a_j(z) w^j with one compact edge
    (lq, 0)-(0, l), edge polynomial c*(t - gamma)^l, l >= 2, and constant a_l
    at w-degree l shifts w -> w - a_(l-1)/(l*a_l) in this frame (or the same
    in z).  (1) a_(l-1) lies on or above the edge, so a_(l-1)(0) = 0: an
    automorphism fixing the origin, keeping br_0 and reducedness.  (2) No
    w^(l-1) term is left, but gamma != 0 puts one on such an edge: the step
    cannot fire again in w.  Nor in z: the result is a_l w^l plus terms of
    weight a + qb > lq, so the stripped vertex (A', 0) has A' > l - beta >=
    every lattice length.  (3) It adds no level: _MAX_DEPTH's argument holds.
    """
    if depth == _CONFIRM_DEPTH and not _reduced_at_origin(germ):
        raise NotIsolated("germ has a repeated factor through the origin")
    if depth > _MAX_DEPTH:
        raise KMinusOneError(
            f"branch recursion exceeded its stated limit of {_MAX_DEPTH} "
            "levels; germs reduced at the origin reach it only above "
            "total degree 32")
    count, shifted = 0, terms
    while shifted is not None:  # at most twice, by (2)
        alpha, beta, terms = _strip_monomial_content(shifted)
        if alpha > 1 or beta > 1:
            raise NotIsolated("germ has a repeated factor through the origin")
        count += alpha + beta
        if (0, 0) in terms:
            return count
        edges = _compact_edges(terms)
        shifted = _whole_root_shift(terms, edges)
    for edge in edges:
        e = edge.edge_polynomial  # squarefree when linear
        for fac, mult in [(e, 1)] if e.degree == 1 else squarefree_decomposition(e):
            if mult == 1:
                # each distinct simple root is one branch, over any field
                count += fac.degree
                continue
            for gamma, copies, gfield in _roots_of_multiple_factor(fac, field):
                shifted = _recursion_germ(terms, edge, gamma)
                count += copies * _branch_total(shifted, gfield, depth + 1,
                                                germ)
    return count


def branch_count(g: BiPoly) -> BranchReport:
    """Branch number br_0 of g at the origin, together with the order and
    the compound-A index of xy + g(z, w).

    g must be isolated in the local sense of is_isolated: vanishing at
    the origin and reduced there.  Factors of g that miss the origin,
    repeated or not, are units of the local ring and contribute nothing.
    """
    if g.is_zero():
        raise InputError("branch count of the zero polynomial")
    if not is_isolated(g):
        raise NotIsolated(
            "branch counting requires an isolated germ: vanishing at the "
            "origin, with no repeated factor through the origin")
    return BranchReport(g.order(), _local_branch_total(g))


def branch_count_factored(factors) -> BranchReport:
    """Branch number of a product of isolated germs with no common factor
    through the origin (certified by specialisation, else the exact gcd);
    fallback input mode for germs whose recursion would need an
    unsupported field extension.  A common factor that misses the origin
    is a unit there and is allowed."""
    factors = list(factors)
    if not factors:
        raise InputError("empty factor list")
    reports = []
    for i, f in enumerate(factors):
        if f.is_zero():
            raise InputError(f"factor {i + 1} is zero")
        if not is_isolated(f):
            raise NotIsolated(f"factor {i + 1} is not an isolated germ")
        # right after is_isolated, so the memoised recursion is reused
        reports.append(branch_count(f))
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            if _share_factor_at_origin(factors[i], factors[j]):
                raise InputError(
                    f"factors {i + 1} and {j + 1} share a common factor "
                    "through the origin")
    return BranchReport(sum(rep.order for rep in reports),
                        sum(rep.branch_count for rep in reports))
