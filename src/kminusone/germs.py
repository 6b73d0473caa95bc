"""Plane-curve germ analysis: order, Newton polygon, isolatedness, and the
branch number br_0 of g(z, w) at the origin.

The branch count runs the classical Newton-polygon recursion over exact
rationals.  Distinct simple roots of an edge polynomial are counted by
the degree of its squarefree part (no root extraction needed), so germs
whose branches live over extensions of Q, like z^2 + w^2, cost nothing
extra.  Only a *multiple* root forces a coordinate shift: rational roots
shift over Q, irrational ones adjoin a single certified extension
Q[t]/(m); anything beyond that raises ExtensionUnsupported and the
factored-input fallback keeps the computation possible.

Isolatedness is local and comes from the same recursion: a factor
repeated through the origin surfaces as monomial content with exponent
at least 2 once its strict transform is a chart axis (Casas-Alvero,
Singularities of Plane Curves, ch. 1-3).  Germs the recursion follows two
shifts deep are proved reduced at the origin first, which catches repeated
factors whose expansion never ends; a univariate gcd at a small integer z
certifies that, and the coprimality of factored input, before any exact
bivariate gcd runs.  Integral coefficients stay ints.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, gcd

from .errors import ExtensionUnsupported, InputError, KMinusOneError, NotIsolated
from .exact import BiPoly, UniPoly, squarefree_decomposition, uni_gcd
from .fields import NumberField, irreducible_factors
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
    not matter (use is_squarefree for the global question).  The Newton
    recursion at the origin decides it, with the test of _reduced_at_origin
    for germs it follows _CONFIRM_DEPTH shifts deep.
    Raises ExtensionUnsupported when the recursion cannot decide without
    an unsupported field extension.
    """
    if g.is_zero() or not g.vanishes_at_origin():
        return False
    return _local_branch_total(g) is not None


@lru_cache(maxsize=1)
def _local_branch_total(g: BiPoly):
    """Branch number of g at the origin, or None when g is not reduced
    there.  Remembers the last germ, so is_isolated and branch_count
    share one recursion."""
    try:
        return _branch_total(g.terms, None, 0, g)
    except NotIsolated:
        return None


@lru_cache(maxsize=1)
def _reduced_at_origin(g: BiPoly) -> bool:
    """Exact test that no repeated factor of g vanishes at the origin.  In
    Q[z] that factor is z, and z^2 | g; one h of positive w-degree divides
    g_w too (h^2 | g), which _coprime_certified(g, g_w) rules out.  Else
    gcd(g, g_z, g_w) is the product of h^(e-1) over the factors h^e of g.
    A Q-irreducible h through the rational point 0 has all its conjugate
    components through it, so the test is geometric."""
    if all(a > 1 for a, _ in g.terms):
        return False
    if _coprime_certified(g, g.derivative_w()):
        return True
    return not _repeated_part(g).vanishes_at_origin()


def _at_z(g: BiPoly, a: int) -> UniPoly:
    """g(a, w) as a polynomial in w."""
    coeffs = [0] * (max((b for _, b in g.terms), default=-1) + 1)
    for (i, b), c in g.terms.items():
        coeffs[b] += c * a ** i
    return UniPoly(coeffs)


def _coprime_certified(f: BiPoly, g: BiPoly) -> bool:
    """For f != 0, True only if f and g have no common factor of positive
    w-degree, proved by an integer a in 1, -1, 2, -2, 0 with lc_w(f)(a) != 0
    (f(a, w) of full degree) and gcd(f(a, w), g(a, w)) = 1 over Q: such a
    factor h has lc_w(h) | lc_w(f) in Q[z], so h(a, w) keeps its positive
    degree and divides both.  False, for the exact gcd to decide, when no
    point certifies; common factors in Q[z] are not ruled out."""
    degree = max(b for _, b in f.terms)
    for a in (1, -1, 2, -2, 0):
        fa = _at_z(f, a)
        if fa.degree == degree and uni_gcd(fa, _at_z(g, a)).degree == 0:
            return True
    return False


# ---------------------------------------------------------------------------
# bivariate gcd over Q (primitive PRS in (Q[w])[z])
# ---------------------------------------------------------------------------

def _to_zpoly(g: BiPoly):
    if g.is_zero():
        return []
    dz = g.degree_z()
    cols = [{} for _ in range(dz + 1)]
    for (a, b), c in g.terms.items():
        cols[a][b] = c
    out = []
    for col in cols:
        if col:
            n = max(col)
            out.append(UniPoly(tuple(col.get(i, 0) for i in range(n + 1))))
        else:
            out.append(UniPoly())
    while out and out[-1].is_zero():
        out.pop()
    return out


def _from_zpoly(zp) -> BiPoly:
    terms = {}
    for a, u in enumerate(zp):
        for b, c in enumerate(u.coeffs):
            if c:
                terms[(a, b)] = c
    return BiPoly(terms)


def _zp_content(zp) -> UniPoly:
    c = UniPoly()
    for u in zp:
        if not u.is_zero():
            c = uni_gcd(c, u) if not c.is_zero() else u.monic()
        if c.degree == 0:
            break
    return c


def _zp_primitive(zp):
    c = _zp_content(zp)
    if c.degree <= 0:
        # contents are monic, so a constant content is 1
        return list(zp)
    return [u // c for u in zp]


def _zp_prem(a, b):
    """Pseudo-remainder of a by b in (Q[w])[z]; b nonzero."""
    a = list(a)
    db = len(b) - 1
    lcb = b[-1]
    while a and len(a) - 1 >= db:
        lca = a[-1]
        d = len(a) - 1 - db
        a = [c * lcb for c in a]
        for i, bc in enumerate(b):
            a[d + i] = a[d + i] - bc * lca
        while a and a[-1].is_zero():
            a.pop()
    return a


def bipoly_gcd(f: BiPoly, g: BiPoly) -> BiPoly:
    """gcd in Q[z, w], normalized so the leading w-coefficient of the
    leading z-coefficient is 1."""
    if f.is_zero():
        return _normalize_biv(g)
    if g.is_zero():
        return _normalize_biv(f)
    zf, zg = _to_zpoly(f), _to_zpoly(g)
    content = uni_gcd(_zp_content(zf), _zp_content(zg))
    a, b = _zp_primitive(zf), _zp_primitive(zg)
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _zp_prem(a, b)
        a, b = b, _zp_primitive(r) if r else []
    a = _zp_primitive(a)
    result = [u * content for u in a]
    return _normalize_biv(_from_zpoly(result))


def _normalize_biv(g: BiPoly) -> BiPoly:
    if g.is_zero():
        return g
    zp = _to_zpoly(g)
    lead = zp[-1].leading
    return g.scale(Fraction(1) / lead)


def is_squarefree(g: BiPoly) -> bool:
    """Squarefree test over Q via gcd(g, g_z, g_w); in characteristic zero
    this is constant exactly for squarefree g."""
    if g.is_zero():
        return False
    if g.total_degree() == 0:
        return True
    return _repeated_part(g).total_degree() == 0


def _repeated_part(g: BiPoly) -> BiPoly:
    return bipoly_gcd(bipoly_gcd(g, g.derivative_z()), g.derivative_w())


# ---------------------------------------------------------------------------
# Newton polygon
# ---------------------------------------------------------------------------

def _strip_monomial_content(terms):
    """Remove the common factor z^alpha w^beta; returns (alpha, beta, rest)."""
    alpha = min(a for a, _ in terms)
    beta = min(b for _, b in terms)
    if alpha == 0 and beta == 0:
        return 0, 0, terms
    return alpha, beta, {(a - alpha, b - beta): c for (a, b), c in terms.items()}


def _hull_vertices(terms):
    """Vertices of the lower-left boundary of the Newton polygon, ordered
    by decreasing z-exponent.  Assumes min a = min b = 0 over the support."""
    pts = list(terms)
    bmin = min(b for _, b in pts)
    start = (min(a for a, b in pts if b == bmin), bmin)
    amin = min(a for a, _ in pts)
    end = (amin, min(b for a, b in pts if a == amin))
    chain = [start]
    cur = start
    while cur != end:
        best = None
        for pnt in pts:
            if pnt[0] >= cur[0]:
                continue
            if best is None:
                best = pnt
                continue
            lhs = (pnt[1] - cur[1]) * (cur[0] - best[0])
            rhs = (best[1] - cur[1]) * (cur[0] - pnt[0])
            if lhs < rhs or (lhs == rhs and pnt[0] < best[0]):
                best = pnt
        chain.append(best)
        cur = best
    return chain


def _compact_edges(terms):
    """NewtonEdge list from a stripped support (min a = min b = 0)."""
    chain = _hull_vertices(terms)
    zero = next(iter(terms.values())) * 0
    edges = []
    for v, u in zip(chain, chain[1:]):
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
    """Nonnegative (alpha, beta) with p*beta - q*alpha = 1."""
    # extended gcd: x*p + y*q = 1
    old_r, r = p, q
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        k = old_r // r
        old_r, r = r, old_r - k * r
        old_x, x = x, old_x - k * x
        old_y, y = y, old_y - k * y
    beta, alpha = old_x, -old_y
    while alpha < 0 or beta < 0:
        alpha += p
        beta += q
    return alpha, beta


def _lift_terms(terms, field: NumberField):
    return {k: field.from_rational(c) for k, c in terms.items()}


def _recursion_germ(terms, edge: NewtonEdge, gamma):
    """Shifted strict transform at the exceptional point v = gamma of the
    toric chart z = u^p v^alpha, w = u^q v^beta attached to the edge."""
    q, p = edge.direction
    a0, b0 = edge.start
    n_min = p * a0 + q * b0
    alpha, beta = _bezout_chart(q, p)

    chart = {}
    for (a, b), c in terms.items():
        key = (alpha * a + beta * b, p * a + q * b - n_min)
        chart[key] = chart.get(key, c * 0) + c
    chart = {k: c for k, c in chart.items() if c}
    # the exceptional content v^m is supported on v = 0, away from gamma != 0
    vmin = min(ve for ve, _ in chart)
    if vmin:
        chart = {(ve - vmin, ue): c for (ve, ue), c in chart.items()}

    gamma_pows = [gamma * 0 + 1]
    max_ve = max(ve for ve, _ in chart)
    for _ in range(max_ve):
        gamma_pows.append(gamma_pows[-1] * gamma)

    out = {}
    for (ve, ue), c in chart.items():
        for i in range(ve + 1):
            key = (i, ue)
            add = c * comb(ve, i) * gamma_pows[ve - i]
            s = out.get(key, add * 0) + add
            if s:
                out[key] = s
            elif key in out:
                del out[key]
    return out


def _roots_of_multiple_factor(fac: UniPoly, field):
    """Split a squarefree factor carrying multiple roots into usable roots:
    yields (gamma, conjugate_count, field_of_gamma).  Conjugate roots have
    conjugate branch structures, so one representative is recursed and the
    result multiplied by the factor degree."""
    if field is None:
        out = []
        for irr, d in irreducible_factors(fac):
            if d == 1:
                out.append((-irr.coeffs[0], 1, None))
            else:
                ext = NumberField(irr)
                out.append((ext.generator, d, ext))
        return out
    # already over an extension: only roots inside it are reachable
    if all(c.is_rational() for c in fac.coeffs):
        rational_fac = UniPoly(tuple(c.as_rational() for c in fac.coeffs))
        out = []
        leftover = rational_fac.monic()
        for irr, d in irreducible_factors(rational_fac):
            if d == 1:
                out.append((field.from_rational(-irr.coeffs[0]), 1, field))
                leftover = leftover // irr
        if leftover.degree <= 0:
            return out
    elif fac.degree == 1:
        return [(-fac.coeffs[0] / fac.coeffs[1], 1, field)]
    raise ExtensionUnsupported(
        "a multiple root needs a second field extension; "
        "re-run with --factors supplying the irreducible factors")


def _branch_total(terms, field, depth: int, germ: BiPoly) -> int:
    """Branches at the current point of the chart germ with support
    ``terms``, reached ``depth`` shifts below the origin germ ``germ``;
    raises NotIsolated when ``germ`` is not reduced at the origin.

    A repeated factor through the origin shows up as monomial content
    with exponent >= 2 once its strict transform is a chart axis.  One
    whose expansion never ends is caught at _CONFIRM_DEPTH instead.
    """
    if depth == _CONFIRM_DEPTH and not _reduced_at_origin(germ):
        raise NotIsolated("germ has a repeated factor through the origin")
    if depth > _MAX_DEPTH:
        raise KMinusOneError(
            f"branch recursion exceeded its stated limit of {_MAX_DEPTH} "
            "levels; germs reduced at the origin reach it only above "
            "total degree 32")
    alpha, beta, terms = _strip_monomial_content(terms)
    if alpha > 1 or beta > 1:
        raise NotIsolated("germ has a repeated factor through the origin")
    count = alpha + beta
    if (0, 0) in terms:
        return count
    for edge in _compact_edges(terms):
        for fac, mult in squarefree_decomposition(edge.edge_polynomial):
            if mult == 1:
                # each distinct simple root is one branch, over any field
                count += fac.degree
                continue
            for gamma, copies, gfield in _roots_of_multiple_factor(fac, field):
                sub = terms if gfield is field else _lift_terms(terms, gfield)
                shifted = _recursion_germ(sub, edge, gamma)
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


def _share_factor_at_origin(f: BiPoly, g: BiPoly) -> bool:
    """Whether f and g share a factor through the origin: in Q[z] that is
    z; one of positive w-degree needs the exact gcd unless certified absent."""
    if all(a for a, _ in f.terms) and all(a for a, _ in g.terms):
        return True  # z divides both
    return not _coprime_certified(f, g) and bipoly_gcd(f, g).vanishes_at_origin()


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
