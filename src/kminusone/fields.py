"""Simple extension fields Q[t]/(m) and exact factorization helpers.

The branch-counting recursion occasionally has to shift a germ by an
irrational root of an edge polynomial.  We support one simple extension
of Q, with the minimal polynomial certified irreducible by the rational
root test (degree <= 3) or by Kronecker trial factorization of the
integer polynomial (degree <= 6).  Anything deeper raises
ExtensionUnsupported and the caller falls back to factored input.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd, isqrt

from .errors import ExtensionUnsupported, InputError
from .exact import UniPoly, power, quotient, to_integer_poly, uni_ext_gcd


class NumberField:
    """Q[t]/(m) for a monic irreducible m of degree >= 2."""

    def __init__(self, minpoly: UniPoly):
        m = minpoly.monic()
        if m.degree < 2:
            raise ValueError("a proper extension needs a minimal polynomial of degree >= 2")
        self.minpoly = m
        self.degree = m.degree

    def element(self, coeffs) -> "NFElem":
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > self.degree:
            raise ValueError("coefficient vector too long")
        cs += [Fraction(0)] * (self.degree - len(cs))
        return NFElem(self, tuple(cs))

    def from_rational(self, c) -> "NFElem":
        return self.element([Fraction(c)])

    @property
    def zero(self) -> "NFElem":
        return self.from_rational(0)

    @property
    def one(self) -> "NFElem":
        return self.from_rational(1)

    @property
    def generator(self) -> "NFElem":
        return self.element([0, 1])

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.minpoly == other.minpoly

    def __hash__(self):
        return hash(self.minpoly)

    def __repr__(self):
        return f"NumberField({self.minpoly})"


class NFElem:
    """Element of a NumberField, stored as a polynomial in the generator
    of degree < [K : Q]."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: NumberField, coeffs):
        self.field = field
        self.coeffs = tuple(coeffs)

    def _coerce(self, other):
        if isinstance(other, NFElem):
            if other.field != self.field:
                raise ValueError("elements of different number fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return NotImplemented

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return NFElem(self.field, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return NFElem(self.field, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return NFElem(self.field, tuple(a * other for a in self.coeffs))
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        prod = UniPoly(self.coeffs) * UniPoly(o.coeffs)
        rem = prod % self.field.minpoly
        out = list(rem.coeffs) + [Fraction(0)] * (self.field.degree - len(rem.coeffs))
        return NFElem(self.field, tuple(out))

    __rmul__ = __mul__

    def inverse(self) -> "NFElem":
        if not self:
            raise ZeroDivisionError("inverse of zero field element")
        g, s, _ = uni_ext_gcd(UniPoly(self.coeffs), self.field.minpoly)
        if g.degree != 0:
            raise ArithmeticError("minimal polynomial is not irreducible")
        inv = s.scale(Fraction(1) / g.coeffs[0])
        out = list(inv.coeffs) + [Fraction(0)] * (self.field.degree - len(inv.coeffs))
        return NFElem(self.field, tuple(out[: self.field.degree]))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o * self.inverse()

    def __pow__(self, n: int):
        return power(self.inverse() if n < 0 else self, abs(n), self.field.one)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is not rational")
        return self.coeffs[0]

    def __repr__(self):
        return f"NFElem{self.coeffs}"


# ---------------------------------------------------------------------------
# factorization over Q
# ---------------------------------------------------------------------------

_KRONECKER_BUDGET = 2_000_000
FACTORS_HINT = "re-run with --factors supplying the irreducible factors"
_BUDGET_EXCEEDED = f"trial factorization budget exceeded; {FACTORS_HINT}"


def _divisors(n: int):
    n = abs(n)
    if n > _KRONECKER_BUDGET ** 2:  # trial division to 2 * 10**6 at most
        raise ExtensionUnsupported(_BUDGET_EXCEEDED)
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return sorted(set(small + [n // d for d in small]))


def rational_roots(p: UniPoly):
    """All rational roots of p, without multiplicity, in lowest terms (ints
    when integral).  For the primitive integer multiple c_0 + ... + c_k t^k
    of p with c_0 != 0, a root n/d in lowest terms has n | c_0 and d | c_k,
    and it is one exactly when the integer d^k p(n/d), summed by Horner's
    rule on n with powers of d, is 0; a zero root is split off first."""
    if p.is_zero():
        raise InputError("roots of the zero polynomial")
    ints = to_integer_poly(p)
    k = next(i for i, c in enumerate(ints) if c)
    roots, ints = [0] if k else [], ints[k:]
    if len(ints) == 1:
        return roots
    if len(ints) == 2:
        return roots + [quotient(-ints[0], ints[1])]
    dens = _divisors(ints[-1])
    for num in _divisors(ints[0]):
        for den in (d for d in dens if gcd(num, d) == 1):  # n/d in lowest terms
            for n in (num, -num):
                acc, scale = ints[-1], 1
                for c in reversed(ints[:-1]):
                    scale *= den
                    acc = acc * n + c * scale
                if not acc:
                    roots.append(quotient(n, den))
    return roots


def _interpolate(xs, ys):
    """Lagrange interpolation through integer points, as a UniPoly over Q."""
    n = len(xs)
    result = UniPoly()
    for i in range(n):
        term = UniPoly.const(Fraction(ys[i]))
        for j in range(n):
            if i == j:
                continue
            term = term * UniPoly((Fraction(-xs[j]), Fraction(1)))
            term = term.scale(Fraction(1, xs[i] - xs[j]))
        result = result + term
    return result


def _kronecker_split(ints):
    """Find a nontrivial factor of a primitive integer polynomial with no
    rational roots, degree 4..6, by Kronecker's interpolation method.
    Returns a UniPoly factor over Q, or None if the polynomial is
    irreducible (certified: any nontrivial factorization over Z has a
    factor of degree <= deg/2)."""
    p = UniPoly.from_int_coeffs(ints)
    n = p.degree
    sample_xs = [0, 1, -1, 2, -2, 3, -3]
    for k in range(2, n // 2 + 1):
        xs = sample_xs[: k + 1]
        vals = [int(p(Fraction(x))) for x in xs]
        div_lists = []
        total = 1
        for v in vals:
            ds = _divisors(v)
            signed = [d for a in ds for d in (a, -a)]
            div_lists.append(signed)
            total *= len(signed)
            if total > _KRONECKER_BUDGET:
                raise ExtensionUnsupported(_BUDGET_EXCEEDED)
        for combo in product(*div_lists):
            q = _interpolate(xs, combo)
            if q.degree < 1:
                continue
            if any(c.denominator != 1 for c in q.coeffs):
                continue
            quo, rem = p.divmod(q)
            if rem.is_zero() and quo.degree >= 1:
                return q
    return None


def irreducible_factors(p: UniPoly):
    """Split a squarefree rational polynomial into irreducible factors
    over Q, as far as this implementation can certify.

    Returns a list of (monic factor, degree) pairs.  Degree-1 factors are
    reported through their roots by callers; factors of degree 2..3 are
    certified irreducible by the rational root test, 4..6 by Kronecker
    trial factorization.  A rootless remainder of degree >= 7 raises
    ExtensionUnsupported.
    """
    p = p.monic()
    out = []
    for r in rational_roots(p):
        out.append((UniPoly((-r, 1)), 1))
        p = p // UniPoly((-r, 1))
    stack = [p]
    while stack:
        h = stack.pop().monic()
        if h.degree <= 0:
            continue
        if h.degree <= 3:
            # no rational roots survived above, so degree 2..3 is irreducible
            out.append((h, h.degree))
            continue
        if h.degree > 6:
            raise ExtensionUnsupported(
                f"cannot certify irreducibility in degree {h.degree}; {FACTORS_HINT}")
        q = _kronecker_split(to_integer_poly(h))
        if q is None:
            out.append((h, h.degree))
        else:
            stack.append(q)
            stack.append(h // q)
    return out
