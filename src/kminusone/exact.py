"""Exact arithmetic core: rationals, polynomials, integer matrices with
Smith normal form, and finitely generated abelian groups.

Everything here is exact (arbitrary-precision integers and fractions);
no floating point anywhere.  All values are immutable after construction
and all operations are pure functions.

Rank, determinant, invariant factors and cokernels build no transforms:
a fraction-free Bareiss pass, two columns a step wherever the 2 x 2 pivot
block is nonsingular (Bareiss 1968), gives the rank r and a nonzero r x r
minor D, and gcd-based elimination over Z/RZ gives the invariant factors as
gcd(pivot, R) (Domich, Kannan and Trotter 1987; Cohen, A Course in
Computational Algebraic Number Theory, Alg. 2.4.14), where R is D or, for a
large square nonsingular matrix, the certified-exponent modulus (Abbott,
Bronstein and Mulders 1999; Eberly, Giesbrecht and Villard 2000).  Only
``smith_normal_form`` builds U and V: for the ``snf`` command, and for
``FinAbGroup.direct_sum`` of two torsion chains.  Coprimality over Q has one
certificate, ``coprime_mod_prime``: Euclid modulo the prime 2^61 - 1, with
Gauss's lemma (von zur Gathen and Gerhard, Modern Computer Algebra, chs. 6
and 14).  It proves a rational polynomial coprime to its derivative, so
squarefree without Yun's algorithm, and, at small integers z = a, two
bivariate polynomials free of a common factor of positive w-degree before
any exact bivariate gcd runs.  A rational polynomial it cannot certify goes
through Yun's algorithm over Z[t] (Yun 1976): the primitive integer multiple,
gcds by the primitive pseudo-remainder sequence (int_gcd), exact quotients by
primitive divisors, and one division by each factor's leading coefficient.
The exact bivariate gcd runs on integers through the same sequence over Z[w].
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, lcm, prod
from operator import add, mul, sub

from .errors import InputError
from .records import integers, record

# Exact rational scalar: always reduced, denominator > 0.
Rational = Fraction


def power(x, n: int, one):
    """x ** n for n >= 0 by square-and-multiply, starting from one."""
    if n < 0:
        raise ValueError("negative power of a polynomial")
    result = one
    while n:
        if n & 1:
            result = result * x
        n >>= 1
        x = x * x if n else x  # no square past the last bit
    return result


def quotient(x, y):
    """The exact quotient x / y of two coefficients: an int when both are
    ints and y divides x, where '/' would give a float."""
    if isinstance(x, int) and isinstance(y, int):
        return Fraction(x, y) if x % y else x // y
    return x / y


# ---------------------------------------------------------------------------
# univariate polynomials
# ---------------------------------------------------------------------------

class UniPoly:
    """Univariate polynomial over a field.

    Coefficients are stored low degree first; the zero polynomial has an
    empty coefficient tuple.  Coefficients are ints, Fractions or
    number-field elements: only ring operators (+, -, *) and quotient()
    act on them, so integral coefficients stay ints.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def const(cls, c) -> "UniPoly":
        return cls((c,))

    @classmethod
    def from_int_coeffs(cls, coeffs) -> "UniPoly":
        return cls(tuple(Fraction(c) for c in coeffs))

    @property
    def degree(self) -> int:
        """Degree, with the convention deg 0 = -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self):
        if not self.coeffs:
            raise InputError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: "UniPoly") -> "UniPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return UniPoly(out)

    def __neg__(self) -> "UniPoly":
        return UniPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        if not self.coeffs or not other.coeffs:
            return UniPoly()
        out = [self.coeffs[0] * other.coeffs[0] * 0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return UniPoly(out)

    def scale(self, c) -> "UniPoly":
        return UniPoly(tuple(a * c for a in self.coeffs))

    def __pow__(self, n: int) -> "UniPoly":
        return power(self, n, _one_like(self, self))

    def divmod(self, other: "UniPoly"):
        """Exact field division with remainder; a monic divisor divides nothing."""
        if other.is_zero():
            raise InputError("division by the zero polynomial")
        if self.degree < other.degree:
            return UniPoly(), self
        rem = list(self.coeffs)
        lead = other.leading
        monic = lead == 1
        dq = self.degree - other.degree
        quot = [self.coeffs[0] * 0] * (dq + 1)
        for k in range(dq, -1, -1):
            c = rem[other.degree + k]
            if not c:
                continue
            q = c if monic else quotient(c, lead)
            quot[k] = q
            for i, b in enumerate(other.coeffs):
                rem[i + k] = rem[i + k] - q * b
        return UniPoly(quot), UniPoly(rem)

    def __floordiv__(self, other: "UniPoly") -> "UniPoly":
        return self.divmod(other)[0]

    def __mod__(self, other: "UniPoly") -> "UniPoly":
        return self.divmod(other)[1]

    def monic(self) -> "UniPoly":
        if self.is_zero() or self.leading == 1:
            return self
        lead = self.leading
        return UniPoly(tuple(quotient(c, lead) for c in self.coeffs))

    def derivative(self) -> "UniPoly":
        return UniPoly(tuple(c * i for i, c in enumerate(self.coeffs) if i > 0))

    def __call__(self, x):
        """Evaluate by Horner's rule."""
        if not self.coeffs:
            return x * 0
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    def __repr__(self):
        return f"UniPoly({list(self.coeffs)!r})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append("t" if c == 1 else f"{c}*t")
            else:
                parts.append(f"t^{i}" if c == 1 else f"{c}*t^{i}")
        return " + ".join(parts).replace("+ -", "- ")


def uni_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd by the Euclidean algorithm.

    Remainders are renormalized monic at each step to keep rational
    coefficient growth down."""
    while not b.is_zero():
        r = a % b
        a, b = b, r.monic()
    return a.monic() if not a.is_zero() else a


def uni_ext_gcd(a: UniPoly, b: UniPoly):
    """Extended Euclid: returns (g, s, t) with s*a + t*b = g, g monic."""
    r0, r1 = a, b
    s0, s1 = _one_like(a, b), UniPoly()
    t0, t1 = UniPoly(), _one_like(a, b)
    while not r1.is_zero():
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero():
        return r0, s0, t0
    lead = r0.leading
    inv = quotient(r0.coeffs[0] * 0 + 1, lead)
    return r0.scale(inv), s0.scale(inv), t0.scale(inv)


def _one_like(a: UniPoly, b: UniPoly) -> UniPoly:
    for p in (a, b):
        if p.coeffs:
            c = p.coeffs[0]
            return UniPoly.const(c * 0 + 1)
    return UniPoly.const(Fraction(1))


_PRIME = 2 ** 61 - 1


def _cleared(coeffs) -> list:
    """D times the rational coeffs, D the lcm of their denominators."""
    den = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs]


def to_integer_poly(p: UniPoly) -> list:
    """The primitive integer multiple of a rational polynomial with a
    positive leading coefficient, as its coefficient list low degree first:
    denominators cleared, then the content, signed as the leading
    coefficient, divided out."""
    ints = _cleared(p.coeffs)
    content = gcd(*ints)
    if ints and ints[-1] < 0:
        content = -content
    return [c // content for c in ints]


def _mod_prime(p: UniPoly) -> list:
    """D * p modulo _PRIME (see _cleared), without leading zeros."""
    out = [c % _PRIME for c in _cleared(p.coeffs)]
    while out and not out[-1]:
        out.pop()
    return out


def primitive_prs(a: list, b: list, content) -> list:
    """A primitive gcd of two polynomials (zero when both are) over a gcd domain
    with n-ary gcd content and exact division //, as coefficient lists low
    degree first, by the primitive pseudo-remainder sequence: each remainder
    lc(b)/h * a - lc(a)/h * t^k * b, h = content(lc(a), lc(b)), is replaced by
    its primitive part (Gauss's lemma: the primitive gcd divides every
    remainder; von zur Gathen and Gerhard, Modern Computer Algebra, ch. 6)."""
    if len(a) < len(b):
        a, b = b, a
    while b:
        lb, db = b[-1], len(b) - 1
        while len(a) > db:
            la = a.pop()
            h = content(la, lb)
            la, scale, shift = la // h, lb // h, len(a) - db
            a = [c * scale for c in a]
            for i, c in enumerate(b[:-1]):
                a[shift + i] -= la * c
            while a and not a[-1]:
                a.pop()
        cont = content(*a)
        a, b = b, [x // cont for x in a]
    cont = content(*a)
    return [x // cont for x in a]


def int_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """A primitive gcd in Z[t] of integer polynomials, zero when both are:
    the primitive PRS over Z, with contents by math.gcd."""
    return UniPoly(primitive_prs(list(a.coeffs), list(b.coeffs), gcd))


def _int_poly_gcd(*ps: UniPoly) -> UniPoly:
    """The gcd in Z[t] of integer polynomials, zero when all are: int_gcd of
    them times the gcd of their integer contents."""
    return reduce(int_gcd, ps, UniPoly()).scale(gcd(*(gcd(*p.coeffs) for p in ps)))


def coprime_mod_prime(f: UniPoly, g: UniPoly) -> bool:
    """True only if gcd(f, g) = 1 over Q, for rational f != 0 and g, proved
    modulo P = 2^61 - 1.  By Gauss's lemma a common factor of positive degree
    is, up to a scalar, a primitive integer h dividing D * f and E * g, D and
    E the lcms of the denominators; if P does not divide lc(D * f), h mod P
    keeps its degree and divides both images, so their gcd over GF(P) being 1
    proves it.  False, for an exact gcd to decide, when P divides lc(D * f),
    the images share a factor, or a coefficient is not rational."""
    if not all(isinstance(c, (int, Fraction)) for c in f.coeffs + g.coeffs):
        return False
    a, b = _mod_prime(f), _mod_prime(g)
    if len(a) < len(f.coeffs):
        return False
    while b:  # Euclid over GF(_PRIME); a and b carry no leading zeros
        inv = pow(b[-1], -1, _PRIME)
        while len(a) >= len(b):
            q, shift = a[-1] * inv % _PRIME, len(a) - len(b)
            a.pop()  # its coefficient cancels
            for i, c in enumerate(b[:-1]):
                a[shift + i] = (a[shift + i] - q * c) % _PRIME
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return len(a) == 1


def coprime_certified(f: BiPoly, g: BiPoly) -> bool:
    """For f != 0, True only if f and g have no common factor of positive
    w-degree, proved by an integer a in 1, -1, 2, -2, 0 with lc_w(f)(a) != 0
    (f(a, w) of full degree) and coprime_mod_prime(f(a, w), g(a, w)): such a
    factor h has lc_w(h) | lc_w(f) in Q[z], so h(a, w) keeps its positive
    degree and divides both.  False, for the exact gcd to decide, when no
    point certifies; common factors in Q[z] are not ruled out."""
    degree = max(b for _, b in f.terms)
    for a in (1, -1, 2, -2, 0):
        fa = f.at_z(a)
        if fa.degree == degree and coprime_mod_prime(fa, g.at_z(a)):
            return True
    return False


def squarefree_decomposition(p: UniPoly):
    """Yun's algorithm: returns [(a_1, 1), (a_2, 2), ...] with
    p = c * prod a_k^k for a constant c, the a_k squarefree and pairwise
    coprime.  Factors with a_k constant are omitted.

    A rational p coprime to p' by coprime_mod_prime (run on p as given) is
    squarefree over Q: the result is [(p, 1)], p as given.  Otherwise Yun
    runs over Z[t] on to_integer_poly(p), with int_gcd, and each quotient by
    a primitive gcd is exact in Z[t] by Gauss's lemma; each a_k is handed
    back primitive in Z[t] with a positive leading coefficient, which is
    what fields.irreducible_factors works on, so no coefficient is divided.
    Over Q(alpha) the same loop runs on p.monic() with the monic uni_gcd,
    and the a_k are monic."""
    if p.is_zero():
        raise InputError("squarefree decomposition of the zero polynomial")
    if p.degree <= 0:
        return []
    if coprime_mod_prime(p, p.derivative()):
        return [(p, 1)]
    rational = all(isinstance(c, (int, Fraction)) for c in p.coeffs)
    p, poly_gcd = (UniPoly(to_integer_poly(p)), int_gcd) if rational else (p.monic(), uni_gcd)
    dp = p.derivative()
    g = poly_gcd(p, dp)
    if g.degree <= 0:
        return [(p, 1)]
    c = p // g
    d = dp // g - c.derivative()
    out, k = [], 1
    while c.degree > 0:
        a = poly_gcd(c, d)
        if a.degree > 0:
            out.append((-a if rational and a.leading < 0 else a, k))
        c_next = c // a
        d = d // a - c_next.derivative()
        c, k = c_next, k + 1
    return out


# ---------------------------------------------------------------------------
# bivariate polynomials g(z, w)
# ---------------------------------------------------------------------------

class BiPoly:
    """Sparse bivariate polynomial: a finite map (z-exp, w-exp) -> coefficient.

    No zero coefficients are stored; coefficients are those of UniPoly, so
    germs live over Q (integral ones as ints) or a simple extension of Q.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        t = {}
        if terms:
            for (a, b), c in terms.items():
                if c:
                    t[integers((a, b), "exponents")] = c
        self.terms = t

    @classmethod
    def _of(cls, terms: dict) -> "BiPoly":
        """A BiPoly on terms as given: int exponent pairs, no zero coefficient."""
        out = object.__new__(cls)
        out.terms = terms
        return out

    @classmethod
    def zero(cls) -> "BiPoly":
        return cls()

    @classmethod
    def constant(cls, c) -> "BiPoly":
        return cls({(0, 0): c})

    @classmethod
    def monomial(cls, a: int, b: int, c=1) -> "BiPoly":
        return cls({(a, b): c})

    @classmethod
    def var_z(cls) -> "BiPoly":
        return cls.monomial(1, 0)

    @classmethod
    def var_w(cls) -> "BiPoly":
        return cls.monomial(0, 1)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, BiPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "BiPoly") -> "BiPoly":
        return self._combine(other, add)

    def __neg__(self) -> "BiPoly":
        return BiPoly._of({k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "BiPoly") -> "BiPoly":
        return self._combine(other, sub)

    def _combine(self, other: "BiPoly", op) -> "BiPoly":
        t = dict(self.terms)
        for k, c in other.terms.items():
            s = op(t.get(k, 0), c)
            if s:
                t[k] = s
            elif k in t:
                del t[k]
        return BiPoly._of(t)

    def __mul__(self, other: "BiPoly") -> "BiPoly":
        # one term shifts the other side: no products collide and none is zero
        if len(self.terms) == 1 or len(other.terms) == 1:
            one, many = (self, other) if len(self.terms) == 1 else (other, self)
            ((a1, b1), c1), = one.terms.items()
            return BiPoly._of({(a1 + a, b1 + b): c1 * c for (a, b), c in many.terms.items()})
        t = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                k = (a1 + a2, b1 + b2)
                s = t[k] + c1 * c2 if k in t else c1 * c2
                if s:
                    t[k] = s
                elif k in t:
                    del t[k]
        return BiPoly._of(t)

    def scale(self, c) -> "BiPoly":
        return BiPoly._of({k: v * c for k, v in self.terms.items()} if c else {})

    def __pow__(self, n: int) -> "BiPoly":
        return power(self, n, BiPoly.constant(1))

    def order(self) -> int:
        """Order at the origin: min(a + b) over the support."""
        if not self.terms:
            raise InputError("order of the zero polynomial")
        return min(a + b for a, b in self.terms)

    def vanishes_at_origin(self) -> bool:
        return bool(self.terms) and (0, 0) not in self.terms

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(a + b for a, b in self.terms)

    def degree_z(self) -> int:
        if not self.terms:
            return -1
        return max(a for a, _ in self.terms)

    def derivative_z(self) -> "BiPoly":
        return BiPoly._of({(a - 1, b): c * a for (a, b), c in self.terms.items() if a > 0})

    def derivative_w(self) -> "BiPoly":
        return BiPoly._of({(a, b - 1): c * b for (a, b), c in self.terms.items() if b > 0})

    def columns(self) -> list:
        """The coefficients in Q[w] of the powers of z, from z^0 to z^(deg_z)."""
        cols = [{} for _ in range(self.degree_z() + 1)]
        for (a, b), c in self.terms.items():
            cols[a][b] = c
        return [UniPoly([col.get(b, 0) for b in range(max(col, default=-1) + 1)])
                for col in cols]

    def at_z(self, a) -> UniPoly:
        """g(a, w) as a polynomial in w."""
        coeffs = [0] * (max((b for _, b in self.terms), default=-1) + 1)
        for (i, b), c in self.terms.items():
            coeffs[b] += c * a ** i
        return UniPoly(coeffs)

    def __repr__(self):
        return f"BiPoly({self.terms!r})"


# ---------------------------------------------------------------------------
# bivariate gcd over Q (primitive PRS over Z[w])
# ---------------------------------------------------------------------------

def _swapped(g: BiPoly) -> BiPoly:
    return BiPoly._of({(b, a): c for (a, b), c in g.terms.items()})


def bipoly_gcd(f: BiPoly, g: BiPoly) -> BiPoly:
    """gcd in Q[z, w], normalized so the leading w-coefficient of the
    leading z-coefficient is 1.  Denominators are cleared once; the gcd is
    the gcd in Z[w] of the contents times that of the primitive parts, by
    int_gcd's primitive PRS over Z[w].  It eliminates the variable in which
    f has the lower degree: in (Z[w])[z], or with z and w swapped, where
    the coefficients swell far less on high z-degree."""
    swap = f.degree_z() > max((b for _, b in f.terms), default=-1)
    if swap:
        f, g = _swapped(f), _swapped(g)
    zf, zg = (BiPoly._of(dict(zip(p.terms, _cleared(p.terms.values())))).columns()
              for p in (f, g))
    cf, cg = _int_poly_gcd(*zf), _int_poly_gcd(*zg)
    a = primitive_prs([u // cf for u in zf], [u // cg for u in zg], _int_poly_gcd)
    content = _int_poly_gcd(cf, cg)
    h = BiPoly._of({(i, j): c for i, u in enumerate(a)
                    for j, c in enumerate((u * content).coeffs) if c})
    h = _swapped(h) if swap else h
    return h.scale(Fraction(1) / h.columns()[-1].leading) if h else h


# ---------------------------------------------------------------------------
# integer matrices and Smith normal form
# ---------------------------------------------------------------------------

@record
class IntMatrix:
    """Immutable integer matrix, row-major storage."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimensions")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match dimensions")
        object.__setattr__(self, "entries", integers(self.entries, "matrix entries"))

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        rows = [list(r) for r in rows]
        n = len(rows)
        m = len(rows[0]) if rows else 0
        if any(len(r) != m for r in rows):
            raise ValueError("ragged rows")
        return cls(n, m, tuple(e for r in rows for e in r))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, (0,) * (rows * cols))

    @classmethod
    def diagonal(cls, diag) -> "IntMatrix":
        diag = list(diag)
        n = len(diag)
        return cls(n, n, tuple(diag[i] if i == j else 0 for i in range(n) for j in range(n)))

    def entry(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def to_rows(self):
        return [list(self.entries[i * self.cols:(i + 1) * self.cols]) for i in range(self.rows)]

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("matrix dimensions do not compose")
        a, b = self.to_rows(), other.to_rows()
        out = []
        for i in range(self.rows):
            for j in range(other.cols):
                out.append(sum(a[i][k] * b[k][j] for k in range(self.cols)))
        return IntMatrix(self.rows, other.cols, tuple(out))

    def is_diagonal(self) -> bool:
        return all(self.entry(i, j) == 0
                   for i in range(self.rows) for j in range(self.cols) if i != j)

    def diagonal_entries(self):
        return [self.entry(i, i) for i in range(min(self.rows, self.cols))]

    def det(self) -> int:
        """Determinant, from the Bareiss pass that also gives the rank."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        r, minor, _ = _bareiss(self)
        return minor if r == self.rows else 0

    def rank(self) -> int:
        return _bareiss(self)[0]


def _bareiss(m: IntMatrix, extra=()):
    """(rank r, a nonzero r x r minor, the echelon rows) by fraction-free
    Bareiss elimination, row i carrying extra[i] along unpivoted; for a
    square matrix of full rank the minor is the determinant.

    A nonzero pivot a[r][c] is swapped in from below, or column c skipped.
    With prev the last pivot (1 at first) and c0 = (a[r][c] a[r+1][c+1] -
    a[r][c+1] a[r+1][c]) / prev nonzero, each row i > r + 1 becomes
    (c0 a[i][j] + c1 a[r][j] + c2 a[r+1][j]) / prev with c1 = (a[r+1][c]
    a[i][c+1] - a[r+1][c+1] a[i][c]) / prev, c2 = (a[r][c+1] a[i][c] - a[r][c]
    a[i][c+1]) / prev, then row r+1 takes one step and c0 is the next prev
    (Bareiss's two-step, Math. Comp. 22, 1968); at c0 = 0 or the last row or
    column one step runs.  By Sylvester's identity every quotient is a minor
    of M (a k x k determinant of entries is prev^(k-1) times one): exact."""
    a, prev, sign, r, c = m.to_rows(), 1, 1, 0, 0
    a = [row + e for row, e in zip(a, extra)] if extra else a
    while r < m.rows and c < m.cols:
        p = next((i for i in range(r, m.rows) if a[i][c]), None)
        if p is None:
            c += 1
            continue
        a[r], a[p], sign = a[p], a[r], sign if p == r else -sign
        piv, prow, below = a[r][c], a[r], a[r + 1:]
        (x, y), z = (below[0][c:c + 2], prow[c + 1]) if below and c + 1 < m.cols else ((0, 0), 0)
        c0 = (piv * y - z * x) // prev
        if c0:
            for row in below[1:]:
                s, t = row[c], row[c + 1]
                c1, c2 = (x * t - y * s) // prev, (z * s - piv * t) // prev
                row[c + 2:] = [(c0 * v + c1 * u + c2 * w) // prev
                               for u, w, v in zip(prow[c + 2:], below[0][c + 2:], row[c + 2:])]
            below = below[:1]
        for row in below:
            x = row[c]
            row[c + 1:] = [(v * piv - x * u) // prev for u, v in zip(prow[c + 1:], row[c + 1:])]
        prev, r, c = (c0, r + 2, c + 2) if c0 else (piv, r + 1, c + 1)
    return r, sign * prev, a


def _probe_columns(n: int) -> list:
    """n rows of two probe entries: powers of 48271 mod 2^31 - 1 (Park-Miller)."""
    return [[pow(48271, 2 * i + 1, 2**31 - 1), pow(48271, 2 * i + 2, 2**31 - 1)] for i in range(n)]


def _chain(values) -> list:
    """The invariant factors, as many as values, of the sum of the cyclic
    groups Z/v over values: each value is merged in by gcd and lcm."""
    out = []
    for x in values:
        for i, y in enumerate(out):
            out[i], x = gcd(x, y), lcm(x, y)
        out.append(x)
    return out


def _pivot_gcds(a, R: int) -> list:
    """A Smith diagonal of the rows a over Z/RZ: gcd(pivot, R) for each
    pivot of a gcd-based elimination, R for each missing pivot.  Each step
    clears the column below the pivot mod R; a row is reduced mod R when
    it becomes the pivot row."""
    n, a, out = min(len(a), len(a[0])) if a else 0, [list(row) for row in a], []
    while a and a[0]:
        live = [row for row in a if row[0] % R]
        if not live:
            a = [row[1:] for row in a]
            continue
        prow = min(live, key=lambda row: gcd(row[0], R))
        prow[:] = [u % R for u in prow]
        for row in (row for row in live if row is not prow):
            p, x = prow[0], row[0] % R
            if x % p:  # a unimodular 2 x 2 step puts h = gcd(p, x) in the pivot row
                h = gcd(p, x)
                s = pow(p // h, -1, x // h)  # s * p + t * x = h
                t = (h - s * p) // x
                prow[:], row[:] = ([(s * u + t * v) % R for u, v in zip(prow, row)],
                                   [(x // h * u - p // h * v) % R for u, v in zip(prow, row)])
            else:
                row[:] = [v - x // p * u for u, v in zip(prow, row)]
        g = gcd(prow[0], R)
        rest = [row for row in a if row is not prow]
        if any(u % g for u in prow):  # go on with the transpose, pivot row first
            a = [list(col) for col in zip(prow, *rest)]
            continue
        a = [row[1:] for row in rest]
        out.append(g)
    return out + [R] * (n - len(out))


def invariant_factors(m: IntMatrix) -> tuple:
    """The invariant factors d1 | d2 | ... | dr of M, r = rank M, without
    transforms; len() of the result is the rank.

    Elimination modulo R gives ei = gcd(di, R) (Domich-Kannan-Trotter): exact
    for R = |D|, which every di divides.  A square nonsingular M with Hadamard
    bound on |D| past one machine word, 2^64, where the probes start to pay,
    uses the certified-exponent modulus, a multiple of dn with far fewer bits
    (Abbott-Bronstein-Mulders, Eberly-Giesbrecht-Villard).
    (1) Bareiss carries probe columns b.  y = D * M^-1 * b and dn * M^-1 =
    V * diag(dn / di) * U, for U * M * V = diag(di), are integral, so D divides
    dn * y and dn * D: C = |D| / gcd(D, y) divides dn.  (2) For R = C, prod ei =
    |D| means ei = di for all i, as ei divides di.  Otherwise en = C and dn / en
    divides |D| / prod ei, so R = C * |D| / prod ei is a multiple of dn.
    (3) As C divides dn, d1 ... dn-1 = |D| / dn divides s = |D| / C: modulo s,
    ei = di for i < n, and their product is s just when dn = C (Saunders-Wan).
    So a smaller s < C is tried first; s = 1 gives di = 1 with no elimination.
    """
    probe = m.rows == m.cols and prod(sum(map(mul, row, row)) for row in m.to_rows()) >> 128
    r, minor, a = _bareiss(m, _probe_columns(m.rows) if probe else ())
    R = abs(minor)
    if probe and r == m.rows:
        y = []  # D * M^-1 * b for each probe b: back substitution divides exactly
        for c in map(list, zip(*(row[r:] for row in a))):
            for i in reversed(range(r)):
                c[i] = (minor * c[i] - sum(map(mul, a[i][i + 1:r], c[i + 1:]))) // a[i][i]
            y += c
        C = R // gcd(minor, *y)
        if (s := R // C) < C:
            e = _chain(_pivot_gcds(m.to_rows(), s))[:-1] if s > 1 else [1] * (r - 1)
            if prod(e) == s:
                return (*e, C)
        e = _pivot_gcds(m.to_rows(), C)
        if prod(e) == R:
            return tuple(_chain(e))
        R = C * R // prod(e)
    return tuple(_chain(_pivot_gcds(m.to_rows(), R))[:r])


def smith_normal_form(m: IntMatrix):
    """Return (D, U, V) with U*M*V = D, D diagonal with d1 | d2 | ...,
    and U, V unimodular.

    Classical elimination with pivot-size control: the smallest nonzero
    entry of the remaining block is swapped in as the pivot, which keeps
    coefficient growth tame at the matrix sizes this package meets.
    It runs on one matrix, [M | I] over [I]: the row operations carry U
    beside M, and the column operations carry V below it.
    """
    rows, cols = m.rows, m.cols
    a = [row + e for row, e in zip(m.to_rows(), IntMatrix.identity(rows).to_rows())]
    a += IntMatrix.identity(cols).to_rows()
    for t in range(min(rows, cols)):
        while True:
            # the smallest nonzero entry of the remaining block, first in row-major order
            best = 0
            for r in range(t, rows):
                for c in range(t, cols):
                    x = abs(a[r][c])
                    if x and (not best or x < best):
                        best, i, j = x, r, c
            if not best:
                break
            a[t], a[i] = a[i], a[t]
            if j != t:
                for row in a:
                    row[t], row[j] = row[j], row[t]
            if a[t][t] < 0:
                a[t] = [-x for x in a[t]]
            prow, p = a[t], a[t][t]
            for row in a[t + 1:rows]:
                if row[t]:
                    q = row[t] // p
                    row[:] = [x - q * y for x, y in zip(row, prow)]
            for j in range(t + 1, cols):
                if prow[j]:
                    q = prow[j] // p
                    for row in a:
                        row[j] -= q * row[t]
            if any(prow[t + 1:cols]) or any([row[t] for row in a[t + 1:rows]]):
                continue  # a remainder is the next, smaller pivot
            # pivot must divide every remaining entry for the chain d1 | d2 | ...
            fix = next((i for i in range(t + 1, rows)
                        if any(a[i][j] % p for j in range(t + 1, cols))), None)
            if fix is None:
                break
            a[t] = [x + y for x, y in zip(prow, a[fix])]

    return (IntMatrix(rows, cols, tuple(x for row in a[:rows] for x in row[:cols])),
            IntMatrix(rows, rows, tuple(x for row in a[:rows] for x in row[cols:])),
            IntMatrix(cols, cols, tuple(x for row in a[rows:] for x in row)))


# ---------------------------------------------------------------------------
# finitely generated abelian groups
# ---------------------------------------------------------------------------

@record
class FinAbGroup:
    """Finitely generated abelian group as free rank plus invariant factors
    d1 | d2 | ..., each >= 2.  Canonical, so equality is structural."""

    free_rank: int = 0
    invariant_factors: tuple = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        facs = integers(self.invariant_factors, "invariant factors")
        for f in facs:
            if f < 2:
                raise ValueError("invariant factors must be >= 2")
        for x, y in zip(facs, facs[1:]):
            if y % x:
                raise ValueError("invariant factors must form a divisibility chain")
        object.__setattr__(self, "invariant_factors", facs)

    @classmethod
    def trivial(cls) -> "FinAbGroup":
        return cls(0, ())

    @classmethod
    def free(cls, rank: int) -> "FinAbGroup":
        return cls(rank, ())

    @classmethod
    def cyclic(cls, n: int) -> "FinAbGroup":
        if n == 0:
            return cls.free(1)
        if n == 1:
            return cls.trivial()
        return cls(0, (abs(n),))

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.invariant_factors

    def direct_sum(self, other: "FinAbGroup") -> "FinAbGroup":
        facs = self.invariant_factors + other.invariant_factors
        if self.invariant_factors and other.invariant_factors:
            # renormalize the concatenated chains through SNF of a diagonal matrix
            d, _, _ = smith_normal_form(IntMatrix.diagonal(facs))
            facs = tuple(x for x in d.diagonal_entries() if x >= 2)
        return FinAbGroup(self.free_rank + other.free_rank, facs)

    def repeated(self, copies: int) -> "FinAbGroup":
        """Sum of copies: each invariant factor repeated in place is a chain."""
        if copies < 0:
            raise ValueError("negative number of copies")
        return FinAbGroup(self.free_rank * copies,
                          tuple(f for f in self.invariant_factors for _ in range(copies)))

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{f}" for f in self.invariant_factors)
        return " + ".join(parts) if parts else "0"


def cokernel(m: IntMatrix) -> FinAbGroup:
    """Z^rows / image(M) for M viewed as a map Z^cols -> Z^rows; its free
    rank is rows - rank M."""
    factors = invariant_factors(m)
    return FinAbGroup(m.rows - len(factors), tuple(d for d in factors if d > 1))
