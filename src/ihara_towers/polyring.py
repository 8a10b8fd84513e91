"""Exact big-integer polynomials and Laurent polynomials.

Everything in this module is exact: coefficients are Python ints, every
division is an exact integer division (long division by an exact divisor
or a pseudo-remainder), determinants use fraction-free Bareiss
elimination, and no floating point appears anywhere.

The dense representation keeps coeffs[i] as the coefficient of t**i.
That is a deliberate trade-off: the polynomials handled here have small
degree (a few hundred at most), and density keeps Bareiss elimination
and the pseudo-remainder sequences of gcds and resultants simple.
IntPoly and LaurentPoly are records like every other: immutable named
tuples, equal to and hashed as the tuple of their fields, so a polynomial
is never equal to an int.

The kernels _mul, _prem and _resultant take the coefficients as plain int
lists, so a loop over many small polynomials builds no IntPoly, and the
subresultant resultant takes out no content, since its divisions are exact.
It makes each step that lowers the degree by one, nearly every step of a
Pierce-Lehmer value, in one pass that forms the pseudo-remainder and divides
it; other steps run _prem.

Nothing here counts or tests roots on the unit circle: mahler counts them
from the trace polynomial and Sturm chains kept here, and padic_engine tests
a lift that does not settle for a root of unity with Phi_k and Euler's phi.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from functools import lru_cache
from math import gcd


def _mul(a, b) -> list:
    """The product of the low-first coefficient lists a and b, untrimmed."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


class IntPoly(namedtuple("IntPoly", "coeffs")):
    """Dense polynomial over the integers, a record like the others.

    The zero polynomial is the empty coefficient tuple and reports
    degree -1 (the distinguished sentinel); otherwise the leading
    coefficient is nonzero.  Equal to and hashed as the tuple (coeffs,),
    so never equal to an int; bool is overridden, as a 1-tuple is true.
    """

    __slots__ = ()

    def __new__(cls, coeffs=()):
        cs = tuple(coeffs)
        if cs and cs[-1] == 0:
            n = len(cs) - 1
            while n and cs[n - 1] == 0:
                n -= 1
            cs = cs[:n]
        return tuple.__new__(cls, (cs,))

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make: trim there too
        return cls(*iterable)

    # -- basic queries ----------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lead(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    # -- arithmetic --------------------------------------------------------

    def __neg__(self) -> "IntPoly":
        return IntPoly([-c for c in self.coeffs])

    def __add__(self, other) -> "IntPoly":
        if isinstance(other, int):
            other = IntPoly((other,))
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    __radd__ = __add__

    def __sub__(self, other) -> "IntPoly":
        return self + -other

    def __mul__(self, other) -> "IntPoly":
        if isinstance(other, int):
            return IntPoly([c * other for c in self.coeffs])
        return IntPoly(_mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def shift(self, k: int) -> "IntPoly":
        """Multiply by t**k (k >= 0)."""
        if k < 0:
            raise ValueError("negative shift on IntPoly")
        return IntPoly((0,) * k + self.coeffs)

    def __call__(self, x):
        """Horner evaluation; works for int, Fraction, float, complex."""
        acc = 0 * x
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "IntPoly":
        return IntPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def content(self) -> int:
        """gcd of the coefficients, nonnegative; 0 for the zero polynomial."""
        return gcd(*self.coeffs)

    def primitive_part(self) -> "IntPoly":
        g = self.content()
        if g in (0, 1):
            return self
        return IntPoly([c // g for c in self.coeffs])


# ---------------------------------------------------------------------------
# Laurent polynomials
# ---------------------------------------------------------------------------


class LaurentPoly(namedtuple("LaurentPoly", "low body")):
    """Laurent polynomial t**low * body with body(0) != 0 unless zero, a
    record like the others.

    The zero Laurent polynomial is stored as low == 0 with a zero body.  It
    holds the Ihara determinant, so it supports construction, from_dict and
    is_zero, and no arithmetic: poly_matrix_det clears each row to IntPoly
    entries.  The tests carry their own Laurent arithmetic.
    """

    __slots__ = ()

    def __new__(cls, low: int, body: IntPoly):
        if body.is_zero():
            return tuple.__new__(cls, (0, body))
        k = 0
        while body.coeffs[k] == 0:
            k += 1
        if k:
            body = IntPoly(body.coeffs[k:])
        return tuple.__new__(cls, (low + k, body))

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make: strip the power of t there too
        return cls(*iterable)

    @classmethod
    def from_dict(cls, terms: dict) -> "LaurentPoly":
        terms = {e: c for e, c in terms.items() if c}
        if not terms:
            return cls(0, IntPoly())
        low = min(terms)
        top = max(terms)
        body = [0] * (top - low + 1)
        for e, c in terms.items():
            body[e - low] = c
        return cls(low, IntPoly(body))

    def is_zero(self) -> bool:
        return self.body.is_zero()


def is_self_reciprocal(f) -> bool:
    """True iff f(1/t) == f(t): f is zero, or its body is a palindrome and
    2 low + deg(body) == 0.  Accepts LaurentPoly or IntPoly."""
    if isinstance(f, IntPoly):
        f = LaurentPoly(0, f)
    c = f.body.coeffs
    return not c or (c == c[::-1] and 2 * f.low + len(c) - 1 == 0)


# ---------------------------------------------------------------------------
# Division, orders of vanishing
# ---------------------------------------------------------------------------


def divide_exact(f: IntPoly, g: IntPoly) -> IntPoly:
    """Quotient f/g when g divides f over the integers; ValueError otherwise.

    Integer long division: each quotient coefficient must divide exactly by
    lead(g), and the final remainder must vanish.
    """
    if g.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if f.is_zero():
        return IntPoly()
    d = g.degree
    r = list(f.coeffs)
    gl = g.lead
    gc = g.coeffs[:d]
    q = [0] * (len(r) - d)
    for k in range(len(q) - 1, -1, -1):
        c, rem = divmod(r.pop(), gl)
        if rem:
            raise ValueError("inexact polynomial division")
        q[k] = c
        if c:
            for i, x in enumerate(gc):
                r[k + i] -= c * x
    if any(r):
        raise ValueError("inexact polynomial division")
    return IntPoly(q)


def _divide_out(f: IntPoly, root: int):
    """(g, m) with f = (t - root)**m * g and g(root) != 0, for nonzero f."""
    linear = IntPoly((-root, 1))
    m = 0
    while f(root) == 0:
        f = divide_exact(f, linear)
        m += 1
    return f, m


# ---------------------------------------------------------------------------
# gcd machinery (primitive pseudo-remainder sequence)
# ---------------------------------------------------------------------------


def pseudo_rem(f: IntPoly, g: IntPoly) -> IntPoly:
    """Pseudo-remainder of f by g: rem(lead(g)**(deg f - deg g + 1) * f, g).

    f itself when deg f < deg g.  For monic g this is the exact remainder.
    """
    if g.is_zero():
        raise ZeroDivisionError("pseudo-division by zero")
    return IntPoly(_prem(list(f.coeffs), g.coeffs))


def _prem(r: list, g) -> list:
    """The pseudo-remainder of the low-first list r, which it consumes, by the
    low-first g with nonzero last entry: untrimmed, of length deg g when
    len(r) > deg g, and r itself otherwise."""
    d = len(g) - 1
    gl = g[-1]
    gc = g[:d]
    # One step per quotient coefficient, even when a leading coefficient
    # cancels, so that lead(g) enters exactly deg f - deg g + 1 times.
    for k in range(len(r) - 1 - d, -1, -1):
        c = r.pop()
        if gl != 1:
            r = [gl * x for x in r]
        if c:
            for i, x in enumerate(gc):
                r[k + i] -= c * x
    return r


def poly_gcd(f: IntPoly, g: IntPoly) -> IntPoly:
    """Primitive gcd with positive leading coefficient."""
    a, b = f.primitive_part(), g.primitive_part()
    if a.is_zero():
        a, b = b, a
    while not b.is_zero():
        a, b = b, pseudo_rem(a, b).primitive_part()
    if a.is_zero():
        return a
    return a if a.lead > 0 else -a


# ---------------------------------------------------------------------------
# Fraction-free determinants: one Bareiss elimination for Z and Z[t]
# ---------------------------------------------------------------------------


def _bareiss(m, one, div):
    """Fraction-free determinant of the square matrix m (row lists, which it
    overwrites) over Z or Z[t]: one is the ring's unit and div its exact
    division.  Every division is exact by Sylvester's identity.  A zero pivot
    is swapped with a lower row; a column with no nonzero pivot gives 0.
    """
    n = len(m)
    sign = 1
    prev = one
    for k in range(n - 1):
        if not m[k][k]:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0 * one
        pk = m[k][k]
        mk = m[k]
        for i in range(k + 1, n):
            mi = m[i]
            mik = mi[k]
            m[i] = mi[: k + 1] + [
                div(mi[j] * pk - mik * mk[j], prev) for j in range(k + 1, n)
            ]
        prev = pk
    return sign * m[-1][-1] if n else one


def int_matrix_det(rows) -> int:
    """Bareiss determinant of a square integer matrix (list of lists)."""
    m = [list(r) for r in rows]
    if any(len(r) != len(m) for r in m):
        raise ValueError("matrix is not square")
    return _bareiss(m, 1, operator.floordiv)


def poly_matrix_det(rows) -> LaurentPoly:
    """Exact determinant of a square matrix of LaurentPoly entries.

    Each row is cleared to a common power of t first (which scales the
    determinant by a tracked monomial), then fraction-free elimination
    runs over plain integer polynomials.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    shift_total = 0
    cleared = []
    for row in rows:
        lows = [e.low for e in row if not e.is_zero()]
        m_i = min(lows) if lows else 0
        shift_total += m_i
        cleared.append([e.body.shift(e.low - m_i) if not e.is_zero() else IntPoly() for e in row])
    return LaurentPoly(shift_total, _bareiss(cleared, IntPoly((1,)), divide_exact))


# ---------------------------------------------------------------------------
# Resultants
# ---------------------------------------------------------------------------


def resultant(p: IntPoly, q: IntPoly) -> int:
    """Res(p, q) = lead(p)**deg(q) times the product of q over the roots of p,
    which is the determinant of the Sylvester matrix of p and q, by _resultant
    on the coefficient lists."""
    if p.is_zero() or q.is_zero():
        raise ValueError("resultant of the zero polynomial is undefined")
    return _resultant(list(p.coeffs), list(q.coeffs))


def _resultant(a: list, b: list) -> int:
    """Res(a, b) of trimmed nonzero low-first int lists, left unchanged, by
    Collins' subresultant PRS in the form of Cohen, Algorithm 3.3.7.  Every
    division in it is exact for any inputs, so no content is taken out.

    A step that lowers the degree by delta = 1, nearly every step of a
    Pierce-Lehmer value, is one pass: with lb = lead(b), q1 = lb lead(a) and
    q0 = lb a[da - 1] - lead(a) b[db - 1], prem(a, b) = lb**2 a - (q1 t + q0) b,
    the two quotient steps of _prem written out, and each coefficient is
    divided by g h**delta as it is made.  That division is exact because the
    quotient is the next subresultant, an integer polynomial, and it acts on
    each coefficient alone, so dividing before the trim changes nothing.  A
    step with delta = 0 or delta >= 2 runs _prem and divides in a second
    pass.  tests/corpus.py keeps the kernel with _prem on every step as a
    reference, and a test requires both to return the same value."""
    m, n = len(a) - 1, len(b) - 1
    if m == 0:
        return a[0] ** n
    if n == 0:
        return b[0] ** m
    sign = 1
    if m < n:
        a, b = b, a
        if m % 2 and n % 2:
            sign = -sign
    g = h = 1
    while True:
        da, db = len(a) - 1, len(b) - 1
        delta = da - db
        if da % 2 and db % 2:
            sign = -sign
        den = g * h ** delta
        if delta == 1:
            # prem(a, b) = lb**2 a - (q1 t + q0) b, made and divided in one pass
            lb, la = b[-1], a[-1]
            q1, q0, lb2 = lb * la, lb * a[-2] - la * b[-2], lb * lb
            terms = zip(a, [0] + b, b[:-1])
            if den == 1:
                r = [lb2 * x - q1 * y - q0 * z for x, y, z in terms]
            else:
                r = [(lb2 * x - q1 * y - q0 * z) // den for x, y, z in terms]
        else:
            r = _prem(a[:], b)
            if den != 1:
                r = [x // den for x in r]
        while r and not r[-1]:
            r.pop()
        if not r:
            return 0
        a, b = b, r
        g = a[-1]
        if delta == 1:
            h = g
        elif delta:
            h = g ** delta // h ** (delta - 1)
        if len(b) == 1:
            return sign * b[0] ** db // h ** (db - 1)


# ---------------------------------------------------------------------------
# Cyclotomic polynomials (used to reject roots of unity exactly)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=256)
def cyclotomic_polynomial(k: int) -> IntPoly:
    """The k-th cyclotomic polynomial, by dividing t**k - 1 by the proper divisors.
    The last 256 are memoised: the p-adic root-of-unity test reads the same
    few k for every residue factor of one order."""
    if k < 1:
        raise ValueError("k must be positive")
    num = IntPoly((-1,) + (0,) * (k - 1) + (1,))
    for d in range(1, k):
        if k % d == 0:
            num = divide_exact(num, cyclotomic_polynomial(d))
    return num


def euler_phi(k: int) -> int:
    result = k
    d = 2
    while d * d <= k:
        if k % d == 0:
            while k % d == 0:
                k //= d
            result -= result // d
        d += 1
    if k > 1:
        result -= result // k
    return result


# ---------------------------------------------------------------------------
# Trivial roots, trace polynomials, Sturm chains
# ---------------------------------------------------------------------------


def _strip_trivial_roots(f: IntPoly):
    """(g, m): f with its power of t and its roots at +-1 divided out, and m
    the number of roots at +-1 removed, with multiplicity."""
    work, plus = _divide_out(_divide_out(f, 0)[0], 1)
    work, minus = _divide_out(work, -1)
    return work, plus + minus


def _trace_polynomial(c: tuple) -> list:
    """K with t**m * K(t + 1/t) = f, for the coefficients c of a palindromic f
    of degree 2m: K(s) = c[m] + sum_k c[m+k] V_k(s), where V_k(t + 1/t) =
    t**k + t**-k is the Lucas sequence V_0 = 2, V_1 = s, V_k = s V_(k-1) -
    V_(k-2).  ihara._lehmer_modulus rescales it for the Pierce-Lehmer values,
    mahler.count_unit_circle_roots counts its real roots in (-2, 2), and
    padic_engine.factor_mod_p factors it mod p."""
    m = (len(c) - 1) // 2
    k = [c[m]] + [0] * m
    v_prev, v = [2], [0, 1]
    for j in range(1, m + 1):
        for i, x in enumerate(v):
            k[i] += c[m + j] * x
        v_prev, v = v, [x - y for x, y in zip([0] + v, v_prev + [0, 0])]
    return k


def _sturm_count_open(q: IntPoly, a: int, b: int) -> tuple:
    """(count, last): the distinct real roots of q in the open interval (a, b),
    where q(a), q(b) != 0, and the last member of the chain.

    The chain is built from primitive pseudo-remainders, signed so that each
    member is a positive multiple of the classical Sturm chain's member:
    prem(f, g) = lead(g)**(deg f - deg g + 1) * rem(f, g), whose scalar is
    negative exactly when lead(g) < 0 and deg f - deg g is even.  Its last
    member is a nonzero multiple of gcd(q, q'), constant exactly when q is
    squarefree.
    """
    if q(a) == 0 or q(b) == 0:
        raise ValueError("Sturm endpoints must not be roots")
    chain = [q, q.derivative()]
    while chain[-1].degree > 0:
        f, g = chain[-2], chain[-1]
        rem = pseudo_rem(f, g).primitive_part()
        if rem.is_zero():
            break
        if g.lead < 0 and (f.degree - g.degree) % 2 == 0:
            rem = -rem
        chain.append(-rem)

    def variations(x):
        signs = [v > 0 for v in (poly(x) for poly in chain) if v]
        return sum(1 for u, v in zip(signs, signs[1:]) if u != v)

    return variations(a) - variations(b), chain[-1]
