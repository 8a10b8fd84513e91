"""p-adic valuation machinery for Pierce-Lehmer sequences and tree counts.

The decomposition implemented here writes, for every n,

    ord_p(kappa(X_n)) = mu_p * n + lambda_{p,n} * ord_p(n) + nu_{p,n} + c_p

with mu_p the content valuation of J, lambda_{p,n} counting p-adic unit
roots of J whose residue order divides n (shifted by e - 1 at tower level),
c_p = ord_p(kappa(X)) - ord_p(D_1), and nu_{p,n} a finite-image correction.

All data of J at p lives in one UnitRootStructure, built by
unit_root_structure(j, p): mu, the residue factors of the unit part with
their orders, and each factor's Teichmueller constants.  The last 64
structures are memoised per process, keyed on (J's coefficients, p), so the
reports and laws of a tower build each structure once; structures are
shared, so their constants are read-only.  When J / p**mu is palindromic or
anti-palindromic, a residue factor g and its monic reciprocal g* have the
same order and constants, and each pair is computed once.

nu has two computation paths by design.  The oracle path inverts the
identity using the exact integer valuation of the Pierce-Lehmer value and is
always available.  The structural path reads each root's distance to its
Teichmueller representative from the structure's constants; they exist only
when the unit part of J is squarefree mod p, and they are differentially
checked against the oracle wherever they apply.  The constants are
valuations of powers of the lifted root, not of its distance to a
fixed-point Teichmueller lift: with q = p**f the residue field size,
ord(beta**(p**r) - omega(beta)**(p**r)) = ord(beta**((q - 1) * p**r) - 1).
They are computed in an unramified extension at a working precision that
rises for each root on its own: from 2 p-adic digits, doubled with one more
Newton step while a distance reaches it; past MAX_PRECISION,
PrecisionExhausted is raised.

The constants are summed in one place, the per-layer pass over the factors
that lambda_for_n, nu_structural and the rows of padic_report share.  The
Iwasawa, Washington and Friedman laws are the decomposition along p-power,
ell-power and smooth subsequences: each reads lambda from lambda_for_n and
the structural nu from nu_structural at the least n of its subsequence, and
fits nu from exact values only when the unit part is ramified.

An element of F_p[t], of a residue field F_p[t]/(g) or of its lift
Z/p**K[t]/(g) is one kind of value, a low-first list of ints, q = p or p**K.
Every product and power modulo a monic g of degree d goes through one
Kronecker-packed kernel: the operands are packed into ints with w bits per
coefficient, w the bit length of (2d - 1)(q - 1)**2 + q - 1 so that no slot
carries, multiplied once, and the high slots folded back with the rows
t**k mod g built once per (g, q).  Division serves gcds, inverses and exact
quotients.  F_p factoring, integer factoring (residue orders) and primality
(BPSW) are local, so this module never imports sympy.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import count, zip_longest
from math import gcd, lcm

from .errors import OrderUnavailable, PrecisionExhausted, VerificationMismatch
from .ihara import TowerAnalysis, kappa_sequence, pierce_lehmer
from .polyring import IntPoly, _mul, cyclotomic_polynomial, vanishes_at_root_of_unity

MAX_PRECISION = 512

# The effort of integer factoring (residue orders).  Past it, orders degrade
# to "unavailable" and divisibility queries fall back to direct powering.
_TRIAL_LIMIT = 10_000
_PM1_BOUND = 2000
_RHO_STEPS = 1 << 20


def valuation(n: int, p: int) -> int:
    """ord_p(n) for a nonzero integer n and p >= 2."""
    if n == 0:
        raise ValueError("valuation of zero is infinite")
    if p < 2:
        raise ValueError(f"{p} is not prime")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def content_valuation(f: IntPoly, p: int) -> int:
    """min ord_p over the nonzero coefficients."""
    if f.is_zero():
        raise ValueError("zero polynomial")
    return min(valuation(c, p) for c in f.coeffs if c)


# ---------------------------------------------------------------------------
# Arithmetic and factoring in F_p[t]
# ---------------------------------------------------------------------------
# An element of F_p[t], F_p[t]/(g) or Z/p**K[t]/(g) is a list of ints in
# [0, q), q = p or p**K, t**0 first as in IntPoly.coeffs, with no trailing
# zeros.  Every product and power modulo a monic g goes through the packed
# kernel of _ModRing; _gf_divmod serves gcds, inverses and exact quotients.


def _gf_trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def _gf_monic(g: IntPoly, p: int) -> list:
    """g mod p made monic; ValueError unless t is a unit modulo it."""
    h = _gf_trim([c % p for c in g.coeffs])
    if not h or h[0] == 0:
        raise ValueError("t must be a unit modulo g")
    if len(h) < 2:
        raise ValueError("g must have positive degree modulo p")
    inv = pow(h[-1], -1, p)
    return [c * inv % p for c in h]


def _gf_divmod(f, g, q):
    """(quotient, remainder) of f by g over Z/qZ, for g whose leading
    coefficient is a unit mod q.  Each coefficient is reduced once, when it
    leads, and the remainder at the end."""
    r, quot, inv, low, n = list(f), [], pow(g[-1], -1, q), g[:-1], len(g) - 1
    for k in range(len(f) - 1 - n, -1, -1):
        c = r[k + n] * inv % q
        quot.append(c)
        if c:
            for i, x in enumerate(low):
                r[k + i] -= c * x
    return _gf_trim(quot[::-1]), _gf_trim([c % q for c in r[:n]])


def _gf_sub(a, b, q):
    """a - b over Z/qZ."""
    return _gf_trim([(u - v) % q for u, v in zip_longest(a, b, fillvalue=0)])


class _ModRing:
    """Z/qZ[t]/(g) for a monic g of degree d >= 1, multiplied by Kronecker
    substitution (Harvey, J. Symb. Comput. 44 (2009)).

    An element is packed into one int, w bits per coefficient, so a product
    is one integer product.  Its slots of t**d .. t**(2d - 2) are reduced mod
    q and folded back onto the low d slots with the rows t**k mod g, packed
    once here; then each slot is reduced mod q.  A low slot then holds at
    most d products of two residues plus d - 1 row terms, and slot 0 also an
    added constant below q, so w is the bit length of
    (2d - 1)(q - 1)**2 + q - 1 and no slot carries into the next."""

    __slots__ = ("g", "q", "w", "mask", "split", "low", "shifts", "rows")

    def __init__(self, g, q):
        d = len(g) - 1
        self.g, self.q = g, q
        self.w = w = ((2 * d - 1) * (q - 1) ** 2 + q - 1).bit_length()
        self.mask, self.split, self.low = (1 << w) - 1, d * w, (1 << d * w) - 1
        self.shifts = range(0, d * w, w)
        rows, row = [], [-c % q for c in g[:-1]]  # t**d mod g
        for _ in range(d - 1):
            rows.append(self._pack(row))
            top = row[-1]  # t * row, less top * g
            row = [(a - top * c) % q for a, c in zip([0] + row[:-1], g)]
        self.rows = rows

    def _pack(self, a):
        x, w = 0, self.w
        for c in reversed(a):
            x = x << w | c
        return x

    def _reduce(self, z):
        """The packed residue of a packed z whose slots obey the bound."""
        q, mask = self.q, self.mask
        high = z >> self.split
        z = (z & self.low) + sum([(high >> s & mask) % q * row
                                  for s, row in zip(self.shifts, self.rows)])
        x, w = 0, self.w
        for s in reversed(self.shifts):
            x = x << w | (z >> s & mask) % q
        return x

    def _unpack(self, x):
        return _gf_trim([x >> s & self.mask for s in self.shifts])

    def _packed(self, a):
        """a, of any length, packed as an element."""
        return self._pack(a if len(a) < len(self.g) else _gf_divmod(a, self.g, self.q)[1])

    def mul(self, a, b):
        """a * b."""
        return self._unpack(self._reduce(self._packed(a) * self._packed(b)))

    def pow(self, a, e):
        """a**e, by square and multiply from the leading bit of e."""
        if e == 0:
            return [1]
        x = y = self._packed(a)
        for bit in bin(e)[3:]:
            y = self._reduce(y * y)
            if bit == "1":
                y = self._reduce(y * x)
        return self._unpack(y)

    def at(self, coeffs, a):
        """The integer polynomial with these coefficients at a, by Horner."""
        x, y = self._packed(a), 0
        for c in reversed(coeffs):
            y = self._reduce(y * x + c % self.q)
        return self._unpack(y)


def _gf_mulmod(a, b, g, q):
    """a * b modulo a monic g over Z/qZ."""
    return _ModRing(g, q).mul(a, b)


def _gf_powmod(a, e, g, q):
    """a**e modulo a monic g of degree >= 1 over Z/qZ."""
    return _ModRing(g, q).pow(a, e)


def _gf_gcd(f, g, p):
    """The monic gcd over F_p of f and g, not both zero."""
    while g:
        f, g = g, _gf_divmod(f, g, p)[1]
    inv = pow(f[-1], -1, p)
    return [c * inv % p for c in f]


def _gf_inverse(a, g, p):
    """The inverse of a modulo g over F_p, by the extended Euclidean algorithm
    tracking only the cofactor of a; VerificationMismatch unless gcd(a, g) = 1."""
    r0, r1, s0, s1 = list(g), _gf_trim(list(a)), [], [1]
    while r1:
        quot, r = _gf_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _gf_sub(s0, _mul(quot, s1), p)
    if len(r0) != 1:
        raise VerificationMismatch("attempted to invert a non-unit")
    inv = pow(r0[0], -1, p)
    return [c * inv % p for c in s0]


def _gf_squarefree(f, p):
    """[(g, m)] with the monic f = prod g**m, the g squarefree and coprime."""
    out, e = [], 1
    while len(f) > 1:
        df = _gf_trim([i * c % p for i, c in enumerate(f)][1:])
        g = _gf_gcd(f, df, p) if df else f
        w, i = _gf_divmod(f, g, p)[0], 1
        while len(w) > 1:
            y = _gf_gcd(w, g, p)
            if len(y) < len(w):
                out.append((_gf_divmod(w, y, p)[0], i * e))
            w, g, i = y, _gf_divmod(g, y, p)[0], i + 1
        # the factors of multiplicity divisible by p are left: g(t) = h(t)**p
        f, e = g[::p], e * p
    return out


def _gf_irreducible_factors(f, p, rng):
    """The irreducible factors of a monic squarefree f: gcd(f, t**(p**k) - t)
    collects those of degree k (distinct-degree factoring), then splits them."""
    out, k, h, ring = [], 1, [0, 1], None
    while len(f) - 1 >= 2 * k:
        ring = ring or _ModRing(f, p)
        h = ring.pow(h, p)
        g = _gf_gcd(f, _gf_sub(h, [0, 1], p), p)
        if len(g) > 1:
            out += _gf_split(g, k, p, rng)
            f, ring = _gf_divmod(f, g, p)[0], None
        k += 1
    return out + [f] if len(f) > 1 else out


def _gf_split(f, k, p, rng):
    """The irreducible factors of a monic squarefree f whose factors all have
    degree k, split by Cantor-Zassenhaus (Math. Comp. 36 (1981))."""
    if len(f) - 1 == k:
        return [f]
    ring = _ModRing(f, p)
    while True:
        r = _gf_trim([rng.randrange(p) for _ in range(len(f) - 1)])
        if p == 2:
            # the trace r + r**2 + ... + r**(2**(k - 1)) is 0 or 1 mod each
            # factor; over F_2 the sum is a difference
            s = y = r
            for _ in range(k - 1):
                y = ring.mul(y, y)
                s = _gf_sub(s, y, p)
        else:
            s = _gf_sub(ring.pow(r, (p ** k - 1) // 2), [1], p)
        g = _gf_gcd(f, s, p)
        if 1 < len(g) < len(f):
            return _gf_split(g, k, p, rng) + _gf_split(_gf_divmod(f, g, p)[0], k, p, rng)


def factor_mod_p(f: IntPoly, p: int):
    """Complete factorization of f mod p into monic irreducibles.

    Returns [(IntPoly lift with coeffs in [0, p), multiplicity)] sorted by
    degree, then coefficients.  p must be prime (ValueError otherwise).  The
    random splits are seeded, so the result is deterministic.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    fp = _gf_trim([c % p for c in f.coeffs])
    if not fp:
        raise ValueError("polynomial vanishes mod p")
    inv = pow(fp[-1], -1, p)
    out, rng = [], random.Random(0)
    for g, mult in _gf_squarefree([c * inv % p for c in fp], p):
        out.extend((IntPoly(u), mult) for u in _gf_irreducible_factors(g, p, rng))
    out.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return out


# ---------------------------------------------------------------------------
# Primes and multiplicative orders in F_p[t]/(g)
# ---------------------------------------------------------------------------

# Miller-Rabin to the 13 prime bases 2..41 has no strong pseudoprime below
# psi_13 (Sorenson and Webster, Math. Comp. 86 (2017)).  Above it a strong
# Lucas test is added, which makes the test BPSW: no composite is known to
# pass it, and sympy's isprime runs the same strong BPSW test there.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981


def is_prime(n) -> bool:
    """Whether the integer n is prime; ValueError if n is not an integer."""
    if isinstance(n, bool):
        raise ValueError(f"{n} is not an integer")
    try:
        n = operator.index(n)
    except TypeError:
        raise ValueError(f"{n} is not an integer") from None
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _MR_EXACT_BELOW or _strong_lucas_probable_prime(n)


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for an odd n > 0, by quadratic reciprocity."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """The strong Lucas test of an odd n > 41 with Selfridge's parameters P = 1,
    Q = (1 - D) / 4, D the first of 5, -7, 9, -11, ... with (D/n) = -1
    (Baillie and Wagstaff, Math. Comp. 35 (1980)): with n + 1 = d * 2**s,
    n passes when U_d = 0 or some V_{d * 2**r}, r < s, is 0 mod n."""
    if _integer_root(n, 2) ** 2 == n:  # (D/n) = -1 for no D
        return False
    D = 5
    while (symbol := _jacobi(D, n)) != -1:
        if symbol == 0:  # 1 < gcd(D, n) < n
            return False
        D = -D - 2 if D > 0 else 2 - D
    Q = (1 - D) // 4
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    # (U_k, V_k, Q**k) from k = 1 along the bits of d: k -> 2k, then k -> k + 1,
    # where U_{k+1} = (U_k + V_k) / 2 and V_{k+1} = (D U_k + V_k) / 2 mod n
    u, v, qk = 1, 1, Q % n
    for bit in bin((n + 1) >> s)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v = (u + v) % n, (D * u + v) % n
            u, v, qk = (u + (u & 1) * n) // 2, (v + (v & 1) * n) // 2, qk * Q % n
    if u == 0:
        return True
    for _ in range(s):
        if v == 0:
            return True
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
    return False


def _rho_divisor(n: int) -> int:
    """A proper divisor of the composite n by Brent's rho (BIT 20 (1980)) on
    x*x + c, c = 1, 2, ...; OrderUnavailable rather than pass _RHO_STEPS steps."""
    taken = 0
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            taken += 2 * r
            if taken > _RHO_STEPS:
                raise OrderUnavailable(f"cannot factor {n} within the effort bound")
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            for k in range(0, r, 128):
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                if g > 1:
                    break
            r *= 2
        if g == n:  # that batch closed the cycle mod every factor: replay it singly
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g < n:
            return g


def _integer_root(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 1, by Newton's method from above."""
    r = 1 << -(-n.bit_length() // k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def _perfect_power(n: int):
    """(r, k) with n = r**k for the least prime k that allows it, else None."""
    for k in range(2, n.bit_length() + 1):
        if is_prime(k):
            r = _integer_root(n, k)
            if r ** k == n:
                return r, k
    return None


def _factor_integer(m: int) -> dict:
    """Prime factorization of m >= 1 with a fixed effort, OrderUnavailable past
    it: trial division below _TRIAL_LIMIT, then a composite cofactor that is
    not a perfect power is split by Pollard p - 1 (exponent
    lcm(1, ..., _PM1_BOUND)) or else rho."""
    out = {}
    if not is_prime(m):
        for d in range(2, _TRIAL_LIMIT):
            if d * d > m:
                break
            while m % d == 0:
                m //= d
                out[d] = out.get(d, 0) + 1
    stack = [m] if m > 1 else []
    while stack:
        n = stack.pop()
        if is_prime(n):
            out[n] = out.get(n, 0) + 1
            continue
        power = _perfect_power(n)
        if power:
            stack += [power[0]] * power[1]
            continue
        g = gcd(pow(2, lcm(*range(1, _PM1_BOUND + 1)), n) - 1, n)
        if g in (1, n):
            g = _rho_divisor(n)
        stack += [g, n // g]
    return out


def _factor_p_power_minus_one(p: int, f: int) -> dict:
    """Factor p**f - 1 through its cyclotomic-value factors, then each part."""
    out = {}
    for d in range(1, f + 1):
        if f % d:
            continue
        part = cyclotomic_polynomial(d)(p)
        for q, e in _factor_integer(part).items():
            out[q] = out.get(q, 0) + e
    return out


def multiplicative_order(g: IntPoly, p: int) -> int:
    """Order of the class of t in F_p[t]/(g), for irreducible g with g(0) != 0.

    The order divides N = p**deg(g) - 1.  For each prime power ell**e
    exactly dividing N, its ell-part is the least ell**k with
    (t**(N / ell**e))**(ell**k) = 1 (Cohen, GTM 138, Algorithm 1.4.3).  N is
    factored with a bounded effort; OrderUnavailable is raised past it.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    g = _gf_monic(g, p)
    ring = _ModRing(g, p)
    n = p ** (len(g) - 1) - 1
    order = 1
    for ell, e in _factor_p_power_minus_one(p, len(g) - 1).items():
        y = ring.pow([0, 1], n // ell ** e)
        for _ in range(e):
            if y == [1]:
                break
            y = ring.pow(y, ell)
            order *= ell
        if y != [1]:
            raise ValueError("t**(p**deg(g) - 1) != 1, so g is not irreducible mod p")
    return order


# ---------------------------------------------------------------------------
# Newton polygons
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NewtonPolygon:
    """Lower hull of (i, ord_p(c_i)); slope-zero length counts p-adic unit roots."""

    prime: int
    vertices: tuple  # ((i, ord_p(c_i)), ...) on the lower hull
    segments: tuple  # ((slope: Fraction, length: int), ...)

    @property
    def slope_zero_length(self) -> int:
        return sum(length for slope, length in self.segments if slope == 0)


def newton_polygon(f: IntPoly, p: int) -> NewtonPolygon:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if f.is_zero():
        raise ValueError("zero polynomial")
    pts = [(i, valuation(c, p)) for i, c in enumerate(f.coeffs) if c]
    hull = []
    for pt in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            x3, y3 = pt
            # pop while the middle point is on or above the chord
            if (x2 - x1) * (y3 - y1) - (y2 - y1) * (x3 - x1) <= 0:
                hull.pop()
            else:
                break
        hull.append(pt)
    segments = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        segments.append((Fraction(y2 - y1, x2 - x1), x2 - x1))
    return NewtonPolygon(p, tuple(hull), tuple(segments))


# ---------------------------------------------------------------------------
# Unit root structure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UnitFactor:
    """One irreducible residue factor of the unit part of J mod p."""

    poly: IntPoly
    multiplicity: int
    degree: int
    order: int  # None when the factoring budget was exceeded


class _ReadOnlyDict(dict):
    """A dict that refuses every change, so a memoised structure can be
    shared; it prints as a dict."""

    def _refuse(self, *args, **kwargs):
        raise TypeError("the constants of a unit root structure are read-only")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return type(self), (dict(self),)


@dataclass(frozen=True)
class UnitRootStructure:
    prime: int
    mu: int  # content valuation of j at p
    unit_poly: IntPoly  # reduction mod p of j / p**mu with the t-power stripped
    factors: tuple
    ramified: bool
    constants: dict  # read-only, factor -> _RootConstants; None when ramified

    @property
    def unit_root_count(self) -> int:
        return sum(f.multiplicity * f.degree for f in self.factors)

    def order_divides(self, factor: UnitFactor, n: int) -> bool:
        """Whether the residue order of the factor's roots divides n.

        Uses the known order when available, otherwise decides by powering
        t**n in F_p[t]/(factor), which needs no integer factorization.
        """
        if factor.order is not None:
            return n % factor.order == 0
        return _gf_powmod([0, 1], n, _gf_monic(factor.poly, self.prime), self.prime) == [1]


# Structures memoised per process.  The reports and laws of one tower read
# its structures at the same few primes (11 in a padic benchmark round), so
# 64 keep those of several towers at once while bounding what is held.
_MEMO_SIZE = 64


def unit_root_structure(j: IntPoly, p: int) -> UnitRootStructure:
    """Extract the slope-zero (unit root) part of j at p, factor its
    reduction, and compute each factor's Teichmueller constants.

    p must be prime (ValueError otherwise).  The reduction of j / p**mu mod p
    equals t**s times the unit part's reduction; the stripped degree must
    match the Newton polygon's slope-zero length (VerificationMismatch
    otherwise).  The constants are None when the unit part is ramified.  A
    root of unity among the roots would make some root-to-Teichmueller
    distance infinite, so when there are unit roots to measure that input
    is rejected (ValueError); a distance still ambiguous at MAX_PRECISION
    raises PrecisionExhausted.

    The last _MEMO_SIZE structures are memoised per (j's coefficients, p)
    and shared between calls, so their constants are read-only; the checks
    and the errors come on every call, as an exception is never memoised.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if j.is_zero():
        raise ValueError("zero polynomial")
    return _unit_root_structure(j.coeffs, p)


@lru_cache(maxsize=_MEMO_SIZE)
def _unit_root_structure(coeffs: tuple, p: int) -> UnitRootStructure:
    j = IntPoly(coeffs)
    mu = content_valuation(j, p)
    j1 = IntPoly([c // p ** mu for c in coeffs])
    red = [c % p for c in j1.coeffs]
    s = 0
    while red[s] == 0:
        s += 1
    lifted = IntPoly(red[s:])
    if lifted.degree != newton_polygon(j, p).slope_zero_length:
        raise VerificationMismatch("unit part degree disagrees with the Newton polygon")
    # When j / p**mu is palindromic or anti-palindromic its roots pair as
    # beta and 1/beta, so the monic reciprocal g* of a residue factor g is a
    # factor too, with g's order and constants: ord(beta**-m - 1) =
    # ord(beta**m - 1).  Each pair is then computed once, at its first factor.
    symmetric = coeffs in (coeffs[::-1], tuple(-c for c in reversed(coeffs)))
    factors, mates, seen = [], [], {}
    for g, mult in factor_mod_p(lifted, p):
        mate = seen.get(_gf_reciprocal(g, p))
        if mate is not None:
            order = mate.order
        else:
            try:
                order = multiplicative_order(g, p)
            except OrderUnavailable:
                order = None
        factor = UnitFactor(g, mult, g.degree, order)
        factors.append(factor)
        mates.append(mate)
        if symmetric:
            seen[g.coeffs] = factor
    ramified = any(f.multiplicity > 1 for f in factors)
    constants = None
    if not ramified:
        if factors and vanishes_at_root_of_unity(j):
            raise ValueError("polynomial vanishes at a root of unity")
        constants = {}
        for f, mate in zip(factors, mates):
            constants[f] = _root_constants(p, f, j1) if mate is None else constants[mate]
        constants = _ReadOnlyDict(constants)
    return UnitRootStructure(p, mu, lifted, tuple(factors), ramified, constants)


def _gf_reciprocal(g: IntPoly, p: int) -> tuple:
    """The coefficients of the monic reciprocal t**deg(g) g(1/t) / g(0) mod p."""
    inv = pow(g.coeffs[0], -1, p)
    return tuple(c * inv % p for c in reversed(g.coeffs))


# ---------------------------------------------------------------------------
# Teichmueller constants in unramified extensions of Z_p
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _RootConstants:
    """Per-factor structural data: s_p and the summand valuations table."""

    s: int
    w: tuple  # w[r] = ord_p(beta**(p**r) - xi**(p**r)) for r = 0..s


def _root_constants(p: int, factor: UnitFactor, j1: IntPoly) -> _RootConstants:
    """s and w for the roots of j1 over the factor, in Z/p**K[t]/(g) for the
    monic residue factor g (an unramified extension, so valuations are taken
    coordinatewise), read at K = 2 p-adic digits and again at twice the
    digits while some w[r] reaches K."""
    g = _gf_monic(factor.poly, p)
    f = len(g) - 1
    poly, dpoly, ring = j1.coeffs, j1.derivative().coeffs, _ModRing(g, p)

    def ord_minus_one(y, K):  # min ord_p over the coordinates of y - 1, K for 0
        return min([valuation(c, p) for c in _gf_sub(y, [1], p ** K) if c] + [K])

    # Coupled Newton iteration from the residue root: z follows 1/J1'(beta),
    # a unit because the unit part is squarefree mod p, so only its residue
    # is inverted.  Both are exact to K // 2 digits on entry to precision K,
    # so one step there makes beta exact to K; z is refined only to go on.
    beta = _gf_divmod([0, 1], g, p)[1]
    z = _gf_inverse(ring.at(dpoly, beta), g, p)
    K = 2
    while True:
        q = p ** K
        ring = _ModRing(g, q)
        beta = _gf_sub(beta, ring.mul(ring.at(poly, beta), z), q)
        if ring.at(poly, beta):
            raise VerificationMismatch("root lifting failed")
        # beta = xi * u with xi**(p**f - 1) = 1 and u = 1 mod p.  As p**f - 1
        # is a p-adic unit, ord(beta**(p**r) - xi**(p**r)) =
        # ord(u**(p**r) - 1) = ord(beta**((p**f - 1) * p**r) - 1), so xi
        # itself is never computed.
        y = ring.pow(beta, p ** f - 1)
        w = [ord_minus_one(y, K)]
        if w[0] < 1:
            raise VerificationMismatch(
                "a root is not congruent to its Teichmueller representative"
            )
        s = 0
        while p ** s * (p - 1) * w[0] <= 1:
            s += 1
        for _ in range(s):
            y = ring.pow(y, p)
            w.append(ord_minus_one(y, K))
        if max(w) < K:
            return _RootConstants(s, tuple(w))
        K *= 2
        if K > MAX_PRECISION:
            raise PrecisionExhausted(f"p-adic precision exceeded {MAX_PRECISION} digits")
        z = ring.mul(z, _gf_sub([2], ring.mul(ring.at(dpoly, beta), z), q))


# ---------------------------------------------------------------------------
# The lambda / nu decomposition
# ---------------------------------------------------------------------------


def lambda_for_n(structure: UnitRootStructure, n: int, e: int = None) -> int:
    """Number of unit roots whose residue order divides n (with multiplicity).

    With e given, adds the tower shift e - 1; without it, this is the
    polynomial-level count.
    """
    count = _layer_terms(structure, n)[0]
    if e is None:
        return count
    return count + e - 1


def ord_delta_exact(j: IntPoly, p: int, n: int) -> int:
    """ord_p of the Pierce-Lehmer value Res(j, t**n - 1) for a prime p, by exact division."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    delta = pierce_lehmer(j, n)
    if delta == 0:
        raise ValueError("Pierce-Lehmer value vanishes; j has a root of unity")
    return valuation(delta, p)


def nu_from_oracle(j: IntPoly, p: int, n: int, mu: int, lambda_poly: int) -> int:
    """nu_{p,n}(j) from the exact valuation of the Pierce-Lehmer value."""
    return ord_delta_exact(j, p, n) - mu * n - lambda_poly * valuation(n, p)


def nu_structural(structure: UnitRootStructure, n: int):
    """nu_{p,n}(j) from Teichmueller distances (an int), for the j the
    structure was built from; None when the unit part is ramified."""
    return _layer_terms(structure, n)[1]


def _layer_terms(structure: UnitRootStructure, n: int):
    """(lambda, nu) at n, deciding each residue order once: the count of
    lambda_for_n and the sum of the constants of nu_structural, the only
    place they are summed."""
    data, p = structure.constants, structure.prime
    m = valuation(n, p) if n % p == 0 else 0
    lam = nu = 0
    for f in structure.factors:
        if structure.order_divides(f, n):
            lam += f.multiplicity * f.degree
            if data is not None:
                rc = data[f]
                r = min(m, rc.s)
                nu += f.degree * (rc.w[r] - r)
    return lam, None if data is None else nu


# ---------------------------------------------------------------------------
# Tower-level report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PerLayer:
    lam: int
    nu: int
    ord: int
    source: str  # "structural" or "oracle"


@dataclass(frozen=True)
class PadicReport:
    prime: int
    mu: int
    c: int
    structure: UnitRootStructure
    R: int  # max s_p over unit roots; None when not structurally computable
    per_n: dict  # n -> PerLayer


def _saturation(structure: UnitRootStructure):
    """max s_p over the unit roots (0 without any); None when ramified."""
    if structure.constants is None:
        return None
    return max((rc.s for rc in structure.constants.values()), default=0)


def padic_report(ta: TowerAnalysis, p: int, n_max: int, kappas=None) -> PadicReport:
    """Full decomposition of ord_p(kappa(X_n)) for n = 1..n_max.

    Every row is checked against the exact valuation of the tree count; a
    failure is a bug, not a data condition, hence VerificationMismatch.
    kappas, when given, must hold at least the tree counts of layers 1..n_max.
    """
    if n_max < 1:
        raise ValueError("n_max must be positive")
    if kappas is not None and len(kappas) < n_max:
        raise ValueError(f"kappas holds {len(kappas)} layers, fewer than n_max = {n_max}")
    structure = unit_root_structure(ta.j_poly, p)
    mu = structure.mu
    c = valuation(ta.kappa_base, p) - valuation(ta.delta1, p)
    if kappas is None:
        kappas = kappa_sequence(ta, n_max)
    per_n = {}
    for n in range(1, n_max + 1):
        ordn = valuation(n, p) if n % p == 0 else 0
        lam_poly, nu = _layer_terms(structure, n)
        lam = lam_poly + ta.e - 1
        ord_kappa = valuation(kappas[n - 1], p) if kappas[n - 1] % p == 0 else 0
        # The oracle value follows from the tree-count formula itself.
        ord_delta = ord_kappa - (ta.e - 1) * ordn - c
        if nu is not None:
            source = "structural"
        else:
            nu = ord_delta - mu * n - lam_poly * ordn
            source = "oracle"
        total = mu * n + lam * ordn + nu + c
        if total != ord_kappa:
            raise VerificationMismatch(f"decomposition failed at n={n}: {total} != {ord_kappa}")
        per_n[n] = PerLayer(lam, nu, ord_kappa, source)
    return PadicReport(p, mu, c, structure, _saturation(structure), per_n)


# ---------------------------------------------------------------------------
# Iwasawa / Washington / Friedman laws for Pierce-Lehmer sequences
# ---------------------------------------------------------------------------


def iwasawa_invariants(j: IntPoly, p: int):
    """(mu, lambda, nu, k0) with ord_p(D_{p**k}) = mu*p**k + lambda*k + nu for k >= k0.

    Residue orders are prime to p, so lambda = lambda_for_n(structure, 1)
    counts the unit roots congruent to 1 mod the maximal ideal.  When the unit
    part is unramified, k0 is the saturation exponent and nu is
    nu_structural at p**k0; otherwise both come from an exact fit on the
    p-power subsequence.
    """
    structure = unit_root_structure(j, p)
    mu = structure.mu
    lam = lambda_for_n(structure, 1)
    k0 = _saturation(structure)
    if k0 is not None:
        return mu, lam, nu_structural(structure, p ** k0), k0
    # Oracle fit.  Every root-to-Teichmueller distance is at least
    # 1/deg(j) (the ramification index is bounded by the degree), so the
    # saturation exponent s_p obeys p**s * (p-1) > deg(j); residues are
    # therefore eventually constant within this window.
    s_max = 0
    while p ** s_max * (p - 1) <= max(j.degree, 1):
        s_max += 1
    residues = [
        ord_delta_exact(j, p, p ** k) - mu * p ** k - lam * k
        for k in range(s_max + 5)
    ]
    nu = residues[s_max]
    if any(v != nu for v in residues[s_max:]):
        raise PrecisionExhausted("Iwasawa residues did not stabilize in the window")
    k0 = s_max
    while k0 > 0 and residues[k0 - 1] == nu:
        k0 -= 1
    return mu, lam, nu, k0


def washington_invariants(j: IntPoly, p: int, ell: int):
    """(mu, nu, k0) with ord_p(D_{ell**k}) = mu*ell**k + nu for k >= k0, ell a prime != p.

    k0 is the largest ord_ell of a residue order; nu is nu_structural at ell**k0
    (ramified: the exact value there), checked exactly at k0, k0 + 1 and k0 + 2.
    """
    if p == ell:
        raise ValueError("the two primes must be distinct")
    if not is_prime(ell):
        raise ValueError(f"{ell} is not prime")
    structure = unit_root_structure(j, p)
    mu = structure.mu
    if any(f.order is None for f in structure.factors):
        raise OrderUnavailable("a residue order is unavailable")
    k0 = max((valuation(f.order, ell) for f in structure.factors), default=0)
    nu = nu_structural(structure, ell ** k0)
    # exact verification (and the oracle value in the ramified case)
    checks = [
        ord_delta_exact(j, p, ell ** k) - mu * ell ** k
        for k in (k0, k0 + 1, k0 + 2)
    ]
    if nu is None:
        nu = checks[0]
    if any(v != nu for v in checks):
        raise VerificationMismatch("Washington law failed its exact verification")
    return mu, nu, k0


@dataclass(frozen=True)
class SequenceClass:
    """One congruence class of layers with constant (lambda, nu)."""

    orders: tuple  # subset of the distinct residue orders, sorted
    r: int  # capped ord_p(n); r == R means ord_p(n) >= R
    lam: int
    nu: int


def sequence_classes(ta: TowerAnalysis, p: int, n_max: int = 200, kappas=None):
    """Partition n <= n_max into divisibility classes with constant (lambda, nu).

    The reported nu absorbs c_p, so within each class
    ord_p(kappa(X_n)) = mu*n + lam*ord_p(n) + nu holds exactly; this is
    checked on every n <= n_max.
    """
    report = padic_report(ta, p, n_max, kappas=kappas)
    structure = report.structure
    if any(f.order is None for f in structure.factors):
        raise OrderUnavailable("sequence classes need every residue order")
    order_set = sorted({f.order for f in structure.factors})
    cap = 0
    while p ** (cap + 1) <= n_max:
        cap += 1
    for R in range(cap + 1):
        classes = {}
        consistent = True
        for n in range(1, n_max + 1):
            subset = tuple(N for N in order_set if n % N == 0)
            ordn = valuation(n, p) if n % p == 0 else 0
            r = min(ordn, R)
            row = report.per_n[n]
            nu_class = row.ord - report.mu * n - row.lam * ordn
            key = (subset, r)
            if key not in classes:
                classes[key] = (row.lam, nu_class)
            elif classes[key] != (row.lam, nu_class):
                consistent = False
                break
        if consistent:
            if report.R is not None and R > report.R:
                raise VerificationMismatch(
                    "the structural saturation bound does not explain the data"
                )
            return [
                SequenceClass(subset, r, lam, nu)
                for (subset, r), (lam, nu) in sorted(classes.items())
            ]
    raise VerificationMismatch("no saturation exponent explains the data")


def _smooth_over(n: int, primes) -> bool:
    for ell in primes:
        while n % ell == 0:
            n //= ell
    return n == 1


@dataclass(frozen=True)
class FriedmanLaw:
    prime: int
    mu: int
    lam: int  # 0 for the outside prime
    nu: int
    min_exponents: tuple  # per-generator exponent thresholds


def friedman_laws(j: IntPoly, p: int, primes, bound: int = 10_000):
    """Affine valuation laws on the semigroup generated by the given primes.

    For n = prod ell_i**k_i with every k_i past its threshold,
    ord_{ell_j}(D_n) = mu_{ell_j} * n + lam_j * k_j + nu_j, and for the
    outside prime p the lam term is absent.  At the least qualifying n0, lam is
    lambda_for_n and nu is nu_structural (ramified: a fit).  Each law is
    verified exactly on all qualifying semigroup elements up to the bound.
    """
    primes = tuple(primes)
    if len(set(primes)) != len(primes):
        raise ValueError("generator primes must be distinct")
    if p in primes:
        raise ValueError("the outside prime must not be a generator")
    for ell in primes:
        if not is_prime(ell):
            raise ValueError(f"{ell} is not prime")

    def law_for(observer: int, with_lambda: bool) -> FriedmanLaw:
        structure = unit_root_structure(j, observer)
        mu = structure.mu
        if any(f.order is None for f in structure.factors):
            raise OrderUnavailable("a residue order is unavailable")
        # The least qualifying element n0 is the lcm of the orders smooth over the
        # generators (all prime to the observer), times observer**s for their
        # largest saturation exponent s with lam: those orders divide n0.
        chosen = [f for f in structure.factors if _smooth_over(f.order, primes)]
        n0 = lcm(*(f.order for f in chosen))
        if with_lambda and structure.constants is not None:
            n0 *= observer ** max((structure.constants[f].s for f in chosen), default=0)
        thresholds = tuple(valuation(n0, ell) for ell in primes)
        lam = lambda_for_n(structure, n0) if with_lambda else 0
        nu = nu_structural(structure, n0)
        # enumerate qualifying semigroup elements and verify (or fit) nu
        elements = _semigroup_elements(primes, bound)
        verified = False
        for n, exps in elements:
            if any(k < t for k, t in zip(exps, thresholds)):
                continue
            k_obs = exps[primes.index(observer)] if with_lambda else 0
            value = ord_delta_exact(j, observer, n) - mu * n - lam * k_obs
            if nu is None:
                nu = value
            if value != nu:
                raise AssertionError(f"Friedman law failed at n={n} for prime {observer}")
            verified = True
        if nu is None or not verified:
            raise AssertionError("no qualifying semigroup element below the bound")
        return FriedmanLaw(observer, mu, lam, nu, thresholds)

    laws = {ell: law_for(ell, True) for ell in primes}
    laws[p] = law_for(p, False)
    return laws


def _semigroup_elements(primes, bound):
    """All (n, exponent vector) with n <= bound in the generated semigroup."""
    out = [(1, (0,) * len(primes))]
    for i, ell in enumerate(primes):
        extended = []
        for n, exps in out:
            k = 0
            value = n
            while value <= bound:
                vec = list(exps)
                vec[i] = k
                extended.append((value, tuple(vec)))
                k += 1
                value *= ell
        out = extended
    return sorted(out)
