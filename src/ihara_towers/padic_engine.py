"""p-adic valuation machinery for Pierce-Lehmer sequences and tree counts.

The decomposition implemented here writes, for every n,

    ord_p(kappa(X_n)) = mu_p * n + lambda_{p,n} * ord_p(n) + nu_{p,n} + c_p

with mu_p the content valuation of J, lambda_{p,n} counting p-adic unit
roots of J whose residue order divides n (shifted by e - 1 at tower level),
c_p = ord_p(kappa(X)) - ord_p(D_1), and nu_{p,n} a finite-image correction.

All data of J at p lives in one UnitRootStructure, built by
unit_root_structure(j, p): mu and the residue factors of the unit part, each
one UnitFactor with its order and its Teichmueller constants s and w.
The last 64 structures are memoised per process, keyed on (J's
coefficients, p), so the reports and laws of a tower build each structure
once; structures are shared, and named tuples of ints and tuples make them
immutable.  When J / p**mu is palindromic or anti-palindromic, a residue
factor g and its monic reciprocal g* have the same order and constants, and
each pair is computed once.

nu has two computation paths by design.  The oracle path inverts the
identity using the exact integer valuation of the Pierce-Lehmer value and is
always available.  The structural path reads each root's distance to its
Teichmueller representative from the constants of its factor; they exist
only when the unit part of J is squarefree mod p, and they are
differentially checked against the oracle wherever they apply.  The
constants are valuations of powers of the lifted root, not of its distance
to a fixed-point Teichmueller lift: for any multiple M of the residue order
of beta that is prime to p, ord(beta**(p**r) - omega(beta)**(p**r)) =
ord(beta**(M * p**r) - 1).  M is the residue order itself, or q - 1 for
q = p**f the residue field size when the order is unavailable.  Residue
orders come from p**f - 1, or from p**(f/2) + 1 for a self-reciprocal
factor, whose roots satisfy beta**(p**(f/2)) = 1/beta.
They are computed in an unramified extension at a working precision that
rises for each root on its own: from 2 p-adic digits, doubled with one more
Newton step while a distance reaches it.  A root of unity has an infinite
distance, so its lift never settles.  Where a lift first fails to settle, at
2 digits, J is rejected (ValueError) if Phi_k divides it for a k whose
prime-to-p part is a residue order, so no ring above p**2 is built for it
and no unit-circle root is counted; past MAX_PRECISION, PrecisionExhausted.

The constants are summed in one place, _layer_terms, which lambda_for_n,
nu_structural and padic_report share.  (lambda, nu) depend on n only through
its residue class (gcd(n, L), min(ord_p(n), S)), L the lcm of the residue
orders (p**deg(g) - 1 for an unknown one) and S the largest saturation
exponent, so padic_report calls _layer_terms once per class and checks
every row exactly.  The Iwasawa, Washington and Friedman laws are the
decomposition along p-power, ell-power and smooth subsequences: each reads
lambda from lambda_for_n and the structural nu from nu_structural at the
least n of its subsequence, and all three check nu against exact values
through one routine, _checked_nu, which also fits it, from the first layer
checked, when the unit part is ramified and nu_structural has no value.

Besides the structures, facts that repeat within a process are kept in
bounded memos: the factorization of p**f - 1 per (p, f), the last
root-of-unity test, and the exact D_n of nu_from_oracle per (J's
coefficients, n), checked against the bit cap on every call.
ord_delta_exact is never memoised, so it stays an independent recomputation.

An element of F_p[t], of a residue field F_p[t]/(g) or of its lift
Z/p**K[t]/(g) is one kind of value, a low-first list of ints, q = p or p**K.
Every product and power modulo a monic g of degree d goes through one
Kronecker-packed kernel: the operands are packed into ints with w bits per
coefficient, multiplied once, and reduced by a polynomial Barrett step whose
slots are all reduced mod q by one multiply-shift, a fixed number of integer
operations whatever d is.  Division serves gcds, exact quotients and the
one inverse of the lift, by extended Euclid.
F_p factoring and integer factoring (residue orders) are local; a
palindromic unit part is factored at half its degree, through its trace
polynomial.  Primality and valuations come from primes, so this module never
imports sympy.
"""

from __future__ import annotations

import random
from collections import namedtuple
from functools import lru_cache
from itertools import count, zip_longest
from math import gcd, lcm

from .errors import OrderUnavailable, PrecisionExhausted, VerificationMismatch
from .ihara import TowerAnalysis, _bit_cap, _check_bits, kappa_sequence, pierce_lehmer
from .polyring import IntPoly, _mul, _trace_polynomial, cyclotomic_polynomial, euler_phi, pseudo_rem
from .primes import _integer_root, content_valuation, is_prime, valuation

MAX_PRECISION = 512

# The effort of integer factoring (residue orders).  Past it, orders degrade
# to "unavailable" and divisibility queries fall back to direct powering.
_TRIAL_LIMIT = 10_000
_PM1_BOUND = 2000
_RHO_STEPS = 1 << 20


# ---------------------------------------------------------------------------
# Arithmetic and factoring in F_p[t]
# ---------------------------------------------------------------------------
# An element of F_p[t], F_p[t]/(g) or Z/p**K[t]/(g) is a list of ints in
# [0, q), q = p or p**K, t**0 first as in IntPoly.coeffs, with no trailing
# zeros.  Every product and power modulo a monic g goes through the packed
# kernel of _ModRing; _gf_divmod serves gcds, exact quotients and inverses.


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
    is one integer product, of degree at most 2d - 2.  Its residue takes a
    fixed number of integer operations, whatever d is, in three steps of
    polynomial Barrett reduction, each ending with every slot reduced mod q:
    the high slots H = z // t**d, the quotient Q = (H mu) // t**(d - 2) with
    mu = t**(2d - 2) // g over Z/qZ, packed once here, and z mod t**d less
    (Q (g - t**d)) mod t**d.  Q is z // g exactly: z // g depends only on
    H, and with t**(2d - 2) = mu g + r, deg r < d, (H t**(2d - 2)) // g =
    H mu + (H r) // g, whose second term has degree below d - 2, so the
    division by t**(d - 2) drops it.  For d = 1 both mu and H are 0.

    A slot x is reduced mod q by one multiply-shift, x - q ((x m) >> k),
    with k = n + bits(q) and m = ceil(2**k / q), done on all slots at once
    by masking each quotient to its w - k bits.  As m q - 2**k < q <=
    2**(k - n), the quotient is floor(x / q) for every x < 2**n (Granlund
    and Montgomery, PLDI 1994).  A slot of a product, and the constant that
    Horner adds to slot 0, stay below B = (2d - 1)(q - 1)**2 + q; the last
    step adds to each low slot the offset O = q (floor(d (q - 1)**2 / q) +
    1), a multiple of q above any slot it subtracts, so no slot goes
    negative.  n is the bit length of B + O, and w = n + bits(m) + 1 leaves
    room for x m, so no slot carries or borrows into the next."""

    __slots__ = ("g", "q", "w", "mask", "split", "low", "shifts", "mu", "glow", "top",
                 "m", "k", "qmask", "offset")

    def __init__(self, g, q):
        d = len(g) - 1
        self.g, self.q = g, q
        offset = q * (d * (q - 1) ** 2 // q + 1)
        n = ((2 * d - 1) * (q - 1) ** 2 + q + offset).bit_length()
        self.k = k = n + q.bit_length()
        self.m = m = -(-(1 << k) // q)
        self.w = w = n + m.bit_length() + 1
        self.mask, self.split, self.low = (1 << w) - 1, d * w, (1 << d * w) - 1
        self.shifts = range(0, d * w, w)
        ones = self.low // self.mask
        self.qmask, self.offset = ((1 << w - k) - 1) * ones, offset * ones
        self.mu = self._pack(_gf_divmod([0] * (2 * d - 2) + [1], g, q)[0])
        self.glow, self.top = self._pack(g[:-1]), max(d - 2, 0) * w

    def _pack(self, a):
        x, w = 0, self.w
        for c in reversed(a):
            x = x << w | c
        return x

    def _reduce(self, z):
        """The packed residue of a packed z of degree at most 2d - 2 whose
        slots are below B."""
        q, m, k, qmask, low = self.q, self.m, self.k, self.qmask, self.low
        x = z >> self.split  # H
        x -= q * (x * m >> k & qmask)
        x = x * self.mu >> self.top  # Q
        x -= q * (x * m >> k & qmask)
        x = (z & low) + self.offset - (x * self.glow & low)
        return x - q * (x * m >> k & qmask)

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

    def pows(self, a, exponents):
        """[a**e for e in exponents], each e >= 1, all from one table of the
        squarings a**(2**i): a power costs only its multiplications."""
        x = self._packed(a)
        table = [x]
        for _ in range(max(exponents, default=1).bit_length() - 1):
            x = self._reduce(x * x)
            table.append(x)
        out = []
        for e in exponents:
            y = None
            for i, x in enumerate(table):
                if e >> i & 1:
                    y = x if y is None else self._reduce(y * x)
            out.append(self._unpack(y))
        return out

    def at(self, coeffs, a):
        """The integer polynomial with these coefficients at a, by Horner."""
        x, y = self._packed(a), 0
        for c in reversed(coeffs):
            y = self._reduce(y * x + c % self.q)
        return self._unpack(y)


def _gf_gcd(f, g, p):
    """The monic gcd over F_p of f and g, not both zero."""
    while g:
        f, g = g, _gf_divmod(f, g, p)[1]
    inv = pow(f[-1], -1, p)
    return [c * inv % p for c in f]


def _gf_inverse(a, g, p):
    """The inverse of a modulo g over F_p, by the extended Euclidean
    algorithm on the cofactor of a alone; VerificationMismatch unless
    gcd(a, g) = 1, so for a = 0 too."""
    r0, r1, s0, s1 = g, a, [], [1]
    while len(r1) > 1:
        quot, r = _gf_divmod(r0, r1, p)
        r0, r1, s0, s1 = r1, r, s1, _gf_sub(s0, _mul(quot, s1), p)
    if not r1:
        raise VerificationMismatch("attempted to invert a non-unit")
    inv = pow(r1[0], -1, p)
    return [c * inv % p for c in s1]


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


def _gf_trace_factors(f, p, rng):
    """[(g, mult)] with f = prod g**mult, the g irreducible, for a monic
    palindromic f of even degree 2m, from the irreducible factors h of its
    trace polynomial K, f = t**m K(t + 1/t), each of degree d and
    multiplicity e in K.

    h = s -+ 2 gives t**2 -+ 2t + 1, so t -+ 1 with multiplicity 2e.  Any
    other h gives H = t**d h(t + 1/t), squarefree of degree 2d, whose roots
    are the roots of X**2 - sigma X + 1, sigma a root of h.  H is irreducible
    iff that quadratic is irreducible over F_p(sigma) = F_(p**d); otherwise H
    = g g* with g != g* of degree d, split by _gf_split.  For odd p the
    quadratic is irreducible iff (sigma**2 - 4)**((p**d - 1)/2) = -1, which
    is the quadratic character of its norm, (h(2) h(-2))**((p - 1)/2).  For
    p = 2, X = sigma Y gives Y**2 + Y = 1/sigma**2, irreducible iff
    Tr(1/sigma**2) = Tr(1/sigma) = 1 (Artin-Schreier), and the trace of
    1/sigma, the sum of the reciprocal roots of h, is -h[1] / h[0] = h[1]."""
    out = []
    for g, e in _gf_squarefree(_gf_trim([c % p for c in _trace_polynomial(f)]), p):
        for h in _gf_irreducible_factors(g, p, rng):
            d = len(h) - 1
            if d == 1 and h[0] in (2 % p, p - 2):  # s + 2 or s - 2
                out.append(([p - 1 if h[0] == p - 2 else 1, 1], 2 * e))
                continue
            big_h = [1]  # t**i times the top i + 1 terms of h(s), by Horner
            for i, c in enumerate(reversed(h[:-1]), start=1):
                big_h = [(a + b) % p for a, b in zip_longest([0, 0] + big_h, big_h, fillvalue=0)]
                big_h[i] = (big_h[i] + c) % p
            if p == 2:
                irreducible = h[1] == 1
            else:
                poly = IntPoly(h)
                irreducible = pow(poly(2) * poly(-2), (p - 1) // 2, p) == p - 1
            out.extend((u, e) for u in ([big_h] if irreducible else _gf_split(big_h, d, p, rng)))
    return out


def factor_mod_p(f: IntPoly, p: int):
    """Complete factorization of f mod p into monic irreducibles.

    Returns [(IntPoly lift with coeffs in [0, p), multiplicity)] sorted by
    degree, then coefficients.  p must be prime (ValueError otherwise).  The
    random splits are seeded, so the result is deterministic.

    f mod p, made monic, is split into squarefree parts, and each part into
    irreducibles by distinct and equal degree.  When f mod p is palindromic
    of even degree 2m, as the unit part of every tower's J is, that work is
    done on its trace polynomial, of degree m, and each of its factors gives
    one or two factors of f (_gf_trace_factors).
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    fp = _gf_trim([c % p for c in f.coeffs])
    if not fp:
        raise ValueError("polynomial vanishes mod p")
    inv = pow(fp[-1], -1, p)
    fp, rng = [c * inv % p for c in fp], random.Random(0)
    if len(fp) % 2 and len(fp) > 1 and fp == fp[::-1]:
        out = [(IntPoly(u), mult) for u, mult in _gf_trace_factors(fp, p, rng)]
    else:
        out = [(IntPoly(u), mult) for g, mult in _gf_squarefree(fp, p)
               for u in _gf_irreducible_factors(g, p, rng)]
    out.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return out


# ---------------------------------------------------------------------------
# Integer factoring and multiplicative orders in F_p[t]/(g)
# ---------------------------------------------------------------------------


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


# Factorizations of p**f - 1 memoised per process: the residue fields of
# every tower at the primes of a report repeat the same few (p, f).
_FACTOR_MEMO_SIZE = 256


@lru_cache(maxsize=_FACTOR_MEMO_SIZE)
def _factor_p_power_minus_one(p: int, f: int) -> tuple:
    """((prime, exponent), ...) of p**f - 1, ascending, through its
    cyclotomic-value factors, then each part; memoised, so a tuple."""
    out = {}
    for d in range(1, f + 1):
        if f % d:
            continue
        part = cyclotomic_polynomial(d)(p)
        for q, e in _factor_integer(part).items():
            out[q] = out.get(q, 0) + e
    return tuple(sorted(out.items()))


def multiplicative_order(g: IntPoly, p: int) -> int:
    """Order of the class of t in F_p[t]/(g), for irreducible g with g(0) != 0.

    The order divides N = p**f - 1, f = deg(g).  When f is even and g is
    self-reciprocal (g = g*, its monic reciprocal), a root beta has 1/beta
    among its conjugates, so beta**(p**(f/2)) = 1/beta and the order divides
    N = p**(f/2) + 1 (Meyn, AAECC 1 (1990)).  For each prime power ell**e
    exactly dividing N, its ell-part is the least ell**k with
    (t**(N / ell**e))**(ell**k) = 1 (Cohen, GTM 138, Algorithm 1.4.3), and
    every t**(N / ell**e) is taken from one table of the squarings t**(2**i).
    The primes of N are those of the memoised factorization of p**f - 1,
    factored with a bounded effort; OrderUnavailable is raised past it.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    g = _gf_monic(g, p)
    f = len(g) - 1
    parts = _factor_p_power_minus_one(p, f)
    if f % 2 == 0 and _gf_reciprocal(g, p) == tuple(g):
        n = p ** (f // 2) + 1
        parts = [(ell, valuation(n, ell)) for ell, _ in parts if n % ell == 0]
    else:
        n = p ** f - 1
    ring = _ModRing(g, p)
    order = 1
    for (ell, e), y in zip(parts, ring.pows([0, 1], [n // ell ** e for ell, e in parts])):
        for _ in range(e):
            if y == [1]:
                break
            y = ring.pow(y, ell)
            order *= ell
        if y != [1]:
            raise ValueError(f"t**{n} != 1, so g is not irreducible mod p")
    return order


# ---------------------------------------------------------------------------
# Newton polygons
# ---------------------------------------------------------------------------


class NewtonPolygon(namedtuple("NewtonPolygon", "prime vertices segments")):
    """Lower hull of (i, ord_p(c_i)); slope-zero length counts p-adic unit roots.

    vertices: ((i, ord_p(c_i)), ...) on the lower hull.
    segments: ((rise, length), ...) of ints, one per hull edge, whose slope
    is rise / length.
    """

    __slots__ = ()

    @property
    def slope_zero_length(self) -> int:
        return sum(length for rise, length in self.segments if rise == 0)


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
    segments = tuple((y2 - y1, x2 - x1) for (x1, y1), (x2, y2) in zip(hull, hull[1:]))
    return NewtonPolygon(p, tuple(hull), segments)


# ---------------------------------------------------------------------------
# Unit root structure
# ---------------------------------------------------------------------------


class UnitFactor(namedtuple("UnitFactor", "poly multiplicity degree order s w",
                             defaults=(None, None))):
    """One irreducible residue factor g of the unit part of J mod p, with the
    Teichmueller constants of the roots beta over it: the saturation
    exponent s and w[r] = ord_p(beta**(p**r) - xi**(p**r)) for r = 0..s, xi
    the Teichmueller representative of beta.  s and w are None when the unit
    part is ramified.  order is None when the factoring budget was
    exceeded."""

    __slots__ = ()


class UnitRootStructure(namedtuple("UnitRootStructure", "prime mu unit_poly factors ramified")):
    """The unit roots of j at p.

    mu: content valuation of j at p.
    unit_poly: reduction mod p of j / p**mu with the t-power stripped.
    factors: one UnitFactor per irreducible factor of unit_poly.
    """

    __slots__ = ()

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
        return _ModRing(_gf_monic(factor.poly, self.prime), self.prime).pow([0, 1], n) == [1]


# Structures memoised per process.  The reports and laws of one tower read
# its structures at the same few primes (11 in a padic benchmark round), so
# 64 keep those of several towers at once while bounding what is held.
_MEMO_SIZE = 64


def unit_root_structure(j: IntPoly, p: int) -> UnitRootStructure:
    """Extract the slope-zero (unit root) part of j at p, factor its
    reduction, and give each factor its order and Teichmueller constants.

    p must be prime (ValueError otherwise).  The reduction of j / p**mu mod p
    equals t**s times the unit part's reduction; the stripped degree must
    match the Newton polygon's slope-zero length (VerificationMismatch
    otherwise).  Each factor's s and w are None when the unit part is
    ramified.  A root of unity among the roots makes some
    root-to-Teichmueller distance infinite, so its lift never settles: where
    a lift first fails to settle, at 2 digits, j is rejected (ValueError) if
    it vanishes at a root of unity, decided exactly; a lift that passes
    MAX_PRECISION raises PrecisionExhausted.  A ramified unit part is never
    lifted, so it is never tested.

    The last _MEMO_SIZE structures are memoised per (j's coefficients, p)
    and shared between calls; they are named tuples of ints and tuples, so
    nothing in them can change.  The checks and the errors come on every
    call, as an exception is never memoised.
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
    residue = factor_mod_p(lifted, p)
    ramified = any(mult > 1 for _, mult in residue)
    # each residue factor's order (None when unavailable) and earlier mate
    orders, mates = {}, {}
    for g, _ in residue:
        mate = _gf_reciprocal(g.coeffs, p) if symmetric else None
        if mate in orders:
            orders[g.coeffs], mates[g.coeffs] = orders[mate], mate
            continue
        try:
            orders[g.coeffs] = multiplicative_order(g, p)
        except OrderUnavailable:
            orders[g.coeffs] = None
    factors, seen = [], {}
    for g, mult in residue:
        mate = seen.get(mates.get(g.coeffs))
        if mate is not None:
            factor = mate._replace(poly=g, multiplicity=mult)
        else:
            s, w = (None, None) if ramified else _root_constants(p, g, j1, orders)
            factor = UnitFactor(g, mult, g.degree, orders[g.coeffs], s, w)
        factors.append(factor)
        seen[g.coeffs] = factor
    return UnitRootStructure(p, mu, lifted, tuple(factors), ramified)


def _gf_reciprocal(g, p: int) -> tuple:
    """The coefficients of the monic reciprocal t**deg(g) g(1/t) / g(0) mod p
    of g, given by its low-first coefficients."""
    inv = pow(g[0], -1, p)
    return tuple(c * inv % p for c in reversed(g))


# ---------------------------------------------------------------------------
# Teichmueller constants in unramified extensions of Z_p
# ---------------------------------------------------------------------------


def _root_constants(p: int, residue: IntPoly, j1: IntPoly, orders: dict) -> tuple:
    """(s, w) for the roots of j1 over the residue factor, in Z/p**K[t]/(g)
    for g the factor made monic (an unramified extension, so valuations are
    taken coordinatewise), read at K = 2 p-adic digits and again at twice the
    digits while some w[r] reaches K.  orders maps each residue factor to its
    order, None when unavailable.  A root of unity has an infinite distance,
    so a lift that does not settle at K = 2 raises ValueError if j1 vanishes
    at one, over any factor; past MAX_PRECISION, PrecisionExhausted."""
    g = _gf_monic(residue, p)
    f = len(g) - 1
    poly, dpoly = j1.coeffs, j1.derivative().coeffs

    def ord_minus_one(y, K):  # min ord_p over the coordinates of y - 1, K for 0
        return min([valuation(c, p) for c in _gf_sub(y, [1], p ** K) if c] + [K])

    # Coupled Newton iteration from the residue root: z follows 1/J1'(beta),
    # a unit because the unit part is squarefree mod p, so only its residue
    # is inverted, by extended Euclid in the field F_p[t]/(g).  Both are
    # exact to K // 2 digits on entry to precision K, so one step there
    # makes beta exact to K; z is refined only to go on.
    beta = _gf_divmod([0, 1], g, p)[1]
    z = _gf_inverse(_ModRing(g, p).at(dpoly, beta), g, p)
    K = 2
    while True:
        q = p ** K
        ring = _ModRing(g, q)
        beta = _gf_sub(beta, ring.mul(ring.at(poly, beta), z), q)
        if ring.at(poly, beta):
            raise VerificationMismatch("root lifting failed")
        # beta = xi * u with xi the Teichmueller representative, of the
        # residue order N of beta, and u = 1 mod p.  As N divides p**f - 1,
        # it is a p-adic unit, so ord(beta**(p**r) - xi**(p**r)) =
        # ord(u**(p**r) - 1) = ord(beta**(N * p**r) - 1), and xi itself is
        # never computed; p**f - 1 serves when N is unavailable.
        y = ring.pow(beta, orders[residue.coeffs] or p ** f - 1)
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
            return s, tuple(w)
        if K == 2 and _has_root_of_unity(j1, p, tuple(orders.items())):
            raise ValueError("polynomial vanishes at a root of unity")
        K *= 2
        if K > MAX_PRECISION:
            raise PrecisionExhausted(f"p-adic precision exceeded {MAX_PRECISION} digits")
        z = ring.mul(z, _gf_sub([2], ring.mul(ring.at(dpoly, beta), z), q))


@lru_cache(maxsize=1)  # every lift of one structure that does not settle asks the same
def _has_root_of_unity(j1: IntPoly, p: int, orders: tuple) -> bool:
    """Whether j1, with a squarefree unit part mod p whose factors g have the
    residue orders N in orders, pairs (g, N) with None where unavailable,
    vanishes at a root of unity.  Its order is k = N p**e, as its prime-to-p
    part reduces injectively onto a root of g, and phi(p**e) = 1, as Phi_k =
    Phi_N**phi(p**e) mod p: k = N, or 2N when p = 2.  Phi_k | j1 needs phi(k)
    <= deg j1, so N <= 2 deg(j1)**2, which bounds the known N tried and the
    d | p**deg(g) - 1 an unavailable N may be; Phi_k is monic."""
    deg = j1.degree
    bound = 2 * deg * deg
    candidates = {order for _, order in orders if order and order <= bound}
    for m in {p ** (len(g) - 1) - 1 for g, order in orders if order is None}:
        candidates.update(d for d in range(1, bound + 1) if m % d == 0)
    return any(euler_phi(d) <= deg and pseudo_rem(j1, cyclotomic_polynomial(k)).is_zero()
               for d in sorted(candidates) for k in ((d, 2 * d) if p == 2 else (d,)))


# ---------------------------------------------------------------------------
# The lambda / nu decomposition
# ---------------------------------------------------------------------------


def lambda_for_n(structure: UnitRootStructure, n: int) -> int:
    """Number of unit roots whose residue order divides n (with multiplicity):
    the polynomial-level count, to which a tower adds its shift e - 1."""
    return _layer_terms(structure, n)[0]


def ord_delta_exact(j: IntPoly, p: int, n: int) -> int:
    """ord_p of the Pierce-Lehmer value Res(j, t**n - 1) for a prime p, by exact division."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    delta = pierce_lehmer(j, n)
    if delta == 0:
        raise ValueError("Pierce-Lehmer value vanishes; j has a root of unity")
    return valuation(delta, p)


# Exact Pierce-Lehmer values memoised per process for nu_from_oracle: the
# laws of one tower read D_n at the same n for several primes, since D_n does
# not depend on the prime (a padic benchmark round reads about 90 values, a
# third of them distinct).
_DELTA_MEMO_SIZE = 128


@lru_cache(maxsize=_DELTA_MEMO_SIZE)
def _pierce_lehmer_memo(coeffs: tuple, n: int) -> int:
    return pierce_lehmer(IntPoly(coeffs), n)


def nu_from_oracle(j: IntPoly, p: int, n: int, mu: int, lambda_poly: int) -> int:
    """nu_{p,n}(j) from the exact valuation of the Pierce-Lehmer value.

    The last _DELTA_MEMO_SIZE values D_n are memoised per (j's coefficients,
    n); the MAX_BITS_ENV cap is checked on every call, a memoised value
    included, and the errors of ord_delta_exact come in its order."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    delta = _check_bits(_pierce_lehmer_memo(j.coeffs, n), _bit_cap())
    if delta == 0:
        raise ValueError("Pierce-Lehmer value vanishes; j has a root of unity")
    return valuation(delta, p) - mu * n - lambda_poly * valuation(n, p)


def nu_structural(structure: UnitRootStructure, n: int):
    """nu_{p,n}(j) from Teichmueller distances (an int), for the j the
    structure was built from; None when the unit part is ramified."""
    return _layer_terms(structure, n)[1]


def _layer_terms(structure: UnitRootStructure, n: int):
    """(lambda, nu) at n, deciding each residue order once: the count of
    lambda_for_n and the sum of the constants of nu_structural, the only
    place they are summed.  ValueError unless n >= 1."""
    if n < 1:
        raise ValueError("n must be positive")
    p, ramified = structure.prime, structure.ramified
    m = valuation(n, p) if n % p == 0 else 0
    lam = nu = 0
    for f in structure.factors:
        if structure.order_divides(f, n):
            lam += f.multiplicity * f.degree
            if not ramified:
                r = min(m, f.s)
                nu += f.degree * (f.w[r] - r)
    return lam, None if ramified else nu


# ---------------------------------------------------------------------------
# Tower-level report
# ---------------------------------------------------------------------------


class PerLayer(namedtuple("PerLayer", "lam nu ord source")):
    """(lambda, nu, ord_p(kappa(X_n))) of one layer; source is "structural"
    or "oracle"."""

    __slots__ = ()


class PadicReport(namedtuple("PadicReport", "prime mu c structure R per_n")):
    """The decomposition of ord_p(kappa(X_n)) along a tower.

    R: max s_p over unit roots; None when not structurally computable.
    per_n: n -> PerLayer.
    """

    __slots__ = ()


def _saturation(structure: UnitRootStructure):
    """max s_p over the unit roots (0 without any); None when ramified."""
    if structure.ramified:
        return None
    return max((f.s for f in structure.factors), default=0)


def padic_report(ta: TowerAnalysis, p: int, n_max: int, kappas=None) -> PadicReport:
    """Full decomposition of ord_p(kappa(X_n)) for n = 1..n_max.

    (lambda, nu) depend on n only through its residue class
    (gcd(n, L), min(ord_p(n), S)), L the lcm of the residue orders and S the
    largest saturation exponent (0 when ramified or without unit roots), so
    _layer_terms runs once per class.  An unknown order N_g is replaced in L
    by its multiple p**deg(g) - 1, which keeps the classes exact: N_g | n
    iff N_g | gcd(n, L).  Rows with equal fields share one PerLayer.  Every
    row is checked against the exact valuation of the tree count; a failure
    is a bug, not a data condition, hence VerificationMismatch.  kappas,
    when given, must hold at least the tree counts of layers 1..n_max.
    """
    if n_max < 1:
        raise ValueError("n_max must be positive")
    if kappas is not None and len(kappas) < n_max:
        raise ValueError(f"kappas holds {len(kappas)} layers, fewer than n_max = {n_max}")
    structure = unit_root_structure(ta.j_poly, p)
    mu, shift = structure.mu, ta.e - 1
    c = valuation(ta.kappa_base, p) - valuation(ta.delta1, p)
    if kappas is None:
        kappas = kappa_sequence(ta, n_max)
    period = lcm(*(f.order or p ** f.degree - 1 for f in structure.factors))
    R = _saturation(structure)
    cap = R or 0
    per_n, terms, rows = {}, {}, {}
    for n, kappa in zip(range(1, n_max + 1), kappas):
        ordn = valuation(n, p) if n % p == 0 else 0
        key = (gcd(n, period), ordn if ordn < cap else cap)
        class_terms = terms.get(key)
        if class_terms is None:
            lam_poly, nu = _layer_terms(structure, n)
            class_terms = terms[key] = (lam_poly + shift, nu)
        lam, nu = class_terms
        ord_kappa = valuation(kappa, p) if kappa % p == 0 else 0
        source = "structural"
        if nu is None:  # the oracle value follows from the tree-count formula itself
            nu, source = ord_kappa - mu * n - lam * ordn - c, "oracle"
        total = mu * n + lam * ordn + nu + c
        if total != ord_kappa:
            raise VerificationMismatch(f"decomposition failed at n={n}: {total} != {ord_kappa}")
        fields = (lam, nu, ord_kappa, source)
        row = rows.get(fields)
        if row is None:
            row = rows[fields] = PerLayer(*fields)
        per_n[n] = row
    return PadicReport(p, mu, c, structure, R, per_n)


# ---------------------------------------------------------------------------
# Iwasawa / Washington / Friedman laws for Pierce-Lehmer sequences
# ---------------------------------------------------------------------------


def _checked_nu(j: IntPoly, p: int, mu: int, lam: int, nu, layers, failure) -> int:
    """nu checked against nu_from_oracle at every n of layers, in order; a nu
    of None (a ramified unit part) is the exact value at the first layer.
    Raises failure(n) at the first layer that disagrees."""
    for n in layers:
        value = nu_from_oracle(j, p, n, mu, lam)
        if nu is None:
            nu = value
        elif value != nu:
            raise failure(n)
    return nu


def iwasawa_invariants(j: IntPoly, p: int):
    """(mu, lambda, nu, k0) with ord_p(D_{p**k}) = mu*p**k + lambda*k + nu for k >= k0.

    Residue orders are prime to p, so lambda = lambda_for_n(structure, 1)
    counts the unit roots congruent to 1 mod the maximal ideal.  When the unit
    part is unramified, k0 is the saturation exponent and nu is
    nu_structural at p**k0.  Otherwise nu is the exact value at k = s_max,
    checked by _checked_nu on the window k = s_max..s_max + 4, and k0 the
    least k from which the exact values stay equal to it.
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
    nu = _checked_nu(j, p, mu, lam, None, [p ** k for k in range(s_max, s_max + 5)],
                     lambda n: PrecisionExhausted("Iwasawa residues did not stabilize in the window"))
    k0 = s_max
    while k0 > 0 and nu_from_oracle(j, p, p ** (k0 - 1), mu, lam) == nu:
        k0 -= 1
    return mu, lam, nu, k0


def washington_invariants(j: IntPoly, p: int, ell: int):
    """(mu, nu, k0) with ord_p(D_{ell**k}) = mu*ell**k + nu for k >= k0, ell a prime != p.

    k0 is the largest ord_ell of a residue order; nu is nu_structural at
    ell**k0 (ramified: the exact value there), checked by _checked_nu at k0,
    k0 + 1 and k0 + 2.
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
    nu = _checked_nu(j, p, mu, 0, nu_structural(structure, ell ** k0),
                     [ell ** k for k in range(k0, k0 + 3)],
                     lambda n: VerificationMismatch("Washington law failed its exact verification"))
    return mu, nu, k0


class SequenceClass(namedtuple("SequenceClass", "orders r lam nu")):
    """One congruence class of layers with constant (lambda, nu).

    orders: subset of the distinct residue orders, sorted.
    r: capped ord_p(n); r == R means ord_p(n) >= R.
    """

    __slots__ = ()


def sequence_classes(ta: TowerAnalysis, p: int, n_max: int = 200, kappas=None):
    """Partition n <= n_max into divisibility classes with constant (lambda, nu).

    The reported nu absorbs c_p, so within each class
    ord_p(kappa(X_n)) = mu*n + lam*ord_p(n) + nu holds exactly; this is
    checked on every n <= n_max.  The layers are grouped once, by (the
    orders dividing n, ord_p(n)), and each group must be constant.  The
    groups of one set of orders run over ord_p(n) = 0..top, so R is 1 + the
    largest ord_p(n) whose group differs from the group at top (0 when none
    does): the least cap under which every class is constant.
    """
    report = padic_report(ta, p, n_max, kappas=kappas)
    structure = report.structure
    if any(f.order is None for f in structure.factors):
        raise OrderUnavailable("sequence classes need every residue order")
    order_set = sorted({f.order for f in structure.factors})
    groups = {}
    for n in range(1, n_max + 1):
        ordn = valuation(n, p) if n % p == 0 else 0
        row = report.per_n[n]
        terms = (row.lam, row.ord - report.mu * n - row.lam * ordn)
        if groups.setdefault((tuple(N for N in order_set if n % N == 0), ordn), terms) != terms:
            raise VerificationMismatch("no saturation exponent explains the data")
    top = dict(sorted(groups))  # set of orders -> its largest ord_p(n), which sorts last
    R = 1 + max((r for (subset, r), terms in groups.items() if terms != groups[subset, top[subset]]),
                default=-1)
    if report.R is not None and R > report.R:
        raise VerificationMismatch("the structural saturation bound does not explain the data")
    classes = {(subset, min(r, R)): terms for (subset, r), terms in groups.items()}
    return [SequenceClass(subset, r, lam, nu) for (subset, r), (lam, nu) in sorted(classes.items())]


def _smooth_over(n: int, primes) -> bool:
    for ell in primes:
        while n % ell == 0:
            n //= ell
    return n == 1


class FriedmanLaw(namedtuple("FriedmanLaw", "prime mu lam nu min_exponents")):
    """The affine valuation law of friedman_laws at one prime.

    lam: 0 for the outside prime.
    min_exponents: per-generator exponent thresholds.
    """

    __slots__ = ()


def friedman_laws(j: IntPoly, p: int, primes, bound: int = 10_000):
    """Affine valuation laws on the semigroup generated by the given primes.

    For n = prod ell_i**k_i with every k_i past its threshold,
    ord_{ell_j}(D_n) = mu_{ell_j} * n + lam_j * k_j + nu_j, and for the
    outside prime p the lam term is absent.  At the least qualifying n0, lam is
    lambda_for_n and nu is nu_structural (ramified: the exact value at the
    least qualifying element up to the bound).  _checked_nu checks each law
    on all qualifying semigroup elements up to the bound; ValueError when
    there is none.
    """
    primes = tuple(primes)
    if len(set(primes)) != len(primes):
        raise ValueError("generator primes must be distinct")
    if p in primes:
        raise ValueError("the outside prime must not be a generator")
    for ell in primes:
        if not is_prime(ell):
            raise ValueError(f"{ell} is not prime")
    elements = _semigroup_elements(primes, bound)

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
        if with_lambda and not structure.ramified:
            n0 *= observer ** max((f.s for f in chosen), default=0)
        thresholds = tuple(valuation(n0, ell) for ell in primes)
        lam = lambda_for_n(structure, n0) if with_lambda else 0
        layers = [n for n, exps in elements if all(k >= t for k, t in zip(exps, thresholds))]
        if not layers:
            raise ValueError(f"no qualifying semigroup element below the bound {bound}")
        nu = _checked_nu(j, observer, mu, lam, nu_structural(structure, n0), layers,
                         lambda n: AssertionError(f"Friedman law failed at n={n} for prime {observer}"))
        return FriedmanLaw(observer, mu, lam, nu, thresholds)

    laws = {ell: law_for(ell, True) for ell in primes}
    laws[p] = law_for(p, False)
    return laws


def _semigroup_elements(primes, bound):
    """All (n, exponent vector) with n <= bound in the generated semigroup;
    none below 1, where not even the empty product lies."""
    out = [(1, ())] if bound >= 1 else []
    for ell in primes:
        # ell**k <= bound // n needs k < (bound // n).bit_length()
        out = [(n * ell ** k, exps + (k,)) for n, exps in out
               for k in range((bound // n).bit_length()) if n * ell ** k <= bound]
    return sorted(out)
