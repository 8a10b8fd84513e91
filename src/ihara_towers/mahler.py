"""Archimedean and p-adic Mahler measures and the tower growth laws.

The Archimedean measure |lead| * prod max(1, |root|) is a floating-point
quantity found by simultaneous root iteration.  Everything that gates a
theorem (does the polynomial vanish on the unit circle?) is decided exactly,
by Sturm counts over the integers, never by float proximity.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass

from sympy import isprime

from .errors import TowerError, VerificationMismatch
from .ihara import TowerAnalysis
from .padic_engine import content_valuation, newton_polygon, valuation
from .polyring import IntPoly, divide_exact, poly_gcd, pseudo_rem, squarefree_part


# ---------------------------------------------------------------------------
# p-adic measure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PadicMeasure:
    """M_p = p**(-exponent); the exponent is the content valuation at p."""

    prime: int
    exponent: int

    @property
    def value(self) -> float:
        return float(self.prime) ** (-self.exponent)

    @property
    def log_value(self) -> float:
        return -self.exponent * math.log(self.prime)


def mahler_padic(f: IntPoly, p: int) -> PadicMeasure:
    """Largest p-adic absolute value of the coefficients, as an exact exponent."""
    if f.is_zero():
        raise ValueError("zero polynomial")
    if not isprime(p):
        raise ValueError(f"{p} is not prime")
    return PadicMeasure(p, content_valuation(f, p))


# ---------------------------------------------------------------------------
# Archimedean measure via simultaneous root iteration
# ---------------------------------------------------------------------------


def _strip_trivial_roots(f: IntPoly):
    """(g, m): f with its power of t and its roots at +-1 divided out, and m
    the number of roots at +-1 removed, with multiplicity."""
    k = 0
    while f.coeffs[k] == 0:
        k += 1
    work = IntPoly(f.coeffs[k:])
    count = 0
    for root in (1, -1):
        linear = IntPoly((-root, 1))
        while work.degree > 0 and work(root) == 0:
            work = divide_exact(work, linear)
            count += 1
    return work, count


def _aberth_roots(coeffs, tol: float, rng: random.Random, max_restarts: int = 10):
    """All complex roots of sum coeffs[i] * t**i by Aberth-Ehrlich iteration.

    Initial points sit on a circle of radius the Cauchy bound with a random
    angular perturbation; on stagnation the circle is rescaled and the
    iteration restarts.
    """
    d = len(coeffs) - 1
    lead = coeffs[-1]
    monic = [c / lead for c in coeffs]
    radius = 1.0 + max(abs(c) for c in monic[:-1]) if d > 0 else 1.0
    deriv = [i * c for i, c in enumerate(monic)][1:]
    scale_terms = [abs(c) for c in monic]

    def residual_ok(z):
        val = 0j
        for c in reversed(monic):
            val = val * z + c
        bound = 0.0
        zi = 1.0
        az = abs(z)
        for a in scale_terms:
            bound += a * zi
            zi *= az
        return abs(val) <= tol * max(bound, 1e-300)

    for restart in range(max_restarts):
        r = radius * (1.0 + 0.5 * restart)
        zs = [
            r * cmath.exp(2j * math.pi * (k + rng.random() * 0.5) / d)
            for k in range(d)
        ]
        for _ in range(400):
            moved = 0.0
            for i in range(d):
                z = zs[i]
                pv = 0j
                for c in reversed(monic):
                    pv = pv * z + c
                dv = 0j
                for c in reversed(deriv):
                    dv = dv * z + c
                if pv == 0:
                    continue
                if dv == 0:
                    zs[i] = z + (0.1 + 0.1j)
                    moved = math.inf
                    continue
                w = pv / dv
                s = 0j
                for k in range(d):
                    if k != i:
                        diff = z - zs[k]
                        if diff == 0:
                            diff = 1e-12
                        s += 1.0 / diff
                denom = 1.0 - w * s
                if denom == 0:
                    continue
                step = w / denom
                zs[i] = z - step
                moved = max(moved, abs(step) / max(1.0, abs(z)))
            if moved < 1e-15:
                break
        if all(residual_ok(z) for z in zs):
            return zs
    raise TowerError("root iteration did not converge within the restart budget")


@dataclass(frozen=True)
class ArchMeasure:
    value: float
    log_value: float
    certified_no_unit_roots: bool


def mahler_archimedean(f: IntPoly, tol: float = 1e-12, seed: int = 0) -> ArchMeasure:
    """|lead| * prod max(1, |root|) over the complex roots of f.

    Roots at 0 and +-1 are removed by exact division first (they contribute
    a factor of 1); the certified flag comes from the exact unit-circle
    count, not from the float roots.
    """
    if f.is_zero():
        raise ValueError("zero polynomial")
    certified = count_unit_circle_roots(f) == 0
    work, _ = _strip_trivial_roots(f)
    log_value = math.log(abs(work.lead))
    if work.degree > 0:
        roots = _aberth_roots([float(c) for c in work.coeffs], tol, random.Random(seed))
        for z in roots:
            a = abs(z)
            if a > 1.0:
                log_value += math.log(a)
    return ArchMeasure(math.exp(log_value), log_value, certified)


# ---------------------------------------------------------------------------
# Exact unit-circle root counting
# ---------------------------------------------------------------------------


def _reversed_poly(f: IntPoly) -> IntPoly:
    return IntPoly(tuple(reversed(f.coeffs)))


def _pair_substitution(h: IntPoly) -> IntPoly:
    """q with h(t) = t**m q(t + 1/t), for palindromic h of even degree 2m.

    Uses p_k(x) = t**k + t**-k with p_0 = 2, p_1 = x and
    p_k = x*p_{k-1} - p_{k-2}.
    """
    d = h.degree
    if d % 2 or h.coeffs != tuple(reversed(h.coeffs)):
        raise VerificationMismatch("the substitution x = t + 1/t needs an even palindrome")
    m = d // 2
    q = IntPoly((h.coeffs[m],))
    pk_prev = IntPoly((2,))
    pk = IntPoly((0, 1))
    x = IntPoly((0, 1))
    for k in range(1, m + 1):
        q = q + h.coeffs[m + k] * pk
        pk_prev, pk = pk, x * pk - pk_prev
    return q


def _sturm_count_open(q: IntPoly, a: int, b: int) -> int:
    """Distinct real roots of q in the open interval (a, b); q(a), q(b) != 0.

    The chain is built from primitive pseudo-remainders, signed so that each
    member is a positive multiple of the classical Sturm chain's member:
    prem(f, g) = lead(g)**(deg f - deg g + 1) * rem(f, g), whose scalar is
    negative exactly when lead(g) < 0 and deg f - deg g is even.
    """
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

    if q(a) == 0 or q(b) == 0:
        raise ValueError("Sturm endpoints must not be roots")
    return variations(a) - variations(b)


def count_unit_circle_roots(f: IntPoly) -> int:
    """Number of roots of f on the complex unit circle, with multiplicity, exactly.

    Roots at +-1 are split off by exact division.  The remaining unit-circle
    roots are shared with the reciprocal polynomial, so they live in
    gcd(f, f*); that gcd is palindromic and the substitution x = t + 1/t
    turns the question into counting real roots in (-2, 2), which Sturm
    sequences answer exactly.  Multiplicities are recovered through the
    gcd-with-derivative chain.
    """
    if f.is_zero():
        raise ValueError("zero polynomial")
    work, count = _strip_trivial_roots(f)
    if work.degree <= 0:
        return count
    g = poly_gcd(work, _reversed_poly(work))
    while g.degree > 0:
        sf = squarefree_part(g)
        if sf.coeffs != tuple(reversed(sf.coeffs)):
            raise VerificationMismatch("the unit-root gcd is not palindromic")
        count += 2 * _sturm_count_open(_pair_substitution(sf), -2, 2)
        g = poly_gcd(g, g.derivative())
    return count


# ---------------------------------------------------------------------------
# Growth laws along the tower
# ---------------------------------------------------------------------------


def log_big(n: int) -> float:
    """Natural log of a positive integer too large for float conversion."""
    if n <= 0:
        raise ValueError("log of a nonpositive integer")
    shift = max(0, n.bit_length() - 900)
    return math.log(n >> shift) + shift * math.log(2)


@dataclass(frozen=True)
class ArchAsymptotic:
    """kappa(X_n) ~ n**poly_order * exp(constant) * exp(rate)**n when applicable."""

    rate: float
    poly_order: int
    constant: float
    applicable: bool

    def predicted_log_kappa(self, n: int) -> float:
        return n * self.rate + self.poly_order * math.log(n) + self.constant


def archimedean_asymptotic(ta: TowerAnalysis, tol: float = 1e-12,
                           seed: int = 0) -> ArchAsymptotic:
    """Exponential growth data of the tree counts; gated by the exact
    unit-circle root count of J (the (t-1)**e factor has measure 1)."""
    measure = mahler_archimedean(ta.j_poly, tol=tol, seed=seed)
    constant = log_big(ta.kappa_base) - log_big(abs(ta.delta1))
    return ArchAsymptotic(
        rate=measure.log_value,
        poly_order=ta.e - 1,
        constant=constant,
        applicable=measure.certified_no_unit_roots,
    )


@dataclass(frozen=True)
class PadicAsymptotic:
    """ord_p(kappa(X_n)) = mu*n + poly_order*ord_p(n) + c when applicable."""

    prime: int
    mu: int
    poly_order: int
    c: int
    applicable: bool

    def predicted_ord(self, n: int) -> int:
        return self.mu * n + self.poly_order * (valuation(n, self.prime) if n % self.prime == 0 else 0) + self.c


def padic_asymptotic_no_unit_roots(ta: TowerAnalysis, p: int) -> PadicAsymptotic:
    """The exact affine p-adic law, applicable iff J has no p-adic unit root.

    The gate is the Newton polygon of J at p: no slope-zero segment means no
    root of absolute value one, decided exactly.
    """
    if not isprime(p):
        raise ValueError(f"{p} is not prime")
    polygon = newton_polygon(ta.j_poly, p)
    applicable = polygon.slope_zero_length == 0
    mu = mahler_padic(ta.j_poly, p).exponent
    c = valuation(ta.kappa_base, p) - valuation(ta.delta1, p)
    return PadicAsymptotic(p, mu, ta.e - 1, c, applicable)
