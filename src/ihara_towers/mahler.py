"""Archimedean and p-adic Mahler measures and the tower growth laws.

The Archimedean measure |lead| * prod max(1, |root|) is a floating-point
quantity found by simultaneous root iteration; it counts no unit-circle
roots, as the J of a tower has none.  For |t| = 1 the Ihara matrix D - A(t)
is the connection Laplacian of the voltage assignment (Forman, Topology 32
(1993); Kenyon, Ann. Probab. 39 (2011)), singular only when t**N = 1, N the
monodromy index of the connected base, and analyze requires N = 1 and
J(1) != 0.  count_unit_circle_roots stays the library's exact count of
unit-circle roots of any polynomial, the package's one user of Sturm chains.
The p-adic measure is the content valuation at a prime that primes.is_prime
checks, so nothing here imports sympy.  The p-adic helpers are imported in the functions that use
them: the Archimedean laws load neither primes nor the p-adic engine, and
the p-adic measure loads only primes.
The Archimedean measure is a function of J alone: the root iteration draws
its start points from random.Random(0), and the last 256 measures are
memoised per process by J's coefficients, as analyze and asymptotics of one
tower ask for the same J.
"""

from __future__ import annotations

import cmath
import math
import random
from collections import namedtuple
from functools import lru_cache

from .errors import TowerError, VerificationMismatch
from .ihara import TowerAnalysis
from .polyring import (IntPoly, _strip_trivial_roots, _sturm_count_open, _trace_polynomial,
                       poly_gcd)


# ---------------------------------------------------------------------------
# p-adic measure
# ---------------------------------------------------------------------------


class PadicMeasure(namedtuple("PadicMeasure", "prime exponent")):
    """M_p = p**(-exponent); the exponent is the content valuation at p."""

    __slots__ = ()

    @property
    def value(self) -> float:
        return float(self.prime) ** (-self.exponent)


def mahler_padic(f: IntPoly, p: int) -> PadicMeasure:
    """Largest p-adic absolute value of the coefficients, as an exact exponent."""
    if f.is_zero():
        raise ValueError("zero polynomial")
    from .primes import content_valuation, is_prime

    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return PadicMeasure(p, content_valuation(f, p))


# ---------------------------------------------------------------------------
# Archimedean measure via simultaneous root iteration
# ---------------------------------------------------------------------------


_ROOT_TOL = 1e-12  # relative residual that every Aberth root must meet
_MAX_RESTARTS = 10  # restarts of the Aberth iteration, each on a wider circle


def _aberth_roots(coeffs, tol: float, rng: random.Random):
    """All complex roots of sum coeffs[i] * t**i by Aberth-Ehrlich iteration.

    Initial points sit on a circle of radius the Cauchy bound with a random
    angular perturbation.  Each sweep moves every root in turn by its Aberth
    correction; the sweeps stop after 400, or once the largest step relative
    to max(1, |root|) falls below 1e-15.  Then every root must meet the
    relative residual test; if one misses it, the iteration restarts from a
    circle 1.5, 2, 2.5... times as wide, with fresh random angles, and
    after _MAX_RESTARTS starts it raises TowerError.

    p and p' are evaluated in one Horner pass over pairs of coefficients
    built as complex numbers, so each step is one complex product and one
    complex sum: the operations of a float coefficient on CPython 3.10-3.13,
    where complex + float adds 0.0 to the imaginary part.  The pass for p
    starts at its lead 1 + 0j, which is 0j * z + 1.0 exactly for a finite z;
    at a non-finite z, p' holds a NaN, so the step is NaN either way.  The
    Aberth sum runs over the other roots with no index test; a zero
    difference, the one case in which complex division raises
    ZeroDivisionError, counts as 1e-12.  The largest step is kept by
    comparisons that skip a NaN step, as max() does.  tests/corpus.py keeps
    a straightforward form of this loop as a reference, and a test requires
    both to return the same root lists bit for bit, which pins every float
    operation and its order.
    """
    d = len(coeffs) - 1
    lead = coeffs[-1]
    monic = [c / lead for c in coeffs]
    radius = 1.0 + max(abs(c) for c in monic[:-1]) if d > 0 else 1.0
    deriv = [i * c for i, c in enumerate(monic)][1:]
    scale_terms = [abs(c) for c in monic]
    top = complex(monic[-1])
    # (monic[j], deriv[j]) for j = d - 1 down to 0: a Horner step of p and of p'
    pairs = [(complex(monic[j]), complex(deriv[j])) for j in reversed(range(d))]

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

    for restart in range(_MAX_RESTARTS):
        r = radius * (1.0 + 0.5 * restart)
        zs = [
            r * cmath.exp(2j * math.pi * (k + rng.random() * 0.5) / d)
            for k in range(d)
        ]
        for _ in range(400):
            moved = 0.0
            for i in range(d):
                z = zs[i]
                pv = top
                dv = 0j
                for c, e in pairs:
                    pv = pv * z + c
                    dv = dv * z + e
                if pv == 0:
                    continue
                if dv == 0:
                    zs[i] = z + (0.1 + 0.1j)
                    moved = math.inf
                    continue
                w = pv / dv
                s = 0j
                for zk in zs[:i] + zs[i + 1:]:
                    try:
                        s += 1.0 / (z - zk)
                    except ZeroDivisionError:  # two coincident roots
                        s += 1.0 / 1e-12
                denom = 1.0 - w * s
                if denom == 0:
                    continue
                step = w / denom
                zs[i] = z - step
                az = abs(z)
                rel = abs(step) / (az if az > 1.0 else 1.0)
                if rel > moved:
                    moved = rel
            if moved < 1e-15:
                break
        if all(residual_ok(z) for z in zs):
            return zs
    raise TowerError("root iteration did not converge within the restart budget")


class ArchMeasure(namedtuple("ArchMeasure", "value log_value")):
    """The Archimedean measure and its natural log."""

    __slots__ = ()


def mahler_archimedean(f: IntPoly) -> ArchMeasure:
    """|lead| * prod max(1, |root|) over the complex roots of f.

    Roots at 0 and +-1 are removed by exact division first (they contribute
    a factor of 1).  It builds no Sturm chain: the J of a tower (connected
    base, monodromy index 1, J(1) != 0) has no unit-circle root, as D - A(t)
    at |t| = 1 is a connection Laplacian singular only at t = 1 (Forman
    1993; Kenyon 2011), and count_unit_circle_roots counts them for any f.
    The iteration draws from random.Random(0), so the measure depends on f
    alone.  The last _ARCH_MEMO_SIZE measures are memoised per f's
    coefficients; an exception is never memoised, so a root iteration that
    fails fails again on every call.
    """
    if f.is_zero():
        raise ValueError("zero polynomial")
    return _mahler_archimedean(f.coeffs)


# ArchMeasure is a named tuple of numbers, so a memoised value that every
# caller shares cannot change.
_ARCH_MEMO_SIZE = 256


@lru_cache(maxsize=_ARCH_MEMO_SIZE)
def _mahler_archimedean(coeffs: tuple) -> ArchMeasure:
    f = IntPoly(coeffs)
    work = _strip_trivial_roots(f)[0]
    log_value = math.log(abs(work.lead))
    if work.degree > 0:
        roots = _aberth_roots([float(c) for c in work.coeffs], _ROOT_TOL, random.Random(0))
        for z in roots:
            a = abs(z)
            if a > 1.0:
                log_value += math.log(a)
    return ArchMeasure(math.exp(log_value), log_value)


def count_unit_circle_roots(f: IntPoly) -> int:
    """Number of roots of f on the complex unit circle, with multiplicity, exactly.

    The roots at +-1 are split off by exact division.  The others pair as
    beta, 1/beta, so they live in g = gcd(work, work*), palindromic of degree
    2m, and each pair is a root in (-2, 2) of its trace polynomial K, of the
    same multiplicity, as g has no root at +-1.  One walk counts them: a Sturm
    chain counts the distinct roots of K, and its last member, a multiple of
    gcd(K, K'), is the next K, until it is constant.  Nothing is memoised.
    """
    if f.is_zero():
        raise ValueError("zero polynomial")
    work, count = _strip_trivial_roots(f)
    g = poly_gcd(work, IntPoly(work.coeffs[::-1]))
    if g.degree % 2 or g.coeffs != g.coeffs[::-1]:
        raise VerificationMismatch("the unit-root gcd is not palindromic")
    k = IntPoly(_trace_polynomial(g.coeffs))
    while k.degree > 0:
        pairs, k = _sturm_count_open(k, -2, 2)
        count += 2 * pairs
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


class ArchAsymptotic(namedtuple("ArchAsymptotic", "rate poly_order constant")):
    """kappa(X_n) ~ n**poly_order * exp(constant) * exp(rate)**n."""

    __slots__ = ()

    def predicted_log_kappa(self, n: int) -> float:
        return n * self.rate + self.poly_order * math.log(n) + self.constant


def archimedean_asymptotic(ta: TowerAnalysis) -> ArchAsymptotic:
    """Exponential growth data of the tree counts (the (t-1)**e factor has
    measure 1).  It always applies: J has no unit-circle root, as a
    TowerAnalysis has a connected base, monodromy index 1 and J(1) != 0
    (Forman 1993; Kenyon 2011; see the module docstring)."""
    measure = mahler_archimedean(ta.j_poly)
    constant = log_big(ta.kappa_base) - log_big(abs(ta.delta1))
    return ArchAsymptotic(rate=measure.log_value, poly_order=ta.e - 1, constant=constant)


class PadicAsymptotic(namedtuple("PadicAsymptotic", "prime mu poly_order c applicable")):
    """ord_p(kappa(X_n)) = mu*n + poly_order*ord_p(n) + c when applicable."""

    __slots__ = ()

    def predicted_ord(self, n: int) -> int:
        from .primes import valuation

        return self.mu * n + self.poly_order * (valuation(n, self.prime) if n % self.prime == 0 else 0) + self.c


def padic_asymptotic_no_unit_roots(ta: TowerAnalysis, p: int) -> PadicAsymptotic:
    """The exact affine p-adic law, applicable iff J has no p-adic unit root.

    The gate is the Newton polygon of J at p: no slope-zero segment means no
    root of absolute value one, decided exactly.
    """
    from .padic_engine import newton_polygon
    from .primes import is_prime, valuation

    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    polygon = newton_polygon(ta.j_poly, p)
    applicable = polygon.slope_zero_length == 0
    mu = mahler_padic(ta.j_poly, p).exponent
    c = valuation(ta.kappa_base, p) - valuation(ta.delta1, p)
    return PadicAsymptotic(p, mu, ta.e - 1, c, applicable)
