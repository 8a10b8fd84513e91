"""p-adic valuation machinery for Pierce-Lehmer sequences and tree counts.

The decomposition implemented here writes, for every n,

    ord_p(kappa(X_n)) = mu_p * n + lambda_{p,n} * ord_p(n) + nu_{p,n} + c_p

with mu_p the content valuation of J, lambda_{p,n} counting p-adic unit
roots of J whose residue order divides n (shifted by e - 1 at tower level),
c_p = ord_p(kappa(X)) - ord_p(D_1), and nu_{p,n} a finite-image correction.

All data of J at p lives in one UnitRootStructure, built by
unit_root_structure(j, p): mu, the residue factors of the unit part with
their orders, and each factor's Teichmueller constants.

nu has two computation paths by design.  The oracle path inverts the
identity using the exact integer valuation of the Pierce-Lehmer value and is
always available.  The structural path reads each root's distance to its
Teichmueller representative from the structure's constants; they exist only
when the unit part of J is squarefree mod p, and they are differentially
checked against the oracle wherever they apply.  The constants are computed
in an unramified extension at a working precision that starts at
DEFAULT_PRECISION p-adic digits and doubles until every distance is exact;
past MAX_PRECISION, PrecisionExhausted is raised.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from sympy import factorint, isprime
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_factor, gf_from_int_poly, gf_gcdex, gf_pow_mod

from .errors import OrderUnavailable, PrecisionExhausted, VerificationMismatch
from .ihara import TowerAnalysis, kappa_sequence, pierce_lehmer
from .polyring import IntPoly, cyclotomic_polynomial, vanishes_at_root_of_unity

DEFAULT_PRECISION = 32
MAX_PRECISION = 512

# Bit sizes above which integer factoring is not attempted; orders degrade
# to "unavailable" and divisibility queries fall back to direct powering.
_FACTOR_BIT_LIMIT = 64
_TRIAL_LIMIT = 100_000


def valuation(n: int, p: int) -> int:
    """ord_p(n) for a nonzero integer n."""
    if n == 0:
        raise ValueError("valuation of zero is infinite")
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
# Arithmetic in F_p[t], by sympy's galoistools
# ---------------------------------------------------------------------------
# galoistools lists start at the leading coefficient, IntPoly coeffs at t**0.


def _to_gf(f: IntPoly, p: int) -> list:
    """f mod p as a galoistools list with entries in [0, p)."""
    return gf_from_int_poly(f.coeffs[::-1], p)


def _t_power_is_one(n: int, g: list, p: int) -> bool:
    """Whether t**n = 1 in F_p[t]/(g)."""
    return gf_pow_mod([1, 0], n, g, p, ZZ) == [1]


def factor_mod_p(f: IntPoly, p: int):
    """Complete factorization of f mod p into monic irreducibles.

    Returns [(IntPoly lift with coeffs in [0, p), multiplicity)] sorted by
    degree, then coefficients.
    """
    fp = _to_gf(f, p)
    if not fp:
        raise ValueError("polynomial vanishes mod p")
    _, factors = gf_factor(fp, p, ZZ)
    out = [(IntPoly(g[::-1]), mult) for g, mult in factors]
    out.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return out


# ---------------------------------------------------------------------------
# Multiplicative orders in F_p[t]/(g)
# ---------------------------------------------------------------------------


def _factor_integer(m: int) -> dict:
    """Prime factorization with a hard effort bound; OrderUnavailable beyond it."""
    out = {}
    partial = factorint(m, limit=_TRIAL_LIMIT)
    for q, e in partial.items():
        q = int(q)
        if isprime(q):
            out[q] = out.get(q, 0) + e
        elif q.bit_length() <= _FACTOR_BIT_LIMIT:
            for q2, e2 in factorint(q).items():
                out[int(q2)] = out.get(int(q2), 0) + e2 * e
        else:
            raise OrderUnavailable(f"cannot factor {q} within the effort bound")
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

    Divides p**deg(g) - 1, whose factorization is attempted with a bounded
    effort; OrderUnavailable is raised if the bound is exceeded.
    """
    gp = _to_gf(g, p)
    if not gp or gp[-1] == 0:
        raise ValueError("t must be a unit modulo g")
    f = len(gp) - 1
    order = p ** f - 1
    for q in _factor_p_power_minus_one(p, f):
        while order % q == 0:
            if _t_power_is_one(order // q, gp, p):
                order //= q
            else:
                break
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


@dataclass(frozen=True)
class UnitRootStructure:
    prime: int
    mu: int  # content valuation of j at p
    unit_poly: IntPoly  # reduction mod p of j / p**mu with the t-power stripped
    factors: tuple
    ramified: bool
    constants: dict  # factor -> _RootConstants; None when ramified

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
        return _t_power_is_one(n, _to_gf(factor.poly, self.prime), self.prime)


def unit_root_structure(j: IntPoly, p: int) -> UnitRootStructure:
    """Extract the slope-zero (unit root) part of j at p, factor its
    reduction, and compute each factor's Teichmueller constants.

    The reduction of j / p**mu mod p equals t**s times the unit part's
    reduction; the stripped degree must match the Newton polygon's
    slope-zero length (VerificationMismatch otherwise).  The constants are
    None when the unit part is ramified.  A root of unity among the roots
    would make some root-to-Teichmueller distance infinite, so when there
    are unit roots to measure that input is rejected (ValueError); a
    distance still ambiguous at MAX_PRECISION raises PrecisionExhausted.
    """
    if j.is_zero():
        raise ValueError("zero polynomial")
    mu = content_valuation(j, p)
    j1 = IntPoly([c // p ** mu for c in j.coeffs])
    red = [c % p for c in j1.coeffs]
    s = 0
    while red[s] == 0:
        s += 1
    lifted = IntPoly(red[s:])
    if lifted.degree != newton_polygon(j, p).slope_zero_length:
        raise VerificationMismatch("unit part degree disagrees with the Newton polygon")
    factors = []
    for g, mult in factor_mod_p(lifted, p):
        try:
            order = multiplicative_order(g, p)
        except OrderUnavailable:
            order = None
        factors.append(UnitFactor(g, mult, g.degree, order))
    ramified = any(f.multiplicity > 1 for f in factors)
    constants = None
    if not ramified:
        if factors and vanishes_at_root_of_unity(j):
            raise ValueError("polynomial vanishes at a root of unity")
        K = DEFAULT_PRECISION
        while constants is None:
            try:
                constants = {f: _root_constants_at(p, f, K, j1) for f in factors}
            except _NeedMorePrecision:
                K *= 2
                if K > MAX_PRECISION:
                    raise PrecisionExhausted(
                        f"p-adic precision exceeded {MAX_PRECISION} digits"
                    )
    return UnitRootStructure(p, mu, lifted, tuple(factors), ramified, constants)


# ---------------------------------------------------------------------------
# Unramified extensions of Z_p at finite precision
# ---------------------------------------------------------------------------


class _Zq:
    """Z_p[x]/(G, p**K) for a monic lift G of an irreducible polynomial mod p.

    Any monic lift generates the unramified extension of degree deg G, so
    elements have integer valuations computed coordinatewise.  Elements are
    tuples of ints in [0, p**K).
    """

    def __init__(self, p: int, K: int, modulus: IntPoly):
        self.p = p
        self.K = K
        self.q = p ** K
        self.f = modulus.degree
        self.modulus = tuple(c % self.q for c in modulus.coeffs)
        if modulus.lead != 1:
            raise VerificationMismatch("the extension modulus is not monic")

    def element(self, coords) -> tuple:
        coords = [c % self.q for c in coords]
        coords += [0] * (self.f - len(coords))
        return tuple(coords[: self.f])

    def add(self, a, b):
        q = self.q
        return tuple((u + v) % q for u, v in zip(a, b))

    def sub(self, a, b):
        q = self.q
        return tuple((u - v) % q for u, v in zip(a, b))

    def mul(self, a, b):
        q = self.q
        f = self.f
        out = [0] * (2 * f - 1)
        for i, u in enumerate(a):
            if u:
                for j, v in enumerate(b):
                    out[i + j] = (out[i + j] + u * v) % q
        # reduce by the monic modulus
        mod = self.modulus
        for i in range(2 * f - 2, f - 1, -1):
            c = out[i]
            if c:
                out[i] = 0
                for j in range(f):
                    out[i - f + j] = (out[i - f + j] - c * mod[j]) % q
        return tuple(out[:f])

    def pow(self, a, e: int):
        result = self.element([1])
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            e >>= 1
            if e:
                base = self.mul(base, base)
        return result

    def inv(self, a):
        """Inverse of a unit, by lifting the residue inverse p-adically."""
        p = self.p
        # extended Euclid in F_p[t]: s * a + _ * modulus = gcd, which is 1 for a unit
        s, _, g = gf_gcdex(gf_from_int_poly(a[::-1], p),
                           gf_from_int_poly(self.modulus[::-1], p), p, ZZ)
        if g != [1]:
            raise VerificationMismatch("attempted to invert a non-unit")
        z = self.element(s[::-1])
        two = self.element([2])
        # Newton lifting doubles the precision each round
        rounds = max(1, (self.K - 1).bit_length() + 1)
        for _ in range(rounds):
            z = self.mul(z, self.sub(two, self.mul(a, z)))
        if self.mul(a, z) != self.element([1]):
            raise VerificationMismatch("Newton lifting of an inverse failed")
        return z

    def valuation(self, a) -> int:
        """min ord_p over coordinates; returns K for zero (meaning >= K)."""
        best = self.K
        for c in a:
            if c:
                v = valuation(c, self.p)
                if v < best:
                    best = v
                    if best == 0:
                        break
        return best

    def eval_int_poly(self, f: IntPoly, a):
        acc = self.element([0])
        for c in reversed(f.coeffs):
            acc = self.add(self.mul(acc, a), self.element([c]))
        return acc


class _NeedMorePrecision(Exception):
    pass


@dataclass(frozen=True)
class _RootConstants:
    """Per-factor structural data: s_p and the summand valuations table."""

    s: int
    w: tuple  # w[r] = ord_p(beta**(p**r) - xi**(p**r)) for r = 0..s


def _root_constants_at(p: int, factor: UnitFactor, K: int, j1: IntPoly) -> _RootConstants:
    ring = _Zq(p, K, _monic_lift(factor.poly, p))
    beta = ring.element([0, 1]) if ring.f > 1 else ring.element([(-factor.poly.coeffs[0])])
    # Newton iteration from the residue root; the derivative is a unit
    # because the unit part is squarefree mod p.
    for _ in range(max(2, K.bit_length() + 2)):
        value = ring.eval_int_poly(j1, beta)
        if all(c == 0 for c in value):
            break
        deriv = ring.eval_int_poly(j1.derivative(), beta)
        beta = ring.sub(beta, ring.mul(value, ring.inv(deriv)))
    if any(ring.eval_int_poly(j1, beta)):
        raise VerificationMismatch("root lifting failed")
    # Teichmueller representative: the fixed point of z -> z**(p**f)
    xi = beta
    for _ in range(K + 2):
        nxt = ring.pow(xi, p ** ring.f)
        if nxt == xi:
            break
        xi = nxt
    else:
        raise _NeedMorePrecision
    v1 = ring.valuation(ring.sub(beta, xi))
    if v1 >= K:
        raise _NeedMorePrecision
    if v1 < 1:
        raise VerificationMismatch("a root is not congruent to its Teichmueller representative")
    s = 0
    while p ** s * (p - 1) * v1 <= 1:
        s += 1
    w = [v1]
    for r in range(1, s + 1):
        diff = ring.sub(ring.pow(beta, p ** r), ring.pow(xi, p ** r))
        vr = ring.valuation(diff)
        if vr >= K:
            raise _NeedMorePrecision
        w.append(vr)
    return _RootConstants(s, tuple(w))


def _monic_lift(g: IntPoly, p: int) -> IntPoly:
    coeffs = [c % p for c in g.coeffs]
    if coeffs[-1] != 1:
        raise VerificationMismatch("a residue factor is not monic")
    return IntPoly(coeffs)


# ---------------------------------------------------------------------------
# The lambda / nu decomposition
# ---------------------------------------------------------------------------


def lambda_for_n(structure: UnitRootStructure, n: int, e: int = None) -> int:
    """Number of unit roots whose residue order divides n (with multiplicity).

    With e given, adds the tower shift e - 1; without it, this is the
    polynomial-level count.
    """
    count = sum(
        f.multiplicity * f.degree
        for f in structure.factors
        if structure.order_divides(f, n)
    )
    if e is None:
        return count
    return count + e - 1


def ord_delta_exact(j: IntPoly, p: int, n: int) -> int:
    """ord_p of the Pierce-Lehmer value Res(j, t**n - 1), by exact division."""
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
    data = structure.constants
    if data is None:
        return None
    p = structure.prime
    m = valuation(n, p) if n % p == 0 else 0
    total = 0
    for f in structure.factors:
        if not structure.order_divides(f, n):
            continue
        rc = data[f]
        r = min(m, rc.s)
        total += f.degree * (rc.w[r] - r)
    return total


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
    """
    structure = unit_root_structure(ta.j_poly, p)
    mu = structure.mu
    c = valuation(ta.kappa_base, p) - valuation(ta.delta1, p)
    if kappas is None:
        kappas = kappa_sequence(ta, n_max)
    per_n = {}
    for n in range(1, n_max + 1):
        ordn = valuation(n, p) if n % p == 0 else 0
        lam_poly = lambda_for_n(structure, n)
        lam = lam_poly + ta.e - 1
        ord_kappa = valuation(kappas[n - 1], p) if kappas[n - 1] % p == 0 else 0
        # The oracle value follows from the tree-count formula itself.
        ord_delta = ord_kappa - (ta.e - 1) * ordn - c
        if structure.constants is not None:
            nu = nu_structural(structure, n)
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


def _is_one_root_factor(f: UnitFactor, p: int) -> bool:
    return f.degree == 1 and f.poly(1) % p == 0


def iwasawa_invariants(j: IntPoly, p: int):
    """(mu, lambda, nu, k0) with ord_p(D_{p**k}) = mu*p**k + lambda*k + nu for k >= k0.

    lambda counts unit roots congruent to 1 mod the maximal ideal.  nu and the
    threshold come from the structural path when the unit part is unramified,
    otherwise from an exact fit on the p-power subsequence.
    """
    structure = unit_root_structure(j, p)
    mu = structure.mu
    lam = sum(
        f.multiplicity * f.degree
        for f in structure.factors
        if _is_one_root_factor(f, p)
    )
    data = structure.constants
    if data is not None:
        k0 = _saturation(structure)
        nu = 0
        for f in structure.factors:
            if _is_one_root_factor(f, p):
                rc = data[f]
                nu += f.degree * (rc.w[rc.s] - rc.s)
        return mu, lam, nu, k0
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
    """(mu, nu, k0) with ord_p(D_{ell**k}) = mu*ell**k + nu for k >= k0, p != ell."""
    if p == ell:
        raise ValueError("the two primes must be distinct")
    structure = unit_root_structure(j, p)
    mu = structure.mu
    orders = []
    for f in structure.factors:
        if f.order is None:
            raise OrderUnavailable("a residue order is unavailable")
        orders.append((f, f.order))
    k0 = max((valuation(N, ell) if N % ell == 0 else 0 for _, N in orders), default=0)
    data = structure.constants
    if data is not None:
        nu = 0
        for f, N in orders:
            if ell ** k0 % N == 0:
                nu += f.degree * data[f].w[0]
    else:
        nu = None
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
    outside prime p the lam term is absent.  Each law is verified exactly on
    all qualifying semigroup elements up to the bound.
    """
    primes = tuple(primes)
    if len(set(primes)) != len(primes):
        raise ValueError("generator primes must be distinct")
    if p in primes:
        raise ValueError("the outside prime must not be a generator")

    def law_for(observer: int, with_lambda: bool) -> FriedmanLaw:
        structure = unit_root_structure(j, observer)
        mu = structure.mu
        chosen = []
        for f in structure.factors:
            if f.order is None:
                raise OrderUnavailable("a residue order is unavailable")
            if _smooth_over(f.order, primes):
                chosen.append(f)
        lam = sum(f.multiplicity * f.degree for f in chosen) if with_lambda else 0
        thresholds = []
        for ell in primes:
            t = max(
                (valuation(f.order, ell) if f.order % ell == 0 else 0 for f in chosen),
                default=0,
            )
            thresholds.append(t)
        data = structure.constants
        if data is not None:
            nu = 0
            for f in chosen:
                rc = data[f]
                if with_lambda:
                    nu += f.degree * (rc.w[rc.s] - rc.s)
                else:
                    nu += f.degree * rc.w[0]
            if with_lambda:
                sat = max((data[f].s for f in chosen), default=0)
                idx = primes.index(observer)
                thresholds[idx] = max(thresholds[idx], sat)
        else:
            nu = None
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
            assert value == nu, f"Friedman law failed at n={n} for prime {observer}"
            verified = True
        if nu is None or not verified:
            raise AssertionError("no qualifying semigroup element below the bound")
        return FriedmanLaw(observer, mu, lam, nu, tuple(thresholds))

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
