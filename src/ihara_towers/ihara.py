"""The Ihara polynomial of a voltaged graph and the tower tree-count formula.

For a connected base graph with nonzero Euler characteristic and a voltage
assignment whose monodromy index is 1, the number of spanning trees of every
finite layer is

    kappa(X_n) = (-1)**(b*(n-1)) * kappa(X) * n**(e-1) * D_n / D_1

where D_n is the Pierce-Lehmer value Res(J, t**n - 1) of the distinguished
factor J of the Ihara polynomial.  This module computes the decomposition
(b, e, J) and both sides of that identity.

J is palindromic of even degree 2m, so its roots pair off as alpha, 1/alpha,
and with a = lead(J), K the trace polynomial (t**m K(t + 1/t) = J) and U_k
the Lucas U-polynomials in s = t + 1/t, Lehmer's factorization (Ann. of
Math. 34 (1933)) gives each D_n as a small factor times a square:

    D_(2k+1) = J(1) T_k**2,          T_k = Res(K, U_k + U_(k+1)),
    D_(2k) = J(1) J(-1) R_k**2,      R_k = Res(K, U_k).

Every Pierce-Lehmer value takes one Lucas chain u_(j+1) = sigma u_j -
q u_(j-1) modulo a monic polynomial and one resultant.  For J the modulus is
the monic rescaling of K, of half the degree of J, q = a**2, and the
resultant is T_k or R_k times a power of a, about half the size of D_n.  For
any other polynomial f the modulus is the rescaling of f, q = 0, so that
u_(n+1) = sigma**n, and the resultant is a**(n(deg f - 1)) D_n.
"""

from __future__ import annotations

import os
from collections import namedtuple

from .errors import HypothesisViolation, ResourceLimit, VerificationMismatch
from .graph_core import (
    BRUTE_FORCE_PAIR_LIMIT,
    euler_characteristic,
    is_connected,
    spanning_tree_count,
    spanning_tree_count_bruteforce,
)
from .polyring import (
    IntPoly,
    LaurentPoly,
    _divide_out,
    _mul,
    _prem,
    _resultant,
    _trace_polynomial,
    is_self_reciprocal,
    poly_matrix_det,
)
from .voltage_cover import VoltagedGraph, derived_graph, monodromy_index

MAX_BITS_ENV = "IHARA_TOWERS_MAX_BITS"


def _bit_cap():
    """The MAX_BITS_ENV cap in bits: None when the variable is unset or empty,
    and ValueError unless it is ASCII digits.  It is read once per call of
    pierce_lehmer, pierce_lehmer_range, kappa_via_formula and resultant_row,
    once per kappa sweep (kappa_sequence, the CLI table) and once per value
    in the p-adic engine's memoised Pierce-Lehmer values."""
    raw = os.environ.get(MAX_BITS_ENV)
    if not raw:
        return None
    if not (raw.isascii() and raw.isdigit()):
        raise ValueError(f"{MAX_BITS_ENV} must be a non-negative integer, got {raw!r}")
    return int(raw)


def _check_bits(value: int, cap) -> int:
    if cap is not None and abs(value).bit_length() > cap:
        raise ResourceLimit(f"integer exceeds {MAX_BITS_ENV}={cap} bits")
    return value


# ---------------------------------------------------------------------------
# Ihara polynomial and tower analysis
# ---------------------------------------------------------------------------


def ihara_polynomial(vg: VoltagedGraph) -> LaurentPoly:
    """det(D - A(t)) where A(t) twists each directed edge by t**voltage.

    A loop of voltage a contributes t**a + t**-a to its diagonal entry, so
    the result is always self-reciprocal and vanishes at t = 1.
    """
    g = vg.base
    if g.vertex_count == 0 or not is_connected(g):
        raise HypothesisViolation("base graph must be connected")
    return _ihara_determinant(vg)


def _ihara_determinant(vg: VoltagedGraph) -> LaurentPoly:
    """The body of ihara_polynomial, for a base already known to be connected."""
    g = vg.base
    n = g.vertex_count
    entries = [[{} for _ in range(n)] for _ in range(n)]
    for e, a in zip(g.edge_pairs, vg.voltages):
        row = entries[e.origin][e.terminus]
        row[a] = row.get(a, 0) - 1
        row = entries[e.terminus][e.origin]
        row[-a] = row.get(-a, 0) - 1
    for v in range(n):
        entries[v][v][0] = entries[v][v].get(0, 0) + g.valency(v)
    matrix = [[LaurentPoly.from_dict(entries[i][j]) for j in range(n)] for i in range(n)]
    return poly_matrix_det(matrix)


class TowerAnalysis(namedtuple("TowerAnalysis",
                               "vg ihara b e i_poly j_poly delta1 kappa_base chi")):
    """Derived data of one tower: the Ihara polynomial and its decomposition."""

    __slots__ = ()


def _invariant(holds: bool, message: str) -> None:
    """Raise VerificationMismatch when an invariant that every valid tower
    satisfies fails (unlike assert, this survives python -O)."""
    if not holds:
        raise VerificationMismatch(message)


def analyze(vg: VoltagedGraph) -> TowerAnalysis:
    """Compute the full decomposition (b, e, J, D_1) of a tower.

    Requires a connected base with nonzero Euler characteristic and
    monodromy index 1; anything else raises HypothesisViolation.
    """
    g = vg.base
    # the BFS of monodromy_index raises the connectivity error, so it runs first
    index = monodromy_index(vg)
    chi = euler_characteristic(g)
    if chi == 0:
        raise HypothesisViolation("Euler characteristic vanishes")
    if index != 1:
        raise HypothesisViolation(
            f"monodromy index is {index}, tower layers are not all connected"
        )
    ihara = _ihara_determinant(vg)
    if ihara.is_zero():
        raise HypothesisViolation("Ihara polynomial vanishes identically")
    _invariant(is_self_reciprocal(ihara), "the Ihara polynomial is not self-reciprocal")
    b = -ihara.low
    _invariant(b >= 0, "the lowest power of t in the Ihara polynomial is positive")
    i_poly = ihara.body
    _invariant(i_poly.coeffs[0] != 0, "the Ihara polynomial body vanishes at t = 0")
    j_poly, e = _divide_out(i_poly, 1)
    _invariant(e >= 1, "the Ihara polynomial does not vanish at t = 1")
    # D_1 = Res(J, t - 1) = lead(J) * prod (alpha - 1) = (-1)**deg(J) * J(1)
    delta1 = (-1) ** j_poly.degree * j_poly(1)
    _invariant(delta1 != 0 and j_poly.coeffs[0] != 0, "J vanishes at t = 1 or t = 0")
    kappa = spanning_tree_count(g)
    return TowerAnalysis(vg, ihara, b, e, i_poly, j_poly, delta1, kappa, chi)


# ---------------------------------------------------------------------------
# Pierce-Lehmer values Res(f, t**n - 1)
# ---------------------------------------------------------------------------
#
# Residues modulo a monic integer polynomial are low-first int lists of length
# its degree, as padic_engine's _gf_* lists are, but over Z.


def _rescaled(c: list) -> list:
    """The monic rescaling a**(d-1) * g(t/a) of g = sum c[i] t**i, a = c[-1].

    Its roots are a times those of g, so reducing modulo it needs no fractions.
    """
    d, a = len(c) - 1, c[-1]
    return [x * a ** (d - 1 - i) for i, x in enumerate(c[:-1])] + [1]


def _shift(w: list, monic: list) -> list:
    """t * w modulo monic."""
    c = w[-1]
    return [x - c * y for x, y in zip([0] + w[:-1], monic)]


def _lehmer_modulus(f: IntPoly):
    """(monic, q, units) for f of degree d >= 1: the modulus and the constant
    term of the Lucas chain u_(j+1) = sigma u_j - q u_(j-1) from
    (u_0, u_1) = (0, 1), where sigma = t modulo monic and a = lead(f), and
    the factors (f(1) f(-1), f(1)) of even and odd D_n over a square.

    For a palindromic f of even degree 2m, monic is the rescaling of the trace
    polynomial K of f, whose roots are sigma_j = a s_j for the m roots s_j of
    K, and q = a**2, so that u_j = a**(j-1) U_j(sigma/a) for the Lucas
    U-polynomials U_j(s) (see _delta).  For any other f, monic is the
    rescaling of f, with roots sigma = a alpha, q = 0, so that
    u_(n+1) = sigma**n, and units is None.
    """
    c = f.coeffs
    if f.degree % 2 == 0 and c == c[::-1]:
        return _rescaled(_trace_polynomial(c)), c[-1] ** 2, (f(1) * f(-1), f(1))
    return _rescaled(list(c)), 0, None


def _lucas_u(k: int, q: int, monic: list) -> tuple:
    """(u_k, u_(k+1)) modulo monic by a doubling chain, two products per bit
    of k: with v_j = 2 u_(j+1) - sigma u_j, u_2j = u_j v_j and
    u_(2j+1) = u_(j+1) v_j - q**j, and u_(2j+2) = sigma u_(2j+1) - q u_2j
    follows; q**j is kept by squaring beside the chain.  See _lehmer_modulus."""
    u0 = [0] * (len(monic) - 1)
    u1 = [1] + u0[1:]
    if not k:
        return u0, u1
    u0, u1, qj = u1, _shift(u1, monic), q  # (u_1, u_2, q**1), for the leading bit of k
    for bit in bin(k)[3:]:
        v = [2 * x - y for x, y in zip(u1, _shift(u0, monic))]
        u0, u1 = _prem(_mul(u0, v), monic), _prem(_mul(u1, v), monic)
        u1[0] -= qj
        qj *= qj
        if bit == "1":
            u0, u1, qj = u1, [x - q * y for x, y in zip(_shift(u1, monic), u0)], qj * q
    return u0, u1


def _delta(a: int, lehmer: tuple, n: int, u: tuple) -> int:
    """D_n = Res(f, t**n - 1) for a = lead(f) and lehmer = _lehmer_modulus(f),
    from u = (u_k, u_(k+1)) modulo monic, where k = n // 2 when q != 0 and
    k = n when q = 0.

    For a palindromic f of even degree 2m, the roots pair off as alpha, 1/alpha
    with s = alpha + 1/alpha, and (alpha**n - 1)(alpha**-n - 1) is
    (2 - s) (U_k + U_(k+1))(s)**2 for n = 2k + 1 and (4 - s**2) U_k(s)**2 for
    n = 2k.  Over the roots of K, with f(1) = K(2) and f(-1) = (-1)**m K(-2),
    this is Lehmer's factorization (Ann. of Math. 34 (1933))

        D_(2k+1) = f(1) T_k**2,  a**(k(m-1)) T_k = Res(monic, a u_k + u_(k+1)),
        D_(2k) = f(1) f(-1) R_k**2,  a**((k-1)(m-1)) R_k = Res(monic, u_k),

    so each resultant has about half the size of D_n.  For any other f,
    a**(n(d-1)) D_n = Res(monic, u_(n+1) - a**n).
    """
    (monic, q, units), (u0, u1) = lehmer, u
    e = len(monic) - 2
    if q:
        k, odd = divmod(n, 2)
        g = [a * x + y for x, y in zip(u0, u1)] if odd else u0[:]
        power = a ** ((k - 1 + odd) * e)
    else:
        g, power = [u1[0] - a ** n] + u1[1:], a ** (n * e)
    while g and not g[-1]:
        g.pop()
    if not g:
        return 0
    quot, r = divmod(_resultant(monic, g), power)
    if r:
        raise VerificationMismatch("rescaled resultant is not divisible by the scaling power")
    return units[odd] * quot * quot if q else quot


def pierce_lehmer(f: IntPoly, n: int) -> int:
    """Res(f, t**n - 1), exactly.

    One doubling chain of _lucas_u gives (u_k, u_(k+1)) modulo a monic
    polynomial, and one subresultant resultant then gives the value.  For a
    palindromic f of even degree the modulus is the rescaled trace polynomial
    of f, which has half the degree, k = n // 2 and the resultant is a
    square root of D_n / f(1) or D_n / (f(1) f(-1)) times a power of lead(f);
    for any other f it is the
    rescaling of f itself, with q = 0 and k = n (see _delta).
    """
    if f.is_zero():
        raise ValueError("zero polynomial")
    if n < 1:
        raise ValueError("n must be positive")
    cap = _bit_cap()
    if f.degree == 0:
        return _check_bits(f.coeffs[0] ** n, cap)
    lehmer = _lehmer_modulus(f)
    modulus, q, _ = lehmer
    u = _lucas_u(n // 2 if q else n, q, modulus)
    return _check_bits(_delta(f.lead, lehmer, n, u), cap)


def pierce_lehmer_range(f: IntPoly, n_max: int) -> list:
    """[Res(f, t - 1), ..., Res(f, t**n_max - 1)], one resultant per layer.

    The pair (u_k, u_(k+1)) advances by one step of the Lucas chain
    u_(j+1) = sigma u_j - q u_(j-1) per two layers for a palindromic f of even
    degree, and per layer for any other f; see _lehmer_modulus and _delta.
    """
    if f.is_zero():
        raise ValueError("zero polynomial")
    if n_max < 1:
        raise ValueError("n_max must be positive")
    cap = _bit_cap()
    if f.degree == 0:
        c = f.coeffs[0]
        return [_check_bits(c ** n, cap) for n in range(1, n_max + 1)]
    lehmer = _lehmer_modulus(f)
    modulus, q, _ = lehmer
    u0, u1 = _lucas_u(0, q, modulus)
    out = []
    for n in range(1, n_max + 1):
        if n % 2 == 0 or not q:
            u0, u1 = u1, [x - q * y for x, y in zip(_shift(u1, modulus), u0)]
        out.append(_check_bits(_delta(f.lead, lehmer, n, (u0, u1)), cap))
    return out


# ---------------------------------------------------------------------------
# Tree counts along the tower
# ---------------------------------------------------------------------------


def _kappa_from_delta(ta: TowerAnalysis, n: int, delta_n: int, cap=None) -> int:
    if not delta_n:
        raise VerificationMismatch(f"layer {n}: D_n = 0, but a connected layer has a spanning tree")
    sign = -1 if (ta.b * (n - 1)) % 2 else 1
    value = sign * ta.kappa_base * n ** (ta.e - 1) * delta_n
    q, r = divmod(value, ta.delta1)
    if r:
        raise VerificationMismatch(f"layer {n}: Pierce-Lehmer quotient is not an integer")
    return _check_bits(q, cap)


def kappa_via_formula(ta: TowerAnalysis, n: int) -> int:
    """Spanning trees of layer n from the Pierce-Lehmer quotient formula."""
    if n < 1:
        raise ValueError("n must be positive")
    return _kappa_from_delta(ta, n, pierce_lehmer(ta.j_poly, n), _bit_cap())


def kappa_sequence(ta: TowerAnalysis, n_max: int) -> list:
    """[kappa(X_1), ..., kappa(X_n_max)] via one incremental sweep."""
    deltas = pierce_lehmer_range(ta.j_poly, n_max)
    cap = _bit_cap()
    return [_kappa_from_delta(ta, n, deltas[n - 1], cap) for n in range(1, n_max + 1)]


def _resultant_from_delta(ta: TowerAnalysis, n: int, delta_n: int, cap=None) -> int:
    # Identical by the factorization I = (t-1)**e * J and multiplicativity.
    if not delta_n:
        raise VerificationMismatch(f"layer {n}: D_n = 0, but a connected layer has a spanning tree")
    q, r = divmod(n ** ta.e * delta_n, ta.delta1)
    if r:
        raise VerificationMismatch(f"layer {n}: resultant row is not divisible by D_1")
    return _check_bits(q, cap)


def resultant_row(ta: TowerAnalysis, n: int) -> int:
    """Res(I, 1 + t + ... + t**(n-1)); satisfies n * kappa(X_n) ==
    (-1)**(b*(n-1)) * kappa(X) * value."""
    if n < 1:
        raise ValueError("n must be positive")
    return _resultant_from_delta(ta, n, pierce_lehmer(ta.j_poly, n), _bit_cap())


class TowerVerification(namedtuple("TowerVerification", "n_max mode kappas first_mismatch")):
    """The tree counts of layers 1..n_max and the first disagreement between
    the formula and the oracle of mode: (n, formula, oracle), or None."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.first_mismatch is None


def _layer_count(payload) -> int:
    vg, n, mode = payload
    layer = derived_graph(vg, n)
    if mode == "matrix-tree":
        return spanning_tree_count(layer)
    return spanning_tree_count_bruteforce(layer)


def verify_tower(
    vg: VoltagedGraph, n_max: int, mode: str = "matrix-tree", jobs: int = 1
) -> TowerVerification:
    """Check the formula path against an independent tree count for n <= n_max.

    mode "matrix-tree" uses the reduced-Laplacian determinant of each derived
    graph; "bruteforce-small" counts the trees with no determinant, so it
    requires tiny layers: layer n has n times the base's edge pairs, and a
    top layer above BRUTE_FORCE_PAIR_LIMIT of them is refused with the
    counter's ValueError before any layer is counted.  With jobs > 1 a pool
    of forked worker processes counts the layers; it has at most jobs, n_max
    and os.cpu_count() workers, and the layers are counted in this process
    when that bound is 1.  The first disagreement is reported, not raised.
    """
    if mode not in ("matrix-tree", "bruteforce-small"):
        raise ValueError(f"unknown verification mode {mode!r}")
    if jobs < 1:
        raise ValueError("jobs must be positive")
    ta = analyze(vg)
    if mode == "bruteforce-small" and n_max * len(vg.base.edge_pairs) > BRUTE_FORCE_PAIR_LIMIT:
        raise ValueError("graph too large for brute-force enumeration")
    kappas = kappa_sequence(ta, n_max)
    payloads = [(vg, n, mode) for n in range(1, n_max + 1)]
    workers = min(jobs, n_max, os.cpu_count() or 1)
    if workers > 1:
        from multiprocessing import get_context

        with get_context("fork").Pool(workers) as pool:
            counts = pool.map(_layer_count, payloads)
    else:
        counts = map(_layer_count, payloads)
    for n, (predicted, actual) in enumerate(zip(kappas, counts), start=1):
        if predicted != actual:
            return TowerVerification(n_max, mode, tuple(kappas[:n]), (n, predicted, actual))
    return TowerVerification(n_max, mode, tuple(kappas), None)
