"""The Ihara polynomial of a voltaged graph and the tower tree-count formula.

For a connected base graph with nonzero Euler characteristic and a voltage
assignment whose monodromy index is 1, the number of spanning trees of every
finite layer is

    kappa(X_n) = (-1)**(b*(n-1)) * kappa(X) * n**(e-1) * D_n / D_1

where D_n is the Pierce-Lehmer value Res(J, t**n - 1) of the distinguished
factor J of the Ihara polynomial.  This module computes the decomposition
(b, e, J) and both sides of that identity.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from multiprocessing import get_context

from .errors import HypothesisViolation, ResourceLimit, VerificationMismatch
from .graph_core import (
    euler_characteristic,
    is_connected,
    spanning_tree_count,
    spanning_tree_count_bruteforce,
)
from .polyring import (
    IntPoly,
    LaurentPoly,
    divide_exact,
    is_self_reciprocal,
    poly_matrix_det,
    pseudo_rem,
    resultant,
    vanishes_at_root_of_unity,
)
from .voltage_cover import VoltagedGraph, derived_graph, monodromy_index

MAX_BITS_ENV = "IHARA_TOWERS_MAX_BITS"


def _check_bits(value: int) -> int:
    cap = os.environ.get(MAX_BITS_ENV)
    if cap:
        if abs(value).bit_length() > int(cap):
            raise ResourceLimit(
                f"integer exceeds {MAX_BITS_ENV}={cap} bits"
            )
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
    n = g.vertex_count
    entries = [[{} for _ in range(n)] for _ in range(n)]
    for e in g.edge_pairs:
        a = vg.voltages[e.id]
        row = entries[e.origin][e.terminus]
        row[a] = row.get(a, 0) - 1
        row = entries[e.terminus][e.origin]
        row[-a] = row.get(-a, 0) - 1
    for v in range(n):
        entries[v][v][0] = entries[v][v].get(0, 0) + g.valency(v)
    matrix = [[LaurentPoly.from_dict(entries[i][j]) for j in range(n)] for i in range(n)]
    return poly_matrix_det(matrix)


@dataclass(frozen=True)
class TowerAnalysis:
    """Derived data of one tower: the Ihara polynomial and its decomposition."""

    vg: VoltagedGraph
    ihara: LaurentPoly
    b: int
    e: int
    i_poly: IntPoly
    j_poly: IntPoly
    delta1: int
    kappa_base: int
    chi: int


def _reject_roots_of_unity(j: IntPoly) -> None:
    """Hard error when J vanishes at a root of unity (impossible for a
    connected tower; a violation means corrupted input)."""
    if vanishes_at_root_of_unity(j):
        raise HypothesisViolation("J vanishes at a root of unity")


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
    if g.vertex_count == 0 or not is_connected(g):
        raise HypothesisViolation("base graph must be connected")
    chi = euler_characteristic(g)
    if chi == 0:
        raise HypothesisViolation("Euler characteristic vanishes")
    index = monodromy_index(vg)
    if index != 1:
        raise HypothesisViolation(
            f"monodromy index is {index}, tower layers are not all connected"
        )
    ihara = ihara_polynomial(vg)
    if ihara.is_zero():
        raise HypothesisViolation("Ihara polynomial vanishes identically")
    _invariant(is_self_reciprocal(ihara), "the Ihara polynomial is not self-reciprocal")
    b = -ihara.low
    _invariant(b >= 0, "the lowest power of t in the Ihara polynomial is positive")
    i_poly = ihara.body
    _invariant(i_poly.coeffs[0] != 0, "the Ihara polynomial body vanishes at t = 0")
    linear = IntPoly((-1, 1))
    j_poly = i_poly
    e = 0
    while j_poly(1) == 0:
        j_poly = divide_exact(j_poly, linear)
        e += 1
    _invariant(e >= 1, "the Ihara polynomial does not vanish at t = 1")
    _invariant(j_poly(1) != 0 and j_poly.coeffs[0] != 0, "J vanishes at t = 1 or t = 0")
    _reject_roots_of_unity(j_poly)
    delta1 = resultant(j_poly, linear)
    _invariant(delta1 != 0, "D_1 = Res(J, t - 1) vanishes")
    kappa = spanning_tree_count(g)
    return TowerAnalysis(vg, ihara, b, e, i_poly, j_poly, delta1, kappa, chi)


# ---------------------------------------------------------------------------
# Pierce-Lehmer values Res(f, t**n - 1)
# ---------------------------------------------------------------------------


def _monic_rescaling(f: IntPoly) -> IntPoly:
    """The monic integer rescaling f~ = a**(d-1) * f(t/a) of f.

    Here a = lead(f) and d = deg(f); the roots of f~ are a times the roots
    of f, so reducing modulo f~ needs no fractions.
    """
    d = f.degree
    a = f.lead
    return IntPoly([f.coeffs[i] * a ** (d - 1 - i) for i in range(d)] + [1])


def _delta_from_residue(monic: IntPoly, residue: IntPoly, a_pow_n: int) -> int:
    """D_n from residue = t**n mod f~ and a_pow_n = a**n.

    Res(f~, t**n - a**n) = a**(n*d) * prod(alpha**n - 1) over the roots alpha
    of f, which is a**(n*(d-1)) * D_n; t**n may be replaced by its residue.
    """
    g = residue - a_pow_n
    if g.is_zero():
        return 0
    q, r = divmod(resultant(monic, g), a_pow_n ** (monic.degree - 1))
    if r:
        raise VerificationMismatch("rescaled resultant is not divisible by the scaling power")
    return q


def pierce_lehmer(f: IntPoly, n: int) -> int:
    """Res(f, t**n - 1), exactly.

    t**n mod f~ comes from square-and-multiply over the monic rescaling f~
    of f; one subresultant resultant then gives the value.
    """
    if f.is_zero():
        raise ValueError("zero polynomial")
    if n < 1:
        raise ValueError("n must be positive")
    d = f.degree
    if d == 0:
        return _check_bits(f.coeffs[0] ** n)
    monic = _monic_rescaling(f)
    power = IntPoly((1,))
    for bit in bin(n)[2:]:
        power = pseudo_rem(power * power, monic)
        if bit == "1":
            power = pseudo_rem(power.shift(1), monic)
    return _check_bits(_delta_from_residue(monic, power, f.lead ** n))


def pierce_lehmer_range(f: IntPoly, n_max: int) -> list:
    """[Res(f, t - 1), ..., Res(f, t**n_max - 1)], advancing t**n mod f~ one
    shift per layer (see pierce_lehmer)."""
    if f.is_zero():
        raise ValueError("zero polynomial")
    if n_max < 1:
        raise ValueError("n_max must be positive")
    d = f.degree
    if d == 0:
        c = f.coeffs[0]
        return [_check_bits(c ** n) for n in range(1, n_max + 1)]
    a = f.lead
    monic = _monic_rescaling(f)
    power = IntPoly((1,))
    a_pow = 1
    out = []
    for _ in range(n_max):
        power = pseudo_rem(power.shift(1), monic)
        a_pow *= a
        out.append(_check_bits(_delta_from_residue(monic, power, a_pow)))
    return out


# ---------------------------------------------------------------------------
# Tree counts along the tower
# ---------------------------------------------------------------------------


def _kappa_from_delta(ta: TowerAnalysis, n: int, delta_n: int) -> int:
    sign = -1 if (ta.b * (n - 1)) % 2 else 1
    value = sign * ta.kappa_base * n ** (ta.e - 1) * delta_n
    q, r = divmod(value, ta.delta1)
    if r:
        raise VerificationMismatch(f"layer {n}: Pierce-Lehmer quotient is not an integer")
    return _check_bits(q)


def kappa_via_formula(ta: TowerAnalysis, n: int) -> int:
    """Spanning trees of layer n from the Pierce-Lehmer quotient formula."""
    if n < 1:
        raise ValueError("n must be positive")
    return _kappa_from_delta(ta, n, pierce_lehmer(ta.j_poly, n))


def kappa_sequence(ta: TowerAnalysis, n_max: int) -> list:
    """[kappa(X_1), ..., kappa(X_n_max)] via one incremental sweep."""
    deltas = pierce_lehmer_range(ta.j_poly, n_max)
    return [_kappa_from_delta(ta, n, deltas[n - 1]) for n in range(1, n_max + 1)]


def _resultant_from_delta(ta: TowerAnalysis, n: int, delta_n: int) -> int:
    # Identical by the factorization I = (t-1)**e * J and multiplicativity.
    q, r = divmod(n ** ta.e * delta_n, ta.delta1)
    if r:
        raise VerificationMismatch(f"layer {n}: resultant row is not divisible by D_1")
    return _check_bits(q)


def resultant_row(ta: TowerAnalysis, n: int) -> int:
    """Res(I, 1 + t + ... + t**(n-1)); satisfies n * kappa(X_n) ==
    (-1)**(b*(n-1)) * kappa(X) * value."""
    if n < 1:
        raise ValueError("n must be positive")
    return _resultant_from_delta(ta, n, pierce_lehmer(ta.j_poly, n))


@dataclass(frozen=True)
class TowerVerification:
    n_max: int
    mode: str
    kappas: tuple
    first_mismatch: tuple  # (n, formula, oracle) or None

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
    graph; "bruteforce-small" uses subset enumeration (and therefore requires
    tiny layers).  With jobs > 1 a pool of forked worker processes counts
    the layers; it has at most jobs, n_max and os.cpu_count() workers, and
    the layers are counted in this process when that bound is 1.  The first
    disagreement is reported, not raised.
    """
    if mode not in ("matrix-tree", "bruteforce-small"):
        raise ValueError(f"unknown verification mode {mode!r}")
    ta = analyze(vg)
    kappas = kappa_sequence(ta, n_max)
    payloads = [(vg, n, mode) for n in range(1, n_max + 1)]
    workers = min(jobs, n_max, os.cpu_count() or 1)
    if workers > 1:
        with get_context("fork").Pool(workers) as pool:
            counts = pool.map(_layer_count, payloads)
    else:
        counts = map(_layer_count, payloads)
    for n, (predicted, actual) in enumerate(zip(kappas, counts), start=1):
        if predicted != actual:
            return TowerVerification(n_max, mode, tuple(kappas[:n]), (n, predicted, actual))
    return TowerVerification(n_max, mode, tuple(kappas), None)
