"""Shared fixtures: named towers, random samplers, and small oracles."""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from functools import lru_cache
from heapq import heapify, heappop, heappush

from ihara_towers import analyze, monodromy_index, voltaged_graph
from ihara_towers.errors import OrderUnavailable, TowerError, VerificationMismatch
from ihara_towers.ihara import kappa_sequence
from ihara_towers.mahler import _MAX_RESTARTS, count_unit_circle_roots
from ihara_towers.padic_engine import (
    PadicReport,
    PerLayer,
    SequenceClass,
    _gf_irreducible_factors,
    _gf_squarefree,
    _gf_trim,
    _layer_terms,
    _saturation,
    is_prime,
    padic_report,
    unit_root_structure,
    valuation,
)
from ihara_towers.polyring import IntPoly, _prem, cyclotomic_polynomial, euler_phi, pseudo_rem


def bouquet(*voltages):
    return voltaged_graph(1, [(0, 0, a) for a in voltages])


def dumbbell(k, l):
    return voltaged_graph(2, [(0, 0, k), (0, 1, 0), (1, 1, l)])


def named_towers():
    return {
        "b2_35": bouquet(3, 5),
        "b2_12": bouquet(1, 2),
        "dumbbell_12": dumbbell(1, 2),
        "dumbbell_23": dumbbell(2, 3),
        "bouquet_137": bouquet(1, 3, 7),
    }


def random_tower(rng: random.Random):
    """Connected base, <= 4 vertices, <= 6 edge pairs, voltages in [-6, 6],
    monodromy index 1 and nonzero Euler characteristic (by construction
    chi = vertices - pairs <= -1)."""
    while True:
        v = rng.randint(1, 4)
        pairs = rng.randint(v + 1, 6)
        edges = []
        for w in range(1, v):
            edges.append((rng.randrange(w), w, rng.randint(-6, 6)))
        while len(edges) < pairs:
            a, b = rng.randrange(v), rng.randrange(v)
            edges.append((a, b, rng.randint(-6, 6)))
        vg = voltaged_graph(v, edges)
        if monodromy_index(vg) == 1:
            return vg


@lru_cache(maxsize=None)
def acceptance_towers():
    """The five named towers plus fifty random ones, with their analyses."""
    rng = random.Random(0xD1CE)
    towers = dict(named_towers())
    for i in range(50):
        towers[f"random_{i:02d}"] = random_tower(rng)
    return {name: (vg, analyze(vg)) for name, vg in towers.items()}


def random_connected_voltaged_graph(rng: random.Random, max_vertices=4, max_pairs=6):
    """Connected voltaged graph with no monodromy requirement."""
    v = rng.randint(1, max_vertices)
    low = max(1, v - 1)
    pairs = rng.randint(low, max_pairs) if max_pairs >= low else low
    edges = []
    for w in range(1, v):
        edges.append((rng.randrange(w), w, rng.randint(-6, 6)))
    while len(edges) < pairs:
        edges.append((rng.randrange(v), rng.randrange(v), rng.randint(-6, 6)))
    return voltaged_graph(v, edges)


@dataclass(frozen=True)
class IntMatrix:
    """Square integer matrix with row/column labels in vertex order."""

    rows: tuple
    labels: tuple

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if self.labels != other.labels:
            raise ValueError("label mismatch")
        rows = tuple(
            tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows)
        )
        return IntMatrix(rows, self.labels)

    def row_sums(self):
        return tuple(sum(r) for r in self.rows)


def degree_and_adjacency(g):
    """Return (D, A): diagonal valency matrix and directed-edge adjacency counts.

    A loop at v adds 2 to both the valency and the diagonal entry of A, so
    loops cancel in the Laplacian D - A.
    """
    n = g.vertex_count
    deg = [0] * n
    adj = [[0] * n for _ in range(n)]
    for e in g.edge_pairs:
        deg[e.origin] += 1
        deg[e.terminus] += 1
        adj[e.origin][e.terminus] += 1
        adj[e.terminus][e.origin] += 1
    d_rows = tuple(tuple(deg[i] if i == j else 0 for j in range(n)) for i in range(n))
    a_rows = tuple(tuple(row) for row in adj)
    return IntMatrix(d_rows, g.vertices), IntMatrix(a_rows, g.vertices)


def fib(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def ord_p(n: int, p: int) -> int:
    if n == 0:
        raise ValueError("valuation of zero")
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


def random_int_poly(rng: random.Random, max_degree=6, bound=9, nonzero_at=()):
    """Random nonzero IntPoly with coefficients in [-bound, bound]."""
    while True:
        d = rng.randint(0, max_degree)
        coeffs = [rng.randint(-bound, bound) for _ in range(d + 1)]
        f = IntPoly(coeffs)
        if f.is_zero():
            continue
        if any(f(x) == 0 for x in nonzero_at):
            continue
        return f


def random_self_reciprocal(rng: random.Random, max_half_degree=6, bound=9):
    """Random palindromic IntPoly of even degree 2m with nonzero ends."""
    m = rng.randint(1, max_half_degree)
    lead = rng.choice([x for x in range(-bound, bound + 1) if x])
    inner = [rng.randint(-bound, bound) for _ in range(m - 1)]
    center = rng.randint(-bound, bound)
    coeffs = [lead] + inner + [center] + list(reversed(inner)) + [lead]
    f = IntPoly(coeffs)
    assert f.coeffs == tuple(reversed(f.coeffs)) and f.degree == 2 * m
    return f


# The whole-polynomial root-of-unity screen that polyring kept until the p-adic
# lift came to decide roots of unity itself: the tests compare against it.
def vanishes_at_root_of_unity(f: IntPoly) -> bool:
    """True iff some root of f is a root of unity, decided exactly.

    Phi_k divides f when a primitive k-th root of unity is a root, and then
    its phi(k) roots lie on the unit circle, so phi(k) <= c, the unmemoised
    count_unit_circle_roots of f.  As phi(k) >= sqrt(k / 2), every such k is
    at most 2 c**2, and the scan stops there; c = 0 skips it.
    """
    if f.degree <= 0:
        return False
    c = count_unit_circle_roots(f)
    # cyclotomic polynomials are monic, so the pseudo-remainder is exact
    return any(euler_phi(k) <= c and pseudo_rem(f, cyclotomic_polynomial(k)).is_zero()
               for k in range(1, 2 * c * c + 1))


def sylvester_matrix(p: IntPoly, q: IntPoly):
    """Sylvester matrix of p and q (descending coefficients, p-rows first).

    Its int_matrix_det is the independent oracle that tests hold resultant to.
    """
    m, n = p.degree, q.degree
    pc = list(reversed(p.coeffs))
    qc = list(reversed(q.coeffs))
    rows = [[0] * i + pc + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + qc + [0] * (m - 1 - i) for i in range(m)]
    return rows


def geometric_quotient(n: int) -> IntPoly:
    """1 + t + ... + t**(n-1), the quotient (t**n - 1)/(t - 1)."""
    return IntPoly((1,) * n)


# Laurent polynomials as dicts {exponent: nonzero coefficient}: an arithmetic
# that shares no code with polyring.LaurentPoly.


def laurent_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def laurent_neg(a: dict) -> dict:
    return {e: -c for e, c in a.items()}


def laurent_mul(a: dict, b: dict) -> dict:
    out = {}
    for e, c in a.items():
        for f, d in b.items():
            out[e + f] = out.get(e + f, 0) + c * d
    return {e: c for e, c in out.items() if c}


def padic_report_per_n(ta, p: int, n_max: int, kappas=None, structure=None):
    """padic_report row by row: one _layer_terms and one PerLayer per n, the
    reference for the rows padic_report computes once per residue class.
    structure defaults to unit_root_structure(ta.j_poly, p)."""
    if structure is None:
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
        source = "structural"
        if nu is None:
            nu, source = ord_kappa - mu * n - lam * ordn - c, "oracle"
        total = mu * n + lam * ordn + nu + c
        if total != ord_kappa:
            raise VerificationMismatch(f"decomposition failed at n={n}: {total} != {ord_kappa}")
        per_n[n] = PerLayer(lam, nu, ord_kappa, source)
    return PadicReport(p, mu, c, structure, _saturation(structure), per_n)


def reference_sequence_classes(ta, p: int, n_max: int = 200, kappas=None):
    """padic_engine.sequence_classes before it grouped the layers once: for
    each candidate saturation exponent R = 0..floor(log_p n_max) in turn it
    partitions n <= n_max by (the orders dividing n, min(ord_p(n), R)) and
    returns the classes of the first R under which every class is constant.
    Same checks, same errors.  The reference that pins the one-pass reading
    of R to the same classes on every input."""
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


def reference_factor_mod_p(f: IntPoly, p: int):
    """padic_engine.factor_mod_p before palindromes went through their trace
    polynomial: the squarefree parts of the whole of f mod p, each split by
    distinct and equal degree.  The reference that pins the half-degree
    route to the same factors, multiplicities and order."""
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


def reference_aberth_roots(coeffs, tol: float, rng: random.Random):
    """mahler._aberth_roots in a straightforward form, the reference that
    pins its float operations: separate Horner passes for p and p' over float
    coefficients, an Aberth sum that skips its own index and tests each
    difference for zero, and max() for the largest relative step."""
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


def reference_resultant(a: list, b: list) -> int:
    """polyring._resultant before its degree-one steps were fused into one
    pass: every step runs _prem, trims the pseudo-remainder and divides it
    by g * h**delta in a separate pass.  The reference that pins the fused
    kernel to the same value on every input."""
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
        r = _prem(a[:], b)
        while r and not r[-1]:
            r.pop()
        if not r:
            return 0
        den = g * h ** delta
        a, b = b, ([x // den for x in r] if den != 1 else r)
        g = a[-1]
        if delta == 1:
            h = g
        elif delta:
            h = g ** delta // h ** (delta - 1)
        if len(b) == 1:
            return sign * b[0] ** db // h ** (db - 1)


def reference_min_degree_det(rows) -> int:
    """graph_core._min_degree_det before its entries carried their own step:
    each row keeps the step s of its last update, and a pivot rebuilds every
    row it reaches, entries outside its pattern rescaled by p_k / p_s at once
    and entries inside by p_{k-1} / p_s before the update.  Same pivots in the
    same order, same VerificationMismatch.  The reference that pins the
    per-entry kernel to the same value on every input."""
    pivots = [1]
    stamp = dict.fromkeys(rows, 0)
    heap = [(len(row), i) for i, row in rows.items()]
    heapify(heap)
    while heap:
        size, k = heappop(heap)
        pivot_row = rows.get(k)
        if pivot_row is None:
            continue
        if len(pivot_row) != size:
            heappush(heap, (len(pivot_row), k))
            continue
        del rows[k]
        prev = pivots[-1]
        ps = pivots[stamp[k]]
        if ps != prev:
            pivot_row = {j: a * prev // ps for j, a in pivot_row.items()}
        pk = pivot_row.pop(k)
        if pk <= 0:
            raise VerificationMismatch(
                f"pivot {len(pivots)} of a reduced Laplacian is {pk}, not positive"
            )
        reached = list(pivot_row.items())
        old, new = [], []
        for i in pivot_row:
            row = rows[i]
            before = len(row)
            del row[k]
            ps = pivots[stamp[i]]
            # entries outside the pivot row go from step s to this step at once
            updated = {j: a * pk // ps for j, a in row.items() if j not in pivot_row}
            if ps != prev:
                row = {j: a * prev // ps for j, a in row.items() if j in pivot_row}
            old.append(row.get)
            new.append(updated)
            rows[i] = updated
            stamp[i] = len(pivots)
            after = len(updated) + len(pivot_row)
            if after < before:
                heappush(heap, (after, i))
        for t, (i, aik) in enumerate(reached):
            get, row_i = old[t], new[t]
            for (j, akj), row_j in zip(reached[t:], new[t:]):
                row_i[j] = row_j[i] = (pk * get(j, 0) - aik * akj) // prev
        pivots.append(pk)
    return pivots[-1]
