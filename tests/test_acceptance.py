"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import random
import time
from functools import lru_cache

from corpus import (
    acceptance_towers,
    bouquet,
    dumbbell,
    fib,
    ord_p,
    random_connected_voltaged_graph,
    random_int_poly,
    random_self_reciprocal,
)

from ihara_towers.graph_core import (
    spanning_tree_count,
    spanning_tree_count_bruteforce,
)
from ihara_towers.ihara import (
    _kappa_from_delta,
    analyze,
    kappa_sequence,
    kappa_via_formula,
    pierce_lehmer_range,
    resultant_row,
)
from ihara_towers.mahler import (
    _aberth_roots,
    archimedean_asymptotic,
    count_unit_circle_roots,
    log_big,
    mahler_archimedean,
    mahler_padic,
)
from ihara_towers.padic_engine import (
    content_valuation,
    iwasawa_invariants,
    lambda_for_n,
    nu_structural,
    ord_delta_exact,
    padic_report,
    unit_root_structure,
    valuation,
    washington_invariants,
)
from ihara_towers.polyring import is_self_reciprocal, resultant
from ihara_towers.voltage_cover import derived_graph

KAPPA_35 = (1, 4, 3, 32, 5, 300, 1183, 1024, 12321, 16820)
RES_35 = (1, -8, 9, -128, 25, -1800, 8281, -8192, 110889, -168200)
DELTA_35 = (-34, 68, -34, 272, -34, 1700, -5746, 4352, -46546, 57188)


def _report(number: int, label: str, started: float) -> None:
    print(f"[acceptance] criterion {number} ({label}): PASS ({time.monotonic() - started:.1f}s)")


@lru_cache(maxsize=None)
def _deltas_200(name: str):
    _, ta = acceptance_towers()[name]
    return tuple(pierce_lehmer_range(ta.j_poly, 200))


def test_criterion_1_paper_table():
    started = time.monotonic()
    ta = analyze(bouquet(3, 5))
    kappas = tuple(kappa_sequence(ta, 10))
    res = tuple(resultant_row(ta, n) for n in range(1, 11))
    deltas = tuple(pierce_lehmer_range(ta.j_poly, 10))
    elapsed = time.monotonic() - started
    assert kappas == KAPPA_35
    assert res == RES_35
    assert deltas == DELTA_35
    assert elapsed < 1.0, f"table took {elapsed:.3f}s"
    _report(1, "paper table B2(3,5)", started)


def test_criterion_2_oracle_equivalence():
    started = time.monotonic()
    for name, (vg, ta) in acceptance_towers().items():
        deltas = pierce_lehmer_range(ta.j_poly, 50)
        for n in range(1, 51):
            predicted = _kappa_from_delta(ta, n, deltas[n - 1])
            actual = spanning_tree_count(derived_graph(vg, n))
            assert predicted == actual, (name, n, predicted, actual)
        # the one-shot entry point takes the same values
        for n in (1, 7, 50):
            assert kappa_via_formula(ta, n) == _kappa_from_delta(ta, n, deltas[n - 1])
    elapsed = time.monotonic() - started
    assert elapsed < 120.0, f"oracle equivalence took {elapsed:.1f}s"
    _report(2, "formula = matrix-tree, 55 towers, n <= 50", started)


def test_criterion_3_fibonacci_identity():
    started = time.monotonic()
    ta = analyze(bouquet(1, 2))
    kappas = kappa_sequence(ta, 60)
    for n in range(1, 61):
        assert kappas[n - 1] == n * fib(n) ** 2
    _report(3, "kappa(X_n) = n F_n^2, n <= 60", started)


def test_criterion_4_lengyel_reproduction():
    started = time.monotonic()
    ta = analyze(bouquet(1, 2))
    kappas = kappa_sequence(ta, 500)
    for p in (2, 3, 5, 7, 11, 13):
        report = padic_report(ta, p, 500, kappas=kappas)
        for n in range(1, 501):
            row = report.per_n[n]
            ordn = valuation(n, p) if n % p == 0 else 0
            derived2 = row.ord - ordn
            assert derived2 % 2 == 0
            derived = derived2 // 2
            assert derived == ord_p(fib(n), p), (p, n)
            if p == 2:
                if n % 3:
                    assert derived == 0
                elif n % 6 == 3:
                    assert derived == 1
                else:
                    assert derived == valuation(n, 2) + 2
            if p == 5:
                assert derived == ordn
    _report(4, "Lengyel valuations, p in {2,3,5,7,11,13}, n <= 500", started)


def test_criterion_5_master_padic_identity():
    started = time.monotonic()
    towers = acceptance_towers()
    for name in towers:
        vg, ta = towers[name]
        deltas = _deltas_200(name)
        kappas = [_kappa_from_delta(ta, n, deltas[n - 1]) for n in range(1, 201)]
        j = ta.j_poly
        for p in (2, 3, 5, 7):
            mu = content_valuation(j, p)
            c = valuation(ta.kappa_base, p) - valuation(ta.delta1, p)
            structure = unit_root_structure(j, p)
            for n in range(1, 201):
                ordn = valuation(n, p) if n % p == 0 else 0
                lam_poly = lambda_for_n(structure, n)
                lam = lam_poly + ta.e - 1
                nu = ord_delta_from_int(deltas[n - 1], p) - mu * n - lam_poly * ordn
                ord_kappa = ord_delta_from_int(kappas[n - 1], p)
                assert mu * n + lam * ordn + nu + c == ord_kappa, (name, p, n)
                if not structure.ramified:
                    assert nu_structural(structure, n) == nu, (name, p, n)
    _report(5, "mu/lambda/nu/c decomposition, 55 towers, p <= 7, n <= 200", started)


def ord_delta_from_int(value: int, p: int) -> int:
    return valuation(value, p) if value % p == 0 else 0


def test_criterion_6_iwasawa_washington_laws():
    started = time.monotonic()
    primes = (2, 3, 5, 7)
    for vg in (bouquet(3, 5), bouquet(1, 2)):
        j = analyze(vg).j_poly
        for p in primes:
            mu, lam, nu, k0 = iwasawa_invariants(j, p)
            for k in range(k0, k0 + 5):
                assert ord_delta_exact(j, p, p ** k) == mu * p ** k + lam * k + nu, (p, k)
            for ell in primes:
                if ell == p:
                    continue
                mu_w, nu_w, k0_w = washington_invariants(j, p, ell)
                for k in range(k0_w, k0_w + 5):
                    assert ord_delta_exact(j, p, ell ** k) == mu_w * ell ** k + nu_w, (p, ell, k)
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"laws took {elapsed:.1f}s"
    _report(6, "Iwasawa and Washington laws on p-power layers", started)


def test_criterion_7_archimedean_asymptotics():
    started = time.monotonic()
    for vg, delta_sq in ((bouquet(1, 2), 5), (dumbbell(1, 2), 5)):
        ta = analyze(vg)
        assert abs(ta.delta1) == delta_sq  # sum of squared voltages
        law = archimedean_asymptotic(ta)
        assert law.rate == mahler_archimedean(ta.j_poly).log_value  # the law's rate is log M(J)
        actual = log_big(kappa_via_formula(ta, 300))
        predicted = law.predicted_log_kappa(300)
        assert abs(actual - predicted) < 1e-6, abs(actual - predicted)
    _report(7, "log kappa growth law at n = 300", started)


def test_criterion_8_property_suites():
    started = time.monotonic()

    # resultant antisymmetry and multiplicativity
    rng = random.Random(101)
    for _ in range(500):
        p = random_int_poly(rng, max_degree=5)
        q = random_int_poly(rng, max_degree=5)
        sign = -1 if (p.degree * q.degree) % 2 else 1
        assert resultant(p, q) == sign * resultant(q, p)
    for _ in range(500):
        p = random_int_poly(rng, max_degree=4)
        q = random_int_poly(rng, max_degree=4)
        r = random_int_poly(rng, max_degree=4)
        assert resultant(p * r, q) == resultant(p, q) * resultant(r, q)

    # p-adic Mahler multiplicativity
    for _ in range(1000):
        f = random_int_poly(rng, max_degree=4, bound=30)
        g = random_int_poly(rng, max_degree=4, bound=30)
        prime = rng.choice((2, 3, 5, 7, 11, 13))
        assert (
            mahler_padic(f * g, prime).exponent
            == mahler_padic(f, prime).exponent + mahler_padic(g, prime).exponent
        )

    # Pierce-Lehmer divisibility along divisors
    for _ in range(200):
        f = random_int_poly(rng, max_degree=6)
        if f.degree < 1:
            continue
        values = pierce_lehmer_range(f, 36)
        for n in range(1, 37):
            for d in range(1, n):
                if n % d:
                    continue
                dn, dd = values[n - 1], values[d - 1]
                assert dn == 0 if dd == 0 else dn % dd == 0

    # matrix-tree equals brute force across the corpus
    corpus_graphs = [vg.base for vg, _ in acceptance_towers().values()]
    for vg, _ in list(acceptance_towers().values())[:8]:
        pairs = len(vg.base.edge_pairs)
        layer = 24 // pairs
        if layer >= 2:
            corpus_graphs.append(derived_graph(vg, layer))
    for g in corpus_graphs:
        assert len(g.edge_pairs) <= 24
        assert spanning_tree_count(g) == spanning_tree_count_bruteforce(g)

    # exact unit-circle counts agree with numeric classification; the float
    # side can only classify simple roots, so samples are kept squarefree
    # (repeated-root behavior of the exact counter is pinned in test_mahler)
    from ihara_towers.polyring import poly_gcd

    done = 0
    while done < 200:
        f = random_self_reciprocal(rng, max_half_degree=6)
        if f(1) == 0 or f(-1) == 0:
            continue
        if poly_gcd(f, f.derivative()).degree > 0:
            continue
        exact = count_unit_circle_roots(f)
        try:
            roots = _aberth_roots([float(c) for c in f.coeffs], 1e-12, random.Random(done))
        except Exception:
            continue
        numeric = sum(1 for z in roots if abs(abs(z) - 1.0) < 1e-9)
        assert exact == numeric, (f, exact, numeric)
        done += 1

    # the Ihara polynomial is self-reciprocal and vanishes at t = 1
    for _ in range(200):
        vg = random_connected_voltaged_graph(rng)
        from ihara_towers.ihara import ihara_polynomial

        ih = ihara_polynomial(vg)
        assert is_self_reciprocal(ih)
        assert sum(ih.body.coeffs) == 0
    _report(8, "property suites", started)
