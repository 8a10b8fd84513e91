import importlib.util
import math
import random
import sys
from pathlib import Path

import pytest

from corpus import (
    bouquet,
    dumbbell,
    random_connected_voltaged_graph,
    random_int_poly,
    random_self_reciprocal,
    random_tower,
    reference_aberth_roots,
)

from ihara_towers.errors import TowerError
from ihara_towers.ihara import analyze, pierce_lehmer
from ihara_towers.mahler import (
    _ROOT_TOL,
    _aberth_roots,
    _mahler_archimedean,
    archimedean_asymptotic,
    count_unit_circle_roots,
    log_big,
    mahler_archimedean,
    mahler_padic,
    padic_asymptotic_no_unit_roots,
)
from ihara_towers.polyring import IntPoly, _strip_trivial_roots, cyclotomic_polynomial
from ihara_towers.towers_cli import generate_family, graph_from_json

GOLDEN_SQ = (3 + math.sqrt(5)) / 2
LEHMER = IntPoly((1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1))
WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def test_mahler_padic_examples():
    for p in (2, 3, 5, 7):
        assert mahler_padic(IntPoly((1, 3, 1)), p).exponent == 0
    m = mahler_padic(IntPoly((25, 0, 5)), 5)
    assert m.exponent == 1 and m.value == 1 / 5
    j35 = analyze(bouquet(3, 5)).j_poly
    assert mahler_padic(j35, 2).exponent == 0


def test_mahler_padic_rejects_composite():
    try:
        mahler_padic(IntPoly((1, 1)), 6)
        assert False
    except ValueError:
        pass


def test_mahler_padic_multiplicativity():
    rng = random.Random(43)
    for _ in range(1000):
        f = random_int_poly(rng, max_degree=4, bound=20)
        g = random_int_poly(rng, max_degree=4, bound=20)
        p = rng.choice((2, 3, 5, 7, 11))
        assert (
            mahler_padic(f * g, p).exponent
            == mahler_padic(f, p).exponent + mahler_padic(g, p).exponent
        )


def test_mahler_archimedean_examples():
    assert abs(mahler_archimedean(IntPoly((-2, 1))).value - 2.0) < 1e-12
    m = mahler_archimedean(IntPoly((1, 3, 1)))
    assert abs(m.value - GOLDEN_SQ) < 1e-10
    # a (t-1)**e factor changes nothing
    shifted = IntPoly((1, 3, 1)) * IntPoly((-1, 1)) * IntPoly((-1, 1))
    assert abs(mahler_archimedean(shifted).value - GOLDEN_SQ) < 1e-10
    assert count_unit_circle_roots(shifted) == 2


def test_mahler_archimedean_multiplicativity():
    rng = random.Random(47)
    for _ in range(60):
        f = random_int_poly(rng, max_degree=4)
        g = random_int_poly(rng, max_degree=4)
        if f.degree < 1 or g.degree < 1:
            continue
        mf = mahler_archimedean(f).value
        mg = mahler_archimedean(g).value
        mfg = mahler_archimedean(f * g).value
        assert abs(mfg - mf * mg) <= 1e-8 * max(1.0, abs(mf * mg))


def test_growth_limit_matches_measure():
    # |D_n|**(1/n) converges to the measure for the Fibonacci factor
    j = IntPoly((-1, -3, -1))
    target = math.log(GOLDEN_SQ)
    value = pierce_lehmer(j, 200)
    assert abs(log_big(abs(value)) / 200 - target) < 1e-6


def test_count_unit_circle_roots_examples():
    assert count_unit_circle_roots(IntPoly((-1, -3, -1))) == 0
    assert count_unit_circle_roots(IntPoly((1, 0, 1))) == 2
    assert count_unit_circle_roots(analyze(dumbbell(1, 2)).j_poly) == 0


def test_count_unit_circle_roots_with_pm_one_and_multiplicity():
    f = IntPoly((-1, 1)) * IntPoly((1, 1)) * IntPoly((1, 0, 1)) * IntPoly((1, 0, 1))
    assert count_unit_circle_roots(f) == 6
    assert count_unit_circle_roots(IntPoly((0, 0, 1))) == 0  # t**2
    # -(t**2 - t + 1)**2 * (8t**2 + 13t + 8): six unit roots, two double
    f = IntPoly((-8, 3, -6, -7, -6, 3, -8))
    assert count_unit_circle_roots(f) == 6
    # Lehmer's polynomial: 8 unit-circle roots, none of them a root of unity
    lehmer = IntPoly((1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1))
    assert count_unit_circle_roots(lehmer) == 8
    assert count_unit_circle_roots(lehmer * lehmer) == 16
    phi_5 = IntPoly((1, 1, 1, 1, 1))
    assert count_unit_circle_roots(lehmer * lehmer * phi_5) == 20
    # three Sturm chains, each from the last member of the one before, count
    # the 12 roots, the 12 of multiplicity 2 or more and the 4 of multiplicity 3
    assert count_unit_circle_roots(lehmer * lehmer * phi_5 * phi_5 * phi_5) == 28
    # (t - 1)**2 (t + 1)**2 (t**2 + 1)**2: the roots at +-1 count with multiplicity
    pm_one = IntPoly((-1, 1)) * IntPoly((1, 1)) * IntPoly((1, 0, 1)) * IntPoly((1, 0, 1))
    assert count_unit_circle_roots(pm_one * IntPoly((-1, 1)) * IntPoly((1, 1))) == 8


def test_a_tower_j_has_no_unit_circle_root():
    # For |t| = 1, D - A(t) is the connection Laplacian of the voltages: it is
    # singular only when t**N = 1, N the monodromy index of the connected base
    # (Forman 1993; Kenyon 2011).  So analyze, which requires N = 1 and
    # J(1) != 0, yields a J with no root on the unit circle.
    from ihara_towers.ihara import ihara_polynomial
    from ihara_towers.polyring import cyclotomic_polynomial, divide_exact, pseudo_rem
    from ihara_towers.voltage_cover import monodromy_index

    rng = random.Random(3601)
    for _ in range(2000):
        vg = random_tower(rng)
        assert count_unit_circle_roots(analyze(vg).j_poly) == 0, vg
    assert all(count_unit_circle_roots(j) == 0 for j in _sweep_plan_j_polys((1, 2, 3)))
    # for N > 1 the unit-circle roots are those of Phi_d, d | N, alone
    rng = random.Random(3602)
    checked = 0
    while checked < 200:
        vg = random_connected_voltaged_graph(rng)
        n = monodromy_index(vg)
        if n < 2:
            continue
        f = ihara_polynomial(vg).body
        for d in (d for d in range(1, n + 1) if n % d == 0):
            phi = cyclotomic_polynomial(d)
            while pseudo_rem(f, phi).is_zero():
                f = divide_exact(f, phi)
        assert count_unit_circle_roots(f) == 0, vg
        checked += 1


def test_count_unit_circle_roots_against_numeric():
    from ihara_towers.polyring import poly_gcd

    rng = random.Random(53)
    done = 0
    while done < 200:
        f = random_self_reciprocal(rng, max_half_degree=6)
        if f(1) == 0 or f(-1) == 0:
            continue  # exact division path is exercised elsewhere
        if poly_gcd(f, f.derivative()).degree > 0:
            continue  # numeric classification cannot resolve repeated roots
        exact = count_unit_circle_roots(f)
        try:
            roots = _aberth_roots([float(c) for c in f.coeffs], 1e-12, random.Random(1))
        except Exception:
            continue
        numeric = sum(1 for z in roots if abs(abs(z) - 1.0) < 1e-9)
        assert exact == numeric, (f, exact, numeric)
        done += 1


def test_count_unit_circle_roots_ignores_sign():
    from ihara_towers.polyring import cyclotomic_polynomial

    rng = random.Random(59)
    for _ in range(150):
        cyc = IntPoly((1,))
        for _ in range(rng.randint(1, 3)):
            cyc = cyc * cyclotomic_polynomial(rng.choice((1, 2, 3, 4, 5, 6, 8, 12)))
        g = random_int_poly(rng, max_degree=4)
        if g.lead > 0:
            g = -g
        f = cyc * g
        count = count_unit_circle_roots(f)
        assert count == count_unit_circle_roots(-f)
        assert count == cyc.degree + count_unit_circle_roots(g)


@pytest.mark.sympy
def test_sturm_count_matches_sympy():
    # Sparse coefficients make remainders skip degrees, where the sign of a
    # pseudo-remainder depends on the parity of the degree drop.
    from sympy import Poly, symbols

    from ihara_towers.polyring import _sturm_count_open

    x = symbols("x")
    rng = random.Random(71)
    checked = 0
    while checked < 300:
        d = rng.randint(1, 8)
        q = IntPoly([rng.choice((0, 0, 0, 1, -1, 2, -3, 5)) for _ in range(d + 1)])
        a = rng.randint(-3, 1)
        b = a + rng.randint(1, 4)
        if q.degree < 1 or q(a) == 0 or q(b) == 0:
            continue
        poly = Poly(list(reversed(q.coeffs)), x)
        expected = poly.count_roots(a, b)
        count, last = _sturm_count_open(q, a, b)
        assert count == expected, (q, a, b)
        # the last member is a nonzero multiple of gcd(q, q')
        common = poly.gcd(poly.diff(x))
        member = Poly(list(reversed(last.coeffs)), x)
        assert member.degree() == common.degree(), q
        assert member.rem(common).is_zero, q
        checked += 1


def test_unit_circle_count_matches_the_layered_gcd_count():
    # The count walks from one Sturm chain's last member to the next chain;
    # the reference takes each layer g, gcd(g, g'), ... by its full gcd.
    from ihara_towers.polyring import (
        _strip_trivial_roots,
        _sturm_count_open,
        _trace_polynomial,
        cyclotomic_polynomial,
        poly_gcd,
    )

    def layered(f):
        work, count = _strip_trivial_roots(f)
        g = poly_gcd(work, IntPoly(work.coeffs[::-1]))
        while g.degree > 0:
            count += 2 * _sturm_count_open(IntPoly(_trace_polynomial(g.coeffs)), -2, 2)[0]
            g = poly_gcd(g, g.derivative())
        return count

    def power(f, k):
        out = IntPoly((1,))
        for _ in range(k):
            out = out * f
        return out

    rng = random.Random(1733)
    circle = [LEHMER, IntPoly((1, -1, -1, -1, 1))] + [
        cyclotomic_polynomial(k) for k in (1, 2, 3, 4, 5, 6, 7, 8, 12)]
    checked = 0
    while checked < 500:
        f = power(rng.choice(circle), rng.randint(1, 3)) * random_int_poly(rng, max_degree=5)
        repeated = rng.choice(circle + [random_self_reciprocal(rng, max_half_degree=3)])
        f = f * power(repeated, rng.randint(2, 3))
        expected = layered(f)
        assert count_unit_circle_roots(f) == expected > 0, f
        checked += 1
    # palindromes that may have no unit-circle root at all
    rng = random.Random(2102)
    for _ in range(40):
        f = random_self_reciprocal(rng)
        assert count_unit_circle_roots(f) == layered(f), f


def test_count_of_a_repeated_degree_250_factor_is_fast():
    # (P Lehmer)**2 has degree 500; each chain of the walk starts from the
    # last member of the one before, so no layer takes gcd(g, g') at full degree
    import time

    rng = random.Random(3517)
    half = [rng.choice([c for c in range(-9, 10) if c])] + [rng.randint(-9, 9) for _ in range(120)]
    p = IntPoly(half + half[-2::-1])
    assert p.degree == 240 and p.coeffs == p.coeffs[::-1]
    f = p * LEHMER
    single = count_unit_circle_roots(f)
    started = time.perf_counter()
    double = count_unit_circle_roots(f * f)
    elapsed = time.perf_counter() - started
    assert double == 2 * single >= 16, (single, double)
    assert elapsed < 2.0, elapsed


def test_unit_circle_invariant_raises_package_error(monkeypatch):
    import ihara_towers.mahler as mahler
    from ihara_towers.errors import VerificationMismatch

    # a gcd that is not palindromic, and one of odd degree
    for bad in (IntPoly((1, 0, 2)), IntPoly((1, 1))):
        monkeypatch.setattr(mahler, "poly_gcd", lambda f, g, bad=bad: bad)
        try:
            count_unit_circle_roots(IntPoly((1, 0, 1)))
            assert False
        except VerificationMismatch as exc:
            assert "palindromic" in str(exc)


def test_archimedean_asymptotic_records():
    ta = analyze(bouquet(1, 2))
    law = archimedean_asymptotic(ta)
    assert law.rate == mahler_archimedean(ta.j_poly).log_value and law.poly_order == 1
    assert abs(law.rate - math.log(GOLDEN_SQ)) < 1e-10
    assert abs(law.constant - math.log(1 / 5)) < 1e-12

    ta = analyze(dumbbell(1, 2))
    law = archimedean_asymptotic(ta)
    assert law.rate == mahler_archimedean(ta.j_poly).log_value
    assert abs(law.constant - math.log(1 / 5)) < 1e-12


def test_padic_asymptotic_gate():
    ta = analyze(bouquet(1, 2))
    # all roots of the Fibonacci factor are p-adic units at every prime
    for p in (2, 3, 5, 7):
        assert not padic_asymptotic_no_unit_roots(ta, p).applicable


def test_padic_asymptotic_applicable_tower():
    # a tower whose J has no 2-adic unit root at all: the affine law is exact
    from corpus import ord_p
    from ihara_towers.ihara import kappa_sequence
    from ihara_towers.voltage_cover import voltaged_graph

    vg = voltaged_graph(4, [(0, 1, 0), (0, 2, 5), (1, 3, -2), (1, 0, -1), (0, 0, -6)])
    ta = analyze(vg)
    law = padic_asymptotic_no_unit_roots(ta, 2)
    assert law.applicable
    kappas = kappa_sequence(ta, 80)
    for n in range(1, 81):
        assert law.predicted_ord(n) == ord_p(kappas[n - 1], 2)


def test_measure_unchanged_by_vanishing_factor():
    # the (t-1)**e factor of I carries measure 1
    for vg in (bouquet(1, 2), bouquet(3, 5), dumbbell(1, 2), dumbbell(2, 3)):
        ta = analyze(vg)
        mi = mahler_archimedean(ta.i_poly).log_value
        mj = mahler_archimedean(ta.j_poly).log_value
        assert abs(mi - mj) < 1e-9


def test_padic_asymptotic_only_boundary_primes_qualify():
    rng = random.Random(59)
    from ihara_towers.padic_engine import newton_polygon

    for _ in range(100):
        f = random_int_poly(rng, max_degree=6)
        if f.degree < 1 or f.coeffs[0] == 0:
            continue
        for p in (2, 3, 5):
            if f.coeffs[0] % p and f.lead % p:
                assert newton_polygon(f, p).slope_zero_length == f.degree


def _sweep_plan_j_polys(seeds):
    """The J of every base of the benchmark's sweep plans at these seeds."""
    spec = importlib.util.spec_from_file_location("_sweep_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    return [analyze(graph_from_json(doc)).j_poly
            for seed in seeds for doc in workloads.build("sweep", seed).graphs.values()]


def _memo_cases():
    """(f, seed) pairs: sweep J, Lehmer's polynomial and its square, palindromes
    with unit-circle roots, roots at 0 and +-1, and polynomials that are not
    palindromic."""
    rng = random.Random(2401)
    cases = [(j, 0) for j in _sweep_plan_j_polys((1, 2, 3))]
    cases += [(LEHMER, 0), (LEHMER * LEHMER, 1)]
    # t**2 - c t + 1 with |c| < 2 has both roots on the unit circle
    circle = [IntPoly((1, c, 1)) for c in (-1, 0, 1)]
    cases += [(random_self_reciprocal(rng, max_half_degree=5) * rng.choice(circle), rng.randrange(3))
              for _ in range(40)]
    trivial = [IntPoly((0, 1)), IntPoly((-1, 1)), IntPoly((1, 1))]
    for _ in range(30):
        f = random_int_poly(rng, max_degree=5)
        for _ in range(rng.randint(1, 4)):
            f = f * rng.choice(trivial)
        cases.append((f, rng.randrange(3)))
    while len(cases) < 215:
        f = random_int_poly(rng, max_degree=8)
        if f.coeffs != f.coeffs[::-1]:
            cases.append((f, rng.randrange(3)))
    return cases


def test_memoised_measure_equals_the_uncached_body():
    cases = _memo_cases()
    assert len(cases) >= 200
    for f, seed in cases:
        fresh = _mahler_archimedean.__wrapped__(f.coeffs, seed)
        for _ in range(2):  # a miss, then a hit
            m = mahler_archimedean(f, seed=seed)
            assert (m.value, m.log_value) == (fresh.value, fresh.log_value), (f, seed)


def test_measure_memo_keys_on_the_seed_and_keeps_no_error(monkeypatch):
    import ihara_towers.mahler as mahler

    assert _mahler_archimedean.cache_info().maxsize == 256
    _mahler_archimedean.cache_clear()
    f = IntPoly((2, -3, 5, 1))
    first = mahler_archimedean(f, seed=0)
    assert mahler_archimedean(f, seed=0) is first
    mahler_archimedean(f, seed=1)
    info = _mahler_archimedean.cache_info()
    assert (info.currsize, info.hits, info.misses) == (2, 1, 2)

    # a failed root iteration is not memoised, so it fails on every call
    calls = []

    def diverge(coeffs, tol, rng):
        calls.append(coeffs)
        raise TowerError("root iteration did not converge within the restart budget")

    monkeypatch.setattr(mahler, "_aberth_roots", diverge)
    g = IntPoly((3, 1, 4, 1, 5))
    for _ in range(2):
        try:
            mahler_archimedean(g)
            assert False
        except TowerError:
            pass
    assert len(calls) == 2 and _mahler_archimedean.cache_info().currsize == 2


def test_the_measure_builds_no_sturm_chain(monkeypatch):
    # the J of a tower has no unit-circle root, so the measure counts none
    import ihara_towers.mahler as mahler

    js = _sweep_plan_j_polys((1,)) + [LEHMER, LEHMER * LEHMER, IntPoly((3, 1, 4, 1, 5))]
    towers = [analyze(vg) for vg in (bouquet(3, 5), dumbbell(2, 3), bouquet(1, 2))]
    _mahler_archimedean.cache_clear()
    expected = ([mahler_archimedean(j) for j in js],
                [archimedean_asymptotic(ta) for ta in towers])

    def refuse(*args):
        raise AssertionError(f"unit-circle work on {args}")

    _mahler_archimedean.cache_clear()
    monkeypatch.setattr(mahler, "_sturm_count_open", refuse)
    monkeypatch.setattr(mahler, "count_unit_circle_roots", refuse)
    assert ([mahler_archimedean(j) for j in js],
            [archimedean_asymptotic(ta) for ta in towers]) == expected
    assert [law.rate for law in expected[1]] == [
        mahler_archimedean(ta.j_poly).log_value for ta in towers]


def test_seed_must_be_an_int():
    ta = analyze(bouquet(1, 2))
    before = _mahler_archimedean.cache_info()
    for seed in (True, False, 1.0, 0.5, "1", b"1", bytearray(b"1"), None, [0]):
        for call in (lambda: mahler_archimedean(ta.j_poly, seed=seed),
                     lambda: archimedean_asymptotic(ta, seed=seed)):
            try:
                call()
                assert False, seed
            except ValueError as exc:
                assert "is not an integer" in str(exc), seed
    after = _mahler_archimedean.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)
    # the zero check still comes first
    try:
        mahler_archimedean(IntPoly(()), seed=True)
        assert False
    except ValueError as exc:
        assert "zero polynomial" in str(exc)
    assert (archimedean_asymptotic(ta, seed=2**70).rate
            == mahler_archimedean(ta.j_poly, seed=2**70).log_value)


class _GivenDraws:
    """An rng whose draws are given, then 0.25: draws 2.0 and 0.0 put the
    first two start points on one angle, so they coincide."""

    def __init__(self, draws):
        self._draws = iter(draws)

    def random(self):
        return next(self._draws, 0.25)


def _measured_coeffs(f):
    """The coefficients that mahler_archimedean hands to the root iteration."""
    return [float(c) for c in _strip_trivial_roots(f)[0].coeffs]


def _aberth_cases():
    """(coefficients, tol) pairs: tower J of degree 12-28, polynomials that are
    not palindromic, palindromes, Lehmer's polynomial and products with
    cyclotomic polynomials, at _ROOT_TOL; and at tol 1e-16, inputs of degree
    4-6 on which the iteration uses up every restart."""
    rng = random.Random(3701)
    cases = []
    while len(cases) < 20:
        if rng.random() < 0.7:
            vmax = rng.randint(7, 15)  # deg J = 2 vmax - 2 for a bouquet
            vg = bouquet(rng.choice((-vmax, vmax)),
                         *(rng.randint(-vmax, vmax) for _ in range(rng.randint(1, 2))))
        else:
            vg = dumbbell(rng.randint(-8, 8), rng.randint(-8, 8))
        try:
            j = analyze(vg).j_poly
        except TowerError:  # monodromy index above 1
            continue
        if 12 <= j.degree <= 28:
            cases.append((_measured_coeffs(j), _ROOT_TOL))
    while len(cases) < 590:
        # degrees weighted to the low end, which keeps the test short
        f = random_int_poly(rng, max_degree=30 if rng.random() < 0.15 else rng.randint(1, 20))
        if f.degree >= 1 and f.coeffs != f.coeffs[::-1]:
            cases.append(([float(c) for c in f.coeffs], _ROOT_TOL))
    for _ in range(300):
        f = random_self_reciprocal(rng, max_half_degree=rng.randint(1, 8))
        cases.append(([float(c) for c in f.coeffs], _ROOT_TOL))
    cases.append(([float(c) for c in LEHMER.coeffs], _ROOT_TOL))
    while len(cases) < 1000:
        # roots of unity, +-1 (Phi_1, Phi_2) among them, left in: a repeated
        # root slows the iteration to the full 400 sweeps
        f = rng.choice((LEHMER, random_int_poly(rng, max_degree=4), random_self_reciprocal(rng, 2)))
        for _ in range(rng.randint(1, 2)):
            f = f * cyclotomic_polynomial(rng.randint(1, 12))
        if 1 <= f.degree <= 12:
            cases.append(([float(c) for c in f.coeffs], _ROOT_TOL))
    exhausting = 0
    while exhausting < 10:
        coeffs = [float(c) for c in random_int_poly(rng, max_degree=6).coeffs]
        if len(coeffs) >= 5:
            try:
                reference_aberth_roots(coeffs, 1e-16, random.Random(0))
            except TowerError:
                cases.append((coeffs, 1e-16))
                exhausting += 1
    return cases


def _aberth_outcome(roots_fn, coeffs, tol, rng):
    """The roots bit for bit, or the exception's type and message."""
    try:
        roots = roots_fn(list(coeffs), tol, rng)
    except Exception as exc:
        return type(exc), str(exc)
    return [(z.real.hex(), z.imag.hex()) for z in roots]


def test_aberth_roots_equal_the_reference_bit_for_bit():
    # the golden digests round floats to 10 digits: this is the full-precision guard
    cases = _aberth_cases()
    assert len(cases) >= 1000
    for coeffs, tol in cases:
        for seed in (0, 5):
            rngs = random.Random(seed), random.Random(seed)
            outcomes = [_aberth_outcome(fn, coeffs, tol, r)
                        for fn, r in zip((_aberth_roots, reference_aberth_roots), rngs)]
            assert outcomes[0] == outcomes[1], (coeffs, tol, seed)
            assert rngs[0].getstate() == rngs[1].getstate(), (coeffs, tol, seed)

    # two start points on one angle: the Aberth sum meets a zero difference
    for coeffs in ([1.0, 2.0, -3.0, 1.0], [float(c) for c in LEHMER.coeffs]):
        outcomes = [_aberth_outcome(fn, coeffs, _ROOT_TOL, _GivenDraws([2.0, 0.0]))
                    for fn in (_aberth_roots, reference_aberth_roots)]
        assert outcomes[0] == outcomes[1] and isinstance(outcomes[0], list), coeffs

    # coefficients whose powers overflow; bouquet 1 160 (deg J 318) overflows
    # in the iteration, and both fail with the same error
    b160 = analyze(generate_family("bouquet", [1, 160])).j_poly
    for coeffs in ([1e300, 1.0, 1e-300], [1.0, 0.0, 0.0, 0.0, 1e-300], _measured_coeffs(b160)):
        outcomes = [_aberth_outcome(fn, coeffs, _ROOT_TOL, random.Random(0))
                    for fn in (_aberth_roots, reference_aberth_roots)]
        assert outcomes[0] == outcomes[1], coeffs
    assert outcomes[0] == (TowerError, "root iteration did not converge within the restart budget")

    # t**3 - 1e102 t**2 - 1 starts on a finite circle, and at both seeds a root
    # overflows to NaN while an earlier one still moves, so the next sweep
    # evaluates p at a non-finite point: the one case where starting Horner at
    # lead(p) = 1 and at 0j * z + 1 differ, and both give a NaN step
    for seed in (0, 5):
        outcomes = [_aberth_outcome(fn, [-1.0, 0.0, -1e102, 1.0], _ROOT_TOL, random.Random(seed))
                    for fn in (_aberth_roots, reference_aberth_roots)]
        assert outcomes[0] == outcomes[1], seed
