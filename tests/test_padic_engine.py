import itertools
import random
from collections import Counter
from fractions import Fraction

from corpus import bouquet, fib, ord_p, random_int_poly

from ihara_towers.errors import PrecisionExhausted
from ihara_towers.ihara import analyze, pierce_lehmer
from ihara_towers.padic_engine import (
    NewtonPolygon,
    factor_mod_p,
    friedman_laws,
    iwasawa_invariants,
    lambda_for_n,
    multiplicative_order,
    newton_polygon,
    nu_from_oracle,
    nu_structural,
    ord_delta_exact,
    padic_report,
    sequence_classes,
    unit_root_structure,
    washington_invariants,
)
from ihara_towers.polyring import IntPoly

J_FIB = IntPoly((-1, -3, -1))


# -- Newton polygons ---------------------------------------------------------


def test_newton_polygon_examples():
    np1 = newton_polygon(IntPoly((1, 3, 1)), 5)
    assert np1.segments == ((Fraction(0), 2),)
    np2 = newton_polygon(IntPoly((5, 1, 5)), 5)
    assert [s for s, _ in np2.segments] == [Fraction(-1), Fraction(1)]
    assert np2.slope_zero_length == 0
    np3 = newton_polygon(IntPoly((0, 0, 0, 1)), 3)
    assert np3.segments == () and np3.slope_zero_length == 0


def test_newton_polygon_slope_minus_one_for_halving_root():
    # 2t - 1 has the single root 1/2, valuation -1 at p = 2
    np1 = newton_polygon(IntPoly((-1, 2)), 2)
    assert np1.segments == ((Fraction(1), 1),)
    assert np1.slope_zero_length == 0


# -- factorization over F_p ----------------------------------------------------


def test_factor_mod_p_examples():
    assert factor_mod_p(IntPoly((1, 3, 1)), 2) == [(IntPoly((1, 1, 1)), 1)]
    assert factor_mod_p(IntPoly((1, 3, 1)), 5) == [(IntPoly((4, 1)), 2)]
    assert factor_mod_p(IntPoly((-1, 0, 1)), 7) == [
        (IntPoly((1, 1)), 1),
        (IntPoly((6, 1)), 1),
    ]


def test_factor_mod_p_reconstructs_and_is_deterministic():
    rng = random.Random(61)
    for _ in range(120):
        f = random_int_poly(rng, max_degree=8)
        p = rng.choice((2, 3, 5, 7, 13))
        if all(c % p == 0 for c in f.coeffs):
            continue
        factors = factor_mod_p(f, p)
        assert factors == factor_mod_p(f, p)
        product = IntPoly((1,))
        for g, mult in factors:
            assert g.lead == 1
            for _ in range(mult):
                product = product * g
        lead = next(c % p for c in reversed(f.coeffs) if c % p)
        recon = [c % p for c in (product * lead).coeffs]
        orig = [c % p for c in f.coeffs]
        while orig and orig[-1] == 0:
            orig.pop()
        assert recon == orig


def _fp_divides(g, f, p):
    """(quotient, True) when the monic g divides f in F_p[t], else (None, False).

    Both are ascending coefficient lists with entries in [0, p)."""
    r = list(f)
    q = [0] * (len(f) - len(g) + 1)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = r[k + len(g) - 1]
        for i, x in enumerate(g):
            r[k + i] = (r[k + i] - c * x) % p
    if any(r[: len(g) - 1]):
        return None, False
    return q, True


def _factor_by_trial_division(f, p):
    """Monic irreducible factors of f mod p, for deg f <= 6.

    Trial division by every monic polynomial of degree 1, 2, 3 in turn: a
    divisor met at degree d has no factor of lower degree, so it is
    irreducible, and a cofactor of degree <= 6 left without a factor of
    degree <= 3 is irreducible too."""
    fp = [c % p for c in f.coeffs]
    while fp[-1] == 0:
        fp.pop()
    inv = pow(fp[-1], p - 2, p)
    fp = [c * inv % p for c in fp]
    factors = Counter()
    for d in (1, 2, 3):
        for tail in itertools.product(range(p), repeat=d):
            g = list(tail) + [1]
            while len(fp) - 1 >= d:
                q, divides = _fp_divides(g, fp, p)
                if not divides:
                    break
                fp = q
                factors[tuple(g)] += 1
    if len(fp) > 1:
        factors[tuple(fp)] += 1
    return sorted(
        ((IntPoly(g), m) for g, m in factors.items()),
        key=lambda fm: (fm[0].degree, fm[0].coeffs),
    )


def test_factor_mod_p_matches_trial_division():
    rng = random.Random(67)
    checked = repeated = 0
    while checked < 300:
        p = rng.choice((2, 3, 5))
        if rng.random() < 0.4:
            # square factors exercise the squarefree decomposition
            g = random_int_poly(rng, max_degree=2)
            f = g * g * random_int_poly(rng, max_degree=2)
        else:
            f = random_int_poly(rng, max_degree=6)
        if f.degree > 6 or all(c % p == 0 for c in f.coeffs):
            continue
        expected = _factor_by_trial_division(f, p)
        assert factor_mod_p(f, p) == expected, (f, p)
        checked += 1
        repeated += any(m > 1 for _, m in expected)
    assert repeated > 30


# -- multiplicative orders -----------------------------------------------------


def test_multiplicative_order_examples():
    assert multiplicative_order(IntPoly((1, 1, 1)), 2) == 3
    assert multiplicative_order(IntPoly((-1, 1)), 5) == 1
    assert multiplicative_order(IntPoly((-2, 1)), 7) == 3


def test_multiplicative_order_rejects_zero_root():
    try:
        multiplicative_order(IntPoly((0, 1)), 5)
        assert False
    except ValueError:
        pass


# -- unit root structure ---------------------------------------------------------


def test_unit_root_structure_fibonacci():
    s2 = unit_root_structure(J_FIB, 2)
    assert not s2.ramified
    assert len(s2.factors) == 1
    f = s2.factors[0]
    assert f.poly == IntPoly((1, 1, 1)) and f.degree == 2 and f.order == 3

    s5 = unit_root_structure(J_FIB, 5)
    assert s5.ramified
    f = s5.factors[0]
    assert f.poly == IntPoly((4, 1)) and f.multiplicity == 2 and f.order == 1


def test_unit_root_structure_full_degree_when_squarefree():
    j35 = analyze(bouquet(3, 5)).j_poly
    found = False
    for p in (3, 5, 7, 11, 13):
        s = unit_root_structure(j35, p)
        assert s.unit_root_count == 8  # unit lead and constant coefficient
        if not s.ramified:
            found = True
            assert sum(f.degree for f in s.factors) == 8
    assert found


# -- lambda / nu paths -------------------------------------------------------------


def test_ord_delta_exact_examples():
    assert ord_delta_exact(J_FIB, 2, 6) == 6  # ord2(5 * 8**2)
    assert ord_delta_exact(J_FIB, 5, 5) == 3  # ord5(5 * 5**2)
    f = IntPoly((3, 1, 2))
    assert ord_delta_exact(f, 3, 1) == ord_p(pierce_lehmer(f, 1), 3)


def test_lambda_for_n():
    s = unit_root_structure(J_FIB, 2)
    assert lambda_for_n(s, 6, e=2) == 3
    assert lambda_for_n(s, 4, e=2) == 1
    assert lambda_for_n(s, 3) == 2
    assert lambda_for_n(s, 3 * 7, e=2) == s.unit_root_count + 1


def test_nu_structural_fibonacci_p2():
    s = unit_root_structure(J_FIB, 2)
    for n in (3, 9, 15, 21):
        assert nu_structural(s, n) == 2
    for n in (6, 12, 24, 60):
        assert nu_structural(s, n) == 4


def test_nu_structural_fibonacci_p7():
    # rank of apparition of 7 is 8, and ord7(F_8) = 1
    s = unit_root_structure(J_FIB, 7)
    assert s.factors[0].order == 8
    assert nu_structural(s, 8) == 2 * ord_p(fib(8), 7)
    assert nu_structural(s, 5) == 0


def test_nu_structural_ramified_unavailable():
    assert nu_structural(unit_root_structure(J_FIB, 5), 5) is None


def test_nu_structural_precision_escalation():
    # root 1 + 2**40 needs more than 32 dyadic digits to separate from 1
    f = IntPoly((-(1 + 2 ** 40), 1))
    s = unit_root_structure(f, 2)
    assert nu_structural(s, 3) == 40
    # LTE check: ord2((1 + 2**40)**n - 1) = 40 + ord2(n)
    assert ord_delta_exact(f, 2, 6) == 41


def test_precision_cap_raises_precision_exhausted():
    # root 1 + 2**600 stays congruent to 1 beyond the 512-digit cap
    try:
        unit_root_structure(IntPoly((-(1 + 2 ** 600), 1)), 2)
        assert False
    except PrecisionExhausted:
        pass


def test_nu_oracle_examples():
    assert nu_from_oracle(J_FIB, 5, 1, 0, 2) == 1
    assert nu_from_oracle(J_FIB, 2, 2, 0, 0) == 0


def test_nu_oracle_matches_structural_when_unramified():
    for p in (2, 3, 7, 11, 13):
        s = unit_root_structure(J_FIB, p)
        if s.ramified:
            continue
        for n in range(1, 40):
            lam = lambda_for_n(s, n)
            assert nu_from_oracle(J_FIB, p, n, 0, lam) == nu_structural(s, n)


# -- tower-level reports ------------------------------------------------------------


def test_padic_report_fibonacci_small():
    ta = analyze(bouquet(1, 2))
    rp = padic_report(ta, 2, 60)
    assert rp.mu == 0 and rp.c == 0 and rp.R == 1
    for n in range(1, 61):
        row = rp.per_n[n]
        assert row.source == "structural"
        derived = (row.ord - ord_p(n, 2) if n % 2 == 0 else row.ord) // 2
        f2 = ord_p(fib(n), 2)
        assert derived == f2


def test_padic_report_fibonacci_p5():
    ta = analyze(bouquet(1, 2))
    rp = padic_report(ta, 5, 60)
    assert rp.c == -1 and rp.structure.ramified and rp.R is None
    for n in range(1, 61):
        ord_f = (rp.per_n[n].ord - (ord_p(n, 5) if n % 5 == 0 else 0)) // 2
        assert ord_f == (ord_p(n, 5) if n % 5 == 0 else 0)


def test_iwasawa_invariants_examples():
    assert iwasawa_invariants(J_FIB, 2) == (0, 0, 0, 1)
    assert iwasawa_invariants(J_FIB, 5) == (0, 2, 1, 0)
    for p in (3, 7):
        mu, lam, nu, k0 = iwasawa_invariants(IntPoly((-1 - p, 1)), p)
        assert (mu, lam, nu, k0) == (0, 1, 1, 0)
        for k in range(0, 4):
            assert ord_delta_exact(IntPoly((-1 - p, 1)), p, p ** k) == k + 1


def test_washington_invariants_examples():
    assert washington_invariants(J_FIB, 2, 3) == (0, 2, 1)
    assert washington_invariants(J_FIB, 2, 5) == (0, 0, 0)
    # empty unit part: pure mu law
    f = IntPoly((-1, 2))
    mu, nu, k0 = washington_invariants(f, 2, 3)
    assert (mu, nu, k0) == (0, 0, 0)


def test_sequence_classes_fibonacci_p2():
    ta = analyze(bouquet(1, 2))
    classes = {(c.orders, c.r): (c.lam, c.nu) for c in sequence_classes(ta, 2, n_max=120)}
    assert classes[((), 0)] == (1, 0)
    assert classes[((), 1)] == (1, 0)
    assert classes[((3,), 0)] == (3, 2)
    assert classes[((3,), 1)] == (3, 4)


def test_sequence_classes_cover_and_predict():
    ta = analyze(bouquet(3, 5))
    for p in (2, 3, 5, 7):
        classes = sequence_classes(ta, p, n_max=80)
        rp = padic_report(ta, p, 80)
        order_set = sorted({f.order for f in rp.structure.factors})
        R = max(c.r for c in classes) if classes else 0
        table = {(c.orders, c.r): (c.lam, c.nu) for c in classes}
        for n in range(1, 81):
            subset = tuple(N for N in order_set if n % N == 0)
            ordn = ord_p(n, p) if n % p == 0 else 0
            lam, nu = table[(subset, min(ordn, R))]
            assert rp.per_n[n].ord == rp.mu * n + lam * ordn + nu


def test_friedman_laws_fibonacci():
    laws = friedman_laws(J_FIB, 7, (2, 3), bound=5000)
    for ell in (2, 3):
        law = laws[ell]
        for n, exps in _semigroup(2, 3, 5000):
            if exps[0] < law.min_exponents[0] or exps[1] < law.min_exponents[1]:
                continue
            k = exps[0] if ell == 2 else exps[1]
            assert ord_p(pierce_lehmer(J_FIB, n), ell) == law.mu * n + law.lam * k + law.nu
    outside = laws[7]
    assert outside.lam == 0
    for n, exps in _semigroup(2, 3, 5000):
        if exps[0] < outside.min_exponents[0] or exps[1] < outside.min_exponents[1]:
            continue
        assert ord_p(pierce_lehmer(J_FIB, n), 7) == outside.mu * n + outside.nu


def test_friedman_degenerate_single_prime_is_washington():
    mu_w, nu_w, k0 = washington_invariants(J_FIB, 2, 3)
    laws = friedman_laws(J_FIB, 2, (3,), bound=3000)
    law = laws[2]
    assert law.mu == mu_w and law.lam == 0 and law.nu == nu_w
    assert law.min_exponents[0] >= k0


def _semigroup(a, b, bound):
    out = []
    x, i = 1, 0
    while x <= bound:
        y, j = x, 0
        while y <= bound:
            out.append((y, (i, j)))
            y *= b
            j += 1
        x *= a
        i += 1
    return sorted(out)


# -- structural properties -----------------------------------------------------


def test_lambda_constant_along_p_power_subsequences():
    for p in (2, 3, 7):
        s = unit_root_structure(J_FIB, p)
        values = {lambda_for_n(s, p ** k) for k in range(1, 6)}
        assert values == {lambda_for_n(s, 1)}


def test_no_unit_part_means_pure_content_growth():
    # slope-zero segment empty: ord_p(D_n) == mu * n for every n
    cases = [(IntPoly((-1, 2)), 2), (IntPoly((-2, 4)), 2), (IntPoly((-1, 0, 3)), 3)]
    rng = random.Random(71)
    while len(cases) < 12:
        f = random_int_poly(rng, max_degree=4)
        p = rng.choice((2, 3, 5))
        if f.degree < 1 or f.coeffs[0] == 0:
            continue
        if newton_polygon(f, p).slope_zero_length == 0:
            cases.append((f, p))
    for f, p in cases:
        mu = min(ord_p(c, p) for c in f.coeffs if c)
        assert newton_polygon(f, p).slope_zero_length == 0
        for n in range(1, 25):
            assert ord_delta_exact(f, p, n) == mu * n


def test_unit_factor_contributes_only_on_multiples():
    # the order-3 class of the Fibonacci factor is invisible unless 3 | n
    for n in range(1, 40):
        if n % 3:
            assert ord_delta_exact(J_FIB, 2, n) == 0
        else:
            assert ord_delta_exact(J_FIB, 2, n) >= 2


def test_structural_identity_random_battery():
    # structural decomposition against direct integer valuations, on random
    # polynomials with content, mixed Newton slopes, and several primes
    from ihara_towers.polyring import vanishes_at_root_of_unity
    from ihara_towers.padic_engine import content_valuation, valuation

    rng = random.Random(2024)
    checked = 0
    for _ in range(150):
        f = random_int_poly(rng, max_degree=7, bound=40)
        p = rng.choice((2, 3, 5, 7))
        if f.degree < 1 or f.coeffs[0] == 0 or vanishes_at_root_of_unity(f):
            continue
        s = unit_root_structure(f, p)
        if s.ramified:
            continue
        mu = content_valuation(f, p)
        for n in list(range(1, 25)) + [48]:
            delta = pierce_lehmer(f, n)
            lam = lambda_for_n(s, n)
            nu = nu_structural(s, n)
            ordn = valuation(n, p) if n % p == 0 else 0
            ordd = valuation(delta, p) if delta % p == 0 else 0
            assert mu * n + lam * ordn + nu == ordd, (f, p, n)
            checked += 1
    assert checked > 500


def test_structural_path_rejects_roots_of_unity():
    f = IntPoly((27, 15, 13, -15, -31, -2, -2, -5))  # f(1) == 0
    try:
        unit_root_structure(f, 3)
        assert False
    except ValueError:
        pass


def test_unit_root_invariant_raises_package_error(monkeypatch):
    # a broken invariant raises VerificationMismatch, which python -O keeps
    import ihara_towers.padic_engine as padic_engine
    from ihara_towers.errors import VerificationMismatch

    monkeypatch.setattr(
        padic_engine, "newton_polygon", lambda f, p: NewtonPolygon(p, (), ((Fraction(0), 1),))
    )
    try:
        unit_root_structure(J_FIB, 2)
        assert False
    except VerificationMismatch as exc:
        assert "Newton polygon" in str(exc)
