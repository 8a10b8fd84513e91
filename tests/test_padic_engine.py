import itertools
import os
import random
import subprocess
import sys
import time
from collections import Counter
from math import gcd
from pathlib import Path

import pytest

from corpus import (
    acceptance_towers,
    bouquet,
    dumbbell,
    fib,
    ord_p,
    padic_report_per_n,
    random_int_poly,
    random_self_reciprocal,
    random_tower,
    reference_factor_mod_p,
    vanishes_at_root_of_unity,
)

import ihara_towers
from ihara_towers.errors import OrderUnavailable, PrecisionExhausted, ResourceLimit, TowerError
from ihara_towers.ihara import MAX_BITS_ENV, analyze, kappa_sequence, pierce_lehmer
from ihara_towers.mahler import _mahler_archimedean, mahler_padic
from ihara_towers.padic_engine import (
    FriedmanLaw,
    NewtonPolygon,
    UnitFactor,
    UnitRootStructure,
    _ModRing,
    _factor_integer,
    _factor_p_power_minus_one,
    _gf_divmod,
    _gf_reciprocal,
    _gf_sub,
    _gf_trim,
    _pierce_lehmer_memo,
    _unit_root_structure,
    factor_mod_p,
    friedman_laws,
    is_prime,
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
    valuation,
    washington_invariants,
)
from ihara_towers.polyring import (
    IntPoly,
    _mul,
    cyclotomic_polynomial,
    euler_phi,
    pseudo_rem,
)
from ihara_towers.primes import _strong_lucas_probable_prime, content_valuation
from ihara_towers.towers_cli import build_parser
from ihara_towers.voltage_cover import voltaged_graph

J_FIB = IntPoly((-1, -3, -1))
LEHMER = IntPoly((1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1))


# -- Newton polygons ---------------------------------------------------------


def test_newton_polygon_examples():
    # each segment is (rise, length) of ints, its slope rise / length
    np1 = newton_polygon(IntPoly((1, 3, 1)), 5)
    assert np1.segments == ((0, 2),) and np1.slope_zero_length == 2
    np2 = newton_polygon(IntPoly((5, 1, 5)), 5)
    assert np2.segments == ((-1, 1), (1, 1))
    assert np2.slope_zero_length == 0
    np3 = newton_polygon(IntPoly((0, 0, 0, 1)), 3)
    assert np3.segments == () and np3.slope_zero_length == 0
    # a segment over two points is not reduced: (-2, 2), slope -1
    np4 = newton_polygon(IntPoly((4, 0, 1, 2)), 2)
    assert np4.vertices == ((0, 2), (2, 0), (3, 1)) and np4.segments == ((-2, 2), (1, 1))
    assert all(type(x) is int for segment in np4.segments for x in segment)


def test_newton_polygon_slope_minus_one_for_halving_root():
    # 2t - 1 has the single root 1/2, valuation -1 at p = 2
    np1 = newton_polygon(IntPoly((-1, 2)), 2)
    assert np1.segments == ((1, 1),)
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
    """Monic irreducible factors of f mod p.

    Trial division by every monic polynomial of degree 1, 2, ..., deg f // 2
    in turn: a divisor met at degree d has no factor of lower degree, so it
    is irreducible, and a cofactor left without a factor of degree up to
    deg f // 2 is irreducible too."""
    fp = [c % p for c in f.coeffs]
    while fp[-1] == 0:
        fp.pop()
    inv = pow(fp[-1], p - 2, p)
    fp = [c * inv % p for c in fp]
    factors = Counter()
    for d in range(1, (len(fp) - 1) // 2 + 1):
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
    # palindromes, which factor_mod_p takes through their trace polynomial:
    # Lehmer's at p = 2, and J_FIB (t - 1)**2 at p = 3, whose factor t - 1
    # comes from s - 2
    ramified = J_FIB * IntPoly((1, -2, 1))
    assert factor_mod_p(LEHMER, 2) == _factor_by_trial_division(LEHMER, 2)
    assert factor_mod_p(ramified, 3) == _factor_by_trial_division(ramified, 3)
    assert (IntPoly((2, 1)), 2) in factor_mod_p(ramified, 3)
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


@pytest.mark.sympy
def test_factor_mod_p_matches_sympy():
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_factor, gf_from_int_poly

    rng = random.Random(71)
    kinds = Counter()
    for _ in range(1200):
        p = rng.choice((2, 2, 3, 3, 5, 7, 11, 13, 31))
        kind = rng.choice(("plain", "plain", "square", "pth power"))
        if kind == "square":
            g = random_int_poly(rng, max_degree=4, bound=30)
            f = g * g * random_int_poly(rng, max_degree=5, bound=30)
        elif kind == "pth power":
            # f(t) = h(t**p) times a cofactor that is often a constant
            h = random_int_poly(rng, max_degree=max(1, 12 // p), bound=30)
            f = IntPoly([c for hc in h.coeffs for c in (hc,) + (0,) * (p - 1)])
            f = f * random_int_poly(rng, max_degree=2, bound=30)
        else:
            f = random_int_poly(rng, max_degree=14, bound=30)
        if all(c % p == 0 for c in f.coeffs):
            continue
        _, factors = gf_factor(gf_from_int_poly(f.coeffs[::-1], p), p, ZZ)
        expected = sorted(((IntPoly(g[::-1]), m) for g, m in factors),
                          key=lambda fm: (fm[0].degree, fm[0].coeffs))
        assert factor_mod_p(f, p) == expected, (f, p)
        kinds[kind] += 1
        kinds["p = 2"] += p == 2
        kinds["p = 3"] += p == 3
        kinds["repeated factor"] += any(m > 1 for _, m in expected)
        kinds["f' = 0 mod p"] += all(i * c % p == 0 for i, c in enumerate(f.coeffs))
    assert sum(kinds[k] for k in ("plain", "square", "pth power")) >= 1000
    assert min(kinds.values()) > 100, kinds

    # palindromes of even degree, factored through their trace polynomial:
    # a factor t -+ 1 comes from s -+ 2 (ramified), a factor g other than
    # its monic reciprocal g* from a reducible H = g g*, and a self-reciprocal
    # g of degree > 1 from an irreducible H
    kinds = Counter()
    while kinds["palindromes"] < 400:
        p = rng.choice((2, 2, 2, 3, 3, 5, 7, 11, 13, 31))
        f = random_self_reciprocal(rng, max_half_degree=7, bound=30)
        if rng.random() < 0.3:
            f = f * IntPoly(rng.choice(((1, -2, 1), (1, 2, 1))))
        if f.lead % p == 0:  # f mod p would not be palindromic
            continue
        _, factors = gf_factor(gf_from_int_poly(f.coeffs[::-1], p), p, ZZ)
        expected = sorted(((IntPoly(g[::-1]), m) for g, m in factors),
                          key=lambda fm: (fm[0].degree, fm[0].coeffs))
        assert factor_mod_p(f, p) == expected, (f, p)
        mates = [_gf_reciprocal(g.coeffs, p) == g.coeffs for g, _ in expected]
        kinds["palindromes"] += 1
        kinds["p = 2"] += p == 2
        kinds["ramified (s -+ 2)"] += any(g.coeffs in ((1, 1), (p - 1, 1)) for g, _ in expected)
        kinds["reducible H"] += not all(mates)
        kinds["irreducible H"] += any(
            mate and g.degree > 1 for mate, (g, _) in zip(mates, expected))
    assert min(kinds.values()) > 50, kinds


# -- primes ----------------------------------------------------------------------


@pytest.mark.sympy
def test_is_prime_matches_sympy():
    from sympy import isprime

    for n in range(-5, 200_000):
        assert is_prime(n) == isprime(n), n
    rng = random.Random(61)
    for _ in range(20_000):
        n = rng.getrandbits(rng.randint(2, 100)) | 1
        assert is_prime(n) == isprime(n), n


def test_is_prime_strong_pseudoprimes_and_mersenne_primes():
    # strong pseudoprimes to the prime bases up to 7, 31 and 37 (psi_4,
    # psi_11, psi_12), and psi_13 to all of 2..41, which sympy decides
    for n in (3215031751, 3825123056546413051, 318665857834031151167461,
              3317044064679887385961981):
        assert not is_prime(n), n
    assert is_prime(2**89 - 1) and is_prime(2**127 - 1)


@pytest.mark.sympy
def test_is_prime_bpsw_matches_sympy():
    # above psi_13 both run strong BPSW; is_prime adds Miller-Rabin bases 3..41
    from sympy import isprime, nextprime

    rng = random.Random(89)
    for _ in range(5000):
        n = rng.getrandbits(rng.randint(82, 256)) | 1
        assert is_prime(n) == isprime(n), n
    for _ in range(300):
        q = nextprime(rng.getrandbits(rng.randint(6, 128)))
        r = nextprime(rng.getrandbits(rng.randint(82, 128)))
        assert is_prime(r) and isprime(r), r
        assert not is_prime(q * r) and not isprime(q * r), (q, r)
    assert not is_prime(r * r)


def test_valuation_at_two_counts_trailing_zero_bits():
    # at p = 2 the valuation reads the lowest set bit; ord_p is the division loop
    rng = random.Random(3703)
    values = [1, 2, 3, 2**2000, 3 * 2**1999]
    values += [rng.getrandbits(rng.randint(1, 2000)) or 1 for _ in range(400)]
    values += [(rng.getrandbits(rng.randint(1, 64)) | 1) << rng.randint(0, 2000) for _ in range(200)]
    for n in values:
        for m in (n, -n):
            assert valuation(m, 2) == ord_p(m, 2), m
            assert valuation(m, 3) == ord_p(m, 3), m
    for p in (2, 3):
        try:
            valuation(0, p)
            assert False, p
        except ValueError as exc:
            assert str(exc) == "valuation of zero is infinite"
    for p in (1, 0, -2):
        try:
            valuation(8, p)
            assert False, p
        except ValueError as exc:
            assert str(exc) == f"{p} is not prime"


@pytest.mark.sympy
def test_strong_lucas_test_matches_sympy():
    # below psi_13 Miller-Rabin decides alone, so the Lucas half is checked
    # directly, on odd n with no prime factor up to 41 as is_prime hands it
    from sympy.ntheory.primetest import is_strong_lucas_prp

    passed = []
    for n in range(43, 60_000, 2):
        if gcd(n, 304250263527210) == 1:  # the product of the primes 2..41
            assert _strong_lucas_probable_prime(n) == is_strong_lucas_prp(n), n
            if _strong_lucas_probable_prime(n) and not is_prime(n):
                passed.append(n)
    # the strong Lucas pseudoprimes below 60000 (OEIS A217255), squares excluded
    assert passed == [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519]


def test_is_prime_never_imports_sympy():
    script = ("import sys\n"
              "from ihara_towers.padic_engine import is_prime\n"
              "print(is_prime(2**127 - 1), is_prime(3317044064679887385961981), "
              "'sympy' in sys.modules)")
    src = str(Path(ihara_towers.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "False", "False"]


# Primes of 80 bits p with (p - 1) / 2 prime: Pollard p - 1 learns nothing
# from them and rho would need about 2**40 steps.
SAFE_PRIMES_80 = (779104616247001073777123, 688395332917637777539343)


@pytest.mark.sympy
def test_factor_integer_matches_sympy():
    from sympy import factorint

    rng = random.Random(79)
    for _ in range(120):
        # at most one prime factor above 32 bits, which rho leaves for last
        bits = [rng.randint(2, 32) for _ in range(rng.randint(0, 3))]
        m = 1
        for b in bits + [rng.randint(2, 64)]:
            q = rng.getrandbits(b) | (1 << (b - 1))
            while not is_prime(q):
                q += 1
            m *= q ** rng.choice((1, 1, 2))
        assert _factor_integer(m) == factorint(m), m


@pytest.mark.sympy
def test_factor_integer_splits_perfect_powers():
    from sympy import factorint

    rng = random.Random(83)
    for _ in range(200):
        b = rng.randint(2, 64)
        q = rng.getrandbits(b) | (1 << (b - 1))
        while not is_prime(q):
            q += 1
        m = q ** rng.choice((2, 3, 5, 7)) * rng.choice((1, 1, 6, 9991, 10007))
        assert _factor_integer(m) == factorint(m), m


@pytest.mark.sympy
def test_factor_integer_on_cyclotomic_values():
    # Phi_d(p) for the prime p <= 31 and d <= 24: only two of the 251 values
    # keep two prime factors above 2**36 after trial division, and they may
    # exceed the effort bound
    from sympy import factorint

    hard = {949112181811268728834319677753, 154168597062479134669314941883571}
    values = {cyclotomic_polynomial(d)(p) for p in range(2, 32) if is_prime(p)
              for d in range(1, 25)}
    assert len(values) == 251
    for m in values:
        try:
            assert _factor_integer(m) == factorint(m), m
        except OrderUnavailable:
            assert m in hard, m


def test_factor_integer_effort_is_bounded():
    start = time.perf_counter()
    try:
        _factor_integer(SAFE_PRIMES_80[0] * SAFE_PRIMES_80[1])
        assert False
    except OrderUnavailable:
        pass
    assert time.perf_counter() - start < 10


def test_prime_arguments_are_not_coerced():
    for p in (2.0, 2.5, True, "3"):
        for call in (lambda: is_prime(p), lambda: mahler_padic(IntPoly((1, 1)), p)):
            try:
                call()
                assert False, p
            except ValueError as exc:
                assert str(exc) == f"{p} is not an integer"


# -- multiplicative orders -----------------------------------------------------


def test_multiplicative_order_examples():
    assert multiplicative_order(IntPoly((1, 1, 1)), 2) == 3
    assert multiplicative_order(IntPoly((-1, 1)), 5) == 1
    assert multiplicative_order(IntPoly((-2, 1)), 7) == 3
    # self-reciprocal factors, whose order divides p**(f/2) + 1: Phi_5 and
    # Phi_11 are irreducible mod 2 (11 divides 2**5 + 1), t**2 + 1 mod 3
    assert multiplicative_order(cyclotomic_polynomial(5), 2) == 5
    assert multiplicative_order(cyclotomic_polynomial(11), 2) == 11
    assert multiplicative_order(IntPoly((1, 0, 1)), 3) == 4


def test_multiplicative_order_rejects_zero_root():
    try:
        multiplicative_order(IntPoly((0, 1)), 5)
        assert False
    except ValueError:
        pass
    try:  # a residue factor that is constant mod p
        multiplicative_order(IntPoly((1, 3)), 3)
        assert False
    except ValueError as exc:
        assert str(exc) == "g must have positive degree modulo p"


def test_multiplicative_order_rejects_a_reducible_self_reciprocal_g():
    # (t - 2)(t - 4) mod 7, (t - 1)**2 mod 5 and (t - 2)(t - 3) mod 5: t**(p + 1) != 1
    for g, p in (((1, 1, 1), 7), ((1, 3, 1), 5), ((1, 0, 1), 5)):
        try:
            multiplicative_order(IntPoly(g), p)
            assert False, (g, p)
        except ValueError as exc:
            assert str(exc) == f"t**{p + 1} != 1, so g is not irreducible mod p"


def _order_by_repeated_multiplication(g, p):
    """Least k >= 1 with t**k = 1 in F_p[t]/(g), for monic g with g(0) != 0."""
    one = [1] + [0] * (g.degree - 1)
    x = one
    k = 0
    while True:
        # x <- t * x mod g: shift up, then subtract the top coefficient times g
        top = x[-1]
        x = [(c - top * gc) % p for c, gc in zip([0] + x[:-1], g.coeffs)]
        k += 1
        if x == one:
            return k


def test_multiplicative_order_matches_brute_force():
    rng = random.Random(73)
    checked = Counter()
    for _ in range(300):
        f = random_int_poly(rng, max_degree=4, bound=20)
        p = rng.choice((2, 3, 5, 7, 11, 13))
        if all(c % p == 0 for c in f.coeffs):
            continue
        for g, _ in factor_mod_p(f, p):
            if g.degree < 1 or g.coeffs[0] == 0:
                continue
            order = _order_by_repeated_multiplication(g, p)
            assert multiplicative_order(g, p) == order, (g, p)
            # without a known order, order_divides powers t itself
            unknown = UnitFactor(g, 1, g.degree, None)
            structure = UnitRootStructure(p, 0, g, (unknown,), False)
            for n in (1, order, 2 * order, order + 1, 720720):
                assert structure.order_divides(unknown, n) == (n % order == 0), (g, p, n)
            checked[g.degree] += 1
    assert sum(checked.values()) > 250 and checked[3] > 10 and checked[4] > 5


def test_self_reciprocal_orders_divide_p_half_plus_one():
    # the factors of palindromes, against the order found by stepping t
    rng = random.Random(103)
    checked = Counter()
    while checked["self-reciprocal"] < 400:
        f = random_self_reciprocal(rng, max_half_degree=5, bound=15)
        p = rng.choice([q for q in range(2, 32) if is_prime(q)])
        if all(c % p == 0 for c in f.coeffs):
            continue
        for g, _ in factor_mod_p(f, p):
            if g.coeffs[0] == 0 or p ** g.degree > 30_000:
                continue
            order = multiplicative_order(g, p)
            assert order == _order_by_repeated_multiplication(g, p), (g, p)
            inv = pow(g.coeffs[0], -1, p)
            if g.degree > 1 and tuple(c * inv % p for c in reversed(g.coeffs)) == g.coeffs:
                assert g.degree % 2 == 0 and (p ** (g.degree // 2) + 1) % order == 0, (g, p)
                checked["self-reciprocal"] += 1
                checked[p == 2] += 1
            else:
                checked["other"] += 1
    assert checked["other"] > 400 and checked[True] > 20 and checked[False] > 300


def test_euclid_inverse_in_residue_rings():
    from ihara_towers.errors import VerificationMismatch
    from ihara_towers.padic_engine import _gf_gcd, _gf_inverse

    rng = random.Random(107)
    units = Counter()
    for _ in range(1500):
        p = rng.choice((2, 2, 3, 5, 7, 13, 31))
        d = rng.choice((1, 1, rng.randint(2, 10)))
        g = [rng.randrange(p) for _ in range(d)] + [1]
        a = _gf_trim([rng.randrange(p) for _ in range(d)])
        if a and _gf_gcd(g, a, p) == [1]:
            inverse = _gf_inverse(a, g, p)
            assert _ModRing(g, p).mul(a, inverse) == [1], (a, g, p)
            assert len(inverse) <= d and all(0 <= c < p for c in inverse)
            units[(d == 1, p == 2)] += 1
        else:
            try:
                _gf_inverse(a, g, p)
                assert False, (a, g, p)
            except VerificationMismatch:
                units["zero" if not a else "non-unit"] += 1
    # F_2[t]/(t + 1) = F_2, whose one unit is its own inverse
    assert _gf_inverse([1], [1, 1], 2) == [1]
    assert min(units.values()) > 40, units


# -- unit root structure ---------------------------------------------------------


def test_unit_root_structure_fibonacci():
    s2 = unit_root_structure(J_FIB, 2)
    assert not s2.ramified
    assert len(s2.factors) == 1
    f = s2.factors[0]
    assert f.poly == IntPoly((1, 1, 1)) and f.degree == 2 and f.order == 3
    assert (f.s, f.w) == (1, (1, 3))

    s5 = unit_root_structure(J_FIB, 5)
    assert s5.ramified
    f = s5.factors[0]
    assert f.poly == IntPoly((4, 1)) and f.multiplicity == 2 and f.order == 1
    assert (f.s, f.w) == (None, None)


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
    # Lehmer's polynomial, whose unit-circle roots are not roots of unity
    for p in (2, 5):
        s = unit_root_structure(LEHMER, p)
        assert not s.ramified and sum(f.degree for f in s.factors) == 10, p


def test_structures_equal_those_from_full_degree_factoring(monkeypatch):
    # the structure (factors, multiplicities, orders, s and w), or the error,
    # with factor_mod_p and with the reference that factors the whole unit
    # part, on tower J and on palindromes with content, with p | lead after
    # the content is divided out, and with (t -+ 1)**2 (ramified at s -+ 2)
    import ihara_towers.padic_engine as padic_engine
    from ihara_towers.padic_engine import content_valuation

    def outcome(j, p):
        try:
            return _unit_root_structure.__wrapped__(j.coeffs, p)
        except (ValueError, TowerError) as exc:
            return type(exc), str(exc)

    primes = (2, 2, 3, 3, 5, 7, 11, 13, 31)
    rng = random.Random(101)
    pairs = [(ta.j_poly, p) for _, ta in acceptance_towers().values() for p in set(primes)]
    while len(pairs) < 2100:
        p = rng.choice(primes)
        j = random_self_reciprocal(rng, max_half_degree=7, bound=40)
        if rng.random() < 0.25:
            j = j * IntPoly(rng.choice(((1, -2, 1), (1, 2, 1))))
        elif vanishes_at_root_of_unity(j):  # an unramified one is rejected
            continue
        pairs.append((j * p ** rng.choice((0, 0, 1, 2)), p))
    kinds = Counter()
    for j, p in pairs:
        structure = outcome(j, p)
        with monkeypatch.context() as m:
            m.setattr(padic_engine, "factor_mod_p", reference_factor_mod_p)
            assert outcome(j, p) == structure, (j, p)
        mu = content_valuation(j, p)
        kinds["mu > 0"] += mu > 0
        kinds["p | lead"] += j.lead // p ** mu % p == 0
        kinds["p = 2"] += p == 2
        kinds["ramified"] += isinstance(structure, UnitRootStructure) and structure.ramified
        kinds["unramified, degree > 1"] += isinstance(structure, UnitRootStructure) and any(
            f.degree > 1 and f.s is not None for f in structure.factors)
    assert len(pairs) >= 2000 and min(kinds.values()) > 100, kinds


# -- lambda / nu paths -------------------------------------------------------------


def test_ord_delta_exact_examples():
    assert ord_delta_exact(J_FIB, 2, 6) == 6  # ord2(5 * 8**2)
    assert ord_delta_exact(J_FIB, 5, 5) == 3  # ord5(5 * 5**2)
    f = IntPoly((3, 1, 2))
    assert ord_delta_exact(f, 3, 1) == ord_p(pierce_lehmer(f, 1), 3)


def test_lambda_for_n():
    s = unit_root_structure(J_FIB, 2)
    assert lambda_for_n(s, 6) + 1 == 3
    assert lambda_for_n(s, 4) + 1 == 1
    assert lambda_for_n(s, 3) == 2
    assert lambda_for_n(s, 3 * 7) + 1 == s.unit_root_count + 1
    # n = 0 and n = -1, at the ramified Fibonacci prime 5 too
    for s in (s, unit_root_structure(J_FIB, 5)):
        for call in (lambda_for_n, nu_structural):
            for n in (0, -1):
                try:
                    call(s, n)
                    assert False, (call, n)
                except ValueError as exc:
                    assert str(exc) == "n must be positive"


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


def test_unit_root_structure_rejects_composite_prime():
    # 0 and 1 last: without the check they never return
    calls = (
        lambda p: unit_root_structure(J_FIB, p),
        lambda p: factor_mod_p(IntPoly((1, 3, 1)), p),
        lambda p: multiplicative_order(IntPoly((1, 1, 1)), p),
        lambda p: newton_polygon(J_FIB, p),
        lambda p: ord_delta_exact(J_FIB, p, 3),
        lambda p: nu_from_oracle(J_FIB, p, 3, 0, 0),
    )
    for call in calls:
        for p in (4, 9, 15, 0, 1):
            try:
                call(p)
                assert False, p
            except ValueError as exc:
                assert str(exc) == f"{p} is not prime"
    for p in (1, 0, -3):
        try:
            valuation(12, p)
            assert False, p
        except ValueError:
            pass
    # a polynomial that is zero, or zero mod p, at a prime p
    zero = IntPoly(())
    for call, message in ((lambda: unit_root_structure(zero, 2), "zero polynomial"),
                          (lambda: newton_polygon(zero, 2), "zero polynomial"),
                          (lambda: content_valuation(zero, 2), "zero polynomial"),
                          (lambda: factor_mod_p(IntPoly((3, 6, 9)), 3), "polynomial vanishes mod p")):
        try:
            call()
            assert False, message
        except ValueError as exc:
            assert str(exc) == message


def test_gf_kernel_matches_int_poly_arithmetic_mod_p_power():
    # Z/p**K[t]/(G) for a monic G: the product, then pseudo_rem by G, then the
    # coefficients mod p**K; a power is the same product taken e times
    rng = random.Random(83)
    linear = 0
    for _ in range(600):
        p = rng.choice((2, 2, 3, 5, 7, 31))
        q = p ** rng.randint(1, 12)
        g = [rng.randrange(q) for _ in range(rng.randint(1, 5))] + [1]
        linear += len(g) == 2
        a, b = ([rng.randrange(q) for _ in range(rng.randint(0, 9))] for _ in range(2))
        e = rng.randint(0, 20)

        def reduced(f):
            return _gf_trim([c % q for c in pseudo_rem(f, IntPoly(g)).coeffs])

        power = IntPoly([1])
        for _ in range(e):
            power = power * IntPoly(a)
        ring = _ModRing(g, q)
        assert ring.mul(a, b) == reduced(IntPoly(a) * IntPoly(b))
        assert ring.pow(a, e) == reduced(power)
        quot, rem = _gf_divmod(a, g, q)
        assert rem == reduced(IntPoly(a))
        assert _gf_sub(a, (IntPoly(quot) * IntPoly(g) + IntPoly(rem)).coeffs, q) == []
        # a unit leading coefficient that is not 1
        h = g[:-1] + [rng.choice([u for u in range(1, 2 * p) if u % p])]
        quot, rem = _gf_divmod(a, h, q)
        assert len(rem) < len(h) and all(0 <= c < q for c in quot + rem)
        assert _gf_sub(a, (IntPoly(quot) * IntPoly(h) + IntPoly(rem)).coeffs, q) == []
    assert linear > 50


def _list_mulmod(a, b, g, q):
    """a * b mod g over Z/qZ by the list product and one division: the
    route every modular product took before the packed kernel."""
    return _gf_divmod(_mul(a, b), g, q)[1]


def _list_powmod(a, e, g, q):
    result = [1]
    while e:
        if e & 1:
            result = _list_mulmod(result, a, g, q)
        e >>= 1
        if e:
            a = _list_mulmod(a, a, g, q)
    return result


def test_packed_kernel_matches_list_product_and_division():
    # a product's slots are largest for full-length operands with every
    # coefficient q - 1, so a quarter of the cases are made of those; each
    # case also reduces a packed integer of degree 2d - 2 whose slots lie
    # just below the bound B = (2d - 1)(q - 1)**2 + q of the reduction, at
    # residues q - 1 and 0 mod q; the last cases reach d = 80, the degrees
    # of the residue factors of a deg-318 J, and q goes past 2**64
    rng = random.Random(89)
    cases, longer, widths, kinds = 0, 0, Counter(), Counter()
    for case in range(2060):
        p = rng.choice((2, 3, 5, 7, 11, 13, 29, 31))
        K = 1 if rng.random() < 0.4 else rng.randint(2, 64 if p >= 29 else 16)
        wide = case >= 2000
        q, d = p ** K, rng.randint(13, 80) if wide else rng.randint(1, 12)
        g = [rng.randrange(q) for _ in range(d)] + [1]
        extreme = rng.random() < 0.25

        def element(length):
            return [q - 1 if extreme else rng.randrange(q) for _ in range(length)]

        a, b = element(d), element(rng.randint(0, d))
        if rng.random() < 0.2:  # longer than g, so reduced before it is packed
            a = element(rng.randint(d + 1, 2 * d + 3))
            longer += 1
        if wide:
            e, exponents = rng.randint(0, 8), [rng.randint(1, 8) for _ in range(2)]
        else:
            e = rng.choice((0, 1, 2, rng.randint(3, 400), rng.getrandbits(rng.randint(9, 40))))
            exponents = [rng.randint(1, 64) for _ in range(rng.randint(1, 2))]
        coeffs = [rng.randint(-3 * q, 3 * q) for _ in range(rng.randint(0, 3 if wide else 6))]
        ring = _ModRing(g, q)
        assert (ring.mu == 0) == (d == 1)  # t**0 // g: no quotient for d = 1
        assert ring.mul(a, b) == _list_mulmod(a, b, g, q)
        assert ring.pow(a, e) == _list_powmod(a, e, g, q)
        assert ring.pows(a, exponents) == [_list_powmod(a, x, g, q) for x in exponents]
        value = []
        for c in reversed(coeffs):
            value = _gf_sub(_list_mulmod(value, a, g, q), [-c], q)
        assert ring.at(coeffs, a) == value
        bound = (2 * d - 1) * (q - 1) ** 2 + q
        slots = [rng.choice((bound - 1, bound - 1 - bound % q, bound - 1 - (bound - 1) % q,
                             rng.randrange(bound))) for _ in range(2 * d - 1)]
        assert ring._unpack(ring._reduce(ring._pack(slots))) == _gf_divmod(slots, g, q)[1]
        cases += 1
        widths[(K > 1, d > 6)] += 1
        kinds["d = 1"] += d == 1
        kinds["q > 2**64"] += q > 2 ** 64
        kinds["d > 40"] += d > 40
    assert _ModRing([3, 0, 1], 7).pow([5, 1], 0) == [1]
    assert cases >= 2000 and longer > 300 and min(widths.values()) > 300
    assert kinds["d = 1"] > 100 and kinds["q > 2**64"] > 100 and kinds["d > 40"] > 20, kinds


def _horner(poly, a, g, q):
    acc = []
    for c in reversed(poly.coeffs):
        acc = _gf_sub(_ModRing(g, q).mul(acc, a), [-c], q)
    return acc


def _zq_valuation(a, p, K):
    """min ord_p over the coordinates of a; K for zero (meaning >= K)."""
    return min([valuation(c, p) for c in a if c] + [K])


def _zq_inverse(a, g, p, K):
    """Inverse of a unit of Z/p**K[t]/(g): a**(p**deg g - 2) inverts it mod p,
    and each Newton step z -> z*(2 - a*z) then doubles the p-adic precision."""
    q = p ** K
    ring = _ModRing(g, q)
    z = ring.pow(a, p ** (len(g) - 1) - 2)
    for _ in range((K - 1).bit_length()):
        z = ring.mul(z, _gf_sub([2], ring.mul(a, z), q))
    assert ring.mul(a, z) == [1]
    return z


def _fixed_point_constants(j1, g, p):
    """(s, w) for the roots of j1 over the residue factor g, by the
    Teichmueller lift itself: beta by plain Newton, xi as the fixed point of
    z -> z**(p**deg g) started at beta, and w[r] = ord(beta**(p**r) - xi**(p**r)),
    with the precision doubled until every w[r] is exact."""
    K = 32
    G = list(g.coeffs)
    while True:
        q = p ** K
        ring = _ModRing(G, q)
        beta = [0, 1] if g.degree > 1 else [-g.coeffs[0] % q]
        for _ in range(K.bit_length() + 2):
            step = ring.mul(_horner(j1, beta, G, q),
                            _zq_inverse(_horner(j1.derivative(), beta, G, q), G, p, K))
            beta = _gf_sub(beta, step, q)
        assert not _horner(j1, beta, G, q)
        xi = beta
        for _ in range(K + 1):
            nxt = ring.pow(xi, p ** g.degree)
            if nxt == xi:
                break
            xi = nxt
        else:
            assert False, "the Teichmueller fixed point was not reached"
        w = [_zq_valuation(_gf_sub(beta, xi, q), p, K)]
        s = 0
        while p ** s * (p - 1) * w[0] <= 1:
            s += 1
        for r in range(1, s + 1):
            w.append(_zq_valuation(
                _gf_sub(ring.pow(beta, p ** r), ring.pow(xi, p ** r), q), p, K))
        if max(w) < K:
            return s, tuple(w)
        K *= 2


def test_root_constants_match_teichmueller_fixed_point(monkeypatch):
    import ihara_towers.padic_engine as padic_engine
    from ihara_towers.padic_engine import content_valuation

    rng = random.Random(79)
    # zeta_3 * (1 + 2**40) at p = 2: a degree-2 residue factor whose
    # distance 40 needs the precision doubled
    c = 1 + 2 ** 40
    # and at p = 3 two roots whose distances 30 and 1 need different precisions;
    # t + 3 at p = 2 inverts J1'(beta) in F_2, whose one unit is 1
    cases = [(IntPoly((c * c, c, 1)), 2), (IntPoly((-(1 + 3 ** 35), 1)), 3),
             (IntPoly((-(1 + 3 ** 30), 1)) * IntPoly((-2, 1)), 3), (IntPoly((3, 1)), 2)]
    pairs = doubled = 0
    degrees = Counter()
    while pairs < 300:
        if cases:
            f, p = cases.pop()
        else:
            f = random_int_poly(rng, max_degree=5, bound=20)
            p = rng.choice((2, 3, 5, 7, 11, 13))
            if rng.random() < 0.15:
                f = f * IntPoly((-(1 + p ** rng.randint(25, 45)), 1))
        if f.degree < 1:
            continue
        try:
            structure = unit_root_structure(f, p)
        except ValueError:  # a root of unity
            continue
        if structure.ramified or not structure.factors:
            continue
        mu = content_valuation(f, p)
        j1 = IntPoly([x // p ** mu for x in f.coeffs])
        for factor in structure.factors:
            s, w = _fixed_point_constants(j1, factor.poly, p)
            assert (factor.s, factor.w) == (s, w), (f, p, factor.poly)
            degrees[factor.degree] += 1
            doubled += max(w) >= 32
        pairs += 1
    assert doubled >= 2
    assert sum(n for d, n in degrees.items() if d >= 2) > 100

    # palindromic j: a self-reciprocal factor has an order that divides
    # p**(f/2) + 1, so its roots are raised to far less than p**f - 1
    rng = random.Random(101)
    pairs = short = 0
    while pairs < 120:
        f = random_self_reciprocal(rng, max_half_degree=3, bound=12)
        p = rng.choice((2, 3, 5, 7, 11, 13))
        try:
            structure = unit_root_structure(f, p)
        except ValueError:  # a root of unity
            continue
        if structure.ramified or not structure.factors:
            continue
        j1 = IntPoly([x // p ** content_valuation(f, p) for x in f.coeffs])
        for factor in structure.factors:
            assert (factor.s, factor.w) == _fixed_point_constants(j1, factor.poly, p), (f, p)
            short += factor.order < p ** factor.degree - 1 and factor.degree > 1
        pairs += 1
    assert short > 40

    # an unavailable order: the roots are raised to p**f - 1 instead.  t**2 + t + 1
    # at 2 has order 3 and s = 1; t**4 + 2t**3 + t**2 + 2t + 1 at 5 has order 13
    def order_unavailable(p, f):
        raise OrderUnavailable(f"cannot factor {p}**{f} - 1 within the effort bound")

    cases = [(J_FIB, 2), (IntPoly((1, 2, 1, 2, 1)), 5)]
    known = [unit_root_structure(f, p).factors for f, p in cases]
    padic_engine._unit_root_structure.cache_clear()
    try:
        with monkeypatch.context() as m:
            m.setattr(padic_engine, "_factor_p_power_minus_one", order_unavailable)
            unknown = [unit_root_structure(f, p).factors for f, p in cases]
    finally:
        padic_engine._unit_root_structure.cache_clear()
    for (f, p), with_order, without in zip(cases, known, unknown):
        (factor,), (bare,) = with_order, without
        assert factor.order in (3, 13) and bare.order is None
        assert (bare.s, bare.w) == (factor.s, factor.w) == _fixed_point_constants(f, bare.poly, p)


def _reciprocal_pairs(structure):
    """The (g, g*) among the factors, g* the monic reciprocal of g != g*."""
    p, by_poly = structure.prime, {f.poly.coeffs: f for f in structure.factors}
    pairs = []
    for f in structure.factors:
        inv = pow(f.poly.coeffs[0], -1, p)
        mate = by_poly.get(tuple(c * inv % p for c in reversed(f.poly.coeffs)))
        if mate is not None and mate is not f:
            pairs.append((f, mate))
    return pairs


def test_reciprocal_factors_share_data_only_when_j_is_symmetric():
    from ihara_towers.padic_engine import content_valuation

    def checked(f, p):
        # every order and constant against its own oracle, never the mate's
        structure = unit_root_structure(f, p)
        j1 = IntPoly([c // p ** content_valuation(f, p) for c in f.coeffs])
        for factor in structure.factors:
            assert factor.order == multiplicative_order(factor.poly, p)
            if structure.ramified:
                assert factor.s is None and factor.w is None, (f, p)
            else:
                assert (factor.s, factor.w) == _fixed_point_constants(j1, factor.poly, p), (f, p)
        return structure, _reciprocal_pairs(structure)

    # (t - 18)(18t - 1) at 5: the pair t - 3, t - 2, and 18 = omega(3) mod 25;
    # (t**3 + t + 1)(t**3 + t**2 + 1) at 2: a pair of cubics with s = 1
    for f, p, w in ((IntPoly((18, -325, 18)), 5, (2,)),
                    (IntPoly((1, 1, 1, 3, 1, 1, 1)), 2, (1, 2))):
        structure, pairs = checked(f, p)
        assert len(pairs) == 2
        for g, mate in pairs:
            assert g.w == mate.w == w and g.s == mate.s
            assert g.w is mate.w  # computed once
    # (t - 2)(t - 18) has the same pair mod 5 and mod 7, but its roots are
    # not inverse: at 5, w is 1 for the root 2 and 2 for 18
    for p in (5, 7):
        structure, pairs = checked(IntPoly((36, -20, 1)), p)
        assert len(pairs) == 2
        for g, mate in pairs:
            assert (g.s, g.w) != (mate.s, mate.w)
    # random palindromic j, and anti-palindromic ones (ramified at 1 or with
    # the root 1, so only their orders are shared)
    rng = random.Random(97)
    paired = Counter()
    for _ in range(120):
        f = random_self_reciprocal(rng, max_half_degree=4)
        if rng.random() < 0.3:
            f = f * IntPoly((-1, 1))
        p = rng.choice((2, 3, 5, 7, 11, 13))
        try:
            structure, pairs = checked(f, p)
        except ValueError:  # a root of unity with unit roots to measure
            continue
        paired[not structure.ramified] += len(pairs)
        paired["degree > 1"] += sum(g.degree > 1 for g, _ in pairs)
    assert paired[True] > 40 and paired[False] > 20 and paired["degree > 1"] > 20


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


def test_padic_report_validates_n_max_and_kappas():
    ta = analyze(bouquet(3, 5))
    kappas = kappa_sequence(ta, 5)
    for n_max, given in ((10, kappas), (6, kappas), (0, []), (0, None), (-1, kappas)):
        for call in (padic_report, sequence_classes):
            try:
                call(ta, 2, n_max, kappas=given)
                assert False, (n_max, given)
            except ValueError as exc:
                assert str(exc) == ("n_max must be positive" if n_max < 1 else
                                    f"kappas holds 5 layers, fewer than n_max = {n_max}")
    # kappas for n_max layers or more give the report computed without them
    plain = padic_report(ta, 2, 5)
    assert padic_report(ta, 2, 5, kappas=kappas) == plain
    assert padic_report(ta, 2, 4, kappas=kappas).per_n == {n: plain.per_n[n] for n in range(1, 5)}


def _same_report(got, expected):
    return all(getattr(got, name) == getattr(expected, name) for name in ("per_n", "mu", "c", "R"))


def test_class_keyed_rows_match_the_per_n_reference(monkeypatch):
    primes = [q for q in range(2, 32) if is_prime(q)]
    rng = random.Random(2203)
    # J = -2: a tower with no unit roots at any prime
    towers = [analyze(voltaged_graph(4, [(0, 1, -2), (1, 2, 5), (2, 3, -5), (0, 2, 4), (3, 2, 5)])),
              analyze(bouquet(1, 2))]  # the Fibonacci tower, ramified at 5
    towers += [analyze(random_tower(rng)) for _ in range(60)]
    kinds = Counter()
    for ta in towers:
        n_max = rng.choice((50, 120, 160))
        kappas = kappa_sequence(ta, n_max)
        for p in [5] + rng.sample(primes[:2] + primes[3:], 3):
            got = padic_report(ta, p, n_max, kappas=kappas)
            assert _same_report(got, padic_report_per_n(ta, p, n_max, kappas)), (ta.j_poly, p)
            structure = got.structure
            kinds["ramified" if structure.ramified else
                  "unramified" if structure.factors else "no unit roots"] += 1
    assert sum(kinds.values()) >= 200 and min(kinds.values()) > 0, kinds
    # a structure without one residue order keys that factor on p**deg(g) - 1
    ta = analyze(bouquet(3, 5))
    structure = unit_root_structure(ta.j_poly, 3)
    first = structure.factors[0]._replace(order=None)
    unknown = structure._replace(factors=(first,) + structure.factors[1:])
    monkeypatch.setattr(ihara_towers.padic_engine, "unit_root_structure", lambda j, p: unknown)
    got = padic_report(ta, 3, 160)
    assert got.structure is unknown and got.R is not None
    assert _same_report(got, padic_report_per_n(ta, 3, 160, structure=unknown))


def test_an_unknown_order_keeps_one_layer_evaluation_per_class(monkeypatch):
    # N_g | n iff N_g | gcd(n, p**deg(g) - 1), so a factor without its order
    # still splits n <= 300 into few classes: 10 at p = 3 and 34 at p = 31
    import ihara_towers.padic_engine as padic_engine

    ta = analyze(dumbbell(2, 3))
    kappas = kappa_sequence(ta, 300)
    layer_terms = padic_engine._layer_terms
    for p, classes in ((3, 10), (31, 34)):
        structure = unit_root_structure(ta.j_poly, p)
        first = structure.factors[0]._replace(order=None)
        unknown = structure._replace(factors=(first,) + structure.factors[1:])
        expected = padic_report_per_n(ta, p, 300, kappas, structure=unknown)
        calls = []
        monkeypatch.setattr(padic_engine, "unit_root_structure", lambda j, q: unknown)
        monkeypatch.setattr(padic_engine, "_layer_terms",
                            lambda s, n: calls.append(n) or layer_terms(s, n))
        got = padic_report(ta, p, 300, kappas=kappas)
        monkeypatch.undo()
        assert len(calls) == classes, (p, len(calls))
        assert got.structure is unknown and _same_report(got, expected)


def test_iwasawa_invariants_examples():
    assert iwasawa_invariants(J_FIB, 2) == (0, 0, 0, 1)
    assert iwasawa_invariants(J_FIB, 5) == (0, 2, 1, 0)
    for p in (3, 7):
        mu, lam, nu, k0 = iwasawa_invariants(IntPoly((-1 - p, 1)), p)
        assert (mu, lam, nu, k0) == (0, 1, 1, 0)
        for k in range(0, 4):
            assert ord_delta_exact(IntPoly((-1 - p, 1)), p, p ** k) == k + 1
    # the root 3 of t - 3 saturates at p = 2 only from k = 1: 3**(2**k) - 1 has
    # valuation k + 2 there, but 1 at k = 0
    assert iwasawa_invariants(IntPoly((-3, 1)), 2) == (0, 1, 2, 1)
    assert [ord_delta_exact(IntPoly((-3, 1)), 2, 2 ** k) for k in range(5)] == [1, 3, 4, 5, 6]


def test_washington_invariants_examples():
    assert washington_invariants(J_FIB, 2, 3) == (0, 2, 1)
    assert washington_invariants(J_FIB, 2, 5) == (0, 0, 0)
    # empty unit part: pure mu law
    f = IntPoly((-1, 2))
    mu, nu, k0 = washington_invariants(f, 2, 3)
    assert (mu, nu, k0) == (0, 0, 0)


def test_washington_invariants_reject_a_non_prime_ell():
    for ell in (9, 4, 1, 0, -3):
        try:
            washington_invariants(J_FIB, 2, ell)
            assert False, ell
        except ValueError as exc:
            assert str(exc) == f"{ell} is not prime"
    for primes in ((2, 1), (2, 9), (2, 0)):
        try:
            friedman_laws(J_FIB, 7, primes, bound=300)
            assert False, primes
        except ValueError as exc:
            assert str(exc) == f"{primes[1]} is not prime"
    # two primes that must be distinct and are not
    for call, message in (
            (lambda: washington_invariants(J_FIB, 3, 3), "the two primes must be distinct"),
            (lambda: friedman_laws(J_FIB, 7, (2, 2), bound=300), "generator primes must be distinct"),
            (lambda: friedman_laws(J_FIB, 7, (2, 7), bound=300),
             "the outside prime must not be a generator")):
        try:
            call()
            assert False, message
        except ValueError as exc:
            assert str(exc) == message


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
    assert sorted(laws) == [2, 3, 7]
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
    # a bound below every qualifying element is an input error
    for bound in (0, -1):
        try:
            friedman_laws(J_FIB, 5, (2,), bound=bound)
            assert False, bound
        except ValueError as exc:
            assert str(exc) == f"no qualifying semigroup element below the bound {bound}"


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


# -- the laws against explicit sums of the Teichmueller constants --------------
# Each law reads lambda and nu from lambda_for_n and nu_structural at the least
# n of its subsequence.  These references write the same values out as sums
# over the residue factors of an unramified unit part.


def _smooth(n, primes):
    for ell in primes:
        while n % ell == 0:
            n //= ell
    return n == 1


def _reference_iwasawa(s):
    ones = [f for f in s.factors if f.degree == 1 and f.poly(1) % s.prime == 0]
    lam = sum(f.multiplicity * f.degree for f in ones)
    nu = sum(f.degree * (f.w[f.s] - f.s) for f in ones)
    return s.mu, lam, nu, max((f.s for f in s.factors), default=0)


def _reference_washington(s, ell):
    k0 = max((ord_p(f.order, ell) if f.order % ell == 0 else 0 for f in s.factors), default=0)
    nu = sum(f.degree * f.w[0] for f in s.factors if ell ** k0 % f.order == 0)
    return s.mu, nu, k0


def _reference_friedman(s, primes, with_lambda):
    chosen = [f for f in s.factors if _smooth(f.order, primes)]
    thresholds = [
        max((ord_p(f.order, ell) if f.order % ell == 0 else 0 for f in chosen), default=0)
        for ell in primes
    ]
    if not with_lambda:
        return FriedmanLaw(s.prime, s.mu, 0, sum(f.degree * f.w[0] for f in chosen),
                           tuple(thresholds))
    idx = primes.index(s.prime)
    thresholds[idx] = max([thresholds[idx]] + [f.s for f in chosen])
    lam = sum(f.multiplicity * f.degree for f in chosen)
    nu = sum(f.degree * (f.w[f.s] - f.s) for f in chosen)
    return FriedmanLaw(s.prime, s.mu, lam, nu, tuple(thresholds))


def _law_pairs():
    """Seeded (J, p) with deg J <= 12: the acceptance towers and random two-
    and three-loop bouquets, at each p <= 7."""
    polys = [ta.j_poly for _, ta in acceptance_towers().values()]
    rng = random.Random(89)
    while len(polys) < 120:
        voltages = rng.sample([a for a in range(-5, 6) if a], rng.choice((2, 3)))
        if gcd(*voltages) == 1:  # monodromy index 1
            polys.append(analyze(bouquet(*voltages)).j_poly)
    return [(j, p) for j in polys if j.degree <= 12 for p in (2, 3, 5, 7)]


def test_laws_match_explicit_teichmueller_sums():
    pairs = _law_pairs()
    structures = {(j, p): unit_root_structure(j, p) for j, p in pairs}
    unramified = friedman = ramified = 0
    for j, p in pairs:
        s = structures[j, p]
        others = (2, 3) if p > 3 else (5 - p, 5)  # the two smallest other primes
        if s.ramified:
            # ramified: no structural nu, so Washington fits the exact value at
            # its threshold
            assert nu_structural(s, 1) is None
            mu, nu, k0 = washington_invariants(j, p, others[0])
            assert nu == ord_delta_exact(j, p, others[0] ** k0) - mu * others[0] ** k0
            ramified += 1
            continue
        assert iwasawa_invariants(j, p) == _reference_iwasawa(s), (j, p)
        assert washington_invariants(j, p, others[0]) == _reference_washington(s, others[0])
        unramified += 1
        try:
            laws = friedman_laws(j, p, others, bound=300)
        except AssertionError:
            continue  # a ramified generator
        for ell, law in laws.items():
            if not structures[j, ell].ramified:
                assert law == _reference_friedman(structures[j, ell], others, ell != p), (j, p, ell)
                friedman += 1
    assert unramified >= 200 and ramified >= 100 and friedman >= 200


def test_ramified_iwasawa_fits_the_least_threshold():
    # the fit path reports the least k0 from which the p-power law holds,
    # where the structural path would report the saturation exponent
    checked = 0
    for j, p in _law_pairs():
        if p > 3 or not unit_root_structure(j, p).ramified:
            continue
        mu, lam, nu, k0 = iwasawa_invariants(j, p)
        law = [ord_delta_exact(j, p, p ** k) - mu * p ** k - lam * k for k in range(k0 + 3)]
        assert law[k0:] == [nu] * 3 and (k0 == 0 or law[k0 - 1] != nu), (j, p)
        checked += 1
    assert checked >= 20


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
    # so do the exact paths, whose D_n vanishes at n = 1
    for call in (lambda: ord_delta_exact(f, 3, 1), lambda: nu_from_oracle(f, 3, 1, 0, 0)):
        try:
            call()
            assert False
        except ValueError as exc:
            assert str(exc) == "Pierce-Lehmer value vanishes; j has a root of unity"


def test_the_structure_of_a_tower_builds_no_sturm_chain(monkeypatch):
    # Monodromy index 1 keeps every root of unity out of J, so each lift
    # settles; one that does not settle at 2 digits runs the cyclotomic test,
    # which counts no unit-circle roots
    import ihara_towers.mahler as mahler
    import ihara_towers.padic_engine as padic_engine

    def refuse(*args):
        raise AssertionError(f"unit-circle work on {args}")

    # the engine binds no unit-circle count of its own to reach
    assert not {"count_unit_circle_roots", "vanishes_at_root_of_unity"} & set(vars(padic_engine))
    padic_engine._unit_root_structure.cache_clear()  # a memoised structure runs nothing
    monkeypatch.setattr(mahler, "_sturm_count_open", refuse)
    monkeypatch.setattr(mahler, "count_unit_circle_roots", refuse)
    # the degree-318 J of bouquet(1, 160) is lifted at 2 and 3 only: at 5 and
    # 31 its structure takes longer, much of it in factoring p**f - 1 for the
    # residue orders
    towers = [(bouquet(1, 160), (2, 3))] + [
        (vg, (2, 3, 5, 31)) for vg in (bouquet(3, 5), dumbbell(2, 3), random_tower(random.Random(5)))]
    lifted = 0
    for vg, primes in towers:
        j = analyze(vg).j_poly
        for p in primes:
            structure = unit_root_structure(j, p)
            lifted += not structure.ramified and bool(structure.factors)
    assert lifted >= 6


def _screened_structure(j, p, monkeypatch):
    """The structure by the rule it replaced: every squarefree unit part was
    first screened for a root of unity, and a lift that did not settle by
    MAX_PRECISION raised PrecisionExhausted.  The lift's own test is switched
    off, so only the screen rejects."""
    import ihara_towers.padic_engine as padic_engine

    mu = padic_engine.content_valuation(j, p)
    red = [c // p ** mu % p for c in j.coeffs]
    residue = factor_mod_p(IntPoly(red[next(i for i, c in enumerate(red) if c):]), p)
    ramified = any(mult > 1 for _, mult in residue)
    if residue and not ramified and vanishes_at_root_of_unity(j):
        raise ValueError("polynomial vanishes at a root of unity")
    with monkeypatch.context() as m:
        m.setattr(padic_engine, "_has_root_of_unity", lambda j1, p, orders: False)
        return _unit_root_structure.__wrapped__(j.coeffs, p)


def _root_of_unity_cases(seed, count):
    """count seeded (j, p, kind): plain j, j times Phi_k, products of two Phi_k
    (ramified when their residues meet), and Phi_2m at p = 2 for odd m, whose
    roots of order 2m reduce to order m, so only w[1] is infinite, as in
    Phi_6 (t**3 + t + 1), which comes first."""
    rng = random.Random(seed)
    cases = [(cyclotomic_polynomial(6) * IntPoly((1, 1, 0, 1)), 2, "order 2m")]
    while len(cases) < count:
        f = random_int_poly(rng, max_degree=6, bound=30)
        if f.degree < 1 or f.coeffs[0] == 0:
            continue
        p = rng.choice((2, 3, 5, 7, 11, 31))
        kind = ("j", "j Phi_k", "j", "order 2m", "j", "two Phi_k")[len(cases) % 6]
        if kind == "j Phi_k":
            f = f * cyclotomic_polynomial(rng.randrange(1, 25))
        elif kind == "order 2m":
            p, f = 2, f * cyclotomic_polynomial(2 * rng.choice((1, 3, 5, 7, 9)))
        elif kind == "two Phi_k":
            f = f * cyclotomic_polynomial(rng.randrange(1, 13)) * cyclotomic_polynomial(rng.randrange(1, 13))
        cases.append((f, p, kind))
    return cases


def _outcome(build, *args):
    try:
        return build(*args)
    except (ValueError, PrecisionExhausted) as exc:
        return type(exc), str(exc)


def test_the_structure_matches_the_root_of_unity_screen_it_replaced(monkeypatch):
    tally = Counter()
    for j, p, kind in _root_of_unity_cases(34, 1500):
        got = _outcome(unit_root_structure, j, p)
        assert got == _outcome(_screened_structure, j, p, monkeypatch), (j, p)
        rejected = not isinstance(got, UnitRootStructure)
        tally[kind, "rejected" if rejected else "ramified" if got.ramified else "kept"] += 1
        if not rejected and got.ramified and vanishes_at_root_of_unity(j):
            tally["ramified root of unity"] += 1
    assert min(tally[kind, "rejected"] for kind in ("j Phi_k", "order 2m", "two Phi_k")) > 50, tally
    assert min(tally["j", "kept"], tally["ramified root of unity"]) > 50, tally


def test_a_root_of_unity_is_rejected_before_any_ring_above_p_squared(monkeypatch):
    # the lift that first fails to settle, at 2 digits, runs the cyclotomic
    # test over every residue order, so no ring mod p**4 or above is built
    moduli = []
    build = _ModRing.__init__

    def spy(self, g, q):
        moduli.append(q)
        build(self, g, q)

    monkeypatch.setattr(_ModRing, "__init__", spy)
    # J_FIB Phi_5 and Lehmer Phi_12 at primes where their unit parts are
    # squarefree, and Phi_6 (t**3 + t + 1) at p = 2, whose roots of order 6
    # reduce to order 3, so only w[1] is infinite
    named = [(J_FIB * cyclotomic_polynomial(5), p, "named") for p in (2, 3, 7)]
    named += [(LEHMER * cyclotomic_polynomial(12), 5, "named"),
              (cyclotomic_polynomial(6) * IntPoly((1, 1, 0, 1)), 2, "named")]
    tally = Counter()
    for j, p, kind in named + _root_of_unity_cases(41, 900):
        moduli.clear()
        got = _outcome(unit_root_structure, j, p)  # a rejection is never memoised
        if isinstance(got, UnitRootStructure):
            continue
        assert got == (ValueError, "polynomial vanishes at a root of unity"), (j, p, got)
        assert max(moduli) == p * p, (j, p, moduli)
        tally[kind] += 1
    assert tally["named"] == len(named) and sum(tally.values()) >= 200, tally


def test_a_residue_factor_of_prime_order_is_not_tried(monkeypatch):
    # at p = 2, t**89 + t**38 + 1 and t**61 + t**5 + t**2 + t + 1 are
    # irreducible of order 2**89 - 1 and 2**61 - 1, both prime; beside Phi_3 or
    # t**2 + t + 5, whose lifts do not settle at 2 digits, those orders are
    # far above 2 deg(J)**2, so no Phi_k of them is tried and no phi of them
    # is taken (trial division to 2**44 would not end)
    import ihara_towers.padic_engine as padic_engine

    def bounded_phi(k):
        assert k <= 2 * 91 * 91, k
        return euler_phi(k)

    monkeypatch.setattr(padic_engine, "euler_phi", bounded_phi)
    calls = []
    test = padic_engine._has_root_of_unity.__wrapped__

    def spy(j1, p, orders):
        calls.append(max(order for _, order in orders))
        return test(j1, p, orders)

    monkeypatch.setattr(padic_engine, "_has_root_of_unity", spy)
    h89 = IntPoly((1,) + (0,) * 37 + (1,) + (0,) * 50 + (1,))
    h61 = IntPoly((1, 1, 1, 0, 0, 1) + (0,) * 55 + (1,))
    for h, n in ((h89, 89), (h61, 61)):
        calls.clear()
        got = _outcome(_unit_root_structure.__wrapped__, (cyclotomic_polynomial(3) * h).coeffs, 2)
        assert got == (ValueError, "polynomial vanishes at a root of unity")
        assert calls == [2 ** n - 1]
        calls.clear()
        kept = _unit_root_structure.__wrapped__((IntPoly((5, 1, 1)) * h).coeffs, 2)
        assert calls and set(calls) == {2 ** n - 1}
        assert sorted(f.order for f in kept.factors) == [3, 2 ** n - 1]
        assert kept == _screened_structure(IntPoly((5, 1, 1)) * h, 2, monkeypatch)


def test_unknown_residue_orders_give_the_same_outcomes(monkeypatch):
    # with p**f - 1 unfactorable every order is None: a root of unity is still
    # rejected, and every other structure has the same constants
    import ihara_towers.padic_engine as padic_engine

    def refuse(m):
        raise OrderUnavailable(f"cannot factor {m}")

    cases = [(j, p) for j, p, _ in _root_of_unity_cases(43, 400)]
    cases += [(J_FIB * cyclotomic_polynomial(5), 3), (J_FIB, 2), (J_FIB, 5)]
    known = [_outcome(_unit_root_structure.__wrapped__, j.coeffs, p) for j, p in cases]
    _factor_p_power_minus_one.cache_clear()
    monkeypatch.setattr(padic_engine, "_factor_integer", refuse)
    try:
        tally = Counter()
        for (j, p), expected in zip(cases, known):
            got = _outcome(_unit_root_structure.__wrapped__, j.coeffs, p)
            if isinstance(expected, UnitRootStructure):
                assert all(f.order is None for f in got.factors), (j, p)
                expected = expected._replace(factors=tuple(
                    f._replace(order=None) for f in expected.factors))
                tally["kept", expected.ramified] += 1
            else:
                tally[expected] += 1
            assert got == expected, (j, p)
    finally:
        _factor_p_power_minus_one.cache_clear()
    assert min(tally.values()) > 50 and len(tally) == 3, tally


def test_unit_root_invariant_raises_package_error(monkeypatch):
    # a broken invariant raises VerificationMismatch, which python -O keeps
    import ihara_towers.padic_engine as padic_engine
    from ihara_towers.errors import VerificationMismatch

    # a memoised structure would never reach the patched Newton polygon
    padic_engine._unit_root_structure.cache_clear()
    monkeypatch.setattr(
        padic_engine, "newton_polygon", lambda f, p: NewtonPolygon(p, (), ((0, 1),))
    )
    try:
        unit_root_structure(J_FIB, 2)
        assert False
    except VerificationMismatch as exc:
        assert "Newton polygon" in str(exc)


def test_memoised_structures_are_shared_read_only_and_errors_recur():
    import copy
    import pickle

    structure = unit_root_structure(J_FIB, 2)
    assert unit_root_structure(IntPoly(list(J_FIB.coeffs)), 2) is structure
    before = repr(structure)
    factor = structure.factors[0]
    for name in ("s", "w", "order", "note"):
        try:
            setattr(factor, name, None)
            assert False, name
        except AttributeError:
            pass
    assert type(factor.w) is tuple and (factor.order, factor.s, factor.w) == (3, 1, (1, 3))
    assert repr(structure) == before
    for twin in (copy.copy(structure), copy.deepcopy(structure),
                 pickle.loads(pickle.dumps(structure))):
        assert twin == structure and type(twin) is type(structure)
    # an exception is never memoised: the same call raises every time
    root_of_unity = IntPoly((27, 15, 13, -15, -31, -2, -2, -5))
    for _ in range(3):
        for call, p in ((lambda p: unit_root_structure(J_FIB, p), 4),
                        (lambda p: unit_root_structure(root_of_unity, p), 3)):
            try:
                call(p)
                assert False, p
            except ValueError:
                pass


def test_memoised_pierce_lehmer_values_keep_the_bit_cap(monkeypatch):
    monkeypatch.delenv(MAX_BITS_ENV, raising=False)
    delta = pierce_lehmer(J_FIB, 40)  # -5 F_40**2, 57 bits
    nu = nu_from_oracle(J_FIB, 2, 40, 0, 0)
    hits = _pierce_lehmer_memo.cache_info().hits
    assert nu_from_oracle(J_FIB, 2, 40, 0, 0) == nu == ord_p(delta, 2)
    assert _pierce_lehmer_memo.cache_info().hits == hits + 1
    # the cap set after the value was memoised still refuses it, on every call
    monkeypatch.setenv(MAX_BITS_ENV, str(abs(delta).bit_length() - 1))
    for _ in range(2):
        try:
            nu_from_oracle(J_FIB, 2, 40, 0, 0)
            assert False
        except ResourceLimit:
            pass
    monkeypatch.setenv(MAX_BITS_ENV, str(abs(delta).bit_length()))
    assert nu_from_oracle(J_FIB, 3, 40, 0, 0) == ord_p(delta, 3)
    for p in (1, 4):
        try:
            nu_from_oracle(J_FIB, p, 40, 0, 0)
            assert False, p
        except ValueError:
            pass


def test_memoised_factorizations_of_p_power_minus_one():
    for p, f in ((2, 1), (2, 12), (3, 7), (31, 6), (29, 10)):
        factors = _factor_p_power_minus_one(p, f)
        assert _factor_p_power_minus_one(p, f) is factors
        assert [q for q, _ in factors] == sorted(q for q, _ in factors)
        assert all(is_prime(q) and e >= 1 for q, e in factors)
        product = 1
        for q, e in factors:
            product *= q ** e
        assert product == p ** f - 1


def test_every_memo_is_bounded():
    # every lru_cache that a module of the package defines, found by its cache_info
    import importlib
    import pkgutil

    memos = []
    for info in pkgutil.iter_modules(ihara_towers.__path__):
        if info.name != "__main__":  # importing it runs the CLI
            module = importlib.import_module(f"ihara_towers.{info.name}")
            memos += [obj for obj in vars(module).values()
                      if hasattr(obj, "cache_info") and obj.__module__ == module.__name__]
    assert {_unit_root_structure, _factor_p_power_minus_one, _pierce_lehmer_memo,
            _mahler_archimedean, build_parser, cyclotomic_polynomial} <= set(memos)
    for memo in memos:
        maxsize = memo.cache_info().maxsize
        assert maxsize is not None and 0 < maxsize <= 256, memo
