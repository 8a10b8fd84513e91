import random
from collections import Counter

from corpus import (
    laurent_add,
    laurent_mul,
    laurent_neg,
    random_int_poly,
    random_self_reciprocal,
    random_tower,
    reference_resultant,
    sylvester_matrix,
    vanishes_at_root_of_unity,
)

from ihara_towers import ihara
from ihara_towers.ihara import analyze, pierce_lehmer, pierce_lehmer_range
from ihara_towers.mahler import count_unit_circle_roots
from ihara_towers.polyring import (
    IntPoly,
    _divide_out,
    _resultant,
    _sturm_count_open,
    LaurentPoly,
    cyclotomic_polynomial,
    divide_exact,
    euler_phi,
    int_matrix_det,
    is_self_reciprocal,
    poly_gcd,
    poly_matrix_det,
    pseudo_rem,
    resultant,
)

T_MINUS_1 = IntPoly((-1, 1))


def L(terms):
    return LaurentPoly.from_dict(terms)


# -- resultants --------------------------------------------------------------


def test_resultant_linear_pair():
    assert resultant(IntPoly((-2, 1)), IntPoly((-3, 1))) == -1


def test_resultant_fibonacci_factor_at_one():
    j_fib = IntPoly((-1, -3, -1))
    assert resultant(j_fib, T_MINUS_1) == -5


def test_resultant_fibonacci_factor_squares():
    j_fib = IntPoly((-1, -3, -1))
    assert resultant(j_fib, IntPoly((-1, 0, 1))) == -5


def test_resultant_zero_input_rejected():
    try:
        resultant(IntPoly(), IntPoly((1,)))
        assert False
    except ValueError:
        pass
    # and the other inputs that polyring refuses
    f, zero, one = IntPoly((1, 2, 1)), IntPoly(()), L({0: 1})
    for call, kind, message in (
            (lambda: zero.lead, ValueError, "zero polynomial has no leading coefficient"),
            (lambda: f.shift(-1), ValueError, "negative shift on IntPoly"),
            (lambda: divide_exact(f, zero), ZeroDivisionError, "polynomial division by zero"),
            (lambda: pseudo_rem(f, zero), ZeroDivisionError, "pseudo-division by zero"),
            (lambda: int_matrix_det([[1, 2]]), ValueError, "matrix is not square"),
            (lambda: poly_matrix_det([[one], [one]]), ValueError, "matrix is not square"),
            (lambda: cyclotomic_polynomial(0), ValueError, "k must be positive"),
            (lambda: _sturm_count_open(IntPoly((-2, 1)), -2, 2), ValueError,
             "Sturm endpoints must not be roots"),
            # degree 121 with q(2) = 0: refused before its Sturm chain is built
            (lambda: _sturm_count_open(IntPoly((-2, 1)) * IntPoly(
                tuple(i * 7 % 19 - 9 for i in range(121))), -2, 2), ValueError,
             "Sturm endpoints must not be roots")):
        try:
            call()
            assert False, message
        except kind as exc:
            assert str(exc) == message


def test_resultant_antisymmetry_and_multiplicativity():
    rng = random.Random(7)
    for _ in range(500):
        p = random_int_poly(rng, max_degree=5)
        q = random_int_poly(rng, max_degree=5)
        if p.degree < 0 or q.degree < 0:
            continue
        sign = -1 if (p.degree * q.degree) % 2 else 1
        assert resultant(p, q) == sign * resultant(q, p)
        assert resultant(p, q) == int_matrix_det(sylvester_matrix(p, q))
    for _ in range(500):
        p = random_int_poly(rng, max_degree=4)
        q = random_int_poly(rng, max_degree=4)
        r = random_int_poly(rng, max_degree=4)
        assert resultant(p * r, q) == resultant(p, q) * resultant(r, q)
        assert resultant(p * r, q * r) == int_matrix_det(sylvester_matrix(p * r, q * r))
    # degree 0, equal degrees, odd/odd with deg p < deg q, negative leads,
    # and a shared factor (zero resultant), each against the Sylvester oracle
    shared = IntPoly((1, 1))
    for p, q in (
        (IntPoly((-5,)), IntPoly((1, -2, 3))),
        (IntPoly((1, 2, -3)), IntPoly((-4, 0, 5))),
        (IntPoly((2, -1)), IntPoly((1, 0, 3, -2))),
        (IntPoly((3, 1, 0, -2)), IntPoly((1, -5, 0, 0, 0, -7))),
        (shared * IntPoly((2, -3)), shared * IntPoly((1, 0, -4))),
    ):
        for x, y in ((p, q), (q, p)):
            assert resultant(x, y) == int_matrix_det(sylvester_matrix(x, y))
    assert resultant(shared * IntPoly((2, -3)), shared * IntPoly((1, 0, -4))) == 0


def test_resultant_against_evaluation():
    # Res(f, t - c) = (-1)**deg(f) * f(c)
    rng = random.Random(11)
    for _ in range(200):
        f = random_int_poly(rng, max_degree=6)
        c = rng.randint(-5, 5)
        expected = (-1) ** f.degree * f(c)
        assert resultant(f, IntPoly((-c, 1))) == expected


def _oracle(p, q):
    return int_matrix_det(sylvester_matrix(p, q))


def _remainder_degrees(p, q):
    """Degrees of the remainder sequence of p, q (deg p >= deg q), which every
    pseudo-remainder sequence shares."""
    degrees = [p.degree, q.degree]
    while True:
        p, q = q, pseudo_rem(p, q).primitive_part()
        if q.is_zero():
            return degrees
        degrees.append(q.degree)


def test_resultant_of_non_primitive_inputs():
    # no content is taken out, so the contents ride through every division
    rng = random.Random(13)
    for _ in range(60):
        p = random_int_poly(rng, max_degree=5)
        q = random_int_poly(rng, max_degree=5)
        for s in (6, -9, 2 ** 40):
            for t in (6, -9, 2 ** 40):
                sp, tq = p * s, q * t
                expected = (sp.content() ** q.degree * tq.content() ** p.degree
                            * resultant(sp.primitive_part(), tq.primitive_part()))
                assert resultant(sp, tq) == _oracle(sp, tq) == expected


def test_resultant_when_the_degree_drops_by_more_than_one():
    # sparse, non-monic pairs whose remainder sequence skips degrees after
    # the first step, so that h**(delta - 1) is taken with h != 1
    rng = random.Random(17)
    seen = 0
    for _ in range(400):
        d = rng.randint(3, 7)
        p = IntPoly([rng.choice((0, 0, 0, rng.randint(-4, 4))) for _ in range(d)]
                    + [rng.choice((-3, -2, 2, 3))])
        q = IntPoly([rng.choice((0, 0, rng.randint(-4, 4))) for _ in range(d - 1)]
                    + [rng.choice((-2, 2, 5))])
        degrees = _remainder_degrees(p, q)
        if any(a - b > 1 for a, b in zip(degrees[1:], degrees[2:])):
            seen += 1
        assert resultant(p, q) == _oracle(p, q)
        assert resultant(q, p) == _oracle(q, p)
    assert seen >= 50
    # p = (t + 1) q + 3 t**2 - 4: the second step drops from degree 4 to 2
    q = IntPoly((-3, 0, 0, 1, 2))
    p = IntPoly((1, 1)) * q + IntPoly((-4, 0, 3))
    assert _remainder_degrees(p, q) == [5, 4, 2, 1, 0]
    assert resultant(p, q) == _oracle(p, q)


def test_resultant_when_the_first_pseudo_remainder_vanishes():
    for b, c in (
        (IntPoly((1, 2)), IntPoly((3, 0, -1))),
        (IntPoly((-2, 0, 3)), IntPoly((1, 1))),
        (IntPoly((4, -1, 0, 6)), IntPoly((5,))),
    ):
        a = b * c
        assert resultant(a, b) == resultant(b, a) == _oracle(a, b) == 0
    # a first pseudo-remainder of degree 0 ends the sequence at once
    a, b = IntPoly((1, 1, 1)), IntPoly((0, 1))
    assert resultant(a, b) == _oracle(a, b) == 1


def test_resultant_with_a_constant_argument():
    for p in (IntPoly((1, -3, 2)), IntPoly((7, 0, 0, -4)), IntPoly((-5, 6)), IntPoly((3,))):
        for c in (1, -1, 6, -9, 2 ** 40):
            q = IntPoly((c,))
            assert resultant(p, q) == _oracle(p, q) == c ** p.degree
            assert resultant(q, p) == _oracle(q, p) == c ** p.degree


def _reference_kernel_pairs():
    """Low-first int list pairs, each in both orders: random pairs of degree
    0-24 with leads +-1, +-2, 3 and 7 and coefficients up to 10**40, odd by
    odd degrees, pairs whose b has no second-highest coefficient, pairs
    a = q b + r with deg q = 1 and deg r <= deg b - 2, whose second step
    drops the degree by 2 or more, pairs with a common factor, and
    constants."""
    rng = random.Random(3907)

    def poly(degree, limit):
        return [rng.randint(-limit, limit) for _ in range(degree)] + [
            rng.choice((1, -1, 2, -2, 3, 7))]

    def bound():
        return rng.choice((1, 9, 9, 10 ** 6, 10 ** 40))

    def times(x, y):
        return list((IntPoly(x) * IntPoly(y)).coeffs)

    pairs = []
    for _ in range(700):  # degrees weighted to the low end, which keeps the test short
        top = rng.choice((8, 12, 24))
        pairs.append((poly(rng.randint(0, top), bound()), poly(rng.randint(0, top), bound())))
    for _ in range(150):
        pairs.append((poly(rng.randrange(1, 16, 2), bound()),
                      poly(rng.randrange(1, 16, 2), bound())))
    for _ in range(150):
        db = rng.randint(2, 14)
        a, b = poly(db + rng.randint(0, 2), bound()), poly(db, bound())
        b[-2] = 0
        if rng.random() < 0.5:
            a[-2] = 0
        pairs.append((a, b))
    for _ in range(300):
        db = rng.randint(2, 16)
        b = poly(db, bound())
        r = poly(rng.randint(0, db - 2), bound())
        a = times(poly(1, bound()), b)
        pairs.append(([x + y for x, y in zip(a, r + [0] * len(a))], b))
    for _ in range(150):
        c = poly(rng.randint(1, 4), 9)
        pairs.append((times(poly(rng.randint(0, 8), bound()), c),
                      times(poly(rng.randint(0, 8), bound()), c)))
    for _ in range(50):
        pairs.append(([rng.choice((1, -1, 2, -2, 3, 7)) * rng.randint(1, 10 ** 40)],
                      poly(rng.randint(0, 24), bound())))
    return pairs + [(b, a) for a, b in pairs]


def test_resultant_equals_the_reference_kernel(monkeypatch):
    pairs = _reference_kernel_pairs()
    assert len(pairs) >= 3000
    zeros = 0
    for a, b in pairs:
        value = _resultant(a, b)
        assert value == reference_resultant(a, b), (a, b)
        zeros += value == 0
    assert zeros >= 300  # every common-factor pair, in both orders
    # every Pierce-Lehmer value through the reference kernel
    rng = random.Random(3911)
    js = [analyze(random_tower(rng)).j_poly for _ in range(4)]
    ns = (1, 2, 3, 150, 299, 300)
    fused = [(pierce_lehmer_range(j, 300), [pierce_lehmer(j, n) for n in ns]) for j in js]
    monkeypatch.setattr(ihara, "_resultant", reference_resultant)
    assert fused == [(pierce_lehmer_range(j, 300), [pierce_lehmer(j, n) for n in ns]) for j in js]


# -- determinants ------------------------------------------------------------


def test_int_matrix_det_small():
    assert int_matrix_det([]) == 1
    assert int_matrix_det([[7]]) == 7
    assert int_matrix_det([[1, 2], [3, 4]]) == -2
    assert int_matrix_det([[0, 1], [1, 0]]) == -1
    # singular: a dependent row, a zero pivot swapped out, no pivot left
    assert int_matrix_det([[1, 2], [2, 4]]) == 0
    assert int_matrix_det([[0, 0], [1, 1]]) == 0
    assert int_matrix_det([[1, 2, 3], [2, 4, 6], [1, 2, 5]]) == 0
    # the first pivot is zero, so the first two rows swap
    assert int_matrix_det([[0, 2, 1], [1, 1, 1], [2, 0, 3]]) == -4


def _cofactor_det(m):
    """The determinant of a square matrix of Laurent dicts, expanded along
    its first row."""
    if not m:
        return {0: 1}
    total = {}
    for j, entry in enumerate(m[0]):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        term = laurent_mul(entry, _cofactor_det(minor))
        total = laurent_add(total, term if j % 2 == 0 else laurent_neg(term))
    return total


def test_poly_matrix_det_examples():
    entry = L({0: 4, 1: -1, -1: -1})
    assert poly_matrix_det([[entry]]) == entry

    p, q = {0: 1, 2: 3}, {-1: 5, 0: -2}
    zero = L({})
    assert poly_matrix_det([[L(p), zero], [zero, L(q)]]) == L(laurent_mul(p, q))
    # singular: a zero column, and a row that is a multiple of the other
    assert poly_matrix_det([[zero, L(p)], [zero, L(q)]]) == zero
    assert poly_matrix_det([[L(p), L(q)], [L(laurent_mul(p, q)), L(laurent_mul(q, q))]]) == zero

    # dumbbell voltage matrix with voltages (k, l) = (1, 2)
    a = {0: 3, 1: -1, -1: -1}
    b = {0: 3, 2: -1, -2: -1}
    minus_one = L({0: -1})
    det = poly_matrix_det([[L(a), minus_one], [minus_one, L(b)]])
    assert det == L(laurent_add(laurent_mul(a, b), {0: -1}))


def test_poly_matrix_det_matches_cofactor_expansion():
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(1, 4)
        m = [
            [
                {e: rng.randint(-9, 9) for e in range(rng.randint(-2, 0), rng.randint(0, 2) + 1)}
                for _ in range(n)
            ]
            for _ in range(n)
        ]
        assert poly_matrix_det([[L(e) for e in row] for row in m]) == L(_cofactor_det(m))


# -- division and orders -----------------------------------------------------


def test_divide_exact_examples():
    i_fib = IntPoly((1, 1, -4, 1, 1))
    q = divide_exact(divide_exact(i_fib, T_MINUS_1), T_MINUS_1)
    assert q == IntPoly((1, 3, 1))
    f = IntPoly((2, 0, 5))
    assert divide_exact(f, IntPoly((1,))) == f
    assert divide_exact(IntPoly((-1, 0, 1)), T_MINUS_1) == IntPoly((1, 1))


def test_divide_exact_rejects_inexact():
    # t**2 / 2t = t/2 is exact over the rationals only; the others leave a
    # remainder, with non-integral steps by 2t and integral steps by t
    t, two_t = IntPoly((0, 1)), IntPoly((0, 2))
    for f, g in ((IntPoly((1, 1)), two_t), (IntPoly((0, 0, 1)), two_t),
                 (IntPoly((1, 0, 1)), two_t), (IntPoly((1, 0, 1)), t)):
        try:
            divide_exact(f, g)
            assert False, (f, g)
        except ValueError:
            pass


def test_divide_exact_roundtrip():
    rng = random.Random(31)
    for _ in range(300):
        f = random_int_poly(rng, max_degree=5)
        g = random_int_poly(rng, max_degree=5)
        assert divide_exact(f * g, g) == f


def test_ord_at_examples():
    def ord_at(f, point):
        return _divide_out(f, point)[1]

    assert ord_at(IntPoly((1, 1, -4, 1, 1)), 1) == 2
    assert ord_at(IntPoly((1, 3, 1)), 1) == 0
    assert ord_at(IntPoly((0, 0, 0, 1)), 0) == 3
    # (t - 1)**3 (t + 1)**2 h, with h(1) != 0 and h(-1) != 0
    f = IntPoly((1, 3, 1))
    for root, k in ((1, 3), (-1, 2)):
        for _ in range(k):
            f = f * IntPoly((-root, 1))
    assert ord_at(f, 1) == 3 and ord_at(f, 0) == 0
    assert ord_at(f * IntPoly((0, 0, 1)), 0) == 2


def test_is_self_reciprocal():
    assert is_self_reciprocal(L({0: 4, 3: -1, -3: -1, 5: -1, -5: -1}))
    assert not is_self_reciprocal(L({1: 1}))
    assert is_self_reciprocal(L({0: 7}))
    assert is_self_reciprocal(L({})) and is_self_reciprocal(IntPoly((5,)))
    assert not is_self_reciprocal(IntPoly((1, 3, 1)))
    # against f(1/t) from the terms, on palindromes at every offset and on
    # bodies that are palindromes only up to sign or a middle term
    rng = random.Random(43)
    for _ in range(400):
        half = [rng.randint(-3, 3) for _ in range(rng.randint(0, 3))]
        body = half + [rng.randint(-3, 3)] * rng.randint(0, 1) + half[::-1]
        if rng.random() < 0.3 and body:
            body[rng.randrange(len(body))] += rng.choice((-1, 1))
        terms = {rng.randint(-4, 1) + i: c for i, c in enumerate(body)}
        f = L(terms)
        assert is_self_reciprocal(f) == (L({-e: c for e, c in terms.items()}) == f), terms


def test_polynomials_are_immutable():
    f, g = IntPoly((1, 2)), L({-1: 1, 1: 1})
    for record, field in ((f, "coeffs"), (g, "low"), (g, "body"), (f, "not_a_field")):
        try:
            setattr(record, field, (7,))
            assert False, field
        except AttributeError:
            pass
    assert f == IntPoly((1, 2)) and g == L({-1: 1, 1: 1})


def test_polynomials_equal_only_polynomials_and_hash_as_they_compare():
    assert IntPoly((3,)) != 3 and IntPoly() != 0 and len({IntPoly((3,)), 3}) == 2
    assert IntPoly((3,)) == ((3,),) and L({1: 2}) == (1, IntPoly((2,)))
    assert repr(IntPoly((1, 0, 2, 0))) == "IntPoly(coeffs=(1, 0, 2))"
    assert repr(L({-1: 1, 1: 1})) == "LaurentPoly(low=-1, body=IntPoly(coeffs=(1, 0, 1)))"
    assert not IntPoly() and IntPoly((0, 0)) == IntPoly() and L({}) == LaurentPoly(5, IntPoly())
    # _replace builds through the constructor, so it trims and strips too
    assert IntPoly((1,))._replace(coeffs=(1, 2, 0)) == IntPoly((1, 2))
    assert L({0: 1})._replace(body=IntPoly((0, 0, 3))) == L({2: 3})
    rng = random.Random(4343)
    values = [rng.randint(-2, 2) for _ in range(5)]
    for _ in range(300):
        coeffs = [rng.randint(-2, 2) for _ in range(rng.randint(0, 3))]
        f = IntPoly(coeffs + [0] * rng.randint(0, 2))
        values += [f, IntPoly(coeffs), LaurentPoly(rng.randint(-2, 2), f), tuple(coeffs)]
    for a in values:
        for b in values:
            if a == b:
                assert hash(a) == hash(b), (a, b)
                assert not (isinstance(a, int) and isinstance(b, IntPoly)), (a, b)


# -- gcd utilities -----------------------------------------------------------


def test_pseudo_rem_scales_by_full_power():
    # two steps of pseudo-division even though the t**1 coefficient is zero
    assert pseudo_rem(IntPoly((1, 0, 1)), IntPoly((0, 2))) == IntPoly((4,))
    assert pseudo_rem(IntPoly((1, 0, 0, 1)), IntPoly((1, 3))) == IntPoly((26,))
    assert pseudo_rem(IntPoly((5, 1)), IntPoly((1, 0, 2))) == IntPoly((5, 1))


def test_poly_gcd_and_squarefree():
    rng = random.Random(41)
    for _ in range(100):
        g = random_int_poly(rng, max_degree=3)
        a = random_int_poly(rng, max_degree=2)
        if g.degree < 1:
            continue
        d = poly_gcd(g * a, g)
        gp = g.primitive_part()
        # the primitive part of g divides the gcd of (g*a, g)
        assert pseudo_rem(d, gp).is_zero()
    sq = IntPoly((1, 1)) * IntPoly((1, 1)) * IntPoly((-1, 1))
    assert poly_gcd(sq, sq.derivative()) == IntPoly((1, 1))


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == IntPoly((-1, 1))
    assert cyclotomic_polynomial(2) == IntPoly((1, 1))
    assert cyclotomic_polynomial(6) == IntPoly((1, -1, 1))
    assert cyclotomic_polynomial(12) == IntPoly((1, 0, -1, 0, 1))


def _root_of_unity_cases():
    """Phi_k alone for every k with phi(k) <= 40, the largest k of each degree
    included, and 300 random polynomials, some times cyclotomic factors."""
    small = [k for k in range(1, 3202) if euler_phi(k) <= 40]
    cases = [cyclotomic_polynomial(k) for k in small]
    rng = random.Random(66)
    while len(cases) < len(small) + 300:
        f = random_int_poly(rng, max_degree=12)
        for _ in range(rng.choice((0, 0, 1, 2, 3))):
            phi = cyclotomic_polynomial(rng.choice(small))
            if f.degree + phi.degree <= 40:
                f = f * phi
        cases.append(f)
    return cases


LEHMER = IntPoly((1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1))
# unit-circle roots and no root of unity: Lehmer's polynomial, its square, and
# its product with the Salem polynomial t**4 - t**3 - t**2 - t + 1
NOT_CYCLOTOMIC = (LEHMER, LEHMER * LEHMER, LEHMER * IntPoly((1, -1, -1, -1, 1)))


def test_vanishes_at_root_of_unity_matches_full_scan():
    def full_scan(f):
        # every k with phi(k) <= d lies below 2 d**2 + 2, as phi(k) >= sqrt(k / 2)
        d = f.degree
        return d > 0 and any(euler_phi(k) <= d and pseudo_rem(f, cyclotomic_polynomial(k)).is_zero()
                             for k in range(1, 2 * d * d + 2))

    cases = _root_of_unity_cases() + list(NOT_CYCLOTOMIC) + [
        f * cyclotomic_polynomial(k) for f in NOT_CYCLOTOMIC for k in range(1, 61)]
    outcomes = Counter()
    for f in cases:
        expected = full_scan(f)
        assert vanishes_at_root_of_unity(f) == expected, f
        outcomes[expected] += 1
    assert min(outcomes[True], outcomes[False]) > 100, outcomes
    # with no root of unity to stop it, the scan runs to k = 2 c**2
    assert [count_unit_circle_roots(f) for f in NOT_CYCLOTOMIC] == [8, 16, 10]
    assert not any(vanishes_at_root_of_unity(f) for f in NOT_CYCLOTOMIC)
    # the range's ends: Phi_2 has c = 1 and sits at k = 2 = 2 c**2, and
    # phi(15) = c = 8
    for k, c in ((2, 1), (15, 8)):
        phi = cyclotomic_polynomial(k)
        assert count_unit_circle_roots(phi) == euler_phi(k) == c
        assert vanishes_at_root_of_unity(phi)


def test_unit_circle_count_agrees_on_equal_polynomials():
    # nothing is memoised: an equal polynomial built afresh is counted afresh,
    # to the same answer
    rng = random.Random(67)
    cases = _root_of_unity_cases() + [random_self_reciprocal(rng) for _ in range(100)]
    for f in cases:
        assert count_unit_circle_roots(IntPoly(list(f.coeffs))) == count_unit_circle_roots(f), f


def test_phi_squared_is_at_least_half_of_k():
    # the bound phi(k) >= sqrt(k / 2) that ends the root-of-unity scan at 2 c**2
    n = 100_001
    phi = list(range(n))
    for q in range(2, n):
        if phi[q] == q:  # q is prime
            for m in range(q, n, q):
                phi[m] -= phi[m] // q
    assert all(2 * phi[k] ** 2 >= k for k in range(1, n))
    assert all(phi[k] == euler_phi(k) for k in range(1, 2000))
