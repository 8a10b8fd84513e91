"""Primality (strong BPSW) and the p-adic valuations of integers and of a
polynomial's content.  This module imports nothing from the package, so a
p-adic Mahler measure checks its prime without loading the p-adic engine."""

import operator


def valuation(n: int, p: int) -> int:
    """ord_p(n) for a nonzero integer n and p >= 2; at p = 2 it is the
    number of trailing zero bits."""
    if n == 0:
        raise ValueError("valuation of zero is infinite")
    if p < 2:
        raise ValueError(f"{p} is not prime")
    n = abs(n)
    if p == 2:
        return (n & -n).bit_length() - 1
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def content_valuation(f, p: int) -> int:
    """min ord_p over the nonzero coefficients of the IntPoly f."""
    if f.is_zero():
        raise ValueError("zero polynomial")
    return min(valuation(c, p) for c in f.coeffs if c)


# Miller-Rabin to the 13 prime bases 2..41 has no strong pseudoprime below
# psi_13 (Sorenson and Webster, Math. Comp. 86 (2017)).  Above it a strong
# Lucas test is added, which makes the test BPSW: no composite is known to
# pass it, and sympy's isprime runs the same strong BPSW test there.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981


def is_prime(n) -> bool:
    """Whether the integer n is prime; ValueError if n is not an integer."""
    if isinstance(n, bool):
        raise ValueError(f"{n} is not an integer")
    try:
        n = operator.index(n)
    except TypeError:
        raise ValueError(f"{n} is not an integer") from None
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _MR_EXACT_BELOW or _strong_lucas_probable_prime(n)


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for an odd n > 0, by quadratic reciprocity."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """The strong Lucas test of an odd n > 41 with Selfridge's parameters P = 1,
    Q = (1 - D) / 4, D the first of 5, -7, 9, -11, ... with (D/n) = -1
    (Baillie and Wagstaff, Math. Comp. 35 (1980)): with n + 1 = d * 2**s,
    n passes when U_d = 0 or some V_{d * 2**r}, r < s, is 0 mod n."""
    if _integer_root(n, 2) ** 2 == n:  # (D/n) = -1 for no D
        return False
    D = 5
    while (symbol := _jacobi(D, n)) != -1:
        if symbol == 0:  # 1 < gcd(D, n) < n
            return False
        D = -D - 2 if D > 0 else 2 - D
    Q = (1 - D) // 4
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    # (U_k, V_k, Q**k) from k = 1 along the bits of d: k -> 2k, then k -> k + 1,
    # where U_{k+1} = (U_k + V_k) / 2 and V_{k+1} = (D U_k + V_k) / 2 mod n
    u, v, qk = 1, 1, Q % n
    for bit in bin((n + 1) >> s)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v = (u + v) % n, (D * u + v) % n
            u, v, qk = (u + (u & 1) * n) // 2, (v + (v & 1) * n) // 2, qk * Q % n
    if u == 0:
        return True
    for _ in range(s):
        if v == 0:
            return True
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
    return False


def _integer_root(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 1, by Newton's method from above."""
    r = 1 << -(-n.bit_length() // k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s
