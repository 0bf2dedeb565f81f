"""Exact arithmetic in Q(zeta_N)."""

import random
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import given, settings, strategies as st

from orehopf import cyclotomic
from orehopf.cyclotomic import (Cyclotomic, _convolve, _fold, _is_prime,
                                _product_kernel, _q_binomial_row, _rational,
                                _reduction_table, _root_table,
                                cyclotomic_polynomial, divisors, dot, euler_phi,
                                lift, q_binomial, q_int, residue,
                                root_of_unity, split_prime, zeta_log)

from oracles import is_primitive_root, q_factorial

CONDUCTORS = [1, 2, 3, 4, 5, 6, 8, 12]

scalars = st.integers(-6, 6).map(Fraction)
conductors = st.sampled_from(CONDUCTORS)


@st.composite
def elements(draw, conductor=None):
    n = conductor if conductor is not None else draw(conductors)
    k = draw(st.integers(0, n - 1))
    base = root_of_unity(n, k) * draw(scalars)
    if draw(st.booleans()):
        base = base + root_of_unity(n, draw(st.integers(0, n - 1)))
    return base


def test_power_basis_reduction():
    # zeta_4^2 = -1, zeta_3^2 = -1 - zeta_3, zeta_6 = 1 + zeta_6^4 ...
    assert root_of_unity(4, 2) == Cyclotomic.rational(4, -1)
    z3 = root_of_unity(3, 1)
    assert z3 * z3 == Cyclotomic.rational(3, -1) - z3
    assert root_of_unity(3, 3) == Cyclotomic.one(3)
    z6 = root_of_unity(6, 1)
    assert z6 ** 6 == Cyclotomic.one(6)
    assert z6 ** 3 == Cyclotomic.rational(6, -1)


def test_conductor_two_is_sign():
    assert root_of_unity(2, 1) == Cyclotomic.rational(2, -1)
    assert root_of_unity(2, 5) == Cyclotomic.rational(2, -1)
    assert root_of_unity(2, 0) == Cyclotomic.one(2)


def test_rational_detection():
    v = Cyclotomic.rational(12, "7/3")
    assert v.is_rational() and v.as_rational() == Fraction(7, 3)
    z = root_of_unity(12, 1)
    assert not z.is_rational()
    assert (z ** 12).is_rational()


def test_inverse_of_one_like_elements():
    # elements whose top power-basis coefficient vanishes exercise the
    # polynomial gcd with ragged degree
    for n in (3, 4, 5, 8, 12):
        one = Cyclotomic.one(n)
        assert one.inverse() == one
        v = Cyclotomic.rational(n, Fraction(-5, 7))
        assert v * v.inverse() == one
        z = root_of_unity(n, 1)
        assert z * z.inverse() == one
        mixed = one + z
        assert mixed * mixed.inverse() == one


def test_zero_division():
    with pytest.raises(ZeroDivisionError):
        Cyclotomic.zero(4).inverse()


def test_multiplicative_order():
    assert root_of_unity(12, 1).multiplicative_order() == 12
    assert root_of_unity(12, 4).multiplicative_order() == 3
    assert Cyclotomic.rational(5, -1).multiplicative_order() == 2
    assert Cyclotomic.one(7).multiplicative_order() == 1
    assert Cyclotomic.rational(3, 2).multiplicative_order() is None
    two = Cyclotomic.rational(4, Fraction(1, 2))
    assert two.multiplicative_order() is None

    def powering_order(v):
        # every root of unity in Q(zeta_N) has order dividing lcm(2, N)
        bound = v.conductor if v.conductor % 2 == 0 else 2 * v.conductor
        if v ** bound != 1:
            return None
        return next(d for d in divisors(bound) if v ** d == 1)

    checked = 0
    for n in range(1, 61):
        roots = [root_of_unity(n, k) for k in range(n)]
        non_roots = [Cyclotomic.rational(n, 2), roots[-1] * Cyclotomic.rational(n, Fraction(1, 3)),
                     roots[-1] + Cyclotomic.rational(n, 3)]
        for v in roots + [-r for r in roots] + non_roots:
            assert v.multiplicative_order() == powering_order(v), (n, v)
            checked += 1
    assert checked == sum(2 * n + 3 for n in range(1, 61))


def test_primitive_root_detection():
    assert is_primitive_root(root_of_unity(12, 1), 12)
    assert not is_primitive_root(root_of_unity(12, 2), 12)
    assert is_primitive_root(root_of_unity(12, 2), 6)
    assert is_primitive_root(Cyclotomic.rational(8, -1), 2)
    assert not is_primitive_root(Cyclotomic.one(8), 2)


def test_q_integers_at_roots():
    q = root_of_unity(3, 1)
    assert q_int(3, q).is_zero()
    assert q_int(0, q).is_zero()
    assert q_int(1, q) == Cyclotomic.one(3)
    assert q_int(4, q) == Cyclotomic.one(3)
    # [i]_1 = i
    one = Cyclotomic.one(5)
    assert q_int(7, one) == Cyclotomic.rational(5, 7)


def test_q_factorial_and_binomial():
    q = root_of_unity(4, 1)
    # [2]! = 1 + zeta_4
    assert q_factorial(2, q) == Cyclotomic.one(4) + q
    # Gauss binomial vanishing at a primitive root: C(4, 2)_{zeta_4} = 0
    assert q_binomial(4, 2, q).is_zero()
    assert q_binomial(4, 0, q) == Cyclotomic.one(4)
    assert q_binomial(4, 4, q) == Cyclotomic.one(4)
    # at q = 1 the Gauss binomial is the ordinary one
    one = Cyclotomic.one(3)
    assert q_binomial(5, 2, one) == Cyclotomic.rational(3, 10)
    # zeta_3: C(3, 1) = C(3, 2) = 0, C(2, 1) = 1 + zeta_3
    z3 = root_of_unity(3, 1)
    assert q_binomial(3, 1, z3).is_zero()
    assert q_binomial(3, 2, z3).is_zero()
    assert q_binomial(2, 1, z3) == Cyclotomic.one(3) + z3


def test_gauss_binomials_vanish_interior_all_orders():
    for n in (2, 3, 4, 5, 6):
        q = root_of_unity(n, 1)
        for k in range(1, n):
            assert q_binomial(n, k, q).is_zero(), (n, k)


def _subset_binomial(n, k, q):
    """binom(n, k)_q as the sum over k-subsets S of {0..n-1} of
    q^(sum(S) - k(k-1)/2), an oracle free of the Pascal recurrence."""
    from itertools import combinations
    out = Cyclotomic.zero(q.conductor)
    for subset in combinations(range(n), k):
        out = out + q ** (sum(subset) - k * (k - 1) // 2)
    return out


@pytest.mark.parametrize("q", [root_of_unity(1, 0), root_of_unity(4, 1),
                               root_of_unity(6, 5), root_of_unity(5, 2),
                               root_of_unity(12, 1) + 1, Cyclotomic.rational(3, 2)],
                         ids=["1", "zeta4", "zeta6^5", "zeta5^2", "1+zeta12", "2"])
def test_q_binomial_row(q):
    for n in range(9):
        row = _q_binomial_row(n, q)
        assert len(row) == n + 1
        for k, value in enumerate(row):
            assert value == q_binomial(n, k, q) == _subset_binomial(n, k, q), (n, k)
            # binom(n, k) [k]! [n-k]! = [n]!, which also holds where [n]! = 0
            assert value * q_factorial(k, q) * q_factorial(n - k, q) == q_factorial(n, q)


@settings(max_examples=60)
@given(st.data())
def test_field_axioms(data):
    n = data.draw(conductors)
    a = data.draw(elements(n))
    b = data.draw(elements(n))
    c = data.draw(elements(n))
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert a + (b + c) == (a + b) + c
    assert a - a == Cyclotomic.zero(n)
    if not b.is_zero():
        assert (a / b) * b == a


@settings(max_examples=40)
@given(st.data())
def test_power_consistency(data):
    n = data.draw(conductors)
    a = data.draw(elements(n))
    k = data.draw(st.integers(0, 5))
    expected = Cyclotomic.one(n)
    for _ in range(k):
        expected = expected * a
    assert a ** k == expected
    if not a.is_zero():
        assert a ** (-1) == a.inverse()
        assert (a ** (-2)) * a * a == Cyclotomic.one(n)


def test_conductor_mismatch_rejected():
    with pytest.raises(Exception):
        Cyclotomic.one(3) + Cyclotomic.one(4)


def test_from_zeta_coeffs_reduces():
    # 1 + zeta_4^2 = 0
    v = Cyclotomic.from_zeta_coeffs(4, [1, 0, 1])
    assert v.is_zero()
    w = Cyclotomic.from_zeta_coeffs(6, [0, 0, 0, 2])  # 2 zeta_6^3 = -2
    assert w == Cyclotomic.rational(6, -2)
    assert Cyclotomic.from_zeta_coeffs(12, []).is_zero()
    coeffs = [3, 0, "-1/2", 0, 0, 7, 1, 0, 2, 0, 0, -4]
    expected = sum((root_of_unity(12, k) * Fraction(c)
                    for k, c in enumerate(coeffs)), Cyclotomic.zero(12))
    assert Cyclotomic.from_zeta_coeffs(12, coeffs) == expected


@pytest.mark.parametrize("n", [630, 1000])
def test_root_of_unity_from_a_cold_cache(n):
    for cached in (root_of_unity, _root_table, cyclotomic_polynomial,
                   _reduction_table, euler_phi):
        cached.cache_clear()
    assert root_of_unity(n, n - 1) * root_of_unity(n, 1) == 1


@pytest.mark.parametrize("n", [1, 2, 3, 12, 420])
def test_zeta_log(n):
    for k in range(n):
        assert zeta_log(root_of_unity(n, k)) == k
    # the table against one remainder of x^k mod Phi_N (a sample at large N)
    for k in range(0, n, 1 if n < 100 else 13):
        assert root_of_unity(n, k) == Cyclotomic.from_zeta_coeffs(n, [0] * k + [1])
    assert zeta_log(Cyclotomic.rational(n, 2)) is None
    assert zeta_log(Cyclotomic.zero(n)) is None
    if n % 2:
        # -zeta is a primitive 2N-th root of unity, not an N-th one
        assert zeta_log(-root_of_unity(n, 1)) is None


def _random_rational_element(rng, n):
    coeffs = []
    for _ in range(euler_phi(n)):
        r = rng.random()
        if r < 0.3:
            coeffs.append(0)
        elif r < 0.6:
            coeffs.append(rng.randint(-9, 9))
        else:
            coeffs.append(Fraction(rng.randint(-40, 40), rng.randint(1, 15)))
    return Cyclotomic(n, coeffs)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 12, 105, 420])
def test_against_sympy_reduction_mod_the_cyclotomic_polynomial(n):
    # an independent oracle: sympy's polynomial remainder modulo Phi_N over QQ
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    phi_n = sympy.Poly(sympy.cyclotomic_poly(n, x), x, domain="QQ")

    def poly(coeffs):
        return sympy.Poly(list(reversed([sympy.Rational(c.numerator, c.denominator)
                                         for c in coeffs])) or [0], x, domain="QQ")

    def vector(p):
        coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(p.all_coeffs())]
        return tuple(coeffs + [Fraction(0)] * (euler_phi(n) - len(coeffs)))

    assert tuple(cyclotomic_polynomial(n)) == tuple(
        int(c) for c in reversed(phi_n.all_coeffs()))
    rng = random.Random(n)
    for _ in range(4 if n > 100 else 25):
        a = _random_rational_element(rng, n)
        b = _random_rational_element(rng, n)
        pa, pb = poly(a.coeffs), poly(b.coeffs)
        assert (a * b).coeffs == vector((pa * pb).rem(phi_n))
        assert (a + b).coeffs == vector((pa + pb).rem(phi_n))
        assert (a - b).coeffs == vector((pa - pb).rem(phi_n))
        if not b.is_zero():
            inv = b.inverse()
            # sympy's own inverse is too slow at phi(N) = 48 and 96 for dense
            # rational operands; there its product with b must reduce to 1
            if n <= 12:
                assert inv.coeffs == vector(pb.invert(phi_n))
            assert vector((poly(inv.coeffs) * pb).rem(phi_n)) == Cyclotomic.one(n).coeffs
        zeta = [rng.choice([0, 0, 1, -3, Fraction(2, 7)])
                for _ in range(rng.randint(0, 2 * n))]
        assert Cyclotomic.from_zeta_coeffs(n, zeta).coeffs == vector(
            poly(zeta).rem(phi_n))


# every conductor up to 64, on both sides of the kernel cutoff, and 420 (phi = 96)
@pytest.mark.parametrize("n", list(range(1, 65)) + [420])
def test_product_kernel_against_convolve_and_fold(n):
    phi = euler_phi(n)
    product = _product_kernel(n)
    rng = random.Random(n)
    big = 10 ** 40

    def numerators():
        return tuple(rng.choice((0, 0, 1, -1, rng.randint(-9, 9), rng.randint(-big, big)))
                     for _ in range(phi))

    zero = (0,) * phi
    cases = [(zero, zero), (zero, numerators()), (numerators(), zero),
             ((big,) * phi, (-big,) * phi)]
    cases += [(numerators(), numerators()) for _ in range(25)]
    for a, b in cases:
        assert product(a, b) == tuple(_fold(n, _convolve(a, b), phi)), (a, b)


def test_product_kernel_cutoff(monkeypatch):
    # phi(N) is even for N > 2, so phi = 4 (N = 5, 8, 10, 12) and phi = 6
    # (N = 7, 9, 14, 18) are the values on either side of the cutoff
    assert cyclotomic._KERNEL_MAX_PHI == 4
    folds = []

    def counting_fold(n, vec, phi):
        folds.append(n)
        return _fold(n, vec, phi)

    monkeypatch.setattr(cyclotomic, "_fold", counting_fold)
    for n, generated in ((5, True), (8, True), (10, True), (12, True),
                         (7, False), (9, False), (14, False), (18, False)):
        _product_kernel.cache_clear()
        a = root_of_unity(n, 1) + Fraction(2, 3)
        b = root_of_unity(n, n - 1) - 5
        folds.clear()
        product = a * b
        assert folds == ([] if generated else [n]), n
        assert product.num == tuple(_fold(n, _convolve(a.num, b.num), euler_phi(n)))
    _product_kernel.cache_clear()


@st.composite
def fractional_elements(draw, n):
    """Zero, or an element with rational coordinates of mixed denominators."""
    if draw(st.integers(0, 3)) == 0:
        return Cyclotomic.zero(n)
    rationals = st.fractions(min_value=-30, max_value=30, max_denominator=12)
    return Cyclotomic(n, draw(st.lists(rationals, min_size=1, max_size=euler_phi(n))))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_dot_is_the_left_fold_of_products(data):
    n = data.draw(st.sampled_from(CONDUCTORS + [7, 15, 16, 420]))
    length = data.draw(st.integers(1, 5))
    xs = [data.draw(fractional_elements(n)) for _ in range(length)]
    ys = [data.draw(fractional_elements(n)) for _ in range(length)]
    expected = xs[0] * ys[0]
    for x, y in zip(xs[1:], ys[1:]):
        expected = expected + x * y
    got = dot(xs, ys)
    assert (got.num, got.den) == (expected.num, expected.den)


def _is_canonical(v):
    return (v.den > 0 and gcd(v.den, *v.num) == 1 and len(v.num) == euler_phi(v.conductor)
            and v.coeffs == tuple(Fraction(a, v.den) for a in v.num))


@settings(max_examples=80)
@given(st.data())
def test_canonical_numerator_and_denominator(data):
    n = data.draw(conductors)
    rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
    a = Cyclotomic(n, data.draw(st.lists(rationals, max_size=euler_phi(n))))
    b = Cyclotomic(n, data.draw(st.lists(rationals, max_size=euler_phi(n))))
    for v in (a, b, a + b, a - b, a * b, -a, Cyclotomic.zero(n)):
        assert _is_canonical(v)
    # equal values reached by different routes share (num, den), == and hash
    routes = [(a + b) - b, b + a - b, Cyclotomic(n, a.coeffs)]
    if not b.is_zero():
        routes += [(a * b) * b.inverse(), (a / b) * b, a * (b * b.inverse())]
        assert _is_canonical(b.inverse())
    for route in routes:
        assert _is_canonical(route)
        assert (route.num, route.den) == (a.num, a.den)
        assert route == a and hash(route) == hash(a)
    assert a.is_zero() == (a.num == (0,) * euler_phi(n) and a.den == 1)


def test_miller_rabin_against_sympy():
    sympy = pytest.importorskip("sympy")
    # small numbers, Carmichael numbers, strong pseudoprimes to the first
    # bases, and the numbers just above 2^31
    cases = list(range(-2, 2000)) + [561, 1105, 1729, 2465, 2821, 6601, 8911,
                                     2047, 1373653, 25326001, 3215031751,
                                     3825123056546413051]
    cases += range(2 ** 31, 2 ** 31 + 3000)
    for n in cases:
        assert _is_prime(n) == bool(sympy.isprime(n)), n


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 12, 15, 105, 420])
def test_split_prime(n):
    sympy = pytest.importorskip("sympy")
    p, omega = split_prime(n)
    assert p > 2 ** 31 and (p - 1) % n == 0 and sympy.isprime(p)
    # the least such prime
    assert not any(sympy.isprime(q) for q in range(p - n, 2 ** 31, -n))
    # omega has exact order n, so it is a root of Phi_N mod p
    assert pow(omega, n, p) == 1
    assert all(pow(omega, n // q, p) != 1 for q in sympy.primefactors(n))
    assert sum(c * pow(omega, i, p) for i, c in enumerate(cyclotomic_polynomial(n))) % p == 0


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 12, 15, 420])
def test_residue_is_a_ring_map(n):
    p = split_prime(n)[0]
    rng = random.Random(7 * n)
    for _ in range(10 if n > 100 else 40):
        a = _random_rational_element(rng, n)
        b = _random_rational_element(rng, n)
        ra, rb = residue(a, 0), residue(b, 0)
        assert 0 <= ra < p and 0 <= rb < p
        assert residue(a + b, 0) == (ra + rb) % p
        assert residue(a - b, 0) == (ra - rb) % p
        assert residue(a * b, 0) == ra * rb % p
        # dense inverses at phi(N) = 96 are slow and add nothing here
        if n < 100 and not b.is_zero() and rb:
            assert residue(b.inverse(), 0) == pow(rb, -1, p)
    for k in divisors(n):
        # zeta^k goes to omega^k
        assert residue(root_of_unity(n, k), 0) == pow(split_prime(n)[1], k, p)
    assert residue(Cyclotomic.rational(n, p), 0) == 0
    assert residue(Cyclotomic.rational(n, Fraction(1, 3 * p)), 0) is None


def _galois_conjugate(v, k):
    """sigma_k(v): zeta -> zeta^k on the power-basis coordinates."""
    n = v.conductor
    vec = [0] * n
    for i, c in enumerate(v.coeffs):
        vec[i * k % n] += c
    return Cyclotomic.from_zeta_coeffs(n, vec)


def _images(v):
    """The residues of v under every embedding, e = 0 first."""
    return [residue(v, e) for e in range(euler_phi(v.conductor))]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 12, 15])
def test_residue_images_and_lift(n):
    p = split_prime(n)[0]
    units = [k for k in range(1, n + 1) if gcd(k, n) == 1]
    rng = random.Random(11 * n)
    for _ in range(30):
        v = _random_rational_element(rng, n)
        images = _images(v)
        # the embedding zeta -> omega^k is embedding 0 after sigma_k
        assert images == [residue(_galois_conjugate(v, k), 0) for k in units]
        assert lift(n, images) == v
    assert _images(Cyclotomic.rational(n, Fraction(1, 3 * p))) == [None] * euler_phi(n)
    # coordinates up to sqrt(p/2) lift, and one just above does not
    bound = isqrt(p // 2)
    edge = Cyclotomic(n, [Fraction(-bound, bound - 1)] + [bound] * (euler_phi(n) - 1))
    assert lift(n, _images(edge)) == edge
    above = Cyclotomic.rational(n, Fraction(1, bound + 1))
    assert lift(n, _images(above)) != above


def test_rational_reconstruction_against_brute_force():
    # p = 101, bound 7: every residue with a fraction n/d, |n|, d <= 7,
    # gives that fraction, and every other residue gives None
    p, bound = 101, isqrt(101 // 2)
    fractions = {}
    for d in range(1, bound + 1):
        for num in range(-bound, bound + 1):
            fractions.setdefault(num * pow(d, -1, p) % p, Fraction(num, d))
    for a in range(p):
        got = _rational(a, p, bound)
        assert (got and Fraction(*got)) == fractions.get(a), a
