"""Exact arithmetic in the cyclotomic field Q(zeta_N).

An element is one tuple of integer numerators ``num`` and one positive
integer denominator ``den``: the value sum(num[i] * zeta^i) / den in the
power basis 1, zeta, ..., zeta^(phi(N)-1), kept canonical modulo the N-th
cyclotomic polynomial Phi_N.  The pair is normalized so that
gcd(num[0], ..., num[phi-1], den) = 1, and zero is (0, ..., 0) / 1, so
equal field elements have equal pairs; equality and hashing compare them.
Phi_N is monic with integer coefficients, so the numerators of a product
are integer sums: convolve, then fold the powers zeta^m, m >= phi(N), back
with one integer table per N (``_reduction_table``).  ``_product_kernel(N)``
does both in one function per conductor.  For phi(N) <= 4 that function is
generated once with ``exec``: it unpacks the two numerator tuples and
returns each coordinate as one straight-line sum of products a_i * b_j
with the table's integer coefficients, so no Python loop runs per product.
The source is assembled from phi(N), variable indices and the table's
integers only, never from an input string, so exec runs no text a caller
chose.  Above phi = 4 the kernel is the convolve+fold loop: the generated
function multiplies all phi^2 pairs, zeros included, so on sparse
operands such as roots of unity it loses to convolve+fold, which skips
zero coordinates, in ``dot`` from phi = 6 and in ``*`` from phi = 12.
``*`` calls the kernel; the canonical pairs are those of convolve+fold.
``coeffs`` derives the Fraction coordinates for readers.
A fixed conductor N is chosen per algebra instance; mixing conductors
raises ConductorMismatch (plain integers and Fractions coerce into any
conductor).

``dot`` sums the products of two vectors, and ``linalg.mat_mul`` those of
each entry of a matrix product, through one routine per conductor
(``_sum_of_products``): the products are scaled to the lcm of their
denominators and added, and the sum is normalized with one gcd.  Up to
the cutoff each product comes from the kernel; above it the convolutions
accumulate unfolded and the sum folds once.  ``_sum_vanishes`` is its
twin for exact identity tests (``linalg.first_mismatch``): a term may
subtract its product, and the integer sum is only tested for zero, with
no gcd taken and no field element built.

``residue(v, e)`` maps an element to F_p for the split prime p of its
conductor (``split_prime``) under the e-th embedding: since p = 1 mod N,
zeta can go to any of the phi(N) primitive N-th roots omega^k mod p, k
coprime to N in increasing order, and e = 0 sends zeta to omega.  Each is
a ring map defined wherever p does not divide the denominator, under which
the rank of a matrix can only drop.  ``lift`` inverts the images under all
phi(N) embeddings by interpolation and rational reconstruction, or returns
None.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm
from operator import add, sub


class ConductorMismatch(ValueError):
    """Raised when two elements with different conductors are combined."""


# typed, so that 2.0 is no cached alias of 2
@lru_cache(maxsize=None, typed=True)
def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("conductor must be a positive integer")
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _mobius(n: int) -> int:
    out = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


# -- dense integer polynomials, coefficients low to high --

def _poly_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _convolve(a, b) -> list:
    out = [0] * (len(a) + len(b) - 1)
    support = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in support:
                out[i + j] += x * y
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple:
    """Integer coefficients of the n-th cyclotomic polynomial, low to high,
    monic: the product of (x^d - 1)^mu(n/d) over the divisors d of n."""
    poly = [1]
    divs = divisors(n)
    for d in divs:
        if _mobius(n // d) == 1:
            out = [-c for c in poly] + [0] * d
            for i, c in enumerate(poly):
                out[i + d] += c
            poly = out
    for d in divs:
        if _mobius(n // d) == -1:
            # exact division by x^d - 1: p_k = q_(k-d) - q_k
            quo = [0] * (len(poly) - d)
            for k in range(len(quo)):
                quo[k] = (quo[k - d] if k >= d else 0) - poly[k]
            poly = quo
    return tuple(poly)


@lru_cache(maxsize=None)
def _reduction_table(n: int) -> tuple:
    """Row m is zeta^m in the power basis as sparse integer pairs (i, c),
    for 0 <= m < max(n, 2 phi(n) - 1): enough for the degrees of a product
    of two canonical vectors and for any exponent taken mod n.  The rows
    are the root table's, since zeta^m = zeta^(m mod n)."""
    roots = _root_table(n)[0]
    size = max(n, 2 * euler_phi(n) - 1)
    return tuple(tuple((i, c) for i, c in enumerate(roots[m % n].num) if c)
                 for m in range(size))


def _fold(n: int, vec: list, phi: int) -> list:
    """Integer coefficients of zeta^0 .. zeta^(len(vec)-1) reduced to the
    phi power-basis coordinates."""
    if len(vec) <= phi:
        return vec + [0] * (phi - len(vec))
    out = vec[:phi]
    table = _reduction_table(n)
    for m in range(phi, len(vec)):
        c = vec[m]
        if c:
            for i, r in table[m]:
                out[i] += c * r
    return out


# the largest phi(N) whose products run as one generated function; above
# it the phi^2 products, zeros included, cost more than convolve+fold on
# sparse operands (phi = 3 and 5 do not occur)
_KERNEL_MAX_PHI = 4


def _signed_sum(terms) -> str:
    """Python source of the sum of c * t over pairs (c, t), c a nonzero int."""
    out = ""
    for c, t in terms:
        sign, c = (" - ", -c) if c < 0 else (" + ", c)
        out += sign + (t if c == 1 else f"{c}*{t}")
    return out[3:] if out.startswith(" + ") else "-" + out[3:]


@lru_cache(maxsize=None)
def _product_kernel(n: int):
    """The function (a, b) -> numerators of a * b, for two canonical
    numerator tuples of conductor n: the phi power-basis coordinates of
    the convolution folded by ``_reduction_table(n)``.

    For phi(n) <= _KERNEL_MAX_PHI it is one generated function that
    unpacks a and b and returns every coordinate as one straight-line sum
    of products a_i * b_j with integer coefficients; a power zeta^m,
    m >= phi, that folds into several coordinates is summed once.  Its
    source is built from phi and the table's integers only.  Above the
    cutoff it is convolve+fold."""
    phi = euler_phi(n)
    if phi > _KERNEL_MAX_PHI:
        return lambda a, b: tuple(_fold(n, _convolve(a, b), phi))
    table = _reduction_table(n)
    conv = [[f"a{i}*b{m - i}" for i in range(max(0, m - phi + 1), min(m, phi - 1) + 1)]
            for m in range(2 * phi - 1)]
    lines = [f"    {', '.join(f'{v}{i}' for i in range(phi))}, = {v}" for v in "ab"]
    coords = [[(1, t) for t in conv[k]] for k in range(phi)]
    for m in range(phi, 2 * phi - 1):
        terms = conv[m]
        if len(table[m]) > 1 and len(terms) > 1:
            lines.append(f"    c{m} = {' + '.join(terms)}")
            terms = [f"c{m}"]
        for k, c in table[m]:
            coords[k] += [(c, t) for t in terms]
    lines.append(f"    return ({', '.join(map(_signed_sum, coords))},)")
    namespace = {}
    exec("def product(a, b):\n" + "\n".join(lines) + "\n", namespace)
    return namespace["product"]


def _unit_cofactor(a: list, mod: list):
    """(s, g) with s*a = g modulo mod, g a nonzero integer, for integer
    polynomials a and mod with deg a < deg mod.  The extended Euclidean
    algorithm over Z[x]: each step pseudo-divides, k*r0 = q*r1 + r with
    k = lead(r1)^e, and divides the new remainder and cofactor by their
    common content."""
    r0, r1 = list(mod), _poly_trim(list(a))
    s0, s1 = [], [1]
    while len(r1) > 1:
        lead, d1 = r1[-1], len(r1) - 1
        r, q, k = list(r0), [0] * (len(r0) - d1), 1
        while len(r) > d1:
            c, shift = r[-1], len(r) - 1 - d1
            r = [lead * x for x in r]
            q = [lead * x for x in q]
            k *= lead
            q[shift] += c
            for i, y in enumerate(r1):
                r[shift + i] -= c * y
            _poly_trim(r)
        s = [k * x for x in s0] + [0] * max(0, len(q) + len(s1) - 1 - len(s0))
        for i, x in enumerate(_convolve(q, s1)):
            s[i] -= x
        content = gcd(*r, *s)
        if content > 1:
            r = [x // content for x in r]
            s = [x // content for x in s]
        r0, r1, s0, s1 = r1, r, s1, _poly_trim(s)
    if not r1:
        raise ArithmeticError("gcd with the cyclotomic polynomial is not a constant")
    return s1, r1[0]


# a rational string: an optionally signed integer or n/d, ASCII digits only
_RATIONAL_LITERAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _coerce_coeff(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        # checked first, so that no exponent such as 1e3000000 is expanded
        if not _RATIONAL_LITERAL.fullmatch(v):
            raise ValueError(f"{v!r} is not an integer or a fraction n/d")
        try:
            return Fraction(v)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {v!r}") from None
    raise TypeError(f"cannot interpret {v!r} as a rational number")


def _integer_parts(values):
    """(numerators, den) of rationals over the lcm den of their denominators."""
    vals = [_coerce_coeff(v) for v in values]
    den = lcm(1, *(v.denominator for v in vals))
    return [v.numerator * (den // v.denominator) for v in vals], den


class Cyclotomic:
    """An element num/den of Q(zeta_N), canonical in the power basis mod
    Phi_N, with gcd(num, den) = 1 and den > 0."""

    __slots__ = ("conductor", "num", "den", "_hash")

    def __init__(self, conductor: int, coeffs):
        phi = euler_phi(conductor)
        coeffs = list(coeffs)
        if len(coeffs) > phi:
            raise ValueError("coefficient vector longer than phi(N)")
        # over the lcm of reduced denominators the gcd is already 1
        num, den = _integer_parts(coeffs)
        _set_conductor(self, conductor)
        _set_num(self, tuple(num) + (0,) * (phi - len(num)))
        _set_den(self, den)

    def __setattr__(self, name, value):
        raise AttributeError("Cyclotomic is immutable")

    # -- constructors --

    @staticmethod
    def rational(conductor: int, value) -> "Cyclotomic":
        if type(value) is int:
            num, den = value, 1
        else:
            v = _coerce_coeff(value)
            num, den = v.numerator, v.denominator
        return _new(conductor, (num,) + (0,) * (euler_phi(conductor) - 1), den)

    @staticmethod
    def zero(conductor: int) -> "Cyclotomic":
        return _new(conductor, (0,) * euler_phi(conductor), 1)

    @staticmethod
    def one(conductor: int) -> "Cyclotomic":
        return Cyclotomic.rational(conductor, 1)

    @staticmethod
    def from_zeta_coeffs(conductor: int, coeffs) -> "Cyclotomic":
        """Sum of coeffs[k] * zeta^k, reduced with zeta^N = 1 and Phi_N."""
        phi = euler_phi(conductor)
        num, den = _integer_parts(coeffs)
        vec = [0] * min(len(num), conductor)
        for k, a in enumerate(num):
            vec[k % conductor] += a
        return _canonical(conductor, _fold(conductor, vec, phi), den)

    # -- coercion --

    def _lift(self, other):
        if isinstance(other, Cyclotomic):
            if other.conductor != self.conductor:
                raise ConductorMismatch(
                    f"conductor mismatch: {self.conductor} vs {other.conductor}")
            return other
        if isinstance(other, (int, Fraction)):
            return Cyclotomic.rational(self.conductor, other)
        return None

    @property
    def coeffs(self) -> tuple:
        """The power-basis coordinates as a tuple of Fractions."""
        den = self.den
        return tuple(Fraction(a, den) for a in self.num)

    # -- ring operations --

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        da, db = self.den, o.den
        if da == db:
            return _canonical(self.conductor, [a + b for a, b in zip(self.num, o.num)], da)
        return _canonical(self.conductor,
                          [a * db + b * da for a, b in zip(self.num, o.num)], da * db)

    __radd__ = __add__

    def __neg__(self):
        return _new(self.conductor, tuple([-a for a in self.num]), self.den)

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        da, db = self.den, o.den
        if da == db:
            return _canonical(self.conductor, [a - b for a, b in zip(self.num, o.num)], da)
        return _canonical(self.conductor,
                          [a * db - b * da for a, b in zip(self.num, o.num)], da * db)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        n = self.conductor
        # the hot case, an element of the same conductor, skips _lift
        if other.__class__ is not Cyclotomic or other.conductor != n:
            other = self._lift(other)
            if other is None:
                return NotImplemented
        return _canonical(n, _product_kernel(n)(self.num, other.num), self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        if self.is_zero():
            raise ZeroDivisionError("division by zero in Q(zeta_N)")
        n = self.conductor
        phi = len(self.num)
        # s * num = g mod Phi_N, so (num / den)^-1 = den * s / g
        s, g = _unit_cofactor(self.num, cyclotomic_polynomial(n))
        if g < 0:
            s, g = [-c for c in s], -g
        return _canonical(n, _fold(n, [self.den * c for c in s], phi), g)

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        base = self
        if k < 0:
            base = self.inverse()
            k = -k
        out = Cyclotomic.one(self.conductor)
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- predicates and comparisons --

    def is_zero(self) -> bool:
        return not any(self.num)

    def __bool__(self):
        return any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self.num[0], self.den)

    def __eq__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            pass
        # the hash of the Fraction coordinates; Fraction(a) hashes as a
        h = hash((self.conductor, self.num if self.den == 1 else self.coeffs))
        _set_hash(self, h)
        return h

    def __repr__(self):
        if self.is_zero():
            return f"Cyc({self.conductor}; 0)"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c:
                if i == 0:
                    parts.append(str(c))
                elif i == 1:
                    parts.append(f"{c}*z" if c != 1 else "z")
                else:
                    parts.append(f"{c}*z^{i}" if c != 1 else f"z^{i}")
        return f"Cyc({self.conductor}; {' + '.join(parts)})"

    # -- root of unity structure --

    def multiplicative_order(self):
        """Order in the unit group, or None if infinite (not a root of unity).
        The roots of unity of Q(zeta_N) are the zeta^k, of order
        N / gcd(k, N), and for odd N also the -zeta^k, of twice that."""
        if self.is_zero():
            raise ValueError("zero has no multiplicative order")
        n = self.conductor
        k = zeta_log(self)
        if k is not None:
            return n // gcd(k, n)
        k = zeta_log(-self) if n % 2 else None
        return None if k is None else 2 * n // gcd(k, n)


# the slot setters bypass Cyclotomic.__setattr__
_set_conductor = Cyclotomic.conductor.__set__
_set_num = Cyclotomic.num.__set__
_set_den = Cyclotomic.den.__set__
_set_hash = Cyclotomic._hash.__set__


def _new(conductor: int, num: tuple, den: int) -> Cyclotomic:
    """The element num/den from a pair that is already canonical."""
    v = object.__new__(Cyclotomic)
    _set_conductor(v, conductor)
    _set_num(v, num)
    _set_den(v, den)
    return v


def _canonical(conductor: int, num, den: int) -> Cyclotomic:
    """The element num/den for den > 0, dividing out gcd(num, den)."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            return _new(conductor, tuple([a // g for a in num]), den // g)
    return _new(conductor, tuple(num), den)


def dot(xs, ys) -> Cyclotomic:
    """sum(x * y) over the paired entries of two nonempty sequences of
    elements of one conductor, through ``_sum_of_products``."""
    n = xs[0].conductor
    terms = []
    for a, b in zip(xs, ys):
        if a.conductor != n or b.conductor != n:
            raise ConductorMismatch(
                f"conductor mismatch: {n} vs {a.conductor} and {b.conductor}")
        if any(a.num) and any(b.num):
            terms.append((a.num, b.num, a.den * b.den))
    return _sum_of_products(n)(terms)


@lru_cache(maxsize=None)
def _sum_of_products(n: int):
    """The function terms -> sum(a * b / d) over terms (a, b, d): the
    numerator tuples a and b of two nonzero elements of conductor n and the
    product d of their denominators.  The products accumulate over the lcm
    of the d and normalize once, so the canonical pair equals that of the
    per-term sum.  Up to the kernel cutoff each product is folded by the
    product kernel; above it the convolutions add into one vector that
    folds once."""
    phi = euler_phi(n)
    product = _product_kernel(n)
    zero = (0,) * phi
    zero_element = _new(n, zero, 1)

    def total(terms):
        if not terms:
            return zero_element
        if len(terms) == 1:
            a, b, d = terms[0]
            return _new(n, product(a, b), 1) if d == 1 else _canonical(n, product(a, b), d)
        den = 1
        for _, _, d in terms:
            if den % d:
                den = den * d // gcd(den, d)
        if phi <= _KERNEL_MAX_PHI:
            acc = zero
            for a, b, d in terms:
                if d == den:
                    acc = list(map(add, acc, product(a, b)))
                else:
                    scale = den // d
                    acc = [s + scale * x for s, x in zip(acc, product(a, b))]
            return _canonical(n, acc, den)
        acc = [0] * (2 * phi - 1)
        for a, b, d in terms:
            scale = den // d
            support = [(j, y) for j, y in enumerate(b) if y]
            for i, x in enumerate(a):
                if x:
                    x *= scale
                    for j, y in support:
                        acc[i + j] += x * y
        return _canonical(n, _fold(n, acc, phi), den)

    return total


@lru_cache(maxsize=None)
def _sum_vanishes(n: int):
    """The function terms -> whether sum(a * b / d) = 0 over terms (a, b, d)
    of ``_sum_of_products``, where a negative d subtracts its product.
    The products are scaled to the lcm of the |d| and summed as integer
    numerators, which are tested for zero; no field element is built.  It
    keeps its own loops: building ``_sum_of_products`` on a shared
    accumulator cost one more call per entry, which made ``mat_mul`` about
    5 % slower at dimensions 2 to 4."""
    phi = euler_phi(n)
    product = _product_kernel(n)
    zero = (0,) * phi

    def vanishes(terms):
        den = 1
        for _, _, d in terms:
            if den % d:
                den = den * abs(d) // gcd(den, d)
        if phi <= _KERNEL_MAX_PHI:
            acc = zero
            for a, b, d in terms:
                if d == den:
                    acc = list(map(add, acc, product(a, b)))
                elif d == -den:
                    acc = list(map(sub, acc, product(a, b)))
                else:
                    scale = den // d
                    acc = [s + scale * x for s, x in zip(acc, product(a, b))]
            return not any(acc)
        acc = [0] * (2 * phi - 1)
        for a, b, d in terms:
            scale = den // d
            support = [(j, y) for j, y in enumerate(b) if y]
            for i, x in enumerate(a):
                if x:
                    x *= scale
                    for j, y in support:
                        acc[i + j] += x * y
        return not any(_fold(n, acc, phi))

    return vanishes


@lru_cache(maxsize=None)
def _root_table(conductor: int) -> tuple:
    """(roots, logs): roots[k] = zeta_N^k for k in [0, N), and logs maps each
    root back to k.  Each root is the previous one times zeta: a shift of the
    coefficient vector plus at most one subtraction of Phi_N."""
    phi = euler_phi(conductor)
    support = [(i, c) for i, c in enumerate(cyclotomic_polynomial(conductor)[:phi]) if c]
    cur = [1] + [0] * (phi - 1)
    roots = []
    for _ in range(conductor):
        roots.append(_new(conductor, tuple(cur), 1))
        top = cur[-1]
        cur = [0] + cur[:-1]
        if top:
            for i, c in support:
                cur[i] -= top * c
    return tuple(roots), {r: k for k, r in enumerate(roots)}


@lru_cache(maxsize=None)
def root_of_unity(conductor: int, k: int) -> Cyclotomic:
    """zeta_N^k as a canonical field element."""
    return _root_table(conductor)[0][k % conductor]


def zeta_log(v: Cyclotomic):
    """k in [0, N) with v = zeta_N^k, or None when v is no N-th root of unity."""
    return _root_table(v.conductor)[1].get(v)


# the bases 2..37 decide primality deterministically below 3.3e24
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the fixed bases _MR_BASES, exact for n < 3.3e24."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def split_prime(conductor: int) -> tuple:
    """(p, omega): p is the least prime above 2^31 with p = 1 mod N, so Phi_N
    splits into linear factors mod p, and omega is the first g^((p-1)/N),
    g = 2, 3, ..., of exact order N, a root of Phi_N mod p."""
    n = conductor
    p = (2 ** 31 // n + 1) * n + 1
    while not _is_prime(p):
        p += n
    primes = [q for q in divisors(n) if q > 1 and euler_phi(q) == q - 1]
    g = 2
    while True:
        omega = pow(g, (p - 1) // n, p)
        if all(pow(omega, n // q, p) != 1 for q in primes):
            return p, omega
        g += 1


@lru_cache(maxsize=None)
def _embeddings(conductor: int) -> tuple:
    """(p, powers, interpolation) for the split prime p of the conductor.

    The embeddings send zeta to omega^k for the k in [1, N] coprime to N,
    k = 1 first: these are the phi(N) roots of Phi_N mod p, one for each
    prime of Z[zeta] above p.  powers[e][i] is the image of zeta^i under
    embedding e, and interpolation is the inverse of that Vandermonde
    matrix mod p: row i maps the images back to coordinate i.  Its column
    for the node x is the Lagrange polynomial Phi_N(t) / ((t - x) Phi_N'(x)).
    """
    p, omega = split_prime(conductor)
    phi = euler_phi(conductor)
    cyc = cyclotomic_polynomial(conductor)
    powers, columns = [], []
    for k in range(1, conductor + 1):
        if gcd(k, conductor) != 1:
            continue
        x = pow(omega, k, p)
        powers.append(tuple(pow(x, i, p) for i in range(phi)))
        # synthetic division: Phi_N(t) = (t - x) quo(t), and quo(x) = Phi_N'(x)
        quo, acc = [0] * phi, 0
        for i in range(phi, 0, -1):
            acc = (cyc[i] + x * acc) % p
            quo[i - 1] = acc
        scale = pow(sum(c * w for c, w in zip(quo, powers[-1])), -1, p)
        columns.append([c * scale % p for c in quo])
    return p, tuple(powers), tuple(zip(*columns))


def residue(v: Cyclotomic, e: int):
    """The image of v in F_p, p = split_prime(N)[0], under the e-th
    embedding zeta -> omega^k (k coprime to N in increasing order, so e = 0
    is zeta -> omega): an integer in [0, p), or None when p divides the
    denominator."""
    p, powers, _ = _embeddings(v.conductor)
    if v.den % p == 0:
        return None
    s = sum(a * w for a, w in zip(v.num, powers[e]))
    return s % p if v.den == 1 else s * pow(v.den, -1, p) % p


def _rational(a: int, p: int, bound: int):
    """(n, d) with n = a d mod p, |n| <= bound and 0 < d <= bound, or None.
    For 2 bound^2 < p such a fraction is unique, and the extended Euclidean
    algorithm on (p, a), stopped at the first remainder <= bound, finds it
    (Wang, Guy and Davenport 1982)."""
    r0, r1, t0, t1 = p, a, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if abs(t1) > bound:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def lift(conductor: int, images):
    """The element of Q(zeta_N) with the given images under the embeddings
    e = 0, ..., phi(N) - 1 of ``residue``, or None.  Interpolation gives each power-basis
    coordinate mod p, and rational reconstruction reads it as n/d with
    |n|, d <= sqrt(p/2); None when a coordinate has no such form.  An
    element whose coordinates are so bounded is the only one with these
    images, so a caller that checks the lift exactly has the answer."""
    p, _, interpolation = _embeddings(conductor)
    bound = isqrt(p // 2)
    coords = []
    for row in interpolation:
        c = _rational(sum(w * y for w, y in zip(row, images)) % p, p, bound)
        if c is None:
            return None
        coords.append(c)
    den = lcm(*(d for _, d in coords))
    return _canonical(conductor, [n * (den // d) for n, d in coords], den)


def q_int(i: int, q: Cyclotomic) -> Cyclotomic:
    """Additive q-integer [i]_q = 1 + q + ... + q^(i-1)."""
    if i < 0:
        raise ValueError("q-integer index must be nonnegative")
    out = Cyclotomic.zero(q.conductor)
    power = Cyclotomic.one(q.conductor)
    for _ in range(i):
        out = out + power
        power = power * q
    return out


def _q_binomial_row(n: int, q: Cyclotomic) -> list:
    """[binom(n, k)_q for k = 0..n] via the Pascal recurrence
    binom(m, k) = binom(m-1, k-1) + q^k * binom(m-1, k),
    which stays defined at roots of unity where the factorial quotient is
    0/0.  The powers q^k are one running product, shared by every row.
    """
    one = Cyclotomic.one(q.conductor)
    powers = [one]
    for _ in range(1, n):
        powers.append(powers[-1] * q)
    row = [one]
    for m in range(1, n + 1):
        row = [one] + [row[k - 1] + powers[k] * row[k] for k in range(1, m)] + [one]
    return row


def q_binomial(n: int, k: int, q: Cyclotomic) -> Cyclotomic:
    """Gauss binomial binom(n, k)_q, read from the Pascal row of n."""
    if not 0 <= k <= n:
        raise ValueError(f"q-binomial index out of range: ({n}, {k})")
    return _q_binomial_row(n, q)[k]
