"""Exact arithmetic in the cyclotomic field Q(zeta_N).

Elements are stored as coordinate vectors of Fractions in the power basis
1, zeta, ..., zeta^(phi(N)-1), kept canonical modulo the N-th cyclotomic
polynomial.  Equality of vectors is therefore equality in the field.  A
fixed conductor N is chosen per algebra instance; mixing conductors raises
ConductorMismatch (plain integers and Fractions coerce into any conductor).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache


class ConductorMismatch(ValueError):
    """Raised when two elements with different conductors are combined."""


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


# -- dense polynomial helpers over Fraction, coefficients low to high --

def _poly_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _poly_trim(out)


def _poly_divmod(a, b):
    # exact over Q; trailing zeros in either input are tolerated
    a = _poly_trim(list(a))
    b = _poly_trim(list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    inv_lead = Fraction(1) / b[-1]
    support = [(i, bi) for i, bi in enumerate(b) if bi]
    while len(a) >= len(b) and _poly_trim(a):
        shift = len(a) - len(b)
        coeff = a[-1] * inv_lead
        q[shift] = coeff
        for i, bi in support:
            a[shift + i] -= coeff * bi
        _poly_trim(a)
    return _poly_trim(q), a


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple:
    """Coefficients of the n-th cyclotomic polynomial, low to high, monic."""
    if n == 1:
        return (Fraction(-1), Fraction(1))
    # (x^n - 1) / prod_{d | n, d < n} Phi_d
    num = [Fraction(0)] * (n + 1)
    num[0], num[n] = Fraction(-1), Fraction(1)
    den = [Fraction(1)]
    for d in divisors(n)[:-1]:
        den = _poly_mul(den, list(cyclotomic_polynomial(d)))
    quo, rem = _poly_divmod(num, den)
    if rem:
        raise ArithmeticError(f"x^{n} - 1 is not divisible by the lower cyclotomic factors")
    return tuple(quo)


@lru_cache(maxsize=None)
def _reduction_table(n: int) -> tuple:
    """Power basis expansions of zeta^m for phi(n) <= m <= 2*phi(n)-2, read
    from the root table since zeta^m = zeta^(m mod n)."""
    roots = _root_table(n)[0]
    phi = euler_phi(n)
    return tuple(roots[m % n].coeffs for m in range(phi, 2 * phi - 1))


def _poly_egcd(a, b):
    """Extended gcd in Q[x]: returns (g, s, t) with s*a + t*b = g."""
    r0, r1 = list(a), list(b)
    s0, s1 = [Fraction(1)], []
    t0, t1 = [], [Fraction(1)]
    while _poly_trim(list(r1)):
        q, r = _poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        t0, t1 = t1, _poly_sub(t0, _poly_mul(q, t1))
    return r0, s0, t0


def _poly_sub(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, ai in enumerate(a):
        out[i] += ai
    for i, bi in enumerate(b):
        out[i] -= bi
    return _poly_trim(out)


def _coerce_coeff(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        return Fraction(v)
    raise TypeError(f"cannot interpret {v!r} as a rational number")


class Cyclotomic:
    """An element of Q(zeta_N), canonical in the power basis mod Phi_N."""

    __slots__ = ("conductor", "coeffs", "_hash")

    def __init__(self, conductor: int, coeffs):
        phi = euler_phi(conductor)
        vec = [Fraction(0)] * phi
        for i, c in enumerate(coeffs):
            if i >= phi:
                raise ValueError("coefficient vector longer than phi(N)")
            vec[i] = _coerce_coeff(c)
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "coeffs", tuple(vec))
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Cyclotomic is immutable")

    # -- constructors --

    @staticmethod
    def rational(conductor: int, value) -> "Cyclotomic":
        return Cyclotomic(conductor, [_coerce_coeff(value)])

    @staticmethod
    def zero(conductor: int) -> "Cyclotomic":
        return Cyclotomic(conductor, [])

    @staticmethod
    def one(conductor: int) -> "Cyclotomic":
        return Cyclotomic(conductor, [Fraction(1)])

    @staticmethod
    def from_zeta_coeffs(conductor: int, coeffs) -> "Cyclotomic":
        """Sum of coeffs[k] * zeta^k: the coefficient polynomial mod Phi_N."""
        _, rem = _poly_divmod([_coerce_coeff(c) for c in coeffs],
                              cyclotomic_polynomial(conductor))
        return Cyclotomic(conductor, rem)

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

    # -- ring operations --

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return Cyclotomic(self.conductor,
                          [a + b for a, b in zip(self.coeffs, o.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.conductor, [-a for a in self.coeffs])

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return Cyclotomic(self.conductor,
                          [a - b for a, b in zip(self.coeffs, o.coeffs)])

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        phi = len(self.coeffs)
        prod = [Fraction(0)] * (2 * phi - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(o.coeffs):
                    if b:
                        prod[i + j] += a * b
        out = prod[:phi]
        table = _reduction_table(self.conductor)
        for m in range(phi, 2 * phi - 1):
            c = prod[m]
            if c:
                row = table[m - phi]
                for i in range(phi):
                    out[i] += c * row[i]
        return Cyclotomic(self.conductor, out)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        if self.is_zero():
            raise ZeroDivisionError("division by zero in Q(zeta_N)")
        mod = list(cyclotomic_polynomial(self.conductor))
        g, s, _ = _poly_egcd(list(self.coeffs), mod)
        # g is a nonzero constant since Phi_N is irreducible
        if len(g) != 1:
            raise ArithmeticError(f"gcd with Phi_{self.conductor} is not a constant")
        inv = [c / g[0] for c in s]
        _, rem = _poly_divmod(inv, mod)
        return Cyclotomic(self.conductor, rem)

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
        return all(c == 0 for c in self.coeffs)

    def __bool__(self):
        return not self.is_zero()

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return self.coeffs[0]

    def __eq__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.conductor, self.coeffs)))
        return self._hash

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
        """Order in the unit group, or None if infinite (not a root of unity)."""
        if self.is_zero():
            raise ValueError("zero has no multiplicative order")
        n = self.conductor
        bound = n if n % 2 == 0 else 2 * n
        if self ** bound != 1:
            return None
        return next(d for d in divisors(bound) if self ** d == 1)


@lru_cache(maxsize=None)
def _root_table(conductor: int) -> tuple:
    """(roots, logs): roots[k] = zeta_N^k for k in [0, N), and logs maps each
    root back to k.  Each root is the previous one times zeta: a shift of the
    coefficient vector plus at most one subtraction of Phi_N."""
    phi = euler_phi(conductor)
    support = [(i, c) for i, c in enumerate(cyclotomic_polynomial(conductor)[:phi]) if c]
    cur = [Fraction(1)] + [Fraction(0)] * (phi - 1)
    roots = []
    for _ in range(conductor):
        roots.append(Cyclotomic(conductor, cur))
        top = cur[-1]
        cur = [Fraction(0)] + cur[:-1]
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


def q_binomial(n: int, k: int, q: Cyclotomic) -> Cyclotomic:
    """Gauss binomial via the Pascal recurrence
    binom(n,k) = binom(n-1,k-1) + q^k * binom(n-1,k),
    which stays defined at roots of unity where the factorial quotient is 0/0.
    """
    if not 0 <= k <= n:
        raise ValueError(f"q-binomial index out of range: ({n}, {k})")
    one = Cyclotomic.one(q.conductor)
    row = [one]  # row for n = 0
    for m in range(1, n + 1):
        new = [one]
        for j in range(1, m):
            new.append(row[j - 1] + q ** j * row[j])
        new.append(one)
        row = new
    return row[k]
