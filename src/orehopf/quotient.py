"""Finite quotients H / <x^n - lambda1(1 - b^n), y^m - lambda2(1 - c^m)>.

n and m are the multiplicative orders of p = chi(b) and r = eta(c), both
required > 1.  The quotient is free of rank n*m over K[G] on the monomials
x^i y^j, 0 <= i < n, 0 <= j < m.

Whenever lambda1 != 0 the two-sidedness of the ideal needs q^n = 1 for
q = eta(b): moving y across the x-generator leaves the remainder
lambda1(q^n - 1)y, which must vanish.  Symmetrically lambda2 != 0 needs
q^m = 1.  Both are asserted at construction (they hold automatically in
DifferentialOperator mode, where q has order n = m).
"""

from __future__ import annotations

from random import Random

from .cyclotomic import Cyclotomic
from .hopfcore import (AlgebraSpec, GroupAlgElem, HopfElem, Mode, SpecError,
                       TensorElem, _Terms, _acc, _nonzero, antipode, comultiply,
                       counit, cyclotomic_to_literal, multiply,
                       random_group_element, random_cyclotomic)
from .report import Report


class QuotientSpec:
    """Quotient data on top of a validated AlgebraSpec."""

    def __init__(self, base: AlgebraSpec, lambda1, lambda2):
        self.base = base
        self.lambda1 = base.scalar(lambda1)
        self.lambda2 = base.scalar(lambda2)
        p = base.chi.eval(base.b)
        r = base.eta.eval(base.c)
        n = p.multiplicative_order()
        m = r.multiplicative_order()
        if n is None or n <= 1:
            raise SpecError("chi(b) must be a primitive n-th root with n > 1")
        if m is None or m <= 1:
            raise SpecError("eta(c) must be a primitive m-th root with m > 1")
        self.p = p
        self.r = r
        self.n = n
        self.m = m
        q = base.q
        one = Cyclotomic.one(base.conductor)
        if not self.lambda1.is_zero() and q ** n != one:
            raise SpecError(
                "lambda1 != 0 requires q^n = 1 (b^n must commute with y)")
        if not self.lambda2.is_zero() and q ** m != one:
            raise SpecError(
                "lambda2 != 0 requires q^m = 1 (c^m must commute with x)")
        if base.mode is Mode.DIFFERENTIAL_OPERATOR:
            # transported second rule: z^m = lambda2' (c^-m - 1)
            eta_c = base.eta.eval(base.c)
            self.lambda2_norm = self.lambda2 * (base.beta.inverse() ** m) \
                * (eta_c ** (-(m * (m - 1) // 2)))
        else:
            self.lambda2_norm = self.lambda2

    def __repr__(self):
        return f"QuotientSpec(n={self.n}, m={self.m}, mode={self.base.mode.value})"

    # the two ideal generators as elements of H (raw presentation)
    def generator_x(self) -> HopfElem:
        base = self.base
        gen = base.x() ** self.n
        ga = GroupAlgElem.of(base.group.identity(), base.conductor, self.lambda1)
        ga = ga - GroupAlgElem.of(base.b ** self.n, base.conductor, self.lambda1)
        return gen - base.from_group_alg(ga)

    def generator_y(self) -> HopfElem:
        base = self.base
        gen = base.y() ** self.m
        ga = GroupAlgElem.of(base.group.identity(), base.conductor, self.lambda2)
        ga = ga - GroupAlgElem.of(base.c ** self.m, base.conductor, self.lambda2)
        return gen - base.from_group_alg(ga)


class QuotientElem(_Terms):
    """Reduced element: finite map (GroupElement, i < n, j < m) -> coefficient.

    Keys use the same internal PBW basis as HopfElem.
    """

    __slots__ = ("qspec",)
    _mismatch = "elements belong to different quotients"

    def __init__(self, qspec: QuotientSpec, terms):
        self.qspec = qspec
        for (_, i, j) in terms:
            if not (0 <= i < qspec.n and 0 <= j < qspec.m):
                raise ValueError("exponent outside the reduced range")
        self.terms = _nonzero(terms)

    def _space(self):
        return self.qspec

    def _like(self, terms):
        return QuotientElem(self.qspec, terms)

    def to_hopf(self) -> HopfElem:
        return HopfElem(self.qspec.base, dict(self.terms))

    def __mul__(self, other):
        if isinstance(other, QuotientElem):
            return q_multiply(self, other, self.qspec)
        return self.scale(other)

    def __repr__(self):
        return f"Q({self.to_hopf()!r})"


def q_reduce(a: HopfElem, qs: QuotientSpec) -> QuotientElem:
    """Reduced normal form of a PBW element modulo the quotient ideal.

    Substitutes x^n and the (mode-appropriate) m-th power of the second
    variable until all exponents are in range; each substitution strictly
    drops total degree, and the exact group-crossing factors are applied.
    """
    if a.spec is not qs.base:
        raise ValueError("element does not live over the quotient's base spec")
    base = qs.base
    n, m = qs.n, qs.m
    l1 = qs.lambda1
    bn = base.b ** n
    diff = base.mode is Mode.DIFFERENTIAL_OPERATOR
    if diff:
        l2 = qs.lambda2_norm
        cm = base.c ** (-m)
    else:
        l2 = qs.lambda2
        cm = base.c ** m
    work = dict(a.terms)
    done: dict = {}
    while work:
        (g, i, j), coeff = work.popitem()
        if coeff.is_zero():
            continue
        if i >= n:
            if not l1.is_zero():
                _acc(work, (g, i - n, j), coeff * l1)
                # b^n crosses x^(i-n) with factor p^(n(i-n)) = 1
                _acc(work, (g * bn, i - n, j), -(coeff * l1))
        elif j >= m:
            if not l2.is_zero():
                cross = base.chi.eval_pow(cm, i)
                if diff:
                    # z^m -> lambda2'(c^-m - 1)
                    _acc(work, (g * cm, i, j - m), coeff * l2 * cross)
                    _acc(work, (g, i, j - m), -(coeff * l2))
                else:
                    # y^m -> lambda2(1 - c^m)
                    _acc(work, (g, i, j - m), coeff * l2)
                    _acc(work, (g * cm, i, j - m), -(coeff * l2 * cross))
        else:
            _acc(done, (g, i, j), coeff)
    return QuotientElem(qs, done)


def q_multiply(a: QuotientElem, b: QuotientElem, qs: QuotientSpec) -> QuotientElem:
    """The reduced product of two elements of the quotient qs."""
    a._check(b)
    if a.qspec is not qs:
        raise ValueError("factors are not elements of the given quotient")
    return q_reduce(multiply(a.to_hopf(), b.to_hopf()), qs)


def hopf_ideal_check(qs: QuotientSpec) -> Report:
    """Certify that the quotient ideal is a Hopf ideal, by closed forms.

    Exact checks in H and H (x) H: the coproducts of both generators match
    gen (x) 1 + b^n (x) gen (resp. c^m), both counits vanish, the antipodes
    match -b^(-n) gen and -c^(-m) gen, and the two sign identities
    (-1)^n p^(n(n+1)/2) = -1, (-1)^m r^(m(m+1)/2) = -1 hold.
    """
    base = qs.base
    n, m = qs.n, qs.m
    witnesses = []
    one = base.one()

    gen_x = qs.generator_x()
    gen_y = qs.generator_y()
    bn = base.group_element(base.b ** n)
    cm = base.group_element(base.c ** m)

    if comultiply(gen_x) != TensorElem.of(gen_x, one) + TensorElem.of(bn, gen_x):
        witnesses.append({"check": "coproduct_x_generator"})
    if comultiply(gen_y) != TensorElem.of(gen_y, one) + TensorElem.of(cm, gen_y):
        witnesses.append({"check": "coproduct_y_generator"})
    if not counit(gen_x).is_zero():
        witnesses.append({"check": "counit_x_generator"})
    if not counit(gen_y).is_zero():
        witnesses.append({"check": "counit_y_generator"})
    bn_inv = base.group_element(base.b ** (-n))
    cm_inv = base.group_element(base.c ** (-m))
    if antipode(gen_x) != multiply(bn_inv, gen_x).scale(-1):
        witnesses.append({"check": "antipode_x_generator"})
    if antipode(gen_y) != multiply(cm_inv, gen_y).scale(-1):
        witnesses.append({"check": "antipode_y_generator"})

    minus_one = Cyclotomic.rational(base.conductor, -1)
    sign_p = (qs.p ** (n * (n + 1) // 2)) * Cyclotomic.rational(
        base.conductor, (-1) ** n)
    sign_r = (qs.r ** (m * (m + 1) // 2)) * Cyclotomic.rational(
        base.conductor, (-1) ** m)
    if sign_p != minus_one:
        witnesses.append({"check": "sign_identity_p",
                          "value": cyclotomic_to_literal(sign_p)})
    if sign_r != minus_one:
        witnesses.append({"check": "sign_identity_r",
                          "value": cyclotomic_to_literal(sign_r)})

    return Report(name="hopf_ideal_check", passed=not witnesses,
                  facts={"n": n, "m": m, "mode": base.mode.value,
                         "lambda1": cyclotomic_to_literal(qs.lambda1),
                         "lambda2": cyclotomic_to_literal(qs.lambda2),
                         "sign_p": cyclotomic_to_literal(sign_p),
                         "sign_r": cyclotomic_to_literal(sign_r)},
                  witnesses=witnesses)


def quotient_basis(qs: QuotientSpec, samples: int = 20, seed: int = 0) -> dict:
    """Basis descriptor for the rank-nm free module over K[G].

    Also samples random group-algebra elements and confirms they are fixed
    points of q_reduce, a desk-scale witness that K[G] meets the ideal
    trivially.
    """
    base = qs.base
    rng = Random(seed)
    fixed = True
    for _ in range(samples):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            g = random_group_element(base.group, rng)
            terms[(g, 0, 0)] = random_cyclotomic(base, rng)
        elem = HopfElem(base, terms)
        if q_reduce(elem, qs).to_hopf() != elem:
            fixed = False
            break
    order = base.group.order()
    out = {
        "rank": qs.n * qs.m,
        "monomials": [(i, j) for i in range(qs.n) for j in range(qs.m)],
        "group_algebra_fixed_points": fixed,
        "samples": samples,
        "seed": seed,
    }
    if order is not None:
        out["dimension_over_field"] = order * qs.n * qs.m
    return out
