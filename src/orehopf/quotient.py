"""Finite quotients H / <x^n - lambda1(1 - b^n), y^m - lambda2(1 - c^m)>.

n and m are the multiplicative orders of p = chi(b) and r = eta(c), both
required > 1.  The quotient is free of rank n*m over K[G] on the monomials
x^i y^j, 0 <= i < n, 0 <= j < m.

In the raw presentation x and y are (1, R)-skew-primitive, R = b and c, in
both modes, so each variable v of order k has one generator
v^k - lambda(1 - R^k) and one rule.  The ideal is two-sided only when each
generator with lambda != 0 is normal, which the constructor checks and
raises SpecError otherwise:
- q^k = 1 for q = eta(b), since moving the other variable across the
  generator leaves lambda(q^k - 1) times it (automatic in
  DifferentialOperator mode, where q has order n = m);
- chi^n = epsilon for x and eta^m = epsilon for y, read on the group
  generators, since g v^k g^-1 = psi(g)^k v^k for the character psi of v:
  where psi(g)^k != 1 the ideal holds v^k - g v^k g^-1, a nonzero multiple
  of v^k, and with it lambda(1 - R^k) in K[G], so the reduced monomials
  below would not be a basis.

In H's internal basis {g x^i w^j} the generator is lead h u^k + P with
u = x or w and P in K[G], so reduction replaces u^k by -(lead h)^(-1) P;
only hopfcore knows how y is written in that basis.  The group elements of
-(lead h)^(-1) P are 1 and R^(+-k), which commute with both variables:
chi(b^n) = p^n = 1 and eta(c^m) = r^m = 1, and when lambda != 0,
eta(b^n) = q^n = 1 and chi(c^m) = q^(-m) = 1.  So the substitute needs no
crossing factor wherever it lands.
"""

from __future__ import annotations

from functools import cached_property

from .cyclotomic import Cyclotomic
from .hopfcore import (AlgebraSpec, GroupAlgElem, HopfElem, SpecError,
                       TensorElem, _Terms, _acc, _nonzero, antipode, comultiply,
                       counit, cyclotomic_to_literal, multiply)
from .report import Report


class QuotientSpec:
    """Quotient data on top of a validated AlgebraSpec."""

    def __init__(self, base: AlgebraSpec, lambda1, lambda2):
        self.base = base
        self.lambda1 = base.scalar(lambda1)
        self.lambda2 = base.scalar(lambda2)
        one = Cyclotomic.one(base.conductor)
        roots = []
        for char, R, lam, order_error, lambda_error, normal_error in (
                (base.chi, base.b, self.lambda1,
                 "chi(b) must be a primitive n-th root with n > 1",
                 "lambda1 != 0 requires q^n = 1 (b^n must commute with y)",
                 "lambda1 != 0 requires chi^n = epsilon (x^n must be normal)"),
                (base.eta, base.c, self.lambda2,
                 "eta(c) must be a primitive m-th root with m > 1",
                 "lambda2 != 0 requires q^m = 1 (c^m must commute with x)",
                 "lambda2 != 0 requires eta^m = epsilon (y^m must be normal)")):
            root = char.eval(R)
            k = root.multiplicative_order()
            if k is None or k <= 1:
                raise SpecError(order_error)
            if not lam.is_zero():
                if base.q ** k != one:
                    raise SpecError(lambda_error)
                g = next((g for g in base.group.generators()
                          if char.exponent(g, k)), None)
                if g is not None:
                    raise SpecError(f"{normal_error}; it fails on the generator "
                                    f"{list(g.exps)}")
            roots.append((root, k))
        (self.p, self.n), (self.r, self.m) = roots

    def __repr__(self):
        return f"QuotientSpec(n={self.n}, m={self.m}, mode={self.base.mode.value})"

    def _variables(self):
        """(name, raw generator v, R, order k, lambda) for x and for y."""
        base = self.base
        return (("x", base.x(), base.b, self.n, self.lambda1),
                ("y", base.y(), base.c, self.m, self.lambda2))

    @cached_property
    def _generators(self):
        """The ideal generators v^k - lambda(1 - R^k) as elements of H."""
        base = self.base
        ident = base.group.identity()
        return tuple(
            v ** k - base.from_group_alg(
                GroupAlgElem.of(ident, base.conductor, lam)
                - GroupAlgElem.of(R ** k, base.conductor, lam))
            for _, v, R, k, lam in self._variables())

    def generator_x(self) -> HopfElem:
        return self._generators[0]

    def generator_y(self) -> HopfElem:
        return self._generators[1]

    @cached_property
    def _rules(self):
        """For u = x and u = w, the (f, c) with u^k = sum c f modulo the
        ideal."""
        rules = []
        for gen in self._generators:
            # gen = lead h u^k + P with P in K[G], so u^k = -(lead h)^(-1) P
            (h, _, _), lead = next((key, c) for key, c in gen.terms.items()
                                   if key[1] or key[2])
            h_inv, scale = h.inverse(), -lead.inverse()
            rules.append([(h_inv * f, c * scale)
                          for (f, dx, dw), c in gen.terms.items()
                          if not (dx or dw)])
        return rules


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

    Substitutes the rule of x^n or w^m until all exponents are in range;
    each substitution strictly drops total degree.  The substituted group
    elements commute with x and w, so they need no crossing factor.
    """
    if a.spec is not qs.base:
        raise ValueError("element does not live over the quotient's base spec")
    n, m = qs.n, qs.m
    x_subs, w_subs = qs._rules
    work = dict(a.terms)
    done: dict = {}
    while work:
        (g, i, j), coeff = work.popitem()
        if coeff.is_zero():
            continue
        if i >= n:
            i, subs = i - n, x_subs
        elif j >= m:
            j, subs = j - m, w_subs
        else:
            _acc(done, (g, i, j), coeff)
            continue
        for f, c in subs:
            _acc(work, (g * f, i, j), coeff * c)
    return QuotientElem(qs, done)


def q_multiply(a: QuotientElem, b: QuotientElem, qs: QuotientSpec) -> QuotientElem:
    """The reduced product of two elements of the quotient qs."""
    a._check(b)
    if a.qspec is not qs:
        raise ValueError("factors are not elements of the given quotient")
    return q_reduce(multiply(a.to_hopf(), b.to_hopf()), qs)


def hopf_ideal_check(qs: QuotientSpec) -> Report:
    """Certify that the quotient ideal is a Hopf ideal, by closed forms.

    Exact checks in H and H (x) H on each generator gen = v^k - lambda(1 -
    R^k): its coproduct is gen (x) 1 + R^k (x) gen, its counit vanishes and
    its antipode is -R^(-k) gen; then the sign identities
    (-1)^n p^(n(n+1)/2) = -1 and (-1)^m r^(m(m+1)/2) = -1 hold.
    """
    base = qs.base
    one = base.one()
    holds = {}
    for (v, _, R, k, _), gen in zip(qs._variables(), qs._generators):
        holds[v] = {
            "coproduct": comultiply(gen) == TensorElem.of(gen, one)
            + TensorElem.of(base.group_element(R ** k), gen),
            "counit": counit(gen).is_zero(),
            "antipode": antipode(gen)
            == multiply(base.group_element(R ** -k), gen).scale(-1)}
    witnesses = [{"check": f"{law}_{v}_generator"}
                 for law in ("coproduct", "counit", "antipode")
                 for v in ("x", "y") if not holds[v][law]]

    minus_one = Cyclotomic.rational(base.conductor, -1)
    signs = {}
    for name, root, k in (("p", qs.p, qs.n), ("r", qs.r, qs.m)):
        sign = (root ** (k * (k + 1) // 2)) * Cyclotomic.rational(
            base.conductor, (-1) ** k)
        signs[f"sign_{name}"] = cyclotomic_to_literal(sign)
        if sign != minus_one:
            witnesses.append({"check": f"sign_identity_{name}",
                              "value": signs[f"sign_{name}"]})

    return Report(name="hopf_ideal_check", passed=not witnesses,
                  facts={"n": qs.n, "m": qs.m, "mode": base.mode.value,
                         "lambda1": cyclotomic_to_literal(qs.lambda1),
                         "lambda2": cyclotomic_to_literal(qs.lambda2),
                         **signs},
                  witnesses=witnesses)


def quotient_basis(qs: QuotientSpec) -> dict:
    """Basis descriptor for the rank-nm free module over K[G]: the monomials
    x^i y^j with i < n and j < m, and the dimension over the field when G is
    finite.  K[G] meets the ideal trivially because q_reduce rewrites only
    exponents >= n or >= m."""
    out = {"rank": qs.n * qs.m,
           "monomials": [(i, j) for i in range(qs.n) for j in range(qs.m)]}
    order = qs.base.group.order()
    if order is not None:
        out["dimension_over_field"] = order * qs.n * qs.m
    return out
