"""Quotient layer: reduction, ideal membership, Hopf-ideal certification."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from orehopf.abgroup import AbelianGroup, Character
from orehopf.cyclotomic import Cyclotomic, root_of_unity
from orehopf.hopfcore import (HopfElem, SpecError, comultiply, random_element,
                              validate_spec, TensorElem)
from orehopf.quotient import (QuotientElem, QuotientSpec, hopf_ideal_check,
                              q_multiply, q_reduce, quotient_basis)
from orehopf.catalog import generalized_taft, takeuchi_u1

from gen import diff_sweep_spec, quotient_sweep_spec


def u1_quotient(lam1=1, lam2=1):
    spec = takeuchi_u1().spec
    return QuotientSpec(spec, lam1, lam2)


def test_quotient_orders_u1():
    qs = u1_quotient()
    assert (qs.n, qs.m) == (2, 2)
    assert qs.p == Cyclotomic.rational(2, -1)
    assert qs.r == Cyclotomic.rational(2, -1)


def test_rejects_trivial_chi_b():
    group = AbelianGroup(2)
    chi = Character(group, 4, [0, 1])
    eta = Character(group, 4, [0, 3])
    b = group.element([1, 0])
    c = group.element([1, 0])
    spec = validate_spec(group, chi, eta, b, c, 0)
    with pytest.raises(SpecError, match="primitive n-th root"):
        QuotientSpec(spec, 0, 0)


def test_rejects_lambda1_when_qn_not_one():
    # q = zeta_8 has q^4 != 1 while chi(b) has order 4
    group = AbelianGroup(2)
    chi = Character(group, 8, [2, 1])
    eta = Character(group, 8, [1, 0])
    b = group.element([1, 0])
    c = group.element([3, 1])
    spec = validate_spec(group, chi, eta, b, c, 0)
    assert spec.chi.eval(b).multiplicative_order() == 4
    assert (spec.q ** 4) != Cyclotomic.one(8)
    with pytest.raises(SpecError, match="lambda1 != 0 requires"):
        QuotientSpec(spec, 1, 0)
    QuotientSpec(spec, 0, 1)  # q^m = q^8 = 1, so this side is fine


def test_rejects_lambda2_when_qm_not_one():
    group = AbelianGroup(2)
    chi = Character(group, 8, [1, 0])
    eta = Character(group, 8, [2, 1])
    b = group.element([3, 1])
    c = group.element([1, 0])
    spec = validate_spec(group, chi, eta, b, c, 0)
    assert spec.eta.eval(c).multiplicative_order() == 4
    with pytest.raises(SpecError, match="lambda2 != 0 requires"):
        QuotientSpec(spec, 0, 1)
    QuotientSpec(spec, 1, 0)


def test_rejects_lambda_when_the_power_is_not_normal():
    # G = Z_4^3, n = m = 2 and q = 1; chi(g3)^2 = -1, so g3 x^2 g3^-1 = -x^2,
    # and in the second spec eta(g3)^2 = -1 likewise for y^2
    group = AbelianGroup(0, [4, 4, 4])
    b, c = group.element([1, 0, 0]), group.element([0, 1, 0])
    spec = validate_spec(group, Character(group, 4, [2, 0, 1]),
                         Character(group, 4, [0, 2, 0]), b, c, 0)
    assert (spec.q ** 2) == Cyclotomic.one(4)
    with pytest.raises(SpecError, match=r"chi\^n = epsilon.*\[0, 0, 1\]"):
        QuotientSpec(spec, 1, 0)
    assert (QuotientSpec(spec, 0, 1).n, QuotientSpec(spec, 0, 0).m) == (2, 2)
    swapped = validate_spec(group, Character(group, 4, [2, 0, 0]),
                            Character(group, 4, [0, 2, 1]), b, c, 0)
    with pytest.raises(SpecError, match=r"eta\^m = epsilon.*\[0, 0, 1\]"):
        QuotientSpec(swapped, 0, 1)
    QuotientSpec(swapped, 1, 0)


def test_generators_reduce_to_zero():
    d = diff_sweep_spec(3)
    # beta = 2 makes the lead coefficient of y^3 = beta^3 c^3 z^3 other than +-1
    beta2 = validate_spec(d.group, d.chi, d.eta, d.b, d.c, 2)
    cases = [u1_quotient(), u1_quotient(-1, 2),
             QuotientSpec(quotient_sweep_spec(3, 2), 1, 1),
             QuotientSpec(d, root_of_unity(6, 1), "1/2"),
             QuotientSpec(beta2, "1/3", root_of_unity(6, 5))]
    for qs in cases:
        assert q_reduce(qs.generator_x(), qs).is_zero()
        assert q_reduce(qs.generator_y(), qs).is_zero()


def test_two_sided_multiples_reduce_to_zero():
    rng = random.Random(11)
    for qs in (u1_quotient(), QuotientSpec(quotient_sweep_spec(2, 3), 2, -1),
               QuotientSpec(diff_sweep_spec(3), root_of_unity(6, 1), "1/2")):
        for gen in (qs.generator_x(), qs.generator_y()):
            for _ in range(6):
                h1 = random_element(qs.base, rng, max_degree=2, max_terms=2)
                h2 = random_element(qs.base, rng, max_degree=2, max_terms=2)
                assert q_reduce(h1 * gen * h2, qs).is_zero()


def test_reduce_is_multiplicative():
    rng = random.Random(5)
    for qs in (u1_quotient(), QuotientSpec(quotient_sweep_spec(3, 4), 1, 2),
               QuotientSpec(diff_sweep_spec(3), root_of_unity(6, 1), "1/2")):
        for _ in range(10):
            u = random_element(qs.base, rng, max_degree=3, max_terms=2)
            v = random_element(qs.base, rng, max_degree=3, max_terms=2)
            lhs = q_reduce(u * v, qs)
            rhs = q_multiply(q_reduce(u, qs), q_reduce(v, qs), qs)
            assert lhs == rhs


def test_reduce_fixes_reduced_elements():
    qs = u1_quotient()
    spec = qs.base
    elem = spec.x() * spec.y() + spec.group_element(spec.b).scale(3)
    assert q_reduce(elem, qs).to_hopf() == elem


def test_reduce_frozen_u1():
    # x^2 -> 1 - b^2 and x^3 -> x - b^2 x when lambda1 = 1
    qs = u1_quotient()
    spec = qs.base
    b2 = spec.group_element(spec.b ** 2)
    assert q_reduce(spec.x() ** 2, qs) == q_reduce(spec.one() - b2, qs)
    assert q_reduce(spec.x() ** 3, qs) == q_reduce(spec.x() - b2 * spec.x(), qs)


def test_reduce_rejects_foreign_spec():
    qs = u1_quotient()
    other = quotient_sweep_spec(2, 2)
    with pytest.raises(ValueError, match="quotient's base spec"):
        q_reduce(other.x(), qs)


def test_quotient_elem_range_check():
    qs = u1_quotient()
    g = qs.base.group.identity()
    one = Cyclotomic.one(qs.base.conductor)
    with pytest.raises(ValueError, match="reduced range"):
        QuotientElem(qs, {(g, 5, 0): one})


def test_coproduct_of_xn_has_no_middle_terms():
    # interior Gauss binomials vanish at a primitive n-th root
    for (n, m) in ((2, 2), (3, 2), (4, 3)):
        spec = quotient_sweep_spec(n, m)
        x = spec.x()
        xn = x ** n
        bn = spec.group_element(spec.b ** n)
        assert comultiply(xn) == (TensorElem.of(xn, spec.one())
                                  + TensorElem.of(bn, xn))


def test_hopf_ideal_check_u1():
    rep = hopf_ideal_check(u1_quotient())
    assert rep.passed
    assert rep.facts["sign_p"] == "-1"
    assert rep.facts["sign_r"] == "-1"
    assert rep.facts["n"] == 2 and rep.facts["m"] == 2


def test_hopf_ideal_check_sweep_random_lambda():
    rng = random.Random(3)
    for (n, m) in ((2, 4), (3, 3), (4, 2)):
        spec = quotient_sweep_spec(n, m)
        for _ in range(3):
            lam1 = Cyclotomic.from_zeta_coeffs(
                spec.conductor,
                [rng.randint(-2, 2) for _ in range(spec.conductor)])
            lam2 = root_of_unity(spec.conductor, rng.randrange(spec.conductor))
            rep = hopf_ideal_check(QuotientSpec(spec, lam1, lam2))
            assert rep.passed, (n, m, rep.witnesses)
            assert rep.facts["sign_p"] == "-1"
            assert rep.facts["sign_r"] == "-1"


def test_quotient_basis_rank_and_monomials():
    qs = QuotientSpec(quotient_sweep_spec(3, 4), 1, 1)
    basis = quotient_basis(qs)
    assert basis["rank"] == 12
    assert len(basis["monomials"]) == 12
    assert "dimension_over_field" not in basis  # free group, infinite


def test_quotient_basis_finite_group_dimension():
    entry = generalized_taft(5, ((1, 2), (1, 3)))
    basis = quotient_basis(entry.quotient)
    assert basis["rank"] == 25
    assert basis["dimension_over_field"] == 125


_SWEEP_SPECS = {(n, m): quotient_sweep_spec(n, m)
                for n in (2, 3, 4) for m in (2, 3, 4)}

# a term: group exponents in [-3, 3], PBW exponents i, j in [0, 9] and a
# small coefficient sum_k a_k zeta^k
_TERMS = st.lists(st.tuples(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                            st.integers(0, 9), st.integers(0, 9),
                            st.lists(st.integers(-2, 2), min_size=1, max_size=4)),
                  min_size=1, max_size=4)
_LAMBDA = st.lists(st.integers(-2, 2), max_size=4)


def _element(spec, terms, group_only):
    out = {}
    for exps, i, j, coeffs in terms:
        key = (spec.group.element(list(exps)), 0, 0) if group_only else \
            (spec.group.element(list(exps)), i, j)
        out[key] = Cyclotomic.from_zeta_coeffs(spec.conductor, coeffs)
    return HopfElem(spec, out)


@settings(max_examples=60, deadline=None)
@given(orders=st.sampled_from(sorted(_SWEEP_SPECS)), lam1=_LAMBDA, lam2=_LAMBDA,
       terms=_TERMS)
def test_reduce_fixes_the_group_algebra_and_is_idempotent(orders, lam1, lam2,
                                                         terms):
    # K[G] meets the ideal trivially: q_reduce rewrites only exponents >= n
    # or >= m, so it fixes every element of K[G]
    spec = _SWEEP_SPECS[orders]
    qs = QuotientSpec(spec, Cyclotomic.from_zeta_coeffs(spec.conductor, lam1),
                      Cyclotomic.from_zeta_coeffs(spec.conductor, lam2))
    group_elem = _element(spec, terms, group_only=True)
    assert q_reduce(group_elem, qs).to_hopf() == group_elem
    reduced = q_reduce(_element(spec, terms, group_only=False), qs)
    assert q_reduce(reduced.to_hopf(), qs) == reduced


def test_products_check_their_quotient():
    # two quotients over one base: products across them raise, as sums do
    s = quotient_sweep_spec(2, 2)
    a = q_reduce(s.x(), QuotientSpec(s, 1, 1))
    b = q_reduce(s.x(), QuotientSpec(s, 0, 0))
    for combine in (lambda: a + b, lambda: a * b,
                    lambda: q_multiply(a, b, a.qspec)):
        with pytest.raises(ValueError, match="different quotients"):
            combine()
    with pytest.raises(ValueError, match="given quotient"):
        q_multiply(a, a, b.qspec)
    assert a * a == q_multiply(a, a, a.qspec) == q_reduce(s.x() * s.x(), a.qspec)
