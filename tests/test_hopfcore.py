"""Algebra and Hopf structure of the Ore extension H(G, chi, eta, b, c, beta)."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from orehopf.abgroup import AbelianGroup, Character, GroupElement
from orehopf.cyclotomic import Cyclotomic, q_int, root_of_unity
from orehopf import hopfcore
from orehopf.hopfcore import (GroupAlgElem, HopfElem, Mode, SpecError, TensorElem, antipode,
                              antipode_order, change_of_variables_check, comultiply, counit,
                              hopf_axiom_check, random_cyclotomic, random_element,
                              validate_spec, wind)
from orehopf.catalog import catalog_entry, catalog_names, takeuchi_u1
from orehopf.quotient import QuotientElem, QuotientSpec, q_reduce

from gen import diff_sweep_spec, quotient_sweep_spec, skew_sweep_spec
from oracles import (antipode_order_by_iteration, assert_product_matches,
                     centrality_check, from_raw_terms, group_part, max_degrees,
                     random_cyclotomic_by_field_sums, tensor_multiply_by_pairs)


def u1_spec():
    return takeuchi_u1().spec


def test_validate_spec_modes():
    skew = skew_sweep_spec(4)
    assert skew.mode is Mode.SKEW_GROUP_RING
    diff = diff_sweep_spec(3)
    assert diff.mode is Mode.DIFFERENTIAL_OPERATOR
    assert diff.q == diff.eta.eval(diff.b)
    assert diff.q == diff.chi.eval(diff.c).inverse()


def test_validate_spec_rejects_bad_compatibility():
    G = AbelianGroup(1)
    chi = Character(G, 4, [1])
    eta = Character(G, 4, [1])
    b = G.element([1])
    c = G.element([1])
    # eta(b) = zeta_4 but chi(c)^-1 = zeta_4^-1
    with pytest.raises(SpecError):
        validate_spec(G, chi, eta, b, c, 0)


def test_validate_spec_rejects_nonzero_beta_without_inverse_eta():
    G = AbelianGroup(2)
    chi = Character(G, 4, [1, 0])
    eta = Character(G, 4, [1, 2])
    # find b, c with eta(b) = chi(c)^-1 but eta != chi^-1
    b = G.element([0, 1])   # eta(b) = zeta_4^2 = -1
    c = G.element([2, 0])   # chi(c) = -1
    for beta in (1, "1/2", Fraction(1, 2)):
        with pytest.raises(SpecError):
            validate_spec(G, chi, eta, b, c, beta)
    # beta = 0 keeps the same data valid
    for beta in (0, "0", Fraction(0)):
        assert validate_spec(G, chi, eta, b, c, beta).mode is Mode.SKEW_GROUP_RING


def test_u1_defining_relation():
    spec = u1_spec()
    yx = spec.y() * spec.x()
    b2 = spec.group_element(spec.b ** 2)
    expected = (spec.x() * spec.y()).scale(-1) + b2 - spec.one()
    assert yx == expected


def test_group_commutation():
    spec = skew_sweep_spec(4)
    g = spec.group.element([1, 1])
    ge = spec.group_element(g)
    assert spec.x() * ge == (ge * spec.x()).scale(spec.chi.eval(g))
    assert spec.y() * ge == (ge * spec.y()).scale(spec.eta.eval(g))


def test_pbw_uniqueness_round_trip():
    # raw <-> internal term conversion is bijective on sampled elements
    for spec in (u1_spec(), skew_sweep_spec(3), diff_sweep_spec(2)):
        rng = random.Random(3)
        for _ in range(20):
            a = random_element(spec, rng)
            again = from_raw_terms(spec, a.raw_terms())
            assert again == a


def test_multiply_matches_oracle_small():
    for spec in (skew_sweep_spec(3), diff_sweep_spec(2), u1_spec()):
        rng = random.Random(17)
        for _ in range(25):
            a = random_element(spec, rng, max_degree=2)
            b = random_element(spec, rng, max_degree=2)
            assert_product_matches(a, b)


def test_associativity_small():
    for spec in (skew_sweep_spec(4), diff_sweep_spec(3)):
        rng = random.Random(23)
        for _ in range(10):
            a = random_element(spec, rng, max_degree=2)
            b = random_element(spec, rng, max_degree=2)
            c = random_element(spec, rng, max_degree=2)
            assert (a * b) * c == a * (b * c)


def test_skew_mode_z_commutes_with_x():
    spec = skew_sweep_spec(4)
    assert spec.z() * spec.x() == spec.x() * spec.z()


def test_diff_mode_z_relation():
    spec = diff_sweep_spec(3)
    e = spec.from_group_alg(spec.e)
    assert spec.z() * spec.x() == spec.x() * spec.z() + e


def test_wind_closed_form():
    # [e]_i = [i]_{q^-1} c^-1 - [i]_q b
    spec = diff_sweep_spec(4)
    q = spec.q
    qi = q.inverse()
    for i in range(0, 9):
        w = wind(spec.e, i, spec)
        c_inv = spec.group.identity() * spec.c.inverse()
        expected = {}
        lhs = q_int(i, qi)
        rhs = q_int(i, q)
        terms = {}
        if not lhs.is_zero():
            terms[spec.c.inverse()] = lhs
        if not rhs.is_zero():
            terms[spec.b] = terms.get(spec.b, Cyclotomic.zero(spec.conductor)) - rhs
        terms = {g: v for g, v in terms.items() if not v.is_zero()}
        assert dict(w.terms) == terms, i


def test_wind_recursion():
    spec = diff_sweep_spec(3)
    for i in range(1, 7):
        w_next = wind(spec.e, i + 1, spec)
        w = wind(spec.e, i, spec)
        step = spec.e.twist(spec.chi, -i)
        assert dict((w + step).terms) == dict(w_next.terms)


def test_commutation_equation_zx_powers():
    # z x^i - x^i z = x^(i-1) [e]_i in diff mode (z the normalized variable)
    spec = diff_sweep_spec(2)
    x, z = spec.x(), spec.z()
    for i in range(1, 5):
        lhs = z * (x ** i) - (x ** i) * z
        rhs = (x ** (i - 1)) * spec.from_group_alg(wind(spec.e, i, spec))
        assert lhs == rhs, i


def test_coproduct_of_generators():
    for spec in (skew_sweep_spec(3), diff_sweep_spec(2)):
        x, y = spec.x(), spec.y()
        one = spec.one()
        bexp = spec.group_element(spec.b)
        cexp = spec.group_element(spec.c)
        assert comultiply(x) == TensorElem.of(x, one) + TensorElem.of(bexp, x)
        assert comultiply(y) == TensorElem.of(y, one) + TensorElem.of(cexp, y)
        g = spec.group_element(spec.group.element([1, 1]))
        assert comultiply(g) == TensorElem.of(g, g)


def test_coproduct_power_gauss_coefficients():
    # Delta(x^2) = x^2 (x) 1 + [2]_p b x (x) x + b^2 (x) x^2, p = chi(b)
    spec = skew_sweep_spec(4)
    p = spec.chi.eval(spec.b)
    x = spec.x()
    b = spec.group_element(spec.b)
    b2 = spec.group_element(spec.b ** 2)
    lhs = comultiply(x * x)
    rhs = (TensorElem.of(x * x, spec.one())
           + TensorElem.of((b * x).scale(q_int(2, p)), x)
           + TensorElem.of(b2, x * x))
    assert lhs == rhs


def _generator_maps(spec):
    """w, Delta(x), Delta(w), S(x), S(w) from the defining relations.

    w is y in skew mode ((c, 1)-skew-primitive) and the normalized z in diff
    mode ((1, c^-1)-skew-primitive, S(z) = -z c).
    """
    one = spec.one()
    x = spec.x()
    w = HopfElem(spec, {(spec.group.identity(), 0, 1): Cyclotomic.one(spec.conductor)})
    dx = TensorElem.of(x, one) + TensorElem.of(spec.group_element(spec.b), x)
    sx = (spec.group_element(spec.b.inverse()) * x).scale(-1)
    if spec.mode is Mode.SKEW_GROUP_RING:
        dw = TensorElem.of(w, one) + TensorElem.of(spec.group_element(spec.c), w)
        sw = (spec.group_element(spec.c.inverse()) * w).scale(-1)
    else:
        dw = TensorElem.of(w, spec.group_element(spec.c.inverse())) + TensorElem.of(one, w)
        sw = (w * spec.group_element(spec.c)).scale(-1)
    return w, dx, dw, sx, sw


@pytest.mark.parametrize("name", catalog_names())
def test_structure_maps_match_product_oracle(name):
    # The closed forms for Delta and S on g x^i w^j against the products
    # (g (x) g) Delta(x)^i Delta(w)^j and S(w)^j S(x)^i g^-1.
    spec = catalog_entry(name).spec
    w, dx, dw, sx, sw = _generator_maps(spec)
    g = spec.group.identity()
    for gen in spec.group.generators():
        g = g * gen
    ge = spec.group_element(g)
    ge_inv = spec.group_element(g.inverse())
    g_dx_pows = [TensorElem.of(ge, ge)]
    dw_pows = [TensorElem.of(spec.one(), spec.one())]
    for _ in range(4):
        g_dx_pows.append(g_dx_pows[-1] * dx)
        dw_pows.append(dw_pows[-1] * dw)
    for i in range(5):
        for j in range(5):
            mono = ge * spec.x() ** i * w ** j
            assert comultiply(mono) == g_dx_pows[i] * dw_pows[j], (name, i, j)
            assert antipode(mono) == sw ** j * sx ** i * ge_inv, (name, i, j)


def _diff_beta2_spec():
    # diff_sweep_spec(3) with beta = 2: e = c^-1 - b, and raw y = 2 c z
    base = diff_sweep_spec(3)
    return validate_spec(base.group, base.chi, base.eta, base.b, base.c, 2)


@pytest.mark.parametrize("name", catalog_names() + ["diff-beta2"])
def test_tensor_product_matches_pairwise_oracle(name):
    # t1 * t2 against the pairwise product whose factors come from word
    # rewriting, on coproducts and on simple tensors of random elements
    spec = _diff_beta2_spec() if name == "diff-beta2" else catalog_entry(name).spec
    rng = random.Random(f"tensor-product:{name}")
    for _ in range(3):
        a, b, c, d = (random_element(spec, rng, max_degree=3, max_terms=2)
                      for _ in range(4))
        for t1, t2 in ((comultiply(a), comultiply(b)),
                       (TensorElem.of(a, b), TensorElem.of(c, d)),
                       (comultiply(c), TensorElem.of(d, a))):
            assert t1 * t2 == tensor_multiply_by_pairs(t1, t2), name


def _cop_products_by_key_pairs(a, b):
    # Delta(a) Delta(b) summed over the key pairs of a and b
    out = {}
    for ka, ca in a.terms.items():
        for kb, cb in b.terms.items():
            for pair, v in hopfcore._cop_product_key(a.spec, ka, kb, ca * cb):
                out[pair] = out[pair] + v if pair in out else v
    return TensorElem(a.spec, out)


@pytest.mark.parametrize("name", catalog_names() + ["diff-beta2"])
def test_cop_product_rows_match_tensor_products(name):
    # the rows of the per-spec table of Delta(x^i w^j) Delta(x^k w^l), moved
    # by the group parts, against the product in H (x) H and the pairwise
    # rewriting oracle (up to degree 3: at degree 8 it takes seconds a draw)
    spec = _diff_beta2_spec() if name == "diff-beta2" else catalog_entry(name).spec
    rng = random.Random(f"cop-product:{name}")
    negative = False
    for max_degree, draws in ((3, 6), (8, 2)):
        for _ in range(draws):
            a, b = (random_element(spec, rng, max_degree=max_degree) for _ in range(2))
            negative |= any(min(g.exps, default=0) < 0 for g, _, _ in a.terms)
            summed = _cop_products_by_key_pairs(a, b)
            da, db = comultiply(a), comultiply(b)
            assert summed == da * db, (name, max_degree)
            if max_degree == 3:
                assert summed == tensor_multiply_by_pairs(da, db), name
    # a free factor draws negative exponents; taft, fantino-garcia and klein
    # are torsion only
    assert negative is (spec.group.free_rank > 0)


@pytest.mark.parametrize("name", catalog_names())
def test_cop_products_are_computed_once_per_degree_quadruple(monkeypatch, name):
    # Delta(a) Delta(b) reads Delta(x^i w^j) Delta(x^k w^l) from the spec:
    # at most one TensorElem product for each (i, j, k, l) seen, none on a
    # second check
    spec = catalog_entry(name).spec
    spec = validate_spec(spec.group, spec.chi, spec.eta, spec.b, spec.c, spec.beta)
    products, quadruples = [], set()
    tensor_mul, cop_product_key = TensorElem.__mul__, hopfcore._cop_product_key

    def counted_mul(s, t):
        products.append(1)
        return tensor_mul(s, t)

    def recorded_key(spec, a, b, coeff):
        quadruples.add(a[1:] + b[1:])
        return cop_product_key(spec, a, b, coeff)

    monkeypatch.setattr(TensorElem, "__mul__", counted_mul)
    monkeypatch.setattr(hopfcore, "_cop_product_key", recorded_key)
    first = hopf_axiom_check(spec, 10, max_degree=3)
    assert first.passed and quadruples
    assert 0 < len(products) <= len(quadruples)
    del products[:]
    assert hopf_axiom_check(spec, 10, max_degree=3) == first
    assert products == []


def _counted(mul, counts, kind):
    def counted(s, t):
        counts[kind] += 1
        return mul(s, t)
    return counted


@pytest.mark.parametrize("name", catalog_names())
def test_comultiply_reads_each_table_entry_once(monkeypatch, name):
    # on a warm spec, Delta(c g x^i w^j) costs one group product per group
    # part and one field product per value of the table of Delta(x^i w^j)
    spec = catalog_entry(name).spec
    spec = validate_spec(spec.group, spec.chi, spec.eta, spec.b, spec.c, spec.beta)
    rng = random.Random(f"comultiply-counts:{name}")
    for i, j in ((0, 0), (1, 0), (0, 1), (2, 3), (4, 1)):
        g = hopfcore.random_group_element(spec.group, rng)
        a = HopfElem(spec, {(g, i, j): hopfcore.random_cyclotomic(spec, rng, nonzero=True)})
        expected = comultiply(a)
        parts, values, _ = spec._cop_tables[(i, j)]
        counts = Counter()
        with monkeypatch.context() as m:
            for cls, kind in ((GroupElement, "group"), (Cyclotomic, "field")):
                m.setattr(cls, "__mul__", _counted(cls.__mul__, counts, kind))
            out = comultiply(a)
        assert out == expected
        assert counts == Counter(group=len(parts), field=len(values)), (name, i, j)


def test_counit():
    spec = skew_sweep_spec(3)
    assert counit(spec.x()).is_zero()
    assert counit(spec.y()).is_zero()
    g = spec.group_element(spec.group.element([2, -1]))
    assert counit(g) == Cyclotomic.one(spec.conductor)
    assert counit(spec.one() + spec.x()) == Cyclotomic.one(spec.conductor)


def test_antipode_on_generators():
    for spec in (skew_sweep_spec(3), u1_spec()):
        x, y = spec.x(), spec.y()
        b_inv = spec.group_element(spec.b.inverse())
        c_inv = spec.group_element(spec.c.inverse())
        assert antipode(x) == (b_inv * x).scale(-1)
        assert antipode(y) == (c_inv * y).scale(-1)
        gen = spec.group.generator(0)
        g = spec.group_element(gen)
        g_inv = spec.group_element(gen.inverse())
        assert antipode(g) == g_inv


def test_antipode_antihomomorphism():
    spec = diff_sweep_spec(2)
    rng = random.Random(7)
    for _ in range(10):
        a = random_element(spec, rng, max_degree=2)
        b = random_element(spec, rng, max_degree=2)
        assert antipode(a * b) == antipode(b) * antipode(a)


def test_antipode_squared_on_x():
    # S^2(x) = chi(b) x
    spec = skew_sweep_spec(4)
    s2 = antipode(antipode(spec.x()))
    assert s2 == spec.x().scale(spec.chi.eval(spec.b))


def test_antipode_order_formula():
    cases = [
        (u1_spec(), 4),
        (skew_sweep_spec(2), 4),
        (skew_sweep_spec(3), 6),
        (skew_sweep_spec(4), 8),
        (diff_sweep_spec(3), 6),
    ]
    for spec, expected in cases:
        k = spec.chi.eval(spec.b).multiplicative_order()
        m = spec.eta.eval(spec.c).multiplicative_order()
        import math
        assert expected == 2 * (k * m // math.gcd(k, m))
        assert antipode_order(spec) == expected == antipode_order_by_iteration(spec)


def test_hopf_axiom_check_passes():
    for spec in (u1_spec(), skew_sweep_spec(3)):
        report = hopf_axiom_check(spec, sample_count=10, max_degree=2, seed=1)
        assert report.passed, report.witnesses


def test_hopf_axiom_check_deterministic():
    spec = diff_sweep_spec(2)
    r1 = hopf_axiom_check(spec, sample_count=5, max_degree=2, seed=9)
    r2 = hopf_axiom_check(spec, sample_count=5, max_degree=2, seed=9)
    assert r1.to_dict() == r2.to_dict()


@pytest.mark.parametrize("name", catalog_names())
def test_antipode_constants_are_computed_once_per_degree_pair(monkeypatch, name):
    # S(x^i w^j) reads its constants from the spec: two _antipode_power
    # calls (one per generator) for each (i, j) seen, none on a second check
    spec = catalog_entry(name).spec
    spec = validate_spec(spec.group, spec.chi, spec.eta, spec.b, spec.c, spec.beta)
    power_calls, pairs = [], set()
    antipode_power, antipode_key = hopfcore._antipode_power, hopfcore._antipode_key

    def counted_power(gen, n):
        power_calls.append(n)
        return antipode_power(gen, n)

    def recorded_key(spec, key):
        pairs.add(key[1:])
        return antipode_key(spec, key)

    monkeypatch.setattr(hopfcore, "_antipode_power", counted_power)
    monkeypatch.setattr(hopfcore, "_antipode_key", recorded_key)
    first = hopf_axiom_check(spec, 10, max_degree=3)
    assert first.passed and pairs
    assert 0 < len(power_calls) <= 2 * len(pairs)
    del power_calls[:]
    assert hopf_axiom_check(spec, 10, max_degree=3) == first
    assert power_calls == []


def _put_primitive_coproduct(spec, degrees):
    # Delta(v) = v (x) 1 + 1 (x) v for v = x^i w^j, put into the spec's table
    # of Delta(x^i w^j) before any use
    e, one = spec.group.identity(), Cyclotomic.one(spec.conductor)
    v = (e,) + degrees
    spec._cop_tables[degrees] = hopfcore._pack_cop(TensorElem(
        spec, {(v, (e, 0, 0)): one, ((e, 0, 0), v): one}))


@pytest.mark.parametrize("make, broken_delta, broken_s", [
    (lambda: skew_sweep_spec(3),
     ({"antipode", "coassociativity", "delta_multiplicative"}, 8), ({"antipode"}, 9)),
    (lambda: diff_sweep_spec(2), ({"coassociativity"}, 3), ({"antipode"}, 3)),
], ids=["skew3", "diff2"])
def test_hopf_axiom_check_catches_broken_maps(monkeypatch, make, broken_delta, broken_s):
    def failures(spec):
        report = hopf_axiom_check(spec, sample_count=10, max_degree=2, seed=0)
        assert report.passed is not bool(report.witnesses)
        return {w["check"] for w in report.witnesses}, len(report.witnesses)

    spec = make()
    # Delta(x) = x (x) 1 + 1 (x) x: the group-like b of x (x) 1 + b (x) x is lost
    _put_primitive_coproduct(spec, (1, 0))
    assert failures(spec) == broken_delta

    antipode_power = hopfcore._antipode_power

    def doubled(gen, n):
        # S(v) for both generators v comes out twice too large
        coeff, u = antipode_power(gen, n)
        return (coeff * 2 if n == 1 else coeff), u

    monkeypatch.setattr(hopfcore, "_antipode_power", doubled)
    assert failures(make()) == broken_s


@pytest.mark.parametrize("make, expected", [
    (lambda: diff_sweep_spec(2),
     {"antipode": 3, "delta_multiplicative": 2, "coassociativity": 1}),
    (lambda: skew_sweep_spec(3),
     {"coassociativity": 6, "antipode": 5, "delta_multiplicative": 5}),
], ids=["diff2", "skew3"])
def test_hopf_axiom_check_catches_broken_coproduct_through_product_table(make, expected):
    """A primitive Delta(w) = w (x) 1 + 1 (x) w put into the table of
    Delta(x^0 w^1) of a fresh spec.  The table of Delta(x^i w^j)
    Delta(x^k w^l) is built from the (i, j) tables at first use, so
    Delta(a) Delta(b) reads the broken Delta(w) while Delta(ab) does not:
    delta_multiplicative fails as the product of the two coproducts did,
    with the same witness counts."""
    spec = make()
    _put_primitive_coproduct(spec, (0, 1))
    report = hopf_axiom_check(spec, sample_count=10, max_degree=2, seed=0)
    assert report.passed is False
    assert Counter(w["check"] for w in report.witnesses) == expected


@pytest.mark.parametrize("settings", [
    {"sample_count": 0}, {"sample_count": -3}, {"max_degree": -1},
], ids=["no-samples", "negative-samples", "negative-degree"])
def test_hopf_axiom_check_rejects_meaningless_sample_settings(settings):
    with pytest.raises(ValueError, match="sample_count|max_degree"):
        hopf_axiom_check(skew_sweep_spec(3), **settings)


def test_change_of_variables_reports():
    assert change_of_variables_check(skew_sweep_spec(3), max_power=4).passed
    assert change_of_variables_check(diff_sweep_spec(2), max_power=4).passed
    assert change_of_variables_check(u1_spec(), max_power=4).passed


def test_change_of_variables_makes_a_fixed_number_of_products_per_power(monkeypatch):
    # running powers: each n costs the same products, so the count is linear
    # in max_power
    calls = Counter()
    multiply = hopfcore.multiply

    def counted(a, b):
        calls["multiply"] += 1
        return multiply(a, b)

    monkeypatch.setattr(hopfcore, "multiply", counted)
    spec = catalog_entry("diff-z2").spec
    counts = []
    for max_power in (0, 4, 8):
        calls.clear()
        assert change_of_variables_check(spec, max_power=max_power).passed
        counts.append(calls["multiply"])
    assert counts[2] - counts[1] == counts[1] - counts[0] > 0


@pytest.mark.parametrize("name", ["u1", "skew-z2", "diff-z2", "taft", "phi-6"])
def test_random_cyclotomic_matches_field_sums(name):
    # one integer vector reduced once gives the values of the term-by-term
    # field sums, from the same draws in the same order
    spec = skew_sweep_spec(7) if name == "phi-6" else catalog_entry(name).spec
    for seed in range(5):
        fast, slow = random.Random(seed), random.Random(seed)
        for k in range(400):
            nonzero = k % 2 == 0
            value = random_cyclotomic(spec, fast, nonzero=nonzero)
            assert value == random_cyclotomic_by_field_sums(spec, slow, nonzero=nonzero)
            assert value.conductor == spec.conductor
            assert not (nonzero and value.is_zero())
        assert fast.getstate() == slow.getstate()


def test_centrality():
    spec = skew_sweep_spec(4)  # ord chi = 4: x^4 central, y^4 central
    assert centrality_check(spec, 4)
    assert not centrality_check(spec, 3)


def test_max_degrees_and_group_part():
    spec = skew_sweep_spec(3)
    a = spec.x() * spec.y() + spec.one().scale(5)
    i, j = max_degrees(a)
    assert (i, j) == (1, 1)
    gp = group_part(a)
    assert dict(gp.terms) == {spec.group.identity():
                              Cyclotomic.rational(spec.conductor, 5)}


# ---------------------------------------------------------------------------
# the shared term core of GroupAlgElem, HopfElem, TensorElem and QuotientElem

def _term_core_space(other_space: bool):
    spec = quotient_sweep_spec(2, 3)
    if other_space:
        # the same defining data, a distinct algebra and quotient instance
        spec = validate_spec(spec.group, spec.chi, spec.eta, spec.b, spec.c, spec.beta)
    return spec, QuotientSpec(spec, 1, 1)


# each kind: the element of that type made from a random element of H, and
# the same terms put into another space of the same type
TERM_KINDS = {
    "GroupAlgElem": (
        lambda a, qs: GroupAlgElem(a.spec.group, a.spec.conductor,
                                   {g: c for (g, _, _), c in a.terms.items()}),
        lambda u, qs: GroupAlgElem(u.group, 2 * u.conductor, u.terms)),
    "HopfElem": (lambda a, qs: a,
                 lambda u, qs: HopfElem(qs.base, u.terms)),
    "TensorElem": (lambda a, qs: comultiply(a),
                   lambda u, qs: TensorElem(qs.base, u.terms)),
    "QuotientElem": (lambda a, qs: q_reduce(a, qs),
                     lambda u, qs: QuotientElem(qs, u.terms)),
}


@pytest.mark.parametrize("kind", sorted(TERM_KINDS))
def test_term_core_arithmetic(kind):
    make, respace = TERM_KINDS[kind]
    spec, qs = _term_core_space(False)
    _, other_qs = _term_core_space(True)
    rng = random.Random(11)
    other_kind = "QuotientElem" if kind == "HopfElem" else "HopfElem"
    for _ in range(5):
        a = make(random_element(spec, rng, max_degree=2), qs)
        b = make(random_element(spec, rng, max_degree=2), qs)
        assert not a.is_zero() and type(a).__name__ == kind
        assert (a + (-a)).is_zero()
        assert a - b == a + (-b)
        assert a.scale(0).is_zero()
        assert a.scale(2) == a * 2 == a + a
        assert a.scale(Cyclotomic.rational(spec.conductor, -1)) == -a
        moved = respace(a, other_qs)
        assert moved.terms == a.terms and moved != a
        with pytest.raises(ValueError):
            a + moved
        other = TERM_KINDS[other_kind][0](random_element(spec, rng), qs)
        with pytest.raises(ValueError):
            a + other
        with pytest.raises(ValueError):
            a - other
    if kind == "HopfElem":
        assert 2 * a == a + a
    if kind == "GroupAlgElem":
        # value equality on (group, conductor), not identity of the group
        twin = GroupAlgElem(AbelianGroup(2), a.conductor, a.terms)
        assert twin == a and (twin + a) == a.scale(2)
