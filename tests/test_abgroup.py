"""Finitely generated abelian groups, characters, kernel lattices."""

import pytest
from hypothesis import given, settings, strategies as st

from orehopf import abgroup
from orehopf.abgroup import (AbelianGroup, Character, Subgroup,
                             SubgroupCharacter, char_kernel, joint_kernel)
from orehopf.cyclotomic import Cyclotomic, root_of_unity

from oracles import (cocycle_gamma, group_elements, is_trivial, restrict,
                     transversal)


def test_element_arithmetic_free():
    G = AbelianGroup(2)
    a = G.element([1, -2])
    b = G.element([3, 5])
    assert (a * b).exps == (4, 3)
    assert a.inverse().exps == (-1, 2)
    assert (a ** 3).exps == (3, -6)
    assert (a * a.inverse()).is_identity()


def test_element_arithmetic_torsion():
    G = AbelianGroup(1, (4,))
    a = G.element([2, 3])
    assert (a * a).exps == (4, 2)
    assert (a ** 4).exps == (8, 0)
    assert (a ** -1).exps == (-2, 1)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_group_products_match_element(data):
    # products, inverses and powers reduce only the torsion coordinates;
    # G.element, which checks its input, is the reference
    free = data.draw(st.integers(0, 2))
    torsion = tuple(data.draw(st.lists(st.integers(2, 6), max_size=2)))
    G = AbelianGroup(free, torsion)
    vec = st.lists(st.integers(-20, 20), min_size=G.ngens, max_size=G.ngens)
    u, v = data.draw(vec), data.draw(vec)
    k = data.draw(st.integers(-6, 6))
    g, h = G.element(u), G.element(v)
    # one object per element and group object, torsion-equivalent vectors
    # included
    assert G.element(u) is g
    assert G.element([e + n for e, n in zip(u, (0,) * free + torsion)]) is g
    for got, exps in ((g * h, [a + b for a, b in zip(u, v)]),
                      (g.inverse(), [-a for a in u]),
                      (g ** k, [k * a for a in u])):
        want = G.element(exps)
        assert got is want and got.group is G
        assert got.exps == want.exps and got._hash == want._hash == hash(got)
        # the reduction spelled out: free coordinates as they are, torsion
        # coordinates into [0, n)
        assert got.exps == tuple(exps[:free]) + tuple(
            e % n for e, n in zip(exps[free:], torsion))
    twin = AbelianGroup(free, torsion)
    h2 = twin.element(v)
    # equality is by value across equal group objects, identity is not
    assert h2 == h and hash(h2) == hash(h) and h2 is not h and h2.group is twin
    assert g * h2 == g * h and (g * h2).group is G
    other = (AbelianGroup(free, tuple(n + 1 for n in torsion)) if torsion
             else AbelianGroup(free + 1))
    with pytest.raises(ValueError):
        g * other.identity()
    with pytest.raises(ValueError):
        g * 3
    with pytest.raises(ValueError):
        G.element(u + [0])


def test_identity_factor_returns_the_other_factor(monkeypatch):
    G = AbelianGroup(1, (4,))
    g, e = G.element([2, 3]), G.identity()
    assert e is G.identity() is G.element([0, 4])
    monkeypatch.setattr(abgroup, "_new_element", None)
    # no element is looked up or built: the shortcut returns a factor
    assert g * e is g
    assert e * g is g
    assert e * e is e
    monkeypatch.undo()
    # a factor of an equal but distinct group object takes the general
    # product, which stays in the left factor's group object
    twin = AbelianGroup(1, (4,))
    h = twin.element([2, 3])
    assert e * h is g
    assert h * twin.identity() is h
    assert (h * e).group is twin and h * e == g


def test_character_rejects_an_element_of_another_group():
    chi = Character(AbelianGroup(2), 4, [1, 1])
    g = AbelianGroup(3).element([1, 1, 1])
    for evaluate in (chi.eval, lambda g: chi.eval_pow(g, 3), chi.exponent):
        with pytest.raises(ValueError):
            evaluate(g)
    # an element of an equal but distinct group object is accepted
    assert chi.eval(AbelianGroup(2).element([1, 1])) == root_of_unity(4, 2)


def test_subgroup_character_rejects_an_element_of_another_group():
    K = char_kernel(Character(AbelianGroup(2), 4, [1, 0]))
    lam = SubgroupCharacter(K, 4, [1, 1])
    g = AbelianGroup(3).element([4, 1, 7])
    with pytest.raises(ValueError):
        lam.eval(g)
    with pytest.raises(ValueError):
        K.contains(g)
    inside = AbelianGroup(2).element([4, 1])
    assert K.contains(inside) and lam.eval(inside) == root_of_unity(4, 2)


_KERNEL = char_kernel(Character(AbelianGroup(2), 4, [1, 0]))


@pytest.mark.parametrize("build", [
    lambda: AbelianGroup(1.0),
    lambda: AbelianGroup(True),
    lambda: AbelianGroup(0, (2.5,)),
    lambda: AbelianGroup(0, ("3",)),
    lambda: AbelianGroup(1, (4,)).element([0.5, 2.7]),
    lambda: AbelianGroup(1, (4,)).element(["1", 2]),
    lambda: AbelianGroup(1, (4,)).element([1, True]),
    lambda: Character(AbelianGroup(1, (4,)), 4, [1.9, True]),
    lambda: Character(AbelianGroup(2), 4.0, [1, 1]),
    lambda: SubgroupCharacter(_KERNEL, 4, [1.5, 1]),
    lambda: SubgroupCharacter(_KERNEL, 4, [False, 1]),
    lambda: SubgroupCharacter(_KERNEL, True, [0, 0]),
], ids=["float-rank", "bool-rank", "float-order", "string-order", "float-exponents",
        "string-exponent", "bool-exponent", "character-float-bool", "float-conductor",
        "subgroup-float", "subgroup-bool", "subgroup-bool-conductor"])
def test_non_integer_ranks_orders_and_exponents_are_rejected(build):
    # no silent int(), float arithmetic or string exponent
    with pytest.raises(ValueError, match="integer"):
        build()


def test_group_order():
    assert AbelianGroup(0, (2, 3)).order() == 6
    assert AbelianGroup(1).order() is None
    assert AbelianGroup(0).order() == 1
    G = AbelianGroup(0, (2, 2))
    assert len(group_elements(G)) == 4


def test_character_eval():
    G = AbelianGroup(2)
    chi = Character(G, 4, [1, 2])
    g = G.element([1, 1])
    assert chi.eval(g) == root_of_unity(4, 3)
    assert chi.eval(g.inverse()) == root_of_unity(4, 1)
    assert chi.order() == 4
    assert is_trivial(chi ** 4)
    assert is_trivial(chi * chi.inverse())


def test_character_torsion_consistency():
    G = AbelianGroup(0, (2,))
    # zeta_4 on a generator of order 2 is not a character
    with pytest.raises(ValueError):
        Character(G, 4, [1])
    chi = Character(G, 4, [2])
    assert chi.eval(G.generator(0)) == Cyclotomic.rational(4, -1)


def test_kernel_free_group():
    G = AbelianGroup(2)
    chi = Character(G, 4, [1, 0])
    N = chi.kernel()
    gens = [list(h.exps) for h in N.hermite_generators()]
    assert gens == [[4, 0], [0, 1]]
    assert N.contains(G.element([4, 0]))
    assert not N.contains(G.element([1, 0]))
    assert N.is_finite_index() and N.index() == 4


def test_kernel_with_torsion():
    G = AbelianGroup(1, (2,))
    chi = Character(G, 4, [1, 2])
    N = chi.kernel()
    assert N.index() == 4
    for g in (G.element([4, 0]), G.element([2, 1])):
        assert N.contains(g)
        assert chi.eval(g) == Cyclotomic.one(4)


def test_joint_kernel_klein():
    G = AbelianGroup(0, (2, 2))
    chi = Character(G, 2, [0, 1])
    eta = Character(G, 2, [1, 0])
    N = joint_kernel([chi, eta])
    assert N.index() == 4
    assert all(N.contains(g) == g.is_identity() for g in group_elements(G))


def test_cosets_and_transversal():
    G = AbelianGroup(2)
    chi = Character(G, 3, [1, 0])
    N = chi.kernel()
    c = G.element([1, 0])
    reps = transversal(G, N, c, 3)
    assert len(reps) == 3
    seen = {N.coset_rep(r).exps for r in reps}
    assert len(seen) == 3
    # coset_rep is constant on cosets
    g = G.element([5, 7])
    n = G.element([3, 4])
    assert N.contains(n)
    assert N.coset_rep(g * n).exps == N.coset_rep(g).exps
    # c itself does not generate a quotient of the wrong order
    with pytest.raises(ValueError):
        transversal(G, N, c, 2)
    with pytest.raises(ValueError):
        transversal(G, N, G.element([3, 0]), 3)


def test_subgroup_express():
    G = AbelianGroup(2)
    chi = Character(G, 4, [2, 1])
    N = chi.kernel()
    for h in N.hermite_generators():
        coeffs = N.express(h)
        assert coeffs is not None
        acc = G.identity()
        for a, gen in zip(coeffs, N.hermite_generators()):
            acc = acc * gen ** a
        assert acc.exps == h.exps
    assert N.express(G.element([1, 0])) is None


def test_subgroup_character_restriction():
    G = AbelianGroup(2)
    chi = Character(G, 4, [1, 0])
    N = chi.kernel()
    lam_full = Character(G, 4, [2, 3])
    lam = restrict(lam_full, N)
    for h in N.hermite_generators():
        assert lam.eval(h) == lam_full.eval(h)


def test_subgroup_character_ill_defined_on_torsion():
    G = AbelianGroup(0, (2,))
    chi = Character(G, 2, [0])  # trivial; kernel is all of G
    N = chi.kernel()
    with pytest.raises(ValueError):
        SubgroupCharacter(N, 4, [1])  # g has order 2, zeta_4 does not


def test_cocycle_gamma_consistency():
    # c^i c^j = gamma(i, j) c^((i+j) mod n) for the transversal {c^i}
    G = AbelianGroup(2)
    c = G.element([1, 1])
    n = 3
    for i in range(n):
        for j in range(n):
            gamma = cocycle_gamma(i, j, c, n)
            lhs = (c ** i) * (c ** j)
            rhs = gamma * (c ** ((i + j) % n))
            assert lhs.exps == rhs.exps
            assert gamma.is_identity() == (i + j < n)


@settings(max_examples=50)
@given(st.data())
def test_character_is_homomorphism(data):
    free = data.draw(st.integers(0, 2))
    torsion = tuple(data.draw(st.lists(st.sampled_from([2, 3, 4]),
                                       max_size=2)))
    if free == 0 and not torsion:
        torsion = (2,)
    G = AbelianGroup(free, torsion)
    N = 12
    exps = []
    for k in range(G.ngens):
        if k < free:
            exps.append(data.draw(st.integers(0, N - 1)))
        else:
            order = torsion[k - free]
            exps.append(data.draw(st.integers(0, order - 1)) * (N // order)
                        if N % order == 0 else 0)
    chi = Character(G, N, exps)
    g = G.element([data.draw(st.integers(-3, 3)) for _ in range(G.ngens)])
    h = G.element([data.draw(st.integers(-3, 3)) for _ in range(G.ngens)])
    assert chi.eval(g * h) == chi.eval(g) * chi.eval(h)
    assert chi.eval(g.inverse()) == chi.eval(g).inverse()


def test_kernel_membership_equals_trivial_value():
    G = AbelianGroup(1, (6,))
    chi = Character(G, 6, [2, 1])
    N = chi.kernel()
    for a in range(-4, 5):
        for t in range(6):
            g = G.element([a, t])
            assert N.contains(g) == (chi.eval(g) == Cyclotomic.one(6))
