"""Module layer: constructors, certificates, isomorphism, classification."""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import isqrt

import pytest

from orehopf.abgroup import (AbelianGroup, Character, SubgroupCharacter,
                             char_kernel, joint_kernel)
from orehopf.cyclotomic import Cyclotomic, euler_phi, root_of_unity, split_prime, zeta_log
from orehopf.hopfcore import Mode, SpecError, cyclotomic_to_literal, validate_spec, wind
from orehopf.linalg import (ModularSpan, SpanBasis, identity, inverse, mat_mul,
                            mat_scale, zeros)
from orehopf.reps import (ClassifyError, IsoResult, ModuleRep, SimpleParams,
                          _intertwiner_space, _intertwines,
                          are_isomorphic, build_induced_skew, build_simple,
                          build_torsion_char, build_Vbar_diff, build_Vx_diff,
                          build_Vx_skew, build_Vxy_skew, build_Vy_diff,
                          build_Vy_skew, classify_simple, conjugate,
                          direct_sum, is_simple_burnside, iso_criterion,
                          rep_check, torsion_profile, truncation_index)
from orehopf.catalog import catalog_entry, klein_example, takeuchi_u1
from orehopf import linalg, reps

from gen import (audit_spec, diff_sweep_spec, quotient_sweep_spec, random_group_char,
                 random_invertible, random_kernel_char, random_monomial, random_scalar,
                 skew_sweep_spec)
from oracles import (cross_relation_by_inverses, intertwiners_by_exact_nullspace,
                     iso_by_system, iso_criterion_by_cases, mat_eq, rep_check_by_products,
                     torsion_type_by_exact_elimination, vbar_truncation_by_rewriting)
from test_acceptance import sweep_instances


def kernel_char(spec, char, exps):
    sub = char_kernel(char)
    return SubgroupCharacter(sub, spec.conductor, exps)


def scalar(spec, k):
    return Cyclotomic.rational(spec.conductor, k)


def q_one_diff_spec():
    # differential mode with chi(b) = 1, so winding never vanishes for a
    # character separating b and b^{-1}
    group = AbelianGroup(2)
    chi = Character(group, 4, [0, 1])
    eta = chi.inverse()
    b = group.element([1, 0])
    return validate_spec(group, chi, eta, b, b, 1)


# ---------------------------------------------------------------------------
# constructors and rep_check


def test_torsion_char_skew():
    spec = skew_sweep_spec(3)
    lam = Character(spec.group, spec.conductor, [1, 2])
    M = build_torsion_char(lam, spec)
    assert M.dim == 1
    assert rep_check(M, spec).passed
    assert torsion_profile(M) == {"x": "Torsion", "y": "Torsion"}


def test_torsion_char_diff_needs_rho_killing_e():
    spec = diff_sweep_spec(2)
    trivial = Character(spec.group, spec.conductor, [0, 0])
    M = build_torsion_char(trivial, spec)
    assert rep_check(M, spec).passed
    bad = Character(spec.group, spec.conductor, [1, 0])
    assert not spec.e.apply_char(bad).is_zero()
    with pytest.raises(SpecError, match="unsatisfiable in dimension 1"):
        build_torsion_char(bad, spec)


def test_vx_skew_build_and_profile():
    spec = skew_sweep_spec(4)
    lam = kernel_char(spec, spec.chi, [1, 0])
    M = build_Vx_skew(root_of_unity(4, 1), lam, spec)
    assert M.dim == 4
    assert rep_check(M, spec).passed
    assert torsion_profile(M) == {"x": "TorsionFree", "y": "Torsion"}
    assert is_simple_burnside(M).passed


def test_vx_skew_rejects_zero_alpha():
    spec = skew_sweep_spec(3)
    lam = kernel_char(spec, spec.chi, [0, 0])
    with pytest.raises(SpecError, match="alpha must be nonzero"):
        build_Vx_skew(Cyclotomic.zero(spec.conductor), lam, spec)


def test_vx_skew_rejects_wrong_kernel():
    spec = skew_sweep_spec(3)
    wrong = kernel_char(spec, spec.eta, [0, 0])
    wrong_sub_char = SubgroupCharacter(char_kernel(spec.eta ** 0),
                                       spec.conductor, [0, 0])
    for lam in (wrong_sub_char,):
        with pytest.raises(SpecError, match="expected kernel subgroup"):
            build_Vx_skew(scalar(spec, 1), lam, spec)


def test_vy_skew_build():
    spec = skew_sweep_spec(3, t=2)
    lam = kernel_char(spec, spec.eta, [0, 1])
    M = build_Vy_skew(scalar(spec, 2), lam, spec)
    assert rep_check(M, spec).passed
    assert torsion_profile(M) == {"x": "Torsion", "y": "TorsionFree"}


def test_vxy_skew_build_and_errors():
    spec = skew_sweep_spec(4)
    lam = kernel_char(spec, spec.chi, [0, 2])
    M = build_Vxy_skew(scalar(spec, 1), root_of_unity(4, 3), lam, 1, spec)
    assert rep_check(M, spec).passed
    assert torsion_profile(M) == {"x": "TorsionFree", "y": "TorsionFree"}
    with pytest.raises(SpecError, match="coprime to the order"):
        build_Vxy_skew(scalar(spec, 1), scalar(spec, 1), lam, 2, spec)
    with pytest.raises(SpecError, match="eta must equal chi\\^t"):
        build_Vxy_skew(scalar(spec, 1), scalar(spec, 1), lam, 3, spec)


def test_induced_skew_argument_validation():
    spec = skew_sweep_spec(3, t=2)
    lam = SubgroupCharacter(joint_kernel([spec.chi, spec.eta]),
                            spec.conductor, [0, 0])
    one = Cyclotomic.one(spec.conductor)
    with pytest.raises(SpecError, match="one scalar per variable"):
        build_induced_skew([one, one, one], lam, spec)
    with pytest.raises(SpecError, match="not X-torsion-free"):
        build_induced_skew([Cyclotomic.zero(spec.conductor), one], lam, spec)


def test_vbar_diff_build():
    spec = diff_sweep_spec(3)
    rho = Character(spec.group, spec.conductor, [1, 0])
    M = build_Vbar_diff(rho, spec)
    assert M.dim == truncation_index(rho, spec)
    assert rep_check(M, spec).passed
    assert torsion_profile(M) == {"x": "Torsion", "y": "Torsion"}
    assert is_simple_burnside(M).passed


def test_vbar_diff_no_truncation():
    spec = q_one_diff_spec()
    rho = Character(spec.group, spec.conductor, [1, 0])
    assert truncation_index(rho, spec) is None
    assert vbar_truncation_by_rewriting(rho, spec, 6) is None
    with pytest.raises(SpecError, match="no finite-dimensional torsion quotient"):
        build_Vbar_diff(rho, spec)


def test_truncation_index_frozen():
    # rho(b) = q^{-d}, rho(c) = 1 truncates at d + 1 (mod-n wraparound at d = n),
    # and rho(b) = q^(1-d) at d; the oracle sorts y x^i by the defining
    # relations and never reads the winding sums
    for n in (3, 4, 6):
        spec = audit_spec(n)
        for d in range(1, n + 1):
            for exp, expected in (((-d) % n, d + 1 if d < n else 1),
                                  ((1 - d) % n, d)):
                rho = Character(spec.group, n, [exp, 0])
                assert truncation_index(rho, spec) == expected, (n, d, exp)
                assert vbar_truncation_by_rewriting(rho, spec, 2 * n) == expected


def test_vx_diff_build_and_precondition():
    spec = diff_sweep_spec(3)
    rho = Character(spec.group, spec.conductor, [2, 1])
    lam = root_of_unity(spec.conductor, 1)
    mu = scalar(spec, 2)
    M = build_Vx_diff(rho, lam, mu, spec)
    assert rep_check(M, spec).passed
    assert torsion_profile(M)["x"] == "TorsionFree"
    with pytest.raises(SpecError, match="lambda must be nonzero"):
        build_Vx_diff(rho, Cyclotomic.zero(spec.conductor), mu, spec)
    bad_spec = q_one_diff_spec()
    bad_rho = Character(bad_spec.group, bad_spec.conductor, [1, 0])
    with pytest.raises(SpecError, match="rho\\(wind\\(e, n\\)\\) = 0"):
        build_Vx_diff(bad_rho, root_of_unity(4, 1),
                      Cyclotomic.zero(4), bad_spec)


def test_vy_diff_build():
    spec = diff_sweep_spec(3)
    rho = Character(spec.group, spec.conductor, [0, 2])
    lam = scalar(spec, 0)
    mu = root_of_unity(spec.conductor, 2)
    M = build_Vy_diff(rho, lam, mu, spec)
    assert rep_check(M, spec).passed
    assert torsion_profile(M)["y"] == "TorsionFree"
    with pytest.raises(SpecError, match="mu must be nonzero"):
        build_Vy_diff(rho, lam, Cyclotomic.zero(spec.conductor), spec)


@pytest.mark.parametrize("n", range(2, 7))
def test_winding_values_match_wind(n):
    # one prefix-sum list per (rho, char) against rho(wind(e, i; char))
    # computed afresh for every i <= n = order(chi), in both directions
    spec = diff_sweep_spec(n)
    N = spec.conductor
    assert spec.chi.order() == n
    for exps in ((0, 0), (1, 0), (2, 1), (N - 1, 3), (3, N - 2)):
        rho = Character(spec.group, N, [x % N for x in exps])
        for char in (spec.chi, spec.eta):
            assert reps._windings(rho, char, spec) == [
                wind(spec.e, i, spec, character=char).apply_char(rho)
                for i in range(n + 1)], (exps, char)


@pytest.mark.parametrize("n", range(2, 7))
def test_diff_matrices_match_per_line_winding(n):
    # the running winding sum of the diff families against
    # rho(wind(e, i; char)) computed afresh for every line i
    spec = diff_sweep_spec(n)
    N = spec.conductor
    one, zero = scalar(spec, 1), scalar(spec, 0)
    rng = random.Random(f"diff-lines:{n}")
    for _ in range(3):
        rho = Character(spec.group, N, [rng.randrange(N) for _ in range(2)])
        lam = root_of_unity(N, rng.randrange(N))
        mu = scalar(spec, rng.choice((-2, -1, 1, 2)))
        # (module, shift, lowering, wrap, offset, winding character, sign)
        cases = [(build_Vbar_diff(rho, spec), "X", "Y", zero, zero, spec.chi, 1),
                 (build_Vx_diff(rho, lam, mu, spec), "X", "Y", lam, mu, spec.chi, 1),
                 (build_Vy_diff(rho, lam, mu, spec), "Y", "X", mu, lam, spec.eta, -1)]
        for M, shift, lower, wrap, offset, char, sign in cases:
            d = M.dim
            S, L = zeros(d, d, N), zeros(d, d, N)
            for i in range(1, d):
                S[i][i - 1] = one
                L[i - 1][i] = offset + sign * wind(spec.e, i, spec,
                                                   character=char).apply_char(rho)
            if not wrap.is_zero():
                S[0][d - 1] = wrap
                L[d - 1][0] = wrap.inverse() * offset
            assert mat_eq(getattr(M, shift), S) and mat_eq(getattr(M, lower), L)
            for g, A in zip(spec.group.generators(), M.group_mats):
                D = zeros(d, d, N)
                for i in range(d):
                    D[i][i] = spec.chi.eval_pow(g, -sign * i) * rho.eval(g)
                assert mat_eq(A, D)


def test_rep_check_catches_broken_relation():
    spec = skew_sweep_spec(3)
    lam = kernel_char(spec, spec.chi, [0, 0])
    M = build_Vx_skew(scalar(spec, 1), lam, spec)
    X = [list(r) for r in M.X]
    X[0][0] = X[0][0] + Cyclotomic.one(spec.conductor)
    broken = ModuleRep(spec, M.dim, M.group_mats, X, M.Y)
    rep = rep_check(broken, spec)
    assert not rep.passed
    assert any("x_commutation" in w["relation"] for w in rep.witnesses)
    # y acts by zero, so only x g = chi(g) g x can fail; each witness names
    # the first entry (row-major) where its two sides differ
    for w in rep.witnesses:
        k = int(w["relation"].removeprefix("x_commutation(g").removesuffix(")")) - 1
        A = M.group_mats[k]
        lhs = mat_mul(X, A)
        rhs = mat_scale(mat_mul(A, X), spec.chi.eval(spec.group.generator(k)))
        i, j = w["entry"]
        assert lhs[i][j] != rhs[i][j]
        assert all(lhs[a][b] == rhs[a][b] for a in range(M.dim)
                   for b in range(M.dim) if (a, b) < (i, j))
        assert w["lhs"] == cyclotomic_to_literal(lhs[i][j])
        assert w["rhs"] == cyclotomic_to_literal(rhs[i][j])


def test_rep_check_reports_singular_group_matrix_in_diff_mode():
    # the cross relation is checked as c (z x - x z + b) = 1, which needs no
    # inverse: with g1 = 0, c = g1 g2 acts by zero and the entry names it
    spec = diff_sweep_spec(2)
    M = build_torsion_char(Character(spec.group, spec.conductor, [2, 0]), spec)
    assert M.group_mats[0] == ((-Cyclotomic.one(spec.conductor),),)
    zero = Cyclotomic.zero(spec.conductor)
    singular = ModuleRep(spec, 1, [[[zero]], M.group_mats[1]], M.X, M.Y)
    rep = rep_check(singular, spec)
    assert not rep.passed
    assert rep.facts == rep_check(M, spec).facts
    assert rep.witnesses == [
        {"relation": "group_invertible(g1)", "detail": ""},
        {"relation": "cross_relation", "detail": "c (z x - x z + b) = 1 fails",
         "entry": [0, 0], "lhs": "0", "rhs": "1"},
    ]
    with pytest.raises(SpecError, match="does not act invertibly"):
        is_simple_burnside(singular)


def _one_entry_perturbations(M, rng):
    """M with one added at a random entry of X, of Y and of a random group
    generator's matrix, one module each."""
    out = []
    for which in ("x", "y", "g"):
        mats = [[list(row) for row in A] for A in M.group_mats + (M.X, M.Y)]
        A = {"x": mats[-2], "y": mats[-1]}.get(which) or mats[rng.randrange(len(mats) - 2)]
        i, j = rng.randrange(M.dim), rng.randrange(M.dim)
        A[i][j] = A[i][j] + Cyclotomic.one(M.spec.conductor)
        out.append(ModuleRep(M.spec, M.dim, mats[:-2], mats[-2], mats[-1]))
    return out


def test_cross_relation_row_matches_the_inverse_oracle():
    # the differential row checks c (z x - x z + b) = 1 with no inverse; it
    # passes exactly when z x - x z = c^-1 - b does with rho(e) built from
    # exact inverses, on the sweep modules, a conjugate of each, one-entry
    # perturbations of x, z and a group matrix, and a singular-g1 file
    rng = random.Random(23)
    modules = []
    for inst in sweep_instances():
        M = inst.module
        modules += [M, conjugate(M, random_invertible(M.dim, M.spec.conductor, rng))]
        modules += _one_entry_perturbations(M, rng)
    spec = diff_sweep_spec(3)
    data = build_Vx_diff(Character(spec.group, spec.conductor, [2, 1]),
                         root_of_unity(spec.conductor, 1), scalar(spec, 2), spec).to_dict()
    data["generators"]["g1"] = [["0"] * 3 for _ in range(3)]
    modules.append(ModuleRep.from_dict(spec, data))
    verdicts = Counter()
    for module in modules:
        row = [w for w in rep_check(module, module.spec).witnesses
               if w["relation"] == "cross_relation"]
        oracle = cross_relation_by_inverses(module, module.spec)
        assert (row == []) == (oracle is True), row
        verdicts[module.spec.mode, oracle] += 1
    assert all(verdicts[mode, verdict] > 0 for mode in (Mode.SKEW_GROUP_RING,
               Mode.DIFFERENTIAL_OPERATOR) for verdict in (True, False))
    # the singular-g1 file, and perturbations that leave a generator singular
    assert verdicts[Mode.DIFFERENTIAL_OPERATOR, None] > 0


def test_rep_check_cannot_form_a_negative_power_of_a_singular_generator():
    # c = g1 g2^-1: with g2 = 0, c's action needs an inverse that does not
    # exist, and the cross relation row says so with no entry; with g1 = 0,
    # c acts by zero and the row names its entry
    group = AbelianGroup(2)
    chi = Character(group, 4, [2, 0])
    spec = validate_spec(group, chi, chi.inverse(), group.element([1, 0]),
                         group.element([1, -1]), 1)
    assert spec.mode is Mode.DIFFERENTIAL_OPERATOR
    M = build_torsion_char(Character(group, 4, [1, 2]), spec)
    assert rep_check(M, spec).passed
    zero = [[Cyclotomic.zero(4)]]
    cross = {}
    for k in range(2):
        mats = list(M.group_mats)
        mats[k] = zero
        report = rep_check(ModuleRep(spec, 1, mats, M.X, M.Y), spec)
        assert report.witnesses[0] == {"relation": f"group_invertible(g{k + 1})",
                                       "detail": ""}
        cross[k] = report.witnesses[-1]
    assert cross[1] == {"relation": "cross_relation",
                        "detail": "rho(c) or rho(b) cannot be formed: "
                                  "group generator 1 does not act invertibly"}
    assert cross[0] == {"relation": "cross_relation", "detail": "c (z x - x z + b) = 1 fails",
                        "entry": [0, 0], "lhs": "0", "rhs": "1"}


def _taft_modules():
    """Modules over the taft catalog spec, whose group Z_5 has a torsion
    relation g^5 = 1: its TorsionChar modules and the dim-5 SkewVx and
    SkewVy with trivial kernel characters."""
    spec = catalog_entry("taft").spec
    N = spec.conductor
    modules = [build_torsion_char(Character(spec.group, N, [k]), spec) for k in range(N)]
    for build, char in ((build_Vx_skew, spec.chi), (build_Vy_skew, spec.eta)):
        sub = char_kernel(char)
        modules.append(build(scalar(spec, 2), SubgroupCharacter(sub, N, [0] * len(sub.rows)),
                             spec))
    return modules


def test_rep_check_report_equals_the_product_oracle():
    # every sweep module and a conjugate of each, in both modes, and modules
    # over a torsion group: the same report, facts and witnesses, as when
    # both sides of each identity were built
    rng = random.Random(32)
    modules = list(_taft_modules())
    for inst in sweep_instances():
        M = inst.module
        modules += [M, conjugate(M, random_invertible(M.dim, M.spec.conductor, rng))]
    assert {M.spec.mode for M in modules} == {Mode.SKEW_GROUP_RING, Mode.DIFFERENTIAL_OPERATOR}
    assert any(M.spec.group.torsion_orders for M in modules)
    for M in modules:
        report = rep_check(_fresh(M), M.spec)
        assert report.passed
        assert report.to_dict() == rep_check_by_products(M, M.spec).to_dict()


def _single_entry_mutations(M):
    """Copies of M with one entry of one generator matrix changed: one
    added at (0, d-1), zeta added at (d-1, d-1), and (d-1, 0) set to zero."""
    N, d = M.spec.conductor, M.dim
    changes = (((0, d - 1), lambda a: a + 1), ((d - 1, d - 1), lambda a: a + root_of_unity(N, 1)),
               ((d - 1, 0), lambda a: Cyclotomic.zero(N)))
    for k in range(len(M.group_mats) + 2):
        for (i, j), change in changes:
            mats = [[list(row) for row in A] for A in M.group_mats + (M.X, M.Y)]
            mats[k][i][j] = change(mats[k][i][j])
            yield ModuleRep(M.spec, d, mats[:-2], mats[-2], mats[-1])


def test_rep_check_witnesses_equal_the_product_oracle_on_broken_relations():
    # the first module of each family, dimension and mode, a conjugate of
    # it, and the taft modules, each with single-entry mutations that
    # break every kind of relation: each witness names the same entry and
    # the same two sides as the oracle's
    rng = random.Random(33)
    seen, modules = set(), list(_taft_modules())
    for inst in sweep_instances():
        key = (inst.family, inst.module.dim, inst.spec.mode)
        if key not in seen:
            seen.add(key)
            M = inst.module
            modules += [M, conjugate(M, random_invertible(M.dim, M.spec.conductor, rng))]
    failed = Counter()
    for M in modules:
        for mutant in _single_entry_mutations(M):
            report = rep_check(mutant, M.spec)
            assert report.to_dict() == rep_check_by_products(mutant, M.spec).to_dict()
            failed.update({(M.spec.mode, w["relation"].partition("(")[0])
                           for w in report.witnesses})
    kinds = ("group_invertible", "group_commutation", "x_commutation", "y_commutation",
             "cross_relation")
    for mode in (Mode.SKEW_GROUP_RING, Mode.DIFFERENTIAL_OPERATOR):
        assert all(failed[mode, kind] > 0 for kind in kinds), failed
    assert failed[Mode.SKEW_GROUP_RING, "torsion_order"] > 0


def test_conjugate_rejects_a_matrix_of_another_size():
    spec = skew_sweep_spec(3)
    M = build_Vx_skew(scalar(spec, 1), kernel_char(spec, spec.chi, [0, 0]), spec)
    one, zero = Cyclotomic.one(spec.conductor), Cyclotomic.zero(spec.conductor)
    for T in (identity(2, spec.conductor), [[one, zero, zero], [zero, one, zero]],
              [[one, zero, zero], [zero, one], [zero, zero, one]]):
        with pytest.raises(ValueError, match="conjugating matrix must be 3 x 3"):
            conjugate(M, T)


def test_module_dimension_must_be_positive():
    spec = skew_sweep_spec(2)
    with pytest.raises(ValueError, match="dimension must be at least 1"):
        ModuleRep(spec, 0, [[], []], [], [])


# ---------------------------------------------------------------------------
# presentations, serialization, sums, conjugation


def test_presentation_round_trip():
    # a file in the other presentation loads as the native module: z = c^-1 y
    # in a skew-mode file, y = beta c z in a differential-mode file
    skew = skew_sweep_spec(4)
    Vxy = build_Vxy_skew(scalar(skew, 2), scalar(skew, 1),
                         kernel_char(skew, skew.chi, [1, 1]), 1, skew)
    diff = diff_sweep_spec(3)
    Vx = build_Vx_diff(Character(diff.group, diff.conductor, [2, 1]),
                       root_of_unity(diff.conductor, 1), scalar(diff, 2), diff)
    z_of_y = mat_mul(inverse(Vxy.act_group(skew.c)), Vxy.Y)
    y_of_z = mat_scale(mat_mul(Vx.act_group(diff.c), Vx.Y), diff.beta)
    for M, other, V in ((Vxy, "Normalized", z_of_y), (Vx, "Raw", y_of_z)):
        data = M.to_dict()
        assert data["presentation"] != other
        data["presentation"] = other
        data["generators"]["y"] = [[cyclotomic_to_literal(v) for v in row] for row in V]
        back = ModuleRep.from_dict(M.spec, data)
        assert back.Y == M.Y and back.X == M.X and back.group_mats == M.group_mats
        assert back.to_dict() == M.to_dict()
        assert rep_check(back, M.spec).passed


def test_serialization_round_trip():
    spec = diff_sweep_spec(2)
    rho = Character(spec.group, spec.conductor, [1, 1])
    M = build_Vbar_diff(rho, spec)
    data = M.to_dict()
    M2 = ModuleRep.from_dict(spec, data)
    assert M2.X == M.X and M2.Y == M.Y and M2.group_mats == M.group_mats
    assert M2.to_dict() == data and data["presentation"] == "Normalized"


def test_serialization_fingerprint_mismatch():
    spec = diff_sweep_spec(2)
    other = takeuchi_u1().spec
    rho = Character(spec.group, spec.conductor, [0, 0])
    data = build_Vbar_diff(rho, spec).to_dict()
    with pytest.raises(SpecError, match="fingerprint mismatch"):
        ModuleRep.from_dict(other, data)


def test_direct_sum_not_simple_but_valid():
    spec = skew_sweep_spec(3)
    lam = kernel_char(spec, spec.chi, [0, 0])
    V = build_Vx_skew(scalar(spec, 1), lam, spec)
    W = build_Vx_skew(scalar(spec, 2), lam, spec)
    S = direct_sum(V, W)
    assert S.dim == 6
    assert rep_check(S, spec).passed
    assert not is_simple_burnside(S).passed
    assert are_isomorphic(direct_sum(V, W), direct_sum(W, V))


def test_modules_of_two_algebras_are_refused():
    # the same character over specs with different fingerprints
    specs = skew_sweep_spec(3, 1), skew_sweep_spec(3, 2)
    assert specs[0].fingerprint() != specs[1].fingerprint()
    M1, M2 = (build_torsion_char(Character(spec.group, spec.conductor, [1, 0]), spec)
              for spec in specs)
    with pytest.raises(ValueError, match="different algebras"):
        are_isomorphic(M1, M2)
    with pytest.raises(ValueError, match="different algebras"):
        direct_sum(M1, M2)
    # another spec object with an equal fingerprint is the same algebra
    twin = skew_sweep_spec(3, 1)
    assert twin is not specs[0]
    M3 = build_torsion_char(Character(twin.group, twin.conductor, [1, 0]), twin)
    assert are_isomorphic(M1, M3).status == "isomorphic"
    assert direct_sum(M1, M3).dim == 2


def test_conjugate_equals_the_two_products():
    rng = random.Random(37)
    for inst in sweep_instances()[::5]:
        M = inst.module
        T = random_invertible(M.dim, inst.spec.conductor, rng)
        T_inv = inverse(T)
        C = conjugate(M, T)
        for A, B in zip(M.group_mats + (M.X, M.Y), C.group_mats + (C.X, C.Y)):
            assert B == tuple(map(tuple, mat_mul(mat_mul(T, A), T_inv))), inst.family


def test_conjugate_preserves_relations_and_class():
    rng = random.Random(9)
    spec = diff_sweep_spec(3)
    rho = Character(spec.group, spec.conductor, [1, 0])
    M = build_Vbar_diff(rho, spec)
    T = random_invertible(M.dim, spec.conductor, rng)
    Mc = conjugate(M, T)
    assert rep_check(Mc, spec).passed
    assert are_isomorphic(M, Mc)
    params = classify_simple(Mc, spec)
    assert params.family == "DiffVbar"
    assert params.rho == rho


def test_torsion_profile_mixed():
    spec = skew_sweep_spec(2)
    N = spec.conductor
    one = Cyclotomic.one(N)
    zero = Cyclotomic.zero(N)
    ident = [[one, zero], [zero, one]]
    X = [[one, zero], [zero, zero]]
    M = ModuleRep(spec, 2, [ident, ident], X, [[zero, zero], [zero, zero]])
    assert torsion_profile(M)["x"] == "Mixed"


# ---------------------------------------------------------------------------
# isomorphism and classification


def test_iso_criterion_vx_scaling():
    spec = skew_sweep_spec(4)
    lam = kernel_char(spec, spec.chi, [0, 3])
    q = spec.chi.eval(spec.c)
    a = root_of_unity(4, 1)
    p1 = classify_simple(build_Vx_skew(a, lam, spec), spec)
    p2 = classify_simple(build_Vx_skew(a * q, lam, spec), spec)
    p3 = classify_simple(build_Vx_skew(a * scalar(spec, 2), lam, spec), spec)
    assert iso_criterion(p1, p2, spec)
    assert are_isomorphic(build_simple(p1, spec), build_simple(p2, spec))
    assert not iso_criterion(p1, p3, spec)
    assert not are_isomorphic(build_simple(p1, spec), build_simple(p3, spec))


def test_iso_criterion_vx_diff_shift():
    # shifting rho by chi^k and mu by the winding value preserves the class
    from orehopf.hopfcore import wind
    spec = diff_sweep_spec(3)
    rho = Character(spec.group, spec.conductor, [2, 1])
    lam = root_of_unity(spec.conductor, 1)
    mu = scalar(spec, 1)
    p1 = SimpleParams(family="DiffVx", rho=rho, lam_scalar=lam, mu=mu)
    M1 = build_simple(p1, spec)
    for k in (1, 2):
        rho2 = rho * (spec.chi ** k)
        mu2 = mu - wind(spec.e, k, spec).apply_char(rho2)
        p2 = SimpleParams(family="DiffVx", rho=rho2, lam_scalar=lam, mu=mu2)
        assert iso_criterion(p1, p2, spec) and iso_criterion(p2, p1, spec)
        assert are_isomorphic(M1, build_simple(p2, spec))
    p3 = SimpleParams(family="DiffVx", rho=rho, lam_scalar=lam,
                      mu=mu + scalar(spec, 1))
    assert not iso_criterion(p1, p3, spec)
    assert are_isomorphic(M1, build_simple(p3, spec)).status == "not_isomorphic"


def test_iso_criterion_reads_diff_vy_parameters_by_classification():
    # x and z both act invertibly, so the module lies in DiffVx and in DiffVy
    spec = diff_sweep_spec(3)
    N = spec.conductor
    rho = Character(spec.group, N, [1, 0])
    py = SimpleParams(family="DiffVy", rho=rho, lam_scalar=scalar(spec, 2),
                      mu=root_of_unity(N, 1))
    My = build_simple(py, spec)
    px = classify_simple(My, spec)
    assert px.family == "DiffVx"
    assert are_isomorphic(My, build_simple(px, spec)).status == "isomorphic"
    assert iso_criterion(py, px, spec) and iso_criterion(px, py, spec)
    moved = SimpleParams(family="DiffVx", rho=px.rho, lam_scalar=px.lam_scalar,
                         mu=px.mu + scalar(spec, 1), n=px.n)
    assert are_isomorphic(My, build_simple(moved, spec)).status == "not_isomorphic"
    assert not iso_criterion(py, moved, spec) and not iso_criterion(moved, py, spec)
    # lam = 0: x is nilpotent, the module is DiffVy alone and no DiffVx
    # module is isomorphic to it
    pn = SimpleParams(family="DiffVy", rho=rho, lam_scalar=Cyclotomic.zero(N),
                      mu=py.mu)
    Mn = build_simple(pn, spec)
    assert classify_simple(Mn, spec).family == "DiffVy"
    assert are_isomorphic(Mn, build_simple(px, spec)).status == "not_isomorphic"
    assert not iso_criterion(pn, px, spec) and not iso_criterion(px, pn, spec)


def test_diff_torsion_char_keys_as_the_vbar_it_builds():
    # in differential mode TorsionChar(lam) and DiffVbar(lam) build one 1 x 1
    # module, so they share a key; the pairwise oracle told them apart
    count = 0
    for inst in sweep_instances():
        if (inst.family, inst.mode) != ("TorsionChar", "diff"):
            continue
        spec = inst.spec
        lam = Character(spec.group, spec.conductor,
                        [zeta_log(A[0][0]) for A in inst.module.group_mats])
        torsion = SimpleParams(family="TorsionChar", lam=lam)
        vbar = SimpleParams(family="DiffVbar", rho=lam)
        M, V = build_simple(torsion, spec), build_simple(vbar, spec)
        assert (M.group_mats, M.X, M.Y) == (V.group_mats, V.X, V.Y)
        assert are_isomorphic(M, V).status == "isomorphic"
        assert torsion.key(spec) == vbar.key(spec) == classify_simple(M, spec).key(spec)
        assert iso_criterion(torsion, vbar, spec)
        assert not iso_criterion_by_cases(torsion, vbar, spec)
        count += 1
    assert count == 10


def test_skew_vxy_key_reads_t_mod_n():
    # t and t + n build one module; the pairwise oracle's coupling
    # alpha_y alpha_x^-t used the unreduced t and told them apart
    spec = skew_sweep_spec(3)
    lam = kernel_char(spec, spec.chi, [1, 2])
    p1, p2 = (SimpleParams(family="SkewVxy", alpha_x=scalar(spec, 2), alpha_y=scalar(spec, 5),
                           lam=lam, t=t) for t in (1, 4))
    M1, M2 = build_simple(p1, spec), build_simple(p2, spec)
    assert (M1.group_mats, M1.X, M1.Y) == (M2.group_mats, M2.X, M2.Y)
    assert p1.key(spec) == p2.key(spec) == classify_simple(M2, spec).key(spec)
    assert not iso_criterion_by_cases(p1, p2, spec)


def _shifted(p, k, spec):
    """The k-th point of the shift orbit of a DiffVx tuple, (rho chi^-k,
    mu + rho(wind(e, k))), or of a DiffVy one, (rho chi^k, lam -
    rho(wind(e, k; eta)))."""
    if p.family == "DiffVx":
        return SimpleParams(family="DiffVx", rho=p.rho * spec.chi ** -k, lam_scalar=p.lam_scalar,
                            mu=p.mu + wind(spec.e, k, spec).apply_char(p.rho))
    return SimpleParams(family="DiffVy", rho=p.rho * spec.chi ** k, mu=p.mu,
                        lam_scalar=p.lam_scalar
                        - wind(spec.e, k, spec, character=spec.eta).apply_char(p.rho))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_diff_shift_orbits_share_one_key(n):
    # every shift of a DiffVx or DiffVy tuple has its key, and names a
    # module the pairwise oracle calls isomorphic; the n shifted characters
    # are distinct; a DiffVy tuple keys as DiffVx exactly when x acts
    # invertibly on the module of each shift, and its key is that of its
    # classification; lam = rho(wind(e, i; eta)), i < n, makes x nilpotent
    rng = random.Random(2800 + n)
    spec = diff_sweep_spec(n)
    N = spec.conductor
    keys, x_free = set(), Counter()
    for draw in range(12):
        rho = random_group_char(rng, spec)
        lams = [wind(spec.e, i, spec, character=spec.eta).apply_char(rho) for i in range(n)]
        lams += [random_scalar(rng, N) for _ in range(2)]
        tuples = [SimpleParams(family="DiffVx", rho=rho, mu=random_scalar(rng, N),
                               lam_scalar=random_scalar(rng, N, nonzero=True))]
        tuples += [SimpleParams(family="DiffVy", rho=rho, lam_scalar=lam,
                                mu=random_scalar(rng, N, nonzero=True)) for lam in lams]
        for p in tuples:
            key = p.key(spec)
            shifts = [_shifted(p, k, spec) for k in range(n)]
            assert len({s.rho for s in shifts}) == n
            assert all(s.key(spec) == key and iso_criterion_by_cases(p, s, spec)
                       for s in shifts), p.describe()
            keys.add(key)
            if draw == 0:
                assert are_isomorphic(build_simple(p, spec), build_simple(shifts[-1], spec))
            if p.family == "DiffVy":
                for s in shifts:
                    free = torsion_profile(build_simple(s, spec))["x"] == "TorsionFree"
                    x_free[free] += 1
                    assert (key[0] == "DiffVx") == free, s.describe()
                assert key == classify_simple(build_simple(p, spec), spec).key(spec)
    assert x_free[True] > 0 and x_free[False] >= 12 * n
    assert len(keys) > 12 * (n + 2)


def test_iso_criterion_family_mismatch():
    spec = skew_sweep_spec(3)
    lam_x = kernel_char(spec, spec.chi, [0, 0])
    lam_y = kernel_char(spec, spec.eta, [0, 0])
    px = classify_simple(build_Vx_skew(scalar(spec, 1), lam_x, spec), spec)
    py = classify_simple(build_Vy_skew(scalar(spec, 1), lam_y, spec), spec)
    assert not iso_criterion(px, py, spec)


def test_classify_rejects_non_simple():
    spec = skew_sweep_spec(3)
    lam = kernel_char(spec, spec.chi, [0, 0])
    V = build_Vx_skew(scalar(spec, 1), lam, spec)
    with pytest.raises(ClassifyError, match="not certified simple"):
        classify_simple(direct_sum(V, V), spec)


def _quotient_shift_module(n, m):
    """A simple module of dimension n m on quotient_sweep_spec(n, m), where
    q = 1 and chi(c) = 1: basis e_(i,j), x maps e_(i,j) to e_(i+1,j) and y
    to e_(i,j+1), indices mod n and m, g1 = diag(zeta^(-(N/n) i)) and
    g2 = diag(zeta^(-(N/m) j))."""
    spec = quotient_sweep_spec(n, m)
    N, d = spec.conductor, n * m
    X, Y, G1, G2 = (zeros(d, d, N) for _ in range(4))
    for i in range(n):
        for j in range(m):
            line = i * m + j
            X[(i + 1) % n * m + j][line] = Y[i * m + (j + 1) % m][line] = Cyclotomic.one(N)
            G1[line][line] = root_of_unity(N, -(N // n) * i)
            G2[line][line] = root_of_unity(N, -(N // m) * j)
    return ModuleRep(spec, d, [G1, G2], X, Y)


@pytest.mark.parametrize("n, m", [(2, 2), (2, 3), (3, 3)])
def test_classify_needs_chi_c_to_generate_the_image_of_chi(n, m):
    # a doubly torsion-free simple module outside the seven families
    M = _quotient_shift_module(n, m)
    assert rep_check(M, M.spec).passed
    assert is_simple_burnside(M).facts["span_dimension"] == (n * m) ** 2
    assert torsion_profile(M) == {"x": "TorsionFree", "y": "TorsionFree"}
    with pytest.raises(ClassifyError, match=r"chi\(c\) does not generate the image of chi"):
        classify_simple(M, M.spec)


def test_classify_needs_eta_to_be_a_coprime_power_of_chi():
    entry = klein_example()
    assert is_simple_burnside(entry.module).passed
    with pytest.raises(ClassifyError, match="eta is not a coprime power of chi"):
        classify_simple(entry.module, entry.spec)


def test_classify_rejects_non_module():
    spec = skew_sweep_spec(3)
    lam = kernel_char(spec, spec.chi, [0, 0])
    M = build_Vx_skew(scalar(spec, 1), lam, spec)
    X = [list(r) for r in M.X]
    X[0][1] = Cyclotomic.one(spec.conductor)
    broken = ModuleRep(spec, M.dim, M.group_mats, X, M.Y)
    with pytest.raises(ClassifyError, match="fails rep_check"):
        classify_simple(broken, spec)


def _two_shift_spec():
    """G = Z^2, N = 5, chi = eta = [1, 2], b = (-1, 0), c = (1, 0): the group
    generators shift the lines of SkewVx and SkewVxy by 1 and 2 (chi, c) and
    those of SkewVy by 4 and 3 (eta, b)."""
    G = AbelianGroup(2)
    chi = Character(G, 5, [1, 2])
    return validate_spec(G, chi, chi, G.element([-1, 0]), G.element([1, 0]), 0)


def _line_shifts(M):
    """The line each group generator moves e_0 to."""
    return [next(i for i, row in enumerate(A) if not row[0].is_zero()) for A in M.group_mats]


def test_classify_round_trip_all_skew_families():
    rng = random.Random(628)
    for spec in (skew_sweep_spec(4), _two_shift_spec()):
        N = spec.conductor
        lam = kernel_char(spec, spec.chi, [2, 1])
        lam_y = kernel_char(spec, spec.eta, [2, 1])
        chars = Character(spec.group, N, [3, 2])
        cases = [
            (build_torsion_char(chars, spec), "TorsionChar"),
            (build_Vx_skew(root_of_unity(N, 1), lam, spec), "SkewVx"),
            (build_Vy_skew(scalar(spec, 3), lam_y, spec), "SkewVy"),
            (build_Vxy_skew(scalar(spec, 1), root_of_unity(N, 2), lam, 1, spec),
             "SkewVxy"),
        ]
        if N == 5:
            assert [_line_shifts(M) for M, _ in cases[1:]] == [[1, 2], [4, 3], [1, 2]]
        for M, family in cases:
            params = classify_simple(M, spec)
            assert params.family == family
            rebuilt = build_simple(params, spec)
            assert are_isomorphic(M, rebuilt)
            C = conjugate(M, random_invertible(M.dim, N, rng))
            for module in (M, C):
                assert rep_check(module, spec).passed and is_simple_burnside(module).passed
            assert classify_simple(C, spec).family == family


def test_classify_round_trip_diff_families():
    spec = diff_sweep_spec(4)
    rho = Character(spec.group, spec.conductor, [3, 1])
    cases = [
        (build_Vbar_diff(rho, spec), "DiffVbar"),
        (build_Vx_diff(rho, root_of_unity(spec.conductor, 3),
                       scalar(spec, 2), spec), "DiffVx"),
        (build_Vy_diff(rho, scalar(spec, 0),
                       root_of_unity(spec.conductor, 1), spec), "DiffVy"),
    ]
    for M, family in cases:
        params = classify_simple(M, spec)
        assert params.family == family
        assert are_isomorphic(M, build_simple(params, spec))


def test_simple_params_validation():
    zero = Cyclotomic.zero(4)
    for family in ("SkewVx", "SkewVy"):
        with pytest.raises(SpecError, match="alpha must be nonzero"):
            SimpleParams(family=family, alpha=zero)
    with pytest.raises(SpecError, match="lambda must be nonzero"):
        SimpleParams(family="DiffVx", lam_scalar=zero)
    with pytest.raises(SpecError, match="mu must be nonzero"):
        SimpleParams(family="DiffVy", mu=zero)
    for alphas in ({"alpha_x": zero}, {"alpha_y": zero}):
        with pytest.raises(SpecError, match="alpha_x and alpha_y must be nonzero"):
            SimpleParams(family="SkewVxy", t=1, **alphas)
    with pytest.raises(SpecError, match="unknown family 'Nope'"):
        SimpleParams(family="Nope")
    # the families that allow a zero keep it
    rho, one = Character(AbelianGroup(2), 4, [1, 0]), Cyclotomic.one(4)
    assert SimpleParams(family="DiffVy", rho=rho, lam_scalar=zero, mu=one).lam_scalar is zero
    assert SimpleParams(family="DiffVx", rho=rho, lam_scalar=one, mu=zero).mu is zero
    with pytest.raises(TypeError):
        SimpleParams(family="DiffVx", lam=None, nu=zero)


def test_simple_params_name_a_missing_field():
    # without t, key and build_simple of SkewVxy raised a TypeError; without
    # rho, key of DiffVx raised an AttributeError
    skew, diff = skew_sweep_spec(3), diff_sweep_spec(3)
    lam = kernel_char(skew, skew.chi, [1, 2])
    with pytest.raises(SpecError, match="^SkewVxy parameters need t$"):
        SimpleParams("SkewVxy", alpha_x=scalar(skew, 2), alpha_y=scalar(skew, 5), lam=lam)
    with pytest.raises(SpecError, match="^DiffVx parameters need rho$"):
        SimpleParams("DiffVx", lam_scalar=scalar(diff, 2), mu=scalar(diff, 1))
    # the parameters classification returns, of each family's module and of
    # a conjugate (invariant-only for the skew families), keep their key on
    # the fields of each field set they fill, and losing any one of those
    # fields is a SpecError that names a missing field
    rng = random.Random(29)
    sets = Counter()
    for spec, M in _one_module_per_family():
        C = conjugate(M, random_invertible(M.dim, spec.conductor, rng))
        for params in (classify_simple(M, spec), classify_simple(C, spec)):
            for fields in reps._REQUIRED[params.family]:
                kwargs = {name: getattr(params, name) for name in fields}
                if None in kwargs.values():
                    continue
                sets[params.family, fields] += 1
                assert SimpleParams(params.family, **kwargs).key(spec) == params.key(spec)
                for name in fields:
                    with pytest.raises(SpecError, match=f"^{params.family} parameters need "):
                        SimpleParams(params.family,
                                     **{k: v for k, v in kwargs.items() if k != name})
    # every field set of every family was filled, the invariant-only ones
    # by the skew conjugates
    assert set(sets) == {(family, fields) for family, alternatives in reps._REQUIRED.items()
                         for fields in alternatives}


def test_iso_result_truth_is_its_status():
    assert IsoResult("isomorphic", witness=[[1]])
    assert IsoResult("isomorphic")
    assert not IsoResult("not_isomorphic", detail="no nonzero intertwiner")
    assert not IsoResult("unknown", detail="none invertible")


def test_iso_results_with_equal_fields_are_equal():
    assert IsoResult("isomorphic", witness=[[1]]) == IsoResult("isomorphic", [[1]])
    assert IsoResult("isomorphic", witness=[[1]]) != IsoResult("isomorphic", [[2]])
    assert IsoResult("unknown", detail="a") != IsoResult("unknown", detail="b")


def test_are_isomorphic_dimension_mismatch():
    spec = skew_sweep_spec(3)
    lam = kernel_char(spec, spec.chi, [0, 0])
    V = build_Vx_skew(scalar(spec, 1), lam, spec)
    T = build_torsion_char(Character(spec.group, spec.conductor, [0, 0]), spec)
    res = are_isomorphic(V, T)
    assert res.status == "not_isomorphic"
    assert res.detail == "dimension mismatch"


def test_burnside_rejects_singular_group_matrix():
    spec = skew_sweep_spec(2)
    N = spec.conductor
    one, zero = Cyclotomic.one(N), Cyclotomic.zero(N)
    singular = [[one, zero], [zero, zero]]
    ident = [[one, zero], [zero, one]]
    M = ModuleRep(spec, 2, [singular, ident], zeros(2, 2, N), zeros(2, 2, N))
    with pytest.raises(SpecError, match="does not act invertibly"):
        is_simple_burnside(M)


def _span_dimension_with_inverses(M):
    """Burnside closure with the inverse group matrices as extra generators.
    By Cayley-Hamilton it spans the same unital algebra as the group
    matrices, x and y alone."""
    d, N = M.dim, M.spec.conductor
    gens = list(M.group_mats) + [inverse(A) for A in M.group_mats] + [M.X, M.Y]
    span = SpanBasis()
    frontier = [identity(d, N)]
    span.add([v for row in frontier[0] for v in row])
    while frontier and span.dim() < d * d:
        nxt = []
        for B in frontier:
            for A in gens:
                C = mat_mul(A, B)
                if span.add([v for row in C for v in row]):
                    nxt.append(C)
        frontier = nxt
    return span.dim()


def test_burnside_matches_inverse_generator_oracle():
    modules = [inst.module for inst in sweep_instances()]
    # neighbours in the sweep share a spec; sums stay small because a
    # non-simple closure never stops early
    sums = [direct_sum(a, b) for a, b in zip(modules, modules[1:])
            if a.spec is b.spec and a.dim + b.dim <= 4]
    assert len(sums) > 50
    for M in modules + sums:
        assert is_simple_burnside(M).facts["span_dimension"] == \
            _span_dimension_with_inverses(M)


def _fresh(M):
    """The same module without its memoized reports."""
    return ModuleRep(M.spec, M.dim, M.group_mats, M.X, M.Y)


def test_burnside_stops_once_the_span_is_full(monkeypatch):
    late, inserts = [], Counter()
    for cls in (ModularSpan, SpanBasis):
        def counting_add(self, vec, _add=cls.add, _name=cls.__name__):
            inserts[_name] += 1
            if self.dim() == len(vec):
                late.append(vec)
            return _add(self, vec)
        monkeypatch.setattr(cls, "add", counting_add)

    def certify_new_modules():
        # new modules: the shared sweep modules may hold their reports already
        modules = [_fresh(inst.module) for inst in sweep_instances()[:60]]
        assert all(is_simple_burnside(M).passed for M in modules)

    # a full span mod p certifies: the exact closure never runs
    certify_new_modules()
    assert inserts["ModularSpan"] > 0 and inserts["SpanBasis"] == 0
    # with no image mod p the exact closure decides, and stops as early
    inserts.clear()
    with monkeypatch.context() as m:
        m.setattr(reps, "residues", lambda mats, e: None)
        certify_new_modules()
    assert inserts["SpanBasis"] > 0 and inserts["ModularSpan"] == 0
    assert late == []


def _is_closure(start):
    """Whether a ``linalg.spin`` start is a closure's identity, d x d, and
    not one of Norton's d x 1 lines (which run from dimension 3 on)."""
    return len(start) == len(start[0])


def _counting_closures(monkeypatch):
    """The span type of each closure run, in order."""
    closures = []

    def counting_spin(start, gens, mul, span, _spin=reps.spin):
        if _is_closure(start):
            closures.append(type(span).__name__)
        return _spin(start, gens, mul, span)

    monkeypatch.setattr(reps, "spin", counting_spin)
    return closures


def _closure_report(monkeypatch, M):
    """M's Burnside report with Norton's criterion switched off."""
    with monkeypatch.context() as m:
        m.setattr(reps, "_NORTON_MIN_DIM", float("inf"))
        return is_simple_burnside(_fresh(M)).to_dict()


def test_norton_report_equals_the_closure_report(monkeypatch):
    rng = random.Random(2901)
    modules = [_fresh(inst.module) for inst in sweep_instances()
               if inst.module.dim >= reps._NORTON_MIN_DIM]
    modules += [conjugate(M, random_invertible(M.dim, M.spec.conductor, rng))
                for M in modules]
    closures = _counting_closures(monkeypatch)
    certified = 0
    for M in modules:
        before = len(closures)
        report = is_simple_burnside(M).to_dict()
        # Norton certifies with no closure; else the closure mod p runs
        certified += len(closures) == before
        assert closures[before:] in ([], ["ModularSpan"])
        assert report == _closure_report(monkeypatch, M)
        assert report["facts"]["span_dimension"] == M.dim ** 2
    assert len(modules) > 150 and certified > len(modules) // 2


def test_norton_never_certifies_a_direct_sum():
    rng = random.Random(2902)
    modules = [inst.module for inst in sweep_instances()]
    sums = [direct_sum(a, b) for a, b in zip(modules, modules[1:])
            if a.spec is b.spec and a.dim + b.dim <= 5]
    sums += [conjugate(S, random_invertible(S.dim, S.spec.conductor, rng)) for S in sums[::3]]
    lines = 0
    for S in sums:
        lines += reps._group_eigenline(S) is not None
        assert not reps._norton_certifies(S)
        assert not is_simple_burnside(S).passed
    # the criterion was tried: many sums have a group eigenline
    assert len(sums) > 80 and lines > 50


def test_norton_needs_the_transposed_spin():
    # upper triangular action on three lines: g1 = diag(zeta^2, zeta, 1) and
    # x e_3 = e_2, x e_2 = e_1.  The eigenline e_3 of g1 - 1 spins to the
    # whole space, but ker(g1 - 1)^T = e_3 spins to a line under the
    # transposes: span(e_1) is a submodule, and the algebra is 6-dimensional
    spec = skew_sweep_spec(3)
    N = spec.conductor
    one, zero = Cyclotomic.one(N), Cyclotomic.zero(N)
    G = [[root_of_unity(N, 2), zero, zero], [zero, root_of_unity(N, 1), zero],
         [zero, zero, one]]
    X = [[zero, one, zero], [zero, zero, one], [zero, zero, zero]]
    M = ModuleRep(spec, 3, [G, identity(3, N)], X, zeros(3, 3, N))
    k, e, v = reps._group_eigenline(M)
    p, gens = M._residues(0)
    line = linalg.spin([[x] for x in v], gens, lambda A, B: linalg.mat_mul_mod(A, B, p),
                       ModularSpan(p))
    assert (k, e) == (0, 0) and line.dim() == 3
    assert not reps._norton_certifies(M)
    assert is_simple_burnside(M).facts["span_dimension"] == 6


def test_no_group_eigenline_runs_the_closure(monkeypatch):
    # c shifts the lines of SkewVx with wraparound lam(c^3) = zeta_3, so its
    # eigenvalues are the cube roots of zeta_3, no cube root of unity, and
    # the other generator acts by a scalar
    spec = skew_sweep_spec(3)
    M = build_Vx_skew(scalar(spec, 2), kernel_char(spec, spec.chi, [1, 0]), spec)
    assert reps._group_eigenline(_fresh(M)) is None
    closures = _counting_closures(monkeypatch)
    report = is_simple_burnside(_fresh(M)).to_dict()
    assert closures == ["ModularSpan"] and report["facts"]["span_dimension"] == 9
    assert report == _closure_report(monkeypatch, M)
    # the same with the search made to find nothing on a module that has a line
    diff = diff_sweep_spec(3)
    V = build_Vx_diff(Character(diff.group, diff.conductor, [2, 1]),
                      root_of_unity(diff.conductor, 1), scalar(diff, 2), diff)
    assert reps._group_eigenline(_fresh(V)) is not None
    monkeypatch.setattr(reps, "_group_eigenline", lambda M: None)
    closures.clear()
    report = is_simple_burnside(_fresh(V)).to_dict()
    assert closures == ["ModularSpan"]
    assert report == _closure_report(monkeypatch, V)


@pytest.mark.parametrize("n", [8, 12])
def test_norton_certifies_large_diff_modules_with_no_closure(monkeypatch, n):
    spec = diff_sweep_spec(n)
    N = spec.conductor
    M = build_Vx_diff(Character(spec.group, N, [1, 1]), root_of_unity(N, 1), scalar(spec, 2), spec)
    C = conjugate(M, random_invertible(n, N, random.Random(n)))
    closures = _counting_closures(monkeypatch)
    for X in (M, C):
        report = is_simple_burnside(X)
        assert report.passed and report.facts["span_dimension"] == n * n
    assert closures == []


def test_certificates_are_computed_once(monkeypatch):
    counts = Counter()
    spin, add, mul = reps.spin, ModularSpan.add, reps.mat_mul
    eigenline = reps._group_eigenline

    def counting_spin(start, *args):
        if _is_closure(start):
            counts["closure"] += 1
        return spin(start, *args)

    def counting_eigenline(M):
        counts["eigenline"] += 1
        return eigenline(M)

    def counting_add(self, vec):
        counts["span_add_mod_p"] += 1
        return add(self, vec)

    def counting_mul(A, B):
        counts["mat_mul"] += 1
        return mul(A, B)

    @reps._memoized
    def _group_invertible(M, _decide=ModuleRep._group_invertible.__wrapped__):
        counts["invertible"] += 1
        return _decide(M)

    monkeypatch.setattr(reps, "spin", counting_spin)
    monkeypatch.setattr(reps, "_group_eigenline", counting_eigenline)
    monkeypatch.setattr(ModularSpan, "add", counting_add)
    monkeypatch.setattr(reps, "mat_mul", counting_mul)
    monkeypatch.setattr(ModuleRep, "_group_invertible", _group_invertible)

    def cost(fn, *args):
        before = Counter(counts)
        return fn(*args), counts - before

    spec = diff_sweep_spec(3)
    rho = Character(spec.group, spec.conductor, [2, 1])

    def build():
        return build_Vx_diff(rho, root_of_unity(spec.conductor, 1), scalar(spec, 2), spec)

    M = build()
    check, check_cost = cost(rep_check, M, spec)
    burnside, burnside_cost = cost(is_simple_burnside, M)
    assert check.passed and burnside.passed
    assert check_cost["mat_mul"] > 0
    # invertibility of the group matrices is decided once per module, by
    # rep_check here; Burnside reads it
    assert check_cost["invertible"] == 1 and burnside_cost["invertible"] == 0
    # one eigenline search, and Norton's spins mod p fill the space: no
    # closure, mod p or exact
    assert burnside_cost["eigenline"] == 1 and burnside_cost["closure"] == 0
    assert burnside_cost["span_add_mod_p"] > 0
    # classify_simple on a certified module: no closure, no relation products
    params, classify_cost = cost(classify_simple, M, spec)
    assert classify_cost["closure"] == 0 and classify_cost["invertible"] == 0
    fresh_params, fresh_cost = cost(classify_simple, build(), spec)
    assert fresh_params.describe() == params.describe()
    assert fresh_cost == check_cost + burnside_cost + classify_cost
    assert cost(rep_check, M, spec) == (check, Counter())
    assert cost(is_simple_burnside, M) == (burnside, Counter())
    assert rep_check(M, spec) is check and is_simple_burnside(M) is burnside

    # another spec object, equal in value, gets its own report, which reads
    # the module's invertibility: the same cost less that decision
    other = diff_sweep_spec(3)
    assert other is not spec
    again, again_cost = cost(rep_check, M, other)
    decided = Counter(invertible=1, span_add_mod_p=M.spec.group.ngens * M.dim)
    assert again is not check and again == check and again_cost == check_cost - decided

    # a conjugate is a new module and certifies from scratch
    conj = conjugate(M, random_invertible(M.dim, spec.conductor, random.Random(3)))
    assert cost(rep_check, conj, spec)[1] == check_cost
    conj_cost = cost(is_simple_burnside, conj)[1]
    assert conj_cost["eigenline"] == 1 and conj_cost["closure"] == 0
    assert cost(classify_simple, conj, spec)[1]["closure"] == 0


def test_torsion_profile_is_computed_once(monkeypatch):
    counts = Counter()
    for name in ("mat_pow", "full_rank"):
        def counting(*args, _fn=getattr(reps, name), _name=name):
            counts[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(reps, name, counting)
    spec = diff_sweep_spec(3)
    rho = Character(spec.group, spec.conductor, [2, 1])
    V = build_Vx_diff(rho, root_of_unity(spec.conductor, 1), scalar(spec, 2), spec)
    # p divides a denominator of this conjugate, so its torsion profile runs
    # the exact tests: the dim-th power and the exact rank
    T = identity(V.dim, spec.conductor)
    T[0][0] = scalar(spec, _split_prime(spec))
    M = conjugate(V, T)
    classify_simple(M, spec)
    assert counts["mat_pow"] > 0 and counts["full_rank"] > 0
    before = Counter(counts)
    profile = torsion_profile(M)
    assert counts == before
    assert torsion_profile(M) is profile


def test_are_isomorphic_unknown_states_the_bound():
    # every intertwiner M + N -> M + M kills the N summand, so none is
    # invertible and the random fallback must report unknown with its bound
    spec = skew_sweep_spec(3)
    M = build_torsion_char(Character(spec.group, spec.conductor, [0, 0]), spec)
    N = build_torsion_char(Character(spec.group, spec.conductor, [1, 0]), spec)
    res = are_isomorphic(direct_sum(M, N), direct_sum(M, M))
    assert res.status == "unknown"
    assert res.witness is None
    assert "(2/5)^64 = 3.4e-26" in res.detail


def test_are_isomorphic_random_fallback_witness():
    rng = random.Random(5)
    spec = skew_sweep_spec(2)
    V = build_Vx_skew(scalar(spec, 1), kernel_char(spec, spec.chi, [0, 1]), spec)
    S = direct_sum(V, V)
    C = conjugate(S, random_invertible(S.dim, spec.conductor, rng))
    pairs = list(zip(S.group_mats, C.group_mats))
    pairs += [(S.X, C.X), (S.Y, C.Y)]
    # no basis intertwiner is invertible: the random combinations decide
    basis = _intertwiner_space(S, C)
    assert basis and all(inverse(B) is None for B in basis)
    res = are_isomorphic(S, C)
    assert res.status == "isomorphic"
    T = res.witness
    assert inverse(T) is not None
    for A, B in pairs:
        assert mat_eq(mat_mul(T, A), mat_mul(B, T))


# ---------------------------------------------------------------------------
# the mod-p first pass against the exact path


def _exact_results(monkeypatch, burnside_modules, iso_pairs):
    """Burnside reports and isomorphism results of the exact path alone, on
    fresh modules: no image mod p and no certificate held in advance."""
    with monkeypatch.context() as m:
        m.setattr(reps, "residues", lambda mats, e: None)
        reports = [is_simple_burnside(_fresh(M)).to_dict() for M in burnside_modules]
        isos = [_iso_key(are_isomorphic(_fresh(a), _fresh(b))) for a, b in iso_pairs]
    return reports, isos


def _iso_key(res):
    return res.status, res.detail, res.witness


def test_mod_p_path_agrees_with_the_exact_path(monkeypatch):
    rng = random.Random(11)
    modules = [_fresh(inst.module) for inst in sweep_instances()]
    conjugates = [conjugate(M, random_invertible(M.dim, M.spec.conductor, rng))
                  for M in modules]
    sums = [direct_sum(a, b) for a, b in zip(modules, modules[1:])
            if a.spec is b.spec and a.dim + b.dim <= 4]
    sum_conjugates = [conjugate(S, random_invertible(S.dim, S.spec.conductor, rng))
                      for S in sums[::4]]
    # a partner is the next module of the same spec and dimension
    partners = [(a, b) for a, b in zip(modules, modules[1:])
                if a.spec is b.spec and a.dim == b.dim]
    # certify first, as callers do, so that Schur's shortcut is taken
    reports = [is_simple_burnside(M).to_dict() for M in modules + sums]
    conjugate_reports = [is_simple_burnside(C).to_dict() for C in conjugates]
    iso_pairs = list(zip(modules, conjugates)) + partners \
        + list(zip(sums[::4], sum_conjugates))
    isos = [_iso_key(are_isomorphic(a, b)) for a, b in iso_pairs]
    exact_reports, exact_isos = _exact_results(monkeypatch, modules + sums, iso_pairs)
    assert reports == exact_reports and isos == exact_isos
    # a conjugate spans a conjugate algebra: the module's exact report holds
    assert conjugate_reports == exact_reports[:len(modules)]
    statuses = Counter(key[0] for key in isos)
    assert statuses["isomorphic"] > 190 and statuses["not_isomorphic"] > 50
    assert sum(r["status"] == "fail" for r in reports) == len(sums)


def _split_prime(spec):
    return split_prime(spec.conductor)[0]


def test_mod_p_falls_back_when_p_divides_a_denominator(monkeypatch):
    spec = skew_sweep_spec(3)
    M = build_Vx_skew(scalar(spec, 2), kernel_char(spec, spec.chi, [1, 0]), spec)
    p = _split_prime(spec)
    T = identity(M.dim, spec.conductor)
    T[0][0] = scalar(spec, p)
    C = conjugate(M, T)   # entries p and 1/p
    assert any(a.den % p == 0 for A in C.group_mats + (C.X, C.Y) for row in A for a in row)
    adds = Counter()
    add = SpanBasis.add

    def counting_add(self, vec):
        adds["exact"] += 1
        return add(self, vec)

    monkeypatch.setattr(SpanBasis, "add", counting_add)
    report = is_simple_burnside(C)
    assert report.passed and report.facts["span_dimension"] == 9
    assert adds["exact"] > 0
    fast = _iso_key(are_isomorphic(_fresh(M), C))
    assert fast[0] == "isomorphic"
    assert ([report.to_dict()], [fast]) == _exact_results(monkeypatch, [C], [(M, C)])


def _rank_dropping_module(spec):
    """x acts by [[0, p], [0, 0]] and y by [[0, 0], [1, 0]]: the products
    x y and y x span the full matrix algebra, but mod p the image of x is
    0, so the span mod p is {1, y} and the commutant mod p is 2-dimensional
    where the exact one holds the scalars only."""
    N = spec.conductor
    one, zero = Cyclotomic.one(N), Cyclotomic.zero(N)
    X = [[zero, scalar(spec, _split_prime(spec))], [zero, zero]]
    Y = [[zero, zero], [one, zero]]
    ident = identity(2, N)
    return ModuleRep(spec, 2, [ident, ident], X, Y)


def test_mod_p_falls_back_when_the_rank_drops(monkeypatch):
    spec = skew_sweep_spec(2)
    M = _rank_dropping_module(spec)
    closures = []
    spin = reps.spin

    def counting_spin(start, gens, mul, span):
        span = spin(start, gens, mul, span)
        if _is_closure(start):
            closures.append((type(span).__name__, span.dim()))
        return span

    kernels = []
    kernel = reps.nullspace

    def counting_nullspace(A):
        kernels.append(len(A))
        return kernel(A)

    monkeypatch.setattr(reps, "spin", counting_spin)
    monkeypatch.setattr(reps, "nullspace", counting_nullspace)
    report = is_simple_burnside(M)
    assert closures == [("ModularSpan", 2), ("SpanBasis", 4)]
    assert report.passed and report.facts["span_dimension"] == 4
    res = are_isomorphic(M, _fresh(M))
    # two rows independent mod p give a 2-dimensional candidate kernel, one
    # of whose matrices fails exactly: the whole system of 16 rows decides
    assert kernels == [2, 16]
    assert res.status == "isomorphic" and mat_eq(res.witness, identity(2, spec.conductor))
    assert ([report.to_dict()], [_iso_key(res)]) == \
        _exact_results(monkeypatch, [M], [(M, M)])


def test_mod_p_with_no_independent_row_keeps_the_whole_space(monkeypatch):
    # a one-dimensional module against itself: every row of T a - a T is zero
    spec = skew_sweep_spec(3)
    M = build_torsion_char(Character(spec.group, spec.conductor, [1, 2]), spec)
    basis = _intertwiner_space(M, M)
    assert basis == [[[Cyclotomic.one(spec.conductor)]]]
    res = are_isomorphic(M, _fresh(M))
    assert _iso_key(res) == ("isomorphic", "", basis[0])
    assert [_iso_key(res)] == _exact_results(monkeypatch, [], [(M, M)])[1]


def test_schur_shortcut_skips_inverse(monkeypatch):
    rng = random.Random(4)
    spec = diff_sweep_spec(3)
    rho = Character(spec.group, spec.conductor, [2, 1])
    M = build_Vx_diff(rho, root_of_unity(spec.conductor, 1), scalar(spec, 2), spec)
    C = conjugate(M, random_invertible(M.dim, spec.conductor, rng))
    # the loop over basis intertwiners, on modules that hold no certificate
    loop = are_isomorphic(_fresh(M), _fresh(C))
    assert is_simple_burnside(M).passed
    calls = Counter()
    rank = reps.full_rank

    def counting_full_rank(A):
        calls["full_rank"] += 1
        return rank(A)

    monkeypatch.setattr(reps, "full_rank", counting_full_rank)
    for pair in ((M, C), (C, M)):
        res = are_isomorphic(*pair)
        assert res.status == "isomorphic" and calls["full_rank"] == 0
    assert _iso_key(are_isomorphic(M, C)) == _iso_key(loop)
    # without a certificate on either side the loop runs
    are_isomorphic(_fresh(M), _fresh(C))
    assert calls["full_rank"] > 0


# ---------------------------------------------------------------------------
# intertwiners lifted from every prime above p, against exact elimination


def _pairs(M1, M2):
    return list(zip(M1.group_mats + (M1.X, M1.Y), M2.group_mats + (M2.X, M2.Y)))


def _counting_nullspace(monkeypatch):
    """Patch reps.nullspace to record the row count of each exact solve."""
    calls = []
    kernel = reps.nullspace

    def counting_nullspace(A):
        calls.append(len(A))
        return kernel(A)

    monkeypatch.setattr(reps, "nullspace", counting_nullspace)
    return calls


def test_lifted_intertwiners_match_the_exact_nullspace(monkeypatch):
    rng = random.Random(13)
    instances = sweep_instances()
    firsts = {}
    for inst in instances:
        firsts.setdefault((inst.family, inst.n), inst)
    cases = []
    for inst in firsts.values():
        M, spec = _fresh(inst.module), inst.spec
        partner = next(other.module for other in instances
                       if other.spec is spec and other.module.dim == M.dim
                       and other.module is not inst.module)
        rebuilt = build_simple(classify_simple(_fresh(M), spec), spec)
        conj = conjugate(M, random_invertible(M.dim, spec.conductor, rng))
        cases += [(M, conj), (M, _fresh(partner)), (M, rebuilt)]
    assert {family for family, _ in firsts} == {
        "TorsionChar", "SkewVx", "SkewVy", "SkewVxy", "DiffVbar", "DiffVx", "DiffVy"}
    assert {n for _, n in firsts} == {2, 3, 4}
    assert any(euler_phi(M.spec.conductor) == 4 for M, _ in cases)
    calls = _counting_nullspace(monkeypatch)
    for A, B in cases:
        pairs, N = _pairs(A, B), A.spec.conductor
        assert _intertwiner_space(A, B) == \
            intertwiners_by_exact_nullspace(pairs, A.dim, N)
    # every answer came from the lift: no exact elimination ran
    assert calls == []
    isos = [_iso_key(are_isomorphic(_fresh(a), _fresh(b))) for a, b in cases]
    assert isos == _exact_results(monkeypatch, [], cases)[1]
    statuses = Counter(key[0] for key in isos)
    assert statuses["isomorphic"] >= 2 * len(firsts) and statuses["not_isomorphic"] > 0


def test_lift_falls_back_to_the_exact_path(monkeypatch):
    spec = diff_sweep_spec(4)   # conductor 8: four primes above p
    N, p = spec.conductor, _split_prime(spec)
    M = build_Vx_diff(Character(spec.group, N, [1, 2]), root_of_unity(N, 1),
                      scalar(spec, 2), spec)
    n = M.dim * M.dim
    # the intertwiner M -> T M T^-1 is T, normalized to T[3][3] = 1, and
    # one of its entries lies above sqrt(p/2): the lift fails or its exact
    # check does, and the exact kernel of the independent rows decides
    large = identity(M.dim, N)
    large[0][1] = scalar(spec, isqrt(p // 2) + 1)
    # entries p and 1/p: no image mod p, and the whole system decides
    divisible = identity(M.dim, N)
    divisible[0][0] = scalar(spec, p)
    lifts = []
    lifted_kernel = reps._lifted_kernel

    def recording_lift(*args):
        lifts.append(lifted_kernel(*args))
        return lifts[-1]

    monkeypatch.setattr(reps, "_lifted_kernel", recording_lift)
    calls = _counting_nullspace(monkeypatch)
    cases = [(M, conjugate(M, T)) for T in (large, divisible)]
    for A, B in cases:
        pairs = _pairs(A, B)
        assert _intertwiner_space(A, B) == \
            intertwiners_by_exact_nullspace(pairs, M.dim, N)
    assert len(lifts) == 1
    assert calls == [n - 1, len(_pairs(M, M)) * n]
    isos = [_iso_key(are_isomorphic(_fresh(a), _fresh(b))) for a, b in cases]
    assert [key[0] for key in isos] == ["isomorphic"] * 2
    assert isos == _exact_results(monkeypatch, [], cases)[1]


def test_each_module_is_reduced_once_per_embedding(monkeypatch):
    reductions = Counter()
    reduce = reps.residues

    def counting_residues(mats, e):
        reductions[tuple(map(id, mats)), e] += 1
        return reduce(mats, e)

    def reduced(M):
        """The embeddings under which M was reduced."""
        key = tuple(map(id, M.group_mats + (M.X, M.Y)))
        return sorted(e for mats, e in reductions if mats == key)

    monkeypatch.setattr(reps, "residues", counting_residues)
    spec = diff_sweep_spec(4)   # conductor 8: four embeddings
    N = spec.conductor
    rho = Character(spec.group, N, [1, 2])

    def build(mu):
        return build_Vx_diff(rho, root_of_unity(N, 1), scalar(spec, mu), spec)

    M = build(2)
    C = conjugate(M, random_invertible(M.dim, N, random.Random(23)))
    for module in (M, C):
        assert rep_check(module, spec).passed and is_simple_burnside(module).passed
        assert torsion_profile(module)["x"] == "TorsionFree"
        assert classify_simple(module, spec).family == "DiffVx"
    for _ in range(2):
        assert are_isomorphic(M, C).status == "isomorphic"
    # the classified pair composes its rebuild maps: no embedding beyond 0
    assert reduced(M) == reduced(C) == [0]
    # fresh copies solve the system, whose lift read all four embeddings;
    # at most one reduction per (module, embedding)
    fresh = _fresh(M), _fresh(C)
    for _ in range(2):
        assert are_isomorphic(*fresh).status == "isomorphic"
    assert max(reductions.values()) == 1
    assert reduced(fresh[0]) == reduced(fresh[1]) == list(range(euler_phi(N)))
    # a pair with no intertwiner mod p reduces embedding 0 of each module only
    reductions.clear()
    A, B = build(2), build(5)
    assert are_isomorphic(A, B).status == "not_isomorphic"
    assert reduced(A) == reduced(B) == [0] and sum(reductions.values()) == 2


# ---------------------------------------------------------------------------
# isomorphism from two classifications


def _counting_systems(monkeypatch):
    """Patch reps._intertwiner_space to count the systems solved."""
    calls = []
    space = reps._intertwiner_space

    def counting_space(M1, M2):
        calls.append((M1, M2))
        return space(M1, M2)

    monkeypatch.setattr(reps, "_intertwiner_space", counting_space)
    return calls


def _decide(pair, systems):
    """are_isomorphic of the pair, checked against the system oracle and by
    _intertwines, and whether it solved a system."""
    before = len(systems)
    res = are_isomorphic(*pair)
    assert res == iso_by_system(*pair)
    if res.status == "isomorphic":
        assert _intertwines(res.witness, *pair)
    return res, len(systems) > before


def test_classified_pairs_compose_their_rebuild_maps(monkeypatch):
    rng = random.Random(31)
    systems = _counting_systems(monkeypatch)
    instances = sweep_instances()
    composed, spun = Counter(), Counter()
    for inst, nxt in zip(instances, instances[1:] + instances[:1]):
        M, spec = _fresh(inst.module), inst.spec
        C = conjugate(M, random_invertible(M.dim, spec.conductor, rng))
        same = classify_simple(M, spec) == classify_simple(C, spec)
        for pair in ((M, C), (C, M)):
            res, solve = _decide(pair, systems)
            assert res.status == "isomorphic"
            # a classified side decides with no system: equal parameters
            # compose the two maps, other pairs spin the seed line
            assert not solve
            (composed if same else spun)[inst.family] += 1
        # a partner of the same spec and dimension, classified as well
        if nxt.spec is spec and nxt.module.dim == M.dim:
            partner = _fresh(nxt.module)
            classify_simple(partner, spec)
            for pair in ((M, partner), (partner, M)):
                assert not _decide(pair, systems)[1]
    # a module and its conjugate classify to one point in every diff family
    # and TorsionChar; a skew conjugate's x or y is not diagonal, so it gets
    # invariant-only parameters and the module's seed line is spun in it
    assert set(composed) == {"TorsionChar", "DiffVbar", "DiffVx", "DiffVy"}
    assert set(spun) == {"SkewVx", "SkewVy", "SkewVxy"}
    assert sum(composed.values()) > 150
    assert systems == []


def test_the_system_decides_pairs_with_no_common_classification(monkeypatch):
    systems = _counting_systems(monkeypatch)
    rng = random.Random(7)
    spec = skew_sweep_spec(4)
    lam = kernel_char(spec, spec.chi, [0, 3])
    a, q = root_of_unity(4, 1), spec.chi.eval(spec.c)
    M = build_Vx_skew(a, lam, spec)
    C = conjugate(M, random_invertible(M.dim, spec.conductor, rng))
    # unclassified modules: the only pair that solves the system
    assert _decide((M, C), systems)[1]
    # a skew conjugate with invariant-only parameters: M's seed line is
    # spun in it
    p, pc = classify_simple(M, spec), classify_simple(C, spec)
    assert pc.alpha is None and p.key(spec) == pc.key(spec)
    assert not _decide((M, C), systems)[1] and not _decide((C, M), systems)[1]
    # equal keys at different parameter points: alpha and alpha q
    Mq = build_Vx_skew(a * q, lam, spec)
    pq = classify_simple(Mq, spec)
    assert pq != p and pq.key(spec) == p.key(spec)
    res, solve = _decide((M, Mq), systems)
    assert res.status == "isomorphic" and not solve
    # a classification over another spec object, equal in value: the first
    # module's classification over its own spec object is spun
    other = skew_sweep_spec(4)
    twin = ModuleRep(other, M.dim, M.group_mats, M.X, M.Y)
    assert classify_simple(twin, other) == p
    assert not _decide((M, twin), systems)[1] and not _decide((twin, M), systems)[1]
    assert len(systems) == 1
    # the same module over its own spec object composes the identity maps
    same = _fresh(M)
    classify_simple(same, spec)
    res, solve = _decide((M, same), systems)
    assert not solve and mat_eq(res.witness, identity(M.dim, spec.conductor))


def test_diff_shift_orbit_points_classify_to_one_point(monkeypatch):
    # DiffVx at rho and at rho chi^k, mu moved by the winding value, have
    # equal keys; classification reads the same joint group eigenline in
    # both, so both get the same parameters and compose their Krylov maps
    systems = _counting_systems(monkeypatch)
    spec = diff_sweep_spec(3)
    rho = Character(spec.group, spec.conductor, [2, 1])
    lam, mu = root_of_unity(spec.conductor, 1), scalar(spec, 1)
    p1 = SimpleParams(family="DiffVx", rho=rho, lam_scalar=lam, mu=mu)
    M1 = build_simple(p1, spec)
    for k in (1, 2):
        rho2 = rho * (spec.chi ** k)
        p2 = SimpleParams(family="DiffVx", rho=rho2, lam_scalar=lam,
                          mu=mu - wind(spec.e, k, spec).apply_char(rho2))
        M2 = build_simple(p2, spec)
        assert p1.key(spec) == p2.key(spec)
        # while neither holds a classification the system decides; once M1
        # holds one, its seed line is spun in M2
        assert _decide((M1, M2), systems)[1] == (k == 1)
        assert classify_simple(M1, spec) == classify_simple(M2, spec)
        res, solve = _decide((M1, M2), systems)
        assert res.status == "isomorphic" and not solve


# ---------------------------------------------------------------------------
# isomorphism from one classification: the rebuild's seed line spun


def _partners(inst, instances):
    """The other sweep modules of inst's spec object and dimension."""
    return [o.module for o in instances
            if o is not inst and o.spec is inst.spec and o.module.dim == inst.module.dim]


def test_one_classified_side_decides_every_pair_with_no_system(monkeypatch):
    # every classified sweep module against its conjugate, a conjugated
    # partner and an unclassified partner, both ways: the system's answer
    # and witness, with no system solved
    systems = _counting_systems(monkeypatch)
    rng = random.Random(33)
    instances = sweep_instances()
    outcomes, families = Counter(), set()
    for inst in instances:
        M, spec = _fresh(inst.module), inst.spec
        N = spec.conductor
        families.add(classify_simple(M, spec).family)
        others = [conjugate(M, random_invertible(M.dim, N, rng))]
        partners = _partners(inst, instances)
        if partners:
            P = rng.choice(partners)
            others += [conjugate(P, random_invertible(M.dim, N, rng)), _fresh(P)]
        for other in others:
            for pair in ((M, other), (other, M)):
                res, solve = _decide(pair, systems)
                assert not solve, inst.family
                outcomes[res.status] += 1
    assert systems == []
    assert len(families) == 7
    assert outcomes["isomorphic"] > 400 and outcomes["not_isomorphic"] > 400
    assert set(outcomes) == {"isomorphic", "not_isomorphic"}


def _scalar_on_seed_generators(R):
    """R with each generator that maps e_0 to s e_0 replaced by s I: every
    vector of it is a seed of R."""
    d, N = R.dim, R.spec.conductor

    def scalar_if_eigen(A):
        if all(A[k][0].is_zero() for k in range(1, d)):
            return mat_scale(identity(d, N), A[0][0])
        return A

    return ModuleRep(R.spec, d, [scalar_if_eigen(A) for A in R.group_mats],
                     scalar_if_eigen(R.X), scalar_if_eigen(R.Y))


def test_a_seed_space_of_two_or_more_dimensions_goes_to_the_system(monkeypatch):
    systems = _counting_systems(monkeypatch)
    for spec, M in _one_module_per_family()[1:]:
        M = _fresh(M)
        params = classify_simple(M, spec)
        T = M._memo[reps._REBUILD_KEY, spec][1]
        R = M if T is None else build_simple(params, spec)
        S = _scalar_on_seed_generators(R)
        assert len(reps._seed_space(R, S)) == M.dim >= 2, params.family
        for pair in ((M, S), (S, M)):
            before = len(systems)
            res, solve = _decide(pair, systems)
            assert solve and len(systems) == before + 1, params.family
            assert res.status == "not_isomorphic", params.family


def test_with_no_reduction_the_exact_seed_kernel_gives_the_same_answers(monkeypatch):
    systems = _counting_systems(monkeypatch)
    rng = random.Random(35)
    instances = sweep_instances()
    # two modules of each family, each with a conjugate and a partner
    cases, taken = [], Counter()
    for inst in instances:
        partners = _partners(inst, instances)
        if taken[inst.family] == 2 or not partners:
            continue
        taken[inst.family] += 1
        T = random_invertible(inst.module.dim, inst.spec.conductor, rng)
        cases.append((inst, T, rng.choice(partners)))
    assert len(taken) == 7

    def decide_all():
        out = []
        for inst, T, partner in cases:
            M = _fresh(inst.module)
            classify_simple(M, inst.spec)
            for other in (conjugate(M, T), _fresh(partner)):
                out += [are_isomorphic(M, other), are_isomorphic(other, M)]
        return out

    reduced = decide_all()
    with monkeypatch.context() as m:
        m.setattr(ModuleRep, "_residues", lambda M, e: None)
        exact = decide_all()
    assert exact == reduced and systems == []
    oracle = []
    for inst, T, partner in cases:
        M = inst.module
        for other in (conjugate(M, T), partner):
            oracle += [iso_by_system(M, other), iso_by_system(other, M)]
    assert reduced == oracle
    assert {res.status for res in oracle} == {"isomorphic", "not_isomorphic"}


def test_every_rebuild_spins_its_basis_from_e0():
    # A' e_i = e_(i+1), A' the rebuild's matrix of its family's active element
    families = set()
    for inst in sweep_instances():
        M = _fresh(inst.module)
        params = classify_simple(M, inst.spec)
        R = build_simple(params, inst.spec)
        assert reps._spins_its_basis(R, params.family, inst.spec), params.family
        families.add(params.family)
    assert len(families) == 7
    # a module in another basis does not
    spec, M = _one_module_per_family()[5]
    C = conjugate(M, random_invertible(M.dim, spec.conductor, random.Random(36)))
    assert not reps._spins_its_basis(C, "DiffVx", spec)


def test_a_failed_spin_is_negative_only_on_a_rebuild_basis(monkeypatch):
    systems = _counting_systems(monkeypatch)
    spec = diff_sweep_spec(3)
    N = spec.conductor
    rho = Character(spec.group, N, [2, 1])
    M = build_Vx_diff(rho, root_of_unity(N, 1), scalar(spec, 2), spec)
    other = build_Vx_diff(rho, root_of_unity(N, 1), scalar(spec, 5), spec)
    classify_simple(M, spec)
    # the seed line of other is the rho eigenline; its Krylov matrix is no
    # module map, so no map exists
    assert len(reps._seed_space(M, other)) == 1
    res, solve = _decide((M, other), systems)
    assert res.status == "not_isomorphic" and not solve
    # when the rebuild's basis is not spun from e_0 the system decides
    monkeypatch.setattr(reps, "_spins_its_basis", lambda *args: False)
    for pair in ((M, other), (other, M)):
        res, solve = _decide(pair, systems)
        assert res.status == "not_isomorphic" and solve


def test_torsion_profile_matches_exact_elimination():
    rng = random.Random(17)
    for inst in sweep_instances():
        M = _fresh(inst.module)
        for module in (M, conjugate(M, random_invertible(M.dim, inst.spec.conductor, rng))):
            assert torsion_profile(module) == {
                "x": torsion_type_by_exact_elimination(module.X),
                "y": torsion_type_by_exact_elimination(module.Y)}, inst.family


def test_torsion_profile_runs_exact_tests_only_when_singular_mod_p(monkeypatch):
    spec = skew_sweep_spec(2)
    N, p = spec.conductor, _split_prime(spec)
    one, zero = Cyclotomic.one(N), Cyclotomic.zero(N)
    ident = identity(2, N)
    singular_mod_p = [[scalar(spec, p), zero], [zero, one]]
    M = ModuleRep(spec, 2, [ident, ident], singular_mod_p, ident)
    calls = Counter()
    for name in ("mat_pow", "full_rank"):
        def counting(*args, _name=name, _fn=getattr(reps, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(reps, name, counting)
    # diag(p, 1) is invertible exactly: the exact tests say TorsionFree
    assert torsion_profile(M) == {"x": "TorsionFree", "y": "TorsionFree"}
    assert calls == {"mat_pow": 1, "full_rank": 1}


# ---------------------------------------------------------------------------
# classification round trip at the larger dimensions


@pytest.mark.parametrize("n", [6, 8, 12])
def test_classification_round_trip_at_larger_dimensions(n):
    rng = random.Random(n)
    skew, diff = skew_sweep_spec(n), diff_sweep_spec(n)
    modules = [
        ("SkewVx", skew, build_Vx_skew(random_scalar(rng, skew.conductor, nonzero=True),
                                       random_kernel_char(rng, skew, char_kernel(skew.chi)),
                                       skew)),
        ("DiffVx", diff, build_Vx_diff(random_group_char(rng, diff),
                                       random_scalar(rng, diff.conductor, nonzero=True),
                                       Cyclotomic.zero(diff.conductor), diff)),
    ]
    for family, spec, M in modules:
        assert M.dim == n
        C = conjugate(M, random_invertible(n, spec.conductor, rng))
        for module in (M, C):
            assert rep_check(module, spec).passed, family
            report = is_simple_burnside(module)
            assert report.passed and report.facts["span_dimension"] == n * n, family
            assert classify_simple(module, spec).family == family
        assert are_isomorphic(M, C).status == "isomorphic", family


# ---------------------------------------------------------------------------
# exact products: group actions without identity factors


def test_act_group_multiplies_no_identity_it_built(monkeypatch):
    rng = random.Random(18)
    spec = diff_sweep_spec(3)
    N = spec.conductor
    M = build_Vx_diff(Character(spec.group, N, [2, 1]), root_of_unity(N, 1),
                      scalar(spec, 2), spec)
    modules = [M, conjugate(M, random_invertible(M.dim, N, rng))]
    draws = [[rng.randint(-3, 3) for _ in range(spec.group.ngens)] for _ in range(30)]
    draws += [[0, 0], [1, 0], [0, -1], [-2, 3]]

    def by_products(module, exps):
        """Identity times each generator, or its inverse, |e| times."""
        out = identity(module.dim, N)
        for k, e in enumerate(exps):
            base = module.group_mats[k] if e > 0 else inverse(module.group_mats[k])
            for _ in range(abs(e)):
                out = mat_mul(out, base)
        return out

    oracle = {(i, tuple(exps)): by_products(module, exps)
              for i, module in enumerate(modules) for exps in draws}
    built, operands = [], []

    def recording_identity(d, conductor, _fn=identity):
        built.append(_fn(d, conductor))
        return built[-1]

    def recording_mul(A, B, _fn=mat_mul):
        operands.extend((A, B))
        return _fn(A, B)

    for target in (reps, linalg):
        monkeypatch.setattr(target, "identity", recording_identity)
        monkeypatch.setattr(target, "mat_mul", recording_mul)
    for (i, exps), want in oracle.items():
        built.clear()
        operands.clear()
        got = modules[i].act_group(spec.group.element(exps))
        assert mat_eq(got, want), exps
        assert not any(A is I for A in operands for I in built), exps
        assert (len(built) == 1) == (not any(exps)), exps


# ---------------------------------------------------------------------------
# classification: a rebuild equal to the input is certified by the identity


def _counting_intertwiners(monkeypatch):
    """Patch reps._intertwiner_space to count its calls."""
    calls = Counter()
    space = reps._intertwiner_space

    def counting(M1, M2):
        calls["intertwiner_space"] += 1
        return space(M1, M2)

    monkeypatch.setattr(reps, "_intertwiner_space", counting)
    return calls


def _classify_cost(calls, M, spec):
    before = calls["intertwiner_space"]
    params = classify_simple(M, spec)
    return params, calls["intertwiner_space"] - before


def _one_module_per_family():
    """(spec, module) for each of the seven families, built by the library."""
    skew, diff = skew_sweep_spec(4), diff_sweep_spec(4)
    lam = kernel_char(skew, skew.chi, [2, 1])
    lam_y = kernel_char(skew, skew.eta, [2, 1])
    # rho as the classification recovers it: rho * chi^k would be rebuilt
    # from rho, a different basis of the same module
    rho = Character(diff.group, diff.conductor, [1, 1])
    return [
        (skew, build_torsion_char(Character(skew.group, skew.conductor, [3, 2]), skew)),
        (skew, build_Vx_skew(root_of_unity(4, 1), lam, skew)),
        (skew, build_Vy_skew(scalar(skew, 3), lam_y, skew)),
        (skew, build_Vxy_skew(scalar(skew, 1), root_of_unity(4, 2), lam, 1, skew)),
        (diff, build_Vbar_diff(rho, diff)),
        (diff, build_Vx_diff(rho, root_of_unity(diff.conductor, 3), scalar(diff, 2), diff)),
        (diff, build_Vy_diff(rho, scalar(diff, 0), root_of_unity(diff.conductor, 1), diff)),
    ]


def test_classify_takes_an_equal_rebuild_without_intertwiners(monkeypatch):
    calls = _counting_intertwiners(monkeypatch)
    rebuilds = Counter()

    def rebuild_in_another_basis(params, spec, _build=build_simple):
        """The rebuild conjugated by diag(1, 2, ..., d): isomorphic, and not
        equal to a simple input of dimension >= 2, whose x or y is not
        diagonal."""
        rebuilds["build"] += 1
        M = _build(params, spec)
        D = [[scalar(spec, i + 1) if i == j else scalar(spec, 0)
              for j in range(M.dim)] for i in range(M.dim)]
        return conjugate(M, D)

    families = set()
    for spec, M in _one_module_per_family():
        params, cost = _classify_cost(calls, M, spec)
        families.add(params.family)
        assert cost == 0, params.family
        # the same module against a rebuild in another basis: its Krylov
        # matrix is no module map, and no intertwiner system is solved
        with monkeypatch.context() as m:
            m.setattr(reps, "build_simple", rebuild_in_another_basis)
            if M.dim == 1:
                assert _classify_cost(calls, _fresh(M), spec) == (params, 0)
            else:
                with pytest.raises(ClassifyError, match="fails the Krylov check"):
                    classify_simple(_fresh(M), spec)
        assert calls["intertwiner_space"] == 0, params.family
    assert rebuilds["build"] == 7
    assert families == {"TorsionChar", "SkewVx", "SkewVy", "SkewVxy",
                        "DiffVbar", "DiffVx", "DiffVy"}


def test_classify_checks_a_rebuild_that_differs_by_intertwiners(monkeypatch):
    # a DiffVbar, DiffVx or DiffVy conjugate differs from its rebuild, and
    # the Krylov matrix certifies it: no classification solves a system
    calls = _counting_intertwiners(monkeypatch)
    krylov = _counting_krylov(monkeypatch)
    rng = random.Random(11)
    for spec, M in _one_module_per_family():
        C = conjugate(M, random_invertible(M.dim, spec.conductor, rng))
        before = Counter(krylov)
        params, cost = _classify_cost(calls, C, spec)
        assert cost == 0, params.family
        if params.family in ("DiffVbar", "DiffVx", "DiffVy"):
            assert M.dim >= 2 and krylov - before == Counter({True: 1}), params.family
        if M.dim == 1:
            # a 1 x 1 conjugate is its module: the identity certifies it
            assert (C.group_mats, C.X, C.Y) == (M.group_mats, M.X, M.Y)
            assert cost == 0


def _counting_krylov(monkeypatch):
    """Patch reps._krylov_certifies to count its outcomes: True when it
    returned the map it checked, False for None."""
    outcomes = Counter()

    def counting(*args, _fn=reps._krylov_certifies):
        certified = _fn(*args)
        outcomes[certified is not None] += 1
        return certified

    monkeypatch.setattr(reps, "_krylov_certifies", counting)
    return outcomes


def test_krylov_certificate_agrees_with_are_isomorphic(monkeypatch):
    calls = _counting_intertwiners(monkeypatch)
    rebuilds = []

    def recording_verify(M, params, spec, v, _fn=reps._verify_rebuild):
        rebuilds.append((M, params, spec, v))
        return _fn(M, params, spec, v)

    monkeypatch.setattr(reps, "_verify_rebuild", recording_verify)
    rng = random.Random(21)
    for inst in sweep_instances():
        M, N = inst.module, inst.spec.conductor
        modules = [M, conjugate(M, random_invertible(M.dim, N, rng))]
        if inst.mode == "skew":
            # a permutation x diagonal conjugate keeps x or y diagonal, so
            # its parameters are concrete and it is rebuilt
            modules.append(conjugate(M, random_monomial(M.dim, N, rng)))
        for module in modules:
            assert _classify_cost(calls, module, inst.spec)[1] == 0, inst.family
    differs = Counter()
    for M, params, spec, v in rebuilds:
        rebuilt = build_simple(params, spec)
        if (rebuilt.group_mats, rebuilt.X, rebuilt.Y) != (M.group_mats, M.X, M.Y):
            differs[params.family] += 1
            assert are_isomorphic(M, rebuilt).status == "isomorphic", params.family
            assert reps._krylov_certifies(M, rebuilt, v, params.family, spec) is not None, \
                params.family
    assert set(differs) == {"SkewVx", "SkewVy", "SkewVxy", "DiffVbar", "DiffVx", "DiffVy"}


def test_classify_raises_when_the_krylov_check_fails(monkeypatch):
    calls = _counting_intertwiners(monkeypatch)
    krylov = _counting_krylov(monkeypatch)

    def rebuild_with_a_wrong_mu(params, spec, _build=build_simple):
        return _build(SimpleParams(family=params.family, rho=params.rho,
                                   lam_scalar=params.lam_scalar, mu=params.mu + 3,
                                   n=params.n), spec)

    rng = random.Random(8)
    # the DiffVx and DiffVy modules, as conjugates
    for spec, M in _one_module_per_family()[5:]:
        C = conjugate(M, random_invertible(M.dim, spec.conductor, rng))
        params = classify_simple(_fresh(C), spec)
        wrong = rebuild_with_a_wrong_mu(params, spec)
        assert are_isomorphic(_fresh(C), wrong).status == "not_isomorphic"
        before_calls, before_krylov = calls["intertwiner_space"], Counter(krylov)
        with monkeypatch.context() as m:
            m.setattr(reps, "build_simple", rebuild_with_a_wrong_mu)
            with pytest.raises(ClassifyError, match="fails the Krylov check"):
                classify_simple(C, spec)
        assert krylov - before_krylov == Counter({False: 1}), params.family
        assert calls["intertwiner_space"] == before_calls, params.family


def test_classify_solves_no_intertwiner_system(monkeypatch):
    # every sweep module, a random conjugate of each and a permutation x
    # diagonal conjugate of each skew module: the identity or the Krylov
    # matrix certifies every rebuild, and SkewVxy's coupling is read with
    # no exact inverse
    def unreachable(*args):
        raise AssertionError("classify_simple solved an intertwiner system")

    monkeypatch.setattr(reps, "_intertwiner_space", unreachable)
    monkeypatch.setattr(reps, "are_isomorphic", unreachable)
    krylov = _counting_krylov(monkeypatch)
    inverses = Counter()

    def counting_inverse(A, _fn=reps.inverse):
        inverses["exact"] += 1
        return _fn(A)

    monkeypatch.setattr(reps, "inverse", counting_inverse)
    rng = random.Random(22)
    recovered = Counter()
    classified = {}
    for inst in sweep_instances():
        M, spec = inst.module, inst.spec
        modules = [M, conjugate(M, random_invertible(M.dim, spec.conductor, rng))]
        if inst.mode == "skew":
            modules.append(conjugate(M, random_monomial(M.dim, spec.conductor, rng)))
        for module in modules:
            assert rep_check(module, spec).passed
            assert is_simple_burnside(module).passed
            torsion_profile(module)
            before = inverses["exact"]
            params = classify_simple(module, spec)
            if params.family == "SkewVxy":
                assert inverses["exact"] == before
            # each conjugate lands in the class of the module itself
            if module is M:
                first = params
            assert params.family == first.family, first.family
            assert iso_criterion(first, params, spec), first.family
            recovered[params.family] += 1
            classified.setdefault(spec.fingerprint(), []).append((spec, params))
    assert set(recovered) == {"TorsionChar", "SkewVx", "SkewVy", "SkewVxy",
                              "DiffVbar", "DiffVx", "DiffVy"}
    assert krylov[True] > 0 and krylov[False] == 0
    # grouping by key gives the partition of the pairwise oracle, per spec
    compared = 0
    for found in classified.values():
        classes = {}
        for i, (spec, params) in enumerate(found):
            classes.setdefault(params.key(spec), set()).add(i)
        class_of = {i: members for members in classes.values() for i in members}
        for (i, (spec, p1)), (j, (_, p2)) in combinations(enumerate(found), 2):
            assert (j in class_of[i]) == iso_criterion_by_cases(p1, p2, spec), \
                (p1.describe(), p2.describe())
            compared += 1
    assert compared > 9000


@pytest.mark.parametrize("n", [2, 3, 4])
def test_classify_recovers_diff_vy_with_nilpotent_x(monkeypatch, n):
    # lam = 0, as module-sweep builds DiffVy: z invertible and x nilpotent,
    # so the module and a random conjugate classify as DiffVy, not DiffVx
    rng = random.Random(2300 + n)
    spec = diff_sweep_spec(n)
    N = spec.conductor
    krylov = _counting_krylov(monkeypatch)
    params = SimpleParams(family="DiffVy", rho=random_group_char(rng, spec),
                          lam_scalar=Cyclotomic.zero(N),
                          mu=random_scalar(rng, N, nonzero=True))
    M = build_simple(params, spec)
    for module in (M, conjugate(M, random_invertible(n, N, rng))):
        assert torsion_profile(module) == {"x": "Torsion", "y": "TorsionFree"}
        got = classify_simple(module, spec)
        assert got.family == "DiffVy"
        assert iso_criterion(params, got, spec) and iso_criterion(got, params, spec)
    assert krylov[True] > 0 and krylov[False] == 0


def test_skew_modules_from_z_make_no_exact_inverse(monkeypatch):
    # y = C z is formed with c's invertibility decided mod p
    inverted = []

    def recording_inverse(A, _fn=reps.inverse):
        inverted.append(A)
        return _fn(A)

    monkeypatch.setattr(reps, "inverse", recording_inverse)
    skew = [klein_example().module]
    for n, t in ((2, 1), (3, 2), (4, 3), (5, 2)):
        spec = skew_sweep_spec(n, t)
        lam = kernel_char(spec, spec.chi, [1, 0])
        sub = joint_kernel([spec.chi, spec.eta])
        skew += [build_Vxy_skew(scalar(spec, 2), root_of_unity(n, 1), lam, t, spec),
                 build_induced_skew([scalar(spec, -3), root_of_unity(n, 1)],
                                    SubgroupCharacter(sub, n, [1] * len(sub.rows)), spec)]
    assert inverted == []
    for M in skew:
        assert rep_check(M, M.spec).passed


def test_group_invertibility_mod_p_matches_the_exact_inverse(monkeypatch):
    ranks = Counter()

    def counting_full_rank(A, _fn=reps.full_rank):
        ranks["exact"] += 1
        return _fn(A)

    monkeypatch.setattr(reps, "full_rank", counting_full_rank)
    # the sweep modules are decided mod p, with no exact rank
    for inst in sweep_instances():
        M = _fresh(inst.module)
        assert all(M._group_invertible()) and ranks["exact"] == 0
    spec = skew_sweep_spec(2)
    N = spec.conductor
    p = split_prime(N)[0]
    one, zero = Cyclotomic.one(N), Cyclotomic.zero(N)

    def diag(a, b):
        return [[a, zero], [zero, b]]

    ident = diag(one, one)
    # name: (first group matrix, exact ranks taken)
    cases = {
        "singular": (diag(one, zero), 1),
        # invertible, singular mod p: the exact rank decides
        "p on the diagonal": (diag(scalar(spec, p), one), 1),
        # p divides a denominator: no reduction, exact ranks decide both
        "p in a denominator": (diag(Cyclotomic.rational(N, Fraction(1, p)), one), 2),
    }
    for name, (A, exact) in cases.items():
        M = ModuleRep(spec, 2, [A, ident], zeros(2, 2, N), zeros(2, 2, N))
        ranks.clear()
        got = M._group_invertible()
        assert got == tuple(inverse(B) is not None for B in M.group_mats), name
        assert ranks["exact"] == exact, name
        assert rep_check(M, spec).witnesses[:1] == ([] if got[0] else [
            {"relation": "group_invertible(g1)", "detail": ""}]), name


def test_generator_inverses_are_made_one_at_a_time(monkeypatch):
    inverted = []

    def recording_inverse(A, _fn=reps.inverse):
        inverted.append(A)
        return _fn(A)

    spec, M = _one_module_per_family()[5]
    group = spec.group
    monkeypatch.setattr(reps, "inverse", recording_inverse)
    M.act_group(group.element([2, 1]))
    assert inverted == []
    M.act_group(group.element([0, -2]))
    M.act_group(group.element([1, -1]))
    assert inverted == [M.group_mats[1]]


def test_eigen_filter_keeps_the_eigenline_and_the_character(monkeypatch):
    skipped = Counter()

    def counting_filter(*args, _fn=reps._no_eigenvalue_mod_p):
        verdict = _fn(*args)
        skipped[verdict] += 1
        return verdict

    monkeypatch.setattr(reps, "_no_eigenvalue_mod_p", counting_filter)
    rng = random.Random(13)
    modules = []
    for inst in sweep_instances():
        if inst.mode == "diff":
            M = inst.module
            modules += [M, conjugate(M, random_invertible(M.dim, inst.spec.conductor, rng))]
    filtered = [reps._joint_group_eigen(M) for M in modules]
    assert skipped[True] > 0
    monkeypatch.setattr(reps, "_no_eigenvalue_mod_p", lambda image, k, xi: False)
    for M, (v, values) in zip(modules, filtered):
        assert reps._joint_group_eigen(M) == (v, values)


def test_classify_rejects_a_rebuild_that_is_not_isomorphic(monkeypatch):
    spec = diff_sweep_spec(3)
    N = spec.conductor
    rho = Character(spec.group, N, [2, 1])
    M = build_Vx_diff(rho, root_of_unity(N, 1), scalar(spec, 2), spec)
    other = build_Vx_diff(rho, root_of_unity(N, 1), scalar(spec, 5), spec)
    assert are_isomorphic(_fresh(M), other).status == "not_isomorphic"
    monkeypatch.setattr(reps, "build_simple", lambda params, spec: other)
    with pytest.raises(ClassifyError, match="fails the Krylov check"):
        classify_simple(M, spec)
