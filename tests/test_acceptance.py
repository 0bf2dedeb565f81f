"""Acceptance gate: thirteen exact criteria, each a single test.

The terminal summary (see conftest) prints one pass/fail line per
criterion.  All randomness is fixed-seed; all comparisons are exact.
"""

import random
import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from math import gcd

from orehopf.abgroup import (AbelianGroup, Character, SubgroupCharacter,
                             char_kernel, joint_kernel)
from orehopf.catalog import catalog_entry
from orehopf.cyclotomic import Cyclotomic, q_int, root_of_unity
from orehopf.hopfcore import (GroupAlgElem, antipode_order, hopf_axiom_check,
                              random_element, validate_spec, wind)
from orehopf.quotient import QuotientSpec, hopf_ideal_check
from orehopf.reps import (SimpleParams, are_isomorphic, build_induced_skew,
                          build_simple, build_torsion_char, build_Vbar_diff,
                          build_Vx_diff, build_Vx_skew, build_Vxy_skew,
                          build_Vy_diff, build_Vy_skew, classify_simple,
                          conjugate, direct_sum, is_simple_burnside,
                          iso_criterion, rep_check, torsion_profile,
                          truncation_index)

from gen import (audit_spec, diff_sweep_spec, quotient_sweep_spec,
                 random_group_char, random_invertible, random_kernel_char,
                 random_scalar, skew_sweep_spec)
from oracles import antipode_order_by_iteration, assert_product_matches

AUDIT_FLAGS = []

SKEW_SWEEP = [(2, 1), (3, 1), (3, 2), (4, 1), (4, 3)]
DIFF_SWEEP = [2, 3, 4]


# ---------------------------------------------------------------------------
# criterion 1


def test_criterion_01_hopf_axiom_suite():
    started = time.monotonic()
    for name in ("u1", "skew-z2", "diff-z2"):
        spec = catalog_entry(name).spec
        report = hopf_axiom_check(spec, sample_count=100, max_degree=3, seed=7)
        assert report.passed, (name, report.witnesses)
        assert report.witnesses == []
        assert report.facts["samples"] == 100
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"axiom suite took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# criterion 2


def test_criterion_02_multiplication_oracle():
    rng = random.Random(202)
    for spec in (skew_sweep_spec(3), diff_sweep_spec(2)):
        for _ in range(200):
            a = random_element(spec, rng, max_degree=2, max_terms=2)
            b = random_element(spec, rng, max_degree=2, max_terms=2)
            assert_product_matches(a, b)
        for _ in range(50):
            a = random_element(spec, rng, max_degree=2, max_terms=2)
            b = random_element(spec, rng, max_degree=2, max_terms=2)
            c = random_element(spec, rng, max_degree=2, max_terms=2)
            assert (a * b) * c == a * (b * c)


# ---------------------------------------------------------------------------
# criterion 3


def _unit_q_diff_spec():
    # q = 1 corner: chi(b) = chi(c) = 1 but chi itself nontrivial
    G = AbelianGroup(2)
    chi = Character(G, 4, [0, 1])
    return validate_spec(G, chi, chi ** -1, G.element([1, 0]),
                         G.element([1, 0]), 1)


def test_criterion_03_commutation_identities():
    specs = [diff_sweep_spec(n) for n in range(2, 9)]
    specs.append(_unit_q_diff_spec())
    for spec in specs:
        N = spec.conductor
        q = spec.q
        qi = q.inverse()
        x, z = spec.x(), spec.z()
        c_inv = spec.c.inverse()
        for i in range(1, 9):
            co3 = GroupAlgElem.of(c_inv, N, q_int(i, q)) \
                - GroupAlgElem.of(spec.b, N, q_int(i, qi))
            assert z * x ** i == x ** i * z \
                + spec.from_group_alg(co3) * x ** (i - 1), ("eq3", N, i)
            co4 = GroupAlgElem.of(spec.b, N, q_int(i, q)) \
                - GroupAlgElem.of(c_inv, N, q_int(i, qi))
            assert x * z ** i == z ** i * x \
                + spec.from_group_alg(co4) * z ** (i - 1), ("eq4", N, i)
            assert z * x ** i - x ** i * z \
                == x ** (i - 1) * spec.from_group_alg(wind(spec.e, i, spec)), \
                ("commute", N, i)
        ord_q = q.multiplicative_order()
        bound = 2 * ord_q if ord_q is not None and ord_q > 1 else 8
        for i in range(0, bound + 1):
            total = GroupAlgElem.zero(spec.group, N)
            for k in range(i):
                total = total + spec.e.twist(spec.chi, -k)
            closed = GroupAlgElem.of(c_inv, N, q_int(i, qi)) \
                - GroupAlgElem.of(spec.b, N, q_int(i, q))
            w = wind(spec.e, i, spec)
            assert dict(w.terms) == dict(total.terms), ("wind-sum", N, i)
            assert dict(w.terms) == dict(closed.terms), ("wind-closed", N, i)


# ---------------------------------------------------------------------------
# criterion 4


def test_criterion_04_quotient_certification():
    rng = random.Random(404)
    minus_one = "-1"
    for n, m in product((2, 3, 4), repeat=2):
        spec = quotient_sweep_spec(n, m)
        for _ in range(5):
            lam1 = random_scalar(rng, spec.conductor)
            lam2 = random_scalar(rng, spec.conductor)
            qs = QuotientSpec(spec, lam1, lam2)
            report = hopf_ideal_check(qs)
            assert report.passed, (n, m, report.witnesses)
            assert report.facts["sign_p"] == minus_one
            assert report.facts["sign_r"] == minus_one
            sign = (qs.p ** (n * (n + 1) // 2)) \
                * Cyclotomic.rational(spec.conductor, (-1) ** n)
            assert sign == Cyclotomic.rational(spec.conductor, -1)


# ---------------------------------------------------------------------------
# criterion 5


def test_criterion_05_antipode_order():
    specs = [catalog_entry(name).spec for name in ("u1", "skew-z2", "diff-z2")]
    specs += [skew_sweep_spec(n) for n in (2, 3, 4, 5)]
    specs += [diff_sweep_spec(n) for n in (2, 3, 4)]
    assert len(specs) == 10
    for spec in specs:
        k = spec.chi.eval(spec.b).multiplicative_order()
        m = spec.eta.eval(spec.c).multiplicative_order()
        assert k is not None and m is not None
        expected = 2 * (k * m // gcd(k, m))
        assert antipode_order(spec) == expected \
            == antipode_order_by_iteration(spec), spec


# ---------------------------------------------------------------------------
# criteria 6, 7, 12, 13 share one instance sweep


@dataclass
class Instance:
    family: str
    module: object
    spec: object
    n: int
    mode: str


def _skew_family_instances(rng):
    out = []
    for n, t in SKEW_SWEEP:
        spec = skew_sweep_spec(n, t)
        q = spec.chi.eval(spec.c)
        qy = spec.eta.eval(spec.b)
        kx = char_kernel(spec.chi)
        ky = char_kernel(spec.eta)
        for _ in range(2):
            out.append(Instance("TorsionChar",
                                build_torsion_char(random_group_char(rng, spec), spec),
                                spec, n, "skew"))
        for _ in range(4):
            out.append(Instance(
                "SkewVx",
                build_Vx_skew(random_scalar(rng, spec.conductor, nonzero=True),
                              random_kernel_char(rng, spec, kx), spec),
                spec, n, "skew"))
            out.append(Instance(
                "SkewVy",
                build_Vy_skew(random_scalar(rng, spec.conductor, nonzero=True),
                              random_kernel_char(rng, spec, ky), spec),
                spec, n, "skew"))
            out.append(Instance(
                "SkewVxy",
                build_Vxy_skew(random_scalar(rng, spec.conductor, nonzero=True),
                               random_scalar(rng, spec.conductor, nonzero=True),
                               random_kernel_char(rng, spec, kx), t, spec),
                spec, n, "skew"))
        # exhaustive shifts of one base point per family
        alpha = random_scalar(rng, spec.conductor, nonzero=True)
        lam = random_kernel_char(rng, spec, kx)
        lam_y = random_kernel_char(rng, spec, ky)
        ax = random_scalar(rng, spec.conductor, nonzero=True)
        ay = random_scalar(rng, spec.conductor, nonzero=True)
        for i in range(1, n):
            out.append(Instance("SkewVx",
                                build_Vx_skew(alpha * q ** i, lam, spec),
                                spec, n, "skew"))
            out.append(Instance("SkewVy",
                                build_Vy_skew(alpha * qy ** i, lam_y, spec),
                                spec, n, "skew"))
            out.append(Instance("SkewVxy",
                                build_Vxy_skew(ax * q ** i, ay * q ** (i * t),
                                               lam, t, spec),
                                spec, n, "skew"))
        # induced construction on the full coset space
        sub = joint_kernel([spec.chi, spec.eta])
        kvals = [random_scalar(rng, spec.conductor, nonzero=True)
                 for _ in range(2)]
        out.append(Instance(
            "SkewVxy",
            build_induced_skew(kvals, random_kernel_char(rng, spec, sub), spec),
            spec, n, "skew"))
    return out


def _diff_torsion_char(rng, spec):
    # rho(e) = 0 on the diff sweep specs means rho = [a, -2a]
    a = rng.randrange(spec.conductor)
    return Character(spec.group, spec.conductor,
                     [a, (-2 * a) % spec.conductor])


def _diff_family_instances(rng):
    out = []
    for idx, n in enumerate(DIFF_SWEEP):
        spec = diff_sweep_spec(n)
        draws = 7 if idx < 2 else 6
        for _ in range(4 if idx < 2 else 2):
            out.append(Instance("TorsionChar",
                                build_torsion_char(_diff_torsion_char(rng, spec), spec),
                                spec, n, "diff"))
        for _ in range(draws):
            out.append(Instance("DiffVbar",
                                build_Vbar_diff(random_group_char(rng, spec), spec),
                                spec, n, "diff"))
            out.append(Instance(
                "DiffVx",
                build_Vx_diff(random_group_char(rng, spec),
                              random_scalar(rng, spec.conductor, nonzero=True),
                              random_scalar(rng, spec.conductor), spec),
                spec, n, "diff"))
            out.append(Instance(
                "DiffVy",
                build_Vy_diff(random_group_char(rng, spec),
                              random_scalar(rng, spec.conductor),
                              random_scalar(rng, spec.conductor, nonzero=True),
                              spec),
                spec, n, "diff"))
        # exhaustive parameter shifts of one base point per family
        rho = random_group_char(rng, spec)
        lam = random_scalar(rng, spec.conductor, nonzero=True)
        mu = random_scalar(rng, spec.conductor)
        for k in range(1, n):
            rho_k = rho * (spec.chi ** k)
            mu_k = mu - wind(spec.e, k, spec).apply_char(rho_k)
            out.append(Instance("DiffVx",
                                build_Vx_diff(rho_k, lam, mu_k, spec),
                                spec, n, "diff"))
        rho = random_group_char(rng, spec)
        lam = random_scalar(rng, spec.conductor)
        mu = random_scalar(rng, spec.conductor, nonzero=True)
        for k in range(1, n):
            rho_k = rho * (spec.chi ** k)
            lam_k = lam - wind(spec.e, k, spec,
                               character=spec.eta).apply_char(rho)
            out.append(Instance("DiffVy",
                                build_Vy_diff(rho_k, lam_k, mu, spec),
                                spec, n, "diff"))
    return out


def _nilpotent_x_diff_vy_instances(rng):
    # lam = rho(wind(e, i; eta)) for one i < n stops the x-chain, so x is
    # nilpotent and the module is DiffVy alone; i = 0 gives lam = 0
    out = []
    for n in DIFF_SWEEP:
        spec = diff_sweep_spec(n)
        for i in range(n):
            rho = random_group_char(rng, spec)
            lam = wind(spec.e, i, spec, character=spec.eta).apply_char(rho)
            out.append(Instance(
                "DiffVy",
                build_Vy_diff(rho, lam, random_scalar(rng, spec.conductor, nonzero=True),
                              spec),
                spec, n, "diff"))
    return out


@lru_cache(maxsize=1)
def sweep_instances():
    rng = random.Random(1106)
    return tuple(_skew_family_instances(rng) + _diff_family_instances(rng)
                 + _nilpotent_x_diff_vy_instances(random.Random(2806)))


def test_criterion_06_module_relations():
    instances = sweep_instances()
    families = {inst.family for inst in instances}
    assert families == {"TorsionChar", "SkewVx", "SkewVy", "SkewVxy",
                        "DiffVbar", "DiffVx", "DiffVy"}
    for fam in ("SkewVx", "SkewVy", "SkewVxy", "DiffVbar", "DiffVx", "DiffVy",
                "TorsionChar"):
        assert sum(1 for i in instances if i.family == fam) >= 20, fam
    for inst in instances:
        report = rep_check(inst.module, inst.spec)
        assert report.passed, (inst.family, inst.n, report.witnesses)


def test_criterion_07_simplicity_certificates():
    for inst in sweep_instances():
        report = is_simple_burnside(inst.module)
        d = inst.module.dim
        assert report.passed, (inst.family, inst.n)
        assert report.facts["span_dimension"] == d * d
    # control: a direct sum is never Burnside-simple
    spec = skew_sweep_spec(3)
    lam = SubgroupCharacter(char_kernel(spec.chi), spec.conductor, [0, 0])
    V = build_Vx_skew(Cyclotomic.one(spec.conductor), lam, spec)
    control = is_simple_burnside(direct_sum(V, V))
    assert not control.passed
    assert control.facts["span_dimension"] < control.facts["full_dimension"]


# ---------------------------------------------------------------------------
# criterion 8


def _agree(p1, p2, M1, M2, spec, seen):
    claimed = p1.key(spec) == p2.key(spec)
    oracle = are_isomorphic(M1, M2)
    assert oracle.status != "unknown"
    assert claimed == (oracle.status == "isomorphic"), \
        (p1.family, p1.describe(), p2.describe(), oracle.status)
    seen[claimed] += 1


def test_criterion_08_isomorphism_criteria():
    rng = random.Random(808)
    seen = {True: 0, False: 0}
    for n in (2, 3, 4):
        spec = skew_sweep_spec(n)
        q = spec.chi.eval(spec.c)
        kx = char_kernel(spec.chi)
        ky = char_kernel(spec.eta)

        # TorsionChar: equality of characters
        chars = [random_group_char(rng, spec) for _ in range(4)]
        for c1, c2 in product(chars, repeat=2):
            p1 = SimpleParams(family="TorsionChar", lam=c1)
            p2 = SimpleParams(family="TorsionChar", lam=c2)
            _agree(p1, p2, build_torsion_char(c1, spec),
                   build_torsion_char(c2, spec), spec, seen)

        # SkewVx / SkewVy: alpha sweeps q^i vs q^j, plus random pairs
        alpha = random_scalar(rng, spec.conductor, nonzero=True)
        lam = random_kernel_char(rng, spec, kx)
        lam_y = random_kernel_char(rng, spec, ky)
        qy = spec.eta.eval(spec.b)
        for i, j in product(range(n), repeat=2):
            p1 = SimpleParams(family="SkewVx", alpha=alpha * q ** i, lam=lam)
            p2 = SimpleParams(family="SkewVx", alpha=alpha * q ** j, lam=lam)
            _agree(p1, p2, build_simple(p1, spec), build_simple(p2, spec),
                   spec, seen)
            p1 = SimpleParams(family="SkewVy", alpha=alpha * qy ** i, lam=lam_y)
            p2 = SimpleParams(family="SkewVy", alpha=alpha * qy ** j, lam=lam_y)
            _agree(p1, p2, build_simple(p1, spec), build_simple(p2, spec),
                   spec, seen)
        for _ in range(7):
            a1 = random_scalar(rng, spec.conductor, nonzero=True)
            a2 = random_scalar(rng, spec.conductor, nonzero=True)
            l1 = random_kernel_char(rng, spec, kx)
            l2 = random_kernel_char(rng, spec, kx)
            p1 = SimpleParams(family="SkewVx", alpha=a1, lam=l1)
            p2 = SimpleParams(family="SkewVx", alpha=a2, lam=l2)
            _agree(p1, p2, build_simple(p1, spec), build_simple(p2, spec),
                   spec, seen)
            l1 = random_kernel_char(rng, spec, ky)
            l2 = random_kernel_char(rng, spec, ky)
            p1 = SimpleParams(family="SkewVy", alpha=a1, lam=l1)
            p2 = SimpleParams(family="SkewVy", alpha=a2, lam=l2)
            _agree(p1, p2, build_simple(p1, spec), build_simple(p2, spec),
                   spec, seen)
            bx = random_scalar(rng, spec.conductor, nonzero=True)
            by = random_scalar(rng, spec.conductor, nonzero=True)
            l1 = random_kernel_char(rng, spec, kx)
            p1 = SimpleParams(family="SkewVxy", alpha_x=a1, alpha_y=a2,
                              lam=l1, t=1)
            p2 = SimpleParams(family="SkewVxy", alpha_x=bx, alpha_y=by,
                              lam=l1, t=1)
            _agree(p1, p2, build_simple(p1, spec), build_simple(p2, spec),
                   spec, seen)

        # SkewVxy: coupled shift sweep plus decoupled perturbations
        ax = random_scalar(rng, spec.conductor, nonzero=True)
        ay = random_scalar(rng, spec.conductor, nonzero=True)
        for i, j in product(range(n), repeat=2):
            p1 = SimpleParams(family="SkewVxy", alpha_x=ax * q ** i,
                              alpha_y=ay * q ** i, lam=lam, t=1)
            p2 = SimpleParams(family="SkewVxy", alpha_x=ax * q ** j,
                              alpha_y=ay * q ** (2 * j % n), lam=lam, t=1)
            _agree(p1, p2, build_simple(p1, spec), build_simple(p2, spec),
                   spec, seen)

    for n in (2, 3, 4):
        spec = diff_sweep_spec(n)

        # DiffVbar: equality of rho
        rhos = [random_group_char(rng, spec) for _ in range(3)]
        for r1, r2 in product(rhos, repeat=2):
            m1, m2 = build_Vbar_diff(r1, spec), build_Vbar_diff(r2, spec)
            if m1.dim != m2.dim:
                continue
            p1 = SimpleParams(family="DiffVbar", rho=r1)
            p2 = SimpleParams(family="DiffVbar", rho=r2)
            _agree(p1, p2, m1, m2, spec, seen)

        # DiffVx / DiffVy: exhaustive shift index k, matched and perturbed
        rho = random_group_char(rng, spec)
        lam = random_scalar(rng, spec.conductor, nonzero=True)
        mu = random_scalar(rng, spec.conductor)
        base_x = SimpleParams(family="DiffVx", rho=rho, lam_scalar=lam, mu=mu)
        Mx = build_simple(base_x, spec)
        one = Cyclotomic.one(spec.conductor)
        for k in range(n):
            rho_k = rho * (spec.chi ** k)
            mu_k = mu - wind(spec.e, k, spec).apply_char(rho_k)
            good = SimpleParams(family="DiffVx", rho=rho_k, lam_scalar=lam,
                                mu=mu_k)
            _agree(base_x, good, Mx, build_simple(good, spec), spec, seen)
            off = SimpleParams(family="DiffVx", rho=rho_k, lam_scalar=lam,
                               mu=mu_k + one)
            _agree(base_x, off, Mx, build_simple(off, spec), spec, seen)

        rho = random_group_char(rng, spec)
        lam = random_scalar(rng, spec.conductor)
        mu = random_scalar(rng, spec.conductor, nonzero=True)
        base_y = SimpleParams(family="DiffVy", rho=rho, lam_scalar=lam, mu=mu)
        My = build_simple(base_y, spec)
        for k in range(n):
            rho_k = rho * (spec.chi ** k)
            lam_k = lam - wind(spec.e, k, spec,
                               character=spec.eta).apply_char(rho)
            good = SimpleParams(family="DiffVy", rho=rho_k, lam_scalar=lam_k,
                                mu=mu)
            _agree(base_y, good, My, build_simple(good, spec), spec, seen)
            off = SimpleParams(family="DiffVy", rho=rho_k,
                               lam_scalar=lam_k + one, mu=mu)
            _agree(base_y, off, My, build_simple(off, spec), spec, seen)

        for _ in range(7):
            r1 = random_group_char(rng, spec)
            r2 = random_group_char(rng, spec)
            p1 = SimpleParams(family="DiffVx", rho=r1,
                              lam_scalar=random_scalar(rng, spec.conductor,
                                                       nonzero=True),
                              mu=random_scalar(rng, spec.conductor))
            p2 = SimpleParams(family="DiffVx", rho=r2,
                              lam_scalar=random_scalar(rng, spec.conductor,
                                                       nonzero=True),
                              mu=random_scalar(rng, spec.conductor))
            _agree(p1, p2, build_simple(p1, spec), build_simple(p2, spec),
                   spec, seen)
            p1 = SimpleParams(family="DiffVy", rho=r1,
                              lam_scalar=random_scalar(rng, spec.conductor),
                              mu=random_scalar(rng, spec.conductor,
                                               nonzero=True))
            p2 = SimpleParams(family="DiffVy", rho=r2,
                              lam_scalar=random_scalar(rng, spec.conductor),
                              mu=random_scalar(rng, spec.conductor,
                                               nonzero=True))
            _agree(p1, p2, build_simple(p1, spec), build_simple(p2, spec),
                   spec, seen)

    assert seen[True] > 0 and seen[False] > 0


# ---------------------------------------------------------------------------
# criterion 9


def test_criterion_09_vbar_injectivity():
    spec = diff_sweep_spec(4)
    N = spec.conductor
    chosen = []
    for r1 in range(N):
        for r2 in range(N):
            rho = Character(spec.group, N, [r1, r2])
            if truncation_index(rho, spec) == 4:
                chosen.append(rho)
    assert len(chosen) >= 10
    chosen = chosen[:10]
    modules = [build_Vbar_diff(rho, spec) for rho in chosen]
    for (r1, m1), (r2, m2) in combinations(zip(chosen, modules), 2):
        assert r1 != r2
        result = are_isomorphic(m1, m2)
        assert result.status == "not_isomorphic", (r1, r2)
        p1 = SimpleParams(family="DiffVbar", rho=r1)
        p2 = SimpleParams(family="DiffVbar", rho=r2)
        assert not iso_criterion(p1, p2, spec)


# ---------------------------------------------------------------------------
# criterion 10


def test_criterion_10_klein_example():
    entry = catalog_entry("klein")
    spec = entry.spec
    sub = joint_kernel([spec.chi, spec.eta])
    lam = SubgroupCharacter(sub, 2, [0] * len(sub.hermite_generators()))
    one = Cyclotomic.one(2)
    module = build_induced_skew([one, one], lam, spec)
    assert module.dim == 4
    assert rep_check(module, spec).passed
    burnside = is_simple_burnside(module)
    assert burnside.passed
    assert burnside.facts["span_dimension"] == 16


# ---------------------------------------------------------------------------
# criterion 11


def test_criterion_11_example_audit():
    AUDIT_FLAGS.clear()
    flagged = 0
    total = 0
    for n in (3, 4, 6):
        spec = audit_spec(n)
        q = spec.chi.eval(spec.c).inverse()
        assert q == root_of_unity(n, 1)
        for d in range(1, n + 1):
            rho = Character(spec.group, n, [(-d) % n, 0])
            assert rho.eval(spec.c) == Cyclotomic.one(n)
            assert rho.eval(spec.b) == q ** (-d)
            computed = truncation_index(rho, spec)
            module = build_Vbar_diff(rho, spec)
            # definitional property: dim = least vanishing winding index
            assert module.dim == computed
            for i in range(1, computed):
                assert not wind(spec.e, i, spec).apply_char(rho).is_zero()
            assert wind(spec.e, computed, spec).apply_char(rho).is_zero()
            assert rep_check(module, spec).passed
            # the example's rows hold one step of rho(b) -> q rho(b) later
            assert computed == (d + 1 if d < n else 1)
            shifted = Character(spec.group, n, [(1 - d) % n, 0])
            assert shifted.eval(spec.b) == q ** (1 - d)
            assert truncation_index(shifted, spec) == d
            total += 1
            if computed != d:
                flagged += 1
                AUDIT_FLAGS.append(
                    f"n={n} d={d}: computed dimension {computed}, "
                    f"claimed d={d} [DISCREPANCY]")
    AUDIT_FLAGS.append(f"{flagged} of {total} rows differ from the claimed "
                       f"value d (computed: d+1 for d<n, 1 for d=n)")
    assert total == 13


# ---------------------------------------------------------------------------
# criterion 12


def _same_class(inst, params, spec):
    """The classified parameters name the isomorphism class of the module."""
    try:
        rebuilt = build_simple(params, spec)
    except Exception:
        return None
    return bool(are_isomorphic(inst.module, rebuilt))


def test_criterion_12_classification_round_trip():
    rng = random.Random(1212)
    for inst in sweep_instances():
        spec = inst.spec
        params = classify_simple(inst.module, spec)
        direct = _same_class(inst, params, spec)
        assert direct is True, (inst.family, params.describe())

        T = random_invertible(inst.module.dim, spec.conductor, rng)
        conj = conjugate(inst.module, T)
        params_c = classify_simple(conj, spec)
        assert params_c.family == params.family, (params.family,
                                                  params_c.family)
        rebuilt = _same_class(inst, params_c, spec)
        if rebuilt is None:
            # invariant-only parameters: decide through the criterion
            assert iso_criterion(params, params_c, spec), \
                (params.describe(), params_c.describe())
        else:
            assert rebuilt is True, (inst.family, params_c.describe())


# ---------------------------------------------------------------------------
# criterion 13


_EXPECTED_PROFILE = {
    "TorsionChar": {"x": "Torsion", "y": "Torsion"},
    "SkewVx": {"x": "TorsionFree", "y": "Torsion"},
    "SkewVy": {"x": "Torsion", "y": "TorsionFree"},
    "SkewVxy": {"x": "TorsionFree", "y": "TorsionFree"},
}


def test_criterion_13_stratification():
    tags = {"TorsionChar": 0, "SkewVx": 0, "SkewVy": 0, "SkewVxy": 0}
    for inst in sweep_instances():
        if inst.mode != "skew":
            continue
        spec = inst.spec
        params = classify_simple(inst.module, spec)
        assert params.family in tags, params.family
        tags[params.family] += 1
        # dimension stratification: 1 or n
        expected_dim = 1 if params.family == "TorsionChar" else inst.n
        assert inst.module.dim == expected_dim
        # family tag determines the torsion profile stratum
        assert torsion_profile(inst.module) == _EXPECTED_PROFILE[params.family]
        # parameters land in the right strata:
        #   group characters for dim 1, U x (kernel characters) otherwise
        if params.family == "TorsionChar":
            assert isinstance(params.lam, Character)
        elif params.family in ("SkewVx", "SkewVy"):
            assert not params.alpha_pow.is_zero()
            assert isinstance(params.lam, SubgroupCharacter)
        else:
            assert not params.alpha_x_pow.is_zero()
            assert not params.coupling.is_zero()
            assert isinstance(params.lam, SubgroupCharacter)
            assert params.t is not None and gcd(params.t, inst.n) == 1
    assert all(count > 0 for count in tags.values()), tags
