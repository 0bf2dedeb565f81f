"""Prebuilt algebra instances with machine-checked regression facts.

Each entry checks its parameters and builds a spec (and where applicable a
quotient or a module) when it is made; its list of exact facts runs on the
first read of the entry's report, once.  A fact is either a check that can
fail, such as a defining identity of the source construction, so that a
failing fact means the library broke, or a plain value (an order, a rank,
a dimension).
"""

from math import gcd

from .abgroup import AbelianGroup, Character, SubgroupCharacter, joint_kernel
from .cyclotomic import Cyclotomic, root_of_unity
from .hopfcore import (AlgebraSpec, Mode, SpecError, TensorElem,
                       change_of_variables_check, comultiply, counit,
                       antipode, hopf_axiom_check, validate_spec)
from .quotient import QuotientSpec, hopf_ideal_check, q_reduce, quotient_basis
from .reps import (ModuleRep, build_induced_skew, is_simple_burnside,
                   rep_check, torsion_profile)
from .report import Report


class CatalogEntry:
    """A built catalog instance: its spec, its quotient and module where the
    entry has them, and the report of its regression facts.

    report is a Report, or a function of no arguments that returns one.
    The builders pass the function that runs their facts, so the facts run
    on the first read of ``report``, once, and the Report is kept.
    Exported in ``orehopf.__all__``; equal entries have equal fields, as
    when this was a dataclass, so ``==`` and ``bool`` read the report and
    run the facts if they have not run yet."""

    def __init__(self, name: str, spec: AlgebraSpec, quotient: QuotientSpec | None,
                 module: ModuleRep | None, report):
        self.name = name
        self.spec = spec
        self.quotient = quotient
        self.module = module
        self._report = report

    @property
    def report(self) -> Report:
        if not isinstance(self._report, Report):
            self._report = self._report()
        return self._report

    def __eq__(self, other):
        if not isinstance(other, CatalogEntry):
            return NotImplemented
        return (self.name, self.spec, self.quotient, self.module, self.report) == \
            (other.name, other.spec, other.quotient, other.module, other.report)

    def __bool__(self):
        return bool(self.report)


class _Facts:
    def __init__(self):
        self.facts = {}
        self.witnesses = []

    def check(self, name: str, passed: bool, value=None):
        self.facts[name] = value if value is not None else bool(passed)
        if not passed:
            self.witnesses.append({"fact": name})
        return passed


def _entry(name: str, spec: AlgebraSpec, quotient: QuotientSpec | None,
           module: ModuleRep | None, facts) -> CatalogEntry:
    """The entry whose report runs facts(f) on a fresh _Facts f."""
    def report():
        f = _Facts()
        facts(f)
        return Report(name=f"catalog:{name}", passed=not f.witnesses,
                      facts=f.facts, witnesses=f.witnesses)
    return CatalogEntry(name, spec, quotient, module, report)


def takeuchi_u1() -> CatalogEntry:
    """Infinite cyclic group, chi(b) = -1, c = b, beta = -1; the change of
    variables turns the classical presentation into yx = -xy + b^2 - 1."""
    group = AbelianGroup(1)
    b = group.generator(0)
    chi = Character(group, 2, [1])
    spec = validate_spec(group, chi, chi, b, b, -1)

    def facts(f):
        f.check("mode", spec.mode is Mode.DIFFERENTIAL_OPERATOR, spec.mode.value)
        minus_one = Cyclotomic.rational(2, -1)
        f.check("q_is_minus_one", spec.q == minus_one)
        lhs = spec.y() * spec.x()
        rhs = (spec.x() * spec.y()).scale(minus_one) \
            + spec.group_element(b ** 2) - spec.one()
        f.check("relation_yx", lhs == rhs)
        hopf = hopf_axiom_check(spec, sample_count=10, max_degree=3, seed=0)
        f.check("hopf_axioms", hopf.passed, hopf.facts.get("samples"))
        cov = change_of_variables_check(spec)
        f.check("change_of_variables", cov.passed)
    return _entry("u1", spec, None, None, facts)


def generalized_taft(N: int, a_matrix) -> CatalogEntry:
    """Cyclic group of order N with characters chi(g) = q^{-a22},
    eta(g) = q^{-a12}, b = g^{-a21}, c = g^{-a11}, beta = 0, plus the
    nilpotent quotient; the congruences on (a_ij) are validated."""
    (a11, a12), (a21, a22) = a_matrix
    if (a11 - a12) % N == 0:
        raise SpecError("need a11 != a12 (mod N)")
    if (a21 - a22) % N == 0:
        raise SpecError("need a21 != a22 (mod N)")
    if (a11 * a22 + a12 * a21) % N != 0:
        raise SpecError("need a11*a22 + a12*a21 = 0 (mod N)")
    group = AbelianGroup(0, (N,))
    g = group.generator(0)
    chi = Character(group, N, [(-a22) % N])
    eta = Character(group, N, [(-a12) % N])
    b = g ** (-a21)
    c = g ** (-a11)
    spec = validate_spec(group, chi, eta, b, c, 0)
    qs = QuotientSpec(spec, 0, 0)

    def facts(f):
        f.check("mode", spec.mode is Mode.SKEW_GROUP_RING, spec.mode.value)
        # primed variables: y' = x * b^{-1}, x' = c^{-1} * y
        yp = spec.x() * spec.group_element(b.inverse())
        xp = spec.group_element(c.inverse()) * spec.y()
        f.check("primed_commutation",
                xp * yp == (yp * xp).scale(spec.chi.eval(c)))
        f.check("coproduct_yp",
                comultiply(yp) == TensorElem.of(yp, spec.group_element(g ** a21))
                + TensorElem.of(spec.one(), yp))
        f.check("coproduct_xp",
                comultiply(xp) == TensorElem.of(xp, spec.group_element(g ** a11))
                + TensorElem.of(spec.one(), xp))
        f.check("counit_primed",
                counit(xp).is_zero() and counit(yp).is_zero())
        f.check("antipode_xp",
                antipode(xp) == (xp * spec.group_element(g ** (-a11))).scale(
                    Cyclotomic.rational(N, -1)))
        f.check("antipode_yp",
                antipode(yp) == (yp * spec.group_element(g ** (-a21))).scale(
                    Cyclotomic.rational(N, -1)))
        ideal = hopf_ideal_check(qs)
        f.check("hopf_ideal", ideal.passed)
        f.facts["quotient_rank"] = quotient_basis(qs)["rank"]
        # chi(b) = zeta^(a21 a22) and eta(c) = zeta^(a11 a12); with lambda = 0,
        # x^n and y^m lie in the ideal and x^(n-1), y^(m-1) do not
        x, y = spec.x(), spec.y()
        f.check("nilpotency_orders",
                (qs.n, qs.m) == (N // gcd(a21 * a22, N), N // gcd(a11 * a12, N))
                and q_reduce(x ** qs.n, qs).is_zero()
                and q_reduce(y ** qs.m, qs).is_zero()
                and not q_reduce(x ** (qs.n - 1), qs).is_zero()
                and not q_reduce(y ** (qs.m - 1), qs).is_zero(),
                {"N_x": qs.n, "N_y": qs.m})
    return _entry("taft", spec, qs, None, facts)


def wang_wu_tan(n: int, n1: int, beta1, beta2, beta3) -> CatalogEntry:
    """Free rank-3 group with chi(a) = q, chi(e) = chi(f) = q^{-n1},
    eta = chi^{-1}, b = e, c = f; the translated generators X = x a^{n1},
    Y = a^{n1} y satisfy the source presentation, including the sign
    q^{n1 n(n+1)/2} in X^n."""
    if not (1 <= n1 <= n):
        raise SpecError("need 1 <= n1 <= n")
    if gcd(n, n1) % 2 == 0:
        raise SpecError("need gcd(n, n1) odd")
    group = AbelianGroup(3)
    a = group.generator(0)
    e = group.generator(1)
    fgen = group.generator(2)
    chi = Character(group, n, [1 % n, (-n1) % n, (-n1) % n])
    eta = chi.inverse()
    spec = validate_spec(group, chi, eta, e, fgen, beta3)
    sign_x = root_of_unity(n, n1 * n * (n + 1) // 2)
    sign_y = root_of_unity(n, -n1 * n * (n - 1) // 2)
    qs = None
    p_order = spec.chi.eval(e).multiplicative_order()
    if p_order is not None and p_order > 1:
        qs = QuotientSpec(spec, sign_x.inverse() * spec.scalar(beta1),
                          sign_y.inverse() * spec.scalar(beta2))

    def facts(f):
        an1 = spec.group_element(a ** n1)
        X = spec.x() * an1
        Y = an1 * spec.y()
        b_w = e * a ** n1
        c_w = fgen * a ** n1
        lhs = Y * X
        rhs = (X * Y).scale(root_of_unity(n, -n1)) \
            + (spec.group_element(a ** (2 * n1))
               - spec.group_element(c_w * b_w)).scale(spec.beta)
        f.check("translated_cross_relation", lhs == rhs)
        f.check("coproduct_X",
                comultiply(X) == TensorElem.of(X, an1)
                + TensorElem.of(spec.group_element(b_w), X))
        f.check("coproduct_Y",
                comultiply(Y) == TensorElem.of(Y, an1)
                + TensorElem.of(spec.group_element(c_w), Y))
        f.facts["xn_sign"] = {"zeta_exponent": (n1 * n * (n + 1) // 2) % n}
        f.check("Xn_translation",
                X ** n == (spec.group_element(a ** (n * n1))
                           * spec.x() ** n).scale(sign_x))
        f.check("Yn_translation",
                Y ** n == (spec.group_element(a ** (n * n1))
                           * spec.y() ** n).scale(sign_y))
        if qs is not None:
            ideal = hopf_ideal_check(qs)
            f.check("hopf_ideal", ideal.passed)
        else:
            f.facts["quotient_skipped"] = "chi(e) has order 1"
    return _entry("wwt", spec, qs, None, facts)


def fantino_garcia_core(m: int, i: int, lam) -> CatalogEntry:
    """Cyclic group of order m = 4t, chi(h) = -1, b = h^i, c = h^{-i} with i
    odd, beta = 0, and the quotient by u^2 - lam(1 - h^{2i}),
    v^2 - lam(1 - h^{-2i}); the crossed product with the order-2 group on
    top is out of scope, only this core is built."""
    if m % 4 != 0 or m // 4 < 3:
        raise SpecError("need m = 4t with t >= 3")
    if i % 2 != 1 or not (1 <= i < m // 2):
        raise SpecError("need i odd with 1 <= i < m/2")
    group = AbelianGroup(0, (m,))
    h = group.generator(0)
    chi = Character(group, 2, [1])
    b = h ** i
    c = h ** (-i)
    spec = validate_spec(group, chi, chi, b, c, 0)
    lam_c = spec.scalar(lam)
    qs = QuotientSpec(spec, lam_c, lam_c)

    def facts(f):
        minus_one = Cyclotomic.rational(2, -1)
        f.check("q_is_minus_one", spec.chi.eval(b) == minus_one)
        f.check("relation_vu",
                spec.y() * spec.x() == (spec.x() * spec.y()).scale(minus_one))
        h_elem = spec.group_element(h)
        f.check("relation_uh",
                spec.x() * h_elem == (h_elem * spec.x()).scale(minus_one))
        f.check("quotient_exponents", qs.n == 2 and qs.m == 2,
                {"n": qs.n, "m": qs.m})
        ideal = hopf_ideal_check(qs)
        f.check("hopf_ideal", ideal.passed)
        f.facts["dimension_over_field"] = quotient_basis(qs)["dimension_over_field"]
    return _entry("fantino-garcia", spec, qs, None, facts)


def klein_example() -> CatalogEntry:
    """Klein four group with chi(c) = -1 = eta(b), chi(b) = eta(c) = 1,
    beta = 0; eta is not a power of chi, yet the induced module of the full
    coset space is 4-dimensional and simple."""
    group = AbelianGroup(0, (2, 2))
    b = group.generator(0)
    c = group.generator(1)
    chi = Character(group, 2, [0, 1])
    eta = Character(group, 2, [1, 0])
    spec = validate_spec(group, chi, eta, b, c, 0)
    sub = joint_kernel([chi, eta])
    lam = SubgroupCharacter(sub, 2, [0] * len(sub.hermite_generators()))
    one = Cyclotomic.one(2)
    module = build_induced_skew([one, one], lam, spec)

    def facts(f):
        f.check("mode", spec.mode is Mode.SKEW_GROUP_RING, spec.mode.value)
        f.check("joint_kernel_trivial", sub.index() == 4, sub.index())
        f.check("dim", module.dim == 4, module.dim)
        f.check("rep_check", rep_check(module, spec).passed)
        burnside = is_simple_burnside(module)
        f.check("burnside_span", burnside.facts["span_dimension"] == 16,
                burnside.facts["span_dimension"])
        prof = torsion_profile(module)
        f.check("torsion_profile",
                prof == {"x": "TorsionFree", "y": "TorsionFree"}, prof)
    return _entry("klein", spec, None, module, facts)


def skew_z2() -> CatalogEntry:
    """Free rank-2 group over conductor 4 with chi(c) = zeta_4, beta = 0:
    a skew-mode fixture for the axiom sweeps."""
    group = AbelianGroup(2)
    b = group.generator(0)
    c = group.generator(1)
    chi = Character(group, 4, [0, 1])
    eta = Character(group, 4, [3, 1])
    spec = validate_spec(group, chi, eta, b, c, 0)

    def facts(f):
        f.check("mode", spec.mode is Mode.SKEW_GROUP_RING, spec.mode.value)
        hopf = hopf_axiom_check(spec, sample_count=10, max_degree=3, seed=0)
        f.check("hopf_axioms", hopf.passed)
        cov = change_of_variables_check(spec)
        f.check("change_of_variables", cov.passed)
    return _entry("skew-z2", spec, None, None, facts)


def diff_z2() -> CatalogEntry:
    """Free rank-2 group over conductor 3 with q = zeta_3, beta = 1: a
    differential-mode fixture for the axiom sweeps."""
    group = AbelianGroup(2)
    b = group.generator(0)
    c = group.generator(1)
    chi = Character(group, 3, [2, 2])
    eta = chi.inverse()
    spec = validate_spec(group, chi, eta, b, c, 1)

    def facts(f):
        f.check("mode", spec.mode is Mode.DIFFERENTIAL_OPERATOR, spec.mode.value)
        f.check("q_value", spec.q == root_of_unity(3, 1))
        hopf = hopf_axiom_check(spec, sample_count=10, max_degree=3, seed=0)
        f.check("hopf_axioms", hopf.passed)
        cov = change_of_variables_check(spec)
        f.check("change_of_variables", cov.passed)
    return _entry("diff-z2", spec, None, None, facts)
_DEFAULTS = {
    "u1": takeuchi_u1,
    "taft": lambda: generalized_taft(5, ((1, 2), (1, 3))),
    "wwt": lambda: wang_wu_tan(3, 1, 1, 1, 1),
    "fantino-garcia": lambda: fantino_garcia_core(12, 1, 1),
    "klein": klein_example,
    "skew-z2": skew_z2,
    "diff-z2": diff_z2,
}


def catalog_names():
    return sorted(_DEFAULTS)


def catalog_entry(name: str) -> CatalogEntry:
    """Build a named entry with its default parameters."""
    if name not in _DEFAULTS:
        raise SpecError(f"unknown catalog entry {name!r}; "
                        f"known: {', '.join(catalog_names())}")
    return _DEFAULTS[name]()
