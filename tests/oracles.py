"""Independent oracles for cross-checking the normal-form engine.

The multiplication oracle represents ring elements as linear combinations
of free words in the letters g (group elements), 'x', and 'y', and sorts
them by one-step rewriting with the defining relations only:

    x g -> chi(g) g x
    y g -> eta(g) g y
    y x -> q x y + beta (1 - cb)      (q = eta(b))

It never consults the library's PBW engine, so agreement is meaningful.
The product in H (x) H is built on it one pair of tensor terms at a time.

The module also keeps small reference checks that only the tests use:
primitive roots, q-factorials, centrality of powers, the transversal and
2-cocycle of a cyclic quotient of the group, the enumeration of a finite
group, character triviality and restriction, the raw-to-internal PBW
conversion (inverse of HopfElem.raw_terms), the degree and K[G] parts of
an element, a random field element drawn as a sum of field products,
entrywise matrix equality, the reduced row echelon form by a
column sweep, the intertwiner space and the torsion type of a matrix by
exact elimination alone, a module's cross relation in H's internal form
with rho(e) built from exact inverses, the order of the antipode by
iteration, the truncation index of the DiffVbar module by word
rewriting, the pairwise isomorphism test of simple-module parameters
that ``SimpleParams.key`` replaced, module isomorphism decided by the
intertwiner system alone, with no classification held, and the module
relations checked by building both sides of each identity.
"""

from itertools import product

from orehopf.abgroup import (AbelianGroup, Character, GroupElement, Subgroup,
                             SubgroupCharacter)
from orehopf.cyclotomic import Cyclotomic, divisors, q_int, root_of_unity
from orehopf.hopfcore import (AlgebraSpec, GroupAlgElem, HopfElem, Mode, SpecError,
                              TensorElem, antipode, cyclotomic_to_literal, multiply,
                              wind)
from orehopf.linalg import full_rank, identity, inverse, mat_mul, mat_pow, mat_scale
from orehopf.report import Report
from orehopf.reps import (_PRESENTATION, IsoResult, ModuleRep, _intertwiner_space,
                          build_simple, classify_simple)


def _word_of(g, i, j):
    return (("g", g),) + (("x",),) * i + (("y",),) * j


def _collect(spec, words):
    """Map {word: coeff} with all words sorted to raw PBW terms."""
    out = {}
    for word, coeff in words.items():
        g = spec.group.identity()
        i = j = 0
        for letter in word:
            if letter[0] == "g":
                g = g * letter[1]
            elif letter[0] == "x":
                i += 1
            else:
                j += 1
        key = (g, i, j)
        out[key] = out.get(key, Cyclotomic.zero(spec.conductor)) + coeff
    return {k: v for k, v in out.items() if not v.is_zero()}


def _rewrite_once(spec, word):
    """First out-of-order adjacent pair, rewritten.  None when sorted."""
    for pos in range(len(word) - 1):
        a, b = word[pos], word[pos + 1]
        head, tail = word[:pos], word[pos + 2:]
        if a[0] == "x" and b[0] == "g":
            coeff = spec.chi.eval(b[1])
            return [(coeff, head + (b, a) + tail)]
        if a[0] == "y" and b[0] == "g":
            coeff = spec.eta.eval(b[1])
            return [(coeff, head + (b, a) + tail)]
        if a[0] == "y" and b[0] == "x":
            q = spec.q
            beta = spec.beta
            branches = [(q, head + (("x",), ("y",)) + tail)]
            if not beta.is_zero():
                one = spec.group.identity()
                cb = spec.c * spec.b
                branches.append((beta, head + (("g", one),) + tail))
                branches.append((-beta, head + (("g", cb),) + tail))
            return branches
        if a[0] == "g" and b[0] == "g":
            one = Cyclotomic.one(spec.conductor)
            return [(one, head + (("g", a[1] * b[1]),) + tail)]
    return None


def oracle_multiply(a: HopfElem, b: HopfElem) -> dict:
    """Product of two elements as raw PBW terms, via word rewriting."""
    spec = a.spec
    words = {}
    for (g1, i1, j1), c1 in a.raw_terms().items():
        for (g2, i2, j2), c2 in b.raw_terms().items():
            word = _word_of(g1, i1, j1) + _word_of(g2, i2, j2)
            c = c1 * c2
            words[word] = words.get(word, Cyclotomic.zero(spec.conductor)) + c

    return _collect(spec, _sort_words(spec, words))


def _sort_words(spec, words):
    """Rewrite {word: coeff} until every word is sorted."""
    zero = Cyclotomic.zero(spec.conductor)
    while True:
        progress = False
        next_words = {}
        for word, coeff in words.items():
            if coeff.is_zero():
                continue
            step = _rewrite_once(spec, word)
            if step is None:
                next_words[word] = next_words.get(word, zero) + coeff
            else:
                progress = True
                for factor, new_word in step:
                    next_words[new_word] = (
                        next_words.get(new_word, zero) + coeff * factor)
        words = next_words
        if not progress:
            return words


def tensor_multiply_by_pairs(s: TensorElem, t: TensorElem) -> TensorElem:
    """Product in H (x) H one pair of terms at a time:
    (a1 (x) a2)(b1 (x) b2) = a1 b1 (x) a2 b2, with both factor products
    taken by the rewriting oracle and the two expansions multiplied out."""
    spec = s.spec
    one = Cyclotomic.one(spec.conductor)
    zero = Cyclotomic.zero(spec.conductor)
    products = {}

    def monomial_product(k1, k2):
        if (k1, k2) not in products:
            raw = oracle_multiply(HopfElem(spec, {k1: one}), HopfElem(spec, {k2: one}))
            products[(k1, k2)] = from_raw_terms(spec, raw).terms
        return products[(k1, k2)]

    out = {}
    for (a1, a2), ca in s.terms.items():
        for (b1, b2), cb in t.terms.items():
            f = ca * cb
            for k1, c1 in monomial_product(a1, b1).items():
                for k2, c2 in monomial_product(a2, b2).items():
                    out[(k1, k2)] = out.get((k1, k2), zero) + f * c1 * c2
    return TensorElem(spec, out)


def vbar_truncation_by_rewriting(rho, spec, bound):
    """Least i >= 1 with z x^i v = 0, or None up to bound, in the module
    induced from g v = rho(g) v, z v = 0 (differential mode).

    That module has the basis x^a v.  Since z = beta^-1 c^-1 y and c acts
    invertibly, z x^i v = 0 exactly when y x^i v = 0.  The word y x^i is
    sorted by the defining relations into raw terms g x^a y^b; a term with
    b > 0 kills v, and g x^a v = chi(g)^-a rho(g) x^a v, by x g = chi(g) g x.
    Neither the winding sums nor the PBW engine are consulted.
    """
    zero = Cyclotomic.zero(spec.conductor)
    for i in range(1, bound + 1):
        word = (("y",),) + (("x",),) * i
        terms = _collect(spec, _sort_words(spec, {word: Cyclotomic.one(spec.conductor)}))
        action = {}
        for (g, a, b), coeff in terms.items():
            if b == 0:
                action[a] = (action.get(a, zero)
                             + coeff * spec.chi.eval_pow(g, -a) * rho.eval(g))
        if all(c.is_zero() for c in action.values()):
            return i
    return None


def assert_product_matches(a: HopfElem, b: HopfElem) -> None:
    expected = oracle_multiply(a, b)
    got = (a * b).raw_terms()
    got = {k: v for k, v in got.items() if not v.is_zero()}
    assert got == expected, (
        f"normal form disagrees with the rewriting oracle:\n"
        f"  got      {sorted((k[0].exps, k[1], k[2]) for k in got)}\n"
        f"  expected {sorted((k[0].exps, k[1], k[2]) for k in expected)}")


def is_primitive_root(z: Cyclotomic, n: int) -> bool:
    """True when z is a primitive n-th root of unity."""
    if n < 1:
        raise ValueError("order must be positive")
    if z.is_zero() or z ** n != 1:
        return False
    return all(z ** d != 1 for d in divisors(n)[:-1])


def q_factorial(k: int, q: Cyclotomic) -> Cyclotomic:
    out = Cyclotomic.one(q.conductor)
    for i in range(1, k + 1):
        out = out * q_int(i, q)
    return out


def centrality_check(spec: AlgebraSpec, n: int, m: int | None = None) -> bool:
    """Whether x^n and w^m are central (w = y in skew mode, z in diff mode)."""
    if m is None:
        m = n
    w = HopfElem(spec, {(spec.group.identity(), 0, 1):
                        Cyclotomic.one(spec.conductor)})
    xn = spec.x() ** n
    wm = w ** m
    probes = [spec.x(), w] + [spec.group_element(g)
                              for g in spec.group.generators()]
    for u in (xn, wm):
        for p in probes:
            if multiply(u, p) != multiply(p, u):
                return False
    return True


def transversal(group: AbelianGroup, sub: Subgroup, c: GroupElement, n: int):
    """The transversal 1, c, ..., c^(n-1) of a cyclic quotient G/N of order n.

    Validates that the image of c generates G/N with order exactly n.
    """
    idx = sub.index()
    if idx != n:
        raise ValueError(f"subgroup index is {idx}, expected {n}")
    for i in range(1, n):
        if sub.contains(c ** i):
            raise ValueError(f"c^{i} lies in the subgroup; quotient not cyclic of order {n}")
    if not sub.contains(c ** n):
        raise ValueError("c^n is not in the subgroup")
    return [c ** i for i in range(n)]


def cocycle_gamma(i: int, j: int, c: GroupElement, n: int) -> GroupElement:
    """Representative-product 2-cocycle of the transversal 1, c, ..., c^(n-1)."""
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError("cocycle arguments must lie in [0, n)")
    if i + j < n:
        return c.group.identity()
    return c ** n


def group_elements(group: AbelianGroup):
    """Every element of a finite group."""
    if group.free_rank:
        raise ValueError("cannot enumerate an infinite group")
    return [group.element(list(exps))
            for exps in product(*(range(n) for n in group.torsion_orders))]


def is_trivial(chi: Character) -> bool:
    return all(e % chi.conductor == 0 for e in chi.exps)


def restrict(chi: Character, subgroup: Subgroup) -> SubgroupCharacter:
    """The restriction of a character of G to the subgroup."""
    exps = [sum(e * x for e, x in zip(chi.exps, row)) % chi.conductor
            for row in subgroup.rows]
    return SubgroupCharacter(subgroup, chi.conductor, exps)


def from_raw_terms(spec: AlgebraSpec, terms) -> HopfElem:
    """Build from the raw (g, x^i, y^j) basis."""
    if spec.mode is Mode.SKEW_GROUP_RING:
        return HopfElem(spec, dict(terms))
    out = {}
    eta_c = spec.eta.eval(spec.c)
    chi_c = spec.chi.eval(spec.c)
    for (g, i, j), coeff in terms.items():
        # g x^i y^j = beta^j eta(c)^(j(j-1)/2) chi(c)^(ij) (g c^j) x^i z^j
        factor = (spec.beta ** j) * (eta_c ** (j * (j - 1) // 2)) \
            * (chi_c ** (i * j))
        key = (g * (spec.c ** j), i, j)
        out[key] = out.get(key, Cyclotomic.zero(spec.conductor)) + coeff * factor
    return HopfElem(spec, out)


def max_degrees(a: HopfElem):
    i = max((k[1] for k in a.terms), default=0)
    j = max((k[2] for k in a.terms), default=0)
    return i, j


def group_part(a: HopfElem) -> GroupAlgElem:
    """The K[G] component (terms with i = j = 0)."""
    return GroupAlgElem(a.spec.group, a.spec.conductor,
                        {g: c for (g, i, j), c in a.terms.items() if i == j == 0})


def random_cyclotomic_by_field_sums(spec: AlgebraSpec, rng, nonzero=False) -> Cyclotomic:
    """hopfcore.random_cyclotomic's draws, summed term by term with field
    products and sums."""
    conductor = spec.conductor
    while True:
        v = Cyclotomic.zero(conductor)
        for _ in range(min(conductor, 4)):
            a = rng.randint(-2, 2)
            if a:
                v = v + root_of_unity(conductor, rng.randrange(conductor)) * a
        if rng.random() < 0.5:
            v = v + rng.randint(-3, 3)
        if not (nonzero and v.is_zero()):
            return v


def mat_eq(A, B) -> bool:
    return all(a == b for ra, rb in zip(A, B) for a, b in zip(ra, rb))


def rref_by_column_sweep(A):
    """Reduced row echelon form by Gauss-Jordan elimination column by
    column, swapping the first nonzero entry up; returns (rows, pivots).
    The reference for linalg, which inserts rows one at a time."""
    rows = [list(r) for r in A]
    if not rows:
        return [], []
    pivots = []
    r = 0
    for c in range(len(rows[0])):
        pivot = next((i for i in range(r, len(rows)) if not rows[i][c].is_zero()), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def intertwiners_by_exact_nullspace(pairs, dim: int, conductor: int):
    """Basis of {T : T A = B T for all pairs (A, B)} as dim x dim matrices:
    the kernel of the whole system, one row per entry of T A - B T with the
    unknown T[i][k] at column i dim + k, read from its column-sweep rref
    with one vector per free column (one there, zero at the other free
    columns).  The reference for the intertwiner space of reps."""
    zero, one = Cyclotomic.zero(conductor), Cyclotomic.one(conductor)
    n = dim * dim
    rows = []
    for A, B in pairs:
        for i in range(dim):
            for j in range(dim):
                row = [zero] * n
                for k in range(dim):
                    row[i * dim + k] = row[i * dim + k] + A[k][j]
                    row[k * dim + j] = row[k * dim + j] - B[i][k]
                rows.append(row)
    reduced, pivots = rref_by_column_sweep(rows)
    basis = []
    for f in range(n):
        if f not in pivots:
            v = [zero] * n
            v[f] = one
            for r, c in zip(reduced, pivots):
                v[c] = -r[f]
            basis.append([v[i * dim:(i + 1) * dim] for i in range(dim)])
    return basis


def iso_by_system(M1, M2) -> IsoResult:
    """``are_isomorphic`` as the intertwiner system decides it: on fresh
    copies of M1 and M2, whose memos are empty, so neither holds a
    classification or a Burnside report.  The first invertible basis
    intertwiner of ``_intertwiner_space`` is the witness.  For pairs with
    such an intertwiner or none, as every pair of simple modules is."""
    if M1.dim != M2.dim:
        return IsoResult("not_isomorphic", detail="dimension mismatch")
    fresh = [ModuleRep(M.spec, M.dim, M.group_mats, M.X, M.Y) for M in (M1, M2)]
    basis = _intertwiner_space(*fresh)
    if not basis:
        return IsoResult("not_isomorphic", detail="no nonzero intertwiner")
    witness = next((T for T in basis if full_rank(T)), None)
    assert witness is not None, "no basis intertwiner is invertible"
    return IsoResult("isomorphic", witness=witness)


def torsion_type_by_exact_elimination(A) -> str:
    """Torsion when A is nilpotent (A^dim = 0, by repeated products),
    TorsionFree when its column-sweep rref has full rank, else Mixed."""
    zero = Cyclotomic.zero(A[0][0].conductor)
    power = A
    for _ in range(len(A) - 1):
        power = [[sum((a * b for a, b in zip(row, col)), zero) for col in zip(*A)]
                 for row in power]
    if all(a.is_zero() for row in power for a in row):
        return "Torsion"
    return "TorsionFree" if len(rref_by_column_sweep(A)[1]) == len(A) else "Mixed"


def cross_relation_by_inverses(module, spec: AlgebraSpec):
    """Whether the module's matrices satisfy w x = q_w x w + rho(e), the
    cross relation in H's internal form: q_w = q and e = 0 in skew mode,
    q_w = 1 and e = c^{-1} - b in differential mode.  rho(e) is the sum of
    its terms' coefficients times their actions, each a product of
    generator powers with an exact inverse for a negative power; None when
    such a power needs the inverse of a singular generator.  The reference
    for rep_check's cross_relation row, which multiplies the differential
    relation by c's action instead."""
    conductor, dim = spec.conductor, module.dim
    rho_e = [[Cyclotomic.zero(conductor)] * dim for _ in range(dim)]
    for g, coeff in spec.e.terms.items():
        action = identity(dim, conductor)
        for k, e in enumerate(g.exps):
            if e == 0:
                continue
            base = module.group_mats[k] if e > 0 else inverse(module.group_mats[k])
            if base is None:
                return None
            for _ in range(abs(e)):
                action = mat_mul(action, base)
        rho_e = [[r + coeff * a for r, a in zip(row_r, row_a)]
                 for row_r, row_a in zip(rho_e, action)]
    q_w = spec.q if spec.mode is Mode.SKEW_GROUP_RING else Cyclotomic.one(conductor)
    W, X = module.Y, module.X
    rhs = [[q_w * a + r for a, r in zip(row_a, row_r)]
           for row_a, row_r in zip(mat_mul(X, W), rho_e)]
    return mat_eq(mat_mul(W, X), rhs)


def _first_difference_by_entries(lhs, rhs):
    """None when the matrices lhs and rhs are equal, else their first
    differing entry (row-major) with both values as literals."""
    for i, (row_l, row_r) in enumerate(zip(lhs, rhs)):
        for j, (a, b) in enumerate(zip(row_l, row_r)):
            if a != b:
                return {"entry": [i, j], "lhs": cyclotomic_to_literal(a),
                        "rhs": cyclotomic_to_literal(b)}
    return None


def rep_check_by_products(M, spec: AlgebraSpec) -> Report:
    """``rep_check`` as it was before the factor kernel: both sides of every
    identity built as whole matrices (``mat_mul``, ``mat_pow``,
    ``mat_scale``) and compared entry by entry, on a fresh copy of M.  The
    reference for the report rep_check gives, witnesses included."""
    M = ModuleRep(M.spec, M.dim, M.group_mats, M.X, M.Y)
    group = spec.group
    mats, X, W = M.group_mats, M.X, M.Y
    g = [f"g{k + 1}" for k in range(group.ngens)]
    ident = identity(M.dim, spec.conductor)
    rows = [(f"group_invertible({g[k]})", "", None if invertible else {})
            for k, invertible in enumerate(M._group_invertible())]
    rows += [(f"group_commutation({g[k]},{g[l]})", "",
              _first_difference_by_entries(mat_mul(mats[k], mats[l]),
                                           mat_mul(mats[l], mats[k])))
             for k in range(group.ngens) for l in range(k + 1, group.ngens)]
    rows += [(f"torsion_order({g[k]})", f"expected order {order}",
              _first_difference_by_entries(mat_pow(mats[k], order), ident))
             for k, order in enumerate(group.torsion_orders, group.free_rank)]
    rows += [(f"{v}_commutation({g[k]})", f"{v} g = {name}(g) g {v} fails",
              _first_difference_by_entries(mat_mul(A, mats[k]),
                                           mat_scale(mat_mul(mats[k], A), char.eval(gen))))
             for k, gen in enumerate(group.generators())
             for v, A, name, char in (("x", X, "chi", spec.chi), ("y", W, "eta", spec.eta))]
    if spec.mode is Mode.SKEW_GROUP_RING:
        rows.append(("cross_relation", "y x = q x y + beta(1 - cb) fails",
                     _first_difference_by_entries(mat_mul(W, X),
                                                  mat_scale(mat_mul(X, W), spec.q))))
    else:
        try:
            C, B = M.act_group(spec.c), M.act_group(spec.b)
        except SpecError as exc:
            rows.append(("cross_relation", f"rho(c) or rho(b) cannot be formed: {exc}", {}))
        else:
            inner = [[wx - xw + b for wx, xw, b in zip(*entries)]
                     for entries in zip(mat_mul(W, X), mat_mul(X, W), B)]
            rows.append(("cross_relation", "c (z x - x z + b) = 1 fails",
                         _first_difference_by_entries(mat_mul(C, inner), ident)))
    witnesses = [{"relation": relation, "detail": detail, **failure}
                 for relation, detail, failure in rows if failure is not None]
    return Report(name="rep_check", passed=not witnesses,
                  facts={"dim": M.dim, "presentation": _PRESENTATION[spec.mode],
                         "relations_checked": len(rows)},
                  witnesses=witnesses)


def antipode_order_by_iteration(spec: AlgebraSpec) -> int:
    """Least m >= 1 with S^m fixing x, y and the group generators, by
    applying S.  The values of chi and eta are N-th roots of unity, so the
    order is at most 2N."""
    gens = [spec.x(), spec.y()]
    gens.extend(spec.group_element(g) for g in spec.group.generators())
    current = list(gens)
    for m in range(1, 2 * spec.conductor + 1):
        current = [antipode(e) for e in current]
        if current == gens:
            return m
    raise ArithmeticError("antipode order above 2N")


def _alpha_power(alpha, alpha_pow, n: int):
    if alpha_pow is not None:
        return alpha_pow
    return alpha ** n


def _coupling(params):
    if params.coupling is not None:
        return params.coupling
    return params.alpha_y * (params.alpha_x.inverse() ** params.t)


def iso_criterion_by_cases(p1, p2, spec: AlgebraSpec) -> bool:
    """Pairwise isomorphism test of two parameter tuples, family by family,
    with the shift index of the diff families searched over 0..n-1.  A
    DiffVx and a DiffVy tuple are decided by classifying the rebuilt DiffVy
    module, which stays DiffVy unless x acts invertibly.  Two cases differ
    from the modules: a TorsionChar tuple is never matched with a DiffVbar
    one, although in differential mode TorsionChar(lam) and DiffVbar(lam)
    build the same 1 x 1 module, and SkewVxy's coupling alpha_y alpha_x^-t
    reads the unreduced t, so t and t + n are told apart."""
    if {p1.family, p2.family} == {"DiffVx", "DiffVy"}:
        p1, p2 = (classify_simple(build_simple(p, spec), spec) if p.family == "DiffVy"
                  else p for p in (p1, p2))
    if p1.family != p2.family:
        return False
    f = p1.family
    if f == "TorsionChar":
        return p1.lam == p2.lam
    if f in ("SkewVx", "SkewVy"):
        n = p1.n if p1.n is not None else (
            spec.chi.order() if f == "SkewVx" else spec.eta.order())
        return p1.lam == p2.lam and \
            _alpha_power(p1.alpha, p1.alpha_pow, n) == _alpha_power(p2.alpha, p2.alpha_pow, n)
    if f == "SkewVxy":
        n = p1.n if p1.n is not None else spec.chi.order()
        if p1.t % n != p2.t % n or p1.lam != p2.lam:
            return False
        return _alpha_power(p1.alpha_x, p1.alpha_x_pow, n) == \
            _alpha_power(p2.alpha_x, p2.alpha_x_pow, n) and \
            _coupling(p1) == _coupling(p2)
    if f == "DiffVbar":
        return p1.rho == p2.rho
    if f == "DiffVx":
        return _diff_shift_iso(p2.rho, p1.rho, p2.rho, (p1.lam_scalar, p2.lam_scalar),
                               (p1.mu, p2.mu), spec.chi, 1, spec)
    return _diff_shift_iso(p1.rho, p2.rho, p2.rho, (p1.mu, p2.mu),
                           (p1.lam_scalar, p2.lam_scalar), spec.eta, -1, spec)


def _diff_shift_iso(source, target, rho, fixed, moved, char: Character,
                    sign: int, spec: AlgebraSpec) -> bool:
    """The fixed scalars agree and some shift k in 0..order(chi)-1 has
    target = source chi^(-k) and moved[0] = moved[1] + sign rho(wind(e, k;
    char)), the winding summed term by term by ``wind``.  DiffVx shifts
    the second rho and moves mu along chi; DiffVy shifts the first rho and
    moves lambda along eta with sign -1."""
    if fixed[0] != fixed[1]:
        return False
    for k in range(spec.chi.order()):
        if target == source * (spec.chi ** (-k)) and \
                moved[0] == moved[1] + sign * wind(spec.e, k, spec, character=char).apply_char(rho):
            return True
    return False
