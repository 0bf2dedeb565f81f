"""Finite-dimensional modules over H as exact matrix data.

A module is a tuple of matrices over Q(zeta_N) for H's internal generators,
the ones HopfElem keys use: one invertible matrix per group generator, X
for x, and Y for the second variable w, which is the raw y in skew mode
(relation yx = q xy) and the normalized z = beta^{-1} c^{-1} y in
differential mode (relation zx = xz + e, e = c^{-1} - b).  Presentations
exist only in module files: a file names its second matrix Raw (y) or
Normalized (z), and a file in the other presentation is converted once on
load.

Everything here is certificate-grade: relation checking is exact matrix
identity testing, simplicity is certified by the span of the generated
matrix algebra being all dim^2 matrices, and isomorphism is decided from
a classification where one is held, else by solving the intertwiner
system (``are_isomorphic``).  classify_simple solves no system: it
certifies its rebuild by the identity, or by the Krylov matrix [v, A v,
..., A^(d-1) v] of the line v it read, A the family's active element,
checked exactly as a module map.  are_isomorphic takes one held
classification's rebuild R and a map from R into each module
(``_classified_map``): the map a module holds for equal parameters, else
the one candidate that spinning a line by the same Krylov routine gives,
the line where the rebuild's eigen-relations at e_0 send e_0, which the
exact check accepts or rejects (the MeatAxe's standard-basis isomorphism
test).  The two maps compose to the isomorphism.  Every exact
identity L1 L2 = R1 R2, a relation of ``rep_check`` or T A = B T of a
module map (``_intertwines``), goes through ``linalg.first_mismatch`` on
the matrices' factors, read once per module: neither product is built,
and a failing relation's witness builds only the first differing
entry's two sides.

The Burnside certificate spans the unital algebra generated by the group
generator matrices, x and y.  The inverse group matrices are not needed:
by Cayley-Hamilton the inverse of an invertible matrix is a polynomial in
it, so they lie in that algebra already.  The span is read mod the split
prime p, where a rank can only drop, so a span of dim^2 mod p certifies
the exact one.  From dimension 3 on (``_NORTON_MIN_DIM``, measured)
Norton's criterion comes first: when theta = g_k - omega^a, for a group
generator g_k and an N-th root of unity omega^a in F_p, has a line as
kernel mod p, that line spins to F_p^d under the generators, and the
kernel line of theta^T spins to F_p^d under their transposes, the
reduction is irreducible.  Its endomorphism field E makes ker theta an
E-space, so nullity 1 forces E = F_p: the reduction is absolutely
irreducible, and its algebra mod p is all of M_d(F_p).  The search and
the two spins cost O(N k d^3) for k generators at conductor N, against
about d^6 for the closure.  Below dimension 3, with no such line, or when
a spin stops short, the closure runs mod p, then exactly when that span
is short or p divides a denominator.

A module has dimension >= 1 and never changes, so whether its group
generators are invertible, each generator inverse that a negative power
needs, its reduction mod the split prime p under each embedding (made
when first read), Burnside report, torsion profile and rep_check report
per spec object are computed once and kept on it, and so is each group
eigenspace mod p that Burnside's eigenline search or the classifier's
eigenvalue filter reads, the generators' factors, and each
classification's certified rebuild map per spec object; conjugate and
direct_sum return new modules that certify anew.  Invertibility,
Burnside, the torsion profile, the group eigenspaces and the intertwiner
system read embedding 0; the intertwiner lift reads the others.
"""

from functools import wraps
from math import gcd, prod
from random import Random

from .abgroup import (AbelianGroup, Character, GroupElement, Subgroup,
                      SubgroupCharacter, char_kernel, joint_kernel)
from .cyclotomic import Cyclotomic, euler_phi, lift, residue, root_of_unity, zeta_log
from .hopfcore import AlgebraSpec, Mode, SpecError, _is_int, \
    cyclotomic_to_literal, literal_to_cyclotomic
from .linalg import (factor_product, first_mismatch, full_rank, full_rank_mod, identity,
                     inverse, is_zero_matrix, mat_add, mat_mul, mat_mul_mod, mat_pow,
                     mat_scale, mat_vec, nullspace, nullspace_mod, product_entry, residues,
                     spin, zeros, Factor, ModularSpan, SpanBasis)
from .report import Report

# what a module file calls the matrix of H's internal second variable
_PRESENTATION = {Mode.SKEW_GROUP_RING: "Raw", Mode.DIFFERENTIAL_OPERATOR: "Normalized"}

TORSION = "Torsion"
TORSION_FREE = "TorsionFree"
MIXED = "Mixed"


class ClassifyError(ValueError):
    """Raised when a module cannot be matched to a known simple family."""


def _require(cond: bool, msg: str):
    if not cond:
        raise SpecError(msg)


def _scalar_of(A):
    """The scalar s with A = s*I, or None."""
    d = len(A)
    s = A[0][0]
    for i in range(d):
        for j in range(d):
            if i == j:
                if A[i][j] != s:
                    return None
            elif not A[i][j].is_zero():
                return None
    return s


def _is_diagonal(A) -> bool:
    return all(A[i][j].is_zero() for i in range(len(A)) for j in range(len(A)) if i != j)


def _memoized(fn):
    """fn(M, *args), computed once per module M and argument objects; every
    caller gets the same value, so none may mutate it."""
    @wraps(fn)
    def once(M, *args):
        key = (fn.__name__, *args)
        if key not in M._memo:
            M._memo[key] = fn(M, *args)
        return M._memo[key]
    return once


# memo key, with the spec object, of a classification's certified rebuild
# map (``_verify_rebuild``)
_REBUILD_KEY = "rebuild_map"


def _certified_simple(M) -> bool:
    """Whether M holds a passed Burnside report already."""
    report = M._memo.get(("is_simple_burnside",))
    return report is not None and report.passed


class ModuleRep:
    """Matrix realization of a finite-dimensional H-module: group_mats, X
    and Y act as the group generators, x and the internal variable w."""

    __slots__ = ("spec", "dim", "group_mats", "X", "Y", "_memo")

    def __init__(self, spec: AlgebraSpec, dim: int, group_mats, X, Y):
        if dim < 1:
            raise ValueError("module dimension must be at least 1")
        if len(group_mats) != spec.group.ngens:
            raise ValueError("need one action matrix per group generator")
        for A in list(group_mats) + [X, Y]:
            if len(A) != dim or any(len(row) != dim for row in A):
                raise ValueError("action matrices must be dim x dim")
        self.spec = spec
        self.dim = dim
        self.group_mats = tuple(tuple(tuple(row) for row in A) for A in group_mats)
        self.X = tuple(tuple(row) for row in X)
        self.Y = tuple(tuple(row) for row in Y)
        self._memo = {}

    @_memoized
    def _residues(self, e: int):
        """The group generator matrices, X and Y reduced under the e-th
        embedding, as (p, images) of ``linalg.residues``, or None when p
        divides a denominator."""
        return residues(self.group_mats + (self.X, self.Y), e)

    @_memoized
    def _factors(self):
        """The group generator matrices, X and Y, each read once as a
        ``linalg.Factor`` for the identity tests of ``rep_check`` and
        ``_intertwines``."""
        return tuple(Factor(A) for A in self.group_mats + (self.X, self.Y))

    def _full_rank_mod_p(self, k: int) -> bool:
        """Whether the k-th generator (the group generators, then X and Y)
        has independent rows mod p under embedding 0, which makes it
        invertible exactly; False when p divides a denominator."""
        image = self._residues(0)
        return image is not None and full_rank_mod(image[1][k], image[0])

    @_memoized
    def _eigenspace_mod_p(self, k: int, e: int):
        """Basis of ker(A - omega^e I) mod p (``linalg.nullspace_mod``), A
        the k-th group generator reduced under embedding 0 and omega^e the
        residue of zeta^e; empty when omega^e is no eigenvalue of A mod p,
        and then zeta^e is none of the exact A.  The module has a
        reduction."""
        p, mats = self._residues(0)
        omega_e = residue(root_of_unity(self.spec.conductor, e), 0)
        return nullspace_mod(_minus_scalar_mod(mats[k], omega_e, p), p)

    @_memoized
    def _group_invertible(self):
        """Whether each group generator matrix is invertible: by full rank
        mod p, else by the exact rank (``linalg.full_rank``)."""
        return tuple(self._full_rank_mod_p(k) or full_rank(A)
                     for k, A in enumerate(self.group_mats))

    @_memoized
    def _gen_inverse(self, k: int):
        """The inverse of group generator k's matrix; SpecError when it is
        singular."""
        inv = inverse(self.group_mats[k])
        if inv is None:
            raise SpecError(f"group generator {k} does not act invertibly")
        return inv

    def act_group(self, g: GroupElement):
        """Action matrix of a group element: the product of its generator
        powers, the first of them as the start, so no identity factor is
        multiplied in; the identity only for the unit element."""
        out = None
        for k, e in enumerate(g.exps):
            if e == 0:
                continue
            base = self.group_mats[k] if e > 0 else self._gen_inverse(k)
            power = mat_pow(base, abs(e))
            out = power if out is None else mat_mul(out, power)
        return identity(self.dim, self.spec.conductor) if out is None else out

    def to_dict(self) -> dict:
        mats = {f"g{k + 1}": A for k, A in enumerate(self.group_mats)}
        mats.update(x=self.X, y=self.Y)
        return {"dim": self.dim, "presentation": _PRESENTATION[self.spec.mode],
                "spec_fingerprint": self.spec.fingerprint(),
                "generators": {name: [[cyclotomic_to_literal(v) for v in row] for row in A]
                               for name, A in mats.items()}}

    @staticmethod
    def from_dict(spec: AlgebraSpec, data) -> "ModuleRep":
        """Load a module section; a file in the other presentation is
        converted: y = c z in skew mode, z = beta^{-1} c^{-1} y in
        differential mode."""
        if not isinstance(data, dict):
            raise SpecError("module data must be an object")
        if data.get("spec_fingerprint") != spec.fingerprint():
            raise SpecError("module data was serialized for a different algebra "
                            "(fingerprint mismatch)")
        dim, presentation, gens = (data.get(key) for key in
                                   ("dim", "presentation", "generators"))
        if not _is_int(dim) or dim < 1:
            raise SpecError("module key 'dim' must be a positive integer")
        if presentation not in _PRESENTATION.values():
            raise SpecError("module key 'presentation' must be 'Raw' or 'Normalized'")
        if not isinstance(gens, dict):
            raise SpecError("module key 'generators' must be an object")
        names = [f"g{k + 1}" for k in range(spec.group.ngens)] + ["x", "y"]
        *group_mats, X, V = [_matrix_from_literal(gens, name, dim, spec.conductor)
                             for name in names]
        if presentation == _PRESENTATION[spec.mode]:
            return ModuleRep(spec, dim, group_mats, X, V)
        if spec.mode is Mode.SKEW_GROUP_RING:
            return _from_z(spec, dim, group_mats, X, V)
        C_inv = inverse(ModuleRep(spec, dim, group_mats, X, V).act_group(spec.c))
        _require(C_inv is not None, "c does not act invertibly")
        return ModuleRep(spec, dim, group_mats, X,
                         mat_scale(mat_mul(C_inv, V), spec.beta.inverse()))

    def __repr__(self):
        return f"ModuleRep(dim={self.dim}, spec={self.spec!r})"


def _from_z(spec: AlgebraSpec, dim: int, group_mats, X, Z) -> ModuleRep:
    """The skew-mode module whose z = c^{-1} y acts by Z: y acts by C Z for
    c's matrix C, a product of generator powers, invertible when each
    generator in c is (``_group_invertible``, kept for the certificates)."""
    C = ModuleRep(spec, dim, group_mats, X, Z).act_group(spec.c)
    M = ModuleRep(spec, dim, group_mats, X, mat_mul(C, Z))
    _require(all(ok for ok, e in zip(M._group_invertible(), spec.c.exps) if e),
             "c does not act invertibly")
    return M


def _matrix_from_literal(gens: dict, name: str, dim: int, conductor: int):
    rows = gens.get(name)
    if not isinstance(rows, list) or len(rows) != dim or \
            any(not isinstance(row, list) or len(row) != dim for row in rows):
        raise SpecError(f"module generator '{name}' must be a {dim} x {dim} "
                        f"matrix of scalar literals")
    try:
        return [[literal_to_cyclotomic(v, conductor) for v in row] for row in rows]
    except (ValueError, TypeError, KeyError) as exc:
        raise SpecError(f"module generator '{name}': {exc}") from exc


def _check_same_algebra(M1: ModuleRep, M2: ModuleRep):
    """ValueError unless M1 and M2 are modules of one algebra: the same spec
    object, which is tested first and hashes nothing, or specs with equal
    fingerprints."""
    if M1.spec is not M2.spec and M1.spec.fingerprint() != M2.spec.fingerprint():
        raise ValueError("the modules are over different algebras "
                         "(fingerprint mismatch)")


def conjugate(M: ModuleRep, T) -> ModuleRep:
    """Change of basis: every action matrix A becomes T A T^{-1}, with T
    and T^{-1} each read once as a factor (``linalg.factor_product``).
    ValueError unless T is an invertible dim x dim matrix."""
    if len(T) != M.dim or any(len(row) != M.dim for row in T):
        raise ValueError(f"conjugating matrix must be {M.dim} x {M.dim}")
    T_inv = inverse(T)
    if T_inv is None:
        raise ValueError("conjugating matrix must be invertible")
    left, right = Factor(T), Factor(T_inv)

    def conj(A):
        return factor_product(Factor(factor_product(left, Factor(A))), right)

    return ModuleRep(M.spec, M.dim, [conj(A) for A in M.group_mats],
                     conj(M.X), conj(M.Y))


def direct_sum(M1: ModuleRep, M2: ModuleRep) -> ModuleRep:
    """Block-diagonal sum of two modules over the same algebra; ValueError
    for modules of two algebras."""
    _check_same_algebra(M1, M2)
    zero = Cyclotomic.zero(M1.spec.conductor)
    pad1, pad2 = [zero] * M2.dim, [zero] * M1.dim

    def block(A, B):
        return [list(row) + pad1 for row in A] + [pad2 + list(row) for row in B]

    mats = [block(A, B) for A, B in zip(M1.group_mats, M2.group_mats)]
    return ModuleRep(M1.spec, M1.dim + M2.dim, mats, block(M1.X, M2.X),
                     block(M1.Y, M2.Y))


# ---------------------------------------------------------------------------
# relation checking


def _first_difference(L1: Factor, L2: Factor, R1: Factor, R2: Factor):
    """None when L1 L2 = R1 R2 (``linalg.first_mismatch``), else the first
    differing entry (row-major) with both sides as literals, the only
    entries of the two products that are built."""
    entry = first_mismatch(L1, L2, R1, R2)
    if entry is None:
        return None
    i, j = entry
    return {"entry": [i, j], "lhs": cyclotomic_to_literal(product_entry(L1, L2, i, j)),
            "rhs": cyclotomic_to_literal(product_entry(R1, R2, i, j))}


def _power_halves(A, order: int):
    """Factors (P, Q) with P Q = A^order: P = A^(order // 2), and Q = P, or
    P A for an odd order, one product fewer than A^order itself."""
    P = mat_pow(A, order // 2)
    return Factor(P), Factor(P if order % 2 == 0 else mat_mul(P, A))


@_memoized
def rep_check(M: ModuleRep, spec: AlgebraSpec) -> Report:
    """Verify every defining relation as an exact matrix identity, including
    the group relations.

    Each identity L1 L2 = R1 R2 is tested on the factors of
    ``linalg.first_mismatch``, read once per generator, with no product
    built: x g = chi(g) g x and y g = eta(g) g y with chi(g) and eta(g)
    folded into g's factor, g_k g_l = g_l g_k, and g^order = 1 as two
    halves of the power.  The cross relation is y x = q x y in skew mode,
    with q folded into x's factor.  In differential mode z x - x z = c^{-1}
    - b is checked times c, as c (z x - x z + b) = 1 with no inverse: the
    same when c acts invertibly, and otherwise the group_invertible rows
    fail.  Its row has no entry only when b or c needs a negative power of
    a singular generator.  The witness of a failing identity names its
    first differing entry with both sides, the only entries built.  The
    report is computed once per module and spec object.
    """
    group = spec.group
    *mats, X, W = M._factors()
    ident = Factor(identity(M.dim, spec.conductor))
    g = [f"g{k + 1}" for k in range(group.ngens)]
    # one row (relation, detail, failure) per relation; failure is None when
    # the relation holds, else the extra witness keys
    rows = [(f"group_invertible({g[k]})", "", None if invertible else {})
            for k, invertible in enumerate(M._group_invertible())]
    rows += [(f"group_commutation({g[k]},{g[l]})", "",
              _first_difference(mats[k], mats[l], mats[l], mats[k]))
             for k in range(group.ngens) for l in range(k + 1, group.ngens)]
    rows += [(f"torsion_order({g[k]})", f"expected order {order}",
              _first_difference(*_power_halves(M.group_mats[k], order), ident, ident))
             for k, order in enumerate(group.torsion_orders, group.free_rank)]
    rows += [(f"{v}_commutation({g[k]})", f"{v} g = {name}(g) g {v} fails",
              _first_difference(A, mats[k], Factor(M.group_mats[k], char.eval(gen)), A))
             for k, gen in enumerate(group.generators())
             for v, A, name, char in (("x", X, "chi", spec.chi), ("y", W, "eta", spec.eta))]
    if spec.mode is Mode.SKEW_GROUP_RING:
        rows.append(("cross_relation", "y x = q x y + beta(1 - cb) fails",
                     _first_difference(W, X, Factor(M.X, spec.q), W)))
    else:
        try:
            C, B = M.act_group(spec.c), M.act_group(spec.b)
        except SpecError as exc:  # a negative power of a singular generator
            rows.append(("cross_relation", f"rho(c) or rho(b) cannot be formed: {exc}", {}))
        else:
            inner = [[wx - xw + b for wx, xw, b in zip(*entries)]
                     for entries in zip(mat_mul(M.Y, M.X), mat_mul(M.X, M.Y), B)]
            rows.append(("cross_relation", "c (z x - x z + b) = 1 fails",
                         _first_difference(Factor(C), Factor(inner), ident, ident)))

    witnesses = [{"relation": relation, "detail": detail, **failure}
                 for relation, detail, failure in rows if failure is not None]
    return Report(name="rep_check", passed=not witnesses,
                  facts={"dim": M.dim, "presentation": _PRESENTATION[spec.mode],
                         "relations_checked": len(rows)},
                  witnesses=witnesses)


@_memoized
def torsion_profile(M: ModuleRep) -> dict:
    """Torsion type of the module for each of the two variables.

    A variable is Torsion when its action matrix is nilpotent (every vector
    is killed by a power), TorsionFree when it acts invertibly, and Mixed
    otherwise.  A matrix whose rows are independent mod the split prime p
    is invertible exactly, and an invertible matrix is never nilpotent, so
    that decides TorsionFree with no exact elimination; the rows are those of
    the module's reduction under embedding 0.  Otherwise, or when p divides
    a denominator, the exact tests run: kernels stabilize by the dimension,
    so nilpotency is decided by the dim-th power, then invertibility by the
    exact rank (``linalg.full_rank``).  The profile is computed once per
    module.
    """
    # k is the index of A among the module's reduced generators
    def profile(A, k):
        if M._full_rank_mod_p(k):
            return TORSION_FREE
        if is_zero_matrix(mat_pow(A, M.dim)):
            return TORSION
        if full_rank(A):
            return TORSION_FREE
        return MIXED

    return {"x": profile(M.X, -2), "y": profile(M.Y, -1)}


def _minus_scalar_mod(A, w: int, p: int):
    """A - w I mod p, for a square integer matrix A with entries in [0, p)."""
    return [[(a - w) % p if i == j else a for j, a in enumerate(row)]
            for i, row in enumerate(A)]


def _group_eigenline(M: ModuleRep):
    """(k, e, v) for the first group generator k, then the first exponent
    e, with ker(A_k - omega^e I) a line mod p (``_eigenspace_mod_p``),
    spanned by v; None when there is none.  A generator that acts by a
    scalar has no eigenline once the dimension is 2 or more, and the scan
    of any other ends once its eigenspaces fill the space.  The module has
    a reduction."""
    for k, A in enumerate(M.group_mats):
        if M.dim > 1 and _scalar_of(A) is not None:
            continue
        seen = 0
        for e in range(M.spec.conductor):
            kernel = M._eigenspace_mod_p(k, e)
            if len(kernel) == 1:
                return k, e, kernel[0]
            seen += len(kernel)
            if seen == M.dim:
                break
    return None


def _norton_certifies(M: ModuleRep) -> bool:
    """Whether Norton's criterion, on theta = A_k - omega^e I of the group
    eigenline (``_group_eigenline``), shows the module's reduction under
    embedding 0 absolutely irreducible: the line spins to F_p^d under the
    reduced generators, and the line ker(theta^T) spins to F_p^d under
    their transposes (``linalg.spin`` of each line as a d x 1 matrix)."""
    line = _group_eigenline(M)
    if line is None:
        return False
    k, e, v = line
    p, gens = M._residues(0)

    def spans_all(vec, mats):
        column = [[x] for x in vec]
        return spin(column, mats, lambda A, B: mat_mul_mod(A, B, p),
                    ModularSpan(p)).dim() == M.dim

    if not spans_all(v, gens):
        return False
    transposes = [[list(col) for col in zip(*A)] for A in gens]
    omega_e = residue(root_of_unity(M.spec.conductor, e), 0)
    # theta^T has the rank of theta: its kernel is a line too
    return spans_all(nullspace_mod(_minus_scalar_mod(transposes[k], omega_e, p), p)[0],
                     transposes)


# Norton's criterion runs from this dimension on.  Burnside CPU time of a
# module plus a random conjugate, closure alone -> Norton first, medians
# over the modules of the test sweep (one 2-vCPU machine, CPython 3.11):
# diff families 0.10 -> 0.15 ms at dim 2, 0.71 -> 0.28 ms at dim 3 and
# 2.8 -> 0.44 ms at dim 4; skew families, where Norton certifies 1 in 3
# and the closure runs after a failed search, 0.15 -> 0.19, 0.85 -> 0.75
# and 3.4 -> 3.4 ms.
_NORTON_MIN_DIM = 3


@_memoized
def is_simple_burnside(M: ModuleRep) -> Report:
    """Certify absolute simplicity: the unital matrix algebra generated by
    the action matrices must have full dimension dim^2.

    The certificate is valid over the non-closed coefficient field: full
    matrix algebra span is equivalent to absolute simplicity.  Everything
    runs first mod the split prime p, on the module's reduction under
    embedding 0, where products of the reduced matrices are the
    reductions of the exact products.  A rank can only drop mod p, so a
    span of dim^2 mod p certifies an exact span of dim^2.

    From dimension ``_NORTON_MIN_DIM`` on, Norton's criterion is tried
    first (``_norton_certifies``).  theta = A_k - omega^e I, for a group
    generator A_k and an N-th root of unity omega^e in F_p, lies in the
    algebra mod p.  Norton: if every nonzero vector of ker theta spins to
    F_p^d under the generators, and some nonzero vector of ker theta^T
    spins to F_p^d under their transposes, the reduction is irreducible.
    With ker theta a line, the first condition is one spin.  The
    endomorphism ring of an irreducible module over F_p is a division ring
    (Schur), finite, so a field E, and ker theta is an E-subspace, so
    nullity 1 forces E = F_p: the reduction is absolutely irreducible, and
    its algebra is all of M_d(F_p), a span of dim^2.  No characteristic
    polynomial is factored: the candidates for omega^e are the N-th roots
    of unity, which lie in F_p because p splits, and through which the
    group of the modules here acts.

    Otherwise (dimension below the crossover, no group eigenline mod p, or
    a spin that stops short) the closure, ``linalg.spin`` of the identity,
    runs mod p, and when that span is not full, or p divides a
    denominator, the exact closure decides.  The report is the same fact
    either way, and it is computed once per module.
    """
    d = M.dim
    full = d * d
    singular = next((k for k, ok in enumerate(M._group_invertible()) if not ok), None)
    if singular is not None:
        raise SpecError(f"group generator {singular} does not act invertibly")
    # A^{-1} is a polynomial in A (Cayley-Hamilton): no inverse generators
    gens = M.group_mats + (M.X, M.Y)
    span_dim = None
    image = M._residues(0)
    if image is not None:
        p, gens_p = image
        ident = [[int(i == j) for j in range(d)] for i in range(d)]
        if (d >= _NORTON_MIN_DIM and _norton_certifies(M)) or \
                spin(ident, gens_p, lambda A, B: mat_mul_mod(A, B, p),
                     ModularSpan(p)).dim() == full:
            span_dim = full
    if span_dim is None:
        span_dim = spin(identity(d, M.spec.conductor), gens, mat_mul, SpanBasis()).dim()
    return Report(name="burnside", passed=span_dim == full,
                  facts={"span_dimension": span_dim, "full_dimension": full})


class IsoResult:
    """Outcome of the intertwiner search between two modules: status is
    "isomorphic" (witness is an invertible intertwiner), "not_isomorphic" or
    "unknown", with a reason in detail.

    Exported in ``orehopf.__all__``; equal results have equal fields, as
    when this was a dataclass."""

    def __init__(self, status: str, witness: list | None = None, detail: str = ""):
        self.status = status
        self.witness = witness
        self.detail = detail

    def __eq__(self, other):
        if not isinstance(other, IsoResult):
            return NotImplemented
        return (self.status, self.witness, self.detail) == \
            (other.status, other.witness, other.detail)

    def __bool__(self):
        return self.status == "isomorphic"


def _intertwines(T, M1: ModuleRep, M2: ModuleRep) -> bool:
    """Whether T A = B T exactly for every generator, A acting on M1 and B
    on M2: T is a module map from M1 to M2.  T is read once as a factor,
    the generators' factors are the modules' own (``ModuleRep._factors``),
    and each identity is tested by ``linalg.first_mismatch`` with no
    product built."""
    F = Factor(T)
    return all(first_mismatch(F, A, B, F) is None
               for A, B in zip(M1._factors(), M2._factors()))


def _intertwiner_row(pair, i: int, j: int, zero):
    """Entry (i, j) of T A - B T for pair = (A, B), as a row over the
    unknowns T[i][k] at column i * dim + k."""
    A, B = pair
    dim = len(A)
    row = [zero] * (dim * dim)
    # coefficient of T[i][k] from (T A)[i][j]
    for k in range(dim):
        row[i * dim + k] = row[i * dim + k] + A[k][j]
    # minus coefficient of T[k][j] from (B T)[i][j]
    for k in range(dim):
        row[k * dim + j] = row[k * dim + j] - B[i][k]
    return row


def _intertwiner_space(M1: ModuleRep, M2: ModuleRep):
    """Basis of {T : T A = B T for every generator}, A acting on M1 and B on
    M2 (of the same dimension), T as dim x dim, in the form of ``nullspace``
    of the whole system.

    The system is reduced mod the split prime p first, from the modules'
    reductions under embedding 0.  Its rows that are independent mod p are
    independent exactly, so full rank mod p means no nonzero T, and
    otherwise the kernel dimension mod p bounds the exact one.  The kernel
    of those rows is then read at every prime above p (``_lifted_kernel``)
    and lifted to Q(zeta_N).  When each lifted matrix satisfies every pair
    exactly, the lifted vectors span the exact kernel, and they have the
    form of its ``nullspace`` basis with the same free columns, so they are
    that basis.  Any failure of the lift runs the exact path: the exact
    kernel of the independent rows, accepted under the same check, else the
    whole system solved exactly, which is also the path when p divides a
    denominator.  Each tier pays (CPU time, one 2-vCPU machine, CPython
    3.11, a dim-d SkewVx or DiffVx module and a random conjugate): with no
    lift, module-sweep ops took 9 % longer at p90, and skew module ->
    conjugate 11-17x longer at dim 8, 8-84x at dim 12.  When the lift fails
    (conjugate -> module), the kernel of the selected rows took 0.16-0.40 s
    at dim 12 and 1.0-3.7 s at dim 16, the whole system 0.33-0.52 s and
    1.9-4.1 s.
    """
    dim = M1.dim
    n = dim * dim
    zero = Cyclotomic.zero(M1.spec.conductor)
    pairs = list(zip(M1.group_mats + (M1.X, M1.Y), M2.group_mats + (M2.X, M2.Y)))
    cells = [(k, i, j) for k in range(len(pairs)) for i in range(dim) for j in range(dim)]

    def intertwines(basis):
        return all(_intertwines(T, M1, M2) for T in basis)

    image1 = M1._residues(0)
    if image1 is not None and (image2 := M2._residues(0)) is not None:
        p = image1[0]
        pairs_p = list(zip(image1[1], image2[1]))
        span, selected = ModularSpan(p), []
        for k, i, j in cells:
            if span.add([x % p for x in _intertwiner_row(pairs_p[k], i, j, 0)]):
                selected.append((k, i, j))
                if span.dim() == n:
                    return []
        lifted = _lifted_kernel(M1, M2, span, selected)
        if lifted is not None and intertwines(basis := _as_matrices(lifted, dim)):
            return basis
        rows = [_intertwiner_row(pairs[k], i, j, zero) for k, i, j in selected]
        # with no independent row the kernel is the whole space
        basis = _as_matrices(nullspace(rows or [[zero] * n]), dim)
        if intertwines(basis):
            return basis
    return _as_matrices(nullspace([_intertwiner_row(pairs[k], i, j, zero)
                                   for k, i, j in cells]), dim)


def _lifted_kernel(M1: ModuleRep, M2: ModuleRep, span, selected):
    """The kernel of the selected rows of the intertwiner system of M1 and
    M2, lifted from every prime above p.

    span holds the selected rows reduced under embedding 0.  The same rows
    reduced under each other one, read from the modules' reductions one
    embedding at a time, must have the same pivots, so that each kernel
    vector has one image per embedding, and ``cyclotomic.lift`` reads each
    coordinate back from its images.  None when the pivots differ or a
    coordinate has no lift; the caller checks any lift exactly.
    """
    p, n, conductor = span.p, M1.dim * M1.dim, M1.spec.conductor
    kernels = [span.kernel(n)]
    for e in range(1, euler_phi(conductor)):
        pairs_e = list(zip(M1._residues(e)[1], M2._residues(e)[1]))
        span_e = ModularSpan(p)
        for k, i, j in selected:
            if not span_e.add([x % p for x in _intertwiner_row(pairs_e[k], i, j, 0)]):
                return None
        if span_e.pivots != span.pivots:
            return None
        kernels.append(span_e.kernel(n))
    basis = []
    for images in zip(*kernels):
        vec = [lift(conductor, coordinate) for coordinate in zip(*images)]
        if None in vec:
            return None
        basis.append(vec)
    return basis


def _as_matrices(vectors, dim: int):
    return [[vec[i * dim:(i + 1) * dim] for i in range(dim)] for vec in vectors]


def _last_entry_one(T):
    """T scaled so that its last nonzero entry in row-major order is 1, the
    form in which ``nullspace`` spans a line of maps."""
    last = next(a for row in reversed(T) for a in reversed(row) if not a.is_zero())
    return mat_scale(T, last.inverse())


def _seed_space(R: ModuleRep, M: ModuleRep):
    """Basis, in the form of ``nullspace``, of the seed space: the vectors
    of M where a module map R -> M can send e_0.

    For every generator A' of R with A' e_0 = s e_0, a module map f has
    B f(e_0) = f(A' e_0) = s f(e_0), B M's matrix of the generator, so the
    seed space is the kernel of the rows of B - s I, stacked."""
    rows = []
    for A, B in zip(R.group_mats + (R.X, R.Y), M.group_mats + (M.X, M.Y)):
        if all(A[k][0].is_zero() for k in range(1, R.dim)):
            s = A[0][0]
            rows += [[b - s if k == i else b for k, b in enumerate(row)]
                     for i, row in enumerate(B)]
    # with no row the space is all of M
    return nullspace(rows or [[Cyclotomic.zero(M.spec.conductor)] * M.dim])


def _classified_map(M1: ModuleRep, M2: ModuleRep):
    """The IsoResult from a classification that M1, or else M2, holds for
    M1.spec (``_verify_rebuild``), with no intertwiner system; None when
    neither holds one, or when a seed space has dimension 2 or more.

    The held (params, T) names the rebuild R = build_simple(params,
    M1.spec), and T maps R onto the module that holds it, the identity
    when None.  Each M_i gets a map F_i: R -> M_i.  A module that holds
    equal parameters holds F_i.  For the other one, any module map
    R -> M_i is fixed by the image of e_0, which lies in
    ``_seed_space(R, M_i)``: empty means no nonzero map.  On a line v, the
    Krylov matrix K = [v, B v, ..., B^(d-1) v], B M_i's matrix of the
    family's active element (``_krylov_certifies``), is F_i when it is an
    exact module map.  When it is not, neither is any multiple of it: a
    map f has f(e_0) = c v, and R's basis is e_i = A'^i e_0, A' its matrix
    of the active element, so f(e_i) = c B^i v and f = c K.  That basis is
    read off R (``_spins_its_basis``) before "not isomorphic" is returned.

    R is simple, so each F_i is injective, and bijective in the common
    dimension, and F2 F1^-1 A_{M1} =
    F2 A_R F1^-1 = A_{M2} F2 F1^-1 makes F2 F1^-1 an isomorphism M1 -> M2.
    R is absolutely simple, so the maps M1 -> M2 form a line, and
    ``nullspace`` spans a line t by the vector that is 1 at the last index
    of t's support: the map scaled to a last nonzero entry of 1
    (``_last_entry_one``) is the system's witness."""
    key = (_REBUILD_KEY, M1.spec)
    holder = M1 if key in M1._memo else M2
    held = holder._memo.get(key)
    if held is None:
        return None
    params, spec = held[0], M1.spec
    maps = []
    for M in (M1, M2):
        own = M._memo.get(key)
        if own is not None and own[0] == params:
            maps.append(own[1])
            continue
        R = holder if held[1] is None else build_simple(params, spec)
        seed = _seed_space(R, M)
        if len(seed) > 1:
            return None
        F = _krylov_certifies(M, R, seed[0], params.family, spec) if seed else None
        if F is None:
            if seed and not _spins_its_basis(R, params.family, spec):
                return None
            return IsoResult("not_isomorphic", detail="no nonzero intertwiner")
        maps.append(F)
    F1, F2 = maps
    if F1 is not None:
        F1_inv = inverse(F1)
        F2 = F1_inv if F2 is None else mat_mul(F2, F1_inv)
    witness = identity(M1.dim, spec.conductor) if F2 is None else _last_entry_one(F2)
    return IsoResult("isomorphic", witness=witness)


def are_isomorphic(M1: ModuleRep, M2: ModuleRep) -> IsoResult:
    """Decide module isomorphism, from a classification that either module
    holds, else by solving the intertwiner system; ValueError for modules
    of two algebras.

    When ``classify_simple`` has matched M1, or else M2, over M1.spec, the
    classified map (``_classified_map``) decides with no system: each
    module that holds equal parameters holds its map from their common
    rebuild R, and in the other module the line where a map from R can
    send e_0 is spun by the family's active element into the only
    candidate map, accepted by the exact check ``_intertwines`` (the
    MeatAxe's standard-basis test).  The two maps from R compose to the
    witness; an empty seed space or a failed check is "not isomorphic",
    with the system's detail.  A seed space of dimension 2 or more, and a
    pair with no classified side, solve the system.

    The basis of intertwiners is that of ``_intertwiner_space``: lifted
    from F_p and checked exactly, or else solved exactly, the same basis
    either way.  When either module holds a passed Burnside report,
    Schur's lemma decides: a nonzero module map out of or into a simple
    module of the same dimension is bijective, so the first basis
    intertwiner is the witness.  Otherwise the first invertible basis
    intertwiner is, and failing that 64 random combinations of the basis,
    coefficients in [-dim, dim], are tried, each by its exact rank
    (``linalg.full_rank``); the determinant has degree dim, so if the
    modules are isomorphic all draws fail with probability at most
    (dim/(2 dim + 1))^64 (Schwartz-Zippel).  That outcome is reported as
    unknown, with the bound, not as negative.
    """
    _check_same_algebra(M1, M2)
    if M1.dim != M2.dim:
        return IsoResult("not_isomorphic", detail="dimension mismatch")
    classified = _classified_map(M1, M2)
    if classified is not None:
        return classified
    dim = M1.dim
    N = M1.spec.conductor
    basis = _intertwiner_space(M1, M2)
    if not basis:
        return IsoResult("not_isomorphic", detail="no nonzero intertwiner")
    if _certified_simple(M1) or _certified_simple(M2):
        return IsoResult("isomorphic", witness=basis[0])

    for T in basis:
        if full_rank(T):
            return IsoResult("isomorphic", witness=T)

    rng, draws = Random(0), 64
    for _ in range(draws):
        T = zeros(dim, dim, N)
        for B in basis:
            T = mat_add(T, mat_scale(B, Cyclotomic.rational(N, rng.randint(-dim, dim))))
        if full_rank(T):
            return IsoResult("isomorphic", witness=T)
    bound = (dim / (2 * dim + 1)) ** draws
    return IsoResult(
        "unknown",
        detail=f"intertwiners exist but none of {draws} random combinations "
               f"with coefficients in [-{dim}, {dim}] is invertible; if the modules "
               f"are isomorphic this happens with probability at most "
               f"({dim}/{2 * dim + 1})^{draws} = {bound:.1e} (Schwartz-Zippel)")


# ---------------------------------------------------------------------------
# simple-family parameters


# the fields each family's key and build_simple read, as alternatives: the
# concrete tuple first, then the invariant-only one classify_simple returns
_REQUIRED = {
    "TorsionChar": (("lam",),),
    "SkewVx": (("lam", "alpha"), ("lam", "alpha_pow")),
    "SkewVy": (("lam", "alpha"), ("lam", "alpha_pow")),
    "SkewVxy": (("t", "lam", "alpha_x", "alpha_y"), ("t", "lam", "alpha_x_pow", "coupling")),
    "DiffVbar": (("rho",),),
    "DiffVx": (("rho", "lam_scalar", "mu"),),
    "DiffVy": (("rho", "lam_scalar", "mu"),),
}


class SimpleParams:
    """Parameters naming a simple module inside one of the seven families.

    family is one of TorsionChar, SkewVx, SkewVy, SkewVxy, DiffVbar, DiffVx,
    DiffVy.  Character-valued data lives in lam (full group character for
    TorsionChar, subgroup character otherwise) and rho; scalar data in
    alpha/alpha_x/alpha_y/lam_scalar/mu.  For modules recovered from a
    non-monomial basis only the invariant powers (alpha_pow, alpha_x_pow,
    coupling) may be known; they determine the isomorphism class, whose
    canonical form is ``key``.  Equal parameters have equal fields.  A
    SpecError is raised for a family outside the seven, a zero alpha,
    alpha_x, alpha_y, lambda or mu where the family needs it invertible, and
    a missing field that ``key`` or ``build_simple`` reads (``_REQUIRED``),
    named in the message: the concrete fields, or for SkewVx, SkewVy and
    SkewVxy the invariant-only ones.
    """

    def __init__(self, family: str, *, lam=None, rho: Character | None = None,
                 alpha: Cyclotomic | None = None, alpha_x: Cyclotomic | None = None,
                 alpha_y: Cyclotomic | None = None,
                 lam_scalar: Cyclotomic | None = None, mu: Cyclotomic | None = None,
                 t: int | None = None, n: int | None = None, d: int | None = None,
                 alpha_pow: Cyclotomic | None = None,
                 alpha_x_pow: Cyclotomic | None = None,
                 coupling: Cyclotomic | None = None):
        if family not in _REQUIRED:
            raise SpecError(f"unknown family {family!r}")
        if family in ("SkewVx", "SkewVy") and alpha is not None and alpha.is_zero():
            raise SpecError("alpha must be nonzero")
        if family == "SkewVxy" and any(a is not None and a.is_zero() for a in (alpha_x, alpha_y)):
            raise SpecError("alpha_x and alpha_y must be nonzero")
        if family == "DiffVx" and lam_scalar is not None and lam_scalar.is_zero():
            raise SpecError("lambda must be nonzero for the x-cyclic family")
        if family == "DiffVy" and mu is not None and mu.is_zero():
            raise SpecError("mu must be nonzero for the y-cyclic family")
        self.family = family
        self.lam = lam
        self.rho = rho
        self.alpha = alpha
        self.alpha_x = alpha_x
        self.alpha_y = alpha_y
        self.lam_scalar = lam_scalar
        self.mu = mu
        self.t = t
        self.n = n
        self.d = d
        self.alpha_pow = alpha_pow
        self.alpha_x_pow = alpha_x_pow
        self.coupling = coupling
        missing = min(([name for name in fields if getattr(self, name) is None]
                       for fields in _REQUIRED[family]), key=len)
        if missing:
            raise SpecError(f"{family} parameters need {', '.join(missing)}")

    def __eq__(self, other):
        if not isinstance(other, SimpleParams):
            return NotImplemented
        return vars(self) == vars(other)

    def key(self, spec: AlgebraSpec) -> tuple:
        """Hashable canonical form of the isomorphism class: a family name
        and its invariants, equal exactly for isomorphic modules.  DiffVx
        and DiffVy take the least point of their shift orbit
        (``_shift_key``).  A module of two families keys as the one
        ``classify_simple`` returns: a differential-mode TorsionChar as
        DiffVbar, and a DiffVy tuple as DiffVx when x^n = mu^-1 prod_{i<n}
        (lambda - rho(wind(e, i; eta))) is nonzero, xz acting on the rho
        line by lambda - rho(e)."""
        f = self.family
        if f == "TorsionChar":
            return ("DiffVbar" if spec.mode is Mode.DIFFERENTIAL_OPERATOR else f, self.lam)
        if f in ("SkewVx", "SkewVy"):
            n = (spec.chi if f == "SkewVx" else spec.eta).order()
            return f, self.lam, self.alpha ** n if self.alpha_pow is None else self.alpha_pow
        if f == "SkewVxy":
            n = spec.chi.order()
            t = self.t % n
            return (f, t, self.lam,
                    self.alpha_x ** n if self.alpha_x_pow is None else self.alpha_x_pow,
                    self.alpha_y * self.alpha_x.inverse() ** t if self.coupling is None
                    else self.coupling)
        if f == "DiffVbar":
            return f, self.rho
        if f == "DiffVx":
            return f, self.lam_scalar, *_shift_key(self.rho, self.mu, spec.chi, 1, spec)
        wound = _windings(self.rho, spec.eta, spec)
        x_power = prod((self.lam_scalar - w for w in wound[:spec.chi.order()]),
                       start=self.mu.inverse())
        if x_power.is_zero():
            return f, self.mu, *_shift_key(self.rho, self.lam_scalar, spec.eta, -1, spec)
        return ("DiffVx", x_power,
                *_shift_key(self.rho, self.lam_scalar - wound[1], spec.chi, 1, spec))

    def describe(self) -> dict:
        out = {"family": self.family}
        if self.lam is not None:
            out["lam"] = repr(self.lam)
        if self.rho is not None:
            out["rho"] = repr(self.rho)
        for name in ("alpha", "alpha_x", "alpha_y", "lam_scalar", "mu",
                     "alpha_pow", "alpha_x_pow", "coupling"):
            v = getattr(self, name)
            if v is not None:
                out[name] = cyclotomic_to_literal(v)
        for name, v in (("t", self.t), ("n", self.n), ("d", self.d)):
            if v is not None:
                out[name] = v
        return out


# ---------------------------------------------------------------------------
# constructors


def _check_subgroup_char(lam, sub: Subgroup, what: str):
    if not isinstance(lam, SubgroupCharacter):
        raise SpecError(f"{what} must be a SubgroupCharacter")
    if lam.subgroup != sub:
        raise SpecError(f"{what} must be a character of the expected kernel subgroup")


def _shift_action(spec: AlgebraSpec, n: int, shifter: GroupElement,
                  shift_char: Character, lam: SubgroupCharacter):
    """Group action matrices for the skew families: the generator g moves
    basis lines by j with shift_char(g) = q^j, q = shift_char(shifter) of
    order n, with kernel part acting through lam and a lam(shifter^n)
    factor on wraparound.  shift_char takes values zeta_N^(s a) for
    s = N / n, and q is a generator, zeta_N^(s b) with b a unit mod n, so
    j = a b^-1 mod n."""
    s = spec.conductor // n
    unit = pow(shift_char.exponent(shifter) // s, -1, n)
    wrap = lam.eval(shifter ** n)
    mats = []
    for k in range(spec.group.ngens):
        g = spec.group.generator(k)
        j = shift_char.exponent(g) // s * unit % n
        h = g * (shifter ** (-j))
        factor = lam.eval(h)
        A = zeros(n, n, spec.conductor)
        for i in range(n):
            tgt = i + j
            val = factor
            if tgt >= n:
                tgt -= n
                val = val * wrap
            A[tgt][i] = val
        mats.append(A)
    return mats


def build_torsion_char(lam: Character, spec: AlgebraSpec) -> ModuleRep:
    """One-dimensional module: both variables act by zero, the group through
    the character lam."""
    if not isinstance(lam, Character) or lam.group != spec.group:
        raise SpecError("lam must be a character of the underlying group")
    # e = 0 in skew mode
    if not spec.e.apply_char(lam).is_zero():
        raise SpecError("relation yx - xy = e unsatisfiable in dimension 1")
    N = spec.conductor
    mats = [[[lam.eval(spec.group.generator(k))]] for k in range(spec.group.ngens)]
    return ModuleRep(spec, 1, mats, zeros(1, 1, N), zeros(1, 1, N))


def build_induced_skew(kvals, lam, spec: AlgebraSpec) -> ModuleRep:
    """Induced module for the skew case: x and z act diagonally through chi
    and eta times the nonzero scalars kvals, the group permutes the cosets of
    the joint kernel N of chi and eta with a cocycle factor through lam;
    dimension [G : N]."""
    _require(spec.mode is Mode.SKEW_GROUP_RING,
             "induced construction applies to the skew mode")
    if len(kvals) != 2:
        raise SpecError("need one scalar per variable, x and z")
    for kv in kvals:
        if kv.is_zero():
            raise SpecError("not X-torsion-free")
    N_sub = joint_kernel([spec.chi, spec.eta])
    _require(N_sub.is_finite_index(), "joint character kernel has infinite index")
    _check_subgroup_char(lam, N_sub, "lam")
    reps = N_sub.cosets()
    dim = len(reps)
    index_of = {r: i for i, r in enumerate(reps)}
    N = spec.conductor

    mats = []
    for k in range(spec.group.ngens):
        g = spec.group.generator(k)
        A = zeros(dim, dim, N)
        for col, r in enumerate(reps):
            moved = g * r
            tgt = N_sub.coset_rep(moved)
            kern = tgt.inverse() * moved
            A[index_of[tgt]][col] = lam.eval(kern)
        mats.append(A)

    X = zeros(dim, dim, N)
    Z = zeros(dim, dim, N)
    for i, r in enumerate(reps):
        X[i][i] = spec.chi.eval(r) * kvals[0]
        Z[i][i] = spec.eta.eval(r) * kvals[1]
    return _from_z(spec, dim, mats, X, Z)


def _diagonal_powers(alpha: Cyclotomic, q: Cyclotomic, n: int):
    """diag(alpha, alpha q, ..., alpha q^(n-1))."""
    D = zeros(n, n, alpha.conductor)
    for i in range(n):
        D[i][i] = alpha
        alpha = alpha * q
    return D


def _skew_cyclic(alpha: Cyclotomic, lam, spec: AlgebraSpec, char_name: str,
                 shifter_name: str):
    """n, group action and diag(alpha q^i), q = char(shifter), of the mirrored
    skew families SkewVx (char chi, shifter c) and SkewVy (eta, b)."""
    _require(spec.mode is Mode.SKEW_GROUP_RING,
             "this family lives in the skew mode")
    if alpha.is_zero():
        raise SpecError("alpha must be nonzero")
    char = getattr(spec, char_name)
    shifter = getattr(spec, shifter_name)
    n = char.order()
    q = char.eval(shifter)
    _require(n >= 2 and q.multiplicative_order() == n,
             f"{char_name}({shifter_name}) must be a primitive root generating "
             f"the image of {char_name}")
    _check_subgroup_char(lam, char_kernel(char), "lam")
    return n, _shift_action(spec, n, shifter, char, lam), _diagonal_powers(alpha, q, n)


def build_Vx_skew(alpha: Cyclotomic, lam, spec: AlgebraSpec) -> ModuleRep:
    """x-torsion-free, y-torsion simple module for the skew case: x acts by
    q^i alpha on the i-th line, y by zero, c shifts lines with a lam(c^n)
    wraparound, and ker(chi) acts through lam."""
    n, mats, X = _skew_cyclic(alpha, lam, spec, "chi", "c")
    return ModuleRep(spec, n, mats, X, zeros(n, n, spec.conductor))


def build_Vy_skew(alpha: Cyclotomic, lam, spec: AlgebraSpec) -> ModuleRep:
    """Mirror family: y acts by q^i alpha with q = eta(b), x by zero, b
    shifts lines with a lam(b^n) wraparound, ker(eta) acts through lam."""
    n, mats, Y = _skew_cyclic(alpha, lam, spec, "eta", "b")
    return ModuleRep(spec, n, mats, zeros(n, n, spec.conductor), Y)


def build_Vxy_skew(alpha_x: Cyclotomic, alpha_y: Cyclotomic, lam, t: int,
                   spec: AlgebraSpec) -> ModuleRep:
    """Doubly torsion-free family for the skew case with eta = chi^t: x acts
    by q^i alpha_x, the commuting variable z = c^{-1} y by q^{it} alpha_y,
    and the group as in the x-family."""
    _require(spec.mode is Mode.SKEW_GROUP_RING,
             "this family lives in the skew mode")
    if alpha_x.is_zero() or alpha_y.is_zero():
        raise SpecError("alpha_x and alpha_y must be nonzero")
    n = spec.chi.order()
    q = spec.chi.eval(spec.c)
    _require(n >= 2 and q.multiplicative_order() == n,
             "chi(c) must be a primitive root generating the image of chi")
    t_red = t % n
    if gcd(t_red, n) != 1:
        raise SpecError("t must be coprime to the order of chi")
    if spec.eta != spec.chi ** t_red:
        raise SpecError("eta must equal chi^t")
    _check_subgroup_char(lam, char_kernel(spec.chi), "lam")
    mats = _shift_action(spec, n, spec.c, spec.chi, lam)
    X = _diagonal_powers(alpha_x, q, n)
    Z = _diagonal_powers(alpha_y, q ** t_red, n)
    return _from_z(spec, n, mats, X, Z)


def _windings(rho: Character, char: Character, spec: AlgebraSpec) -> list:
    """[rho(wind(e, i; char)) for i = 0..order(chi)], as the prefix sums of
    rho(tau_char^(-k)(e)): wind(e, i; char) = sum_{k<i} tau_char^(-k)(e)."""
    wound = [Cyclotomic.zero(spec.conductor)]
    for k in range(spec.chi.order()):
        wound.append(wound[-1] + spec.e.twist(char, -k).apply_char(rho))
    return wound


def _vanishing_index(wound):
    """Least d >= 1 with wound[d] = 0, or None."""
    return next((d for d in range(1, len(wound)) if wound[d].is_zero()), None)


def truncation_index(rho: Character, spec: AlgebraSpec):
    """Least d >= 1 with rho(wind(e, d)) = 0, or None if none exists up to
    the order of chi."""
    return _vanishing_index(_windings(rho, spec.chi, spec))


def _diff_matrices(rho: Character, n: int, wrap: Cyclotomic, offset: Cyclotomic,
                   wound, sign: int, spec: AlgebraSpec):
    """Diff-family matrices on n lines: shift i -> i + 1 (last -> first times
    wrap), lowering i -> i - 1 times offset + sign wound[i] (first -> last
    times offset / wrap), group action chi(g)^(-sign i) rho(g); wound is the
    ``_windings`` list of rho along the winding character."""
    N = spec.conductor
    S = zeros(n, n, N)
    L = zeros(n, n, N)
    for i in range(1, n):
        S[i][i - 1] = Cyclotomic.one(N)
        L[i - 1][i] = offset + sign * wound[i]
    if not wrap.is_zero():
        S[0][n - 1] = wrap
        L[n - 1][0] = wrap.inverse() * offset
    mats = []
    for g in spec.group.generators():
        A = zeros(n, n, N)
        base = rho.eval(g)
        for i in range(n):
            A[i][i] = spec.chi.eval_pow(g, -sign * i) * base
        mats.append(A)
    return S, L, mats


def build_Vbar_diff(rho: Character, spec: AlgebraSpec) -> ModuleRep:
    """Doubly torsion simple module for the differential mode: x is the
    nilpotent shift, z lowers lines with winding coefficients rho(wind(e, i)),
    the group acts diagonally twisted by powers of chi."""
    _require(spec.mode is Mode.DIFFERENTIAL_OPERATOR,
             "this family lives in the differential mode")
    if not isinstance(rho, Character) or rho.group != spec.group:
        raise SpecError("rho must be a character of the underlying group")
    wound = _windings(rho, spec.chi, spec)
    d = _vanishing_index(wound)
    if d is None:
        raise SpecError("no finite-dimensional torsion quotient for this rho")
    zero = Cyclotomic.zero(spec.conductor)
    X, Z, mats = _diff_matrices(rho, d, zero, zero, wound, 1, spec)
    return ModuleRep(spec, d, mats, X, Z)


def _diff_cyclic(rho: Character, wrap: Cyclotomic, offset: Cyclotomic,
                 char: Character, sign: int, spec: AlgebraSpec,
                 wrap_error: str, wind_label: str):
    """Checked matrices of the mirrored diff families on order(chi) lines:
    DiffVx (wrap lam, offset mu, chi, 1) and DiffVy (mu, lam, eta, -1)."""
    _require(spec.mode is Mode.DIFFERENTIAL_OPERATOR,
             "this family lives in the differential mode")
    if wrap.is_zero():
        raise SpecError(wrap_error)
    if not isinstance(rho, Character) or rho.group != spec.group:
        raise SpecError("rho must be a character of the underlying group")
    n = spec.chi.order()
    wound = _windings(rho, char, spec)
    if not wound[n].is_zero():
        raise SpecError(f"construction needs rho(wind(e, n{wind_label})) = 0 "
                        f"at n = order(chi)")
    return _diff_matrices(rho, n, wrap, offset, wound, sign, spec)


def build_Vx_diff(rho: Character, lam: Cyclotomic, mu: Cyclotomic,
                  spec: AlgebraSpec) -> ModuleRep:
    """x-torsion-free simple module for the differential mode: x is the
    cyclic shift with wraparound lam, z lowers lines with coefficients
    mu + rho(wind(e, i)) and maps the bottom line up with lam^{-1} mu."""
    X, Z, mats = _diff_cyclic(rho, lam, mu, spec.chi, 1, spec,
                              "lambda must be nonzero for the x-cyclic family", "")
    return ModuleRep(spec, len(X), mats, X, Z)


def build_Vy_diff(rho: Character, lam: Cyclotomic, mu: Cyclotomic,
                  spec: AlgebraSpec) -> ModuleRep:
    """y-torsion-free simple module for the differential mode: z is the
    cyclic shift with wraparound mu, x lowers lines with coefficients
    lam - rho(wind(e, i; eta)) where the winding runs in the eta direction."""
    Z, X, mats = _diff_cyclic(rho, mu, lam, spec.eta, -1, spec,
                              "mu must be nonzero for the y-cyclic family", "; eta")
    return ModuleRep(spec, len(X), mats, X, Z)


def build_simple(params: SimpleParams, spec: AlgebraSpec) -> ModuleRep:
    """Rebuild a module from family parameters."""
    f = params.family
    if f == "TorsionChar":
        return build_torsion_char(params.lam, spec)
    if f in ("SkewVx", "SkewVy"):
        if params.alpha is None:
            raise SpecError("parameters are invariant-only; no concrete alpha to rebuild from")
        build = build_Vx_skew if f == "SkewVx" else build_Vy_skew
        return build(params.alpha, params.lam, spec)
    if f == "SkewVxy":
        if params.alpha_x is None or params.alpha_y is None:
            raise SpecError("parameters are invariant-only; no concrete alphas to rebuild from")
        return build_Vxy_skew(params.alpha_x, params.alpha_y, params.lam,
                              params.t, spec)
    if f == "DiffVbar":
        return build_Vbar_diff(params.rho, spec)
    build = build_Vx_diff if f == "DiffVx" else build_Vy_diff
    return build(params.rho, params.lam_scalar, params.mu, spec)


# ---------------------------------------------------------------------------
# isomorphism keys


def _shift_key(rho: Character, moved: Cyclotomic, char: Character, sign: int,
               spec: AlgebraSpec) -> tuple:
    """The point with the least exponent tuple on the shift orbit of a diff
    family: k in Z/order(chi) takes (rho, moved) to (rho chi^(-sign k),
    moved + sign rho(wind(e, k; char))), for DiffVx (chi, 1) with moved =
    mu and for DiffVy (eta, -1) with moved = lambda.  It is an action: the
    windings of the shifted rho are differences of rho's, and rho(wind(e,
    order(chi); char)) = 0.  The order(chi) shifted characters are
    distinct, so the least point is unique."""
    wound = _windings(rho, char, spec)
    return min(((rho * spec.chi ** (-sign * k), moved + sign * wound[k])
                for k in range(spec.chi.order())), key=lambda point: point[0].exps)


def iso_criterion(p1: SimpleParams, p2: SimpleParams, spec: AlgebraSpec) -> bool:
    """Whether two parameter tuples name isomorphic simple modules: whether
    their keys (``SimpleParams.key``) are equal.  Nothing is built."""
    return p1.key(spec) == p2.key(spec)


# ---------------------------------------------------------------------------
# classification


def _classify_fail(msg: str):
    raise ClassifyError(f"unclassifiable: {msg}")


def _subgroup_char_from_action(M: ModuleRep, sub: Subgroup):
    """Recover the kernel character from the (necessarily scalar) action of
    the subgroup generators."""
    N = M.spec.conductor
    exps = []
    for h in sub.hermite_generators():
        s = _scalar_of(M.act_group(h))
        if s is None:
            _classify_fail("kernel subgroup does not act by scalars")
        k = zeta_log(s)
        if k is None:
            _classify_fail("kernel action scalar is not a root of unity "
                           "of the declared conductor")
        exps.append(k)
    try:
        return SubgroupCharacter(sub, N, exps)
    except ValueError as exc:
        _classify_fail(f"kernel scalars are inconsistent: {exc}")


def _joint_group_eigen(M: ModuleRep):
    """A joint eigenvector of the commuting group action, with the eigenvalue
    per group generator.  Eigenvalues are searched among the roots of unity
    of the conductor, in order; a root with no eigenvector mod p, an empty
    ``ModuleRep._eigenspace_mod_p`` shared with Burnside's eigenline search,
    is no eigenvalue of the exact generator and is skipped, and the exact
    kernel decides every other one."""
    N = M.spec.conductor
    d = M.dim
    reduced = M._residues(0) is not None
    cols = [[Cyclotomic.one(N) if i == j else Cyclotomic.zero(N)
             for i in range(d)] for j in range(d)]
    values = []
    for k in range(M.spec.group.ngens):
        images = [mat_vec(M.group_mats[k], col) for col in cols]
        found = None
        for e in range(N):
            if reduced and not M._eigenspace_mod_p(k, e):
                continue
            xi = root_of_unity(N, e)
            rows = [[images[j][i] - xi * cols[j][i] for j in range(len(cols))]
                    for i in range(d)]
            kernel = nullspace(rows)
            if kernel:
                # the kernel vectors are coordinates in the columns cols
                basis = list(zip(*cols))
                cols = [mat_vec(basis, u) for u in kernel]
                found = xi
                break
        if found is None:
            _classify_fail("group eigenvalues are not roots of unity "
                           "of the declared conductor")
        values.append(found)
    return cols[0], values


def _character_from_values(group: AbelianGroup, conductor: int, values):
    exps = []
    for v in values:
        k = zeta_log(v)
        if k is None:
            _classify_fail("group eigenvalue is not a root of unity "
                           "of the declared conductor")
        exps.append(k)
    try:
        return Character(group, conductor, exps)
    except ValueError as exc:
        _classify_fail(f"eigenvalues do not form a character: {exc}")


def _eigen_ratio(A, v, conductor: int):
    """The scalar s with A v = s v, or None."""
    image = mat_vec(A, v)
    pivot = next((i for i, x in enumerate(v) if not x.is_zero()), None)
    if pivot is None:
        return None
    s = image[pivot] * v[pivot].inverse()
    for i in range(len(v)):
        if image[i] != s * v[i]:
            return None
    return s


# the element whose matrix A' spins a family's rebuild basis from e'_0,
# e'_i = A'^i e'_0: the variable x or z, or the group element c or b that
# shifts line i to line i + 1 with factor lam(1) = 1 (``_shift_action``)
_ACTIVE = {"TorsionChar": "x", "SkewVx": "c", "SkewVxy": "c", "SkewVy": "b",
           "DiffVbar": "x", "DiffVx": "x", "DiffVy": "z"}


def _active_matrix(M: ModuleRep, family: str, spec: AlgebraSpec):
    """M's matrix of the family's active element (``_ACTIVE``); z is Y in
    differential mode."""
    name = _ACTIVE[family]
    if name == "x":
        return M.X
    if name == "z":
        return M.Y
    return M.act_group(getattr(spec, name))


def _spins_its_basis(R: ModuleRep, family: str, spec: AlgebraSpec) -> bool:
    """Whether A' e_i = e_(i+1) for i < dim - 1, A' R's matrix of the
    family's active element: every rebuild's basis by construction."""
    A = _active_matrix(R, family, spec)
    one = Cyclotomic.one(spec.conductor)
    return all(A[k][i] == one if k == i + 1 else A[k][i].is_zero()
               for i in range(R.dim - 1) for k in range(R.dim))


def _krylov_certifies(M: ModuleRep, rebuilt: ModuleRep, v, family: str,
                      spec: AlgebraSpec):
    """T, with columns v, A v, ..., A^(d-1) v for A M's matrix of the
    family's active element (``_active_matrix``), when it is a nonzero
    module map from rebuilt to M: T A' = A T exactly for every generator,
    A' acting on rebuilt and A on M; else None.  The one Krylov routine of
    classification and of isomorphism.  With either side simple and equal
    dimensions, such a T is an isomorphism."""
    active = _active_matrix(M, family, spec)
    cols = [list(v)]
    for _ in range(M.dim - 1):
        cols.append(mat_vec(active, cols[-1]))
    T = [list(row) for row in zip(*cols)]
    return None if is_zero_matrix(T) or not _intertwines(T, rebuilt, M) else T


def _verify_rebuild(M: ModuleRep, params: SimpleParams, spec: AlgebraSpec, v):
    """params, once build_simple(params, spec) is shown isomorphic to M.

    One certificate, found with matrix products only: the identity map
    when the rebuild's matrices equal M's, else the Krylov matrix of
    ``_krylov_certifies``.  Every rebuild has the basis e'_i = A'^i e'_0,
    A' its matrix of the family's active element (``_ACTIVE``): x
    (DiffVbar, DiffVx), z (DiffVy), or the shifter c (SkewVx, SkewVxy) or
    b (SkewVy).  e'_0 is the line the classifier read in M as v: the line
    z kills, the joint group eigenline, or e_0 of the diagonal x or y
    whose first entry is alpha.  TorsionChar's 1 x 1 rebuild always
    equals its input.  M is certified simple, so a nonzero module map onto
    it is an isomorphism.  A failed Krylov check alone does not prove
    non-isomorphism, so the ClassifyError names the check.  The
    certificate is kept on M per spec object as (params, T), T None for
    the identity, for ``are_isomorphic``; params is the value returned,
    which no caller may mutate.
    """
    try:
        rebuilt = build_simple(params, spec)
    except SpecError as exc:
        _classify_fail(f"recovered parameters rejected by the constructor: {exc}")
    T = None
    if (rebuilt.group_mats, rebuilt.X, rebuilt.Y) != (M.group_mats, M.X, M.Y):
        T = _krylov_certifies(M, rebuilt, v, params.family, spec)
        if T is None:
            _classify_fail("the rebuilt module fails the Krylov check: the matrix "
                           "spun from the line read in the input is no module map")
    M._memo[_REBUILD_KEY, spec] = params, T
    return params


def _classify_skew_cyclic(M: ModuleRep, spec: AlgebraSpec, family: str,
                          char_name: str, shifter_name: str, active, idle,
                          names: str):
    """Parameters of a SkewVx (chi, c) or SkewVy (eta, b) module whose
    torsion-free variable names[0] acts by active and names[1] by idle."""
    var, other = names
    char = getattr(spec, char_name)
    n = char.order()
    q = char.eval(getattr(spec, shifter_name))
    if q.multiplicative_order() != n or n < 2:
        _classify_fail(f"{char_name}({shifter_name}) does not generate the "
                       f"image of {char_name}")
    if M.dim != n:
        _classify_fail(f"dimension does not match the order of {char_name}")
    if not is_zero_matrix(idle):
        _classify_fail(f"{other}-torsion simple modules have zero {other}-action")
    s = _scalar_of(mat_pow(active, n))
    if s is None or s.is_zero():
        _classify_fail(f"{var}^n does not act as a nonzero scalar")
    lam = _subgroup_char_from_action(M, char_kernel(char))
    alpha = active[0][0] if _is_diagonal(active) else None
    params = SimpleParams(family=family, lam=lam, alpha=alpha, alpha_pow=s, n=n)
    if alpha is not None:
        return _verify_rebuild(M, params, spec, identity(n, spec.conductor)[0])
    return params


def _diff_cyclic_invariants(M: ModuleRep, spec: AlgebraSpec, active, idle,
                            names: str):
    """(rho, s, r, v) of a DiffVx or DiffVy module whose torsion-free
    variable names[0] acts by active: active^n = s, and active idle = r on
    the joint group eigenvector v of character rho."""
    var, other = names
    N = spec.conductor
    s = _scalar_of(mat_pow(active, spec.chi.order()))
    if s is None or s.is_zero():
        _classify_fail(f"{var}^n does not act as a nonzero scalar")
    v, values = _joint_group_eigen(M)
    rho = _character_from_values(spec.group, N, values)
    r = _eigen_ratio(mat_mul(active, idle), v, N)
    if r is None:
        _classify_fail(f"{var}{other} does not act as a scalar on the joint "
                       f"group eigenline")
    return rho, s, r, v


def classify_simple(M: ModuleRep, spec: AlgebraSpec) -> SimpleParams:
    """Match a certified-simple module to its family and recover parameters.

    Dispatch is by mode, torsion profile, and dimension.  Parameters are
    read off scalar invariants (scalar powers of the variable actions,
    kernel-subgroup scalars) and a joint eigenvector of the group action;
    the answer is verified against a rebuilt module where concrete
    parameters are available, and against the defining scalar identities
    otherwise.  A rebuild has one certificate (``_verify_rebuild``): the
    identity, or the Krylov matrix of the line the classifier read, with
    no intertwiner system, prime or lift.  The input's rep_check and
    Burnside certificates are read from the module when its caller has
    already computed them.
    """
    if not rep_check(M, spec).passed:
        _classify_fail("input fails rep_check")
    if not is_simple_burnside(M).passed:
        _classify_fail("input is not certified simple")
    prof = torsion_profile(M)
    if MIXED in prof.values():
        _classify_fail("simple modules never have a mixed torsion profile")
    N = spec.conductor

    if spec.mode is Mode.SKEW_GROUP_RING:
        if prof["x"] == TORSION and prof["y"] == TORSION:
            if M.dim != 1:
                _classify_fail("doubly torsion simple modules here are "
                               "one-dimensional")
            values = [M.group_mats[k][0][0] for k in range(spec.group.ngens)]
            lam = _character_from_values(spec.group, N, values)
            params = SimpleParams(family="TorsionChar", lam=lam, n=1)
            return _verify_rebuild(M, params, spec, [Cyclotomic.one(N)])

        X = M.X
        if prof["y"] == TORSION:
            return _classify_skew_cyclic(M, spec, "SkewVx", "chi", "c", X, M.Y, "xy")
        if prof["x"] == TORSION:
            return _classify_skew_cyclic(M, spec, "SkewVy", "eta", "b", M.Y, X, "yx")

        # doubly torsion-free
        n = spec.chi.order()
        q = spec.chi.eval(spec.c)
        if q.multiplicative_order() != n or n < 2:
            _classify_fail("chi(c) does not generate the image of chi")
        t = next((t for t in range(1, n) if gcd(t, n) == 1
                  and spec.eta == spec.chi ** t), None)
        if t is None:
            _classify_fail("eta is not a coprime power of chi; the doubly "
                           "torsion-free case is only classified under that "
                           "hypothesis")
        if M.dim != n:
            _classify_fail("dimension does not match the order of chi")
        s = _scalar_of(mat_pow(X, n))
        if s is None or s.is_zero():
            _classify_fail("x^n does not act as a nonzero scalar")
        # z = c^{-1} y = w x^t, read as y = w C X^t with no inverse
        C = M.act_group(spec.c)
        CXt = mat_mul(C, mat_pow(X, t))
        a, y = next((a, y) for row, row_y in zip(CXt, M.Y) for a, y in zip(row, row_y)
                    if not a.is_zero())
        w = y * a.inverse()
        if w.is_zero() or tuple(map(tuple, mat_scale(CXt, w))) != M.Y:
            _classify_fail("z x^{-t} does not act as a nonzero scalar")
        lam = _subgroup_char_from_action(M, char_kernel(spec.chi))
        alpha_x = X[0][0] if _is_diagonal(X) else None
        alpha_y = None if alpha_x is None else w * alpha_x ** t
        params = SimpleParams(family="SkewVxy", lam=lam, alpha_x=alpha_x,
                              alpha_y=alpha_y, alpha_x_pow=s, coupling=w,
                              t=t, n=n)
        if alpha_x is not None:
            return _verify_rebuild(M, params, spec, identity(n, N)[0])
        return params

    # differential mode
    n = spec.chi.order()
    Z = M.Y

    if prof["x"] == TORSION and prof["y"] == TORSION:
        kernel = nullspace(Z)
        if len(kernel) != 1:
            _classify_fail("z-kernel of a doubly torsion simple module "
                           "must be a line")
        v = kernel[0]
        values = []
        for k in range(spec.group.ngens):
            s = _eigen_ratio(M.group_mats[k], v, N)
            if s is None:
                _classify_fail("z-kernel line is not a joint group eigenline")
            values.append(s)
        rho = _character_from_values(spec.group, N, values)
        d = truncation_index(rho, spec)
        if d != M.dim:
            _classify_fail("dimension does not equal the least vanishing "
                           "winding index of the recovered character")
        params = SimpleParams(family="DiffVbar", rho=rho, d=d, n=n)
        return _verify_rebuild(M, params, spec, v)

    # neither mixed nor doubly torsion: one variable is torsion-free
    if M.dim != n:
        _classify_fail("dimension does not match the order of chi")
    if prof["x"] == TORSION_FREE:
        family, active = "DiffVx", M.X
        rho, lam, mu, v = _diff_cyclic_invariants(M, spec, active, Z, "xy")
    else:
        family, active = "DiffVy", Z
        rho, mu, lam, v = _diff_cyclic_invariants(M, spec, active, M.X, "yx")
    params = SimpleParams(family=family, rho=rho, lam_scalar=lam, mu=mu, n=n)
    return _verify_rebuild(M, params, spec, v)
