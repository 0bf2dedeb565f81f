"""Hopf algebras H(G, chi, eta, b, c, beta) on the PBW basis {g x^i y^j}.

The algebra is the group algebra K[G] extended by a skew-primitive x
(x g = chi(g) g x, coproduct x (x) 1 + b (x) x) and then by a second
skew-primitive y (y g = eta(g) g y, coproduct y (x) 1 + c (x) y) with
y x = q x y + beta(1 - cb), q = eta(b).

Two regimes exist and are classified at validation time:

* SkewGroupRing: beta(1 - cb) = 0.  The PBW basis carries y itself and
  multiplication is pure q-commutation.
* DifferentialOperator: beta(1 - cb) != 0, which forces eta = chi^(-1).
  Internally the basis carries the normalized variable z = beta^(-1)c^(-1)y
  with z x = x z + e, e = c^(-1) - b, and z is (c^(-1), 1)-skew-primitive.
  The raw y presentation is converted at the I/O boundary (y = beta c z).

Moving z across a power of x is done in one step with the winding elements
[e]_i rather than i single rewrites; the single-step path lives in the test
suite as an independent oracle.

A key (g, i, j) is the PBW monomial g x^i w^j.  One kernel, _monomial_product,
gives the product of two keys as rows (key, r, coeff) of sum coeff zeta^r key,
with the group part and the root chi(h)^i eta(h)^j of moving h left folded
into the x/w rows (one row in skew mode, the rows of z^j x^k in diff mode).
Delta, S and epsilon are per-key maps: _cop_key, _antipode_key (one kernel
product) and epsilon = 1 in degree 0, else 0.  The spec keeps the constants
(s_w s_x, u_x^i, u_w^j) of S(w)^j S(x)^i per (i, j) and one dict of packed
group-free coproduct tables (_cop_rows): Delta(x^i w^j) per (i, j) and, for
the check that Delta is multiplicative, Delta(x^i w^j) Delta(x^k w^l) per
(i, j, k, l).  A key only moves its group element and coefficient through
them.  The products are made at first use, at most (d+1)^4 for degrees
<= d: about 0.6 MB for the four benchmark specs at d = 3, and an estimated
12-35 MB per spec if every quadruple of degree <= 8 is filled.  The
products, comultiply, antipode and hopf_axiom_check only accumulate rows,
with no element per key.

Both PBW generators are skew-primitive, so Delta and S of a PBW monomial
g x^i w^j come from closed forms (Gauss binomials for Delta(v^n), a group
element power for S(v)^n) rather than from products in H (x) H.  The
product path Delta(x)^i Delta(w)^j and S(w)^j S(x)^i is kept in the test
suite as the oracle for these closed forms.

The elements of K[G] (GroupAlgElem), H (HopfElem), H (x) H (TensorElem)
and the quotients H/I (quotient.QuotientElem) are all finite K-linear
combinations of monomials.  They share one term core, _Terms, which holds
the coefficient dict and does the linear arithmetic: +, -, negation,
scale, is_zero and ==.  Each type adds only its space (group and
conductor, spec or quotient spec) and its own products and maps.
"""

from __future__ import annotations

import enum
from array import array
from math import lcm
from random import Random

from .abgroup import AbelianGroup, Character, GroupElement, _is_int
from .cyclotomic import (Cyclotomic, _canonical, _coerce_coeff, _fold,
                         _q_binomial_row, euler_phi, q_int, root_of_unity,
                         zeta_log)
from .report import Report


class Mode(enum.Enum):
    SKEW_GROUP_RING = "SkewGroupRing"
    DIFFERENTIAL_OPERATOR = "DifferentialOperator"


class SpecError(ValueError):
    """Raised when the defining data violates the existence constraints."""


def _acc(d: dict, key, coeff):
    cur = d.get(key)
    if cur is None:
        d[key] = coeff
    else:
        d[key] = cur + coeff


def _nonzero(terms) -> dict:
    return {k: v for k, v in terms.items() if not v.is_zero()}


class _Terms:
    """Finite K-linear combination {basis key: nonzero coefficient}.

    A subclass stores its space and drops zero coefficients in its
    constructor, names the space with _space() and builds an element of the
    same space with _like(terms).  Two elements combine only when their
    types match and their spaces compare equal; otherwise ValueError with
    the subclass's _mismatch message.
    """

    __slots__ = ("terms",)

    def _check(self, other):
        if type(other) is not type(self) or other._space() != self._space():
            raise ValueError(self._mismatch)

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for k, v in other.terms.items():
            _acc(out, k, v)
        return self._like(out)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return self._like({k: -v for k, v in self.terms.items()})

    def scale(self, coeff):
        """Multiply by a field element, an int, a Fraction or a rational string."""
        if not isinstance(coeff, Cyclotomic):
            coeff = _coerce_coeff(coeff)
        return self._like({k: v * coeff for k, v in self.terms.items()})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (type(other) is type(self) and other._space() == self._space()
                and self.terms == other.terms)


class GroupAlgElem(_Terms):
    """Element of K[G]: finitely supported map GroupElement -> Cyclotomic."""

    __slots__ = ("group", "conductor")
    _mismatch = "group algebra elements are not compatible"

    def __init__(self, group: AbelianGroup, conductor: int, terms=None):
        self.group = group
        self.conductor = conductor
        self.terms = _nonzero(terms or {})

    def _space(self):
        return self.group, self.conductor

    def _like(self, terms):
        return GroupAlgElem(self.group, self.conductor, terms)

    @staticmethod
    def zero(group, conductor):
        return GroupAlgElem(group, conductor, {})

    @staticmethod
    def of(g: GroupElement, conductor: int, coeff=None):
        coeff = coeff if coeff is not None else Cyclotomic.one(conductor)
        return GroupAlgElem(g.group, conductor, {g: coeff})

    def __mul__(self, other):
        if not isinstance(other, GroupAlgElem):
            return self.scale(other)
        self._check(other)
        out = {}
        for g, cg in self.terms.items():
            for h, ch in other.terms.items():
                _acc(out, g * h, cg * ch)
        return self._like(out)

    def twist(self, chi: Character, power: int = 1):
        """tau_chi^power: g |-> chi(g)^power g, extended linearly."""
        return self._like({g: c * chi.eval_pow(g, power) for g, c in self.terms.items()})

    def apply_char(self, rho: Character) -> Cyclotomic:
        """Evaluate the algebra map K[G] -> K induced by a character."""
        acc = Cyclotomic.zero(self.conductor)
        for g, c in self.terms.items():
            acc = acc + c * rho.eval(g)
        return acc

    def __repr__(self):
        if not self.terms:
            return "GA(0)"
        return "GA(" + " + ".join(f"{c!r}*{g!r}" for g, c in self.terms.items()) + ")"


class AlgebraSpec:
    """Validated defining data plus derived constants and computation caches."""

    def __init__(self, group, chi, eta, b, c, beta, conductor, mode, q):
        self.group = group
        self.chi = chi
        self.eta = eta
        self.b = b
        self.c = c
        self.beta = beta
        self.conductor = conductor
        self.mode = mode
        self.q = q                      # eta(b) = chi(c)^(-1)
        one = Cyclotomic.one(conductor)
        if mode is Mode.DIFFERENTIAL_OPERATOR:
            self.e = GroupAlgElem(group, conductor,
                                  {c.inverse(): one}) - GroupAlgElem(
                                      group, conductor, {b: one})
        else:
            self.e = GroupAlgElem.zero(group, conductor)
        self._z_past_x_cache = {}
        self._wind_cache = {}
        self._cop_tables = {}
        self._cop_values = {}
        self._antipode_cache = {}
        self._q_exponent = eta.exponent(b)      # q = zeta^_q_exponent

    # -- element constructors --

    def zero(self) -> "HopfElem":
        return HopfElem(self, {})

    def one(self) -> "HopfElem":
        return self.unit(Cyclotomic.one(self.conductor))

    def unit(self, coeff) -> "HopfElem":
        if isinstance(coeff, int):
            coeff = Cyclotomic.rational(self.conductor, coeff)
        return HopfElem(self, {(self.group.identity(), 0, 0): coeff})

    def group_element(self, g: GroupElement) -> "HopfElem":
        return HopfElem(self, {(g, 0, 0): Cyclotomic.one(self.conductor)})

    def x(self) -> "HopfElem":
        return HopfElem(self, {(self.group.identity(), 1, 0): Cyclotomic.one(self.conductor)})

    def y(self) -> "HopfElem":
        """The raw generator y (converted to the internal basis in diff mode)."""
        if self.mode is Mode.SKEW_GROUP_RING:
            return HopfElem(self, {(self.group.identity(), 0, 1):
                                   Cyclotomic.one(self.conductor)})
        return HopfElem(self, {(self.c, 0, 1): self.beta})

    def z(self) -> "HopfElem":
        """The commuting-variable substitute z = c^(-1) y (beta^(-1)c^(-1)y in diff mode)."""
        if self.mode is Mode.SKEW_GROUP_RING:
            return HopfElem(self, {(self.c.inverse(), 0, 1):
                                   Cyclotomic.one(self.conductor)})
        return HopfElem(self, {(self.group.identity(), 0, 1):
                               Cyclotomic.one(self.conductor)})

    def from_group_alg(self, u: GroupAlgElem) -> "HopfElem":
        return HopfElem(self, {(g, 0, 0): c for g, c in u.terms.items()})

    def scalar(self, value) -> Cyclotomic:
        if isinstance(value, Cyclotomic):
            if value.conductor != self.conductor:
                raise ValueError("scalar has wrong conductor")
            return value
        return Cyclotomic.rational(self.conductor, value)

    # -- internal commutation machinery (diff mode) --

    def _z_past_x(self, j: int, k: int) -> dict:
        """PBW expansion of z^j x^k as {(group elt, xdeg, zdeg): coeff}."""
        key = (j, k)
        cached = self._z_past_x_cache.get(key)
        if cached is not None:
            return cached
        if j == 0:
            out = {(self.group.identity(), k, 0): root_of_unity(self.conductor, 0)}
        else:
            prev = self._z_past_x(j - 1, k)
            out = {}
            for (m, a, bdeg), cm in prev.items():
                scal = cm * self.eta.eval(m)
                _acc(out, (m, a, bdeg + 1), scal)
                if a >= 1:
                    w = self._wind_left(a)
                    for mp, cw in w.terms.items():
                        _acc(out, (m * mp, a - 1, bdeg), scal * cw)
        self._z_past_x_cache[key] = out
        return out

    def _wind_left(self, a: int) -> GroupAlgElem:
        """tau_chi^(a-1) applied to [e]_a; the coefficient left of x^(a-1)."""
        cached = self._wind_cache.get(a)
        if cached is None:
            cached = wind(self.e, a, self, character=self.chi.inverse())
            self._wind_cache[a] = cached
        return cached

    # -- serialization helpers --

    def config_dict(self) -> dict:
        beta = self.beta
        return {
            "conductor": self.conductor,
            "group": {"free_rank": self.group.free_rank,
                      "torsion": list(self.group.torsion_orders)},
            "chi": list(self.chi.exps),
            "eta": list(self.eta.exps),
            "b": list(self.b.exps),
            "c": list(self.c.exps),
            "beta": cyclotomic_to_literal(beta),
        }

    def fingerprint(self) -> str:
        import hashlib
        import json
        blob = json.dumps(self.config_dict(), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def __repr__(self):
        return (f"AlgebraSpec(mode={self.mode.value}, group={self.group!r}, "
                f"conductor={self.conductor})")


def cyclotomic_to_literal(v: Cyclotomic):
    """Smallest matching literal form: rational string, zeta power, or coeffs."""
    if v.is_rational():
        return str(v.as_rational())
    k = zeta_log(v)
    if k is not None:
        return {"zeta_pow": k}
    return {"coeffs": [str(c) for c in v.coeffs]}


def literal_to_cyclotomic(lit, conductor: int) -> Cyclotomic:
    if _is_int(lit) or isinstance(lit, str):
        return Cyclotomic.rational(conductor, lit)
    if isinstance(lit, dict):
        if "zeta_pow" in lit:
            if not _is_int(lit["zeta_pow"]):
                raise ValueError(f"zeta_pow must be an integer, not {lit['zeta_pow']!r}")
            return root_of_unity(conductor, lit["zeta_pow"])
        if "coeffs" in lit:
            if len(lit["coeffs"]) > conductor:
                raise ValueError("coefficient literal longer than the conductor")
            return Cyclotomic.from_zeta_coeffs(conductor, lit["coeffs"])
    raise ValueError(f"cannot interpret {lit!r} as a field element")


def validate_spec(group: AbelianGroup, chi: Character, eta: Character,
                  b: GroupElement, c: GroupElement, beta) -> AlgebraSpec:
    """Build an AlgebraSpec, enforcing the existence constraints.

    Rejects eta(b) != chi(c)^(-1) always, and eta != chi^(-1) whenever
    beta(1 - cb) != 0.
    """
    if chi.group != group or eta.group != group:
        raise SpecError("characters must live on the given group")
    if b.group != group or c.group != group:
        raise SpecError("b and c must be elements of the given group")
    if chi.conductor != eta.conductor:
        raise SpecError("chi and eta must share one conductor")
    conductor = chi.conductor
    if not isinstance(beta, Cyclotomic):
        beta = Cyclotomic.rational(conductor, beta)
    if beta.conductor != conductor:
        raise SpecError("beta has the wrong conductor")
    q = eta.eval(b)
    if q != chi.eval(c).inverse():
        raise SpecError("constraint eta(b) = chi(c)^(-1) is violated")
    diff = (not beta.is_zero()) and not (c * b).is_identity()
    if diff and eta != chi.inverse():
        raise SpecError(
            "beta(1 - cb) != 0 forces eta = chi^(-1), which fails here")
    mode = Mode.DIFFERENTIAL_OPERATOR if diff else Mode.SKEW_GROUP_RING
    return AlgebraSpec(group, chi, eta, b, c, beta, conductor, mode, q)


class HopfElem(_Terms):
    """Element in the internal PBW basis {g x^i w^j}.

    w is y in SkewGroupRing mode and the normalized z in
    DifferentialOperator mode.  Keys are (GroupElement, i, j).
    """

    __slots__ = ("spec",)
    _mismatch = "elements belong to different algebra instances"

    def __init__(self, spec: AlgebraSpec, terms):
        self.spec = spec
        self.terms = _nonzero(terms)

    def _space(self):
        return self.spec

    def _like(self, terms):
        return HopfElem(self.spec, terms)

    def __mul__(self, other):
        if isinstance(other, HopfElem):
            return multiply(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers are not defined in H")
        out = self.spec.one()
        for _ in range(k):
            out = multiply(out, self)
        return out

    def raw_terms(self) -> dict:
        """Terms in the raw (g, x^i, y^j) basis."""
        out = {}
        for key, coeff in self.terms.items():
            raw, factor = _raw_key(self.spec, key)
            out[raw] = coeff * factor
        return out

    def sorted_raw(self):
        """Sorted monomial list [((exps), i, j, coeff)] in the raw basis."""
        items = [((g.exps), i, j, c) for (g, i, j), c in self.raw_terms().items()]
        return sorted(items, key=lambda t: (t[0], t[1], t[2]))

    def __repr__(self):
        if not self.terms:
            return "H(0)"
        bits = []
        for (g, i, j), c in sorted(self.terms.items(),
                                   key=lambda kv: (kv[0][0].exps, kv[0][1], kv[0][2])):
            bits.append(f"{c!r}*{g!r}x^{i}w^{j}")
        return "H(" + " + ".join(bits) + ")"


def _raw_key(spec: AlgebraSpec, key):
    """(raw key, factor) with key = factor * raw key in the raw (g, x^i, y^j)
    basis: g x^i z^j = beta^-j eta(c)^(-j(j-1)/2) chi(c)^(-ij) (g c^-j) x^i y^j
    in diff mode, where no two keys share a raw key; any other key is raw."""
    g, i, j = key
    if spec.mode is Mode.SKEW_GROUP_RING or j == 0:
        return key, root_of_unity(spec.conductor, 0)
    c = spec.c
    root = -(j * (j - 1) // 2) * spec.eta.exponent(c) - i * j * spec.chi.exponent(c)
    return (g * c ** (-j), i, j), _times_root(spec.beta ** (-j), root, spec.conductor)


def _times_root(coeff: Cyclotomic, k: int, n: int) -> Cyclotomic:
    """coeff * zeta_n^k."""
    k %= n
    return coeff * root_of_unity(n, k) if k else coeff


def _acc_rows(out: dict, coeff: Cyclotomic, rows, n: int, root: int = 0):
    """Add coeff zeta^root times the rows (key, r, cm) of sum cm zeta^r key."""
    one = root_of_unity(n, 0)
    for key, r, cm in rows:
        _acc(out, key, _times_root(coeff if cm is one else coeff * cm, root + r, n))


def _moved_root(spec: AlgebraSpec, h: GroupElement, i: int, j: int) -> int:
    """r with x^i w^j h = zeta^r h x^i w^j, that is chi(h)^i eta(h)^j; a zero
    degree skips its character."""
    root = spec.chi.exponent(h, i) if i else 0
    if j:
        root += spec.eta.exponent(h, j)
    return root


def _monomial_product(spec: AlgebraSpec, a, b):
    """The product of the keys a = g x^i w^j and b = h x^k w^l in PBW form, as
    rows (key, r, coeff) of sum coeff zeta^r key.

    h moves left past x^i w^j as chi(h)^i eta(h)^j (_moved_root).  Skew
    mode: w^j x^k = q^(jk) x^k w^j, one row with coeff 1, and r is left
    unreduced (callers reduce it in _times_root).  Diff mode:
    the rows of z^j x^k = sum cm m x^a z^b, where x^i m = chi(m)^i m x^i
    adds to r; a zero cm (a vanishing q-binomial) gives no row.
    """
    g, i, j = a
    h, k, l = b
    chi = spec.chi
    gh = g * h
    root = _moved_root(spec, h, i, j)
    if spec.mode is Mode.SKEW_GROUP_RING:
        return (((gh, i + k, j + l), root + spec._q_exponent * j * k,
                 root_of_unity(spec.conductor, 0)),)
    return [((gh if m.is_identity() else gh * m, i + xdeg, wdeg + l),
             (root + chi.exponent(m, i)) if i else root, cm)
            for (m, xdeg, wdeg), cm in spec._z_past_x(j, k).items() if cm]


def multiply(a: HopfElem, b: HopfElem) -> HopfElem:
    """Exact product in PBW normal form."""
    a._check(b)
    spec = a.spec
    out = {}
    for ka, ca in a.terms.items():
        for kb, cb in b.terms.items():
            _acc_rows(out, ca * cb, _monomial_product(spec, ka, kb), spec.conductor)
    return HopfElem(spec, out)


def wind(u: GroupAlgElem, i: int, spec: AlgebraSpec,
         character: Character | None = None) -> GroupAlgElem:
    """Winding sum [u]_i = sum_{k<i} sigma^(-k)(u), sigma(g) = chi(g) g.

    Passing a different character swaps the winding direction; the
    eta-directed wind is wind(u, i, spec, character=spec.eta).
    """
    chi = character if character is not None else spec.chi
    out = GroupAlgElem.zero(spec.group, spec.conductor)
    for k in range(i):
        out = out + u.twist(chi, -k)
    return out


# -- tensor square --

class TensorElem(_Terms):
    """Element of H (x) H with componentwise PBW monomial keys."""

    __slots__ = ("spec",)
    _mismatch = "tensors belong to different algebra instances"

    def __init__(self, spec: AlgebraSpec, terms):
        self.spec = spec
        self.terms = _nonzero(terms)

    def _space(self):
        return self.spec

    def _like(self, terms):
        return TensorElem(self.spec, terms)

    @staticmethod
    def of(a: HopfElem, b: HopfElem) -> "TensorElem":
        a._check(b)
        out = {}
        for ka, ca in a.terms.items():
            for kb, cb in b.terms.items():
                _acc(out, (ka, kb), ca * cb)
        return TensorElem(a.spec, out)

    def __mul__(self, other):
        if not isinstance(other, TensorElem):
            return self.scale(other)
        self._check(other)
        spec = self.spec
        n = spec.conductor
        one = root_of_unity(n, 0)
        out = {}
        for (a1, a2), ca in self.terms.items():
            for (b1, b2), cb in other.terms.items():
                f = ca * cb
                rows2 = _monomial_product(spec, a2, b2)
                for key1, r1, c1 in _monomial_product(spec, a1, b1):
                    f1 = f if c1 is one else f * c1
                    for key2, r2, c2 in rows2:
                        _acc(out, (key1, key2),
                             _times_root(f1 if c2 is one else f1 * c2, r1 + r2, n))
        return TensorElem(spec, out)

    def __repr__(self):
        return f"Tensor({len(self.terms)} terms)"


# -- Hopf structure maps --
#
# Both PBW generators are skew-primitive: Delta(v) = v (x) L + R (x) v and
# v g = char(g) g v, with (char, R, L) = (chi, b, 1) for x and (eta, c, 1)
# for y (skew mode) or (eta, 1, c^(-1)) for z (diff mode).  Then
# (v (x) L)(R (x) v) = p (R (x) v)(v (x) L) with p = char(R L^(-1)), so the
# q-binomial theorem and S(v) = -char(L)^(-1) (RL)^(-1) v give closed forms
# for Delta(v^n) and S(v)^n.

def _skew_primitives(spec: AlgebraSpec):
    """(character, R, L) for x and for the internal second variable w."""
    ident = spec.group.identity()
    if spec.mode is Mode.SKEW_GROUP_RING:
        w = (spec.eta, spec.c, ident)
    else:
        w = (spec.eta, ident, spec.c.inverse())
    return (spec.chi, spec.b, ident), w


def _cop_power(gen, n: int):
    """Delta(v^n) = sum_l binom(n, l)_p char(L)^(l(n-l)) R^l v^(n-l) (x) L^(n-l) v^l,
    as a list of (coeff, R^l, L^(n-l), l)."""
    char, R, L = gen
    row = _q_binomial_row(n, char.eval(R * L.inverse()))
    return [(row[l] * char.eval_pow(L, l * (n - l)), R ** l, L ** (n - l), l)
            for l in range(n + 1)]


def _pack_cop(t: TensorElem):
    """The table (group parts, values, rows) of t: one flat array of unsigned
    ints holds (h1, i1, j1, h2, i2, j2, v) per term v h1 x^i1 w^j1 (x)
    h2 x^i2 w^j2, with h1, h2 and v indices into the first two, and equal
    values are one object per spec."""
    shared, parts, values, rows = t.spec._cop_values, {}, {}, []
    for ((h1, i1, j1), (h2, i2, j2)), v in t.terms.items():
        rows += (parts.setdefault(h1, len(parts)), i1, j1,
                 parts.setdefault(h2, len(parts)), i2, j2,
                 values.setdefault(shared.setdefault(v, v), len(values)))
    return tuple(parts), tuple(values), array('I', rows)


def _cop_rows(spec: AlgebraSpec, degrees, g: GroupElement, coeff: Cyclotomic):
    """coeff (g (x) g) T as pairs ((left key, right key), coeff), where T is
    the group-free table Delta(x^i w^j) for degrees (i, j) (closed form) or
    Delta(x^i w^j) Delta(x^k w^l) for (i, j, k, l) (one TensorElem product).
    T is packed into spec._cop_tables at first use (_pack_cop) and read with
    one group product per group part and one field product per value."""
    table = spec._cop_tables.get(degrees)
    if table is None:
        if len(degrees) == 2:
            # Delta(x^i) Delta(w^j) is already in PBW order; moving x^(i-k)
            # past R^l and x^k past L^(j-l) gives the only extra factors
            (gx, gw), (i, j), chi = _skew_primitives(spec), degrees, spec.chi
            t = TensorElem(spec, {
                ((lx * lw, i - k, j - l), (rx * rw, k, l)):
                    cx * cw * chi.eval_pow(lw, i - k) * chi.eval_pow(rw, k)
                for cx, lx, rx, k in _cop_power(gx, i)
                for cw, lw, rw, l in _cop_power(gw, j)})
        else:
            e, one = spec.group.identity(), Cyclotomic.one(spec.conductor)
            t = (TensorElem(spec, dict(_cop_rows(spec, degrees[:2], e, one)))
                 * TensorElem(spec, dict(_cop_rows(spec, degrees[2:], e, one))))
        table = spec._cop_tables[degrees] = _pack_cop(t)
    parts, values, rows = table
    moved = [g * m for m in parts]
    scaled = [coeff * v for v in values]
    it = iter(rows)
    return [(((moved[h1], i1, j1), (moved[h2], i2, j2)), scaled[v])
            for h1, i1, j1, h2, i2, j2, v in zip(*[it] * 7)]


def _cop_key(spec: AlgebraSpec, key, coeff: Cyclotomic):
    """coeff Delta(g x^i w^j) = coeff (g (x) g) Delta(x^i w^j) as pairs
    ((left key, right key), coeff) (_cop_rows)."""
    g, i, j = key
    return _cop_rows(spec, (i, j), g, coeff)


def _cop_product_key(spec: AlgebraSpec, a, b, coeff: Cyclotomic):
    """coeff Delta(a) Delta(b) for the keys a = g x^i w^j and b = h x^k w^l
    (_cop_rows).  Every term of Delta(x^i w^j) has total degrees (i, j), so
    h (x) h moves left past it as chi(h)^i eta(h)^j and Delta(a) Delta(b) is
    chi(h)^i eta(h)^j (gh (x) gh) Delta(x^i w^j) Delta(x^k w^l)."""
    g, i, j = a
    h, k, l = b
    return _cop_rows(spec, (i, j, k, l), g * h,
                     _times_root(coeff, _moved_root(spec, h, i, j), spec.conductor))


def comultiply(a: HopfElem) -> TensorElem:
    """Delta extended linearly, key by key (_cop_key)."""
    spec = a.spec
    out = {}
    for key, c in a.terms.items():
        for pair, v in _cop_key(spec, key, c):
            _acc(out, pair, v)
    return TensorElem(spec, out)


def counit(a: HopfElem) -> Cyclotomic:
    acc = Cyclotomic.zero(a.spec.conductor)
    for (g, i, j), c in a.terms.items():
        if i == 0 and j == 0:
            acc = acc + c
    return acc


def _antipode_power(gen, n: int):
    """S(v)^n = (-char(L)^(-1))^n char(u)^(n(n-1)/2) u^n v^n with u = (RL)^(-1),
    as (coeff, u^n)."""
    char, R, L = gen
    u = (R * L).inverse()
    coeff = char.eval(L ** (-n) * u ** (n * (n - 1) // 2))
    return (-coeff if n % 2 else coeff), u ** n


def _antipode_key(spec: AlgebraSpec, key):
    """S(g x^i w^j) = S(w)^j S(x)^i g^(-1) as rows (key, r, coeff) of
    sum coeff zeta^r key.

    With S(v)^k = s_v u_v^k v^k: S(x)^i g^(-1) = s_x chi(g^(-1))^i h x^i for
    h = u_x^i g^(-1), so S of the key is s_w s_x chi(g^(-1))^i times the
    kernel product of the keys u_w^j w^j and h x^i.  (s_w s_x, u_x^i, u_w^j)
    is cached on the spec per (i, j).
    """
    g, i, j = key
    cached = spec._antipode_cache.get((i, j))
    if cached is None:
        gx, gw = _skew_primitives(spec)
        sx, ux = _antipode_power(gx, i)
        sw, uw = _antipode_power(gw, j)
        cached = spec._antipode_cache[(i, j)] = (sw * sx, ux, uw)
    s, ux, uw = cached
    g_inv = g.inverse()
    root = spec.chi.exponent(g_inv, i) if i else 0
    one = root_of_unity(spec.conductor, 0)
    return [(k, root + r, s if cm is one else s * cm)
            for k, r, cm in _monomial_product(spec, (uw, 0, j), (ux * g_inv, i, 0))]


def antipode(a: HopfElem) -> HopfElem:
    """S extended linearly, key by key (_antipode_key)."""
    spec = a.spec
    out = {}
    for key, c in a.terms.items():
        _acc_rows(out, c, _antipode_key(spec, key), spec.conductor)
    return HopfElem(spec, out)


# -- randomized structural checks --

def random_cyclotomic(spec: AlgebraSpec, rng: Random, nonzero=False) -> Cyclotomic:
    """Up to min(N, 4) terms a zeta^k, a in [-2, 2] and k in [0, N), plus
    an integer in [-3, 3] half the time, summed as one integer vector over
    zeta^0 .. zeta^(N-1) and reduced once."""
    conductor = spec.conductor
    phi = euler_phi(conductor)
    while True:
        vec = [0] * conductor
        for _ in range(min(conductor, 4)):
            a = rng.randint(-2, 2)
            if a:
                vec[rng.randrange(conductor)] += a
        if rng.random() < 0.5:
            vec[0] += rng.randint(-3, 3)
        v = _canonical(conductor, _fold(conductor, vec, phi), 1)
        if not (nonzero and v.is_zero()):
            return v


def random_group_element(group: AbelianGroup, rng: Random) -> GroupElement:
    exps = []
    for i in range(group.free_rank):
        exps.append(rng.randint(-3, 3))
    for n in group.torsion_orders:
        exps.append(rng.randrange(n))
    return group.element(exps)


def random_element(spec: AlgebraSpec, rng: Random, max_degree: int = 3,
                   max_terms: int = 3) -> HopfElem:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        g = random_group_element(spec.group, rng)
        i = rng.randint(0, max_degree)
        j = rng.randint(0, max_degree)
        terms[(g, i, j)] = random_cyclotomic(spec, rng, nonzero=True)
    return HopfElem(spec, terms)


def _describe(elem: HopfElem):
    return [{"g": list(g.exps), "i": i, "j": j, "coeff": cyclotomic_to_literal(c)}
            for (g, i, j), c in sorted(elem.terms.items(),
                                       key=lambda kv: (kv[0][0].exps, kv[0][1], kv[0][2]))]


def hopf_axiom_check(spec: AlgebraSpec, sample_count: int = 50,
                     max_degree: int = 3, seed: int = 0) -> Report:
    """Randomized verification of the Hopf axioms on sampled elements.

    Checks coassociativity, both counit laws, both antipode laws, and that
    Delta and epsilon are algebra maps on sampled pairs.  Delta(a) Delta(b)
    is summed over the key pairs of a and b from _cop_product_key, whose
    per-spec table holds at most (max_degree+1)^4 products.  ValueError for
    sample_count < 1 (zero samples would certify nothing) or max_degree < 0.
    """
    if sample_count < 1:
        raise ValueError(f"sample_count must be at least 1, not {sample_count}")
    if max_degree < 0:
        raise ValueError(f"max_degree must be at least 0, not {max_degree}")
    rng = Random(seed)
    n = spec.conductor
    witnesses = []

    def fail(kind, payload):
        witnesses.append({"check": kind, "element": payload})

    for _ in range(sample_count):
        a = random_element(spec, rng, max_degree=max_degree)
        da = comultiply(a)
        # one pass over the terms c k1 (x) k2 of Delta(a) for coassociativity,
        # the counit laws (eps (x) id)Delta = a = (id (x) eps)Delta and the
        # antipode laws m(S (x) id)Delta = eps(a) 1 = m(id (x) S)Delta
        left, right, eps_id, id_eps, s_left, s_right = {}, {}, {}, {}, {}, {}
        for (k1, k2), c in da.terms.items():
            for (l1, l2), v in _cop_key(spec, k1, c):
                _acc(left, (l1, l2, k2), v)
            for (r1, r2), v in _cop_key(spec, k2, c):
                _acc(right, (k1, r1, r2), v)
            if k1[1] == k1[2] == 0:
                _acc(eps_id, k2, c)
            if k2[1] == k2[2] == 0:
                _acc(id_eps, k1, c)
            for sk, r, v in _antipode_key(spec, k1):
                _acc_rows(s_left, c * v, _monomial_product(spec, sk, k2), n, r)
            for sk, r, v in _antipode_key(spec, k2):
                _acc_rows(s_right, c * v, _monomial_product(spec, k1, sk), n, r)
        if _nonzero(left) != _nonzero(right):
            fail("coassociativity", _describe(a))
        if _nonzero(eps_id) != a.terms or _nonzero(id_eps) != a.terms:
            fail("counit", _describe(a))
        target = spec.unit(counit(a)).terms
        if _nonzero(s_left) != target or _nonzero(s_right) != target:
            fail("antipode", _describe(a))

        b = random_element(spec, rng, max_degree=max_degree)
        ab = multiply(a, b)
        # Delta(a) Delta(b), summed key pair by key pair
        prod = {}
        for ka, ca in a.terms.items():
            for kb, cb in b.terms.items():
                for pair, v in _cop_product_key(spec, ka, kb, ca * cb):
                    _acc(prod, pair, v)
        if comultiply(ab).terms != _nonzero(prod):
            fail("delta_multiplicative", [_describe(a), _describe(b)])
        if counit(ab) != counit(a) * counit(b):
            fail("counit_multiplicative", [_describe(a), _describe(b)])

    return Report(name="hopf_axiom_check", passed=not witnesses,
                  facts={"mode": spec.mode.value, "samples": sample_count,
                         "max_degree": max_degree,
                         "checks": dict.fromkeys(
                             ("coassociativity", "counit", "antipode",
                              "delta_multiplicative", "counit_multiplicative"),
                             sample_count)},
                  witnesses=witnesses, seed=seed)


def antipode_order(spec: AlgebraSpec) -> int:
    """Order of S: twice the lcm of the orders of char(R L^(-1)).

    S^2 fixes the group and multiplies each skew-primitive v by
    char(R L^(-1)), while no odd power of S fixes x:
    S^(2t+1)(x) = -chi(b)^t b^(-1) x.
    """
    return 2 * lcm(*(char.eval(R * L.inverse()).multiplicative_order()
                     for char, R, L in _skew_primitives(spec)))


def change_of_variables_check(spec: AlgebraSpec, max_power: int = 8) -> Report:
    """Certify the defining behavior of z = c^(-1)y (normalized in diff mode).

    Skew mode: z commutes with x and Delta(z) = z (x) c^(-1) + 1 (x) z.
    Diff mode: z x - x z = c^(-1) - b, the power laws
    z x^n = x^n z + ([n]_q c^(-1) - [n]_q^(-1) b) x^(n-1) and
    x z^n = z^n x + ([n]_q b - [n]_q^(-1) c^(-1)) z^(n-1), and the winding
    form z x^i - x^i z = x^(i-1) [e]_i, for 1 <= n, i <= max_power.
    """
    failures = []
    z = spec.z()
    x = spec.x()
    zx = multiply(z, x)
    xz = multiply(x, z)
    cinv = spec.c.inverse()
    one = Cyclotomic.one(spec.conductor)

    dz = comultiply(z)
    dz_expected = TensorElem.of(z, spec.group_element(cinv)) + TensorElem.of(spec.one(), z)
    if dz != dz_expected:
        failures.append({"check": "coproduct_of_z"})

    if spec.mode is Mode.SKEW_GROUP_RING:
        if zx != xz:
            failures.append({"check": "z_commutes_with_x"})
    else:
        e_elem = spec.from_group_alg(spec.e)
        if zx - xz != e_elem:
            failures.append({"check": "z_x_commutator"})
        q = spec.chi.eval(spec.c).inverse()   # equals eta(b)
        # running powers: x^(n-1), z^(n-1) from the step before, one
        # product each for x^n, z^n
        xprev = zprev = spec.one()
        for n in range(1, max_power + 1):
            xn = multiply(xprev, x)
            zn = multiply(zprev, z)
            lhs = multiply(z, xn) - multiply(xn, z)
            coeff = GroupAlgElem(spec.group, spec.conductor, {
                cinv: q_int(n, q), spec.b: -q_int(n, q.inverse())})
            rhs = multiply(spec.from_group_alg(coeff), xprev)
            if lhs != rhs:
                failures.append({"check": "z_past_x_power", "n": n})
            lhs2 = multiply(x, zn) - multiply(zn, x)
            coeff2 = GroupAlgElem(spec.group, spec.conductor, {
                spec.b: q_int(n, q), cinv: -q_int(n, q.inverse())})
            rhs2 = multiply(spec.from_group_alg(coeff2), zprev)
            if lhs2 != rhs2:
                failures.append({"check": "x_past_z_power", "n": n})
            wind_rhs = multiply(xprev, spec.from_group_alg(wind(spec.e, n, spec)))
            if lhs != wind_rhs:
                failures.append({"check": "winding_commutator", "n": n})
            xprev, zprev = xn, zn

    return Report(name="change_of_variables_check", passed=not failures,
                  facts={"mode": spec.mode.value, "max_power": max_power},
                  witnesses=failures)
