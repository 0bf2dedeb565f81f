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

One monomial kernel, _monomial_product, gives x^i w^j x^k w^l as PBW rows
(m, xdeg, wdeg, r, coeff): one row q^(jk) x^(i+k) w^(j+l) in skew mode, the
rows of z^j x^k in diff mode.  multiply (on H) and TensorElem.__mul__ (on
H (x) H, factor by factor) both read it: a product of two monomials adds
the exponents of its roots of unity (chi(h)^i eta(h)^j and each r) and
multiplies by one root, with no element built per pair.

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
from math import lcm
from random import Random

from .abgroup import AbelianGroup, Character, GroupElement
from .cyclotomic import (Cyclotomic, _coerce_coeff, q_binomial, q_int, root_of_unity,
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
        self._cop_cache = {}

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
    if isinstance(lit, (int, str)):
        return Cyclotomic.rational(conductor, lit)
    if isinstance(lit, dict):
        if "zeta_pow" in lit:
            return root_of_unity(conductor, int(lit["zeta_pow"]))
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
        spec = self.spec
        if spec.mode is Mode.SKEW_GROUP_RING:
            return dict(self.terms)
        out = {}
        eta_c = spec.eta.eval(spec.c)
        chi_c = spec.chi.eval(spec.c)
        beta_inv = spec.beta.inverse()
        for (g, i, j), coeff in self.terms.items():
            # g x^i z^j = beta^-j eta(c)^(-j(j-1)/2) chi(c)^(-ij) (g c^-j) x^i y^j
            factor = (beta_inv ** j) * (eta_c ** (-(j * (j - 1) // 2))) \
                * (chi_c ** (-(i * j)))
            key = (g * (spec.c ** (-j)), i, j)
            _acc(out, key, coeff * factor)
        return _nonzero(out)

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


def _times_root(coeff: Cyclotomic, k: int, n: int) -> Cyclotomic:
    """coeff * zeta_n^k."""
    k %= n
    return coeff * root_of_unity(n, k) if k else coeff


def _monomial_product(spec: AlgebraSpec, i: int, j: int, k: int, l: int):
    """x^i w^j x^k w^l in PBW form, as rows (m, xdeg, wdeg, r, coeff) of
    sum coeff zeta^r m x^xdeg w^wdeg.

    Skew mode: w^j x^k = q^(jk) x^k w^j, one row with m = 1 and coeff 1.
    Diff mode: the rows of z^j x^k = sum cm m x^a z^b, where x^i m =
    chi(m)^i m x^i gives r.  A zero cm stays (a vanishing q-binomial).
    """
    if spec.mode is Mode.SKEW_GROUP_RING:
        return ((spec.group.identity(), i + k, j + l, spec.eta.exponent(spec.b, j * k),
                 root_of_unity(spec.conductor, 0)),)
    chi = spec.chi
    return [(m, i + a, b + l, chi.exponent(m, i), cm)
            for (m, a, b), cm in spec._z_past_x(j, k).items()]


def multiply(a: HopfElem, b: HopfElem) -> HopfElem:
    """Exact product in PBW normal form."""
    a._check(b)
    spec = a.spec
    out = {}
    chi, eta, n = spec.chi, spec.eta, spec.conductor
    one = root_of_unity(n, 0)
    # the roots of unity chi(h)^i eta(h)^j and zeta^r of each row multiply
    # as one root: their exponents add
    for (g, i, j), ca in a.terms.items():
        for (h, k, l), cb in b.terms.items():
            coeff = ca * cb
            root = chi.exponent(h, i) + eta.exponent(h, j)
            gh = g * h
            for m, xdeg, wdeg, r, cm in _monomial_product(spec, i, j, k, l):
                c = coeff if cm is one else coeff * cm
                _acc(out, (gh if m.is_identity() else gh * m, xdeg, wdeg),
                     _times_root(c, root + r, n))
    return HopfElem(spec, out)


def wind(u: GroupAlgElem, i: int, spec: AlgebraSpec, character: Character | None = None) -> GroupAlgElem:
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
        chi, eta, n = spec.chi, spec.eta, spec.conductor
        one = root_of_unity(n, 0)
        out = {}
        for ((g1, i1, j1), (g2, i2, j2)), ca in self.terms.items():
            for ((h1, k1, l1), (h2, k2, l2)), cb in other.terms.items():
                f = ca * cb
                # chi(h1)^i1 eta(h1)^j1 chi(h2)^i2 eta(h2)^j2 and both row
                # roots multiply as one root
                root = (chi.exponent(h1, i1) + eta.exponent(h1, j1)
                        + chi.exponent(h2, i2) + eta.exponent(h2, j2))
                gh1, gh2 = g1 * h1, g2 * h2
                # zero rows (vanishing q-binomials) add nothing and are skipped
                rows2 = _monomial_product(spec, i2, j2, k2, l2)
                for m1, x1, w1, r1, c1 in _monomial_product(spec, i1, j1, k1, l1):
                    if c1.is_zero():
                        continue
                    key1 = (gh1 if m1.is_identity() else gh1 * m1, x1, w1)
                    f1 = f if c1 is one else f * c1
                    for m2, x2, w2, r2, c2 in rows2:
                        if c2.is_zero():
                            continue
                        key2 = (gh2 if m2.is_identity() else gh2 * m2, x2, w2)
                        _acc(out, (key1, key2),
                             _times_root(f1 if c2 is one else f1 * c2, root + r1 + r2, n))
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
    p = char.eval(R * L.inverse())
    return [(q_binomial(n, l, p) * char.eval_pow(L, l * (n - l)),
             R ** l, L ** (n - l), l) for l in range(n + 1)]


def _cop_monomial(spec: AlgebraSpec, i: int, j: int) -> dict:
    """Delta(x^i w^j) as {(left key, right key): coeff}, cached on the spec.

    The product Delta(x^i) Delta(w^j) is already in PBW order; moving x^(i-k)
    past R^l and x^k past L^(j-l) gives the only extra factors.
    """
    cached = spec._cop_cache.get((i, j))
    if cached is None:
        gx, gw = _skew_primitives(spec)
        chi = spec.chi
        cached = {}
        for cx, lx, rx, k in _cop_power(gx, i):
            for cw, lw, rw, l in _cop_power(gw, j):
                coeff = cx * cw * chi.eval_pow(lw, i - k) * chi.eval_pow(rw, k)
                if not coeff.is_zero():
                    cached[((lx * lw, i - k, j - l), (rx * rw, k, l))] = coeff
        spec._cop_cache[(i, j)] = cached
    return cached


def comultiply(a: HopfElem) -> TensorElem:
    """Delta(g x^i w^j) = (g (x) g) Delta(x^i w^j): a relabelling of cached keys."""
    spec = a.spec
    out = {}
    for (g, i, j), c in a.terms.items():
        for ((h1, i1, j1), (h2, i2, j2)), v in _cop_monomial(spec, i, j).items():
            _acc(out, ((g * h1, i1, j1), (g * h2, i2, j2)), c * v)
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


def antipode(a: HopfElem) -> HopfElem:
    """S(g x^i w^j) = S(w)^j S(x)^i g^(-1), extended anti-multiplicatively.

    With S(v)^k = s_v u_v^k v^k: S(x)^i g^(-1) = sx chi(g^(-1))^i h x^i for
    h = u_x^i g^(-1), and u_w^j w^j h x^i = eta(h)^j u_w^j h w^j x^i, whose
    w^j x^i is the monomial kernel's rows.
    """
    spec = a.spec
    gx, gw = _skew_primitives(spec)
    chi, eta, n = spec.chi, spec.eta, spec.conductor
    one = root_of_unity(n, 0)
    out = {}
    for (g, i, j), c in a.terms.items():
        sx, ux = _antipode_power(gx, i)
        sw, uw = _antipode_power(gw, j)
        g_inv = g.inverse()
        h = ux * g_inv
        gh = uw * h
        coeff = sw * c * sx
        root = chi.exponent(g_inv, i) + eta.exponent(h, j)
        for m, xdeg, wdeg, r, cm in _monomial_product(spec, 0, j, i, 0):
            v = _times_root(coeff if cm is one else coeff * cm, root + r, n)
            if v:
                _acc(out, (gh if m.is_identity() else gh * m, xdeg, wdeg), v)
    return HopfElem(spec, out)


# -- randomized structural checks --

def random_cyclotomic(spec: AlgebraSpec, rng: Random, nonzero=False) -> Cyclotomic:
    conductor = spec.conductor
    while True:
        v = Cyclotomic.zero(conductor)
        for k in range(min(conductor, 4)):
            a = rng.randint(-2, 2)
            if a:
                v = v + root_of_unity(conductor, rng.randrange(conductor)) * a
        if rng.random() < 0.5:
            v = v + rng.randint(-3, 3)
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


def _triple_from_tensor(t: TensorElem, slot: int) -> dict:
    """Delta applied to tensor factor slot, as {(k1, k2, k3): coeff}:
    slot 0 gives (Delta (x) id), slot 1 gives (id (x) Delta)."""
    spec = t.spec
    out = {}
    for pair, c in t.terms.items():
        for split, v in comultiply(HopfElem(spec, {pair[slot]: c})).terms.items():
            _acc(out, pair[:slot] + split + pair[slot + 1:], v)
    return _nonzero(out)


def _describe(elem: HopfElem):
    return [{"g": list(g.exps), "i": i, "j": j, "coeff": cyclotomic_to_literal(c)}
            for (g, i, j), c in sorted(elem.terms.items(),
                                       key=lambda kv: (kv[0][0].exps, kv[0][1], kv[0][2]))]


def hopf_axiom_check(spec: AlgebraSpec, sample_count: int = 50,
                     max_degree: int = 3, seed: int = 0) -> Report:
    """Randomized verification of the Hopf axioms on sampled elements.

    Checks coassociativity, both counit laws, both antipode laws, and that
    Delta and epsilon are algebra maps on sampled pairs.
    """
    rng = Random(seed)
    one = Cyclotomic.one(spec.conductor)
    witnesses = []
    checks = {"coassociativity": 0, "counit": 0, "antipode": 0,
              "delta_multiplicative": 0, "counit_multiplicative": 0}

    def fail(kind, payload):
        witnesses.append({"check": kind, "element": payload})

    for _ in range(sample_count):
        a = random_element(spec, rng, max_degree=max_degree)
        da = comultiply(a)
        left = _triple_from_tensor(da, 0)
        right = _triple_from_tensor(da, 1)
        checks["coassociativity"] += 1
        if left != right:
            fail("coassociativity", _describe(a))
        # counit laws (eps (x) id)Delta = a = (id (x) eps)Delta and antipode
        # laws m(S (x) id)Delta = eps * 1 = m(id (x) S)Delta, one pass
        eps_id, id_eps, s_left, s_right = {}, {}, {}, {}
        # c rides in m1 (and in the copy m2c of m2), so no product by c follows
        for (k1, k2), c in da.terms.items():
            m1 = HopfElem(spec, {k1: c})
            m2 = HopfElem(spec, {k2: one})
            m2c = HopfElem(spec, {k2: c})
            _acc(eps_id, k2, counit(m1))
            _acc(id_eps, k1, counit(m2c))
            for k, v in multiply(antipode(m1), m2).terms.items():
                _acc(s_left, k, v)
            for k, v in multiply(m1, antipode(m2)).terms.items():
                _acc(s_right, k, v)
        checks["counit"] += 1
        if HopfElem(spec, eps_id) != a or HopfElem(spec, id_eps) != a:
            fail("counit", _describe(a))
        target = spec.unit(counit(a))
        checks["antipode"] += 1
        if HopfElem(spec, s_left) != target or HopfElem(spec, s_right) != target:
            fail("antipode", _describe(a))

        b = random_element(spec, rng, max_degree=max_degree)
        ab = multiply(a, b)
        checks["delta_multiplicative"] += 1
        if comultiply(ab) != da * comultiply(b):
            fail("delta_multiplicative", [_describe(a), _describe(b)])
        checks["counit_multiplicative"] += 1
        if counit(ab) != counit(a) * counit(b):
            fail("counit_multiplicative", [_describe(a), _describe(b)])

    return Report(name="hopf_axiom_check", passed=not witnesses,
                  facts={"mode": spec.mode.value, "samples": sample_count,
                         "max_degree": max_degree, "checks": checks},
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
        for n in range(1, max_power + 1):
            xn = spec.x() ** n
            zn = spec.z() ** n
            lhs = multiply(z, xn) - multiply(xn, z)
            coeff = GroupAlgElem(spec.group, spec.conductor, {
                cinv: q_int(n, q), spec.b: -q_int(n, q.inverse())})
            rhs = multiply(spec.from_group_alg(coeff), spec.x() ** (n - 1))
            if lhs != rhs:
                failures.append({"check": "z_past_x_power", "n": n})
            lhs2 = multiply(x, zn) - multiply(zn, x)
            coeff2 = GroupAlgElem(spec.group, spec.conductor, {
                spec.b: q_int(n, q), cinv: -q_int(n, q.inverse())})
            rhs2 = multiply(spec.from_group_alg(coeff2), spec.z() ** (n - 1))
            if lhs2 != rhs2:
                failures.append({"check": "x_past_z_power", "n": n})
            wind_rhs = multiply(spec.x() ** (n - 1),
                                spec.from_group_alg(wind(spec.e, n, spec)))
            if lhs != wind_rhs:
                failures.append({"check": "winding_commutator", "n": n})

    return Report(name="change_of_variables_check", passed=not failures,
                  facts={"mode": spec.mode.value, "max_power": max_power},
                  witnesses=failures)
