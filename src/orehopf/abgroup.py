"""Finitely generated abelian groups, characters, and subgroup lattices.

A group is Z^r x Z/n_1 x ... x Z/n_s in invariant-factor style coordinates
(free generators first).  Elements are exponent vectors with torsion
coordinates reduced.  A group object interns its elements: it keeps one
GroupElement per reduced exponent vector, so every constructor and group
operation returns the stored object, and dict and tuple lookups of keys
holding elements match on identity before any __eq__ call.  Equality and
hashing stay by value, so elements of equal but distinct group objects
compare and hash equal.  The table lives on the group object and goes
with it.  Characters take values in a fixed cyclotomic field Q(zeta_N) and
are encoded by the exponent of zeta_N on each generator, so every
character has finite order by construction; they, like subgroups, reject
elements of another group.

Subgroups are integer lattices between the torsion-relation lattice L and
Z^k, stored as a row-style Hermite normal form.  This gives exact
membership tests, finite-index detection, and canonical coset
representatives.  One Hermite routine, `_hnf`, serves both the lattices
and `left_kernel`, which reads its transform from the same run on
[M | I].
"""

from __future__ import annotations

from math import gcd
from operator import add, mod, mul, neg

from .cyclotomic import Cyclotomic, root_of_unity


def _is_int(value) -> bool:
    """An integer; bool is a subclass of int in Python but not here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _ints(values, what: str) -> list:
    """values as a list; ValueError unless each is an integer (_is_int)."""
    values = list(values)
    for v in values:
        if not _is_int(v):
            raise ValueError(f"{what} must be integers, not {v!r}")
    return values


def _conductor(conductor):
    """conductor; ValueError unless it is a positive integer (_is_int)."""
    if not _is_int(conductor) or conductor < 1:
        raise ValueError(f"conductor must be a positive integer, not {conductor!r}")
    return conductor


class AbelianGroup:
    """Z^free_rank x prod Z/n_i with generator order: free then torsion.

    _elements maps each reduced exponent tuple to the one GroupElement made
    for it by this group object; _identity is its identity element, which
    GroupElement.__mul__ passes through without a lookup.
    """

    __slots__ = ("free_rank", "torsion_orders", "ngens", "_elements", "_identity")

    def __init__(self, free_rank: int, torsion_orders=()):
        if not _is_int(free_rank) or free_rank < 0:
            raise ValueError(f"free rank must be a nonnegative integer, not {free_rank!r}")
        torsion = tuple(_ints(torsion_orders, "torsion orders"))
        if any(n < 2 for n in torsion):
            raise ValueError("torsion orders must be >= 2")
        object.__setattr__(self, "free_rank", free_rank)
        object.__setattr__(self, "torsion_orders", torsion)
        object.__setattr__(self, "ngens", free_rank + len(torsion))
        object.__setattr__(self, "_elements", {})
        object.__setattr__(self, "_identity", _new_element(self, [0] * self.ngens))

    def __setattr__(self, name, value):
        raise AttributeError("AbelianGroup is immutable")

    def __eq__(self, other):
        return (isinstance(other, AbelianGroup)
                and self.free_rank == other.free_rank
                and self.torsion_orders == other.torsion_orders)

    def __hash__(self):
        return hash((self.free_rank, self.torsion_orders))

    def __repr__(self):
        return f"AbelianGroup(free_rank={self.free_rank}, torsion={list(self.torsion_orders)})"

    def element(self, exps) -> "GroupElement":
        """The element with these exponents; checks their number and type."""
        exps = _ints(exps, "group element exponents")
        if len(exps) != self.ngens:
            raise ValueError(f"expected {self.ngens} exponents, got {len(exps)}")
        return _new_element(self, exps)

    def identity(self) -> "GroupElement":
        return self._identity

    def generator(self, i: int) -> "GroupElement":
        exps = [0] * self.ngens
        exps[i] = 1
        return self.element(exps)

    def generators(self):
        return [self.generator(i) for i in range(self.ngens)]

    def relation_rows(self):
        """Generators of the torsion-relation lattice L in Z^ngens."""
        rows = []
        for i, n in enumerate(self.torsion_orders):
            row = [0] * self.ngens
            row[self.free_rank + i] = n
            rows.append(row)
        return rows

    def order(self):
        """Group order, or None when infinite."""
        if self.free_rank:
            return None
        out = 1
        for n in self.torsion_orders:
            out *= n
        return out


class GroupElement:
    """An exponent vector of a group, torsion coordinates reduced; made by
    AbelianGroup.element, identity and generator and the group operations.

    A group object holds one element per exponent vector, so these all
    return that shared object.  Equality is still by value: an element of an
    equal but distinct group object is equal and hash-equal, not identical.
    """

    __slots__ = ("group", "exps", "_hash")

    def __setattr__(self, name, value):
        raise AttributeError("GroupElement is immutable")

    def __mul__(self, other):
        group = self.group
        if other.__class__ is GroupElement and other.group is group:
            # the product stays in self's group object, as _new_element's would
            if other is group._identity:
                return self
            if self is group._identity:
                return other
        elif other.__class__ is not GroupElement or other.group != group:
            raise ValueError("group elements belong to different groups")
        return _new_element(group, map(add, self.exps, other.exps))

    def inverse(self):
        return _new_element(self.group, map(neg, self.exps))

    def __pow__(self, k: int):
        return _new_element(self.group, [k * a for a in self.exps])

    def is_identity(self) -> bool:
        return not any(self.exps)

    def __eq__(self, other):
        return (isinstance(other, GroupElement) and self.exps == other.exps
                and (self.group is other.group or self.group == other.group))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"g{list(self.exps)}"


_set_group = GroupElement.group.__set__
_set_exps = GroupElement.exps.__set__
_set_hash = GroupElement._hash.__set__


def _new_element(group: AbelianGroup, exps) -> GroupElement:
    """The element of group with the exponents exps, group.ngens integers:
    only the torsion coordinates are reduced, and a torsion-free group skips
    that.  The group's stored element is returned; a new one is built slot
    by slot and stored."""
    exps = tuple(exps)
    if group.torsion_orders:
        free = group.free_rank
        exps = exps[:free] + tuple(map(mod, exps[free:], group.torsion_orders))
    g = group._elements.get(exps)
    if g is None:
        g = object.__new__(GroupElement)
        _set_group(g, group)
        _set_exps(g, exps)
        _set_hash(g, hash(exps))
        group._elements[exps] = g
    return g


class Character:
    """Group character g_i -> zeta_N^exps[i]; finite order by construction."""

    __slots__ = ("group", "conductor", "exps")

    def __init__(self, group: AbelianGroup, conductor: int, exps):
        conductor = _conductor(conductor)
        exps = _ints(exps, "character exponents")
        if len(exps) != group.ngens:
            raise ValueError(f"expected {group.ngens} character exponents, got {len(exps)}")
        for i, n in enumerate(group.torsion_orders):
            k = exps[group.free_rank + i]
            if (n * k) % conductor != 0:
                raise ValueError(
                    f"character ill-defined on torsion generator of order {n}: "
                    f"{n}*{k} != 0 mod {conductor}")
        exps = [e % conductor for e in exps]
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "exps", tuple(exps))

    def __setattr__(self, name, value):
        raise AttributeError("Character is immutable")

    def eval(self, g: GroupElement) -> Cyclotomic:
        return root_of_unity(self.conductor, self.exponent(g))

    def eval_pow(self, g: GroupElement, t: int) -> Cyclotomic:
        return root_of_unity(self.conductor, self.exponent(g, t))

    def exponent(self, g: GroupElement, t: int = 1) -> int:
        """k in [0, N) with chi(g)^t = zeta_N^k; g must be of this group."""
        if g.group is not self.group and g.group != self.group:
            raise ValueError("the element belongs to a different group")
        return (t * sum(map(mul, self.exps, g.exps))) % self.conductor

    def order(self) -> int:
        out = 1
        for e in self.exps:
            d = self.conductor // gcd(self.conductor, e)
            out = out * d // gcd(out, d)
        return out

    def __mul__(self, other: "Character") -> "Character":
        if other.group != self.group or other.conductor != self.conductor:
            raise ValueError("characters are not compatible")
        return Character(self.group, self.conductor,
                         [a + b for a, b in zip(self.exps, other.exps)])

    def __pow__(self, t: int) -> "Character":
        return Character(self.group, self.conductor, [t * e for e in self.exps])

    def inverse(self) -> "Character":
        return self ** (-1)

    def kernel(self) -> "Subgroup":
        return joint_kernel([self])

    def __eq__(self, other):
        return (isinstance(other, Character) and self.group == other.group
                and self.conductor == other.conductor and self.exps == other.exps)

    def __hash__(self):
        return hash((self.group, self.conductor, self.exps))

    def __repr__(self):
        return f"Character({list(self.exps)} / zeta_{self.conductor})"


# -- exact integer lattice routines --

def _exgcd(a: int, b: int):
    """Returns (g, s, t) with s*a + t*b = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _hnf(rows, ncols: int):
    """The integer rows brought to row-style Hermite normal form on their
    first ncols columns by unimodular row operations: positive pivots,
    entries above each pivot in [0, pivot), and below the pivot rows only
    rows that are zero on those columns.  Columns past ncols ride along,
    so on [M | I] they read the transform U with U M the result."""
    M = list(rows)
    m = len(M)
    pivot_row = 0
    for col in range(ncols):
        if pivot_row == m:
            break
        # eliminate below pivot_row via gcd cascades
        for r in range(pivot_row + 1, m):
            if M[r][col]:
                a, b = M[pivot_row][col], M[r][col]
                g, s, t = _exgcd(a, b)
                if g:
                    u, v = a // g, b // g
                    row_p = [s * x + t * y for x, y in zip(M[pivot_row], M[r])]
                    row_r = [-v * x + u * y for x, y in zip(M[pivot_row], M[r])]
                    M[pivot_row], M[r] = row_p, row_r
        if M[pivot_row][col]:
            if M[pivot_row][col] < 0:
                M[pivot_row] = [-x for x in M[pivot_row]]
            p = M[pivot_row][col]
            for r in range(pivot_row):
                q = M[r][col] // p
                if q:
                    M[r] = [x - q * y for x, y in zip(M[r], M[pivot_row])]
            pivot_row += 1
    return M


def left_kernel(rows):
    """Basis of {v : v * M = 0} over Z for the integer matrix M, read from
    one Hermite run on [M | I]: the rows of U that U M leaves zero."""
    m, ncols = len(rows), len(rows[0])
    augmented = [list(r) + [int(i == j) for j in range(m)] for i, r in enumerate(rows)]
    return [r[ncols:] for r in _hnf(augmented, ncols) if not any(r[:ncols])]


class Subgroup:
    """A subgroup of G stored as the HNF of its lift lattice in Z^k.

    The lattice always contains the torsion-relation lattice, so membership
    of a group element can be tested on any exponent lift.
    """

    __slots__ = ("group", "rows", "_pivots")

    def __init__(self, group: AbelianGroup, generator_rows):
        k = group.ngens
        rows = [list(map(int, r)) for r in generator_rows]
        for r in rows:
            if len(r) != k:
                raise ValueError("generator row has wrong length")
        rows.extend(group.relation_rows())
        H = [r for r in _hnf(rows, k) if any(r)]
        pivots = []
        for r in H:
            col = next(i for i, x in enumerate(r) if x)
            pivots.append(col)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "rows", tuple(tuple(r) for r in H))
        object.__setattr__(self, "_pivots", tuple(pivots))

    def __setattr__(self, name, value):
        raise AttributeError("Subgroup is immutable")

    def express(self, g: GroupElement):
        """Integer coefficients of a lift of g over the HNF rows, or None;
        g must be of this subgroup's group."""
        if g.group is not self.group and g.group != self.group:
            raise ValueError("the element belongs to a different group")
        return self.express_lift(g.exps)

    def express_lift(self, vec):
        """Coefficients of a raw exponent vector over the HNF rows, or None.

        Unlike express, no torsion normalization is applied, so distinct
        lifts of one group element give distinct answers.
        """
        v = list(vec)
        coeffs = [0] * len(self.rows)
        for idx, (row, col) in enumerate(zip(self.rows, self._pivots)):
            q, rem = divmod(v[col], row[col])
            if rem != 0:
                return None
            coeffs[idx] = q
            v = [x - q * y for x, y in zip(v, row)]
        if any(v):
            return None
        return coeffs

    def contains(self, g: GroupElement) -> bool:
        return self.express(g) is not None

    def is_finite_index(self) -> bool:
        return len(self.rows) == self.group.ngens

    def index(self):
        """[G : N], or None when infinite."""
        if not self.is_finite_index():
            return None
        out = 1
        for row, col in zip(self.rows, self._pivots):
            out *= row[col]
        return out

    def coset_rep(self, g: GroupElement) -> GroupElement:
        """Canonical coset representative (box form under the HNF)."""
        if not self.is_finite_index():
            raise ValueError("subgroup has infinite index")
        v = list(g.exps)
        for i in range(len(self.rows) - 1, -1, -1):
            col = self._pivots[i]
            q = v[col] // self.rows[i][col]
            if q:
                v = [x - q * y for x, y in zip(v, self.rows[i])]
        return self.group.element(v)

    def cosets(self):
        """All canonical coset representatives, in lexicographic box order."""
        if not self.is_finite_index():
            raise ValueError("subgroup has infinite index")
        diag = [self.rows[i][self._pivots[i]] for i in range(len(self.rows))]
        reps = []
        def rec(i, acc):
            if i == len(diag):
                reps.append(self.coset_rep(self.group.element(acc)))
                return
            for e in range(diag[i]):
                rec(i + 1, acc + [e])
        rec(0, [])
        return reps

    def hermite_generators(self):
        """The HNF rows as group elements (the canonical generating set)."""
        return [self.group.element(list(r)) for r in self.rows]

    def __eq__(self, other):
        return (isinstance(other, Subgroup) and self.group == other.group
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.group, self.rows))

    def __repr__(self):
        return f"Subgroup(rows={[list(r) for r in self.rows]})"


def joint_kernel(chars) -> Subgroup:
    """Intersection of the kernels of the given characters of one group."""
    if not chars:
        raise ValueError("need at least one character")
    group = chars[0].group
    k = group.ngens
    if any(c.group != group for c in chars):
        raise ValueError("characters of different groups")
    # v in ker iff for each char: sum_i exps[i] v_i = 0 mod conductor;
    # encode as the left kernel of the (k + t) x t matrix [E; diag(N)]
    t = len(chars)
    M = [[chars[j].exps[i] for j in range(t)] for i in range(k)]
    for j in range(t):
        row = [0] * t
        row[j] = chars[j].conductor
        M.append(row)
    kern = left_kernel(M)
    rows = [v[:k] for v in kern]
    return Subgroup(group, rows)


def char_kernel(chi: Character) -> Subgroup:
    return joint_kernel([chi])


class SubgroupCharacter:
    """Character of a subgroup, given by zeta exponents on its HNF generators."""

    __slots__ = ("subgroup", "conductor", "exps")

    def __init__(self, subgroup: Subgroup, conductor: int, exps):
        conductor = _conductor(conductor)
        exps = [e % conductor for e in _ints(exps, "character exponents")]
        if len(exps) != len(subgroup.rows):
            raise ValueError(
                f"expected {len(subgroup.rows)} exponents for the Hermite generators")
        object.__setattr__(self, "subgroup", subgroup)
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "exps", tuple(exps))
        # well-definedness: must kill every torsion relation, checked on the
        # raw relation rows (their group elements normalize to the identity)
        for rel in subgroup.group.relation_rows():
            coeffs = subgroup.express_lift(rel)
            if coeffs is None:
                raise ValueError("torsion relation escapes the subgroup lattice")
            if sum(a * e for a, e in zip(coeffs, exps)) % conductor != 0:
                raise ValueError("subgroup character ill-defined on torsion")

    def __setattr__(self, name, value):
        raise AttributeError("SubgroupCharacter is immutable")

    def eval(self, g: GroupElement) -> Cyclotomic:
        coeffs = self.subgroup.express(g)
        if coeffs is None:
            raise ValueError(f"{g!r} is not in the subgroup")
        k = sum(a * e for a, e in zip(coeffs, self.exps)) % self.conductor
        return root_of_unity(self.conductor, k)

    def __eq__(self, other):
        return (isinstance(other, SubgroupCharacter)
                and self.subgroup == other.subgroup
                and self.conductor == other.conductor
                and self.exps == other.exps)

    def __hash__(self):
        return hash((self.subgroup, self.conductor, self.exps))

    def __repr__(self):
        return f"SubgroupCharacter({list(self.exps)} / zeta_{self.conductor})"
