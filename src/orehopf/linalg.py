"""Exact dense linear algebra over Q(zeta_N), and its twin over F_p.

Matrices are lists of row lists of Cyclotomic values.  One elimination
routine, `_insert`, serves every exact solver: it adds a row to a reduced
row echelon basis, pivot normalized to 1 and cleared from the other rows.
`rref` inserts the rows of a matrix one by one, `nullspace` and `inverse`
read its result, and `SpanBasis` keeps a basis for spins; on it
`full_rank` decides invertibility with no inverse built.  The reduced
echelon form of a row space is unique, so the order of insertion does
not change it.  Its three row operations (reducing the new row by each
basis row, normalizing it, clearing its pivot from the other rows)
multiply only nonzero entries: where the factor read from the other row
is zero, x - f*0 and 0*inv equal the entry already there, so it is kept
as it is and every result is the same value as with the dense update.
Echelon rows, intertwiner rows, [A | I] augmentations and direct-sum
closure vectors are mostly zeros.  Sizes stay at desk scale (dimensions
bounded by a few dozen), so no pivoting strategy beyond first-nonzero is
needed.

One sparse read of a matrix, its `Factor` (each row's nonzero entries as
column, numerators and denominator, optionally scaled by a root of
unity), serves both products and exact identity tests.  A product L R is
read row by row: row i gathers, for each nonzero entry (k, a) of row i
of L, the products of a with row k of R, so each entry sums only its
nonzero products.  `factor_product` sums them into field elements in
one pass, as `cyclotomic.dot` does; `mat_mul` is it on the factors of
two matrices, and a matrix in many products (T and T^-1 of `conjugate`)
is read once.  `first_mismatch` tests L1 L2 = R1 R2 with no
product built: each entry's left products minus its right ones sum as
integer numerators over one common denominator, and that sum is tested
for zero.  It returns the first differing entry in row-major order, and
`product_entry` builds one entry of a product of factors, for a witness.
A product whose shapes do not match raises ValueError naming both.

`_insert_mod` is the same routine on integer lists mod the split prime p
of the conductor (`cyclotomic.split_prime`), with the same pivot choice;
`ModularSpan` keeps such a basis and reads its kernel in the form of
`nullspace`, and `full_rank_mod` and `nullspace_mod` are the twins of
`full_rank` and `nullspace`.  `residues(mats, e)` reduces matrices mod p
under the e-th embedding zeta -> omega^k of `cyclotomic.residue`.
Reduction mod p is a ring map, so a rank mod p is a lower bound on the
exact rank: a full rank mod p is an exact certificate, and anything less
is a hint that the caller checks exactly.

`spin` is the one breadth-first span routine, over either span kind: it
spans the entries of a start matrix and of its images under every
product of some matrices.  Spinning the identity closes a matrix algebra
(Burnside, about d^6), and spinning a d x 1 column spans the subspace
the vector generates (Norton, O(k d^3) for k matrices).
"""

from __future__ import annotations

from itertools import chain
from operator import attrgetter

from .cyclotomic import (ConductorMismatch, Cyclotomic, _product_kernel, _sum_of_products,
                         _sum_vanishes, dot, residue, split_prime)


def zeros(r: int, c: int, conductor: int):
    z = Cyclotomic.zero(conductor)
    return [[z for _ in range(c)] for _ in range(r)]


def identity(d: int, conductor: int):
    z = Cyclotomic.zero(conductor)
    o = Cyclotomic.one(conductor)
    return [[o if i == j else z for j in range(d)] for i in range(d)]


def mat_add(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_scale(A, s):
    return [[a * s for a in row] for row in A]


_conductor = attrgetter("conductor")


def _one_conductor(values):
    """The conductor shared by values (field elements or factors), ignoring
    None; ConductorMismatch for two; None when there is none."""
    conductors = set(map(_conductor, values))
    conductors.discard(None)
    if len(conductors) > 1:
        raise ConductorMismatch(f"conductor mismatch: {sorted(conductors)}")
    return next(iter(conductors), None)


def _product_error(left: tuple, right: tuple) -> ValueError:
    return ValueError("cannot multiply a %dx%d matrix by a %dx%d matrix" % (left + right))


def _sparse_rows(A, scale=None):
    """Per row of A (of s A for a scale s), its nonzero entries as (column,
    numerators, denominator); a scaled entry's numerators are one
    product-kernel call on a's and s's, over the product of their
    denominators."""
    if scale is None:
        return [[(k, a.num, a.den) for k, a in enumerate(row) if any(a.num)] for row in A]
    mul, sn, sd = _product_kernel(scale.conductor), scale.num, scale.den
    return [[(k, mul(a.num, sn), a.den * sd) for k, a in enumerate(row) if any(a.num)]
            for row in A]


def _add_row_products(terms, row, rows, sign: int = 1):
    """Append to terms[j] the term (a, b, sign d e) of each nonzero product
    of an entry (k, a, d) of row and an entry (j, b, e) of rows[k]: row i
    of a product L R, read from row i of L and the rows of R."""
    for k, a, d in row:
        for j, b, e in rows[k]:
            terms[j].append((a, b, sign * d * e))


class Factor:
    """One sparse read of a matrix A, or of s A for a field element s (a
    root of unity where the library scales: a character value or q).

    ``rows`` holds each row's nonzero entries as (column, numerators,
    denominator), and a product L R is read row by row: row i of L R sums,
    for each nonzero entry (k, a) of row i of L, a times row k of R, so
    both factors of a product are read by rows and a matrix that stands
    on both sides of products (T in T A = B T) is read once.  No field
    element is built.  The entries of A, zeros included, and s have one
    conductor (ConductorMismatch)."""

    __slots__ = ("conductor", "shape", "rows")

    def __init__(self, A, scale=None):
        entries = chain.from_iterable(A)
        self.conductor = _one_conductor(entries if scale is None else chain(entries, [scale]))
        self.shape = (len(A), len(A[0]) if A else 0)
        self.rows = _sparse_rows(A, scale)


def mat_mul(A, B):
    """A B, with the entries that ``dot`` of each row and column gives: the
    product of the two matrices' factors (``factor_product``)."""
    return factor_product(Factor(A), Factor(B))


def factor_product(L: Factor, R: Factor):
    """The product L R of two factors as a matrix, with the entries that
    ``dot`` of each row and column gives.

    The two conductors are checked, then L's column count against R's row
    count (ValueError naming both shapes).  Row i of L R is read as the
    nonzero entries of row i of L times the rows of R; an entry of the
    product sums its nonzero products through
    ``cyclotomic._sum_of_products``.  A matrix read once as a factor
    serves any number of products."""
    # a product with no entries reads no conductor, and sums nothing
    total = _sum_of_products(_one_conductor((L, R)) or 1)
    if L.shape[1] != R.shape[0]:
        raise _product_error(L.shape, R.shape)
    ncols, rows = R.shape[1], R.rows
    out = []
    for row in L.rows:
        terms = [[] for _ in range(ncols)]
        _add_row_products(terms, row, rows)
        out.append(list(map(total, terms)))
    return out


def product_entry(L: Factor, R: Factor, i: int, j: int):
    """Entry (i, j) of the product of two factors, as a field element."""
    if L.shape[1] != R.shape[0]:
        raise _product_error(L.shape, R.shape)
    terms = [[] for _ in range(R.shape[1])]
    _add_row_products(terms, L.rows[i], R.rows)
    return _sum_of_products(_one_conductor((L, R)) or 1)(terms[j])


def first_mismatch(L1: Factor, L2: Factor, R1: Factor, R2: Factor):
    """The first entry (i, j), in row-major order, where L1 L2 and R1 R2
    differ, or None when the products are equal.

    The two products are read row by row.  Each entry's products from the
    left side and, negated, from the right sum as integer numerators over
    one common denominator, and that sum is tested for zero
    (``cyclotomic._sum_vanishes``); an entry with no nonzero product on
    either side is equal.  No field element is built.  ValueError, naming
    both shapes, when a pair of factors does not multiply or the two
    products differ in shape; ConductorMismatch for two conductors."""
    vanishes = _sum_vanishes(_one_conductor((L1, L2, R1, R2)) or 1)
    for left, right in ((L1.shape, L2.shape), (R1.shape, R2.shape)):
        if left[1] != right[0]:
            raise _product_error(left, right)
    ncols = L2.shape[1]
    if L1.shape[0] != R1.shape[0] or ncols != R2.shape[1]:
        raise ValueError("cannot compare a %dx%d product with a %dx%d product"
                         % (L1.shape[0], ncols, R1.shape[0], R2.shape[1]))
    lrows, rrows = L2.rows, R2.rows
    for i, (lrow, rrow) in enumerate(zip(L1.rows, R1.rows)):
        terms = [[] for _ in range(ncols)]
        _add_row_products(terms, lrow, lrows)
        _add_row_products(terms, rrow, rrows, -1)
        for j, entry in enumerate(terms):
            if entry and not vanishes(entry):
                return i, j
    return None


def mat_vec(A, v):
    return [dot(row, v) for row in A]


def mat_pow(A, k: int):
    """A^k as a new matrix, by left-to-right binary powering from the top
    bit of k: floor(lg k) + popcount(k) - 1 products for k >= 1 (none for
    A^1), the identity for k = 0."""
    if k < 0:
        raise ValueError("matrix powers need an exponent >= 0")
    if k == 0:
        return identity(len(A), A[0][0].conductor)
    out = [list(row) for row in A]
    for bit in bin(k)[3:]:
        out = mat_mul(out, out)
        if bit == "1":
            out = mat_mul(out, A)
    return out


def is_zero_matrix(A) -> bool:
    return all(a.is_zero() for row in A for a in row)


def _insert(rows, pivots, vec) -> bool:
    """Add vec to the reduced echelon basis (rows, pivots) in place; returns
    True when it enlarged the span.  Each row operation keeps an entry as
    it is where the product it would add has a zero factor."""
    v = list(vec)
    for row, p in zip(rows, pivots):
        if not v[p].is_zero():
            f = v[p]
            v = [x - f * y if y else x for x, y in zip(v, row)]
    p = next((i for i, x in enumerate(v) if not x.is_zero()), None)
    if p is None:
        return False
    inv = v[p].inverse()
    v = [x * inv if x else x for x in v]
    # keep the basis fully reduced so membership tests stay valid
    for i, row in enumerate(rows):
        if not row[p].is_zero():
            f = row[p]
            rows[i] = [x - f * y if y else x for x, y in zip(row, v)]
    idx = next((i for i, q in enumerate(pivots) if q > p), len(pivots))
    rows.insert(idx, v)
    pivots.insert(idx, p)
    return True


def rref(A):
    """Reduced row echelon form; returns (rows, pivot_columns)."""
    rows, pivots = [], []
    for vec in A:
        _insert(rows, pivots, vec)
    return rows, pivots


def _kernel(rows, pivots, ncols: int, zero, one):
    """Basis of the right kernel of a reduced echelon basis (rows, pivots):
    one vector per free column f, one at f, zero at the other free columns
    and minus the row's entry in column f at each pivot."""
    basis = []
    for f in range(ncols):
        if f not in pivots:
            v = [zero] * ncols
            v[f] = one
            for r, p in zip(rows, pivots):
                v[p] = -r[f]
            basis.append(v)
    return basis


def nullspace(A):
    """Basis of the right kernel, as a list of vectors."""
    if not A:
        return []
    conductor = A[0][0].conductor
    rows, pivots = rref(A)
    return _kernel(rows, pivots, len(A[0]), Cyclotomic.zero(conductor),
                   Cyclotomic.one(conductor))


def inverse(A):
    """Exact inverse, or None when singular."""
    d = len(A)
    conductor = A[0][0].conductor
    one, zero = Cyclotomic.one(conductor), Cyclotomic.zero(conductor)
    aug = [list(row) + [one if i == j else zero for j in range(d)] for i, row in enumerate(A)]
    rows, pivots = rref(aug)
    if pivots[:d] != list(range(d)):
        return None
    return [row[d:] for row in rows]


def full_rank(A) -> bool:
    """Whether the rows of A are independent: the exact rank, with no
    inverse built; for a square A, whether it is invertible."""
    span = SpanBasis()
    return all(span.add(row) for row in A)


class SpanBasis:
    """Incrementally maintained row space over Q(zeta_N), for spins."""

    def __init__(self):
        self.rows = []      # echelon rows, pivot normalized to 1
        self.pivots = []    # pivot column per row

    def add(self, vec) -> bool:
        """Insert vec; returns True when it enlarged the span."""
        return _insert(self.rows, self.pivots, vec)

    def dim(self) -> int:
        return len(self.rows)


def spin(start, gens, mul, span):
    """span, holding the entries of start and of each product mul(A, B) of
    a matrix A of gens and a matrix B already inserted, breadth first.
    span is a ``SpanBasis``, or a ``ModularSpan`` for start, gens and mul
    mod p; each matrix enters as the flat list of its rows.  The run stops
    once span has as many dimensions as start has entries."""
    full = len(start) * len(start[0])
    products = [start] if span.add(list(chain.from_iterable(start))) else []
    for B in products:
        for A in gens:
            if span.dim() == full:
                return span
            C = mul(A, B)
            if span.add(list(chain.from_iterable(C))):
                products.append(C)
    return span


# -- the same elimination over F_p --


def residues(mats, e: int):
    """(p, images): every matrix of mats reduced entrywise under the e-th
    embedding of ``cyclotomic.residue`` mod the split prime p of their
    conductor, or None when p divides a denominator."""
    images = [[[residue(a, e) for a in row] for row in A] for A in mats]
    if any(None in row for A in images for row in A):
        return None
    return split_prime(mats[0][0][0].conductor)[0], images


def mat_mul_mod(A, B, p: int):
    cols = list(zip(*B))
    return [[sum(a * b for a, b in zip(row, col)) % p for col in cols] for row in A]


def _insert_mod(rows, pivots, vec, p: int) -> bool:
    """_insert over F_p on integer lists with entries in [0, p)."""
    v = list(vec)
    for row, c in zip(rows, pivots):
        f = v[c]
        if f:
            v = [(x - f * y) % p for x, y in zip(v, row)]
    c = next((i for i, x in enumerate(v) if x), None)
    if c is None:
        return False
    inv = pow(v[c], -1, p)
    v = [x * inv % p for x in v]
    for i, row in enumerate(rows):
        f = row[c]
        if f:
            rows[i] = [(x - f * y) % p for x, y in zip(row, v)]
    idx = next((i for i, q in enumerate(pivots) if q > c), len(pivots))
    rows.insert(idx, v)
    pivots.insert(idx, c)
    return True


def full_rank_mod(A, p: int) -> bool:
    """Whether the rows of the integer matrix A are independent mod p."""
    span = ModularSpan(p)
    return all(span.add(row) for row in A)


class ModularSpan:
    """SpanBasis over F_p: vectors are integer lists with entries in [0, p)."""

    def __init__(self, p: int):
        self.p = p
        self.rows = []
        self.pivots = []

    def add(self, vec) -> bool:
        """Insert vec; returns True when it enlarged the span mod p."""
        return _insert_mod(self.rows, self.pivots, vec, self.p)

    def dim(self) -> int:
        return len(self.rows)

    def kernel(self, ncols: int):
        """Basis of the right kernel of the span's rows in the form of
        ``nullspace``; an entry is an integer that stands for its residue
        mod p (minus a row entry at each pivot, unreduced)."""
        return _kernel(self.rows, self.pivots, ncols, 0, 1)


def nullspace_mod(A, p: int):
    """Basis of the right kernel mod p of the integer matrix A, entries in
    [0, p), in the form of ``nullspace`` with entries reduced to [0, p)."""
    span = ModularSpan(p)
    for row in A:
        span.add(row)
    return [[x % p for x in v] for v in span.kernel(len(A[0]))]
