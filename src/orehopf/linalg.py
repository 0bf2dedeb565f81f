"""Exact dense linear algebra over Q(zeta_N).

Matrices are lists of row lists of Cyclotomic values.  One elimination
routine, `_insert`, serves every solver: it adds a row to a reduced row
echelon basis, pivot normalized to 1 and cleared from the other rows.
`rref` inserts the rows of a matrix one by one, `nullspace` and `inverse`
read its result, and `SpanBasis` keeps a basis for closure runs.  The
reduced echelon form of a row space is unique, so the order of insertion
does not change it.  Sizes stay at desk scale (dimensions bounded by a few
dozen), so no pivoting strategy beyond first-nonzero is needed.
"""

from __future__ import annotations

from .cyclotomic import Cyclotomic


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


def mat_mul(A, B):
    n, k = len(A), len(B)
    m = len(B[0])
    Bc = [[B[i][j] for i in range(k)] for j in range(m)]
    out = []
    for row in A:
        out_row = []
        for col in Bc:
            acc = None
            for a, b in zip(row, col):
                term = a * b
                acc = term if acc is None else acc + term
            out_row.append(acc)
        out.append(out_row)
    return out


def mat_vec(A, v):
    out = []
    for row in A:
        acc = None
        for a, b in zip(row, v):
            term = a * b
            acc = term if acc is None else acc + term
        out.append(acc)
    return out


def mat_pow(A, k: int):
    if k < 0:
        raise ValueError("matrix powers need an exponent >= 0")
    out = identity(len(A), A[0][0].conductor)
    while k:
        if k & 1:
            out = mat_mul(out, A)
        A = mat_mul(A, A)
        k >>= 1
    return out


def is_zero_matrix(A) -> bool:
    return all(a.is_zero() for row in A for a in row)


def _insert(rows, pivots, vec) -> bool:
    """Add vec to the reduced echelon basis (rows, pivots) in place; returns
    True when it enlarged the span."""
    v = list(vec)
    for row, p in zip(rows, pivots):
        if not v[p].is_zero():
            f = v[p]
            v = [x - f * y for x, y in zip(v, row)]
    p = next((i for i, x in enumerate(v) if not x.is_zero()), None)
    if p is None:
        return False
    inv = v[p].inverse()
    v = [x * inv for x in v]
    # keep the basis fully reduced so membership tests stay valid
    for i, row in enumerate(rows):
        if not row[p].is_zero():
            f = row[p]
            rows[i] = [x - f * y for x, y in zip(row, v)]
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


def nullspace(A):
    """Basis of the right kernel, as a list of vectors."""
    if not A:
        return []
    ncols = len(A[0])
    conductor = A[0][0].conductor
    rows, pivots = rref(A)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    zero = Cyclotomic.zero(conductor)
    one = Cyclotomic.one(conductor)
    for f in free:
        v = [zero] * ncols
        v[f] = one
        for r, p in zip(rows, pivots):
            v[p] = -r[f]
        basis.append(v)
    return basis


def inverse(A):
    """Exact inverse, or None when singular."""
    d = len(A)
    conductor = A[0][0].conductor
    aug = [list(row) + list(idrow) for row, idrow in zip(A, identity(d, conductor))]
    rows, pivots = rref(aug)
    if pivots[:d] != list(range(d)):
        return None
    return [row[d:] for row in rows]


class SpanBasis:
    """Incrementally maintained row space over Q(zeta_N), for closure runs."""

    def __init__(self):
        self.rows = []      # echelon rows, pivot normalized to 1
        self.pivots = []    # pivot column per row

    def add(self, vec) -> bool:
        """Insert vec; returns True when it enlarged the span."""
        return _insert(self.rows, self.pivots, vec)

    def dim(self) -> int:
        return len(self.rows)
