"""The elimination kernel of linalg against the column-sweep reference.

rref, nullspace, inverse and SpanBasis all run on one row-insertion
routine; tests/oracles.py keeps the column-by-column Gauss-Jordan sweep.
The reduced echelon form of a row space is unique, so both must return
the same rows and pivots exactly, whatever the order of the rows.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from orehopf.cyclotomic import (ConductorMismatch, Cyclotomic, dot, euler_phi, residue,
                                root_of_unity, split_prime)
from orehopf import linalg
from orehopf.reps import direct_sum
from orehopf.linalg import (Factor, ModularSpan, SpanBasis, first_mismatch, full_rank_mod,
                            identity, inverse, mat_mul, mat_mul_mod, mat_pow, mat_scale,
                            mat_vec, nullspace, product_entry, residues, rref)

from gen import random_scalar
from test_acceptance import sweep_instances
from oracles import mat_eq, rref_by_column_sweep

CONDUCTORS = (1, 3, 8, 12)


def _random_matrix(rng, nrows, ncols, N, density=0.6):
    """Entries are zero with probability 1 - density, else small random
    scalars."""
    zero = Cyclotomic.zero(N)
    return [[random_scalar(rng, N) if rng.random() < density else zero
             for _ in range(ncols)] for _ in range(nrows)]


def _rank(A):
    return len(rref_by_column_sweep(A)[1])


def _intertwiner_rows(pairs, dim):
    """The linear system T A = B T over all pairs, one row per entry (i, j),
    in the unknowns T[i][k] at column i * dim + k."""
    N = pairs[0][0][0][0].conductor
    rows = []
    for A, B in pairs:
        for i in range(dim):
            for j in range(dim):
                row = [Cyclotomic.zero(N)] * (dim * dim)
                for k in range(dim):
                    row[i * dim + k] = row[i * dim + k] + A[k][j]
                    row[k * dim + j] = row[k * dim + j] - B[i][k]
                rows.append(row)
    return rows


def _block_diagonal_products(rng, N):
    """The Burnside closure's rows on a direct sum: the identity and the
    products of up to two block-diagonal generators diag(A_k, B_k), with
    A_k 2 x 2 and B_k 1 x 1, each flattened to a row of length 9.  The
    off-diagonal blocks stay zero in every product, so the 9 rows span at
    most 5 dimensions."""
    zero = Cyclotomic.zero(N)
    gens = []
    for _ in range(2):
        A, B = _random_matrix(rng, 2, 2, N, 0.8), _random_matrix(rng, 1, 1, N, 0.8)
        gens.append([A[0] + [zero], A[1] + [zero], [zero, zero] + B[0]])
    products = [identity(3, N)]
    for _ in range(2):
        products += [mat_mul(G, P) for P in products for G in gens]
    return [[v for row in P for v in row] for P in products]


def _cancelling_rows(rng, N):
    """Rows whose elimination cancels nonzero entries partway: each row
    after the first is a multiple of an earlier dense row plus a sparse
    correction, so reducing it leaves zeros where both rows had entries."""
    while True:
        u = [random_scalar(rng, N, nonzero=True) for _ in range(6)]
        w = [random_scalar(rng, N, nonzero=True) for _ in range(6)]
        s = random_scalar(rng, N, nonzero=True)
        e = [[Cyclotomic.one(N) if i == k else Cyclotomic.zero(N) for i in range(6)]
             for k in range(6)]
        rows = [u, [a + b for a, b in zip(u, e[2])],
                [s * a for a in w], [a + s * b for a, b in zip(w, e[4])],
                [a - b + c for a, b, c in zip(u, w, e[1])]]
        if _rank(rows) == 5:
            return rows


def _shapes(rng, N):
    """(name, matrix) for every shape the kernel meets."""
    while True:
        invertible = _random_matrix(rng, 4, 4, N)
        if _rank(invertible) == 4:
            break
    # rank at most 3: the last row repeats a combination of the others
    singular = _random_matrix(rng, 3, 4, N)
    s, t = random_scalar(rng, N), random_scalar(rng, N)
    singular.append([s * a + t * b for a, b in zip(singular[0], singular[2])])
    # an intertwiner system of a module with itself: tall, and the identity
    # (with every polynomial in the action) spans a nonzero kernel
    action = [_random_matrix(rng, 3, 3, N) for _ in range(2)]
    tall = _intertwiner_rows([(A, A) for A in action], 3)
    low_rank = mat_mul(_random_matrix(rng, 6, 2, N), _random_matrix(rng, 2, 5, N))
    return [("square invertible", invertible), ("square singular", singular),
            ("tall intertwiner system", tall), ("tall low rank", low_rank),
            ("wide", _random_matrix(rng, 3, 6, N)),
            ("all zero", [[Cyclotomic.zero(N)] * 4 for _ in range(3)]),
            ("single row", _random_matrix(rng, 1, 5, N)),
            ("single zero row", [[Cyclotomic.zero(N)] * 3]),
            ("block-diagonal closure products", _block_diagonal_products(rng, N)),
            ("mostly zero", _random_matrix(rng, 6, 8, N, 0.2)),
            ("cancelling rows", _cancelling_rows(rng, N))]


def _nullspace_from(rows, pivots, ncols, N):
    """Kernel basis read off a reduced echelon form, one vector per free
    column in increasing order."""
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [Cyclotomic.zero(N)] * ncols
        v[f] = Cyclotomic.one(N)
        for row, p in zip(rows, pivots):
            v[p] = -row[f]
        basis.append(v)
    return basis


@pytest.mark.parametrize("N", CONDUCTORS)
@pytest.mark.parametrize("seed", range(3))
def test_kernel_matches_column_sweep(N, seed):
    rng = random.Random(1000 * N + seed)
    for name, A in _shapes(rng, N):
        ncols = len(A[0])
        want_rows, want_pivots = rref_by_column_sweep(A)
        rank = len(want_pivots)

        rows, pivots = rref(A)
        assert (rows, pivots) == (want_rows, want_pivots), name

        # SpanBasis: the same basis in any insertion order, and add reports
        # exactly the rows that raise the rank
        for order in (list(A), rng.sample(A, len(A))):
            span = SpanBasis()
            grew = [span.add(vec) for vec in order]
            assert (span.rows, span.pivots, span.dim()) == \
                (want_rows, want_pivots, rank), name
            assert grew == [_rank(order[:i + 1]) > _rank(order[:i])
                            for i in range(len(order))], name

        kernel = nullspace(A)
        assert kernel == _nullspace_from(want_rows, want_pivots, ncols, N), name
        assert len(kernel) == ncols - rank, name
        for v in kernel:
            assert all(x.is_zero() for x in mat_vec(A, v)), name

        if len(A) == ncols:
            inv = inverse(A)
            if rank < ncols:
                assert inv is None, name
                continue
            aug = [list(row) + list(e) for row, e in zip(A, identity(ncols, N))]
            want_inv = [row[ncols:] for row in rref_by_column_sweep(aug)[0]]
            assert inv == want_inv, name
            assert mat_eq(mat_mul(A, inv), identity(ncols, N)), name


@pytest.mark.parametrize("N", [3, 8])
def test_elimination_multiplies_no_zero_entry(N, monkeypatch):
    """rref and SpanBasis.add on sparse matrices call Cyclotomic.__mul__
    only on two nonzero operands, and still return the column sweep's
    rows and pivots."""
    rng = random.Random(N)
    shapes = [_block_diagonal_products(rng, N), _random_matrix(rng, 6, 8, N, 0.2),
              _intertwiner_rows([(A, A) for A in (_random_matrix(rng, 3, 3, N, 0.5),)], 3)]
    wants = [rref_by_column_sweep(A) for A in shapes]
    product = Cyclotomic.__mul__
    calls = []

    def counting_mul(a, b):
        calls.append(a.is_zero() or (isinstance(b, Cyclotomic) and b.is_zero()))
        return product(a, b)

    monkeypatch.setattr(Cyclotomic, "__mul__", counting_mul)
    for A, want in zip(shapes, wants):
        calls.clear()
        assert rref(A) == want
        span = SpanBasis()
        for vec in A:
            span.add(vec)
        assert (span.rows, span.pivots) == want
        assert calls and not any(calls)


def test_empty_matrix():
    assert rref([]) == rref_by_column_sweep([]) == ([], [])
    assert nullspace([]) == []


def _per_term_sum(xs, ys):
    acc = xs[0] * ys[0]
    for a, b in zip(xs[1:], ys[1:]):
        acc = acc + a * b
    return acc


def _mixed_matrix(rng, nrows, ncols, N):
    """Zero entries, and entries over mixed denominators."""
    zero = Cyclotomic.zero(N)
    out = []
    for _ in range(nrows):
        row = []
        for _ in range(ncols):
            r = rng.random()
            if r < 0.3:
                row.append(zero)
            else:
                v = random_scalar(rng, N) * Cyclotomic.rational(N, rng.choice([1, 1, 2, 3, 12]))
                den = rng.choice([1, 1, 2, 5, 6, 49])
                row.append(v * Cyclotomic.rational(N, den).inverse())
        out.append(row)
    return out


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 8, 12, 15, 420])
def test_fused_products_equal_the_per_term_sum(N):
    rng = random.Random(N)
    for _ in range(3 if N == 420 else 12):
        n, k, m = (rng.randint(1, 5) for _ in range(3))
        A, B = _mixed_matrix(rng, n, k, N), _mixed_matrix(rng, k, m, N)
        product = mat_mul(A, B)
        for i in range(n):
            for j in range(m):
                want = _per_term_sum(A[i], [row[j] for row in B])
                assert (product[i][j].num, product[i][j].den) == (want.num, want.den)
        v = [row[0] for row in B]
        assert [(x.num, x.den) for x in mat_vec(A, v)] == \
            [(w.num, w.den) for w in (_per_term_sum(row, v) for row in A)]


def _power_by_repeated_products(A, k):
    """A^k as identity * A * ... * A, each entry a per-term sum."""
    out = identity(len(A), A[0][0].conductor)
    for _ in range(k):
        out = [[_per_term_sum(row, col) for col in zip(*A)] for row in out]
    return out


@pytest.mark.parametrize("N", [3, 8])
def test_mat_pow_makes_only_the_binary_powering_products(N, monkeypatch):
    calls = []

    def counting_mul(A, B):
        calls.append(len(A))
        return mat_mul(A, B)

    monkeypatch.setattr(linalg, "mat_mul", counting_mul)
    rng = random.Random(N)
    for dim in range(1, 5):
        A = [[random_scalar(rng, N, nonzero=True) for _ in range(dim)]
             for _ in range(dim)]
        for k in range(10):
            calls.clear()
            power = mat_pow(A, k)
            assert mat_eq(power, _power_by_repeated_products(A, k)) and power is not A
            expected = k.bit_length() - 1 + bin(k).count("1") - 1 if k else 0
            assert len(calls) == expected, (dim, k)
    with pytest.raises(ValueError, match="exponent >= 0"):
        mat_pow(A, -1)


def test_fused_product_rejects_mixed_conductors():
    with pytest.raises(ConductorMismatch):
        mat_mul([[Cyclotomic.one(3)]], [[Cyclotomic.one(4)]])
    # a stray conductor anywhere, on a zero entry or inside one factor
    one, zero = Cyclotomic.one(8), Cyclotomic.zero(8)
    for stray in (Cyclotomic.zero(4), Cyclotomic.one(12)):
        with pytest.raises(ConductorMismatch):
            mat_mul([[one, stray]], [[one], [zero]])
        with pytest.raises(ConductorMismatch):
            mat_mul([[one, zero]], [[one], [stray]])


def _fractional_matrix(rng, nrows, ncols, N):
    """Zero with probability 0.4, else a random scalar over a random
    denominator in 1..6, so that the entries' denominators mix."""
    zero = Cyclotomic.zero(N)
    return [[random_scalar(rng, N) * Fraction(1, rng.randint(1, 6))
             if rng.random() < 0.6 else zero for _ in range(ncols)]
            for _ in range(nrows)]


# phi(N) = 1, 2 and 4 run the generated product kernel; 6, 8 and 16 the
# convolutions summed before one fold
@pytest.mark.parametrize("N", (1, 4, 12, 9, 16, 32))
def test_mat_mul_equals_the_entrywise_dot(N):
    rng = random.Random(N)
    for rows, inner, cols in ((1, 1, 1), (2, 3, 1), (3, 2, 4), (4, 4, 4), (1, 5, 3)):
        for _ in range(4):
            A = _fractional_matrix(rng, rows, inner, N)
            B = _fractional_matrix(rng, inner, cols, N)
            got = mat_mul(A, B)
            want = [[dot(row, col) for col in zip(*B)] for row in A]
            assert [[(x.num, x.den) for x in row] for row in got] == \
                [[(x.num, x.den) for x in row] for row in want]
    zero = Cyclotomic.zero(N)
    assert mat_mul([[zero, zero]], [[zero], [zero]]) == [[zero]]
    assert mat_mul([[zero, zero]], [[zero], [zero]])[0][0].den == 1


@pytest.mark.parametrize("N", (1, 4, 12, 9))
def test_factor_product_reads_each_factor_for_many_products(N):
    # one factor of T and of a scaled S serves every product, with the
    # values of mat_mul on the matrices themselves
    rng = random.Random(100 + N)
    T = _fractional_matrix(rng, 3, 3, N)
    s = root_of_unity(N, 1)
    left, scaled = Factor(T), Factor(T, s)
    for _ in range(4):
        A = _fractional_matrix(rng, 3, 2, N)
        assert linalg.factor_product(left, Factor(A)) == mat_mul(T, A)
        assert linalg.factor_product(scaled, Factor(A)) == mat_mul(mat_scale(T, s), A)
    with pytest.raises(ValueError, match="3x3 matrix by a 2x3"):
        linalg.factor_product(left, Factor(_fractional_matrix(rng, 2, 3, N)))


def test_full_rank_mod_p_matches_the_exact_rank():
    for N in CONDUCTORS:
        rng = random.Random(N)
        p = split_prime(N)[0]
        for name, A in _shapes(rng, N):
            image = residues([A], 0)
            if image is None or len(A) > len(A[0]):
                continue
            full = full_rank_mod(image[1][0], p)
            # full rank mod p is an exact certificate
            if full:
                assert _rank(A) == len(A), name
        assert not full_rank_mod([[1, 2], [2, 4]], 7)
        assert full_rank_mod([[1, 2], [3, 4]], 7)


@pytest.mark.parametrize("N", CONDUCTORS)
@pytest.mark.parametrize("seed", range(3))
def test_modular_twin_of_the_kernel(N, seed):
    # on shapes whose entries all have an image mod p, ModularSpan reports
    # the same growth as SpanBasis wherever the rank mod p is the exact rank,
    # and its basis is the reduction of the exact one
    rng = random.Random(2000 * N + seed)
    p = split_prime(N)[0]
    for name, A in _shapes(rng, N):
        (_, [image]) = residues([A], 0)
        span, exact = ModularSpan(p), SpanBasis()
        grew = [(span.add(row_p), exact.add(row)) for row_p, row in zip(image, A)]
        assert all(g == e for g, e in grew), name
        assert span.pivots == exact.pivots, name
        assert span.rows == [[residue(x, 0) for x in row] for row in exact.rows], name
        # the kernel mod p has the form of nullspace's
        assert [[x % p for x in v] for v in span.kernel(len(A[0]))] == \
            [[residue(x, 0) for x in v] for v in nullspace(A)], name
        # products of the images are the images of the products
        if len(A) == len(A[0]):
            assert mat_mul_mod(image, image, p) == \
                [[residue(x, 0) for x in row] for row in mat_mul(A, A)], name


@pytest.mark.parametrize("N", CONDUCTORS)
def test_residues_per_embedding(N):
    rng = random.Random(N)
    A = _random_matrix(rng, 3, 3, N)
    mats = [A, mat_mul(A, A)]
    p = split_prime(N)[0]
    for e in range(euler_phi(N)):
        q, (image, square) = residues(mats, e)
        assert q == p and image == [[residue(x, e) for x in row] for row in A]
        # each embedding is a ring map: the image of A^2 is the image of A squared
        assert mat_mul_mod(image, image, p) == square
    # and they differ: zeta goes to each primitive N-th root mod p once
    zeta = [[root_of_unity(N, 1)]]
    assert len({residues([zeta], e)[1][0][0][0] for e in range(euler_phi(N))}) \
        == euler_phi(N)
    assert all(residues([[[Cyclotomic.rational(N, Fraction(1, p))]]], e) is None
               for e in range(euler_phi(N)))


def test_modular_rank_only_drops():
    # the entry p vanishes mod p: rank 2 exactly, rank 1 mod p
    p = split_prime(1)[0]
    A = [[Cyclotomic.rational(1, v) for v in row] for row in ((1, 2), (3, 6 + p))]
    span = ModularSpan(p)
    assert [span.add(row) for row in residues([A], 0)[1][0]] == [True, False]
    assert len(rref(A)[1]) == 2
    assert residues([[[Cyclotomic.rational(1, Fraction(1, p))]]], 0) is None


def _flat(C):
    return [x for row in C for x in row]


def _holds(make_span, span, vec) -> bool:
    """Whether vec lies in the row space of span."""
    copy = make_span()
    for row in span.rows:
        copy.add(row)
    return not copy.add(vec)


def _invariant_closure(start, gens, mul, make_span):
    """Dimension of the smallest space of matrices holding the entries of
    start and mapped into itself by left multiplication with gens: its
    echelon basis grown until no image of a basis row enlarges it."""
    ncols = len(start[0])
    span = make_span()
    span.add(_flat(start))
    grown = True
    while grown:
        grown = False
        for row in list(span.rows):
            B = [row[i:i + ncols] for i in range(0, len(row), ncols)]
            for A in gens:
                grown |= span.add(_flat(mul(A, B)))
    return span.dim()


@pytest.mark.parametrize("exact", [False, True], ids=["ModularSpan", "SpanBasis"])
def test_spin_is_the_smallest_invariant_subspace(exact):
    p, rng = 13, random.Random(29)
    if exact:
        N = 3
        make_span, mul, cases = SpanBasis, mat_mul, 60
        zero = Cyclotomic.zero(N)

        def entry():
            return random_scalar(rng, N)
    else:
        make_span, cases = (lambda: ModularSpan(p)), 200
        zero = 0

        def mul(A, B):
            return mat_mul_mod(A, B, p)

        def entry():
            return rng.randrange(p)
    dims = []
    for _ in range(cases):
        d = rng.randint(1, 5 if not exact else 4)
        # block upper triangular with a random split point, so that
        # proper invariant subspaces are common
        split = rng.randint(1, d)
        gens = [[[entry() if j >= split or i < split else zero for j in range(d)]
                 for i in range(d)] for _ in range(rng.randint(1, 3))]
        # mostly columns, as Norton's spins; some d x 2 starts
        ncols = rng.choice((1, 1, 2))
        start = [[entry() if rng.random() < 0.5 else zero for _ in range(ncols)]
                 for _ in range(d)]
        span = linalg.spin(start, gens, mul, make_span())
        dims.append(span.dim())
        assert _holds(make_span, span, _flat(start))
        for row in span.rows:
            B = [row[i:i + ncols] for i in range(0, len(row), ncols)]
            assert all(_holds(make_span, span, _flat(mul(A, B))) for A in gens)
        assert dims[-1] == _invariant_closure(start, gens, mul, make_span)
    assert 0 in dims and max(dims) >= 5 and any(0 < x < 4 for x in dims)


def test_spin_of_e0_in_a_direct_sum_is_the_first_summand():
    modules = [inst.module for inst in sweep_instances()]
    sums = [(a, direct_sum(a, b)) for a, b in zip(modules, modules[1:])
            if a.spec is b.spec and a.dim + b.dim <= 6][:24]
    for M, S in sums:
        N = S.spec.conductor
        e0 = [[Cyclotomic.one(N) if i == 0 else Cyclotomic.zero(N)] for i in range(S.dim)]
        span = linalg.spin(e0, S.group_mats + (S.X, S.Y), mat_mul, SpanBasis())
        # M is simple: e_0 spins to all of it, and never into the second summand
        assert span.dim() == M.dim
        assert all(not x for row in span.rows for x in row[M.dim:])
    assert len(sums) == 24 and any(M.dim > 1 for M, _ in sums)


def test_nullspace_mod_is_the_kernel():
    p, rng = 13, random.Random(30)
    for _ in range(100):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        A = [[rng.randrange(p) if rng.random() < 0.6 else 0 for _ in range(c)]
             for _ in range(r)]
        kernel = linalg.nullspace_mod(A, p)
        span = ModularSpan(p)
        for row in A:
            span.add(row)
        assert len(kernel) == c - span.dim()
        assert all(0 <= x < p for v in kernel for x in v)
        assert all(sum(a * x for a, x in zip(row, v)) % p == 0 for v in kernel for row in A)
        assert full_rank_mod(kernel, p)


def test_mat_mul_rejects_shapes_that_do_not_multiply():
    a, b = Cyclotomic.rational(3, 2), Cyclotomic.rational(3, 5)
    B = [[a, b], [b, a]]
    with pytest.raises(ValueError, match="2x1 matrix by a 2x2"):
        mat_mul([[a], [b]], B)
    with pytest.raises(ValueError, match="1x2 matrix by a 1x2"):
        mat_mul([[a, b]], [[a, b]])
    assert mat_mul([[a, b]], B) == [[a * a + b * b, a * b + b * a]]


def test_first_mismatch_rejects_shapes_that_do_not_multiply_or_compare():
    one = Cyclotomic.one(4)
    row, col, square = Factor([[one, one]]), Factor([[one], [one]]), Factor([[one, one], [one, one]])
    with pytest.raises(ValueError, match="1x2 matrix by a 1x2"):
        first_mismatch(row, row, square, square)
    with pytest.raises(ValueError, match="2x2 matrix by a 1x2"):
        first_mismatch(col, row, square, row)
    with pytest.raises(ValueError, match="compare a 1x1 product with a 2x2 product"):
        first_mismatch(row, col, square, square)
    with pytest.raises(ValueError, match="1x2 matrix by a 1x2"):
        product_entry(row, row, 0, 0)
    with pytest.raises(ConductorMismatch):
        first_mismatch(row, col, Factor([[Cyclotomic.one(3)]]), Factor([[Cyclotomic.one(3)]]))
    with pytest.raises(ConductorMismatch):
        Factor([[one]], Cyclotomic.one(3))
    assert first_mismatch(row, col, Factor([[one + one]]), Factor([[one]])) is None


# phi(N) <= 4 runs the generated product kernel; 7, 9 and 15 (phi = 6, 6
# and 8) the convolutions summed before one fold
KERNEL_CONDUCTORS = (1, 3, 4, 5, 8, 12)
FOLD_CONDUCTORS = (7, 9, 15)


def _draw_entry(data, N):
    """Zero, or c1 zeta^k1 + c2 zeta^k2 over a denominator that mixes."""
    if data.draw(st.integers(0, 9)) < 3:
        return Cyclotomic.zero(N)
    value = sum((Cyclotomic.rational(N, data.draw(st.integers(-3, 3))) *
                 root_of_unity(N, data.draw(st.integers(0, N - 1))) for _ in range(2)),
                Cyclotomic.zero(N))
    return value * Fraction(1, data.draw(st.sampled_from((1, 1, 2, 3, 6, 7))))


def _draw_matrix(data, N, nrows, ncols):
    """A random matrix, with a whole zero row or column now and then."""
    zero = Cyclotomic.zero(N)
    A = [[_draw_entry(data, N) for _ in range(ncols)] for _ in range(nrows)]
    if data.draw(st.booleans()):
        i = data.draw(st.integers(0, nrows - 1))
        A[i] = [zero] * ncols
    if data.draw(st.booleans()):
        j = data.draw(st.integers(0, ncols - 1))
        for row in A:
            row[j] = zero
    return A


def _draw_scale(data, N):
    """None, or a root of unity."""
    if data.draw(st.booleans()):
        return None
    return root_of_unity(N, data.draw(st.integers(0, N - 1)))


def _scaled(A, s):
    return A if s is None else mat_scale(A, s)


def _first_entry_that_differs(P, Q):
    return next(((i, j) for i, (row_p, row_q) in enumerate(zip(P, Q))
                 for j, (p, q) in enumerate(zip(row_p, row_q)) if p != q), None)


def _check_first_mismatch_against_products(data, N):
    r, k, c = (data.draw(st.integers(1, 4)) for _ in range(3))
    L1, L2 = _draw_matrix(data, N, r, k), _draw_matrix(data, N, k, c)
    s1, s2, t1, t2 = (_draw_scale(data, N) for _ in range(4))
    left = mat_mul(_scaled(L1, s1), _scaled(L2, s2))
    # R1 R2: another product, the same one regrouped, or the product itself
    # times the identity; the last two equal L1 L2 until one entry moves
    case = data.draw(st.sampled_from(("other", "same", "built")))
    if case == "other":
        m = data.draw(st.integers(1, 4))
        R1, R2 = _draw_matrix(data, N, r, m), _draw_matrix(data, N, m, c)
    elif case == "same":
        R1, R2, t1, t2 = _scaled(L1, s1), _scaled(L2, s2), None, None
    else:
        R1, R2, t1, t2 = left, identity(c, N), None, None
    if case != "other" and data.draw(st.booleans()):
        R1, R2 = [list(row) for row in R1], [list(row) for row in R2]
        target = R1 if data.draw(st.booleans()) else R2
        i = data.draw(st.integers(0, len(target) - 1))
        j = data.draw(st.integers(0, len(target[0]) - 1))
        target[i][j] = target[i][j] + _draw_entry(data, N)
    right = mat_mul(_scaled(R1, t1), _scaled(R2, t2))
    factors = Factor(L1, s1), Factor(L2, s2), Factor(R1, t1), Factor(R2, t2)
    found = first_mismatch(*factors)
    assert found == _first_entry_that_differs(left, right)
    assert (found is None) == (left == right)
    if found is not None:
        i, j = found
        assert product_entry(factors[0], factors[1], i, j) == left[i][j]
        assert product_entry(factors[2], factors[3], i, j) == right[i][j]


@settings(max_examples=150, deadline=None)
@given(data=st.data(), N=st.sampled_from(KERNEL_CONDUCTORS))
def test_first_mismatch_is_where_the_products_differ_kernel_conductors(data, N):
    _check_first_mismatch_against_products(data, N)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), N=st.sampled_from(FOLD_CONDUCTORS))
def test_first_mismatch_is_where_the_products_differ_fold_conductors(data, N):
    _check_first_mismatch_against_products(data, N)
