"""Group ring elements, regular representation matrices, annihilator sizes."""

import contextlib
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from nullity.coeffring import CoeffRing, field, integers_mod, ring_from_spec
from int64_ranks import batch_ranks
from nullity.groupring import (CapExceeded, _bitsliced_ranks, _decode_elements,
                               _digit_planes, _exact_float, _index_digits,
                               _lane_values, _one_blas_thread, _plane_add,
                               _plane_axpy, _plane_double, _plane_multiples,
                               _openblas_threads,
                               _residues, _structure_constants,
                               _zero_product_mask, annihilator_size,
                               annihilator_size_by_enumeration,
                               element_index, element_vector, gr_multiply,
                               matrix_rank, regular_matrix, ring_size)
from nullity.groups import cyclic, group_from_spec, q8, s3
from nullity.oracle import _matrix_unit_table


def test_element_codec_roundtrip():
    K, G = field(3), cyclic(4)
    assert ring_size(K, G) == 81
    for e in (0, 1, 40, 80):
        v = element_vector(K, G, e)
        assert len(v) == 4
        assert element_index(K, G, v) == e
    assert element_vector(K, G, 0) == (0, 0, 0, 0)
    # little-endian in the group index: coefficient of g_0 is the low digit
    assert element_vector(K, G, 5) == (2, 1, 0, 0)


F2, F3, C2 = field(2), field(3), cyclic(2)
BAD_VECTOR_CALLS = [
    (element_vector, (F2, C2, 4), "index is 4"),
    (element_vector, (F2, C2, -1), "index is -1"),
    (element_vector, (F2, C2, 1.0), "index is 1.0"),
    (element_index, (F2, C2, (5, 0)), "coefficient 0 is 5"),
    (element_index, (F2, C2, (1,)), "length 1"),
    (annihilator_size, (F2, C2, (5, 0)), "coefficient 0 is 5"),
    (annihilator_size_by_enumeration, (F2, C2, (0, 2)), "coefficient 1 is 2"),
    (regular_matrix, (F3, C2, (5, -1), "left"), "coefficient 0 is 5"),
    (regular_matrix, (F3, C2, (1, -1), "right"), "coefficient 1 is -1"),
    (gr_multiply, (F3, C2, (5, 0), (1, 0)), "coefficient 0 is 5"),
    (gr_multiply, (F3, C2, (1, 0), (True, 0)), "coefficient 0 is True"),
    (gr_multiply, (F3, C2, (1, 0), (0, 1.5)), "coefficient 1 is 1.5"),
]


@pytest.mark.parametrize("fn, args, bad", BAD_VECTOR_CALLS,
                         ids=[f"{f.__name__}: {b}" for f, _, b in BAD_VECTOR_CALLS])
def test_coefficient_vectors_are_range_checked(fn, args, bad):
    with pytest.raises(ValueError, match=bad):
        fn(*args)


def test_convolution_multiplication():
    K, G = field(2), cyclic(2)
    one_plus_g = (1, 1)
    # (1 + g)^2 = 1 + 2g + g^2 = 0 in characteristic 2
    assert gr_multiply(K, G, one_plus_g, one_plus_g) == (0, 0)

    K5, G3 = field(5), cyclic(3)
    a = (1, 2, 0)
    b = (3, 0, 4)
    # (1 + 2g)(3 + 4g^2) = 3 + 6g + 4g^2 + 8g^3 -> (3+8) + 6g + 4g^2
    assert gr_multiply(K5, G3, a, b) == (1, 1, 4)


def test_multiplication_is_noncommutative_where_the_group_is():
    K, G = field(2), s3()
    a = element_vector(K, G, 0b000110)
    b = element_vector(K, G, 0b010010)
    ab = gr_multiply(K, G, a, b)
    ba = gr_multiply(K, G, b, a)
    assert ab != ba


def test_regular_matrix_identity_and_shape():
    K, G = field(7), s3()
    e = (1, 0, 0, 0, 0, 0)
    for side in ("left", "right"):
        M = regular_matrix(K, G, e, side)
        assert np.array_equal(M, np.eye(6, dtype=np.int64))
    x = (0, 3, 0, 0, 2, 0)
    for side in ("left", "right"):
        M = regular_matrix(K, G, x, side)
        # columns are x*g_j (left) or g_j*x (right), so each column holds
        # the coefficients of x permuted by the group action
        assert sorted(M[:, 0]) == [0, 0, 0, 0, 2, 3]


def test_regular_matrix_matches_direct_product():
    # F_5 is prime, so integer arithmetic mod 5 is the field's
    K, G = field(5), q8()
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = tuple(int(v) for v in rng.integers(0, 5, size=8))
        v = tuple(int(v) for v in rng.integers(0, 5, size=8))
        L = regular_matrix(K, G, x, "left")
        R = regular_matrix(K, G, x, "right")
        assert tuple(L @ v % 5) == gr_multiply(K, G, x, v)
        assert tuple(R @ v % 5) == gr_multiply(K, G, v, x)


def test_all_ones_element_rank():
    # the all-ones element of F_2[C_2] has the all-ones matrix, rank 1
    K, G = field(2), cyclic(2)
    M = regular_matrix(K, G, (1, 1), "right")
    assert np.array_equal(M, np.ones((2, 2), dtype=np.int64))
    assert matrix_rank(K, M) == 1
    assert annihilator_size(K, G, (1, 1), "left") == 2


def test_matrix_rank_basics():
    K = field(3)
    assert matrix_rank(K, np.zeros((3, 3), dtype=int)) == 0
    assert matrix_rank(K, np.eye(4, dtype=int)) == 4
    # rows 0 and 2 are proportional over F_3 (2 = -1)
    assert matrix_rank(K, [[1, 2, 0], [0, 1, 1], [2, 1, 0]]) == 2
    with pytest.raises(ValueError, match="field"):
        matrix_rank(integers_mod(4), [[1]])


def _reference_rank(K, rows) -> int:
    """Rank by textbook row reduction (swap, scale, clear below) in the
    scalar field arithmetic: K.add, K.mul, K.neg and K.inv only."""
    rows = [[int(v) for v in row] for row in rows]
    minus_one = K.neg(1)
    rank = 0
    for col in range(len(rows[0])):
        r = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if r is None:
            continue
        rows[rank], rows[r] = rows[r], rows[rank]
        scale = K.inv(rows[rank][col])
        pivot = [K.mul(scale, v) for v in rows[rank]]
        for i in range(rank + 1, len(rows)):
            c = K.mul(minus_one, rows[i][col])
            rows[i] = [K.add(v, K.mul(c, w)) for v, w in zip(rows[i], pivot)]
        rank += 1
    return rank


def _scalar_op(op, q, x, y):
    """op(x, y) entry by entry through a scalar ring operation on elements
    of a ring of size q, called once per distinct pair of operands."""
    key = x * q + y
    pairs, where = np.unique(key.ravel(), return_inverse=True)
    values = np.array([op(int(v) // q, int(v) % q) for v in pairs], dtype=np.int64)
    return values[where].reshape(key.shape)


def _random_stack(K, rng, batch, nrows, n):
    """(batch, nrows, n) matrices over K of every rank from 0 to n: -A @ C
    with only the first k columns of A kept has rank <= k, its products
    and differences taken in the scalar arithmetic K.mul and K.sub."""
    keep = np.arange(n) < rng.integers(0, n + 1, size=(batch, 1, 1))
    A = np.where(keep, rng.integers(0, K.size, size=(batch, nrows, n)), 0)
    C = rng.integers(0, K.size, size=(batch, n, n))
    mats = np.zeros((batch, nrows, n), dtype=np.int64)
    for j in range(n):
        prod = _scalar_op(K.mul, K.size, A[:, :, j, None], C[:, None, j, :])
        mats = _scalar_op(K.sub, K.size, mats, prod)
    return mats


def _lane_ranks_of(mats, K):
    """The bit-sliced kernel on a (B, R, n) stack: with X the coordinates
    over F_p (the base-p digits of each entry) flattened per entry and
    P[r, j] = r*n + j, the gather X[P] is the stack itself."""
    B, R, n = mats.shape
    X = mats.reshape(B, R * n, 1) // K.p ** np.arange(K.m) % K.p
    A = _digit_planes(X.transpose(1, 2, 0), (K.p - 1).bit_length())
    return _bitsliced_ranks(K, A, np.arange(R * n).reshape(R, n))[:B]


@pytest.mark.parametrize("spec,n,batch", [
    ("F:3", 8, 128), ("F:7", 6, 128), ("F:4", 6, 96), ("F:9", 5, 96), ("F:3^8", 4, 32),
    ("F:121", 4, 48), ("F:11", 6, 64), ("F:13", 5, 64), ("F:31", 5, 48),
    ("F:257", 4, 48), ("F:65537", 3, 32), ("F:4194301", 3, 32), ("F:11^2", 4, 32),
    ("F:43^2", 3, 32), ("F:2039^2", 2, 16)])
def test_batch_ranks_equal_reference_elimination(spec, n, batch):
    # the bit-sliced kernel against textbook elimination in the field's own
    # scalar arithmetic, every field ranked over F_p; each stack mixes zero,
    # rank-deficient and full-rank matrices, so a column has a pivot in
    # some lanes only
    K = ring_from_spec(spec)
    rng = np.random.default_rng(20261018 + n)
    for nrows in (n, 2 * n):
        mats = _random_stack(K, rng, batch, nrows, n)
        want = [_reference_rank(K, m) for m in mats]
        assert {0, n} < set(want)
        assert _lane_ranks_of(mats, K).tolist() == want


@pytest.mark.parametrize("n", [1, 2, 7, 16, 63, 64])
def test_packed_gf2_ranks_equal_int64_ranks(n):
    K = field(2)
    rng = np.random.default_rng(20261018 + n)
    for nrows in (n, 2 * n):
        # sparse to dense rows, so that ranks below full occur too
        density = rng.uniform(0.05, 0.95, size=(64, 1, 1))
        mats = (rng.random((64, nrows, n)) < density).astype(np.int64)
        want = batch_ranks(mats.copy(), K).tolist()
        assert _lane_ranks_of(mats, K).tolist() == want
    special = np.stack([np.zeros((n, n), dtype=np.int64),
                        np.eye(n, dtype=np.int64),
                        np.ones((n, n), dtype=np.int64)])
    assert _lane_ranks_of(special, K).tolist() == [0, n, 1]


def test_packed_gf2_ranks_use_the_top_bit():
    # lane 63 is bit 63 of the first word, the sign bit of an int64; lanes
    # 64 and 128 open the next two words, and lane 129 is the last of 130
    mats = np.zeros((130, 2, 3), dtype=np.int64)
    mats[63] = [[1, 0, 1], [0, 1, 1]]
    mats[64] = [[1, 1, 0], [1, 1, 0]]
    mats[127, 1, 2] = 1
    mats[129] = [[0, 0, 1], [0, 1, 0]]
    want = [0] * 130
    want[63], want[64], want[127], want[129] = 2, 1, 1, 2
    for spec in ("F:2", "F:4", "F:7"):
        assert _lane_ranks_of(mats, ring_from_spec(spec)).tolist() == want


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 31])
def test_plane_add_equals_residue_sum(p):
    # every pair of residues, 70 times over, on one row of planes, into a
    # new array and in place (out = x)
    w = (p - 1).bit_length()
    x, y = (np.tile(v.ravel(), 70)[None] for v in np.mgrid[0:p, 0:p])
    want = _digit_planes((x + y) % p, w)
    X, Y = _digit_planes(x, w), _digit_planes(y, w)
    assert np.array_equal(_plane_add(p, X, Y), want)
    _plane_add(p, X, Y, out=X)
    assert np.array_equal(X, want)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 257])
def test_plane_double_equals_residue_double(p):
    # every residue, 70 times over, on one row of planes
    w = (p - 1).bit_length()
    x = np.tile(np.arange(p), 70)[None]
    want = _digit_planes(2 * x % p, w)
    X = _digit_planes(x, w)
    out = np.empty_like(X)
    assert _plane_double(p, X, out) is out
    assert np.array_equal(out, want)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 257, 65537, 4194301])
def test_plane_axpy_equals_residue_axpy(p):
    # y + f*x with a multiplier f per lane (its planes as the lane masks)
    # and with one f for every lane (bools), on random (3, w, L) planes
    # with the extreme residues 0, 1, p - 1 in every role
    w = (p - 1).bit_length()
    rng = np.random.default_rng(20261020 + p)
    x, y = rng.integers(0, p, size=(2, 3, 500))
    f = rng.integers(0, p, size=500)
    edge = np.array([0, 1, p - 1])
    x[:, :27], y[:, :27] = np.repeat(edge, 9), np.tile(np.repeat(edge, 3), 3)
    f[:27] = np.tile(edge, 9)
    Y = _digit_planes(y, w)
    assert _plane_axpy(p, Y, _digit_planes(f, w), _digit_planes(x, w)) is Y
    assert np.array_equal(Y, _digit_planes((y + f * x) % p, w))
    c = int(f[-1])
    Y = _plane_axpy(p, _digit_planes(y, w), [bool(c >> b & 1) for b in range(w)],
                    _digit_planes(x, w))
    assert np.array_equal(Y, _digit_planes((y + c * x) % p, w))
    assert np.array_equal(_lane_values(Y)[:, :500], (y + c * x) % p)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_plane_multiples_equal_repeated_addition(p):
    # a*x, a = 1..p-1, against x added to itself a - 1 times, on random
    # (3, w, L) planes whose first 40 lanes of each row are zero
    w = (p - 1).bit_length()
    x = np.random.default_rng(20261020 + p).integers(0, p, size=(3, 200), dtype=np.uint8)
    x[:, :40] = 0
    X = _digit_planes(x, w)
    M = _plane_multiples(p, X)
    assert M.shape == (p - 1,) + X.shape
    want = X.copy()
    for a in range(1, p):
        assert np.array_equal(M[a - 1], want), a
        want = _plane_add(p, want, X)
    assert not want.any()  # p*x = 0


@pytest.mark.parametrize("spec", ["F:2", "F:3", "F:4", "F:5", "F:7", "F:8", "F:9",
                                  "F:256", "F:3^6", "F:11", "F:121", "F:251", "F:257",
                                  "F:65537", "F:4194301"])
def test_index_digits_equal_decoded_digits(spec):
    # index bits over F_2 and runs of each digit over odd F_p: the n*m
    # base-p digits of an index, digit-major, are the coordinates
    # (K.decode) of its n base-q digits, from the base-q division (exact
    # while q**n < 2**63); windows start and end anywhere, inside a run of a
    # high digit (one run or two) and across many runs of a low one.  The
    # dtype is the smallest unsigned one that holds p - 1, uint8 to p = 251
    K = ring_from_spec(spec)
    for n, lo, hi in ((0, 0, 3), (1, 0, 2), (4, 3, 200), (6, 1000, 1300), (7, 4095, 4200)):
        if K.size ** n >= 1 << 63:
            continue
        hi = min(hi, K.size ** n)
        lo = min(lo, hi - 1)
        got = _index_digits(K.p, n * K.m, lo, hi)
        assert got.dtype == np.min_scalar_type(K.p - 1)
        assert (got.dtype == np.uint8) == (K.p <= 251)
        want = [[K.decode(int(d)) for d in row]
                for row in _decode_elements(K.size, n, lo, hi)]
        assert got.T.reshape(hi - lo, n, K.m).tolist() == [[list(c) for c in row]
                                                          for row in want]


def test_index_digits_build_nothing_the_size_of_p():
    # windows of 2**15 indices across the wrap of digit 0 from p - 1 to 0,
    # and of digit 1 at p**2 - 1: no cycle of p values is built
    p, B = 4194301, 1 << 15
    for lo in (p - 5, p * p - B // 2):
        tracemalloc.start()
        try:
            got = _index_digits(p, 3, lo, lo + B)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        e = np.arange(lo, lo + B)
        assert got.tolist() == [(e // p**j % p).tolist() for j in range(3)]
        assert peak < 40 * B


# each field at a small n and at a large one (F:4 at n = 32 and F:8 at
# n = 21 are 64- and 63-column matrices over F_2), odd primes at n = 1
# too (one column, with nothing to its right to step), F:32 and F:256 past
# the old four-bit lanes, odd extension fields ranked over F_3, F_5 and
# F_7 (F:3^8 at n = 3 is 24 columns over F_3), and primes past 7, whose
# step is double-and-add, from 4 planes (F:11) to 22 (F:4194301), with
# F:121 and F:43^2 ranked over F_11 and F_43
LANE_CASES = [("F:3", 1), ("F:3", 3), ("F:3", 16), ("F:5", 1), ("F:5", 2), ("F:5", 16),
              ("F:7", 1), ("F:7", 3), ("F:7", 16),
              ("F:4", 3), ("F:4", 32), ("F:8", 3), ("F:8", 21), ("F:16", 3), ("F:16", 16),
              ("F:32", 3), ("F:256", 2), ("F:9", 3), ("F:9", 8), ("F:25", 3),
              ("F:27", 4), ("F:49", 3), ("F:3^6", 2), ("F:3^8", 3),
              ("F:11", 1), ("F:11", 8), ("F:13", 1), ("F:13", 6), ("F:23", 1), ("F:23", 5),
              ("F:121", 1), ("F:121", 4), ("F:43^2", 1), ("F:43^2", 3),
              ("F:257", 1), ("F:257", 4), ("F:4194301", 1), ("F:4194301", 3)]


@pytest.mark.parametrize("spec,n", LANE_CASES, ids=[f"{s}-{n}" for s, n in LANE_CASES])
def test_lane_ranks_equal_int64_ranks(spec, n):
    K = ring_from_spec(spec)
    rng = np.random.default_rng(20261019 + n)
    for nrows in (n, 2 * n):
        mats = _random_stack(K, rng, 48, nrows, n)
        want = batch_ranks(mats.copy(), K).tolist()
        assert _lane_ranks_of(mats, K).tolist() == want
    special = np.stack([np.zeros((n, n), dtype=np.int64),
                        np.eye(n, dtype=np.int64),
                        np.ones((n, n), dtype=np.int64),
                        np.full((n, n), K.size - 1, dtype=np.int64)])
    assert _lane_ranks_of(special, K).tolist() == [0, n, 1, 1]


@pytest.mark.parametrize("spec,n", LANE_CASES, ids=[f"{s}-{n}" for s, n in LANE_CASES])
def test_lane_ranks_read_no_field_arithmetic(spec, n, monkeypatch):
    # the kernel takes its pivot steps from plane doubling and addition,
    # past 7 scaled by Fermat powers of the leads mod p, and F_{p^m} from
    # the modulus alone, so it needs no product, no inverse and no table of
    # the field
    K = ring_from_spec(spec)
    mats = _random_stack(K, np.random.default_rng(20261021 + n), 48, 2 * n, n)
    want = batch_ranks(mats.copy(), K).tolist()

    def forbidden(self):
        raise AssertionError("the bit-sliced kernel read the field's arithmetic")

    monkeypatch.setattr(CoeffRing, "array_ops", forbidden)
    monkeypatch.setattr(K, "_tpow", None)
    assert _lane_ranks_of(mats, K).tolist() == want


@pytest.mark.parametrize("side", ["left", "right", "twosided"])
def test_rank_route_equals_enumeration_route(side):
    K, G = field(2), q8()
    for e in range(ring_size(K, G)):
        x = element_vector(K, G, e)
        by_rank = annihilator_size(K, G, x, side)
        by_enum = annihilator_size_by_enumeration(K, G, x, side)
        assert by_rank == by_enum
    # F:3^8: the rank route ranks x's 8x8 matrix over F_3, built by
    # multiplication by t, the literal route reads the structure constants
    # over F_3, built from the powers of t
    K, G = field(3, 8), cyclic(1)
    for x in ((0,), (5,)):
        assert (annihilator_size(K, G, x, side)
                == annihilator_size_by_enumeration(K, G, x, side))


@pytest.mark.parametrize("coeff, group, xs", [
    ("F:3", "S3", [(0, 1, 0, 0, 2, 0), (1, 0, 2, 0, 0, 1), (0, 2, 2, 0, 0, 2)]),
    ("Z:4", "S3", [(2, 1, 0, 0, 3, 0), (0, 2, 2, 0, 0, 2)]),
    ("F:4", "C2xC2", [(1, 2, 3, 0), (1, 1, 1, 1), (0, 3, 0, 2)]),
])
def test_zero_product_masks_orientation(coeff, group, xs):
    # the row x against every element tests x*a = 0, and through the
    # opposite algebra's constants a*x = 0; S3 cases pick x whose left and
    # right masks differ, so a swap would fail here
    K, G = ring_from_spec(coeff), group_from_spec(group)
    n, total = G.order, ring_size(K, G)
    T, N = _structure_constants(K, G.table)
    zero = (0,) * n
    elements = [element_vector(K, G, e) for e in range(total)]
    for x in xs:
        xr = _coordinate_rows(K, n, [x])
        left = _zero_product_mask(T.transpose(1, 0, 2), N, xr)[0]
        right = _zero_product_mask(T, N, xr)[0]
        assert left.tolist() == [gr_multiply(K, G, a, x) == zero for a in elements]
        assert right.tolist() == [gr_multiply(K, G, x, a) == zero for a in elements]
        if group == "S3":
            assert not np.array_equal(left, right)


@pytest.mark.parametrize("coeff, xs", [
    ("F:3", [(0, 1, 0, 0, 2, 0), (1, 0, 2, 0, 0, 1), (0, 2, 2, 0, 0, 2)]),
    ("Z:4", [(2, 1, 0, 0, 3, 0), (0, 2, 2, 0, 0, 2)]),
])
def test_stacked_map_mask_is_both_sides(coeff, xs):
    # the map b -> (ab, ba), the constants with their transpose stacked
    # behind them, is zero exactly when both products are; the rows x have
    # left and right masks that differ, and the zero row annihilates all
    K, G = ring_from_spec(coeff), s3()
    n, total = G.order, ring_size(K, G)
    T, N = _structure_constants(K, G.table)
    both = np.concatenate([T, T.transpose(1, 0, 2)], axis=2)
    zero = (0,) * n
    elements = [element_vector(K, G, e) for e in range(total)]
    rows = [zero, *xs]
    Z = _zero_product_mask(both, N, _coordinate_rows(K, n, rows))
    for a, got in zip(rows, Z):
        assert got.tolist() == [gr_multiply(K, G, a, b) == zero == gr_multiply(K, G, b, a)
                                for b in elements]
    assert Z[0].all()
    for x, got in zip(xs, Z[1:]):
        xr = _coordinate_rows(K, n, [x])
        left = _zero_product_mask(T.transpose(1, 0, 2), N, xr)[0]
        right = _zero_product_mask(T, N, xr)[0]
        assert not np.array_equal(left, right)
        assert not np.array_equal(got, left) and not np.array_equal(got, right)


def _coordinate_rows(K, n, vectors):
    """Coordinate rows (base-N digits) of coefficient vectors of length n."""
    m, N = K.m, K.characteristic
    digits = [[(c // N**i) % N for c in v for i in range(m)] for v in vectors]
    return np.array(digits, dtype=np.int64).reshape(len(vectors), n * m)


def _masks_at(T, N, K, A, B):
    """Rows of the zero-product mask for the vectors A at the element
    indices of the vectors B, one row of A at a time, so that a large
    ring holds a single mask row."""
    cols = [sum(int(c) * K.size**i for i, c in enumerate(b)) for b in B]
    n = len(A[0])
    return np.array([_zero_product_mask(T, N, _coordinate_rows(K, n, [a]))[0, cols]
                     for a in A])


def _random_vectors(K, n, rng, count):
    """Random coefficient vectors with zero divisors among them: dense and
    sparse vectors, multiples of a proper divisor d of |K| under Z:n (so
    some products vanish only mod N), and for a group c*(1 - g) and c times
    the sum of all g, whose product is zero."""
    q = K.size
    d = next((d for d in range(2, q) if q % d == 0), 1) if not K.is_field else 1
    out = [(0,) * n]
    for i in range(count - 1):
        v = rng.integers(0, q, size=n)
        kind = i % 4
        if kind == 1:
            v = v * (rng.random(n) < 0.3)
        elif kind == 2 and d > 1:
            v = (v * rng.choice([d, q // d])) % q
        elif kind == 3:
            c, g = int(rng.integers(1, q)), int(rng.integers(0, n))
            v = np.full(n, c) if rng.random() < 0.5 else np.eye(n, dtype=np.int64)[0] * c
            if g and v[g] == 0:
                v[g] = K.neg(c)
        out.append(tuple(int(c) for c in v))
    return out


@pytest.mark.parametrize("coeff, groups", [
    ("F:2", ["C:6", "S3", "Q8", "C2xC2"]),
    ("F:3", ["C:3", "S3", "Q8"]),
    ("F:4", ["C:4", "S3", "C2xC2"]),
    ("F:8", ["C:2", "S3"]),
    ("F:9", ["C:3", "Q8"]),
    ("F:3^8", ["C:1"]),
    ("Z:4", ["C:4", "S3", "Q8", "C2xC2"]),
    ("Z:6", ["C:3", "S3"]),
    ("Z:9", ["C:3", "C2xC2"]),
])
def test_structure_constant_masks_equal_python_products(coeff, groups):
    rng = np.random.default_rng(sum(map(ord, coeff)))
    K = ring_from_spec(coeff)
    hits = 0
    for group in groups:
        G = group_from_spec(group)
        n = G.order
        A, B = (_random_vectors(K, n, rng, 14) for _ in range(2))
        T, N = _structure_constants(K, G.table)
        got = _masks_at(T, N, K, A, B)
        want = [[gr_multiply(K, G, a, b) == (0,) * n for b in B] for a in A]
        assert got.tolist() == want, group
        hits += sum(w and any(a) and any(b) for a, row in zip(A, want) for b, w in zip(B, row))
    assert hits or coeff == "F:3^8"  # zero divisors were drawn; a field has none
    if coeff == "Z:4":  # 2 * 2 = 4 vanishes only mod 4
        T, N = _structure_constants(K, group_from_spec("C:1").table)
        mask = _zero_product_mask(T, N, np.array([[2], [1]]))[:, [2]]
        assert mask.tolist() == [[True], [False]]


@pytest.mark.parametrize("N", [4093, 4095, 4096])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_residues_are_exact_at_the_float32_edge(N, dtype):
    # D = 1 puts (N-1)**2 + N just below 2**24, the float32 bound; sums of
    # either sign next to every multiple of N must reduce as Python's %
    bound = (N - 1) ** 2
    assert _exact_float(1, N) == np.float32
    S = [s for k in range(bound // N + 2) for s in (k * N - 1, k * N, k * N + 1)
         if s <= bound] + [bound]
    S = [t for s in S for t in (s, -s)]
    got = _residues(np.array(S, dtype=dtype), N)
    assert got.dtype == dtype
    assert got.astype(np.int64).tolist() == [s % N for s in S]


def test_literal_products_run_on_one_blas_thread(monkeypatch):
    # the float matmuls run on the calling thread and the caller's OpenBLAS
    # thread count comes back afterwards, also when the products raise
    threads = _openblas_threads()
    if threads is None:
        pytest.skip("numpy does not link OpenBLAS")
    get, _ = threads
    before = get()
    with _one_blas_thread():
        assert get() == 1
    assert get() == before
    with pytest.raises(RuntimeError), _one_blas_thread():
        raise RuntimeError
    assert get() == before

    import nullity.groupring as gr
    entered = []

    @contextlib.contextmanager
    def spy():
        with _one_blas_thread():
            entered.append(get())
            yield

    monkeypatch.setattr(gr, "_one_blas_thread", spy)
    K, G = field(2), cyclic(4)
    T, N = _structure_constants(K, G.table)
    X = _decode_elements(N, T.shape[0], 0, ring_size(K, G))
    _zero_product_mask(T, N, X)
    assert entered == [1] and get() == before


def test_overlapping_blas_scopes_restore_thread_count():
    # the second thread opens its scope while the first holds the count at
    # 1 and closes it after the first has closed; scopes taken one at a
    # time leave the count where it was, interleaved ones leave it at 1
    threads = _openblas_threads()
    if threads is None:
        pytest.skip("numpy does not link OpenBLAS")
    get, set_ = threads
    before = get()
    set_(2)
    first_in, second_in, first_out = (threading.Event() for _ in range(3))

    def first():
        with _one_blas_thread():
            first_in.set()
            second_in.wait(0.2)
        first_out.set()

    def second():
        first_in.wait(5)
        with _one_blas_thread():
            second_in.set()
            first_out.wait(5)

    try:
        workers = [threading.Thread(target=f) for f in (first, second)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(10)
        assert second_in.is_set() and first_out.is_set()
        assert get() == 2
    finally:
        set_(before)


@pytest.mark.parametrize("coeff", ["F:2", "F:4", "Z:4", "Z:6"])
@pytest.mark.parametrize("m", [2, 3])
def test_matrix_unit_masks_equal_python_matrix_products(coeff, m):
    rng = np.random.default_rng(m * 100 + len(coeff))
    K = ring_from_spec(coeff)
    A, B = (_random_vectors(K, m * m, rng, 12) for _ in range(2))

    def product(a, b):  # row-major entries, (ab)_il = sum_j a_ij b_jl
        out = []
        for i in range(m):
            for j in range(m):
                s = 0
                for k in range(m):
                    s = K.add(s, K.mul(a[i * m + k], b[k * m + j]))
                out.append(s)
        return out

    T, N = _structure_constants(K, _matrix_unit_table(m))
    got = _masks_at(T, N, K, A, B)
    assert got.tolist() == [[not any(product(a, b)) for b in B] for a in A]


def test_rank_nullity_relation():
    K, G = field(3), s3()
    rng = np.random.default_rng(23)
    for _ in range(25):
        x = tuple(int(v) for v in rng.integers(0, 3, size=6))
        M = regular_matrix(K, G, x, "right")
        r = matrix_rank(K, M)
        assert annihilator_size(K, G, x, "left") == 3 ** (6 - r)


def test_twosided_is_intersection():
    K, G = field(2), s3()
    for e in range(ring_size(K, G)):
        x = element_vector(K, G, e)
        two = annihilator_size(K, G, x, "twosided")
        left = annihilator_size(K, G, x, "left")
        right = annihilator_size(K, G, x, "right")
        assert two <= min(left, right)
        assert two >= 1


def test_unit_elements_have_trivial_annihilator():
    K, G = integers_mod(4), cyclic(2)
    # 1 + 2g squares to 1 + 4g + 4g^2 = 1, so it is a unit
    u = (1, 2)
    assert gr_multiply(K, G, u, u) == (1, 0)
    assert annihilator_size(K, G, u, "left") == 1
    # 2 * (2 + 2g) covers the zero divisor route
    assert annihilator_size(K, G, (2, 0), "left") == 4
    assert annihilator_size(K, G, (2, 2), "twosided") == 8


def test_enumeration_cap_raises():
    K, G = field(2), q8()
    with pytest.raises(CapExceeded, match="256"):
        annihilator_size_by_enumeration(K, G, (1,) * 8, cap=100)


def test_zero_and_identity_annihilators():
    K, G = field(2, 2), cyclic(3)
    n = G.order
    zero = (0,) * n
    one = (1,) + (0,) * (n - 1)
    for side in ("left", "right", "twosided"):
        assert annihilator_size(K, G, zero, side) == 4**n
        assert annihilator_size(K, G, one, side) == 1
