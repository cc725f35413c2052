"""Group-ring arithmetic: products, regular-representation matrices, and
per-element annihilator sizes.

An element of K[G] is a coefficient vector indexed by group position: the
tuple (x_0, ..., x_{n-1}) stands for sum x_g * g.  Whole-ring elements are
also addressable by a single index with base-|K| digits, little-endian in
the group position (see :func:`element_vector`).

This module owns the basis table that :mod:`nullity.oracle` reads too:
table[i, j] is the index of b_i * b_j, or n for a zero product.  On it run
the gather index, element decoding, the two rank kernels (int64
elimination for every field, reading only a product and x - f*y from
``K.array_ops()``, and packed lanes, reading no field arithmetic, for the
slice census over F_p (p <= 7) and F_{2^m} (m <= 4)), and, apart from
them, the literal products: structure constants over the prime ring and a
zero-product mask taken by exact float matmuls, which read no rank helper.

Side convention: the LEFT annihilator Ann_l(x) = {a : a*x = 0} is the
kernel of the right-multiplication map v -> v*x, so side="left" sizes are
computed from the side="right" regular matrix, and vice versa.
:func:`regular_matrix` returns that matrix as an int64 ndarray.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools

import numpy as np

from .coeffring import CoeffRing
from .groups import CayleyGroup

SIDES = ("left", "right", "twosided")

DEFAULT_MAX_ENUMERATION = 1 << 16


class CapExceeded(RuntimeError):
    """A requested exhaustive sweep is larger than its cap allows."""


def _check_side(side: str) -> None:
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}, got {side!r}")


def _is_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _check_vector(K: CoeffRing, G: CayleyGroup, x) -> None:
    if len(x) != G.order:
        raise ValueError(f"coefficient vector has length {len(x)}, group order is {G.order}")
    for i, c in enumerate(x):
        if not _is_int(c) or not 0 <= c < K.size:
            raise ValueError(f"coefficient {i} is {c!r}, expected an integer "
                             f"in [0, {K.size})")


def ring_size(K: CoeffRing, G: CayleyGroup) -> int:
    return K.size**G.order


def element_vector(K: CoeffRing, G: CayleyGroup, e: int) -> tuple[int, ...]:
    """Coefficient vector of the ring element with index e."""
    total = ring_size(K, G)
    if not _is_int(e) or not 0 <= int(e) < total:
        raise ValueError(f"element index is {e!r}, expected an integer "
                         f"in [0, {total})")
    s = K.size
    return tuple((int(e) // s**i) % s for i in range(G.order))


def element_index(K: CoeffRing, G: CayleyGroup, x) -> int:
    _check_vector(K, G, x)
    s = K.size
    return sum(int(c) * s**i for i, c in enumerate(x))


def gr_multiply(K: CoeffRing, G: CayleyGroup, a, b) -> tuple[int, ...]:
    """Convolution product of two coefficient vectors in K[G]."""
    _check_vector(K, G, a)
    _check_vector(K, G, b)
    out = [0] * G.order
    table = G.table
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        row = table[i]
        for j, bj in enumerate(b):
            if bj:
                h = row[j]
                out[h] = K.add(out[h], K.mul(ai, bj))
    return tuple(out)


def _ann_gather_indices(table: np.ndarray, side: str) -> np.ndarray:
    """Index matrix P such that mats = X[:, P] stacks, per element x with
    coefficient rows X (and a trailing zero column), the matrix whose
    kernel is Ann_side(x).

    table[a, b] is the index of b_a * b_b, or n for zero; P points at the
    zero column wherever no basis product lands.  Each row and each column
    of the table must repeat no entry other than n, as in groups and
    matrix units, so that every P entry is one basis element.
    """
    n = table.shape[0]
    a, b = np.nonzero(table < n)
    c = table[a, b]
    right_mult = np.full((n, n), n, dtype=np.int64)
    left_mult = np.full((n, n), n, dtype=np.int64)
    right_mult[c, a] = b  # b_a * b_b = b_c; kernel of v->v*x is Ann_l
    left_mult[c, b] = a  # kernel of v->x*v is Ann_r
    if side == "left":
        return right_mult
    if side == "right":
        return left_mult
    return np.vstack([right_mult, left_mult])


def _decode_elements(size: int, n: int, lo: int, hi: int) -> np.ndarray:
    e = np.arange(lo, hi, dtype=np.int64)
    pows = size ** np.arange(n, dtype=np.int64)
    return (e[:, None] // pows[None, :]) % size


def _exact_float(D: int, N: int):
    """Float dtype in which :func:`_zero_product_mask` is exact over D
    coordinates mod N: every product sum is an integer of at most
    D*(N-1)**2, and the zero test rounds S/N and multiplies back by N."""
    bound = D * (N - 1) ** 2 + N
    if bound < 1 << 24:
        return np.float32
    if bound < 1 << 53:
        return np.float64
    raise ValueError(f"literal products over D = {D} coordinates mod N = {N} "
                     f"reach {bound}, past the exact float64 range 2**53")


def _structure_constants(K: CoeffRing, table: np.ndarray) -> tuple[np.ndarray, int]:
    """(T, N): the structure constants of K[table] over its prime ring Z/N.

    N is p for fields and n for Z:n.  With m = [K : F_p] (1 for Z:n),
    coordinate g*m + i stands for t**i * b_g, so the base-N digits of an
    element index are its coordinates (:func:`_decode_elements` with
    D = n*m).  T[(g, i), (h, j), (c, k)] is the t**k digit of t**(i+j)
    wherever table[g, h] = c < n; a zero product (entry n) adds nothing.
    Raises ValueError before building anything if the products are past
    exact float64.
    """
    n = table.shape[0]
    N = K.characteristic
    m = K.m if K.is_field else 1
    D = n * m
    _exact_float(D, N)
    tpow = K._tpow or [(1,)]
    T = np.zeros((D, D, D), dtype=np.int64)
    g, h = np.nonzero(table < n)
    c = table[g, h][:, None] * m + np.arange(m)
    for i in range(m):
        for j in range(m):
            T[(g * m + i)[:, None], (h * m + j)[:, None], c] = tpow[i + j]
    return T, N


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS that numpy links, or
    None under any other BLAS.  dlsym on numpy's core extension module
    also searches the libraries that module links."""
    try:
        from numpy._core import _multiarray_umath as core
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as core
    try:
        lib = ctypes.CDLL(core.__file__)
    except OSError:
        return None
    for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                           ("openblas", "64_"), ("openblas", "")):
        get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
        set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
        if get is not None and set_ is not None:
            return get, set_
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the enclosed float matmuls on the calling thread alone.  The
    literal products are small (D inner coordinates), a second OpenBLAS
    thread saves little on them, and OpenBLAS workers keep spinning on a
    CPU after each threaded call, slowing whatever the process runs next."""
    threads = _openblas_threads()
    if threads is None:
        yield
        return
    get, set_ = threads
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def _zero_product_mask(T: np.ndarray, N: int, A: np.ndarray,
                       B: np.ndarray) -> np.ndarray:
    """Z[r, s] = (a_r * b_s == 0) for coordinate rows A and B (base-N
    digits, see :func:`_structure_constants`).

    Literal products: output coordinate w of a*b is a @ T[:, :, w] @ b
    mod N, taken as L = (A @ T[:, :, w]) % N in int64 and S = L @ B.T as
    a float matmul, exact in :func:`_exact_float`'s dtype.  No ranks, no
    kernels.
    """
    D = T.shape[0]
    Bt = B.T.astype(_exact_float(D, N))
    blocks = (((A @ T[:, :, w]) % N).astype(Bt.dtype) @ Bt for w in range(D))
    zero = np.ones((A.shape[0], B.shape[0]), dtype=bool)
    with _one_blas_thread():
        for S in blocks:
            Q = S / N
            np.rint(Q, out=Q)
            Q *= N
            zero &= Q == S
    return zero


def regular_matrix(K: CoeffRing, G: CayleyGroup, x, side: str) -> np.ndarray:
    """Matrix of multiplication by x acting on coefficient columns.

    For side="right", entry [i][j] is the coefficient of g_i in g_j * x,
    so the kernel is Ann_l(x); side="left" mirrors this with kernel
    Ann_r(x).  This is the census gather for the kernel's side.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    _check_vector(K, G, x)
    P = _ann_gather_indices(G.table, "left" if side == "right" else "right")
    return np.array([*x, 0], dtype=np.int64)[P]


def _field_inverse(ops, x: np.ndarray, q: int) -> np.ndarray:
    """x**(q-2), the inverse of each nonzero x in F_q (Fermat), by
    square-and-multiply through ops.mul; 1 for q = 2."""
    inv, e = np.ones_like(x), q - 2
    while e:
        if e & 1:
            inv = ops.mul(inv, x)
        x, e = ops.mul(x, x), e >> 1
    return inv


def _batch_ranks(mats: np.ndarray, K: CoeffRing) -> np.ndarray:
    """Ranks over the field K of a (B, nrows, ncols) stack by in-place
    elimination, with the pivot rule of :func:`_lane_ranks`: per column the
    pivot row (the first with a nonzero entry) is scaled to lead 1 and
    e_r * pivot is subtracted from every row r, the pivot row included, so
    the rank goes up by one whenever any row had the column.  Only mul and
    submul of ``K.array_ops()`` are read: the scale is the Fermat inverse
    of the lead, a lead of 0 (no pivot) taken as 1.  This int64 kernel
    serves every field and is the reference.
    """
    ops = K.array_ops()
    B, _, ncols = mats.shape
    b = np.arange(B)
    rank = np.zeros(B, dtype=np.int64)
    for col in range(ncols):
        e = mats[:, :, col]
        first = np.argmax(e != 0, axis=1)
        lead = e[b, first]
        scale = _field_inverse(ops, np.where(lead != 0, lead, 1), K.size)
        pivot = ops.mul(mats[b, first, col:], scale[:, None])
        mats[:, :, col:] = ops.submul(mats[:, :, col:], e[:, :, None], pivot[:, None, :])
        rank += lead != 0
    return rank


def _lane_width(p: int, m: int, ncols: int) -> int:
    """Bits per column of the packed-row kernel over F_{p^m} with ncols
    columns, or 0 where it does not apply.  F_{2^m} with m <= 4 takes m
    bits (F_2 one bit), F_p with p <= 7 takes 4 bits, and a whole row must
    fit one uint64.  The kernel builds all q multiples of each pivot, so
    its work per column grows with q.  Larger fields stay on int64: from
    F:17 and F:32 up it ran their censuses faster, and no benchmark
    workload measures F:11 or F:13, where lanes won at n >= 5."""
    if p == 2 and m <= 4:
        w = m
    elif m == 1 and p <= 7:
        w = 4
    else:
        return 0
    return w if w * ncols <= 64 else 0


def _pack_rows(X: np.ndarray, P: np.ndarray, w: int) -> np.ndarray:
    """The gather X[:, P] as (B, R) uint64 words, column j of each row in
    lane j (bits w*j to w*j + w - 1).  X holds digits below 2**w; they are
    gathered as uint8, one column of P at a time, so the (B, R, n) stack
    is never built.  The gather runs on the transposes, where it copies
    whole rows."""
    XT = np.ascontiguousarray(X.T, dtype=np.uint8)
    rows = np.zeros((P.shape[0], X.shape[0]), dtype=np.uint64)
    for j in range(P.shape[1]):
        rows |= XT[P[:, j]].astype(np.uint64) << np.uint64(w * j)
    return np.ascontiguousarray(rows.T)


def _lane_ranks(rows: np.ndarray, K: CoeffRing, w: int, ncols: int) -> np.ndarray:
    """Ranks over F_p or F_{2^m} of (B, R) rows packed by :func:`_pack_rows`
    in w-bit lanes, w = _lane_width(K.p, K.m, ncols); rows may be
    overwritten.

    A lane holds the element index, which over F_{2^m} is the bit vector of
    its coefficients in t.  Over F_{2^m} lanes add by XOR, and t*x shifts
    each lane up one bit and folds t**m back in by the modulus.  Over F_p
    the words are added, and p is subtracted in every lane whose sum
    reaches p: exactly the lanes whose top bit adding 2**(w-1) - p sets.
    No lane carries into the next.

    Per column the pivot is the first row with the lane nonzero; its
    multiples c*pivot, c in K, are built once per batch entry by doubling.
    c*pivot holds c*lead in the column's lane, so one scatter by that lane
    gives step[c*lead] = -c*pivot, i.e. step[e] = -(e/lead)*pivot, with no
    field arithmetic.  step[e_r] is added into every row r through one
    take_along_axis (over F_2, a product).  The pivot row clears itself, as
    in :func:`_batch_ranks`, so the rank goes up by one whenever any row had
    the column.
    """
    p, q = K.p, K.size
    low = sum(1 << (w * j) for j in range(ncols))  # bit 0 of every lane
    lanes, top, shift = np.uint64(low), np.uint64(low << (w - 1)), np.uint64(w - 1)
    if p == 2:
        add = np.bitwise_xor
        fold = np.uint64(K.encode(K.modulus_poly or ()))

        def double(x):  # t * x
            return ((x & ~top) << np.uint64(1)) ^ (((x >> shift) & lanes) * fold)
    else:
        bias, pw = np.uint64(((1 << (w - 1)) - p) * low), np.uint64(p)

        def add(x, y):
            s = x + y
            carry = s + bias
            carry >>= shift
            carry &= lanes
            carry *= pw
            s -= carry
            return s

        def double(x):
            return add(x, x)
    B = rows.shape[0]
    b = np.arange(B)
    mask = np.uint64((1 << w) - 1)
    mult = np.zeros((B, q), dtype=np.uint64)
    step = np.zeros((B, q), dtype=np.uint64)
    neg = np.arange(q) if p == 2 else (-np.arange(q)) % p  # index of -c
    rank = np.zeros(B, dtype=np.int64)
    for col in range(ncols):
        at = np.uint64(w * col)
        e = ((rows >> at) & mask).view(np.int64)
        first = np.argmax(e != 0, axis=1)
        lead = e[b, first]
        # mult[:, c] = c * pivot: index 2**i is 2**i over F_p and t**i over
        # F_{2^m}, and mult[:, 2**i + c] = mult[:, 2**i] + mult[:, c]
        d, k = rows[b, first], 1
        while k < q:
            j = min(k, q - k)
            mult[:, k:k + j] = add(mult[:, :j], d[:, None])
            d, k = double(d), 2 * k
        # step[:, c * lead] = -c * pivot; with no pivot only step[:, 0] is read
        step[b[:, None], ((mult >> at) & mask).view(np.int64)] = mult[:, neg]
        step[:, 0] = 0
        if q == 2:  # the lookup is a product, several times cheaper
            rows ^= e.view(np.uint64) * step[:, 1:]
        else:
            rows = add(rows, np.take_along_axis(step, e, axis=1))
        rank += lead != 0
    return rank


def _slice_ranks(K: CoeffRing, X: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Ranks of the gathered stack X[:, P] over the field K: on packed lanes
    where :func:`_lane_width` allows them, else by :func:`_batch_ranks`."""
    n = P.shape[1]
    w = _lane_width(K.p, K.m, n)
    if w:
        return _lane_ranks(_pack_rows(X, P, w), K, w, n)
    return _batch_ranks(X[:, P], K)


def matrix_rank(K: CoeffRing, rows) -> int:
    """Rank over a field: the batched elimination on a batch of one."""
    if not K.is_field:
        raise ValueError(f"matrix rank needs field coefficients, got {K.spec}")
    M = np.array(rows, dtype=np.int64)
    if M.size == 0:
        return 0
    return int(_batch_ranks(M[None], K)[0])


def annihilator_size(K: CoeffRing, G: CayleyGroup, x, side: str = "left", *,
                     max_enumeration: int = DEFAULT_MAX_ENUMERATION) -> int:
    """|Ann_side(x)| for a single element.

    Fields go through matrix rank; Z:n coefficients fall back to direct
    enumeration of all |K|**n candidates (cap-guarded).
    """
    _check_side(side)
    _check_vector(K, G, x)
    if not K.is_field:
        return annihilator_size_by_enumeration(K, G, x, side, cap=max_enumeration)
    M = np.array([*x, 0], dtype=np.int64)[_ann_gather_indices(G.table, side)]
    return K.size ** (G.order - matrix_rank(K, M))


def annihilator_size_by_enumeration(K: CoeffRing, G: CayleyGroup, x,
                                    side: str = "left", *,
                                    cap: int = DEFAULT_MAX_ENUMERATION) -> int:
    """|Ann_side(x)| by testing every candidate annihilator directly.

    Works over any coefficient ring; used as the rank-free cross-check.
    Each candidate a is one literal product from the structure constants
    (:func:`_zero_product_mask`), with x as the one-row block on the left:
    x*a for the right side, and for the left a*x, which is x*a in the
    opposite algebra, whose structure constants are T.transpose(1, 0, 2).
    """
    _check_side(side)
    _check_vector(K, G, x)
    total = ring_size(K, G)
    if total > cap:
        raise CapExceeded(
            f"enumeration over |K|^n = {total} candidates exceeds cap {cap}")
    T, N = _structure_constants(K, G.table)
    X = _decode_elements(N, T.shape[0], 0, total)
    e = element_index(K, G, x)
    xr = X[e:e + 1]
    zero = np.ones(total, dtype=bool)
    if side in ("left", "twosided"):
        zero &= _zero_product_mask(T.transpose(1, 0, 2), N, xr, X)[0]
    if side in ("right", "twosided"):
        zero &= _zero_product_mask(T, N, xr, X)[0]
    return int(np.count_nonzero(zero))
