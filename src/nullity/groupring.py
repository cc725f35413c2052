"""Group-ring arithmetic: products, regular-representation matrices, and
per-element annihilator sizes.

An element of K[G] is a coefficient vector indexed by group position: the
tuple (x_0, ..., x_{n-1}) stands for sum x_g * g.  Whole-ring elements are
also addressable by a single index with base-|K| digits, little-endian in
the group position (see :func:`element_vector`).

This module owns the basis table that :mod:`nullity.oracle` reads too:
table[i, j] is the index of b_i * b_j, or n for a zero product.  On it run
the gather index, element decoding, literal zero-product masks and the
batched rank kernel.

Side convention: the LEFT annihilator Ann_l(x) = {a : a*x = 0} is the
kernel of the right-multiplication map v -> v*x, so side="left" sizes are
computed from the side="right" regular matrix, and vice versa.
:func:`regular_matrix` returns that matrix as an int64 ndarray.
"""

from __future__ import annotations

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


def _zero_product_masks(table: np.ndarray, a_vec: np.ndarray, X: np.ndarray,
                        ops) -> np.ndarray:
    """Boolean mask over all b: is a*b = 0.

    Literal convolution: for each basis position g with a_g nonzero, the
    products a_g * b_h are accumulated into position table[g, h]; column n
    absorbs the zero products and is ignored.  No ranks, no kernels.
    """
    n = table.shape[0]
    fwd = np.zeros((X.shape[0], n + 1), dtype=np.int64)
    for g, ag in enumerate(a_vec):
        ag = int(ag)
        if ag == 0:
            continue
        contrib = ops.mul(np.int64(ag), X)
        cols = table[g]
        fwd[:, cols] = ops.add(fwd[:, cols], contrib)
    return ~fwd[:, :n].any(axis=1)


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


def _batch_ranks(mats: np.ndarray, ops) -> np.ndarray:
    """Ranks of a (B, nrows, ncols) stack by in-place elimination, with the
    pivot rule of :func:`_gf2_ranks`: per column, (e_r / lead) * pivot is
    subtracted from every row r, the pivot row (the first with a nonzero
    entry) included, so the rank goes up by one whenever any row had the
    column.  A lead of 0 (no pivot, e all zero) becomes 1 so that ops.inv
    never sees 0.  `ops` supplies vectorized field arithmetic on index arrays.
    """
    B, _, ncols = mats.shape
    b = np.arange(B)
    rank = np.zeros(B, dtype=np.int64)
    for col in range(ncols):
        e = mats[:, :, col]
        first = np.argmax(e != 0, axis=1)
        lead = e[b, first]
        pivot = mats[b, first, col:]
        fac = ops.mul(e, ops.inv(np.where(lead != 0, lead, 1))[:, None])
        mats[:, :, col:] = ops.sub(mats[:, :, col:],
                                   ops.mul(fac[:, :, None], pivot[:, None, :]))
        rank += lead != 0
    return rank


def _gf2_ranks(mats: np.ndarray) -> np.ndarray:
    """Ranks over GF(2) of a (B, nrows, ncols) stack of 0/1 entries,
    ncols <= 64.

    Each row is packed into one uint64 with column j at bit j.  Per column,
    the first row with that bit set is XORed into every row with the bit,
    itself included: the pivot row clears itself and the rest lose the
    bit, so the rank goes up by one whenever any row had it.
    :func:`_batch_ranks` follows the same pivot rule in field arithmetic.
    """
    ncols = mats.shape[2]
    rows = np.bitwise_or.reduce(
        mats.astype(np.uint64) << np.arange(ncols, dtype=np.uint64), axis=2)
    rank = np.zeros(mats.shape[0], dtype=np.int64)
    for col in range(ncols):
        has = (rows >> np.uint64(col)) & np.uint64(1)
        first = np.argmax(has, axis=1)
        pivot = np.take_along_axis(rows, first[:, None], axis=1)
        rows ^= has * pivot
        rank += has.any(axis=1)
    return rank


def matrix_rank(K: CoeffRing, rows) -> int:
    """Rank over a field: the batched elimination on a batch of one."""
    if not K.is_field:
        raise ValueError(f"matrix rank needs field coefficients, got {K.spec}")
    M = np.array(rows, dtype=np.int64)
    if M.size == 0:
        return 0
    return int(_batch_ranks(M[None], K.array_ops())[0])


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
    Each candidate a is one literal product: the transposed table gives
    a*x, the table gives x*a.
    """
    _check_side(side)
    _check_vector(K, G, x)
    total = ring_size(K, G)
    if total > cap:
        raise CapExceeded(
            f"enumeration over |K|^n = {total} candidates exceeds cap {cap}")
    X = _decode_elements(K.size, G.order, 0, total)
    ops = K.array_ops()
    zero = np.ones(total, dtype=bool)
    if side in ("left", "twosided"):
        zero &= _zero_product_masks(G.table.T, x, X, ops)
    if side in ("right", "twosided"):
        zero &= _zero_product_masks(G.table, x, X, ops)
    return int(np.count_nonzero(zero))
