"""Group-ring arithmetic: products, regular-representation matrices, and
per-element annihilator sizes.

An element of K[G] is a coefficient vector indexed by group position: the
tuple (x_0, ..., x_{n-1}) stands for sum x_g * g.  Whole-ring elements are
also addressable by a single index with base-|K| digits, little-endian in
the group position (see :func:`element_vector`).

Side convention: the LEFT annihilator Ann_l(x) = {a : a*x = 0} is the
kernel of the right-multiplication map v -> v*x, so side="left" sizes are
computed from the side="right" regular matrix, and vice versa.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _check_vector(G: CayleyGroup, x) -> None:
    if len(x) != G.order:
        raise ValueError(f"coefficient vector has length {len(x)}, group order is {G.order}")


def ring_size(K: CoeffRing, G: CayleyGroup) -> int:
    return K.size**G.order


def element_vector(K: CoeffRing, G: CayleyGroup, e: int) -> tuple[int, ...]:
    """Coefficient vector of the ring element with index e."""
    s = K.size
    return tuple((e // s**i) % s for i in range(G.order))


def element_index(K: CoeffRing, G: CayleyGroup, x) -> int:
    s = K.size
    return sum(int(c) * s**i for i, c in enumerate(x))


def gr_multiply(K: CoeffRing, G: CayleyGroup, a, b) -> tuple[int, ...]:
    """Convolution product of two coefficient vectors in K[G]."""
    _check_vector(G, a)
    _check_vector(G, b)
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


def gr_add(K: CoeffRing, G: CayleyGroup, a, b) -> tuple[int, ...]:
    _check_vector(G, a)
    _check_vector(G, b)
    return tuple(K.add(x, y) for x, y in zip(a, b))


@dataclass(frozen=True)
class RepMatrix:
    """A regular-representation matrix over K, entries as ring indices.

    side="left" represents v -> x*v; side="right" represents v -> v*x.
    """
    entries: np.ndarray
    side: str


def regular_matrix(K: CoeffRing, G: CayleyGroup, x, side: str) -> RepMatrix:
    """Matrix of multiplication by x acting on coefficient columns.

    For side="right", entry [i][j] is the coefficient of g_i in g_j * x,
    so the kernel is Ann_l(x); side="left" mirrors this with kernel
    Ann_r(x).
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    _check_vector(G, x)
    n = G.order
    t = G.table
    M = np.zeros((n, n), dtype=np.int64)
    for j in range(n):
        for g, xg in enumerate(x):
            if xg:
                i = t[j, g] if side == "right" else t[g, j]
                M[i, j] = xg
    return RepMatrix(M, side)


def apply_matrix(K: CoeffRing, M: RepMatrix, v) -> tuple[int, ...]:
    """M acting on a coefficient column, scalar arithmetic in K."""
    n = M.entries.shape[0]
    out = []
    for i in range(n):
        acc = 0
        for j in range(n):
            acc = K.add(acc, K.mul(int(M.entries[i, j]), v[j]))
        out.append(acc)
    return tuple(out)


def _batch_ranks(mats: np.ndarray, ops) -> np.ndarray:
    """Ranks of a (B, nrows, ncols) stack by in-place elimination.

    Pivoting picks the first not-yet-used row with a nonzero entry in the
    current column; rows below the pivot are cleared.  `ops` supplies
    vectorized field arithmetic on index arrays.
    """
    B, nrows, ncols = mats.shape
    pivot = np.zeros(B, dtype=np.int64)
    rowidx = np.arange(nrows)
    for col in range(ncols):
        cand = (mats[:, :, col] != 0) & (rowidx[None, :] >= pivot[:, None])
        has = cand.any(axis=1)
        b = np.nonzero(has)[0]
        if b.size == 0:
            continue
        r0 = pivot[b]
        r1 = np.argmax(cand[b], axis=1)
        tmp = mats[b, r0, col:].copy()
        mats[b, r0, col:] = mats[b, r1, col:]
        mats[b, r1, col:] = tmp
        prow = ops.mul(ops.inv(mats[b, r0, col])[:, None], mats[b, r0, col:])
        mats[b, r0, col:] = prow
        block = mats[b, :, col:]
        below = rowidx[None, :] > r0[:, None]
        fac = np.where(below, block[:, :, 0], 0)
        block = ops.sub(block, ops.mul(fac[:, :, None], prow[:, None, :]))
        mats[b, :, col:] = block
        pivot[b] += 1
    return pivot


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
    _check_vector(G, x)
    if not K.is_field:
        return annihilator_size_by_enumeration(K, G, x, side, cap=max_enumeration)
    if side == "left":
        M = regular_matrix(K, G, x, "right").entries
    elif side == "right":
        M = regular_matrix(K, G, x, "left").entries
    else:
        M = np.vstack([regular_matrix(K, G, x, "right").entries,
                       regular_matrix(K, G, x, "left").entries])
    return K.size ** (G.order - matrix_rank(K, M))


def annihilator_size_by_enumeration(K: CoeffRing, G: CayleyGroup, x,
                                    side: str = "left", *,
                                    cap: int = DEFAULT_MAX_ENUMERATION) -> int:
    """|Ann_side(x)| by testing every candidate annihilator directly.

    Works over any coefficient ring; used as the rank-free cross-check.
    """
    _check_side(side)
    _check_vector(G, x)
    total = ring_size(K, G)
    if total > cap:
        raise CapExceeded(
            f"enumeration over |K|^n = {total} candidates exceeds cap {cap}")
    zero = (0,) * G.order
    x = tuple(x)
    count = 0
    for e in range(total):
        alpha = element_vector(K, G, e)
        if side in ("left", "twosided") and gr_multiply(K, G, alpha, x) != zero:
            continue
        if side in ("right", "twosided") and gr_multiply(K, G, x, alpha) != zero:
            continue
        count += 1
    return count
