"""Test-only int64 elimination: the reference the bit-sliced kernel is
checked against.

Ranks are taken in residue arithmetic mod p on int64 element indices,
reading only mul and submul of ``K.array_ops()``; an extension field
F_{p^m} is ranked over F_p, each entry an m x m block built by digit shifts
and folds of the modulus.  It shares nothing with the kernel in
:mod:`nullity.groupring` but the pivot rule.
"""

import numpy as np

from nullity.groupring import _decode_elements


def field_inverse(ops, x: np.ndarray, p: int) -> np.ndarray:
    """x**(p-2), the inverse of each nonzero x in F_p (Fermat), by
    square-and-multiply through ops.mul; 1 for p = 2."""
    inv, e = np.ones_like(x), p - 2
    while e:
        if e & 1:
            inv = ops.mul(inv, x)
        x, e = ops.mul(x, x), e >> 1
    return inv


def restricted(K, mats: np.ndarray) -> np.ndarray:
    """The (B, R*m, n*m) matrices over F_p of a (B, R, n) stack over
    K = F_{p^m} read as F_p-linear maps: block (r, c) holds at (i, s) the
    t**i digit of mats[r, c] * t**s.  Each power of t comes from the last
    by a digit shift and a fold of t**m = -(a_0 + ... + a_{m-1} t**(m-1))
    from the modulus."""
    p, m = K.p, K.m
    B, R, n = mats.shape
    d = mats[..., None] // p ** np.arange(m) % p
    blocks = [d]
    for _ in range(1, m):
        top = d[..., -1:]
        d = np.concatenate([np.zeros_like(top), d[..., :-1]], axis=-1)
        d = (d - top * np.array(K.modulus_poly)) % p
        blocks.append(d)
    W = np.stack(blocks, axis=-1)  # (B, R, n, i, s)
    return W.transpose(0, 1, 3, 2, 4).reshape(B, R * m, n * m)


def batch_ranks(mats: np.ndarray, K) -> np.ndarray:
    """Ranks over the field K of a (B, nrows, ncols) int64 stack of element
    indices, with the pivot rule of the bit-sliced kernel: per column the
    pivot row (the first with a nonzero entry) is scaled to lead 1 and
    e_r * pivot is subtracted from every row r, the pivot row included, so
    the rank goes up by one whenever any row had the column.  The scale is
    the Fermat inverse of the lead, a lead of 0 (no pivot) taken as 1.
    F_{p^m} is ranked over F_p (:func:`restricted`), m times its rank over
    K.  mats is overwritten for prime fields."""
    if K.m > 1:
        mats = restricted(K, mats)
    ops = K.array_ops()
    B, _, ncols = mats.shape
    b = np.arange(B)
    rank = np.zeros(B, dtype=np.int64)
    for col in range(ncols):
        e = mats[:, :, col]
        first = np.argmax(e != 0, axis=1)
        lead = e[b, first]
        scale = field_inverse(ops, np.where(lead != 0, lead, 1), K.p)
        pivot = ops.mul(mats[b, first, col:], scale[:, None])
        mats[:, :, col:] = ops.submul(mats[:, :, col:], e[:, :, None], pivot[:, None, :])
        rank += lead != 0
    return rank // K.m


def slice_indices(K, n: int, lo: int, hi: int) -> np.ndarray:
    """(hi - lo, n + 1) int64 element indices of the coefficients of slice
    elements lo..hi-1 (x_0 = 1, then the base-|K| digits of the slice
    index) and the zero sentinel column, decoded by division; exact while
    |K|**(n-1) < 2**63."""
    X = np.zeros((hi - lo, n + 1), dtype=np.int64)
    X[:, 0] = 1
    X[:, 1:n] = _decode_elements(K.size, n - 1, lo, hi)
    return X
