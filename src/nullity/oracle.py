"""Exhaustive ground truth for zero-product probabilities.

Two independent routes are kept deliberately separate:

* the annihilator census: regular matrices are built and their ranks taken
  by batched Gaussian elimination, giving the histogram
  counts[k] = #{x : |Ann_side(x)| = |K|**k}.  By default only the slice
  {x : x_e = 1} is ranked and each slice element is weighted by its orbit
  size; method="full" ranks every element and is the reference;
* naive pair counting: literal convolution products over all (a, b) pairs
  with no linear algebra anywhere, used to cross-validate the census and to
  cover Z:n coefficients where rank is meaningless.

Chunk boundaries depend only on the amount of work, so histograms are
identical for any worker count; partial tables merge by componentwise
addition.
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .coeffring import CoeffRing
from .groupring import CapExceeded, SIDES, _check_side, ring_size
from .groups import CayleyGroup

DEFAULT_MAX_ELEMENTS = 1 << 22
DEFAULT_MAX_PAIRS = 1 << 20
_CHUNK = 1 << 13

CENSUS_METHODS = ("slice", "full")

RELATIONS = ("ab=0", "ab=0&ba=0")


@dataclass
class AnnihilatorHistogram:
    """Census result: counts[k] elements have annihilator size base**k."""

    group: str
    coeff: str
    side: str
    base: int
    counts: list[int]

    @property
    def dimension(self) -> int:
        return len(self.counts) - 1

    def annihilator_sizes(self) -> list[int]:
        return [self.base**k for k in range(len(self.counts))]

    def weighted_sum(self) -> int:
        """sum over x of |Ann_side(x)| = the matching zero-pair count."""
        return sum(c * self.base**k for k, c in enumerate(self.counts))

    def unit_count(self) -> int:
        return self.counts[0]

    def probability(self) -> Fraction:
        n = self.dimension
        return Fraction(self.weighted_sum(), self.base ** (2 * n))


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


def _ann_gather_indices(G: CayleyGroup, side: str) -> np.ndarray:
    """Index matrix P such that mats = X[:, P] stacks, per element x with
    coefficient rows X, the matrix whose kernel is Ann_side(x)."""
    t = G.table
    inv = G.inverses
    right_mult = t[inv].T  # [i, j] = inv(j) * i; kernel of v->v*x is Ann_l
    left_mult = t[:, inv]  # [i, j] = i * inv(j); kernel of v->x*v is Ann_r
    if side == "left":
        return right_mult
    if side == "right":
        return left_mult
    return np.vstack([right_mult, left_mult])


def _decode_elements(size: int, n: int, lo: int, hi: int) -> np.ndarray:
    e = np.arange(lo, hi, dtype=np.int64)
    pows = size ** np.arange(n, dtype=np.int64)
    return (e[:, None] // pows[None, :]) % size


def _census_rows(size: int, n: int, lo: int, hi: int, sliced: bool) -> np.ndarray:
    """Coefficient rows of elements lo..hi: all of K[G], or the slice
    x_e = 1 whose index j holds (1, base-|K| digits of j)."""
    if not sliced:
        return _decode_elements(size, n, lo, hi)
    X = np.ones((hi - lo, n), dtype=np.int64)
    X[:, 1:] = _decode_elements(size, n - 1, lo, hi)
    return X


def _census_chunk(K: CoeffRing, G: CayleyGroup, P: np.ndarray,
                  lo: int, hi: int, sliced: bool) -> np.ndarray:
    """tab[k, s] = #{x in the chunk : nullity k, support size s}."""
    n = G.order
    X = _census_rows(K.size, n, lo, hi, sliced)
    ranks = _batch_ranks(X[:, P], K.array_ops())
    support = np.count_nonzero(X, axis=1)
    cells = np.bincount((n - ranks) * (n + 1) + support, minlength=(n + 1) ** 2)
    return cells.reshape(n + 1, n + 1)


def _orbit_weighted_counts(tab: np.ndarray, q: int) -> list[int]:
    """Full histogram from the slice table: every slice element y stands
    for n(q-1)/|supp y| nonzero elements, and the zero element is added.

    The weights are scaled by L = lcm(1..n) so the sum stays in integers.
    """
    n = tab.shape[0] - 1
    L = math.lcm(*range(1, n + 1))
    scaled = [sum(int(tab[k, s]) * (n * (q - 1) * L // s) for s in range(1, n + 1))
              for k in range(n + 1)]
    counts = []
    for v in scaled:
        c, r = divmod(v, L)
        assert r == 0, "defect: orbit-weighted census count is not an integer"
        counts.append(c)
    counts[n] += 1
    return counts


def _pool_size(workers: int, chunks: int) -> int:
    """Census threads: one per chunk at most; workers must be >= 1."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return min(workers, chunks)


def annihilator_histogram(K: CoeffRing, G: CayleyGroup, side: str = "left", *,
                          max_elements: int = DEFAULT_MAX_ELEMENTS,
                          workers: int = 1,
                          method: str = "slice") -> AnnihilatorHistogram:
    """Full annihilator census of K[G] on one side.

    Field coefficients only; Z:n probabilities go through pair counting
    instead.  Deterministic for any worker count.  `max_elements` bounds
    |K|^n whichever method runs.

    method="slice" (the default) ranks only the |K|^(n-1) elements with
    x_e = 1.  |Ann_side(x)| is constant on the orbits of x -> c*g*x (c in
    K*, g in G), and exactly |supp x| of the pairs (c, g) put c*g*x in the
    slice, so sum over x != 0 of f(x) equals sum over slice y of
    f(y) * n(q-1)/|supp y|.  Invariance holds on every side:

    * left and right: g is a unit, so Ann_l(gx) = Ann_l(x) g^-1 and
      Ann_r(gx) = Ann_r(x);
    * twosided: under the symmetric trace form <a, b> = (ab)_e, the set
      T(x) = {b : xb = 0 = bx} is (Ax + xA)^perp, with A = K[G].  Ax is a
      left ideal, so A(gx) + (gx)A = Ax + g x A = g(Ax + xA), which has the
      dimension of Ax + xA; hence |T(gx)| = |T(x)|.

    method="full" ranks all |K|^n elements; it is the reference for
    cross-checks.
    """
    _check_side(side)
    if method not in CENSUS_METHODS:
        raise ValueError(f"method must be one of {CENSUS_METHODS}, got {method!r}")
    if not K.is_field:
        raise ValueError(
            f"annihilator census needs field coefficients, got {K.spec}; "
            "Z:n probabilities use pair enumeration")
    total = ring_size(K, G)
    if total > max_elements:
        raise CapExceeded(
            f"census over |K|^n = {total} elements exceeds max_elements={max_elements}")
    sliced = method == "slice"
    work = total // K.size if sliced else total
    chunks = -(-work // _CHUNK)
    pool = _pool_size(workers, chunks)
    spans = [(i * work // chunks, (i + 1) * work // chunks) for i in range(chunks)]
    P = _ann_gather_indices(G, side)
    K.array_ops()  # build shared tables once, outside worker threads
    if pool > 1:
        with ThreadPoolExecutor(max_workers=pool) as ex:
            parts = list(ex.map(lambda s: _census_chunk(K, G, P, *s, sliced), spans))
    else:
        parts = [_census_chunk(K, G, P, *s, sliced) for s in spans]
    tab = np.zeros((G.order + 1, G.order + 1), dtype=np.int64)
    for part in parts:
        tab += part
    if sliced:
        counts = _orbit_weighted_counts(tab, K.size)
    else:
        counts = [int(c) for c in tab.sum(axis=1)]
    assert sum(counts) == total, "defect: census counts do not sum to |K|^n"
    return AnnihilatorHistogram(G.spec, K.spec, side, K.size, counts)


def nullity_probability(K: CoeffRing, G: CayleyGroup, side: str = "left", *,
                        max_elements: int = DEFAULT_MAX_ELEMENTS,
                        max_pairs: int = DEFAULT_MAX_PAIRS,
                        workers: int = 1) -> Fraction:
    """Exact probability that a uniform pair multiplies to zero.

    side="left"/"right" is Pr[ab = 0]; side="twosided" is
    Pr[ab = 0 and ba = 0].  Fields use the census; Z:n counts pairs.
    """
    _check_side(side)
    if K.is_field:
        hist = annihilator_histogram(K, G, side, max_elements=max_elements,
                                     workers=workers)
        return hist.probability()
    relation = "ab=0" if side in ("left", "right") else "ab=0&ba=0"
    total = ring_size(K, G)
    count = pair_count_naive(K, G, relation, max_pairs=max_pairs)
    return Fraction(count, total * total)


def _zero_product_masks(K: CoeffRing, G: CayleyGroup, a_vec: np.ndarray,
                        X: np.ndarray, ops, want_ba: bool):
    """Boolean masks over all b: is a*b = 0 (and b*a = 0 if asked).

    Literal convolution: for each group position g with a_g nonzero, the
    products a_g * b_h are accumulated into position g*h (and h*g for the
    reversed product).  No ranks, no kernels.
    """
    t = G.table
    N = X.shape[0]
    fwd = np.zeros((N, G.order), dtype=np.int64)
    rev = np.zeros((N, G.order), dtype=np.int64) if want_ba else None
    for g, ag in enumerate(a_vec):
        ag = int(ag)
        if ag == 0:
            continue
        contrib = ops.mul(np.int64(ag), X)
        cols = t[g]
        fwd[:, cols] = ops.add(fwd[:, cols], contrib)
        if want_ba:
            cols_r = t[:, g]
            rev[:, cols_r] = ops.add(rev[:, cols_r], contrib)
    ok = ~fwd.any(axis=1)
    if want_ba:
        ok &= ~rev.any(axis=1)
    return ok


def pair_count_naive(K: CoeffRing, G: CayleyGroup, relation: str = "ab=0", *,
                     max_pairs: int = DEFAULT_MAX_PAIRS) -> int:
    """#{(a, b) : a*b = 0} (or with b*a = 0 as well) by literal products.

    Every ordered pair is evaluated; nothing is shared with the rank-based
    census.  Works over any coefficient ring.
    """
    if relation not in RELATIONS:
        raise ValueError(f"relation must be one of {RELATIONS}, got {relation!r}")
    total = ring_size(K, G)
    if total * total > max_pairs:
        raise CapExceeded(
            f"naive count over |K|^n squared = {total * total} pairs "
            f"exceeds max_pairs={max_pairs}")
    want_ba = relation == "ab=0&ba=0"
    X = _decode_elements(K.size, G.order, 0, total)
    ops = K.array_ops()
    count = 0
    for a in range(total):
        ok = _zero_product_masks(K, G, X[a], X, ops, want_ba)
        count += int(ok.sum())
    return count


def zero_product_matrix(K: CoeffRing, G: CayleyGroup, *,
                        max_pairs: int = DEFAULT_MAX_PAIRS) -> np.ndarray:
    """Boolean matrix Z[a, b] = (a*b == 0) over all ring-element indices."""
    total = ring_size(K, G)
    if total * total > max_pairs:
        raise CapExceeded(
            f"zero-product matrix needs {total * total} pairs, cap is {max_pairs}")
    X = _decode_elements(K.size, G.order, 0, total)
    ops = K.array_ops()
    Z = np.empty((total, total), dtype=bool)
    for a in range(total):
        Z[a] = _zero_product_masks(K, G, X[a], X, ops, False)
    return Z


def pair_count_direct_sum(components, relation: str = "ab=0", *,
                          max_pairs: int = DEFAULT_MAX_PAIRS) -> int:
    """Literal zero-pair count over a direct sum of group rings.

    `components` is a list of (K, G) pairs.  A sum element is a tuple of
    component elements, indexed mixed-radix with the first component major;
    a product is zero exactly when every component product is zero.  Each
    pair of sum elements is inspected individually.
    """
    if relation not in RELATIONS:
        raise ValueError(f"relation must be one of {RELATIONS}, got {relation!r}")
    if not components:
        raise ValueError("need at least one component")
    sizes = [ring_size(K, G) for K, G in components]
    total = 1
    for s in sizes:
        total *= s
    if total * total > max_pairs:
        raise CapExceeded(
            f"direct-sum count over {total * total} pairs exceeds max_pairs={max_pairs}")
    zmats = [zero_product_matrix(K, G, max_pairs=max_pairs) for K, G in components]
    want_ba = relation == "ab=0&ba=0"
    count = 0
    for a in range(total):
        rem = a
        masks = []
        for s, Z in zip(reversed(sizes), reversed(zmats)):
            ai = rem % s
            rem //= s
            mask = Z[ai]
            if want_ba:
                mask = mask & Z[:, ai]
            masks.append(mask)
        combined = masks[-1]  # first component, built last by the decode loop
        for mask in reversed(masks[:-1]):
            combined = np.logical_and.outer(combined, mask)
        count += int(combined.sum())
    return count


# --- 2x2 matrix rings -------------------------------------------------

def _m2_decode(q: int, lo: int, hi: int) -> np.ndarray:
    """Row-major entries (m00, m01, m10, m11) of matrix indices lo..hi."""
    e = np.arange(lo, hi, dtype=np.int64)
    pows = q ** np.arange(4, dtype=np.int64)
    return (e[:, None] // pows[None, :]) % q


def _m2_rep(X: np.ndarray, side: str) -> np.ndarray:
    """Stacked matrices of v -> v*x (side right) or v -> x*v (side left)
    acting on row-major vectorized 2x2 matrices v."""
    B = X.shape[0]
    m00, m01, m10, m11 = (X[:, k] for k in range(4))
    A = np.zeros((B, 4, 4), dtype=np.int64)
    if side == "right":
        # rows of v*x mix columns of x: block diag(x^T, x^T)
        for r in range(2):
            A[:, 2 * r + 0, 2 * r + 0] = m00
            A[:, 2 * r + 0, 2 * r + 1] = m10
            A[:, 2 * r + 1, 2 * r + 0] = m01
            A[:, 2 * r + 1, 2 * r + 1] = m11
    else:
        # rows of x*v mix rows of v: x kron I2
        for c in range(2):
            A[:, 0 + c, 0 + c] = m00
            A[:, 0 + c, 2 + c] = m01
            A[:, 2 + c, 0 + c] = m10
            A[:, 2 + c, 2 + c] = m11
    return A


def m2_annihilator_histogram(K: CoeffRing, side: str = "left", *,
                             max_elements: int = DEFAULT_MAX_ELEMENTS) -> AnnihilatorHistogram:
    """Annihilator census of the full 2x2 matrix ring over a field."""
    _check_side(side)
    if not K.is_field:
        raise ValueError(f"matrix-ring census needs a field, got {K.spec}")
    q = K.size
    total = q**4
    if total > max_elements:
        raise CapExceeded(
            f"census over q^4 = {total} matrices exceeds max_elements={max_elements}")
    ops = K.array_ops()
    counts = np.zeros(5, dtype=np.int64)
    for lo in range(0, total, _CHUNK):
        hi = min(total, lo + _CHUNK)
        X = _m2_decode(q, lo, hi)
        if side == "left":
            mats = _m2_rep(X, "right")
        elif side == "right":
            mats = _m2_rep(X, "left")
        else:
            mats = np.concatenate([_m2_rep(X, "right"), _m2_rep(X, "left")], axis=1)
        ranks = _batch_ranks(mats, ops)
        counts += np.bincount(4 - ranks, minlength=5)
    assert int(counts.sum()) == total
    return AnnihilatorHistogram("M2", K.spec, side, q, [int(c) for c in counts])


def m2_nullity_probability(K: CoeffRing, side: str = "left", *,
                           max_elements: int = DEFAULT_MAX_ELEMENTS) -> Fraction:
    return m2_annihilator_histogram(K, side, max_elements=max_elements).probability()


def m2_pair_count_naive(K: CoeffRing, relation: str = "ab=0", *,
                        max_pairs: int = DEFAULT_MAX_PAIRS) -> int:
    """Zero-pair count in the 2x2 matrix ring by literal matrix products."""
    if relation not in RELATIONS:
        raise ValueError(f"relation must be one of {RELATIONS}, got {relation!r}")
    if not K.is_field:
        raise ValueError(f"matrix-ring count needs a field, got {K.spec}")
    q = K.size
    total = q**4
    if total * total > max_pairs:
        raise CapExceeded(
            f"naive count over q^8 = {total * total} pairs exceeds max_pairs={max_pairs}")
    ops = K.array_ops()
    X = _m2_decode(q, 0, total)
    want_ba = relation == "ab=0&ba=0"

    def prod_is_zero(a, B):
        # entries of a @ B[b] for every b, spelled out
        c00 = ops.add(ops.mul(a[0], B[:, 0]), ops.mul(a[1], B[:, 2]))
        c01 = ops.add(ops.mul(a[0], B[:, 1]), ops.mul(a[1], B[:, 3]))
        c10 = ops.add(ops.mul(a[2], B[:, 0]), ops.mul(a[3], B[:, 2]))
        c11 = ops.add(ops.mul(a[2], B[:, 1]), ops.mul(a[3], B[:, 3]))
        return (c00 == 0) & (c01 == 0) & (c10 == 0) & (c11 == 0)

    count = 0
    for a in range(total):
        av = X[a]
        ok = prod_is_zero(av, X)
        if want_ba:
            # b @ a for every b: reuse the same helper with roles swapped
            d00 = ops.add(ops.mul(X[:, 0], av[0]), ops.mul(X[:, 1], av[2]))
            d01 = ops.add(ops.mul(X[:, 0], av[1]), ops.mul(X[:, 1], av[3]))
            d10 = ops.add(ops.mul(X[:, 2], av[0]), ops.mul(X[:, 3], av[2]))
            d11 = ops.add(ops.mul(X[:, 2], av[1]), ops.mul(X[:, 3], av[3]))
            ok &= (d00 == 0) & (d01 == 0) & (d10 == 0) & (d11 == 0)
        count += int(ok.sum())
    return count


# --- record emission --------------------------------------------------

_SIDE_LABEL = {"left": "|ann_l|", "right": "|ann_r|", "twosided": "|ann|"}


def histogram_record(hist: AnnihilatorHistogram,
                     elapsed_ms: int | None = None) -> dict:
    """The census as a plain dict ready for JSON emission."""
    prob = hist.probability()
    record = {
        "group": hist.group,
        "coeff": hist.coeff,
        "side": hist.side,
        "ann_sizes": hist.annihilator_sizes(),
        "counts": list(hist.counts),
        "probability": {"num": prob.numerator, "den": prob.denominator},
    }
    if elapsed_ms is not None:
        record["elapsed_ms"] = elapsed_ms
    return record


def record_json(record: dict) -> str:
    return json.dumps(record)


def record_text(record: dict) -> str:
    """Census record in the classic computer-algebra rec(...) layout."""
    sizes = ", ".join(str(v) for v in record["ann_sizes"])
    counts = ", ".join(str(v) for v in record["counts"])
    label = _SIDE_LABEL[record["side"]]
    num = record["probability"]["num"]
    den = record["probability"]["den"]
    return (f"rec(Size := [ {counts} ],\n"
            f"    {label}:=[ {sizes} ], group := \"{record['group']}\", "
            f"p := {num}/{den})")


def timed_histogram(K: CoeffRing, G: CayleyGroup, side: str = "left", *,
                    max_elements: int = DEFAULT_MAX_ELEMENTS,
                    workers: int = 1) -> tuple[AnnihilatorHistogram, int]:
    """Census plus wall-clock milliseconds, for record emission."""
    t0 = time.perf_counter()
    hist = annihilator_histogram(K, G, side, max_elements=max_elements,
                                 workers=workers)
    return hist, int((time.perf_counter() - t0) * 1000)
