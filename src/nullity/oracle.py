"""Exhaustive ground truth for zero-product probabilities.

Two independent routes are kept deliberately separate:

* the annihilator census: regular matrices are built and their ranks taken
  by batched Gaussian elimination, giving the histogram
  counts[k] = #{x : |Ann_side(x)| = |K|**k}.  By default only the slice
  {x : x_0 = 1} on basis element 0 (the identity of a group, E_00 of a
  matrix ring) is ranked and each slice element is weighted by its orbit
  size, for group algebras and matrix units alike; method="full" ranks
  every element on the same kernel and is the reference for the weights;
* naive pair counting: the literal product of every ordered pair (a, b),
  from the algebra's structure constants over its prime ring Z/N, one
  block of rows of a at a time, counted and dropped: exact float matmuls
  give the coordinates of a times each low and each high half of b, and
  a*b = 0 (or (ab, ba) = 0) is one exact comparison of their codes; no
  pair matrix, no rank and no kernel.  It cross-validates the census and
  covers Z:n coefficients, where rank is meaningless.

Both routes read one multiplication table over a basis: table[i, j] is the
index of b_i * b_j, or n when the product is zero.  A group's Cayley table
and the matrix units of M_m (E_ij E_kl = [j == k] E_il) are both such
tables, so group algebras and matrix rings share the code.  The table
helpers (gather index, element decoding, structure constants and the
literal zero-product mask, rank kernel) live in :mod:`nullity.groupring`.

Chunk boundaries depend only on the amount of work, so histograms are
identical for any worker count; partial tables merge by componentwise
addition.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .coeffring import CoeffRing
from .groupring import (CapExceeded, _ann_gather_indices, _check_side,
                        _chunk_ranks, _decode_elements, _digit_planes,
                        _index_bits, _index_digits, _is_int, _keep_freed_memory,
                        _structure_constants, _zero_product_mask, ring_size)
from .groups import CayleyGroup

DEFAULT_MAX_ELEMENTS = 1 << 22
DEFAULT_MAX_PAIRS = 1 << 20
# elements per census chunk, enough that two worker threads spend their
# time in numpy loops
_CHUNK = 1 << 15
# code comparisons per row block of the pair counter (a 256 KiB mask, counted
# and dropped); on 2 vCPUs 2**18 ran the benchmark pair counts faster than
# 2**16 and 2**20
_PRODUCT_BLOCK = 1 << 18

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


def _census_rows(K: CoeffRing, n: int, lo: int, hi: int, sliced: bool) -> np.ndarray:
    """(n + 1, m, w, L) bit-sliced planes of the coefficient rows of
    elements lo..hi, one element per bit lane, plus a zero column for the
    gather sentinel: all of the algebra, or the slice x_e = 1 whose index j
    holds (1, base-|K| digits of j).  A coefficient is its m coordinates
    over F_p, the base-p digits of its index: over F_2 the index bits,
    written as planes (:func:`_index_bits`), and otherwise packed from the
    digit-major digits of :func:`_index_digits`.  The slice's x_e = 1 is a
    constant plane (in every lane, the tail past hi - lo included) and the
    sentinel is zero."""
    p, m = K.p, K.m
    k = n - 1 if sliced else n
    w = (p - 1).bit_length()
    L = -(-(hi - lo) // 64)
    A = np.zeros((n + 1, m, w, L), dtype=np.uint64)
    if p == 2:
        A[n - k:n, :, 0] = _index_bits(k * m, lo, L).reshape(k, m, L)
    else:
        A[n - k:n] = _digit_planes(_index_digits(p, k * m, lo, hi), w).reshape(k, m, w, L)
    if sliced:
        A[0, 0, 0] = ~np.uint64(0)
    return A


def _census_chunk(K: CoeffRing, P: np.ndarray, lo: int, hi: int,
                  sliced: bool) -> np.ndarray:
    """tab[k, s] = #{x in the chunk : nullity k, support size s}.

    Both methods rank every field on one kernel, bit-sliced planes over
    F_p, 64 elements a word (:func:`_chunk_ranks`), whose lanes past the
    chunk are dropped here.
    """
    n = P.shape[1]
    B = hi - lo
    # the lane counts are uint8, and the cell index passes 255 from n = 16
    ranks, support = (v[:B].astype(np.int64)
                      for v in _chunk_ranks(K, _census_rows(K, n, lo, hi, sliced), P))
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


def _check_workers(workers: int) -> None:
    if not _is_int(workers) or workers < 1:
        raise ValueError(f"workers must be an integer >= 1, got {workers!r}")


def _pool_size(workers: int, chunks: int) -> int:
    """Census threads: one per chunk at most; workers must be an int >= 1."""
    _check_workers(workers)
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
    x_e = 1.  The weights hold for any group H of units (u, v) acting by
    x -> u*x*v that permutes the basis coordinates regularly without
    scaling them; here H is G acting by left multiplication (u = g, v = 1).
    |Ann_side(x)| is constant on the orbits of x -> c*u*x*v (c in K*), and
    exactly |supp x| of the n(q-1) pairs (c, h) put c*h(x) in the slice, so
    sum over x != 0 of f(x) equals sum over slice y of
    f(y) * n(q-1)/|supp y|.  Invariance holds on every side:

    * left: b*u*x*v = 0 iff (b*u)*x = 0, so Ann_l(uxv) = Ann_l(x) u^-1;
    * right: likewise Ann_r(uxv) = v^-1 Ann_r(x);
    * twosided: with T(x) = {b : xb = 0 = bx}, the map b -> v*b*u sends
      T(uxv) onto T(x) (x(vbu) = u^-1 (uxv b) u and (vbu)x = v (b uxv) v^-1)
      and is inverted by b -> v^-1 b u^-1; hence |T(uxv)| = |T(x)|.

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
    return _census(K, G.spec, G.table, side, max_elements=max_elements,
                   workers=workers, sliced=method == "slice")


def _census(K: CoeffRing, spec: str, table: np.ndarray, side: str, *,
            max_elements: int, workers: int, sliced: bool) -> AnnihilatorHistogram:
    """Census of the algebra with basis multiplication `table` (entry n
    for a zero product) over the field K.

    sliced=True ranks only the slice x_0 = 1 on basis element 0.  Its
    orbit weights need a group of units that permutes the basis
    coordinates regularly without scaling them, acting by x -> u*x*v as in
    :func:`annihilator_histogram`: left multiplication on a group table,
    cyclic row and column shifts on matrix units.  A table with no such
    action (upper-triangular and other monomial algebras) needs
    sliced=False, which ranks every element and stays the reference.
    """
    n = table.shape[0]
    total = K.size**n
    if total > max_elements:
        raise CapExceeded(
            f"census over |K|^n = {total} elements exceeds max_elements={max_elements}")
    work = total // K.size if sliced else total
    chunks = -(-work // _CHUNK)
    pool = _pool_size(workers, chunks)
    spans = [(i * work // chunks, (i + 1) * work // chunks) for i in range(chunks)]
    P = _ann_gather_indices(table, side)
    _keep_freed_memory()
    if pool > 1:
        with ThreadPoolExecutor(max_workers=pool) as ex:
            parts = list(ex.map(lambda s: _census_chunk(K, P, *s, sliced), spans))
    else:
        parts = [_census_chunk(K, P, *s, sliced) for s in spans]
    tab = np.zeros((n + 1, n + 1), dtype=np.int64)
    for part in parts:
        tab += part
    if sliced:
        counts = _orbit_weighted_counts(tab, K.size)
    else:
        counts = [int(c) for c in tab.sum(axis=1)]
    assert sum(counts) == total, "defect: census counts do not sum to |K|^n"
    return AnnihilatorHistogram(spec, K.spec, side, K.size, counts)


def nullity_probability(K: CoeffRing, G: CayleyGroup, side: str = "left", *,
                        max_elements: int = DEFAULT_MAX_ELEMENTS,
                        max_pairs: int = DEFAULT_MAX_PAIRS,
                        workers: int = 1) -> Fraction:
    """Exact probability that a uniform pair multiplies to zero.

    side="left"/"right" is Pr[ab = 0]; side="twosided" is
    Pr[ab = 0 and ba = 0].  Fields use the census; Z:n counts pairs.
    """
    _check_side(side)
    _check_workers(workers)
    if K.is_field:
        hist = annihilator_histogram(K, G, side, max_elements=max_elements,
                                     workers=workers)
        return hist.probability()
    relation = "ab=0" if side in ("left", "right") else "ab=0&ba=0"
    total = ring_size(K, G)
    count = pair_count_naive(K, G, relation, max_pairs=max_pairs)
    return Fraction(count, total * total)


def _pair_count(K: CoeffRing, table: np.ndarray, relation: str,
                max_pairs: int) -> int:
    """#{(a, b) : a*b = 0} (or (ab, ba) = 0), one literal zero test per
    ordered pair from the structure constants over K's prime ring, counted
    block by block of rows of a (:func:`_zero_product_mask`)."""
    if relation not in RELATIONS:
        raise ValueError(f"relation must be one of {RELATIONS}, got {relation!r}")
    total = K.size ** table.shape[0]
    if total * total > max_pairs:
        raise CapExceeded(
            f"naive count over |K|^n squared = {total * total} pairs "
            f"exceeds max_pairs={max_pairs}")
    T, N = _structure_constants(K, table)
    if relation == "ab=0&ba=0":
        T = np.concatenate([T, T.transpose(1, 0, 2)], axis=2)
    rows = max(1, _PRODUCT_BLOCK // total)
    count = 0
    for lo in range(0, total, rows):
        A = _decode_elements(N, T.shape[0], lo, min(lo + rows, total))
        count += int(np.count_nonzero(_zero_product_mask(T, N, A)))
    return count


def pair_count_naive(K: CoeffRing, G: CayleyGroup, relation: str = "ab=0", *,
                     max_pairs: int = DEFAULT_MAX_PAIRS) -> int:
    """#{(a, b) : a*b = 0} (or with b*a = 0 as well) by literal products.

    Every ordered pair is evaluated; nothing is shared with the rank-based
    census.  Works over any coefficient ring.
    """
    return _pair_count(K, G.table, relation, max_pairs)


def pair_count_direct_sum(components, relation: str = "ab=0", *,
                          max_pairs: int = DEFAULT_MAX_PAIRS) -> int:
    """Literal zero-pair count over a direct sum of group rings.

    `components` is a list of (K, G) pairs.  A product in the sum is zero
    exactly when every component product is zero, so the count is the
    product of the components' literal counts.  The cap applies to the
    pairs of the whole sum.
    """
    if relation not in RELATIONS:
        raise ValueError(f"relation must be one of {RELATIONS}, got {relation!r}")
    if not components:
        raise ValueError("need at least one component")
    total = math.prod(ring_size(K, G) for K, G in components)
    if total * total > max_pairs:
        raise CapExceeded(
            f"direct-sum count over {total * total} pairs exceeds max_pairs={max_pairs}")
    return math.prod(_pair_count(K, G.table, relation, max_pairs)
                     for K, G in components)


# --- 2x2 matrix rings -------------------------------------------------

def _matrix_unit_table(m: int) -> np.ndarray:
    """Multiplication table of M_m on the matrix units E_ij, index i*m + j
    (row-major entries): E_ij E_kl = E_il if j == k, else zero (m*m)."""
    i, j = np.divmod(np.arange(m * m), m)
    return np.where(j[:, None] == i[None, :], i[:, None] * m + j[None, :], m * m)


def m2_annihilator_histogram(K: CoeffRing, side: str = "left", *,
                             max_elements: int = DEFAULT_MAX_ELEMENTS) -> AnnihilatorHistogram:
    """Annihilator census of the full 2x2 matrix ring over a field.

    Ranks only the q^3 slice elements with E_00 coefficient 1, weighted as
    for groups.  With S the cyclic shift permutation matrix, x -> S^a x S^-b
    sends E_ij to E_{i+a, j+b} (indices mod 2), so C_2 x C_2 permutes the
    four matrix units regularly without scaling them.
    """
    _check_side(side)
    if not K.is_field:
        raise ValueError(f"matrix-ring census needs a field, got {K.spec}")
    return _census(K, "M2", _matrix_unit_table(2), side,
                   max_elements=max_elements, workers=1, sliced=True)


def m2_pair_count_naive(K: CoeffRing, relation: str = "ab=0", *,
                        max_pairs: int = DEFAULT_MAX_PAIRS) -> int:
    """Zero-pair count in the 2x2 matrix ring by literal matrix products."""
    if not K.is_field:
        raise ValueError(f"matrix-ring count needs a field, got {K.spec}")
    return _pair_count(K, _matrix_unit_table(2), relation, max_pairs)


# --- record emission --------------------------------------------------

_SIDE_LABEL = {"left": "|ann_l|", "right": "|ann_r|", "twosided": "|ann|"}


def _fraction_json(value: Fraction) -> dict:
    """An exact rational as a JSON object."""
    return {"num": value.numerator, "den": value.denominator}


def _record(group: str, coeff: str, side: str, prob: Fraction,
            hist: AnnihilatorHistogram | None, elapsed_ms: int | None) -> dict:
    """A probability record; a census adds its sizes and counts."""
    record = {"group": group, "coeff": coeff, "side": side}
    if hist is not None:
        record["ann_sizes"] = hist.annihilator_sizes()
        record["counts"] = list(hist.counts)
    record["probability"] = _fraction_json(prob)
    if elapsed_ms is not None:
        record["elapsed_ms"] = elapsed_ms
    return record


def histogram_record(hist: AnnihilatorHistogram,
                     elapsed_ms: int | None = None) -> dict:
    """The census as a plain dict ready for JSON emission."""
    return _record(hist.group, hist.coeff, hist.side, hist.probability(), hist,
                   elapsed_ms)


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
