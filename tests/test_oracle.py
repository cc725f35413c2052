"""Exhaustive census engine: histograms, pair counters, record emission."""

import ctypes
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from int64_ranks import batch_ranks, slice_indices
from nullity import groupring, oracle
from nullity.coeffring import CoeffRing, field, integers_mod, ring_from_spec
from nullity.formulas import cyclic_histogram_counts
from nullity.groupring import CapExceeded, _chunk_ranks, ring_size
from nullity.groups import cyclic, from_table, group_from_spec, q8, s3
from nullity.oracle import (_pool_size, annihilator_histogram, histogram_record,
                            m2_annihilator_histogram, m2_pair_count_naive,
                            nullity_probability, pair_count_direct_sum,
                            pair_count_naive, record_text)
from nullity.groupring import (annihilator_size_by_enumeration, element_vector,
                               gr_multiply)
from nullity.oracle import _ann_gather_indices, _census, _matrix_unit_table, _pair_count

# Census values below were frozen from independent runs of this engine and
# cross-checked against the literal pair counters; they guard regressions.
FROZEN = [
    ("F:2", "S3", "left", [12, 6, 24, 9, 11, 1, 1], Fraction(29, 256)),
    ("F:2", "S3", "right", [12, 6, 24, 9, 11, 1, 1], Fraction(29, 256)),
    ("F:2", "S3", "twosided", [12, 24, 15, 9, 2, 1, 1], Fraction(5, 64)),
    ("F:2", "Q8", "left", [128, 0, 96, 0, 24, 0, 6, 1, 1], Fraction(13, 512)),
    ("F:2", "Q8", "twosided", [128, 0, 96, 0, 24, 0, 6, 1, 1], Fraction(13, 512)),
    ("F:2", "C2xC2", "left", [8, 0, 6, 1, 1], Fraction(7, 32)),
    ("F:2", "C:4", "twosided", [8, 4, 2, 1, 1], Fraction(3, 16)),
    ("F:2", "C:2", "left", [2, 1, 1], Fraction(1, 2)),
    ("F:4", "S3", "left", [2160, 540, 1080, 225, 87, 3, 1],
     Fraction(2045, 524288)),
    ("F:4", "S3", "twosided", [2160, 1440, 405, 75, 12, 3, 1],
     Fraction(115, 65536)),
]


@pytest.mark.parametrize("coeff,group,side,counts,prob", FROZEN,
                         ids=[f"{c}-{g}-{s}" for c, g, s, _, _ in FROZEN])
def test_frozen_census_values(coeff, group, side, counts, prob):
    K = ring_from_spec(coeff)
    G = group_from_spec(group)
    hist = annihilator_histogram(K, G, side)
    assert hist.counts == counts
    assert hist.probability() == prob
    assert hist.base == K.size
    assert hist.dimension == G.order
    assert sum(hist.counts) == K.size**G.order


def test_histogram_metadata_fields():
    hist = annihilator_histogram(field(2), s3(), "left")
    assert hist.group == "S3"
    assert hist.coeff == "F:2"
    assert hist.side == "left"
    assert hist.annihilator_sizes() == [1, 2, 4, 8, 16, 32, 64]
    assert hist.unit_count() == 12
    assert hist.weighted_sum() == 464


def test_left_and_right_histograms_coincide():
    for coeff, group in (("F:2", "S3"), ("F:3", "S3"), ("F:2", "Q8"),
                         ("F:3", "Q8")):
        K = ring_from_spec(coeff)
        G = group_from_spec(group)
        left = annihilator_histogram(K, G, "left")
        right = annihilator_histogram(K, G, "right")
        assert left.counts == right.counts


def test_abelian_groups_have_one_census():
    K, G = field(3), cyclic(6)
    reference = annihilator_histogram(K, G, "left").counts
    for side in ("right", "twosided"):
        assert annihilator_histogram(K, G, side).counts == reference


def test_census_weighted_sum_equals_naive_pair_count():
    K, G = field(2), s3()
    assert pair_count_naive(K, G, "ab=0") == 464
    assert pair_count_naive(K, G, "ab=0&ba=0") == 320
    assert annihilator_histogram(K, G, "twosided").weighted_sum() == 320

    K3, G3 = field(3), cyclic(3)
    hist = annihilator_histogram(K3, G3, "left")
    assert pair_count_naive(K3, G3, "ab=0") == hist.weighted_sum()


def test_unit_zero_divisor_decomposition():
    # weighted sum = |R| (from 0) + |U| (trivial annihilators) + the
    # zero-divisor middle terms; the top class is the zero element alone
    for coeff, group, side in (("F:2", "S3", "left"), ("F:3", "C:4", "left"),
                               ("F:2", "Q8", "twosided")):
        K = ring_from_spec(coeff)
        G = group_from_spec(group)
        hist = annihilator_histogram(K, G, side)
        n = hist.dimension
        assert hist.counts[-1] == 1
        middle = sum(c * K.size**k
                     for k, c in enumerate(hist.counts) if 0 < k < n)
        assert hist.weighted_sum() == hist.unit_count() + middle + K.size**n


def test_mod_ring_probabilities():
    assert nullity_probability(integers_mod(4), cyclic(2)) == Fraction(7, 32)
    assert nullity_probability(integers_mod(6), cyclic(2)) == Fraction(25, 162)
    # abelian, so the twosided relation gives the same value
    assert nullity_probability(integers_mod(4), cyclic(2),
                               "twosided") == Fraction(7, 32)


def test_worker_count_never_changes_the_census():
    K, G = field(2, 2), s3()
    reference = annihilator_histogram(K, G, "left", workers=1).counts
    for workers in (2, 3, 8):
        assert annihilator_histogram(K, G, "left",
                                     workers=workers).counts == reference


def _relabelled_s3():
    # g_i of S3 becomes position perm[i]; the identity stays at 0
    perm = [0, 4, 2, 5, 1, 3]
    t = s3().table
    table = np.empty_like(t)
    for i in range(6):
        for j in range(6):
            table[perm[i], perm[j]] = perm[t[i, j]]
    return from_table(table.tolist(), spec="S3-relabelled")


SLICE_CASES = [("F:2", "S3"), ("F:3", "S3"), ("F:2", "Q8"), ("F:3", "Q8"),
               ("F:4", "C2xC2"), ("F:9", "C:3"), ("F:3", "S3-relabelled"),
               ("F:11", "C:3"), ("F:32", "C:2")]


@pytest.mark.parametrize("coeff,group", SLICE_CASES,
                         ids=[f"{c}-{g}" for c, g in SLICE_CASES])
def test_slice_census_equals_full_census(coeff, group):
    K = ring_from_spec(coeff)
    G = _relabelled_s3() if group == "S3-relabelled" else group_from_spec(group)
    for side in ("left", "right", "twosided"):
        full = annihilator_histogram(K, G, side, method="full")
        assert annihilator_histogram(K, G, side).counts == full.counts


def test_relabelled_group_keeps_its_census():
    K = field(3)
    for side in ("left", "right", "twosided"):
        assert (annihilator_histogram(K, _relabelled_s3(), side).counts
                == annihilator_histogram(K, s3(), side).counts)


def test_slice_census_worker_and_chunk_invariance(monkeypatch):
    # small chunks give several chunks of unequal content to merge
    monkeypatch.setattr(oracle, "_CHUNK", 50)
    for K, G, side in ((field(3), s3(), "twosided"), (field(2), q8(), "left")):
        full = annihilator_histogram(K, G, side, method="full").counts
        for workers in (1, 2, 3):
            assert annihilator_histogram(K, G, side,
                                         workers=workers).counts == full


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12, 16])
def test_packed_f2_census_equals_cyclic_closed_form(n):
    expected = cyclic_histogram_counts(2, n)
    for side in ("left", "right", "twosided"):
        assert annihilator_histogram(field(2), cyclic(n), side).counts == expected


@pytest.mark.parametrize("group", ["C:2", "C:4", "C2xC2", "S3", "C:8", "Q8",
                                   "C2xC2xC2"])
def test_packed_f2_census_equals_full_census(group):
    G = group_from_spec(group)
    for side in ("left", "right", "twosided"):
        full = annihilator_histogram(field(2), G, side, method="full")
        assert annihilator_histogram(field(2), G, side).counts == full.counts


def _chunk_equals_int64_chunk(K, G, side, lo, hi):
    """The census kernel on the slice window lo..hi against the int64
    elimination on the same elements, decoded by division."""
    P = _ann_gather_indices(G.table, side)
    A = oracle._census_rows(K, G.order, lo, hi, True)
    mats = slice_indices(K, G.order, lo, hi)[:, P]
    assert np.array_equal(_chunk_ranks(K, A, P)[0][:hi - lo], batch_ranks(mats, K))
    return mats


def test_packed_f2_chunk_equals_int64_chunk():
    # 8193 = 64 * 128 + 1 elements of the F:2 Q8xC:2 twosided slice gather:
    # 128 whole words and one lane of the next
    mats = _chunk_equals_int64_chunk(field(2), group_from_spec("Q8xC:2"), "twosided", 0, 8193)
    assert mats.shape == (8193, 32, 16)


LANE_CENSUS_CASES = [("F:3", "Q8", "twosided"), ("F:5", "S3", "left"),
                     ("F:5", "S3", "right"), ("F:5", "S3", "twosided"),
                     ("F:7", "C:4", "left"), ("F:4", "S3", "twosided"),
                     ("F:8", "C:3", "left"), ("F:16", "C:2", "right"),
                     ("F:32", "C:2", "left"), ("F:32", "C:3", "twosided"),
                     ("F:64", "C:2", "twosided"), ("F:64", "C:3", "left"),
                     ("F:256", "C:2", "right"), ("F:9", "S3", "twosided"),
                     ("F:27", "C:2", "left"), ("F:25", "C:2", "right"),
                     ("F:11", "C:4", "left"), ("F:13", "C:3", "twosided"),
                     ("F:121", "C:2", "left"), ("F:43^2", "C:1", "right")]


@pytest.mark.parametrize("coeff,group,side", LANE_CENSUS_CASES,
                         ids=["-".join(c) for c in LANE_CENSUS_CASES])
def test_lane_census_equals_full_census(coeff, group, side):
    K, G = ring_from_spec(coeff), group_from_spec(group)
    full = annihilator_histogram(K, G, side, method="full")
    assert annihilator_histogram(K, G, side).counts == full.counts
    # both methods rank on one kernel, so one slice chunk of up to 1000
    # elements is checked against the int64 elimination as well
    _chunk_equals_int64_chunk(K, G, side, 0, min(K.size ** (G.order - 1), 1000))


@pytest.mark.parametrize("side", ["left", "twosided"])
def test_f256_c3_census_equals_cyclic_closed_form(side):
    # the full census of F:256 C:3 ranks 2**24 elements, four times the
    # default cap, so the slice census is checked against the closed form
    K = field(2, 8)
    hist = annihilator_histogram(K, cyclic(3), side, max_elements=1 << 24)
    assert hist.counts == cyclic_histogram_counts(256, 3)


@pytest.mark.parametrize("coeff,group,side", [
    ("F:2", "Q8xC:2", "twosided"), ("F:3", "S3", "left"), ("F:7", "C:4", "right"),
    ("F:5", "C:2", "twosided"), ("F:8", "C:3", "left"), ("F:16", "C:2", "right"),
    ("F:9", "C:3", "left"), ("F:49", "C:2", "twosided")])
def test_rows_packed_at_the_gather_equal_the_packed_stack(coeff, group, side):
    # the kernel gathers the planes of each coordinate by P; packing the
    # coordinates of the stack of decoded element indices lane by lane
    # gives the same words in the window's lanes (the tail is not ranked)
    K, G = ring_from_spec(coeff), group_from_spec(group)
    n = G.order
    w = (K.p - 1).bit_length()
    P = _ann_gather_indices(G.table, side)
    work = K.size ** (n - 1)
    lo = 37 % work  # off the 64-lane grid at both ends
    hi = lo + min(1000, work - lo)
    B, L = hi - lo, -(-(hi - lo) // 64)
    mats = slice_indices(K, n, lo, hi)[:, P]  # (B, R, n)
    coords = mats[..., None] // K.p ** np.arange(K.m) % K.p  # (B, R, n, m)
    shape = P.shape + (K.m, w)
    lanes = np.zeros((64 * L,) + shape, dtype=np.uint64)
    lanes[:B] = (coords[..., None] >> np.arange(w)) & 1
    lanes <<= (np.arange(64 * L, dtype=np.uint64) % np.uint64(64))[:, None, None, None, None]
    words = np.bitwise_or.reduce(lanes.reshape(L, 64, *shape), axis=1)
    window = np.uint64((1 << 64) - 1) >> np.uint64(-B % 64)  # the last word's lanes below B
    got = oracle._census_rows(K, n, lo, hi, True)[P]
    got[..., -1] &= window
    assert np.array_equal(got, words.transpose(1, 2, 3, 4, 0))


TAIL_CASES = [("F:2", "S3", "twosided"), ("F:3", "C:2", "left"),
              ("F:4", "C:4", "right"), ("F:7", "C:3", "twosided"),
              ("F:5", "C2xC2", "left")]


@pytest.mark.parametrize("chunk", [None, 50, 129])
@pytest.mark.parametrize("coeff,group,side", TAIL_CASES,
                         ids=["-".join(c) for c in TAIL_CASES])
def test_tail_lanes_census_equals_full_census(coeff, group, side, chunk, monkeypatch):
    # slices of 32 (F:2 S3) and 3 (F:3 C:2) elements fill part of one
    # word; chunks of 50 and 129 elements start and end off the 64-lane grid
    if chunk is not None:
        monkeypatch.setattr(oracle, "_CHUNK", chunk)
    K, G = ring_from_spec(coeff), group_from_spec(group)
    full = annihilator_histogram(K, G, side, method="full").counts
    for workers in (1, 2):
        assert annihilator_histogram(K, G, side, workers=workers).counts == full


@pytest.mark.parametrize("coeff,group,side", [
    ("F:2", "C:10", "left"), ("F:3", "C:6", "twosided"), ("F:4", "C:5", "right"),
    ("F:7", "C:4", "left"), ("F:32", "C:3", "twosided")])
def test_chunk_of_64k_plus_one_elements_equals_int64_ranks(coeff, group, side):
    K, G = ring_from_spec(coeff), group_from_spec(group)
    _chunk_equals_int64_chunk(K, G, side, 5, 5 + 129)


def test_census_reads_no_field_table(monkeypatch):
    # every field is ranked over F_p through multiplication by t folded by
    # the modulus, by either method: no structure constants, array ops or
    # powers of t.  Histograms are the cyclic closed forms or frozen from a
    # census that ranked over F_q
    cases = [("F:4", "S3", "twosided", [2160, 1440, 405, 75, 12, 3, 1]),
             ("F:9", "S3", "twosided", [419904, 93312, 16848, 1296, 64, 16, 1]),
             ("F:8", "C:3", "left", cyclic_histogram_counts(8, 3)),
             ("F:32", "C:3", "right", cyclic_histogram_counts(32, 3)),
             ("F:27", "C:2", "left", cyclic_histogram_counts(27, 2)),
             ("F:25", "C:2", "right", cyclic_histogram_counts(25, 2)),
             ("F:3^8", "C:1", "left", [6560, 1]),
             ("F:11", "C:3", "twosided", cyclic_histogram_counts(11, 3)),
             ("F:121", "C:2", "left", cyclic_histogram_counts(121, 2)),
             ("F:43^2", "C:1", "right", [1848, 1])]

    def forbidden(*args, **kwargs):
        raise AssertionError("the census read a field table")

    monkeypatch.setattr(groupring, "_structure_constants", forbidden)
    monkeypatch.setattr(CoeffRing, "array_ops", forbidden)
    for coeff, group, side, counts in cases:
        K = ring_from_spec(coeff)
        K._tpow = None
        for method in oracle.CENSUS_METHODS:
            hist = annihilator_histogram(K, group_from_spec(group), side, method=method)
            assert hist.counts == counts


def test_census_over_large_extension_field():
    # F:3^8 is ranked as 8x8 matrices over F_3
    hist = annihilator_histogram(field(3, 8), cyclic(1))
    assert hist.counts == [6560, 1]


def test_census_over_extension_field_builds_no_table():
    # F:43^2 is ranked as 2x2 blocks over F_43 on bit-sliced planes: no
    # table of the field's q = 1849 elements, let alone q x q
    tracemalloc.start()
    try:
        hist = annihilator_histogram(field(43, 2), cyclic(2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert hist.counts == cyclic_histogram_counts(1849, 2)
    assert peak < 4 << 20


def test_repeated_census_keeps_its_memory():
    # a second census of the same size reuses the heap that the first one
    # freed instead of faulting its pages in again (about 650 faults for
    # F:2 C:16 when glibc hands the memory back)
    resource = pytest.importorskip("resource")
    try:
        ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        pytest.skip("the C library has no mallopt")
    K, G = field(2), cyclic(16)
    annihilator_histogram(K, G)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    annihilator_histogram(K, G)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 100


def test_census_over_large_prime_field_builds_no_inverse_table():
    # one 1x1 matrix is ranked; a p-entry table of inverses would take 32 MiB
    tracemalloc.start()
    try:
        hist = annihilator_histogram(field(4194301), cyclic(1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert hist.counts == [4194300, 1]
    assert peak < 1 << 20


@pytest.mark.parametrize("coeff,group,side,method", [
    ("F:23", "C:4", "twosided", "slice"), ("F:127", "C:3", "left", "slice"),
    ("F:257", "C:2", "left", "slice"), ("F:2039", "C:2", "twosided", "slice"),
    ("F:121", "C:2", "twosided", "full"), ("F:4194301", "C:1", "left", "slice"),
    ("F:4194301", "C:1", "left", "full")])
def test_large_prime_census_equals_cyclic_closed_form(coeff, group, side, method):
    # primes past 7, up to 22 planes, and F:121 over F_11, on the
    # double-and-add step
    K, G = ring_from_spec(coeff), group_from_spec(group)
    hist = annihilator_histogram(K, G, side, method=method)
    assert hist.counts == cyclic_histogram_counts(K.size, G.order)


def test_f11_s3_twosided_census_frozen():
    # frozen from the int64 elimination that ranked every p > 7 census
    hist = annihilator_histogram(field(11), s3(), "twosided")
    assert hist.counts == [1320000, 408000, 42000, 1440, 100, 20, 1]


def test_census_argument_validation():
    with pytest.raises(ValueError, match="method"):
        annihilator_histogram(field(2), cyclic(2), method="orbits")
    for workers in (0, -5, 2.5, True, "2"):
        with pytest.raises(ValueError, match=f"got {workers!r}"):
            annihilator_histogram(field(2), cyclic(2), workers=workers)
        # Z:n coefficients count pairs and start no threads, but the
        # argument is checked all the same
        with pytest.raises(ValueError, match=f"got {workers!r}"):
            nullity_probability(integers_mod(4), cyclic(2), workers=workers)


def test_pool_size_is_clamped_to_chunk_count():
    assert _pool_size(1, 5) == 1
    assert _pool_size(4, 5) == 4
    assert _pool_size(1000, 3) == 3


def test_element_cap_reported_with_size():
    with pytest.raises(CapExceeded, match="1024"):
        annihilator_histogram(field(2), cyclic(10), max_elements=1000)
    with pytest.raises(CapExceeded, match="4096"):
        pair_count_naive(field(2), s3(), max_pairs=4095)


def test_mod_coefficients_rejected_by_census():
    with pytest.raises(ValueError, match="field"):
        annihilator_histogram(integers_mod(4), cyclic(2))


def test_record_json_exact():
    hist = annihilator_histogram(field(2), cyclic(4), "twosided")
    record = histogram_record(hist)
    assert record == {
        "group": "C:4", "coeff": "F:2", "side": "twosided",
        "ann_sizes": [1, 2, 4, 8, 16], "counts": [8, 4, 2, 1, 1],
        "probability": {"num": 3, "den": 16},
    }
    assert json.loads(json.dumps(record)) == record
    timed = histogram_record(hist, 37)
    assert timed["elapsed_ms"] == 37


def test_record_text_layout():
    hist = annihilator_histogram(field(2), cyclic(4), "twosided")
    assert record_text(histogram_record(hist)) == (
        'rec(Size := [ 8, 4, 2, 1, 1 ],\n'
        '    |ann|:=[ 1, 2, 4, 8, 16 ], group := "C:4", p := 3/16)')
    left = annihilator_histogram(field(2), s3(), "left")
    assert record_text(histogram_record(left)) == (
        'rec(Size := [ 12, 6, 24, 9, 11, 1, 1 ],\n'
        '    |ann_l|:=[ 1, 2, 4, 8, 16, 32, 64 ], group := "S3", '
        'p := 29/256)')


def test_matrix_ring_census_q2():
    # 16 matrices over F_2: 6 invertible, 9 of rank one, and zero
    K = field(2)
    left = m2_annihilator_histogram(K, "left")
    assert left.counts == [6, 0, 9, 0, 1]
    assert left.probability() == Fraction(29, 128)
    two = m2_annihilator_histogram(K, "twosided")
    assert two.counts == [6, 9, 0, 0, 1]
    assert two.probability() == Fraction(5, 32)
    right = m2_annihilator_histogram(K, "right")
    assert right.counts == left.counts


def test_matrix_ring_census_q3_and_naive():
    K = field(3)
    assert m2_annihilator_histogram(K, "left").probability() == Fraction(139, 2187)
    assert m2_annihilator_histogram(K, "twosided").probability() == Fraction(25, 729)
    assert m2_pair_count_naive(K, "ab=0") == 139 * 3**8 // 2187
    assert m2_pair_count_naive(field(2), "ab=0") == 58
    assert m2_pair_count_naive(field(2), "ab=0&ba=0") == 40


def test_direct_sum_pair_count_factorizes():
    c1 = (field(2), cyclic(2))
    c2 = (field(3), cyclic(2))
    # 8 zero pairs of 16 in the first component, 25 of 81 in the second
    assert pair_count_naive(*c1) == 8
    assert pair_count_naive(*c2) == 25
    assert pair_count_direct_sum([c1, c2]) == 200
    # F_2C_2 (+) F_3C_2 is Z_6C_2 in disguise: same zero-pair density
    assert Fraction(200, 36**2) == Fraction(25, 162)

    both = pair_count_direct_sum([c1, (field(2), s3())], "ab=0&ba=0")
    assert both == 8 * 320


def test_direct_sum_cap_and_validation():
    with pytest.raises(CapExceeded):
        pair_count_direct_sum([(field(2), s3()), (field(2), s3())],
                              max_pairs=1 << 10)
    with pytest.raises(ValueError, match="relation"):
        pair_count_direct_sum([(field(2), cyclic(2))], "ab=ba")
    with pytest.raises(ValueError, match="component"):
        pair_count_direct_sum([])


def test_direct_sum_count_holds_no_sum_sized_matrix():
    # F:2 S3 (+) F:3 C:2 (+) F:2 C:3 has 4608 elements: one boolean per
    # pair of sum elements would take 20 MiB
    comps = [(field(2), s3()), (field(3), cyclic(2)), (field(2), cyclic(3))]
    tracemalloc.start()
    try:
        counts = [pair_count_direct_sum(comps, rel, max_pairs=1 << 25)
                  for rel in ("ab=0", "ab=0&ba=0")]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert counts == [243600, 168000]
    assert peak < 1 << 20


def test_relation_validation():
    with pytest.raises(ValueError, match="relation"):
        pair_count_naive(field(2), cyclic(2), "a=b")
    with pytest.raises(ValueError, match="side"):
        annihilator_histogram(field(2), cyclic(2), "up")


M3_COUNTS = {2: [168, 0, 0, 294, 0, 0, 49, 0, 0, 1],  # 168 = |GL_3(F_2)|
             3: [11232, 0, 0, 8112, 0, 0, 338, 0, 0, 1]}


@pytest.mark.parametrize("q", sorted(M3_COUNTS))
def test_matrix_unit_table_runs_the_census_for_m3(q):
    hist = _census(field(q), "M3", _matrix_unit_table(3), "left",
                   max_elements=q**9, workers=1, sliced=False)
    assert hist.counts == M3_COUNTS[q]


def test_m3_weighted_sum_equals_literal_pair_count():
    K, table = field(2), _matrix_unit_table(3)
    hist = _census(K, "M3", table, "left", max_elements=2**9, workers=1,
                   sliced=False)
    assert _pair_count(K, table, "ab=0", 2**18) == hist.weighted_sum()


# F:2-F:8 and F:16 rank bit-sliced (F:4, F:8 and F:16 over F_2), F:9 and
# F:11 on int64
MATRIX_SLICE_CASES = ([(2, q) for q in (2, 3, 4, 5, 7, 8, 9, 11, 16)]
                      + [(3, 2), (3, 3)])


@pytest.mark.parametrize("m,q", MATRIX_SLICE_CASES,
                         ids=[f"M{m}-F:{q}" for m, q in MATRIX_SLICE_CASES])
def test_matrix_slice_census_equals_full_census(m, q, monkeypatch):
    K, table = ring_from_spec(f"F:{q}"), _matrix_unit_table(m)
    for side in ("left", "right", "twosided"):
        if (m, side) == (3, "left"):  # the full census, pinned above
            full = M3_COUNTS[q]
        else:
            full = _census(K, f"M{m}", table, side, max_elements=q**(m * m),
                           workers=1, sliced=False).counts
        if m == 2:
            assert m2_annihilator_histogram(K, side).counts == full
        with monkeypatch.context() as mp:
            # several chunks of the slice for two workers to share
            mp.setattr(oracle, "_CHUNK", max(1, q**(m * m - 1) // 4))
            for workers in (1, 2):
                assert _census(K, f"M{m}", table, side, max_elements=q**(m * m),
                               workers=workers, sliced=True).counts == full


def _ann_size(K, table, x, side):
    M = np.array([*x, 0], dtype=np.int64)[_ann_gather_indices(table, side)]
    return K.size ** (table.shape[0] - groupring.matrix_rank(K, M))


@pytest.mark.parametrize("m,p", [(2, 5), (3, 3)])
def test_cyclic_shifts_permute_matrix_units_and_keep_annihilators(m, p):
    # the matrix-ring slice weights rest on x -> S^a x S^-b permuting the
    # coordinates regularly, without scaling, and keeping |Ann| on every side
    K, table = field(p), _matrix_unit_table(m)
    S = np.roll(np.eye(m, dtype=np.int64), 1, axis=0)  # S e_j = e_{j+1}
    shifts = [(np.linalg.matrix_power(S, a), np.linalg.matrix_power(S.T, b))
              for a in range(m) for b in range(m)]
    for k in range(m * m):  # each unit E_k lands once on every unit, unscaled
        E = np.eye(m * m, dtype=np.int64)[k].reshape(m, m)
        images = [(u @ E @ v).ravel() for u, v in shifts]
        assert all(sorted(y) == [0] * (m * m - 1) + [1] for y in images)
        assert sorted(int(np.argmax(y)) for y in images) == list(range(m * m))
    rng = np.random.default_rng(15)
    sizes = set()
    for r in [0, 1, m - 1, m] * 4:  # x = A B of rank at most r
        x = (rng.integers(0, p, (m, r)) @ rng.integers(0, p, (r, m))) % p
        want = [_ann_size(K, table, x.ravel(), side)
                for side in ("left", "right", "twosided")]
        sizes.add(tuple(want))
        for u, v in shifts:
            y = (u @ x @ v) % p
            assert [_ann_size(K, table, y.ravel(), side)
                    for side in ("left", "right", "twosided")] == want
    assert len(sizes) > 2


@pytest.mark.parametrize("side", ["left", "right", "twosided"])
@pytest.mark.parametrize("q", [5, 11])
def test_matrix_census_ranks_only_the_slice(q, side, monkeypatch):
    # a silent fall-back to the full census would still give the right
    # histogram, so count the rows ranked: q**3 slice elements, not q**4
    ranked = []
    census_rows = oracle._census_rows

    def spy(K, n, lo, hi, sliced):
        ranked.append(hi - lo)
        return census_rows(K, n, lo, hi, sliced)

    monkeypatch.setattr(oracle, "_census_rows", spy)
    K = field(q)
    hist = m2_annihilator_histogram(K, side)
    assert sum(ranked) == q**3
    assert sum(hist.counts) == q**4


@pytest.mark.parametrize("group", ["S3", "Q8", "C2xC2"])
def test_table_gather_matches_group_inverse_form(group):
    G = group_from_spec(group)
    t, inv = G.table, G.inverses
    assert np.array_equal(_ann_gather_indices(t, "left"), t[inv].T)
    assert np.array_equal(_ann_gather_indices(t, "right"), t[:, inv])
    assert np.array_equal(_ann_gather_indices(t, "twosided"),
                          np.vstack([t[inv].T, t[:, inv]]))


@pytest.mark.parametrize("coeff", ["F:2", "F:3"])
@pytest.mark.parametrize("group,symmetric", [("C:4", True), ("C2xC2", True),
                                             ("S3", False)])
def test_twosided_count_skips_the_and_on_symmetric_tables(coeff, group, symmetric):
    # a commutative algebra has ab = 0 iff ba = 0, so its twosided count
    # is the one-sided count; S3's table is not symmetric and its counts differ
    K, G = ring_from_spec(coeff), group_from_spec(group)
    assert np.array_equal(G.table, G.table.T) == symmetric
    twosided = _pair_count(K, G.table, "ab=0&ba=0", 1 << 20)
    assert (twosided == _pair_count(K, G.table, "ab=0", 1 << 20)) == symmetric


def test_twosided_pair_count_equals_brute_double_loop():
    K, G = field(2), s3()
    elems = [element_vector(K, G, e) for e in range(ring_size(K, G))]
    zero = (0,) * G.order
    brute = sum(1 for a in elems for b in elems
                if gr_multiply(K, G, a, b) == zero == gr_multiply(K, G, b, a))
    assert pair_count_naive(K, G, "ab=0&ba=0") == brute


@pytest.mark.parametrize("coeff, group", [("F:2", "C:10"), ("F:4", "C:5"), ("F:32", "C:2")])
def test_pair_count_equals_census_at_benchmark_scale(coeff, group):
    K, G = ring_from_spec(coeff), group_from_spec(group)
    one_sided = pair_count_naive(K, G, "ab=0")
    for side in ("left", "right"):
        assert annihilator_histogram(K, G, side).weighted_sum() == one_sided
    assert (annihilator_histogram(K, G, "twosided").weighted_sum()
            == pair_count_naive(K, G, "ab=0&ba=0"))


@pytest.mark.parametrize("group, relation, side", [("C:12", "ab=0", "left"),
                                                   ("S3xC:2", "ab=0&ba=0", "twosided")])
def test_pair_count_past_one_block_equals_census(group, relation, side):
    # 4096 elements: 2**24 pairs in 64 row blocks of the counter
    K, G = field(2), group_from_spec(group)
    assert ring_size(K, G) ** 2 // oracle._PRODUCT_BLOCK == 64
    assert (pair_count_naive(K, G, relation, max_pairs=1 << 24)
            == annihilator_histogram(K, G, side).weighted_sum())


def test_pair_count_holds_one_block_not_the_pair_matrix():
    # the 4096 x 4096 zero-pair matrix would take 16 MiB
    tracemalloc.start()
    try:
        pair_count_naive(field(2), cyclic(12), "ab=0", max_pairs=1 << 24)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_mod_ring_pair_count_frozen():
    # frozen from the per-element convolution counter the structure
    # constants replaced
    K, G = integers_mod(4), cyclic(5)
    assert pair_count_naive(K, G, "ab=0") == 5888
    assert pair_count_naive(K, G, "ab=0&ba=0") == 5888


@pytest.mark.parametrize("coeff, group, count", [("F:4", "C:5", 6727),
                                                  ("F:32", "C:2", 3008)])
def test_benchmark_pair_counts_frozen(coeff, group, count):
    # frozen from the per-coordinate float-matmul counter the split-half
    # codes replaced; abelian, so both relations agree
    K, G = ring_from_spec(coeff), group_from_spec(group)
    for rel in oracle.RELATIONS:
        assert pair_count_naive(K, G, rel) == count


@pytest.mark.parametrize("q, counts", [(4, (1636, 736)), (5, (4705, 1825))])
def test_m2_pair_counts_frozen(q, counts):
    # frozen from the per-coordinate float-matmul counter, as above
    K = ring_from_spec(f"F:{q}")
    assert tuple(m2_pair_count_naive(K, rel) for rel in oracle.RELATIONS) == counts


@pytest.mark.parametrize("n", [4096, 4097])
def test_pair_count_on_both_sides_of_the_float32_bound(n):
    # D = 1: products reach (n-1)**2 + n, below 2**24 for 4096 only, so
    # Z:4096 runs in float32 and Z:4097 in float64; ab = 0 has gcd(a, n)
    # solutions b
    assert groupring._exact_float(1, n) == (np.float32 if n == 4096 else np.float64)
    count = pair_count_naive(integers_mod(n), cyclic(1), max_pairs=1 << 25)
    assert count == sum(math.gcd(a, n) for a in range(n))


def test_literal_products_past_float64_are_refused_before_allocation(monkeypatch):
    def no_decode(*args):
        raise AssertionError("elements decoded before the exactness guard")

    monkeypatch.setattr(oracle, "_decode_elements", no_decode)
    monkeypatch.setattr(groupring, "_decode_elements", no_decode)
    K, G = integers_mod(1 << 27, max_size=1 << 28), cyclic(1)
    with pytest.raises(ValueError, match="D = 1 coordinates mod N = 134217728"):
        pair_count_naive(K, G, max_pairs=1 << 54)
    with pytest.raises(ValueError, match="D = 1 coordinates mod N = 134217728"):
        annihilator_size_by_enumeration(K, G, (5,), cap=1 << 27)


def test_product_codes_past_float64_are_refused_before_products(monkeypatch):
    # (ab, ba) codes fold 2n coordinates: over F:2 C:27 they reach 2**54,
    # while each product sum stays small
    def no_products(*args):
        raise AssertionError("products formed before the code guard")

    monkeypatch.setattr(groupring, "_residues", no_products)
    monkeypatch.setattr(groupring, "_half_codes", no_products)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"E = 54 coordinates mod N = 2 .* 2\*\*53"):
            _pair_count(field(2), cyclic(27).table, "ab=0&ba=0", 1 << 60)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_literal_route_reads_no_census_helper(monkeypatch):
    K4, C3 = field(2, 2), cyclic(3)
    want = [annihilator_histogram(K4, C3, side).weighted_sum()
            for side in ("left", "twosided")]

    def forbidden(*args, **kwargs):
        raise AssertionError("the literal route read a census helper")

    monkeypatch.setattr(CoeffRing, "array_ops", forbidden)
    # every plane and lane helper of the kernel, present and future
    kernel = [name for name in vars(groupring) if name.startswith(("_plane", "_lane"))]
    assert len(kernel) >= 8
    for name in ["_ann_gather_indices", "_chunk_ranks", "_bitsliced_ranks", "_cycle",
                 "_index_digits", "_index_bits", "_digit_planes", "_times_t",
                 "_fermat_inverse"] + kernel:
        monkeypatch.setattr(groupring, name, forbidden)
        monkeypatch.setattr(oracle, name, forbidden, raising=False)
    assert [pair_count_naive(K4, C3, rel) for rel in oracle.RELATIONS] == want
    assert pair_count_naive(field(2), s3(), "ab=0") == 464
    assert m2_pair_count_naive(field(2), "ab=0&ba=0") == 40
    K, G = field(2), s3()
    sizes = [annihilator_size_by_enumeration(K, G, element_vector(K, G, e), "left")
             for e in range(ring_size(K, G))]
    assert sum(sizes) == 464
