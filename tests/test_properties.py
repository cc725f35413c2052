"""Property tests: the closed-form engine against the census, the
census and per-element ranks against literal products, the bit-sliced
rank kernel against the int64 one, and the literal zero-product mask
against the Python product loop, on drawn instances.  Derandomized, so
every run draws the same examples."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nullity.coeffring import ring_from_spec
from nullity.formulas import _histogram_counts, cyclic_components
from int64_ranks import batch_ranks, slice_indices
from nullity.groupring import (SIDES, _ann_gather_indices,
                               _chunk_ranks, _decode_elements,
                               _structure_constants, _zero_product_mask,
                               annihilator_size,
                               annihilator_size_by_enumeration, element_vector,
                               gr_multiply, ring_size)
from nullity.groups import cyclic, from_table, group_from_spec, q8, s3
from nullity.oracle import (_census_rows, _matrix_unit_table,
                            annihilator_histogram, pair_count_naive)

PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 32)
# the census ranks the |K|^(n-1) elements of the slice x_e = 1
MAX_RANKED = 1 << 12


def _fits(q: int, n: int) -> bool:
    return q**(n - 1) <= MAX_RANKED


@st.composite
def instances(draw):
    """(q, group, components) for a cyclic group of any order, S3 with
    gcd(q, 6) = 1 or Q8 with q odd."""
    family = draw(st.sampled_from(("cyclic", "s3", "q8")))
    if family == "cyclic":
        q = draw(st.sampled_from(PRIME_POWERS))
        n = draw(st.integers(1, 12).filter(lambda n: _fits(q, n)))
        return q, cyclic(n), cyclic_components(q, n)
    if family == "s3":
        q = draw(st.sampled_from([q for q in PRIME_POWERS
                                  if math.gcd(q, 6) == 1 and _fits(q, 6)]))
        return q, s3(), [(1, 1, 1)] * 2 + [(1, 1, 2)]
    q = draw(st.sampled_from([q for q in PRIME_POWERS
                              if q % 2 and _fits(q, 8)]))
    return q, q8(), [(1, 1, 1)] * 4 + [(1, 1, 2)]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(instances(), st.sampled_from(SIDES))
def test_engine_histogram_equals_census(instance, side):
    q, G, comps = instance
    census = annihilator_histogram(ring_from_spec(f"F:{q}"), G, side)
    assert _histogram_counts(q, comps, side) == census.counts


# --- the rank route against the literal route, on small drawn instances --

SMALL_FIELDS = (2, 3, 4, 5, 7)
SMALL_GROUPS = ("S3", "Q8", "S3xC:2", "C2xC2", "C:1", "C:2", "C:3", "C:4",
                "C:5", "C:6")


def small_instances(max_size):
    """(K, G) over F:2-F:7 with |K|^n <= max_size; the group is drawn
    first, so the nonabelian ones come up as often as the cyclic ones."""
    fields = {g: [f"F:{q}" for q in SMALL_FIELDS
                  if q**group_from_spec(g).order <= max_size]
              for g in SMALL_GROUPS}
    return st.sampled_from([g for g in SMALL_GROUPS if fields[g]]).flatmap(
        lambda g: st.sampled_from(fields[g]).map(
            lambda f: (ring_from_spec(f), group_from_spec(g))))


@settings(derandomize=True, max_examples=30, deadline=None)
@given(small_instances(1 << 12))
def test_opposite_group_mirrors_the_census(instance):
    # Ann_l(x) in K[G] is Ann_r(x) in K[G^op], whose table is G.table.T
    K, G = instance
    op = from_table(G.table.T)
    assert (annihilator_histogram(K, G, "left").counts
            == annihilator_histogram(K, op, "right").counts)
    assert (annihilator_histogram(K, G, "twosided").counts
            == annihilator_histogram(K, op, "twosided").counts)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(small_instances(1 << 12), st.sampled_from(SIDES), st.data())
def test_rank_equals_enumeration(instance, side, data):
    K, G = instance
    total = ring_size(K, G)
    for e in data.draw(st.lists(st.integers(0, total - 1), min_size=1, max_size=3)):
        x = element_vector(K, G, e)
        assert (annihilator_size(K, G, x, side)
                == annihilator_size_by_enumeration(K, G, x, side))


@settings(derandomize=True, max_examples=30, deadline=None)
@given(small_instances(1 << 10), st.sampled_from(SIDES))
def test_census_equals_literal_pair_count(instance, side):
    # summing |Ann(x)| over x counts the pairs (a, x) with a product zero
    K, G = instance
    relation = "ab=0&ba=0" if side == "twosided" else "ab=0"
    assert (annihilator_histogram(K, G, side).weighted_sum()
            == pair_count_naive(K, G, relation))


# --- the bit-sliced kernel against the int64 reference, on slice windows --

BITSLICED_FIELDS = ("F:2", "F:3", "F:4", "F:5", "F:7", "F:8", "F:9", "F:16", "F:25",
                    "F:27", "F:32", "F:49", "F:11", "F:13", "F:23")
BITSLICED_GROUPS = tuple(f"C:{n}" for n in range(1, 9)) + ("S3", "Q8", "C2xC2",
                                                           "S3xC:2")


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.sampled_from(BITSLICED_FIELDS), st.sampled_from(BITSLICED_GROUPS),
       st.sampled_from(SIDES), st.data())
def test_bitsliced_ranks_equal_int64_ranks(coeff, group, side, data):
    # any window [lo, hi) of the slice, of at most 300 elements, so that
    # its ends fall anywhere on the 64-lane grid
    K, G = ring_from_spec(coeff), group_from_spec(group)
    n = G.order
    lo = data.draw(st.integers(0, K.size ** (n - 1) - 1))
    hi = data.draw(st.integers(lo + 1, min(K.size ** (n - 1), lo + 300)))
    P = _ann_gather_indices(G.table, side)
    A = _census_rows(K, n, lo, hi, True)
    mats = slice_indices(K, n, lo, hi)[:, P]
    assert np.array_equal(_chunk_ranks(K, A, P)[0][:hi - lo], batch_ranks(mats, K))


# --- the literal zero-product mask against the Python product loop -------

MASK_RINGS = ("F:2", "F:3", "F:4", "F:5", "F:7", "F:8", "F:9", "F:3^8",
              "Z:4", "Z:6", "Z:9")
MASK_TABLES = tuple(f"C:{n}" for n in range(1, 7)) + ("S3", "Q8", "C2xC2", "M2")
# each mask row is checked against all |K|^n products, n*n steps each
MAX_LOOP_STEPS = 1 << 15


def _basis_table(spec):
    return _matrix_unit_table(2) if spec == "M2" else group_from_spec(spec).table


def _loop_steps(coeff, table):
    n = _basis_table(table).shape[0]
    return ring_from_spec(coeff).size ** n * n * n


MASK_INSTANCES = [(r, t) for r in MASK_RINGS for t in MASK_TABLES
                  if _loop_steps(r, t) <= MAX_LOOP_STEPS]


def _loop_product(K, table, a, b):
    """a*b in Python: gr_multiply on a group, the row-major matrix
    product on the 2x2 matrix units."""
    if table != "M2":
        return gr_multiply(K, group_from_spec(table), a, b)
    return tuple(K.add(K.mul(a[2 * i], b[j]), K.mul(a[2 * i + 1], b[2 + j]))
                 for i in range(2) for j in range(2))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.sampled_from(MASK_INSTANCES),
       st.lists(st.integers(0, 1 << 40), min_size=1, max_size=3))
@example(("Z:9", "C:1"), [5, 3, 0])  # D = 1: the low half is empty
@example(("F:8", "C:1"), [6, 1])  # odd D = 3
@example(("F:2", "C:5"), [7, 31])  # odd D = 5
@example(("Z:6", "C2xC2"), [300, 1215])  # even D = 4 over Z/6
@example(("F:4", "M2"), [17, 200, 255])  # even D = 8 on matrix units
def test_zero_product_mask_equals_product_loop(instance, picks):
    coeff, table = instance
    K = ring_from_spec(coeff)
    basis = _basis_table(table)
    n = basis.shape[0]
    T, N = _structure_constants(K, basis)
    total = K.size ** n
    rows = [p % total for p in picks]
    Z = _zero_product_mask(T, N, np.vstack([_decode_elements(N, T.shape[0], e, e + 1)
                                            for e in rows]))
    assert Z.shape == (len(rows), total)
    zero = (0,) * n
    elements = [tuple(int(c) for c in v) for v in _decode_elements(K.size, n, 0, total)]
    for e, got in zip(rows, Z):
        a = elements[e]
        assert got.tolist() == [_loop_product(K, table, a, b) == zero for b in elements]
