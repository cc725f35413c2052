"""Property tests: the closed-form engine against the census on drawn
instances.  Derandomized, so every run draws the same examples."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from nullity.coeffring import ring_from_spec
from nullity.formulas import _histogram_counts, cyclic_components
from nullity.groupring import SIDES
from nullity.groups import cyclic, q8, s3
from nullity.oracle import annihilator_histogram

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
