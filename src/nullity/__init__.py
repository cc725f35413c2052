"""Exact zero-product probabilities for finite group algebras.

The probability that two uniformly random elements of K[G] multiply to
zero, computed two independent ways: closed-form decompositions
(:mod:`nullity.formulas`) and an exhaustive annihilator census
(:mod:`nullity.oracle`), each checking the other.
"""

from .coeffring import (CoeffRing, NotInvertibleError, field, integers_mod,
                        ring_from_spec)
from .formulas import (classify_threshold, closed_forms,
                       default_sweep_instances, gap_check, sweep_catalog)
from .groupring import (CapExceeded, annihilator_size,
                        annihilator_size_by_enumeration, element_index,
                        element_vector, gr_multiply, regular_matrix, ring_size)
from .groups import (CayleyGroup, cyclic, from_table, group_from_spec,
                     group_from_table_file, product, q8, s3, validate_group)
from .oracle import (AnnihilatorHistogram, annihilator_histogram,
                     m2_annihilator_histogram, m2_pair_count_naive,
                     nullity_probability, pair_count_direct_sum,
                     pair_count_naive)

__version__ = "0.1.0"

__all__ = [
    "AnnihilatorHistogram", "CapExceeded", "CayleyGroup", "CoeffRing",
    "NotInvertibleError", "annihilator_histogram", "annihilator_size",
    "annihilator_size_by_enumeration", "classify_threshold", "closed_forms",
    "cyclic", "default_sweep_instances", "element_index", "element_vector",
    "field", "from_table", "gap_check", "gr_multiply", "group_from_spec",
    "group_from_table_file", "integers_mod", "m2_annihilator_histogram",
    "m2_pair_count_naive", "nullity_probability", "pair_count_direct_sum",
    "pair_count_naive", "product", "q8", "regular_matrix", "ring_from_spec",
    "ring_size", "s3", "sweep_catalog", "validate_group",
]
