"""
Closed forms against the census
===============================

Every family with a known formula, evaluated exactly and replayed against
the exhaustive census. Fractions throughout; no floating point in any
comparison.
"""

from nullity import annihilator_histogram, closed_forms, ring_from_spec
from nullity.formulas import p_c5, p_cyclic, p_matrix2, p_q8_odd
from nullity.groups import cyclic, group_from_spec
from nullity.oracle import m2_annihilator_histogram

# cyclic groups of any order: F_q[C_n] splits into chain rings
# F_{q^d}[y]/(y^L), fields when gcd(q, n) = 1, and P multiplies over them;
# coprime, characteristic-power and mixed (F:2 C:6) instances alike
for q, n in ((2, 3), (3, 2), (7, 6), (2, 4), (3, 3), (5, 5), (2, 6)):
    result = p_cyclic(q, n)
    census = annihilator_histogram(ring_from_spec(f"F:{q}"), cyclic(n))
    print(f"F:{q} C:{n}  formula {result.value}  census {census.probability()}"
          f"  [{result.variant}: {result.provenance}]")
    assert result.value == census.probability()

# 2x2 matrices over F_q, the nonabelian building block
for q in (2, 3):
    for side in ("left", "twosided"):
        formula = p_matrix2(q, side).value
        census = m2_annihilator_histogram(ring_from_spec(f"F:{q}"), side).probability()
        print(f"M2(F_{q}) {side:9s} formula {formula}  census {census}")
        assert formula == census

# Q8 over an odd field: four field factors and one matrix factor
formula = p_q8_odd(3, "left").value
census = annihilator_histogram(ring_from_spec("F:3"),
                               group_from_spec("Q8"), "left")
print(f"F:3 Q8 left  formula {formula}  census {census.probability()}")
assert formula == census.probability()

# the five-element cycle carries a published four-case split; the printed
# case polynomials are not all right, so each instance returns both the
# typeset value and the decomposition value
for q in (2, 4, 5):
    printed = p_c5(q, "printed")
    derived = p_c5(q, "derived")
    tag = "same" if printed.value == derived.value else "DIFFER"
    print(f"F:{q} C:5  printed {printed.value}  derived {derived.value}  "
          f"[{tag}]")

# closed_forms dispatches all of the above from (ring, group, side)
values = closed_forms(ring_from_spec("F:5"), cyclic(5))
for r in values:
    print(f"dispatch: {r.value} ({r.variant}: {r.provenance})")
