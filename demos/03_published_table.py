"""
Reproducing the published table
===============================

The table of group algebras whose zero-product probability reaches 0.1,
recomputed from scratch. Two rows need footnotes, and the census supplies
them: one denominator is misprinted, and one row quietly switches between
the pair convention Pr[ab=0] and the twosided convention.
"""

from fractions import Fraction

from nullity.cli import decimal_str, main

# the same report as `nullity table1`; it exits nonzero if a row stops
# reproducing in a way no erratum explains
assert main(["table1"]) == 0

# the decimal column is the tell for the misprint: 3/16 rounds to the
# printed 0.18, the printed fraction 3/36 does not
print()
print("3/16  =", decimal_str(Fraction(3, 16)))
print("3/36  =", decimal_str(Fraction(3, 36)))
