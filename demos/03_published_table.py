"""
Reproducing the published table
===============================

The table of group algebras whose zero-product probability reaches 0.1,
recomputed from scratch. Two rows need footnotes, and the census supplies
them: one denominator is misprinted, and one row quietly switches between
the pair convention Pr[ab=0] and the twosided convention.
"""

from fractions import Fraction

from nullity.cli import decimal_str
from nullity.errata import (ERRATA_BY_KEY, TABLE1_AS_TYPESET, TABLE1_ERRATA,
                            TABLE1_ROWS)
from nullity.formulas import sweep_catalog

# one sweep gives both conventions; abelian rows reuse the pair value
entries = sweep_catalog([row[:2] for row in TABLE1_ROWS])

print(f"{'ring':14s} {'printed':16s} {'recomputed':24s} status")
for e, (coeff, group, printed, printed_dec) in zip(entries, TABLE1_ROWS):
    pair, two = e.p_pair, e.p_twosided
    key = TABLE1_ERRATA.get((coeff, group))
    status = ERRATA_BY_KEY[key].status if key else "match"
    typeset = TABLE1_AS_TYPESET.get((coeff, group), str(printed))
    shown = str(pair) if pair == two else f"{pair} | {two}"
    print(f"{coeff + ' ' + group:14s} {typeset + ' (' + printed_dec + ')':16s} "
          f"{shown:24s} {status}")

print()
for key in ("table1-F2C4", "table1-F2S3"):
    e = ERRATA_BY_KEY[key]
    print(f"[{key}] {e.note}")

# the decimal column is the tell for the misprint: 3/16 rounds to the
# printed 0.18, the printed fraction 3/36 does not
print()
print("3/16  =", decimal_str(Fraction(3, 16)))
print("3/36  =", decimal_str(Fraction(3, 36)))
