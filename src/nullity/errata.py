"""Discrepancies between published values and the census, adjudicated.

Each entry records what the source prints, what exhaustive computation
gives, and which kind of slip it is.  `status` is "paper-typo" for plain
misprints and "convention-note" where printed numbers mix the pair and
twosided probability conventions.

This module is data only.  A printed value names its erratum where it is
made: a closed form in its `FormulaResult.erratum` field, a published-table
row in its last column.  A mismatch is expected exactly when the closed
form or table row it comes from names an erratum here.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Erratum:
    key: str
    instance: str
    status: str  # "paper-typo" | "convention-note"
    printed: str
    computed: str
    note: str


ERRATA: tuple[Erratum, ...] = (
    Erratum(
        key="table1-F2C4",
        instance="F:2 C:4",
        status="paper-typo",
        printed="3/36 (decimal 0.18)",
        computed="3/16 = 0.1875",
        note="Denominator misprint: the census gives 3/16, and the printed "
             "decimal 0.18 rounds 3/16, not 3/36 = 0.083.",
    ),
    Erratum(
        key="table1-F2S3",
        instance="F:2 S3",
        status="convention-note",
        printed="5/64 (decimal 0.113)",
        computed="twosided 5/64 = 0.078125; pair (one-sided) 29/256 = 0.11328125",
        note="The fraction is the twosided value Pr[ab=0 and ba=0] while the "
             "decimal (and the table's >= 0.1 cutoff) follow the pair value "
             "Pr[ab=0]; the two conventions disagree for nonabelian groups.",
    ),
    Erratum(
        key="c5-case1",
        instance="F:q C:5, characteristic 5",
        status="paper-typo",
        printed="(q^7 - q^6 + q^5 + q^4 - q^2 + q - 1)/q^9",
        computed="(6q - 5)/q^6; at q=5 the census gives 1/625, printed gives 66229/1953125",
        note="Chain-ring case. The printed per-size class counts are listed "
             "in reverse: |Ann| = q^j is attained by q^(4-j)(q-1) nonzero "
             "zero divisors, not q^(j-1)(q-1).",
    ),
    Erratum(
        key="c5-case3",
        instance="F:q C:5, q = 4 mod 5",
        status="paper-typo",
        printed="(q^6 - 2q^3 + 5q^2 - 2q - 1)/q^8",
        computed="((2q-1)/q^2) ((2q^2-1)/q^4)^2; at q=4 the census gives "
                 "6727/1048576, printed gives 4039/65536",
        note="Decomposition is one field and two quadratic-extension factors. "
             "The printed class counts are order-scrambled and the printed "
             "unit count (q^2-1)^2 q should be (q-1)(q^2-1)^2.",
    ),
    Erratum(
        key="c5-case4",
        instance="F:q C:5, q = 1 mod 5",
        status="paper-typo",
        printed="(2q^6 + 5q^5 - 21q^4 + 35q^3 - 29q^2 + 10q - 1)/q^10",
        computed="(2q-1)^5/q^10; the polynomials differ, yet both give "
                 "21^5/11^10 at q=11",
        note="The printed class counts use powers of (q-1) where binomial "
             "multiples belong; at q=11 the slip is invisible because "
             "q - 1 = 10 = C(5,2) = C(5,3), so the first prime power in this "
             "case evaluates correctly.  From q=16 on the values part ways.",
    ),
    Erratum(
        key="corollary-gap",
        instance="all group algebras",
        status="paper-typo",
        printed="P never lies in (21/64, 1/4)",
        computed="the catalog shows the true forbidden interval is (21/64, 1/2)",
        note="The printed interval is empty as typeset (21/64 > 1/4).  "
             "Swapping endpoints to (1/4, 21/64) is refuted by F:3 C:2 with "
             "P = 25/81, which lies strictly inside; the data supports "
             "reading the right endpoint as 1/2: no value falls in "
             "(21/64, 1/2) and both endpoints are attained.",
    ),
    Erratum(
        key="corollary-smalltail",
        instance="all group algebras",
        status="paper-typo",
        printed="excluding the three largest instances, P < 2/10; and "
                "P = 7/32 exactly for F:2 C2xC2 and F:5 C:2",
        computed="F:2 C2xC2 and Z:4 C:2 both reach 7/32 = 0.21875 >= 2/10; "
                 "F:5 C:2 has P = 81/625",
        note="Two adjacent items contradict each other as printed: the 7/32 "
             "instances exceed the claimed 2/10 bound, and the equality list "
             "names F:5 C:2 where the catalog (and the published table "
             "itself) has Z:4 C:2.",
    ),
)


ERRATA_BY_KEY = {e.key: e for e in ERRATA}


# Published table of all group algebras with P >= 0.1, as printed:
# (coeff spec, group spec, fraction as typeset, printed decimal, erratum key).
# The typeset text keeps unreduced fractions; Fraction(text) is the value.
TABLE1_ROWS: tuple[tuple[str, str, str, str, str | None], ...] = (
    ("F:2", "C:2", "1/2", "0.5", None),
    ("F:3", "C:2", "25/81", "0.308", None),
    ("F:5", "C:2", "81/625", "0.129", None),
    ("F:2", "C:3", "21/64", "0.328", None),
    ("F:2", "C:4", "3/36", "0.18", "table1-F2C4"),
    ("F:3", "C:3", "1/9", "0.111", None),
    ("F:4", "C:2", "5/32", "0.156", None),
    ("F:2", "C2xC2", "7/32", "0.218", None),
    ("Z:4", "C:2", "7/32", "0.218", None),
    ("Z:6", "C:2", "25/162", "0.154", None),
    ("F:2", "S3", "5/64", "0.113", "table1-F2S3"),
)
