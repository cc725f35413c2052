"""The twelve-item release checklist, verified at exact rational equality.

Every test is tagged with a checklist marker; after the run the conftest
hook prints one PASS/FAIL line per numbered item.  Two assertions encode
recorded claims that the exhaustive census refutes -- the five-cycle
"case 4 typeset polynomial always disagrees" claim probed at q = 11, and
the claim that no catalog value lies strictly inside (1/4, 21/64).  Those
two tests fail by design; the adjudication behind each one lives in the
errata module and in the matching passing tests beside them.
"""

import json
import math
import random
import time
from fractions import Fraction
from functools import lru_cache

import pytest

from nullity.cli import decimal_str, main
from nullity.coeffring import field, integers_mod, ring_from_spec
from nullity.errata import ERRATA_BY_KEY, TABLE1_ROWS
from nullity.formulas import (DERIVED, PRINTED, classify_threshold,
                              default_sweep_instances, gap_check, p_c5,
                              p_char2_family, p_cyclic, p_matrix2,
                              p_q8_odd, p_s3_coprime6, sweep_catalog,
                              unit_count_cyclic)
from nullity.groupring import annihilator_size, ring_size
from nullity.groups import cyclic, group_from_spec, s3
from nullity.oracle import (annihilator_histogram, m2_annihilator_histogram,
                            m2_pair_count_naive, nullity_probability,
                            pair_count_direct_sum, pair_count_naive)


# erratum key of each published-table row, by (coeff, group)
TABLE1_KEYS = {(coeff, group): key for coeff, group, _, _, key in TABLE1_ROWS}


@lru_cache(maxsize=None)
def census(coeff: str, group: str, side: str):
    return annihilator_histogram(ring_from_spec(coeff),
                                 group_from_spec(group), side, workers=8)


@lru_cache(maxsize=None)
def catalog_1024():
    return tuple(sweep_catalog(default_sweep_instances(1024)))


# --- 1: the S3 record over F_7 ----------------------------------------

@pytest.mark.checklist(1, "S3 census over F:7: exact record inside the "
                          "runtime budget")
def test_s3_over_f7_census_record_and_runtime():
    K, G = ring_from_spec("F:7"), s3()
    t0 = time.perf_counter()
    hist = annihilator_histogram(K, G, "left", workers=1)
    single = time.perf_counter() - t0
    assert hist.counts == [72576, 24192, 15840, 4608, 420, 12, 1]
    assert hist.probability() == Fraction(560911, 1977326743)
    assert single <= 60.0

    t0 = time.perf_counter()
    hist8 = annihilator_histogram(K, G, "left", workers=8)
    eight = time.perf_counter() - t0
    assert hist8.counts == hist.counts
    assert eight <= 10.0


# --- 2: the C6 record over F_7 ----------------------------------------

@pytest.mark.checklist(2, "C6 census over F:7 equals the semisimple product")
def test_c6_over_f7_census_record():
    hist = census("F:7", "C:6", "left")
    assert hist.counts == [46656, 46656, 19440, 4320, 540, 36, 1]
    assert hist.probability() == Fraction(4826809, 13841287201)
    assert p_cyclic(7, 6).value == hist.probability()
    assert hist.unit_count() == unit_count_cyclic(7, 6)


# --- 3: coprime cyclic formula vs census ------------------------------

def _coprime_sweep():
    required = [(2, 3), (2, 5), (3, 2), (3, 4), (4, 3), (5, 2), (5, 4),
                (7, 2), (7, 4), (8, 5), (9, 2), (11, 5)]
    seen = set(required)
    from nullity.coeffring import prime_power_decomposition
    for q in range(2, 65):
        if prime_power_decomposition(q) is None:
            continue
        n = 2
        while q**n <= 4096:
            if math.gcd(q, n) == 1 and (q, n) not in seen:
                seen.add((q, n))
                required.append((q, n))
            n += 1
    return required


@pytest.mark.checklist(3, "coprime cyclic product formula equals the census "
                          "across the sweep")
def test_coprime_cyclic_formula_matches_census_everywhere():
    pairs = _coprime_sweep()
    assert len(pairs) >= 40
    for q, n in pairs:
        K = ring_from_spec(f"F:{q}")
        hist = annihilator_histogram(K, cyclic(n), "left", workers=8)
        assert p_cyclic(q, n).value == hist.probability(), (q, n)
        assert hist.unit_count() == unit_count_cyclic(q, n)


# --- 4: the published >= 0.1 table ------------------------------------

@pytest.mark.checklist(4, "published table rows reproduced; typo and "
                          "convention rows flagged")
def test_published_table_plain_rows():
    rows = [
        ("F:2", "C:2", Fraction(1, 2)),
        ("F:3", "C:2", Fraction(25, 81)),
        ("F:5", "C:2", Fraction(81, 625)),
        ("F:2", "C:3", Fraction(21, 64)),
        ("F:3", "C:3", Fraction(1, 9)),
        ("F:4", "C:2", Fraction(5, 32)),
        ("F:2", "C2xC2", Fraction(7, 32)),
        ("Z:4", "C:2", Fraction(7, 32)),
        ("Z:6", "C:2", Fraction(25, 162)),
    ]
    for coeff, group, expected in rows:
        K = ring_from_spec(coeff)
        G = group_from_spec(group)
        assert nullity_probability(K, G, "left") == expected, (coeff, group)


@pytest.mark.checklist(4, "published table rows reproduced; typo and "
                          "convention rows flagged")
def test_published_table_c4_row_is_a_denominator_typo(capsys):
    hist = census("F:2", "C:4", "left")
    assert hist.probability() == Fraction(3, 16)
    assert Fraction(3, 36) != hist.probability()
    # the printed decimal 0.18 tracks 3/16 = 0.1875, not 3/36 = 0.083...
    assert decimal_str(Fraction(3, 16)).startswith("0.18")
    assert not decimal_str(Fraction(3, 36)).startswith("0.18")
    assert ERRATA_BY_KEY[TABLE1_KEYS[("F:2", "C:4")]].status == "paper-typo"

    assert main(["table1", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert {r["group"]: r["status"] for r in rows}["C:4"] == "paper-typo"


@pytest.mark.checklist(4, "published table rows reproduced; typo and "
                          "convention rows flagged")
def test_published_table_s3_row_mixes_conventions(capsys):
    assert census("F:2", "S3", "twosided").probability() == Fraction(5, 64)
    assert census("F:2", "S3", "left").probability() == Fraction(29, 256)
    assert decimal_str(Fraction(29, 256)).startswith("0.113")
    assert ERRATA_BY_KEY[TABLE1_KEYS[("F:2", "S3")]].status == "convention-note"

    assert main(["table1", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert {r["group"]: r["status"] for r in rows}["S3"] == "convention-note"


# --- 5: 2x2 matrix ring censuses --------------------------------------

@pytest.mark.checklist(5, "2x2 matrix censuses match both matrix formulas")
def test_matrix_ring_censuses_match_formulas():
    for q in (2, 3, 4, 5):
        K = ring_from_spec(f"F:{q}")
        for side in ("left", "twosided"):
            hist = m2_annihilator_histogram(K, side)
            assert sum(hist.counts) == q**4
            assert hist.probability() == p_matrix2(q, side).value, (q, side)
    assert p_matrix2(2, "left").value == Fraction(29, 128)
    assert p_matrix2(2, "twosided").value == Fraction(5, 32)
    # the literal pair counter agrees with the rank route
    for q in (2, 3):
        K = ring_from_spec(f"F:{q}")
        hist = m2_annihilator_histogram(K, "left")
        assert m2_pair_count_naive(K, "ab=0") == hist.weighted_sum()


# --- 6: Q8 in odd characteristic --------------------------------------

@pytest.mark.checklist(6, "Q8 in odd characteristic matches the quaternion "
                          "decomposition")
def test_quaternion_group_odd_characteristic():
    for q in (3, 5):
        for side in ("left", "twosided"):
            hist = census(f"F:{q}", "Q8", side)
            assert hist.probability() == p_q8_odd(q, side).value, (q, side)
    assert census("F:3", "Q8", "right").counts == census("F:3", "Q8",
                                                         "left").counts
    assert census("F:3", "Q8", "left").probability() == \
        Fraction(86875, 14348907)
    assert census("F:5", "Q8", "twosided").probability() == \
        Fraction(478953, 6103515625)


# --- 7: S3 coprime to 6 -----------------------------------------------

@pytest.mark.checklist(7, "S3 coprime to 6 matches the two-factor "
                          "decomposition")
def test_symmetric_group_coprime_characteristic():
    for q in (5, 7):
        for side in ("left", "twosided"):
            hist = census(f"F:{q}", "S3", side)
            assert hist.probability() == p_s3_coprime6(q, side).value, (q, side)
    assert census("F:5", "S3", "left").probability() == \
        Fraction(76221, 48828125)
    assert census("F:7", "S3", "twosided").probability() == \
        Fraction(24505, 282475249)


# --- 8: the characteristic-2 family -----------------------------------

@pytest.mark.checklist(8, "characteristic-2 S3/Q8 polynomials confirmed "
                          "against the census")
def test_characteristic_two_family_confirmed():
    checks = [
        ("F:2", "S3", "left", "s3_left"),
        ("F:2", "S3", "twosided", "s3_twosided"),
        ("F:4", "S3", "left", "s3_left"),
        ("F:4", "S3", "twosided", "s3_twosided"),
        ("F:2", "Q8", "twosided", "q8_twosided"),
        ("F:4", "Q8", "twosided", "q8_twosided"),
    ]
    for coeff, group, side, target in checks:
        q = ring_from_spec(coeff).size
        hist = census(coeff, group, side)
        assert hist.probability() == p_char2_family(q, target).value, \
            (coeff, group, side)
    assert p_char2_family(2, "s3_twosided").value == Fraction(5, 64)
    assert p_char2_family(2, "s3_left").value == Fraction(29, 256)
    # every polynomial in the family survived, so no erratum records one
    assert not any(k.startswith("char2") for k in ERRATA_BY_KEY)
    # the one-sided Q8 value has no published polynomial; the census is
    # the value of record
    assert census("F:4", "Q8", "left").probability() == Fraction(91, 262144)


# --- 9: the five-cycle case split -------------------------------------

@pytest.mark.checklist(9, "five-cycle case polynomials adjudicated "
                          "(typeset case 4 claim)")
def test_five_cycle_adjudication():
    oracle_values = {}
    for q in (2, 3, 4, 5, 7, 9, 11):
        oracle_values[q] = census(f"F:{q}", "C:5", "left").probability()
        assert p_c5(q, DERIVED).value == oracle_values[q], q
    # case 2 (order of q mod 5 is 4): the typeset polynomial is right
    for q in (2, 3, 7):
        assert p_c5(q, PRINTED).value == oracle_values[q], q
    # case 1 (characteristic 5) and case 3 (order 2): typeset is wrong
    for q in (5, 4, 9):
        assert p_c5(q, PRINTED).value != oracle_values[q], q
    # the named decomposition values
    assert oracle_values[5] == Fraction(1, 625)
    assert oracle_values[4] == Fraction(6727, 1048576)
    assert oracle_values[4] == Fraction(7, 16) * Fraction(2 * 16 - 1, 16**2)**2
    assert oracle_values[11] == Fraction(21**5, 11**10)


@pytest.mark.checklist(9, "five-cycle case polynomials adjudicated "
                          "(typeset case 4 claim)")
def test_five_cycle_case4_typeset_polynomial_disagrees_at_eleven():
    """Encodes the recorded claim that the case-4 typeset polynomial
    disagrees with the census at q = 11.

    The census refutes the claim: the typeset coefficients are wrong as a
    polynomial (q = 16 separates them), but at q = 11 the misplaced
    (q - 1)-power factors collide with the binomials C(5,2) = C(5,3) = 10
    and the two values coincide.  This test fails by design; see the
    c5-case4 erratum for the factorization of the difference.
    """
    value = census("F:11", "C:5", "left").probability()
    assert p_c5(11, PRINTED).value != value


# --- 10: direct sums multiply -----------------------------------------

@pytest.mark.checklist(10, "direct sums multiply zero-pair probabilities")
def test_direct_sum_probability_factorizes():
    pool = [
        (field(2), cyclic(2)), (field(2), cyclic(3)), (field(3), cyclic(2)),
        (field(2), group_from_spec("C2xC2")), (field(2, 2), cyclic(2)),
        (integers_mod(4), cyclic(2)), (field(2), cyclic(4)),
        (field(5), cyclic(2)), (field(3), cyclic(3)),
        (integers_mod(6), cyclic(2)), (field(2), cyclic(5)),
        (field(2), s3()), (field(7), cyclic(2)),
    ]
    rng = random.Random(1815)
    checked = 0
    while checked < 22:
        c1, c2 = rng.choice(pool), rng.choice(pool)
        s1, s2 = ring_size(*c1), ring_size(*c2)
        if s1 * s2 > 1 << 12:
            continue
        n1 = pair_count_naive(*c1)
        n2 = pair_count_naive(*c2)
        total = pair_count_direct_sum([c1, c2], max_pairs=1 << 25)
        assert total == n1 * n2
        assert Fraction(total, (s1 * s2)**2) == \
            Fraction(n1, s1**2) * Fraction(n2, s2**2)
        checked += 1
    # the twosided relation multiplies the same way
    c1, c2 = (field(2), s3()), (field(3), cyclic(2))
    both = pair_count_direct_sum([c1, c2], "ab=0&ba=0", max_pairs=1 << 25)
    assert both == pair_count_naive(*c1, "ab=0&ba=0") * \
        pair_count_naive(*c2, "ab=0&ba=0")


# --- 11: structural invariants ----------------------------------------

@pytest.mark.checklist(11, "structural invariants hold on every census")
def test_structural_invariants_on_census_runs():
    instances = [("F:2", "S3"), ("F:4", "S3"), ("F:2", "Q8"), ("F:3", "C:4"),
                 ("F:5", "C:2"), ("F:2", "C2xC2"), ("F:7", "C:6")]
    for coeff, group in instances:
        K = ring_from_spec(coeff)
        G = group_from_spec(group)
        n = G.order
        left = census(coeff, group, "left")
        right = census(coeff, group, "right")
        two = census(coeff, group, "twosided")
        for hist in (left, right, two):
            assert sum(hist.counts) == K.size**n
            assert hist.counts[-1] == 1
            middle = sum(c * K.size**k
                         for k, c in enumerate(hist.counts) if 0 < k < n)
            assert hist.weighted_sum() == \
                K.size**n + hist.unit_count() + middle
        assert left.counts == right.counts
        if G.is_abelian:
            assert left.counts == two.counts
        if (K.size**n)**2 <= 1 << 20:
            assert left.weighted_sum() == pair_count_naive(K, G, "ab=0")
            assert two.weighted_sum() == pair_count_naive(K, G, "ab=0&ba=0")
        sample = range(K.size**n) if K.size**n <= 128 else \
            random.Random(n).sample(range(K.size**n), 64)
        from nullity.groupring import element_vector
        for e in sample:
            x = element_vector(K, G, e)
            t = annihilator_size(K, G, x, "twosided")
            assert t <= annihilator_size(K, G, x, "left")
            assert t <= annihilator_size(K, G, x, "right")


# --- 12: threshold classification and the gap -------------------------

@pytest.mark.checklist(12, "threshold classification and the claimed "
                           "probability gap")
def test_classification_at_one_quarter():
    report = classify_threshold(default_sweep_instances(1024), Fraction(1, 4))
    assert {(e.coeff, e.group) for e in report.selected} == \
        {("F:2", "C:2"), ("F:3", "C:2"), ("F:2", "C:3")}
    assert not report.skipped


@pytest.mark.checklist(12, "threshold classification and the claimed "
                           "probability gap")
def test_classification_at_one_tenth_contains_table_rows():
    report = classify_threshold(default_sweep_instances(1024), Fraction(1, 10))
    chosen = {(e.coeff, e.group) for e in report.selected}
    in_sweep_rows = {("F:2", "C:2"), ("F:3", "C:2"), ("F:5", "C:2"),
                     ("F:2", "C:3"), ("F:2", "C:4"), ("F:3", "C:3"),
                     ("F:4", "C:2"), ("Z:4", "C:2"), ("Z:6", "C:2"),
                     ("F:2", "S3")}
    assert in_sweep_rows <= chosen


@pytest.mark.checklist(12, "threshold classification and the claimed "
                           "probability gap")
def test_no_catalog_value_inside_claimed_gap():
    """Encodes the recorded claim that no catalog value lies strictly
    inside (1/4, 21/64).

    The census refutes the claim: 25/81 (the two-element group over F:3)
    sits inside.  The interval whose emptiness the data does support is
    (21/64, 1/2); see the corollary-gap erratum.  This test fails by
    design.
    """
    values = [e.p_pair for e in catalog_1024() if e.p_pair is not None]
    assert gap_check(values, Fraction(1, 4), Fraction(21, 64)) == []


@pytest.mark.checklist(12, "threshold classification and the claimed "
                           "probability gap")
def test_supported_gap_reading_holds():
    values = [e.p_pair for e in catalog_1024() if e.p_pair is not None]
    assert gap_check(values, Fraction(21, 64), Fraction(1, 2)) == []
    assert Fraction(21, 64) in values and Fraction(1, 2) in values
    assert gap_check(values, Fraction(1, 4), Fraction(21, 64)) == \
        [Fraction(25, 81)]
