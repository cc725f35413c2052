"""Closed-form probabilities, histogram predictions, catalogs."""

import math
from collections import Counter
from fractions import Fraction

import pytest

import nullity.coeffring
import nullity.oracle
from nullity import formulas
from nullity.coeffring import CoeffRing, field, integers_mod, ring_from_spec
from nullity.formulas import (DERIVED, PRINTED, CHAR2_TARGETS,
                              _histogram_counts, _p_part, _probability,
                              classify_threshold, closed_forms,
                              cyclic_components, cyclic_histogram_counts,
                              default_sweep_instances, gap_check, p_c5,
                              p_char2_family, p_cyclic, p_matrix2,
                              p_q8_odd, p_s3_coprime6, sweep_catalog,
                              unit_count_cyclic)
from nullity.errata import ERRATA_BY_KEY, TABLE1_ROWS
from nullity.groupring import SIDES
from nullity.groups import cyclic, group_from_spec, q8, s3
from nullity.oracle import (_census, _matrix_unit_table,
                            annihilator_histogram, m2_annihilator_histogram)


def test_cyclic_decomposition_structure():
    assert cyclic_components(2, 3) == [(1, 1, 1), (2, 1, 1)]
    assert cyclic_components(7, 6) == [(1, 1, 1)] * 6
    assert cyclic_components(2, 5) == [(1, 1, 1), (4, 1, 1)]
    assert cyclic_components(2, 4) == [(1, 4, 1)]
    assert cyclic_components(2, 6) == [(1, 2, 1), (2, 2, 1)]
    # 187 = 11 * 17: divisor order (1, 11, 17, 187) gives d = 1, 10, 8, 40
    assert cyclic_components(2, 187) == (
        [(1, 1, 1), (8, 1, 1), (8, 1, 1), (10, 1, 1)] + [(40, 1, 1)] * 4)


def test_orbit_sizes_count_fixed_points():
    # x -> q^k x fixes gcd(q^k - 1, m) residues of Z/m, and fixes an orbit
    # of size d pointwise exactly when d divides k
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32):
        for n in range(1, 601):
            L, m = _p_part(q, n)
            sizes = Counter(d for d, _, _ in cyclic_components(q, n))
            for k in range(1, max(sizes) + 1):
                fixed = sum(d * c for d, c in sizes.items() if k % d == 0)
                assert fixed == math.gcd(pow(q, k, m) - 1, m), (q, n, k)


def test_decomposition_dimensions_sum_to_group_order():
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27):
        for n in range(1, 201):
            comps = cyclic_components(q, n)
            assert sum(d * L for d, L, _ in comps) == n
            assert all(d >= 1 and L >= 1 and m == 1 for d, L, m in comps)


def test_single_field_probability():
    # a field is the component (1, 1, 1): (2q-1)/q^2 on every side
    for side in SIDES:
        assert _probability(2, [(1, 1, 1)], side) == Fraction(3, 4)
        assert _probability(7, [(1, 1, 1)], side) == Fraction(13, 49)
        assert _probability(16, [(1, 1, 1)], side) == Fraction(31, 256)
        # F_2 + F_4 multiplies: 3/4 * 7/16
        assert _probability(2, [(1, 1, 1), (2, 1, 1)], side) == Fraction(21, 64)


def test_cyclic_semisimple_values():
    assert p_cyclic(2, 3).value == Fraction(21, 64)
    assert p_cyclic(7, 6).value == Fraction(4826809, 13841287201)
    assert p_cyclic(3, 2).value == Fraction(25, 81)
    assert p_cyclic(2, 3).variant == PRINTED
    assert p_cyclic(2, 3).provenance == "cyclic coprime product, q=2, n=3"


def test_cyclic_chain_values():
    assert p_cyclic(2, 2).value == Fraction(1, 2)
    assert p_cyclic(2, 4).value == Fraction(3, 16)
    assert p_cyclic(3, 3).value == Fraction(1, 9)
    assert p_cyclic(5, 5).value == Fraction(1, 625)
    assert p_cyclic(4, 4).value == Fraction(4 + 4 * 3, 4**5)
    assert p_cyclic(2, 4).variant == DERIVED
    assert p_cyclic(2, 4).provenance == "chain-ring count, q=2, n=4"
    # (q + n(q-1)) / q^(n+1) far past the census cap
    assert p_cyclic(2, 4096).value == Fraction(2 + 4096, 2**4097)
    assert p_cyclic(5, 3125).value == Fraction(5 + 3125 * 4, 5**3126)


def test_chain_histogram_prediction():
    assert cyclic_histogram_counts(2, 4) == [8, 4, 2, 1, 1]
    assert cyclic_histogram_counts(3, 3) == [18, 6, 2, 1]
    census = annihilator_histogram(field(3), cyclic(3))
    assert census.counts == cyclic_histogram_counts(3, 3)
    census = annihilator_histogram(field(2), cyclic(8))
    assert census.counts == cyclic_histogram_counts(2, 8)


def test_semisimple_histogram_prediction():
    assert cyclic_histogram_counts(2, 3) == [3, 3, 1, 1]
    assert cyclic_histogram_counts(2, 5) == [15, 15, 0, 0, 1, 1]
    binom = [math.comb(6, k) * 6 ** (6 - k) for k in range(7)]
    assert cyclic_histogram_counts(7, 6) == binom
    for q, n in ((2, 3), (2, 5), (3, 2), (5, 2), (2, 7)):
        census = annihilator_histogram(field(q), cyclic(n))
        assert census.counts == cyclic_histogram_counts(q, n)


def test_cyclic_histogram_mixed_characteristic():
    # neither coprime nor a power of the characteristic
    for q, n in ((2, 6), (2, 10), (2, 12), (3, 6), (4, 6)):
        census = annihilator_histogram(ring_from_spec(f"F:{q}"), cyclic(n))
        assert census.counts == cyclic_histogram_counts(q, n), (q, n)


def test_unit_counts():
    assert unit_count_cyclic(7, 6) == 46656
    assert unit_count_cyclic(5, 5) == 2500
    assert unit_count_cyclic(2, 3) == 3
    assert unit_count_cyclic(2, 4) == 8
    # mixed characteristic: neither coprime nor a power of the characteristic
    for q, n in ((2, 6), (2, 10), (2, 12), (3, 12), (4, 6), (9, 6)):
        census = annihilator_histogram(ring_from_spec(f"F:{q}"), cyclic(n))
        assert unit_count_cyclic(q, n) == census.counts[0], (q, n)
    with pytest.raises(ValueError):
        unit_count_cyclic(2, 0)
    # census agreement: units are exactly the trivial-annihilator class
    assert annihilator_histogram(field(2), cyclic(3)).unit_count() == 3
    assert annihilator_histogram(field(5), cyclic(5)).unit_count() == 2500


M2 = [(1, 1, 2)]


@pytest.mark.parametrize("q", (2, 3, 4, 5))
def test_engine_matrix_counts_match_m2_census(q):
    for side in SIDES:
        census = m2_annihilator_histogram(ring_from_spec(f"F:{q}"), side)
        assert _histogram_counts(q, M2, side) == census.counts, side


def test_engine_matrix_counts_match_m3_census():
    m3 = [(1, 1, 3)]
    # 168 = |GL_3(F_2)|
    assert _histogram_counts(2, m3, "left") == [168, 0, 0, 294, 0, 0, 49, 0, 0, 1]
    for q in (2, 3):
        for side in SIDES:
            census = _census(field(q), "M3", _matrix_unit_table(3), side,
                             max_elements=q**9, workers=1, sliced=True)
            assert _histogram_counts(q, m3, side) == census.counts, (q, side)


def test_engine_matrix_probability_is_the_printed_polynomial():
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 16, 25):
        for side in SIDES:
            assert _probability(q, M2, side) == p_matrix2(q, side).value, (q, side)


def test_five_cycle_case_values():
    # characteristic 5: typeset and decomposition differ
    assert p_c5(5, DERIVED).value == Fraction(1, 625)
    assert p_c5(5, PRINTED).value == Fraction(66229, 1953125)
    # order-4 case: typeset polynomial is correct
    for q in (2, 3, 7):
        assert p_c5(q, PRINTED).value == p_c5(q, DERIVED).value
    assert p_c5(2, DERIVED).value == Fraction(93, 1024)
    assert p_c5(3, DERIVED).value == Fraction(805, 59049)
    # order-2 case: typeset polynomial is wrong
    assert p_c5(4, PRINTED).value == Fraction(4039, 65536)
    assert p_c5(4, DERIVED).value == Fraction(6727, 1048576)
    assert p_c5(9, PRINTED).value == Fraction(530369, 43046721)
    assert p_c5(9, DERIVED).value == Fraction(440657, 3486784401)
    # q = 1 mod 5: the typeset polynomial is wrong in general but its five
    # misplaced coefficients cancel exactly at q = 11, where q - 1 = 10
    # collides with the binomials C(5,2) = C(5,3) = 10
    assert p_c5(11, PRINTED).value == Fraction(4084101, 25937424601)
    assert p_c5(11, DERIVED).value == Fraction(21**5, 11**10)
    assert p_c5(11, PRINTED).value == p_c5(11, DERIVED).value
    assert p_c5(16, PRINTED).value != p_c5(16, DERIVED).value
    with pytest.raises(ValueError):
        p_c5(2, "guessed")


def test_five_cycle_derived_matches_census():
    for q in (2, 3, 4, 5):
        census = annihilator_histogram(ring_from_spec(f"F:{q}"), cyclic(5))
        assert p_c5(q, DERIVED).value == census.probability()


def test_matrix2_values():
    assert p_matrix2(2, "left").value == Fraction(29, 128)
    assert p_matrix2(2, "right").value == Fraction(29, 128)
    assert p_matrix2(2, "twosided").value == Fraction(5, 32)
    assert p_matrix2(3, "left").value == Fraction(139, 2187)
    assert p_matrix2(3, "twosided").value == Fraction(25, 729)
    assert p_matrix2(5, "left").value == Fraction(941, 78125)
    assert p_matrix2(5, "twosided").value == Fraction(73, 15625)
    with pytest.raises(ValueError, match="side must be one of .* got 'up'"):
        p_matrix2(2, "up")
    with pytest.raises(ValueError):
        p_matrix2(6)


def test_q8_odd_characteristic():
    assert p_q8_odd(3, "left").value == Fraction(86875, 14348907)
    assert p_q8_odd(3, "twosided").value == Fraction(15625, 4782969)
    assert p_q8_odd(5, "left").value == Fraction(6173901, 30517578125)
    assert p_q8_odd(5, "twosided").value == Fraction(478953, 6103515625)
    with pytest.raises(ValueError, match="odd"):
        p_q8_odd(4)


def test_s3_coprime_six():
    assert p_s3_coprime6(5, "left").value == Fraction(76221, 48828125)
    assert p_s3_coprime6(5, "twosided").value == Fraction(5913, 9765625)
    assert p_s3_coprime6(7, "twosided").value == Fraction(24505, 282475249)
    with pytest.raises(ValueError, match="gcd"):
        p_s3_coprime6(3)


def test_characteristic_two_family():
    assert p_char2_family(2, "s3_left").value == Fraction(29, 256)
    assert p_char2_family(2, "s3_twosided").value == Fraction(5, 64)
    assert p_char2_family(2, "q8_twosided").value == Fraction(13, 512)
    assert p_char2_family(4, "s3_left").value == Fraction(2045, 524288)
    assert p_char2_family(4, "s3_twosided").value == Fraction(115, 65536)
    assert p_char2_family(4, "q8_twosided").value == Fraction(55, 262144)
    with pytest.raises(ValueError, match="2"):
        p_char2_family(3, "s3_left")
    with pytest.raises(ValueError, match="target"):
        p_char2_family(2, "s4_left")
    assert set(CHAR2_TARGETS) == {"s3_left", "s3_twosided", "q8_twosided"}


def test_closed_form_dispatch():
    vals = closed_forms(ring_from_spec("F:2"), group_from_spec("C:3"))
    assert [r.value for r in vals] == [Fraction(21, 64)]
    vals = closed_forms(ring_from_spec("F:5"), group_from_spec("C:5"))
    assert {r.variant for r in vals} == {PRINTED, DERIVED}
    vals = closed_forms(ring_from_spec("F:2"), s3(), "twosided")
    assert vals[0].value == Fraction(5, 64)
    vals = closed_forms(ring_from_spec("F:3"), q8(), "left")
    assert vals[0].value == Fraction(86875, 14348907)
    with pytest.raises(ValueError, match="census"):
        closed_forms(integers_mod(4), cyclic(2))
    (mixed,) = closed_forms(ring_from_spec("F:2"), cyclic(6))
    assert (mixed.value, mixed.variant) == (Fraction(5, 64), DERIVED)
    assert mixed.provenance == "cyclic decomposition, q=2, n=6"
    with pytest.raises(ValueError, match="census"):
        closed_forms(ring_from_spec("F:2"), q8(), "left")
    with pytest.raises(ValueError, match="census"):
        closed_forms(ring_from_spec("F:3"), s3(), "left")
    with pytest.raises(ValueError, match="census"):
        closed_forms(ring_from_spec("F:2"), group_from_spec("C2xC2"))
    with pytest.raises(ValueError, match="side"):
        closed_forms(field(2), s3(), "up")
    with pytest.raises(ValueError, match="side"):
        closed_forms(field(2), cyclic(3), "bogus")


CLOSED_FORM_CASES = ([("Q8", f) for f in ("F:3", "F:5", "F:9", "F:25", "F:27", "F:4")]
                     + [("S3", f) for f in ("F:2", "F:4", "F:5", "F:7", "F:25")]
                     + [(f"C:{n}", f) for n in (4, 5, 6, 12) for f in ("F:2", "F:3", "F:4")])


def test_closed_forms_run_no_ring_arithmetic(monkeypatch):
    # closed forms read only q and the group's structure: no ring is built
    # and no ring element is touched
    rings = {f: ring_from_spec(f) for _, f in CLOSED_FORM_CASES}

    def refuse(*args, **kwargs):
        raise AssertionError("a closed form ran ring arithmetic")

    monkeypatch.setattr(nullity.coeffring, "field", refuse)
    for name in ("add", "sub", "mul", "neg", "inv", "pow", "array_ops"):
        monkeypatch.setattr(CoeffRing, name, refuse)
    covered = 0
    for group, coeff in CLOSED_FORM_CASES:
        for side in SIDES:
            try:
                covered += bool(closed_forms(rings[coeff], group_from_spec(group), side))
            except ValueError:
                pass  # no published form; the census covers it
    assert covered == 3 * len(CLOSED_FORM_CASES) - 2  # F:4 Q8 one-sided


def test_printed_results_name_their_errata():
    # one q per five-cycle case: char 5, 2 mod 5, 4 mod 5, 1 mod 5
    for q, key in ((5, "c5-case1"), (2, None), (4, "c5-case3"),
                   (11, "c5-case4")):
        printed, derived = closed_forms(ring_from_spec(f"F:{q}"), cyclic(5))
        assert (printed.variant, printed.erratum) == (PRINTED, key), q
        assert (derived.variant, derived.erratum) == (DERIVED, None), q
    covered = [("F:5", "S3", SIDES), ("F:7", "S3", SIDES),
               ("F:3", "Q8", SIDES), ("F:5", "Q8", SIDES),
               ("F:2", "S3", SIDES), ("F:4", "S3", SIDES),
               ("F:2", "Q8", ("twosided",)), ("F:4", "Q8", ("twosided",)),
               ("F:2", "C:3", ("left",)), ("F:2", "C:4", ("left",)),
               ("F:3", "C:9", ("left",)), ("F:4", "C:7", ("left",))]
    for coeff, group, sides in covered:
        for side in sides:
            results = closed_forms(ring_from_spec(coeff),
                                   group_from_spec(group), side)
            assert results, (coeff, group, side)
            assert all(r.erratum is None for r in results), (coeff, group, side)


def test_named_errata_exist_and_typeset_values_parse():
    keys = set(formulas._C5_ERRATUM.values())
    for coeff, group, typeset, decimal, key in TABLE1_ROWS:
        assert Fraction(typeset) > 0, (coeff, group)
        float(decimal)
        if key is not None:
            keys.add(key)
    assert keys == {"c5-case1", "c5-case3", "c5-case4",
                    "table1-F2C4", "table1-F2S3"}
    assert keys <= set(ERRATA_BY_KEY)


def test_default_sweep_contents():
    instances = default_sweep_instances(1024)
    assert ("F:2", "C:2") in instances
    assert ("F:2", "C:10") in instances  # 2^10 = 1024
    assert ("F:31", "C:2") in instances
    assert ("F:6", "C:2") not in instances
    assert ("Z:4", "C:2") in instances
    assert ("F:2", "S3") in instances and ("F:2", "Q8") in instances
    assert len(instances) == 42
    small = default_sweep_instances(64)
    assert ("F:2", "C:6") in small and ("F:2", "C:7") not in small


def test_classify_threshold_quarter():
    report = classify_threshold(default_sweep_instances(1024), Fraction(1, 4))
    chosen = {(e.coeff, e.group) for e in report.selected}
    assert chosen == {("F:2", "C:2"), ("F:2", "C:3"), ("F:3", "C:2")}
    assert not report.skipped
    s3_entry = next(e for e in report.entries if e.group == "S3")
    assert s3_entry.p_pair == Fraction(29, 256)
    assert s3_entry.p_twosided == Fraction(5, 64)


def test_classify_skips_are_reported_not_dropped():
    report = classify_threshold([("F:2", "C:2"), ("F:2", "C:30")],
                                Fraction(1, 4), max_elements=1 << 10)
    assert len(report.entries) == 2
    skipped = report.skipped
    assert len(skipped) == 1
    assert skipped[0].group == "C:30"
    assert "cap" in skipped[0].skipped or "exceeds" in skipped[0].skipped


def test_sweep_reuses_pair_value_for_abelian_groups(monkeypatch):
    calls = []
    census = nullity.oracle.nullity_probability

    def counted(K, G, side="left", **kw):
        calls.append((G.spec, side))
        return census(K, G, side, **kw)

    monkeypatch.setattr(nullity.oracle, "nullity_probability", counted)
    c4, s3_entry = sweep_catalog([("F:3", "C:4"), ("F:2", "S3")])
    assert calls == [("C:4", "left"), ("S3", "left"), ("S3", "twosided")]
    assert c4.p_twosided == c4.p_pair
    assert (s3_entry.p_pair, s3_entry.p_twosided) == (Fraction(29, 256),
                                                      Fraction(5, 64))


def test_gap_check_intervals():
    values = [e.p_pair for e in sweep_catalog(default_sweep_instances(1024))]
    inside = gap_check(values, Fraction(1, 4), Fraction(21, 64))
    assert inside == [Fraction(25, 81)]
    assert gap_check(values, Fraction(21, 64), Fraction(1, 2)) == []
    assert gap_check([Fraction(1, 3)], 0, 1) == [Fraction(1, 3)]
