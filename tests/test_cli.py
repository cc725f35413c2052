"""End-to-end command tests driving main() with in-process argv."""

import json
from dataclasses import replace
from fractions import Fraction

import pytest

from nullity import formulas
from nullity.cli import build_parser, decimal_str, main, show
from nullity.groups import group_from_spec


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decimal_display_helper():
    assert decimal_str(Fraction(1, 2)) == "0.5"
    assert decimal_str(Fraction(1, 3)) == "0.333333"
    assert decimal_str(Fraction(2, 1)) == "2"
    assert decimal_str(Fraction(-7, 4)) == "-1.75"
    assert decimal_str(Fraction(1, 10**9)) == "0"
    assert decimal_str(Fraction(25, 81), places=3) == "0.309"
    assert show(Fraction(3, 16)) == "3/16 (~0.1875)"


def test_oracle_text_record(capsys):
    code, out, err = run(capsys, "oracle", "--coeff", "F:2", "--group", "C:4",
                         "--side", "twosided", "--no-timing")
    assert code == 0 and not err
    assert out == ('rec(Size := [ 8, 4, 2, 1, 1 ],\n'
                   '    |ann|:=[ 1, 2, 4, 8, 16 ], group := "C:4", '
                   'p := 3/16)\n')


def test_oracle_json_timing_toggle(capsys):
    code, out, _ = run(capsys, "oracle", "--coeff", "F:2", "--group", "S3",
                       "--format", "json")
    assert code == 0
    rec = json.loads(out)
    assert rec["probability"] == {"num": 29, "den": 256}
    assert "elapsed_ms" in rec and rec["elapsed_ms"] >= 0

    code, out1, _ = run(capsys, "oracle", "--coeff", "F:2", "--group", "S3",
                        "--format", "json", "--no-timing", "--workers", "1")
    code2, out2, _ = run(capsys, "oracle", "--coeff", "F:2", "--group", "S3",
                         "--format", "json", "--no-timing", "--workers", "5")
    assert code == 0 and code2 == 0
    assert out1 == out2
    assert "elapsed_ms" not in out1


def test_oracle_mod_coefficients(capsys):
    code, out, _ = run(capsys, "oracle", "--coeff", "Z:4", "--group", "C:2",
                       "--no-timing")
    assert code == 0
    assert out == 'rec(group := "C:2", coeff := "Z:4", p := 7/32)\n'


def test_oracle_mod_coefficients_past_one_block(capsys):
    # Z:n has no census: 4096 elements, 2**24 pairs in 64 row blocks of
    # the literal counter, end to end
    code, out, err = run(capsys, "oracle", "--coeff", "Z:4", "--group", "C:6",
                         "--side", "twosided", "--max-pairs", "16777216", "--no-timing")
    assert code == 0 and not err
    assert out == 'rec(group := "C:6", coeff := "Z:4", p := 175/32768)\n'


def test_oracle_group_table_file(capsys, tmp_path):
    path = tmp_path / "klein.json"
    path.write_text(json.dumps(group_from_spec("C2xC2").table.tolist()))
    code, out, _ = run(capsys, "oracle", "--coeff", "F:2",
                       "--group", f"@{path}", "--no-timing")
    assert code == 0
    assert 'group := "@klein"' in out
    assert "p := 7/32" in out


def test_formula_variants(capsys):
    code, out, _ = run(capsys, "formula", "--coeff", "F:5", "--group", "C:5")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert "66229/1953125" in lines[0] and "printed" in lines[0]
    assert "1/625" in lines[1] and "derived" in lines[1]

    code, out, _ = run(capsys, "formula", "--coeff", "F:5", "--group", "C:5",
                       "--variant", "derived", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data == [{"value": {"num": 1, "den": 625}, "variant": "derived",
                     "provenance": data[0]["provenance"]}]


def test_formula_without_coverage_fails(capsys):
    code, out, err = run(capsys, "formula", "--coeff", "F:2", "--group", "Q8",
                         "--side", "left")
    assert code == 1
    assert err.startswith("error:")
    assert "census" in err


def test_compare_expected_mismatch_is_success(capsys):
    code, out, _ = run(capsys, "compare", "--coeff", "F:5", "--group", "C:5")
    assert code == 0
    assert "MISMATCH" in out
    assert "expected: c5-case1" in out
    assert "oracle = 1/625" in out

    code, out, _ = run(capsys, "compare", "--coeff", "F:2", "--group", "C:3")
    assert code == 0
    assert "MISMATCH" not in out


def test_compare_mixed_characteristic_cyclic(capsys):
    # F_2[C_6]: neither coprime nor a power of the characteristic
    code, out, err = run(capsys, "compare", "--coeff", "F:2", "--group", "C:6")
    assert (code, err) == (0, "")
    assert out == ("F:2 C:6 side=left   oracle = 5/64 (~0.078125)\n"
                   "  derived  5/64 (~0.078125)" + " " * 25 + "match\n")

    code, out, _ = run(capsys, "formula", "--coeff", "F:2", "--group", "C:6")
    assert code == 0
    assert out == ("P_left = 5/64 (~0.078125)  "
                   "[derived: cyclic decomposition, q=2, n=6]\n")


def test_compare_json_fields(capsys):
    code, out, _ = run(capsys, "compare", "--coeff", "F:4", "--group", "C:5",
                       "--format", "json")
    assert code == 0
    rows = json.loads(out)
    by_variant = {r["variant"]: r for r in rows}
    assert by_variant["printed"]["match"] is False
    assert "c5-case3" in by_variant["printed"]["note"]
    assert by_variant["derived"]["match"] is True
    assert by_variant["derived"]["oracle"] == {"num": 6727, "den": 1048576}


def test_compare_unattributed_cyclic_mismatch_fails(capsys, monkeypatch):
    # only the closed form that printed a value may name its erratum: a
    # wrong C_3 value must not borrow the C_5 erratum of q's residue class
    real = formulas.p_cyclic

    def off_by_a_hair(q, n):
        r = real(q, n)
        return replace(r, value=r.value + Fraction(1, 10**9))

    monkeypatch.setattr(formulas, "p_cyclic", off_by_a_hair)
    code, out, _ = run(capsys, "compare", "--coeff", "F:4", "--group", "C:3")
    assert code == 1
    assert "MISMATCH  [UNEXPECTED]" in out
    assert "expected" not in out


# the whole `nullity table1` text report, byte for byte
TABLE1_TEXT = """\
 # ring               printed          computed                           status
 1 F:2 C:2            1/2 (0.5)        1/2 (~0.5)                         match
 2 F:3 C:2            25/81 (0.308)    25/81 (~0.308642)                  match
 3 F:5 C:2            81/625 (0.129)   81/625 (~0.1296)                   match
 4 F:2 C:3            21/64 (0.328)    21/64 (~0.328125)                  match
 5 F:2 C:4            3/36 (0.18)      3/16 (~0.1875)                     paper-typo
 6 F:3 C:3            1/9 (0.111)      1/9 (~0.111111)                    match
 7 F:4 C:2            5/32 (0.156)     5/32 (~0.15625)                    match
 8 F:2 C2xC2          7/32 (0.218)     7/32 (~0.21875)                    match
 9 Z:4 C:2            7/32 (0.218)     7/32 (~0.21875)                    match
10 Z:6 C:2            25/162 (0.154)   25/162 (~0.154321)                 match
""" + (
    "11 F:2 S3             5/64 (0.113)     pair 29/256 (~0.113281),"
    " twosided 5/64 (~0.078125) convention-note\n"
    "   [table1-F2C4] Denominator misprint: the census gives 3/16, and"
    " the printed decimal 0.18 rounds 3/16, not 3/36 = 0.083.\n"
    "   [table1-F2S3] The fraction is the twosided value Pr[ab=0 and"
    " ba=0] while the decimal (and the table's >= 0.1 cutoff) follow the"
    " pair value Pr[ab=0]; the two conventions disagree for nonabelian"
    " groups.\n"
)


def test_table1_text_layout_is_pinned(capsys):
    code, out, err = run(capsys, "table1")
    assert code == 0 and not err
    assert out == TABLE1_TEXT


def test_table1_report(capsys):
    code, out, _ = run(capsys, "table1")
    assert code == 0
    assert "3/36" in out and "paper-typo" in out
    assert "convention-note" in out
    assert "5/64" in out and "29/256" in out

    code, out, _ = run(capsys, "table1", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 11
    statuses = {(r["coeff"], r["group"]): r["status"] for r in rows}
    assert statuses[("F:2", "C:4")] == "paper-typo"
    assert statuses[("F:2", "S3")] == "convention-note"
    assert all(v == "match" for k, v in statuses.items()
               if k not in (("F:2", "C:4"), ("F:2", "S3")))
    klein = next(r for r in rows if r["group"] == "C2xC2")
    assert klein["pair"] == {"num": 7, "den": 32}
    values = {(r["coeff"], r["group"]): (Fraction(r["pair"]["num"], r["pair"]["den"]),
                                         Fraction(r["twosided"]["num"],
                                                  r["twosided"]["den"]))
              for r in rows}
    assert values == {
        ("F:2", "C:2"): (Fraction(1, 2),) * 2,
        ("F:3", "C:2"): (Fraction(25, 81),) * 2,
        ("F:5", "C:2"): (Fraction(81, 625),) * 2,
        ("F:2", "C:3"): (Fraction(21, 64),) * 2,
        ("F:2", "C:4"): (Fraction(3, 16),) * 2,
        ("F:3", "C:3"): (Fraction(1, 9),) * 2,
        ("F:4", "C:2"): (Fraction(5, 32),) * 2,
        ("F:2", "C2xC2"): (Fraction(7, 32),) * 2,
        ("Z:4", "C:2"): (Fraction(7, 32),) * 2,
        ("Z:6", "C:2"): (Fraction(25, 162),) * 2,
        ("F:2", "S3"): (Fraction(29, 256), Fraction(5, 64)),
    }


def test_catalog_classification(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    assert "selected (pair P >= 1/4): F:2 C:2, F:2 C:3, F:3 C:2" in out
    assert "endpoint swap (1/4, 21/64) refuted: 25/81" in out
    assert "no catalog value inside" in out

    code, out, _ = run(capsys, "catalog", "--format", "json", "--threshold",
                       "1/10")
    assert code == 0
    data = json.loads(out)
    assert len(data["entries"]) == 42
    selected = [(e["coeff"], e["group"]) for e in data["entries"]
                if e["selected"]]
    assert ("F:2", "S3") in selected  # pair convention: 29/256 >= 1/10
    assert data["gap"]["swap_counterexamples"] == ["25/81"]
    assert data["gap"]["supported_interval_clear"] is True


def test_catalog_worker_independence(capsys):
    code, out1, _ = run(capsys, "catalog", "--format", "json", "--bound", "64",
                        "--workers", "1")
    code2, out2, _ = run(capsys, "catalog", "--format", "json", "--bound", "64",
                         "--workers", "4")
    assert code == 0 and code2 == 0
    assert out1 == out2


def test_bad_inputs_exit_nonzero(capsys):
    code, _, err = run(capsys, "oracle", "--coeff", "F:6", "--group", "C:2")
    assert code == 1 and "prime power" in err

    code, _, err = run(capsys, "oracle", "--coeff", "F:2", "--group", "C:0")
    assert code == 1 and err.startswith("error:")

    code, _, err = run(capsys, "compare", "--coeff", "Z:4", "--group", "C:2")
    assert code == 1 and "census" in err

    code, _, err = run(capsys, "oracle", "--coeff", "F:2", "--group", "C:10",
                       "--max-elements", "1000")
    assert code == 1 and "1024" in err

    code, _, err = run(capsys, "catalog", "--threshold", "1/0")
    assert code == 1 and err.startswith("error:") and "1/0" in err

    code, _, err = run(capsys, "formula", "--coeff", "F:2", "--group", "C:4097")
    assert code == 1 and "group order 4097" in err


def test_bad_workers_and_group_files_rejected(capsys, tmp_path):
    for workers in ("0", "-5"):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--coeff", "F:2", "--group", "S3",
                  "--workers", workers])
        assert exc.value.code == 2
        assert f"got {workers}" in capsys.readouterr().err

    path = tmp_path / "bools.json"
    path.write_text("[[false, true], [true, false]]")
    code, _, err = run(capsys, "oracle", "--coeff", "F:2", "--group", f"@{path}")
    assert code == 1 and "[0][0] = False is not an integer" in err


def test_default_workers_follow_cpu_affinity(monkeypatch):
    # a process pinned to 3 of 64 CPUs runs 3 census threads by default;
    # without an affinity call the CPU count is the default, and 1 when
    # that is unknown
    commands = [["oracle", "--coeff", "F:2", "--group", "S3"],
                ["compare", "--coeff", "F:2", "--group", "S3"],
                ["catalog"], ["table1"]]
    monkeypatch.setattr("os.cpu_count", lambda: 64)
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 5, 9}, raising=False)
    assert [build_parser().parse_args(c).workers for c in commands] == [3] * 4
    assert build_parser().parse_args(commands[0] + ["--workers", "7"]).workers == 7
    monkeypatch.delattr("os.sched_getaffinity", raising=False)
    assert [build_parser().parse_args(c).workers for c in commands] == [64] * 4
    monkeypatch.setattr("os.cpu_count", lambda: None)
    assert [build_parser().parse_args(c).workers for c in commands] == [1] * 4


def test_argparse_rejects_unknown_subcommand():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
    with pytest.raises(SystemExit):
        main([])


def test_ragged_group_file_names_the_short_row(capsys, tmp_path):
    path = tmp_path / "ragged.json"
    path.write_text("[[0, 1], [1]]")
    code, _, err = run(capsys, "oracle", "--coeff", "F:2", "--group", f"@{path}")
    assert code == 1
    assert "bad group table: row 1 has 1 entries, expected 2" in err
