import dataclasses
import itertools
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import mp

from zetaident import cli, derive_identity, eval_identity, evalzeta
from zetaident.cli import main, parse_complex_literal, parse_p_range, parse_rational


def F(n, d=1):
    return Fraction(n, d)


# ---- argument parsing ----


def test_parse_complex_literal_forms():
    assert parse_complex_literal("2") == (F(2), F(0))
    assert parse_complex_literal("-2.5") == (F(-5, 2), F(0))
    assert parse_complex_literal("0.5+14.134725i") == (F(1, 2), F(14134725, 10**6))
    assert parse_complex_literal("1-2i") == (F(1), F(-2))
    assert parse_complex_literal(" 3.25+0.5i ") == (F(13, 4), F(1, 2))


def test_parse_complex_literal_rejects_garbage():
    for bad in ("", "i", "2i", "1+i", "1 + 2i", "abc", "1+2j"):
        with pytest.raises(ValueError):
            parse_complex_literal(bad)


def test_parse_p_range():
    assert parse_p_range("3") == [3]
    assert parse_p_range("1..4") == [1, 2, 3, 4]
    with pytest.raises(ValueError):
        parse_p_range("0")
    with pytest.raises(ValueError):
        parse_p_range("5..2")


def test_parse_rational():
    assert parse_rational("0.25") == F(1, 4)
    assert parse_rational("-1/3") == F(-1, 3)
    # a zero denominator is a usage error, not a ZeroDivisionError
    with pytest.raises(ValueError, match="'1/0' has a zero denominator"):
        parse_rational(" 1/0")


# ---- derive ----


def test_derive_prints_polynomials(capsys):
    assert main(["derive", "--p", "3"]) == 0
    out = capsys.readouterr().out
    assert "Q_3(s) = 1/2 + 1/12*s" in out
    assert "extends to Re s > -3" in out


def test_derive_writes_identity_file(tmp_path, capsys):
    path = tmp_path / "identities.json"
    assert main(["derive", "--p", "1..12", "--kmax", "64", "--out", str(path)]) == 0
    records = json.loads(path.read_text())
    assert len(records) == 12
    assert [r["p"] for r in records] == list(range(1, 13))
    assert records[2]["k0"] == 4


def test_derive_prints_closed_form_at_small_kmax(capsys):
    assert main(["derive", "--p", "9", "--kmax", "20"]) == 0
    assert "  r_k = " in capsys.readouterr().out


def test_derive_rejects_bad_depth(capsys):
    assert main(["derive", "--p", "0"]) == 2
    assert main(["derive", "--p", "3", "--kmax", "4"]) == 2
    assert main(["derive", "--p", ""]) == 2


def test_derive_unwritable_output(tmp_path):
    path = tmp_path / "missing" / "identities.json"
    assert main(["derive", "--p", "2", "--out", str(path)]) == 3


def test_closed_stdout_exits_quietly():
    # a reader that takes one line and closes the pipe, as `| head -1` does,
    # while derive still has 110 kB to write
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    with subprocess.Popen(
        [sys.executable, "-m", "zetaident", "derive", "--p", "127", "--kmax", "129"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    ) as proc:
        assert proc.stdout.readline().startswith(b"p=127: k0=128")
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
    assert err == b""


# ---- verify ----


def test_verify_named_checks(capsys):
    assert main(["verify", "--only", "coefficients", "--only", "pairing"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 2


def test_oracle_check_counts_every_depth_it_compares(capsys):
    # twins share one evaluation, but the check still compares, and
    # counts, every depth that accepts each grid point
    assert main(["verify", "--only", "oracle", "--digits", "15"]) == 0
    assert capsys.readouterr().out.startswith("PASS  oracle: 221 (s, p) evaluations match")


def test_verify_derives_each_depth_once(monkeypatch, capsys):
    derived = []

    def counting(p, k_max=64):
        derived.append(p)
        return derive_identity(p, k_max)

    monkeypatch.setattr(cli, "derive_identity", counting)
    names = ["coefficients", "pairing", "zetaprime0", "zeta0"]
    assert main(["verify"] + [arg for name in names for arg in ("--only", name)]) == 0
    assert capsys.readouterr().out.count("PASS") == 4
    assert sorted(derived) == list(range(1, 13))


def test_verify_from_file_derives_nothing(tmp_path, monkeypatch, capsys):
    path = tmp_path / "identities.json"
    main(["derive", "--p", "1..12", "--out", str(path)])
    monkeypatch.setattr(cli, "derive_identity", None)  # any call would raise
    assert main(["verify", "--in", str(path)]) == 0
    assert "PASS  coefficients" in capsys.readouterr().out


def test_verify_file_round_trip(tmp_path, capsys):
    path = tmp_path / "identities.json"
    main(["derive", "--p", "1..12", "--out", str(path)])
    capsys.readouterr()
    assert main(["verify", "--in", str(path)]) == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_corrupted_file_names_first_mismatch(tmp_path, capsys):
    path = tmp_path / "identities.json"
    main(["derive", "--p", "1..12", "--out", str(path)])
    records = json.loads(path.read_text())
    records[4]["terms"][11]["r"] = "7/6"  # p=5, k=17
    path.write_text(json.dumps(records))
    capsys.readouterr()
    # the stored term disagrees with the record's closed form: a malformed file
    assert main(["verify", "--in", str(path)]) == 2
    err = capsys.readouterr().err
    assert "depth-5" in err and "r_17 = " in err and "not the stored 7/6" in err


def test_verify_rejects_wrong_closed_form(tmp_path, capsys):
    path = tmp_path / "identities.json"
    main(["derive", "--p", "1..12", "--kmax", "20", "--out", str(path)])
    records = json.loads(path.read_text())
    records[1]["closed_form"]["k_poly"] = ["7/1"]  # p=2; stored terms intact
    path.write_text(json.dumps(records))
    capsys.readouterr()
    # every record's closed form is checked against its terms on read
    assert main(["verify", "--in", str(path)]) == 2
    err = capsys.readouterr().err
    assert "depth-2" in err and "closed_form" in err and "r_2 = 7" in err


@pytest.mark.parametrize("field, value", [("q_poly", "1"), ("q_poly", "0"), ("k_poly", "-1")])
def test_verify_rejects_a_polynomial_field_that_is_no_list(tmp_path, capsys, field, value):
    # read one character at a time, "1" would pass as Q = 1, "0" FAIL the
    # coefficients and "-1" fail to parse "-": each is a malformed record
    path = tmp_path / "identities.json"
    main(["derive", "--p", "1", "--out", str(path)])
    records = json.loads(path.read_text())
    (records[0]["closed_form"] if field == "k_poly" else records[0])[field] = value
    path.write_text(json.dumps(records))
    capsys.readouterr()
    assert main(["verify", "--in", str(path)]) == 2
    captured = capsys.readouterr()
    assert "PASS" not in captured.out and "FAIL" not in captured.out
    assert captured.err.startswith(f"error: malformed identity record: {field} must be a list")


def test_verify_rejects_wrong_extended_validity(tmp_path, capsys):
    path = tmp_path / "identities.json"
    main(["derive", "--p", "1..12", "--out", str(path)])
    records = json.loads(path.read_text())
    records[1]["extended_validity_re_gt"] = "-5/1"  # p=2, which has no extension
    path.write_text(json.dumps(records))
    capsys.readouterr()
    # refused when the file is read, whichever checks run
    for only in ([], ["--only", "coefficients"], ["--only", "zeta0"], ["--only", "pairing"]):
        assert main(["verify", "--in", str(path), *only]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: depth-2 record states extended_validity_re_gt = -5, not the derived None\n"
        )


@pytest.mark.parametrize(
    "depth, field, value, message",
    [
        (2, "validity_re_gt", "5/1", "depth-2 record states validity_re_gt = 5, not the derived -1"),
        (3, "extended_validity_re_gt", "-100/1", "depth-3 record states extended_validity_re_gt = -100, not the derived -3"),
        (3, "p", 3.9, "malformed identity record: p must be an integer, not 3.9"),
        (4, "k0", 4.5, "malformed identity record: k0 must be an integer, not 4.5"),
    ],
)
@pytest.mark.parametrize("only", [[], ["--only", "zeta0"], ["--only", "pairing"]])
def test_verify_refuses_a_wrong_stated_fact_whichever_check_runs(tmp_path, capsys, depth, field, value, message, only):
    # each record is checked once, when the file is read: before, a wrong
    # validity bound exited 1 under coefficients, 2 under zeta0 (which then
    # saw s = 0 outside it) or 0, and a depth of 3.9 was read as 3
    path = tmp_path / "identities.json"
    main(["derive", "--p", "1..12", "--out", str(path)])
    records = json.loads(path.read_text())
    records[depth - 1][field] = value
    path.write_text(json.dumps(records))
    capsys.readouterr()
    assert main(["verify", "--in", str(path), *only]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_verify_reads_a_term_index_as_an_integer(tmp_path, capsys):
    path = tmp_path / "identities.json"
    main(["derive", "--p", "1..4", "--out", str(path)])
    records = json.loads(path.read_text())
    records[2]["terms"][0]["k"] = 4.2
    path.write_text(json.dumps(records))
    capsys.readouterr()
    assert main(["verify", "--in", str(path)]) == 2
    assert capsys.readouterr().err == "error: malformed identity record: k must be an integer, not 4.2\n"


@pytest.mark.parametrize("only", [[], ["--only", "zeta0"], ["--only", "pairing"]])
def test_verify_refuses_a_depth_held_twice(tmp_path, capsys, only):
    # a false depth-4 record (Q's constant 7/6) before the true one: keeping
    # the last of each depth, zeta0 and pairing passed it
    path = tmp_path / "identities.json"
    main(["derive", "--p", "1..12", "--out", str(path)])
    records = json.loads(path.read_text())
    false = json.loads(json.dumps(records[3]))
    false["q_poly"][0] = "7/6"
    path.write_text(json.dumps([false, *records]))
    capsys.readouterr()
    assert main(["verify", "--in", str(path), *only]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {path} holds depth 4 twice\n")
    # the same record twice is refused too
    path.write_text(json.dumps([*records, records[3]]))
    assert main(["verify", "--in", str(path), *only]) == 2
    assert capsys.readouterr().err == f"error: {path} holds depth 4 twice\n"


def test_verify_reads_null_closed_forms(tmp_path, capsys):
    path = tmp_path / "identities.json"
    main(["derive", "--p", "1..12", "--out", str(path)])
    records = json.loads(path.read_text())
    for record in records:
        record["closed_form"] = None
    path.write_text(json.dumps(records))
    capsys.readouterr()
    assert main(["verify", "--in", str(path)]) == 0
    # one wrong term: series_poly(p) no longer reproduces the record
    records[1]["terms"][3]["r"] = "1/7"  # p=2, k=5
    path.write_text(json.dumps(records))
    capsys.readouterr()
    assert main(["verify", "--in", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: depth-2 record has a null closed_form")
    assert "r_5 = " in err and "not the stored 1/7" in err


def test_verify_missing_file():
    assert main(["verify", "--in", "/nonexistent/identities.json"]) == 3


def test_any_check_reads_a_missing_file():
    assert main(["verify", "--in", "/nonexistent/identities.json", "--only", "pairing"]) == 3


def test_every_check_reads_the_file(tmp_path, monkeypatch, capsys):
    path = tmp_path / "identities.json"
    main(["derive", "--p", "1..12", "--out", str(path)])
    monkeypatch.setattr(cli, "derive_identity", None)  # any call would raise
    assert main(["verify", "--in", str(path), "--only", "pairing", "--only", "zeta0"]) == 0
    records = json.loads(path.read_text())
    # p=4's Q, which no stored term checks, so the file still loads: no
    # longer the twin of p=3
    records[3]["q_poly"][0] = "7/6"
    path.write_text(json.dumps(records))
    capsys.readouterr()
    assert main(["verify", "--in", str(path), "--only", "pairing"]) == 1
    assert capsys.readouterr().out == "FAIL  pairing: depths 3 and 4 differ\n"


def test_a_record_that_is_no_identity_exits_two(tmp_path, capsys):
    # the same altered depth-4 record loads, but it is not Euler-Maclaurin
    # at n = 1: zeta0 refuses to evaluate it, a domain error naming the
    # depth, while pairing, which evaluates nothing, still FAILs
    path = tmp_path / "identities.json"
    main(["derive", "--p", "1..12", "--out", str(path)])
    records = json.loads(path.read_text())
    records[3]["q_poly"][0] = "7/6"
    path.write_text(json.dumps(records))
    capsys.readouterr()
    assert main(["verify", "--in", str(path), "--only", "zeta0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: depth-4 identity is not Euler-Maclaurin at n = 1")
    assert main(["verify", "--in", str(path), "--only", "pairing"]) == 1


@pytest.mark.parametrize("field", ["pole_coefficient", "terms", "q_poly"])
def test_a_zero_denominator_in_a_record_exits_two(tmp_path, capsys, field):
    path = tmp_path / "identities.json"
    main(["derive", "--p", "1..4", "--out", str(path)])
    records = json.loads(path.read_text())
    if field == "terms":
        records[2]["terms"][0]["r"] = "1/0"
    elif field == "q_poly":
        records[2]["q_poly"][0] = "1/0"
    else:
        records[2][field] = "1/0"
    path.write_text(json.dumps(records))
    capsys.readouterr()
    assert main(["verify", "--in", str(path)]) == 2
    assert capsys.readouterr().err == "error: rational '1/0' has a zero denominator\n"


def test_pairing_reads_records_of_different_k_max(tmp_path, capsys):
    # the odd depths listed through k = 64, the even ones through k = 14:
    # each pair is still one identity
    full, short = tmp_path / "full.json", tmp_path / "short.json"
    main(["derive", "--p", "1..12", "--out", str(full)])
    main(["derive", "--p", "1..12", "--kmax", "14", "--out", str(short)])
    odd = [r for r in json.loads(full.read_text()) if r["p"] % 2]
    even = [r for r in json.loads(short.read_text()) if not r["p"] % 2]
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(odd + even))
    capsys.readouterr()
    assert main(["verify", "--in", str(path), "--only", "pairing"]) == 0
    assert capsys.readouterr().out.startswith("PASS  pairing")


def test_file_must_hold_the_depths_a_check_reads(tmp_path, capsys):
    path = tmp_path / "identities.json"
    main(["derive", "--p", "1..3", "--out", str(path)])
    capsys.readouterr()
    assert main(["verify", "--in", str(path), "--only", "zetaprime0"]) == 0
    assert main(["verify", "--in", str(path), "--only", "pairing"]) == 2
    captured = capsys.readouterr()
    assert "PASS  zetaprime0" in captured.out and "pairing" not in captured.out
    assert "no depth-4 identity" in captured.err


def test_verify_unparseable_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    assert main(["verify", "--in", str(path)]) == 3


# ---- eval ----


def test_eval_prints_value(capsys):
    assert main(["eval", "--p", "5", "--s", "2", "--digits", "30"]) == 0
    out = capsys.readouterr().out
    assert "1.6449340668482264364724151666" in out
    assert "terms used" in out


def test_eval_picks_depth(capsys):
    assert main(["eval", "--s", "-6.25", "--digits", "20"]) == 0
    out = capsys.readouterr().out
    assert "p = 8" in out


def test_eval_complex(capsys):
    assert main(["eval", "--p", "3", "--s", "0.5+14.134725i", "--digits", "20"]) == 0
    out = capsys.readouterr().out
    assert "j" in out or "e-" in out  # tiny complex value near a zero


def test_eval_beyond_stored_terms(capsys):
    # 30 digits at s = -8.5 need r_k far beyond k = 20: the closed form
    # supplies them
    argv = ["eval", "--p", "10", "--s", "-8.5", "--digits", "30"]
    assert main(argv) == 0
    report = eval_identity(derive_identity(10, 20), -8.5, 30)
    assert report.terms_used > 20
    with mp.workdps(60):
        target = mp.zeta(-8.5)
        assert abs(report.value - target) <= report.error_estimate
        assert mp.nstr(target, 30) in capsys.readouterr().out


def test_depth_beyond_the_default_kmax(capsys):
    # --p 128 needs k_max >= 130; eval derives at p + 2, the least k_max
    # allowed, as r_k comes from the closed form at every k
    assert main(["eval", "--s", "-126.25", "--p", "128", "--digits", "30"]) == 0
    estimate = float(capsys.readouterr().out.rsplit("error estimate <= ", 1)[1])
    assert estimate <= 1e-30
    assert main(["special", "--check", "zetaprime0", "--p", "70", "--digits", "20"]) == 0
    # derive lists the terms asked for, and keeps its rule k_max >= p + 2
    assert main(["derive", "--p", "128"]) == 2


def test_eval_domain_errors(capsys):
    assert main(["eval", "--p", "3", "--s", "-5"]) == 2
    assert main(["eval", "--s", "1"]) == 2
    assert main(["eval", "--s", "-30"]) == 2
    # no depth up to 12 supports -30: depth 12 refuses it, naming its domain
    assert "Re s >= -21/2" in capsys.readouterr().err
    assert main(["eval", "--p", "1..3", "--s", "2"]) == 2
    assert main(["eval", "--p", "3", "--s", "nonsense"]) == 2
    assert main(["eval", "--s", ""]) == 2


def test_eval_out_of_range_s_exits_two(capsys):
    # the float pre-scan cannot hold 1e400; the CLI says so and exits 2
    assert main(["eval", "--s", "1e400", "--digits", "20"]) == 2
    assert "float range" in capsys.readouterr().err
    assert main(["eval", "--p", "1", "--s", "2+1e400i"]) == 2


def test_eval_huge_real_part_exits_two(capsys):
    # the tail majorant would hold the series on for millions of bits at
    # Re s = 10^8: past its limit the evaluator raises before any power, so
    # the CLI exits 2 at once with the limit named
    for argv in (["eval", "--s", "1e308"], ["eval", "--s", "1e8", "--digits", "20"]):
        start = time.process_time()
        assert main(argv) == 2
        assert time.process_time() - start < 1
        assert "past the limit of 2^16 bits" in capsys.readouterr().err


def test_verify_reads_each_point_once(monkeypatch, capsys):
    # _exact_point is the one reading of a point. The oracle check reads each
    # of the 25 grid points for the oracle and once more for both the
    # supporting depths and their batch; trivial_zeros reads each zero once
    # (-2 .. -10, and -12, which no depth supports); zeta0 and zeta2 read one
    # point each: 58 reads, where reading for the depths and for the batch
    # apart made 88
    calls = []
    original = evalzeta._exact_point

    def counted(s):
        calls.append(s)
        return original(s)

    monkeypatch.setattr(evalzeta, "_exact_point", counted)
    monkeypatch.setattr(cli, "_exact_point", counted)
    assert main(["verify"]) == 0
    assert len(calls) == 58


def test_eval_missed_target_exits_two(capsys):
    # the Euler-Maclaurin budget of depth 256 at s = -254.5 is far more than
    # N = 64 reaches at 30 digits: the bound still holds, but the call
    # raises PrecisionError and the CLI exits 2 with the bound it reached,
    # printing no value
    assert main(["eval", "--s", "-254.5", "--p", "256", "--digits", "30"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "cannot meet 10^-30: error bound 3.784e+125 (depth 256)" in err


def test_eval_missed_target_past_the_floats_exits_two(capsys):
    # depth 384 at s = -382.5 misses by far more: the bound it reached is
    # past the float range, and is printed all the same
    assert main(["eval", "--s", "-382.5", "--p", "384", "--digits", "30"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "cannot meet 10^-30: error bound 3.301e+343 (depth 384)" in err


def test_eval_prints_a_bound_below_the_floats(capsys):
    # about 10^-405, below the least float: printed from the exact tally
    assert main(["eval", "--s", "2", "--digits", "400"]) == 0
    assert capsys.readouterr().out.endswith("error estimate <= 1.744e-405\n")


@pytest.mark.parametrize("s", ["0.5+1e9i", "0.5+1e300i"])
def test_eval_past_the_split_limit_exits_two_at_once(s, capsys):
    # N would pass 2^16 inner terms: a usage error before any power
    start = time.process_time()
    assert main(["eval", "--s", s]) == 2
    assert time.process_time() - start < 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "past the limit N <= 2^16" in err


def test_table_at_large_imaginary_part_skips_no_row(capsys):
    # N grows with |Im s| (512 at 1000), so every row meets 30 digits
    grid = ["--start", "0", "--stop", "1", "--step", "1/2", "--im", "1000"]
    assert main(["table", *grid, "--digits", "30", "--format", "json"]) == 0
    out, err = capsys.readouterr()
    assert "skipping" not in err
    rows = json.loads(out)
    assert [row["s_re"] for row in rows] == ["0.0", "0.5", "1.0"]
    with mp.workdps(60):
        for row in rows:
            value = mp.mpc(row["value_re"], row["value_im"])
            target = mp.zeta(mp.mpc(row["s_re"], 1000))
            # the printed value rounds to 30 significant digits
            assert abs(value - target) <= float(row["error_estimate"]) + abs(target) * 10**-29


def test_table_writes_a_bound_below_the_floats(capsys):
    # at 400 digits every bound is below the least float, and the column
    # holds it to 17 significant digits, not a float's 0
    assert main(["table", "--start", "2", "--stop", "3", "--step", "1/2", "--digits", "400", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 3
    for row in rows:
        assert 0 < mp.mpf(row["error_estimate"]) < mp.mpf("1e-400"), row["error_estimate"]


def test_eval_digits_floor():
    assert main(["eval", "--p", "3", "--s", "2", "--digits", "5"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--start", "0", "--stop", "1", "--step", "1", "--digits", "14"],
        ["verify", "--digits", "14"],
        ["verify", "--only", "pairing", "--digits", "14"],
        ["special", "--check", "zeta2", "--digits", "14"],
    ],
)
def test_digits_below_fifteen_exit_two_before_any_work(argv, monkeypatch, capsys):
    # checked once, before anything is derived or printed
    monkeypatch.setattr(cli, "_derive_many", lambda p_values: pytest.fail("derived"))
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "digits must be an integer >= 15" in err


# ---- table ----


def test_table_csv_schema_and_pole_skip(tmp_path, capsys):
    path = tmp_path / "grid.csv"
    code = main(
        [
            "table",
            "--p", "3",
            "--start", "-2.5",
            "--stop", "2.5",
            "--step", "0.25",
            "--digits", "30",
            "--out", str(path),
        ]
    )
    assert code == 0
    err = capsys.readouterr().err
    assert "skipping s = 1.0" in err
    lines = path.read_text().splitlines()
    assert lines[0] == "s_re,s_im,value_re,value_im,terms_used,error_estimate"
    assert len(lines) == 1 + 20  # 21 grid points, pole row skipped
    for line in lines[1:]:
        assert "," in line and ";" not in line


def test_table_json_format(capsys):
    assert (
        main(
            [
                "table",
                "--p", "2",
                "--start", "2", "--stop", "3", "--step", "1/2",
                "--digits", "20",
                "--format", "json",
            ]
        )
        == 0
    )
    rows = json.loads(capsys.readouterr().out)
    assert [row["s_re"] for row in rows] == ["2.0", "2.5", "3.0"]
    assert all(row["s_im"] == "0.0" for row in rows)


def test_table_imaginary_offset(capsys):
    assert (
        main(
            [
                "table",
                "--p", "2",
                "--start", "1", "--stop", "2", "--step", "1",
                "--im", "5",
                "--digits", "20",
                "--format", "json",
            ]
        )
        == 0
    )
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 2
    assert all(row["s_im"] == "5.0" for row in rows)
    assert any(row["value_im"] != "0.0" for row in rows)


def test_table_skips_a_point_beyond_the_float_range(capsys):
    # rejected like any other point: one skip line, a header-only table
    assert main(["table", "--start", "1e400", "--stop", "1e400", "--step", "1"]) == 0
    captured = capsys.readouterr()
    assert captured.err.startswith("skipping s = 1.0e+400+0.0i: s has a part beyond the float")
    assert "Traceback" not in captured.err
    assert captured.out == "s_re,s_im,value_re,value_im,terms_used,error_estimate\n"


def test_table_skip_message_reads_back_for_a_negative_imaginary_part(capsys):
    # depth 12 reaches only Re s > -10.5, so s = -20 - 3i is skipped; the
    # message writes it as "a-bi", which parse_complex_literal reads back
    assert main(["table", "--start", "-20", "--stop", "-20", "--step", "1", "--im", "-3"]) == 0
    err = capsys.readouterr().err
    assert err.startswith("skipping s = -20.0-3.0i: ")
    where = err.split()[3].rstrip(":")
    assert parse_complex_literal(where) == (F(-20), F(-3))


def test_table_bad_grid():
    assert main(["table", "--start", "2", "--stop", "1", "--step", "1"]) == 2
    assert main(["table", "--start", "1", "--stop", "2", "--step", "0"]) == 2


def test_grid_points_are_made_one_at_a_time(monkeypatch):
    # a grid of 10^12 + 1 points yields its first three at once, holding
    # no list of the rest
    points = cli._grid_points(F(0), F(1), F(1, 10**12), F(1, 3))
    assert list(itertools.islice(points, 3)) == [(F(j, 10**12), F(1, 3)) for j in range(3)]
    assert list(cli._grid_points(F(-1), F(1), F(3, 4), F(0))) == [(F(-1), 0), (F(-1, 4), 0), (F(1, 2), 0)]
    # a bad grid is still refused before anything is derived
    monkeypatch.setattr(cli, "_derive_many", lambda p_values: pytest.fail("derived"))
    assert main(["table", "--start", "0", "--stop", "1", "--step", "-1"]) == 2


@pytest.mark.parametrize("option", ["--start", "--stop", "--step", "--im"])
def test_table_zero_denominator_exits_two(option, capsys):
    grid = {"--start": "1", "--stop": "3", "--step": "1", "--im": "0", option: "1/0"}
    assert main(["table", *(x for pair in grid.items() for x in pair)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: rational '1/0' has a zero denominator\n"


# ---- special ----


def test_special_checks_pass(capsys):
    assert main(["special", "--check", "zeta0", "--p", "2..4", "--digits", "25"]) == 0
    out = capsys.readouterr().out
    assert out.strip().endswith("PASS")

    assert main(["special", "--check", "trivial_zeros", "--p", "5", "--digits", "25"]) == 0
    out = capsys.readouterr().out
    assert "|zeta(-2)|" in out and "|zeta(-4)|" in out

    assert main(["special", "--check", "sum_identity", "--digits", "25"]) == 0
    assert main(["special", "--check", "zetaprime0", "--digits", "25"]) == 0
    capsys.readouterr()
    assert main(["special", "--check", "zeta2", "--digits", "25"]) == 0
    assert "pi^2/6" in capsys.readouterr().out


def test_special_trivial_zeros_domains(capsys):
    # the zeros inside each depth's half-plane, or a line saying there are none
    assert main(["special", "--check", "trivial_zeros", "--p", "2"]) == 0
    assert capsys.readouterr().out == "p=2: no trivial zeros inside Re s > -1\nPASS\n"
    for p, zeros in ((5, [-2, -4]), (12, [-2, -4, -6, -8, -10])):
        assert main(["special", "--check", "trivial_zeros", "--p", str(p)]) == 0
        *lines, verdict = capsys.readouterr().out.splitlines()
        assert verdict == "PASS"
        assert [line.split(": ")[0] for line in lines] == [f"p={p}"] * len(zeros)
        assert [int(line.split("zeta(")[1].split(")")[0]) for line in lines] == zeros
        assert all(float(line.rsplit("= ", 1)[1]) < 1e-39 for line in lines)


def test_special_sum_identity_prints_the_real_sum(capsys):
    # the sum is an mpc with a zero imaginary part; the check prints its
    # real part
    assert main(["special", "--check", "sum_identity"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "sum_(k>=2) (zeta(k) - 1) = 1.0"


def test_special_depth_one_is_domain_error():
    assert main(["special", "--check", "zetaprime0", "--p", "1"]) == 2


# ---- verify and special: two views of one check registry ----

SHARED_CHECKS = ("zeta0", "zetaprime0", "zeta2", "sum_identity", "trivial_zeros")


@pytest.mark.parametrize("name", SHARED_CHECKS)
def test_verify_and_special_agree(name, capsys):
    verify_code = main(["verify", "--only", name, "--digits", "20"])
    special_code = main(["special", "--check", name, "--digits", "20"])
    assert verify_code == special_code == 0


@pytest.mark.parametrize("name", SHARED_CHECKS)
def test_failing_check_fails_both_views(name, monkeypatch, capsys):
    def failing(specs, digits):
        return False, "stubbed failure", ["stubbed value"]

    monkeypatch.setitem(cli._CHECKS, name, cli._CHECKS[name]._replace(run=failing))
    assert main(["verify", "--only", name]) == 1
    assert capsys.readouterr().out == f"FAIL  {name}: stubbed failure\n"
    assert main(["special", "--check", name]) == 1
    assert capsys.readouterr().out == "stubbed value\nFAIL\n"


@pytest.mark.parametrize("name", ["zeta0", "zeta2", "zetaprime0", "trivial_zeros", "sum_identity"])
def test_exact_values_must_lie_within_their_estimate(name, monkeypatch, capsys):
    # moves every value by 10^-(digits-2): outside its error estimate (at
    # most 10^-digits) but inside the tolerance 10^-(digits-5); and the
    # sum, whose target 1 is exact, by 10 times its estimate, still below
    # 10^-digits
    digits = 25
    shift = mp.mpf(10) ** (2 - digits)

    def moved(report):
        assert report.error_estimate < shift / 100
        return dataclasses.replace(report, value=report.value + shift)

    def nudged(report):
        assert 10 * report.error_estimate < mp.mpf(10) ** -digits
        return dataclasses.replace(report, value=report.value + 10 * report.error_estimate)

    # every evaluator entry point, whichever a check calls
    batch, single, derivative = cli.eval_identities, cli.eval_identity, cli.zeta_prime_at_zero
    total, at_point = cli.sum_zeta_m1, cli._eval_point
    monkeypatch.setattr(cli, "eval_identities", lambda *a: list(map(moved, batch(*a))))
    monkeypatch.setattr(cli, "_eval_point", lambda *a: list(map(moved, at_point(*a))))
    monkeypatch.setattr(cli, "eval_identity", lambda *a: moved(single(*a)))
    monkeypatch.setattr(cli, "zeta_prime_at_zero", lambda *a: moved(derivative(*a)))
    monkeypatch.setattr(cli, "sum_zeta_m1", lambda *a: nudged(total(*a)))
    assert main(["verify", "--only", name, "--digits", str(digits)]) == 1
    assert "(error estimate " in capsys.readouterr().out
    assert main(["special", "--check", name, "--digits", str(digits)]) == 1


def test_oracle_values_must_lie_within_their_estimate(monkeypatch, capsys):
    # moves every value by 10^-(digits-2): inside the tolerance
    # 10^-(digits-5) of direct summation, but outside its own estimate
    digits = 25
    shift = mp.mpf(10) ** (2 - digits)
    at_point = cli._eval_point

    def moved(*args):
        reports = at_point(*args)
        assert all(report.error_estimate < shift / 100 for report in reports)
        return [dataclasses.replace(report, value=report.value + shift) for report in reports]

    monkeypatch.setattr(cli, "_eval_point", moved)
    assert main(["verify", "--only", "oracle", "--digits", str(digits)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("FAIL  oracle: p=")
    assert "against direct summation off by 1.0e-23 (error estimate " in out


# ---- global behavior ----


def test_digits_env_override(monkeypatch, capsys):
    monkeypatch.setenv("ZETA_DIGITS", "21")
    assert main(["eval", "--p", "5", "--s", "2"]) == 0
    out = capsys.readouterr().out
    assert "1.64493406684822643647" in out
    assert "1.644934066848226436472" not in out  # only 21 significant digits


def test_digits_env_invalid(monkeypatch):
    monkeypatch.setenv("ZETA_DIGITS", "plenty")
    assert main(["eval", "--p", "5", "--s", "2"]) == 2


@pytest.mark.parametrize("argv", [["eval", "--s", "2"], ["verify", "--only", "pairing"]])
def test_digits_env_below_fifteen_exits_two(argv, monkeypatch, capsys):
    monkeypatch.setenv("ZETA_DIGITS", "14")
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "digits must be an integer >= 15" in err


def test_derive_ignores_digits_env(monkeypatch, capsys):
    # derive takes no --digits, so it never reads ZETA_DIGITS
    assert main(["derive", "--p", "3"]) == 0
    usual = capsys.readouterr().out
    monkeypatch.setenv("ZETA_DIGITS", "plenty")
    assert main(["derive", "--p", "3"]) == 0
    assert capsys.readouterr().out == usual


def test_removed_options_are_usage_errors(capsys):
    # --kmax only sets what derive stores, and derive reads no digits
    for argv in (
        ["eval", "--s", "2"],
        ["table", "--start", "2", "--stop", "3", "--step", "1"],
        ["special", "--check", "zeta0"],
        ["verify", "--only", "pairing"],
    ):
        assert main(argv + ["--kmax", "20"]) == 2
    assert main(["derive", "--p", "3", "--digits", "30"]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_usage_errors_exit_two(capsys):
    assert main(["frobnicate"]) == 2
    assert main(["eval"]) == 2  # --s is required
    assert main([]) == 2


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
