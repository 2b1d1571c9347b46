import builtins
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from decimal import Decimal
from math import prod
from pathlib import Path

import pytest

import matdivseq.cli
import matdivseq.linalg
import matdivseq.polynomials
import matdivseq.sequences
from matdivseq import (Factorization, IntMatrix, VerificationReport, factor_table,
                       generate_sequence, jacobian_power_map, verify_closed_form)
from matdivseq.cli import (MatrixDocument, MatrixParseError, main, parse_matrix,
                           run_charpoly, run_jacobian, run_table, run_verify)

from golden_tables import X3, X4
from helpers import check_oracle_blocks, random_matrix, record_det_rows, table_json

X3_JSON = '{"matrix": [[1, -2, -6], [0, 1, 3], [-1, 0, 1]], "name": "X3"}'


def test_parse_matrix_json():
    doc = parse_matrix(X3_JSON)
    assert doc.matrix == X3
    assert doc.name == "X3"


def test_parse_matrix_json_one_by_one():
    doc = parse_matrix('{"matrix": [[1]]}')
    assert doc.matrix == IntMatrix([[1]])
    assert doc.name is None


def test_parse_matrix_plain_text():
    doc = parse_matrix("1 -2 -6\n0 1 3\n-1 0 1\n")
    assert doc.matrix == X3
    assert parse_matrix("1 -2 -6\n\n0 1 3\n   \n-1 0 1\n").matrix == X3  # blank lines


def test_parse_matrix_not_square():
    with pytest.raises(MatrixParseError, match="square"):
        parse_matrix('{"matrix": [[1, 2], [3]]}')
    with pytest.raises(MatrixParseError, match="square"):
        parse_matrix("1 2\n3\n")
    # Every row's length is checked before any entry.
    with pytest.raises(MatrixParseError, match="^matrix must be square$"):
        parse_matrix('{"matrix": [[1.5, 2], [3]]}')


def test_parse_matrix_rejects_floats_and_bools():
    with pytest.raises(MatrixParseError, match="integer entries required"):
        parse_matrix('{"matrix": [[1.5]]}')
    with pytest.raises(MatrixParseError, match="integer entries required"):
        parse_matrix('{"matrix": [[true]]}')
    with pytest.raises(MatrixParseError, match="integer entries required"):
        parse_matrix("1 x\n2 3\n")


def test_parse_matrix_malformed_json_reports_position():
    with pytest.raises(MatrixParseError, match=r"line \d+, column \d+"):
        parse_matrix('{"matrix": [[1, 2], ')


def test_parse_matrix_empty():
    with pytest.raises(MatrixParseError):
        parse_matrix("   \n  ")


def test_parse_matrix_json_needs_a_list_of_rows():
    with pytest.raises(MatrixParseError, match='expected an object with a "matrix" key'):
        parse_matrix('{"name": "x"}')
    with pytest.raises(MatrixParseError, match="non-empty list of rows"):
        parse_matrix('{"matrix": []}')


def test_run_table_text_with_factors():
    doc = parse_matrix(X3_JSON)
    out, code = run_table(doc, 3, "text", factor=True)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    assert lines[2] == "3 | 6561 | 3^8"


def test_run_table_csv():
    doc = MatrixDocument(matrix=X4)
    out, code = run_table(doc, 2, "csv")
    assert code == 0
    assert out.splitlines() == ["1,1", "2,65536"]


def test_run_table_json_identity():
    doc = MatrixDocument(matrix=IntMatrix.identity(2))
    out, code = run_table(doc, 1, "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["entries"] == [{
        "n": 1,
        "reduced": "1",
        "jacobian_det": "1",
        "n_squared_value": "1",
        "fallback_used": False,
    }]


def test_run_table_json_factorizations_match_the_text_table():
    doc = MatrixDocument(matrix=X4)
    text, _ = run_table(doc, 12, "text", factor=True)
    js, code = run_table(doc, 12, "json", factor=True)
    assert code == 0
    entries = json.loads(js)["entries"]
    assert len(entries) == 12
    for e, line in zip(entries, text.splitlines()):
        f = e["factorization"]
        assert f["sign"] == 1 and f["cofactor"] is None
        assert all(isinstance(p, str) and isinstance(k, int) for p, k in f["factors"])
        assert prod(int(p) ** k for p, k in f["factors"]) == int(e["reduced"])
        assert f["display"] == line.split(" | ")[2]


def test_run_table_json_renders_a_cofactor(monkeypatch):
    hard = 1000000000039 * 1000000000061
    monkeypatch.setattr(matdivseq.cli, "factor_table", lambda entries, column: [
        Factorization(sign=1, factors=((2, 1),), cofactor=hard) for _ in entries])
    f = json.loads(run_table(MatrixDocument(matrix=X4), 1, "json", factor=True)[0])[
        "entries"][0]["factorization"]
    assert f == {"sign": 1, "factors": [["2", 1]], "cofactor": str(hard),
                 "display": f"2 [{hard}]"}


def test_run_table_jacobian_column():
    doc = parse_matrix(X3_JSON)
    out, _ = run_table(doc, 3, "text", column="jacobian")
    values = [int(line.split(" | ")[1]) for line in out.splitlines()]
    assert values == [1, 8 * 100, 27 * 6561]
    out, _ = run_table(doc, 3, "text", factor=True, column="jacobian")
    assert out.splitlines() == ["1 | 1 | 1", "2 | 800 | 2^5 5^2", "3 | 177147 | 3^11"]


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("factor", [False, True])
def test_run_table_rejects_an_unknown_column(fmt, factor):
    for column in ("bogus", "jacobian_det"):  # a value name is not a column
        with pytest.raises(ValueError, match="column must be 'reduced' or 'jacobian'"):
            run_table(parse_matrix(X3_JSON), 3, fmt, factor=factor, column=column)


# argparse rejects any other --format; a library caller gets a ValueError instead of
# text in one of the three formats.
UNKNOWN_FORMAT = "format must be 'text' or 'csv' or 'json'"


def test_run_table_rejects_an_unknown_format():
    for fmt in ("xml", "JSON", ""):
        with pytest.raises(ValueError, match=UNKNOWN_FORMAT):
            run_table(parse_matrix(X3_JSON), 3, fmt)


def test_run_verify_rejects_an_unknown_format():
    with pytest.raises(ValueError, match=UNKNOWN_FORMAT):
        run_verify(parse_matrix(X3_JSON), 2, "JSON")


def test_run_charpoly_rejects_an_unknown_format():
    with pytest.raises(ValueError, match=UNKNOWN_FORMAT):
        run_charpoly(parse_matrix(X3_JSON), "yaml")


def test_run_jacobian_rejects_an_unknown_format():
    with pytest.raises(ValueError, match=UNKNOWN_FORMAT):
        run_jacobian(parse_matrix(X3_JSON), 1, "tsv")


def test_every_command_takes_the_formats_of_the_library():
    parser = matdivseq.cli.build_parser()
    for command in ("table", "verify", "charpoly", "jacobian"):
        for fmt in matdivseq.cli.FORMATS:
            assert parser.parse_args([command, "m", "--format", fmt]).format == fmt
        for fmt in ("xml", "JSON"):
            with pytest.raises(SystemExit):
                parser.parse_args([command, "m", "--format", fmt])
    assert matdivseq.cli.FORMATS == ("text", "csv", "json")
    for column in matdivseq.sequences.COLUMNS:
        assert parser.parse_args(["table", "m", "--column", column]).column == column
    for column in ("jacobian_det", "Reduced"):
        with pytest.raises(SystemExit):
            parser.parse_args(["table", "m", "--column", column])


def test_run_table_formats_agree():
    doc = parse_matrix(X3_JSON)
    text, _ = run_table(doc, 5, "text")
    csv, _ = run_table(doc, 5, "csv")
    js, _ = run_table(doc, 5, "json")
    from_text = [int(line.split(" | ")[1]) for line in text.splitlines()]
    from_csv = [int(line.split(",")[1]) for line in csv.splitlines()]
    from_json = [int(e["reduced"]) for e in json.loads(js)["entries"]]
    assert from_text == from_csv == from_json


def test_run_table_json_round_trip():
    doc = parse_matrix(X3_JSON)
    out, _ = run_table(doc, 2, "json")
    assert parse_matrix(out) == doc


@pytest.fixture
def int_str_calls(monkeypatch):
    """The ints that matdivseq.cli passes to str(), in call order."""
    calls = []

    def spy(obj=""):
        if isinstance(obj, int):
            calls.append(obj)
        return builtins.str(obj)

    monkeypatch.setattr(matdivseq.cli, "str", spy, raising=False)
    return calls


@pytest.fixture
def decimal_calls(monkeypatch):
    """The values that matdivseq.cli converts with Decimal(), in call order."""
    calls = []

    def spy(value):
        calls.append(value)
        return Decimal(value)

    monkeypatch.setattr(matdivseq.cli, "Decimal", spy)
    return calls


@pytest.mark.parametrize("x", [
    IntMatrix([[-3]]),  # s = 1: n^2 > n^s, and reduced < 0 at even n
    X3,
    X4,
    IntMatrix([[1, 2], [2, 4]]),  # singular: zero rows
    IntMatrix([[0, 1], [-1, 0]]),  # u_n = 0 at even n
    random_matrix(random.Random(1), 6),  # past 400 digits at n_max 64
], ids=["minus3", "X3", "X4", "singular", "rotation", "random6"])
@pytest.mark.parametrize("column", ["reduced", "jacobian"])
def test_run_table_json_columns_equal_str_of_the_entries(int_str_calls, decimal_calls, x,
                                                         column):
    n_max = 64 if x.dim == 6 else 24
    entries = generate_sequence(x, n_max)
    out, code = run_table(MatrixDocument(matrix=x), n_max, "json", column=column)
    assert code == 0
    rows = json.loads(out)["entries"]
    assert [(r["n"], r["reduced"], r["jacobian_det"], r["n_squared_value"]) for r in rows] == [
        (e.n, str(e.reduced), str(e.jacobian_det), str(e.n_squared_value)) for e in entries]
    # Each nonzero row converts its u_n alone, int to decimal; the three values
    # come from those digits, and no u_n goes through str().
    assert decimal_calls == [e.u for e in entries if e.reduced]
    assert int_str_calls == []


needs_digit_limit = pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                                       reason="CPython before 3.10.7 has no int-to-str digit limit")
# str() of an int past a limit of 640 digits raises this on CPython 3.11 and later (3.10 says
# "(640)"); the table raises it with this wording on every version.
PAST_640_DIGITS = (r"^Exceeds the limit \(640 digits\) for integer string conversion; "
                   r"use sys\.set_int_max_str_digits\(\) to increase the limit$")


@needs_digit_limit
@pytest.mark.parametrize("entry", [10, -10])
def test_run_table_json_keeps_the_int_str_digit_limit(int_str_calls, entry):
    # [[entry]]: reduced_n = entry^(n-1), so at n = 635 reduced has 635 digits,
    # jacobian_det = 635 * reduced 637 and n_squared_value = 403225 * reduced 640.
    # At n = 636 only n_squared_value (641 digits) is past a limit of 640.
    doc = MatrixDocument(matrix=IntMatrix([[entry]]))
    entries = generate_sequence(doc.matrix, 636)
    e = entries[-1]
    assert [len(str(abs(v))) for v in (e.reduced, e.jacobian_det, e.n_squared_value)
            ] == [636, 638, 641]
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)  # CPython's smallest limit
    try:
        out, code = run_table(doc, 635, "json")
        assert code == 0
        assert int_str_calls == []  # 640 digits still fit
        last = json.loads(out)["entries"][-1]
        assert [len(last[k].lstrip("-")) for k in ("reduced", "jacobian_det", "n_squared_value")
                ] == [635, 637, 640]
        with pytest.raises(ValueError, match="integer string conversion"):
            run_table(doc, 636, "json")
    finally:
        sys.set_int_max_str_digits(old)


@needs_digit_limit
def test_run_table_json_digit_limit_excludes_the_sign(int_str_calls):
    # [[-10]] at n = 636: n_squared_value = -404496 * 10^635 has 641 digits and a sign.
    doc = MatrixDocument(matrix=IntMatrix([[-10]]))
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(641)
    try:
        last = json.loads(run_table(doc, 636, "json")[0])["entries"][-1]
        assert last["n_squared_value"] == "-404496" + "0" * 635
        assert int_str_calls == []  # no value, the last row included
        with pytest.raises(ValueError, match="integer string conversion"):
            run_table(doc, 637, "json")
    finally:
        sys.set_int_max_str_digits(old)


@needs_digit_limit
def test_run_table_json_without_get_int_max_str_digits(monkeypatch):
    # Before 3.10.7 sys has no digit limit and no getter: the derived columns
    # then take no limit (0), as CPython does.
    doc = MatrixDocument(matrix=IntMatrix([[10]]))
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        monkeypatch.delattr(sys, "get_int_max_str_digits")
        last = json.loads(run_table(doc, 636, "json")[0])["entries"][-1]
    finally:
        monkeypatch.undo()
        sys.set_int_max_str_digits(old)
    assert last["reduced"] == "1" + "0" * 635
    assert last["n_squared_value"] == "404496" + "0" * 635


@pytest.mark.parametrize("fmt, column", [("json", "reduced"), ("text", "reduced"),
                                         ("csv", "jacobian")])
def test_run_table_zero_row_with_a_negative_det_prints_0(decimal_calls, fmt, column):
    # u_2 = trace = 0 and det = -7: a decimal product would print -0.
    x = IntMatrix([[1, 2], [3, -1]])
    e = generate_sequence(x, 2)[1]
    assert (e.u, e.det_x) == (0, -7)
    out, code = run_table(MatrixDocument(matrix=x), 3, fmt, column=column)
    assert code == 0
    if fmt == "json":
        row = json.loads(out)["entries"][1]
        assert [row[k] for k in ("reduced", "jacobian_det", "n_squared_value")] == ["0"] * 3
    else:
        assert out.splitlines()[1] == ("2,0" if fmt == "csv" else "2 | 0")
    assert 0 not in decimal_calls


@needs_digit_limit
@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_main_singular_rows_do_not_convert_u_n(monkeypatch, capsys, int_str_calls,
                                               decimal_calls, fmt):
    # [[10, 0], [0, 0]]: u_n = 10^(n-1) passes 640 digits at n = 642, but
    # det(X) = 0 makes every row from n = 2 on zero.
    monkeypatch.setattr("sys.stdin", io.StringIO('{"matrix": [[10, 0], [0, 0]]}'))
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code = main(["table", "-", "--n-max", "700", "--format", fmt])
    finally:
        sys.set_int_max_str_digits(old)
    out = capsys.readouterr().out
    assert code == 0
    assert decimal_calls == [1]  # u_1 alone
    assert int_str_calls == []
    if fmt == "json":
        assert json.loads(out)["entries"][-1]["n_squared_value"] == "0"
    else:
        assert out.splitlines()[-1] == ("700,0" if fmt == "csv" else "700 | 0")


@needs_digit_limit
@pytest.mark.parametrize("fmt, column, name", [
    ("json", "reduced", "reduced"), ("text", "reduced", "reduced"),
    ("csv", "jacobian", "jacobian_det")])
def test_run_table_past_the_digit_limit_raises_from_that_value(int_str_calls, fmt, column, name):
    # Entries of 640 digits, so the JSON echo of the matrix fits, but u_2 =
    # 17 * 10^639 is itself past the limit: row 2 must raise for the printed
    # value, which is past it too, without str() of any int.
    x = IntMatrix([[9 * 10 ** 639, 0], [0, 8 * 10 ** 639]])
    e = generate_sequence(x, 2)[1]
    assert e.u == 17 * 10 ** 639
    assert len(str(abs(getattr(e, name)))) > 640
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        with pytest.raises(ValueError, match=PAST_640_DIGITS):
            run_table(MatrixDocument(matrix=x), 2, fmt, column=column)
    finally:
        sys.set_int_max_str_digits(old)
    assert int_str_calls == []


@needs_digit_limit
@pytest.mark.parametrize("column, fits, name", [("reduced", 640, "reduced"),
                                                ("jacobian", 638, "jacobian_det")])
def test_run_table_text_keeps_the_digit_limit_of_its_column(int_str_calls, column, fits, name):
    # [[10]]: reduced = 10^(n-1) and jacobian_det = n * 10^(n-1). The text
    # table prints one column, so only that column meets the limit.
    doc = MatrixDocument(matrix=IntMatrix([[10]]))
    entries = generate_sequence(doc.matrix, fits + 1)
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        out, code = run_table(doc, fits, "text", column=column)
        assert code == 0
        assert out.splitlines()[-1] == f"{fits} | {getattr(entries[fits - 1], name)}"
        int_str_calls.clear()
        with pytest.raises(ValueError, match=PAST_640_DIGITS):
            run_table(doc, fits + 1, "text", column=column)
    finally:
        sys.set_int_max_str_digits(old)
    assert len(str(abs(getattr(entries[-1], name)))) == 641  # the column's first value past it
    assert int_str_calls == []


NILPOTENT3 = IntMatrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])


@pytest.mark.parametrize("x, n_max, factor, column", [
    (X3, 16, True, "reduced"),
    (X3, 16, True, "jacobian"),
    (X4, 20, True, "reduced"),
    (X4, 20, True, "jacobian"),
    (IntMatrix([[-3]]), 1, False, "reduced"),
    (IntMatrix([[-3]]), 1, True, "jacobian"),
    (NILPOTENT3, 6, True, "reduced"),  # zero rows: sign 0, no factors
    (NILPOTENT3, 6, False, "jacobian"),
], ids=["X3", "X3-jacobian", "X4", "X4-jacobian", "minus3", "minus3-jacobian", "nilpotent",
        "nilpotent-unfactored"])
@pytest.mark.parametrize("name", [None, 'q"b\\', "\u00e9\U0001f642"],
                         ids=["unnamed", "quote-backslash", "non-ascii"])
def test_run_table_json_equals_json_dumps_indent_2(x, n_max, factor, column, name):
    doc = MatrixDocument(matrix=x, name=name)
    entries = generate_sequence(x, n_max)
    factors = factor_table(entries, column) if factor else [None] * n_max
    out, code = run_table(doc, n_max, "json", factor, column)
    assert code == 0
    assert out == table_json(doc, entries, factors, column)


def test_run_table_json_layout_of_names_and_zero_rows():
    doc = MatrixDocument(matrix=NILPOTENT3, name="\u00e9\U0001f642")
    out, _ = run_table(doc, 2, "json", factor=True)
    assert '\n  "name": "\\u00e9\\ud83d\\ude42",\n' in out
    assert ('\n        "sign": 0,\n        "factors": [],\n        "cofactor": null,\n'
            '        "display": "0"\n      }\n    }\n  ]\n}') in out
    assert out.isascii()


@pytest.mark.parametrize("sign", [1, -1])
def test_run_table_json_forced_values_equal_json_dumps_indent_2(monkeypatch, sign):
    # No table of today gives a cofactor or a negative sign; each must still
    # render as json.dumps does.
    hard = 1000000000039 * 1000000000061
    forced = [Factorization(sign=sign, factors=((2, 1), (3, 4)), cofactor=hard)] * 3
    monkeypatch.setattr(matdivseq.cli, "factor_table", lambda entries, column: forced)
    doc = MatrixDocument(matrix=X4, name="X4")
    out, code = run_table(doc, 3, "json", factor=True)
    assert code == 0
    assert out == table_json(doc, generate_sequence(X4, 3), forced, "reduced")


def _holds_rendered_rows(value, depth=0) -> bool:
    """Whether ``value`` is, or contains a few levels down, a rendered or dict-built table row."""
    if isinstance(value, str):
        return '"reduced": ' in value
    if depth > 3:
        return False
    if isinstance(value, dict):
        return "reduced" in value or any(_holds_rendered_rows(v, depth + 1)
                                         for v in value.values())
    if isinstance(value, (list, tuple)):
        return any(_holds_rendered_rows(v, depth + 1) for v in value)
    return False


@needs_digit_limit
def test_run_table_json_error_traceback_keeps_no_rendered_rows():
    # A caller that keeps the ValueError keeps every frame of its traceback
    # alive; none of them may hold the rows rendered before the failing one.
    doc = MatrixDocument(matrix=IntMatrix([[10]]))
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        run_table(doc, 636, "json")
    except ValueError as exc:
        error = exc
    else:
        pytest.fail("run_table rendered a value past the digit limit")
    finally:
        sys.set_int_max_str_digits(old)
    frames, tb = [], error.__traceback__
    while tb is not None:
        frames.append(tb.tb_frame)
        tb = tb.tb_next
    assert any(f.f_code is run_table.__code__ for f in frames)
    held = {f.f_code.co_name: name for f in frames for name, v in f.f_locals.items()
            if _holds_rendered_rows(v)}
    assert held == {}


def test_run_verify_x3_passes_with_informational_note():
    doc = parse_matrix(X3_JSON)
    out, code = run_verify(doc, 8)
    assert code == 0
    assert "result: PASS" in out
    assert "informational" in out
    assert "400" in out and "800" in out


def test_run_verify_x4():
    out, code = run_verify(MatrixDocument(matrix=X4), 6)
    assert code == 0
    assert "result: PASS" in out


def test_run_verify_json():
    doc = parse_matrix(X3_JSON)
    out, code = run_verify(doc, 4, "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["divisibility"]["reduced"]["failures"] == []
    assert any("informational" in n for n in payload["closed_form"]["notes"])


def test_run_verify_csv():
    out, code = run_verify(parse_matrix(X3_JSON), 3, "csv")
    assert code == 0
    lines = out.splitlines()
    assert "closed_form,pass" in lines
    assert "result,pass" in lines


def test_run_verify_failure_exit_code(monkeypatch):
    from matdivseq.sequences import VerificationReport
    import matdivseq.cli as cli_mod

    def fake_verify(x, n_max):
        return VerificationReport(mismatches=("n=2: forced mismatch",))

    monkeypatch.setattr(cli_mod, "verify_closed_form", fake_verify)
    out, code = run_verify(parse_matrix(X3_JSON), 3)
    assert code == 1
    assert "result: FAIL" in out


# Byte-exact outputs of verify, charpoly and jacobian, in every format. JSON is
# compared with json.dumps(..., indent=2) of the whole expected document.
X3_ROWS = [[1, -2, -6], [0, 1, 3], [-1, 0, 1]]
X3_NOTE = ("informational: n^2 variant gives 400 at n=2 but the Jacobian determinant is 800 "
           "(dim 3 carries n^3)")


def _verify_json(name, matrix, passed, mismatches, notes, failures):
    divisibility = {"pairs_checked": 4, "failures": failures, "notes": []}
    return json.dumps({"name": name, "matrix": matrix, "n_max": 4, "passed": passed,
                       "closed_form": {"mismatches": mismatches, "notes": notes},
                       "divisibility": {"jacobian": divisibility, "reduced": divisibility}},
                      indent=2)


@pytest.mark.parametrize("doc, text, csv, js", [
    (parse_matrix(X3_JSON),
     ["matrix: X3", "checked n = 1..4", "closed form vs Jacobian determinant: OK",
      f"note: {X3_NOTE}", "divisibility (jacobian column): 4/4 pairs pass",
      "divisibility (reduced column): 4/4 pairs pass", "result: PASS"],
     ["closed_form,pass", "divisibility_jacobian,pass", "divisibility_reduced,pass",
      f"note,{X3_NOTE}", "result,pass"],
     _verify_json("X3", X3_ROWS, True, [], [X3_NOTE], [])),
    # Unnamed: the text report labels the matrix by its fingerprint.
    (MatrixDocument(matrix=IntMatrix([[1, 1], [0, 1]])),
     ["matrix: 2x2 [[1,1],[0,1]]", "checked n = 1..4", "closed form vs Jacobian determinant: OK",
      "divisibility (jacobian column): 4/4 pairs pass",
      "divisibility (reduced column): 4/4 pairs pass", "result: PASS"],
     ["closed_form,pass", "divisibility_jacobian,pass", "divisibility_reduced,pass",
      "result,pass"],
     _verify_json(None, [[1, 1], [0, 1]], True, [], [], [])),
], ids=["named", "unnamed"])
def test_run_verify_outputs_are_pinned(doc, text, csv, js):
    assert run_verify(doc, 4, "text") == ("\n".join(text), 0)
    assert run_verify(doc, 4, "csv") == ("\n".join(csv), 0)
    assert run_verify(doc, 4, "json") == (js, 0)


def test_run_verify_failure_outputs_are_pinned(monkeypatch):
    # A closed-form mismatch with a note, and u_4 off by one: 2 | 4 fails in
    # both columns while 1 | 4 still passes.
    def fake_verify(x, n_max):
        entries = generate_sequence(x, n_max)
        entries[3] = replace(entries[3], u=entries[3].u + 1)
        return VerificationReport(mismatches=("n=4: forced mismatch",), notes=("forced note",),
                                  entries=tuple(entries))

    monkeypatch.setattr(matdivseq.cli, "verify_closed_form", fake_verify)
    doc = parse_matrix(X3_JSON)
    assert run_verify(doc, 4, "text") == ("\n".join([
        "matrix: X3", "checked n = 1..4", "closed form vs Jacobian determinant: 1 mismatches",
        "  FAIL n=4: forced mismatch", "note: forced note",
        "divisibility (jacobian column): 3/4 pairs pass", "  FAIL 2 | 4",
        "divisibility (reduced column): 3/4 pairs pass", "  FAIL 2 | 4", "result: FAIL"]), 1)
    assert run_verify(doc, 4, "csv") == ("\n".join([
        "closed_form,fail", "divisibility_jacobian,fail", "divisibility_reduced,fail",
        "note,forced note", "result,fail"]), 1)
    assert run_verify(doc, 4, "json") == (_verify_json(
        "X3", X3_ROWS, False, ["n=4: forced mismatch"], ["forced note"], [[2, 4]]), 1)


def test_run_charpoly_outputs_are_pinned():
    doc = parse_matrix(X3_JSON)
    assert run_charpoly(doc, "text") == (
        "characteristic polynomial: x^3 - 3x^2 - 3x - 1\ncoefficients: [1, -3, -3, -1]", 0)
    assert run_charpoly(doc, "csv") == ("1,-3,-3,-1", 0)
    assert run_charpoly(doc, "json") == (json.dumps(
        {"dim": 3, "polynomial": "x^3 - 3x^2 - 3x - 1", "coefficients": ["1", "-3", "-3", "-1"]},
        indent=2), 0)


JACOBIAN_X3_2 = ["2 -2 -6 0 0 0 -1 0 0", "0 2 3 0 0 0 0 -1 0", "-1 0 2 0 0 0 0 0 -1",
                 "-2 0 0 2 -2 -6 0 0 0", "0 -2 0 0 2 3 0 0 0", "0 0 -2 -1 0 2 0 0 0",
                 "-6 0 0 3 0 0 2 -2 -6", "0 -6 0 0 3 0 0 2 3", "0 0 -6 0 0 3 -1 0 2"]


def test_run_jacobian_outputs_are_pinned():
    doc = parse_matrix(X3_JSON)
    rows = [line.split() for line in JACOBIAN_X3_2]
    assert run_jacobian(doc, 2, "text") == (
        "\n".join(["derivative of X -> X^2 is 9x9", *JACOBIAN_X3_2, "det: 800"]), 0)
    assert run_jacobian(doc, 2, "csv") == ("\n".join([*map(",".join, rows), "det,800"]), 0)
    assert run_jacobian(doc, 2, "json") == (json.dumps(
        {"n": 2, "dim": 9, "entries": rows, "det": "800"}, indent=2), 0)


def _count_calls(monkeypatch, module, name, counts):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


# Sizes of the closed form's determinants of each n: the (s-1) x (s-1) u_n. The oracle's are
# the blocks of check_oracle_blocks.
@pytest.mark.parametrize("x, per_n", [
    (X3, [2]),
    # repeated eigenvalue
    (IntMatrix([[1, 1], [0, 1]]), [1]),
    # derogatory
    (IntMatrix([[2, 0, 0], [0, 2, 0], [0, 0, 3]]), [2]),
])
def test_run_verify_evaluates_each_route_once_per_n(monkeypatch, x, per_n):
    building = {}
    for name in ("kronecker", "mat_mul"):
        _count_calls(monkeypatch, matdivseq.linalg, name, building)
    signs = []
    steps = matdivseq.linalg._compound_steps

    def recorded_steps(x, sign, n_max):
        signs.append(sign)
        return steps(x, sign, n_max)

    monkeypatch.setattr(matdivseq.linalg, "_compound_steps", recorded_steps)
    with (record_det_rows(matdivseq.linalg) as oracle,
          record_det_rows(matdivseq.polynomials) as lucas_u):
        _out, code = run_verify(MatrixDocument(matrix=x), 6)
    assert code == 0
    assert [size for size, _v in lucas_u] == per_n * 6
    # The table's Jacobians come from one recurrence, not a Kronecker sum per n, and the
    # oracle steps the compound on skew matrices only, derogatory X included, never on all
    # s^2 matrices, as M_n.
    assert "kronecker" not in building
    assert building.get("mat_mul", 0) == 0  # char_poly steps row lists
    assert signs == [-1]
    entries = generate_sequence(x, 6)
    check_oracle_blocks(oracle, x, entries[0].det_x, [e.u for e in entries])


def test_verify_closed_form_reports_the_generated_entries():
    for x in (X3, IntMatrix([[1, 1], [0, 1]])):
        assert verify_closed_form(x, 5).entries == tuple(generate_sequence(x, 5))


def test_run_jacobian_builds_the_matrix_once(monkeypatch):
    counts = {}
    for module in (matdivseq.cli, matdivseq.sequences, matdivseq.linalg):
        _count_calls(monkeypatch, module, "jacobian_power_map", counts)
    out, _ = run_jacobian(parse_matrix(X3_JSON), 2)
    assert out.splitlines()[-1] == "det: 800"
    assert counts == {"jacobian_power_map": 1}


def test_run_charpoly():
    out, code = run_charpoly(parse_matrix(X3_JSON))
    assert code == 0
    assert "coefficients: [1, -3, -3, -1]" in out
    out2, _ = run_charpoly(MatrixDocument(matrix=IntMatrix.identity(2)))
    assert "coefficients: [1, -2, 1]" in out2


def test_run_charpoly_csv_and_json():
    doc = parse_matrix(X3_JSON)
    csv, _ = run_charpoly(doc, "csv")
    assert csv == "1,-3,-3,-1"
    payload = json.loads(run_charpoly(doc, "json")[0])
    assert payload["coefficients"] == ["1", "-3", "-3", "-1"]


def test_run_jacobian():
    out, code = run_jacobian(parse_matrix(X3_JSON), 2)
    assert code == 0
    assert "9x9" in out
    assert out.splitlines()[-1] == "det: 800"


def test_run_jacobian_json():
    payload = json.loads(run_jacobian(parse_matrix(X3_JSON), 2, "json")[0])
    assert payload["dim"] == 9
    assert payload["det"] == "800"


def test_run_jacobian_csv():
    doc = parse_matrix(X3_JSON)
    lines = run_jacobian(doc, 2, "csv")[0].splitlines()
    text = run_jacobian(doc, 2)[0]
    assert len(lines) == 10
    assert [[int(v) for v in line.split(",")] for line in lines[:9]] == [
        list(row) for row in jacobian_power_map(X3, 2).entries]
    assert lines[9] == "det," + text.splitlines()[-1].removeprefix("det: ")


def test_main_table(tmp_path, capsys):
    path = tmp_path / "x3.json"
    path.write_text(X3_JSON, encoding="utf-8")
    code = main(["table", str(path), "--n-max", "3", "--factor"])
    out = capsys.readouterr().out
    assert code == 0
    assert "3 | 6561 | 3^8" in out


@pytest.fixture
def matrices_built(monkeypatch):
    """Every IntMatrix validated while the test runs, in order."""
    built = []
    post_init = IntMatrix.__post_init__

    def counted(self):
        post_init(self)
        built.append(self)

    monkeypatch.setattr(IntMatrix, "__post_init__", counted)
    return built


MATRIX_DOCUMENTS = (X3_JSON, "1 1\n0 1\n", "-3\n")  # named 3x3, repeated eigenvalue, s = 1


@pytest.mark.parametrize("args", [
    *(["table", "--format", fmt, "--column", column, *factor]
      for fmt in ("text", "csv", "json") for column in ("reduced", "jacobian")
      for factor in ([], ["--factor"])),
    *(["charpoly", "--format", fmt] for fmt in ("text", "csv", "json")),
    *(["verify", "--format", fmt] for fmt in ("text", "csv", "json")),
], ids=" ".join)
def test_main_validates_only_the_parsed_matrix(tmp_path, capsys, matrices_built, args):
    path = tmp_path / "x"
    for document in MATRIX_DOCUMENTS:
        path.write_text(document, encoding="utf-8")
        parsed = parse_matrix(document).matrix
        matrices_built.clear()
        assert main([args[0], str(path), *args[1:]]) == 0
        capsys.readouterr()
        assert matrices_built == [parsed], document


def test_main_builds_a_second_matrix_only_to_print_one(tmp_path, capsys, matrices_built):
    # jacobian returns J_n as an IntMatrix: the only second matrix a call validates.
    path = tmp_path / "x"
    for document, args in [(X3_JSON, ["jacobian"]), ("-3\n", ["jacobian", "--format", "json"])]:
        path.write_text(document, encoding="utf-8")
        matrices_built.clear()
        assert main([args[0], str(path), *args[1:]]) == 0
        capsys.readouterr()
        assert len(matrices_built) == 2, (document, args)


def test_main_calls_do_not_share_options(tmp_path, capsys):
    # main() reuses one parser; each call still starts from the defaults.
    path = tmp_path / "x3.json"
    path.write_text(X3_JSON, encoding="utf-8")
    assert main(["table", str(path), "--n-max", "3", "--factor", "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "3,6561,3^8"
    assert main(["table", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 16 and lines[2] == "3 | 6561"
    assert main(["charpoly", str(path)]) == 0
    assert capsys.readouterr().out.startswith("characteristic polynomial:")


def test_main_verify_exit_zero(tmp_path, capsys):
    path = tmp_path / "x3.json"
    path.write_text(X3_JSON, encoding="utf-8")
    assert main(["verify", str(path), "--n-max", "6"]) == 0
    assert "result: PASS" in capsys.readouterr().out


def test_main_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("1 1\n1 0\n"))
    code = main(["jacobian", "-", "--n", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "det: -4" in out


def test_main_exits_quietly_when_the_reader_closes_the_pipe():
    # As with "| head -n 1": the reader takes one line and closes the pipe while
    # the CLI still writes. Its 140 kB of output overfill the pipe, so the write fails.
    env = dict(os.environ, PYTHONPATH=str(Path(matdivseq.cli.__file__).parents[1]))
    argv = [sys.executable, "-m", "matdivseq.cli", "table", "-", "--n-max", "400"]
    with subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, env=env) as proc:
        proc.stdin.write(X3_JSON.encode())
        proc.stdin.close()
        assert proc.stdout.readline() == b"1 | 1\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
    assert err == b""


def test_main_names_through_a_real_utf8_stdout():
    # The corpus captures stdout in a StringIO, which takes any str; a real
    # stdout encodes, and a lone surrogate has no UTF-8 encoding.
    env = dict(os.environ, PYTHONPATH=str(Path(matdivseq.cli.__file__).parents[1]),
               PYTHONIOENCODING="utf-8")
    argv = [sys.executable, "-m", "matdivseq.cli", "verify", "-", "--n-max", "4"]

    def run(name):
        doc = json.dumps({"matrix": [[2, 1], [1, 1]], "name": name})  # ASCII, \u escapes
        return subprocess.run(argv, input=doc.encode(), capture_output=True, env=env, timeout=60)

    proc = run("Fibonacci é")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode("utf-8").splitlines()[0] == "matrix: Fibonacci é"
    proc = run("a\ud800b")
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr == b'error: "name" must not contain lone surrogates\n'


def _run_ascii_io(argv, stdin: bytes) -> subprocess.CompletedProcess:
    """Run the CLI in a process whose stdin, stdout and stderr are ASCII."""
    env = dict(os.environ, PYTHONPATH=str(Path(matdivseq.cli.__file__).parents[1]),
               PYTHONIOENCODING="ascii")
    return subprocess.run([sys.executable, "-m", "matdivseq.cli", *argv], input=stdin,
                          capture_output=True, env=env, timeout=60)


def test_main_reads_stdin_as_utf8_whatever_the_locale(tmp_path):
    doc = '{"matrix": [[2, 1], [1, 1]], "name": "\u00e9"}'.encode("utf-8")  # é: two bytes
    path = tmp_path / "e.json"
    path.write_bytes(doc)
    by_path = _run_ascii_io(["table", str(path), "--format", "json", "--n-max", "3"], b"")
    piped = _run_ascii_io(["table", "-", "--format", "json", "--n-max", "3"], doc)
    assert (piped.returncode, piped.stderr) == (0, b"")
    assert piped.stdout == by_path.stdout
    assert json.loads(piped.stdout)["name"] == "\u00e9"  # JSON escapes it to ASCII
    invalid = _run_ascii_io(["table", "-"], b'{"matrix": [[1]]}\xff')
    assert invalid.returncode == 2
    assert invalid.stderr.startswith(b"error: input is not UTF-8 text: 'utf-8' codec")


def test_main_reports_a_stdout_that_cannot_encode_the_name():
    # The name is written as the JSON escape \\u00e9, so the input is ASCII.
    doc = json.dumps({"matrix": [[2, 1], [1, 1]], "name": "\u00e9"})
    proc = _run_ascii_io(["verify", "-", "--n-max", "2"], doc.encode("ascii"))
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr.startswith(b"error: stdout cannot encode the output: ")
    assert proc.stderr.count(b"\n") == 1


def test_main_input_errors(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["table", str(missing)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"matrix": [[1, 2], [3]]}', encoding="utf-8")
    assert main(["verify", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "square" in err
    hostile = {
        "not_utf8.json": b'{"matrix": [[1]]}\xff',
        "huge_int.json": b'{"matrix": [[' + b"9" * 5000 + b']]}',  # past the str digit limit
        "deep.json": b'{"matrix": ' + b"[" * 100000 + b"]" * 100000 + b"}",
        "huge_int.txt": b"9" * 5000 + b"\n",
        "long_token.txt": b"1 " + b"x" * 5000 + b"\n3 4\n",
    }
    for name, content in hostile.items():
        path = tmp_path / name
        path.write_bytes(content)
        assert main(["table", str(path)]) == 2, name
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err) < 200, name
    main(["table", str(tmp_path / "huge_int.txt")])
    assert "exceeds the digit limit" in capsys.readouterr().err


def test_main_accepts_a_byte_order_mark(tmp_path, monkeypatch, capsys):
    bom = b"\xef\xbb\xbf"
    for name, content in {"j2.json": b'{"matrix": [[1,1],[0,1]]}', "j2.txt": b"1 1\n0 1\n"}.items():
        path = tmp_path / name
        path.write_bytes(content)
        assert main(["table", str(path), "--n-max", "3"]) == 0
        plain = capsys.readouterr().out
        path.write_bytes(bom + content)
        assert main(["table", str(path), "--n-max", "3"]) == 0, name
        assert capsys.readouterr().out == plain == "1 | 1\n2 | 4\n3 | 9\n"
        monkeypatch.setattr("sys.stdin", io.StringIO((bom + content).decode("utf-8")))
        assert main(["table", "-", "--n-max", "3"]) == 0, name
        assert capsys.readouterr().out == plain
    # Only one mark is dropped.
    with pytest.raises(MatrixParseError):
        parse_matrix("\ufeff\ufeff1 1\n0 1\n")


def test_main_rejects_bad_n(tmp_path):
    path = tmp_path / "x3.json"
    path.write_text(X3_JSON, encoding="utf-8")
    assert main(["table", str(path), "--n-max", "0"]) == 2
    assert main(["verify", str(path), "--n-max", "-1"]) == 2
    assert main(["jacobian", str(path), "--n", "0"]) == 2


def test_main_plain_text_takes_only_ascii_decimal_integers(tmp_path, capsys):
    # int() alone reads "1_0" as 10 and takes Arabic-Indic and full-width digits.
    path = tmp_path / "rows.txt"
    for line, token in [("1_0 0", "1_0"), ("١ 0", "١"), ("２ 0", "２")]:
        path.write_text(f"{line}\n0 1\n", encoding="utf-8")
        assert main(["charpoly", str(path)]) == 2, token
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: integer entries required (line 1: {token!r})\n"
    path.write_text("+10 -0\n0 +1\n", encoding="utf-8")
    assert main(["charpoly", str(path)]) == 0
    assert capsys.readouterr().out.startswith("characteristic polynomial: x^2 - 11x + 10\n")


def test_main_rejects_a_name_with_control_characters(tmp_path, capsys):
    path = tmp_path / "fib.json"
    for name in ("fib\nresult: FAIL", "fib\rx", "fib\x00", "fib\x1b[2K", "fib\x85"):
        path.write_text(json.dumps({"matrix": [[1, 1], [1, 0]], "name": name}), encoding="utf-8")
        assert main(["verify", str(path), "--format", "text"]) == 2, repr(name)
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == 'error: "name" must not contain control characters\n'
    # Other non-ASCII text is a name like any other; non-strings keep their message.
    path.write_text(json.dumps({"matrix": [[1, 1], [1, 0]], "name": "Fibonacci φ"}),
                    encoding="utf-8")
    assert main(["verify", str(path), "--format", "text"]) == 0
    assert capsys.readouterr().out.startswith("matrix: Fibonacci φ\n")
    with pytest.raises(MatrixParseError, match='"name" must be a string'):
        parse_matrix('{"matrix": [[1]], "name": 5}')


def test_main_rejects_a_name_with_unicode_line_separators(tmp_path, capsys):
    # str.splitlines() breaks at U+2028 and U+2029, so such a name could forge
    # a report line for a Python reader.
    path = tmp_path / "fib.json"
    for name in ("fib\u2028result: FAIL", "fib\u2029result: FAIL"):
        path.write_text(json.dumps({"matrix": [[1, 1], [1, 0]], "name": name}), encoding="utf-8")
        assert main(["verify", str(path), "--format", "text"]) == 2, repr(name)
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == 'error: "name" must not contain control characters\n'
