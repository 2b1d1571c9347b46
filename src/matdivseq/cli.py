"""Command-line interface: table reproduction, verification, inspection.

Subcommands: ``table``, ``verify``, ``charpoly``, ``jacobian``. Matrices
are read from a file (or stdin with ``-``) in either of two formats:

* JSON: ``{"matrix": [[1, -2, -6], [0, 1, 3], [-1, 0, 1]], "name": "X3"}``;
  the optional name holds no control characters and no lone surrogates
* plain text: one row per line, whitespace-separated integers written
  with ASCII digits and an optional sign

Exit codes: 0 success, 1 verification failure, 2 input error or output
that stdout's encoding cannot write. Input is read as UTF-8. Computed
integers in JSON output are rendered as decimal strings so consumers do
not lose precision; the input matrix echoed under ``"matrix"`` stays JSON
numbers. Every value a table prints, in each format, is u_n^2 times
known factors, so each row converts only u_n from int to decimal:
``reduced`` = u_n^2 * det(X)^(n-1), ``jacobian_det`` = n^s * reduced and
``n_squared_value`` = n^2 * reduced are exact decimal products of its
digits. CPython's int-to-str digit limit (4300 by default) still applies to
every printed value, so a long table can end in its ``ValueError``.

``table --format json`` is written row by row from fixed templates, byte
for byte in the layout of ``json.dumps(payload, indent=2)`` (whose
indenting encoder runs in pure Python); ``python3 -m json.tool --indent 2``
reproduces it; ``"fallback_used"`` is always ``false``, kept only as a JSON
key. ``verify``, ``charpoly`` and ``jacobian`` each compute one record of
dicts, lists, ints and strings (computed integers as decimal strings):
``--format json`` writes it with ``json.dumps(record, indent=2)``, and the
text and csv lines are rendered from the same record.
"""

from __future__ import annotations

import argparse
import decimal
import json
import os
import re
import sys
import unicodedata
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from decimal import Decimal
from functools import cache

from .factorint import Factorization
from .linalg import IntMatrix, det_bareiss, jacobian_power_map
from .polynomials import char_poly
from .sequences import (COLUMNS, SequenceEntry, _check_choice, factor_table,
                        generate_sequence, verify_closed_form, verify_divisibility)


class MatrixParseError(ValueError):
    """Input document could not be turned into a square integer matrix."""


@dataclass(frozen=True)
class MatrixDocument:
    """A parsed input matrix plus its optional name."""

    matrix: IntMatrix
    name: str | None = None


# A plain-text entry: ASCII digits with an optional sign. int() alone would
# also take "1_0" and non-ASCII digits, which the JSON path rejects.
_INTEGER = re.compile(r"[+-]?[0-9]+")


def _plain_entry(token: str, lineno: int) -> int:
    """One plain-text entry; an error quotes the token, cut to 20 characters."""
    if _INTEGER.fullmatch(token):
        try:
            return int(token)
        except ValueError:  # after _INTEGER, only CPython's int-from-str digit limit
            reason = "integer exceeds the digit limit"
    else:
        reason = "integer entries required"
    shown = token if len(token) <= 20 else token[:20] + "..."  # keep the line short
    raise MatrixParseError(f"{reason} (line {lineno}: {shown!r})")


def _matrix_from_rows(rows) -> IntMatrix:
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise MatrixParseError("matrix must be a non-empty list of rows")
    try:
        return IntMatrix(rows)
    except ValueError as exc:  # IntMatrix checks squareness, then integer entries
        raise MatrixParseError(str(exc)) from exc


def parse_matrix(text: str) -> MatrixDocument:
    """Parse a matrix document in JSON or plain-text row format.

    One leading byte-order mark (U+FEFF), as some editors write, is dropped.
    """
    text = text.removeprefix("\ufeff")
    stripped = text.lstrip()
    if not stripped:
        raise MatrixParseError("empty input")
    if stripped.startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise MatrixParseError(
                f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
        except (ValueError, RecursionError) as exc:  # oversized integer, deep nesting
            raise MatrixParseError(f"parse error: {exc}") from exc
        if not isinstance(obj, dict) or "matrix" not in obj:
            raise MatrixParseError('expected an object with a "matrix" key')
        name = obj.get("name")
        if name is not None and not isinstance(name, str):
            raise MatrixParseError('"name" must be a string')
        categories = {unicodedata.category(c) for c in name or ""}
        # The text report prints the name on a line of its own; str.splitlines()
        # also breaks lines at U+2028 and U+2029 (categories Zl and Zp).
        if categories & {"Cc", "Zl", "Zp"}:
            raise MatrixParseError('"name" must not contain control characters')
        if "Cs" in categories:  # no UTF-8 stdout can encode a lone surrogate
            raise MatrixParseError('"name" must not contain lone surrogates')
        return MatrixDocument(matrix=_matrix_from_rows(obj["matrix"]), name=name)
    rows = [[_plain_entry(token, lineno) for token in line.split()]
            for lineno, line in enumerate(text.splitlines(), start=1) if line.strip()]
    return MatrixDocument(matrix=_matrix_from_rows(rows))


FORMATS = ("text", "csv", "json")  # every command's output formats


# Multiplies decimal integers exactly: a product that would round raises
# Inexact or Rounded instead of printing wrong digits.
_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
                         traps=[decimal.Inexact, decimal.Rounded])


# Each value of a table row, by its SequenceEntry attribute (every value of COLUMNS
# is a key), from the row's reduced = u_n^2 * det(X)^(n-1) as an exact decimal.
_ROW_VALUES = {"reduced": lambda r, e: r,
               "jacobian_det": lambda r, e: _EXACT.multiply(r, e.n ** e.s),
               "n_squared_value": lambda r, e: _EXACT.multiply(r, e.n * e.n)}


def _row_digits(entries: Iterable[SequenceEntry], names: tuple[str, ...]) -> Iterator[list[str]]:
    """Yield, per entry, the decimal digits of its values ``names`` (keys of ``_ROW_VALUES``).

    CPython's int-to-str conversion is quadratic in the digit count, and
    u_n has under half of reduced's digits. So a row converts u_n alone,
    int to decimal with no digit limit, and every value is an exact
    decimal product of its digits; a ``zero`` row converts nothing. CPython's
    digit limit still applies to each value (0: none; no getter before
    3.10.7): a value past it is sent to str() on its int, which raises
    CPython's own ValueError at the same row.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    multiply = _EXACT.multiply
    values = [(name, _ROW_VALUES[name]) for name in names]
    for e in entries:
        if e.zero:
            yield ["0"] * len(names)  # a decimal product with det(X) < 0 prints "-0"
            continue
        u = Decimal(e.u)
        reduced = multiply(multiply(u, u), e.det_x ** (e.n - 1))  # int 0 ** 0 is 1
        cap = limit + reduced.is_signed()  # the limit counts no sign
        row = []
        for name, value in values:
            digits = str(value(reduced, e))
            if limit and len(digits) > cap:
                str(getattr(e, name))  # raises
            row.append(digits)
        yield row


def _factorization_json(f: Factorization) -> str:
    """The ``"factorization"`` member of a table row, as ``json.dumps(indent=2)`` writes it."""
    factors = ",".join(f'\n          [\n            "{p}",\n            {e}\n          ]'
                       for p, e in f.factors)
    if factors:
        factors += "\n        "
    cofactor = "null" if f.cofactor is None else f'"{f.cofactor}"'
    return (f'      "factorization": {{\n        "sign": {f.sign},\n'
            f'        "factors": [{factors}],\n        "cofactor": {cofactor},\n'
            f'        "display": "{f}"\n      }}')


def _table_json(doc: MatrixDocument, entries: list[SequenceEntry],
                factors: list[Factorization | None], column: str) -> Iterator[str]:
    """Yield the table's JSON document in pieces: the head, one piece per row, the tail.

    The pieces join to exactly ``json.dumps(payload, indent=2)`` of the
    table's payload. Only the name and the column can need escaping, so they
    alone go through :func:`json.dumps`; every other value is digits, a
    literal or the ASCII of ``str(Factorization)``.
    """
    matrix = ",".join("\n    [" + ",".join(f"\n      {v}" for v in row) + "\n    ]"
                      for row in doc.matrix.entries)
    yield (f'{{\n  "name": {json.dumps(doc.name)},\n  "matrix": [{matrix}\n  ],\n'
           f'  "column": {json.dumps(column)},\n  "entries": [')
    # Each row's three values come from the digits of u_n (see _row_digits).
    sep = "\n"
    for e, fc, (reduced, jacobian_det, n_squared_value) in zip(entries, factors, _row_digits(
            entries, ("reduced", "jacobian_det", "n_squared_value"))):
        yield (f'{sep}    {{\n      "n": {e.n},\n      "reduced": "{reduced}",\n'
               f'      "jacobian_det": "{jacobian_det}",\n'
               f'      "n_squared_value": "{n_squared_value}",\n'
               '      "fallback_used": false'
               + ("" if fc is None else ",\n" + _factorization_json(fc)) + "\n    }")
        sep = ",\n"
    yield "\n  ]\n}"  # generate_sequence returns at least one row


def run_table(doc: MatrixDocument, n_max: int, fmt: str = "text",
              factor: bool = False, column: str = "reduced") -> tuple[str, int]:
    """Render the sequence table for n = 1..n_max in the requested format.

    With ``factor`` the printed column is factorized by
    :func:`factor_table`, once per table from its primitive parts.
    """
    _check_choice("column", column, COLUMNS)
    _check_choice("format", fmt, FORMATS)
    entries = generate_sequence(doc.matrix, n_max)
    factors = factor_table(entries, column) if factor else [None] * len(entries)

    if fmt == "json":
        return "".join(_table_json(doc, entries, factors, column)), 0

    lines = []
    sep = "," if fmt == "csv" else " | "
    for e, fc, (value,) in zip(entries, factors, _row_digits(entries, (COLUMNS[column],))):
        line = f"{e.n}{sep}{value}"
        lines.append(line if fc is None else f"{line}{sep}{fc}")
    return "\n".join(lines), 0


def _render(record: dict, fmt: str, text: Callable[[dict], Iterable[str]],
            csv: Callable[[dict], Iterable[str]]) -> str:
    """Write a command's record as JSON, or as the lines ``text`` or ``csv`` make of it."""
    if fmt == "json":
        return json.dumps(record, indent=2)
    return "\n".join((csv if fmt == "csv" else text)(record))


def _verify_text(r: dict, doc: MatrixDocument) -> Iterator[str]:
    cf = r["closed_form"]
    yield f"matrix: {doc.name or doc.matrix.fingerprint()}"
    yield f"checked n = 1..{r['n_max']}"
    if cf["mismatches"]:
        yield f"closed form vs Jacobian determinant: {len(cf['mismatches'])} mismatches"
        yield from (f"  FAIL {m}" for m in cf["mismatches"])
    else:
        yield "closed form vs Jacobian determinant: OK"
    yield from (f"note: {note}" for note in cf["notes"])
    for column, d in r["divisibility"].items():
        good = d["pairs_checked"] - len(d["failures"])
        yield f"divisibility ({column} column): {good}/{d['pairs_checked']} pairs pass"
        yield from (f"  FAIL {n} | {m}" for n, m in d["failures"])
    yield f"result: {'PASS' if r['passed'] else 'FAIL'}"


def _verify_csv(r: dict) -> Iterator[str]:
    yield "closed_form," + ("fail" if r["closed_form"]["mismatches"] else "pass")
    for column, d in r["divisibility"].items():
        yield f"divisibility_{column}," + ("fail" if d["failures"] else "pass")
    yield from (f"note,{note}" for note in r["closed_form"]["notes"])
    yield "result," + ("pass" if r["passed"] else "fail")


def run_verify(doc: MatrixDocument, n_max: int, fmt: str = "text") -> tuple[str, int]:
    """Closed-form and divisibility verification; exit 1 on any hard failure."""
    _check_choice("format", fmt, FORMATS)
    cf = verify_closed_form(doc.matrix, n_max)
    div_reports = {col: verify_divisibility(cf.entries, col) for col in ("jacobian", "reduced")}
    passed = cf.passed and all(r.passed for r in div_reports.values())
    record = {
        "name": doc.name,
        "matrix": [list(row) for row in doc.matrix.entries],
        "n_max": n_max,
        "passed": passed,
        "closed_form": {"mismatches": list(cf.mismatches), "notes": list(cf.notes)},
        "divisibility": {
            col: {
                "pairs_checked": rep.pairs_checked,
                "failures": [[n, m] for n, m in rep.failures],
                "notes": [],  # a divisibility report has none, kept only as a JSON key
            }
            for col, rep in div_reports.items()
        },
    }
    return _render(record, fmt, lambda r: _verify_text(r, doc), _verify_csv), 0 if passed else 1


def run_charpoly(doc: MatrixDocument, fmt: str = "text") -> tuple[str, int]:
    """Render the characteristic polynomial of the input matrix."""
    _check_choice("format", fmt, FORMATS)
    f = char_poly(doc.matrix)
    record = {"dim": doc.matrix.dim, "polynomial": str(f),
              "coefficients": [str(c) for c in f.coefficients]}
    return _render(record, fmt,
                   text=lambda r: [f"characteristic polynomial: {r['polynomial']}",
                                   f"coefficients: [{', '.join(r['coefficients'])}]"],
                   csv=lambda r: [",".join(r["coefficients"])]), 0


def run_jacobian(doc: MatrixDocument, n: int, fmt: str = "text") -> tuple[str, int]:
    """Render the power-map derivative matrix at n and its determinant."""
    _check_choice("format", fmt, FORMATS)
    j = jacobian_power_map(doc.matrix, n)
    record = {"n": n, "dim": j.dim, "entries": [[str(v) for v in row] for row in j.entries],
              "det": str(det_bareiss(j))}
    return _render(record, fmt,
                   text=lambda r: [f"derivative of X -> X^{r['n']} is {r['dim']}x{r['dim']}",
                                   *map(" ".join, r["entries"]), f"det: {r['det']}"],
                   csv=lambda r: [*map(",".join, r["entries"]), f"det,{r['det']}"]), 0


def _read_input(path: str) -> str:
    try:
        if path == "-":  # UTF-8 like a path, whatever the locale; a StringIO is text already
            stdin = getattr(sys.stdin, "buffer", None)
            return sys.stdin.read() if stdin is None else stdin.read().decode("utf-8")
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise MatrixParseError(f"input is not UTF-8 text: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matdivseq",
        description="Determinant divisibility sequences of matrix power maps.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("matrix", help="matrix file (JSON or rows of integers), '-' for stdin")
        p.add_argument("--format", choices=FORMATS, default="text",
                       help="output format (default: text)")

    p_table = sub.add_parser("table", help="sequence values, optionally factorized")
    add_common(p_table)
    p_table.add_argument("--n-max", type=int, default=16,
                         help="largest n to compute (default: 16)")
    p_table.add_argument("--factor", action="store_true",
                         help="attach factorizations")
    p_table.add_argument("--column", choices=COLUMNS, default="reduced",
                         help="value column to print (default: reduced)")

    p_verify = sub.add_parser("verify", help="check closed form and divisibility")
    add_common(p_verify)
    p_verify.add_argument("--n-max", type=int, default=16,
                          help="largest n to check (default: 16)")

    p_charpoly = sub.add_parser("charpoly", help="characteristic polynomial")
    add_common(p_charpoly)

    p_jacobian = sub.add_parser("jacobian", help="power-map derivative matrix and det")
    add_common(p_jacobian)
    p_jacobian.add_argument("--n", type=int, default=2,
                            help="power to differentiate (default: 2)")

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser every :func:`main` call reuses; parsing leaves it unchanged."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        doc = parse_matrix(_read_input(args.matrix))
        if args.command in ("table", "verify") and args.n_max < 1:
            raise MatrixParseError("--n-max must be positive")
        if args.command == "table":
            out, code = run_table(doc, args.n_max, args.format, args.factor, args.column)
        elif args.command == "verify":
            out, code = run_verify(doc, args.n_max, args.format)
        elif args.command == "charpoly":
            out, code = run_charpoly(doc, args.format)
        else:
            if args.n < 1:
                raise MatrixParseError("--n must be positive")
            out, code = run_jacobian(doc, args.n, args.format)
    except (MatrixParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        print(out, flush=True)
    except BrokenPipeError:  # the reader left early, as ``| head`` does
        # Python flushes stdout again at exit; send that flush to devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except UnicodeEncodeError as exc:  # a name stdout's encoding lacks; nothing was written
        print(f"error: stdout cannot encode the output: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    raise SystemExit(main())
