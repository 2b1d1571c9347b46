"""Correctness checks on the CLI's JSON output, run outside the timed region."""

from __future__ import annotations

import json
from dataclasses import dataclass

from workloads import GOLDEN, Op


class CheckFailed(Exception):
    """The program's output for an op is wrong."""


@dataclass
class Facts:
    """What a correct output tells about the workload's key properties."""

    factorizations: int = 0
    cofactors: int = 0
    max_digits: int = 0
    repeated_reported: bool = False


def _divisibility(column: list[int], label: str) -> None:
    """value(n) | value(m) whenever n | m (0 divides only 0)."""
    for n in range(1, len(column) + 1):
        vn = column[n - 1]
        for m in range(2 * n, len(column) + 1, n):
            vm = column[m - 1]
            if (vm != 0) if vn == 0 else (vm % vn != 0):
                raise CheckFailed(f"{label}({n}) does not divide {label}({m})")


def _factorization_value(f: dict) -> int:
    v = f["sign"]
    for p, e in f["factors"]:
        v *= int(p) ** e
    if f["cofactor"] is not None:
        v *= int(f["cofactor"])
    return v


def check_table(op: Op, doc: dict) -> Facts:
    entries = doc["entries"]
    if [e["n"] for e in entries] != list(range(1, op.n_max + 1)):
        raise CheckFailed(f"expected rows n = 1..{op.n_max}")
    facts = Facts()
    reduced, jacobian = [], []
    for e in entries:
        n = e["n"]
        if e["reduced"] is None:
            raise CheckFailed(f"n={n}: reduced value missing for distinct eigenvalues")
        red, jd = int(e["reduced"]), int(e["jacobian_det"])
        if jd != n ** op.dim * red:
            raise CheckFailed(f"n={n}: jacobian_det != n^{op.dim} * reduced")
        facts.max_digits = max(facts.max_digits, len(e["jacobian_det"].lstrip("-")))
        reduced.append(red)
        jacobian.append(jd)
        f = e.get("factorization")
        if f is not None:
            facts.factorizations += 1
            facts.cofactors += f["cofactor"] is not None
            if _factorization_value(f) != red:
                raise CheckFailed(f"n={n}: factorization does not multiply back")
        golden = GOLDEN.get(op.name, {}).get(n)
        if golden is not None:
            value, factors = golden
            got = None if f is None else tuple((int(p), k) for p, k in f["factors"])
            if red != value or (f is not None and (got != factors or f["cofactor"])):
                raise CheckFailed(f"n={n}: differs from the golden {op.name} table")
    _divisibility(reduced, "reduced")
    _divisibility(jacobian, "jacobian_det")
    return facts


def check_verify(op: Op, doc: dict) -> Facts:
    if doc["passed"] is not True or doc["closed_form"]["mismatches"]:
        raise CheckFailed("verification did not pass")
    pairs = sum(op.n_max // n - 1 for n in range(1, op.n_max + 1))
    if doc["divisibility"]["jacobian"]["pairs_checked"] != pairs:
        raise CheckFailed(f"expected {pairs} divisibility pairs")
    repeated = any("repeated eigenvalue" in note for note in doc["closed_form"]["notes"])
    return Facts(repeated_reported=repeated)


def check_output(op: Op, out: str) -> Facts:
    """Check one op's stdout; raise :class:`CheckFailed` when it is wrong."""
    try:
        doc = json.loads(out)
        return (check_verify if op.command == "verify" else check_table)(op, doc)
    except (ValueError, KeyError, TypeError) as exc:  # malformed output
        raise CheckFailed(f"unreadable output: {type(exc).__name__}: {exc}") from None
