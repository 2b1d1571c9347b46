"""Pure helpers: latency summaries, span self time and failure counting."""

from __future__ import annotations

import statistics
from dataclasses import dataclass

TAIL_BEYOND = 10  # a tail percentile must have at least this many samples beyond it

# CPython refuses int <-> str conversions past 4300 digits by default; the CLI
# renders every value with str(), so long tables end in this ValueError. Only
# the op flagged as hitting it may fail this way.
KNOWN_DEFECT = "integer string conversion"


@dataclass(frozen=True)
class Tail:
    value: float
    percentile: float
    samples: int


def tail(samples: list[float]) -> Tail:
    """The highest percentile with at least TAIL_BEYOND samples beyond it.

    With N samples that is the (N - 10)-th smallest, i.e. percentile
    100 (N - 10) / N; fewer than 11 samples have no such percentile.
    """
    n = len(samples)
    if n <= TAIL_BEYOND:
        raise ValueError(f"need more than {TAIL_BEYOND} samples, got {n}")
    rank = n - TAIL_BEYOND
    return Tail(sorted(samples)[rank - 1], 100.0 * rank / n, n)


def per_op_medians(rounds: list[list[float]]) -> list[float]:
    """Median latency of each op over the rounds (every round runs the same ops)."""
    return [statistics.median(op) for op in zip(*rounds)]


def self_times(spans) -> dict[int, int]:
    """Span id -> duration minus the durations of its direct children.

    ``spans`` are (id, parent, start, end) sequences from one thread, so a
    child always lies inside its parent.
    """
    child = {}
    for sid, parent, start, end in spans:
        if parent is not None:
            child[parent] = child.get(parent, 0) + (end - start)
    return {sid: end - start - child.get(sid, 0) for sid, _parent, start, end in spans}


@dataclass(frozen=True)
class Outcome:
    """How one op ended: ``ok``, ``known-defect``, ``raised``, ``exit-code`` or ``check``."""

    kind: str
    detail: str = ""

    @property
    def failed(self) -> bool:
        return self.kind != "ok"

    @property
    def unexpected(self) -> bool:
        """A failure that is not the recorded known defect: the run is not correct."""
        return self.failed and self.kind != "known-defect"


def outcome_of(code, exc: BaseException | None, known_defect: bool = False) -> Outcome:
    """Classify a finished ``main`` call by its exit code or exception.

    ``known_defect`` marks the op that is expected to hit the int-to-str
    limit; the same error from any other op is an unexpected failure.
    """
    if exc is not None:
        if known_defect and isinstance(exc, ValueError) and KNOWN_DEFECT in str(exc):
            return Outcome("known-defect", str(exc).splitlines()[0])
        return Outcome("raised", f"{type(exc).__name__}: {exc}")
    if code != 0:
        return Outcome("exit-code", f"exit {code}, expected 0")
    return Outcome("ok")


def count_failures(outcomes: list[Outcome]) -> tuple[int, int, int]:
    """(attempted, failed, unexpected) over a list of op outcomes."""
    failed = sum(o.failed for o in outcomes)
    return len(outcomes), failed, sum(o.unexpected for o in outcomes)
