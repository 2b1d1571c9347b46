"""Determinant divisibility sequences of matrix power maps.

For a square integer matrix X of dimension s, the derivative of the power
map X -> X^n is a linear map on matrix space whose determinant d_n forms a
divisibility sequence: n | m implies d_n | d_m. This module computes d_n
three ways and cross-checks them:

* :func:`jacobian_determinant` takes the exact determinant of the
  s^2 x s^2 derivative matrix J_n. Brute force, valid for every integer X.
  :func:`verify_closed_form` takes the same det J_n as
  n^s det(X)^(n-1) det(Skew_n)^2, det(X) taken once from X's rows and
  Skew_n the s(s-1)/2 block of the similar M_n on skew matrices (see
  :func:`~matdivseq.linalg.jacobian_determinants`).
* :func:`closed_form_entry` evaluates ``n^s * det(X)^(n-1) * u_n^2``, u_n
  the generalized Lucas number of the characteristic polynomial f. Valid
  for every integer X, repeated eigenvalues included: J_n equals
  q_n(X^T (x) I, I (x) X), q_n(a, b) = (a^n - b^n)/(a - b), whose two
  arguments commute, and u_n divides by no discriminant. With distinct
  eigenvalues u_n^2 is disc(g_n)/disc(f), g_n the power polynomial.
* :func:`lucas_2x2` is the classical Lucas-sequence form, 2x2 only:
  ``n^2 * det(X)^(n-1) * U_n^2``.

:func:`generate_sequence` builds the closed-form entries of a table,
n = 1..n_max, in one pass; each :class:`SequenceEntry` stores u_n and
derives the columns. :func:`factor_table` factors a column from the
entries alone, through the algebraic split of u_n into primitive parts.
:func:`verify_closed_form` checks the entries against the Jacobian
determinant; :func:`verify_divisibility` counts the pairs n | m and
lists those where d_n does not divide d_m.

An ``n^2`` variant of the closed form (same product but with ``n^2`` in
place of ``n^s``) is derived alongside for comparison; it agrees with the
Jacobian determinant only when s = 2, and verification reports record the
difference as informational rather than as a failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .factorint import Factorization, factorize
from .linalg import IntMatrix, det_bareiss, jacobian_determinants, jacobian_power_map
from .polynomials import char_poly, generalized_lucas


# Each value column of a table, to the SequenceEntry value it prints (d_n / n^s, d_n).
COLUMNS = {"reduced": "reduced", "jacobian": "jacobian_det"}


def _check_choice(name: str, value: str, choices: tuple[str, ...] | dict[str, str]) -> None:
    if value not in choices:
        raise ValueError(f"{name} must be {' or '.join(map(repr, choices))}")


@dataclass(frozen=True)
class SequenceEntry:
    """One row of a table: u_n, signed, with det(X) and the dimension s of X.

    The values derive from them: ``reduced`` = det(X)^(n-1) * u_n^2 =
    d_n / n^s, ``jacobian_det`` = n^s * reduced = d_n, and the n^2 variant
    ``n_squared_value`` = n^2 * reduced; ``zero`` (u_n = 0, or det(X) = 0
    and n > 1) tells that all are 0 without building one. ``fallback_used``
    is always False (every entry comes from the closed form), kept for
    ``perfbench/tracer.py``, which counts it.
    """

    n: int
    u: int
    det_x: int
    s: int
    fallback_used = False  # unannotated: a class constant, not a field

    @property
    def zero(self) -> bool:
        return self.u == 0 or (self.det_x == 0 and self.n > 1)

    @property
    def reduced(self) -> int:
        # det_x ** 0 == 1 even for singular x, so n = 1 is always safe.
        return self.det_x ** (self.n - 1) * self.u * self.u

    @property
    def jacobian_det(self) -> int:
        return self.n ** self.s * self.reduced

    @property
    def n_squared_value(self) -> int:
        return self.n * self.n * self.reduced

    def value(self, column: str) -> int:
        """The value ``column`` prints, by :data:`COLUMNS`; another column raises ValueError."""
        _check_choice("column", column, COLUMNS)
        return getattr(self, COLUMNS[column])


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of closed-form and divisibility verification.

    A divisibility report counts its ``pairs_checked`` and lists its
    ``failures``, the pairs (n, m) that fail in checking order (0 and empty
    for closed-form reports); the caller knows the column it asked for.
    ``mismatches`` are hard failures (the closed form disagreeing with the
    Jacobian determinant); ``notes`` are informational only and never fail
    the report. ``entries`` are the sequence entries that were checked, as
    :func:`generate_sequence` returned them (empty for divisibility reports).
    """

    pairs_checked: int = 0
    failures: tuple[tuple[int, int], ...] = ()
    mismatches: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()
    entries: tuple[SequenceEntry, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.mismatches and not self.failures


def jacobian_determinant(x: IntMatrix, n: int) -> int:
    """Determinant of the power-map derivative, the ground-truth value d_n."""
    return det_bareiss(jacobian_power_map(x, n))


def _closed_forms(x: IntMatrix, ns) -> list[SequenceEntry]:
    f, s = char_poly(x), x.dim
    det_x = (-1) ** s * f.coefficients[-1]
    return [SequenceEntry(n=n, u=u, det_x=det_x, s=s)
            for n, u in zip(ns, generalized_lucas(f, ns))]


def closed_form_entry(x: IntMatrix, n: int) -> SequenceEntry:
    """Compute d_n by the closed form ``n^s * det(X)^(n-1) * u_n^2``.

    The entry is built from the generalized Lucas number u_n, for every
    integer matrix, and never touches the s^2 x s^2 matrix.
    """
    return _closed_forms(x, (n,))[0]


def lucas_2x2(x: IntMatrix, n: int) -> int:
    """d_n for a 2x2 matrix via the Lucas sequence of its trace and determinant.

    U_1 = 1, U_2 = trace, U_k = trace * U_(k-1) - det * U_(k-2), and
    d_n = n^2 * det^(n-1) * U_n^2. Agrees with
    :func:`jacobian_determinant` for every 2x2 integer matrix.
    """
    if x.dim != 2:
        raise ValueError("lucas_2x2 requires a 2x2 matrix")
    if n < 1:
        raise ValueError("n must be positive")
    a = x.trace
    q = det_bareiss(x)
    u_prev, u = 0, 1
    for _ in range(n - 1):
        u_prev, u = u, a * u - q * u_prev
    return n * n * q ** (n - 1) * u * u


def generate_sequence(x: IntMatrix, n_max: int) -> list[SequenceEntry]:
    """Entries for n = 1..n_max.

    Every entry comes from the closed form, one pass of generalized Lucas
    numbers over the table; no Jacobian is built. Pass the entries to
    :func:`factor_table` to factor a column.
    """
    if n_max < 1:
        raise ValueError("n_max must be positive")
    return _closed_forms(x, range(1, n_max + 1))


def factor_table(entries: list[SequenceEntry] | tuple[SequenceEntry, ...],
                 column: str = "reduced") -> list[Factorization]:
    """Factorizations of one column of a table, from its primitive parts.

    Every integer matrix has reduced_n = det(X)^(n-1) * u_n^2, and the
    generalized Lucas number u_n of each entry splits algebraically as
    |u_n| = prod_(k | n, k >= 2) |Psi_k|, where the integer
    Psi_k = prod_(i<j) Phi_k(a_i, a_j) multiplies homogeneous cyclotomic
    values of eigenvalue pairs. So det(X) and each nonzero |Psi_k| are
    factored once per table and merged; the "jacobian" column adds n^s.
    |Psi_n| = |u_n| / prod_(k | n, 1 < k < n) |Psi_k|. ``entries`` must hold
    every divisor of each of their n before that n, as the n = 1..n_max of
    :func:`generate_sequence` do. A divisor missing or listed after n, a
    division that is not exact, or |u_1| other than 1, raises
    ``ArithmeticError``, and entries that disagree on det(X) or s raise
    ``ValueError``. A ``zero`` row factors to 0, no entries to [].
    """
    _check_choice("column", column, COLUMNS)
    if not entries:
        return []
    det_x, s = entries[0].det_x, entries[0].s
    if any((e.det_x, e.s) != (det_x, s) for e in entries):
        raise ValueError("the entries disagree on det(X) or s")
    det_f = factorize(det_x)
    psi: dict[int, int] = {}  # Psi_k for each k >= 2 with u_k != 0
    psi_f: dict[int, Factorization] = {}
    out = []
    for e in entries:
        n = e.n
        if e.zero:
            out.append(Factorization(sign=0))
            continue
        parts = [k for k in range(2, n) if n % k == 0]
        try:
            divisor = prod(psi[k] for k in parts)
        except KeyError as k:
            raise ArithmeticError(f"n={n}: divisor {k} is missing or listed after n") from None
        if e.u % divisor:
            raise ArithmeticError(f"n={n}: |u_n| / Psi is not an exact division")
        q = abs(e.u) // divisor
        if n > 1:
            psi[n], psi_f[n] = q, factorize(q)
            parts.append(n)
        elif q != 1:
            raise ArithmeticError("u_1 is not 1")
        powers = [(det_f, n - 1)] + [(psi_f[k], 2) for k in parts]
        if column == "jacobian":
            powers.append((factorize(n), s))
        out.append(Factorization.product(powers))
    return out


def _divides(a: int, b: int) -> bool:
    # Every integer divides 0; 0 divides only 0.
    if a == 0:
        return b == 0
    return b % a == 0


def verify_divisibility(entries: list[SequenceEntry] | tuple[SequenceEntry, ...],
                        column: str = "reduced") -> VerificationReport:
    """Check d_n | d_m for every pair n | m covered by ``entries``.

    ``column`` selects which value is checked: "reduced" or "jacobian".
    """
    _check_choice("column", column, COLUMNS)
    attr = COLUMNS[column]
    values = {e.n: getattr(e, attr) for e in entries}
    n_max = max(values, default=0)
    pairs_checked, failures = 0, []
    for n in sorted(values):
        ms = [m for m in range(2 * n, n_max + 1, n) if m in values]
        pairs_checked += len(ms)
        failures += [(n, m) for m in ms if not _divides(values[n], values[m])]
    return VerificationReport(pairs_checked=pairs_checked, failures=tuple(failures))


def verify_closed_form(x: IntMatrix, n_max: int) -> VerificationReport:
    """Check the entries of :func:`generate_sequence` against the Jacobian determinant.

    The oracle is det J_n, once per n, for every matrix, from
    :func:`jacobian_determinants`: n^s det(X)^(n-1) det(Skew_n)^2, det(X)
    taken once from X's rows and Skew_n, with determinant u_n, stepped
    through every n by the recurrence that also builds J_n. It never uses
    the characteristic polynomial or u_n.
    A disagreement of the n^s form is a hard mismatch. For dimensions other
    than 2 the n^2 variant's disagreement is expected and recorded as an
    informational note. The report carries the checked entries.
    """
    entries = tuple(generate_sequence(x, n_max))
    mismatches = []
    notes = []  # the n^2 variant's first difference, if any
    for entry, oracle in zip(entries, jacobian_determinants(x, n_max)):
        n = entry.n
        if entry.jacobian_det != oracle:
            mismatches.append(f"n={n}: closed form {entry.jacobian_det} "
                              f"!= Jacobian determinant {oracle}")
        if not notes and entry.n_squared_value != oracle:
            notes.append(f"informational: n^2 variant gives {entry.n_squared_value} "
                         f"at n={n} but the Jacobian determinant is {oracle} "
                         f"(dim {entry.s} carries n^{entry.s})")
    return VerificationReport(mismatches=tuple(mismatches), notes=tuple(notes),
                              entries=entries)
