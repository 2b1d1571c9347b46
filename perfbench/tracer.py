"""Span tracing of the five matdivseq layers, from outside the package.

The tracer replaces every public function of ``cli``, ``sequences``,
``polynomials``, ``linalg`` and ``factorint`` with a wrapper that records a
span, in every ``matdivseq`` module that binds it, plus
``IntMatrix.__post_init__`` (matrix validation). Nothing under ``src/`` is
edited; :meth:`Tracer.uninstall` puts the originals back.

A span is ``[id, parent, op, name, start_ns, end_ns, attr]`` with process CPU
nanoseconds (the same clock as the end-to-end times); ids are list
indices, ``parent`` is the span open when it started, ``op`` is the op it
belongs to and ``attr`` holds what the per-layer metrics need from the
call's arguments or result.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

from stats import self_times

LAYERS = ("cli", "sequences", "polynomials", "linalg", "factorint")
INTMATRIX_SPAN = "linalg.IntMatrix"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def decimal_digits(v: int) -> int:
    """Number of decimal digits of |v|, without str() and its 4300-digit limit."""
    v = abs(v)
    if v == 0:
        return 1
    d = int(v.bit_length() * 0.30102999566398120) + 1  # never below the true count
    return d if v >= 10 ** (d - 1) else d - 1


# What each span keeps from its call: (args, kwargs, result) -> attr.
OBSERVERS = {
    "linalg.det_bareiss": lambda a, k, r: _arg(a, k, 0, "a").dim,
    "factorint.factorize": lambda a, k, r: (_arg(a, k, 0, "n"), r.cofactor is None),
    "sequences.generate_sequence": lambda a, k, r: (
        len(r), sum(e.fallback_used for e in r),
        max((decimal_digits(e.jacobian_det) for e in r), default=0)),
    "sequences.jacobian_determinant": lambda a, k, r: _arg(a, k, 1, "n"),
    "polynomials.power_polynomial": lambda a, k, r: _arg(a, k, 1, "n"),
    "polynomials.power_sums": lambda a, k, r: _arg(a, k, 1, "count") + 1,
}


class Tracer:
    """Records spans while installed; :attr:`op` tags the spans of the current op."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.process_time_ns
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else None, self.op, name, 0, 0, None]
            spans.append(span)
            stack.append(span[0])
            span[4] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = clock()
                stack.pop()
            if observe is not None:
                span[6] = observe(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"matdivseq.{layer}"]
            for name, obj in vars(module).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "matdivseq" and not mod_name.startswith("matdivseq."):
                continue
            for attr, value in list(vars(module).items()):
                original, wrapper = wrappers.get(id(value), (None, None))
                if original is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)
        int_matrix = sys.modules["matdivseq.linalg"].IntMatrix
        post_init = int_matrix.__dict__.get("__post_init__")
        if post_init is not None:
            self._patches.append((int_matrix, "__post_init__", post_init))
            int_matrix.__post_init__ = self._wrap(INTMATRIX_SPAN, post_init)

    def uninstall(self) -> None:
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    def write(self, path) -> None:
        """Write the recorded spans, without their attrs, as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, op, name, start, end, _attr in self.spans:
                fh.write(json.dumps([sid, parent, op, name, start, end]) + "\n")


# Per-layer metric names, in report order. Times are seconds of span time.
LAYER_METRICS = (
    "factorint.factorize_s", "factorint.factorize_calls", "factorint.input_digits",
    "factorint.is_prime_s", "factorint.is_prime_calls", "factorint.complete_ratio",
    "linalg.jacobian_build_s", "linalg.jacobian_builds", "linalg.kronecker_products",
    "linalg.bareiss_jacobian_s", "linalg.intmatrix_built", "linalg.intmatrix_validate_s",
    "linalg.mat_mul_calls", "linalg.bareiss_sylvester_s", "linalg.bareiss_updates",
    "polynomials.discriminant_s", "polynomials.discriminant_calls",
    "polynomials.power_polynomial_s", "polynomials.power_sums_terms",
    "polynomials.char_poly_s", "polynomials.char_poly_calls",
    "sequences.self_s", "sequences.entries", "sequences.fallback_entries",
    "sequences.max_value_digits", "sequences.closed_form_evals_per_entry",
    "sequences.jacobian_dets_per_entry",
    "cli.parse_s", "cli.render_s",
    "cli.self_s", "polynomials.self_s", "linalg.self_s", "factorint.self_s",
)

_TIMED = {  # span name -> (time metric, call-count metric or None)
    "factorint.factorize": ("factorint.factorize_s", "factorint.factorize_calls"),
    "factorint.is_prime": ("factorint.is_prime_s", "factorint.is_prime_calls"),
    "linalg.jacobian_power_map": ("linalg.jacobian_build_s", "linalg.jacobian_builds"),
    INTMATRIX_SPAN: ("linalg.intmatrix_validate_s", "linalg.intmatrix_built"),
    "polynomials.discriminant": ("polynomials.discriminant_s", "polynomials.discriminant_calls"),
    "polynomials.power_polynomial": ("polynomials.power_polynomial_s", None),
    "polynomials.char_poly": ("polynomials.char_poly_s", "polynomials.char_poly_calls"),
    "cli.parse_matrix": ("cli.parse_s", None),
}
_COUNTED = {"linalg.kronecker": "linalg.kronecker_products",
            "linalg.mat_mul": "linalg.mat_mul_calls"}


def _per_pair(counter: Counter) -> float:
    """Evaluations per distinct (op, n) pair that had any; 0 when none did."""
    return sum(counter.values()) / len(counter) if counter else 0.0


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Aggregate one traced round's spans into the per-layer metrics."""
    m: dict[str, float] = dict.fromkeys(LAYER_METRICS, 0)
    selfs = self_times([(s[0], s[1], s[4], s[5]) for s in spans])
    closed_form, jacobian = Counter(), Counter()
    complete = 0
    layer_self = defaultdict(int)
    for sid, parent, op, name, start, end, attr in spans:
        dur = (end - start) / 1e9
        layer_self[name.split(".", 1)[0]] += selfs[sid]
        if name in _TIMED:
            time_key, count_key = _TIMED[name]
            m[time_key] += dur
            if count_key:
                m[count_key] += 1
        elif name in _COUNTED:
            m[_COUNTED[name]] += 1
        elif name.startswith("cli.run_"):
            m["cli.render_s"] += selfs[sid] / 1e9
        if attr is None:
            continue
        if name == "linalg.det_bareiss":
            m["linalg.bareiss_updates"] += (attr - 1) * attr * (2 * attr - 1) // 6
            caller = spans[parent][3] if parent is not None else ""
            key = ("linalg.bareiss_sylvester_s" if caller.startswith("polynomials.")
                   else "linalg.bareiss_jacobian_s")
            m[key] += dur
        elif name == "factorint.factorize":
            m["factorint.input_digits"] += decimal_digits(attr[0])
            complete += attr[1]
        elif name == "sequences.generate_sequence":
            m["sequences.entries"] += attr[0]
            m["sequences.fallback_entries"] += attr[1]
            m["sequences.max_value_digits"] = max(m["sequences.max_value_digits"], attr[2])
        elif name == "sequences.jacobian_determinant":
            jacobian[op, attr] += 1
        elif name == "polynomials.power_polynomial":
            closed_form[op, attr] += 1
        elif name == "polynomials.power_sums":
            m["polynomials.power_sums_terms"] += attr
    if m["factorint.factorize_calls"]:
        m["factorint.complete_ratio"] = complete / m["factorint.factorize_calls"]
    m["sequences.closed_form_evals_per_entry"] = _per_pair(closed_form)
    m["sequences.jacobian_dets_per_entry"] = _per_pair(jacobian)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer] / 1e9
    return m


def factorize_inputs(spans: list[list]) -> list[int]:
    """The values passed to ``factorize`` in one traced round, in call order."""
    return [s[6][0] for s in spans if s[3] == "factorint.factorize" and s[6] is not None]
