"""Tests of the benchmark's own logic: python3 -m pytest perfbench"""

import json
import sys
import threading
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import stats  # noqa: E402
from checks import CheckFailed, check_output  # noqa: E402
from run import PROBE_REFERENCE_S, TAIL_ROUNDS, Runner, summary  # noqa: E402
from tracer import Tracer, decimal_digits, layer_metrics  # noqa: E402
from workloads import X3, Op, build_ops, char_poly, squarefree  # noqa: E402

DEFECT = ValueError("Exceeds the limit (4300 digits) for integer string conversion; "
                    "use sys.set_int_max_str_digits() to increase the limit")


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    t = stats.tail([float(v) for v in range(20, 0, -1)])
    assert (t.value, t.percentile, t.samples) == (10.0, 50.0, 20)
    t = stats.tail(list(range(100)))
    assert (t.value, t.percentile, t.samples) == (89, 90.0, 100)
    assert stats.tail(list(range(11))).value == 0
    with pytest.raises(ValueError):
        stats.tail(list(range(10)))


def test_per_op_medians_take_each_op_across_rounds():
    assert stats.per_op_medians([[1, 10], [3, 30], [2, 20]]) == [2, 20]


def test_self_time_subtracts_direct_children_only():
    spans = [(0, None, 0, 100), (1, 0, 10, 40), (2, 1, 15, 25), (3, 0, 50, 90)]
    assert stats.self_times(spans) == {0: 30, 1: 20, 2: 10, 3: 40}


def test_outcomes_separate_the_known_defect_from_other_failures():
    assert not stats.outcome_of(0, None).failed
    known = stats.outcome_of(None, DEFECT, known_defect=True)
    assert known.failed and not known.unexpected
    assert stats.outcome_of(None, ValueError("other"), known_defect=True).unexpected
    assert stats.outcome_of(1, None).kind == "exit-code"
    outcomes = [stats.outcome_of(0, None), known, stats.outcome_of(2, None)]
    assert stats.count_failures(outcomes) == (3, 2, 1)
    assert stats.outcome_of(None, DEFECT).kind == "raised"  # op not flagged


def test_exactly_one_table_wide_op_is_flagged_as_the_known_defect():
    flagged = [op for op in build_ops("table-wide", 1) if op.known_defect]
    assert [(op.dim, op.n_max) for op in flagged] == [(8, 128)]


X3_TWO_ROWS = {"entries": [
    {"n": 1, "reduced": "1", "jacobian_det": "1",
     "factorization": {"sign": 1, "factors": [], "cofactor": None}},
    {"n": 2, "reduced": "100", "jacobian_det": "800",
     "factorization": {"sign": 1, "factors": [["2", 2], ["5", 2]], "cofactor": None}},
]}
X3_OP = Op("X3", "table", X3, 2, ("--factor", "--format", "json"))


def test_check_table_accepts_golden_rows_and_rejects_wrong_ones():
    assert check_output(X3_OP, json.dumps(X3_TWO_ROWS)).factorizations == 2
    not_golden = {"reduced": "99", "jacobian_det": "792",
                  "factorization": {"sign": 1, "factors": [["3", 2], ["11", 1]],
                                    "cofactor": None}}
    for change, message in (({"jacobian_det": "400"}, "jacobian_det"),
                            ({"factorization": {"sign": 1, "factors": [["2", 2], ["5", 1]],
                                                "cofactor": None}}, "multiply back"),
                            (not_golden, "golden")):
        doc = json.loads(json.dumps(X3_TWO_ROWS))
        doc["entries"][1].update(change)
        with pytest.raises(CheckFailed, match=message):
            check_output(X3_OP, json.dumps(doc))
    with pytest.raises(CheckFailed, match="unreadable"):
        check_output(X3_OP, "Traceback")


def test_check_table_catches_divisibility_failures():
    op = Op("m", "table", ((1, 0), (0, 2)), 2, ("--format", "json"))
    doc = {"entries": [{"n": 1, "reduced": "3", "jacobian_det": "3"},
                       {"n": 2, "reduced": "4", "jacobian_det": "16"}]}
    with pytest.raises(CheckFailed, match="divide"):
        check_output(op, json.dumps(doc))


def _fake_cli(behaviour):
    """A stand-in for matdivseq.cli whose main() follows ``behaviour[path]``."""
    def main(argv):
        action = behaviour[argv[1]]
        if isinstance(action, Exception):
            raise action
        if isinstance(action, int):
            return action
        print(action)
        return 0
    return SimpleNamespace(main=main)


def test_runner_counts_failed_ops_over_every_round():
    ops = [X3_OP, replace(X3_OP, known_defect=True), X3_OP, X3_OP, X3_OP]
    paths = ["good", "defect", "exit", "wrong", "other-defect"]
    wrong = json.loads(json.dumps(X3_TWO_ROWS))
    wrong["entries"][1]["reduced"] = "7"
    behaviour = {"good": json.dumps(X3_TWO_ROWS), "defect": DEFECT, "exit": 1,
                 "wrong": json.dumps(wrong), "other-defect": DEFECT}
    runner = Runner(_fake_cli(behaviour), ops, paths)
    runner.round()
    behaviour["good"] = json.dumps(X3_TWO_ROWS, indent=1)  # round 2 output changes
    runner.round()
    outcomes = runner.check()
    assert [o.kind for o in outcomes] == [
        "ok", "known-defect", "exit-code", "check", "raised",
        "check", "known-defect", "exit-code", "check", "raised"]
    assert stats.count_failures(outcomes) == (10, 9, 7)


def test_op_tail_is_taken_over_every_latency_of_the_first_rounds():
    ops = [X3_OP] * 22
    runner = Runner(_fake_cli({"doc": json.dumps(X3_TWO_ROWS)}), ops, ["doc"] * 22)
    runner.round()
    runner.check()
    # Rounds past TAIL_ROUNDS are ten times slower and must not reach the tail.
    runner.latencies = ([[float(i + 22 * r) for i in range(22)] for r in range(TAIL_ROUNDS)]
                        + [[1e3] * 22] * 4)
    runner.probes = [PROBE_REFERENCE_S] * 22 * len(runner.latencies)
    outcomes = [stats.Outcome("ok")] * 22 * len(runner.latencies)
    metrics, lines = summary(runner, outcomes, 1.0)
    samples = 22 * TAIL_ROUNDS
    assert metrics["op_tail_s"] == samples - stats.TAIL_BEYOND - 1
    assert f"p{100 * (samples - 10) / samples:.1f} of the {samples} op latencies" in lines[1]


def test_runner_flags_cpu_spent_in_other_threads():
    def main(argv):
        worker = threading.Thread(target=lambda: sum(range(3_000_000)))
        worker.start()
        worker.join()
        print(json.dumps(X3_TWO_ROWS))
        return 0

    runner = Runner(SimpleNamespace(main=main), [X3_OP], ["doc"])
    runner.round()
    assert "other threads" in runner.concurrency()
    quiet = Runner(_fake_cli({"doc": json.dumps(X3_TWO_ROWS)}), [X3_OP], ["doc"])
    quiet.round()
    assert quiet.concurrency() is None


def test_runner_scales_cpu_time_by_the_median_speed_probe():
    runner = Runner(_fake_cli({"doc": json.dumps(X3_TWO_ROWS)}), [X3_OP], ["doc"])
    runner.round()
    assert len(runner.probes) == 1 and runner.probes[0] > 0
    runner.probes = [0.002, 0.001, 0.001]
    assert runner.scale() == pytest.approx(PROBE_REFERENCE_S / 0.001)


def test_each_op_is_scaled_by_the_probes_around_it():
    runner = Runner(_fake_cli({}), [X3_OP], ["doc"])
    runner.latencies = [[1.0]] * 30
    runner.probes = [2 * PROBE_REFERENCE_S] * 15 + [PROBE_REFERENCE_S] * 15  # host speeds up
    scaled = [lat[0] for lat in runner.scaled_latencies()]
    assert scaled[0] == pytest.approx(0.5)
    assert scaled[-1] == pytest.approx(1.0)


def test_tracer_spans_cover_the_op_and_uninstall_restores():
    import matdivseq.cli as cli
    import matdivseq.sequences as sequences

    original = sequences.factorize
    tracer = Tracer()
    tracer.install()
    try:
        assert sequences.factorize is not original
        tracer.op = 0
        _out, code = cli.run_table(cli.parse_matrix(json.dumps({"matrix": X3})), 6,
                                  "json", factor=True)
    finally:
        tracer.uninstall()
    assert sequences.factorize is original and code == 0
    m = layer_metrics(tracer.spans)
    assert m["factorint.factorize_calls"] == 6 and m["sequences.entries"] == 6
    assert m["polynomials.char_poly_calls"] == 1
    assert m["sequences.closed_form_evals_per_entry"] == 1.0
    roots = sum(s[5] - s[4] for s in tracer.spans if s[1] is None)
    layers = sum(m[f"{layer}.self_s"] for layer in
                 ("cli", "sequences", "polynomials", "linalg", "factorint"))
    assert layers == pytest.approx(roots / 1e9)


def test_decimal_digits_is_exact_past_the_str_limit():
    for v in (0, 9, 10, 99, 100, -12345, 2 ** 64):
        assert decimal_digits(v) == len(str(abs(v)))
    assert decimal_digits(10 ** 5000 - 1) == 5000
    assert decimal_digits(10 ** 5000) == 5001


def test_inputs_depend_only_on_the_seed():
    assert build_ops("verify-sweep", 3) == build_ops("verify-sweep", 3)
    assert build_ops("verify-sweep", 3) != build_ops("verify-sweep", 4)
    ops = build_ops("verify-sweep", 3)
    assert sum(op.repeated for op in ops) * 4 == len(ops)
    for op in ops:
        assert squarefree(char_poly(op.matrix)) != op.repeated


def test_relabelling_keeps_the_spectrum_and_the_entries():
    for a, b in zip(build_ops("table-factor", 1), build_ops("table-factor", 2)):
        assert char_poly(a.matrix) == char_poly(b.matrix)
        assert sorted(abs(v) for row in a.matrix for v in row) == \
            sorted(abs(v) for row in b.matrix for v in row)
