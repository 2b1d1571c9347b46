"""matdivseq benchmark: closed-loop CLI workloads, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload table-factor --seed 1 --seconds 20 --trace 0

One client in one process, no extra threads: each op is one in-process
``matdivseq.cli.main(argv)`` call with stdout captured, and the next op
starts when it returns. A round runs every op of the workload once; the
run repeats whole rounds until ``--seconds`` of wall time have passed and
at least TAIL_ROUNDS rounds have run, so every round sees the same inputs
and every count repeats exactly.

Times are process CPU seconds (``time.process_time``), scaled to a
reference host speed. The program is single-threaded and CPU-bound, so
its CPU time is its latency minus the time other tenants held the CPU;
that alone made identical runs spread three to four times less than wall
clock. The host's speed itself still drifted by up to 50% between
minutes and even within a run, so after every op the run also times a
fixed pure-Python loop (the speed probe) and multiplies each op's time by
PROBE_REFERENCE_S / the median probe of the ops around it: times read as
if the probe took 0.5 ms. If the program ever spends CPU in other
threads or child processes the run fails, because CPU time would then no
longer be its latency.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced rounds for the same time and reports the per-layer
metrics of ``tracer.py`` (medians over traced rounds) plus the tracing
overhead (median traced round minus median untraced round). The last stdout line is one JSON object; the lines before it
say the same for a reader. Exit 0 when every output checked correct,
1 when one did not or the program ran concurrently, 2 when the program
under test is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import stats
from checks import CheckFailed, Facts, check_output
from tracer import LAYER_METRICS, Tracer, factorize_inputs, layer_metrics
from workloads import WORKLOADS, Op, build_ops

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_run"
SETUP_REPEATS = 30  # setup_s is the median of this many set-ups
TAIL_ROUNDS = 3  # op_tail_s is taken over every op latency of the first rounds
RHO_REPEATS = 3  # untraced timings of factorize with and without rho
PROBE_REFERENCE_S = 0.0005  # probe CPU time that times are scaled to
# An op's time is scaled by the probes of the ops within this many places of
# it: one probe alone is too noisy, and the run's median probe misses drift
# within the run. Over ten seeds per workload, scaling by the run's median
# spread verify-sweep's op_tail_s 0.26; windows of 2-8 kept every op metric
# below 0.1.
PROBE_WINDOW = 4


def fresh_import():
    """Import matdivseq.cli from this checkout's src/, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "matdivseq" or n.startswith("matdivseq.")]:
        del sys.modules[name]
    cli = importlib.import_module("matdivseq.cli")
    if Path(cli.__file__).resolve().parent != (SRC / "matdivseq").resolve():
        raise ImportError(f"matdivseq imported from {cli.__file__}, not from {SRC}")
    return cli


def write_docs(ops: list[Op], directory: Path) -> list[str]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, op in enumerate(ops):
        path = directory / f"{i:02d}-{op.name}.json"
        path.write_text(json.dumps({"matrix": [list(r) for r in op.matrix], "name": op.name}),
                        encoding="utf-8")
        paths.append(str(path))
    return paths


def _cpu_clocks() -> tuple[float, float, float]:
    """CPU seconds of this process, of this thread, and of waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time(), time.thread_time(), children.ru_utime + children.ru_stime


def probe() -> float:
    """CPU seconds of a fixed pure-Python integer loop: the host's current speed."""
    start = time.process_time()
    m, acc = 10 ** 60 + 7, 0
    for p in range(3, 6001, 2):
        acc += m % p
        acc ^= p * p
    return time.process_time() - start


def call(cli, argv: list[str]) -> tuple[float, float, object, BaseException | None, str]:
    """One op: (CPU s, CPU s spent off this thread, exit code, exception, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    code, exc = None, None
    cpu0 = _cpu_clocks()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as e:  # argparse rejects its arguments this way
        code = e.code
    except Exception as e:  # any other exception of the program is a failed op
        exc = e
    proc, thread, children = (b - a for a, b in zip(cpu0, _cpu_clocks()))
    return proc, proc - thread + children, code, exc, out.getvalue()


def speed_scale(probes: list[float]) -> float:
    """Factor that turns CPU seconds measured beside ``probes`` into reference-host seconds."""
    return PROBE_REFERENCE_S / statistics.median(probes)


def locally_scaled(times: list[float], probes: list[float]) -> list[float]:
    """Each of ``times`` scaled by the probes within PROBE_WINDOW places of its own."""
    w = PROBE_WINDOW
    return [t * speed_scale(probes[max(0, k - w):k + w + 1]) for k, t in enumerate(times)]


class Runner:
    """Runs rounds of one workload's ops; round 1's outputs are checked, later
    rounds must reproduce them byte for byte."""

    def __init__(self, cli, ops: list[Op], paths: list[str]):
        self.cli, self.ops, self.paths = cli, ops, paths
        self.first: list[tuple] = []  # round 1: (exit code, exception text, stdout) per op
        self.same: list[list[bool]] = []  # later rounds: output equal to round 1, per op
        self.latencies: list[list[float]] = []  # CPU s per op, per round
        self.probes: list[float] = []  # one speed probe after every op
        self.off_thread = 0.0
        self.output_bytes = 0
        self.first_outcomes: list[stats.Outcome] = []
        self.facts: list[Facts | None] = []

    def round(self, on_op=None) -> None:
        """Run every op once."""
        lat, same = [], []
        for i, (op, path) in enumerate(zip(self.ops, self.paths)):
            if on_op is not None:
                on_op(i)
            cpu, off_thread, code, exc, out = call(self.cli, op.argv(path))
            lat.append(cpu)
            self.probes.append(probe())
            self.off_thread += off_thread
            self.output_bytes += len(out)
            seen = (code, None if exc is None else f"{type(exc).__name__}: {exc}", out)
            if len(self.first) < len(self.ops):
                self.first.append(seen)
                self.first_outcomes.append(stats.outcome_of(code, exc, op.known_defect))
            else:
                same.append(seen == self.first[i])
        if self.latencies:
            self.same.append(same)
        self.latencies.append(lat)

    def check(self) -> list[stats.Outcome]:
        """Check round 1's outputs; return the outcome of every op run."""
        for i, (op, (_code, _exc, out)) in enumerate(zip(self.ops, self.first)):
            facts = None
            if not self.first_outcomes[i].failed:
                try:
                    facts = check_output(op, out)
                except CheckFailed as exc:
                    self.first_outcomes[i] = stats.Outcome("check", f"{op.name}: {exc}")
            self.facts.append(facts)
        outcomes = list(self.first_outcomes)
        for same in self.same:
            outcomes += [o if s else stats.Outcome("check", f"{op.name}: output differs"
                                                   " from the first round")
                         for o, s, op in zip(self.first_outcomes, same, self.ops)]
        return outcomes

    def scale(self) -> float:
        """Factor that turns this run's CPU seconds into reference-host seconds."""
        return speed_scale(self.probes)

    def scaled_latencies(self) -> list[list[float]]:
        """Each op's CPU seconds, scaled by the probes around it."""
        n = len(self.ops)
        flat = locally_scaled([t for lat in self.latencies for t in lat], self.probes)
        return [flat[i:i + n] for i in range(0, len(flat), n)]

    def concurrency(self) -> str | None:
        """Why CPU time is not the op latency, or None when it is."""
        busy = sum(map(sum, self.latencies))
        # The two clocks are read a moment apart, so allow a little noise.
        if self.off_thread > max(0.01 * busy, 0.01):
            return (f"the program spent {self.off_thread:.3f} s of CPU in other threads or"
                    f" child processes ({busy:.3f} s in all)")
        return None


def summary(runner: Runner, outcomes: list[stats.Outcome], peak_rss_mb: float
            ) -> tuple[dict, list[str]]:
    """End-to-end metrics and the lines that explain them."""
    ops, rounds = runner.ops, len(runner.latencies)
    latencies = runner.scaled_latencies()
    medians = stats.per_op_medians(latencies)
    # A fixed number of rounds, so the percentile stays put when a faster
    # program fits more rounds into the run.
    tail = stats.tail([t for r in latencies[:TAIL_ROUNDS] for t in r])
    entries = sum(op.n_max for op, o in zip(ops * rounds, outcomes) if not o.failed)
    busy = sum(map(sum, runner.latencies))
    facts = [f for f in runner.facts if f is not None]
    factorizations = sum(f.factorizations for f in facts)
    cofactors = sum(f.cofactors for f in facts)
    attempted, failed, _ = stats.count_failures(outcomes)
    metrics = {
        "entries_per_s": entries / sum(map(sum, latencies)),
        "op_p50_s": statistics.median(medians),
        "op_tail_s": tail.value,
        "peak_rss_mb": peak_rss_mb,
    }
    lines = [
        f"rounds {rounds} x {len(ops)} ops: {busy:.3f} CPU s inside main()",
        f"op_tail_s is p{tail.percentile:.1f} of the {tail.samples} op latencies of the first"
        f" {TAIL_ROUNDS} rounds ({stats.TAIL_BEYOND} ops beyond it)",
        f"speed probe median {statistics.median(runner.probes) * 1e3:.4f} ms:"
        f" times below are CPU s x about {runner.scale():.4f}",
        f"failed_frac {failed}/{attempted} = {failed / attempted:.4f}",
        f"cofactor_frac {cofactors}/{factorizations} factorizations per round"
        + (f" = {cofactors / factorizations:.4f}" if factorizations else ""),
        f"largest rendered value {max((f.max_digits for f in facts), default=0)} digits",
    ]
    if any(op.command == "verify" for op in ops):
        reported = sum(f.repeated_reported for f in facts)
        lines.append(f"repeated-eigenvalue ops {reported}/{len(ops)} per round"
                     f" (built: {sum(op.repeated for op in ops)})")
    return metrics, lines


def untraced_factorize(values: list[int]) -> tuple[float, float]:
    """Median CPU s of factorize over ``values`` with and without rho, untraced."""
    if not values:  # the workload never factors
        return 0.0, 0.0
    factorize = sys.modules["matdivseq.factorint"].factorize
    full, no_rho = [], []
    for _ in range(RHO_REPEATS):
        for times, kwargs in ((full, {}), (no_rho, {"rho_steps": 0})):
            t0 = time.process_time()
            for v in values:
                factorize(v, **kwargs)
            times.append(time.process_time() - t0)
    return statistics.median(full), statistics.median(no_rho)


def traced_run(runner: Runner, seconds: float, spans_path: Path) -> tuple[dict, list[str]]:
    """Alternate untraced and traced rounds; per-layer metrics are traced-round medians."""
    tracer = Tracer()
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        runner.round()
        tracer.install()
        try:
            runner.round(on_op=lambda i: setattr(tracer, "op", i))
        finally:
            tracer.uninstall()
        rounds.append(layer_metrics(tracer.spans))
        if len(rounds) == 1:
            tracer.write(spans_path)
            values = factorize_inputs(tracer.spans)
        tracer.spans.clear()
    metrics = {k: statistics.median_low(r[k] for r in rounds) for k in LAYER_METRICS}
    full, no_rho = untraced_factorize(values)
    metrics["factorint.no_rho_s"] = no_rho
    metrics["factorint.rho_est_s"] = full - no_rho
    scale = runner.scale()
    metrics = {k: v * scale if k.endswith("_s") else v for k, v in metrics.items()}
    totals = [sum(r) for r in runner.scaled_latencies()]  # untraced and traced alternate
    plain, traced = statistics.median(totals[0::2]), statistics.median(totals[1::2])
    metrics["trace.overhead_s"] = traced - plain
    metrics["cli.output_bytes"] = runner.output_bytes // len(runner.latencies)
    lines = [f"rounds {len(rounds)} untraced + {len(rounds)} traced x {len(runner.ops)} ops",
             f"untraced round {plain:.3f} s, traced round {traced:.3f} s"
             " (medians, scaled like the end-to-end times)",
             f"speed probe median {statistics.median(runner.probes) * 1e3:.4f} ms:"
             f" times below are CPU s x {scale:.4f}",
             f"rho_est_s = untraced factorize {full:.3f} CPU s - no_rho_s, an estimate"
             f" (medians of {RHO_REPEATS})",
             f"spans of the first traced round: {spans_path}"]
    return metrics, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "matdivseq" / "cli.py").is_file():
        print(f"error: no matdivseq sources under {SRC}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, str(SRC))
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    setup, setup_probes = [], []
    try:
        for _ in range(SETUP_REPEATS):
            gc.collect()  # each set-up starts from a collected heap
            t0 = time.process_time()
            cli = fresh_import()
            ops = build_ops(args.workload, args.seed)
            paths = write_docs(ops, work)
            setup.append(time.process_time() - t0)
            setup_probes.append(probe())
        call(cli, ["charpoly", paths[0], "--format", "json"])  # warm-up
        runner = Runner(cli, ops, paths)
        if args.trace:
            metrics, lines = traced_run(
                runner, args.seconds, WORK / f"spans-{args.workload}-{args.seed}.jsonl")
            wanted = spec["per_layer"]
        else:
            start = time.perf_counter()
            while (len(runner.latencies) < TAIL_ROUNDS
                   or time.perf_counter() - start < args.seconds):
                runner.round()
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            wanted = spec["end_to_end"]
        outcomes = runner.check()
        if not args.trace:
            metrics, lines = summary(runner, outcomes, peak_rss_mb)
            metrics["setup_s"] = statistics.median(locally_scaled(setup, setup_probes))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    concurrent = runner.concurrency()
    if concurrent:
        print(f"error: {concurrent}; CPU time no longer measures op latency", file=sys.stderr)
        return 1
    attempted, failed, unexpected = stats.count_failures(outcomes)
    print(f"workload {args.workload} seed {args.seed}: {attempted} ops attempted, "
          f"{failed} failed, {unexpected} not the known int-to-str defect")
    for o in {o.detail: o for o in outcomes if o.failed}.values():
        print(f"  failed op ({o.kind}): {o.detail}")
    for line in lines:
        print(line)
    units = {m["name"]: m["unit"] for m in wanted}
    if set(units) != set(metrics):
        print(f"error: metrics {sorted(set(units) ^ set(metrics))} disagree with"
              " BENCHMARK.json", file=sys.stderr)
        return 1
    for m in wanted:
        print(f"{m['name']} {metrics[m['name']]:.6g} {m['unit']}")
    print(json.dumps({
        "correct": unexpected == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if unexpected == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
