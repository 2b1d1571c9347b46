"""Byte-identity corpus of the matdivseq command line.

Each call is one in-process ``matdivseq.cli.main(argv)`` call that reads its
matrix document from stdin. ``corpus_expected.json`` beside this file holds,
for every call, one sha256 each of its stdout, its stderr, its exit code and
the text of the exception it raised, and the full text of the short outputs
so that a failing comparison can show a diff.

The calls:

* ``table`` in text, csv and json, for both columns, with and without
  ``--factor``, and ``verify``, ``charpoly`` and ``jacobian`` in all three
  formats, on the matrices of :data:`MATRICES`;
* :data:`CI_CALLS`, the calls that CI's console-script step used to pin
  by hand, on X3, X4, the Jordan block, the 5x5 and the 6x6;
* calls that exit 2: malformed documents, bad arguments and a missing file;
* every op of the three benchmark workloads of ``perfbench/workloads.py`` at
  seeds 1 and 2, the known-defect op with its exception text.

Compare the outputs with the expected file, with no pytest needed, from the
repository root:

    PYTHONPATH=src python3 -m tests.corpus

It prints how many calls match out of the file's total and the key of each
call that differs, and exits 1 if any does. Regenerate the expected file,
only for an intended output change, with:

    PYTHONPATH=src python3 -m tests.corpus --write
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import sys
from pathlib import Path
from unittest import mock

from matdivseq import cli

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "corpus_expected.json"
WORKLOADS_PY = HERE.parent / "perfbench" / "workloads.py"
WORKLOAD_SEEDS = (1, 2)
SHORT = 80  # the full text is kept when stdout, stderr and exception text together are this short

JORDAN_CONJUGATE = [[5, 1, -5, -2], [0, 1, 0, 0], [2, 0, -1, -1], [6, 2, -9, -2]]
X5 = [[1, -1, 0, 2, 0], [0, 1, 1, -1, 1], [2, 0, -1, 0, 1], [-1, 1, 0, 1, 0],
      [0, 2, 1, 0, -1]]
X6 = [[1, -2, 0, 3, -1, 2], [0, 1, 3, -2, 1, 0], [-1, 0, 1, 2, 0, -3],
      [2, 1, 0, -1, 3, 1], [0, -3, 1, 1, -2, 2], [1, 2, -2, 0, 1, -1]]

# (label, document, table n_max, verify n_max, jacobian n). The 6x6's table
# stops at n = 4: factoring its Psi_5 takes most of a second.
MATRICES = (
    ("X3", {"matrix": [[1, -2, -6], [0, 1, 3], [-1, 0, 1]], "name": "X3"}, 16, 16, 3),
    ("X4", {"matrix": [[-1, 2, 4, -1], [0, 1, -2, 2], [-1, 0, -1, 0], [0, 1, 0, 1]],
            "name": "X4"}, 16, 16, 3),
    ("jordan2", {"matrix": [[1, 1], [0, 1]]}, 16, 16, 5),
    ("nilpotent3", {"matrix": [[0, 1, 0], [0, 0, 1], [0, 0, 0]]}, 12, 12, 5),
    ("nilpotent3e6", {"matrix": [[0, 10 ** 6, 0], [0, 0, 10 ** 6], [0, 0, 0]]}, 12, 40, 5),
    ("ones4", {"matrix": [[1] * 4 for _ in range(4)]}, 12, 10, 3),
    ("x5", {"matrix": X5}, 16, 8, 3),
    ("x6", {"matrix": X6}, 4, 8, 2),
    ("diag223", {"matrix": [[2, 0, 0], [0, 2, 0], [0, 0, 3]]}, 12, 16, 3),
    ("minus3", {"matrix": [[-3]]}, 16, 16, 5),
    ("two", {"matrix": [[2]]}, 16, 16, 40),
    ("zero", {"matrix": [[0]]}, 8, 8, 3),
    ("big30", {"matrix": [[10 ** 30, 1], [1, -10 ** 30]]}, 8, 16, 3),
    ("jordan_conjugate4", {"matrix": JORDAN_CONJUGATE}, 12, 64, 3),
    ("named", {"matrix": [[2, 1], [1, 1]], "name": 'q"b\\é'}, 8, 8, 2),
)
FORMATS = ("text", "csv", "json")
# (label of a MATRICES document, argv) of the calls that CI's console-script
# step used to pin by hand, at sizes the calls above do not reach.
CI_CALLS = (
    ("X3", ["jacobian", "-", "--n", "16"]),
    ("X4", ["table", "-", "--n-max", "19", "--factor"]),
    ("X4", ["table", "-", "--n-max", "19", "--factor", "--format", "json"]),
    ("X4", ["table", "-", "--n-max", "20", "--factor", "--format", "json"]),
    ("jordan2", ["jacobian", "-", "--n", "12"]),
    ("x5", ["table", "-", "--n-max", "64", "--format", "json"]),
    ("x6", ["jacobian", "-", "--n", "3"]),
    ("x6", ["verify", "-", "--n-max", "16"]),
)

X3_DOC = json.dumps(MATRICES[0][1])
# (label, argv, stdin) of calls that exit 2. argparse's "invalid choice"
# message is left out: its quoting of the choices differs between Python
# versions.
EXIT_2 = (
    ("empty", ["table", "-"], ""),
    ("blank", ["table", "-"], " \n\t\n"),
    ("bad json", ["table", "-"], "{"),
    ("no matrix key", ["verify", "-"], '{"rows": [[1]]}'),
    ("not a list of rows", ["table", "-"], '{"matrix": [1, 2]}'),
    ("not square", ["table", "-"], '{"matrix": [[1, 2]]}'),
    ("float entry", ["charpoly", "-"], '{"matrix": [[1.0]]}'),
    ("bool entry", ["charpoly", "-"], '{"matrix": [[true]]}'),
    ("name not a string", ["table", "-"], '{"matrix": [[1]], "name": 3}'),
    ("name with a newline", ["table", "-"], '{"matrix": [[1]], "name": "a\\nb"}'),
    ("name with U+2028", ["table", "-"], '{"matrix": [[1]], "name": "a\\u2028b"}'),
    ("name with a lone surrogate", ["verify", "-", "--n-max", "2"],
     '{"matrix": [[1]], "name": "a\\ud800b"}'),
    ("plain text letter", ["table", "-"], "1 2\n3 x\n"),
    ("plain text underscore", ["table", "-"], "1_0\n"),
    ("plain text ragged", ["table", "-"], "1 2\n3\n"),
    ("plain text oversized", ["table", "-"], "1" * 5000 + "\n"),
    ("table n-max 0", ["table", "-", "--n-max", "0"], X3_DOC),
    ("verify n-max -1", ["verify", "-", "--n-max", "-1"], X3_DOC),
    ("jacobian n 0", ["jacobian", "-", "--n", "0"], X3_DOC),
    ("missing file", ["table", "no-such-matrix.json"], ""),
    ("n-max not an int", ["table", "-", "--n-max", "x"], X3_DOC),
    ("no matrix argument", ["table"], ""),
    ("no command", [], ""),
)


def _load_workloads():
    """``perfbench/workloads.py``, imported from its file without touching sys.path."""
    name = "perfbench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, WORKLOADS_PY)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # its dataclasses look their module up there
        spec.loader.exec_module(module)
    return sys.modules[name]


def calls() -> list[tuple[str, list[str], str]]:
    """Every call of the corpus as (key, argv, stdin), in a fixed order."""
    out = []
    for label, doc, table_n, verify_n, jacobian_n in MATRICES:
        text = json.dumps(doc)
        for fmt in FORMATS:
            for column in ("reduced", "jacobian"):
                for factor in ((), ("--factor",)):
                    argv = ["table", "-", "--n-max", str(table_n), "--column", column,
                            *factor, "--format", fmt]
                    out.append((f"{label}: {' '.join(argv)}", argv, text))
            for argv in (["verify", "-", "--n-max", "1"],
                         ["verify", "-", "--n-max", str(verify_n)],
                         ["charpoly", "-"],
                         ["jacobian", "-", "--n", "1"],
                         ["jacobian", "-", "--n", str(jacobian_n)]):
                argv = [*argv, "--format", fmt]
                out.append((f"{label}: {' '.join(argv)}", argv, text))
    docs = {label: json.dumps(doc) for label, doc, *_ in MATRICES}
    out += [(f"{label}: {' '.join(argv)}", argv, docs[label]) for label, argv in CI_CALLS]
    out += [(f"exit 2, {label}: {' '.join(argv)}", argv, stdin)
            for label, argv, stdin in EXIT_2]
    workloads = _load_workloads()
    for workload in workloads.WORKLOADS:
        for seed in WORKLOAD_SEEDS:
            for op in workloads.build_ops(workload, seed):
                argv = op.argv("-")
                text = json.dumps({"matrix": [list(r) for r in op.matrix], "name": op.name})
                out.append((f"{workload} seed {seed} {op.name}: {' '.join(argv)}", argv, text))
    return out


def run(argv: list[str], stdin: str) -> dict:
    """stdout, stderr, exit code and exception text of one ``cli.main`` call."""
    out, err = io.StringIO(), io.StringIO()
    code, exception = None, ""
    try:
        with (mock.patch.dict(os.environ, COLUMNS="80"),  # argparse wraps usage to this width
              mock.patch.object(sys, "stdin", io.StringIO(stdin)),
              contextlib.redirect_stdout(out), contextlib.redirect_stderr(err)):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects its arguments this way
        code = exc.code
    except Exception as exc:  # the known-defect op raises from inside main
        exception = f"{type(exc).__name__}: {exc}"
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "exit": repr(code),
            "exception": exception}


def record(result: dict) -> dict:
    """The expected-file entry of one result: its hashes, and its text when it is short."""
    entry = {"sha256": {k: hashlib.sha256(v.encode("utf-8")).hexdigest()
                        for k, v in result.items()}}
    if len(result["stdout"]) + len(result["stderr"]) + len(result["exception"]) <= SHORT:
        entry["text"] = result
    return entry


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true",
                        help=f"rewrite {EXPECTED.name} from the current outputs")
    args = parser.parse_args(argv)
    if not args.write:
        expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
        corpus = calls()
        differ = [key for key, argv, stdin in corpus if key not in expected
                  or record(run(argv, stdin))["sha256"] != expected[key]["sha256"]]
        keys = {key for key, _, _ in corpus}
        stale = [key for key in expected if key not in keys]  # calls that no longer run
        print(f"{len(corpus) - len(differ)}/{len(expected)} calls match {EXPECTED.name}")
        for key in differ + stale:
            print(f"differs: {key}")
        return 1 if differ or stale else 0
    # One line per call, so that a regenerated file diffs call by call.
    lines = [f"{json.dumps(key, ensure_ascii=False)}: "
             f"{json.dumps(record(run(argv, stdin)), ensure_ascii=False)}"
             for key, argv, stdin in calls()]
    EXPECTED.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"wrote {len(lines)} calls to {EXPECTED}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
