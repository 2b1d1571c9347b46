"""The command line's outputs stay byte-identical to ``corpus_expected.json``.

The calls and the file's layout are described in ``corpus.py``.
"""

import difflib
import json

from matdivseq import IntMatrix, cli

from corpus import EXPECTED, calls, record, run


def _diff(key: str, want: dict, result: dict) -> str:
    """What differs in one call: a diff of each differing text when the file keeps it."""
    got = record(result)["sha256"]
    fields = [f for f in got if got[f] != want["sha256"][f]]
    if "text" not in want:
        return f"{key}: {', '.join(fields)} differ"
    return "\n".join(
        [f"{key}:"] + [line for f in fields for line in difflib.unified_diff(
            want["text"][f].splitlines(), result[f].splitlines(),
            f"expected {f}", f"actual {f}", lineterm="")])


def test_cli_outputs_match_the_corpus():
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    corpus = calls()
    assert [key for key, _, _ in corpus] == list(expected), \
        "the calls differ from those of the expected file"
    failures = []
    for key, argv, stdin in corpus:
        result = run(argv, stdin)
        if record(result)["sha256"] != expected[key]["sha256"]:
            failures.append(_diff(key, expected[key], result))
    assert not failures, f"{len(failures)} calls changed:\n" + "\n".join(failures)


def test_each_call_validates_only_the_matrix_it_parsed(monkeypatch):
    # Input is validated once, where parse_matrix builds it. jacobian alone validates
    # a second matrix, the s^2 x s^2 J_n it prints.
    built, parsed = [], []
    post_init, parse_matrix = IntMatrix.__post_init__, cli.parse_matrix

    def counted(self):
        post_init(self)
        built.append(self)

    def recorded(text):
        doc = parse_matrix(text)
        parsed.append(doc.matrix)
        return doc

    monkeypatch.setattr(IntMatrix, "__post_init__", counted)
    monkeypatch.setattr(cli, "parse_matrix", recorded)
    failures = []
    for key, argv, stdin in calls():
        built.clear()
        parsed.clear()
        result = run(argv, stdin)
        second = ([parsed[0].dim ** 2] if argv[:1] == ["jacobian"] and result["exit"] == "0"
                  else [])
        if (any(m is not p for m, p in zip(built, parsed))
                or [m.dim for m in built[len(parsed):]] != second):
            failures.append(f"{key}: validated {len(built)} matrices")
    assert not failures, f"{len(failures)} calls:\n" + "\n".join(failures)
