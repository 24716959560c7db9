"""Golden digests of the degeneration commands.

The stdout sha256 and exit code of `graph` (text, json, dot), `local`
(text, json) and `local --young` for each Young diagram, at every
1 <= m <= n <= 8, are pinned in golden_graph_local.json.  Any change to
those bytes fails here.  After an intended output change, rewrite the file
with `PYTHONPATH=src python tests/test_golden.py` and say why in the change.
"""

import contextlib
import hashlib
import io
import json
import pathlib

from z2quiver.cli import main
from z2quiver.combinat import partitions_of_int

GOLDEN = pathlib.Path(__file__).with_name("golden_graph_local.json")
MAX_N = 8


def golden_cases() -> list[list[str]]:
    cases = []
    for n in range(1, MAX_N + 1):
        for m in range(1, n + 1):
            size = ["--n", str(n), "--m", str(m)]
            cases += [["graph", *size, "--format", fmt] for fmt in ("text", "json", "dot")]
            cases += [["local", *size, "--format", fmt] for fmt in ("text", "json")]
            cases += [["local", *size, "--young", ",".join(map(str, shape))] for shape in partitions_of_int(n)]
    return cases


def digest(argv: list[str]) -> list:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return [code, hashlib.sha256(out.getvalue().encode()).hexdigest()]


def test_graph_and_local_match_golden_digests():
    golden = json.loads(GOLDEN.read_text())
    cases = golden_cases()
    assert sorted(golden) == sorted(" ".join(argv) for argv in cases)
    mismatched = [" ".join(argv) for argv in cases if digest(argv) != golden[" ".join(argv)]]
    assert mismatched == []


if __name__ == "__main__":
    lines = [f"  {json.dumps(' '.join(argv))}: {json.dumps(digest(argv))}" for argv in golden_cases()]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
