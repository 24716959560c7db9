"""Golden outputs of the degeneration commands and the simplicity report.

The stdout sha256 and exit code of `graph` (text, json, dot), `local`
(text, json) and `local --young` for each Young diagram, at every
1 <= m <= n <= 8, are pinned in golden_graph_local.json.  The verdict and
lines of simple_alpha_report for every component with n <= 4 and m <= 4,
and for every member of the exception orbits (2k,0)*(n-2);(k,k);(k,k) with
3 <= n <= 6 and k = 2, 3, are pinned in golden_simple_report.json.  Any
change to those bytes fails here.  After an intended output change, rewrite
both files with `PYTHONPATH=src python tests/test_golden.py` and say why in
the change.
"""

import contextlib
import hashlib
import io
import itertools
import json
import pathlib

from oracles import components

from z2quiver.cli import main
from z2quiver.combinat import DimVector, partitions_of_int
from z2quiver.freeprod import simple_alpha_report

GOLDEN = pathlib.Path(__file__).with_name("golden_graph_local.json")
GOLDEN_REPORT = pathlib.Path(__file__).with_name("golden_simple_report.json")
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


def report_cases() -> list[DimVector]:
    """Every component with n <= 4 and 1 <= m <= 4, then every member of the
    exception orbits with 3 <= n <= 6 and k = 2, 3 that is not among them."""
    cases = [alpha for n in range(1, 5) for m in range(1, 5) for alpha in components(n, m)]
    seen = set(cases)
    for n, k in itertools.product(range(3, 7), (2, 3)):
        for mixed in itertools.combinations(range(n), 2):
            for flips in itertools.product(((2 * k, 0), (0, 2 * k)), repeat=n - 2):
                rest = iter(flips)
                alpha = DimVector(tuple((k, k) if i in mixed else next(rest) for i in range(n)))
                if alpha not in seen:
                    seen.add(alpha)
                    cases.append(alpha)
    return cases


def report(alpha: DimVector) -> list:
    verdict, lines = simple_alpha_report(alpha)
    return [verdict, lines]


def test_simple_alpha_report_matches_golden_lines():
    golden = json.loads(GOLDEN_REPORT.read_text())
    cases = report_cases()
    assert sorted(golden) == sorted(str(alpha) for alpha in cases)
    mismatched = [str(alpha) for alpha in cases if report(alpha) != golden[str(alpha)]]
    assert mismatched == []


def write_golden(path: pathlib.Path, entries) -> None:
    lines = [f"  {json.dumps(key)}: {json.dumps(value)}" for key, value in entries]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    write_golden(GOLDEN, ((" ".join(argv), digest(argv)) for argv in golden_cases()))
    write_golden(GOLDEN_REPORT, ((str(alpha), report(alpha)) for alpha in report_cases()))
