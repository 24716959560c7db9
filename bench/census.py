"""The `census` workload: the ROADMAP's CLI set, one fresh process per command.

`COMMANDS` maps a metric key to the z2quiver arguments.  `DIGESTS_FILE`
holds the sha256 of each command's stdout as recorded when the benchmark was
defined; every library and CLI output must stay byte-identical, so a
different digest is a failed operation.  `check_structure` re-derives each
output's shape from first principles and runs once per distinct output in a
run, in its own process (it needs numpy, and the harness stays small).
"""

from __future__ import annotations

import csv
import io
import json
import math
import os

# Each command is sized to take well under a second on a 2-core x86-64 VM,
# so that a run repeats the whole set about ten times and each command
# enters at its best time.  The ROADMAP's sizes (one-quiver --n 11,
# components --n 8 --m 6 --orbits, rep2 --n 12) take 3-100 s each and
# allow two or three repeats, too few to steady a shared machine's noise.
COMMANDS = {
    "one_quiver": ["one-quiver", "--n", "10"],
    "one_quiver_json": ["one-quiver", "--n", "10", "--format", "json"],
    "graph": ["graph", "--n", "9", "--m", "9", "--format", "json"],
    "orbits": ["components", "--n", "5", "--m", "6", "--orbits"],
    "rep2": ["rep2", "--n", "10", "--format", "csv"],
    "treelike": ["treelike", "--n", "4"],
}


def arg(key: str, flag: str) -> int:
    """The integer value of `flag` in a census command."""
    argv = COMMANDS[key]
    return int(argv[argv.index(flag) + 1])


DIGESTS_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


class StructureError(Exception):
    pass


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise StructureError(what)


def _popcount_xor(n: int):
    import numpy as np

    masks = np.arange(1 << n, dtype=np.int64)
    return np.bitwise_count(np.bitwise_xor.outer(masks, masks)).astype(np.int64)


def check_structure(key: str, path: str) -> None:
    with open(path) as fh:
        text = fh.read()
    if key == "one_quiver":
        import numpy as np

        n = arg(key, "--n")
        lines = text.rstrip("\n").split("\n")
        expect(len(lines) == 1 << n, f"{len(lines)} matrix rows")
        got = np.array(text.split(), dtype=np.int64)
        expect(got.size == 4**n, f"{got.size} matrix entries")
        expect(np.array_equal(got.reshape(1 << n, 1 << n), 1 - _popcount_xor(n)),
               "an entry differs from 1 - popcount(i ^ j)")
    elif key == "one_quiver_json":
        import numpy as np

        n = arg(key, "--n")
        obj = json.loads(text)
        expect(obj["v"] == 1 << n, f"v = {obj['v']}")
        expect(np.array_equal(np.array(obj["arrows"], dtype=np.int64), np.maximum(_popcount_xor(n) - 1, 0)),
               "an arrow count differs from max(popcount(i ^ j) - 1, 0)")
    elif key == "graph":
        obj = json.loads(text)
        expect((obj["n"], obj["m"]) == (arg(key, "--n"), arg(key, "--m")), "graph n, m")
        ids = [node["id"] for node in obj["nodes"]]
        expect(len(set(ids)) == len(ids), "node ids repeat")
        expect(all(a in ids and b in ids and a != b for a, b in obj["edges"]), "an edge leaves the node set")
        for node in obj["nodes"]:
            q = node["quiver"]
            expect(q["v"] == len(q["arrows"]) == len(node["dims"]), f"node {node['id']} quiver size")
    elif key == "orbits":
        n, m = arg(key, "--n"), arg(key, "--m")
        lines = text.rstrip("\n").split("\n")
        expect(lines[0] == str((m + 1) ** n), "component count")
        orbits = math.comb(m // 2 + n, n)
        expect(lines[1] == str(orbits) and len(lines) == 2 + orbits, f"{len(lines) - 2} orbit lines")
        reps = [tuple(tuple(int(x) for x in pair.split(",")) for pair in line.split(";")) for line in lines[2:]]
        expect(len(set(reps)) == orbits, "orbit representatives repeat")
        for rep in reps:
            plus = [p for p, _ in rep]
            expect(len(rep) == n and all(p + q == m and p >= q for p, q in rep)
                   and plus == sorted(plus, reverse=True), f"{rep} is not canonical")
    elif key == "rep2":
        n = arg(key, "--n")
        rows = list(csv.reader(io.StringIO(text)))
        expect(rows[0] == ["A", "B", "k", "rep_dim", "quot_dim", "singularities"], "rep2 header")
        expect(len(rows) - 1 == 3**n, f"{len(rows) - 1} rep2 rows")
        masks: dict[str, int] = {}  # subset text -> bitmask, element i on bit i-1
        for a_text, b_text in (row[:2] for row in rows[1:]):
            for t in (a_text, b_text):
                if t not in masks:
                    masks[t] = sum(1 << (int(x) - 1) for x in t.strip("{}").split(",") if x)
        seen = set()
        full = (1 << n) - 1
        for row in rows[1:]:
            a, b = masks[row[0]], masks[row[1]]
            k, rep_dim, quot_dim, sing = (int(x) for x in row[2:])
            expect(not a & b and (a | b) & ~full == 0, f"rep2 row {row}")
            expect(a.bit_count() == k and rep_dim == 2 * k and quot_dim == (2 * k - 3 if k >= 2 else 0)
                   and sing == (2 ** (k - 1) if k >= 3 else 0), f"rep2 row {row}")
            seen.add((a, b))
        expect(len(seen) == 3**n, "rep2 rows repeat")
    elif key == "treelike":
        lines = text.rstrip("\n").split("\n")
        expect(lines[-1] == "distinct types: 7", lines[-1])
        expect(len(lines) == 8 and all(line.startswith("type ") for line in lines[:-1]), "tree-like type lines")
    else:
        raise StructureError(f"unknown census command {key!r}")

