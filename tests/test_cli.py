import argparse
import contextlib
import csv
import io
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from oracles import graph_json_obj, rep2_census, setting_json_obj

from z2quiver.cli import build_parser, format_matrix, main
from z2quiver.combinat import DimVector, parse_dim_vector, subset_str
from z2quiver.freeprod import (
    MAX_COUNT_DIGITS,
    build_one_quiver,
    component_count,
    is_simple_alpha,
    one_quiver_euler_closed,
    orbit_representatives,
)
from z2quiver.localquiver import (
    degeneration_graph,
    enumerate_settings,
    local_euler_matrix,
    local_quiver,
    young_diagram_slice,
)
from z2quiver.quiver import support


def run(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestComponents:
    def test_count(self, capsys):
        code, out = run(capsys, "components", "--n", "3", "--m", "2")
        assert code == 0 and out == "27\n"

    def test_orbits(self, capsys):
        code, out = run(capsys, "components", "--n", "3", "--m", "2", "--orbits")
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "27" and lines[1] == "4"
        assert len(lines) == 6
        assert lines[2:] == sorted(lines[2:])

    def test_trivial(self, capsys):
        code, out = run(capsys, "components", "--n", "1", "--m", "0")
        assert code == 0 and out == "1\n"

    def test_csv(self, capsys):
        code, out = run(capsys, "components", "--n", "3", "--m", "2", "--format", "csv")
        assert code == 0 and out == "n,m,components\n3,2,27\n"

    def test_csv_orbits(self, capsys):
        code, out = run(capsys, "components", "--n", "3", "--m", "2", "--orbits", "--format", "csv")
        lines = out.splitlines()
        assert lines[0] == "alpha" and len(lines) == 5

    @pytest.mark.parametrize("n", range(1, 6))
    def test_csv_bytes_match_the_csv_module(self, capsys, n):
        # every alpha holds a comma, so the csv module quotes every alpha
        for m in range(6):
            for rows, orbits in (([["n", "m", "components"], [n, m, component_count(n, m)]], ()),
                                 ([["alpha"], *([str(rep)] for rep in orbit_representatives(n, m))], ("--orbits",))):
                expected = io.StringIO()
                csv.writer(expected, lineterminator="\n").writerows(rows)
                code, out = run(capsys, "components", "--n", str(n), "--m", str(m), "--format", "csv", *orbits)
                assert code == 0 and out == expected.getvalue(), (n, m, orbits)

    def test_orbits_n8_m6(self, capsys):
        code, out = run(capsys, "components", "--n", "8", "--m", "6", "--orbits")
        lines = out.splitlines()
        assert code == 0
        assert lines[:2] == [str(7**8), "165"] and len(lines) == 2 + 165
        assert lines[2:] == sorted(lines[2:])
        assert lines[2] == "3,3;3,3;3,3;3,3;3,3;3,3;3,3;3,3" and lines[-1] == "6,0;6,0;6,0;6,0;6,0;6,0;6,0;6,0"

    @pytest.mark.parametrize("fmt", ["text", "csv"])
    def test_count_digit_limit_boundary(self, capsys, fmt):
        # 10**(D-1) has D digits and prints; 10**D has D + 1 and is refused
        code, out = run(capsys, "components", "--n", str(MAX_COUNT_DIGITS - 1), "--m", "9", "--format", fmt)
        count = "1" + "0" * (MAX_COUNT_DIGITS - 1)
        assert code == 0
        assert out == (f"n,m,components\n{MAX_COUNT_DIGITS - 1},9,{count}\n" if fmt == "csv" else count + "\n")
        code = main(["components", "--n", str(MAX_COUNT_DIGITS), "--m", "9", "--format", fmt])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert f"more than {MAX_COUNT_DIGITS} digits" in captured.err

    @pytest.mark.parametrize("fmt", ["text", "csv"])
    def test_huge_count_refused_up_front(self, capsys, fmt):
        start = time.monotonic()
        code = main(["components", "--n", str(10**9), "--m", "2", "--format", fmt])
        captured = capsys.readouterr()
        assert time.monotonic() - start < 1
        assert code == 1 and captured.out == ""
        assert f"more than {MAX_COUNT_DIGITS} digits" in captured.err

    @pytest.mark.parametrize("fmt", ["text", "csv"])
    def test_orbit_refusal_prints_nothing(self, capsys, fmt):
        code = main(["components", "--n", "16", "--m", "1000", "--orbits", "--format", fmt])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "orbit representatives" in captured.err


def per_cell_format_matrix(m: np.ndarray) -> str:
    """Oracle for format_matrix: the whole grid, one str(x).rjust per cell."""
    if m.size == 0:
        return ""
    width = max(len(str(m.min())), len(str(m.max())))
    return "\n".join(" ".join(str(x).rjust(width) for x in row) for row in m.tolist())


def joined_quiver_dot(q, labels: list[str], name: str) -> str:
    """Oracle for one-quiver --format dot: every line built first, then joined."""
    lines = [f"digraph {name} {{"]
    for i, label in enumerate(labels):
        lines.append(f'  v{i} [label="{label}"];')
    for i, row in enumerate(q.arrows.tolist()):
        for j, k in enumerate(row):
            if k:
                lines.append(f'  v{i} -> v{j} [label="{k}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


class TestOneQuiver:
    def test_matrix_is_m3(self, capsys):
        code, out = run(capsys, "one-quiver", "--n", "3")
        rows = [[int(x) for x in line.split()] for line in out.splitlines()]
        assert code == 0
        assert rows[0] == [1, 0, 0, -1, 0, -1, -1, -2]
        assert rows[7] == [-2, -1, -1, 0, -1, 0, 0, 1]

    def test_json(self, capsys):
        code, out = run(capsys, "one-quiver", "--n", "2", "--format", "json")
        obj = json.loads(out)
        assert code == 0 and obj["v"] == 4
        assert obj["arrows"][0][3] == 1 and obj["arrows"][0][1] == 0

    def test_dot(self, capsys):
        code, out = run(capsys, "one-quiver", "--n", "2", "--format", "dot")
        assert code == 0
        assert out.startswith("digraph one_quiver {")
        assert '  v0 [label="{}"];' in out
        assert '  v0 -> v3 [label="1"];' in out

    def test_json_bytes_match_dumps(self, capsys):
        # the row writer must emit exactly json.dumps(..., indent=2); n = 1..10
        # covers both even and odd splits into high and low halves
        for n in range(1, 11):
            code, out = run(capsys, "one-quiver", "--n", str(n), "--format", "json")
            assert code == 0
            assert out == json.dumps(build_one_quiver(n).to_json_obj(), indent=2) + "\n", n

    def test_matrix_matches_per_cell_oracle(self, capsys):
        for n in range(1, 11):
            m = one_quiver_euler_closed(n)
            assert "\n".join(format_matrix(m.tolist())) == per_cell_format_matrix(m), n
            code, out = run(capsys, "one-quiver", "--n", str(n))
            assert code == 0 and out == per_cell_format_matrix(one_quiver_euler_closed(n)) + "\n"
        for n in range(1, 7):
            for m in range(1, n + 1):
                for s in enumerate_settings(n, m):
                    qs = local_quiver(s)
                    for matrix in (support(qs.quiver, qs.dims).quiver.arrows, local_euler_matrix(s)):
                        assert "\n".join(format_matrix(matrix.tolist())) == per_cell_format_matrix(matrix), s

    def test_matrix_sparse_values(self):
        # far-apart, negative and repeated values, and an empty row
        for matrix in ([[0, 10**12], [-5, 3]], [[-(10**9)]], [[7, 7, 7]], [[]]):
            m = np.array(matrix, dtype=np.int64)
            assert "\n".join(format_matrix(m.tolist())) == per_cell_format_matrix(m), matrix

    def test_dot_bytes_match_joined_oracle(self, capsys):
        for n in range(1, 7):
            code, out = run(capsys, "one-quiver", "--n", str(n), "--format", "dot")
            assert code == 0
            labels = [subset_str(a) for a in range(1 << n)]
            assert out == joined_quiver_dot(build_one_quiver(n), labels, name="one_quiver"), n

    @pytest.mark.parametrize("fmt", ["matrix", "json", "dot"])
    def test_streamed_emitter_peak(self, fmt):
        # the whole text at n = 10 is 3-25 MB, so the peak is what the
        # emitter itself holds at once; the joined-text emitters peaked at
        # 13 MiB (json) and 138 MiB (dot), and no format builds a matrix
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            tracemalloc.start()
            try:
                code = main(["one-quiver", "--n", "10", "--format", fmt])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert code == 0
        assert peak < 2 << 20, peak

    @pytest.mark.parametrize("fmt", ["matrix", "json", "dot"])
    def test_above_twelve_refused(self, capsys, fmt):
        code = main(["one-quiver", "--n", "13", "--format", fmt])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "n <= 12" in captured.err


class TestGraph:
    def test_json_33(self, capsys):
        code, out = run(capsys, "graph", "--n", "3", "--m", "3", "--format", "json")
        obj = json.loads(out)
        assert code == 0
        assert len(obj["nodes"]) == 6 and len(obj["edges"]) == 6

    def test_json_44(self, capsys):
        code, out = run(capsys, "graph", "--n", "4", "--m", "4", "--format", "json")
        obj = json.loads(out)
        assert len(obj["nodes"]) == 13 and len(obj["edges"]) == 19

    def test_deterministic_bytes(self, capsys):
        outputs = []
        for _ in range(2):
            code, out = run(capsys, "graph", "--n", "3", "--m", "3")
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_json_bytes_match_oracle(self, capsys, n):
        # graph --n 1 --m 1 has no edges, so its edge list is []
        for m in range(1, n + 1):
            size = ["--n", str(n), "--m", str(m), "--format", "json"]
            code, out = run(capsys, "graph", *size)
            assert code == 0 and out == json.dumps(graph_json_obj(degeneration_graph(n, m)), indent=2) + "\n", m
            code, out = run(capsys, "local", *size)
            assert code == 0
            assert out == json.dumps([setting_json_obj(s) for s in enumerate_settings(n, m)], indent=2) + "\n", m

    def test_json_peak_above_the_graph(self):
        # the text is written one node and one edge at a time; the dicts and
        # their encoding peaked about 5 MiB above the graph at n = m = 12
        degeneration_graph(12, 12)  # warm whatever the build caches
        tracemalloc.start()
        try:
            degeneration_graph(12, 12)
            graph_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                code = main(["graph", "--n", "12", "--m", "12", "--format", "json"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak - graph_peak < 1 << 20, (peak, graph_peak)

    def test_dot_colours(self, capsys):
        code, out = run(capsys, "graph", "--n", "3", "--m", "3", "--format", "dot")
        assert code == 0
        assert 'n0 [label="(3),(3)", fillcolor="palegreen"]' in out
        assert "lightpink" in out

    def test_m_above_n_is_domain_failure(self, capsys):
        code = main(["graph", "--n", "3", "--m", "4"])
        captured = capsys.readouterr()
        assert code == 1
        assert "simple" in captured.err

    @pytest.mark.parametrize("command, m", [("graph", "0"), ("graph", "5"), ("local", "0")])
    def test_level_error_names_the_range(self, capsys, command, m):
        code = main([command, "--n", "4", "--m", m])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"error: (m-1,1)^n admits simple representations only for 1 <= m <= n; got n=4, m={m}\n"


class TestLocal:
    def test_young_filter(self, capsys):
        code, out = run(capsys, "local", "--n", "9", "--m", "9", "--young", "3,3,3")
        assert code == 0
        assert out.strip().endswith("settings: 10")

    def test_json(self, capsys):
        code, out = run(capsys, "local", "--n", "3", "--m", "3", "--format", "json")
        obj = json.loads(out)
        assert code == 0 and len(obj) == 6
        assert [node["id"] for node in obj][0] == "(3),(3)"

    @pytest.mark.parametrize("n, m, young", [(9, 9, "3,3,3"), (6, 4, "2,2,1,1"), (5, 5, "1,1,1,1,1"), (3, 2, "1,1,1")])
    def test_young_json_bytes_match_oracle(self, capsys, n, m, young):
        # (3, 2, "1,1,1") is the empty slice: every k is 1, and their sum 3 exceeds m
        settings = young_diagram_slice(n, m, tuple(map(int, young.split(",")))).nodes
        code, out = run(capsys, "local", "--n", str(n), "--m", str(m), "--young", young, "--format", "json")
        assert code == 0 and out == json.dumps([setting_json_obj(s) for s in settings], indent=2) + "\n"
        assert (out == "[]\n") == (young == "1,1,1")

    def test_bad_young(self, capsys):
        # a wrong sum, a zero row and a negative row are all refused
        for young, n in (("3,3", "4"), ("3,0", "3"), ("4,-1", "3")):
            code = main(["local", "--n", n, "--m", n, "--young", young])
            captured = capsys.readouterr()
            assert code == 1 and captured.out == "", young
            assert "not a diagram" in captured.err, young

    @pytest.mark.parametrize("young", ["", "a,b"])
    def test_young_not_row_lengths(self, capsys, young):
        # an empty --young listed every setting with exit 0
        code = main(["local", "--n", "4", "--m", "4", "--young", young])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"error: --young wants comma-separated row lengths, got {young!r}\n"


def fifty_alpha_specs() -> list[DimVector]:
    specs: list[DimVector] = []
    for n in range(2, 6):
        for m in range(1, 6):
            specs.append(DimVector.standard(n, m))
    for a in range(8):
        specs.append(DimVector.character(3, a))
    for n, k in ((3, 2), (3, 3), (4, 2), (4, 3)):
        specs.append(DimVector(((2 * k, 0),) * (n - 2) + ((k, k), (k, k))))
    rng = random.Random(99)
    while len(specs) < 50:
        n = rng.randint(1, 5)
        m = rng.randint(1, 5)
        specs.append(DimVector(tuple((p, m - p) for p in (rng.randint(0, m) for _ in range(n)))))
    return specs


class TestSimple:
    def test_simple_yes(self, capsys):
        code, out = run(capsys, "simple", "--alpha", "2,1;2,1;2,1")
        assert code == 0
        assert "sum_i max(a_i+, a_i-) = 6 <= 6 = m*(n-1)" in out
        assert out.strip().endswith("simple: yes")

    def test_exception_reason(self, capsys):
        code, out = run(capsys, "simple", "--alpha", "(4,0)*2;2,2;2,2")
        assert code == 1
        assert "exception orbit" in out
        assert out.strip().endswith("simple: no")

    def test_inequality_reason(self, capsys):
        code, out = run(capsys, "simple", "--alpha", "3,1;3,1;3,1")
        assert code == 1
        assert "= 9 > 8 = m*(n-1)" in out

    def test_fifty_spec_matrix(self, capsys):
        specs = fifty_alpha_specs()
        assert len(specs) == 50
        for alpha in specs:
            code, _ = run(capsys, "simple", "--alpha", str(alpha))
            assert code == (0 if is_simple_alpha(alpha) else 1), str(alpha)

    def test_bad_alpha_is_usage_like_failure(self, capsys):
        code = main(["simple", "--alpha", "2,1;nope"])
        assert code == 1
        assert "pair 2" in capsys.readouterr().err

    def test_huge_repeat_is_refused(self, capsys):
        code = main(["simple", "--alpha", "(1,0)*1000000000"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "past 10000 pairs" in captured.err


class TestIssDim:
    def test_value(self, capsys):
        code, out = run(capsys, "iss-dim", "--alpha", "2,1;2,1;2,1")
        assert code == 0 and out == "4\n"

    def test_non_simple(self, capsys):
        code = main(["iss-dim", "--alpha", "3,1;3,1;3,1"])
        assert code == 1
        assert "not a simple" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simple", "iss-dim"])
    def test_zero_vector_refused(self, capsys, command):
        code = main([command, "--alpha", "0,0;0,0"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "the zero dimension vector has no representations" in captured.err


class TestSmoothComponent:
    def test_yes(self, capsys):
        code, out = run(capsys, "smooth-component", "--alpha", "2,1;1,2;3,0")
        assert code == 0 and out.strip().endswith("smooth: yes")

    def test_no(self, capsys):
        code, out = run(capsys, "smooth-component", "--alpha", "2,1;2,1;2,1")
        assert code == 1 and out.strip().endswith("smooth: no")

    def test_level_zero(self, capsys):
        # the zero component is one point, and smooth
        code, out = run(capsys, "smooth-component", "--alpha", "0,0;0,0")
        assert code == 0 and "0 mixed pair(s)" in out and out.strip().endswith("smooth: yes")


def per_row_rep2(n: int, fmt: str) -> str:
    """Oracle for rep2: subset_str called for both subsets of every row."""
    out = io.StringIO()
    rows = rep2_census(n)
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["A", "B", "k", "rep_dim", "quot_dim", "singularities"])
        for r in rows:
            writer.writerow([subset_str(r.a_mask), subset_str(r.b_mask), r.k, r.rep_dim, r.quot_dim, r.singularities])
        return out.getvalue()
    print("A\tB\tk\trep_dim\tquot_dim\tsingularities\tlocal_type", file=out)
    total = 0
    for r in rows:
        total += 1
        print(
            f"{subset_str(r.a_mask)}\t{subset_str(r.b_mask)}\t{r.k}\t{r.rep_dim}"
            f"\t{r.quot_dim}\t{r.singularities}\t{r.local_type or '-'}",
            file=out,
        )
    print(f"total components: {total}", file=out)
    return out.getvalue()


class TestRep2:
    def test_csv_header_and_rows(self, capsys):
        code, out = run(capsys, "rep2", "--n", "3", "--format", "csv")
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "A,B,k,rep_dim,quot_dim,singularities"
        assert len(lines) == 1 + 27
        assert lines[1] == "{},{},0,0,0,0"
        assert '"{1,2,3}",{},3,6,3,4' in lines

    def test_text_total(self, capsys):
        code, out = run(capsys, "rep2", "--n", "2")
        assert code == 0
        assert out.strip().endswith("total components: 9")

    @pytest.mark.parametrize("fmt", ["text", "csv"])
    def test_matches_per_row_oracle(self, capsys, fmt):
        for n in range(1, 7):
            code, out = run(capsys, "rep2", "--n", str(n), "--format", fmt)
            assert code == 0 and out == per_row_rep2(n, fmt), n

    @pytest.mark.parametrize("fmt", ["text", "csv"])
    def test_streamed_peak(self, fmt):
        # the text at n = 10 is about 1.5 MB; the emitter holds the 2^n
        # subset names and one A's rows at a time
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            tracemalloc.start()
            try:
                code = main(["rep2", "--n", "10", "--format", fmt])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert code == 0
        assert peak < 2 << 20, peak

    @pytest.mark.parametrize("n", ["0", "17"])
    def test_ground_refused_up_front(self, capsys, n):
        for fmt in ("text", "csv"):
            code = main(["rep2", "--n", n, "--format", fmt])
            captured = capsys.readouterr()
            assert code == 1 and captured.out == ""
            assert "ground-set size" in captured.err


class TestTreelike:
    def test_n3(self, capsys):
        code, out = run(capsys, "treelike", "--n", "3")
        assert code == 0
        assert "type II(2): 4 instances" in out
        assert out.strip().endswith("distinct types: 5")

    def test_out_of_range(self, capsys):
        for n in ("0", "17"):
            assert main(["treelike", "--n", n]) == 1
        assert capsys.readouterr().out == ""

    def test_n1(self, capsys):
        code, out = run(capsys, "treelike", "--n", "1")
        assert code == 0
        assert out == "type I: 2 instances\ndistinct types: 1\n"

    def test_n16(self, capsys):
        code, out = run(capsys, "treelike", "--n", "16")
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "type I: 65536 instances"
        assert lines[-2] == "type IV: 110100480 instances"
        assert lines[-1] == "distinct types: 31"


class TestCanon:
    def test_relation(self, capsys):
        code, out = run(capsys, "canon", "--chars", "{1}+{2}", "--n", "3")
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "{}+{1,2}"
        assert lines[1] == "alpha: 1,1;1,1;2,0"

    def test_chain_unchanged(self, capsys):
        code, out = run(capsys, "canon", "--chars", "{}^2+{1,2,3}")
        assert code == 0 and out.splitlines()[0] == "{}^2+{1,2,3}"

    def test_huge_multiplicities(self, capsys):
        code, out = run(capsys, "canon", "--chars", "{1}^1000000000+{2}^1000000000", "--n", "2")
        assert code == 0
        assert out.splitlines() == ["{}^1000000000+{1,2}^1000000000", "alpha: 1000000000,1000000000;1000000000,1000000000"]

    def test_zero_multiplicity_refused(self, capsys):
        code = main(["canon", "--chars", "{1}^0+{2}", "--n", "2"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "multiplicities must be >= 1" in captured.err


class TestUsageErrors:
    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as err:
            main(["components", "--n", "3"])
        assert err.value.code == 2

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as err:
            main(["spectral-sequence"])
        assert err.value.code == 2


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "z2quiver", "components", "--n", "3", "--m", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "27\n"


STREAMED_COMMANDS = [["one-quiver", "--n", "10"], ["graph", "--n", "9", "--m", "9", "--format", "json"]]


@pytest.mark.parametrize("argv", STREAMED_COMMANDS, ids=["one-quiver", "graph"])
def test_reader_leaving_early(argv):
    # the output is far longer than a pipe holds, so the command is still
    # writing when its reader takes one line and closes the pipe
    proc = subprocess.Popen([sys.executable, "-m", "z2quiver", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline()
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert stderr == b""


# Commands that never build an array, so they must run without numpy.
NUMPY_FREE_COMMANDS = [
    ["one-quiver", "--n", "10"],
    ["one-quiver", "--n", "10", "--format", "json"],
    ["one-quiver", "--n", "10", "--format", "dot"],
    ["simple", "--alpha", "1,1;1,1"],
    ["iss-dim", "--alpha", "1,1;1,1"],
    ["graph", "--n", "9", "--m", "9", "--format", "json"],
    ["components", "--n", "5", "--m", "6", "--orbits"],
    ["rep2", "--n", "10", "--format", "csv"],
    ["treelike", "--n", "4"],
    ["graph", "--n", "5", "--m", "4"],
    ["graph", "--n", "5", "--m", "4", "--format", "dot"],
    ["local", "--n", "6", "--m", "5"],
    ["local", "--n", "6", "--m", "5", "--format", "json"],
    ["rep2", "--n", "5"],
    ["components", "--n", "3", "--m", "2", "--format", "csv"],
    ["canon", "--chars", "{1}+{2}", "--n", "3"],
    ["smooth-component", "--alpha", "2,1;1,2;3,0"],
    ["iss-dim", "--alpha", "2,1;2,1;2,1"],
]

NUMPY_PROBE = """
import contextlib, io, sys
import z2quiver, z2quiver.cli
loaded = ["numpy" in sys.modules]
with contextlib.redirect_stdout(io.StringIO()):
    code = z2quiver.cli.main(sys.argv[1:])
loaded.append("numpy" in sys.modules)
print(code, *loaded)
"""


@pytest.mark.parametrize("argv", NUMPY_FREE_COMMANDS, ids=[" ".join(a) for a in NUMPY_FREE_COMMANDS])
def test_numpy_stays_unloaded(argv):
    proc = subprocess.run([sys.executable, "-c", NUMPY_PROBE, *argv], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    code, after_import, after_main = proc.stdout.split()
    assert (code, after_import, after_main) == ("0", "False", "False")


# python -m z2quiver ARGS in process, as runpy runs it, then the modules the
# command loaded.  The probe's own imports come first, so they do not count.
MODULE_PROBE = """
import contextlib, io, runpy, sys
before = set(sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    try:
        runpy.run_module("z2quiver", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
print(code, *sorted(set(sys.modules) - before))
"""

# Modules a command must not load, by subcommand: no command reaches the
# quiver layer, a command on characters or dimension vectors never reaches
# the settings, and a degeneration command never reaches the free product.
NOT_LOADED = {
    **dict.fromkeys(
        ("treelike", "components", "rep2", "one-quiver", "simple", "iss-dim", "smooth-component", "canon"),
        {"z2quiver.localquiver", "z2quiver.quiver"},
    ),
    **dict.fromkeys(("graph", "local"), {"z2quiver.freeprod", "z2quiver.quiver"}),
}


@pytest.mark.parametrize("argv", NUMPY_FREE_COMMANDS, ids=[" ".join(a) for a in NUMPY_FREE_COMMANDS])
def test_modules_loaded_per_command(argv):
    proc = subprocess.run([sys.executable, "-c", MODULE_PROBE, *argv], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    code, *loaded = proc.stdout.split()
    assert code == "0"
    assert {"z2quiver", "z2quiver.cli"} <= set(loaded)
    assert "dataclasses" not in loaded
    assert not NOT_LOADED[argv[0]] & set(loaded)
    # JSON and CSV are written as text
    assert "json" not in loaded and "csv" not in loaded


# MODULE_PROBE with re.compile wrapped, then the z2quiver modules that called it.
COMPILE_PROBE = """
import re, sys
callers = []
original = re.compile
def compile(*args, **kwargs):
    callers.append(sys._getframe(1).f_globals["__name__"])
    return original(*args, **kwargs)
re.compile = compile
""" + MODULE_PROBE + """
print(*[name for name in callers if name.startswith("z2quiver")])
"""


@pytest.mark.parametrize(
    "argv, callers",
    [(("treelike", "--n", "4"), []), (("simple", "--alpha", "1,1;1,1"), ["z2quiver.combinat"] * 2)],
    ids=["treelike", "simple"],
)
def test_patterns_compiled_only_by_a_parse(argv, callers):
    # combinat compiled its two dimension-vector patterns at import
    proc = subprocess.run([sys.executable, "-c", COMPILE_PROBE, *argv], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded, compiled = proc.stdout.splitlines()
    assert loaded.split()[0] == "0"
    assert compiled.split() == callers


def test_bare_import_loads_no_submodule():
    probe = "import sys; before = set(sys.modules); import z2quiver; print(*sorted(set(sys.modules) - before))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert [m for m in proc.stdout.split() if m.startswith("z2quiver")] == ["z2quiver"]


def test_numpy_free_commands_cover_every_subcommand():
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    missing = set(sub.choices) - {argv[0] for argv in NUMPY_FREE_COMMANDS}
    assert not missing, f"add each subcommand to NUMPY_FREE_COMMANDS: {sorted(missing)}"


def test_round_trip_spec_through_cli(capsys):
    # the printed alpha of canon feeds back into simple
    code, out = run(capsys, "canon", "--chars", "{1}+{2}", "--n", "3")
    alpha = out.splitlines()[1].removeprefix("alpha: ")
    assert parse_dim_vector(alpha).m == 2
    code, _ = run(capsys, "simple", "--alpha", alpha)
    assert code == 0


# Each case runs in a child process under an address-space limit and a time
# budget: (argv, expected exit code).  Past a documented bound the CLI must
# refuse up front with exit 1, never raise MemoryError or run for minutes.
CONTRACT_CASES = [
    (["one-quiver", "--n", "16"], 1),
    (["one-quiver", "--n", "16", "--format", "json"], 1),
    (["one-quiver", "--n", "16", "--format", "dot"], 1),
    (["components", "--n", "16", "--m", "1000", "--orbits"], 1),
    (["components", "--n", "40", "--m", "1", "--orbits"], 0),
    (["treelike", "--n", "16"], 0),
    (["graph", "--n", "17", "--m", "3"], 1),
    (["graph", "--n", "16", "--m", "16", "--format", "json"], 0),
    (["local", "--n", "16", "--m", "16"], 0),
    (["simple", "--alpha", "(1,0)*1000000000"], 1),
    (["canon", "--chars", "{1}^1000000000000000000+{2,3}^1000000000000000000"], 0),
    (["canon", "--chars", "{100000000000}"], 1),
    (["canon", "--chars", "{100000000000}", "--n", "1000000000000"], 1),
    (["components", "--n", "1000000000", "--m", "2"], 1),
    (["rep2", "--n", "17", "--format", "csv"], 1),
]
CONTRACT_ADDRESS_SPACE = 1 << 30
CONTRACT_SECONDS = 20


def _limit_address_space():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (CONTRACT_ADDRESS_SPACE, CONTRACT_ADDRESS_SPACE))


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS is enforced on Linux")
@pytest.mark.parametrize("argv, code", CONTRACT_CASES, ids=[" ".join(a) for a, _ in CONTRACT_CASES])
def test_resource_capped_contract(argv, code):
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "z2quiver", *argv],
        capture_output=True,
        text=True,
        preexec_fn=_limit_address_space,
        timeout=CONTRACT_SECONDS,
    )
    assert time.monotonic() - start < CONTRACT_SECONDS
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    if code == 1:
        assert proc.stdout == "" and proc.stderr.startswith("error: ")
