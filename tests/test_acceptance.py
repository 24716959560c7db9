"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run `pytest -s tests/test_acceptance.py` to see the per-criterion report;
all comparisons are exact integer equalities.
"""

import itertools
import math
import random
import time
from collections import Counter

from oracles import character_sum, components, one_quiver_euler_recursive, rep2_census

from z2quiver.combinat import DimVector, bn_canonicalize
from z2quiver.freeprod import (
    build_one_quiver,
    component_count,
    is_iss_smooth,
    is_simple_alpha,
    is_simple_alpha_oracle,
    iss_dim,
    one_quiver_euler_closed,
    orbit_count,
    treelike_census,
)
from z2quiver.localquiver import (
    LocalSetting,
    degenerates_class,
    degeneration_graph,
    elementary_moves,
    enumerate_settings,
    local_quiver,
    smooth_point,
    young_diagram_slice,
)
from z2quiver.quiver import is_smooth_setting, support

M3 = [
    [1, 0, 0, -1, 0, -1, -1, -2],
    [0, 1, -1, 0, -1, 0, -2, -1],
    [0, -1, 1, 0, -1, -2, 0, -1],
    [-1, 0, 0, 1, -2, -1, -1, 0],
    [0, -1, -1, -2, 1, 0, 0, -1],
    [-1, 0, -2, -1, 0, 1, -1, 0],
    [-1, -2, 0, -1, 0, -1, 1, 0],
    [-2, -1, -1, 0, -1, 0, 0, 1],
]

FIG33_EDGES = {
    ("(3),(3)", "(2,1),(2,1)"),
    ("(3),(3)", "(3),(2)"),
    ("(2,1),(2,1)", "(1,1,1),(1,1,1)"),
    ("(2,1),(2,1)", "(2,1),(1,1)"),
    ("(3),(2)", "(2,1),(1,1)"),
    ("(3),(2)", "(3),(1)"),
}

FIG44_EDGES = {
    ("(4),(4)", "(3,1),(3,1)"),
    ("(4),(4)", "(2,2),(2,2)"),
    ("(4),(4)", "(4),(3)"),
    ("(3,1),(3,1)", "(2,1,1),(2,1,1)"),
    ("(3,1),(3,1)", "(3,1),(2,1)"),
    ("(2,2),(2,2)", "(2,1,1),(2,1,1)"),
    ("(2,2),(2,2)", "(2,2),(2,1)"),
    ("(2,1,1),(2,1,1)", "(1,1,1,1),(1,1,1,1)"),
    ("(2,1,1),(2,1,1)", "(2,1,1),(1,1,1)"),
    ("(4),(3)", "(3,1),(2,1)"),
    ("(4),(3)", "(2,2),(2,1)"),
    ("(4),(3)", "(4),(2)"),
    ("(3,1),(2,1)", "(2,1,1),(1,1,1)"),
    ("(3,1),(2,1)", "(3,1),(1,1)"),
    ("(2,2),(2,1)", "(2,1,1),(1,1,1)"),
    ("(2,2),(2,1)", "(2,2),(1,1)"),
    ("(4),(2)", "(3,1),(1,1)"),
    ("(4),(2)", "(2,2),(1,1)"),
    ("(4),(2)", "(4),(1)"),
}


def report(num: int, name: str, body) -> None:
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        print(f"[acceptance] criterion {num} ({name}): FAIL ({time.perf_counter() - start:.2f}s)")
        raise
    print(f"[acceptance] criterion {num} ({name}): PASS ({time.perf_counter() - start:.2f}s)")


def test_criterion_1_component_census():
    def body():
        assert component_count(3, 2) == 27 == (2 + 1) ** 3
        for n in range(1, 5):
            for m in range(0, 6):
                reps = {bn_canonicalize(alpha) for alpha in components(n, m)}
                assert orbit_count(n, m) == len(reps), (n, m)

    report(1, "component census", body)


def test_criterion_2_one_quiver_fidelity():
    def body():
        assert build_one_quiver(3).euler_matrix().tolist() == M3
        assert one_quiver_euler_closed(3).tolist() == M3
        for n in range(1, 9):
            assert one_quiver_euler_recursive(n) == one_quiver_euler_closed(n).tolist(), n

    report(2, "one-quiver fidelity", body)


def test_criterion_3_simplicity_oracle_equivalence():
    def body():
        for n in range(1, 5):
            for m in range(1, 5):
                for alpha in components(n, m):
                    assert is_simple_alpha(alpha) == is_simple_alpha_oracle(alpha), str(alpha)
        exception = DimVector(((4, 0), (4, 0), (2, 2), (2, 2)))
        assert not is_simple_alpha(exception)
        assert not is_simple_alpha_oracle(exception)

    report(3, "simplicity oracle equivalence", body)


def test_criterion_4_dimension_formulas():
    def body():
        for n in range(1, 9):
            for m in range(1, n + 1):
                expected = (m - 1) * (2 * n - m - 1)
                assert iss_dim(DimVector.standard(n, m)) == expected, (n, m)
                s = LocalSetting(n, m, ((1 << n) - 1,), (m,))
                assert int(local_quiver(s).quiver.arrows[0, 0]) == expected, (n, m)

    report(4, "dimension formulas", body)


def test_criterion_5_figure_reproduction():
    def body():
        g33 = degeneration_graph(3, 3)
        assert len(g33.nodes) == 6 and len(g33.edges) == 6
        assert {(g33.nodes[i].id(), g33.nodes[j].id()) for i, j in g33.edges} == FIG33_EDGES
        g44 = degeneration_graph(4, 4)
        assert len(g44.nodes) == 13 and len(g44.edges) == 19
        assert {(g44.nodes[i].id(), g44.nodes[j].id()) for i, j in g44.edges} == FIG44_EDGES
        assert len(enumerate_settings(5, 5)) == 24
        slice333 = young_diagram_slice(9, 9, (3, 3, 3))
        assert len(slice333.nodes) == 10
        (top,) = [s for s in slice333.nodes if s.k == (3, 3, 3)]
        arrows = local_quiver(top).quiver.arrows
        assert arrows.shape == (3, 3)
        assert all(arrows[i, i] == 4 for i in range(3))
        assert all(arrows[i, j] == 9 for i in range(3) for j in range(3) if i != j)

    report(5, "figure reproduction", body)


def test_criterion_6_degeneration_order():
    def body():
        for n in range(1, 6):
            g = degeneration_graph(n, n)
            size = len(g.nodes)
            reach = [[i == j for j in range(size)] for i in range(size)]
            for i, j in g.edges:
                reach[i][j] = True
            for k in range(size):
                for i in range(size):
                    if reach[i][k]:
                        for j in range(size):
                            if reach[k][j]:
                                reach[i][j] = True
            rel = {}
            for i, s in enumerate(g.nodes):
                for j, t in enumerate(g.nodes):
                    rel[i, j] = degenerates_class(s, t)
                    assert reach[i][j] == rel[i, j], (s.id(), t.id())
            for i in range(size):
                assert rel[i, i]
                for j in range(size):
                    if i != j and rel[i, j]:
                        assert not rel[j, i]
                    for k in range(size):
                        if rel[i, j] and rel[j, k]:
                            assert rel[i, k]

    report(6, "degeneration order", body)


def test_criterion_7_rep2_census():
    def body():
        for n in range(1, 11):
            per_k = Counter(r.k for r in rep2_census(n))
            for k in range(n + 1):
                assert per_k[k] == 2 ** (n - k) * math.comb(n, k), (n, k)
            assert sum(per_k.values()) == 3**n
        (cube,) = [r for r in rep2_census(3) if r.a_mask == 0b111]
        assert cube.singularities == 4
        assert cube.local_type == "1 <=2=> 1"

    report(7, "rep2 census", body)


def test_criterion_8_treelike_classification():
    def body():
        # the counts are closed forms; tests/test_freeprod.py checks them,
        # key order included, against the exhaustive subset search at n <= 4
        census3 = treelike_census(3)
        assert len(census3) == 5
        assert set(census3) == {"I", "II(1)", "II(2)", "III(2)", "IV"}
        census4 = treelike_census(4)
        assert len(census4) == 7
        assert set(census4) == {"I", "II(1)", "II(2)", "II(3)", "III(2)", "III(3)", "IV"}

    report(8, "tree-like classification", body)


def test_criterion_9_smoothness_cross_check():
    def body():
        for n in range(1, 6):
            for m in range(1, n + 1):
                for s in enumerate_settings(n, m):
                    expected = (
                        (s.l == 1 and s.k[0] == s.m)
                        or (s.n == s.m and s.l == 1)
                        or s.n == s.m == 2
                    )
                    assert smooth_point(s) == expected, s.id()
                    # loops sit only at dimension-1 vertices, in the block rules' range
                    qs = local_quiver(s)
                    assert smooth_point(s) == is_smooth_setting(qs.quiver, qs.dims), s.id()

        def brute_family(alpha: DimVector) -> bool:
            n = alpha.n
            for perm in itertools.permutations(range(n)):
                for flips in itertools.product((False, True), repeat=n):
                    pairs = [
                        (q, p) if f else (p, q)
                        for (p, q), f in zip((alpha.pairs[i] for i in perm), flips)
                    ]
                    if all(p == 0 or q == 0 for p, q in pairs[2:]):
                        return True
            return False

        for n in range(1, 5):
            for m in range(1, 5):
                for alpha in components(n, m):
                    assert is_iss_smooth(alpha) == brute_family(alpha), str(alpha)

    report(9, "smoothness cross-check", body)


def test_criterion_10_semigroup():
    def body():
        rng = random.Random(10101)
        for case in range(200):
            n = rng.randint(1, 5)
            degree = rng.randint(1, 5)
            counts: dict[int, int] = {}
            for _ in range(degree):
                a = rng.randrange(1 << n)
                counts[a] = counts.get(a, 0) + 1
            cm = character_sum(n, counts)
            endpoints = []
            for seed in (2 * case, 2 * case + 1):
                state = dict(cm.counts)
                chooser = random.Random(seed)
                while True:
                    incomparable = [
                        (a, b)
                        for a, b in itertools.combinations(sorted(state), 2)
                        if (a & b) != a and (a & b) != b
                    ]
                    if not incomparable:
                        break
                    a, b = chooser.choice(incomparable)
                    for x in (a, b):
                        state[x] -= 1
                        if not state[x]:
                            del state[x]
                    for x in (a | b, a & b):
                        state[x] = state.get(x, 0) + 1
                    snapshot = character_sum(n, state)
                    assert snapshot.degree() == cm.degree()
                    assert snapshot.dim_vector() == cm.dim_vector()
                endpoints.append(character_sum(n, state))
            assert endpoints[0] == endpoints[1] == cm.canonical()
        forms = set()
        for a in range(8):
            for b in range(a, 8):
                cm = character_sum(3, Counter((a, b)))
                forms.add(cm.canonical())
        assert len(forms) == 27

    report(10, "semigroup normal form", body)
