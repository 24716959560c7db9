import itertools
import json
import math
import random
import time

import numpy as np
import pytest
from oracles import (
    chi,
    degenerates,
    enumerate_set_partitions,
    graph_json_obj,
    labels_by_product,
    min_element,
    semisimple_types,
    setting_json_obj,
    type_local_quiver,
    young_sort_key,
)

from z2quiver import localquiver
from z2quiver.combinat import (
    MAX_COUNT_DIGITS,
    DimVector,
    full_mask,
    multiset_coeff,
    partitions_of_int,
)
from z2quiver.freeprod import is_iss_smooth, iss_dim
from z2quiver.localquiver import (
    DegenerationGraph,
    LocalSetting,
    count_settings_for_young,
    degenerates_class,
    degeneration_graph,
    elementary_moves,
    enumerate_settings,
    local_euler_matrix,
    local_quiver,
    local_quiver_rows,
    smooth_point,
    young_diagram_slice,
)
from z2quiver.quiver import Quiver, QuiverSetting, is_smooth_setting, support


def blocks_of(*groups):
    return tuple(sum(1 << (e - 1) for e in g) for g in groups)


def whole(n: int) -> tuple[int, ...]:
    return (full_mask(n),)


class TestLocalSetting:
    def test_canonical_order(self):
        s = LocalSetting(4, 4, blocks_of((4,), (1, 2, 3)), (1, 2))
        assert s.sizes == (3, 1)
        assert s.k == (2, 1)

    def test_equal_sizes_sorted_by_k_then_min(self):
        s = LocalSetting(4, 4, blocks_of((3, 4), (1, 2)), (2, 1))
        assert s.blocks == blocks_of((3, 4), (1, 2))
        t = LocalSetting(4, 4, blocks_of((3, 4), (1, 2)), (1, 1))
        assert t.blocks == blocks_of((1, 2), (3, 4))

    def test_validation(self):
        with pytest.raises(ValueError):
            LocalSetting(3, 3, whole(3), (4,))  # k > block size
        with pytest.raises(ValueError):
            LocalSetting(3, 2, whole(3), (3,))  # sum k > m
        with pytest.raises(ValueError):
            LocalSetting(3, 4, whole(3), (3,))  # m > n
        with pytest.raises(ValueError):
            LocalSetting(3, 3, blocks_of((1, 2),), (1,))  # not a partition

    @pytest.mark.parametrize(
        "n,m,blocks,k,message",
        [
            (3, 3, blocks_of((1, 2), (2, 3)), (1, 1), "pairwise disjoint"),
            (3, 3, blocks_of((1, 2),), (1,), "cover the ground set"),
            (3, 3, (0,) + whole(3), (1, 1), "nonempty"),
            (3, 3, (0b1111,), (1,), r"not a subset mask over \{1..3\}"),
            (3, 3, (7.0,), (1,), "not a subset mask"),
            (3, 3, ("7",), (1,), "not a subset mask"),
            (3, 3, (-1,), (1,), "not a subset mask"),
            (3, 3, whole(3), (4,), r"k=4 out of range \[1, 3\] for block \{1,2,3\}"),
            (3, 3, whole(3), (0,), "k=0 out of range"),
            (3, 2, whole(3), (3,), "sum of k = 3 exceeds the level m = 2"),
            (3, 3, blocks_of((1,), (2, 3)), (1,), "one k value per block"),
            (3, 4, whole(3), (3,), "need 1 <= m <= n"),
            (17, 17, whole(17), (17,), "ground-set size"),
            (3, 3, (7,), ("2",), "m and the k values must be integers"),
            (3, 3, (7,), (1.5,), "m and the k values must be integers"),
            ("3", 3, (7,), (1,), "ground-set size"),
            (3, 2.5, (7,), (1,), "m and the k values must be integers"),
        ],
        ids=["overlap", "gap", "empty-block", "mask-past-n", "float-block", "str-block", "negative-block",
             "k-above-size", "k-zero", "sum-k-above-m", "k-count", "m-above-n", "n-past-16",
             "str-k", "float-k", "str-n", "float-m"],
    )
    def test_refuses_malformed(self, n, m, blocks, k, message):
        with pytest.raises(ValueError, match=message):
            LocalSetting(n, m, blocks, k)

    def test_entry_points_refuse_non_integers(self):
        # these raised TypeError from 1 <= m <= n, or took m = 2.5 as a level
        with pytest.raises(ValueError, match="ground-set size"):
            degeneration_graph("3", 3)
        with pytest.raises(ValueError, match="must be integers"):
            enumerate_settings(3, 2.5)
        with pytest.raises(ValueError, match="must be integers"):
            young_diagram_slice(3, 3, (1.5, 1.5))

    def test_order_sizes_and_young_match_labelled_construction(self):
        # oracle: the block order (size desc, k desc, smallest element asc),
        # the sizes and the (size, k) label rebuilt from the labelled blocks
        rng = random.Random(7)
        for part in enumerate_set_partitions(6):
            blocks = list(part.blocks)
            rng.shuffle(blocks)
            ks = tuple(rng.randint(1, b.bit_count()) for b in blocks)
            s = LocalSetting(6, 6, tuple(blocks), ks)
            order = sorted(zip(blocks, ks), key=lambda bk: (-bk[0].bit_count(), -bk[1], min_element(bk[0])))
            assert (s.blocks, s.k) == (tuple(b for b, _ in order), tuple(k for _, k in order))
            assert s.sizes == tuple(b.bit_count() for b in s.blocks)
            assert s.young() == tuple((b.bit_count(), k) for b, k in order)

    def test_young_and_id(self):
        s = LocalSetting(4, 4, blocks_of((1, 2, 3), (4,)), (2, 1))
        assert s.young() == ((3, 2), (1, 1))
        assert s.id() == "(3,1),(2,1)"

    def test_numpy_level_stored_as_int(self):
        # a numpy m was kept in DegenerationGraph.m and each LocalSetting.m,
        # so json.dumps(graph_json_obj(g)) raised TypeError
        g = degeneration_graph(4, np.int64(4))
        assert type(g.n) is type(g.m) is int
        assert all(type(s.n) is type(s.m) is int for s in g.nodes)
        assert g == degeneration_graph(4, 4)
        assert json.dumps(graph_json_obj(g)) == json.dumps(graph_json_obj(degeneration_graph(4, 4)))
        s = LocalSetting(3, np.int64(3), whole(3), (np.int64(2),))
        assert type(s.m) is type(s.k[0]) is int
        assert type(young_diagram_slice(4, np.int64(3), (2, 2)).m) is int


class TestLabelBuilt:
    @pytest.mark.parametrize("n", range(1, 10))
    def test_equal_to_validated_construction(self, n):
        # the enumeration, the moves, the graph and the slices store settings
        # built from labels unchecked; each equals LocalSetting on the same
        # blocks and k
        def check(s):
            t = LocalSetting(s.n, s.m, s.blocks, s.k)
            assert (t, t.sizes) == (s, s.sizes), s
            assert type(s.n) is type(s.m) is int

        for m in range(1, n + 1):
            for s in enumerate_settings(n, m):
                check(s)
                for t in elementary_moves(s):
                    check(t)
            for s in degeneration_graph(n, m).nodes:
                check(s)
            for shape in partitions_of_int(n):
                for s in young_diagram_slice(n, m, shape).nodes:
                    check(s)


class TestEnumerateSettings:
    @pytest.mark.parametrize(
        "n,m,count",
        [(3, 3, 6), (4, 4, 13), (5, 5, 24), (3, 2, 3), (1, 1, 1), (5, 4, 17), (5, 2, 4)],
    )
    def test_counts(self, n, m, count):
        assert len(enumerate_settings(n, m)) == count

    def test_count_against_direct_enumeration(self):
        # independent route: filter per-diagram k-multisets by the level bound
        for n in range(1, 7):
            for m in range(1, n + 1):
                expected = 0
                for sizes in partitions_of_int(n):
                    groups = [
                        (size, len(list(grp))) for size, grp in itertools.groupby(sizes)
                    ]
                    for choice in itertools.product(
                        *(
                            list(itertools.combinations_with_replacement(range(1, size + 1), mu))
                            for size, mu in groups
                        )
                    ):
                        if sum(sum(ks) for ks in choice) <= m:
                            expected += 1
                assert len(enumerate_settings(n, m)) == expected, (n, m)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_labels_match_the_product_of_class_multisets(self, n):
        # the pruned enumeration against the full product, filtered by the level
        for m in range(1, n + 1):
            assert localquiver._labels(n, m) == labels_by_product(n, m), m

    def test_m_above_n_rejected(self):
        with pytest.raises(ValueError, match="simple"):
            enumerate_settings(3, 4)

    def test_distinct_class_labels(self):
        for n, m in ((4, 4), (5, 3), (6, 6)):
            ids = [s.id() for s in enumerate_settings(n, m)]
            assert len(ids) == len(set(ids))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_per_diagram_count_at_full_level(self, n):
        settings = enumerate_settings(n, n)
        for sizes in partitions_of_int(n):
            rows = []
            for size, group in itertools.groupby(sizes):
                rows.append((size, len(list(group))))
            expected = count_settings_for_young(tuple(rows))
            got = sum(1 for s in settings if s.sizes == sizes)
            assert got == expected


class TestCountForYoung:
    def test_three_cubed(self):
        assert count_settings_for_young(((3, 3),)) == 10
        assert count_settings_for_young(((3, 3),)) == multiset_coeff(3, 3)

    def test_single_column(self):
        for n in range(1, 8):
            assert count_settings_for_young(((1, n),)) == 1

    def test_n4_total(self):
        diagrams = [((4, 1),), ((3, 1), (1, 1)), ((2, 2),), ((2, 1), (1, 2)), ((1, 4),)]
        assert [count_settings_for_young(d) for d in diagrams] == [4, 3, 3, 2, 1]
        assert sum(count_settings_for_young(d) for d in diagrams) == 13

    def test_invalid(self):
        with pytest.raises(ValueError):
            count_settings_for_young(((2, 1), (2, 1)))

    def test_huge_count_refused_up_front(self):
        # ran past 10 s computing C(2 * 10**7 - 1, 10**7)
        start = time.monotonic()
        with pytest.raises(ValueError, match="digits"):
            count_settings_for_young(((10**7, 10**7),))
        assert time.monotonic() - start < 1

    def test_product_past_digit_limit_refused(self):
        # each factor has about 3000 digits; their product passes the limit
        one = count_settings_for_young(((5000, 5000),))
        assert one == math.comb(9999, 5000) < 10**MAX_COUNT_DIGITS
        with pytest.raises(ValueError, match="digits"):
            count_settings_for_young(((5000, 5000), (4999, 4999)))

    def test_non_integer_row_refused(self):
        # raised TypeError from math.comb
        with pytest.raises(ValueError, match="must be integers"):
            count_settings_for_young(((2.5, 1),))


class TestLocalQuiver:
    def test_node_a333(self):
        s = LocalSetting(9, 9, blocks_of((1, 2, 3), (4, 5, 6), (7, 8, 9)), (3, 3, 3))
        qs = local_quiver(s)
        assert qs.dims == (1, 1, 1)
        assert qs.quiver.arrows.tolist() == [[4, 9, 9], [9, 4, 9], [9, 9, 4]]

    def test_node_a332(self):
        s = LocalSetting(9, 9, blocks_of((1, 2, 3), (4, 5, 6), (7, 8, 9)), (3, 3, 2))
        qs = local_quiver(s)
        assert qs.dims == (1, 1, 1, 1)
        assert qs.quiver.arrows.tolist() == [
            [4, 9, 9, 0],
            [9, 4, 9, 0],
            [9, 9, 3, 1],
            [0, 0, 1, 0],
        ]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_whole_block_loops_match_moduli_dimension(self, n):
        for m in range(1, n + 1):
            s = LocalSetting(n, m, whole(n), (m,))
            qs = local_quiver(s)
            assert int(qs.quiver.arrows[0, 0]) == (m - 1) * (2 * n - m - 1)
            assert int(qs.quiver.arrows[0, 0]) == iss_dim(DimVector.standard(n, m))

    def test_full_level_whole_block_has_single_vertex(self):
        qs = local_quiver(LocalSetting(4, 4, whole(4), (4,)))
        assert qs.quiver.v == 1 and qs.dims == (1,)

    def test_no_trivial_vertex_at_sum_k_equal_m(self):
        # sum k = m though the block keeps spare room: the trivial character
        # does not occur, so it has no vertex
        s = LocalSetting(3, 2, whole(3), (2,))
        qs = local_quiver(s)
        assert qs == QuiverSetting(Quiver([[3]]), (1,))
        assert local_quiver_rows(s) == ([[3]], (1,))
        assert local_euler_matrix(s).tolist() == [[-2]]

    def test_symmetry_everywhere(self):
        for n in range(1, 7):
            for m in range(1, n + 1):
                for s in enumerate_settings(n, m):
                    arrows = local_quiver(s).quiver.arrows
                    assert (arrows == arrows.T).all()

    def test_local_quiver_is_its_own_support(self):
        # every vertex is a summand that occurs: no dimension 0, and support()
        # keeps the whole quiver; the emitters' int rows are its arrows
        count = 0
        for n in range(1, 11):
            for m in range(1, n + 1):
                for s in enumerate_settings(n, m):
                    qs = local_quiver(s)
                    assert 0 not in qs.dims and support(qs.quiver, qs.dims) == qs, s
                    assert local_quiver_rows(s) == (qs.quiver.arrows.tolist(), qs.dims), s
                    count += 1
        assert count == 4159

    def test_stored_arrows_match_the_checked_quiver(self):
        # oracle: the validating Quiver constructor on the same rows
        for n in range(1, 9):
            for m in range(1, n + 1):
                for s in enumerate_settings(n, m):
                    q = local_quiver(s).quiver
                    assert q == Quiver(local_quiver_rows(s)[0]), s
                    assert q.arrows.dtype == np.int64 and not q.arrows.flags.writeable, s

    def test_standard_types_are_the_settings(self):
        # a simple of (m-1,1)^n is (k-1,1) on its minus set A and (k,0) off it,
        # the block (|A|, k) of a setting, or the trivial character (|A| = 0);
        # its Le Bruyn-Procesi quiver, read off chi, is the setting's local quiver
        classes = types = 0
        for n in range(1, 7):
            for m in range(1, n + 1):
                settings = {s.young(): s for s in enumerate_settings(n, m)}
                labels = set()
                for t in semisimple_types(DimVector.standard(n, m)):
                    keyed = sorted((((sum(q for _, q in b.pairs), b.m), (b, e)) for b, e in t), reverse=True)
                    label = tuple(key for key, _ in keyed if key[0])
                    qs = type_local_quiver(n, tuple(summand for _, summand in keyed))
                    assert (qs.quiver.arrows.tolist(), qs.dims) == local_quiver_rows(settings[label]), (n, m, t)
                    labels.add(label)
                    types += 1
                assert labels == settings.keys(), (n, m)
                classes += len(labels)
        assert (classes, types) == (226, 3141)


class TestLocalEulerMatrix:
    def test_a333(self):
        s = LocalSetting(9, 9, blocks_of((1, 2, 3), (4, 5, 6), (7, 8, 9)), (3, 3, 3))
        assert local_euler_matrix(s).tolist() == [[-3, -9, -9], [-9, -3, -9], [-9, -9, -3]]

    def test_whole_block_full_level(self):
        for n in range(2, 7):
            s = LocalSetting(n, n, whole(n), (n,))
            assert local_euler_matrix(s).tolist() == [[2 * n - n * n]]

    def test_one_block_with_room(self):
        s = LocalSetting(3, 3, whole(3), (1,))
        assert local_euler_matrix(s).tolist() == [[1, -2], [-2, 1]]

    def test_matches_the_euler_form_chi(self):
        # the paper's route: chi between the dimension vectors of the summands, a
        # simple (k_i - 1, 1) on A_i and (k_i, 0) off it per block, then the
        # trivial character (1, 0)^n when m > sum k
        for n in range(1, 9):
            for m in range(1, n + 1):
                for s in enumerate_settings(n, m):
                    summands = [[x for i in range(n) for x in ((k - 1, 1) if a >> i & 1 else (k, 0))]
                                for a, k in zip(s.blocks, s.k)] + [[1, 0] * n] * (m > s.k_total)
                    e = local_euler_matrix(s)
                    assert e.dtype == np.int64
                    assert e.tolist() == [[chi(n, b, c) for c in summands] for b in summands], s

    def test_matches_local_quiver_everywhere(self):
        for n in range(1, 7):
            for m in range(1, n + 1):
                for s in enumerate_settings(n, m):
                    e = local_euler_matrix(s)
                    q = local_quiver(s).quiver.euler_matrix()
                    assert np.array_equal(e, q), s

    def test_read_only_and_the_euler_matrix_of_local_quiver(self):
        # the trivial-character vertex, present when m - sum(k) > 0, always has
        # arrows: m <= n = sum |A_i| forces some |A_i| > k_i, joining it to a block
        for n in range(1, 11):
            for m in range(1, n + 1):
                for s in enumerate_settings(n, m):
                    e, q = local_euler_matrix(s), local_quiver(s).quiver.euler_matrix()
                    assert e.dtype == np.int64 and e.shape == q.shape and np.array_equal(e, q), s
                    assert not e.flags.writeable, s


class TestDegenerates:
    def test_k_lowering(self):
        a = LocalSetting(3, 3, whole(3), (3,))
        b = LocalSetting(3, 3, whole(3), (2,))
        assert degenerates(a, b)
        assert not degenerates(b, a)

    def test_split(self):
        a = LocalSetting(3, 3, whole(3), (3,))
        c = LocalSetting(3, 3, blocks_of((1, 2), (3,)), (2, 1))
        assert degenerates(a, c)
        assert not degenerates(c, a)

    def test_reflexive(self):
        for s in enumerate_settings(4, 4):
            assert degenerates(s, s)
            assert degenerates_class(s, s)

    def test_mismatched_levels_rejected(self):
        with pytest.raises(ValueError):
            degenerates(LocalSetting(3, 3, whole(3), (3,)), LocalSetting(3, 2, whole(3), (2,)))

    def test_class_level_uses_permutations(self):
        # labelled refinement can fail while some permuted representative works
        s = LocalSetting(4, 4, blocks_of((1, 2), (3, 4)), (2, 1))
        t = LocalSetting(4, 4, blocks_of((1, 3), (2,), (4,)), (1, 1, 1))
        assert not degenerates(s, t)
        assert degenerates_class(s, t)


def class_members(t: LocalSetting):
    """Every labelled setting in the permutation class of t, found by
    scanning all set partitions of the ground set."""
    shape = tuple(sorted(t.sizes, reverse=True))
    by_size: dict[int, list[int]] = {}
    for sz, k in zip(t.sizes, t.k):
        by_size.setdefault(sz, []).append(k)
    for part in enumerate_set_partitions(t.n):
        if part.sizes != shape:
            continue
        class_blocks: dict[int, list[int]] = {}
        for b in part.blocks:
            class_blocks.setdefault(b.bit_count(), []).append(b)
        per_class = []
        for sz in sorted(class_blocks, reverse=True):
            per_class.append(sorted(set(itertools.permutations(by_size[sz]))))
        for assignment in itertools.product(*per_class):
            blocks: list[int] = []
            ks: list[int] = []
            for sz, ktuple in zip(sorted(class_blocks, reverse=True), assignment):
                blocks.extend(class_blocks[sz])
                ks.extend(ktuple)
            yield LocalSetting(t.n, t.m, tuple(blocks), tuple(ks))


def scan_degenerates_class(s: LocalSetting, t: LocalSetting) -> bool:
    """Oracle for degenerates_class: some labelled member of t's class is a
    labelled degeneration of s."""
    return any(degenerates(s, tt) for tt in class_members(t))


class TestDegeneratesClass:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_matches_labelled_scan(self, n):
        for m in range(1, n + 1):
            nodes = enumerate_settings(n, m)
            for s in nodes:
                for t in nodes:
                    assert degenerates_class(s, t) == scan_degenerates_class(s, t), (m, s.id(), t.id())

    def test_mismatched_levels_rejected(self):
        with pytest.raises(ValueError):
            degenerates_class(LocalSetting(3, 3, whole(3), (3,)), LocalSetting(3, 2, whole(3), (2,)))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_label_invariants_refuse_only_what_the_search_refuses(self, n):
        # oracle: the packing search alone, on every ordered class pair
        refused = 0
        for m in range(1, n + 1):
            nodes = enumerate_settings(n, m)
            for s in nodes:
                for t in nodes:
                    if sum(t.k) > sum(s.k) or t.l < s.l or max(t.sizes) > max(s.sizes):
                        refused += 1
                        assert not localquiver._packs(s, t), (m, s.id(), t.id())
                    assert degenerates_class(s, t) == localquiver._packs(s, t), (m, s.id(), t.id())
        assert refused or n == 1


def labelled_elementary_moves(s: LocalSetting) -> list[LocalSetting]:
    """Oracle for elementary_moves: every k-lowering and every labelled
    split of every block (its lowest element in the first part), deduplicated
    by (size, k) label with the first representative kept, sorted."""
    targets: dict[tuple[tuple[int, int], ...], LocalSetting] = {}

    def add(setting: LocalSetting) -> None:
        targets.setdefault(setting.young(), setting)

    for i in range(s.l):
        if s.k[i] >= 2:
            add(LocalSetting(s.n, s.m, s.blocks, s.k[:i] + (s.k[i] - 1,) + s.k[i + 1 :]))
    for i, block in enumerate(s.blocks):
        if block.bit_count() < 2:
            continue
        low = 1 << (min_element(block) - 1)
        rest = [1 << e for e in range(s.n) if block >> e & 1 and 1 << e != low]
        for r in range(len(rest) + 1):
            for extra in itertools.combinations(rest, r):
                part_a = low | sum(extra)
                part_b = block ^ part_a
                if not part_b:
                    continue
                for ka in range(1, s.k[i]):
                    kb = s.k[i] - ka
                    if ka <= part_a.bit_count() and 1 <= kb <= part_b.bit_count():
                        blocks = s.blocks[:i] + (part_a, part_b) + s.blocks[i + 1 :]
                        add(LocalSetting(s.n, s.m, blocks, s.k[:i] + (ka, kb) + s.k[i + 1 :]))
    return sorted(targets.values(), key=lambda t: young_sort_key(t.young()))


class TestElementaryMoves:
    @pytest.mark.parametrize("n", range(1, 10))
    def test_matches_labelled_splits(self, n):
        # the same representatives, blocks included, in the same order
        for m in range(1, n + 1):
            for s in enumerate_settings(n, m):
                assert elementary_moves(s) == labelled_elementary_moves(s), (m, s)

    def test_top_node_33(self):
        moves = elementary_moves(LocalSetting(3, 3, whole(3), (3,)))
        assert {t.id() for t in moves} == {"(3),(2)", "(2,1),(2,1)"}

    def test_node_31_21(self):
        s = LocalSetting(4, 4, blocks_of((1, 2, 3), (4,)), (2, 1))
        assert {t.id() for t in elementary_moves(s)} == {"(3,1),(1,1)", "(2,1,1),(1,1,1)"}

    def test_minimal_node_has_no_moves(self):
        s = LocalSetting(4, 4, blocks_of((1,), (2,), (3,), (4,)), (1, 1, 1, 1))
        assert elementary_moves(s) == []

    def test_moves_are_degenerations(self):
        for n, m in ((4, 4), (5, 3)):
            for s in enumerate_settings(n, m):
                for t in elementary_moves(s):
                    assert degenerates_class(s, t)
                    assert s.young() != t.young()


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

FIG333_EDGES = {
    ("(3,3,3)", "(3,3,2)"),
    ("(3,3,2)", "(3,3,1)"),
    ("(3,3,2)", "(3,2,2)"),
    ("(3,3,1)", "(3,2,1)"),
    ("(3,2,2)", "(3,2,1)"),
    ("(3,2,2)", "(2,2,2)"),
    ("(3,2,1)", "(2,2,1)"),
    ("(3,2,1)", "(3,1,1)"),
    ("(2,2,2)", "(2,2,1)"),
    ("(2,2,1)", "(2,1,1)"),
    ("(3,1,1)", "(2,1,1)"),
    ("(2,1,1)", "(1,1,1)"),
}


def edge_ids(g: DegenerationGraph) -> set[tuple[str, str]]:
    return {(g.nodes[i].id(), g.nodes[j].id()) for i, j in g.edges}


def closure(g: DegenerationGraph) -> list[int]:
    """Reflexive-transitive closure as bit rows: j is reachable from i
    exactly when bit j of row i is set."""
    reach = [1 << i for i in range(len(g.nodes))]
    for i, j in g.edges:
        reach[i] |= 1 << j
    for k, row_k in enumerate(reach):
        for i, row_i in enumerate(reach):
            if row_i >> k & 1:
                reach[i] = row_i | row_k
    return reach


def young_keyed_graph(n: int, m: int) -> tuple[list[LocalSetting], list[tuple[int, int]]]:
    """Oracle for degeneration_graph: the settings sorted by young_sort_key,
    and an edge to each target of elementary_moves, found by its label."""
    nodes = sorted(enumerate_settings(n, m), key=lambda s: young_sort_key(s.young()))
    index = {s.young(): i for i, s in enumerate(nodes)}
    edges = {(i, index[t.young()]) for i, s in enumerate(nodes) for t in elementary_moves(s)}
    return nodes, sorted(edges)


class TestDegenerationGraph:
    @pytest.mark.parametrize("n", range(1, 10))
    def test_matches_young_keyed_graph(self, n):
        for m in range(1, n + 1):
            g = degeneration_graph(n, m)
            nodes, edges = young_keyed_graph(n, m)
            assert (list(g.nodes), list(g.edges)) == (nodes, edges), m
            assert [s.id() for s in g.nodes] == [s.id() for s in nodes], m

    def test_counts_past_nine(self):
        # the full-level settings are the per-diagram multiset counts
        for n, count in ((10, 500), (12, 1479), (16, 11297)):
            diagrams = [tuple((size, len(list(run))) for size, run in itertools.groupby(sizes))
                        for sizes in partitions_of_int(n)]
            assert sum(map(count_settings_for_young, diagrams)) == count
            assert len(enumerate_settings(n, n)) == count

    def test_reachability_is_degeneration_at_ten(self):
        g = degeneration_graph(10, 10)
        reach = closure(g)
        for i, s in enumerate(g.nodes):
            for j, t in enumerate(g.nodes):
                assert bool(reach[i] >> j & 1) == degenerates_class(s, t), (s.id(), t.id())

    @pytest.mark.parametrize("n", (11, 12))
    def test_reachability_is_degeneration_on_a_sample(self, n):
        g = degeneration_graph(n, n)
        reach = closure(g)
        rng = random.Random(n)
        k = len(g.nodes)
        for _ in range(4000):
            i, j = rng.randrange(k), rng.randrange(k)
            assert bool(reach[i] >> j & 1) == degenerates_class(g.nodes[i], g.nodes[j]), (i, j)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_stratum_dimension_falls_along_every_edge(self, n):
        # a setting's stratum has dimension sum (k_i - 1)(2|A_i| - k_i - 1), the
        # loops at the block vertices of its local quiver; a degeneration lowers it
        for m in range(1, n + 1):
            g = degeneration_graph(n, m)
            strata = []
            for s in g.nodes:
                rows, _ = local_quiver_rows(s)
                strata.append(sum(rows[i][i] for i in range(s.l)))
            assert strata[0] == (m - 1) * (2 * n - m - 1) == iss_dim(DimVector.standard(n, m)), m
            assert all(strata[i] > strata[j] for i, j in g.edges), m

    def test_constructor_checks_and_stores_tuples(self):
        g = degeneration_graph(4, 3)
        built = DegenerationGraph(4, np.int64(3), list(g.nodes), [[i, np.int64(j)] for i, j in g.edges])
        assert built == g and type(built.nodes) is tuple and all(type(e) is tuple for e in built.edges)
        assert all(type(x) is int for e in built.edges for x in e)
        other_level = enumerate_settings(4, 4)[0]
        for nodes, edges in [(5, ()), ((), 5), ((g.nodes[0], "node"), ()), ((other_level,), ()), ((), ((0, 0),)),
                             (g.nodes, ((0, len(g.nodes)),)), (g.nodes, ((0, -1),)), (g.nodes, ((0,),)),
                             (g.nodes, ((0, 1, 2),)), (g.nodes, ((0, 1.0),))]:
            with pytest.raises(ValueError):
                DegenerationGraph(4, 3, nodes, edges)

    def test_fig_33(self):
        g = degeneration_graph(3, 3)
        assert len(g.nodes) == 6 and len(g.edges) == 6
        assert {s.id() for s in g.nodes} == {a for e in FIG33_EDGES for a in e}
        assert edge_ids(g) == FIG33_EDGES

    def test_fig_44(self):
        g = degeneration_graph(4, 4)
        assert len(g.nodes) == 13 and len(g.edges) == 19
        assert edge_ids(g) == FIG44_EDGES

    @pytest.mark.parametrize("n", range(1, 13))
    def test_graded_hasse_diagram(self, n):
        # every edge lowers r = sum k - l by exactly 1, from the one node with no
        # edge in, (n),(m) at r = m - 1, to those with no edge out: every k = 1
        for m in range(1, n + 1):
            g = degeneration_graph(n, m)
            rank = [s.k_total - s.l for s in g.nodes]
            assert all(rank[i] - rank[j] == 1 for i, j in g.edges), m
            heads, tails = {j for _, j in g.edges}, {i for i, _ in g.edges}
            tops = [(s.young(), r) for i, (s, r) in enumerate(zip(g.nodes, rank)) if i not in heads]
            assert tops == [(((n, m),), m - 1)], m
            bottoms = {i for i in range(len(g.nodes)) if i not in tails}
            assert bottoms == {i for i, s in enumerate(g.nodes) if set(s.k) == {1}}, m

    def test_acyclic(self):
        for n, m in ((4, 4), (5, 5), (5, 2)):
            g = degeneration_graph(n, m)
            reach = closure(g)
            for i, j in g.edges:
                assert not reach[j] >> i & 1

    @pytest.mark.parametrize("n", range(1, 9))
    def test_closure_equals_degeneration_order(self, n):
        for m in range(1, n + 1):
            g = degeneration_graph(n, m)
            reach = closure(g)
            for i, s in enumerate(g.nodes):
                for j, t in enumerate(g.nodes):
                    assert bool(reach[i] >> j & 1) == degenerates_class(s, t), (m, s.id(), t.id())

    @pytest.mark.parametrize("n", range(1, 6))
    def test_partial_order(self, n):
        nodes = enumerate_settings(n, n)
        rel = {
            (i, j): degenerates_class(s, t)
            for i, s in enumerate(nodes)
            for j, t in enumerate(nodes)
        }
        for i in range(len(nodes)):
            assert rel[i, i]
            for j in range(len(nodes)):
                if i != j and rel[i, j]:
                    assert not rel[j, i]
                for k in range(len(nodes)):
                    if rel[i, j] and rel[j, k]:
                        assert rel[i, k]

    def test_level_slice_matches_lower_level_graph(self):
        # the level-m graph is the induced subgraph of the full-level graph
        # on the nodes with total k at most m
        for n, m in ((4, 3), (5, 3), (4, 2)):
            full = degeneration_graph(n, n)
            low = degeneration_graph(n, m)
            keep = {i for i, s in enumerate(full.nodes) if s.k_total <= m}
            kept_ids = sorted(full.nodes[i].id() for i in keep)
            assert kept_ids == sorted(s.id() for s in low.nodes)
            induced = {
                (full.nodes[i].id(), full.nodes[j].id())
                for i, j in full.edges
                if i in keep and j in keep
            }
            assert induced == edge_ids(low)
            # and the exact-level slices agree as well
            exact_full = {
                (full.nodes[i].id(), full.nodes[j].id())
                for i, j in full.edges
                if full.nodes[i].k_total == m and full.nodes[j].k_total == m
            }
            exact_low = {
                (low.nodes[i].id(), low.nodes[j].id())
                for i, j in low.edges
                if low.nodes[i].k_total == m and low.nodes[j].k_total == m
            }
            assert exact_full == exact_low


class TestYoungSlice:
    def test_diagram_333_of_level_nine(self):
        g = young_diagram_slice(9, 9, (3, 3, 3))
        assert len(g.nodes) == 10 and len(g.edges) == 12
        got = {(g.nodes[i].k, g.nodes[j].k) for i, j in g.edges}
        expected = {
            (tuple(int(x) for x in a.strip("()").split(",")), tuple(int(x) for x in b.strip("()").split(",")))
            for a, b in FIG333_EDGES
        }
        assert got == expected

    def test_slice_count_matches_multiset(self):
        assert len(young_diagram_slice(9, 9, (3, 3, 3)).nodes) == count_settings_for_young(((3, 3),))

    def test_bad_diagram(self):
        # a wrong sum, nonpositive rows, m > n and n past MAX_GROUND
        for n, m, sizes in ((9, 9, (3, 3)), (3, 3, (3, 0)), (3, 3, (4, -1)), (3, 4, (3,)), (17, 17, (17,))):
            with pytest.raises(ValueError):
                young_diagram_slice(n, m, sizes)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_nodes_are_the_filtered_enumeration(self, n):
        # oracle: the slice's nodes, in order, are enumerate_settings filtered to the diagram
        for m in range(1, n + 1):
            settings = enumerate_settings(n, m)
            for shape in partitions_of_int(n):
                assert young_diagram_slice(n, m, shape).nodes == tuple(s for s in settings if s.sizes == shape)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_edges_are_k_lowerings(self, n):
        # oracle: lower each k_i >= 2 of each labelled node by one, found by label
        for m in range(1, n + 1):
            for shape in partitions_of_int(n):
                g = young_diagram_slice(n, m, shape)
                index = {s.young(): i for i, s in enumerate(g.nodes)}
                expected = {
                    (i, index[LocalSetting(n, m, s.blocks, s.k[:j] + (s.k[j] - 1,) + s.k[j + 1 :]).young()])
                    for i, s in enumerate(g.nodes)
                    for j in range(s.l)
                    if s.k[j] >= 2
                }
                assert sorted(expected) == list(g.edges), (m, shape)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_edges_are_in_diagram_elementary_moves(self, n):
        # oracle: every elementary move of a slice node whose target keeps the diagram
        for m in range(1, n + 1):
            for shape in partitions_of_int(n):
                g = young_diagram_slice(n, m, shape)
                index = {s.young(): i for i, s in enumerate(g.nodes)}
                expected = {
                    (i, index[t.young()])
                    for i, s in enumerate(g.nodes)
                    for t in elementary_moves(s)
                    if t.young() in index
                }
                assert set(g.edges) == expected, (m, shape)


# node quivers of the full-level n=3 graph: id -> (dims, arrows)
FIG33_QUIVERS = {
    "(3),(3)": ((1,), [[4]]),
    "(2,1),(2,1)": ((1, 1), [[1, 2], [2, 0]]),
    "(1,1,1),(1,1,1)": ((1, 1, 1), [[0, 1, 1], [1, 0, 1], [1, 1, 0]]),
    "(3),(2)": ((1, 1), [[3, 1], [1, 0]]),
    "(2,1),(1,1)": ((1, 1, 1), [[0, 2, 1], [2, 0, 0], [1, 0, 0]]),
    "(3),(1)": ((1, 2), [[0, 2], [2, 0]]),
}


def test_fig33_node_quivers():
    g = degeneration_graph(3, 3)
    for s in g.nodes:
        qs = local_quiver(s)
        dims, arrows = FIG33_QUIVERS[s.id()]
        assert qs.dims == dims, s.id()
        assert qs.quiver.arrows.tolist() == arrows, s.id()


# node quivers of the full-level n=4 graph: id -> (dims, arrows)
FIG44_QUIVERS = {
    "(4),(4)": ((1,), [[9]]),
    "(3,1),(3,1)": ((1, 1), [[4, 3], [3, 0]]),
    "(2,2),(2,2)": ((1, 1), [[1, 4], [4, 1]]),
    "(2,1,1),(2,1,1)": ((1, 1, 1), [[1, 2, 2], [2, 0, 1], [2, 1, 0]]),
    "(1,1,1,1),(1,1,1,1)": (
        (1, 1, 1, 1),
        [[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]],
    ),
    "(4),(3)": ((1, 1), [[8, 1], [1, 0]]),
    "(3,1),(2,1)": ((1, 1, 1), [[3, 3, 1], [3, 0, 0], [1, 0, 0]]),
    "(2,2),(2,1)": ((1, 1, 1), [[1, 4, 0], [4, 0, 1], [0, 1, 0]]),
    "(2,1,1),(1,1,1)": ((1, 1, 1, 1), [[0, 2, 2, 1], [2, 0, 1, 0], [2, 1, 0, 0], [1, 0, 0, 0]]),
    "(4),(2)": ((1, 2), [[5, 2], [2, 0]]),
    "(3,1),(1,1)": ((1, 1, 2), [[0, 3, 2], [3, 0, 0], [2, 0, 0]]),
    "(2,2),(1,1)": ((1, 1, 2), [[0, 3, 1], [3, 0, 1], [1, 1, 0]]),
    "(4),(1)": ((1, 3), [[0, 3], [3, 0]]),
}


def test_fig44_node_quivers():
    g = degeneration_graph(4, 4)
    assert len(g.nodes) == len(FIG44_QUIVERS)
    for s in g.nodes:
        qs = local_quiver(s)
        dims, arrows = FIG44_QUIVERS[s.id()]
        assert qs.dims == dims, s.id()
        assert qs.quiver.arrows.tolist() == arrows, s.id()


class TestSmoothPoint:
    def test_examples(self):
        assert smooth_point(LocalSetting(4, 4, whole(4), (2,)))
        assert not smooth_point(LocalSetting(3, 3, blocks_of((1, 2), (3,)), (2, 1)))
        assert not smooth_point(LocalSetting(3, 2, whole(3), (1,)))
        assert smooth_point(LocalSetting(2, 2, blocks_of((1,), (2,)), (1, 1)))
        assert smooth_point(LocalSetting(5, 3, whole(5), (3,)))  # point over a simple

    @pytest.mark.parametrize("n", range(1, 6))
    def test_three_case_classification(self, n):
        for m in range(1, n + 1):
            for s in enumerate_settings(n, m):
                expected = (
                    (s.l == 1 and s.k[0] == s.m)
                    or (s.n == s.m and s.l == 1)
                    or s.n == s.m == 2
                )
                assert smooth_point(s) == expected

    @pytest.mark.parametrize("n", range(1, 6))
    def test_cross_validation_on_loop_free_settings(self, n):
        # loop-free local quivers are exactly the all-k-equal-1 settings; there the
        # smooth-point classification must agree with the block rules
        for m in range(1, n + 1):
            for s in enumerate_settings(n, m):
                qs = local_quiver(s)
                if all(k == 1 for k in s.k):
                    assert not qs.quiver.arrows.diagonal().any()
                    assert smooth_point(s) == is_smooth_setting(qs.quiver, qs.dims), s.id()
                else:
                    assert qs.quiver.arrows.diagonal().any()

    def test_matches_block_rules_on_every_local_quiver(self):
        # the local quivers carry loops only at dimension-1 block vertices,
        # which is_smooth_setting ignores, so it decides every setting
        for n in range(1, 11):
            for m in range(1, n + 1):
                for s in enumerate_settings(n, m):
                    qs = local_quiver(s)
                    assert smooth_point(s) == is_smooth_setting(qs.quiver, qs.dims), s.id()

    def test_component_smooth_exactly_when_every_point_is(self):
        for n in range(1, 13):
            for m in range(1, n + 1):
                points = enumerate_settings(n, m)
                assert is_iss_smooth(DimVector.standard(n, m)) == all(map(smooth_point, points)), (n, m)


class TestJsonExport:
    def test_node_schema(self):
        s = LocalSetting(3, 3, whole(3), (2,))
        obj = setting_json_obj(s)
        assert list(obj) == ["id", "young", "k", "quiver", "dims", "smooth"]
        assert obj["id"] == "(3),(2)"
        assert obj["young"] == [[3, 1]]
        assert obj["k"] == [2]
        assert obj["quiver"]["v"] == 2
        assert obj["dims"] == [1, 1]
        assert obj["smooth"] is True

    def test_graph_schema_and_determinism(self):
        one = json.dumps(graph_json_obj(degeneration_graph(3, 3)), indent=2)
        two = json.dumps(graph_json_obj(degeneration_graph(3, 3)), indent=2)
        assert one == two
        obj = json.loads(one)
        assert obj["n"] == 3 and obj["m"] == 3
        assert len(obj["nodes"]) == 6 and len(obj["edges"]) == 6
        ids = {node["id"] for node in obj["nodes"]}
        assert all(a in ids and b in ids for a, b in obj["edges"])
