import copy
import itertools
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import is_simple_support, is_smooth_setting_by_parts, strongly_connected

from z2quiver.freeprod import build_one_quiver, build_Qn
from z2quiver.quiver import (
    Quiver,
    QuiverSetting,
    UnsupportedInputError,
    _is_simple_support,
    euler_form,
    is_simple_dimvector,
    is_smooth_setting,
    is_strongly_connected,
    support,
)


def cycle_quiver(k: int) -> Quiver:
    a = np.zeros((k, k), dtype=int)
    for i in range(k):
        a[i, (i + 1) % k] = 1
    return Quiver(a)


def pair_quiver(mult: int) -> Quiver:
    return Quiver([[0, mult], [mult, 0]])


def square_quiver() -> Quiver:
    # two disjoint single-arrow pairs: 0 <-> 3 and 1 <-> 2
    a = np.zeros((4, 4), dtype=int)
    a[0, 3] = a[3, 0] = a[1, 2] = a[2, 1] = 1
    return Quiver(a)


def chain_quiver(m1: int, m2: int) -> Quiver:
    return Quiver([[0, m1, 0], [m1, 0, m2], [0, m2, 0]])


class TestQuiverBasics:
    def test_validation(self):
        with pytest.raises(ValueError):
            Quiver([[0, 1], [1, -1]])
        with pytest.raises(ValueError):
            Quiver([[0, 1, 0], [0, 0, 1]])

    def test_frozen_matrix(self):
        q = pair_quiver(1)
        with pytest.raises(ValueError):
            q.arrows[0, 1] = 5

    def test_arrows_cannot_be_reassigned_or_deleted(self):
        # a quiver is a value: reassigning arrows would change its v and its
        # hash while it is a dict key
        q = pair_quiver(1)
        keyed = {q: "pair"}
        for act in (lambda: setattr(q, "arrows", np.zeros((3, 3), dtype=np.int64)),
                    lambda: delattr(q, "arrows"), lambda: setattr(q, "extra", 1)):
            with pytest.raises(AttributeError):
                act()
        assert q.v == 2 and keyed[pair_quiver(1)] == "pair" and not hasattr(q, "__dict__")
        for twin in (pickle.loads(pickle.dumps(q)), copy.copy(q), copy.deepcopy(q)):
            assert type(twin) is Quiver and twin == q and hash(twin) == hash(q)
            assert not twin.arrows.flags.writeable

    def test_read_only_matrix_copied(self):
        # the caller can make its read-only array writeable again and write
        # to it; the quiver and its hash must not follow
        frozen = np.eye(3, dtype=np.int64)
        frozen.flags.writeable = False
        q = Quiver(frozen)
        before = hash(q)
        frozen.flags.writeable = True
        frozen[0, 1] = 3
        assert q.arrows is not frozen and q.arrows[0, 1] == 0
        assert hash(q) == before
        # a writeable array, a view and another dtype are copied
        live = np.eye(3, dtype=np.int64)
        q = Quiver(live)
        live[0, 1] = 7
        assert q.arrows is not live and q.arrows[0, 1] == 0
        view = frozen[:2, :2]
        assert Quiver(view).arrows is not view
        assert Quiver(np.eye(2, dtype=np.int32)).arrows.dtype == np.int64

    def test_count_past_int64_refused_with_value_error(self):
        with pytest.raises(ValueError, match="64-bit"):
            Quiver([[0, 2**64], [2**64, 0]])
        with pytest.raises(ValueError, match="64-bit"):
            Quiver([[-(2**64)]])

    def test_non_integer_arrows_refused(self):
        # np.array(..., dtype=np.int64) read 1.5 as 1, 2.9 as 2 and "2" as 2
        for arrows in ([[1.5]], [[0, 2.9], [2.9, 0]], [["2"]]):
            with pytest.raises(ValueError, match="must be integers"):
                Quiver(arrows)
        # numpy integers, bools and the empty matrix pass
        assert Quiver(np.array([[0, 2], [2, 0]], dtype=np.int32)) == pair_quiver(2)
        assert Quiver(np.array([[0, 2], [2, 0]], dtype=np.uint8)) == pair_quiver(2)
        assert Quiver([]).v == 0
        assert Quiver([[True]]).arrows.tolist() == [[1]]

    def test_non_square_empty_input_refused(self):
        # only [] is the empty quiver: a 3 x 0, a 1 x 1 x 0 or a 0 x 5 input is not square
        for arrows in ([[], [], []], [[[]]], np.zeros((0, 5))):
            with pytest.raises(ValueError, match="must be square"):
                Quiver(arrows)
        # the shape is read before the dtype
        with pytest.raises(ValueError, match="must be square"):
            Quiver([[1.5, 2]])
        assert Quiver(np.zeros((0, 0))).v == 0

    def test_json_roundtrip(self):
        q = build_Qn(3)
        obj = q.to_json_obj()
        assert obj == {"v": 6, "arrows": q.arrows.tolist()}
        assert Quiver(obj["arrows"]) == q

    def test_setting_validation(self):
        with pytest.raises(ValueError):
            QuiverSetting(pair_quiver(1), (1,))


class TestEulerForm:
    def test_identity_quiver(self):
        q = Quiver(np.zeros((3, 3), dtype=int))
        for i in range(3):
            e = [0] * 3
            e[i] = 1
            assert euler_form(q, e, e) == 1

    def test_q3_row_product(self):
        # (1,0;1,0;1,0) times the Euler matrix gives (1,0;0,-1;0,-1)
        q = build_Qn(3)
        v = np.array([1, 0, 1, 0, 1, 0])
        assert (v @ q.euler_matrix()).tolist() == [1, 0, 0, -1, 0, -1]
        assert euler_form(q, v, v) == 1

    @pytest.mark.parametrize("n", [3, 4])
    def test_trivial_vs_character(self, n):
        # pairing of the trivial character against any character is 1 - |A|
        q = build_Qn(n)
        triv = [1, 0] * n
        for a in range(1 << n):
            other = []
            for i in range(n):
                other.extend([0, 1] if a >> i & 1 else [1, 0])
            assert euler_form(q, triv, other) == 1 - bin(a).count("1")

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            euler_form(build_Qn(2), [1, 0, 1], [1, 0, 1, 0])

    def test_non_integer_dims_refused(self):
        # int() read 1.9 as 1, 1.5 as 1 and "2" as 2
        with pytest.raises(ValueError, match="must be integers"):
            euler_form(pair_quiver(1), [1.9, 0], [1, 0])
        with pytest.raises(ValueError, match="must be integers"):
            is_simple_dimvector(pair_quiver(2), [1.5, 1])
        with pytest.raises(ValueError, match="must be integers"):
            support(pair_quiver(1), ["2", 1])
        with pytest.raises(ValueError, match="must be integers"):
            is_smooth_setting(pair_quiver(1), [1, 2.0])

    def test_numpy_integer_dims_accepted(self):
        q = pair_quiver(2)
        dims = np.array([3, 1], dtype=np.int64)
        assert euler_form(q, dims, dims) == euler_form(q, (3, 1), (3, 1))
        assert is_simple_dimvector(q, [np.int32(1), np.int64(1)])
        assert support(q, dims).dims == (3, 1)

    def test_exact_at_huge_dims(self):
        # int64 arithmetic wrapped these to 0 and +2^62
        q = pair_quiver(4)
        big = (2**62, 2**62)
        assert euler_form(q, big, big) == -6 * 2**124
        assert euler_form(q, big, (1, 0)) == euler_form(q, (0, 1), big) == -3 * 2**62

    @given(
        st.integers(2, 4).flatmap(
            lambda v: st.tuples(
                st.lists(
                    st.lists(st.integers(0, 3), min_size=v, max_size=v),
                    min_size=v,
                    max_size=v,
                ),
                st.lists(st.integers(0, 5), min_size=v, max_size=v),
                st.lists(st.integers(0, 5), min_size=v, max_size=v),
                st.lists(st.integers(0, 5), min_size=v, max_size=v),
            )
        )
    )
    def test_bilinear(self, data):
        arrows, a, a2, b = data
        q = Quiver(arrows)
        lhs = euler_form(q, [x + y for x, y in zip(a, a2)], b)
        assert lhs == euler_form(q, a, b) + euler_form(q, a2, b)
        rhs = euler_form(q, b, [x + y for x, y in zip(a, a2)])
        assert rhs == euler_form(q, b, a) + euler_form(q, b, a2)


class TestSupport:
    def test_identity_when_all_nonzero(self):
        q = pair_quiver(2)
        s = support(q, (1, 3))
        assert s.quiver == q and s.dims == (1, 3)

    def test_empty(self):
        s = support(pair_quiver(2), (0, 0))
        assert s.quiver.v == 0 and s.dims == ()

    def test_drops_zero_vertices(self):
        q = chain_quiver(1, 2)
        s = support(q, (1, 0, 2))
        assert s.quiver.v == 2
        assert s.quiver.arrows.tolist() == [[0, 0], [0, 0]]
        assert s.dims == (1, 2)

    def test_read_only_int64_square_matrix(self):
        q = Quiver([[1, 2, 0], [2, 0, 3], [0, 3, 0]])
        for dims, rows in (((1, 0, 2), [[1, 0], [0, 0]]), ((0, 0, 0), []), ((1, 1, 1), q.arrows.tolist())):
            a = support(q, dims).quiver.arrows
            assert a.dtype == np.int64 and a.shape == (len(rows), len(rows)) and a.tolist() == rows
            assert not a.flags.writeable and not np.shares_memory(a, q.arrows)


class TestStronglyConnected:
    def test_two_way_pair(self):
        assert is_strongly_connected(pair_quiver(1))

    def test_one_way_pair(self):
        assert not is_strongly_connected(Quiver([[0, 1], [0, 0]]))

    def test_single_vertex(self):
        assert is_strongly_connected(Quiver([[0]]))
        assert is_strongly_connected(Quiver([[2]]))

    def test_symmetric_matches_undirected_connectivity(self):
        # every full subquiver of the n=3 character quiver
        q = build_one_quiver(3)
        for smask in range(1, 1 << q.v):
            verts = [i for i in range(q.v) if smask >> i & 1]
            sub = Quiver(q.arrows[np.ix_(verts, verts)])
            # undirected connectivity by flood fill on the same matrix
            seen = {0}
            stack = [0]
            while stack:
                i = stack.pop()
                for j in np.nonzero(sub.arrows[i] + sub.arrows[:, i])[0]:
                    if int(j) not in seen:
                        seen.add(int(j))
                        stack.append(int(j))
            assert is_strongly_connected(sub) == (len(seen) == sub.v)


class TestIsSimpleDimvector:
    def test_oriented_cycle_all_ones(self):
        for k in range(2, 6):
            assert is_simple_dimvector(cycle_quiver(k), (1,) * k)
            assert not is_simple_dimvector(cycle_quiver(k), (2,) + (1,) * (k - 1))

    def test_pair_single_arrows(self):
        assert is_simple_dimvector(pair_quiver(1), (1, 1))
        for r in (2, 3):
            assert not is_simple_dimvector(pair_quiver(1), (r, r))

    def test_pair_double_arrows(self):
        for r in (1, 2, 3):
            assert is_simple_dimvector(pair_quiver(2), (r, r))

    def test_square_never_simple(self):
        q = square_quiver()
        for t, s in ((1, 1), (2, 1), (2, 2), (3, 2)):
            assert not is_simple_dimvector(q, (t, s, s, t))

    def test_vertex_simples(self):
        for q in (build_Qn(3), build_one_quiver(3), cycle_quiver(4)):
            for i in range(q.v):
                if q.arrows[i, i] == 0:
                    e = [0] * q.v
                    e[i] = 1
                    assert is_simple_dimvector(q, e)

    def test_single_vertex_loops(self):
        assert is_simple_dimvector(Quiver([[0]]), (1,))
        assert not is_simple_dimvector(Quiver([[0]]), (2,))
        assert is_simple_dimvector(Quiver([[1]]), (1,))
        assert not is_simple_dimvector(Quiver([[1]]), (2,))
        for d in (1, 2, 5):
            assert is_simple_dimvector(Quiver([[2]]), (d,))

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            is_simple_dimvector(pair_quiver(1), (0, 0))

    def test_huge_dims_exact(self):
        # both Euler inequalities read -3 * 2^62; int64 wrapped them positive
        assert is_simple_dimvector(pair_quiver(4), (2**62, 2**62))
        assert is_simple_dimvector(pair_quiver(2), (2**200, 2**200))
        assert not is_simple_dimvector(pair_quiver(1), (2**200, 2**200))

    @given(
        st.integers(1, 5).flatmap(
            lambda v: st.tuples(
                st.lists(st.lists(st.integers(0, 3), min_size=v, max_size=v), min_size=v, max_size=v),
                st.lists(st.integers(0, 5), min_size=v, max_size=v).filter(any),
            )
        )
    )
    def test_matches_int64_route_on_small_values(self, data):
        arrows, dims = data
        q = Quiver(arrows)
        assert is_simple_dimvector(q, dims) == int64_is_simple_dimvector(q, dims)


class TestSimpleSupportMatchesOracle:
    """_is_simple_support and is_strongly_connected against the per-cell
    search and the index-sum Euler loop in tests/oracles.py."""

    def test_every_small_quiver(self):
        # every arrow matrix with v <= 3 and at most 2 arrows per cell, at
        # every positive dimension vector with entries <= 2
        for v in range(1, 4):
            for cells in itertools.product(range(3), repeat=v * v):
                a = [list(cells[i * v:(i + 1) * v]) for i in range(v)]
                assert is_strongly_connected(Quiver(a)) == strongly_connected(a), a
                for dims in itertools.product((1, 2), repeat=v):
                    assert _is_simple_support(a, dims) == is_simple_support(a, dims), (a, dims)

    @given(
        st.integers(1, 7).flatmap(
            lambda v: st.tuples(
                st.lists(st.lists(st.integers(0, 3), min_size=v, max_size=v), min_size=v, max_size=v),
                st.lists(st.integers(1, 6), min_size=v, max_size=v),
            )
        )
    )
    def test_random_quivers_up_to_seven_vertices(self, data):
        a, dims = data
        assert is_strongly_connected(Quiver(a)) == strongly_connected(a)
        assert _is_simple_support(a, dims) == is_simple_support(a, dims)

    # symmetric supports take one search and skip the sums at the least
    # dimension; least dimension 2 takes that skip above dimension 1.  A
    # drawn share of empty cells makes sparse supports, where the
    # inequalities fail, as well as dense ones.
    @pytest.mark.parametrize("low", [1, 2])
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_random_symmetric_quivers_up_to_nine_vertices(self, low, data):
        v = data.draw(st.integers(1, 9))
        cell = st.sampled_from((1, 2, 3) + (0,) * data.draw(st.integers(0, 9)))
        upper = data.draw(st.lists(cell, min_size=v * (v + 1) // 2, max_size=v * (v + 1) // 2))
        dims = data.draw(st.lists(st.integers(low, 6), min_size=v, max_size=v))
        cells = iter(upper)
        a = [[0] * v for _ in range(v)]
        for i in range(v):
            for j in range(i, v):
                a[i][j] = a[j][i] = next(cells)
        assert _is_simple_support(a, dims) == is_simple_support(a, dims), (a, dims)


def int64_is_simple_dimvector(q: Quiver, dims) -> bool:
    """The numpy int64 route is_simple_dimvector replaced, kept as its
    reference where no value can wrap."""
    sub = support(q, dims)
    a, d = sub.quiver.arrows, sub.dims
    v = len(d)
    if v == 1:
        return int(a[0, 0]) >= 2 or d[0] == 1
    if (a.sum(axis=1) == 1).all() and (a.sum(axis=0) == 1).all():
        cur, steps = int(a[0].argmax()), 1
        while cur:
            cur, steps = int(a[cur].argmax()), steps + 1
        if steps == v:
            return all(x == 1 for x in d)
    reach = np.eye(v, dtype=np.int64) + a
    for _ in range(v):
        reach = np.minimum(reach @ reach, 1)
    if not reach.all():
        return False
    euler = sub.quiver.euler_matrix()
    b = np.asarray(d, dtype=np.int64)
    return bool((b @ euler <= 0).all() and (euler @ b <= 0).all())


class TestIsSmoothSetting:
    def test_square_components(self):
        q = square_quiver()
        for dims in ((1, 1, 1, 1), (2, 3, 3, 2), (5, 1, 2, 7), (2, 0, 3, 1)):
            assert is_smooth_setting(q, dims)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_one_to_big_block(self, n):
        assert is_smooth_setting(pair_quiver(n - 1), (1, n - 1))

    def test_multiplicity_needs_room(self):
        assert not is_smooth_setting(pair_quiver(2), (1, 1))
        assert not is_smooth_setting(pair_quiver(3), (1, 2))
        assert is_smooth_setting(pair_quiver(2), (1, 2))

    def test_triangle_not_tree(self):
        a = np.zeros((3, 3), dtype=int)
        for i in range(3):
            for j in range(3):
                if i != j:
                    a[i, j] = 1
        assert not is_smooth_setting(Quiver(a), (1, 1, 1))

    def test_chains(self):
        assert is_smooth_setting(chain_quiver(1, 1), (1, 4, 7))  # 1 - n - m
        assert is_smooth_setting(chain_quiver(1, 1), (3, 2, 5))  # n - 2 - m
        assert not is_smooth_setting(chain_quiver(1, 1), (2, 3, 2))  # no dim-1 side
        assert not is_smooth_setting(chain_quiver(2, 1), (1, 2, 3))  # dim-2 with double edge

    def test_branching_vertex_needs_dim_one(self):
        a = np.zeros((4, 4), dtype=int)
        for j in (1, 2, 3):
            a[0, j] = a[j, 0] = 1
        assert is_smooth_setting(Quiver(a), (1, 2, 3, 4))
        assert not is_smooth_setting(Quiver(a), (2, 2, 3, 4))

    def test_glued_double_edges_at_dim_one(self):
        assert is_smooth_setting(chain_quiver(2, 2), (2, 1, 2))

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            is_smooth_setting(Quiver([[0, 1], [0, 0]]), (1, 1))

    def test_loops_rejected(self):
        with pytest.raises(UnsupportedInputError):
            is_smooth_setting(Quiver([[1]]), (2,))
        with pytest.raises(UnsupportedInputError):
            is_smooth_setting(Quiver([[0, 1], [1, 1]]), (1, 3))

    def test_loops_at_dimension_one_ignored(self):
        # a loop at a dimension-1 vertex is a GL_1-invariant coordinate: the
        # quotient is A^1 times the one without the loop
        assert is_smooth_setting(Quiver([[1]]), (1,))
        assert is_smooth_setting(Quiver([[3]]), (1,))
        for loops in (1, 2):
            for mult, dims in ((1, (1, 4)), (1, (1, 1)), (2, (1, 2)), (2, (1, 1)), (3, (1, 2))):
                looped = Quiver([[loops, mult], [mult, 0]])
                assert is_smooth_setting(looped, dims) == is_smooth_setting(pair_quiver(mult), dims)
        # in a chain the looped vertex keeps its degree, and the other rules still bind
        assert is_smooth_setting(Quiver([[0, 1, 0], [1, 2, 1], [0, 1, 0]]), (3, 1, 2))
        assert not is_smooth_setting(Quiver([[0, 2, 0], [2, 0, 1], [0, 1, 2]]), (1, 2, 1))

    def test_loops_outside_support_ignored(self):
        q = Quiver([[2, 0], [0, 0]])
        assert is_smooth_setting(q, (0, 3))

    def test_matches_the_per_component_search(self):
        # every symmetric quiver on v <= 4 vertices with 0-2 arrows off the
        # diagonal; for v <= 3 with 0-2 loops at dims 0-3, for v = 4 loop-free
        # at dims 1-3: 106 149 settings, a third of them refused for loops
        refused = 0
        for v in range(1, 5):
            pairs = list(itertools.combinations(range(v), 2))
            loop_counts, dim_values = ((range(3), range(4)) if v <= 3 else ((0,), range(1, 4)))
            for off in itertools.product(range(3), repeat=len(pairs)):
                for loops in itertools.product(loop_counts, repeat=v):
                    a = [[0] * v for _ in range(v)]
                    for (i, j), k in zip(pairs, off):
                        a[i][j] = a[j][i] = k
                    for i, k in enumerate(loops):
                        a[i][i] = k
                    q = Quiver(a)
                    for dims in itertools.product(dim_values, repeat=v):
                        try:
                            want = is_smooth_setting_by_parts(q, dims)
                        except UnsupportedInputError:
                            with pytest.raises(UnsupportedInputError):
                                is_smooth_setting(q, dims)
                            refused += 1
                            continue
                        assert is_smooth_setting(q, dims) == want, (a, dims)
        assert refused == 33076


def test_simple_settings_brute_force_cross_check():
    # on small symmetric quivers the support rules must match a direct
    # reading: simple <=> support criteria; here just regression guard a
    # handful of mixed settings through both simple and smooth tests
    q = build_one_quiver(3)
    beta = [0] * 8
    beta[0] = 1
    beta[7] = 1  # two characters at distance 3: double edge, dims (1,1)
    assert is_simple_dimvector(q, beta)
    assert not is_smooth_setting(q, beta)  # 1 <=2=> 1 needs the big side >= 2
    beta[7] = 2  # 1 <=2=> 2
    assert is_simple_dimvector(q, beta)
    assert is_smooth_setting(q, beta)
