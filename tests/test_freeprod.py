import itertools
import math
import random
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    character_sum,
    character_sums,
    components,
    hamming_grid,
    is_chain,
    one_quiver_euler_recursive,
    rep2_census,
    sum_local_quiver,
)

from z2quiver import freeprod
from z2quiver.combinat import MAX_GROUND, DimVector, bn_canonicalize, full_mask, multiset_coeff, parse_dim_vector
from z2quiver.freeprod import (
    CharacterMultiset,
    build_one_quiver,
    build_Qn,
    chain_of,
    component_count,
    is_iss_smooth,
    is_simple_alpha,
    is_simple_alpha_oracle,
    iss_dim,
    one_quiver_euler_closed,
    orbit_count,
    orbit_representatives,
    parse_characters,
    rep2_values,
    simple_alpha_report,
    treelike_census,
)
from z2quiver.quiver import Quiver, is_simple_dimvector, is_smooth_setting

TOO_LONG = f" has more than {freeprod.MAX_COUNT_DIGITS} digits"

# the 8x8 Euler matrix of the n=3 character quiver, vertices ordered by
# bitmask: {}, {1}, {2}, {1,2}, {3}, {1,3}, {2,3}, {1,2,3}
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


class TestBuildQn:
    def test_n2_shape(self):
        q = build_Qn(2)
        assert q.v == 4
        assert q.arrows.tolist() == [
            [0, 0, 1, 1],
            [0, 0, 1, 1],
            [0, 0, 0, 0],
            [0, 0, 0, 0],
        ]

    @pytest.mark.parametrize("n", range(2, 7))
    def test_arrow_total(self, n):
        assert int(build_Qn(n).arrows.sum()) == 4 * (n - 1)

    def test_euler_matrix_n3(self):
        expected = np.eye(6, dtype=int)
        expected[0, 2:] = -1
        expected[1, 2:] = -1
        assert np.array_equal(build_Qn(3).euler_matrix(), expected)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            build_Qn(1)


class TestComponents:
    def test_component_count(self):
        assert component_count(3, 2) == 27
        assert component_count(4, 0) == 1
        assert component_count(1, 5) == 6

    @pytest.mark.parametrize("m", [1, 2, 9, 99, 12345, 10**100])
    def test_count_digit_limit(self, m):
        # the largest n whose count has at most MAX_COUNT_DIGITS digits
        # answers, the next is refused; an exact search gives that n
        limit = 10**freeprod.MAX_COUNT_DIGITS
        n = 1
        while (m + 1) ** (n + 1) < limit:
            n += 1
        assert component_count(n, m) == (m + 1) ** n
        with pytest.raises(ValueError, match="digits"):
            component_count(n + 1, m)

    def test_huge_count_refused_without_power(self):
        assert component_count(10**18, 0) == 1
        for n, m in ((10**18, 1), (10**9, 2), (2, 10**5000)):
            start = time.monotonic()
            with pytest.raises(ValueError, match="digits"):
                component_count(n, m)
            assert time.monotonic() - start < 1

    @pytest.mark.parametrize(
        "call, message",
        [
            ((component_count, 2, 10**5000), "the component count (m+1)**n of n=2, m=a 5001-digit integer" + TOO_LONG),
            ((multiset_coeff, 10**5000, 3), "the count C(a 5001-digit integer, 3)" + TOO_LONG),
            ((orbit_count, 3, 10**5000), "the count C(a 5000-digit integer, 3)" + TOO_LONG),
            ((orbit_representatives, 10**5000, 0), "more than 1000000 pairs in the orbit representatives of n=a 5001-digit integer, m=0"),
        ],
        ids=["component_count", "multiset_coeff", "orbit_count", "orbit_representatives"],
    )
    def test_huge_argument_named_by_its_digit_count(self, call, message):
        # each raised "Exceeds the limit (4300 digits) for integer string conversion"
        with pytest.raises(ValueError) as err:
            call[0](*call[1:])
        assert str(err.value) == message

    def test_huge_orbit_count_refused_up_front(self):
        # ran past 10 s computing C(5 * 10**6 + 10**7, 10**7)
        start = time.monotonic()
        with pytest.raises(ValueError, match=f"more than {freeprod.MAX_COUNT_DIGITS} digits"):
            orbit_count(10**7, 10**7)
        assert time.monotonic() - start < 1

    def test_stream_matches_count(self):
        got = list(components(3, 2))
        assert len(got) == 27
        assert len(set(got)) == 27
        assert all(v.m == 2 and v.n == 3 for v in got)

    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("m", range(0, 8))
    def test_orbit_count_vs_dedup(self, n, m):
        # the canonicalise-all search is the oracle for the listed orbits
        reps = sorted({bn_canonicalize(alpha) for alpha in components(n, m)})
        assert orbit_count(n, m) == len(reps)
        assert orbit_representatives(n, m) == reps

    def test_orbit_example(self):
        assert orbit_count(3, 2) == 4

    def test_orbits_equal_the_sorted_validated_route(self):
        # the representatives were built through DimVector(...) and sorted
        for n in range(1, 7):
            for m in range(0, 9):
                plus = itertools.combinations_with_replacement(range(m, (m - 1) // 2, -1), n)
                want = sorted(DimVector(tuple((p, m - p) for p in ps)) for ps in plus)
                got = orbit_representatives(n, m)
                assert [repr(r) for r in got] == [repr(r) for r in want], (n, m)
                assert got == want and [hash(r) for r in got] == [hash(r) for r in want]

    def test_orbits_in_proportion_to_output(self):
        assert len(orbit_representatives(8, 6)) == orbit_count(8, 6) == 165
        assert orbit_representatives(40, 1) == [DimVector(((1, 0),) * 40)]

    @pytest.mark.parametrize("n, m", [(16, 1000), (10**9, 1), (10**6, 10**6), (0, 2), (3, -1)])
    def test_orbit_refusals(self, n, m):
        with pytest.raises(ValueError):
            orbit_representatives(n, m)

    @pytest.mark.parametrize(
        "count, n, m",
        [(component_count, 2.0, 2), (orbit_count, "3", 2), (orbit_representatives, 2.5, 2)],
        ids=["component_count-float", "orbit_count-str", "orbit_representatives-float"],
    )
    def test_non_integers_refused(self, count, n, m):
        # component_count(2.0, 2) returned 9.0; the other two raised TypeError
        with pytest.raises(ValueError, match="must be integers"):
            count(n, m)

    def test_orbit_limit_boundary(self, monkeypatch):
        monkeypatch.setattr(freeprod, "MAX_ORBIT_PAIRS", 10)
        # n = 1: floor(m/2) + 1 orbits of one pair each
        assert len(orbit_representatives(1, 19)) == 10
        with pytest.raises(ValueError):
            orbit_representatives(1, 20)
        # n = 2: C(floor(m/2) + 2, 2) orbits of two pairs each
        assert len(orbit_representatives(2, 3)) == 3
        with pytest.raises(ValueError):
            orbit_representatives(2, 4)


class TestOneQuiver:
    def test_arrow_counts_by_distance(self):
        q = build_one_quiver(3)
        assert not q.arrows.diagonal().any()
        assert (q.arrows == q.arrows.T).all()
        for a in range(8):
            for b in range(8):
                d = bin(a ^ b).count("1")
                assert q.arrows[a, b] == (d - 1 if d >= 2 else 0)

    def test_adjacent_vertices_unlinked(self):
        q = build_one_quiver(4)
        for a in range(16):
            for i in range(4):
                assert q.arrows[a, a ^ (1 << i)] == 0

    def test_euler_matrix_matches_m3(self):
        assert one_quiver_euler_closed(3).tolist() == M3
        assert build_one_quiver(3).euler_matrix().tolist() == M3

    def test_corner_entry(self):
        assert one_quiver_euler_closed(3)[0, 7] == -2

    def test_diagonal_all_ones(self):
        for n in (1, 2, 5):
            assert np.array_equal(np.diagonal(one_quiver_euler_closed(n)), np.ones(1 << n))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_recursive_equals_closed(self, n):
        assert one_quiver_euler_recursive(n) == one_quiver_euler_closed(n).tolist()
        assert one_quiver_euler_recursive(n) == build_one_quiver(n).euler_matrix().tolist()

    @pytest.mark.parametrize("n", range(1, 11))
    def test_fill_equals_full_grid(self, n):
        grid = hamming_grid(n).astype(np.int64)
        assert np.array_equal(build_one_quiver(n).arrows, np.maximum(grid - 1, 0))
        assert np.array_equal(one_quiver_euler_closed(n), 1 - grid)

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_fill_is_fresh_read_only_int64(self, n):
        first, second = build_one_quiver(n).arrows, one_quiver_euler_closed(n)
        for a in (first, second):
            assert a.dtype == np.int64 and a.shape == (1 << n, 1 << n)
            with pytest.raises(ValueError):
                a[0, 0] = 7
        assert not np.shares_memory(first, build_one_quiver(n).arrows)
        assert not np.shares_memory(second, one_quiver_euler_closed(n))

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_checked_copy_equals_the_fill(self, n):
        q = build_one_quiver(n)
        copy = Quiver(q.arrows)
        assert copy == q and hash(copy) == hash(q)
        assert not np.shares_memory(copy.arrows, q.arrows)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_euler_form_on_character_basis(self, n):
        # pairing two characters gives 1 - |A delta B|, entrywise
        assert np.array_equal(build_one_quiver(n).euler_matrix(), one_quiver_euler_closed(n))

    @pytest.mark.parametrize("build", [build_one_quiver, one_quiver_euler_closed])
    def test_size_refused_up_front(self, build):
        # 4**13 int64 cells would be 512 MiB; n = 16 would be 32 GiB.  A
        # huge n is refused before anything is sized by it
        for n in (13, 16, 17, 0, 10**18):
            with pytest.raises(ValueError):
                build(n)

    def test_build_peak_near_the_matrix(self):
        # the matrix is one int64 array filled block by block and stored
        # uncopied, so building the 8 MiB matrix at n = 10 peaks near its
        # own size, not twice it
        tracemalloc.start()
        try:
            q = build_one_quiver(10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert q.arrows.nbytes == 8 << 20
        assert peak < 1.3 * (8 << 20), peak

    @pytest.mark.parametrize("n", range(1, 6))
    def test_ext_dimension_reading(self, n):
        # arrows A -> B count the self-extension-free pairing |A delta B| - 1
        q = build_one_quiver(n)
        for a in range(1 << n):
            assert q.arrows[a, a] == 0
            for b in range(1 << n):
                if a != b:
                    assert q.arrows[a, b] == max(bin(a ^ b).count("1") - 1, 0)


def random_multiset(rng: random.Random) -> CharacterMultiset:
    n = rng.randint(1, 5)
    degree = rng.randint(1, 5)
    counts: dict[int, int] = {}
    for _ in range(degree):
        a = rng.randrange(1 << n)
        counts[a] = counts.get(a, 0) + 1
    return character_sum(n, counts)


def random_weighted_multiset(rng: random.Random) -> CharacterMultiset:
    # up to five terms over n <= 7, multiplicities up to 30 each
    n = rng.randint(1, 7)
    counts = {rng.randrange(1 << n): rng.randint(1, 30) for _ in range(rng.randint(1, 5))}
    return character_sum(n, counts)


def rewrite_randomly(cm: CharacterMultiset, rng: random.Random) -> CharacterMultiset:
    # independent rewriter used as the confluence oracle: random pair order,
    # checking degree and the induced dimension vector at every step
    counts = dict(cm.counts)
    degree = cm.degree()
    alpha = cm.dim_vector()
    while True:
        incomparable = [
            (a, b)
            for a, b in itertools.combinations(sorted(counts), 2)
            if (a & b) != a and (a & b) != b
        ]
        if not incomparable:
            break
        a, b = rng.choice(incomparable)
        for x in (a, b):
            counts[x] -= 1
            if not counts[x]:
                del counts[x]
        for x in (a | b, a & b):
            counts[x] = counts.get(x, 0) + 1
        state = character_sum(cm.n, counts)
        assert state.degree() == degree
        assert state.dim_vector() == alpha
    return character_sum(cm.n, counts)


def m_alpha_tail_sets(alpha: DimVector) -> CharacterMultiset:
    # the paper's canonical semisimple point of a canonical alpha, built by
    # hand: the empty set a_n+ times, the tail set {i+1..n} a_i+ - a_{i+1}+
    # times and the full set a_1- times
    n = alpha.n
    plus = [p for p, _ in alpha.pairs]
    counts = {0: plus[-1], full_mask(n): alpha.pairs[0][1]}
    for i in range(1, n):
        tail = full_mask(n) ^ full_mask(i)
        counts[tail] = plus[i - 1] - plus[i]
    return character_sum(n, counts)


class TestCharacters:
    def test_relation_example(self):
        c = parse_characters("{1}+{2}", 3)
        assert str(c.canonical()) == "{}+{1,2}"

    def test_chain_fixed_point(self):
        c = parse_characters("{}^2+{1}+{1,2,3}", 3)
        assert c.canonical() == c

    def test_canonical_count_degree2_n3(self):
        # number of distinct normal forms of degree 2 equals (m+1)^n = 27
        forms = set()
        for a in range(8):
            for b in range(a, 8):
                cm = character_sum(3, Counter((a, b)))
                forms.add(cm.canonical())
        assert len(forms) == 27

    def test_confluence_200_schedules(self):
        rng = random.Random(20240817)
        for case in range(200):
            cm = random_multiset(rng)
            one = rewrite_randomly(cm, random.Random(1000 + case))
            two = rewrite_randomly(cm, random.Random(5000 + case))
            lib = cm.canonical()
            assert one == two == lib
            assert is_chain(lib)
            assert lib.degree() == cm.degree()
            assert lib.dim_vector() == cm.dim_vector()

    def test_closed_form_matches_rewrite_with_multiplicities(self):
        rng = random.Random(5000)
        for case in range(300):
            cm = random_weighted_multiset(rng)
            want = rewrite_randomly(cm, random.Random(case))
            assert cm.canonical() == want == chain_of(cm.dim_vector()), str(cm)

    # each index's membership over the terms is drawn from a few patterns, so
    # indices tie and some lie in no term; multiplicities reach past 2**63
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_chain_walk_over_the_whole_ground_set(self, data):
        n = data.draw(st.integers(1, MAX_GROUND))
        terms = data.draw(st.integers(1, 6))
        patterns = data.draw(st.lists(st.integers(0, 2**terms - 1), min_size=1, max_size=3))
        member = data.draw(st.lists(st.sampled_from([0, *patterns]), min_size=n, max_size=n))
        mult = st.one_of(st.integers(1, 3), st.integers(2**63 - 2, 2**65))
        counts: dict[int, int] = {}
        for t, c in enumerate(data.draw(st.lists(mult, min_size=terms, max_size=terms))):
            mask = sum(1 << i for i, p in enumerate(member) if p >> t & 1)
            counts[mask] = counts.get(mask, 0) + c
        cm = character_sum(n, counts)
        degree = sum(counts.values())
        minus = [sum(c for a, c in counts.items() if a >> i & 1) for i in range(n)]
        assert cm.dim_vector().pairs == tuple((degree - x, x) for x in minus)
        chain = cm.canonical()
        assert chain == chain_of(cm.dim_vector()) and is_chain(chain)
        assert_as_constructed(chain)

    def test_huge_multiplicities(self):
        big = 10**9
        c = parse_characters(f"{{1}}^{big}+{{2}}^{big}", 2)
        assert dict(c.canonical().counts) == {0: big, 3: big}

    def test_parse_multiplicities(self):
        c = parse_characters("{}^2+{1,2,3}")
        assert c.n == 3 and c.degree() == 3

    def test_parse_requires_n_for_empty(self):
        with pytest.raises(ValueError):
            parse_characters("{}^2")

    def test_non_integer_multiplicity_refused(self):
        # was accepted as a multiplicity of 2.5
        with pytest.raises(ValueError, match="multiplicities must be integers"):
            CharacterMultiset(3, ((1, 2.5),))
        assert CharacterMultiset(3, ((1, np.int64(2)),)).degree() == 2

    def test_numpy_multiplicities_stored_as_ints(self):
        # the numpy values were stored as given: degree() wrapped to -2**63
        # and canonical() read {1,2}, yet the sum compared equal to the int one
        big = 2**62
        c = CharacterMultiset(2, ((1, np.int64(big)), (2, np.int64(big))))
        assert all(type(mult) is int for _, mult in c.counts)
        assert c == CharacterMultiset(2, ((1, big), (2, big)))
        assert c.degree() == 2**63
        assert c.canonical() == parse_characters(f"{{}}^{big}+{{1,2}}^{big}", 2)
        assert c.dim_vector() == DimVector(((big, big), (big, big)))

    @pytest.mark.parametrize("text", ["{1}^0+{2}", "{1}^00", "{2}+{1}^0"])
    def test_parse_zero_multiplicity_rejected(self, text):
        with pytest.raises(ValueError):
            parse_characters(text, 2)


class TestMAlpha:
    def test_standard_33(self):
        chars = chain_of(DimVector.standard(3, 3))
        assert dict(chars.counts) == {0: 2, 7: 1}

    def test_trivial(self):
        chars = chain_of(DimVector(((1, 0),) * 4))
        assert dict(chars.counts) == {0: 1}

    def test_zero_level_rejected(self):
        with pytest.raises(ValueError):
            chain_of(DimVector(((0, 0), (0, 0))))

    def test_character_sums(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(1, 5)
            m = rng.randint(1, 6)
            alpha = DimVector(tuple((p, m - p) for p in (rng.randint(0, m) for _ in range(n))))
            chars = chain_of(alpha)
            for i in range(n):
                trace = sum(
                    mult * (-1 if a >> i & 1 else 1) for a, mult in chars.counts
                )
                assert trace == alpha.pairs[i][0] - alpha.pairs[i][1]

    @pytest.mark.parametrize("n", range(1, 5))
    @pytest.mark.parametrize("m", range(1, 5))
    def test_round_trip(self, n, m):
        for alpha in components(n, m):
            chars = chain_of(alpha)
            assert chars.dim_vector() == alpha
            assert is_chain(chars)
            c = bn_canonicalize(alpha)
            assert chain_of(c) == m_alpha_tail_sets(c)


class TestSimpleAlpha:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_standard_vector_iff_m_le_n(self, n):
        for m in range(1, n + 3):
            assert is_simple_alpha(DimVector.standard(n, m)) == (m <= n)

    def test_permutation_rep_not_simple(self):
        for n in (3, 4, 5):
            assert not is_simple_alpha(DimVector(((n, 1),) * n))

    def test_exception_orbit(self):
        alpha = DimVector(((4, 0), (4, 0), (2, 2), (2, 2)))
        assert sum(max(p) for p in alpha.pairs) == alpha.m * (alpha.n - 1)
        assert not is_simple_alpha(alpha)
        assert not is_simple_alpha_oracle(alpha)
        # a scrambled member of the same orbit
        scrambled = DimVector(((2, 2), (0, 4), (4, 0), (2, 2)))
        assert not is_simple_alpha(scrambled)

    def test_huge_entries_answered(self):
        # the verdict went through the report, whose first line formats alpha:
        # "Exceeds the limit (4300 digits) for integer string conversion"
        alpha = DimVector(((10**5000, 1),) * 3)
        assert is_simple_alpha(alpha) is False
        assert is_simple_alpha_oracle(alpha) is False
        with pytest.raises(ValueError) as err:
            iss_dim(alpha)
        assert str(err.value) == ";".join(["a 5001-digit integer,1"] * 3) + " is not a simple dimension vector"

    def test_exception_needs_k_at_least_two(self):
        alpha = DimVector(((2, 0), (1, 1), (1, 1)))
        assert is_simple_alpha(alpha)
        assert is_simple_alpha_oracle(alpha)

    def test_m1_characters_simple(self):
        for n in (1, 2, 4):
            for a in range(1 << n):
                assert is_simple_alpha(DimVector.character(n, a))

    def test_zero_level_rejected(self):
        with pytest.raises(ValueError):
            is_simple_alpha(DimVector(((0, 0), (0, 0))))

    def test_two_factor_case(self):
        # with two order-2 factors the only simples live in dimension 1 and
        # in the fully mixed dimension-2 component
        assert is_simple_alpha(DimVector(((1, 1), (1, 1))))
        assert not is_simple_alpha(DimVector(((2, 2), (2, 2))))
        assert not is_simple_alpha(DimVector(((2, 0), (1, 1))))
        assert not is_simple_alpha(DimVector(((2, 0), (2, 0))))

    def test_one_factor_case(self):
        assert is_simple_alpha(DimVector(((1, 0),)))
        assert is_simple_alpha(DimVector(((0, 1),)))
        assert not is_simple_alpha(DimVector(((1, 1),)))
        assert not is_simple_alpha(DimVector(((2, 0),)))

    def test_closed_form_decides_n_le_2(self, monkeypatch):
        # n <= 2 was answered by the oracle; the bound and the exception decide it
        cases = [alpha for n in (1, 2) for m in range(1, 41) for alpha in components(n, m)]
        want = [is_simple_alpha_oracle(alpha) for alpha in cases]
        assert len(cases) == 24680 and sum(want) == 7  # the 6 characters and (1,1);(1,1)
        monkeypatch.setattr(freeprod, "is_simple_alpha_oracle", None)
        assert [is_simple_alpha(alpha) for alpha in cases] == want

    @pytest.mark.parametrize(
        "text, verdict, rule",
        [
            ("3,0", False, "sum_i max(a_i+, a_i-) = 3 > 0 = m*(n-1)"),
            ("1,1;1,1", True, "sum_i max(a_i+, a_i-) = 2 <= 2 = m*(n-1)"),
            ("2,0;1,1", False, "sum_i max(a_i+, a_i-) = 3 > 2 = m*(n-1)"),
        ],
    )
    def test_report_at_n_le_2_prints_the_inequality(self, text, verdict, rule):
        alpha = parse_dim_vector(text)
        assert simple_alpha_report(alpha) == (verdict, [f"alpha = {text}  (n={alpha.n}, m={alpha.m})", rule])

    def test_report_names_the_two_pair_exception(self):
        # the exception orbit at n = 2 has no (2k,0) pairs to repeat
        verdict, lines = simple_alpha_report(parse_dim_vector("3,3;3,3"))
        assert not verdict
        assert lines[1:] == ["sum_i max(a_i+, a_i-) = 6 <= 6 = m*(n-1)", "exception orbit (k,k);(k,k) with k=3"]
        _, lines = simple_alpha_report(parse_dim_vector("6,0;3,3;3,3"))
        assert lines[-1] == "exception orbit (2k,0)*1;(k,k);(k,k) with k=3"

    @pytest.mark.parametrize("n", range(1, 5))
    @pytest.mark.parametrize("m", range(1, 5))
    def test_oracle_equivalence_exhaustive(self, n, m):
        for alpha in components(n, m):
            assert is_simple_alpha(alpha) == is_simple_alpha_oracle(alpha), str(alpha)

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_exception_family_all_k(self, n, k):
        alpha = DimVector(((2 * k, 0),) * (n - 2) + ((k, k), (k, k)))
        assert not is_simple_alpha(alpha)
        assert not is_simple_alpha_oracle(alpha)
        # perturbing one pure pair leaves the exception orbit and is simple
        if n >= 3:
            near = DimVector(
                ((2 * k, 0),) * (n - 3) + ((2 * k - 1, 1), (k, k), (k, k))
            )
            assert is_simple_alpha(near)
            assert is_simple_alpha_oracle(near)

    def test_huge_multiplicities_exact(self):
        # int64 arithmetic wrapped here: the oracle raised OverflowError
        alpha = DimVector(((2**63, 2**63),) * 3)
        assert is_simple_alpha(alpha)
        assert is_simple_alpha_oracle(alpha)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(3, 8).flatmap(
            lambda n: st.integers(2, 2**200).flatmap(
                lambda m: st.lists(st.integers(0, m), min_size=n, max_size=n).map(
                    lambda plus: DimVector(tuple((p, m - p) for p in plus))
                )
            )
        )
    )
    def test_oracle_equivalence_huge_m(self, alpha):
        assert is_simple_alpha(alpha) == is_simple_alpha_oracle(alpha), str(alpha)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(3, 8).flatmap(
            lambda n: st.integers(2, 2**199).flatmap(
                lambda k: st.tuples(st.just(n), st.just(k), st.permutations(range(n)))
            )
        )
    )
    def test_exception_orbit_huge_k(self, data):
        # the exception orbit sits on the bound sum_i max = m(n-1), where a
        # wrapped inequality would most easily flip the verdict
        n, k, order = data
        pairs = ((2 * k, 0),) * (n - 2) + ((k, k), (k, k))
        alpha = DimVector(tuple(pairs[i] for i in order))
        assert not is_simple_alpha(alpha)
        assert not is_simple_alpha_oracle(alpha)

    def test_oracle_reads_only_the_support(self, monkeypatch):
        # the oracle must never build the 4**n character-quiver matrix
        def refuse(n):
            raise AssertionError(f"build_one_quiver({n}) called")

        monkeypatch.setattr(freeprod, "build_one_quiver", refuse)
        rng = random.Random(1316)
        for n in range(13, 17):
            for _ in range(25):
                m = rng.randint(1, 8)
                alpha = DimVector(tuple((p, m - p) for p in (rng.randint(0, m) for _ in range(n))))
                assert is_simple_alpha_oracle(alpha) == is_simple_alpha(alpha), str(alpha)

    def test_oracle_equivalence_random_high_level(self):
        # beyond the exhaustive window: random vectors at levels 5..7
        rng = random.Random(31337)
        for _ in range(250):
            n = rng.randint(3, 5)
            m = rng.randint(5, 7)
            alpha = DimVector(tuple((p, m - p) for p in (rng.randint(0, m) for _ in range(n))))
            assert is_simple_alpha(alpha) == is_simple_alpha_oracle(alpha), str(alpha)


def closed_form_simple(n: int, beta: list[int]) -> bool:
    """Independent closed-form test on the character quiver: the total-degree
    inequality at every subset, with the two exceptional supports."""
    supp = [a for a, b in enumerate(beta) if b]
    if len(supp) == 1:
        return beta[supp[0]] == 1
    if len(supp) == 2 and bin(supp[0] ^ supp[1]).count("1") == 2:
        return beta[supp[0]] == 1 and beta[supp[1]] == 1
    if len(supp) == 4:
        edges = [
            (x, y)
            for x, y in itertools.combinations(supp, 2)
            if bin(x ^ y).count("1") >= 2
        ]
        if (
            len(edges) == 2
            and all(bin(x ^ y).count("1") == 2 for x, y in edges)
            and len({v for e in edges for v in e}) == 4
        ):
            return False  # two disjoint single edges: never simple
    total = sum(beta)
    return all(
        total <= sum(b * bin(a ^ c).count("1") for c, b in enumerate(beta))
        for a in range(1 << n)
    )


class TestClosedFormEquivalence:
    def test_n3_exhaustive_entries_le2(self):
        q = build_one_quiver(3)
        for beta in itertools.product(range(3), repeat=8):
            if not any(beta):
                continue
            assert is_simple_dimvector(q, beta) == closed_form_simple(3, list(beta)), beta

    def test_n4_supports_up_to_four(self):
        q = build_one_quiver(4)
        for size in range(1, 5):
            for supp in itertools.combinations(range(16), size):
                for vals in itertools.product((1, 2), repeat=size):
                    beta = [0] * 16
                    for v, x in zip(supp, vals):
                        beta[v] = x
                    assert is_simple_dimvector(q, beta) == closed_form_simple(4, beta), beta

    def test_n4_random_full_range(self):
        q = build_one_quiver(4)
        rng = random.Random(424242)
        for _ in range(1500):
            beta = [rng.randint(0, 2) for _ in range(16)]
            if not any(beta):
                continue
            assert is_simple_dimvector(q, beta) == closed_form_simple(4, beta), beta


class TestIssDim:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_standard_formula(self, n):
        for m in range(1, n + 1):
            assert iss_dim(DimVector.standard(n, m)) == (m - 1) * (2 * n - m - 1)

    def test_alpha_33(self):
        assert iss_dim(DimVector.standard(3, 3)) == 4

    def test_characters_are_points(self):
        assert iss_dim(DimVector.character(4, 0b0101)) == 0

    def test_non_simple_rejected(self):
        with pytest.raises(ValueError):
            iss_dim(DimVector.standard(3, 4))


def assert_as_constructed(v) -> None:
    """v equals what its validating constructor builds from v's fields, down
    to the type of every field: list for tuple or bool for int would change
    the repr."""
    rebuilt = DimVector(v.pairs) if isinstance(v, DimVector) else CharacterMultiset(v.n, v.counts)
    assert rebuilt == v and hash(rebuilt) == hash(v) and repr(rebuilt) == repr(v)


class TestStoredValues:
    """The values the library builds from values it holds checked, stored
    without a second check, equal the validating constructors."""

    def test_every_component_up_to_n5_m6(self):
        for n in range(1, 6):
            for m in range(1, 7):
                for alpha in components(n, m):
                    parsed, chain = parse_dim_vector(str(alpha)), chain_of(alpha)
                    assert parsed == alpha == chain.dim_vector()
                    for v in (bn_canonicalize(alpha), parsed, chain, chain.dim_vector()):
                        assert_as_constructed(v)

    def test_canonical_of_seeded_sums(self):
        rng = random.Random(2026)
        for _ in range(300):
            n = rng.randint(1, 7)
            masks = rng.sample(range(1 << n), rng.randint(1, min(6, 1 << n)))
            chars = CharacterMultiset(n, tuple((a, rng.randint(1, 40)) for a in masks))
            parsed = parse_characters(str(chars), n)
            assert parsed == chars
            assert_as_constructed(parsed)
            assert_as_constructed(chars.canonical())


def orbit_hits_family(alpha: DimVector) -> bool:
    # brute-force oracle: some signed permutation leaves at most two mixed pairs
    n = alpha.n
    for perm in itertools.permutations(range(n)):
        for flips in itertools.product((False, True), repeat=n):
            pairs = []
            for i, f in zip(perm, flips):
                p, q = alpha.pairs[i]
                pairs.append((q, p) if f else (p, q))
            if sum(1 for p, q in pairs[2:] if p and q) == 0:
                return True
    return False


class TestIssSmooth:
    def test_family_accepted(self):
        assert is_iss_smooth(DimVector(((2, 1), (1, 2), (3, 0), (0, 3))))
        assert is_iss_smooth(DimVector(((1, 1), (2, 0))))

    def test_standard_rejected_from_three(self):
        for n in (3, 4, 5):
            assert not is_iss_smooth(DimVector.standard(n, n))

    def test_level_one_always_smooth(self):
        for n in (1, 3, 5):
            for a in (0, full_mask(n)):
                assert is_iss_smooth(DimVector.character(n, a))

    @pytest.mark.parametrize("n", range(1, 5))
    @pytest.mark.parametrize("m", range(1, 5))
    def test_exactly_the_orbit_family(self, n, m):
        for alpha in components(n, m):
            assert is_iss_smooth(alpha) == orbit_hits_family(alpha), str(alpha)


def is_smooth_at(c: CharacterMultiset) -> bool:
    s = sum_local_quiver(c)
    return is_smooth_setting(s.quiver, s.dims)


def local_type(c: CharacterMultiset) -> str:
    """The local quiver at c as 'd <=k=> e' if it has two vertices, else its repr."""
    s = sum_local_quiver(c)
    return f"{s.dims[0]} <={s.quiver.arrows[0, 1]}=> {s.dims[1]}" if s.quiver.v == 2 else repr(s)


class TestSmoothAtEverySum:
    """is_iss_smooth and rep2_values against the character sums of a
    component and Bocklandt's block rules on their local quivers.  The check
    is empirical: it visits only the semisimple points whose simple summands
    all have dimension 1."""

    def test_character_sums_have_the_dimension_vector(self):
        for n, m in ((1, 3), (2, 2), (3, 2), (3, 3)):
            for alpha in components(n, m):
                sums = list(character_sums(alpha))
                assert all(c.dim_vector() == alpha for c in sums) and len(set(sums)) == len(sums)
                assert chain_of(alpha) in sums
        # {}+{1,2}, {1}+{2}: the two sums of (1,1);(1,1)
        assert {str(c) for c in character_sums(DimVector(((1, 1), (1, 1))))} == {"{}+{1,2}", "{1}+{2}"}

    def test_component_smooth_exactly_when_every_sum_is(self):
        reps = [(n, m) for n in range(1, 5) for m in range(1, 7)] + [(5, m) for m in range(1, 5)]
        seen = smooth = points = 0
        for n, m in reps:
            for alpha in orbit_representatives(n, m):
                sums = list(character_sums(alpha))
                assert is_iss_smooth(alpha) == all(map(is_smooth_at, sums)), str(alpha)
                seen, smooth, points = seen + 1, smooth + is_iss_smooth(alpha), points + len(sums)
        assert (seen, smooth, points) == (203, 115, 3856)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_rep2_values_read_off_the_sums(self, n):
        for k in range(n + 1):
            alpha = DimVector(((1, 1),) * k + ((2, 0),) * (n - k))
            singular = [c for c in character_sums(alpha) if not is_smooth_at(c)]
            types = {local_type(c) for c in singular}
            assert rep2_values(k) == (
                sum(2 * p * q for p, q in alpha.pairs),
                iss_dim(alpha) if is_simple_alpha(alpha) else 0,
                len(singular),
                types.pop() if types else None,
            ) and not types, (n, k)


class TestRep2:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_per_k_counts(self, n):
        per_k = Counter(r.k for r in rep2_census(n))
        for k in range(n + 1):
            assert per_k[k] == 2 ** (n - k) * math.comb(n, k)
        assert sum(per_k.values()) == 3**n

    def test_full_cube_n3(self):
        rows = [r for r in rep2_census(3) if r.a_mask == 0b111]
        assert len(rows) == 1
        r = rows[0]
        assert r.b_mask == 0
        assert (r.rep_dim, r.quot_dim, r.singularities) == (6, 3, 4)
        assert r.local_type == "1 <=2=> 1"

    def test_k0_rows(self):
        rows = [r for r in rep2_census(4) if r.k == 0]
        assert len(rows) == 16
        assert all(r.rep_dim == 0 and r.quot_dim == 0 and r.singularities == 0 for r in rows)

    def test_small_k_has_no_singularities(self):
        for r in rep2_census(4):
            if r.k <= 2:
                assert r.singularities == 0 and r.local_type is None
            else:
                assert r.singularities == 2 ** (r.k - 1)
                assert r.local_type == f"1 <={r.k - 1}=> 1"

    def test_quot_dim_rule(self):
        for r in rep2_census(4):
            assert r.quot_dim == (2 * r.k - 3 if r.k >= 2 else 0)

    def test_indexing_disjoint(self):
        for r in rep2_census(4):
            assert r.a_mask & r.b_mask == 0

    def test_two_factor_quotient_structure(self):
        # eight zero-dimensional quotients plus one curve
        quots = sorted(r.quot_dim for r in rep2_census(2))
        assert quots == [0] * 8 + [1]
        assert all(r.singularities == 0 for r in rep2_census(2))


def exhaustive_treelike(n: int, max_size: int | None = None) -> dict[str, int]:
    """The search treelike_census replaced, kept as its oracle: classify
    every connected tree-like full subquiver of the character quiver over
    all vertex subsets (or those of at most max_size vertices), failing on
    any tree outside types I-IV."""
    nv = 1 << n
    mult = [[max((i ^ j).bit_count() - 1, 0) for j in range(nv)] for i in range(nv)]
    adj = [sum(1 << j for j in range(nv) if mult[i][j]) for i in range(nv)]
    sizes = range(1, (max_size or nv) + 1)
    counts: dict[str, int] = {}
    for verts in itertools.chain.from_iterable(itertools.combinations(range(nv), k) for k in sizes):
        smask = sum(1 << i for i in verts)
        edges = [(a, b) for a, b in itertools.combinations(verts, 2) if mult[a][b]]
        if len(edges) != len(verts) - 1:
            continue
        # connectivity via bitmask flood fill
        reached = 1 << verts[0]
        while True:
            grown = reached
            for i in verts:
                if reached >> i & 1:
                    grown |= adj[i] & smask
            if grown == reached:
                break
            reached = grown
        if reached != smask:
            continue
        label = classify_treelike(verts, edges, mult)
        counts[label] = counts.get(label, 0) + 1
    return dict(sorted(counts.items(), key=treelike_sort_key))


def classify_treelike(verts, edges, mult) -> str:
    if len(verts) == 1:
        return "I"
    if len(verts) == 2:
        return f"II({mult[edges[0][0]][edges[0][1]]})"
    deg = {v: 0 for v in verts}
    for a, b in edges:
        deg[a] += 1
        deg[b] += 1
    if sorted(deg.values()) != [1, 1] + [2] * (len(verts) - 2):
        raise AssertionError(f"tree-like subquiver on {verts} is not a chain")
    # walk the path from one end and read off the edge multiplicities
    nbr = {v: [] for v in verts}
    for a, b in edges:
        nbr[a].append(b)
        nbr[b].append(a)
    cur = min(v for v in verts if deg[v] == 1)
    prev = None
    mults = []
    while True:
        nxt = [w for w in nbr[cur] if w != prev]
        if not nxt:
            break
        mults.append(mult[cur][nxt[0]])
        prev, cur = cur, nxt[0]
    if len(verts) == 3:
        lo, hi = sorted(mults)
        if hi == lo + 1:
            return f"III({hi})"
    if len(verts) == 4 and mults == [1, 2, 1]:
        return "IV"
    raise AssertionError(f"unclassifiable tree-like chain {verts} with multiplicities {mults}")


def treelike_sort_key(item: tuple[str, int]) -> tuple:
    label = item[0]
    order = {"I": 0, "II": 1, "III": 2, "IV": 3}
    kind = label.split("(")[0]
    k = int(label[label.index("(") + 1 : -1]) if "(" in label else 0
    return (order[kind], k)


class TestTreelike:
    def test_type_counts_n3(self):
        census = treelike_census(3)
        assert set(census) == {"I", "II(1)", "II(2)", "III(2)", "IV"}
        assert len(census) == 2 * 3 - 1

    def test_type_counts_n4(self):
        census = treelike_census(4)
        assert set(census) == {"I", "II(1)", "II(2)", "II(3)", "III(2)", "III(3)", "IV"}
        assert len(census) == 2 * 4 - 1

    @pytest.mark.parametrize("n", [3, 4])
    def test_instance_counts_for_vertices_and_pairs(self, n):
        census = treelike_census(n)
        assert census["I"] == 2**n
        for d in range(2, n + 1):
            # unordered pairs at hypercube distance d
            assert census[f"II({d - 1})"] == 2**n * math.comb(n, d) // 2

    @pytest.mark.parametrize("n", range(1, 5))
    def test_matches_exhaustive_search(self, n):
        # dict equality ignores order, and the CLI prints in key order
        assert list(treelike_census(n).items()) == list(exhaustive_treelike(n).items())

    def test_n5_matches_search_up_to_four_vertices(self):
        # no tree-like subquiver has five or more vertices (see the proof in
        # the docstring), so subsets of at most four vertices give them all
        assert list(treelike_census(5).items()) == list(exhaustive_treelike(5, max_size=4).items())

    def test_n16_closed_form(self):
        census = treelike_census(16)
        assert len(census) == 2 * 16 - 1
        assert census["I"] == 2**16 and census["IV"] == 3 * 2**16 * math.comb(16, 3)
        assert list(census)[-2:] == ["III(15)", "IV"]

    def test_out_of_range(self):
        for n in (0, 17):
            with pytest.raises(ValueError):
                treelike_census(n)

    def test_n1_single_vertices(self):
        # the two characters of one factor lie at distance 1, so no arrows
        assert treelike_census(1) == {"I": 2}

    def test_n2_census(self):
        # with two factors no double edge exists, so only the first two
        # shapes occur; the 2n-1 type count starts at n = 3
        assert treelike_census(2) == {"I": 4, "II(1)": 2}


def test_disconnected_subquivers_n3():
    # any full subquiver splitting into two parts of >= 2 vertices is the
    # square: two single edges whose four vertices pair up at distance 2
    q = build_one_quiver(3)
    found = 0
    for smask in range(1, 1 << 8):
        verts = [i for i in range(8) if smask >> i & 1]
        comps = []
        left = set(verts)
        while left:
            start = left.pop()
            comp = {start}
            stack = [start]
            while stack:
                i = stack.pop()
                for j in verts:
                    if j in left and q.arrows[i, j]:
                        left.discard(j)
                        comp.add(j)
                        stack.append(j)
            comps.append(comp)
        big = [c for c in comps if len(c) >= 2]
        if len(big) >= 2:
            found += 1
            assert len(comps) == 2 and all(len(c) == 2 for c in comps)
            for c in comps:
                a, b = sorted(c)
                assert bin(a ^ b).count("1") == 2
            (a, b), (c, d) = (sorted(comps[0]), sorted(comps[1]))
            for x, y in ((a, c), (a, d), (b, c), (b, d)):
                assert bin(x ^ y).count("1") == 1
    assert found > 0
