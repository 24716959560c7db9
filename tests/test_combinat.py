import itertools
import math
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import SetPartition, enumerate_set_partitions

from z2quiver.combinat import (
    MAX_COUNT_DIGITS,
    MAX_PAIRS,
    DimVector,
    bn_canonicalize,
    check_ground,
    check_ints,
    full_mask,
    int_text,
    multiset_coeff,
    parse_dim_vector,
    parse_subset,
    partitions_of_int,
    subset_str,
)

BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140]


def mask(*elements: int) -> int:
    return sum(1 << (e - 1) for e in elements)


def test_subset_str_roundtrip():
    for a in range(16):
        assert parse_subset(subset_str(a), 4) == a


@pytest.mark.parametrize("text", ["{17}", "{100000000000}"])
def test_parse_subset_refuses_elements_past_the_ground_cap(text):
    with pytest.raises(ValueError, match="out of range"):
        parse_subset(text)


def test_parse_subset_checks_n_first():
    with pytest.raises(ValueError, match="ground-set size"):
        parse_subset("{1}", 10**12)
    with pytest.raises(ValueError, match="out of range"):
        parse_subset("{5}", 4)


@pytest.mark.parametrize("k", [1, 17, 3000, MAX_COUNT_DIGITS - 1, MAX_COUNT_DIGITS, 5000, 30103])
def test_int_text_names_long_ints_by_digit_count(k):
    # the digit count is read from log10, which is one off near powers of ten
    for x in (10**k - 1, 10**k, 7 * 10**k + 3):
        digits = len(str(x)) if k < MAX_COUNT_DIGITS else k + (x >= 10**k)
        want = str(x) if digits <= MAX_COUNT_DIGITS else f"a {digits}-digit integer"
        assert int_text(x) == want, (k, digits)
        assert int_text(-x) == (f"-{want}" if digits <= MAX_COUNT_DIGITS else f"a negative {digits}-digit integer")
    assert int_text(0) == "0"
    # the sign of a huge negative was dropped
    assert int_text(-(10**5000)) == "a negative 5001-digit integer"


def test_check_ground_returns_the_int():
    # a numpy n was refused, and a huge one raised CPython's int-to-str error
    assert [type(n) for n in (check_ground(np.int64(5)), check_ground(True))] == [int, int]
    with pytest.raises(ValueError, match=r"got 2\.0$"):
        check_ground(2.0)
    for n, text in ((10**5000, "a"), (-(10**5000), "a negative")):
        with pytest.raises(ValueError, match=rf"in \[1, 16\], got {text} 5001-digit integer$"):
            check_ground(n)


def test_check_ints_names_the_first_non_integer():
    # the whole tuple was named, so a huge int beside the float raised CPython's int-to-str error
    assert check_ints((1, np.int64(2)), "n and m") == (1, 2)
    with pytest.raises(ValueError, match=r"^n and m must be integers, got 2\.0$"):
        check_ints((10**5000, 2.0, "3"), "n and m")
    with pytest.raises(ValueError, match=r"^sizes must be integers, got a 5001-digit integer$"):
        check_ints(10**5000, "sizes")


def brute_multiset(k: int, n: int) -> int:
    # independent oracle: count weakly decreasing n-tuples over {1..k}
    return sum(1 for _ in itertools.combinations_with_replacement(range(k), n))


class TestMultisetCoeff:
    @pytest.mark.parametrize("k, n", [(2.0, 3), ("a", 1), (3, 2.5)])
    def test_non_integers_refused(self, k, n):
        # a float k raised AttributeError, a string TypeError
        with pytest.raises(ValueError, match="k and n must be integers"):
            multiset_coeff(k, n)

    def test_two_choose_three(self):
        assert brute_multiset(2, 3) == 4
        assert multiset_coeff(2, 3) == 4

    def test_one_symbol(self):
        for n in range(1, 8):
            assert multiset_coeff(1, n) == 1

    def test_single_draw(self):
        for k in range(1, 8):
            assert multiset_coeff(k, 1) == k

    def test_edge_cases(self):
        assert multiset_coeff(0, 3) == 0
        assert multiset_coeff(0, 0) == 1
        assert multiset_coeff(5, 0) == 1
        with pytest.raises(ValueError):
            multiset_coeff(-1, 2)

    def test_against_enumeration(self):
        for k in range(0, 6):
            for n in range(0, 6):
                assert multiset_coeff(k, n) == brute_multiset(k, n)

    def test_huge_coefficient_refused_up_front(self):
        # took about 35 s to compute C(2 * 10**6 - 1, 10**6)
        start = time.monotonic()
        with pytest.raises(ValueError, match=f"more than {MAX_COUNT_DIGITS} digits"):
            multiset_coeff(10**6, 10**6)
        assert time.monotonic() - start < 1

    @pytest.mark.parametrize("k", [2, 3, 50])
    def test_digit_limit_compared_exactly(self, k):
        # multiset_coeff(n + k, n) = C(2n + k - 1, n): the largest n whose
        # coefficient has at most MAX_COUNT_DIGITS digits answers, the next
        # is refused; the bit-length bound alone cannot tell them apart
        limit = 10**MAX_COUNT_DIGITS
        n, count = 1, k + 1  # count = C(2n + k - 1, n)
        while (step := count * (2 * n + k) * (2 * n + k + 1) // ((n + 1) * (n + k))) < limit:
            n, count = n + 1, step
        assert multiset_coeff(n + k, n) == count == math.comb(2 * n + k - 1, n)
        with pytest.raises(ValueError, match="digits"):
            multiset_coeff(n + 1 + k, n + 1)


class TestSetPartitions:
    def test_n1(self):
        parts = list(enumerate_set_partitions(1))
        assert parts == [SetPartition(1, (1,))]

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            list(enumerate_set_partitions(0))

    def test_n3_explicit(self):
        got = {p.blocks for p in enumerate_set_partitions(3)}
        expected = {
            (mask(1, 2, 3),),
            (mask(1, 2), mask(3)),
            (mask(1, 3), mask(2)),
            (mask(2, 3), mask(1)),
            (mask(1), mask(2), mask(3)),
        }
        assert got == expected

    @pytest.mark.parametrize("n", range(1, 9))
    def test_bell_counts_valid_and_distinct(self, n):
        seen = set()
        for p in enumerate_set_partitions(n):
            assert p.n == n
            union = 0
            for b in p.blocks:
                assert b and not (b & union)
                union |= b
            assert union == full_mask(n)
            # canonical order: size desc, then min element asc
            keys = [(-b.bit_count(), (b & -b).bit_length()) for b in p.blocks]
            assert keys == sorted(keys)
            seen.add(p.blocks)
        assert len(seen) == BELL[n]

    def test_invalid_partitions_rejected(self):
        with pytest.raises(ValueError):
            SetPartition(3, (mask(1, 2),))  # does not cover
        with pytest.raises(ValueError):
            SetPartition(3, (mask(1, 2), mask(2, 3)))  # overlap
        with pytest.raises(ValueError):
            SetPartition(3, (mask(1, 2, 3), 0))  # empty block


class TestBnCanonicalize:
    def test_flip_then_sort(self):
        v = DimVector(((1, 2), (0, 3), (2, 1)))
        assert bn_canonicalize(v).pairs == ((3, 0), (2, 1), (2, 1))

    def test_idempotent(self):
        for v in (DimVector(((3, 0), (2, 1))), DimVector(((0, 2), (2, 0)))):
            c = bn_canonicalize(v)
            assert bn_canonicalize(c) == c

    def test_two_pairs(self):
        assert bn_canonicalize(DimVector(((0, 2), (2, 0)))).pairs == ((2, 0), (2, 0))

    def test_orbit_invariant_preserved(self):
        # the unordered-pair multiset is a complete orbit invariant
        for v in (DimVector(((1, 3), (4, 0), (2, 2))), DimVector(((0, 1), (1, 0)))):
            c = bn_canonicalize(v)
            assert sorted(tuple(sorted(p)) for p in v.pairs) == sorted(
                tuple(sorted(p)) for p in c.pairs
            )

    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("m", range(0, 7))
    def test_canonical_count_matches_orbit_formula(self, n, m):
        reps = set()
        for plus in itertools.product(range(m + 1), repeat=n):
            reps.add(bn_canonicalize(DimVector(tuple((p, m - p) for p in plus))))
        if m % 2 == 0:
            expected = math.comb(m // 2 + n, n)
        else:
            expected = math.comb((m - 1) // 2 + n, n)
        assert len(reps) == expected


class TestDimVector:
    def test_parse_and_str_roundtrip(self):
        for text in ("2,1;2,1;2,1", "4,0;4,0;2,2;2,2", "0,1"):
            assert str(parse_dim_vector(text)) == text

    def test_repeat_shorthand(self):
        assert parse_dim_vector("(4,0)*2;2,2;2,2") == parse_dim_vector("4,0;4,0;2,2;2,2")
        assert parse_dim_vector("(2,1)*3") == DimVector.standard(3, 3)

    def test_parse_reports_offending_pair(self):
        with pytest.raises(ValueError, match="pair 2"):
            parse_dim_vector("2,1;2;2,1")

    def test_huge_repeat_refused_without_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"past {MAX_PAIRS} pairs"):
                parse_dim_vector("(1,0)*1000000000")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_pair_cap_boundary(self):
        assert parse_dim_vector(f"(1,0)*{MAX_PAIRS}").n == MAX_PAIRS
        with pytest.raises(ValueError, match="pair 2"):
            parse_dim_vector(f"(1,0)*{MAX_PAIRS};0,1")

    def test_later_parses_compile_nothing(self, monkeypatch):
        parse_dim_vector("1,0")
        calls = []
        monkeypatch.setattr(re, "compile", lambda *args, **kwargs: calls.append(args))
        assert parse_dim_vector("(2,1)*3;2,1") == DimVector.standard(4, 3)
        assert calls == []

    def test_constant_sum_enforced(self):
        with pytest.raises(ValueError):
            DimVector(((2, 1), (1, 1)))
        with pytest.raises(ValueError):
            DimVector(((1, -1),))

    def test_level(self):
        v = DimVector.standard(3, 4)
        assert (v.n, v.m) == (3, 4)

    def test_character(self):
        v = DimVector.character(3, mask(1, 3))
        assert v.pairs == ((0, 1), (1, 0), (0, 1))

    @given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=1, max_size=6))
    def test_parse_format_roundtrip_random(self, raw):
        m = sum(raw[0])
        pairs = tuple((p, m - p) for p, _ in raw if p <= m)
        if not pairs:
            pairs = ((m, 0),)
        v = DimVector(pairs)
        assert parse_dim_vector(str(v)) == v


def test_partitions_of_int():
    assert set(partitions_of_int(4)) == {(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)}
    counts = [len(list(partitions_of_int(n))) for n in range(8)]
    assert counts == [1, 1, 2, 3, 5, 7, 11, 15]
