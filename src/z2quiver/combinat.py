"""Subsets, integer partitions, and dimension vectors.

Ground sets are N = {1, ..., n}; a subset A of N is stored as a plain int
bitmask with element i sitting on bit i-1.  All values here are immutable
and all functions are pure, so everything is safe to share across threads.
The hard cap n <= 16 exists because several callers enumerate all 2**n
subsets as quiver vertices; memory there grows like 4**n.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, Iterator

MAX_GROUND = 16
# Most decimal digits of a count: CPython's default limit on int-to-str
# conversion, so every count that prints keeps printing.
MAX_COUNT_DIGITS = 4300
# Most pairs a dimension vector parsed from text may hold.  It lies far above
# any n the computations are meant for and keeps a repetition such as
# '(1,0)*1000000000' from being expanded into a billion-entry list.
MAX_PAIRS = 10_000


def check_ground(n: int) -> None:
    if not isinstance(n, int) or not 1 <= n <= MAX_GROUND:
        raise ValueError(f"ground-set size must be an integer in [1, {MAX_GROUND}], got {n!r}")


def check_ints(values, what: str) -> tuple[int, ...]:
    """values as ints; a float or a string is refused, not rounded or parsed."""
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        raise ValueError(f"{what} must be integers, got {values!r}") from None


def check_subset(a: int, n: int) -> None:
    check_ground(n)
    if not isinstance(a, int) or a < 0 or a >> n:
        raise ValueError(f"{a!r} is not a subset mask over {{1..{n}}}")


def full_mask(n: int) -> int:
    return (1 << n) - 1


def subset_str(a: int) -> str:
    return "{" + ",".join(str(i + 1) for i in range(a.bit_length()) if a >> i & 1) + "}"


def parse_subset(text: str, n: int | None = None) -> int:
    """Parse '{1,3}' (or '{}') into a bitmask over {1..n}, or over
    {1..MAX_GROUND} when n is None.  An element out of range is refused
    before it is shifted, so a huge one costs nothing."""
    if n is not None:
        check_ground(n)
    top = MAX_GROUND if n is None else n
    t = text.strip()
    if not (t.startswith("{") and t.endswith("}")):
        raise ValueError(f"subset must look like '{{1,3}}', got {text!r}")
    body = t[1:-1].strip()
    mask = 0
    if body:
        for piece in body.split(","):
            if not piece.strip().isdigit():
                raise ValueError(f"bad subset element {piece!r} in {text!r}")
            i = int(piece)
            if not 1 <= i <= top:
                raise ValueError(f"element {i} out of range in {text!r}")
            mask |= 1 << (i - 1)
    return mask


def int_text(x: int) -> str:
    """str(x), or "a D-digit integer" past MAX_COUNT_DIGITS digits, where CPython's int-to-str conversion refuses."""
    d = int(math.log10(abs(x) or 1))  # floor(log10 |x|), or one off it either way
    digits = d + (abs(x) >= 10**d) + (abs(x) >= 10 ** (d + 1))
    return str(x) if digits <= MAX_COUNT_DIGITS else f"a {digits}-digit integer"


def capped_count(low_bits: int, count: Callable[[], int], what: str, *values: int) -> int:
    """count(), refused past MAX_COUNT_DIGITS digits with a ValueError naming it what.format(*values).
    The caller's low_bits <= log2(count()), read from bit lengths, refuses a count past
    2**(4 * MAX_COUNT_DIGITS) uncomputed; the rest is compared exactly."""
    if low_bits <= 4 * MAX_COUNT_DIGITS:
        value = count()
        if value < 10**MAX_COUNT_DIGITS:
            return value
    raise ValueError(f"{what.format(*map(int_text, values))} has more than {MAX_COUNT_DIGITS} digits")


def multiset_coeff(k: int, n: int) -> int:
    """Number of size-n multisets drawn from k symbols: C(k+n-1, n), capped
    with j = min(n, k-1) as C(k+n-1, j) >= max(2, (k+n-1)/j)**j."""
    if k < 0 or n < 0:
        raise ValueError("multiset_coeff needs nonnegative arguments")
    if n == 0:
        return 1
    top, j = k + n - 1, min(n, k - 1)
    low_bits = j * max(1, top.bit_length() - 1 - j.bit_length()) if j > 0 else 0
    return capped_count(low_bits, lambda: math.comb(top, n), "the count C({}, {})", top, n)


def partitions_of_int(n: int) -> Iterator[tuple[int, ...]]:
    """Weakly decreasing tuples of positive integers summing to n."""
    if n < 0:
        raise ValueError("n must be nonnegative")

    def rec(rest: int, cap: int, acc: list[int]) -> Iterator[tuple[int, ...]]:
        if rest == 0:
            yield tuple(acc)
            return
        for part in range(min(cap, rest), 0, -1):
            acc.append(part)
            yield from rec(rest - part, part, acc)
            acc.pop()

    yield from rec(n, n, [])


class Frozen:
    """Base of the immutable value classes.  A subclass names the fields
    that make up its value in _fields and lists them, with any other
    attribute, in __slots__.  Its __init__ sets each of them, and _value to
    the tuple of the _fields, with object.__setattr__.  Equality holds only
    within one class, the hash is hash() of that tuple, the repr reads
    Name(field=value, ...) and assigning or deleting an attribute raises
    AttributeError."""

    __slots__ = ("_value",)
    _fields: tuple[str, ...] = ()

    def __eq__(self, other):
        return self._value == other._value if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._value)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._value))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._value

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class DimVector(Frozen):
    """Dimension vector (a_i+, a_i-) for i = 1..n with constant pair sum m,
    ordered by its pairs."""

    __slots__ = _fields = ("pairs",)

    def __init__(self, pairs: tuple[tuple[int, int], ...]) -> None:
        if not pairs:
            raise ValueError("dimension vector needs at least one pair")
        sums = set()
        for p in pairs:
            if len(p) != 2:
                raise ValueError(f"bad pair {p!r}: need two nonnegative integers")
            a, b = p
            if not (isinstance(a, int) and isinstance(b, int) and a >= 0 and b >= 0):
                raise ValueError(f"bad pair {p!r}: need two nonnegative integers")
            sums.add(a + b)
        if len(sums) != 1:
            raise ValueError(f"pair sums must be constant, got sums {sorted(sums)}")
        _store_pairs(self, pairs)

    def __lt__(self, other):
        return self.pairs < other.pairs if other.__class__ is self.__class__ else NotImplemented

    def __le__(self, other):
        return self.pairs <= other.pairs if other.__class__ is self.__class__ else NotImplemented

    def __gt__(self, other):
        return self.pairs > other.pairs if other.__class__ is self.__class__ else NotImplemented

    def __ge__(self, other):
        return self.pairs >= other.pairs if other.__class__ is self.__class__ else NotImplemented

    @property
    def n(self) -> int:
        return len(self.pairs)

    @property
    def m(self) -> int:
        """The constant pair sum (the representation dimension)."""
        return self.pairs[0][0] + self.pairs[0][1]

    @classmethod
    def standard(cls, n: int, m: int) -> "DimVector":
        """(m-1, 1) at every index; the component of the standard rank-n
        simple representation of the symmetric group quotient when m = n."""
        if m < 1:
            raise ValueError("level m must be >= 1")
        return cls(((m - 1, 1),) * n)

    @classmethod
    def character(cls, n: int, a: int) -> "DimVector":
        """Generator of level 1: (0,1) on the subset A, (1,0) elsewhere."""
        check_subset(a, n)
        return cls(tuple((0, 1) if a >> i & 1 else (1, 0) for i in range(n)))

    def __str__(self) -> str:
        return ";".join(f"{p},{q}" for p, q in self.pairs)


def _store_pairs(v: DimVector, pairs: tuple[tuple[int, int], ...]) -> DimVector:
    """Set v's fields to pairs, unchecked: the caller has checked them."""
    init = object.__setattr__
    init(v, "pairs", pairs)
    init(v, "_value", (pairs,))
    return v


# The fullmatch methods of the 'a,b' and '(a,b)*r' segment patterns.  The
# first parse compiles them: most commands never parse a dimension vector.
_segment_matchers = None


def parse_dim_vector(text: str) -> DimVector:
    """Parse 'a+,a-;a+,a-;...' with optional '(a,b)*r' repetition segments.

    Refuses, before building any list, text that would give more than
    MAX_PAIRS pairs, so a huge repetition count costs nothing."""
    global _segment_matchers
    if _segment_matchers is None:
        import re

        _segment_matchers = (
            re.compile(r"(\d+)\s*,\s*(\d+)").fullmatch,
            re.compile(r"\(\s*(\d+)\s*,\s*(\d+)\s*\)\s*\*\s*(\d+)").fullmatch,
        )
    pair, repeat = _segment_matchers
    pairs: list[tuple[int, int]] = []
    for idx, seg in enumerate(text.split(";"), start=1):
        seg = seg.strip()
        # the two patterns are disjoint: only the second starts with '('
        m = pair(seg)
        if m:
            p, q, r = int(m.group(1)), int(m.group(2)), 1
        elif m := repeat(seg):
            p, q, r = int(m.group(1)), int(m.group(2)), int(m.group(3))
            if r < 1:
                raise ValueError(f"pair {idx}: repetition count must be >= 1 in {seg!r}")
        else:
            raise ValueError(f"pair {idx}: expected 'a,b' or '(a,b)*r', got {seg!r}")
        if len(pairs) + r > MAX_PAIRS:
            raise ValueError(f"pair {idx}: {seg!r} takes the dimension vector past {MAX_PAIRS} pairs")
        pairs.extend([(p, q)] * r)
    sums = {p + q for p, q in pairs}
    if len(sums) != 1:
        raise ValueError(f"pair sums must be constant, got sums {sorted(sums)}")
    # every pair is two nonnegative ints, as the patterns match only digits
    return _store_pairs(object.__new__(DimVector), tuple(pairs))


def bn_canonicalize(v: DimVector) -> DimVector:
    """Canonical orbit representative under pair flips and pair permutations.

    The signed-permutation group acting here is generated by the flip of a
    single pair together with all pair permutations; conjugating the one
    flip around yields every independent pair flip, so the orbit of v is
    exactly {flip any pairs, then permute}.  The representative swaps each
    pair so that a_i+ >= a_i- and sorts pairs by a_i+ descending, giving
    m >= a_1+ >= ... >= a_n+ >= m/2.  Idempotent.
    """
    pairs = sorted([(p, q) if p >= q else (q, p) for p, q in v.pairs], reverse=True)
    return _store_pairs(object.__new__(DimVector), tuple(pairs))
