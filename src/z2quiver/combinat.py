"""Subsets, integer partitions, and dimension vectors.

Ground sets are N = {1, ..., n}; a subset A of N is stored as a plain int
bitmask with element i sitting on bit i-1.  All values here are immutable
and all functions are pure, so everything is safe to share across threads.
The cap n <= 16 bounds every ground set; the 4**n character-quiver
matrices stop earlier, at freeprod.MAX_ONE_QUIVER_GROUND = 12.
"""

from __future__ import annotations

import functools
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


def check_ground(n: int) -> int:
    """n as an int in [1, MAX_GROUND]; a float or a string is refused."""
    try:
        n = operator.index(n)
    except TypeError:
        raise ValueError(f"ground-set size must be an integer in [1, {MAX_GROUND}], got {int_text(n)}") from None
    if not 1 <= n <= MAX_GROUND:
        raise ValueError(f"ground-set size must be an integer in [1, {MAX_GROUND}], got {int_text(n)}")
    return n


def check_ints(values, what: str) -> tuple[int, ...]:
    """values as ints; a float or a string is refused, not rounded or parsed,
    and the refusal names the first such value."""
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        bad = values  # named whole only when it is not iterable
    try:
        for bad in values:
            operator.index(bad)
    except TypeError:
        pass
    raise ValueError(f"{what} must be integers, got {int_text(bad)}")


def check_subset(a: int, n: int) -> int:
    """a as an int bitmask over {1..n}, n checked by check_ground; a float or a string is refused."""
    n = check_ground(n)
    try:
        mask = operator.index(a)
    except TypeError:
        raise ValueError(f"{int_text(a)} is not a subset mask over {{1..{n}}}") from None
    if mask < 0 or mask >> n:
        raise ValueError(f"{int_text(mask)} is not a subset mask over {{1..{n}}}")
    return mask


def full_mask(n: int) -> int:
    return (1 << n) - 1


def subset_str(a: int) -> str:
    """'{1,3}' for the mask of {1,3}, a subset of {1..MAX_GROUND}."""
    a = check_subset(a, MAX_GROUND)
    return "{" + ",".join(str(i + 1) for i in range(a.bit_length()) if a >> i & 1) + "}"


def parse_subset(text: str, n: int | None = None) -> int:
    """Parse '{1,3}' (or '{}') into a bitmask over {1..n}, or over
    {1..MAX_GROUND} when n is None.  An element out of range is refused
    before it is shifted, so a huge one costs nothing."""
    if n is not None:
        n = check_ground(n)
    top = MAX_GROUND if n is None else n
    if len(text) > MAX_COUNT_DIGITS:
        check_digit_runs(text)
    t = text.strip()
    if not (t.startswith("{") and t.endswith("}")):
        raise ValueError(f"subset must look like '{{1,3}}', got {text!r}")
    body = t[1:-1].strip()
    mask = 0
    if body:
        for piece in body.split(","):
            if not piece.strip().isdecimal():  # isdigit passes "²", which int() refuses
                raise ValueError(f"bad subset element {piece!r} in {text!r}")
            i = int(piece)
            if not 1 <= i <= top:
                raise ValueError(f"element {i} out of range in {text!r}")
            mask |= 1 << (i - 1)
    return mask


def check_digit_runs(text: str) -> None:
    """Refuse text holding a run of more than MAX_COUNT_DIGITS decimal digits, which int() would refuse
    in CPython's words, naming the run by its digit count as int_text names an int.  The parsers call it
    only on text longer than MAX_COUNT_DIGITS, so other text pays one length test and no call."""
    import re

    digits = max(map(len, re.findall(r"\d+", text)), default=0)
    if digits > MAX_COUNT_DIGITS:
        raise ValueError(f"the text holds a {digits}-digit integer, past {MAX_COUNT_DIGITS} digits")


def int_text(x) -> str:
    """str(x) for an int, or "a D-digit integer" ("a negative D-digit integer") past MAX_COUNT_DIGITS
    digits, where CPython's int-to-str conversion refuses; item by item for a tuple or a list, and
    repr(x) for anything else.  Refusals name the caller's values through it."""
    if not isinstance(x, int):
        if not isinstance(x, (tuple, list)):
            return repr(x)
        items = ", ".join(map(int_text, x)) + ("," if len(x) == 1 and isinstance(x, tuple) else "")
        return f"({items})" if isinstance(x, tuple) else f"[{items}]"
    if x.bit_length() <= 3 * MAX_COUNT_DIGITS:  # |x| < 8**MAX_COUNT_DIGITS: it prints
        return str(x)
    d = int(math.log10(abs(x)))  # floor(log10 |x|), or one off it either way
    digits = d + (abs(x) >= 10**d) + (abs(x) >= 10 ** (d + 1))
    return str(x) if digits <= MAX_COUNT_DIGITS else f"a {'negative ' * (x < 0)}{digits}-digit integer"


def capped_count(low_bits: int, count: Callable[[], int], what: str, *values: int) -> int:
    """count(), refused past MAX_COUNT_DIGITS digits with a ValueError naming it what.format(*values).
    The caller's low_bits <= log2(count()), read from bit lengths, refuses a count past
    2**(4 * MAX_COUNT_DIGITS) uncomputed; a count below 2**(3 * MAX_COUNT_DIGITS) passes on its
    bit length, and only the rest is compared with 10**MAX_COUNT_DIGITS."""
    if low_bits <= 4 * MAX_COUNT_DIGITS:
        value = count()
        if value.bit_length() <= 3 * MAX_COUNT_DIGITS or value < 10**MAX_COUNT_DIGITS:
            return value
    raise ValueError(f"{what.format(*map(int_text, values))} has more than {MAX_COUNT_DIGITS} digits")


def multiset_coeff(k: int, n: int) -> int:
    """Number of size-n multisets drawn from k symbols: C(k+n-1, n), capped
    with j = min(n, k-1) as C(k+n-1, j) >= max(2, (k+n-1)/j)**j."""
    k, n = check_ints((k, n), "k and n")
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
    that make up its value in _fields and lists them, then any other
    attribute, in __slots__; the slots are the one copy of every field.
    Its __init__ checks the caller's values and stores them with _set; the
    library stores values it has already checked with
    object.__new__(cls)._set(...).  Equality holds only within one class,
    the hash is hash() of the tuple of the _fields, the repr reads
    Name(field=value, ...) and assigning or deleting an attribute raises
    AttributeError."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        # each slot's own setter, which Frozen.__setattr__ does not reach
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def _astuple(self) -> tuple:
        """The value: the _fields slots as a tuple."""
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        return self._astuple() == other._astuple() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._astuple()

    def _set(self, *values):
        """Store values, unchecked, in the class's __slots__ in order; return self."""
        for store, value in zip(self._setters, values):
            store(self, value)
        return self

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


@functools.total_ordering
class DimVector(Frozen):
    """Dimension vector (a_i+, a_i-) for i = 1..n with constant pair sum m,
    ordered by its pairs."""

    __slots__ = _fields = ("pairs",)

    def __init__(self, pairs: tuple[tuple[int, int], ...]) -> None:
        """Lists, bools and numpy ints are stored as the tuples of plain ints they stand for."""
        try:
            pairs = tuple(pairs)
        except TypeError:
            raise ValueError(f"a dimension vector is a sequence of pairs, got {int_text(pairs)}") from None
        if not pairs:
            raise ValueError("dimension vector needs at least one pair")
        plain, sums = True, set()
        for p in pairs:
            try:
                a, b = p
                if type(a) is not int or type(b) is not int or type(p) is not tuple:
                    a, b, plain = operator.index(a), operator.index(b), False
            except (TypeError, ValueError):
                a = b = -1
            if a < 0 or b < 0:
                raise ValueError(f"bad pair {int_text(p)}: need two nonnegative integers")
            sums.add(a + b)
        _check_sums(sums)
        self._set(pairs if plain else tuple((operator.index(a), operator.index(b)) for a, b in pairs))

    def __lt__(self, other):
        return self.pairs < other.pairs if other.__class__ is self.__class__ else NotImplemented

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
        n, m = check_ints((n, m), "n and m")
        if m < 1:
            raise ValueError("level m must be >= 1")
        if not 1 <= n <= MAX_PAIRS:
            raise ValueError(f"need 1 <= n <= {MAX_PAIRS} pairs, got n={int_text(n)}")
        return object.__new__(cls)._set(((m - 1, 1),) * n)

    @classmethod
    def character(cls, n: int, a: int) -> "DimVector":
        """Generator of level 1: (0,1) on the subset A, (1,0) elsewhere."""
        a = check_subset(a, n)
        return object.__new__(cls)._set(tuple((0, 1) if a >> i & 1 else (1, 0) for i in range(n)))

    def __str__(self) -> str:
        if self.m.bit_length() <= 3 * MAX_COUNT_DIGITS:  # every entry is at most m, and prints
            return ";".join(f"{p},{q}" for p, q in self.pairs)
        return ";".join(f"{int_text(p)},{int_text(q)}" for p, q in self.pairs)


def _check_sums(sums: set[int]) -> None:
    """Refuse a dimension vector whose set of pair sums, sums, holds more than one value."""
    if len(sums) != 1:
        raise ValueError(f"pair sums must be constant, got sums {int_text(sorted(sums))}")


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
    if len(text) > MAX_COUNT_DIGITS:
        check_digit_runs(text)
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
    _check_sums({p + q for p, q in pairs})
    # every pair is two nonnegative ints, as the patterns match only digits
    return object.__new__(DimVector)._set(tuple(pairs))


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
    return object.__new__(DimVector)._set(tuple(pairs))
