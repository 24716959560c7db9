"""Subsets, set partitions, Young labels, and dimension vectors.

Ground sets are N = {1, ..., n}; a subset A of N is stored as a plain int
bitmask with element i sitting on bit i-1.  All values here are immutable
and all functions are pure, so everything is safe to share across threads.
The hard cap n <= 16 exists because several callers enumerate all 2**n
subsets as quiver vertices; memory there grows like 4**n.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterator

MAX_GROUND = 16
# Most pairs a dimension vector parsed from text may hold.  It lies far above
# any n the computations are meant for and keeps a repetition such as
# '(1,0)*1000000000' from being expanded into a billion-entry list.
MAX_PAIRS = 10_000


def check_ground(n: int) -> None:
    if not isinstance(n, int) or not 1 <= n <= MAX_GROUND:
        raise ValueError(f"ground-set size must be an integer in [1, {MAX_GROUND}], got {n!r}")


def check_subset(a: int, n: int) -> None:
    check_ground(n)
    if not isinstance(a, int) or a < 0 or a >> n:
        raise ValueError(f"{a!r} is not a subset mask over {{1..{n}}}")


def full_mask(n: int) -> int:
    return (1 << n) - 1


def min_element(a: int) -> int:
    """Smallest element of a nonempty subset (1-based)."""
    if a <= 0:
        raise ValueError("empty subset has no minimum")
    return (a & -a).bit_length()


def subset_str(a: int) -> str:
    return "{" + ",".join(str(i + 1) for i in range(a.bit_length()) if a >> i & 1) + "}"


def parse_subset(text: str, n: int | None = None) -> int:
    """Parse '{1,3}' (or '{}') into a bitmask; validates against n if given."""
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
            if i < 1 or (n is not None and i > n):
                raise ValueError(f"element {i} out of range in {text!r}")
            mask |= 1 << (i - 1)
    if n is not None:
        check_subset(mask, n)
    return mask


def multiset_coeff(k: int, n: int) -> int:
    """Number of size-n multisets drawn from k symbols: C(k+n-1, n)."""
    if k < 0 or n < 0:
        raise ValueError("multiset_coeff needs nonnegative arguments")
    if n == 0:
        return 1
    return math.comb(k + n - 1, n)


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


def _block_sort_key(block: int) -> tuple[int, int]:
    # canonical order: size descending, then smallest element ascending
    return (-block.bit_count(), min_element(block))


@dataclass(frozen=True)
class SetPartition:
    """Partition of {1..n} into disjoint nonempty blocks, kept in canonical
    order (size descending, then smallest element ascending)."""

    n: int
    blocks: tuple[int, ...]

    def __post_init__(self) -> None:
        check_ground(self.n)
        union = 0
        for b in self.blocks:
            check_subset(b, self.n)
            if b == 0:
                raise ValueError("blocks must be nonempty")
            if b & union:
                raise ValueError("blocks must be pairwise disjoint")
            union |= b
        if union != full_mask(self.n):
            raise ValueError("blocks must cover the ground set")
        object.__setattr__(self, "blocks", tuple(sorted(self.blocks, key=_block_sort_key)))

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(b.bit_count() for b in self.blocks)

    def young_rows(self) -> tuple[tuple[int, int], ...]:
        """Block sizes grouped as (size, multiplicity), sizes strictly decreasing."""
        rows: list[tuple[int, int]] = []
        for s in self.sizes:
            if rows and rows[-1][0] == s:
                rows[-1] = (s, rows[-1][1] + 1)
            else:
                rows.append((s, 1))
        return tuple(rows)

    def __str__(self) -> str:
        return "|".join(subset_str(b) for b in self.blocks)


def enumerate_set_partitions(n: int) -> Iterator[SetPartition]:
    """All set partitions of {1..n}, each exactly once, in canonical form.

    Single-consumer stream; Bell(n) items, intended for n <= 12.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"need a positive ground-set size, got {n!r}")
    check_ground(n)

    def grow(i: int, blocks: list[int]) -> Iterator[SetPartition]:
        if i == n:
            yield SetPartition(n, tuple(blocks))
            return
        bit = 1 << i
        for j in range(len(blocks)):
            blocks[j] |= bit
            yield from grow(i + 1, blocks)
            blocks[j] &= ~bit
        blocks.append(bit)
        yield from grow(i + 1, blocks)
        blocks.pop()

    yield from grow(0, [])


@dataclass(frozen=True, order=True)
class DimVector:
    """Dimension vector (a_i+, a_i-) for i = 1..n with constant pair sum m."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if not self.pairs:
            raise ValueError("dimension vector needs at least one pair")
        sums = set()
        for p in self.pairs:
            if len(p) != 2 or not all(isinstance(x, int) and x >= 0 for x in p):
                raise ValueError(f"bad pair {p!r}: need two nonnegative integers")
            sums.add(p[0] + p[1])
        if len(sums) != 1:
            raise ValueError(f"pair sums must be constant, got sums {sorted(sums)}")

    @property
    def n(self) -> int:
        return len(self.pairs)

    @property
    def m(self) -> int:
        """The constant pair sum (the representation dimension)."""
        return self.pairs[0][0] + self.pairs[0][1]

    def canonical(self) -> "DimVector":
        return bn_canonicalize(self)

    def flat(self) -> tuple[int, ...]:
        """(a_1+, a_1-, a_2+, a_2-, ...) matching the 2n-vertex quiver order."""
        return tuple(x for p in self.pairs for x in p)

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


_PAIR_RE = re.compile(r"(\d+)\s*,\s*(\d+)")
_REPEAT_RE = re.compile(r"\(\s*(\d+)\s*,\s*(\d+)\s*\)\s*\*\s*(\d+)")


def parse_dim_vector(text: str) -> DimVector:
    """Parse 'a+,a-;a+,a-;...' with optional '(a,b)*r' repetition segments.

    Refuses, before building any list, text that would give more than
    MAX_PAIRS pairs, so a huge repetition count costs nothing."""
    pairs: list[tuple[int, int]] = []
    for idx, seg in enumerate(text.split(";"), start=1):
        seg = seg.strip()
        m = _REPEAT_RE.fullmatch(seg)
        if m:
            p, q, r = int(m.group(1)), int(m.group(2)), int(m.group(3))
            if r < 1:
                raise ValueError(f"pair {idx}: repetition count must be >= 1 in {seg!r}")
        elif m := _PAIR_RE.fullmatch(seg):
            p, q, r = int(m.group(1)), int(m.group(2)), 1
        else:
            raise ValueError(f"pair {idx}: expected 'a,b' or '(a,b)*r', got {seg!r}")
        if len(pairs) + r > MAX_PAIRS:
            raise ValueError(f"pair {idx}: {seg!r} takes the dimension vector past {MAX_PAIRS} pairs")
        pairs.extend([(p, q)] * r)
    return DimVector(tuple(pairs))


def bn_canonicalize(v: DimVector) -> DimVector:
    """Canonical orbit representative under pair flips and pair permutations.

    The signed-permutation group acting here is generated by the flip of a
    single pair together with all pair permutations; conjugating the one
    flip around yields every independent pair flip, so the orbit of v is
    exactly {flip any pairs, then permute}.  The representative swaps each
    pair so that a_i+ >= a_i- and sorts pairs by a_i+ descending, giving
    m >= a_1+ >= ... >= a_n+ >= m/2.  Idempotent.
    """
    pairs = sorted(((max(p), min(p)) for p in v.pairs), reverse=True)
    return DimVector(tuple(pairs))


@dataclass(frozen=True, order=True)
class YoungLabel:
    """Permutation-class label of a local setting: Young rows (length,
    multiplicity) with lengths strictly decreasing, plus one weakly
    decreasing k-multiset per row class, entries in [1, length]."""

    rows: tuple[tuple[int, int], ...]
    k_rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.rows) != len(self.k_rows) or not self.rows:
            raise ValueError("rows and k_rows must align and be nonempty")
        prev = None
        for (lam, mu), ks in zip(self.rows, self.k_rows):
            if lam < 1 or mu < 1:
                raise ValueError("row lengths and multiplicities must be positive")
            if prev is not None and lam >= prev:
                raise ValueError("row lengths must strictly decrease")
            prev = lam
            if len(ks) != mu:
                raise ValueError(f"row ({lam},{mu}) needs {mu} k-values, got {ks}")
            if any(not 1 <= k <= lam for k in ks):
                raise ValueError(f"k-values for row length {lam} must lie in [1, {lam}]")
            if any(ks[i] < ks[i + 1] for i in range(len(ks) - 1)):
                raise ValueError("k-values must be weakly decreasing within a row class")

    @property
    def n(self) -> int:
        return sum(lam * mu for lam, mu in self.rows)

    @property
    def k_total(self) -> int:
        return sum(sum(ks) for ks in self.k_rows)

    def sizes(self) -> tuple[int, ...]:
        return tuple(lam for lam, mu in self.rows for _ in range(mu))

    def ks(self) -> tuple[int, ...]:
        return tuple(k for ks in self.k_rows for k in ks)

    def label(self) -> str:
        sizes = ",".join(str(s) for s in self.sizes())
        ks = ",".join(str(k) for k in self.ks())
        return f"({sizes}),({ks})"

    def sort_key(self) -> tuple:
        # top-to-bottom: total k descending, then fewer blocks, coarser
        # diagrams and larger k first
        return (
            -self.k_total,
            len(self.sizes()),
            tuple(-s for s in self.sizes()),
            tuple(-k for k in self.ks()),
        )
