"""Reference implementations that only the tests use.

Each is the slow, labelled or enumerative route that a closed form or a
label-level search in the library replaced, kept as an independent oracle:
set partitions of the ground set, labelled degeneration of settings, the
(m+1)^n component enumeration, the level-2 census as records, the node
order as the old Young-label key wrote it, and the character quiver's
Euler matrix by block doubling.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from z2quiver.combinat import DimVector, check_ground, check_subset, full_mask, subset_str
from z2quiver.freeprod import rep2_values
from z2quiver.localquiver import LocalSetting


def min_element(a: int) -> int:
    """Smallest element of a nonempty subset (1-based)."""
    if a <= 0:
        raise ValueError("empty subset has no minimum")
    return (a & -a).bit_length()


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


def young_sort_key(label: tuple[tuple[int, int], ...]) -> tuple:
    """Node order of a setting's (size, k) label, top to bottom: total k
    descending, then fewer blocks, coarser diagrams and larger k first."""
    sizes, ks = zip(*label)
    return (-sum(ks), len(sizes), tuple(-s for s in sizes), tuple(-k for k in ks))


def one_quiver_euler_recursive(n: int) -> list[list[int]]:
    """The character quiver's Euler matrix as int rows, built by doubling:
    M_0 = [[1]] and M_j = [[M_{j-1}, M_{j-1}-P], [M_{j-1}-P, M_{j-1}]] with
    P all ones."""
    m = [[1]]
    for _ in range(n):
        shifted = [[x - 1 for x in row] for row in m]
        m = [row + low for row, low in zip(m, shifted)] + [low + row for row, low in zip(m, shifted)]
    return m


def degenerates(s: LocalSetting, t: LocalSetting) -> bool:
    """Whether t lies in the closure of the s-stratum: t's partition refines
    s's and each block of s has k at least the sum of the k of its parts.
    Reflexive; compares labelled settings, not permutation classes."""
    if (s.n, s.m) != (t.n, t.m):
        raise ValueError("settings must share the same n and m")
    for tb in t.blocks:
        if not any(tb & sb == tb for sb in s.blocks):
            return False
    for sb, sk in zip(s.blocks, s.k):
        if sk < sum(tk for tb, tk in zip(t.blocks, t.k) if tb & sb == tb):
            return False
    return True


def components(n: int, m: int) -> Iterator[DimVector]:
    """All dimension vectors with pair sum m, one per component."""
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 and m >= 0")
    for plus in itertools.product(range(m + 1), repeat=n):
        yield DimVector(tuple((p, m - p) for p in plus))


@dataclass(frozen=True)
class Rep2Component:
    """One component of the level-2 representation variety, indexed by the
    subset A of mixed factors and the subset B of minus-one factors."""

    a_mask: int
    b_mask: int
    k: int
    rep_dim: int
    quot_dim: int
    singularities: int
    local_type: str | None


def rep2_census(n: int) -> Iterator[Rep2Component]:
    """All 3**n level-2 components, streamed: A over subsets of {1..n}, B
    over subsets of the complement; 2^{n-k} C(n,k) rows for each k = |A|."""
    if n < 1:
        raise ValueError("need n >= 1")
    for a in range(1 << n):
        k = a.bit_count()
        values = rep2_values(k)
        comp = full_mask(n) ^ a
        b = 0
        while True:
            yield Rep2Component(a, b, k, *values)
            if b == comp:
                break
            b = (b - comp) & comp
