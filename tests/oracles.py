"""Reference implementations that only the tests use.

Each is the slow, labelled or enumerative route that a closed form or a
label-level search in the library replaced, kept as an independent oracle:
set partitions of the ground set, labelled degeneration of settings, the
(m+1)^n component enumeration, the level-2 census as records, the node
order as the old Young-label key wrote it, the labels as the product of
per-class k-multisets filtered by the level, the character quiver's Euler
matrix by block doubling, its Hamming distances as one full 4^n grid, the
chain test on a character sum, the free product's Euler form chi, every
semisimple type of a dimension vector with the local quiver the paper reads
off chi at it (the character sums are the types with top=1), the simplicity
test on a support with a per-cell strong-connectivity search and an
index-sum Euler loop, and the `graph` and `local` JSON as dicts for
json.dumps(obj, indent=2).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from z2quiver.combinat import DimVector, check_ground, check_subset, full_mask, partitions_of_int, subset_str
from z2quiver.freeprod import CharacterMultiset, build_Qn, is_simple_alpha, rep2_values
from z2quiver.localquiver import DegenerationGraph, LocalSetting, local_quiver_rows, smooth_point
from z2quiver.quiver import Quiver, QuiverSetting, UnsupportedInputError, euler_form, support


def min_element(a: int) -> int:
    """Smallest element of a nonempty subset (1-based)."""
    if a <= 0:
        raise ValueError("empty subset has no minimum")
    return (a & -a).bit_length()


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
        object.__setattr__(self, "blocks", tuple(sorted(self.blocks, key=lambda b: (-b.bit_count(), min_element(b)))))

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


def labels_by_product(n: int, m: int) -> list[tuple[tuple[int, int], ...]]:
    """The (size, k) labels of the level-m settings over n points in node
    order: on each Young diagram, every product of one weakly decreasing
    k-multiset per row class, kept when sum k <= m."""
    labels = []
    for sizes in partitions_of_int(n):
        per_class = [
            list(itertools.combinations_with_replacement(range(size, 0, -1), len(list(group))))
            for size, group in itertools.groupby(sizes)
        ]
        for choice in itertools.product(*per_class):
            ks = tuple(k for multiset in choice for k in multiset)
            if sum(ks) <= m:
                labels.append(tuple(zip(sizes, ks)))
    return sorted(labels, key=young_sort_key)


def one_quiver_euler_recursive(n: int) -> list[list[int]]:
    """The character quiver's Euler matrix as int rows, built by doubling:
    M_0 = [[1]] and M_j = [[M_{j-1}, M_{j-1}-P], [M_{j-1}-P, M_{j-1}]] with
    P all ones."""
    m = [[1]]
    for _ in range(n):
        shifted = [[x - 1 for x in row] for row in m]
        m = [row + low for row, low in zip(m, shifted)] + [low + row for row, low in zip(m, shifted)]
    return m


def hamming_grid(n: int):
    """|A delta B| for every pair of the 2**n characters as one uint8 ndarray,
    the vertices ordered by bitmask: a full 4**n uint16 XOR grid, then its
    popcounts."""
    import numpy as np

    masks = np.arange(1 << n, dtype=np.uint16)
    return np.bitwise_count(np.bitwise_xor.outer(masks, masks))


def is_chain(c: CharacterMultiset) -> bool:
    """Whether the support of c is totally ordered by inclusion."""
    masks = [a for a, _ in c.counts]
    return all(a & b in (a, b) for a, b in itertools.combinations(masks, 2))


def chi(n: int, b, c) -> int:
    """The free product's Euler form chi(b, c) = sum_i (b_i+ c_i+ + b_i- c_i-)
    - (n-1) m_b m_c (Le Bruyn-Procesi, Trans. AMS 1990) on dimension vectors
    flattened as (b_1+, b_1-, ..., b_n+, b_n-): euler_form on build_Qn(n),
    whose arrows from 1+ and 1- to each i+/- with i >= 2 give the second
    term.  build_Qn refuses n = 1, where chi is the sum term alone."""
    if n == 1:
        return sum(x * y for x, y in zip(b, c))
    return euler_form(build_Qn(n), b, c)


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


def setting_json_obj(s: LocalSetting) -> dict:
    """Node object for graph export, with the setting's local quiver."""
    rows, dims = local_quiver_rows(s)
    return {
        "id": s.id(),
        "young": [[size, len(list(run))] for size, run in itertools.groupby(s.sizes)],
        "k": list(s.k),
        "quiver": {"v": len(rows), "arrows": rows},
        "dims": list(dims),
        "smooth": smooth_point(s),
    }


def graph_json_obj(g: DegenerationGraph) -> dict:
    nodes = [setting_json_obj(s) for s in g.nodes]
    return {
        "n": g.n,
        "m": g.m,
        "nodes": nodes,
        "edges": [[nodes[i]["id"], nodes[j]["id"]] for i, j in g.edges],
    }


def character_sum(n: int, counts: dict[int, int]) -> CharacterMultiset:
    """The character sum with the given mask counts, zero counts left out:
    the tests' rewriters and random sums build their counts as dicts."""
    return CharacterMultiset(n, tuple((a, c) for a, c in counts.items() if c))


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


def strongly_connected(a: list[list[int]]) -> bool:
    """Strong connectivity of the int arrow rows a by two searches from
    vertex 0 that test each vertex pair through a call, along the arrows and
    against them."""
    v = len(a)
    if v <= 1:
        return True

    def covers(joined) -> bool:
        seen = {0}
        stack = [0]
        while stack:
            i = stack.pop()
            for j in range(v):
                if j not in seen and joined(i, j):
                    seen.add(j)
                    stack.append(j)
        return len(seen) == v

    return covers(lambda i, j: a[i][j]) and covers(lambda i, j: a[j][i])


def is_oriented_cycle(a: list[list[int]]) -> bool:
    """One directed cycle through all v >= 1 vertices of the int arrow rows
    a, every vertex with exactly one arrow in and one out (a single loop
    counts as the one-vertex cycle), found by walking the permutation."""
    if any(sum(row) != 1 for row in a) or any(sum(col) != 1 for col in zip(*a)):
        return False
    # a permutation matrix: walk from vertex 0 until the walk comes back
    cur, steps = a[0].index(1), 1
    while cur:
        cur, steps = a[cur].index(1), steps + 1
    return steps == len(a)


def is_simple_support(a: list[list[int]], dims) -> bool:
    """quiver._is_simple_support with the cycle walk before the search,
    strongly_connected and the Euler inequalities summed over vertex
    indices."""
    if len(dims) == 1:
        return a[0][0] >= 2 or dims[0] == 1
    if is_oriented_cycle(a):
        return all(x == 1 for x in dims)
    if not strongly_connected(a):
        return False
    for i, x in enumerate(dims):
        into = sum(y * row[i] for y, row in zip(dims, a))
        out = sum(r * y for r, y in zip(a[i], dims))
        if x > into or x > out:
            return False
    return True


def is_smooth_setting_by_parts(q: Quiver, dims) -> bool:
    """quiver.is_smooth_setting as one search per connected component of
    the support, each checking its own edge count, then the vertex rules and
    the edge rule inside it."""
    s = support(q, dims)
    rows = q.arrows.tolist()
    if rows != [list(col) for col in zip(*rows)]:
        raise ValueError("smoothness test needs a symmetric quiver")
    a, sd = s.quiver.arrows.tolist(), s.dims
    v = len(sd)
    if any(a[i][i] and sd[i] >= 2 for i in range(v)):
        raise UnsupportedInputError("smoothness classification does not cover loops at dimension >= 2")
    neighbours = [[j for j, k in enumerate(row) if k and j != i] for i, row in enumerate(a)]

    seen: set[int] = set()
    for start in range(v):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            i = stack.pop()
            for j in neighbours[i]:
                if j not in comp:
                    comp.add(j)
                    stack.append(j)
        seen |= comp
        edges = [(i, j) for i in comp for j in neighbours[i] if i < j]
        if len(edges) != len(comp) - 1:
            return False  # connected with an extra edge: a cycle
        for i in comp:
            deg = len(neighbours[i])
            if deg >= 3 and sd[i] != 1:
                return False
            if deg == 2 and sd[i] >= 2:
                if any(a[i][j] != 1 for j in neighbours[i]):
                    return False
                if sd[i] >= 3 and all(sd[j] != 1 for j in neighbours[i]):
                    return False
        for i, j in edges:
            k = a[i][j]
            if k >= 2:
                lo, hi = sorted((sd[i], sd[j]))
                if lo != 1 or hi < k:
                    return False
    return True


def semisimple_types(alpha: DimVector, top: int | None = None) -> Iterator[tuple[tuple[DimVector, int], ...]]:
    """Every semisimple type of alpha once: the multisets of simple vectors
    b_j with multiplicities e_j summing to alpha, as ((b_j, e_j), ...).  The
    simples, of level at most top, are listed below alpha level by level as
    the pairs (level - q, q) with q <= a_i- and level - q <= a_i+ that
    is_simple_alpha accepts.  Every level-1 vector is a simple character, so
    the top=1 types are the character sums.  The zero vector has one type."""
    simples = []
    for level in range(1, (alpha.m if top is None else min(top, alpha.m)) + 1):
        for minus in itertools.product(*[range(max(0, level - p), min(level, q) + 1) for p, q in alpha.pairs]):
            beta = DimVector(tuple((level - q, q) for q in minus))
            if is_simple_alpha(beta):
                simples.append((level, minus, beta))

    def grow(fitting: list, level: int, rest: tuple[int, ...], drawn: list[DimVector]) -> Iterator[tuple]:
        # rest: the a_i- left to fill at this level; a simple that does not fit it fits nothing below
        if not level:
            yield tuple((b, len(list(run))) for b, run in itertools.groupby(drawn))
            return
        fitting = [c for c in fitting if all(q <= r <= q + level - c[0] for q, r in zip(c[1], rest))]
        for j, (b, minus, beta) in enumerate(fitting):
            yield from grow(fitting[j:], level - b, tuple(r - q for q, r in zip(minus, rest)), drawn + [beta])

    yield from grow(simples, alpha.m, tuple(q for _, q in alpha.pairs), [])


def type_local_quiver(n: int, summands: tuple[tuple[DimVector, int], ...]) -> QuiverSetting:
    """The Le Bruyn-Procesi local quiver at a point of semisimple type
    summands over n pairs, read off chi: dims e_j, and delta_ij - chi(b_i,
    b_j) arrows from i to j, so 1 - chi(b_i, b_i) loops at i."""
    flat = [sum(b.pairs, ()) for b, _ in summands]
    rows = [[(i == j) - chi(n, b, c) for j, c in enumerate(flat)] for i, b in enumerate(flat)]
    return QuiverSetting(Quiver(rows), tuple(e for _, e in summands))
