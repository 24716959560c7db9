"""Local quiver settings for the components (m-1,1)_{i=1..n} with m <= n.

A setting is a pair (partition of {1..n}, k-tuple) with 1 <= k_i <= |A_i|
and sum k_i <= m; it records the decomposition type of a semisimple point,
one simple summand of dimension k_i supported on the block A_i plus the
trivial character with multiplicity m - sum k_i.  Settings are identified
up to permutations of the ground set by their Young label, which is how
degeneration graphs are drawn.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator

from .combinat import (
    SetPartition,
    YoungLabel,
    full_mask,
    min_element,
    multiset_coeff,
    partitions_of_int,
    subset_str,
)
from .quiver import Quiver, QuiverSetting

MAX_ENUM_GROUND = 9


@dataclass(frozen=True)
class LocalSetting:
    """One local quiver setting (A_1..A_l; k_1..k_l) for the level-m
    component over a ground set of size n.  Blocks are bitmasks; the
    constructor sorts them canonically (size desc, k desc, min element asc)."""

    n: int
    m: int
    blocks: tuple[int, ...]
    k: tuple[int, ...]
    _young: YoungLabel = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not 1 <= self.m <= self.n:
            raise ValueError(f"need 1 <= m <= n, got m={self.m}, n={self.n}")
        SetPartition(self.n, self.blocks)  # validates disjoint cover
        if len(self.k) != len(self.blocks):
            raise ValueError("one k value per block is required")
        for b, k in zip(self.blocks, self.k):
            if not 1 <= k <= b.bit_count():
                raise ValueError(f"k={k} out of range [1, {b.bit_count()}] for block {subset_str(b)}")
        if sum(self.k) > self.m:
            raise ValueError(f"sum of k = {sum(self.k)} exceeds the level m = {self.m}")
        order = sorted(
            zip(self.blocks, self.k),
            key=lambda bk: (-bk[0].bit_count(), -bk[1], min_element(bk[0])),
        )
        object.__setattr__(self, "blocks", tuple(b for b, _ in order))
        object.__setattr__(self, "k", tuple(k for _, k in order))
        rows = tuple(Counter(self.sizes).items())  # (size, blocks of that size), sizes descending
        ks = iter(self.k)
        k_rows = tuple(tuple(itertools.islice(ks, count)) for _, count in rows)
        object.__setattr__(self, "_young", YoungLabel(rows, k_rows))

    @property
    def l(self) -> int:
        return len(self.blocks)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(b.bit_count() for b in self.blocks)

    @property
    def k_total(self) -> int:
        return sum(self.k)

    def young(self) -> YoungLabel:
        """The Young label of the setting, built once by the constructor."""
        return self._young

    def id(self) -> str:
        return self.young().label()

    def __str__(self) -> str:
        blocks = "|".join(subset_str(b) for b in self.blocks)
        return f"({blocks}; k={','.join(str(k) for k in self.k)})"


def _representative_blocks(n: int, sizes: tuple[int, ...]) -> tuple[int, ...]:
    # consecutive runs 1..s1, s1+1..s1+s2, ... give the canonical class rep
    blocks = []
    start = 0
    for s in sizes:
        blocks.append(full_mask(start + s) ^ full_mask(start))
        start += s
    return tuple(blocks)


def _check_level(n: int, m: int) -> None:
    if not 1 <= m <= n:
        raise ValueError(
            f"(m-1,1)^n admits simple representations only for 1 <= m <= n; got n={n}, m={m}"
        )
    if n > MAX_ENUM_GROUND:
        raise ValueError(f"setting enumeration is capped at n <= {MAX_ENUM_GROUND}")


def _diagram_settings(n: int, m: int, sizes: tuple[int, ...]) -> Iterator[LocalSetting]:
    """Canonical representatives of the settings on one Young diagram
    (sizes weakly decreasing): one weakly decreasing k-multiset per row
    class, kept when sum k <= m."""
    blocks = _representative_blocks(n, sizes)
    per_class = [
        list(itertools.combinations_with_replacement(range(size, 0, -1), len(list(group))))
        for size, group in itertools.groupby(sizes)
    ]
    for choice in itertools.product(*per_class):
        ks = tuple(k for ks in choice for k in ks)
        if sum(ks) <= m:
            yield LocalSetting(n, m, blocks, ks)


def enumerate_settings(n: int, m: int) -> list[LocalSetting]:
    """Canonical representatives of all settings up to ground-set
    permutation, sorted with the whole-block, maximal-k node first."""
    _check_level(n, m)
    out = [s for sizes in partitions_of_int(n) for s in _diagram_settings(n, m, sizes)]
    out.sort(key=lambda s: s.young().sort_key())
    return out


def count_settings_for_young(rows: tuple[tuple[int, int], ...]) -> int:
    """Settings carried by one Young diagram at full level: the product of
    multiset coefficients ((length multichoose multiplicity))."""
    prev = None
    for lam, mu in rows:
        if lam < 1 or mu < 1 or (prev is not None and lam >= prev):
            raise ValueError(f"not a valid Young diagram description: {rows}")
        prev = lam
    return math.prod(multiset_coeff(lam, mu) for lam, mu in rows)


def local_quiver_rows(s: LocalSetting, reduced: bool = False) -> tuple[list[list[int]], tuple[int, ...]]:
    """The arrow rows and dims of local_quiver(s), in plain ints.  With
    reduced, those of its support: the trivial-character vertex is left out
    when its dimension m - sum(k) is 0."""
    sizes, ks = s.sizes, s.k
    l = s.l
    v0 = s.m - s.k_total
    spokes = [sz - k for sz, k in zip(sizes, ks)]
    with_psi0 = v0 > 0 or (any(spokes) and not reduced)
    rows = [
        [
            (k - 1) * (2 * sz - k - 1) if i == j else sz * kj + szj * k - k * kj
            for j, (szj, kj) in enumerate(zip(sizes, ks))
        ]
        for i, (sz, k) in enumerate(zip(sizes, ks))
    ]
    if not with_psi0:
        return rows, (1,) * l
    for row, spoke in zip(rows, spokes):
        row.append(spoke)
    rows.append(spokes + [0])
    return rows, (1,) * l + (v0,)


def local_quiver(s: LocalSetting) -> QuiverSetting:
    """The quiver at a semisimple point of type s: one dimension-1 vertex
    per block with (k_i-1)(2|A_i|-k_i-1) loops, |A_i|k_j+|A_j|k_i-k_ik_j
    arrows each way between blocks, plus a trivial-character vertex of
    dimension m - sum(k) joined to block i by |A_i|-k_i arrows each way.
    The extra vertex appears only when it has dimension or arrows; it may
    carry dimension 0, in which case support() removes it."""
    rows, dims = local_quiver_rows(s)
    return QuiverSetting(Quiver(rows), dims)


def local_euler_matrix(s: LocalSetting):
    """Euler matrix of the setting, an int64 ndarray: -(k^t v + v^t k +
    k^t k - 2 diag|A_i|) bordered by -v and 1 for the trivial-character
    vertex, the border dropped when v = (|A_i| - k_i) vanishes."""
    import numpy as np

    kvec = np.array(s.k, dtype=np.int64)
    sizes = np.array(s.sizes, dtype=np.int64)
    vvec = sizes - kvec
    core = -(np.outer(kvec, vvec) + np.outer(vvec, kvec) + np.outer(kvec, kvec)) + 2 * np.diag(sizes)
    if not vvec.any():
        return core
    l = s.l
    out = np.zeros((l + 1, l + 1), dtype=np.int64)
    out[:l, :l] = core
    out[:l, l] = -vvec
    out[l, :l] = -vvec
    out[l, l] = 1
    return out


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


def degenerates_class(s: LocalSetting, t: LocalSetting) -> bool:
    """Class-level degeneration: some representative of t's class is a
    degeneration of s (equivalently of any representative of s's class).

    Decided on the two Young labels as a packing problem: can t's
    (size, k) blocks be assigned to s's blocks so that the sizes placed in
    each s-block sum to its size and their k values sum to at most its k?
    Such an assignment is exactly a labelled refinement in t's class
    (split each s-block's elements into the t-blocks placed there), and
    both partitions cover the ground set, so once every t-block is placed
    every s-block is full.  The search places t's blocks largest first into
    s's remaining (room, k budget) bins, tries each distinct bin once per
    step, drops bins once full and remembers failed (step, bins) states.
    The work grows with the number of distinct partial packings, not with
    the Bell(n) set partitions of the ground set: over all 305 462 ordered
    class pairs with n <= 9 a call averages about 11 us on a 2-core x86-64
    VM."""
    if (s.n, s.m) != (t.n, t.m):
        raise ValueError("settings must share the same n and m")
    parts = sorted(zip(t.sizes, t.k), reverse=True)
    failed: set[tuple[int, tuple[tuple[int, int], ...]]] = set()

    def place(i: int, bins: tuple[tuple[int, int], ...]) -> bool:
        if i == len(parts):
            return True
        if (i, bins) in failed:
            return False
        size, k = parts[i]
        for j, (room, budget) in enumerate(bins):
            if room < size or budget < k or (j and bins[j - 1] == (room, budget)):
                continue
            rest = bins[:j] + bins[j + 1 :]
            if room > size:
                rest = tuple(sorted(rest + ((room - size, budget - k),)))
            if place(i + 1, rest):
                return True
        failed.add((i, bins))
        return False

    return place(0, tuple(sorted(zip(s.sizes, s.k))))


def _k_lowerings(s: LocalSetting) -> Iterator[LocalSetting]:
    """The moves that keep the Young diagram: lower one k_i >= 2 by one."""
    for i in range(s.l):
        if s.k[i] >= 2:
            ks = list(s.k)
            ks[i] -= 1
            yield LocalSetting(s.n, s.m, s.blocks, tuple(ks))


def elementary_moves(s: LocalSetting) -> list[LocalSetting]:
    """One-step degenerations, up to ground-set permutation: lower a single
    k_i >= 2 by one, or split one block into two nonempty parts whose k
    values sum to k_i.  Returns canonical representatives of the distinct
    target classes, sorted.

    The moves are made per distinct (size, k) block, from the first block
    carrying it: its k-lowering, and every split into (s_a, k_a) +
    (size - s_a, k - k_a) with s_a <= size - s_a (and k_a <= k - k_a when
    the halves are equal), part A being the block's lowest s_a elements.
    Distinct (size, k) blocks lead to distinct targets, so each target is
    built once and the work follows the output, not the 2^(size-1)
    labelled splits of a block."""
    moves = []
    seen: set[tuple[int, int]] = set()
    for i, (block, k) in enumerate(zip(s.blocks, s.k)):
        size = block.bit_count()
        if (size, k) in seen:
            continue
        seen.add((size, k))
        if k >= 2:
            moves.append(LocalSetting(s.n, s.m, s.blocks, s.k[:i] + (k - 1,) + s.k[i + 1 :]))
        elems = [1 << e for e in range(s.n) if block >> e & 1]
        part_a = 0
        for s_a in range(1, size // 2 + 1):
            part_a |= elems[s_a - 1]
            s_b = size - s_a
            blocks = s.blocks[:i] + (part_a, block ^ part_a) + s.blocks[i + 1 :]
            top = min(s_a, k - 1, k // 2 if s_a == s_b else k)
            for k_a in range(max(1, k - s_b), top + 1):
                moves.append(LocalSetting(s.n, s.m, blocks, s.k[:i] + (k_a, k - k_a) + s.k[i + 1 :]))
    return sorted(moves, key=lambda t: t.young().sort_key())


@dataclass(frozen=True)
class DegenerationGraph:
    """Degeneration order on permutation classes of settings: nodes are
    canonical settings, a directed edge per elementary move (coarser to
    finer).  Acyclic; its reflexive-transitive closure is the full
    degeneration order."""

    n: int
    m: int
    nodes: tuple[LocalSetting, ...]
    edges: tuple[tuple[int, int], ...]


def degeneration_graph(n: int, m: int) -> DegenerationGraph:
    nodes = enumerate_settings(n, m)
    index = {s.young(): i for i, s in enumerate(nodes)}
    edges = []
    for i, s in enumerate(nodes):
        for t in elementary_moves(s):
            edges.append((i, index[t.young()]))
    return DegenerationGraph(n, m, tuple(nodes), tuple(sorted(set(edges))))


def young_diagram_slice(n: int, m: int, sizes: tuple[int, ...]) -> DegenerationGraph:
    """The induced subgraph on the settings of one Young diagram (all
    in-diagram moves are k-lowerings; splits leave the diagram).  Only that
    diagram's settings are built; they keep their order in
    enumerate_settings."""
    _check_level(n, m)
    shape = tuple(sorted(sizes, reverse=True))
    if sum(shape) != n or any(x < 1 for x in shape):
        raise ValueError(f"{sizes} is not a diagram of {n}")
    nodes = sorted(_diagram_settings(n, m, shape), key=lambda s: s.young().sort_key())
    index = {s.young(): i for i, s in enumerate(nodes)}
    edges = {(i, index[t.young()]) for i, s in enumerate(nodes) for t in _k_lowerings(s)}
    return DegenerationGraph(n, m, tuple(nodes), tuple(sorted(edges)))


def smooth_point(s: LocalSetting) -> bool:
    """Whether points of this type are smooth in the moduli space: the
    point lies over a simple (one block, k = m), or n = m with the
    partition a single block, or n = m = 2."""
    if s.l == 1 and (s.k[0] == s.m or s.n == s.m):
        return True
    return s.n == s.m == 2


def setting_json_obj(s: LocalSetting) -> dict:
    """Node object for graph export; the quiver is support-reduced so a
    dimension-0 trivial-character vertex is hidden."""
    rows, dims = local_quiver_rows(s, reduced=True)
    young = s.young()
    return {
        "id": s.id(),
        "young": [[lam, mu] for lam, mu in young.rows],
        "k": list(young.ks()),
        "quiver": {"v": len(rows), "arrows": rows},
        "dims": list(dims),
        "smooth": smooth_point(s),
    }


def graph_json_obj(g: DegenerationGraph) -> dict:
    ids = [s.id() for s in g.nodes]
    return {
        "n": g.n,
        "m": g.m,
        "nodes": [setting_json_obj(s) for s in g.nodes],
        "edges": [[ids[i], ids[j]] for i, j in g.edges],
    }
