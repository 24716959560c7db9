"""Local quiver settings for the components (m-1,1)_{i=1..n} with m <= n.

A setting is a pair (partition of {1..n}, k-tuple) with 1 <= k_i <= |A_i|
and sum k_i <= m; it records the decomposition type of a semisimple point,
one simple summand of dimension k_i supported on the block A_i plus the
trivial character with multiplicity m - sum k_i.  Settings are identified
up to permutations of the ground set by their label, the descending tuple
of (size, k) block pairs, which is how degeneration graphs are drawn.  The
enumeration, the graphs and the moves work on labels, and build a
LocalSetting only for what they return, storing it unchecked with _set:
only LocalSetting(...) checks its input.
"""

from __future__ import annotations

__all__ = (
    "DegenerationGraph", "LocalSetting", "count_settings_for_young", "degenerates_class", "degeneration_graph",
    "elementary_moves", "enumerate_settings", "local_euler_matrix", "local_quiver", "smooth_point",
    "young_diagram_slice",
)

import itertools
import operator
from typing import TYPE_CHECKING, Iterator

# quiver is reached as z2quiver.quiver, which the package imports on first use:
# graph and local never load it, or numpy.
import z2quiver

from .combinat import (
    Frozen,
    capped_count,
    check_ground,
    check_ints,
    check_subset,
    full_mask,
    int_text,
    multiset_coeff,
    partitions_of_int,
    subset_str,
)

if TYPE_CHECKING:
    from .quiver import QuiverSetting

# A setting's class label: its (size, k) block pairs in descending order.
Label = tuple[tuple[int, int], ...]

class LocalSetting(Frozen):
    """One local quiver setting (A_1..A_l; k_1..k_l) for the level-m
    component over a ground set of size n.  Blocks are bitmasks; the
    constructor sorts them canonically (size desc, k desc, min element asc)
    and keeps their sizes, which take no part in equality, hash or repr."""

    _fields = ("n", "m", "blocks", "k")
    __slots__ = (*_fields, "sizes")

    def __init__(self, n: int, m: int, blocks: tuple[int, ...], k: tuple[int, ...]) -> None:
        n = check_ground(n)
        try:
            m, *ks = check_ints((m, *k), "m and the k values")
            blocks = [check_subset(b, n) for b in blocks]
        except TypeError:  # k or blocks is not iterable
            raise ValueError(f"blocks and k must be sequences, got {int_text(blocks)} and {int_text(k)}") from None
        if not 1 <= m <= n:
            raise ValueError(f"need 1 <= m <= n, got m={int_text(m)}, n={n}")
        union = 0
        for b in blocks:  # a disjoint cover of {1..n} by nonempty subset masks
            if b == 0:
                raise ValueError("blocks must be nonempty")
            if b & union:
                raise ValueError("blocks must be pairwise disjoint")
            union |= b
        if union != full_mask(n):
            raise ValueError("blocks must cover the ground set")
        if len(ks) != len(blocks):
            raise ValueError("one k value per block is required")
        for b, k in zip(blocks, ks):
            if not 1 <= k <= b.bit_count():
                raise ValueError(f"k={int_text(k)} out of range [1, {b.bit_count()}] for block {subset_str(b)}")
        if sum(ks) > m:
            raise ValueError(f"sum of k = {sum(ks)} exceeds the level m = {m}")
        # the lowest bit orders blocks as their smallest element does; no two
        # blocks share it, so the blocks themselves are never compared
        order = sorted(((b.bit_count(), k, -(b & -b), b) for b, k in zip(blocks, ks)), reverse=True)
        sizes, ks, _, blocks = zip(*order)
        self._set(n, m, blocks, ks, sizes)

    @property
    def l(self) -> int:
        return len(self.blocks)

    @property
    def k_total(self) -> int:
        return sum(self.k)

    def young(self) -> Label:
        """The label of the setting's permutation class."""
        return tuple(zip(self.sizes, self.k))

    def id(self) -> str:
        return f"({','.join(map(str, self.sizes))}),({','.join(map(str, self.k))})"

    def __str__(self) -> str:
        blocks = "|".join(subset_str(b) for b in self.blocks)
        return f"({blocks}; k={','.join(str(k) for k in self.k)})"


def _check_level(n: int, m: int) -> tuple[int, int]:
    """n and m as ints, once checked."""
    n, m = check_ints((check_ground(n), m), "n and m")
    if not 1 <= m <= n:
        raise ValueError(
            f"(m-1,1)^n admits simple representations only for 1 <= m <= n; got n={n}, m={int_text(m)}"
        )
    return n, m


def _run_blocks(sizes: tuple[int, ...]) -> tuple[int, ...]:
    """Runs 1..s1, s1+1..s1+s2, ... as blocks, in canonical order for descending sizes."""
    return tuple(full_mask(size) << start for size, start in zip(sizes, itertools.accumulate(sizes, initial=0)))


def _setting(n: int, m: int, label: Label) -> LocalSetting:
    """The canonical representative of a label: its blocks are runs."""
    sizes, ks = zip(*label)
    return object.__new__(LocalSetting)._set(n, m, _run_blocks(sizes), ks, sizes)


def _diagram_ks(m: int, sizes: tuple[int, ...]) -> list[tuple[int, tuple[int, ...]]]:
    """(sum k, k-tuple) for the settings on one Young diagram (sizes weakly
    decreasing): one weakly decreasing k-multiset per row class, each k
    within its row.  The tuples grow one row class at a time, and only while
    sum k leaves k = 1 for each later row, so every partial tuple ends in a
    setting: the work follows the output, not the product of the classes."""
    partial = [(0, ())]
    rest = len(sizes)
    for size, group in itertools.groupby(sizes):
        r = len(list(group))
        rest -= r
        cap = m - rest  # the most sum k may be after this class
        multisets = itertools.combinations_with_replacement(range(min(size, cap - r + 1), 0, -1), r)
        options = [(sum(c), c) for c in multisets]
        partial = [(total + x, ks + c) for total, ks in partial for x, c in options if total + x <= cap]
    return partial


def _labels(n: int, m: int) -> list[Label]:
    """The labels of all settings of a checked level, in node order: sorted
    in reverse by (sum k, -number of blocks, sizes, k), so total k
    descending, then fewer blocks, coarser diagrams and larger k first.
    Distinct labels have distinct keys."""
    keys = [(total, -len(sizes), sizes, ks) for sizes in partitions_of_int(n) for total, ks in _diagram_ks(m, sizes)]
    keys.sort(reverse=True)
    return [tuple(zip(sizes, ks)) for _, _, sizes, ks in keys]


def enumerate_settings(n: int, m: int) -> list[LocalSetting]:
    """Canonical representatives of all settings up to ground-set
    permutation, sorted with the whole-block, maximal-k node first."""
    n, m = _check_level(n, m)
    return [_setting(n, m, label) for label in _labels(n, m)]


def count_settings_for_young(rows: tuple[tuple[int, int], ...]) -> int:
    """Settings carried by one Young diagram at full level: the product of
    multiset coefficients ((length multichoose multiplicity)), refused past MAX_COUNT_DIGITS digits."""
    try:
        checked = [check_ints(row, "Young diagram rows") for row in rows]
    except TypeError:  # rows is not iterable: refused below as one empty row
        checked = [()]
    prev = None
    count = 1
    for row in checked:
        if len(row) != 2 or min(row) < 1 or (prev is not None and row[0] >= prev):
            raise ValueError(f"not a valid Young diagram description: {int_text(rows)}")
        prev, mu = row
        count = capped_count(0, lambda: count * multiset_coeff(prev, mu), "the settings count")
    return count


def local_quiver_rows(s: LocalSetting) -> tuple[list[list[int]], tuple[int, ...]]:
    """The arrow rows and dims of local_quiver(s), in plain ints."""
    sizes, ks = s.sizes, s.k
    l = len(ks)
    v0 = s.m - sum(ks)
    spokes = [sz - k for sz, k in zip(sizes, ks)]
    pairs = list(zip(sizes, ks))
    # off the diagonal, |A_i|k_j + |A_j|k_i - k_ik_j = (|A_i| - k_i)k_j + |A_j|k_i
    rows = [[spoke * kj + szj * k for szj, kj in pairs] for spoke, k in zip(spokes, ks)]
    for i, (sz, k) in enumerate(pairs):
        rows[i][i] = (k - 1) * (2 * sz - k - 1)
    if not v0:  # with v0 > 0, sum k < m <= n leaves some spoke > 0
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
    Each vertex is a simple summand that occurs, so the trivial character
    has a vertex just when m > sum(k), and the quiver is its own support."""
    # a setting's rows are square and nonnegative, as Quiver checks
    return z2quiver.quiver._quiver_setting(*local_quiver_rows(s))


def local_euler_matrix(s: LocalSetting):
    """Euler matrix of local_quiver(s), a read-only int64 ndarray: identity minus its arrows."""
    rows, _ = local_quiver_rows(s)
    for i, row in enumerate(rows):  # the rows are fresh: negate them in place
        row[:] = [-a for a in row]
        row[i] += 1
    return z2quiver.quiver._int_matrix(rows)


def degenerates_class(s: LocalSetting, t: LocalSetting) -> bool:
    """Class-level degeneration: some representative of t's class is a
    degeneration of s (equivalently of any representative of s's class).

    Decided on the two labels as a packing problem: can t's (size, k)
    blocks be assigned to s's blocks so that the sizes placed in each
    s-block sum to its size and their k values sum to at most its k?
    Such an assignment is exactly a labelled refinement in t's class
    (split each s-block's elements into the t-blocks placed there).  It
    needs sum k of t <= that of s, as each s-block's k bounds the k placed
    in it; at least as many t-blocks as s-blocks, as both partitions cover
    the ground set, so every s-block holds one; and t's largest block no
    larger than s's, as it must fit in one s-block.  These refuse 76% of
    the ordered class pairs with n <= 10 in O(l) time; _packs decides the
    rest."""
    if (s.n, s.m) != (t.n, t.m):
        raise ValueError("settings must share the same n and m")
    if sum(t.k) > sum(s.k) or len(t.k) < len(s.k) or t.sizes[0] > s.sizes[0]:
        return False
    return _packs(s, t)


def _packs(s: LocalSetting, t: LocalSetting) -> bool:
    """The packing search of degenerates_class: t's blocks go largest first
    into s's remaining (room, k budget) bins, each distinct bin tried once
    per step; full bins are dropped, as a full packing fills every s-block,
    and failed (step, bins) states are remembered.  The work grows with the
    distinct partial packings, not with the Bell(n) set partitions."""
    parts = t.young()  # descending, so largest first
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

    return place(0, tuple(zip(s.sizes[::-1], s.k[::-1])))


def _moves(label: Label) -> Iterator[tuple[int, Label]]:
    """The one-step degenerations of a setting with the given label, one per
    target class, as (i, parts): the pair i, the first that carries its
    (size, k), gives way to the pairs parts.  Each distinct (size, k) makes
    its k-lowering (size, k - 1) when k >= 2 and every
    (s_a, k_a) + (size - s_a, k - k_a) with s_a <= size - s_a (and
    k_a <= k - k_a when the halves are equal) and each k within its part.
    Distinct (size, k) pairs lead to distinct targets, so the work follows
    the output, not the 2^(size-1) labelled splits of a block."""
    for i, (size, k) in enumerate(label):
        if i and label[i - 1] == (size, k):
            continue
        if k >= 2:
            yield i, ((size, k - 1),)
        for s_a in range(1, size // 2 + 1):
            s_b = size - s_a
            top = min(s_a, k - 1, k // 2 if s_a == s_b else k)
            for k_a in range(max(1, k - s_b), top + 1):
                yield i, ((s_a, k_a), (s_b, k - k_a))


def elementary_moves(s: LocalSetting) -> list[LocalSetting]:
    """One-step degenerations, up to ground-set permutation: lower a single
    k_i >= 2 by one, or split one block into two nonempty parts whose k
    values sum to k_i.  Returns a representative of each distinct target
    class, sorted, labelled relative to s: the moves of _moves applied to
    the first block carrying each (size, k), a split's part A being the
    block's lowest s_a elements."""
    # s's blocks as LocalSetting sorts them: (size, k, -lowest bit, block)
    order = [(size, k, -(b & -b), b) for size, k, b in zip(s.sizes, s.k, s.blocks)]
    moves = []
    for i, parts in _moves(s.young()):
        size, k, low, block = order[i]
        if len(parts) == 1:
            new = [(size, k - 1, low, block)]
        else:
            (s_a, k_a), (s_b, k_b) = parts
            part_b = block
            for _ in range(s_a):  # part A: the lowest s_a elements
                part_b &= part_b - 1
            new = [(s_a, k_a, low, block ^ part_b), (s_b, k_b, -(part_b & -part_b), part_b)]
        sizes, ks, _, blocks = zip(*sorted(order[:i] + new + order[i + 1 :], reverse=True))
        # the target's key in the node order of _labels; distinct targets have distinct keys
        key = (sum(ks), -len(ks), sizes, ks)
        moves.append((key, object.__new__(LocalSetting)._set(s.n, s.m, blocks, ks, sizes)))
    moves.sort(key=operator.itemgetter(0), reverse=True)
    return [t for _, t in moves]


class DegenerationGraph(Frozen):
    """Degeneration order on permutation classes of settings: nodes are
    canonical settings, a directed edge per elementary move (coarser to
    finer).  Acyclic; its reflexive-transitive closure is the full
    degeneration order.  The constructor refuses nodes that are not
    settings of (n, m) and edges that are not pairs of node indices."""

    __slots__ = _fields = ("n", "m", "nodes", "edges")

    def __init__(self, n: int, m: int, nodes: tuple[LocalSetting, ...], edges: tuple[tuple[int, int], ...]) -> None:
        n, m = _check_level(n, m)
        try:
            nodes, edges = tuple(nodes), tuple(edges)
        except TypeError:  # nodes or edges is not iterable
            raise ValueError(f"nodes and edges must be sequences, got {int_text(nodes)}, {int_text(edges)}") from None
        if not all(isinstance(s, LocalSetting) and (s.n, s.m) == (n, m) for s in nodes):
            raise ValueError(f"nodes must be settings with n={n}, m={m}")
        edges = tuple(check_ints(e, "edge ends") for e in edges)
        if not all(len(e) == 2 and 0 <= min(e) and max(e) < len(nodes) for e in edges):
            raise ValueError(f"edges must be pairs of node indices in [0, {len(nodes)})")
        self._set(n, m, nodes, edges)


def degeneration_graph(n: int, m: int) -> DegenerationGraph:
    """Nodes and edges come from the labels alone: a setting is built only
    for each node, and each move's target is found by its label, re-sorted."""
    n, m = _check_level(n, m)
    labels = _labels(n, m)
    index = {label: i for i, label in enumerate(labels)}
    edges = [
        (i, index[tuple(sorted(label[:j] + parts + label[j + 1 :], reverse=True))])
        for i, label in enumerate(labels)
        for j, parts in _moves(label)
    ]
    nodes = tuple(_setting(n, m, label) for label in labels)
    return object.__new__(DegenerationGraph)._set(n, m, nodes, tuple(sorted(edges)))


def young_diagram_slice(n: int, m: int, sizes: tuple[int, ...]) -> DegenerationGraph:
    """The induced subgraph on the settings of one Young diagram (all
    in-diagram moves are k-lowerings; splits leave the diagram), built from
    their k-tuples on the diagram's one set of blocks, in their order in
    enumerate_settings: (sum k, k) descending.  Lowering the last k of a run
    of equal (size, k) keeps the k-tuple sorted, so it finds the target."""
    n, m = _check_level(n, m)
    shape = tuple(sorted(check_ints(sizes, "diagram sizes"), reverse=True))
    if sum(shape) != n or any(x < 1 for x in shape):
        raise ValueError(f"{int_text(sizes)} is not a diagram of {n}")
    ktuples = [ks for _, ks in sorted(_diagram_ks(m, shape), reverse=True)]
    index = {ks: i for i, ks in enumerate(ktuples)}
    edges = [
        (i, index[ks[:j] + (ks[j] - 1,) + ks[j + 1 :]])
        for i, ks in enumerate(ktuples)
        for j in range(len(ks))
        if ks[j] >= 2 and (j + 1 == len(ks) or (shape[j + 1], ks[j + 1]) != (shape[j], ks[j]))
    ]
    blocks = _run_blocks(shape)
    nodes = tuple(object.__new__(LocalSetting)._set(n, m, blocks, ks, shape) for ks in ktuples)
    return object.__new__(DegenerationGraph)._set(n, m, nodes, tuple(sorted(edges)))


def smooth_point(s: LocalSetting) -> bool:
    """Whether points of this type are smooth in the moduli space: the
    point lies over a simple (one block, k = m), or n = m with the
    partition a single block, or n = m = 2."""
    if s.l == 1 and (s.k[0] == s.m or s.n == s.m):
        return True
    return s.n == s.m == 2
