"""Quivers as integer arrow-count matrices, Euler forms, and the two
classification tests used everywhere downstream: existence of simple
representations for a dimension vector, and smoothness of a symmetric
quiver setting.

A quiver on v vertices is just a v x v matrix of nonnegative integers,
arrows[i][j] counting arrows i -> j with loops on the diagonal.  All
operations are pure; Quiver instances freeze their matrix.
"""

from __future__ import annotations

import operator

from .combinat import Frozen, check_ints


class UnsupportedInputError(ValueError):
    """Input is outside the range a classification result covers."""


class Quiver:
    def __init__(self, arrows) -> None:
        """Freeze a copy of arrows as an int64 matrix.  Bools and numpy
        integers pass; a float or a string is refused, not rounded or parsed."""
        import numpy as np

        a = np.asarray(arrows)
        if a.size == 0:
            a = a.reshape(0, 0)
        elif a.dtype.kind not in "biu" or a.dtype == np.uint64 and a.max() >> 63:
            # numpy keeps Python ints past the int64 range as uint64, objects or floats
            try:
                [operator.index(x) for x in np.array(arrows, dtype=object).flat]
            except TypeError:
                raise ValueError(f"arrow counts must be integers, got dtype {a.dtype}") from None
            raise ValueError("arrow counts must fit in a signed 64-bit integer")
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"arrow matrix must be square, got shape {a.shape}")
        if a.dtype.kind == "i" and a.size and a.min() < 0:
            raise ValueError("arrow counts must be nonnegative")
        _store_arrows(self, a.astype(np.int64))

    @property
    def v(self) -> int:
        return self.arrows.shape[0]

    def euler_matrix(self):
        """Matrix of the Euler form, an int64 ndarray: identity minus the
        arrow matrix."""
        e = -self.arrows
        e[range(self.v), range(self.v)] += 1
        return e

    def to_json_obj(self) -> dict:
        return {"v": self.v, "arrows": self.arrows.tolist()}

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Quiver)
            and self.arrows.shape == other.arrows.shape
            and bool((self.arrows == other.arrows).all())
        )

    def __hash__(self) -> int:
        return hash((self.v, self.arrows.tobytes()))

    def __repr__(self) -> str:
        return f"Quiver({self.arrows.tolist()})"


def _store_arrows(q: Quiver, arrows) -> Quiver:
    """Set q's matrix, unchecked and uncopied, made read-only: a square, nonnegative int64 ndarray no one else holds."""
    arrows.flags.writeable = False
    q.arrows = arrows
    return q


class QuiverSetting(Frozen):
    """A quiver together with one dimension per vertex."""

    __slots__ = _fields = ("quiver", "dims")

    def __init__(self, quiver: Quiver, dims: tuple[int, ...]) -> None:
        self._set(quiver, _check_dims(quiver, dims))


def _check_dims(q: Quiver, dims) -> tuple[int, ...]:
    """dims as a tuple of ints, one nonnegative integer per vertex of q."""
    d = check_ints(dims, "vertex dimensions")
    if len(d) != q.v:
        raise ValueError(f"expected {q.v} vertex dimensions, got {len(d)}")
    if d and min(d) < 0:
        raise ValueError("vertex dimensions must be nonnegative integers")
    return d


def euler_form(q: Quiver, alpha, beta) -> int:
    """Bilinear Euler form alpha^T (I - arrows) beta, in exact integers."""
    a = _check_dims(q, alpha)
    b = _check_dims(q, beta)
    rows = q.arrows.tolist()
    return sum(x * y for x, y in zip(a, b)) - sum(
        x * sum(r * y for r, y in zip(row, b)) for x, row in zip(a, rows)
    )


def _support_rows(rows: list[list[int]], d: tuple[int, ...]) -> tuple[list[list[int]], tuple[int, ...]]:
    """The int arrow rows and the dims of the full subquiver on the vertices
    with nonzero dimension in d."""
    keep = [i for i, x in enumerate(d) if x]
    return [[rows[i][j] for j in keep] for i in keep], tuple(d[i] for i in keep)


def support(q: Quiver, dims) -> QuiverSetting:
    """Full subquiver on the vertices with nonzero dimension."""
    rows, d = _support_rows(q.arrows.tolist(), _check_dims(q, dims))
    return QuiverSetting(Quiver(rows), d)


def is_strongly_connected(q: Quiver) -> bool:
    """Every ordered vertex pair joined by a directed path; one vertex: True."""
    a = q.arrows.tolist()
    return len(a) <= 1 or _reaches_all(a) and _reaches_all(list(zip(*a)))


def _reaches_all(rows) -> bool:
    """Whether a search from vertex 0 along the nonzero entries of rows reaches every vertex."""
    seen, stack = [True] + [False] * (len(rows) - 1), [0]
    while stack:
        for j, k in enumerate(rows[stack.pop()]):
            if k and not seen[j]:
                seen[j] = True
                stack.append(j)
    return all(seen)


def _is_oriented_cycle(a: list[list[int]]) -> bool:
    """One directed cycle through all v >= 1 vertices, every vertex with
    exactly one arrow in and one out (a single loop counts as the
    one-vertex cycle)."""
    if any(sum(row) != 1 for row in a) or any(sum(col) != 1 for col in zip(*a)):
        return False
    # a permutation matrix: walk from vertex 0 until the walk comes back
    cur, steps = a[0].index(1), 1
    while cur:
        cur, steps = a[cur].index(1), steps + 1
    return steps == len(a)


def is_simple_dimvector(q: Quiver, dims) -> bool:
    """Whether the dimension vector admits a simple representation.

    After restriction to the support: a loop-free single vertex is simple
    exactly in dimension 1 (the vertex simple; the Euler inequality below
    would wrongly reject it); a single vertex with one loop likewise only
    in dimension 1, being the one-vertex oriented cycle; an oriented cycle
    needs all dimensions 1; otherwise the support must be strongly
    connected with euler_form(dims, e_i) <= 0 and euler_form(e_i, dims) <= 0
    at every support vertex.  The arithmetic is in exact integers, so any
    dimensions are decided correctly.
    """
    d = _check_dims(q, dims)
    if not any(d):
        raise ValueError("the zero dimension vector is not allowed")
    return _is_simple_support(*_support_rows(q.arrows.tolist(), d))


def _is_simple_support(a: list[list[int]], dims) -> bool:
    """is_simple_dimvector on the int arrow rows a of a support and its
    positive dims."""
    if len(dims) == 1:
        return a[0][0] >= 2 or dims[0] == 1
    if _is_oriented_cycle(a):
        return all(x == 1 for x in dims)
    cols = list(zip(*a))
    if not (_reaches_all(a) and _reaches_all(cols)):  # strongly connected
        return False
    # the Euler inequalities: dims_i <= the dims-weighted arrows into i, and out of i
    for x, row, col in zip(dims, a, cols):
        if x > sum(map(operator.mul, dims, col)) or x > sum(map(operator.mul, row, dims)):
            return False
    return True


def is_smooth_setting(q: Quiver, dims) -> bool:
    """Whether the moduli of semisimples of a symmetric setting is smooth.

    Restricts to the support and checks each connected component against
    the local building-block rules: the component must be tree-like, every
    branching vertex (degree >= 3) has dimension 1, an edge of multiplicity
    k >= 2 needs one endpoint of dimension 1 and the other of dimension
    >= k, a degree-2 vertex of dimension 2 needs both incident edges
    simple, and a degree-2 vertex of dimension >= 3 additionally needs a
    dimension-1 neighbour on some side.  Loops are outside the scope of
    the underlying classification and are rejected.
    """
    d = _check_dims(q, dims)
    rows = q.arrows.tolist()
    if rows != [list(col) for col in zip(*rows)]:
        raise ValueError("smoothness test needs a symmetric quiver")
    a, sd = _support_rows(rows, d)
    v = len(sd)
    if any(a[i][i] for i in range(v)):
        raise UnsupportedInputError("smoothness classification does not cover loops")
    neighbours = [[j for j, k in enumerate(row) if k] for row in a]

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
