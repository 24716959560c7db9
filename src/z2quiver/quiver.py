"""Quivers as integer arrow-count matrices, Euler forms, and the two
classification tests used everywhere downstream: existence of simple
representations for a dimension vector, and smoothness of a symmetric
quiver setting.

A quiver on v vertices is just a v x v matrix of nonnegative integers,
arrows[i][j] counting arrows i -> j with loops on the diagonal.  All
operations are pure; Quiver instances freeze their matrix.
"""

from __future__ import annotations

__all__ = (
    "Quiver", "QuiverSetting", "UnsupportedInputError", "euler_form", "is_simple_dimvector", "is_smooth_setting",
    "support",
)

import operator

from .combinat import Frozen, check_ints


class UnsupportedInputError(ValueError):
    """Input is outside the range a classification result covers."""


class Quiver(Frozen):
    """A v x v matrix of arrow counts; equality, the hash and the repr read it."""

    __slots__ = _fields = ("arrows",)

    def __init__(self, arrows) -> None:
        """Freeze a copy of arrows as an int64 matrix.  Bools and numpy
        integers pass; a float or a string is refused, not rounded or parsed."""
        import numpy as np

        try:
            a = np.asarray(arrows)
        except ValueError:  # numpy refuses rows of different lengths
            raise ValueError("arrow matrix must be square, got rows of different lengths") from None
        if a.shape == (0,):  # [] is the empty quiver; other empty shapes are refused below
            a = a.reshape(0, 0)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"arrow matrix must be square, got shape {a.shape}")
        if a.size and (a.dtype.kind not in "biu" or a.dtype == np.uint64 and a.max() >> 63):
            # numpy keeps Python ints past the int64 range as uint64, objects or floats
            try:
                [operator.index(x) for x in np.array(arrows, dtype=object).flat]
            except TypeError:
                raise ValueError(f"arrow counts must be integers, got dtype {a.dtype}") from None
            raise ValueError("arrow counts must fit in a signed 64-bit integer")
        if a.dtype.kind == "i" and a.size and a.min() < 0:
            raise ValueError("arrow counts must be nonnegative")
        self._set(_int_matrix(a))

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


def _int_matrix(rows):
    """A fresh read-only int64 ndarray copy of square int rows, or of a square
    ndarray, that the library has checked (no rows give the 0 x 0 matrix)."""
    import numpy as np

    a = np.array(rows, dtype=np.int64) if len(rows) else np.zeros((0, 0), dtype=np.int64)
    a.setflags(write=False)
    return a


def _join_blocks(size: int, row_blocks):
    """The read-only size x size int64 ndarray whose row blocks, top to bottom, are the lists of
    blocks in row_blocks joined left to right, each written in place: no other such array is made."""
    import numpy as np

    grid, top = np.empty((size, size), dtype=np.int64), 0
    for blocks in row_blocks:
        np.concatenate(blocks, axis=1, out=grid[top : top + len(blocks[0])])
        top += len(blocks[0])
    grid.setflags(write=False)
    return grid


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


def _quiver_setting(rows, dims: tuple[int, ...]) -> QuiverSetting:
    """The QuiverSetting of square rows of nonnegative ints and one dimension
    per row, both checked by the caller, stored without a second check."""
    return object.__new__(QuiverSetting)._set(object.__new__(Quiver)._set(_int_matrix(rows)), dims)


def support(q: Quiver, dims) -> QuiverSetting:
    """Full subquiver on the vertices with nonzero dimension."""
    return _quiver_setting(*_support_rows(q.arrows.tolist(), _check_dims(q, dims)))


def _reach(rows, start: int, seen: list[bool]) -> None:
    """Mark in seen every vertex that a search from start along the nonzero entries of rows reaches."""
    seen[start], stack = True, [start]
    while stack:
        for j, k in enumerate(rows[stack.pop()]):
            if k and not seen[j]:
                seen[j] = True
                stack.append(j)


def _reaches_all(rows) -> bool:
    """Whether a search from vertex 0 along the nonzero entries of rows reaches every vertex."""
    seen = [False] * len(rows)
    _reach(rows, 0, seen)
    return all(seen)


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

    Two steps of the test are skipped where they cannot fail: the
    inequalities hold by themselves at a vertex of the least support
    dimension, once the support is strongly connected, and a symmetric
    support needs only the search along its arrows.
    """
    d = _check_dims(q, dims)
    if not any(d):
        raise ValueError("the zero dimension vector is not allowed")
    return _is_simple_support(*_support_rows(q.arrows.tolist(), d))


def _is_simple_support(a: list[list[int]], dims) -> bool:
    """is_simple_dimvector on the int arrow rows a of a support and its
    positive dims.

    A symmetric support needs one search: reversing its arrows gives the
    same arrows, so the search against them reaches what the one along
    them does.
    A vertex of the least dimension needs no Euler sums: in a strongly
    connected support of >= 2 vertices it has an arrow in from another
    vertex and one out to another, each weighing at least min(dims)."""
    if len(dims) == 1:
        return a[0][0] >= 2 or dims[0] == 1
    cols = list(map(list, zip(*a)))
    if not (_reaches_all(a) and (cols == a or _reaches_all(cols))):  # strongly connected
        return False
    # every vertex has an arrow out and one in, so v arrows in all make exactly one each: an oriented cycle
    if sum(map(sum, a)) == len(a):
        return all(x == 1 for x in dims)
    # the Euler inequalities above the least dimension: dims_i <= the dims-weighted arrows into i, and out of i
    low = min(dims)
    for x, row, col in zip(dims, a, cols):
        if x > low and (x > sum(map(operator.mul, dims, col)) or x > sum(map(operator.mul, row, dims))):
            return False
    return True


def is_smooth_setting(q: Quiver, dims) -> bool:
    """Whether the moduli of semisimples of a symmetric setting is smooth.

    Restricts to the support, which must be a forest, and checks the local
    building-block rules per vertex and per edge: every branching vertex
    (degree >= 3) has dimension 1, a degree-2 vertex of dimension 2 needs both
    incident edges simple, a degree-2 vertex of dimension >= 3 additionally needs
    a dimension-1 neighbour on some side, and an edge of multiplicity k >= 2 needs
    one endpoint of dimension 1 and the other of dimension >= k.  A loop at a
    dimension-1 vertex is a GL_1-invariant coordinate, so the quotient is A^1
    times the one without it, smooth just when that one is (Bocklandt, J. Algebra
    2002): such loops are ignored.  Loops at dimension >= 2 are refused.
    """
    d = _check_dims(q, dims)
    rows = q.arrows.tolist()
    if rows != [list(col) for col in zip(*rows)]:
        raise ValueError("smoothness test needs a symmetric quiver")
    if any(row[i] and x >= 2 for i, (row, x) in enumerate(zip(rows, d))):
        raise UnsupportedInputError("smoothness classification does not cover loops at dimension >= 2")
    a, sd = _support_rows(rows, d) if 0 in d else (rows, d)
    v = len(sd)
    neighbours = [[j for j, k in enumerate(row) if k and j != i] for i, row in enumerate(a)]
    for x, row, near in zip(sd, a, neighbours):
        if len(near) >= 3 and x != 1:
            return False
        if len(near) == 2 and x >= 2:
            if any(row[j] != 1 for j in near) or x >= 3 and all(sd[j] != 1 for j in near):
                return False
    for i, (row, near) in enumerate(zip(a, neighbours)):
        for j in near:
            if j > i and row[j] >= 2:
                lo, hi = sorted((sd[i], sd[j]))
                if lo != 1 or hi < row[j]:
                    return False
    # a forest: its edges number its vertices less its connected components
    seen, parts = [False] * v, 0
    for i in range(v):
        if not seen[i]:
            _reach(a, i, seen)
            parts += 1
    return sum(map(len, neighbours)) == 2 * (v - parts)
