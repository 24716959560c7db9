"""Everything specific to the free product of n copies of the order-2 group.

Level-m representations split into (m+1)**n components indexed by dimension
vectors (a_i+, a_i-) with constant pair sum m, acted on by the signed
permutations of the pairs.  The 2**n one-dimensional characters span a
quiver of their own (the "one quiver") whose Euler matrix has the closed
form 1 - |A delta B|; simplicity, moduli dimensions, and the census of
level-2 components are all decided through it.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING

from .combinat import (
    DimVector,
    Frozen,
    check_ground,
    check_ints,
    check_subset,
    parse_subset,
    subset_str,
)

if TYPE_CHECKING:
    from .quiver import Quiver

# Most pairs, orbit count times n, that orbit_representatives lists.
MAX_ORBIT_PAIRS = 10**6
# Most decimal digits of a component count: CPython's default limit on
# int-to-str conversion, so every count that prints keeps printing.
MAX_COUNT_DIGITS = 4300
# Largest n whose 2**n x 2**n character-quiver matrices are built.
MAX_ONE_QUIVER_GROUND = 12


def build_Qn(n: int) -> Quiver:
    """The 2n-vertex quiver with one arrow from each of the two level-1
    vertices (1+, 1-) to every vertex i+/- with i >= 2; 4(n-1) arrows."""
    check_ground(n)
    if n < 2:
        raise ValueError(f"need n >= 2 vertex pairs, got {n}")
    import numpy as np

    from .quiver import Quiver

    arrows = np.zeros((2 * n, 2 * n), dtype=np.int64)
    arrows[0, 2:] = 1
    arrows[1, 2:] = 1
    return Quiver(arrows)


def component_count(n: int, m: int) -> int:
    """(m+1)**n.  Refuses with ValueError a count of more than
    MAX_COUNT_DIGITS decimal digits.  Since (m+1)**n >= 2**(n*(b-1)) for
    b = (m+1).bit_length(), an exponent n*(b-1) above 4 * MAX_COUNT_DIGITS
    is refused before any power is computed; below it the count has at most
    about 2.4 * MAX_COUNT_DIGITS digits and is compared exactly."""
    n, m = check_ints((n, m), "n and m")
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 and m >= 0")
    too_many = f"the component count (m+1)**n of n={n}, m={m} has more than {MAX_COUNT_DIGITS} digits"
    if n * ((m + 1).bit_length() - 1) > 4 * MAX_COUNT_DIGITS:
        raise ValueError(too_many)
    count = (m + 1) ** n
    if count >= 10**MAX_COUNT_DIGITS:
        raise ValueError(too_many)
    return count


def orbit_count(n: int, m: int) -> int:
    """Components up to signed pair permutations: C(floor(m/2)+n, n)."""
    n, m = check_ints((n, m), "n and m")
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 and m >= 0")
    return math.comb(m // 2 + n, n)


def orbit_representatives(n: int, m: int) -> list[DimVector]:
    """Canonical representatives of the component orbits, sorted.

    The canonical form m >= a_1+ >= ... >= a_n+ >= m/2 of bn_canonicalize
    is one multiset of n values a_i+ drawn from ceil(m/2)..m, so the
    representatives are listed from those multisets, one per orbit.

    Refuses with ValueError, before building any list, an answer of more
    than MAX_ORBIT_PAIRS pairs, orbit_count(n, m) * n in all.  That count,
    C(small + big, small) with {small, big} = {n, m // 2}, is built up one
    factor at a time and stops once past the limit, so a huge n or m costs
    no more than a small one."""
    n, m = check_ints((n, m), "n and m")
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 and m >= 0")
    small, big = sorted((n, m // 2))
    count = 1
    for i in range(1, small + 1):
        if count * n > MAX_ORBIT_PAIRS:
            break
        count = count * (big + i) // i
    if count * n > MAX_ORBIT_PAIRS:
        raise ValueError(f"more than {MAX_ORBIT_PAIRS} pairs in the orbit representatives of n={n}, m={m}")
    return sorted(
        DimVector(tuple((p, m - p) for p in plus))
        for plus in itertools.combinations_with_replacement(range(m, (m - 1) // 2, -1), n)
    )


def check_one_quiver(n: int) -> None:
    """The character-quiver matrices hold 4**n int64 cells (128 MiB at
    n = 12), so they refuse n > MAX_ONE_QUIVER_GROUND up front."""
    check_ground(n)
    if n > MAX_ONE_QUIVER_GROUND:
        raise ValueError(f"the character quiver is built for n <= {MAX_ONE_QUIVER_GROUND}, got {n}")


def _hamming_grid(n: int):
    """|A delta B| for every pair of the 2**n characters, a uint8 ndarray
    with the vertices ordered by bitmask, the empty set first."""
    check_one_quiver(n)
    import numpy as np

    masks = np.arange(1 << n, dtype=np.uint16)
    return np.bitwise_count(np.bitwise_xor.outer(masks, masks))


def build_one_quiver(n: int) -> Quiver:
    """The quiver on the 2**n characters (vertices ordered by bitmask, the
    empty set first): |A delta B| - 1 arrows each way when that is positive,
    no loops."""
    from .quiver import Quiver

    return Quiver(_hamming_grid(n).clip(1) - 1)


def one_quiver_euler_closed(n: int):
    """Euler matrix of the character quiver, a read-only int64 ndarray, via
    the closed form 1 - |A delta B|."""
    import numpy as np

    euler = np.subtract(1, _hamming_grid(n), dtype=np.int64)
    euler.flags.writeable = False
    return euler


class CharacterMultiset(Frozen):
    """Formal sum of characters with positive multiplicities, the summands
    indexed by subsets of {1..n}."""

    __slots__ = _fields = ("n", "counts")

    def __init__(self, n: int, counts: tuple[tuple[int, int], ...]) -> None:
        check_ground(n)
        if not counts:
            raise ValueError("character multiset must be nonempty")
        seen = set()
        for mask, mult in counts:
            check_subset(mask, n)
            if mask in seen:
                raise ValueError("duplicate subset in character multiset")
            seen.add(mask)
            if mult.__class__ is not int:  # a plain int, as parsing gives, needs no call
                check_ints((mult,), "multiplicities")
            if mult < 1:
                raise ValueError("multiplicities must be >= 1")
        counts = tuple(sorted(counts))
        init = object.__setattr__
        init(self, "n", n)
        init(self, "counts", counts)
        init(self, "_value", (n, counts))

    @classmethod
    def from_dict(cls, n: int, counts: dict[int, int]) -> "CharacterMultiset":
        return cls(n, tuple((a, c) for a, c in counts.items() if c))

    def degree(self) -> int:
        return sum(c for _, c in self.counts)

    def _minus_counts(self) -> list[int]:
        """a_i- for each i: the total multiplicity of the characters containing i."""
        return [sum(c for a, c in self.counts if a >> i & 1) for i in range(self.n)]

    def dim_vector(self) -> DimVector:
        total = self.degree()
        return DimVector(tuple((total - minus, minus) for minus in self._minus_counts()))

    def is_chain(self) -> bool:
        masks = [a for a, _ in self.counts]
        return all(
            (a & b) == a or (a & b) == b for a, b in itertools.combinations(masks, 2)
        )

    def canonical(self) -> "CharacterMultiset":
        """Chain normal form: the sum S_1 + ... + S_d with S_t = {i : a_i- >= t},
        d the degree and a_i- the minus counts of this sum.

        This is the normal form of the rewrite A + B -> (A u B) + (A n B),
        which ends once the support is totally ordered by inclusion: every
        step keeps the degree and each a_i-, and a chain is fixed by them,
        since i must lie in exactly its a_i- largest summands.  So the
        result does not depend on the rewrite order, and it is computed in
        closed form without rewriting."""
        return _chain(self.n, self._minus_counts(), self.degree())

    def __str__(self) -> str:
        terms = []
        for mask, mult in sorted(self.counts, key=lambda mc: (mc[0].bit_count(), mc[0])):
            terms.append(subset_str(mask) + (f"^{mult}" if mult > 1 else ""))
        return "+".join(terms)


def parse_characters(text: str, n: int | None = None) -> CharacterMultiset:
    """Parse '{1}+{2}' or '{}^2+{1,2,3}'; n defaults to the largest element."""
    counts: dict[int, int] = {}
    top = 0
    for term in text.split("+"):
        term = term.strip()
        mult = 1
        if "^" in term:
            term, _, tail = term.partition("^")
            if not tail.strip().isdigit():
                raise ValueError(f"bad multiplicity in {text!r}")
            mult = int(tail)
            if mult < 1:
                raise ValueError(f"multiplicities must be >= 1 in {text!r}")
        mask = parse_subset(term, n)
        top = max(top, mask.bit_length())
        counts[mask] = counts.get(mask, 0) + mult
    if n is None:
        if top == 0:
            raise ValueError("cannot infer the ground-set size; pass n explicitly")
        n = top
    return CharacterMultiset.from_dict(n, counts)


def _chain(n: int, minus: list[int], degree: int) -> CharacterMultiset:
    """The chain sum of S_t = {i : minus_i >= t} for t = 1..degree.  S_t only
    changes where t passes a value of minus, so walking the indices by
    minus descending gives each distinct S_t with its multiplicity in
    O(n log n) steps, whatever the degree."""
    counts: dict[int, int] = {}
    mask, top = 0, degree
    for value, i in sorted(((v, i) for i, v in enumerate(minus) if v), reverse=True):
        if value < top:
            counts[mask] = top - value  # S_t for value < t <= top
            top = value
        mask |= 1 << i
    counts[mask] = top
    return CharacterMultiset.from_dict(n, counts)


def chain_of(alpha: DimVector) -> CharacterMultiset:
    """The chain of characters S_1 + ... + S_m with S_t = {i : a_i- >= t}.

    It has dimension vector alpha, since i lies in exactly a_i- of the S_t,
    and it is the only chain that does, so it is the chain normal form
    (CharacterMultiset.canonical) of every character sum in the component.
    For a canonical alpha it is the canonical semisimple point M_alpha:
    the empty character a_n+ times, the tail sets {i+1..n} with
    multiplicity a_i+ - a_{i+1}+, and the full set a_1- times."""
    if alpha.m < 1:
        raise ValueError("level must be >= 1")
    return _chain(alpha.n, [minus for _, minus in alpha.pairs], alpha.m)


def is_simple_alpha(alpha: DimVector) -> bool:
    """Closed-form simplicity test for a component's dimension vector."""
    verdict, _ = simple_alpha_report(alpha)
    return verdict


def simple_alpha_report(alpha: DimVector) -> tuple[bool, list[str]]:
    """Simplicity verdict plus human-readable reasoning lines."""
    m, n = alpha.m, alpha.n
    if m < 1:
        raise ValueError("the zero dimension vector has no representations")
    lines = [f"alpha = {alpha}  (n={n}, m={m})"]
    if m == 1:
        lines.append("m = 1: alpha is a one-dimensional character")
        return True, lines
    if n <= 2:
        verdict = is_simple_alpha_oracle(alpha)
        lines.append(f"n = {n} <= 2: decided directly on the character quiver")
        return verdict, lines
    smax = sum(max(p) for p in alpha.pairs)
    bound = m * (n - 1)
    if smax > bound:
        lines.append(f"sum_i max(a_i+, a_i-) = {smax} > {bound} = m*(n-1)")
        return False, lines
    lines.append(f"sum_i max(a_i+, a_i-) = {smax} <= {bound} = m*(n-1)")
    if m % 2 == 0:
        k = m // 2
        exception = ((2 * k, 0),) * (n - 2) + ((k, k), (k, k))
        if k != 1 and alpha.canonical().pairs == exception:
            lines.append(f"exception orbit (2k,0)*{n - 2};(k,k);(k,k) with k={k}")
            return False, lines
    return True, lines


def is_simple_alpha_oracle(alpha: DimVector) -> bool:
    """Independent route: test the multiplicities of chain_of(alpha) on the
    full subquiver of the character quiver spanned by its <= n+1
    characters, with max(|A delta B| - 1, 0) arrows between A and B.

    A character sum with dimension vector alpha is a semisimple point of
    the component, and its local quiver is the full subquiver of the
    character quiver on its support; the component has simples exactly
    when that setting has a simple dimension vector.  Working on the
    support alone never builds the 4**n matrix of build_one_quiver."""
    if alpha.m < 1:
        raise ValueError("the zero dimension vector has no representations")
    masks, beta = zip(*chain_of(alpha).counts)
    arrows = [[max((a ^ b).bit_count() - 1, 0) for b in masks] for a in masks]
    return _simple_support(arrows, beta)


def _simple_support(arrows: list[list[int]], dims) -> bool:
    """quiver._is_simple_support, imported on the first call and bound in
    this name's place: the quiver layer loads only once a verdict needs it,
    and later calls pay no import."""
    global _simple_support
    from .quiver import _is_simple_support as _simple_support

    return _simple_support(arrows, dims)


def iss_dim(alpha: DimVector) -> int:
    """Dimension of the moduli of semisimples: 2 * sum a_i+ a_i- - (m^2 - 1).

    Only valid over a simple dimension vector.
    """
    if not is_simple_alpha(alpha):
        raise ValueError(f"{alpha} is not a simple dimension vector")
    m = alpha.m
    return 2 * sum(p * q for p, q in alpha.pairs) - (m * m - 1)


def is_iss_smooth(alpha: DimVector) -> bool:
    """Whether the component's moduli space is smooth: true exactly when at
    most two pairs remain mixed after flipping each pair to (max, min),
    i.e. alpha is a signed permutation of (a,b;c,d;m,0;...;m,0)."""
    mixed = sum(1 for p, q in alpha.pairs if p and q)
    return mixed <= 2


def rep2_values(k: int) -> tuple[int, int, int, str | None]:
    """(rep_dim, quot_dim, singularities, local_type) of every level-2
    component with k = |A| mixed factors: they depend on k alone."""
    return (
        2 * k,
        2 * k - 3 if k >= 2 else 0,
        2 ** (k - 1) if k >= 3 else 0,
        f"1 <={k - 1}=> 1" if k >= 3 else None,
    )


def treelike_census(n: int) -> dict[str, int]:
    """Count the connected tree-like full subquivers of the character
    quiver by type, in the order I, II(k), III(k), IV with k ascending.

    Types: I a single vertex; II(k) a pair joined by k arrows each way;
    III(k) a 3-chain with multiplicities k and k-1; IV the 4-chain with
    multiplicities 1, 2, 1.  The counts are closed forms, valid for every n:

        I = 2^n
        II(k) = 2^(n-1) C(n, k+1)       for 1 <= k <= n-1
        III(k) = n 2^n C(n-1, k)        for 2 <= k <= n-1
        IV = 3 2^n C(n, 3)

    Types with no instance are left out.

    Proof.  Characters A and B are joined by |A delta B| - 1 arrows each
    way, so two vertices with no arrow between them lie at Hamming
    distance 1.  The hypercube has no triangles, so a tree here has no
    three pairwise non-adjacent vertices.  A tree is bipartite, so one on
    v vertices has ceil(v/2) of them: v <= 4, and the star K(1,3) is out.
    What is left are paths on at most four vertices:
      * I counts the vertices and II(k) the pairs at distance k+1 >= 2.
      * A 3-path A - C - B has its ends at distance 1, B = A delta {i}.  With
        S = C delta A, the two arrow multiplicities are |S| - 1 and
        |S delta {i}| - 1, so the path is III(k) with k = |S - {i}| >= 2.
        It is fixed by the pair {A, B}, by k elements from the other n-1,
        and by whether i lies in S: n 2^(n-1) * C(n-1, k) * 2.
      * A 4-path v1 - v2 - v3 - v4 has its three non-adjacent pairs at
        distance 1: v3 = v1 delta {a}, v4 = v1 delta {b}, v2 = v4 delta {c}.
        Its arrows need a, b distinct, b, c distinct and a, c distinct, so
        the multiplicities are 1, 2, 1.  It is fixed by v1 and the ordered
        (a, b, c), and read from either end: 2^n n(n-1)(n-2) / 2.
    """
    check_ground(n)
    counts = {"I": 2**n}
    for k in range(1, n):
        counts[f"II({k})"] = 2 ** (n - 1) * math.comb(n, k + 1)
    for k in range(2, n):
        counts[f"III({k})"] = n * 2**n * math.comb(n - 1, k)
    if n >= 3:
        counts["IV"] = 3 * 2**n * math.comb(n, 3)
    return counts
