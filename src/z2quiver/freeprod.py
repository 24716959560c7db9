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
from typing import TYPE_CHECKING, Iterator

# quiver is reached as z2quiver.quiver, which the package imports on first use:
# the census commands never load it, or numpy.
import z2quiver

from .combinat import (
    MAX_COUNT_DIGITS,
    DimVector,
    Frozen,
    capped_count,
    check_digit_runs,
    check_ground,
    check_ints,
    check_subset,
    int_text,
    multiset_coeff,
    parse_subset,
    subset_str,
)

if TYPE_CHECKING:
    from .quiver import Quiver

# Most pairs, orbit count times n, that orbit_representatives lists.
MAX_ORBIT_PAIRS = 10**6
# Largest n whose 2**n x 2**n character-quiver matrices are built.
MAX_ONE_QUIVER_GROUND = 12

def build_Qn(n: int) -> Quiver:
    """The 2n-vertex quiver with one arrow from each of the two level-1
    vertices (1+, 1-) to every vertex i+/- with i >= 2; 4(n-1) arrows."""
    n = check_ground(n)
    if n < 2:
        raise ValueError(f"need n >= 2 vertex pairs, got {n}")
    return z2quiver.quiver.Quiver([[0, 0] + [1] * (2 * n - 2)] * 2 + [[0] * (2 * n)] * (2 * n - 2))


def _check_census(n: int, m: int) -> tuple[int, int]:
    """n and m as ints, refused unless n >= 1 and m >= 0."""
    n, m = check_ints((n, m), "n and m")
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 and m >= 0")
    return n, m


def component_count(n: int, m: int) -> int:
    """(m+1)**n, capped past MAX_COUNT_DIGITS digits with (m+1)**n >=
    2**(n*(b-1)) for b = (m+1).bit_length(): the rest have at most about
    2.4 * MAX_COUNT_DIGITS digits."""
    n, m = _check_census(n, m)
    what = "the component count (m+1)**n of n={}, m={}"
    return capped_count(n * ((m + 1).bit_length() - 1), lambda: (m + 1) ** n, what, n, m)


def orbit_count(n: int, m: int) -> int:
    """Components up to signed pair permutations: C(floor(m/2)+n, n), capped by multiset_coeff."""
    n, m = _check_census(n, m)
    return multiset_coeff(m // 2 + 1, n)


def orbit_representatives(n: int, m: int) -> list[DimVector]:
    """Canonical representatives of the component orbits, sorted.

    The canonical form m >= a_1+ >= ... >= a_n+ >= m/2 of bn_canonicalize
    is one multiset of n values a_i+ drawn from ceil(m/2)..m, one per orbit.
    Drawn from m down, they come out in descending order, so the list is reversed.

    Refuses with ValueError, before building any list, an answer of more
    than MAX_ORBIT_PAIRS pairs, orbit_count(n, m) * n in all; orbit_count
    refuses a huge count before computing it."""
    n, m = _check_census(n, m)
    if orbit_count(n, m) * n > MAX_ORBIT_PAIRS:
        raise ValueError(f"more than {MAX_ORBIT_PAIRS} pairs in the orbit representatives of n={int_text(n)}, m={m}")
    pairs = [(p, m - p) for p in range(m + 1)]
    multisets = itertools.combinations_with_replacement(range(m, (m - 1) // 2, -1), n)
    return [object.__new__(DimVector)._set(tuple(map(pairs.__getitem__, p))) for p in multisets][::-1]


def check_one_quiver(n: int) -> int:
    """n as an int.  The character-quiver matrices hold 4**n int64 cells
    (128 MiB at n = 12), so they refuse n > MAX_ONE_QUIVER_GROUND up front."""
    n = check_ground(n)
    if n > MAX_ONE_QUIVER_GROUND:
        raise ValueError(f"the character quiver is built for n <= {MAX_ONE_QUIVER_GROUND}, got {n}")
    return n


def hamming_split(n: int, block) -> Iterator[list]:
    """The one route to the character quiver, whose cell (i, j) depends only on popcount(i ^ j) =
    popcount(i_hi ^ j_hi) + popcount(i_lo ^ j_lo), i_lo being the low h = n // 2 bits of i.  block(rows)
    makes the block at high-half distance d once, from rows[i_lo][j_lo] = d + popcount(i_lo ^ j_lo).
    Returns, for each i_hi in order, its row block as the list of its blocks over j_hi."""
    h = n // 2
    low = [[(a ^ b).bit_count() for b in range(1 << h)] for a in range(1 << h)]
    blocks = [block([[d + x for x in row] for row in low]) for d in range(n - h + 1)]
    high = range(1 << (n - h))
    return ([blocks[(i ^ j).bit_count()] for j in high] for i in high)


def _hamming_matrix(n: int, cell):
    """cell(popcount(i ^ j)) at (i, j), a fresh read-only int64 ndarray joined
    one row block at a time from hamming_split: no 4**n intermediate."""
    n = check_one_quiver(n)
    q = z2quiver.quiver
    cells = [cell(d) for d in range(n + 1)]
    blocks = hamming_split(n, lambda rows: q._int_matrix([[cells[d] for d in ds] for ds in rows]))
    return q._join_blocks(1 << n, blocks)


def build_one_quiver(n: int) -> Quiver:
    """The quiver on the 2**n characters (vertices ordered by bitmask, the
    empty set first): |A delta B| - 1 arrows each way when that is positive,
    no loops."""
    return object.__new__(z2quiver.quiver.Quiver)._set(_hamming_matrix(n, lambda d: max(d - 1, 0)))


def one_quiver_euler_closed(n: int):
    """Euler matrix of the character quiver, a read-only int64 ndarray, via
    the closed form 1 - |A delta B|."""
    return _hamming_matrix(n, lambda d: 1 - d)


class CharacterMultiset(Frozen):
    """Formal sum of characters with positive multiplicities, the summands
    indexed by subsets of {1..n}."""

    __slots__ = _fields = ("n", "counts")

    def __init__(self, n: int, counts: tuple[tuple[int, int], ...]) -> None:
        n = check_ground(n)
        if not counts:
            raise ValueError("character multiset must be nonempty")
        try:
            masks, mults = zip(*counts, strict=True)
        except (TypeError, ValueError):
            raise ValueError(f"counts must be (mask, multiplicity) pairs, got {int_text(counts)}") from None
        mults = check_ints(mults, "multiplicities")
        masks = [check_subset(mask, n) for mask in masks]
        if len(set(masks)) < len(masks):
            raise ValueError("duplicate subset in character multiset")
        if min(mults) < 1:
            raise ValueError("multiplicities must be >= 1")
        self._set(n, tuple(sorted(zip(masks, mults))))

    def degree(self) -> int:
        return sum(c for _, c in self.counts)

    def _minus_counts(self) -> list[int]:
        """a_i- for each i: the total multiplicity of the characters containing i,
        walking each mask's set bits once, highest first: sum popcount(mask) steps."""
        minus = [0] * self.n
        for a, c in self.counts:
            while a:
                i = a.bit_length() - 1
                minus[i] += c
                a ^= 1 << i
        return minus

    def dim_vector(self) -> DimVector:
        total = self.degree()
        return object.__new__(DimVector)._set(tuple((total - minus, minus) for minus in self._minus_counts()))

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
    n = n if n is None else check_ground(n)
    counts: dict[int, int] = {}
    top = 0
    if len(text) > MAX_COUNT_DIGITS:
        check_digit_runs(text)
    for term in text.split("+"):
        term = term.strip()
        mult = 1
        if "^" in term:
            term, _, tail = term.partition("^")
            if not tail.strip().isdecimal():
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
    # parse_subset checked each mask against n, and each multiplicity is >= 1
    return object.__new__(CharacterMultiset)._set(n, tuple(sorted(counts.items())))


def _chain(n: int, minus: list[int], degree: int) -> CharacterMultiset:
    """The chain sum of S_t = {i : minus_i >= t} for t = 1..degree.  S_t only
    changes where t passes a value of minus, so walking the indices by
    minus descending, up to the first zero, gives each distinct S_t with its
    multiplicity in O(n log n) steps, whatever the degree, each mask above
    the one before.  The order within a tie is irrelevant: the later tied
    indices append no count, only their bits."""
    counts = []
    mask, top = 0, degree
    for i in sorted(range(n), key=minus.__getitem__, reverse=True):
        value = minus[i]
        if not value:
            break
        if value < top:
            counts.append((mask, top - value))  # S_t for value < t <= top
            top = value
        mask |= 1 << i
    counts.append((mask, top))
    return object.__new__(CharacterMultiset)._set(n, tuple(counts))


def chain_of(alpha: DimVector) -> CharacterMultiset:
    """The chain of characters S_1 + ... + S_m with S_t = {i : a_i- >= t}.

    It has dimension vector alpha, since i lies in exactly a_i- of the S_t,
    and it is the only chain that does, so it is the chain normal form
    (CharacterMultiset.canonical) of every character sum in the component.
    For a canonical alpha it is the canonical semisimple point M_alpha:
    the empty character a_n+ times, the tail sets {i+1..n} with
    multiplicity a_i+ - a_{i+1}+, and the full set a_1- times."""
    return _chain(alpha.n, [minus for _, minus in alpha.pairs], _level(alpha))


def _level(alpha: DimVector) -> int:
    """alpha.m, refused when it is 0."""
    if alpha.m < 1:
        raise ValueError("the zero dimension vector has no representations")
    return alpha.m


def is_simple_alpha(alpha: DimVector) -> bool:
    """Closed-form simplicity test for a component's dimension vector."""
    return _simple_alpha_core(alpha)[0]


def _simple_alpha_core(alpha: DimVector) -> tuple[bool, str, int, int]:
    """The closed-form verdict on alpha, formatting nothing, with the rule
    that decided it ("m = 1", "above bound", "exception" or "within bound")
    and the sum_i max(a_i+, a_i-) and m*(n-1) it compared (0 and 0 for m = 1).

    Every n goes through the bound, as max(a_i+, a_i-) >= m/2.  At n = 1 the
    bound is 0, so every m >= 2 is above it.  At n = 2 the bound forces both
    pairs to be (k,k), and the exception removes k >= 2: that leaves
    (1,1);(1,1), the 2-dimensional simples of the infinite dihedral group."""
    pairs, m, n = alpha.pairs, _level(alpha), alpha.n
    if m == 1:
        return True, "m = 1", 0, 0
    smax = sum([p if p > q else q for p, q in pairs])
    bound = m * (n - 1)
    if smax > bound:
        return False, "above bound", smax, bound
    # the exception orbit (2k,0)*(n-2);(k,k);(k,k): mixed only at its two (k,k)
    k = m // 2
    if m > 2 and m % 2 == 0 and pairs.count((k, k)) == 2 and _smooth_core(alpha)[1] == 2:
        return False, "exception", smax, bound
    return True, "within bound", smax, bound


def simple_alpha_report(alpha: DimVector) -> tuple[bool, list[str]]:
    """Simplicity verdict plus human-readable reasoning lines, rendered from
    _simple_alpha_core."""
    verdict, rule, smax, bound = _simple_alpha_core(alpha)
    n, m = alpha.n, alpha.m
    lines = [f"alpha = {alpha}  (n={n}, m={int_text(m)})"]
    if rule == "m = 1":
        lines.append("m = 1: alpha is a one-dimensional character")
    else:
        relation = ">" if rule == "above bound" else "<="
        lines.append(f"sum_i max(a_i+, a_i-) = {int_text(smax)} {relation} {int_text(bound)} = m*(n-1)")
        if rule == "exception":
            lines.append(f"exception orbit {f'(2k,0)*{n - 2};' if n > 2 else ''}(k,k);(k,k) with k={int_text(m // 2)}")
    return verdict, lines


def is_simple_alpha_oracle(alpha: DimVector) -> bool:
    """Independent route: test the multiplicities of chain_of(alpha) on the
    full subquiver of the character quiver spanned by its <= n+1
    characters, with max(|A delta B| - 1, 0) arrows between A and B.

    A character sum with dimension vector alpha is a semisimple point of
    the component, and its local quiver is the full subquiver of the
    character quiver on its support; the component has simples exactly
    when that setting has a simple dimension vector.  Working on the
    support alone never builds the 4**n matrix of build_one_quiver."""
    masks, beta = zip(*chain_of(alpha).counts)
    rows = [[((a ^ b).bit_count() or 1) - 1 for b in masks] for a in masks]
    return z2quiver.quiver._is_simple_support(rows, beta)


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
    return _smooth_core(alpha)[0]


def _smooth_core(alpha: DimVector) -> tuple[bool, int]:
    """The smoothness verdict on alpha and the number of its mixed pairs, both entries nonzero."""
    mixed = sum([1 for p, q in alpha.pairs if p and q])
    return mixed <= 2, mixed


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
    n = check_ground(n)
    counts = {"I": 2**n}
    for k in range(1, n):
        counts[f"II({k})"] = 2 ** (n - 1) * math.comb(n, k + 1)
    for k in range(2, n):
        counts[f"III({k})"] = n * 2**n * math.comb(n - 1, k)
    if n >= 3:
        counts["IV"] = 3 * 2**n * math.comb(n, 3)
    return counts
