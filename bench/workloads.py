"""The two in-process operation streams: `queries` and `degeneration`.

Each workload is a seeded, endless stream of operations.  An operation is a
plain-data tuple (kind, inputs); `run` turns it into library calls and
returns the result, `check` verifies that result by an independent route.
`check` runs outside the timed span and raises `CheckFailed` on a mismatch.
`warm_up` is the seed-independent warm-up that fills the library's lazy
caches; it is part of the set-up time.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter

import z2quiver as z


class CheckFailed(Exception):
    """An operation's output disagrees with the benchmark's independent check."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


# ---------------------------------------------------------------- queries

QUERIES_REPORT_MAX_N = 10
QUERIES_ORACLE_MAX_N = 12
QUERIES_MAX_M = 8
QUERIES_ROUNDS = 10  # 1000 operations, so that p99 has ten samples beyond it
CHARS_MAX_DEGREE = 4000  # the largest sum of multiplicities of one character sum


def _random_pairs(rng: random.Random, n: int, m: int) -> tuple[tuple[int, int], ...]:
    pairs = []
    for _ in range(n):
        p = rng.randint(0, m)
        pairs.append((p, m - p))
    return tuple(pairs)


def _simple_pairs(rng: random.Random) -> tuple[tuple[int, int], ...]:
    """A dimension vector that is simple by the paper's closed form: n >= 3,
    m >= 2, sum_i max(a_i+, a_i-) <= m(n-1), and not the exception orbit
    (2k,0)*(n-2);(k,k);(k,k).  Built from balanced pairs, which always meet
    the bound, by unbalancing random pairs while the budget allows."""
    while True:
        n = rng.randint(3, QUERIES_REPORT_MAX_N)
        m = rng.randint(2, QUERIES_MAX_M)
        hi = [(m + 1) // 2] * n
        budget = m * (n - 1) - sum(hi)
        for _ in range(rng.randint(0, budget)):
            i = rng.randrange(n)
            if hi[i] < m and budget > 0:
                hi[i] += 1
                budget -= 1
        if m % 2 == 0 and sorted(hi) == [m // 2] * 2 + [m] * (n - 2):
            continue
        return tuple((h, m - h) if rng.random() < 0.5 else (m - h, h) for h in hi)


def _dim_text(rng: random.Random, pairs) -> str:
    """Dimension-vector text, runs of equal pairs sometimes written as (a,b)*r."""
    segs = []
    for pair, run in itertools.groupby(pairs):
        r = len(list(run))
        if r > 1 and rng.random() < 0.5:
            segs.append(f"({pair[0]},{pair[1]})*{r}")
        else:
            segs.extend([f"{pair[0]},{pair[1]}"] * r)
    return ";".join(segs)


def _chars_op(rng: random.Random, u: float) -> tuple:
    """A character sum over n <= 6 with 2..5 terms.  Its degree, the sum of
    the multiplicities, sits at quantile u of the log-uniform law on
    [1, CHARS_MAX_DEGREE] and is split into one positive part per term at
    uniform random cut points."""
    n = rng.randint(2, 6)
    masks = rng.sample(range(1 << n), rng.randint(2, min(5, 1 << n)))
    degree = max(len(masks), int(math.exp(u * math.log(CHARS_MAX_DEGREE))))
    cuts = [0, *sorted(rng.sample(range(1, degree), len(masks) - 1)), degree]
    counts = {a: hi - lo for a, lo, hi in zip(masks, cuts, cuts[1:])}
    terms = []
    for a, c in counts.items():
        subset = "{" + ",".join(str(i + 1) for i in range(n) if a >> i & 1) + "}"
        terms.append(subset + (f"^{c}" if c > 1 else ""))
    return ("chars", (" + ".join(terms), n, counts))


def _parse_op(rng: random.Random, then: str) -> tuple:
    if then == "iss_dim":
        pairs = _simple_pairs(rng)
    else:
        n = rng.randint(1, QUERIES_REPORT_MAX_N)
        # repeat a few pairs so the (a,b)*r grammar is exercised
        base = _random_pairs(rng, n, rng.randint(1, QUERIES_MAX_M))
        pairs = tuple(p for p in base for _ in range(rng.choice((1, 1, 2, 3))))[:12]
    return ("parse_" + then, (_dim_text(rng, pairs), pairs))


def queries_ops(rng: random.Random) -> list[tuple]:
    """The query stream's 1000 operations in seeded order: QUERIES_ROUNDS
    rounds.  A round is a fixed mix of 100 operations, with the sizes that
    drive cost stratified so that every seed does comparable work: 30
    simple_alpha_report (n = 1..10, three each), 24 is_simple_alpha_oracle
    (n = 1..12, two each), 30 parse_dim_vector then bn_canonicalize, iss_dim
    or is_iss_smooth (ten each), and 16 canonical() on character sums.
    canonical() costs one rewrite step per unit of degree, so the degrees
    of all the list's sums are one stratified sample: the j-th sits in the
    j-th of as many equal quantile bins of the log-uniform law."""
    ops = []
    for _ in range(QUERIES_ROUNDS):
        for n in range(1, QUERIES_REPORT_MAX_N + 1):
            ops += [("report", _random_pairs(rng, n, rng.randint(1, QUERIES_MAX_M))) for _ in range(3)]
        for n in range(1, QUERIES_ORACLE_MAX_N + 1):
            ops += [("oracle", _random_pairs(rng, n, rng.randint(1, QUERIES_MAX_M))) for _ in range(2)]
        for then in ("canonicalize", "iss_dim", "iss_smooth"):
            ops += [_parse_op(rng, then) for _ in range(10)]
    strata = 16 * QUERIES_ROUNDS
    ops += [_chars_op(rng, (j + rng.random()) / strata) for j in range(strata)]
    rng.shuffle(ops)
    return ops


def queries_run(op: tuple):
    kind, x = op
    if kind == "report":
        return z.simple_alpha_report(z.DimVector(x))
    if kind == "oracle":
        return z.is_simple_alpha_oracle(z.DimVector(x))
    if kind == "chars":
        return z.parse_characters(x[0], x[1]).canonical()
    alpha = z.parse_dim_vector(x[0])
    if kind == "parse_canonicalize":
        return alpha, z.bn_canonicalize(alpha)
    if kind == "parse_iss_dim":
        return alpha, z.iss_dim(alpha)
    return alpha, z.is_iss_smooth(alpha)


def queries_check(op: tuple, result) -> None:
    kind, x = op
    if kind == "report":
        verdict, lines = result
        expect(verdict == z.is_simple_alpha_oracle(z.DimVector(x)), "closed form disagrees with the oracle")
        expect(all(isinstance(line, str) for line in lines) and lines, "report has no reasoning lines")
        return
    if kind == "oracle":
        expect(result == z.is_simple_alpha(z.DimVector(x)), "oracle disagrees with the closed form")
        return
    if kind == "chars":
        _check_chain(x[1], x[2], result)
        return
    alpha, value = result
    pairs = x[1]
    expect(alpha.pairs == pairs, f"parse_dim_vector({x[0]!r}) gave {alpha}")
    if kind == "parse_canonicalize":
        want = tuple(sorted(((max(p), min(p)) for p in pairs), reverse=True))
        expect(value.pairs == want, "bn_canonicalize is not the sorted (max, min) form")
    elif kind == "parse_iss_dim":
        m = pairs[0][0] + pairs[0][1]
        expect(z.is_simple_alpha_oracle(alpha), "iss_dim input is not simple by the oracle")
        expect(value == 2 * sum(p * q for p, q in pairs) - (m * m - 1), "iss_dim disagrees with its formula")
    else:
        expect(value == (sum(1 for p, q in pairs if p and q) <= 2), "is_iss_smooth disagrees with the mixed-pair rule")


def _check_chain(n: int, counts: dict[int, int], result) -> None:
    """canonical() must be a chain, keep the dimension vector, and equal the
    closed form S_t = {i : minus_i >= t} for t = 1..degree."""
    degree = sum(counts.values())
    minus = [sum(c for a, c in counts.items() if a >> i & 1) for i in range(n)]
    want: dict[int, int] = {}
    for t in range(1, degree + 1):
        s_t = sum(1 << i for i in range(n) if minus[i] >= t)
        want[s_t] = want.get(s_t, 0) + 1
    got = dict(result.counts)
    masks = list(got)
    expect(result.n == n, "canonical() changed the ground set")
    expect(all(a & b in (a, b) for a, b in itertools.combinations(masks, 2)), "canonical() is not a chain")
    got_minus = [sum(c for a, c in got.items() if a >> i & 1) for i in range(n)]
    expect(sum(got.values()) == degree and got_minus == minus, "canonical() changed the dimension vector")
    expect(got == want, "canonical() differs from the closed-form chain")


def queries_warm_up() -> None:
    for n in range(1, QUERIES_ORACLE_MAX_N + 1):
        z.build_one_quiver(n)


# ----------------------------------------------------------- degeneration

DEGEN_LEVELS = tuple((n, m) for n in range(4, 9) for m in range(4, n + 1))
# Rounds per level in the operation list, by n.  A degenerates_class pair
# costs about 0.1 ms at n = 4 and 20 ms at n = 8 (2-core x86-64 VM), so
# larger n gets fewer rounds: the 1050 operations then take about 1.5 s,
# and a 35 s run samples each one about 15 times.  With seven rounds at every level
# a pass took 6 s, each operation was sampled 4 to 6 times, and the best
# times moved by up to 40% with the load of a shared machine.
DEGEN_ROUNDS = {4: 16, 5: 16, 6: 12, 7: 4, 8: 1}


class DegenerationPools:
    """Per-(n, m) inputs and reference answers, built before timing: the
    class representatives, the reflexive-transitive closure of the
    elementary-move graph as bitsets, each class's move targets, and for
    each answer of degenerates_class(s, t) the classes t that some other
    class s gives it for, ordered by the size of t's class."""

    def __init__(self) -> None:
        self.settings = {}
        self.reach = {}
        self.moves = {}
        self.shapes = {}
        self.targets = {}
        for n, m in DEGEN_LEVELS:
            g = z.degeneration_graph(n, m)
            nodes = list(g.nodes)
            succ = [0] * len(nodes)
            for i, j in g.edges:
                succ[i] |= 1 << j
            self.settings[n, m] = nodes
            self.reach[n, m] = _closure(succ)
            self.moves[n, m] = {nodes[i].young(): {nodes[j].young() for j in range(len(nodes)) if succ[i] >> j & 1}
                                for i in range(len(nodes))}
            self.shapes[n, m] = sorted({s.sizes for s in nodes}, reverse=True)
            reach = self.reach[n, m]
            by_size = sorted(range(len(nodes)), key=lambda j: (_class_size(nodes[j]), j))
            for want in (True, False):
                self.targets[n, m, want] = [j for j in by_size if any(
                    i != j and bool(reach[i] >> j & 1) == want for i in range(len(nodes)))]


def _class_size(t) -> int:
    """Labelled settings in t's permutation class, the ones degenerates_class
    scans: n! / (prod of block sizes! * prod over (size, k) of its multiplicity!)."""
    den = 1
    for size in t.sizes:
        den *= math.factorial(size)
    for mult in Counter(zip(t.sizes, t.k)).values():
        den *= math.factorial(mult)
    return math.factorial(t.n) // den


def _closure(succ: list[int]) -> list[int]:
    reach = [s | 1 << i for i, s in enumerate(succ)]
    changed = True
    while changed:
        changed = False
        for i, r in enumerate(reach):
            acc, x = r, r
            while x:
                low = x & -x
                acc |= reach[low.bit_length() - 1]
                x ^= low
            if acc != r:
                reach[i] = acc
                changed = True
    return reach


def degeneration_ops(rng: random.Random, pools: DegenerationPools) -> list[tuple]:
    """The degeneration stream's 1050 operations in seeded order.  A round
    at one of the 15 levels 4 <= m <= n <= 8 holds seven
    degenerates_class(s, t) on two distinct classes (one pair where s
    degenerates to t and six where it does not, near the 10-25% share of
    such pairs, so each round has the same number of early exits), one
    elementary_moves, one local quiver + Euler matrix + smoothness, and one
    young_diagram_slice; level (n, m) gets DEGEN_ROUNDS[n] rounds.
    degenerates_class scans t's class, whose size spans three orders of
    magnitude at n = 8, so the targets t of each answer at each level are
    one stratified sample of the classes ordered by that size; the source
    s is uniform among those that give the answer.  Every seed thus does
    comparable work."""
    ops = []
    for n, m in DEGEN_LEVELS:
        rounds = DEGEN_ROUNDS[n]
        k = len(pools.settings[n, m])
        reach = pools.reach[n, m]
        for want, count in ((True, rounds), (False, 6 * rounds)):
            targets = pools.targets[n, m, want]
            for q in range(count):
                j = targets[int((q + rng.random()) * len(targets) / count)]
                while True:
                    i = rng.randrange(k)
                    if i != j and bool(reach[i] >> j & 1) == want:
                        break
                ops.append(("degenerates_class", (n, m, i, j)))
        for _ in range(rounds):
            ops.append(("elementary_moves", (n, m, rng.randrange(k))))
            ops.append(("local", (n, m, rng.randrange(k))))
            ops.append(("slice", (n, m, rng.choice(pools.shapes[n, m]))))
    rng.shuffle(ops)
    return ops


def degeneration_run(op: tuple, pools: DegenerationPools):
    kind, x = op
    n, m = x[0], x[1]
    if kind == "degenerates_class":
        nodes = pools.settings[n, m]
        return z.degenerates_class(nodes[x[2]], nodes[x[3]])
    if kind == "elementary_moves":
        return z.elementary_moves(pools.settings[n, m][x[2]])
    if kind == "local":
        s = pools.settings[n, m][x[2]]
        qs = z.local_quiver(s)
        euler = z.local_euler_matrix(s)
        # the smoothness classification covers loop-free settings, i.e. all k_i = 1
        smooth = z.is_smooth_setting(qs.quiver, qs.dims) if all(k == 1 for k in s.k) else None
        return qs, euler, smooth
    return z.young_diagram_slice(n, m, x[2])


def degeneration_check(op: tuple, result, pools: DegenerationPools) -> None:
    kind, x = op
    n, m = x[0], x[1]
    nodes = pools.settings[n, m]
    if kind == "degenerates_class":
        want = bool(pools.reach[n, m][x[2]] >> x[3] & 1)
        expect(result == want, f"degenerates_class({nodes[x[2]].id()}, {nodes[x[3]].id()}) "
                               f"= {result}, reachability says {want}")
    elif kind == "elementary_moves":
        s = nodes[x[2]]
        for t in result:
            expect(_one_step(s, t), f"{t} is not one elementary move from {s}")
        expect({t.young() for t in result} == pools.moves[n, m][s.young()], "move targets differ from the graph")
    elif kind == "local":
        s = nodes[x[2]]
        qs, euler, smooth = result
        l = len(s.k)
        q_euler = qs.quiver.euler_matrix()
        expect(qs.dims[:l] == (1,) * l and sum(qs.dims[l:]) == m - sum(s.k), "local quiver dimensions")
        expect(q_euler[: euler.shape[0], : euler.shape[0]].tolist() == euler.tolist(),
               "local_euler_matrix disagrees with local_quiver")
        if smooth is not None:
            expect(smooth == z.smooth_point(s), "is_smooth_setting disagrees with smooth_point")
    else:
        shape = x[2]
        expect(all(s.sizes == shape for s in result.nodes), "slice holds a node of another diagram")
        expect(len(result.nodes) == _count_settings(shape, m), "slice node count")
        for i, j in result.edges:
            a, b = result.nodes[i], result.nodes[j]
            expect(b.k_total == a.k_total - 1, "slice edge is not a k-lowering")


def _one_step(s, t) -> bool:
    """t lowers one k_i of s by one, or splits one block of s into two whose k sum to k_i."""
    sb = dict(zip(s.blocks, s.k))
    tb = dict(zip(t.blocks, t.k))
    if set(sb) == set(tb):
        diffs = sorted(sb[b] - tb[b] for b in sb)
        return diffs[0] >= 0 and diffs[-1] == 1 and sum(diffs) == 1
    gone = [b for b in sb if b not in tb]
    new = [b for b in tb if b not in sb]
    return (len(gone) == 1 and len(new) == 2 and new[0] | new[1] == gone[0]
            and tb[new[0]] + tb[new[1]] == sb[gone[0]]
            and all(sb[b] == tb[b] for b in sb if b != gone[0]))


def _count_settings(shape: tuple[int, ...], m: int) -> int:
    """Settings of one Young diagram at level m: one weakly decreasing
    k-multiset per row class, entries in [1, row length], total k <= m."""
    per_class = [list(itertools.combinations_with_replacement(range(1, size + 1), len(list(run))))
                 for size, run in itertools.groupby(shape)]
    return sum(1 for choice in itertools.product(*per_class) if sum(map(sum, choice)) <= m)


def degeneration_warm_up() -> None:
    s = z.enumerate_settings(4, 4)
    z.degenerates_class(s[0], s[-1])
    z.elementary_moves(s[0])
    z.local_quiver(s[-1])
    z.local_euler_matrix(s[-1])
    z.young_diagram_slice(4, 4, (2, 2))
