"""Run-prefix profiles and admissible cuts of a syntax tree.

A run prefix of length p stops the process with some set of actions done;
the done set is always a root-containing "cut" closed under parents.  The
level profile counts prefixes per length, the cut machinery enumerates the
underlying sets, and semantic_size predicts the full computation-tree size
without building it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .counts import hook_count
from .trees import BudgetError, SyntaxTree

CUT_ENUMERATION_LIMIT = 18
PROFILE_FAST_LIMIT = 5000


class AdmissibleCut(NamedTuple):
    """What is left of the syntax tree after recursively removing leaves.

    Equivalently a root-containing, parent-closed node set.  shape is the
    induced tree itself (source labels kept), nodes the member source ids
    ascending, labellings the number of run prefixes consuming exactly this
    set, which is the hook count of the shape.
    """

    shape: SyntaxTree
    nodes: tuple[int, ...]
    labellings: int

    @property
    def size(self) -> int:
        return len(self.nodes)


def count_admissible_cuts(t: SyntaxTree) -> int:
    """Number of admissible cuts, the empty one included.

    count(v) = 1 + prod over children of count(c); reverse id order visits
    children first, no recursion.
    """
    n = t.size
    acc = [1] * (n + 1)  # acc[v] = product over children already visited
    for v in range(n, 1, -1):
        acc[t.parent(v)] *= 1 + acc[v]
    return 1 + acc[1]


def enumerate_admissible_cuts(t: SyntaxTree) -> list[AdmissibleCut]:
    """All nonempty admissible cuts, largest first, then shape, then ids.

    Refuses trees above CUT_ENUMERATION_LIMIT nodes before doing any work.
    """
    if t.size > CUT_ENUMERATION_LIMIT:
        raise BudgetError(f"a {t.size}-node term is over the cut enumeration cap of "
                          f"{CUT_ENUMERATION_LIMIT} nodes", t.size, CUT_ENUMERATION_LIMIT)

    def cuts_of(v: int) -> list[tuple[int, ...]]:
        # nonempty cuts of the subtree at v as ascending ids; each child
        # independently contributes nothing or one of its own cuts, whose
        # ids all follow those already chosen
        options = [(v,)]
        for c in t.children(v):
            sub_options = cuts_of(c)
            options += [base + sub for base in options for sub in sub_options]
        return options

    decorated = []
    for nodes in cuts_of(1):
        # member ids ascending are the induced subtree's preorder; a member's
        # parent is the member at its position (0 for the root's parent)
        position = dict(zip((0, *nodes), range(len(nodes) + 1)))
        shape = SyntaxTree([t.label(v) for v in nodes], [position[t.parent(v)] for v in nodes])
        decorated.append(AdmissibleCut(shape, nodes, hook_count(shape)))
    decorated.sort(key=lambda c: (-c.size, c.shape.degree_word(), c.nodes))
    return decorated


_M_CACHE: list[int] = [0, 1, 2, 7, 29, 131, 625]


def cut_count_sequence(N: int) -> list[int]:
    """Total admissible cuts (nonempty) over all shapes, sizes 0..N.

    Unrolls the five-term linear recurrence from the stored seed terms, so
    it needs N >= 4; the tests hold it against brute-force cut counts.
    """
    if N < 4:
        raise ValueError("cut_count_sequence needs N >= 4")
    seq = list(_M_CACHE)
    while len(seq) <= N:
        k = len(seq) - 4  # next index is k + 4
        c0 = -500 * k + 2000 * k ** 3
        c1 = 120 - 220 * k - 1380 * k ** 2 - 920 * k ** 3
        c2 = -(1488 + 1626 * k + 387 * k ** 2 - 21 * k ** 3)
        c3 = 1104 + 1088 * k + 351 * k ** 2 + 37 * k ** 3
        c4 = 168 + 146 * k + 42 * k ** 2 + 4 * k ** 3
        if c4 == 0:
            raise ArithmeticError(f"vanishing leading coefficient at index {k + 4}")
        num = c0 * seq[k] + c1 * seq[k + 1] + c2 * seq[k + 2] + c3 * seq[k + 3]
        q, r = divmod(num, c4)
        if r:
            raise ArithmeticError(f"cut recurrence produced a non-integer at index {k + 4}")
        seq.append(q)
    del seq[N + 1:]
    return seq


def level_profile(t: SyntaxTree, method: str = "fast") -> tuple[int, ...]:
    """Number of run prefixes of each length; entry at depth l counts l + 1.

    Indexing: depth 0 = the bare root (always count 1); the deepest entry,
    depth n - 1, equals the complete-run count.  Counting i levels up from
    the deepest one instead, the entry at depth l has i = n - 1 - l.

    method="fast" runs the binomial-convolution pass.  Its big-integer
    work is what the merges really need: leaf children cost one small
    product each (closed form), the first merge at every node is free, and
    every other merge adds one row per entry of the shorter vector, so a
    star or a chain costs O(n) products and a uniform shape still grows
    about 8x per doubling.  method="oracle" enumerates admissible cuts and
    adds up their labellings per size, exponential and for cross-checking
    only.
    """
    if method == "oracle":
        out = [0] * t.size
        for cut in enumerate_admissible_cuts(t):
            out[cut.size - 1] += cut.labellings
        return tuple(out)
    if method != "fast":
        raise ValueError("method must be 'fast' or 'oracle'")
    if t.size > PROFILE_FAST_LIMIT:
        raise BudgetError(f"a {t.size}-node term is over the profile cap of "
                          f"{PROFILE_FAST_LIMIT} nodes", t.size, PROFILE_FAST_LIMIT)
    return tuple(_prefix_counts(t))


def _prefix_counts(t: SyntaxTree) -> list[int]:
    """counts[p] = number of run prefixes of length p + 1.

    Bottom-up. For each node, index m of its working vector counts the
    interleaved prefix sequences drawing m actions from its children's
    subtrees (two disjoint sequences of lengths i and j interleave in
    binom(i + j, i) ways); prepending 1 shifts in the node itself.

    The merges commute, so they run in the cheapest order.  The L leaf
    children go first, together: m actions drawn from them form
    L!/(L - m)! sequences.  The first vector merged into [1] is taken as
    it is.  Every later merge copies the longer vector (entry 0 of every
    vector is 1, so that is its row for the shorter vector's entry 0) and
    adds one row per further entry of the shorter one.  A row's weight
    other[j] * binom(i + j, j) steps along i by one small multiply and one
    exact small divide, so each row entry costs one product by the weight,
    which stays a few machine words while other[j] is small.

    Vectors are kept reversed between nodes, so shifting in the node is an
    append and a lone inner child's vector is taken as it is: a chain costs
    O(n) in all.
    """
    n = t.size
    sizes = t.subtree_sizes()
    vecs: list[list[int] | None] = [None] * (n + 1)
    for v in range(n, 0, -1):
        leaves = 0
        inner = []
        c = v + 1  # the children: v + 1, then each id past the last one's subtree
        end = v + sizes[v - 1]
        while c < end:
            s = sizes[c - 1]
            if s == 1:
                leaves += 1
            else:
                inner.append(vecs[c])
            vecs[c] = None  # free as we go, vectors get long
            c += s
        if not leaves and len(inner) == 1:
            inner[0].append(1)
            vecs[v] = inner[0]
            continue
        acc = [1]
        for k in range(leaves, 0, -1):
            acc.append(acc[-1] * k)
        for other in inner:
            other.reverse()
            if len(acc) == 1:
                acc = other
                continue
            if len(acc) < len(other):
                acc, other = other, acc
            merged = acc + [0] * (len(other) - 1)
            for j in range(1, len(other)):
                w = other[j]  # other[j] * binom(i + j, j), here at i = 0
                for i, a in enumerate(acc):
                    merged[i + j] += a * w
                    w = w * (i + j + 1) // (i + 1)
            acc = merged
        acc.reverse()
        acc.append(1)
        vecs[v] = acc
    return vecs[1][-2::-1]


def semantic_size(t: SyntaxTree) -> int:
    """Exact node count of the computation tree, without building it: the
    sum of the level profile, so terms over PROFILE_FAST_LIMIT are refused."""
    return sum(level_profile(t))


def limit_profile(c: float, n: int) -> float:
    """Large-n approximation of ln(profile) at relative depth c.

    Valid for c in [2/n, 1 - 2/n].  The absolute error in the log decays
    like 1/n; see limit_profile_error_bound for the calibrated constant.
    """
    if n < 4:
        raise ValueError("n must be at least 4")
    if not 2.0 / n <= c <= 1.0 - 2.0 / n:
        raise ValueError("c must lie in [2/n, 1 - 2/n]")
    lin = (c - 1 + math.log((2 - 2 * c) ** (1 - c) / (c ** c * (2 - c) ** (2 - c))))
    return ((1 - c) * n * math.log(n) + lin * n
            + math.log(math.sqrt(4 - 2 * c) / math.sqrt(c)))


# worst measured value of |error| * c * (1-c) * n over the grid
# c in {0.1, .., 0.9}, n in {20, 50, 100, 200, 400} is 0.0681; the
# published factor carries a ~1.5x safety margin on top of that
LIMIT_PROFILE_ERROR_FACTOR = 0.1


def limit_profile_error_bound(c: float, n: int) -> float:
    """Calibrated absolute bound for limit_profile's log-scale error."""
    return LIMIT_PROFILE_ERROR_FACTOR / (c * (1.0 - c) * n)

