"""Run-prefix profiles and admissible cuts of a syntax tree.

A run prefix of length p stops the process with some set of actions done;
the done set is always a root-containing "cut" closed under parents.  The
level profile counts prefixes per length, cut_profile recounts them cut by
cut as its independent check, and semantic_size sums the profile into the
computation tree's size.  That profile is the tree's node count per level,
which semantic_levels returns once the tree fits a budget; semantic_expansion
then lays the tree out as two flat arrays of 16 bytes a node.
"""

from __future__ import annotations

import math
from array import array
from decimal import Decimal

from . import trees

CUT_ENUMERATION_LIMIT = 18
PROFILE_FAST_LIMIT = 5000
SEMANTIC_NODE_BUDGET = 10 ** 6


def count_admissible_cuts(t: trees.SyntaxTree) -> int:
    """Number of admissible cuts, the empty one included.

    count(v) = 1 + prod over children of count(c); reverse id order visits
    children first, no recursion.
    """
    n = t.size
    acc = [1] * (n + 1)  # acc[v] = product over children already visited
    for v in range(n, 1, -1):
        acc[t.parent(v)] *= 1 + acc[v]
    return 1 + acc[1]


def cut_profile(t: trees.SyntaxTree) -> tuple[int, ...]:
    """The level profile by brute force over the admissible cuts.

    The prefixes that consume exactly a cut of k nodes are its labellings,
    its hook count k! / (product of its induced subtree sizes), so each
    nonempty cut adds that at entry k - 1.  The independent check of
    level_profile, sharing no code with it; refuses trees above
    CUT_ENUMERATION_LIMIT nodes before doing any work.
    """
    n = t.size
    if n > CUT_ENUMERATION_LIMIT:
        raise trees.BudgetError(f"a {n}-node term is over the cut enumeration cap of "
                                f"{CUT_ENUMERATION_LIMIT} nodes", n, CUT_ENUMERATION_LIMIT)
    # cuts[v] holds, per cut of v's subtree containing v, its node count k
    # and the product q of the induced subtree sizes of its members below v;
    # reverse id order completes a child's list before crossing it into its
    # parent's, where each child adds nothing or one of its own cuts.  Under
    # the cap every operand is below 18! < 2^63, so plain int arithmetic
    # does, with no factor ledger
    cuts = [[(1, 1)] for _ in range(n + 1)]
    for v in range(n, 1, -1):
        below = cuts[v]
        cuts[v] = None
        acc = cuts[t.parent(v)]
        acc += [(k + j, q * j * r) for k, q in acc for j, r in below]
    prof = [0] * n
    for k, q in cuts[1]:
        prof[k - 1] += math.factorial(k) // (k * q)
    return tuple(prof)


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
        num = c0 * seq[k] + c1 * seq[k + 1] + c2 * seq[k + 2] + c3 * seq[k + 3]
        q, r = divmod(num, c4)
        if r:
            raise ArithmeticError(f"cut recurrence produced a non-integer at index {k + 4}")
        seq.append(q)
    del seq[N + 1:]
    return seq


def level_profile(t: trees.SyntaxTree) -> tuple[int, ...]:
    """Number of run prefixes of each length; entry at depth l counts l + 1.

    Indexing: depth 0 = the bare root (always count 1); the deepest entry,
    depth n - 1, equals the complete-run count.  Counting i levels up from
    the deepest one instead, the entry at depth l has i = n - 1 - l.

    One binomial-convolution pass.  Its big-integer work is what the
    merges really need: the first merge at every node is free and every
    other merge by rows adds one row per entry of the shorter vector, while
    a node's repeated children (equal vectors, its leaves among them) fold
    in one pass of an exact linear recurrence whenever that is predicted to
    cost fewer products than their rows.  A star, a chain or a root over
    many short equal chains thus costs O(n) products, and a uniform shape
    still grows about 8x per doubling.
    """
    if t.size > PROFILE_FAST_LIMIT:
        raise trees.BudgetError(f"a {t.size}-node term is over the profile cap of "
                                f"{PROFILE_FAST_LIMIT} nodes", t.size, PROFILE_FAST_LIMIT)
    return tuple(_prefix_counts(t))


def _prefix_counts(t: trees.SyntaxTree) -> list[int]:
    """counts[p] = number of run prefixes of length p + 1.

    Bottom-up. For each node, index m of its working vector counts the
    interleaved prefix sequences drawing m actions from its children's
    subtrees (two disjoint sequences of lengths i and j interleave in
    binom(i + j, i) ways); prepending 1 shifts in the node itself.  Read as
    exponential generating functions (EGFs: entry m is the coefficient of
    x^m / m!), a merge is a product, so a node's working vector is the
    product of its children's vectors, taken in any order.

    Merges by rows: a merge copies the longer vector (entry 0 of every
    vector is 1, so that is its row for the shorter vector's entry 0) and
    adds one row per further entry of the shorter one, (shorter - 1) *
    longer products, so the first vector merged into [1] is free.  A row's
    weight other[j] * binom(i + j, j) steps along i by one small multiply
    and one exact small divide, so each row entry costs one product by the
    weight, which stays a few machine words while other[j] is small.

    The fold merges a node's repeated children at once.  Children with
    equal vectors P_i form a group of multiplicity c_i; a leaf's vector is
    [1, 1], so L leaves are the group (1 + x, L) like any other, where the
    recurrence below reduces to q[m + 1] = (L - m) q[m].  Q = prod P_i^c_i
    satisfies D Q' = R Q, where D = prod P_i and R = sum_i c_i P_i'
    prod_{j != i} P_j are built by rows (R <- R P + c P' D, then D <- D P).
    As d[0] = 1, the entries of Q follow one by one, exact and
    division-free:

        q[m + 1] = sum_j q[m - j] (binom(m, j) r[j] - binom(m, j + 1) d[j + 1])

    with binom(m, .) stepped by Pascal's rule.  Its deg Q steps cost about
    deg Q * (deg R + deg D) products.  The fold takes the groups of two or
    more only when that is fewer than the row merges of the same children,
    whose count the vector lengths fix: a root over equally many chains of
    1, 2 and 3 nodes then costs about 11n products instead of O(n^2), while
    two equal 200-node subtrees stay with rows, predicted 4x cheaper.
    Every other child merges by rows.

    Vectors are kept reversed between nodes, so shifting in the node is an
    append and a lone child's vector is taken as it is: a chain costs O(n)
    in all.  Reverse id order finishes a node's children, last first, before
    the node; each waits under its parent's key until the parent pops them.
    Two children merge as they come (the fold never wins there, and the
    first merge is a copy); three or more are grouped in one list, in order
    of first appearance.
    """
    def merged(acc: list[int], other: list[int]) -> list[int]:
        # the binomial convolution by rows of other (other[0] == 1) over
        # acc; they swap only if acc[0] == 1 too, which the fold's R, led by
        # the sum of the multiplicities, need not meet
        if len(acc) < len(other) and acc[0] == 1:
            acc, other = other, acc
        out = acc + [0] * (len(other) - 1)
        for j in range(1, len(other)):
            w = other[j]  # other[j] * binom(i + j, j), here at i = 0
            for i, a in enumerate(acc):
                out[i + j] += a * w
                w = w * (i + j + 1) // (i + 1)
        return out

    parent = t.parent
    waiting: dict[int, list[list[int]]] = {}
    for v in range(t.size, 0, -1):
        kids = waiting.pop(v, ())
        if len(kids) == 1:
            acc = kids[0]
        else:
            acc = [1]
            # two children hold at most an equal pair of length L >= 2, whose
            # rows, L(L - 1), never cost more than its fold, (2L - 2)(2L - 3)
            if len(kids) > 2:
                kids.reverse()  # to child order, which the groups and merges follow
                groups: list[list] = []  # [vector, multiplicity]
                for vec in kids:
                    for g in groups:
                        if g[0] == vec:
                            g[1] += 1
                            break
                    else:
                        groups.append([vec, 1])
                repeated = [g for g in groups if g[1] > 1]
                rows, width, deg = 0, 1, 0  # the row merges of the same children
                for vec, k in repeated:
                    e = len(vec) - 1
                    deg += e
                    # k merges; from the second on, e rows of the current width each
                    rows += ((min(width, e + 1) - 1) * max(width, e + 1)
                             + e * (k - 1) * width + e * e * k * (k - 1) // 2)
                    width += k * e
                # deg Q * (deg R + deg D) products, with deg R = deg D - 1
                if repeated and (width - 1) * (2 * deg - 1) < rows:
                    (p, k), *parts = [(vec[::-1], k) for vec, k in repeated]
                    d, r = p, [k * a for a in p[1:]]
                    for p, k in parts:
                        r = [a + k * b for a, b in zip(merged(r, p), merged(d, p[1:]))]
                        d = merged(d, p)
                    binom = [1] + [0] * deg  # binom(m, j)
                    for m in range(width - 1):
                        q = 0
                        for j in range(min(m + 1, deg) - 1, -1, -1):
                            q += acc[m - j] * (binom[j] * r[j] - binom[j + 1] * d[j + 1])
                            binom[j + 1] += binom[j]  # to binom(m + 1, j + 1), once read
                        acc.append(q)
                    kids = [g[0] for g in groups if g[1] == 1]
            for other in kids:
                other.reverse()
                acc = merged(acc, other)
            acc.reverse()
        acc.append(1)
        if v > 1:
            waiting.setdefault(parent(v), []).append(acc)
    return acc[-2::-1]


def semantic_size(t: trees.SyntaxTree) -> int:
    """Exact node count of the computation tree, without building it: the
    sum of the level profile, so terms over PROFILE_FAST_LIMIT are refused."""
    return sum(level_profile(t))


def semantic_levels(t: trees.SyntaxTree,
                    node_budget: int = SEMANTIC_NODE_BUDGET) -> tuple[int, ...]:
    """Node count per level of the semantic tree of t (level 0 = its root),
    which is the level profile, once the tree is known to fit node_budget.

    Sizes grow factorially, so the tree is refused up front when node_budget
    is under a lower bound: n, a node per level, or 10^k under the run count
    n! / prod |T(v)|, a leaf per run.  Only then is the exact size summed
    from the profile, its entries at most the run count (prefixes of one
    length extend to disjoint runs), so no level is over about ten times
    the budget.
    """
    n = t.size
    if n > node_budget:
        raise trees.BudgetError(f"semantic tree has at least {n} nodes, one per level, over the "
                                f"budget of {node_budget}", n, node_budget)
    log_runs = math.lgamma(n + 1) - math.fsum(map(math.log, t.subtree_sizes()))
    k = max(0, math.floor(log_runs / math.log(10) - 1e-6))  # 10^k stays under despite rounding
    if Decimal(f"1e{k}") > node_budget:
        raise trees.BudgetError(f"semantic tree has at least 10^{k} branches, over the budget of "
                                f"{node_budget} nodes", Decimal(f"1e{k}"), node_budget)
    levels = _prefix_counts(t)
    predicted = sum(levels)
    if predicted > node_budget:
        raise trees.BudgetError(
            f"semantic tree has exactly {predicted} nodes, over the budget of {node_budget}",
            predicted, node_budget)
    return tuple(levels)


def semantic_expansion(t: trees.SyntaxTree) -> tuple[array, array]:
    """The semantic tree of t as two arrays, 16 bytes a node: each node's
    parent (0 for the root) and the syntax node it consumes, by node id - 1.

    Nodes are numbered in preorder.  The root consumes t's root, and every
    node's children consume, left to right, the actions enabled once it is
    done, so each branch is one complete run.  The size is not checked
    here: semantic_levels is the budget check.
    """
    kids = [()] + [t.children(v) for v in range(1, t.size + 1)]
    parents, actions = array("q"), array("q")
    # stack entries: (semantic parent, frontier, index of the node consumed);
    # v's children take v's place, as no other enabled action is in v's subtree
    stack = [(0, (1,), 0)]
    while stack:
        parent_sem, frontier, j = stack.pop()
        v = frontier[j]
        parents.append(parent_sem)
        actions.append(v)
        sem = len(actions)
        nxt = frontier[:j] + kids[v] + frontier[j + 1:]
        for k in range(len(nxt) - 1, -1, -1):
            stack.append((sem, nxt, k))
    return parents, actions


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
    """Calibrated absolute bound for limit_profile's log-scale error.

    LIMIT_PROFILE_ERROR_FACTOR is calibrated, not proven: it is the worst
    error measured on the grid c in {0.1, .., 0.9}, n in {20, 50, 100, 200,
    400}, with a margin, so the bound holds on that grid and is only
    expected to hold elsewhere.
    """
    return LIMIT_PROFILE_ERROR_FACTOR / (c * (1.0 - c) * n)

