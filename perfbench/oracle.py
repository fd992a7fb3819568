"""Reference values the benchmark computes apart from the program.

Large values are compared modulo a few primes; closed forms and brute force
are used where they exist.  Nothing here imports mergeruns.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp

from shapes import children_lists, parents_from_degrees, subtree_sizes

# 2^61 - 1 and two well-known NTT primes; all larger than any node count
PRIMES = (2305843009213693951, 1000000007, 998244353)

# chi-square quantiles at 0.999 for 7 and 13 degrees of freedom
CHI2_Q999 = {7: 24.3219, 13: 34.5282}


def residues(x: int) -> list[int]:
    return [x % p for p in PRIMES]


def hook_residues(parents: list[int]) -> list[int]:
    """Run count n! / prod |T(v)| modulo each prime."""
    sizes = subtree_sizes(parents)
    out = []
    for p in PRIMES:
        num = den = 1
        for k in range(2, len(parents) + 1):
            num = num * k % p
        for s in sizes:
            den = den * s % p
        out.append(num * pow(den, p - 2, p) % p)
    return out


def exact_count(parents: list[int]) -> int:
    sizes = subtree_sizes(parents)
    return math.factorial(len(parents)) // math.prod(sizes)


def prefix_factors(parents: list[int], prefix: list[int]) -> tuple[list[int], list[int]]:
    """Residues of A and B with probability(prefix) = A / B.

    A = prod |T(sigma_k)| and B = prod (n - k + 1) over k = 2..len(prefix):
    the k-th fired action is picked with weight |T(sigma_k)| out of the
    n - k + 1 actions still pending.
    """
    sizes = subtree_sizes(parents)
    n = len(parents)
    a_res, b_res = [], []
    for p in PRIMES:
        a = b = 1
        for k in range(2, len(prefix) + 1):
            a = a * sizes[prefix[k - 1] - 1] % p
            b = b * (n - k + 1) % p
        a_res.append(a)
        b_res.append(b)
    return a_res, b_res


def prefix_matches(num_res, den_res, a_res, b_res) -> bool:
    """num / den == A / B, checked as num * B == den * A modulo each prime."""
    return all((x * b - y * a) % p == 0
               for x, y, a, b, p in zip(num_res, den_res, a_res, b_res, PRIMES))


def exact_prefix_probability(parents: list[int], prefix: list[int]) -> Fraction:
    sizes = subtree_sizes(parents)
    n = len(parents)
    rho = Fraction(1)
    for k in range(2, len(prefix) + 1):
        rho *= Fraction(sizes[prefix[k - 1] - 1], n - k + 1)
    return rho


def is_run(parents: list[int], ids: list[int]) -> bool:
    """Whether ids fire every node exactly once, each after its parent."""
    n = len(parents)
    if len(ids) != n:
        return False
    seen = [False] * (n + 1)
    for v in ids:
        if not 1 <= v <= n or seen[v]:
            return False
        p = parents[v - 1]
        if p and not seen[p]:
            return False
        if not p and v != 1:
            return False
        seen[v] = True
    return True


# -- profiles -----------------------------------------------------------------

def first_levels(parents: list[int]) -> list[int]:
    """Prefix counts of lengths 1, 2 and 3 (as far as the tree reaches).

    Length 2: the root, then one of its r children.  Length 3: after child
    c the enabled set is the r - 1 other children plus c's own children.
    """
    kids = children_lists(parents)
    r = len(kids[1])
    out = [1, r, sum(r - 1 + len(kids[c]) for c in kids[1])]
    return out[:len(parents)]


def star_profile(n: int) -> list[int]:
    """Falling factorials (n - 1)(n - 2)...(n - l) for l = 0..n-1."""
    out, acc = [], 1
    for level in range(n):
        out.append(acc)
        acc *= n - 1 - level
    return out


def brute_profile(parents: list[int]) -> list[int]:
    """Distinct run prefixes per length, by enumerating every prefix."""
    kids = children_lists(parents)
    n = len(parents)
    counts = [0] * n
    stack = [(1, tuple(kids[1]))]
    while stack:
        length, enabled = stack.pop()
        counts[length - 1] += 1
        for i, v in enumerate(enabled):
            stack.append((length + 1, enabled[:i] + enabled[i + 1:] + tuple(kids[v])))
    return counts


def all_runs(parents: list[int]) -> list[tuple[int, ...]]:
    kids = children_lists(parents)
    out = []
    stack = [((1,), tuple(kids[1]))]
    while stack:
        run, enabled = stack.pop()
        if not enabled:
            out.append(run)
        for i, v in enumerate(enabled):
            stack.append((run + (v,), enabled[:i] + enabled[i + 1:] + tuple(kids[v])))
    return out


def all_shapes(n: int) -> list[list[int]]:
    """Every plane tree with n nodes (small n only), as parent lists."""
    words: list[list[int]] = []

    def grow(word, open_slots):
        left = n - len(word)
        if left == 0:
            if open_slots == 0:
                words.append(list(word))
            return
        for d in range(left):
            after = open_slots - 1 + d
            if after < 0 or after > left - 1 or (after == 0 and left > 1):
                continue
            word.append(d)
            grow(word, after)
            word.pop()

    grow([], 1)
    return [parents_from_degrees(w) for w in words]


def chi2(observed: dict, categories: int, draws: int) -> float:
    """Pearson statistic against the uniform law on `categories` outcomes."""
    expected = draws / categories
    seen = sum((c - expected) ** 2 / expected for c in observed.values())
    return seen + (categories - len(observed)) * expected


# -- counting sequences ---------------------------------------------------------

def catalan(n: int) -> int:
    """Plane trees with n nodes, by the ballot difference."""
    m = n - 1
    return math.comb(2 * m, m) - math.comb(2 * m, m + 1)


def increasing(n: int) -> int:
    """Runs summed over all shapes of size n: the odd double factorial (2n-3)!!."""
    return math.prod(range(1, 2 * n - 2, 2))


def mean_width(n: int) -> Fraction:
    return Fraction(increasing(n), catalan(n))


def mean_size(n: int) -> Fraction:
    """Average computation-tree size over shapes of size n.

    A prefix of length k ends at a cut, a root-containing subtree S of k
    nodes, in hook(S) ways; summed over S that is increasing(k).  Trees of
    size n holding a given S as their cut have generating function
    T^k / (1 - T)^(k - 1) = T^(2k - 1) / z^(k - 1) with T = z / (1 - T),
    whose coefficient follows from Lagrange inversion.
    """
    if n == 0:
        return Fraction(0)
    total = Fraction(0)
    for k in range(1, n + 1):
        m, r = n + k - 1, 2 * k - 1
        trees_with_cut = Fraction(r * math.comb(2 * m - r - 1, m - 1), m)
        total += increasing(k) * trees_with_cut
    return total / catalan(n)


def r_seq(n: int) -> Fraction:
    if n == 0:
        return Fraction(0)
    return mean_size(n) * 2 ** (n - 1) / math.factorial(n)


def nonplane_seq(N: int) -> list[int]:
    """Rooted unordered trees with 1..N nodes (index 0 unused).

    a(m + 1) = (1/m) sum_{k=1..m} s(k) a(m - k + 1), s(k) = sum_{d | k} d a(d),
    each s(k) summed over the divisors of k found up to sqrt(k).
    """
    a = [0] * (N + 1)
    s = [0] * (N + 1)
    if N >= 1:
        a[1] = 1
    for m in range(1, N):
        s[m] = sum(d * a[d] for d in _divisors(m))
        a[m + 1] = sum(s[k] * a[m - k + 1] for k in range(1, m + 1)) // m
    return a


def _divisors(m: int) -> list[int]:
    small = [d for d in range(1, math.isqrt(m) + 1) if m % d == 0]
    return sorted(set(small + [m // d for d in small]))


def geomean(n: int, digits: int = 30) -> mp.mpf:
    """Geometric mean of run counts over shapes of size n.

    ln hook(T) = ln n! - sum_v ln |T(v)|.  Marking the node whose subtree
    has k nodes and cutting that subtree off to a leaf gives a tree of
    n - k + 1 nodes with a marked leaf; plane trees of m nodes carry
    binom(2m - 2, m - 1) / 2 leaves in total (one when m = 1).
    """
    with mp.workdps(digits):
        cn = catalan(n)
        total = mp.mpf(0)
        for k in range(2, n + 1):
            m = n - k + 1
            leaves = 1 if m == 1 else math.comb(2 * m - 2, m - 1) // 2
            expected = Fraction(catalan(k) * leaves, cn)
            total += (1 - mp.mpf(expected.numerator) / expected.denominator) * mp.log(k)
        return mp.exp(total)


def m_cuts_seq(N: int) -> list[int]:
    """Nonempty root-containing subtrees summed over all shapes, sizes 0..N.

    With node weight T and an extra 1 / (1 - T) per kept edge (the gaps
    between kept children hold any sequence of dropped subtrees), the
    series M satisfies M (1 - T - M) = T (1 - T); solved term by term.
    """
    t = [0] + [catalan(n) for n in range(1, N + 1)]
    a = [1] + [-x for x in t[1:]]                       # 1 - T
    ta = [sum(t[i] * a[n - i] for i in range(n + 1)) for n in range(N + 1)]
    m = [0] * (N + 1)
    for n in range(1, N + 1):
        m[n] = (ta[n] - sum(m[k] * a[n - k] for k in range(1, n))
                + sum(m[k] * m[n - k] for k in range(1, n)))
    return m
