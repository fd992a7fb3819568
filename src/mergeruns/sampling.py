"""Run probabilities and random generation.

Two exact tools (prefix probabilities and the run count recovered from
them) and two samplers: uniform complete runs of a fixed tree via weighted
action choice, and uniform tree shapes via the cycle construction.  All
randomness flows through Rng so every byte of output is reproducible from
the seed, and weighted choices use an updatable partial-sum tree instead of
rebuilding cumulative arrays.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import accumulate, repeat
from operator import sub
from typing import Iterable, Sequence

from . import RNG_ALGORITHM, counts
from .trees import SyntaxTree, validate_run_prefix

# a Fraction from a pair already in lowest terms, skipping the gcd the
# constructor would take (quadratic in the operand length)
try:  # Python >= 3.12
    _coprime_fraction = Fraction._from_coprime_ints
except AttributeError:  # Python 3.10 and 3.11
    def _coprime_fraction(num: int, den: int) -> Fraction:
        return Fraction(num, den, _normalize=False)


class Rng:
    """Seeded source of uniform integers (Mersenne Twister underneath).

    Every draw below m takes k = m.bit_length() bits from getrandbits and
    draws again while the value is m or more, so draws are unbiased at any
    size; stream(i) derives an independent child generator deterministically.
    Seeds are non-negative ints: random.Random drops the sign of an int
    seed, so a negative one would alias its absolute value, and it seeds a
    float or a bool by its value, so 2.0 would alias 2 and True 1.
    """

    __slots__ = ("seed", "_r")

    def __init__(self, seed: int):
        if type(seed) is not int:
            raise TypeError(f"seed must be an int, got {seed!r}")
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        self.seed = seed
        self._r = random.Random(seed)

    def uniform_int(self, upper: int) -> int:
        """Uniform integer in 1..upper inclusive.

        The rejection loop of random.Random._randbelow_with_getrandbits,
        run over the public getrandbits: the draws and the generator state
        are those of randrange(upper) + 1, without its two Python frames.
        subset and sample_run run the same loop in line, with no call per
        draw.
        """
        if upper < 1:
            raise ValueError("upper must be at least 1")
        getrandbits = self._r.getrandbits
        k = upper.bit_length()
        r = getrandbits(k)
        while r >= upper:
            r = getrandbits(k)
        return r + 1

    def subset(self, population: int, k: int) -> list[int]:
        """Sorted uniform k-subset of {0, ..., population - 1}.

        Partial Fisher-Yates over the full pool, each swap index drawn by
        uniform_int's rejection loop over getrandbits: the draw sequence is
        fixed by the seed and MT19937's core alone, independent of
        interpreter version.
        """
        if not 0 <= k <= population:
            raise ValueError("need 0 <= k <= population")
        getrandbits = self._r.getrandbits
        pool = list(range(population))
        for i in range(k):
            m = population - i
            bits = m.bit_length()
            r = getrandbits(bits)
            while r >= m:
                r = getrandbits(bits)
            j = i + r
            pool[i], pool[j] = pool[j], pool[i]
        return sorted(pool[:k])

    def stream(self, index: int) -> "Rng":
        """Deterministic derived generator for parallel or indexed use.

        The child is seeded by the text "<seed>:<index>" of an int index, so
        distinct (seed, index) pairs, and streams of streams, get distinct
        seeds.  random.Random keys a text by its bytes and their SHA-512
        digest, a key no small int seed equals.
        """
        if type(index) is not int:
            raise TypeError(f"index must be an int, got {index!r}")
        child = object.__new__(Rng)
        child.seed = f"{self.seed}:{index}"
        child._r = random.Random(child.seed)
        return child

    def __repr__(self) -> str:
        return f"Rng(seed={self.seed}, algorithm={RNG_ALGORITHM})"


class PartialSumTree:
    """The weighted multiset: update an entry's weight, sample an entry
    with probability weight / total_weight, and audit the cached sums.

    Entries sit in a complete binary heap layout in their given order
    (children of slot i are 2i+1 and 2i+2): ``weights[i]`` is slot i's own
    weight and ``below[i]`` its subtree's sum, so sampling and weight
    updates both walk one root path.  Zero-weight entries are never drawn.
    """

    __slots__ = ("keys", "weights", "below", "slot_of")

    def __init__(self, entries: Iterable[tuple[object, int]]):
        items = list(entries)
        self.keys = tuple(k for k, _ in items)
        self.slot_of = {k: i for i, k in enumerate(self.keys)}
        if len(self.slot_of) != len(self.keys):
            raise ValueError("duplicate entry keys")
        self.weights = []
        for k, w in items:
            if w < 0:
                raise ValueError(f"negative weight for {k!r}")
            self.weights.append(w)
        self.below = list(self.weights)
        for i in range(len(items) - 1, 0, -1):
            self.below[(i - 1) >> 1] += self.below[i]

    @property
    def total_weight(self) -> int:
        return self.below[0] if self.below else 0

    def update(self, key, weight: int) -> int:
        """Set an entry's weight; returns how many slots it touched, its root path's."""
        if weight < 0:
            raise ValueError(f"negative weight for {key!r}")
        slot = self.slot_of[key]
        delta = weight - self.weights[slot]
        self.weights[slot] = weight
        i = slot + 1                # slot i - 1, whose parent is slot (i >> 1) - 1
        while i:
            self.below[i - 1] += delta
            i >>= 1
        return (slot + 1).bit_length()

    def sample(self, rng: Rng):
        """Draw a key with probability weight / total_weight."""
        total = self.total_weight
        if total <= 0:
            raise ValueError("total weight is zero, nothing to sample")
        x = rng.uniform_int(total)
        weights, below = self.weights, self.below
        m = len(weights)
        i = 0
        while True:
            left = 2 * i + 1
            if left < m:
                b = below[left]
                if x <= b:
                    i = left
                    continue
                x -= b
            w = weights[i]
            if x <= w:
                return self.keys[i]
            x -= w
            i = left + 1

    def audit(self) -> bool:
        """Recompute every cached sum; True when all of them check out."""
        return PartialSumTree(zip(self.keys, self.weights)).below == self.below


# -- exact probabilities ------------------------------------------------------

def prefix_probability(t: SyntaxTree, sigma: Sequence[int]) -> Fraction:
    """Probability that weighted sampling begins with exactly this prefix.

    Exact: the k-th consumed action is chosen among the enabled ones with
    probability (its subtree size) / (actions still pending), and the
    pending count at step k is always n - k + 1 regardless of history.
    The pending counts of steps 2..p make (n - 1)! / (n - p)!, so the
    probability inverts counts._ratio(step sizes, n - 1, n - p), which the
    prime-exponent kernel returns in lowest terms with no gcd.
    """
    sigma = validate_run_prefix(t, sigma)
    sizes = t.subtree_sizes()
    n, p = t.size, len(sigma)
    den, num = counts._ratio([sizes[v - 1] for v in sigma[1:]], n - 1, n - p)
    return _coprime_fraction(num, den)


def count_runs_via_probability(t: SyntaxTree) -> int:
    """Complete-run count recovered as 1 / probability of one fixed run.

    Uses the prefix-traversal run (ids ascending), which every tree has:
    1/rho is the product of the inverted per-step ratios
    (n - k + 1) / |T(sigma_k)| over steps k = 2..n (step 1's n / n is 1),
    that is (n - 1)! / prod |T(v)| over the non-root actions, taken as
    counts._ratio(sizes[1:], n - 1, 0).  This is hook_count's quotient with
    the root's factor n cancelled, through the same kernel, so it is no
    independent check of hook_count: the independent check of the count is
    the count command's residue mod 2^61 - 1, and the tests hold both
    routes to a residue oracle that shares no arithmetic.
    """
    sizes = t.subtree_sizes()
    n = t.size
    q, den = counts._ratio(sizes[1:], n - 1, 0)
    assert den == 1
    return q


# -- samplers -----------------------------------------------------------------

def sample_run(t: SyntaxTree, rng: Rng) -> tuple[int, ...]:
    """One complete run of t, uniform over all its runs.

    A weighted multiset over all node ids holds the enabled actions at
    their subtree sizes, disabled ids at weight 0.  The root is appended
    outright since it is forced, and its children enabled; each of the
    n - 1 later rounds draws an enabled action with probability
    weight/total, zeroes it and enables its children.  Before the p-th
    action is chosen the total pending weight is always n - p + 1.

    The multiset is PartialSumTree's heap written out inline: id v sits in
    slot v - 1, the children of slot i are 2i + 1 and 2i + 2,
    ``weights[i]`` is the slot's own weight and ``below[i]`` its subtree's
    sum.  A draw x = rng.uniform_int(total) - 1, Rng.uniform_int's
    rejection loop run in line over the generator's getrandbits, descends
    through the left subtree, then the slot, then the right subtree,
    exactly as PartialSumTree.sample does with x + 1.  The drawn slot i is
    retired at the start of the next round, together with enabling the new
    action's first child, which sits in slot i + 1: the two root paths are
    walked up together, the larger index moving up each time, i's side
    losing the drawn weight and the child's side gaining its own, and from
    the slot where they meet up to the root the net change is added once.
    The other children, and a drawn leaf's retirement, walk one root path
    each as PartialSumTree.update does.  The sums before every draw are those of
    the same procedure on a PartialSumTree, so the runs and the generator's
    state afterwards equal that route's.  It is inlined because a run
    would otherwise build one tree object, with a key map it never needs,
    and make a method call per enabled action and per draw; as it is, a
    step calls no Python function.
    """
    sizes = t.subtree_sizes()
    n = t.size
    getrandbits = rng._r.getrandbits
    weights = [0] * n
    below = [0] * n
    run = [1]  # the root is the only enabled action, no randomness spent
    # the action drawn last and its weight: the root, in slot 0 at weight 0,
    # so retiring it changes no sum
    i = w = 0
    for p in range(2, n + 1):
        # retire slot i and enable action v = i + 1's children, as
        # SyntaxTree.children walks them
        weights[i] = 0
        c = i + 2
        end = i + 1 + sizes[i]
        if c < end:
            # the first child, in slot b = i + 1: both paths up to where
            # they meet, then the net change on up to the root
            b = i + 1
            cw = sizes[b]
            weights[b] = cw
            c += cw
            while i != b:
                if i < b:
                    below[b] += cw
                    b = (b - 1) >> 1
                else:
                    below[i] -= w
                    i = (i - 1) >> 1
            d = cw - w
            below[i] += d
            while i:
                i = (i - 1) >> 1
                below[i] += d
            while c < end:
                i = c - 1
                cw = sizes[i]
                c += cw
                weights[i] = cw
                below[i] += cw
                while i:
                    i = (i - 1) >> 1
                    below[i] += cw
        else:
            below[i] -= w
            while i:
                i = (i - 1) >> 1
                below[i] -= w
        total = below[0]
        assert total == n - p + 1
        # x = rng.uniform_int(total) - 1, its rejection loop run in line
        k = total.bit_length()
        x = getrandbits(k)
        while x >= total:
            x = getrandbits(k)
        i = 0
        while True:
            left = 2 * i + 1
            if left < n:
                b = below[left]
                if x < b:
                    i = left
                    continue
                x -= b
            w = weights[i]
            if x < w:
                break
            x -= w
            i = left + 1
        run.append(i + 1)
    return tuple(run)


def uniform_random_tree(n: int, rng: Rng, labels: Sequence[str] | None = None) -> SyntaxTree:
    """A shape of size n drawn uniformly from all catalan(n) shapes: the
    tree of _uniform_degree_word(n, rng), through
    SyntaxTree.from_degree_word."""
    return SyntaxTree.from_degree_word(_uniform_degree_word(n, rng), labels)


def _uniform_degree_word(n: int, rng: Rng) -> list[int]:
    """The prefix-traversal degree word of a shape of size n, drawn
    uniformly from all catalan(n) shapes.

    A uniform (n-1)-subset of 2n-2 slots encodes a degree word summing to
    n-1; exactly one cyclic rotation of any such word is valid, found after
    the first prefix-sum minimum, and distinct words have disjoint rotation
    classes, so validity correction costs nothing and the result is exact.
    gen writes its terms and records straight from this word.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    degrees = [0] * n
    # the j-th chosen slot at pos has pos - j unchosen ones (bars) before
    # it, so it adds a child to block pos - j
    for j, pos in enumerate(rng.subset(2 * n - 2, n - 1)):
        degrees[pos - j] += 1
    # rotate to the unique valid word: start right after the first minimum
    # of the running sum of (degree - 1)
    acc = list(accumulate(map(sub, degrees, repeat(1))))
    cut = acc.index(min(acc)) + 1
    return degrees[cut:] + degrees[:cut]
