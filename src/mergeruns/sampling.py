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
from typing import Iterable, Sequence

from .counts import _ratio
from .trees import SyntaxTree, validate_run_prefix

RNG_ALGORITHM = "mt19937"

# a Fraction from a pair already in lowest terms, skipping the gcd the
# constructor would take (quadratic in the operand length)
try:  # Python >= 3.12
    _coprime_fraction = Fraction._from_coprime_ints
except AttributeError:  # Python 3.10 and 3.11
    def _coprime_fraction(num: int, den: int) -> Fraction:
        return Fraction(num, den, _normalize=False)


class Rng:
    """Seeded source of uniform integers (Mersenne Twister underneath).

    randrange rejects by getrandbits, so draws are unbiased at any size;
    stream(i) derives an independent child generator deterministically.
    Seeds are non-negative: random.Random drops the sign of an int seed, so
    a negative one would alias its absolute value.
    """

    __slots__ = ("seed", "_r")

    def __init__(self, seed: int):
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        self.seed = seed
        self._r = random.Random(seed)

    def uniform_int(self, upper: int) -> int:
        """Uniform integer in 1..upper inclusive."""
        if upper < 1:
            raise ValueError("upper must be at least 1")
        return self._r.randrange(upper) + 1

    def subset(self, population: int, k: int) -> list[int]:
        """Sorted uniform k-subset of {0, ..., population - 1}.

        Partial Fisher-Yates over the full pool: the draw sequence is fixed
        by the seed alone, independent of interpreter version.
        """
        if not 0 <= k <= population:
            raise ValueError("need 0 <= k <= population")
        pool = list(range(population))
        for i in range(k):
            j = i + self._r.randrange(population - i)
            pool[i], pool[j] = pool[j], pool[i]
        return sorted(pool[:k])

    def stream(self, index: int) -> "Rng":
        """Deterministic derived generator for parallel or indexed use.

        The child is seeded by the text "<seed>:<index>", so distinct
        (seed, index) pairs, and streams of streams, get distinct seeds.
        random.Random keys a text by its bytes and their SHA-512 digest, a
        key no small int seed equals.
        """
        child = object.__new__(Rng)
        child.seed = f"{self.seed}:{index}"
        child._r = random.Random(child.seed)
        return child

    def __repr__(self) -> str:
        return f"Rng(seed={self.seed}, algorithm={RNG_ALGORITHM})"


class PartialSumTree:
    """Weighted sampling structure over a fixed entry list.

    Entries sit in a complete binary heap layout in their given order
    (children of slot i are 2i+1 and 2i+2); every slot caches its subtree's
    weight sum, so sampling and weight updates both walk one root path.
    Zero-weight entries stay in place and are simply never drawn.
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
        m = len(items)
        self.below = list(self.weights)
        for i in range(m - 1, 0, -1):
            self.below[(i - 1) >> 1] += self.below[i]

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def total_weight(self) -> int:
        return self.below[0] if self.below else 0

    def weight(self, key) -> int:
        return self.weights[self.slot_of[key]]

    def left_sum(self, slot: int = 0) -> int:
        child = 2 * slot + 1
        return self.below[child] if child < len(self.keys) else 0

    def right_sum(self, slot: int = 0) -> int:
        child = 2 * slot + 2
        return self.below[child] if child < len(self.keys) else 0

    def depth(self) -> int:
        return len(self.keys).bit_length()

    def update(self, key, weight: int) -> int:
        """Set an entry's weight; returns how many slots were touched."""
        if weight < 0:
            raise ValueError(f"negative weight for {key!r}")
        slot = self.slot_of[key]
        delta = weight - self.weights[slot]
        self.weights[slot] = weight
        touched = 1
        i = slot
        self.below[i] += delta
        while i:
            i = (i - 1) >> 1
            self.below[i] += delta
            touched += 1
        return touched

    def sample(self, rng: Rng):
        """Draw a key with probability weight / total_weight."""
        total = self.total_weight
        if total <= 0:
            raise ValueError("total weight is zero, nothing to sample")
        x = rng.uniform_int(total)
        i = 0
        while True:
            left = self.left_sum(i)
            if x <= left:
                i = 2 * i + 1
                continue
            x -= left
            if x <= self.weights[i]:
                return self.keys[i]
            x -= self.weights[i]
            i = 2 * i + 2

    def audit(self) -> bool:
        """Recompute every cached sum; True when all of them check out."""
        m = len(self.keys)
        fresh = list(self.weights)
        for i in range(m - 1, 0, -1):
            fresh[(i - 1) >> 1] += fresh[i]
        return fresh == self.below


# -- exact probabilities ------------------------------------------------------

def prefix_probability(t: SyntaxTree, sigma: Sequence[int]) -> Fraction:
    """Probability that weighted sampling begins with exactly this prefix.

    Exact: the k-th consumed action is chosen among the enabled ones with
    probability (its subtree size) / (actions still pending), and the
    pending count at step k is always n - k + 1 regardless of history.
    The step sizes over the pending counts n - p + 1 .. n - 1 go through
    the prime-exponent kernel counts._ratio, which returns the quotient in
    lowest terms, so no gcd is taken.
    """
    sigma = validate_run_prefix(t, sigma)
    sizes = t.subtree_sizes()
    n, p = t.size, len(sigma)
    num, den = _ratio([sizes[v - 1] for v in sigma[1:]], range(n - p + 1, n), n)
    return _coprime_fraction(num, den)


def count_runs_via_probability(t: SyntaxTree) -> int:
    """Complete-run count recovered as 1 / probability of one fixed run.

    Uses the prefix-traversal run (ids ascending), which every tree has:
    1/rho is the product of the inverted per-step ratios
    (n - k + 1) / |T(sigma_k)|.  This folds a different factor list from
    hook_count's (n - 1 down to 1 over the sizes of the non-root actions)
    through the same kernel, counts._ratio, so the two routes share their
    arithmetic and are not independent checks of each other; the tests
    hold both to a residue oracle that shares none of it.
    """
    sizes = t.subtree_sizes()
    n = t.size
    # steps k = 2..n of the probability product, inverted; the k = 1 ratio
    # is n/n and contributes nothing either way
    den_factors = [sizes[k - 1] for k in range(2, n + 1) if sizes[k - 1] > 1]
    q, den = _ratio(range(n - 1, 0, -1), den_factors, n)
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
    sum.  A draw x = rng.uniform_int(total) descends through the left
    subtree, then the slot, then the right subtree, and every weight change
    walks one root path, exactly as PartialSumTree.sample and .update do,
    so the runs and the generator's state afterwards equal those of the
    same procedure on a PartialSumTree.  It is inlined because a run
    would otherwise build one tree object and make a method call per heap
    level, which cost about half the sampler's time.
    """
    sizes = t.subtree_sizes()
    n = t.size
    draw = rng.uniform_int
    weights = [0] * n
    below = [0] * n
    run = [1]  # the root is the only enabled action, no randomness spent
    v = 1
    for p in range(2, n + 1):
        c = v + 1  # enable the last action's children, as SyntaxTree.children walks them
        end = v + sizes[v - 1]
        while c < end:
            i = c - 1
            w = sizes[i]
            c += w
            weights[i] = w
            below[i] += w
            while i:
                i = (i - 1) >> 1
                below[i] += w
        total = below[0]
        assert total == n - p + 1
        x = draw(total)
        i = 0
        while True:
            left = 2 * i + 1
            if left < n:
                b = below[left]
                if x <= b:
                    i = left
                    continue
                x -= b
            w = weights[i]
            if x <= w:
                break
            x -= w
            i = left + 1
        # retire the drawn action
        weights[i] = 0
        v = i + 1
        below[i] -= w
        while i:
            i = (i - 1) >> 1
            below[i] -= w
        run.append(v)
    return tuple(run)


def uniform_random_tree(n: int, rng: Rng, labels: Sequence[str] | None = None) -> SyntaxTree:
    """A shape of size n drawn uniformly from all catalan(n) shapes.

    A uniform (n-1)-subset of 2n-2 slots encodes a degree word summing to
    n-1; exactly one cyclic rotation of any such word is valid, found after
    the first prefix-sum minimum, and distinct words have disjoint rotation
    classes, so validity correction costs nothing and the result is exact.
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
    best = 0
    acc = 0
    cut = n - 1
    for i, d in enumerate(degrees):
        acc += d - 1
        if acc < best:
            best = acc
            cut = i
    rotated = degrees[cut + 1:] + degrees[:cut + 1]
    return SyntaxTree.from_degree_word(rotated, labels)
