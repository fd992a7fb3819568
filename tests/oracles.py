"""Brute-force reference implementations used only by the tests.

Everything here works on plain nested tuples (a shape is a tuple of child
shapes), parent arrays or term text, and never calls into the package, so
agreement between these routines and the library is a genuine cross-check,
not a tautology.  The one exception is sample_run_pst, the run sampler as
first written on the package's PartialSumTree: a draw-for-draw reference for
the inlined heap of sampling.sample_run, not an independent oracle.
"""

import math
import re
from fractions import Fraction
from functools import lru_cache
from itertools import count


# -- shapes as nested tuples --------------------------------------------------

@lru_cache(maxsize=None)
def all_forests(total: int) -> tuple:
    """All ordered forests with the given total node count."""
    if total == 0:
        return ((),)
    out = []
    for first_size in range(1, total + 1):
        for first in all_shapes(first_size):
            for rest in all_forests(total - first_size):
                out.append((first,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def all_shapes(n: int) -> tuple:
    """All plane rooted trees with n nodes, built recursively."""
    if n < 1:
        return ()
    return all_forests(n - 1)


def shape_size(shape) -> int:
    return 1 + sum(shape_size(ch) for ch in shape)


def preorder_labelled(shape, labels=None):
    """Assign ids 1..n in preorder; returns {id: (label, parent_id, child_ids)}."""
    nodes = {}
    counter = count(1)

    def walk(sub, parent):
        v = next(counter)
        kids = []
        nodes[v] = [None, parent, kids]
        for ch in sub:
            kids.append(walk(ch, v))
        return v

    walk(shape, 0)
    for v in nodes:
        nodes[v][0] = labels[v - 1] if labels else spreadsheet_label(v - 1)
    return {v: tuple(entry) for v, entry in nodes.items()}


def spreadsheet_label(i: int) -> str:
    s = ""
    i += 1
    while i:
        i, r = divmod(i - 1, 26)
        s = chr(ord("a") + r) + s
    return s


def to_term(shape, labels=None) -> str:
    """Render a shape in the process syntax with preorder default labels."""
    nodes = preorder_labelled(shape, labels)

    def render(v):
        label, _, kids = nodes[v]
        if not kids:
            return label
        if len(kids) == 1:
            return f"{label}.{render(kids[0])}"
        return label + ".(" + " || ".join(render(k) for k in kids) + ")"

    return render(1)


def nested_record(shape, labels=None) -> dict:
    """The nested record {"label": ..., "children": [...]} of a shape, labels
    given in preorder (spreadsheet names by default): what a tree's JSON
    output serializes."""
    nodes = preorder_labelled(shape, labels)

    def record(v):
        label, _, kids = nodes[v]
        return {"label": label, "children": [record(k) for k in kids]}

    return record(1)


# -- runs by exhaustive interleaving ------------------------------------------

def all_runs(shape) -> list:
    """Every run (linear extension) as a tuple of preorder ids."""
    nodes = preorder_labelled(shape)
    n = len(nodes)
    out = []

    def extend(run, available):
        if len(run) == n:
            out.append(tuple(run))
            return
        for v in sorted(available):
            nxt = available - {v}
            nxt |= set(nodes[v][2])
            run.append(v)
            extend(run, nxt)
            run.pop()

    extend([], {1})
    return out


def run_count(shape) -> int:
    return len(all_runs(shape))


def prefix_probability(shape, prefix) -> Fraction:
    """Fraction of runs starting with the given id sequence."""
    runs = all_runs(shape)
    hits = sum(1 for r in runs if r[: len(prefix)] == tuple(prefix))
    return Fraction(hits, len(runs))


# -- profiles via the run trie ------------------------------------------------

def profile_via_trie(shape) -> tuple:
    """Distinct run prefixes per length; length-(l+1) count lands at index l."""
    n = shape_size(shape)
    prefixes = [set() for _ in range(n)]
    for run in all_runs(shape):
        for l in range(n):
            prefixes[l].add(run[: l + 1])
    return tuple(len(s) for s in prefixes)


def semantic_size_via_trie(shape) -> int:
    return sum(profile_via_trie(shape))


# -- an expanded semantic tree, counted off its arrays ---------------------------
# parents[v - 1] is the parent of node v (0 for the root) and actions[v - 1]
# the syntax node v consumes, nodes numbered in preorder

def level_counts(parents) -> tuple:
    """Nodes per depth, level 0 = root, in one pass over the parents: a
    preorder parent comes before its children, so its depth is known and
    each depth is first counted after the one above it."""
    depths = [-1]  # depths[0] belongs to the root's parent, 0
    counts: dict = {}
    for p in parents:
        depths.append(depths[p] + 1)
        counts[depths[-1]] = counts.get(depths[-1], 0) + 1
    return tuple(counts.values())


def leaf_count(parents) -> int:
    # the distinct parents are the inner nodes and the root's parent 0
    return len(parents) - len(set(parents)) + 1


def branches(parents, actions) -> list:
    """Each root-to-leaf branch as the consumed syntax-node ids, by leaf."""
    inner = set(parents)
    out = []
    for leaf in range(1, len(parents) + 1):
        if leaf in inner:
            continue
        path = []
        v = leaf
        while v:
            path.append(actions[v - 1])
            v = parents[v - 1]
        out.append(tuple(reversed(path)))
    return out


# -- admissible cuts ----------------------------------------------------------

def all_cuts(shape) -> list:
    """Nonempty prefix-closed node sets containing the root, as sorted tuples."""
    nodes = preorder_labelled(shape)

    def grow(chosen, frontier):
        yield tuple(sorted(chosen))
        frontier = sorted(frontier)
        for i, v in enumerate(frontier):
            # fix an order to avoid duplicates: add v, then only allow
            # later frontier nodes or v's own children
            yield from grow(chosen | {v},
                            set(frontier[i + 1:]) | set(nodes[v][2]))

    return list(grow({1}, set(nodes[1][2])))


def cut_count(shape) -> int:
    """Number of nonempty admissible cuts."""
    return len(all_cuts(shape))


def induced_shape(shape, members) -> tuple:
    """The sub-shape induced by a prefix-closed member set."""
    nodes = preorder_labelled(shape)
    member_set = set(members)

    def build(v):
        return tuple(build(k) for k in nodes[v][2] if k in member_set)

    return build(1)


def profile_via_cuts(shape) -> tuple:
    """Run-prefix counts per length, summing run counts of induced cuts."""
    n = shape_size(shape)
    acc = [0] * n
    for members in all_cuts(shape):
        acc[len(members) - 1] += run_count(induced_shape(shape, members))
    return tuple(acc)


# -- large trees as parent lists ---------------------------------------------
#
# parents[v - 1] is the parent id of node v in preorder, 0 for the root, so
# every parent id is smaller than its child's.

# three 61-bit primes, each above every node count the tests use, so every
# factor of a run count or of a prefix probability is a unit modulo each
RESIDUE_PRIMES = (2 ** 61 - 1, 2 ** 61 - 31, 2 ** 61 - 45)


def sizes_from_parents(parents) -> list:
    """Subtree sizes |T(v)|, indexed by v - 1."""
    sizes = [1] * len(parents)
    for v in range(len(parents), 1, -1):
        sizes[parents[v - 1] - 1] += sizes[v - 1]
    return sizes


def hook_residues(parents) -> list:
    """The run count n! (prod |T(v)|)^-1 modulo each residue prime.

    Word-sized modular arithmetic only: the big integer is never formed,
    so this shares no arithmetic with the library's exact routes.
    """
    sizes = sizes_from_parents(parents)
    out = []
    for p in RESIDUE_PRIMES:
        fact = den = 1
        for k in range(2, len(parents) + 1):
            fact = fact * k % p
        for s in sizes:
            den = den * s % p
        out.append(fact * pow(den, -1, p) % p)
    return out


def prefix_probability_sequential(parents, prefix) -> Fraction:
    """The step ratios |T(sigma_k)| / (n - k + 1), k = 2..p, multiplied one
    at a time as Fractions, each product reduced on the spot."""
    sizes = sizes_from_parents(parents)
    n = len(parents)
    rho = Fraction(1)
    for k in range(2, len(prefix) + 1):
        rho *= Fraction(sizes[prefix[k - 1] - 1], n - k + 1)
    return rho


def prefix_counts_pairwise(parents) -> list:
    """Run prefixes per length, entry p counting those of length p + 1.

    The first exact profile route: bottom-up, each child's vector merged
    into the node's by the full pairwise binomial convolution (two disjoint
    sequences of lengths i and j interleave in binom(i + j, i) ways), one
    merge per child in child order.
    """
    n = len(parents)
    kids = [[] for _ in range(n + 1)]
    for v in range(2, n + 1):
        kids[parents[v - 1]].append(v)
    vecs = [None] * (n + 1)
    for v in range(n, 0, -1):
        acc = [1]
        for c in kids[v]:
            other = vecs[c]
            vecs[c] = None
            merged = [0] * (len(acc) + len(other) - 1)
            for i, a in enumerate(acc):
                if not a:
                    continue
                for j, b in enumerate(other):
                    merged[i + j] += a * b * math.comb(i + j, j)
            acc = merged
        vecs[v] = [1] + acc
    return vecs[1][1:]


# -- the term parser and the tree check, as first written ---------------------
#
# The library's parser and SyntaxTree constructor were rewritten for speed;
# these are the original versions, kept as the reference they must agree
# with.  The parser returns (labels, parents) instead of a SyntaxTree and
# raises its own ParseError with the library's message format.

FOREST_ROOT_LABEL = "#root"


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN = re.compile(r"(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<dot>\.)|(?P<open>\()|(?P<close>\))|(?P<par>\|\|)")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while True:
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos == len(text):
            break
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos] == "|":
                raise ParseError("single '|' is not an operator, expected '||'", pos)
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


def parse_process(text: str, allow_forest: bool = False) -> tuple:
    """Parse a process term into its syntax tree.

    Grammar:
        process  := prefixed
        prefixed := action [ "." tail ]
        tail     := prefixed | "(" parallel ")"
        parallel := prefixed { "||" prefixed }
        action   := [A-Za-z_][A-Za-z0-9_]*

    Whitespace is insignificant.  A bare parallel composition at top level is
    a syntax error unless allow_forest is set, in which case the components
    are attached under a synthetic root labelled "#root" (that label is
    reserved and cannot be written in input).
    """
    tokens = _tokenize(text)
    if tokens[0][0] == "end":
        raise ParseError("empty input", 0)

    # detect a parallel bar at paren depth 0 so the synthetic root gets id 1
    depth = 0
    top_par_pos = None
    for kind, _, pos in tokens:
        if kind == "open":
            depth += 1
        elif kind == "close":
            depth = max(0, depth - 1)
        elif kind == "par" and depth == 0 and top_par_pos is None:
            top_par_pos = pos
    wrapped = False
    labels: list[str] = []
    parents: list[int] = []
    if top_par_pos is not None:
        if not allow_forest:
            raise ParseError("parallel composition at top level needs forest mode", top_par_pos)
        labels.append(FOREST_ROOT_LABEL)
        parents.append(0)
        wrapped = True

    NEED_TERM, NEED_TAIL, AFTER_NAME, AFTER_GROUP = range(4)
    state = NEED_TERM
    pending = 1 if wrapped else 0   # parent id for the next created node
    current = 0                     # most recent plain action node
    frames: list[int] = []          # parent ids of open parallel groups

    for kind, value, pos in tokens:
        if state == NEED_TERM:
            if kind != "name":
                raise ParseError("expected an action name", pos)
            labels.append(value)
            parents.append(pending)
            current = len(labels)
            state = AFTER_NAME
        elif state == NEED_TAIL:
            if kind == "name":
                labels.append(value)
                parents.append(pending)
                current = len(labels)
                state = AFTER_NAME
            elif kind == "open":
                frames.append(pending)
                state = NEED_TERM
            else:
                raise ParseError("expected an action name or '('", pos)
        else:  # AFTER_NAME or AFTER_GROUP
            if kind == "dot":
                if state == AFTER_GROUP:
                    raise ParseError("'.' cannot follow a closed parallel group", pos)
                pending = current
                state = NEED_TAIL
            elif kind == "par":
                pending = frames[-1] if frames else 1
                state = NEED_TERM
            elif kind == "close":
                if not frames:
                    raise ParseError("unmatched ')'", pos)
                frames.pop()
                state = AFTER_GROUP
            elif kind == "end":
                if frames:
                    raise ParseError("unclosed '('", pos)
                return tuple(labels), tuple(parents)
            else:
                raise ParseError(f"unexpected {value!r}", pos)
    raise AssertionError("tokenizer guarantees an end token")


def tree_check(parents) -> tuple:
    """The SyntaxTree constructor's checks on a parent array, by building the
    child lists and comparing a depth-first traversal with 1..n; returns the
    child lists, or raises ValueError with the constructor's message."""
    parents = tuple(parents)
    n = len(parents)
    if n == 0:
        raise ValueError("a tree has at least one node")
    if parents[0] != 0:
        raise ValueError("the root (id 1) must have parent 0")
    kids = [[] for _ in range(n + 1)]
    for v in range(2, n + 1):
        p = parents[v - 1]
        if not 1 <= p < v:
            raise ValueError(f"parent of node {v} must be an earlier node id")
        kids[p].append(v)
    # ids must be a genuine preorder numbering
    order = []
    stack = [1]
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(reversed(kids[v]))
    if order != list(range(1, n + 1)):
        raise ValueError("node ids are not in prefix-traversal order")
    return tuple(tuple(k) for k in kids[1:])


# -- misc ---------------------------------------------------------------------

def r_recurrence(N: int) -> list:
    """The normalized sizes R_n = mean_size(n) 2^(n-1) / n!, n = 0..N, by
    their own four-term recurrence rather than by normalizing mean sizes."""
    r = [Fraction(0), Fraction(1), Fraction(2)]
    for k in range(0, N - 2):
        b0 = -16 * k
        b1 = 4 * (4 * k ** 2 + 12 * k + 3)
        b2 = -2 * (2 * k ** 3 + 18 * k ** 2 + 31 * k + 13)
        b3 = 4 * k ** 3 + 20 * k ** 2 + 31 * k + 15
        r.append(-(b0 * r[k] + b1 * r[k + 1] + b2 * r[k + 2]) / b3)
    return r


def unordered_key(shape) -> tuple:
    """Canonical form of a shape up to the order of siblings."""
    return tuple(sorted(unordered_key(ch) for ch in shape))


def degree_word(shape) -> tuple:
    """Preorder child counts."""
    out = []

    def walk(sub):
        out.append(len(sub))
        for ch in sub:
            walk(ch)

    walk(shape)
    return tuple(out)


def degree_word_fault(word):
    """The message the degree-word decoder gives for word, or None when
    word is a degree word, from a running count of the empty child slots."""
    if not word:
        return "empty degree word"
    empty = 1       # the slot the root fills
    for v, d in enumerate(word, start=1):
        if d < 0:
            return f"negative degree at position {v}"
        if empty == 0:
            return f"degree word closes early at position {v}"
        empty += d - 1
    if empty:
        return f"degree word leaves {empty} unfilled child slots at position {len(word)}"
    return None


# -- the flat-array sampler and the direct log-constant sum ------------------
#
# naive_sample is the reference the partial-sum tree is compared with; it
# draws through any object with a uniform_int(upper) method (the library's
# Rng) and raises its own BudgetError, with .predicted and .budget.

NAIVE_SAMPLE_LIMIT = 10 ** 7


class BudgetError(RuntimeError):
    def __init__(self, message: str, predicted, budget):
        super().__init__(message)
        self.predicted = predicted
        self.budget = budget


def naive_sample(entries, rng):
    """One weighted draw the dumb way: materialize the multiset flat.

    Every key is repeated weight times in one array and a single position
    is drawn, so the cost per draw is the total weight, which is therefore
    capped.  The differential-testing reference for the partial-sum tree.
    """
    total = 0
    for k, w in entries:
        if w < 0:
            raise ValueError(f"negative weight for {k!r}")
        total += w
    if total <= 0:
        raise ValueError("total weight is zero, nothing to sample")
    if total > NAIVE_SAMPLE_LIMIT:
        raise BudgetError("flat multiset array would be too large",
                          total, NAIVE_SAMPLE_LIMIT)
    flat = []
    for k, w in entries:
        flat.extend([k] * w)
    return flat[rng.uniform_int(total) - 1]


def sample_run_pst(t, rng) -> tuple:
    """One uniform complete run of the SyntaxTree t, drawn through
    sampling.PartialSumTree's methods (the route sampling.sample_run
    inlines; both spend the same draws on the same bounds)."""
    from mergeruns import sampling

    sizes = t.subtree_sizes()
    n = t.size
    # complete layout over all n ids up front; ids not yet enabled sit at 0
    pst = sampling.PartialSumTree((v, 0) for v in range(1, n + 1))
    run = [1]  # the root is the only enabled action, no randomness spent
    for c in t.children(1):
        pst.update(c, sizes[c - 1])
    for p in range(2, n + 1):
        assert pst.total_weight == n - p + 1
        v = pst.sample(rng)
        pst.update(v, 0)
        for c in t.children(v):
            pst.update(c, sizes[c - 1])
        run.append(v)
    return tuple(run)


def log_constant_partial_sum(terms: int) -> float:
    """Direct partial sum of sum over n >= 2 of ln(n) C_n 4^(-n), chunked
    numpy in log space.

    Converges like ln(n)/sqrt(n), so tens of millions of terms still sit
    about 1e-3 away; the slow cross-check of the certified log constant.
    """
    import numpy as np

    if terms < 2:
        raise ValueError("need at least the n = 2 term")
    total = 0.0
    log_g = math.log(1.0 / 16.0)
    lo = 2
    chunk = 1 << 20
    while lo <= terms:
        hi = min(terms, lo + chunk - 1)
        ns = np.arange(lo, hi + 1, dtype=np.float64)
        # weight ratio g(n+1)/g(n) = (2n - 1) / (2n + 2), walked in log space
        steps = np.log(2.0 * ns - 1.0) - np.log(2.0 * ns + 2.0)
        logs = log_g + np.concatenate(([0.0], np.cumsum(steps[:-1])))
        total += float(np.sum(np.log(ns) * np.exp(logs)))
        log_g += float(np.sum(steps))
        lo = hi + 1
    return total


def geometric_mean_width_direct(n: int, precision: int = 80):
    """The geometric mean of run counts over shapes of size n, as first
    written: every index from scratch, each Catalan number by math.comb,
    each expected subtree count an exact Fraction, each log recomputed."""
    import mpmath as mp

    def catalan(m):
        return math.comb(2 * m - 2, m - 1) // m

    with mp.workprec(precision + 20):
        cn = catalan(n)
        total = mp.mpf(0)
        for k in range(2, n):
            expected = Fraction((n + 1 - k) * catalan(k) * catalan(n - k + 1), 2 * cn)
            exponent = 1 - mp.mpf(expected.numerator) / expected.denominator
            total += exponent * mp.log(k)
        return mp.exp(total)
