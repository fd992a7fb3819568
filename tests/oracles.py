"""Brute-force reference implementations used only by the tests.

Everything here works on plain nested tuples (a shape is a tuple of child
shapes) and never calls into the package, so agreement between these
routines and the library is a genuine cross-check, not a tautology.
"""

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


# -- misc ---------------------------------------------------------------------

def contract_shape(shape, v: int) -> tuple:
    """Merge node v into its parent, keeping child order (v's children
    replace v in the parent's list)."""
    target = [0]

    def walk(sub):
        target[0] += 1
        me = target[0]
        kids = [walk(ch) for ch in sub]
        return me, kids

    def rebuild(annotated):
        me, kids = annotated
        out = []
        for k in kids:
            if k[0] == v:
                out.extend(rebuild(c) for c in k[1])
            else:
                out.append(rebuild(k))
        return tuple(out)

    return rebuild(walk(shape))


def degree_word(shape) -> tuple:
    """Preorder child counts."""
    out = []

    def walk(sub):
        out.append(len(sub))
        for ch in sub:
            walk(ch)

    walk(shape)
    return tuple(out)
