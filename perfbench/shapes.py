"""The benchmark's own shapes: generators, a term renderer and a term reader.

A shape is a parent list in preorder: ``parents[v - 1]`` is the parent id of
node v (ids 1..n, the root has parent 0).  Every input the benchmark feeds to
the program is made here from a ``random.Random`` seeded by the benchmark, so
no input depends on the program's own samplers.
"""

from __future__ import annotations

import hashlib
import random


def parents_from_degrees(degrees: list[int]) -> list[int]:
    """Preorder parent list of the tree whose node degrees are ``degrees``."""
    parents = [0] * len(degrees)
    open_slots: list[list[int]] = []  # [node, children still to attach]
    for v, d in enumerate(degrees, start=1):
        while open_slots and open_slots[-1][1] == 0:
            open_slots.pop()
        if open_slots:
            parents[v - 1] = open_slots[-1][0]
            open_slots[-1][1] -= 1
        elif v != 1:
            raise ValueError("degree word closes before its last node")
        open_slots.append([v, d])
    return parents


def uniform_shape(n: int, rnd: random.Random) -> list[int]:
    """A plane tree drawn uniformly from all plane trees with n nodes.

    Shuffle n - 1 up steps (+1) and n down steps (-1).  Of the 2n - 1
    rotations of that word exactly one keeps every proper prefix sum at
    zero or above: the one starting just after the first minimum.  Read as
    (ups before each down) it is the degree word of a plane tree, and every
    tree arises from exactly 2n - 1 shuffles.
    """
    steps = [1] * (n - 1) + [-1] * n
    rnd.shuffle(steps)
    acc, low, cut = 0, 1, 0
    for i, s in enumerate(steps):
        acc += s
        if acc < low:
            low, cut = acc, i
    word = steps[cut + 1:] + steps[:cut + 1]
    degrees, ups = [], 0
    for s in word:
        if s > 0:
            ups += 1
        else:
            degrees.append(ups)
            ups = 0
    return parents_from_degrees(degrees)


def star_shape(n: int) -> list[int]:
    """Root with n - 1 leaf children."""
    return [0] + [1] * (n - 1)


def chain_shape(n: int) -> list[int]:
    """A single path of n nodes."""
    return list(range(n))


def wide_shape(n: int, rnd: random.Random) -> list[int]:
    """Star-like: the root carries short chains of 1, 2 and 3 nodes.

    The three lengths come in equal numbers, shuffled, so that shapes of
    one size differ in order only and cost about the same to profile.
    """
    lengths = [1, 2, 3] * ((n - 1) // 6 + 1)
    rnd.shuffle(lengths)
    parents = [0]
    for length in lengths:
        length = min(length, n - len(parents))
        if length == 0:
            break
        parents.append(1)
        for _ in range(length - 1):
            parents.append(len(parents))
    return parents


def deep_shape(n: int, rnd: random.Random) -> list[int]:
    """Caterpillar: a spine where every spine node also carries one leaf.

    Whether the leaf comes before or after the next spine node is drawn per
    node; the last spine node carries the leftover leaf, if any.  A leaf
    placed after its sibling spine node follows that node's whole subtree
    in preorder, so those leaves close the degree word.
    """
    spine = (n + 1) // 2
    degrees: list[int] = []
    deferred = 0
    for _ in range(spine - 1):
        degrees.append(2)
        if rnd.random() < 0.5:
            degrees.append(0)
        else:
            deferred += 1
    degrees.append(n - 2 * spine + 1)  # 1 when n is even, else 0
    degrees.extend([0] * (deferred + n - 2 * spine + 1))
    return parents_from_degrees(degrees)


def children_lists(parents: list[int]) -> list[list[int]]:
    kids: list[list[int]] = [[] for _ in range(len(parents) + 1)]
    for v, p in enumerate(parents, start=1):
        if p:
            kids[p].append(v)
    return kids


def subtree_sizes(parents: list[int]) -> list[int]:
    """|T(v)| for v = 1..n, indexed by v - 1."""
    n = len(parents)
    sizes = [1] * (n + 1)
    for v in range(n, 1, -1):
        sizes[parents[v - 1]] += sizes[v]
    return sizes[1:]


def label(v: int) -> str:
    """Action name of node v: 'v' followed by v in base 36."""
    digits = "0123456789abcdefghijklmnopqrstuvwxyz"
    s = ""
    while v:
        v, r = divmod(v, 36)
        s = digits[r] + s
    return "v" + s


_LABELS: list[str] = []


def labels(n: int) -> list[str]:
    """[label(1), ..., label(n)], from a list kept across calls."""
    while len(_LABELS) < n:
        _LABELS.append(label(len(_LABELS) + 1))
    return _LABELS[:n]


def render(parents: list[int], names: list[str] | None = None) -> str:
    """Term text of a shape, node v named names[v - 1] (default label(v)).

    Node ids are preorder, so node v + 1 follows node v in the text: it is
    v's first child if v has children, else the next sibling of the lowest
    node on v's path to the root that is not a last child, after a ')' for
    each group that ends on the way up.
    """
    names = names or labels(len(parents))
    kids = children_lists(parents)
    out: list[str] = []
    for v in range(1, len(parents) + 1):
        out.append(names[v - 1])
        if kids[v]:
            out.append(".(" if len(kids[v]) > 1 else ".")
            continue
        u = v
        while u != 1:
            siblings = kids[parents[u - 1]]
            if siblings[-1] != u:
                out.append(" || ")
                break
            if len(siblings) > 1:
                out.append(")")
            u = parents[u - 1]
    return "".join(out)


def read_term(text: str) -> tuple[list[int], list[str]]:
    """Parent list and labels of a term, by a reader of the benchmark's own.

    Accepts the grammar the program prints: ``name``, ``name.tail``, and
    ``name.(t1 || t2 || ...)``.  Raises ValueError on anything else.
    """
    parents: list[int] = []
    labels: list[str] = []
    groups: list[int] = []   # parent ids of the open parallel groups
    pending = 0              # parent of the next name
    i, n = 0, len(text)
    expect_name = True
    while True:
        while i < n and text[i] == " ":
            i += 1
        if expect_name:
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            if j == i:
                raise ValueError(f"expected a name at {i}")
            labels.append(text[i:j])
            parents.append(pending)
            i = j
            expect_name = False
            continue
        if i == n:
            break
        if text[i] == ".":
            pending = len(labels)
            i += 1
            while i < n and text[i] == " ":
                i += 1
            if i < n and text[i] == "(":
                groups.append(pending)
                i += 1
            expect_name = True
        elif text.startswith("||", i):
            if not groups:
                raise ValueError(f"'||' outside a group at {i}")
            pending = groups[-1]
            i += 2
            expect_name = True
        elif text[i] == ")":
            if not groups:
                raise ValueError(f"unmatched ')' at {i}")
            groups.pop()
            i += 1
        else:
            raise ValueError(f"unexpected {text[i]!r} at {i}")
    if groups:
        raise ValueError("unclosed '('")
    return parents, labels


def canonical(parents: list[int]) -> str:
    """Label-free nested-parenthesis key of a shape."""
    kids = children_lists(parents)
    out: list[str] = []
    work: list = [1]
    while work:
        item = work.pop()
        if item == ")":
            out.append(")")
            continue
        out.append("(")
        work.append(")")
        work.extend(reversed(kids[item]))
    return "".join(out)


def linear_extension(parents: list[int], length: int, rnd: random.Random) -> list[int]:
    """A run prefix of the given length: each step fires a random enabled node."""
    kids = children_lists(parents)
    enabled = [1]
    out: list[int] = []
    while len(out) < length:
        k = rnd.randrange(len(enabled))
        enabled[k], enabled[-1] = enabled[-1], enabled[k]
        v = enabled.pop()
        out.append(v)
        enabled.extend(kids[v])
    return out


def digest(parents: list[int], labels) -> str:
    """Fingerprint of a labelled shape, for comparing parsed trees."""
    text = ",".join(map(str, parents)) + "|" + "\n".join(labels)
    return hashlib.sha256(text.encode()).hexdigest()
