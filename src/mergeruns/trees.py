"""Syntax trees of sequential-parallel process terms.

A term like ``a.b.(c || d.(e || f))`` denotes a process whose actions form a
plane rooted tree: prefixing adds a child, parallel composition adds several.
Nodes are addressed by preorder id 1..n, which is stable under relabelling and
is the identity used by every other module.  This module provides the parser,
the explicit semantic-tree expansion (the small-size oracle), degree-sequence
encoding, and exhaustive enumeration.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from decimal import Decimal
from json.encoder import encode_basestring_ascii as _json_string
from typing import Iterator, NamedTuple, Sequence

ENUMERATION_LIMIT = 12
SEMANTIC_NODE_BUDGET = 10 ** 6
# most sampling steps one `sample` or `gen` command may take: runs times
# actions drawn per run, or shapes times nodes per shape.  Every format prints
# each run or shape as it is drawn, so this bounds time, not memory: 10^6 steps
# took 2-8 s at 16 MB max RSS on a 2-core x86_64 (`sample` JSON the slowest).
SAMPLING_STEP_BUDGET = 10 ** 7
FOREST_ROOT_LABEL = "#root"


class ParseError(ValueError):
    """Malformed term text; carries the character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class BudgetError(RuntimeError):
    """A construction would exceed its configured size budget.

    predicted is an int, except for a lower bound given only as its order
    of magnitude, which is a Decimal power of ten such as Decimal("1e20061").
    """

    def __init__(self, message: str, predicted, budget):
        super().__init__(message)
        self.predicted = predicted
        self.budget = budget


class SyntaxTree:
    """Immutable plane rooted tree; node v carries a text label.

    Node ids are 1..n in prefix-traversal order, so the subtree rooted at v
    occupies the contiguous id range [v, v + |T(v)|).
    """

    __slots__ = ("_labels", "_parents", "_sizes")

    def __init__(self, labels: Sequence[str], parents: Sequence[int]):
        labels = tuple(labels)
        parents = tuple(parents)
        n = len(labels)
        if n == 0:
            raise ValueError("a tree has at least one node")
        if len(parents) != n:
            raise ValueError("labels and parents must have equal length")
        if parents[0] != 0:
            raise ValueError("the root (id 1) must have parent 0")
        # ids are a preorder numbering exactly when each node's parent lies
        # on the path from the root to the node just before it; a parent off
        # that path empties it (IndexError)
        path = [1]
        try:
            for v in range(2, n + 1):
                p = parents[v - 1]
                while path[-1] != p:
                    path.pop()
                path.append(v)
        except IndexError:
            for v in range(2, n + 1):
                if not 1 <= parents[v - 1] < v:
                    raise ValueError(f"parent of node {v} must be an earlier node id") from None
            raise ValueError("node ids are not in prefix-traversal order") from None
        self._labels = labels
        self._parents = parents
        self._sizes = None

    # -- construction -----------------------------------------------------

    @classmethod
    def from_degree_word(cls, degrees: Sequence[int], labels: Sequence[str] | None = None) -> "SyntaxTree":
        """Build the tree whose prefix-traversal node degrees are ``degrees``.

        Raises ValueError naming the first offending position if the word is
        not a valid Lukasiewicz degree word.
        """
        degrees = list(degrees)
        n = len(degrees)
        if n == 0:
            raise ValueError("empty degree word")
        parents = []
        # one entry per open child slot, holding the slot's parent; the next
        # node fills the newest slot, and the root fills the one of parent 0
        slots = [0]
        for v, d in enumerate(degrees, start=1):
            if d < 0:
                raise ValueError(f"negative degree at position {v}")
            if not slots:
                raise ValueError(f"degree word closes early at position {v}")
            parents.append(slots.pop())
            if len(slots) + d > n - v:
                break
            slots += [v] * d
        else:
            return cls(default_labels(n) if labels is None else labels, parents)
        # more open slots than nodes left: no later node closes the word, so
        # the fault is a later negative degree or else the slots left open
        # (never stored, so a huge degree costs no memory)
        for w in range(v + 1, n + 1):
            if degrees[w - 1] < 0:
                raise ValueError(f"negative degree at position {w}")
        raise ValueError(f"degree word leaves {sum(degrees) - n + 1} unfilled child slots at position {n}")

    # -- basic accessors ---------------------------------------------------

    @property
    def size(self) -> int:
        return len(self._labels)

    def label(self, v: int) -> str:
        return self._labels[v - 1]

    def parent(self, v: int) -> int:
        """Parent id of v, 0 for the root."""
        return self._parents[v - 1]

    def children(self, v: int) -> tuple[int, ...]:
        """Child ids ascending: v + 1, then each id past the last one's subtree."""
        sizes = self.subtree_sizes()
        kids = []
        c = v + 1
        while c < v + sizes[v - 1]:
            kids.append(c)
            c += sizes[c - 1]
        return tuple(kids)

    @property
    def labels(self) -> tuple[str, ...]:
        return self._labels

    def subtree_sizes(self) -> tuple[int, ...]:
        """|T(v)| for every v, indexed by v - 1; computed once and cached."""
        if self._sizes is None:
            n = self.size
            sizes = [1] * (n + 1)
            for v in range(n, 1, -1):
                sizes[self._parents[v - 1]] += sizes[v]
            self._sizes = tuple(sizes[1:])
        return self._sizes

    def degree_word(self) -> tuple[int, ...]:
        """Out-degree of every node, indexed by v - 1, counted from the parents."""
        deg = [0] * (self.size + 1)
        for p in self._parents:
            deg[p] += 1
        return tuple(deg[1:])

    def __eq__(self, other) -> bool:
        return (isinstance(other, SyntaxTree)
                and self._labels == other._labels
                and self._parents == other._parents)

    def __hash__(self) -> int:
        return hash((self._labels, self._parents))

    def __repr__(self) -> str:
        return f"SyntaxTree({self.to_term()!r})"

    # -- serialization -----------------------------------------------------

    def to_term(self) -> str:
        """Render as a term string parseable by parse_process."""
        deg = (0, *self.degree_word())
        heads = [label + (".(" if d > 1 else "." if d else "")
                 for label, d in zip(("",) + self._labels, deg)]
        tails = [")" if d > 1 else "" for d in deg]
        if self._labels[0] == FOREST_ROOT_LABEL:  # components joined by bars alone
            heads[1] = tails[1] = ""
        return self._write_nested(heads, tails, " || ")

    def to_json(self) -> str:
        """The nested record {"label": ..., "children": [...]} as the text
        json.dumps(record, sort_keys=True) writes, for a tree of any height."""
        tails = [f'], "label": {_json_string(label)}}}' for label in ("",) + self._labels]
        return self._write_nested(['{"children": ['] * len(tails), tails, ", ")

    def _write_nested(self, heads: Sequence[str], tails: Sequence[str], sep: str) -> str:
        """Each node's head, its subtrees joined by sep, then its tail (both by
        node id), in one pass: the path from the root to the node last written
        is popped back to each node's parent, writing the tails of those left."""
        parents = self._parents
        out = [heads[1]]
        path = [1]
        for v in range(2, len(parents) + 1):
            p = parents[v - 1]
            if path[-1] != p:
                while path[-1] != p:
                    out.append(tails[path.pop()])
                out.append(sep)
            out.append(heads[v])
            path.append(v)
        out.extend(tails[v] for v in reversed(path))
        return "".join(out)

    def to_dot(self) -> str:
        return _dot("syntax_tree", self._labels, self._parents)


class SemanticTree:
    """Explicit computation tree: every branch is one complete run.

    Nodes are numbered in preorder and carry the label and preorder id of
    the syntax-tree action they consume.  Built only by build_semantic_tree;
    sizes grow like (n-1)! so this is an oracle, not a scalable
    representation.
    """

    __slots__ = ("labels", "parents", "source_ids")

    def __init__(self, labels, parents, source_ids):
        self.labels = tuple(labels)
        self.parents = tuple(parents)
        self.source_ids = tuple(source_ids)

    @property
    def node_count(self) -> int:
        return len(self.labels)

    def level_counts(self) -> tuple[int, ...]:
        """Nodes per depth, level 0 = root, in one pass over the parents: a
        preorder parent comes before its children, so its depth is known and
        each depth is first counted after the one above it."""
        depths = [-1]  # depths[0] belongs to the root's parent, 0
        counts: Counter[int] = Counter()
        for p in self.parents:
            depths.append(depths[p] + 1)
            counts[depths[-1]] += 1
        return tuple(counts.values())

    def leaf_count(self) -> int:
        # the distinct parents are the inner nodes and the root's parent 0
        return self.node_count - len(set(self.parents)) + 1

    def branches(self) -> Iterator[tuple[int, ...]]:
        """Yield each root-to-leaf branch as the consumed syntax-node ids."""
        inner = set(self.parents)
        for leaf in range(1, self.node_count + 1):
            if leaf in inner:
                continue
            path = []
            v = leaf
            while v:
                path.append(self.source_ids[v - 1])
                v = self.parents[v - 1]
            yield tuple(reversed(path))

    def to_dot(self) -> str:
        return _dot("semantic_tree", self.labels, self.parents)


def _dot(graph_name: str, labels: Sequence[str], parents: Sequence[int]) -> str:
    """Graphviz digraph of a parent array (ids 1..n, parent 0 = none)."""
    lines = [f"digraph {graph_name} {{"]
    lines += [f'  n{v} [label="{label}"];' for v, label in enumerate(labels, start=1)]
    lines += [f"  n{p} -> n{v};" for v, p in enumerate(parents, start=1) if p]
    lines.append("}")
    return "\n".join(lines)


# -- parsing ----------------------------------------------------------------

_TOKENS = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|\|\||\S")
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_OPERATORS = frozenset((".", "(", ")", "||"))


def parse_process(text: str, allow_forest: bool = False) -> SyntaxTree:
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
    reserved and cannot be written in input).  Of several faults the first
    character that starts no token is reported, then a top-level '||'
    outside forest mode, then the first syntax error.
    """
    # names, '||' and every other non-space character, one token each
    tokens = _TOKENS.findall(text)
    if not tokens:
        raise ParseError("empty input", 0)

    NEED_TERM, NEED_TAIL, AFTER_NAME, AFTER_GROUP = range(4)
    state = NEED_TERM
    wrapped = False
    labels: list[str] = []
    parents: list[int] = []
    pending = 0                     # parent id for the next created node
    current = 0                     # most recent plain action node
    frames: list[int] = []          # parent ids of open parallel groups

    for i, tok in enumerate(tokens):
        if state >= AFTER_NAME:
            if tok == ".":
                if state == AFTER_GROUP:
                    raise _parse_error(text, allow_forest, i, "'.' cannot follow a closed parallel group")
                pending = current
                state = NEED_TAIL
            elif tok == "||":
                if frames:
                    pending = frames[-1]
                elif wrapped:
                    pending = 1
                elif allow_forest:
                    # the first top-level bar: put the synthetic root in
                    # front, so that it gets id 1
                    labels.insert(0, FOREST_ROOT_LABEL)
                    parents = [0] + [p + 1 for p in parents]
                    pending = 1
                    wrapped = True
                else:
                    raise _parse_error(text, allow_forest, i, "parallel composition at top level needs forest mode")
                state = NEED_TERM
            elif tok == ")":
                if not frames:
                    raise _parse_error(text, allow_forest, i, "unmatched ')'")
                frames.pop()
                state = AFTER_GROUP
            else:
                raise _parse_error(text, allow_forest, i, f"unexpected {tok!r}")
        elif tok[0] in _NAME_START:
            labels.append(tok)
            parents.append(pending)
            current = len(labels)
            state = AFTER_NAME
        elif tok == "(" and state == NEED_TAIL:
            frames.append(pending)
            state = NEED_TERM
        elif state == NEED_TERM:
            raise _parse_error(text, allow_forest, i, "expected an action name")
        else:
            raise _parse_error(text, allow_forest, i, "expected an action name or '('")

    end = len(tokens)
    if state == NEED_TERM:
        raise _parse_error(text, allow_forest, end, "expected an action name")
    if state == NEED_TAIL:
        raise _parse_error(text, allow_forest, end, "expected an action name or '('")
    if frames:
        raise _parse_error(text, allow_forest, end, "unclosed '('")
    return SyntaxTree(labels, parents)


def _parse_error(text: str, allow_forest: bool, index: int, message: str) -> ParseError:
    """The error to report once token number ``index`` (len(tokens) for the
    end of input) broke the grammar with ``message``.

    Character positions are worked out only here.  A character that starts
    no token and a top-level '||' outside forest mode outrank the syntax
    error, wherever they occur.
    """
    depth = 0
    top_par = None
    position = len(text)
    for k, m in enumerate(_TOKENS.finditer(text)):
        tok = m.group()
        if tok[0] not in _NAME_START and tok not in _OPERATORS:
            if tok == "|":
                return ParseError("single '|' is not an operator, expected '||'", m.start())
            return ParseError(f"unexpected character {tok!r}", m.start())
        if tok == "(":
            depth += 1
        elif tok == ")":
            depth = max(0, depth - 1)
        elif tok == "||" and depth == 0 and top_par is None:
            top_par = m.start()
        if k == index:
            position = m.start()
    if top_par is not None and not allow_forest:
        return ParseError("parallel composition at top level needs forest mode", top_par)
    return ParseError(message, position)


# -- semantic expansion and encodings ----------------------------------------

def build_semantic_tree(t: SyntaxTree, node_budget: int = SEMANTIC_NODE_BUDGET) -> SemanticTree:
    """Explicitly expand the semantic tree of t.

    The root consumes t's root; every node's children consume, left to right,
    the actions enabled once it is done.  Sizes grow factorially, so the
    expansion is refused up front when node_budget is under a lower bound:
    n, a node per level, or 10^k under the run count n! / prod |T(v)|, a leaf
    per run.  Only then is the exact size summed from the level profile, its
    entries at most the run count (prefixes of one length extend to disjoint
    runs), so no level is over about ten times the budget.
    """
    n = t.size
    if n > node_budget:
        raise BudgetError(f"semantic tree has at least {n} nodes, one per level, over the "
                          f"budget of {node_budget}", n, node_budget)
    log_runs = math.lgamma(n + 1) - math.fsum(map(math.log, t.subtree_sizes()))
    k = max(0, math.floor(log_runs / math.log(10) - 1e-6))  # 10^k stays under despite rounding
    if Decimal(f"1e{k}") > node_budget:
        raise BudgetError(f"semantic tree has at least 10^{k} branches, over the budget of "
                          f"{node_budget} nodes", Decimal(f"1e{k}"), node_budget)
    from .profiles import _prefix_counts  # deferred: profiles builds on this module

    predicted = sum(_prefix_counts(t))
    if predicted > node_budget:
        raise BudgetError(
            f"semantic tree has exactly {predicted} nodes, over the budget of {node_budget}",
            predicted, node_budget)
    parents: list[int] = []
    source: list[int] = []
    # stack entries: (semantic parent, frontier, index of the node consumed);
    # v's children take v's place, as no other enabled action is in v's subtree
    stack = [(0, (1,), 0)]
    while stack:
        parent_sem, frontier, j = stack.pop()
        v = frontier[j]
        parents.append(parent_sem)
        source.append(v)
        sem = len(source)
        nxt = frontier[:j] + t.children(v) + frontier[j + 1:]
        for k in range(len(nxt) - 1, -1, -1):
            stack.append((sem, nxt, k))
    return SemanticTree(map(t.label, source), parents, source)


def degree_sequence_of_tree(t: SyntaxTree) -> tuple[int, ...]:
    """Branch encoding u of the tree: u_p = (sum of first p degrees) - (p-1).

    Equals the node degrees read along the leftmost branch of the semantic
    tree, without building it.  The single node yields the degenerate (0,).
    """
    u = []
    acc = 0
    for p, d in enumerate(t.degree_word()):
        acc += d
        u.append(acc - p)
    return tuple(u)


def tree_from_degree_sequence(u: Sequence[int], labels: Sequence[str] | None = None) -> SyntaxTree:
    """Inverse of degree_sequence_of_tree.

    u_p is the number of open child slots after the first p nodes, so u is
    valid exactly when its degree word (u_1, then u_p - u_(p-1) + 1) is,
    and SyntaxTree.from_degree_word rejects an invalid one: a drop of more
    than 1 at index p is a negative degree at position p, a 0 at p < n
    closes the word early at p + 1, and a nonzero end leaves slots unfilled.
    """
    u = (1, *u)  # u_0 = 1: before the root, the one slot it fills is open
    return SyntaxTree.from_degree_word([b - a + 1 for a, b in zip(u, u[1:])], labels)


def default_labels(n: int) -> list[str]:
    """Spreadsheet-style action names: a..z, aa, ab, ..."""
    out = []
    for k in range(1, n + 1):
        s = ""
        while k:
            k, r = divmod(k - 1, 26)
            s = chr(97 + r) + s
        out.append(s)
    return out


def enumerate_trees(n: int) -> Iterator[SyntaxTree]:
    """Yield every plane rooted tree of size n exactly once.

    Canonical order: lexicographic on the prefix-traversal degree word, which
    makes index-range partitioning of sweeps deterministic.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > ENUMERATION_LIMIT:
        raise BudgetError(f"enumeration of size {n} exceeds the oracle limit {ENUMERATION_LIMIT}",
                          n, ENUMERATION_LIMIT)
    labels = default_labels(n)
    word: list[int] = []

    def rec(open_slots: int) -> Iterator[SyntaxTree]:
        placed = len(word)
        if placed == n:
            if open_slots == 0:
                yield SyntaxTree.from_degree_word(word, labels)
            return
        remaining = n - placed
        for d in range(0, remaining):
            new_open = open_slots - 1 + d
            if new_open < 0 or new_open > remaining - 1:
                continue
            if new_open == 0 and remaining > 1:
                continue
            word.append(d)
            yield from rec(new_open)
            word.pop()

    yield from rec(1)


def validate_run_prefix(t: SyntaxTree, sigma: Sequence[int]) -> tuple[int, ...]:
    """Check that sigma is a run prefix of t; ValueError names the bad index."""
    sigma = tuple(sigma)
    if not sigma:
        raise ValueError("a run prefix has at least the root (index 1)")
    if len(sigma) > t.size:
        raise ValueError(f"prefix longer than the tree (index {t.size + 1})")
    if sigma[0] != 1:
        raise ValueError("a run starts at the root (index 1)")
    seen = {1}
    for k, v in enumerate(sigma[1:], start=2):
        if not 1 <= v <= t.size:
            raise ValueError(f"unknown node id {v} (index {k})")
        if v in seen:
            raise ValueError(f"action {v} repeated (index {k})")
        if t.parent(v) not in seen:
            raise ValueError(f"action {v} is not enabled yet (index {k})")
        seen.add(v)
    return sigma


class SuspendedView(NamedTuple):
    """What remains of a tree after consuming a run prefix."""

    source: SyntaxTree
    prefix: tuple[int, ...]
    frontier: tuple[int, ...]

    @property
    def root(self) -> int:
        """The last consumed action, the root of the suspended tree."""
        return self.prefix[-1]


def suspended_view(t: SyntaxTree, sigma: Sequence[int]) -> SuspendedView:
    """Enabled actions after consuming sigma, in prefix-traversal order of t."""
    sigma = validate_run_prefix(t, sigma)
    consumed = set(sigma)
    frontier = sorted(c for v in sigma for c in t.children(v) if c not in consumed)
    return SuspendedView(t, sigma, tuple(frontier))

