"""Syntax trees of sequential-parallel process terms.

A term like ``a.b.(c || d.(e || f))`` denotes a process whose actions form a
plane rooted tree: prefixing adds a child, parallel composition adds several.
Nodes are addressed by preorder id 1..n, which is stable under relabelling and
is the identity used by every other module.  This module provides the parser,
the degree-sequence encoding and the Graphviz writer that syntax and
computation trees share; it imports no other module of the package.

The parser splits a term on its action names, a chunk at a time: the
labels come from the split, each distinct separator between two names is
classified once per call by one regular expression, and one step per
action writes the node's parent.  A rejected term is worded by one pass of
the grammar's states over its tokens, under the fault priorities stated
in parse_process.
"""

from __future__ import annotations

import re
from itertools import chain, count, islice, product, repeat
from json.encoder import encode_basestring_ascii as _json_string
from typing import Sequence

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
        for v in range(2, n + 1):
            if not 1 <= parents[v - 1] < v:
                raise ValueError(f"parent of node {v} must be an earlier node id")
        self._labels = labels
        self._parents = parents
        self._sizes = None
        # each parent comes first, so the degree word is valid; its decoder
        # numbers in preorder, so the ids do exactly when it gives these back
        if self.from_degree_word(self.degree_word(), labels)._parents != parents:
            raise ValueError("node ids are not in prefix-traversal order")

    # -- construction -----------------------------------------------------

    @classmethod
    def _from_preorder(cls, labels: tuple[str, ...], parents: Sequence[int]) -> "SyntaxTree":
        """The tree of arrays its builder has already numbered in preorder.

        For parse_process and from_degree_word, which place each node under
        a node on the path from the root to the node before it: arrays that
        __init__ accepts, as from_degree_word decodes their degree word back.
        The caller passes labels as a tuple of the same length as parents.
        """
        tree = object.__new__(cls)
        tree._labels = labels
        tree._parents = tuple(parents)
        tree._sizes = None
        return tree

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
            labels = tuple(default_labels(n) if labels is None else labels)
            if len(labels) != n:
                raise ValueError("labels and parents must have equal length")
            return cls._from_preorder(labels, parents)
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
            for v, p in zip(range(n, 1, -1), reversed(self._parents)):
                sizes[p] += sizes[v]
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
        return _write_nested(self.degree_word(), self._labels)

    def to_json(self) -> str:
        """The nested record {"label": ..., "children": [...]} as the text
        json.dumps(record, sort_keys=True) writes, for a tree of any height."""
        return _write_nested(self.degree_word(), self._labels, as_json=True)

    def to_dot(self) -> str:
        out: list[str] = []
        _dot("syntax_tree", self._labels, self._parents, range(1, self.size + 1), out.append)
        return "".join(out)


def _write_nested(degrees: Sequence[int], labels: Sequence[str], as_json: bool = False) -> str:
    """The term, or with as_json the JSON record, of the tree whose
    prefix-traversal degrees and labels are given, in one pass over them.

    Each node writes its head, its subtrees joined by a separator, then
    its tail.  A term's head is the label, then "." over one child or ".("
    over several, and only a node of several children has a tail, ")"; a
    record's head is constant and every node's tail holds its label.  The
    children still to write of each open node, and its tail, sit on two
    stacks; after a leaf, the nodes it finishes are popped, writing their
    tails, up to the first with a child left, where the separator goes.
    A term whose root is FOREST_ROOT_LABEL writes its components joined
    by bars alone.
    """
    if as_json:
        heads = repeat('{"children": [')
        tails = (f'], "label": {_json_string(label)}}}' for label in labels)
        sep, one, several = ", ", "", ""
    else:
        heads, tails = labels, repeat(")")
        sep, one, several = " || ", ".", ".("
    out: list[str] = []
    write = out.append
    left: list[int] = []
    closes: list[str] = []
    nodes = zip(degrees, heads, tails)
    if not as_json and labels[0] == FOREST_ROOT_LABEL:  # no head and no tail
        left.append(next(nodes)[0])
        closes.append("")
    for d, head, tail in nodes:
        if d == 1:
            write(head + one)
            if as_json:
                left.append(1)
                closes.append(tail)
        elif d:
            write(head + several)
            left.append(d)
            closes.append(tail)
        else:
            write(head)
            if as_json:
                write(tail)
            while left:
                k = left.pop() - 1
                if k:
                    left.append(k)
                    write(sep)
                    break
                write(closes.pop())
    return "".join(out)


_DOT_LINES = 1 << 14                # lines of a digraph made into one string at a time


def _dot(graph_name: str, names: Sequence[str], parents: Sequence[int],
         actions: Sequence[int], write) -> None:
    """Write the Graphviz digraph of a parent array (ids 1..n, parent 0 =
    none) whose node v is labelled names[actions[v - 1] - 1], _DOT_LINES
    lines to a call of write.  Every line but the closing "}" ends in a
    newline."""
    write(f"digraph {graph_name} {{\n")
    for i in range(0, len(parents), _DOT_LINES):
        write("".join([f'  n{v} [label="{names[a - 1]}"];\n'
                       for v, a in enumerate(actions[i:i + _DOT_LINES], i + 1)]))
    for i in range(0, len(parents), _DOT_LINES):
        write("".join([f"  n{p} -> n{v};\n"
                       for v, p in enumerate(parents[i:i + _DOT_LINES], i + 1) if p]))
    write("}")


# -- parsing ----------------------------------------------------------------

_NAME = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)")
_NAME_START = re.compile(r"(?<![A-Za-z0-9_])[A-Za-z_]")
_CHUNK = 1 << 14                    # characters split at once, up to the next name
# the separators the grammar allows between two names: "." and ".(" hang
# the next node under the one before, k >= 0 ')' then "||" close k groups
# and hang it beside its sibling, and one the grammar rejects closes more
# groups than any term opens, so the parse stops there as at an unmatched ')'
_SEPARATOR = re.compile(r"\s*(?:\.\s*(\()?|((?:\)\s*)*)\|\|)\s*")
_DOT, _OPEN, _REJECTED = -1, -2, float("inf")
# group 2: a character that starts no token; compiled (and cached by re)
# only when a term is rejected
_TOKEN = _NAME.pattern + r"|\|\||[.()]|(\S)"
_NEED_TERM, _NEED_TAIL, _AFTER_NAME, _AFTER_GROUP = range(4)
_EXPECTED = ("expected an action name", "expected an action name or '('")  # by state


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

    A split on the action names, about _CHUNK characters at a time, gives
    the labels and the separator text between each two of them.  Each
    chunk's separators are classified and walked before the next chunk is
    split: each distinct separator is classified once per call by one
    regular expression (_SeparatorCodes), and one step per action writes
    the node's parent, touching the stack of open groups only at '.(' and
    '||'.  A rejected term is worded by _parse_error, one pass of the
    grammar's states over the whole text, under the priorities above.
    """
    # Each chunk is cut just before a name, and its separator strings are
    # dropped before the next chunk is split, whose strings then fill the
    # space they leave: the labels stay packed, and no more than one
    # chunk's separators are alive at once.  A split gives the separators
    # at even indices and the names between them at odd ones.
    labels: list[str] = []
    code_of = _SeparatorCodes().__getitem__
    parents = [0]
    append = parents.append
    top = 0                         # the node whose '.(' opened the innermost group, 0 at top level
    outer: list[int] = []           # top of each enclosing group, innermost last
    push = outer.append
    pop = outer.pop
    start = v = 0                   # v: the labels read before the chunk
    while True:
        cut = _NAME_START.search(text, start + _CHUNK)
        stop = cut.start() if cut else len(text)
        seps = _NAME.split(text[start:stop])
        if not start and seps[0].strip():
            raise _parse_error(text, allow_forest)
        labels += seps[1::2]
        del seps[1::2]
        # the code of the separator after node v; a name follows each
        # chunk's last separator but the last chunk's, and a later chunk's
        # separator 0 is empty
        for v, code in enumerate(map(code_of, islice(seps, 1, None if cut else len(seps) - 1)), v + 1):
            if code == _DOT:
                append(v)
            elif code == _OPEN:
                append(v)
                push(top)
                top = v
            elif code:
                if code > len(outer):   # an unmatched ')', or _REJECTED
                    raise _parse_error(text, allow_forest)
                if code > 1:
                    del outer[1 - code:]
                top = pop()
                append(top)
            else:
                append(top)
        if not cut:
            break
        start = stop
    # the end of input may only close the groups still open
    last = seps[-1]
    if not labels or last.count(")") != len(outer) or last.replace(")", "").strip():
        raise _parse_error(text, allow_forest)
    if parents.count(0) > 1:        # a '||' at top level
        if not allow_forest:
            raise _parse_error(text, allow_forest)
        labels.insert(0, FOREST_ROOT_LABEL)
        parents = [0] + [p + 1 for p in parents]
    return SyntaxTree._from_preorder(tuple(labels), parents)


class _SeparatorCodes(dict):
    """One parse's code (_DOT, _OPEN, k or _REJECTED) of every distinct
    separator between two names, worked out the first time it is asked for."""

    def __missing__(self, sep: str):
        m = _SEPARATOR.fullmatch(sep)
        code = (_REJECTED if m is None else _OPEN if m[1] else _DOT if m[2] is None
                else m[2].count(")"))
        self[sep] = code
        return code


def _parse_error(text: str, allow_forest: bool) -> ParseError:
    """The error to report for a text parse_process rejects.

    One pass of the grammar's states over the text's tokens finds the
    first character that starts no token, the first '||' outside every
    parenthesis (a ')' too many opens none) and the first grammar fault;
    they are reported in that order, the '||' only outside forest mode.
    """
    if not text.strip():
        return ParseError("empty input", 0)
    state = _NEED_TERM
    level = 0   # '(' less ')', at least 0: the grammar's open groups until its first fault
    top_bar = fault = None
    for m in re.finditer(_TOKEN, text):
        tok = m.group()
        if m[2]:
            return ParseError("single '|' is not an operator, expected '||'" if tok == "|"
                              else f"unexpected character {tok!r}", m.start())
        if fault is None:
            if state >= _AFTER_NAME:
                if tok == ")" and level:
                    state = _AFTER_GROUP
                elif tok == "||":
                    state = _NEED_TERM
                elif tok == "." and state == _AFTER_NAME:
                    state = _NEED_TAIL
                else:
                    fault = ParseError("unmatched ')'" if tok == ")"
                                       else "'.' cannot follow a closed parallel group" if tok == "."
                                       else f"unexpected {tok!r}", m.start())
            elif m[1]:
                state = _AFTER_NAME
            elif tok == "(" and state == _NEED_TAIL:
                state = _NEED_TERM
            else:
                fault = ParseError(_EXPECTED[state], m.start())
        if tok == "(":
            level += 1
        elif tok == ")":
            level = max(0, level - 1)
        elif tok == "||" and not level and top_bar is None:
            top_bar = m.start()
    if top_bar is not None and not allow_forest:
        return ParseError("parallel composition at top level needs forest mode", top_bar)
    return fault or ParseError("unclosed '('" if state >= _AFTER_NAME else _EXPECTED[state], len(text))


# -- encodings --------------------------------------------------------------

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
    words = (map("".join, product("abcdefghijklmnopqrstuvwxyz", repeat=k)) for k in count(1))
    return list(islice(chain.from_iterable(words), max(n, 0)))


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

