"""Syntax layer: parsing, conversions, enumeration, semantic trees."""

import ast
import json
import random
import re
import sys
from decimal import Decimal
from itertools import accumulate, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conftest
import oracles
from mergeruns import cli, profiles, sampling, trees


# -- parsing ------------------------------------------------------------------

@pytest.mark.parametrize("text,term", [
    ("a", "a"),
    ("a.b.c", "a.b.c"),
    ("a.(b || c)", "a.(b || c)"),
    ("  a .( b||c )  ", "a.(b || c)"),
    ("x1.(y_2 || z)", "x1.(y_2 || z)"),
    ("a.b.(c || d.(e || f))", "a.b.(c || d.(e || f))"),
    ("a.(b)", "a.b"),
])
def test_parse_accepts(text, term):
    assert trees.parse_process(text).to_term() == term


@pytest.mark.parametrize("text", [
    "", "   ", ".", "a.", "a.(b", "a.(b || )", "a || b", "(a || b)",
    "a.()", "a.(b |) ", "a b", "a.(b || c))", "a..b", "#root", "1a",
    "a.(b || c).d", "a.((b || c))",
])
def test_parse_rejects(text):
    with pytest.raises(trees.ParseError):
        trees.parse_process(text)


def test_parse_error_positions():
    with pytest.raises(trees.ParseError) as e:
        trees.parse_process("a.(b || ")
    assert e.value.position == 8
    with pytest.raises(trees.ParseError) as e:
        trees.parse_process("a | b")
    assert e.value.position == 2


_FOREST = "parallel composition at top level needs forest mode"


@pytest.mark.parametrize("text,allow_forest,message,position", [
    ("", False, "empty input", 0),
    (" \t", True, "empty input", 0),
    ("a.( || b)", False, "expected an action name", 4),
    ("a.(b || ", False, "expected an action name", 8),
    ("a..b", False, "expected an action name or '('", 2),
    ("a.", False, "expected an action name or '('", 2),
    ("a b", False, "unexpected 'b'", 2),
    ("a (b)", False, "unexpected '('", 2),
    ("a.(b || c).d", False, "'.' cannot follow a closed parallel group", 10),
    ("a.b)", False, "unmatched ')'", 3),
    ("a.(b || c", False, "unclosed '('", 9),
    ("a | b", False, "single '|' is not an operator, expected '||'", 2),
    ("a.\u00e9", False, "unexpected character '\u00e9'", 2),
    ("a || b", False, _FOREST, 2),
    # a character that starts no token outranks an earlier grammar fault
    ("a b $", False, "unexpected character '$'", 4),
    ("a b $", True, "unexpected character '$'", 4),
    # a top-level '||' outranks an earlier grammar fault outside forest mode
    ("a) || b", False, _FOREST, 3),
    ("a) || b", True, "unmatched ')'", 1),
    ("|| a", False, _FOREST, 0),
    ("|| a", True, "expected an action name", 0),
])
def test_parse_error_table(text, allow_forest, message, position):
    with pytest.raises(trees.ParseError) as e:
        trees.parse_process(text, allow_forest)
    assert (str(e.value), e.value.position) == (f"{message} (at position {position})", position)


def test_trees_imports_no_module_of_the_package():
    # trees is the bottom layer: counts, profiles and sampling import it,
    # so an import back from it would close a cycle
    source = Path(trees.__file__).read_text(encoding="utf-8")
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and node.module.split(".")[0] != "mergeruns", ast.dump(node)
        elif isinstance(node, ast.Import):
            assert all(a.name.split(".")[0] != "mergeruns" for a in node.names), ast.dump(node)


def test_forest_mode():
    t = trees.parse_process("a || b.c", allow_forest=True)
    assert t.size == 4
    assert t.label(1) == trees.FOREST_ROOT_LABEL
    assert t.to_term() == "a || b.c"
    # the forest root writes no head and no tail: its components are
    # joined by bars alone, around groups and chains of their own
    text = "a.(b || c) || d.e.f || g.(h.(i || j) || k) || l"
    assert trees.parse_process(text, allow_forest=True).to_term() == text
    # single term stays unwrapped even in forest mode
    assert trees.parse_process("a.b", allow_forest=True).size == 2


def test_reference_structure(ref_tree):
    t = ref_tree
    assert t.size == 6
    assert t.labels == ("a", "b", "c", "d", "e", "f")
    assert [t.parent(v) for v in range(1, 7)] == [0, 1, 2, 2, 4, 4]
    assert t.children(2) == (3, 4)
    assert t.degree_word() == (1, 2, 0, 2, 0, 0)
    assert t.subtree_sizes() == (6, 5, 1, 3, 1, 1)
    assert repr(t) == "SyntaxTree('a.b.(c || d.(e || f))')"


# -- the constructor's preorder check -------------------------------------------

def _outcome(build):
    try:
        return build()
    except ValueError as e:
        return str(e)


def _parent_arrays(n, low, high):
    """Every array with parent 0 at the root and low(v) <= p(v) < high(v)."""
    ranges = [range(low(v), high(v)) for v in range(2, n + 1)]
    return [(0,) + rest for rest in product(*ranges)]


def _check_against_reference(parents) -> bool:
    """SyntaxTree gives the reference check's child table or message;
    returns whether it accepted the array."""
    def build():
        t = trees.SyntaxTree(["x"] * len(parents), parents)
        return tuple(t.children(v) for v in range(1, t.size + 1))
    got = _outcome(build)
    assert got == _outcome(lambda: oracles.tree_check(parents)), parents
    return not isinstance(got, str)


def test_constructor_accepts_exactly_the_preorder_arrays():
    for n in range(1, 8):
        accepted = sum(map(_check_against_reference, _parent_arrays(n, lambda v: 1, lambda v: v)))
        assert accepted == len(oracles.all_shapes(n))


def test_constructor_error_priority():
    # out-of-range parents anywhere outrank a preorder break before them
    for n in range(1, 6):
        for parents in _parent_arrays(n, lambda v: -1, lambda v: v + 1):
            _check_against_reference(parents)
    for parents in [(), (1,), (1, 1), (-1, 1), (2, 1, 1)]:
        _check_against_reference(parents)
    with pytest.raises(ValueError, match="^labels and parents must have equal length$"):
        trees.SyntaxTree(["a", "b"], [0])


# -- builders that number their nodes in preorder themselves --------------------

def test_preorder_builders_match_the_validating_constructor():
    # parse_process and from_degree_word skip the constructor's preorder
    # check: every shape of up to 9 nodes, its forest form when the root
    # has two or more children, and uniform shapes up to 2000 nodes
    rng = sampling.Rng(61)
    shapes = [t for n in range(1, 10) for t in conftest.plane_trees(n)]
    shapes += [sampling.uniform_random_tree(n, rng) for n in (10, 50, 300, 2000) for _ in range(3)]
    forests = 0
    for t in shapes:
        word = t.degree_word()
        built = [(t.labels, trees.parse_process(t.to_term())),
                 (t.labels, trees.SyntaxTree.from_degree_word(word, t.labels))]
        if word[0] > 1:
            labels = (trees.FOREST_ROOT_LABEL,) + t.labels[1:]
            forest = trees.SyntaxTree.from_degree_word(word, labels)
            built += [(labels, forest), (labels, trees.parse_process(forest.to_term(), allow_forest=True))]
            forests += 1
        for labels, b in built:
            checked = trees.SyntaxTree(labels, [t.parent(v) for v in range(1, t.size + 1)])
            assert b == checked and hash(b) == hash(checked)
            assert type(b._labels) is type(b._parents) is tuple
            assert b.subtree_sizes() == checked.subtree_sizes()
    assert forests > 1000


def test_degree_word_refuses_a_wrong_label_count():
    for labels in (["a"], ["a", "b"], ["a", "b", "c", "d"]):
        with pytest.raises(ValueError, match="^labels and parents must have equal length$"):
            trees.SyntaxTree.from_degree_word([2, 0, 0], labels)


# -- the parser against the original one ----------------------------------------

_SPACES = ["", " ", "  ", "\t", "\n", "\u00a0", "\u2003"]
_MUTATIONS = "a1_.()| $\u00e9"


@st.composite
def rendered_terms(draw):
    """A random shape as term text with random whitespace between tokens,
    sometimes a top-level forest of two or three of them."""
    shape = st.recursive(st.just(()), lambda kids: st.lists(kids, min_size=1, max_size=3).map(tuple),
                         max_leaves=10)
    names = st.sampled_from(["a", "b", "Z", "_", "x1", "a_b", "_9"])
    tokens: list[str] = []

    def render(sub):
        tokens.append(draw(names))
        if len(sub) == 1:
            tokens.append(".")
            render(sub[0])
        elif sub:
            tokens.extend([".", "("])
            for k, child in enumerate(sub):
                if k:
                    tokens.append("||")
                render(child)
            tokens.append(")")

    for k in range(draw(st.sampled_from([1, 1, 2, 3]))):
        if k:
            tokens.append("||")
        render(draw(shape))
    space = st.sampled_from(_SPACES)
    return draw(space) + "".join(tok + draw(space) for tok in tokens)


@st.composite
def mutated_terms(draw):
    """A rendered term with one character inserted, replaced or deleted."""
    text = draw(rendered_terms())
    i = draw(st.integers(min_value=0, max_value=len(text)))
    c = draw(st.sampled_from(_MUTATIONS))
    edit = draw(st.sampled_from(["insert", "replace", "delete"]))
    if edit == "insert":
        return text[:i] + c + text[i:]
    if edit == "replace":
        return text[:i] + c + text[i + 1:]
    return text[:i] + text[i + 1:]


def _parse_outcome(text, allow_forest):
    try:
        t = trees.parse_process(text, allow_forest)
    except trees.ParseError as e:
        return "error", str(e), e.position
    return "tree", t.labels, tuple(t.parent(v) for v in range(1, t.size + 1))


def _reference_outcome(text, allow_forest):
    try:
        labels, parents = oracles.parse_process(text, allow_forest)
    except oracles.ParseError as e:
        return "error", str(e), e.position
    return "tree", labels, parents


@given(rendered_terms(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_parser_matches_reference_on_rendered_terms(text, allow_forest):
    assert _parse_outcome(text, allow_forest) == _reference_outcome(text, allow_forest)


@given(mutated_terms())
@settings(max_examples=400, deadline=None)
def test_parser_matches_reference_on_mutated_terms(text):
    for allow_forest in (False, True):
        assert _parse_outcome(text, allow_forest) == _reference_outcome(text, allow_forest)


# names, every operator, a single '|', characters that start no token, and
# whitespace: joined with no grammar in mind, so most texts carry several
# faults and reach the priorities between them
_PIECES = ["a", "b", "x1", "_", ".", "(", ")", "||", "|", "$", "\u00e9", " ", "\t", "\u2003"]


@given(st.lists(st.sampled_from(_PIECES), max_size=14).map("".join))
@settings(max_examples=400, deadline=None)
def test_parser_matches_reference_on_joined_tokens(text):
    for allow_forest in (False, True):
        assert _parse_outcome(text, allow_forest) == _reference_outcome(text, allow_forest)


def test_parser_matches_reference_on_every_short_text():
    # every text of at most 4 pieces: each mix of faults and their order
    # that fits in that length, where the sampled tests above may miss one
    for n in range(5):
        for pieces in product(_PIECES, repeat=n):
            text = "".join(pieces)
            for allow_forest in (False, True):
                assert _parse_outcome(text, allow_forest) == _reference_outcome(text, allow_forest)


_TERM_TOKENS = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|\|\||[.()]")


def _large_terms():
    """(name, text) of 5000 to 10^4-node shapes and a forest, each written by
    to_term and spaced again with whitespace drawn from _SPACES for every
    gap between two tokens, and the ends."""
    rnd = random.Random(27)

    def uniform(n):
        # cycle lemma: the rotation of a shuffled +1/-1 walk after its first minimum
        steps = [1] * (n - 1) + [-1] * n
        rnd.shuffle(steps)
        sums = list(accumulate(steps))
        cut = sums.index(min(sums)) + 1
        word = [0]
        for s in steps[cut:] + steps[:cut]:
            word[-1] += s > 0
            if s < 0:
                word.append(0)
        return word[:-1]

    spine = 3000
    words = {
        # a leaf before each next spine node: the term ends in 3000 ')'
        "caterpillar-leaf-first": [2, 0] * spine + [0],
        # a leaf after each spine node's subtree: 3000 separators ') || '
        "caterpillar-leaf-last": [2] * spine + [0] * (spine + 1),
        "chain-10000": [1] * 9999 + [0],
        "star-10000": [10000] + [0] * 10000,
        # a root over chains of 1 to 140 nodes
        "wide-9871": [140] + [d for k in range(1, 141) for d in [1] * (k - 1) + [0]],
        "uniform-5000": uniform(5000),
    }
    components = [uniform(rnd.randint(1, 12)) for _ in range(800)]
    words["forest-800"] = [len(components)] + [d for c in components for d in c]
    names = ["a", "b", "Z", "_", "x1", "a_b", "_9"]
    for name, word in words.items():
        labels = [rnd.choice(names) for _ in word]
        if name.startswith("forest"):
            labels[0] = trees.FOREST_ROOT_LABEL
        tokens = _TERM_TOKENS.findall(trees.SyntaxTree.from_degree_word(word, labels).to_term())
        yield name, "".join(rnd.choice(_SPACES) + tok for tok in tokens) + rnd.choice(_SPACES)


def test_parser_matches_reference_on_large_terms():
    # long ')' runs, deep and wide groups and many components, then each of
    # these edits at one point in the later two thirds: a character
    # inserted, replaced or deleted, a ')' inserted, the next '(' or ')'
    # deleted.  One more text carries two inserted characters, one in the
    # first 16384 characters, the parser's first chunk, and one in the
    # later two thirds, so the fault priorities hold across chunks
    rnd = random.Random(28)
    rnd2 = random.Random(29)
    for name, text in _large_terms():
        i = rnd.randrange(len(text) // 3, len(text))
        c = rnd.choice(_MUTATIONS)
        texts = [text, text[:i] + c + text[i:], text[:i] + c + text[i + 1:], text[:i] + text[i + 1:],
                 text[:i] + ")" + text[i:]]
        j, k = rnd2.randrange(min(16384, len(text) // 3)), rnd2.randrange(len(text) // 3, len(text))
        texts.append(text[:j] + rnd2.choice(_MUTATIONS) + text[j:k] + rnd2.choice(_MUTATIONS) + text[k:])
        for paren in "()":
            j = text.find(paren, i)
            if j >= 0:
                texts.append(text[:j] + text[j + 1:])
        for t in texts:
            for allow_forest in (False, True):
                assert _parse_outcome(t, allow_forest) == _reference_outcome(t, allow_forest), name
        assert _parse_outcome(text, True)[0] == "tree"


# -- conversions --------------------------------------------------------------

def test_term_round_trip_all_small_shapes():
    for n in range(1, 8):
        for shape in oracles.all_shapes(n):
            term = oracles.to_term(shape)
            t = trees.parse_process(term)
            assert t.to_term() == term
            assert t.degree_word() == oracles.degree_word(shape)


def test_nested_round_trip(ref_tree):
    def leaf(label):
        return {"label": label, "children": []}

    assert json.loads(ref_tree.to_json()) == {"label": "a", "children": [
        {"label": "b", "children": [
            leaf("c"),
            {"label": "d", "children": [leaf("e"), leaf("f")]}]}]}


def test_json_is_json_dumps_of_the_nested_record():
    for n in range(1, 10):
        for shape in oracles.all_shapes(n):
            t = trees.SyntaxTree.from_degree_word(oracles.degree_word(shape))
            assert t.to_json() == json.dumps(oracles.nested_record(shape), sort_keys=True)


@pytest.mark.parametrize("shape,term", [
    ((), ""),
    (((),), "a"),
    (((), ((), ())), "a || b.(c || d)"),
])
def test_forest_root_writers(shape, term):
    # the synthetic root is left out of the term, not of the record
    n = oracles.shape_size(shape)
    labels = [trees.FOREST_ROOT_LABEL] + trees.default_labels(n - 1)
    t = trees.SyntaxTree.from_degree_word(oracles.degree_word(shape), labels)
    assert t.to_term() == term
    assert t.to_json() == json.dumps(oracles.nested_record(shape, labels), sort_keys=True)


# -- the label rule: every label is an action name, bar a forest root's ---------

_NAMES = ["a", "Z", "_", "x1", "a_b", "_9", "if"]
_NOT_NAMES = ["a b", 'c"d', "", "1x", "é", "a\n", trees.FOREST_ROOT_LABEL]


def _dot_text(shape, labels) -> str:
    """The Graphviz text of a shape, its nodes numbered in preorder."""
    nodes = oracles.preorder_labelled(shape, labels)
    return ("digraph syntax_tree {\n"
            + "".join(f'  n{v} [label="{nodes[v][0]}"];\n' for v in nodes)
            + "".join(f"  n{nodes[v][1]} -> n{v};\n" for v in nodes if nodes[v][1])
            + "}")


def test_writers_write_action_names_as_they_are():
    # every shape of up to 7 nodes under labels drawn from the grammar's
    # corner cases (a keyword too): the term parses back to the tree, the
    # record is json.dumps' and the digraph names each node's label; the
    # forest form of a root over two or more trees parses back in forest mode
    rnd = random.Random(44)
    forests = 0
    for n in range(1, 8):
        for shape in oracles.all_shapes(n):
            labels = [rnd.choice(_NAMES) for _ in range(n)]
            t = trees.SyntaxTree.from_degree_word(oracles.degree_word(shape), labels)
            assert trees.parse_process(t.to_term()) == t
            assert t.to_json() == json.dumps(oracles.nested_record(shape, labels), sort_keys=True)
            assert t.to_dot() == _dot_text(shape, labels)
            if len(shape) > 1:
                labels[0] = trees.FOREST_ROOT_LABEL
                forest = trees.SyntaxTree.from_degree_word(oracles.degree_word(shape), labels)
                assert trees.parse_process(forest.to_term(), allow_forest=True) == forest
                assert forest.to_json() == json.dumps(oracles.nested_record(shape, labels),
                                                      sort_keys=True)
                forests += 1
    assert forests == 131


def _builders(labels):
    """Each way a caller's labels enter a tree, all on the shape a.(b || c)."""
    return [lambda: trees.SyntaxTree(labels, [0, 1, 1]),
            lambda: trees.SyntaxTree.from_degree_word([2, 0, 0], labels),
            lambda: trees.tree_from_degree_sequence((2, 1, 0), labels),
            lambda: sampling.uniform_random_tree(3, sampling.Rng(1), labels=labels)]


@pytest.mark.parametrize("bad,position", [(bad, position) for bad in _NOT_NAMES for position in (0, 1, 2)
                                          if (bad, position) != (trees.FOREST_ROOT_LABEL, 0)])
def test_builders_refuse_a_label_that_is_no_action_name(bad, position):
    # the forest root's label is allowed at the root only
    labels = ["x", "y", "z"]
    labels[position] = bad
    for build in _builders(labels):
        with pytest.raises(ValueError, match=f"^label {re.escape(repr(bad))} is not an action name"):
            build()


def test_builders_accept_the_forest_root_over_any_number_of_trees():
    for k in range(4):
        labels = [trees.FOREST_ROOT_LABEL] + trees.default_labels(k)
        t = trees.SyntaxTree(labels, [0] + [1] * k)
        assert trees.SyntaxTree.from_degree_word([k] + [0] * k, labels) == t
        assert trees.tree_from_degree_sequence(trees.degree_sequence_of_tree(t), labels) == t
        assert t.to_term() == " || ".join(labels[1:])
    t = sampling.uniform_random_tree(3, sampling.Rng(1), labels=["#root", "x", "y"])
    assert t.labels == ("#root", "x", "y")


def test_writers_need_no_recursion():
    # a chain taller than the interpreter's recursion limit, and uniform
    # shapes up to 10^4 nodes read back through the json module
    n = 3 * sys.getrecursionlimit()
    chain = trees.SyntaxTree.from_degree_word([1] * (n - 1) + [0])
    assert chain.to_term() == ".".join(chain.labels)
    text = chain.to_json()
    assert text == '{"children": [' * n + "".join(
        f'], "label": "{label}"}}' for label in reversed(chain.labels))
    rng = sampling.Rng(17)
    for n in (10, 100, 1000, 10000):
        t = sampling.uniform_random_tree(n, rng)
        text = t.to_json()
        doc = json.loads(text)
        assert json.dumps(doc, sort_keys=True) == text
        # a preorder walk of the record gives back the labels and parents
        labels, parents, stack = [], [], [(doc, 0)]
        while stack:
            rec, parent = stack.pop()
            labels.append(rec["label"])
            parents.append(parent)
            stack.extend((c, len(labels)) for c in reversed(rec["children"]))
        assert trees.SyntaxTree(labels, parents) == t


def test_degree_word_round_trip(ref_tree):
    t = trees.SyntaxTree.from_degree_word(ref_tree.degree_word(), ref_tree.labels)
    assert t == ref_tree


@pytest.mark.parametrize("word,position", [
    ((2, 0), 2),        # word ends before the tree is complete
    ((1, 0, 0), 3),     # trailing entries after completion
    ((0, 1), 2),
    ((-1, 0), 1),       # negative degree at the root
    ((2, 0, -1, 0), 3),  # negative degree further on
    ((3, 1, 0), 3),     # two child slots left unfilled
    ((10 ** 12, 0, -1, 0), 3),  # a later negative degree outranks open slots
])
def test_degree_word_errors(word, position):
    with pytest.raises(ValueError) as e:
        trees.SyntaxTree.from_degree_word(word, ["x"] * len(word))
    assert f"position {position}" in str(e.value)


@pytest.mark.parametrize("word,open_slots", [((3, 1, 0), 2), ((1, 10 ** 12, 0), 10 ** 12 - 1)])
def test_degree_word_counts_unfilled_slots(word, open_slots):
    # each open node's empty slots are one count, never a slot each: a
    # huge degree costs no memory
    with pytest.raises(ValueError, match=f"^degree word leaves {open_slots} unfilled child slots at position 3$"):
        trees.SyntaxTree.from_degree_word(word)


def test_degree_word_holds_ints():
    # a degree that is not an int is refused before any position is
    # checked, so also past a fault or open slots; a bool is an int
    for word in [(1.0, 0), (0.0,), (-1, 0.5), (10 ** 12, 0.5)]:
        with pytest.raises(TypeError):
            trees.SyntaxTree.from_degree_word(word)
    assert trees.SyntaxTree.from_degree_word((True, False)).to_term() == "a.b"


def test_decoders_accept_exactly_the_oracle_shapes():
    # every word of length n <= 6 over the degrees -1..n: the decoder takes
    # exactly the oracle's degree words, to the oracle's preorder parents,
    # and rejects every other word with the message of the oracle's running
    # count of empty slots; the degree-sequence inverse takes exactly the u
    # sequences of those words (u_p = first p degrees summed, minus p - 1)
    def parents(t):
        return tuple(t.parent(v) for v in range(1, t.size + 1))

    decode_word, decode_u = trees.SyntaxTree.from_degree_word, trees.tree_from_degree_sequence

    for n in range(7):
        expected, expected_u = {}, {}
        for shape in oracles.all_shapes(n):
            word = oracles.degree_word(shape)
            nodes = oracles.preorder_labelled(shape)
            tree = (tuple(nodes[v][0] for v in range(1, n + 1)),
                    tuple(nodes[v][1] for v in range(1, n + 1)))
            expected[word] = tree
            expected_u[tuple(s - p for p, s in enumerate(accumulate(word)))] = tree
        got, got_u = {}, {}
        for seq in product(range(-1, n + 1), repeat=n):
            try:
                t = decode_word(seq)
                got[seq] = (t.labels, parents(t))
                assert oracles.degree_word_fault(seq) is None, seq
            except ValueError as e:
                assert str(e) == oracles.degree_word_fault(seq), seq
            try:
                t = decode_u(seq)
                got_u[seq] = (t.labels, parents(t))
            except ValueError:
                pass
        assert got == expected, n
        assert got_u == expected_u, n


def test_wide_and_deep_words_round_trip():
    # a star and a chain of 10^5 nodes come back through the degree word,
    # the branch encoding and the validating constructor
    n = 10 ** 5
    for word in ((n - 1,) + (0,) * (n - 1), (1,) * (n - 1) + (0,)):
        t = trees.SyntaxTree.from_degree_word(word)
        assert t.degree_word() == word
        assert trees.SyntaxTree.from_degree_word(t.degree_word(), t.labels) == t
        assert trees.tree_from_degree_sequence(trees.degree_sequence_of_tree(t), t.labels) == t
        assert trees.SyntaxTree(t.labels, [t.parent(v) for v in range(1, n + 1)]) == t


def test_degree_sequence_round_trip_small():
    for n in range(1, 8):
        for shape in oracles.all_shapes(n):
            t = trees.parse_process(oracles.to_term(shape))
            u = trees.degree_sequence_of_tree(t)
            assert len(u) == n
            assert u[-1] == 0
            assert trees.tree_from_degree_sequence(u, t.labels) == t


def test_degree_sequence_reference(ref_tree):
    u = trees.degree_sequence_of_tree(ref_tree)
    assert u == (1, 2, 1, 2, 1, 0)
    assert trees.tree_from_degree_sequence(u, ref_tree.labels) == ref_tree


def test_degree_sequence_single_node():
    t = trees.parse_process("a")
    assert trees.degree_sequence_of_tree(t) == (0,)
    assert trees.tree_from_degree_sequence((0,), ("a",)) == t


@pytest.mark.parametrize("u", [
    (),                  # empty
    (0, 0),              # zero with nodes left
    (1, 2, 0),           # hits zero with a node unaccounted for
    (2, 1, 1, 1),        # never reaches zero
    (1, 3, 1, 2, 1, 0),  # drop of two between consecutive entries
])
def test_degree_sequence_errors(u):
    with pytest.raises(ValueError):
        trees.tree_from_degree_sequence(u, None)


def test_degree_sequence_rises_are_unconstrained():
    u = (1, 3, 2, 1, 1, 0)
    t = trees.tree_from_degree_sequence(u, None)
    assert trees.degree_sequence_of_tree(t) == u


def test_degree_sequence_drop_error_indexed():
    with pytest.raises(ValueError) as e:
        trees.tree_from_degree_sequence((2, 0, 0, 0), None)
    assert "3" in str(e.value) or "2" in str(e.value)


# -- labels -------------------------------------------------------------------

def test_ambiguous_label():
    t = trees.parse_process("a.(b || b)")
    assert t.labels == ("a", "b", "b")
    label_ids = {"a": [1], "b": [2, 3]}
    with pytest.raises(ValueError) as e:
        cli._resolve_action(t, label_ids, "b")
    assert "ambiguous" in str(e.value)
    assert cli._resolve_action(t, label_ids, "b#3") == 3


def test_default_labels():
    labels = trees.default_labels(30)
    assert labels[:3] == ["a", "b", "c"]
    assert labels[25] == "z"
    assert labels[26] == "aa"
    assert labels[27] == "ab"
    # 26 one-letter and 26^2 two-letter names come before the first three-letter one
    labels = trees.default_labels(703)
    assert labels == [oracles.spreadsheet_label(i) for i in range(703)]
    assert labels[:30] == trees.default_labels(30)
    assert labels[-2:] == ["zz", "aaa"]
    assert trees.default_labels(0) == trees.default_labels(-1) == []


# -- run prefixes -------------------------------------------------------------

def test_validate_run_prefix(ref_tree):
    assert trees.validate_run_prefix(ref_tree, [1, 2, 4]) == (1, 2, 4)
    for bad, idx_hint in [
        ([], "index 1"),
        ([2], "index 1"),
        ([1, 1], "index 2"),
        ([1, 5], "index 2"),      # e before d
        ([1, 2, 4, 4], "index 4"),
        ([1, 2, 9], "index 3"),
    ]:
        with pytest.raises(ValueError) as e:
            trees.validate_run_prefix(ref_tree, bad)
        assert idx_hint in str(e.value)
    with pytest.raises(ValueError, match=r"^prefix longer than the tree \(index 3\)$"):
        trees.validate_run_prefix(trees.parse_process("a.b"), [1, 2, 2])


# -- semantic trees -----------------------------------------------------------

def test_semantic_reference(ref_tree):
    parents, actions = profiles.semantic_expansion(ref_tree)
    assert len(parents) == len(actions) == 24
    assert oracles.leaf_count(parents) == 8
    assert oracles.level_counts(parents) == (1, 1, 2, 4, 8, 8)
    assert profiles.semantic_levels(ref_tree) == (1, 1, 2, 4, 8, 8)


def test_semantic_branches_are_runs():
    for n in range(1, 7):
        for shape in oracles.all_shapes(n):
            t = trees.parse_process(oracles.to_term(shape))
            branches = oracles.branches(*profiles.semantic_expansion(t))
            assert len(branches) == len(set(branches))
            assert sorted(branches) == sorted(oracles.all_runs(shape))


def test_semantic_levels_are_prefix_counts():
    # counted off the expansion, and given by the profile without one
    for n in range(1, 7):
        for shape in oracles.all_shapes(n):
            t = trees.parse_process(oracles.to_term(shape))
            parents, _ = profiles.semantic_expansion(t)
            assert oracles.level_counts(parents) == oracles.profile_via_trie(shape)
            assert profiles.semantic_levels(t) == oracles.profile_via_trie(shape)


def test_semantic_budget():
    # star, 11 nodes, 10! = 3628800 runs: a budget under 10^6 is refused on
    # that bound, one past it on the exact count
    t = trees.parse_process(oracles.to_term(((),) * 10, None))
    with pytest.raises(trees.BudgetError) as e:
        profiles.semantic_levels(t, node_budget=100)
    assert e.value.predicted == Decimal("1e6")
    assert e.value.budget == 100
    with pytest.raises(trees.BudgetError) as e:
        profiles.semantic_levels(t, node_budget=5 * 10 ** 6)
    assert e.value.predicted == 9864101
    assert e.value.budget == 5 * 10 ** 6


def test_semantic_budget_past_the_profile_cap():
    # 5990 actions in a chain, then a node whose 8 leaves interleave in
    # 8! = 40320 runs; the size is bounded from below first by its 5999
    # levels, then by 10^4 runs, and past the profile cap the exact count
    # still decides
    t = trees.parse_process("a." * 5990 + "b.(" + " || ".join("cdefghij") + ")")
    assert t.size == 5999
    with pytest.raises(trees.BudgetError) as e:
        profiles.semantic_levels(t, node_budget=5998)
    assert e.value.predicted == 5999
    assert "at least 5999 nodes, one per level" in str(e.value)
    with pytest.raises(trees.BudgetError) as e:
        profiles.semantic_levels(t, node_budget=9999)
    assert e.value.predicted == 10 ** 4
    assert "at least 10^4 branches" in str(e.value)
    # a budget the bounds do not exceed: the exact count decides,
    # 5991 levels of one node and sum 8!/(8-m)! over m = 1..8 below them
    with pytest.raises(trees.BudgetError) as e:
        profiles.semantic_levels(t, node_budget=10 ** 5)
    assert e.value.predicted == 115591
    levels = profiles.semantic_levels(t, node_budget=115591)
    assert sum(levels) == 115591 and levels[-1] == 40320
    parents, _ = profiles.semantic_expansion(t)
    assert len(parents) == 115591 and oracles.leaf_count(parents) == 40320


def test_semantic_leftmost_branch():
    # the degree sequence is the node degrees along the semantic tree's
    # leftmost branch, read here off its parent array
    for n in range(1, 8):
        for shape in oracles.all_shapes(n):
            t = trees.parse_process(oracles.to_term(shape))
            kids: dict[int, list[int]] = {}
            parents, _ = profiles.semantic_expansion(t)
            for v, p in enumerate(parents, start=1):
                kids.setdefault(p, []).append(v)
            degrees, v = [], 1
            while v in kids:
                degrees.append(len(kids[v]))
                v = kids[v][0]
            degrees.append(0)
            assert trees.degree_sequence_of_tree(t) == tuple(degrees), oracles.to_term(shape)


def test_semantic_dot_output(ref_tree):
    parents, actions = profiles.semantic_expansion(ref_tree)
    out: list[str] = []
    trees._dot("semantic_tree", ref_tree.labels, parents, actions, out.append)
    dot = "".join(out)
    assert dot.startswith("digraph") and dot.rstrip().endswith("}")
    assert dot.count("->") == 23


# -- property tests -----------------------------------------------------------

@st.composite
def degree_words(draw, max_size=40):
    n = draw(st.integers(min_value=1, max_value=max_size))
    word = []
    open_slots = 1
    remaining = n
    while remaining:
        cap = remaining - open_slots  # keep the word completable
        d = draw(st.integers(min_value=0, max_value=max(cap, 0)))
        word.append(d)
        open_slots += d - 1
        remaining -= 1
        if not open_slots:
            break
    return tuple(word)


@given(degree_words())
@settings(max_examples=80, deadline=None)
def test_term_round_trip_property(word):
    t = trees.SyntaxTree.from_degree_word(word, None)
    assert trees.parse_process(t.to_term()) == t
    assert t.degree_word() == word


@given(degree_words())
@settings(max_examples=80, deadline=None)
def test_degree_sequence_round_trip_property(word):
    t = trees.SyntaxTree.from_degree_word(word, None)
    u = trees.degree_sequence_of_tree(t)
    assert trees.tree_from_degree_sequence(u, t.labels) == t
