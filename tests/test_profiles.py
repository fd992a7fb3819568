"""Admissible cuts, level profiles, and the limit shape of the profile."""

import math
import random
import re
import time

import mpmath as mp
import pytest

import conftest
import oracles
from mergeruns import counts, profiles, sampling, trees


def star(n):
    return trees.SyntaxTree.from_degree_word([n - 1] + [0] * (n - 1), None)


def path(n):
    return trees.SyntaxTree.from_degree_word([1] * (n - 1) + [0], None)


# -- admissible cuts ----------------------------------------------------------

def test_cut_count_reference(ref_tree):
    # the count includes the empty cut; the enumeration lists nonempty ones
    assert profiles.count_admissible_cuts(ref_tree) == 12


def test_cut_count_extremes():
    for n in (2, 5, 9):
        assert profiles.count_admissible_cuts(path(n)) == n + 1
        assert profiles.count_admissible_cuts(star(n)) == 2 ** (n - 1) + 1


def test_cut_count_matches_oracle():
    for n in range(1, 8):
        for shape in oracles.all_shapes(n):
            t = trees.parse_process(oracles.to_term(shape))
            assert profiles.count_admissible_cuts(t) == oracles.cut_count(shape) + 1


def test_enumerate_cuts_matches_oracle():
    for n in range(1, 8):
        for shape in oracles.all_shapes(n):
            t = trees.parse_process(oracles.to_term(shape))
            assert profiles.cut_profile(t) == oracles.profile_via_cuts(shape)


def test_cut_profile_at_the_cap():
    # 2^17 cuts of the star and five uniform shapes, each at the cap of 18
    # nodes, against the convolution
    n = profiles.CUT_ENUMERATION_LIMIT
    shapes = [star(n)] + [sampling.uniform_random_tree(n, sampling.Rng(seed)) for seed in range(5)]
    for t in shapes:
        assert profiles.cut_profile(t) == profiles.level_profile(t)


def test_enumerate_cuts_budget():
    # refused on the node count alone, before any cut is counted
    with pytest.raises(trees.BudgetError) as e:
        profiles.cut_profile(star(20))
    assert e.value.predicted == 20
    assert e.value.budget == profiles.CUT_ENUMERATION_LIMIT
    assert str(e.value) == "a 20-node term is over the cut enumeration cap of 18 nodes"


def test_cut_labellings_sum_to_semantic_size():
    for n in range(1, 7):
        for shape in oracles.all_shapes(n):
            t = trees.parse_process(oracles.to_term(shape))
            total = sum(profiles.cut_profile(t))
            assert total == oracles.semantic_size_via_trie(shape)


# -- the cut-count sequence -----------------------------------------------------

def test_cut_count_sequence_values():
    want = [0, 1, 2, 7, 29, 131, 625, 3099, 15818, 82595, 439259]
    assert profiles.cut_count_sequence(10) == want


def test_cut_count_sequence_matches_oracle():
    got = profiles.cut_count_sequence(7)
    for n in range(1, 8):
        total = sum(oracles.cut_count(s) for s in oracles.all_shapes(n))
        assert got[n] == total


def test_cut_count_sequence_domains():
    with pytest.raises(ValueError):
        profiles.cut_count_sequence(3)
    assert profiles.cut_count_sequence(4)[4] == 29


def test_cut_count_sequence_checks_its_recurrence(monkeypatch):
    # a wrong seed term makes the next quotient of the recurrence inexact
    monkeypatch.setattr(profiles, "_M_CACHE", profiles._M_CACHE[:6] + [626])
    with pytest.raises(ArithmeticError, match="non-integer at index 7"):
        profiles.cut_count_sequence(7)


def test_cut_count_sequence_long():
    seq = profiles.cut_count_sequence(60)
    assert len(seq) == 61
    assert all(isinstance(v, int) for v in seq)
    ratios = [seq[n + 1] / seq[n] for n in range(10, 60)]
    assert all(a < b for a, b in zip(ratios, ratios[1:]))
    assert 5.0 < ratios[0] and ratios[-1] < 7.0


# -- level profiles -------------------------------------------------------------

def test_profile_reference(ref_tree):
    prof = profiles.level_profile(ref_tree)
    assert prof == (1, 1, 2, 4, 8, 8)
    assert prof[3] == 4  # run prefixes of length four


def test_profile_shapes():
    assert profiles.level_profile(star(4)) == (1, 3, 6, 6)
    assert profiles.level_profile(path(6)) == (1,) * 6
    assert profiles.level_profile(trees.parse_process("a")) == (1,)


def test_profile_routes_agree():
    for n in range(1, 8):
        for shape in oracles.all_shapes(n):
            t = trees.parse_process(oracles.to_term(shape))
            fast = profiles.level_profile(t)
            assert fast == profiles.cut_profile(t)
            assert fast == oracles.profile_via_trie(shape)


def test_profile_oracle_size_limit():
    with pytest.raises(trees.BudgetError):
        profiles.cut_profile(path(19))
    assert profiles.level_profile(path(19)) == (1,) * 19


def test_profile_ends():
    for n in range(1, 8):
        for shape in oracles.all_shapes(n):
            t = trees.parse_process(oracles.to_term(shape))
            prof = profiles.level_profile(t)
            assert prof[0] == 1
            assert prof[-1] == counts.hook_count(t)


def test_profile_monotone():
    for n in range(1, 9):
        for t in conftest.plane_trees(n):
            prof = profiles.level_profile(t)
            assert all(a <= b for a, b in zip(prof, prof[1:]))


def parents_of(t):
    return [t.parent(v) for v in range(1, t.size + 1)]


def assert_matches_pairwise(t):
    got = profiles.level_profile(t)
    assert list(got) == oracles.prefix_counts_pairwise(parents_of(t)), t.degree_word()


def caterpillar(spine, leaf_first):
    """Spine nodes each carry one leaf; leaf_first(k) puts spine node k's
    leaf before its spine child, else after it."""
    head, tail = [], []
    for k in range(spine - 1):
        head.append(2)
        (head if leaf_first(k) else tail).append(0)
    return trees.SyntaxTree.from_degree_word(head + [1, 0] + tail)


def complete_binary(depth):
    """The complete binary tree of 2^(depth + 1) - 1 nodes."""
    word = [0]
    for _ in range(depth):
        word = [2] + word + word
    return trees.SyntaxTree.from_degree_word(word)


def wide(n):
    """Root carrying chains of 1, 2, 3, 1, 2, 3, ... nodes."""
    lengths, left = [], n - 1
    while left:
        lengths.append(min(len(lengths) % 3 + 1, left))
        left -= lengths[-1]
    return trees.SyntaxTree.from_degree_word(
        [len(lengths)] + [d for k in lengths for d in [1] * (k - 1) + [0]])


def test_profile_matches_pairwise_all_small_shapes():
    for n in range(1, 10):
        for shape in oracles.all_shapes(n):
            assert_matches_pairwise(trees.SyntaxTree.from_degree_word(oracles.degree_word(shape)))


def test_profile_matches_pairwise_uniform_shapes():
    sizes = random.Random(7)
    rng = sampling.Rng(7)
    for k in range(100):
        assert_matches_pairwise(sampling.uniform_random_tree(sizes.randint(20, 200), rng.stream(k)))


def test_profile_matches_pairwise_structured_shapes():
    for t in [star(60), path(60), wide(90),
              caterpillar(40, lambda k: True), caterpillar(40, lambda k: False),
              caterpillar(41, lambda k: k % 2 == 0),
              # leaves before, between and after the non-leaf children
              trees.parse_process("r.(a || b || c.d || e || f.(g || h.i) || j || k)"),
              trees.parse_process("r.(p.(q || s.t || u) || x || w.v.(k || l) || m || n)"),
              # the synthetic root of a forest has leaf children
              trees.parse_process("a || b.c || d || e.(f || g.h) || i", allow_forest=True),
              # every inner node has two equal children, merged without grouping
              *map(complete_binary, range(1, 8))]:
        assert_matches_pairwise(t)


def repeated(sub, k, leaves=(0, 0, 0)):
    """Root over k copies of the shape with degree word sub, with
    leaves[0] leaves before the copies, leaves[1] between the first two and
    leaves[2] after the last."""
    before, between, after = leaves
    return trees.SyntaxTree.from_degree_word(
        [k + sum(leaves)] + [0] * before + sub + [0] * between + sub * (k - 1) + [0] * after)


def test_profile_matches_pairwise_repeated_children():
    # equal sibling vectors fold together when that is cheaper than rows
    for n in range(2, 8):
        for shape in oracles.all_shapes(n):
            sub = list(oracles.degree_word(shape))
            for k in range(2, 9):
                assert_matches_pairwise(repeated(sub, k, (1, 1, 1)))
    # leaves are the group of vectors [1, 1]: beside two equal 40-node
    # subtrees the fold is declined and they merge by rows, beside 12 equal
    # 3-node chains they fold with the chains, and a single leaf is merged
    # by rows after the fold
    uniform = list(sampling.uniform_random_tree(40, sampling.Rng(5)).degree_word())
    for leaves in (1, 2, 3, 7, 40):
        spread = (leaves // 3, leaves // 3, leaves - 2 * (leaves // 3))
        assert_matches_pairwise(repeated(uniform, 2, spread))
        assert_matches_pairwise(repeated([1, 1, 0], 12, spread))
    assert_matches_pairwise(trees.SyntaxTree.from_degree_word(
        [13] + [2, 0, 0] * 6 + [0] + [1, 0] * 6))
    uniform = list(sampling.uniform_random_tree(80, sampling.Rng(3)).degree_word())
    for t in [repeated(uniform, 2),  # two equal 80-node subtrees: cheaper by rows
              wide(600),
              # a forest whose components repeat: three 2-chains, two cherries
              trees.parse_process("a.b || c.(d || e) || f.g || k || h.(i || j) || l.m",
                                  allow_forest=True),
              # mirror-image shapes of equal vector (1, 2, 3, 3) and two
              # 5-entry groups apart from the leaves: the fold wins, 612 < 614
              trees.parse_process("r.(" + " || ".join(["a.(b || c.d)", "e", "a.b.(c || d)", "a.(c.d || b)",
                                                       "e", "a.b.(c || d)"] * 2) + ")")]:
        assert_matches_pairwise(t)


def test_profile_closed_forms_at_the_cap():
    # at the size cap, each well inside the time bound: a star's level l
    # counts the ordered choices of l of its n - 1 leaves, perm(n - 1, l),
    # which prof[0] = 1 and the ratio prof[l + 1] / prof[l] = n - 1 - l fix
    # at every l (math.perm checks a few directly); a chain has one prefix
    # per length
    n = profiles.PROFILE_FAST_LIMIT
    t = star(n)
    start = time.perf_counter()
    prof = profiles.level_profile(t)
    assert time.perf_counter() - start < 2.0
    assert prof[0] == 1 and len(prof) == n
    assert all(prof[l] * (n - 1 - l) == prof[l + 1] for l in range(n - 1))
    assert all(prof[l] == math.perm(n - 1, l) for l in (1, 2, 17, 1000, n - 2, n - 1))
    t = path(n)
    start = time.perf_counter()
    prof = profiles.level_profile(t)
    assert time.perf_counter() - start < 2.0
    assert prof == (1,) * n


def test_profile_wide_at_the_cap():
    # the root's equal chains fold in one pass, linear in n; merging them
    # one at a time by rows took about 30 s (2-core x86_64, Python 3.11)
    n = profiles.PROFILE_FAST_LIMIT
    t = wide(n)
    start = time.perf_counter()
    prof = profiles.level_profile(t)
    assert time.perf_counter() - start < 2.0
    assert prof[0] == 1 and len(prof) == n
    assert prof[1] == len(t.children(1))
    assert prof[-1] == counts.hook_count(t)


def test_profile_sums_match_level_means():
    for n in range(1, 9):
        c = counts.catalan(n)
        acc = [0] * n
        for t in conftest.plane_trees(n):
            for l, v in enumerate(profiles.level_profile(t)):
                acc[l] += v
        for l in range(n):
            assert acc[l] == counts.mean_level_width(n, n - 1 - l) * c


# -- semantic size ----------------------------------------------------------------

def test_semantic_size_reference(ref_tree):
    assert profiles.semantic_size(ref_tree) == 24


def test_semantic_size_matches_oracle():
    for n in range(1, 8):
        for shape in oracles.all_shapes(n):
            t = trees.parse_process(oracles.to_term(shape))
            assert profiles.semantic_size(t) == oracles.semantic_size_via_trie(shape)


def test_semantic_size_path():
    assert profiles.semantic_size(path(25)) == 25


def test_semantic_size_keeps_the_profile_cap():
    n = profiles.PROFILE_FAST_LIMIT
    assert profiles.semantic_size(path(n)) == n
    with pytest.raises(trees.BudgetError, match="over the profile cap"):
        profiles.semantic_size(path(n + 1))


def test_semantic_size_big_star_exact():
    # sum over k <= 39 of 39!/k!, a 47-digit integer
    got = profiles.semantic_size(star(40))
    want = sum(math.factorial(39) // math.factorial(k) for k in range(40))
    assert got == want
    assert got == 55447192200369381342665835466328897344361743780
    assert got > 2.03e46


# -- profile limit shape ------------------------------------------------------

def test_limit_profile_domain():
    with pytest.raises(ValueError):
        profiles.limit_profile(0.5, 3)
    with pytest.raises(ValueError):
        profiles.limit_profile(0.001, 100)
    with pytest.raises(ValueError):
        profiles.limit_profile(0.999, 100)
    profiles.limit_profile(2 / 100, 100)
    profiles.limit_profile(1 - 2 / 100, 100)
    # the error bound refuses the same points, with the same error
    for c, n in [(0.5, 3), (1.5, 10), (0.0, 10), (1.0, 10), (math.nan, 10)]:
        with pytest.raises(ValueError) as refused:
            profiles.limit_profile(c, n)
        with pytest.raises(ValueError, match=re.escape(str(refused.value))):
            profiles.limit_profile_error_bound(c, n)


def test_limit_profile_decreasing_in_c():
    vals = [profiles.limit_profile(c / 20, 200) for c in range(2, 19)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def ln_fraction(q):
    return float(mp.log(mp.mpf(q.numerator)) - mp.log(mp.mpf(q.denominator)))


def test_limit_profile_error_bound_holds():
    # c measures the level from the deep end: i = c * n
    for n in (20, 50, 100, 200):
        for tenth in range(1, 10):
            if (n * tenth) % 10:
                continue
            c = tenth / 10
            i = n * tenth // 10
            dev = abs(profiles.limit_profile(c, n) -
                      ln_fraction(counts.mean_level_width(n, i)))
            assert dev <= profiles.limit_profile_error_bound(c, n), (n, c)


def test_limit_profile_example_point():
    dev = abs(profiles.limit_profile(0.5, 200) -
              ln_fraction(counts.mean_level_width(200, 100)))
    assert dev <= profiles.limit_profile_error_bound(0.5, 200) == \
        profiles.LIMIT_PROFILE_ERROR_FACTOR / (0.25 * 200)


def test_limit_profile_converges():
    devs = []
    for n in (100, 200, 400):
        i = int(0.3 * n)
        devs.append(abs(profiles.limit_profile(0.3, n) -
                        ln_fraction(counts.mean_level_width(n, i))))
    assert devs[0] > devs[1] > devs[2]
