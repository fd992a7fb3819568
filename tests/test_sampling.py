"""Randomized machinery: weighted multisets, run sampling, shape sampling."""

import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conftest
import oracles
from mergeruns import counts, sampling, trees


# -- the seeded generator -------------------------------------------------------

def test_rng_determinism():
    a = sampling.Rng(42)
    b = sampling.Rng(42)
    assert [a.uniform_int(100) for _ in range(50)] == \
        [b.uniform_int(100) for _ in range(50)]
    c = sampling.Rng(43)
    assert [a.uniform_int(100) for _ in range(50)] != \
        [c.uniform_int(100) for _ in range(50)]


def test_rng_range_and_coverage():
    rng = sampling.Rng(1)
    seen = {rng.uniform_int(6) for _ in range(600)}
    assert seen == {1, 2, 3, 4, 5, 6}
    assert all(rng.uniform_int(1) == 1 for _ in range(5))


def test_rng_subset():
    rng = sampling.Rng(7)
    s = rng.subset(10, 4)
    assert s == sorted(s)
    assert len(set(s)) == 4
    assert all(0 <= x < 10 for x in s)
    assert sampling.Rng(5).subset(6, 6) == [0, 1, 2, 3, 4, 5]
    assert sampling.Rng(5).subset(6, 0) == []
    with pytest.raises(ValueError):
        sampling.Rng(5).subset(4, 5)
    # every 2-subset of a 5-set shows up
    seen = {tuple(sampling.Rng(9).stream(i).subset(5, 2)) for i in range(400)}
    assert len(seen) == 10


def test_rng_streams():
    base = sampling.Rng(11)
    s0, s1 = base.stream(0), base.stream(1)
    seq0 = [s0.uniform_int(1000) for _ in range(20)]
    assert seq0 != [s1.uniform_int(1000) for _ in range(20)]
    replay = sampling.Rng(11).stream(0)
    assert seq0 == [replay.uniform_int(1000) for _ in range(20)]



def _draws(rng, k=3):
    return [rng.uniform_int(10 ** 9) for _ in range(k)]


def test_rng_streams_do_not_alias_seeds():
    assert _draws(sampling.Rng(0).stream(5)) != _draws(sampling.Rng(5))
    assert _draws(sampling.Rng(0).stream(2 ** 32)) != _draws(sampling.Rng(1).stream(0))
    assert _draws(sampling.Rng(1).stream(2)) != _draws(sampling.Rng(1).stream(2).stream(0))
    keys = {tuple(_draws(sampling.Rng(s).stream(i))) for s in range(20) for i in range(20)}
    keys |= {tuple(_draws(sampling.Rng(s))) for s in range(400)}
    assert len(keys) == 800


def test_rng_rejects_negative_seeds():
    # random.Random drops the sign, so Rng(-3) would draw as Rng(3)
    with pytest.raises(ValueError):
        sampling.Rng(-3)


@pytest.mark.parametrize("seed", [2.0, True, False, "2", None])
def test_rng_rejects_seeds_that_are_not_ints(seed):
    # random.Random seeds a float or a bool by its value, so Rng(2.0) would
    # draw as Rng(2) and Rng(True) as Rng(1)
    with pytest.raises(TypeError):
        sampling.Rng(seed)


@pytest.mark.parametrize("index", ["1:2", 1.0, True, None])
def test_rng_streams_reject_indices_that_are_not_ints(index):
    # the child is seeded by the text "<seed>:<index>", so stream("1:2")
    # would draw as stream(1).stream(2); floats and bools go as for seeds
    with pytest.raises(TypeError):
        sampling.Rng(0).stream(index)


def _stream_bounds():
    """Small bounds, the bounds either side of 2^8 and of every 2^k up to
    k = 69, and two past any machine word."""
    yield from range(1, 11)
    yield from (255, 256, 257)
    for k in range(1, 70):
        yield from (2 ** k - 1, 2 ** k, 2 ** k + 1)
    yield from (10 ** 40, 3 ** 200)


@pytest.mark.parametrize("seed", [0, 1, 2024])
def test_rng_draws_the_standard_library_stream(seed):
    # uniform_int and subset run randrange's rejection loop over getrandbits
    # themselves; the PartialSumTree oracle draws through uniform_int too, so
    # only the standard library's own randrange can catch a changed stream
    rng, ref = sampling.Rng(seed), random.Random(seed)
    for m in _stream_bounds():
        for _ in range(4):
            assert rng.uniform_int(m) == ref.randrange(m) + 1, m
        assert rng._r.getstate() == ref.getstate(), m
    for population, k in [(0, 0), (1, 1), (5, 2), (10, 10), (257, 100), (2 ** 16 + 1, 40), (10 ** 5, 3)]:
        pool = list(range(population))
        for i in range(k):
            j = i + ref.randrange(population - i)
            pool[i], pool[j] = pool[j], pool[i]
        assert rng.subset(population, k) == sorted(pool[:k]), (population, k)
        assert rng._r.getstate() == ref.getstate(), (population, k)


def test_rng_repr():
    assert sampling.RNG_ALGORITHM in repr(sampling.Rng(3))


# -- partial-sum trees ----------------------------------------------------------

M0 = [("a", 2), ("b", 3), ("c", 1)]
M2 = [("a", 8), ("b", 4), ("c", 9), ("d", 4), ("f", 1), ("e", 8)]


def test_pst_build_and_totals():
    pst = sampling.PartialSumTree(M0)
    assert pst.total_weight == 6
    assert pst.weights[pst.slot_of["b"]] == 3
    assert pst.audit()


def test_pst_layout_reference():
    pst = sampling.PartialSumTree(M2)
    assert pst.total_weight == 34
    assert pst.below[1] == 9
    assert pst.below[2] == 17
    assert pst.audit()


def test_pst_empty():
    pst = sampling.PartialSumTree([])
    assert pst.total_weight == 0
    assert pst.keys == ()
    assert pst.audit()
    with pytest.raises(ValueError):
        pst.sample(sampling.Rng(1))


def test_pst_single_entry():
    pst = sampling.PartialSumTree([("only", 5)])
    assert pst.sample(sampling.Rng(1)) == "only"


def test_pst_build_errors():
    with pytest.raises(ValueError):
        sampling.PartialSumTree([("a", 1), ("a", 2)])
    with pytest.raises(ValueError):
        sampling.PartialSumTree([("a", -1)])


def test_pst_distribution():
    rng = sampling.Rng(77)
    pst = sampling.PartialSumTree(M0)
    hits = {"a": 0, "b": 0, "c": 0}
    n = 12000
    for _ in range(n):
        hits[pst.sample(rng)] += 1
    assert abs(hits["a"] / n - 1 / 3) < 0.02
    assert abs(hits["b"] / n - 1 / 2) < 0.02
    assert abs(hits["c"] / n - 1 / 6) < 0.02


def test_pst_update_shifts_distribution():
    pst = sampling.PartialSumTree(M0)
    touched = pst.update("a", 0)
    assert touched <= len(M0).bit_length()
    assert pst.total_weight == 4
    rng = sampling.Rng(5)
    hits = {"b": 0, "c": 0}
    n = 8000
    for _ in range(n):
        hits[pst.sample(rng)] += 1
    assert abs(hits["b"] / n - 3 / 4) < 0.02
    assert abs(hits["c"] / n - 1 / 4) < 0.02


def test_pst_update_errors():
    pst = sampling.PartialSumTree(M0)
    with pytest.raises(KeyError):
        pst.update("x", 1)
    with pytest.raises(ValueError):
        pst.update("a", -2)


def test_pst_zeroed_never_sampled():
    pst = sampling.PartialSumTree(M2)
    pst.update("c", 0)
    pst.update("f", 0)
    rng = sampling.Rng(13)
    for _ in range(20000):
        assert pst.sample(rng) not in ("c", "f")


def test_pst_touched_is_logarithmic():
    entries = [(i, 1) for i in range(2 ** 10)]
    pst = sampling.PartialSumTree(entries)
    bound = math.ceil(math.log2(len(entries))) + 1
    assert bound == 11
    for i in (0, 1, 511, 512, 1023):
        assert pst.update(i, 2) <= bound


def test_pst_audit_catches_corruption():
    pst = sampling.PartialSumTree(M0)
    pst.below[0] += 1  # simulate a broken invariant
    assert not pst.audit()


def test_pst_random_ops_stay_consistent():
    rng = sampling.Rng(2023)
    keys = list(range(40))
    pst = sampling.PartialSumTree([(k, k % 5) for k in keys])
    for step in range(2000):
        k = keys[rng.uniform_int(40) - 1]
        pst.update(k, rng.uniform_int(9) - 1)
        if pst.total_weight:
            pst.sample(rng)
    assert pst.audit()


# -- the flat-array baseline ------------------------------------------------------

def test_naive_sample_matches_flat_array():
    # same seed, same draw: the naive sampler is literally an indexed lookup
    flat = list("aabbbc")
    for seed in range(10):
        got = oracles.naive_sample(M0, sampling.Rng(seed))
        want = flat[sampling.Rng(seed).uniform_int(6) - 1]
        assert got == want


def test_naive_sample_distribution():
    rng = sampling.Rng(21)
    hits = {"a": 0, "b": 0, "c": 0}
    n = 9000
    for _ in range(n):
        hits[oracles.naive_sample(M0, rng)] += 1
    assert abs(hits["a"] / n - 1 / 3) < 0.02
    assert abs(hits["b"] / n - 1 / 2) < 0.02


def test_naive_sample_limits():
    with pytest.raises(oracles.BudgetError) as e:
        oracles.naive_sample([("a", oracles.NAIVE_SAMPLE_LIMIT + 1)], sampling.Rng(1))
    assert e.value.budget == oracles.NAIVE_SAMPLE_LIMIT
    with pytest.raises(ValueError):
        oracles.naive_sample([("a", 0)], sampling.Rng(1))


def test_pst_and_naive_agree_in_distribution():
    n = 6000
    counts_pst = {k: 0 for k, _ in M2}
    counts_naive = {k: 0 for k, _ in M2}
    pst = sampling.PartialSumTree(M2)
    r1, r2 = sampling.Rng(31).stream(0), sampling.Rng(31).stream(1)
    for _ in range(n):
        counts_pst[pst.sample(r1)] += 1
        counts_naive[oracles.naive_sample(M2, r2)] += 1
    for key, w in M2:
        assert abs(counts_pst[key] / n - counts_naive[key] / n) < 0.03, key


# -- run-prefix probabilities -----------------------------------------------------

def test_prefix_probability_anchors(ref_tree):
    assert sampling.prefix_probability(ref_tree, (1,)) == 1
    assert sampling.prefix_probability(ref_tree, (1, 2, 4)) == Fraction(3, 4)
    full = trees.validate_run_prefix(ref_tree, (1, 2, 4, 6, 5, 3))
    assert sampling.prefix_probability(ref_tree, full) == Fraction(1, 8)
    preorder = tuple(range(1, 7))
    assert sampling.prefix_probability(ref_tree, preorder) == Fraction(1, 8)


def test_prefix_probability_matches_oracle():
    for n in range(1, 7):
        for shape in oracles.all_shapes(n):
            t = trees.parse_process(oracles.to_term(shape))
            for run in oracles.all_runs(shape):
                for p in range(1, n + 1):
                    assert sampling.prefix_probability(t, run[:p]) == \
                        oracles.prefix_probability(shape, run[:p])


def test_prefix_probability_rejects_bad_prefixes(ref_tree):
    for bad in ([], [2], [1, 5], [1, 2, 2]):
        with pytest.raises(ValueError):
            sampling.prefix_probability(ref_tree, bad)


def test_prefix_probability_step_counts(kernel_calls):
    rng = sampling.Rng(64)
    t = sampling.uniform_random_tree(50, rng)
    run = sampling.sample_run(t, rng)
    parents = [t.parent(v) for v in range(1, 51)]
    for p in range(2, 51):
        kernel_calls.clear()
        rho = sampling.prefix_probability(t, run[:p])
        steps = sum(map(len, kernel_calls))
        assert steps == p - 1
        assert rho == oracles.prefix_probability_sequential(parents, run[:p])


def test_prefix_probability_children_sum_to_parent(ref_tree):
    for sigma in [(1,), (1, 2), (1, 2, 4), (1, 2, 3)]:
        enabled = [c for v in sigma for c in ref_tree.children(v) if c not in sigma]
        base = sampling.prefix_probability(ref_tree, sigma)
        ext = sum(sampling.prefix_probability(ref_tree, sigma + (v,)) for v in enabled)
        assert ext == base


# -- exact counting through the probability route -----------------------------------

def test_count_runs_matches_hook():
    for n in range(1, 9):
        for t in conftest.plane_trees(n):
            assert sampling.count_runs_via_probability(t) == counts.hook_count(t)


def test_count_runs_extremes():
    path = trees.SyntaxTree.from_degree_word([1] * 11 + [0], None)
    assert sampling.count_runs_via_probability(path) == 1
    star = trees.SyntaxTree.from_degree_word([11] + [0] * 11, None)
    assert sampling.count_runs_via_probability(star) == math.factorial(11)


def test_count_runs_step_budget(kernel_calls):
    for size in (50, 200, 400):
        t = sampling.uniform_random_tree(size, sampling.Rng(size))
        kernel_calls.clear()
        count = sampling.count_runs_via_probability(t)
        steps = sum(map(len, kernel_calls))
        assert count == counts.hook_count(t)
        assert steps <= 2 * size


def test_count_runs_agrees_with_sequential_product():
    t = sampling.uniform_random_tree(100, sampling.Rng(8))
    rho = Fraction(1)
    sizes = t.subtree_sizes()
    for k in range(2, 101):
        rho *= Fraction(sizes[k - 1], 100 - k + 1)
    assert sampling.count_runs_via_probability(t) == 1 / rho


# -- uniform run sampling -----------------------------------------------------------

def test_sample_run_path_is_deterministic():
    path = trees.SyntaxTree.from_degree_word([1] * 7 + [0], None)
    run = sampling.sample_run(path, sampling.Rng(1))
    assert run == tuple(range(1, 9))


def test_sample_run_is_always_a_run():
    rng = sampling.Rng(17)
    for n in (2, 5, 9, 30):
        t = sampling.uniform_random_tree(n, rng)
        for _ in range(20):
            run = sampling.sample_run(t, rng)
            assert trees.validate_run_prefix(t, run) == run
            assert len(run) == n


def _logged_rng(seed):
    """Rng(seed) and the (k, value) of every getrandbits call its
    generator makes, in call order."""
    rng = sampling.Rng(seed)
    log = []
    real = rng._r.getrandbits

    def spy(k):
        value = real(k)
        log.append((k, value))
        return value

    rng._r.getrandbits = spy
    return rng, log


@pytest.fixture
def draw_log(monkeypatch):
    """(total weight, nonzero weights) at every partial-sum tree draw that
    sampling makes, in draw order."""
    log = []

    class Spy(sampling.PartialSumTree):
        __slots__ = ()

        def sample(self, rng):
            log.append((self.total_weight, sum(1 for w in self.weights if w)))
            return super().sample(rng)

    monkeypatch.setattr(sampling, "PartialSumTree", Spy)
    return log


def test_sample_run_observer_invariant(ref_tree):
    # the root (step 1) is forced and taken without a draw
    rng, calls = _logged_rng(23)
    assert sampling.sample_run(trees.SyntaxTree.from_degree_word([0]), rng) == (1,)
    assert calls == []
    for t in (ref_tree, sampling.uniform_random_tree(40, sampling.Rng(3))):
        rng, calls = _logged_rng(23)
        n = t.size
        run = sampling.sample_run(t, rng)
        assert run[0] == 1 and len(run) == n
        # steps 2..n draw once each among the n - p + 1 pending actions:
        # k = bound.bit_length() bits a call, rejected while the value is
        # the bound or more, and exactly one value below it ends the step
        replay = iter(calls)
        for p in range(2, n + 1):
            bound = n - p + 1
            for k, value in replay:
                assert k == bound.bit_length()
                if value < bound:
                    break
            else:
                pytest.fail(f"step {p} drew no value below {bound}")
        # no call is left over
        assert next(replay, None) is None


def test_sample_run_observer_matches_suspension(ref_tree, draw_log):
    # sample_run inlines the partial-sum tree, so the spy watches the
    # PartialSumTree route, which the test_sample_run_matches_partial_sum_tree
    # tests hold to sample_run draw for draw
    run = oracles.sample_run_pst(ref_tree, sampling.Rng(29))
    assert len(draw_log) == 5
    for p, (total, enabled) in enumerate(draw_log, start=2):
        assert total == 6 - p + 1
        assert 1 <= enabled <= total
        prefix = run[:p - 1]
        assert enabled == sum(c not in prefix for v in prefix for c in ref_tree.children(v))


def _same_draws(t, seed, runs):
    """sample_run and the PartialSumTree route give equal runs from equal
    seeds and leave their generators in equal states."""
    fast, ref = sampling.Rng(seed), sampling.Rng(seed)
    for _ in range(runs):
        assert sampling.sample_run(t, fast) == oracles.sample_run_pst(t, ref)
    assert fast._r.getstate() == ref._r.getstate()


def test_sample_run_matches_partial_sum_tree_small():
    for n in range(1, 8):
        for t in conftest.plane_trees(n):
            for seed in (0, 5, 2024):
                _same_draws(t, seed, 3)


def test_sample_run_matches_partial_sum_tree_shapes():
    caterpillar = [2, 0] * 99 + [1, 0]
    wide = [100] + [d for k in range(100) for d in [1] * (k % 3) + [0]]
    named = [
        trees.parse_process("a.b || c.(d || e) || f", allow_forest=True),
        trees.SyntaxTree.from_degree_word([300] + [0] * 300),  # star
        trees.SyntaxTree.from_degree_word([1] * 299 + [0]),  # chain
        trees.SyntaxTree.from_degree_word(caterpillar),
        trees.SyntaxTree.from_degree_word(wide),
    ]
    for t in named:
        for seed in (1, 77):
            _same_draws(t, seed, 4)
    rng = sampling.Rng(8)
    for n in (9, 30, 120, 500, 3000):
        t = sampling.uniform_random_tree(n, rng)
        _same_draws(t, n, 2)


def test_sample_run_matches_partial_sum_tree_at_heap_level_boundaries():
    # the drawn slot i and its first child's slot i + 1 are walked up
    # together; where i + 1 = 2^k - 1 opens a new heap level, the two paths
    # meet only at the root.  A chain draws every slot in turn, so it crosses
    # each such boundary; n just under, at and over a power of two leaves the
    # last heap level nearly full, full, or holding one slot
    rng = sampling.Rng(12)
    for k in range(1, 12):
        for n in (2 ** k - 1, 2 ** k, 2 ** k + 1):
            chain = trees.SyntaxTree.from_degree_word([1] * (n - 1) + [0])
            star = trees.SyntaxTree.from_degree_word([n - 1] + [0] * (n - 1))
            for t in (chain, star, sampling.uniform_random_tree(n, rng)):
                _same_draws(t, n, 2)


def test_sampled_run_probability_is_uniform():
    # the probability of whatever comes out is exactly one over the count
    rng = sampling.Rng(41)
    for n in range(2, 9):
        for t in conftest.plane_trees(n):
            run = sampling.sample_run(t, rng)
            assert sampling.prefix_probability(t, run) == \
                Fraction(1, counts.hook_count(t))


def test_sample_run_covers_all_runs(ref_tree):
    rng = sampling.Rng(53)
    seen = {sampling.sample_run(ref_tree, rng) for _ in range(500)}
    assert seen == set(tuple(r) for r in oracles.all_runs((((), ((), ())),)))


def test_sample_run_holds_the_heap_and_the_run_only():
    # the subtree sizes are all a run reads of the tree: a table of child
    # ids built beside them took about 152 B per node here (10^4 nodes keep
    # the traced draw near 1 s; tracing slows it about 20x)
    n = 10 ** 4
    t = sampling.uniform_random_tree(n, sampling.Rng(6))
    t.subtree_sizes()
    rng = sampling.Rng(7)
    tracemalloc.start()
    try:
        run = sampling.sample_run(t, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sorted(run) == list(range(1, n + 1))
    assert peak < 100 * n, peak / n


# -- uniform shape sampling ----------------------------------------------------------

def test_uniform_tree_single_node():
    t = sampling.uniform_random_tree(1, sampling.Rng(1))
    assert t.size == 1
    assert t.labels == ("a",)


def test_uniform_tree_bad_size():
    with pytest.raises(ValueError):
        sampling.uniform_random_tree(0, sampling.Rng(1))


def test_uniform_tree_determinism_and_labels():
    a = sampling.uniform_random_tree(12, sampling.Rng(6))
    b = sampling.uniform_random_tree(12, sampling.Rng(6))
    assert a == b
    named = sampling.uniform_random_tree(3, sampling.Rng(6),
                                         labels=["x", "y", "z"])
    assert named.labels == ("x", "y", "z")


def test_uniform_tree_distribution_small():
    rng = sampling.Rng(97)
    hits: dict = {}
    n = 7000
    for _ in range(n):
        key = sampling.uniform_random_tree(4, rng).degree_word()
        hits[key] = hits.get(key, 0) + 1
    assert len(hits) == counts.catalan(4) == 5
    for key, c in hits.items():
        assert abs(c / n - 1 / 5) < 0.02, key


class _ChosenSlots:
    """Stands in for an Rng whose subset draw returns the given slots."""

    def __init__(self, slots):
        self.slots = slots

    def subset(self, population, k):
        assert (population, k) == (2 * len(self.slots), len(self.slots))
        return list(self.slots)


def _rotate_by_loop(degrees):
    """The valid rotation of a degree word summing to len - 1, cut after the
    first minimum of the running sum of (degree - 1), found by a loop."""
    best = acc = 0
    cut = len(degrees) - 1
    for i, d in enumerate(degrees):
        acc += d - 1
        if acc < best:
            best = acc
            cut = i
    return degrees[cut + 1:] + degrees[:cut + 1]


def test_uniform_degree_word_cuts_where_the_loop_does():
    # every (n - 1)-subset of the 2n - 2 slots, so every word of n degrees
    # summing to n - 1, for n up to 9
    for n in range(1, 10):
        for slots in itertools.combinations(range(2 * n - 2), n - 1):
            degrees = [0] * n
            for j, pos in enumerate(slots):
                degrees[pos - j] += 1
            word = sampling._uniform_degree_word(n, _ChosenSlots(slots))
            assert word == _rotate_by_loop(degrees), degrees


@given(st.integers(min_value=1, max_value=300), st.integers(min_value=0, max_value=10 ** 9))
@settings(max_examples=60, deadline=None)
def test_uniform_tree_property(n, seed):
    t = sampling.uniform_random_tree(n, sampling.Rng(seed))
    assert t.size == n
    word = t.degree_word()
    assert sum(word) == n - 1
