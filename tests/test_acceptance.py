"""Acceptance gate: twelve verifiable claims about the whole package.

Each test prints exactly one summary line (collected into the terminal
summary) of the form

    criterion NN <slug>: PASS (elapsed of budget)

and fails loudly if any sub-check misses its stated tolerance or the wall
clock exceeds the stated budget.
"""

import math
import time
from fractions import Fraction

import mpmath as mp

import conftest
import oracles
from mergeruns import counts, profiles, sampling, trees

REF_TERM = "a.b.(c || d.(e || f))"

RUN_SAMPLING_SEED = 20240801
TREE_SAMPLING_SEED = 20240802
PST_SEED = 20240803
BIG_TREE_SEED = 20240804


class Criterion:
    def __init__(self, num: int, slug: str, budget_s: float):
        self.num = num
        self.slug = slug
        self.budget = budget_s
        self.failures: list[str] = []
        self.started = time.perf_counter()

    def check(self, ok: bool, what: str):
        if not ok:
            self.failures.append(what)

    def finish(self):
        elapsed = time.perf_counter() - self.started
        if elapsed > self.budget:
            self.failures.append(f"took {elapsed:.2f}s, budget {self.budget:.0f}s")
        verdict = "FAIL" if self.failures else "PASS"
        line = (f"criterion {self.num:02d} {self.slug}: {verdict} "
                f"({elapsed:.2f}s of {self.budget:.0f}s)")
        if self.failures:
            line += " - " + "; ".join(self.failures)
        conftest.ACCEPTANCE_LINES.append(line)
        print(line)
        assert not self.failures, line


def chi2_quantile_999(df: int) -> float:
    # the x where the chi-squared CDF, P(df/2, x/2), reaches 0.999; the
    # search starts near the quantile, which is about df + 3.1 sqrt(2 df)
    return float(mp.findroot(
        lambda x: mp.gammainc(df / 2, 0, x / 2, regularized=True) - 0.999,
        df + 4 * mp.sqrt(df) + 6))


def test_criterion_01_reference_anchors():
    c = Criterion(1, "reference-term-anchors", 1.0)
    t = trees.parse_process(REF_TERM)
    c.check(counts.hook_count(t) == 8, "run count is not 8")
    prof = profiles.level_profile(t)
    c.check(prof == (1, 1, 2, 4, 8, 8), f"profile {prof}")
    c.check(prof[3] == 4, "length-four prefix count is not 4")
    c.check(profiles.semantic_size(t) == 24, "semantic size is not 24")
    rho = sampling.prefix_probability(t, (1, 2, 4))
    c.check(rho == Fraction(3, 4), f"prefix probability {rho}")
    c.finish()


def test_criterion_02_routes_agree_small():
    c = Criterion(2, "three-routes-per-shape", 120.0)
    for n in range(1, 8):
        for t in conftest.plane_trees(n):
            parents, _ = profiles.semantic_expansion(t)
            hook = counts.hook_count(t)
            c.check(oracles.leaf_count(parents) == hook, f"leaves != hook at {t.to_term()}")
            rho = sampling.prefix_probability(t, range(1, n + 1))
            c.check(Fraction(1) / rho == hook, f"1/rho != hook at {t.to_term()}")
            fast = profiles.level_profile(t)
            oracle = profiles.cut_profile(t)
            c.check(oracles.level_counts(parents) == fast == oracle,
                    f"profile routes differ at {t.to_term()}")
            if c.failures:
                break
        if c.failures:
            break
    c.finish()


def test_criterion_03_aggregates_match_means():
    c = Criterion(3, "aggregate-identities", 60.0)
    for n in range(1, 10):
        cat = counts.catalan(n)
        hooks = 0
        sizes = 0
        levels = [0] * n
        for t in conftest.plane_trees(n):
            hooks += counts.hook_count(t)
            prof = profiles.level_profile(t)
            sizes += sum(prof)
            for l, v in enumerate(prof):
                levels[l] += v
        c.check(hooks == counts.increasing_count(n), f"total runs at n={n}")
        c.check(sizes == counts.mean_size(n) * cat, f"total semantic size at n={n}")
        for l in range(n):
            c.check(levels[l] == counts.mean_level_width(n, n - 1 - l) * cat,
                    f"level {l} total at n={n}")
    c.finish()


def test_criterion_04_recurrences():
    c = Criterion(4, "verified-recurrences", 10.0)
    for n in range(3, 31):
        exact_sum = sum(counts.mean_level_width(n, i) for i in range(n))
        c.check(counts.mean_size(n) == exact_sum, f"mean size routes differ at n={n}")
    r = counts.r_sequence(30)
    fact = 2
    for n in range(3, 31):
        fact *= n
        c.check(r[n] == counts.mean_size(n) * 2 ** (n - 1) / fact,
                f"ratio identity fails at n={n}")
    c.check(r == oracles.r_recurrence(30), "ratio routes differ on 0..30")
    brute = [sum(oracles.cut_count(s) for s in oracles.all_shapes(n)) for n in range(4, 11)]
    rec = profiles.cut_count_sequence(10)
    c.check(brute == rec[4:], "cut-count routes differ on 4..10")
    c.finish()


def test_criterion_05_asymptotics():
    c = Criterion(5, "asymptotic-accuracy", 10.0)
    dev30 = abs(float(counts.mean_size(30)) / mp.mpf(str(counts.asymptotic_size(30).value)) - 1)
    c.check(dev30 < 1e-3, f"size deviation at 30 is {float(dev30):.2e}")
    dev60 = abs(float(counts.mean_size(60)) / mp.mpf(str(counts.asymptotic_size(60).value)) - 1)
    c.check(dev60 < dev30, "size deviation does not shrink from 30 to 60")
    w = counts.mean_width(40)
    est = counts.mean_width_asymptotic(40)
    rel = abs(float(mp.mpf(w.numerator) / w.denominator) / mp.mpf(str(est.value)) - 1)
    c.check(rel < 0.01, f"width deviation at 40 is {float(rel):.2e}")
    c.finish()


def test_criterion_06_constants():
    c = Criterion(6, "certified-constants", 60.0)
    t0 = time.perf_counter()
    enclosure = counts.log_constant_L(1e-6)
    c.check(enclosure.certified, "enclosure not certified")
    c.check(0.5790439217 in enclosure,
            f"known digits outside enclosure {enclosure}")
    t1 = time.perf_counter()
    r200 = counts.nonplane_count(200) / counts.nonplane_count(201)
    r400 = counts.nonplane_count(400) / counts.nonplane_count(401)
    eta = 2 * r400 - r200
    c.check(abs(eta - 0.3383218) < 1e-3, f"growth-rate extrapolation {eta:.7f}")
    c.check(time.perf_counter() - t1 < 30.0, "extrapolation over 30s")
    c.check(t1 - t0 < 60.0, "enclosure over 60s")
    c.finish()


def test_criterion_07_geometric_mean():
    c = Criterion(7, "geometric-mean", 60.0)
    with mp.workprec(200):
        for n in range(3, 10):
            logs = []
            for t in conftest.plane_trees(n):
                logs.append(mp.log(counts.hook_count(t)))
            brute = mp.exp(mp.fsum(logs) / counts.catalan(n))
            lib = mp.mpf(str(counts.geometric_mean_width(n, precision=160)))
            rel = abs(lib / brute - 1)
            c.check(rel < 1e-9, f"rel dev {float(rel):.2e} at n={n}")
        dev = abs(mp.mpf(str(counts.geometric_mean_width(3, precision=160))) - mp.sqrt(2))
        c.check(dev < 1e-30, "n=3 value is not sqrt(2)")
    c.finish()


def test_criterion_08_sampling_uniformity():
    c = Criterion(8, "sampling-uniformity", 60.0)
    t = trees.parse_process(REF_TERM)
    rng = sampling.Rng(RUN_SAMPLING_SEED)
    draws = 80_000
    hits: dict = {}
    for _ in range(draws):
        run = sampling.sample_run(t, rng)
        hits[run] = hits.get(run, 0) + 1
    c.check(len(hits) == 8, f"saw {len(hits)} distinct runs")
    expected = draws / 8
    for run, k in hits.items():
        c.check(abs(k / draws - 1 / 8) < 0.01, f"run {run} freq {k / draws:.4f}")
    stat = sum((k - expected) ** 2 / expected for k in hits.values())
    c.check(stat < chi2_quantile_999(7), f"chi2 {stat:.2f} at 7 df")

    rng = sampling.Rng(TREE_SAMPLING_SEED)
    draws = 140_000
    shapes: dict = {}
    for _ in range(draws):
        key = sampling.uniform_random_tree(5, rng).degree_word()
        shapes[key] = shapes.get(key, 0) + 1
    c.check(len(shapes) == 14, f"saw {len(shapes)} distinct shapes")
    for key, k in shapes.items():
        c.check(abs(k / draws - 1 / 14) < 0.01, f"shape {key} freq {k / draws:.4f}")
    c.finish()


def test_criterion_09_partial_sum_tree():
    c = Criterion(9, "weighted-multiset-structure", 30.0)
    rng = sampling.Rng(PST_SEED)
    entries = [(i, rng.uniform_int(20) - 1) for i in range(1024)]
    if not any(w for _, w in entries):
        entries[0] = (0, 1)
    pst = sampling.PartialSumTree(entries)
    bound = math.ceil(math.log2(len(entries))) + 1
    for _ in range(10_000):
        key = rng.uniform_int(1024) - 1
        touched = pst.update(key, rng.uniform_int(30) - 1)
        c.check(touched <= bound, f"touched {touched} over {bound}")
        if pst.total_weight:
            pst.sample(rng)
        if c.failures:
            break
    c.check(pst.audit(), "audit failed after the op mix")

    zeroed = {k for k in range(0, 1024, 7)}
    for k in zeroed:
        pst.update(k, 0)
    if pst.total_weight == 0:
        pst.update(1, 3)
    for _ in range(100_000):
        c.check(pst.sample(rng) not in zeroed, "sampled a zero-weight entry")
        if c.failures:
            break

    entries = [("a", 5), ("b", 1), ("c", 9), ("d", 2), ("e", 7)]
    pst2 = sampling.PartialSumTree(entries)
    n_each = 30_000
    got_pst = {k: 0 for k, _ in entries}
    got_naive = {k: 0 for k, _ in entries}
    r1 = sampling.Rng(PST_SEED).stream(1)
    r2 = sampling.Rng(PST_SEED).stream(2)
    for _ in range(n_each):
        got_pst[pst2.sample(r1)] += 1
        got_naive[oracles.naive_sample(entries, r2)] += 1
    stat = 0.0
    for k, _ in entries:
        pooled = (got_pst[k] + got_naive[k]) / 2
        stat += (got_pst[k] - pooled) ** 2 / pooled
        stat += (got_naive[k] - pooled) ** 2 / pooled
    c.check(stat < chi2_quantile_999(len(entries) - 1),
            f"two-sample chi2 {stat:.2f}")
    c.finish()


def test_criterion_10_linear_counting(kernel_calls):
    # the step counts are the factors the exact kernel receives (a spy)
    c = Criterion(10, "linear-probability-pass", 11.0)
    t0 = time.perf_counter()
    t = sampling.uniform_random_tree(50, sampling.Rng(BIG_TREE_SEED))
    run = sampling.sample_run(t, sampling.Rng(BIG_TREE_SEED + 1))
    for p in range(2, 51):
        kernel_calls.clear()
        sampling.prefix_probability(t, run[:p])
        steps = sum(map(len, kernel_calls))
        c.check(steps == p - 1, f"{steps} multiplications for length {p}")
    c.check(time.perf_counter() - t0 < 1.0, "prefix instrumentation over 1s")

    t1 = time.perf_counter()
    n = 100_000
    big = sampling.uniform_random_tree(n, sampling.Rng(BIG_TREE_SEED + 2))
    kernel_calls.clear()
    count = sampling.count_runs_via_probability(big)
    steps = sum(map(len, kernel_calls))
    elapsed = time.perf_counter() - t1
    c.check(steps <= 2 * n, f"{steps} multiplications is not a linear pass")
    c.check(count > 0 and count % 1 == 0, "count is not a positive integer")
    c.check(elapsed <= 10.0, f"large count took {elapsed:.2f}s")
    c.finish()


def test_criterion_11_degree_sequences():
    c = Criterion(11, "degree-sequence-round-trip", 10.0)
    for n in range(1, 10):
        for t in conftest.plane_trees(n):
            u = trees.degree_sequence_of_tree(t)
            back = trees.tree_from_degree_sequence(u, t.labels)
            c.check(back == t, f"round trip fails for {t.to_term()}")
            if c.failures:
                break
        if c.failures:
            break
    ref = trees.parse_process(REF_TERM)
    u = trees.degree_sequence_of_tree(ref)
    c.check(u == (1, 2, 1, 2, 1, 0), f"reference sequence {u}")
    c.check(trees.tree_from_degree_sequence((1, 2, 1, 2, 1, 0), ref.labels) == ref,
            "reference sequence does not rebuild the tree")
    c.finish()


def test_criterion_12_big_star_size():
    c = Criterion(12, "big-star-exact-size", 1.0)
    star = trees.SyntaxTree.from_degree_word([39] + [0] * 39, None)
    size = profiles.semantic_size(star)
    c.check(isinstance(size, int), "size is not an exact integer")
    c.check(size == sum(math.factorial(39) // math.factorial(k) for k in range(40)),
            "size does not match the factorial sum")
    c.check(size > 2.03e46, f"size {size} is not over 2.03e46")
    c.finish()
