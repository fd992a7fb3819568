"""Exact counting, mean quantities, and their verified recurrences."""

import math
import random
from decimal import Decimal
from fractions import Fraction
from itertools import takewhile

import mpmath as mp
import pytest

import oracles
from mergeruns import counts, sampling, trees

L_REFERENCE = 0.5790439217  # ten known digits of the log-scale constant


# -- run counts ---------------------------------------------------------------

def test_catalan_values():
    assert [counts.catalan(n) for n in range(1, 9)] == [1, 1, 2, 5, 14, 42, 132, 429]


def test_catalan_asymptotics():
    # catalan(n) * sqrt(pi n^3) / 4^(n-1) -> 1 + 9/(8n) + O(1/n^2)
    n = 20
    ratio = counts.catalan(n) * math.sqrt(math.pi * n ** 3) / 4 ** (n - 1)
    assert abs(ratio - (1 + 3 / 160)) < 1e-3


def test_increasing_values():
    assert [counts.increasing_count(n) for n in range(1, 6)] == [1, 1, 3, 15, 105]
    assert counts.increasing_count(3) == 3


def test_increasing_is_total_run_count():
    for n in range(1, 8):
        total = sum(oracles.run_count(s) for s in oracles.all_shapes(n))
        assert counts.increasing_count(n) == total


def test_hook_count_matches_oracle():
    for n in range(1, 8):
        for shape in oracles.all_shapes(n):
            t = trees.parse_process(oracles.to_term(shape))
            assert counts.hook_count(t) == oracles.run_count(shape)


def test_hook_count_extremes():
    path = trees.SyntaxTree.from_degree_word([1] * 9 + [0], None)
    assert counts.hook_count(path) == 1
    star = trees.SyntaxTree.from_degree_word([9] + [0] * 9, None)
    assert counts.hook_count(star) == math.factorial(9)


# -- the prime-exponent kernel --------------------------------------------------

def _ratio_reference(factors, top, bottom):
    q = Fraction(math.factorial(top), math.factorial(bottom) * math.prod(factors))
    return q.numerator, q.denominator


def test_ratio_random_multisets():
    rnd = random.Random(11)
    for _ in range(500):
        limit = rnd.choice([2, 3, 10, 64, 97, 1000])
        top = rnd.randint(0, limit)
        bottom = rnd.randint(0, top)
        factors = [rnd.randint(1, limit) for _ in range(rnd.randint(0, 30))]
        assert counts._ratio(factors, top, bottom) == \
            _ratio_reference(factors, top, bottom), (factors, top, bottom)


def test_ratio_edge_multisets():
    # the limit is the largest of top and the factors, up to which the primes run
    cases = [
        ([], 0, 0),
        ([], 1, 0),
        ([1] * 7, 1, 1),
        ([97], 0, 0),              # a lone prime at the limit
        ([], 97, 96),
        ([81], 3, 0),              # p^k equal to the limit
        ([3], 81, 80),
        ([64], 2, 1),              # the power of two goes through the shift
        ([], 64, 0),
        ([125, 2], 5, 3),
        ([5, 6], 6, 4),            # cancels to (1, 1)
        ([2] * 40, 4, 0),
        ([2], 0, 0),               # sqrt(limit) and limit/2 below 2
        ([], 2, 0),
        ([2], 3, 0),
        ([4, 3], 2, 0),
        ([7, 14], 49, 47),         # p^2 equal to the limit
        ([49], 7, 6),
        ([7, 14, 42], 48, 45),     # 7 just above sqrt(48)
        ([13, 26], 26, 24),        # p exactly limit/2
        ([26], 13, 12),
        ([], 26, 0),
        ([13], 25, 0),             # p just above limit/2
        ([], 25, 12),
        ([4, 3, 2, 1, 1, 1], 4, 2),  # 1s among the factors
        ([], 10, 10),              # bottom = top
        ([6, 7], 9, 9),
        ([], 10, 0),               # bottom = 0
        ([3, 5, 10], 10, 0),
    ]
    for factors, top, bottom in cases:
        assert counts._ratio(factors, top, bottom) == \
            _ratio_reference(factors, top, bottom), (factors, top, bottom)
    assert counts._ratio([5, 6], 6, 4) == (1, 1)
    assert counts._ratio([], 10, 10) == (1, 1)
    assert counts._ratio([], 5, 0) == (120, 1)


def _trial_division_primes(limit):
    primes = []
    for m in range(2, limit + 1):
        if all(m % p for p in takewhile(lambda p: p * p <= m, primes)):
            primes.append(m)
    return primes


def test_primes_match_trial_division():
    small = _trial_division_primes(300)
    for limit in range(301):
        assert counts._primes(limit) == [p for p in small if p <= limit], limit
    assert counts._primes(10 ** 5) == _trial_division_primes(10 ** 5)


def test_prime_sums_read_a_product_through_its_primes():
    # sum coef[m] ln m = sum out_p ln p, read exactly as a product of powers
    rnd = random.Random(43)
    for _ in range(200):
        coef = [0] + [rnd.randint(-3, 3) for _ in range(rnd.randint(0, 299))]
        primes = counts._primes(len(coef) - 1)
        out = counts._prime_sums(coef, primes)
        assert len(out) == len(primes)
        assert math.prod(Fraction(m) ** e for m, e in enumerate(coef) if m) == \
            math.prod(Fraction(p) ** e for p, e in zip(primes, out)), coef


def test_hook_count_matches_residue_oracle():
    t = sampling.uniform_random_tree(100_000, sampling.Rng(20241018))
    parents = [t.parent(v) for v in range(1, t.size + 1)]
    want = oracles.hook_residues(parents)
    assert [counts.hook_count(t) % p for p in oracles.RESIDUE_PRIMES] == want
    assert [sampling.count_runs_via_probability(t) % p
            for p in oracles.RESIDUE_PRIMES] == want


def test_long_prefix_probability_matches_sequential_product():
    t = sampling.uniform_random_tree(50_000, sampling.Rng(20241019))
    prefix = sampling.sample_run(t, sampling.Rng(20241020))[:5000]
    parents = [t.parent(v) for v in range(1, t.size + 1)]
    rho = sampling.prefix_probability(t, prefix)
    assert rho == oracles.prefix_probability_sequential(parents, prefix)
    assert math.gcd(rho.numerator, rho.denominator) == 1


# -- mean width ---------------------------------------------------------------

def test_mean_width_closed_form():
    assert counts.mean_width(6) == Fraction(45, 2)
    for n in range(1, 21):
        assert counts.mean_width(n) == Fraction(math.factorial(n), 2 ** (n - 1))
        assert counts.mean_width(n) == \
            Fraction(counts.increasing_count(n), counts.catalan(n))


def test_mean_width_is_average_over_shapes():
    for n in range(1, 8):
        shapes = oracles.all_shapes(n)
        avg = Fraction(sum(oracles.run_count(s) for s in shapes), len(shapes))
        assert counts.mean_width(n) == avg


def test_mean_width_asymptotic_certified():
    for n in (1, 5, 10, 20, 40, 60):
        est = counts.mean_width_asymptotic(n)
        assert est.certified
        assert counts.mean_width(n) in est


def test_asymptotics_past_the_float_range():
    for n in (197, 200, 400):
        est = counts.mean_width_asymptotic(n)
        assert mp.isfinite(mp.mpf(str(est.value))) and est.value > 1e308
        assert counts.mean_width(n) in est
        assert mp.isfinite(mp.mpf(str(counts.asymptotic_size(n).value)))


def test_mean_width_asymptotic_accuracy():
    n = 40
    est = counts.mean_width_asymptotic(n)
    exact = counts.mean_width(n)
    rel = abs(mp.mpf(exact.numerator) / exact.denominator / mp.mpf(str(est.value)) - 1)
    assert rel < 0.01
    assert rel < 1 / (4 * n)  # the defect is the ~1/(12n) Stirling correction


# -- per-level means ----------------------------------------------------------

def test_mean_level_width_anchors():
    assert counts.mean_level_width(6, 2) == Fraction(25, 2)
    for n in range(1, 15):
        assert counts.mean_level_width(n, 0) == \
            Fraction(math.factorial(n), 2 ** (n - 1))
        assert counts.mean_level_width(n, n - 1) == 1


def test_mean_level_width_integrality():
    # the mean times the number of shapes is a plain count
    for n in range(1, 21):
        c = counts.catalan(n)
        for i in range(n):
            total = counts.mean_level_width(n, i) * c
            assert total.denominator == 1


def test_mean_level_width_matches_oracle():
    # index i counts from the deep end: profile level l <-> i = n - 1 - l
    for n in range(1, 8):
        shapes = oracles.all_shapes(n)
        profiles_ = [oracles.profile_via_trie(s) for s in shapes]
        for l in range(n):
            total = sum(p[l] for p in profiles_)
            i = n - 1 - l
            assert counts.mean_level_width(n, i) * counts.catalan(n) == total


def test_mean_level_width_domain():
    with pytest.raises(ValueError):
        counts.mean_level_width(5, 5)
    with pytest.raises(ValueError):
        counts.mean_level_width(5, -1)


# -- mean semantic size -------------------------------------------------------

def test_mean_size_anchors():
    assert counts.mean_size(3) == 4
    assert counts.mean_size(4) == Fraction(44, 5)
    assert (counts.mean_size(6) * counts.catalan(6)).denominator == 1


def test_mean_size_routes_agree():
    for n in range(0, 31):
        assert counts.mean_size(n) == sum(counts.mean_level_width(n, i) for i in range(n)), n


def test_mean_size_is_sum_of_level_means():
    for n in range(1, 12):
        assert counts.mean_size(n) == \
            sum(counts.mean_level_width(n, i) for i in range(n))


def test_mean_size_matches_oracle():
    for n in range(1, 8):
        shapes = oracles.all_shapes(n)
        avg = Fraction(sum(oracles.semantic_size_via_trie(s) for s in shapes),
                       len(shapes))
        assert counts.mean_size(n) == avg


def test_cumulative_size_values():
    assert [counts.cumulative_size(n) for n in range(-1, 9)] == \
        [0, 0, 1, 2, 8, 44, 312, 2772, 30024, 385688]


def test_cumulative_size_is_integer_rescaling():
    for n in range(1, 15):
        assert counts.cumulative_size(n) == counts.mean_size(n) * counts.catalan(n)


@pytest.mark.parametrize("call, n, message", [
    (counts.catalan, 0, "n must be at least 1"),
    (counts.increasing_count, 0, "n must be at least 1"),
    (counts.mean_width, 0, "n must be at least 1"),
    (counts.mean_width_asymptotic, 0, "n must be at least 1"),
    (lambda n: counts.mean_level_width(n, 0), 0, "n must be at least 1"),
    (counts.asymptotic_size, 0, "n must be at least 1"),
    (counts.mean_size, -1, "n must be nonnegative"),
    (counts.geometric_mean_width, 1, "n must be at least 2"),
    (lambda n: sampling.Rng(1).uniform_int(n), 0, "upper must be at least 1"),
], ids=["catalan", "increasing_count", "mean_width", "mean_width_asymptotic",
        "mean_level_width", "asymptotic_size", "mean_size", "geometric_mean_width",
        "uniform_int"])
def test_refuses_arguments_below_its_domain(call, n, message):
    with pytest.raises(ValueError, match=message):
        call(n)


# -- the normalized ratio sequence ----------------------------------------------

def test_r_sequence_anchors():
    r = counts.r_sequence(6)
    assert r[3] == Fraction(8, 3)
    assert r[4] == Fraction(44, 15)
    assert r[5] == Fraction(104, 35)
    assert r[4] == r[6]  # an accidental repeat


def test_r_sequence_identity():
    r = counts.r_sequence(30)
    fact = 2
    for n in range(3, 31):
        fact *= n
        assert r[n] == counts.mean_size(n) * 2 ** (n - 1) / fact


def test_r_sequence_shape():
    # rises to the n = 5 peak, then decreases towards e from above
    r = counts.r_sequence(60)
    assert r[3] < r[4] < r[5]
    for n in range(5, 60):
        assert r[n] > r[n + 1]
    assert float(r[30]) == pytest.approx(2.7431543282, abs=1e-9)
    assert float(r[60]) > math.e
    assert float(r[60]) == pytest.approx(math.e, abs=0.02)


def test_r_sequence_domain():
    with pytest.raises(ValueError):
        counts.r_sequence(2)


# -- asymptotics of the mean size -----------------------------------------------

def test_asymptotic_size_accuracy():
    dev30 = abs(float(counts.mean_size(30)) / mp.mpf(str(counts.asymptotic_size(30).value)) - 1)
    assert dev30 < 1e-3
    dev60 = abs(float(counts.mean_size(60)) / mp.mpf(str(counts.asymptotic_size(60).value)) - 1)
    assert dev60 < dev30


def test_asymptotic_size_leading_term_residual():
    # dropping everything past the constant bracket term leaves a deficit
    # of order 1/(3n): at n = 30 it sits between 1/180 and 1/45
    n = 30
    lead = 2 * mp.e * mp.sqrt(2 * mp.pi * n) * (mp.mpf(n) / (2 * mp.e)) ** n
    exact = counts.mean_size(n)
    resid = abs(float(mp.mpf(exact.numerator) / exact.denominator / lead) - 1)
    assert 1 / 180 < resid < 1 / 45


# -- geometric mean -----------------------------------------------------------

def test_geometric_mean_trivial():
    assert counts.geometric_mean_width(2) == 1


def test_geometric_mean_small_surd():
    with mp.workprec(280):
        g = mp.mpf(str(counts.geometric_mean_width(3, precision=260)))
        assert abs(g - mp.sqrt(2)) < mp.mpf(10) ** -70


def test_geometric_mean_brute():
    for n in range(2, 8):
        shapes = oracles.all_shapes(n)
        with mp.workprec(150):
            logs = [mp.log(oracles.run_count(s)) for s in shapes]
            brute = mp.exp(mp.fsum(logs) / len(shapes))
            g = mp.mpf(str(counts.geometric_mean_width(n, precision=120)))
            assert abs(g / brute - 1) < mp.mpf(10) ** -25, n


def test_geometric_mean_matches_direct_formula():
    # the grown tables against every index computed from scratch
    for n in list(range(2, 61)) + [400]:
        with mp.workprec(100):  # the 80 + 20 bits asked for; 53 would round them away
            g = mp.mpf(str(counts.geometric_mean_width(n)))
        want = oracles.geometric_mean_width_direct(n)
        assert mp.nstr(g, 12) == mp.nstr(want, 12), n
        assert abs(g / want - 1) < mp.mpf(10) ** -20, n


def test_geometric_mean_below_arithmetic_mean():
    for n in range(3, 12):
        assert counts.geometric_mean_width(n) < float(counts.mean_width(n))


# -- the log-scale constant ---------------------------------------------------

def test_log_constant_enclosure():
    approx = counts.log_constant_L(1e-6)
    assert approx.certified
    assert approx.abs_error <= 1e-6
    assert L_REFERENCE in approx


def test_log_constant_tightest_target():
    # the last cutoff, 1.6e5 terms, meets the 1e-7 floor
    approx = counts.log_constant_L(1e-7)
    assert approx.certified
    assert approx.abs_error <= 1e-7
    assert L_REFERENCE in approx


def test_log_constant_unreachable_target():
    with pytest.raises(ValueError):
        counts.log_constant_L(1e-9)
    with pytest.raises(ValueError):  # NaN passes a < comparison
        counts.log_constant_L(float("nan"))


def test_log_constant_takes_the_first_cutoff_that_meets_the_target():
    # the half-widths at 10^4 and 4 10^4 terms are 1.2e-6 and 1.8e-7
    assert 1e-6 < counts.log_constant_L(2e-6).abs_error <= 2e-6
    assert 1e-7 < counts.log_constant_L(1e-6).abs_error <= 1e-6


def test_log_constant_partial_sums():
    # the series has positive terms: partials increase and stay below the sum
    p3 = oracles.log_constant_partial_sum(1_000)
    p5 = oracles.log_constant_partial_sum(100_000)
    assert p3 < p5 < L_REFERENCE
    assert abs(p5 - L_REFERENCE) < 0.02
    # the tail decays like log(N)/sqrt(N): even 3e7 terms only gets ~1e-3 close
    p7 = oracles.log_constant_partial_sum(30_000_000)
    assert p5 < p7 < L_REFERENCE
    assert abs(p7 - L_REFERENCE) < 2e-3


# -- unordered variant --------------------------------------------------------

def test_nonplane_values():
    want = [1, 1, 2, 4, 9, 20, 48, 115, 286, 719]
    assert [counts.nonplane_count(n) for n in range(1, 11)] == want
    with pytest.raises(ValueError):
        counts.nonplane_count(0)


def test_nonplane_mean_width():
    # the average run count over unordered shapes, (n-1)!/t_n
    assert Fraction(math.factorial(3), counts.nonplane_count(4)) == Fraction(3, 2)
    for n in range(1, 10):
        unordered = {oracles.unordered_key(s) for s in oracles.all_shapes(n)}
        assert counts.nonplane_count(n) == len(unordered), n


def test_nonplane_mean_width_asymptotic_trend():
    # (n-1)!/T_n ~ 2 sqrt(2) pi (n / 1.559490) (n eta / e)^n; the relative
    # deviation shrinks as n grows
    eta, gamma = 0.3383218391, 1.559490
    devs = []
    for n in (50, 100, 200):
        exact = Fraction(math.factorial(n - 1), counts.nonplane_count(n))
        with mp.workprec(300):
            est = 2 * mp.sqrt(2) * mp.pi * n / gamma * (n * mp.mpf(eta) / mp.e) ** n
            ratio = mp.mpf(exact.numerator) / exact.denominator / est
        devs.append(abs(float(ratio) - 1))
    assert devs[0] > devs[1] > devs[2]
    assert devs[0] < 1e-3
    assert devs[2] < 2e-4


def test_nonplane_growth_rate():
    # first-order Richardson on the consecutive-ratio reciprocals
    eta = 0.3383218
    r200 = counts.nonplane_count(200) / counts.nonplane_count(201)
    r400 = counts.nonplane_count(400) / counts.nonplane_count(401)
    extrapolated = 2 * r400 - r200
    assert abs(extrapolated - eta) < 1e-3
    assert abs(r400 - eta) > abs(extrapolated - eta)  # extrapolation helps


# -- bounds on level means ------------------------------------------------------

def test_level_bounds_check():
    # 1 <= mean_level_width(n, i) 2^(n-1) i!/n! <= 1/(1 - i^2/2n), claimed
    # while i^2 < 2n
    def scaled(n, i):
        return counts.mean_level_width(n, i) * 2 ** (n - 1) * math.factorial(i) / math.factorial(n)

    assert scaled(50, 0) == 1  # the deep end is tight at one
    for n, i in [(50, 3)] + [(100, i) for i in range(0, 14)]:
        assert i * i < 2 * n
        assert 1 <= scaled(n, i) <= 1 / (1 - Fraction(i * i, 2 * n)), (n, i)


# -- the Approx container -------------------------------------------------------

def test_approx_contains_and_str():
    a = counts.Approx(1.0, 0.25, certified=True)
    assert 1.2 in a and 0.8 in a and 2.0 not in a
    assert "+-" in str(a)
    assert "~" in str(counts.Approx(1.0, 0.25))


def test_approx_contains_compares_exactly():
    a = counts.Approx(Decimal(1), Decimal("0.25"), certified=True)
    assert Fraction(5, 4) in a and Decimal("0.75") in a and 1.25 in a
    assert Decimal("1.2500000000000000000000000001") not in a
    assert Fraction(3, 4) - Fraction(1, 10 ** 40) not in a
    assert str(a) == "1 (+-0.25)"


def test_decimal_constants():
    # pi to at least 50 digits, and an exponent range past any float
    assert len(counts._PI.as_tuple().digits) >= 50
    with mp.workdps(80):
        assert abs(mp.mpf(str(counts._PI)) - mp.pi) < mp.mpf(10) ** -58
    ctx = counts._context(20)
    assert ctx.power(10, 10 ** 6) == Decimal("1e1000000")
    assert ctx.power(10, -10 ** 6) == Decimal("1e-1000000")


def test_approx_is_immutable_and_keeps_its_repr():
    a = counts.Approx(mp.mpf(1), mp.mpf("0.25"), certified=True)
    with pytest.raises(AttributeError):
        a.value = mp.mpf(2)
    assert repr(a) == "Approx(value=mpf('1.0'), abs_error=mpf('0.25'), certified=True)"
    assert counts.Approx(1.0, 0.25).certified is False
