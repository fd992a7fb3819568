"""Command line behaviour: formats, determinism, exit codes."""

import contextlib
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest

import oracles
from mergeruns import cli, counts, profiles, sampling, trees

TERM = "a.b.(c || d.(e || f))"


def run(capsys, *argv):
    code = cli.run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- count ------------------------------------------------------------------

def test_count_text(capsys):
    code, out, err = run(capsys, "count", TERM)
    assert code == 0 and not err
    lines = out.splitlines()
    assert lines[0] == "8"
    assert "cross-check" in lines[1] and "agree" in lines[1]


def test_count_json(capsys):
    code, out, _ = run(capsys, "count", TERM, "--format", "json")
    doc = json.loads(out)
    assert doc == {"actions": 6, "runs": 8, "runs_via_probability": 8, "agree": True}


def test_count_large_value_gets_scientific_suffix(capsys):
    star = "a.(" + " || ".join(f"x{i}" for i in range(15)) + ")"
    code, out, _ = run(capsys, "count", star)
    assert code == 0
    assert out.splitlines()[0] == f"{1307674368000} (~1.307674e+12)"


def test_count_prints_integers_past_the_digit_limit(capsys, tmp_path):
    t = sampling.uniform_random_tree(3000, sampling.Rng(7))
    path = tmp_path / "big.term"
    path.write_text(t.to_term(), encoding="utf-8")
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "count", "--input", str(path))
    assert code == 0 and not err
    assert sys.get_int_max_str_digits() == limit
    first, second = out.splitlines()
    hook = counts.hook_count(t)
    assert hook > 10 ** 4300
    sys.set_int_max_str_digits(0)  # reading the digits back needs the same lift
    try:
        assert int(first.split()[0]) == hook
        assert int(second.split(": ")[1].split()[0]) == hook
    finally:
        sys.set_int_max_str_digits(limit)


def test_count_json_past_the_digit_limit(capsys, tmp_path):
    # the line is built from one decimal conversion; it must be the one
    # json.dumps writes
    t = sampling.uniform_random_tree(3000, sampling.Rng(7))
    path = tmp_path / "big.term"
    path.write_text(t.to_term(), encoding="utf-8")
    code, out, err = run(capsys, "count", "--input", str(path), "--format", "json")
    assert code == 0 and not err
    hook = counts.hook_count(t)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert len(str(hook)) > 4300
        want = json.dumps({"actions": 3000, "runs": hook, "runs_via_probability": hook,
                           "agree": True}, sort_keys=True)
        assert out == want + "\n"
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("x", [
    10 ** 4400 - 1,                   # rounds up into the next power of ten
    12345675 * 10 ** 4393,            # ties at the seventh significant digit
    12345665 * 10 ** 4393,
    12345665 * 10 ** 4393 + 1,        # the last digit breaks the tie
    5 * 10 ** 4500,
    3 ** 20000,
], ids=["all-nines", "tie-up", "tie-down", "above-tie", "five", "power-of-three"])
def test_count_format_past_the_digit_limit(x):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # as run_cli does for a command
    try:
        assert len(str(x)) > 4300
        assert cli._fmt_count(x) == f"{x} (~{Decimal(x):.6e})"
    finally:
        sys.set_int_max_str_digits(limit)


# -- prob ---------------------------------------------------------------------

def test_prob_by_labels(capsys):
    code, out, _ = run(capsys, "prob", TERM, "--prefix", "a,b,d")
    assert code == 0
    assert out.startswith("3/4 ")


def test_prob_by_ids(capsys):
    code, out, _ = run(capsys, "prob", TERM, "--prefix", "#1,#2,#4")
    assert out.startswith("3/4 ")
    code, out, _ = run(capsys, "prob", TERM, "--prefix", "a,b#2,d#4")
    assert out.startswith("3/4 ")


def test_prob_json(capsys):
    _, out, _ = run(capsys, "prob", TERM, "--prefix", "a,b,d", "--format", "json")
    doc = json.loads(out)
    assert doc["probability"] == [3, 4]
    assert doc["prefix"] == [1, 2, 4]


def test_prob_below_the_float_range(capsys):
    # 1/200! is about 1.27e-375, which a float reads as 0
    star = "a.(" + " || ".join(f"x{i}" for i in range(200)) + ")"
    prefix = "a," + ",".join(f"x{i}" for i in range(200))
    code, out, _ = run(capsys, "prob", star, "--prefix", prefix)
    assert code == 0
    assert out == f"1/{math.factorial(200)} (~1.26798e-375)\n"
    code, out, _ = run(capsys, "prob", star, "--prefix", prefix, "--format", "json")
    assert code == 0
    assert out == (f'{{"approx": 1.26798e-375, "prefix": {list(range(1, 202))}, '
                   f'"probability": [1, {math.factorial(200)}]}}\n')


def test_prob_unknown_label(capsys):
    code, _, err = run(capsys, "prob", TERM, "--prefix", "a,zz")
    assert code == 1
    assert err == "mergeruns: error: no action labelled 'zz'\n"


def test_prob_ambiguous_label(capsys):
    code, _, err = run(capsys, "prob", "a.(b || b)", "--prefix", "a,b")
    assert code == 1
    assert err == "mergeruns: error: label 'b' is ambiguous (ids 2, 3); use label#id\n"
    # either id form resolves it
    for token, v in (("b#2", 2), ("b#3", 3)):
        _, out, _ = run(capsys, "prob", "a.(b || b)", "--prefix", f"a,{token}", "--format", "json")
        assert json.loads(out)["prefix"] == [1, v]


def test_prob_forest_root_by_label(capsys):
    # the forest root's label holds '#', and is tried whole before id forms
    for prefix in ("#root,a", "#root#1,a", "#1,a"):
        code, out, _ = run(capsys, "prob", "a.b || c", "--forest", "--prefix", prefix,
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["prefix"] == [1, 2]
    code, _, err = run(capsys, "prob", "a.b", "--prefix", "#root,a")
    assert code == 1
    assert err == "mergeruns: error: bad node id in '#root'\n"


def test_prob_wrong_label_for_id(capsys):
    code, _, err = run(capsys, "prob", TERM, "--prefix", "a,c#2")
    assert code == 1
    assert "labelled" in err
    code, _, err = run(capsys, "prob", TERM, "--prefix", "#1,#9")
    assert code == 1
    assert err == "mergeruns: error: node id 9 out of range 1..6\n"


def test_library_key_error_is_not_a_user_error(monkeypatch):
    # only user input is reported as an error line with exit 1; a KeyError
    # from a lookup inside a command is a bug and propagates
    def broken(t, sigma):
        raise KeyError("lookup")

    monkeypatch.setattr(sampling, "prefix_probability", broken)
    with pytest.raises(KeyError):
        cli.run_cli(["prob", TERM, "--prefix", "a,b"])


# -- sample ---------------------------------------------------------------------

def test_sample_deterministic(capsys):
    first = run(capsys, "sample", TERM, "--samples", "20", "--seed", "9")
    second = run(capsys, "sample", TERM, "--samples", "20", "--seed", "9")
    assert first == second
    assert first[0] == 0
    assert len(first[1].splitlines()) == 20
    token = first[1].split()[0]
    assert token == "a#1"


def test_sample_freq_table(capsys):
    code, out, _ = run(capsys, "sample", TERM, "--samples", "64",
                       "--seed", "3", "--freq")
    lines = out.splitlines()
    freq_lines = [l for l in lines if l.startswith("freq ")]
    assert sum(int(l.split()[1]) for l in freq_lines) == 64


def test_sample_json_probabilities(capsys):
    _, out, _ = run(capsys, "sample", TERM, "--samples", "4", "--seed", "5",
                    "--format", "json")
    doc = json.loads(out)
    assert doc["seed"] == 5
    assert len(doc["runs"]) == 4
    for entry in doc["runs"]:
        assert len(entry["actions"]) == 6
        num = den = 1
        for a, b in entry["step_probabilities"]:
            num *= a
            den *= b
        assert den == 8 * num  # every complete run has probability 1/8


def test_sample_json_freq_tallies_the_printed_runs(capsys):
    # the table is tallied on a first pass of the seeded stream; the runs
    # printed after it replay that stream, so they agree with it and with
    # the text output of the same seed
    argv = ["sample", TERM, "--samples", "40", "--seed", "6"]
    _, text, _ = run(capsys, *argv, "--freq")
    _, out, _ = run(capsys, *argv, "--freq", "--format", "json")
    doc = json.loads(out)
    assert list(doc) == ["frequency", "runs", "seed"]
    lines = [" ".join(entry["actions"]) for entry in doc["runs"]]
    assert doc["frequency"] == Counter(lines)
    assert lines == text.splitlines()[:40]


@pytest.mark.parametrize("freq", [[], ["--freq"]])
def test_sample_json_is_the_sorted_dump(capsys, freq):
    # a forest's '#root' tokens, each quoted once per command, and the step
    # pairs are written as json.dumps(..., sort_keys=True) would write them
    code, out, _ = run(capsys, "sample", "a.b || c.(d || e)", "--forest",
                       "--samples", "30", "--seed", "4", "--format", "json", *freq)
    assert code == 0 and '"#root#1"' in out
    assert out == json.dumps(json.loads(out), sort_keys=True) + "\n"


def test_sample_rejects_bad_count(capsys):
    code, _, err = run(capsys, "sample", TERM, "--samples", "0")
    assert code == 1 and "at least 1" in err


STEP_BUDGET = cli.SAMPLING_STEP_BUDGET


@pytest.mark.parametrize("argv, steps", [
    (["sample", "a.b", "--samples", str(10 ** 12)], 10 ** 12),
    (["sample", TERM, "--samples", str(STEP_BUDGET // 5 + 1)], 5 * (STEP_BUDGET // 5 + 1)),
    (["sample", "a", "--samples", str(STEP_BUDGET + 1)], STEP_BUDGET + 1),  # one step a run
    (["gen", "--size", str(10 ** 9)], 10 ** 9),
    (["gen", "--size", "1000", "--count", str(STEP_BUDGET // 1000 + 1)],
     1000 * (STEP_BUDGET // 1000 + 1)),
    # JSON with --freq tallies the runs in a pass of its own before printing them
    (["sample", TERM, "--samples", str(STEP_BUDGET // 10 + 1), "--freq", "--format", "json"],
     10 * (STEP_BUDGET // 10 + 1)),
])
def test_sampling_budget_refuses_before_drawing(capsys, monkeypatch, argv, steps):
    def no_draws(*args):
        raise AssertionError("drew before refusing")

    monkeypatch.setattr(sampling.Rng, "__init__", no_draws)
    code, out, err = run(capsys, *argv)
    assert code == 2 and not out
    assert "budget exceeded" in err
    assert f"predicts {steps} sampling steps" in err
    assert f"limit of {STEP_BUDGET}" in err


def test_sampling_budget_bounds_steps_not_commands(capsys, monkeypatch):
    monkeypatch.setattr(cli, "SAMPLING_STEP_BUDGET", 50)
    # 10 runs of 5 draws, and 10 shapes of 5 nodes, are exactly at the limit
    assert run(capsys, "sample", TERM, "--samples", "10")[0] == 0
    assert run(capsys, "sample", TERM, "--samples", "11")[0] == 2
    assert run(capsys, "sample", TERM, "--samples", "5", "--freq", "--format", "json")[0] == 0
    assert run(capsys, "sample", TERM, "--samples", "6", "--freq", "--format", "json")[0] == 2
    assert run(capsys, "gen", "--size", "5", "--count", "10")[0] == 0
    assert run(capsys, "gen", "--size", "5", "--count", "11")[0] == 2


@pytest.mark.parametrize("argv", [["sample", TERM], ["gen", "--size", "5"]])
def test_negative_seed_exits_1(capsys, argv):
    code, out, err = run(capsys, *argv, "--seed", "-3")
    assert code == 1 and not out
    assert "seed must be non-negative" in err


# -- profile ----------------------------------------------------------------------

def test_profile_csv(capsys):
    code, out, _ = run(capsys, "profile", TERM)
    lines = out.splitlines()
    assert lines[0] == "level,count"
    assert lines[1] == "0,1"
    assert lines[4] == "3,4"
    assert lines[6] == "5,8"


def test_profile_oracle_flag_matches(capsys):
    _, fast, _ = run(capsys, "profile", TERM)
    _, oracle, _ = run(capsys, "profile", TERM, "--oracle")
    assert fast == oracle
    for n in range(1, 7):
        for shape in oracles.all_shapes(n):
            term = oracles.to_term(shape)
            assert run(capsys, "profile", term, "--oracle") == run(capsys, "profile", term)
    argv = ["profile", "a.b || c.(d || e) || f", "--forest", "--format", "json"]
    assert run(capsys, *argv, "--oracle") == run(capsys, *argv)


def test_profile_oracle_refuses_on_size_alone(capsys):
    # a 10^5-leaf star has 2^(10^5) cuts; the refusal neither counts nor prints them
    star = "a.(" + " || ".join(f"x{i}" for i in range(10 ** 5)) + ")"
    code, out, err = run(capsys, "profile", star, "--oracle")
    assert code == 2 and not out
    assert err == ("mergeruns: budget exceeded: a 100001-node term is over the cut "
                   "enumeration cap of 18 nodes\n")
    assert len(err) < 200


def test_profile_json_log10(capsys):
    _, out, _ = run(capsys, "profile", TERM, "--format", "json")
    doc = json.loads(out)
    assert doc["levels"] == [1, 1, 2, 4, 8, 8]
    assert doc["log10"][0] == 0.0
    assert doc["log10"][-1] == pytest.approx(0.90309, abs=1e-5)


def _mp_log10(c: int) -> float:
    return float(mp.log10(mp.mpf(c)))


def test_profile_log10_matches_mpmath_on_profile_levels():
    # the json column is rounded to 6 places; the two routes may differ by
    # an ulp, never by a printed digit
    rng = sampling.Rng(4242)
    for n in range(10, 301, 3):
        for c in profiles.level_profile(sampling.uniform_random_tree(n, rng)):
            assert round(math.log10(c), 6) == round(_mp_log10(c), 6), (n, c)


def test_profile_log10_matches_mpmath_on_random_ints():
    r = random.Random(77)
    for _ in range(20_000):
        c = r.getrandbits(r.randint(1, 60_000)) or 1
        assert round(math.log10(c), 6) == round(_mp_log10(c), 6), c.bit_length()


def test_profile_refusal_names_the_term_size(capsys, tmp_path):
    src = tmp_path / "chain.term"
    src.write_text(".".join(f"x{i}" for i in range(profiles.PROFILE_FAST_LIMIT + 1)))
    code, out, err = run(capsys, "profile", "--input", str(src))
    assert code == 2 and not out
    assert "a 5001-node term is over the profile cap of 5000 nodes" in err


# -- semantic -----------------------------------------------------------------------

def test_semantic_dot_default(capsys):
    code, out, _ = run(capsys, "semantic", TERM)
    assert code == 0
    assert out.startswith("digraph")
    assert out.count("->") == 23  # 24 nodes, one edge each below the root


def test_semantic_text(capsys):
    _, out, _ = run(capsys, "semantic", TERM, "--format", "text")
    assert "nodes 24" in out
    assert "branches 8" in out


def test_semantic_json(capsys):
    _, out, _ = run(capsys, "semantic", TERM, "--format", "json")
    doc = json.loads(out)
    assert doc["nodes"] == 24
    assert doc["levels"] == [1, 1, 2, 4, 8, 8]


def test_semantic_budget_exit_code(capsys):
    # 10! = 3628800 runs: a budget of 1000 is under the bound of 10^6 of
    # them, and the exact 9864101 nodes decide at a budget past the bound
    wide = "r.(" + " || ".join(f"x{i}" for i in range(10)) + ")"
    code, out, err = run(capsys, "semantic", wide, "--budget", "1000")
    assert code == 2 and not out
    assert "at least 10^6 branches, over the budget of 1000 nodes" in err
    code, out, err = run(capsys, "semantic", wide, "--budget", "5000000")
    assert code == 2 and not out
    assert "exactly 9864101 nodes, over the budget of 5000000" in err


def test_semantic_budget_must_be_positive(capsys):
    for budget in ("0", "-3"):
        code, out, err = run(capsys, "semantic", TERM, "--budget", budget)
        assert code == 1 and not out
        assert "--budget must be at least 1" in err


def test_semantic_past_the_profile_cap(capsys):
    # a 6000-node chain has one branch: its 6000-node tree is within budget
    chain = ".".join(f"x{i}" for i in range(6000))
    code, out, _ = run(capsys, "semantic", chain, "--format", "text")
    assert code == 0
    assert out.splitlines()[:2] == ["nodes 6000", "branches 1"]


def test_semantic_refuses_a_chain_longer_than_its_budget(capsys, tmp_path):
    # its tree has a node per level: refused on the length, without the profile
    src = tmp_path / "chain.term"
    src.write_text(".".join(f"x{i}" for i in range(20000)))
    start = time.perf_counter()
    code, out, err = run(capsys, "semantic", "--input", str(src), "--budget", "19999")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and not out
    assert "at least 20000 nodes, one per level, over the budget of 19999" in err


def test_semantic_refuses_a_wide_term_by_its_run_count(capsys):
    # 5999! runs: refused on their logarithm, without the exact profile
    star = "r.(" + " || ".join(f"x{i}" for i in range(5999)) + ")"
    start = time.perf_counter()
    code, out, err = run(capsys, "semantic", star)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and not out
    # log10(5999!) = 20061.6...
    assert "at least 10^20061 branches, over the budget of 1000000 nodes" in err


def test_semantic_refuses_a_random_term_by_its_run_count(capsys, tmp_path):
    # under the profile cap too the bound comes first: summing this term's
    # exact profile, a 3403-digit count, would take seconds
    src = tmp_path / "uniform.term"
    src.write_text(sampling.uniform_random_tree(1500, sampling.Rng(3)).to_term())
    start = time.perf_counter()
    code, out, err = run(capsys, "semantic", "--input", str(src))
    assert time.perf_counter() - start < 1.0
    assert code == 2 and not out
    assert "at least 10^3402 branches, over the budget of 1000000 nodes" in err


# -- seq ------------------------------------------------------------------------------

def test_seq_csv_plain(capsys):
    code, out, _ = run(capsys, "seq", "catalan", "--to", "6", "--format", "csv")
    lines = out.splitlines()
    assert lines[0] == "n,value_numerator,value_denominator"
    assert lines[1] == "1,1,1"
    assert lines[6] == "6,42,1"


def test_seq_csv_with_ratio(capsys):
    _, out, _ = run(capsys, "seq", "mean_width", "--to", "6", "--format", "csv")
    lines = out.splitlines()
    assert lines[0] == "n,value_numerator,value_denominator,asymptotic_ratio"
    assert lines[6].startswith("6,45,2,1.0")


@pytest.mark.parametrize("name", ["mean_width", "mean_size"])
def test_seq_ratio_past_the_float_range(capsys, name):
    # the asymptotic estimates pass 1e308 at n = 197
    code, out, _ = run(capsys, "seq", name, "--to", "200", "--format", "json")
    assert code == 0
    rows = {r["n"]: r.get("asymptotic_ratio") for r in json.loads(out)["values"]}
    for n in range(197, 201):
        assert abs(rows[n] - 1) < 0.05, (n, rows[n])


@pytest.mark.parametrize("name", ["mean_width", "mean_size"])
def test_seq_json_ratio_is_the_rounded_quotient(capsys, name):
    # every ratio is float(exact / estimate), rounded once, with the
    # estimate recomputed by mpmath at 50 digits
    _, out, _ = run(capsys, "seq", name, "--to", "220", "--format", "json")
    rows = json.loads(out)["values"]
    with mp.workdps(50):
        for r in rows:
            n = r["n"]
            if n == 0:  # mean_size has no estimate at 0
                assert "asymptotic_ratio" not in r
                continue
            x = mp.mpf(n)
            stirling = mp.sqrt(2 * mp.pi * x) * (x / (2 * mp.e)) ** x
            if name == "mean_width":
                est = 2 * stirling
            else:
                est = mp.e * stirling * (2 + mp.mpf(2) / (3 * x) + mp.mpf(49) / (36 * x ** 2)
                                         + mp.mpf(27449) / (6480 * x ** 3))
            exact = mp.mpf(int(r["numerator"])) / int(r["denominator"])
            assert r["asymptotic_ratio"] == float(exact / est), n


def test_seq_nonplane_values(capsys):
    _, out, _ = run(capsys, "seq", "nonplane", "--to", "12", "--format", "csv")
    values = [int(line.split(",")[1]) for line in out.splitlines()[1:]]
    assert values == [1, 1, 2, 4, 9, 20, 48, 115, 286, 719, 1842, 4766]


def test_seq_fraction_values(capsys):
    _, out, _ = run(capsys, "seq", "r_seq", "--to", "4")
    lines = out.splitlines()
    assert lines[0].startswith("3 8/3")
    assert lines[1].startswith("4 44/15")


def test_seq_geomean_decimal(capsys):
    _, out, _ = run(capsys, "seq", "geomean", "--to", "3", "--format", "csv")
    lines = out.splitlines()
    assert lines[1] == "2,1,1"
    assert lines[2].startswith("3,1.41421356237")


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_seq_geomean_past_the_float_range(capsys, fmt):
    # the geometric mean passes 1e308 at n = 214
    code, out, _ = run(capsys, "seq", "geomean", "--to", "220", "--format", fmt)
    assert code == 0
    if fmt == "json":
        shown = {r["n"]: r["numerator"] for r in json.loads(out)["values"]}
    else:
        sep = "," if fmt == "csv" else " "
        rows = [line.split(sep) for line in out.splitlines()]
        shown = {int(r[0]): r[1] for r in rows if r[0] != "n"}
    for n in range(214, 221):
        assert shown[n] == mp.nstr(mp.mpf(str(counts.geometric_mean_width(n))), 12), n
    assert shown[213] == f"{float(counts.geometric_mean_width(213)):.12g}"


@pytest.mark.parametrize("x", [
    Fraction(1, math.factorial(200)), Fraction(1, 10 ** 400), Fraction(7, 10 ** 330),
    Decimal(10 ** 400) / 3, Fraction(-2, 3 * 10 ** 320), Decimal("3.5396919629e+311"),
    Decimal("1.26798e-375"), Decimal("9.9999996e-400"), Decimal("-7.11468759269e+320"),
    # floor(log10 p - log10 q) is one too high for the first, and one too low
    # for the second, as math.log10(10 ** 512) rounds below 512
    Fraction(10 ** 400 - 1, 10 ** 800), Decimal("1e512")])
@pytest.mark.parametrize("digits", [6, 12])
def test_sig_digits_past_the_float_range_match_mpmath(x, digits):
    # mpmath's nstr is the reference for the digits and the layout
    with mp.workdps(digits + 10):
        want = mp.nstr(mp.mpf(str(x)) if isinstance(x, Decimal)
                       else mp.mpf(x.numerator) / x.denominator, digits)
    assert cli._sig_digits(x, digits) == want


def test_sig_digits_round_half_to_even_past_the_float_range():
    assert cli._sig_digits(Fraction(1234565, 10 ** 406), 6) == "1.23456e-400"
    assert cli._sig_digits(Fraction(1234575, 10 ** 406), 6) == "1.23458e-400"
    assert cli._sig_digits(Fraction(9999995, 10 ** 406), 6) == "1.0e-399"
    assert cli._sig_digits(Fraction(0), 6) == "0.0"


def test_seq_json(capsys):
    _, out, _ = run(capsys, "seq", "mean_size", "--to", "4", "--format", "json")
    doc = json.loads(out)
    assert doc["name"] == "mean_size"
    assert doc["values"][-1]["numerator"] == "44"
    assert doc["values"][-1]["denominator"] == "5"


def test_seq_below_first_index(capsys):
    code, _, err = run(capsys, "seq", "r_seq", "--to", "2")
    assert code == 1 and "at least 3" in err


def test_seq_unknown_name(capsys):
    code, _, err = run(capsys, "seq", "fibonacci", "--to", "5")
    assert code == 1


def test_seq_calls_through_the_modules(capsys, monkeypatch):
    # the table looks counts' functions up when it runs, so wrappers set on
    # the module (as perfbench's spans are) see every call
    calls = Counter()

    def counting(name):
        f = getattr(counts, name)

        def wrapper(*args):
            calls[name] += 1
            return f(*args)
        monkeypatch.setattr(counts, name, wrapper)

    counting("catalan")
    counting("mean_width_asymptotic")
    assert run(capsys, "seq", "catalan", "--to", "5")[0] == 0
    assert run(capsys, "seq", "mean_width", "--to", "7")[0] == 0
    # catalan steps its running product from the one call at the first index
    assert calls == {"catalan": 1, "mean_width_asymptotic": 7}


@pytest.mark.parametrize("name, value", [("catalan", counts.catalan),
                                         ("increasing", counts.increasing_count)])
def test_seq_steps_match_the_closed_forms(capsys, name, value):
    code, out, _ = run(capsys, "seq", name, "--to", "300", "--format", "csv")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert rows == [[str(n), str(value(n)), "1"] for n in range(1, 301)]


# -- gen ------------------------------------------------------------------------------

def test_gen_term_output(capsys):
    code, out, _ = run(capsys, "gen", "--size", "8", "--seed", "4", "--count", "3")
    terms = out.splitlines()
    assert len(terms) == 3
    for term in terms:
        assert trees.parse_process(term).size == 8


def test_gen_deterministic(capsys):
    a = run(capsys, "gen", "--size", "10", "--seed", "12")
    b = run(capsys, "gen", "--size", "10", "--seed", "12")
    assert a == b


def test_gen_json(capsys):
    _, out, _ = run(capsys, "gen", "--size", "4", "--seed", "2", "--format", "json")
    doc = json.loads(out)
    assert doc["seed"] == 2
    assert len(doc["trees"]) == 1


def test_gen_bad_size(capsys):
    code, _, err = run(capsys, "gen", "--size", "0")
    assert code == 1
    code, out, err = run(capsys, "gen", "--size", "5", "--count", "0")
    assert code == 1 and not out
    assert err == "mergeruns: error: --count must be at least 1\n"


# -- shared plumbing -----------------------------------------------------------------

def test_input_file(tmp_path, capsys):
    f = tmp_path / "term.txt"
    f.write_text(TERM + "\n")
    code, out, _ = run(capsys, "count", "--input", str(f))
    assert code == 0
    assert out.splitlines()[0] == "8"


def test_input_and_positional_conflict(tmp_path, capsys):
    f = tmp_path / "term.txt"
    f.write_text(TERM)
    code, _, err = run(capsys, "count", TERM, "--input", str(f))
    assert code == 1 and "not both" in err


def test_missing_input_file(capsys):
    code, _, err = run(capsys, "count", "--input", "/no/such/file")
    assert code == 1 and "No such file" in err


def test_input_file_not_utf8(tmp_path, capsys):
    f = tmp_path / "term.txt"
    f.write_bytes(b"\xff a.b")
    code, out, err = run(capsys, "count", "--input", str(f))
    assert code == 1 and out == ""
    assert str(f) in err and "can't decode byte 0xff" in err


def test_missing_term(capsys):
    code, _, err = run(capsys, "count")
    assert code == 1 and "required" in err


def test_parse_error_exit(capsys):
    code, _, err = run(capsys, "count", "a.(b ||")
    assert code == 1 and "position" in err


def test_forest_flag(capsys):
    code, out, _ = run(capsys, "count", "a || b || c", "--forest")
    assert code == 0
    assert out.splitlines()[0] == "6"


def test_unknown_command(capsys):
    code, _, err = run(capsys, "nope")
    assert code == 1


def test_version(capsys):
    code = cli.run_cli(["--version"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("mergeruns ") and "mt19937" in out


def test_selftest_passes(capsys):
    code, out, err = run(capsys, "selftest")
    assert code == 0 and not err
    assert out == "ok reference-term\nok run-sampling-uniformity\nall 2 checks passed\n"


def test_selftest_reports_a_failing_check(capsys, monkeypatch):
    def broken():
        raise AssertionError("stat 99.0")

    checks = [(name, broken if name == "run-sampling-uniformity" else check)
              for name, check in cli.SELFTEST_CHECKS]
    monkeypatch.setattr(cli, "SELFTEST_CHECKS", checks)
    code, out, err = run(capsys, "selftest")
    assert code == 3
    assert out == "ok reference-term\nFAIL run-sampling-uniformity: stat 99.0\n"
    assert err == "1 of 2 checks failed\n"


def test_module_entry_points():
    # both `python -m mergeruns` and `python -m mergeruns.cli` must run the CLI
    for module in ("mergeruns", "mergeruns.cli"):
        proc = subprocess.run(
            [sys.executable, "-m", module, "count", "a.(b || c)"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "2"


# every command that computes without mpmath, one of each
LIGHT_COMMANDS = [
    ["count", TERM],
    ["prob", TERM, "--prefix", "a,b,d"],
    ["sample", TERM, "--samples", "5"],
    ["gen", "--size", "9"],
    ["semantic", TERM],
    ["profile", TERM, "--format", "json"],
    ["seq", "catalan", "--to", "12"],
    ["selftest"],
]

GUARD_SCRIPT = """
import contextlib, io, json, sys
from mergeruns import cli
heavy = ("mpmath", "dataclasses", "inspect", "numpy")
loaded = {"import": [m for m in heavy if m in sys.modules]}
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run_cli(argv) == 0, argv
    loaded[" ".join(argv)] = [m for m in heavy if m in sys.modules]
print(json.dumps(loaded))
"""


def _fresh_python(script: str, *args: str):
    """What a fresh interpreter running script with args prints, as JSON."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_cli_import_leaves_numpy_out():
    # a fresh interpreter: start-up and every command, the asymptotic ratio
    # of seq mean_width among them, load none of mpmath, dataclasses (which
    # imports inspect) or numpy
    mean_width = ["seq", "mean_width", "--to", "5"]
    loaded = _fresh_python(GUARD_SCRIPT, json.dumps(LIGHT_COMMANDS + [mean_width]))
    assert loaded.pop(" ".join(mean_width)) == []
    assert loaded == {"import": [], **{" ".join(argv): [] for argv in LIGHT_COMMANDS}}


NO_MPMATH_SCRIPT = """
import contextlib, io, json, sys
sys.modules["mpmath"] = None  # any import of mpmath raises ImportError
from mergeruns import cli
outs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        outs.append([cli.run_cli(argv), out.getvalue()])
print(json.dumps(outs))
"""


def test_commands_run_on_the_standard_library_alone(capsys):
    # the asymptotic ratios, the geometric mean and a probability below the
    # float range (1/200!) print the same with mpmath unimportable
    star = trees.SyntaxTree.from_degree_word([200] + [0] * 200).to_term()
    prefix = ",".join(f"#{v}" for v in range(1, 202))
    commands = LIGHT_COMMANDS + [
        ["seq", name, "--to", "220", "--format", fmt]
        for name in ("mean_width", "mean_size", "geomean") for fmt in ("text", "json", "csv")
    ] + [["prob", star, "--prefix", prefix, "--format", fmt] for fmt in ("text", "json")]
    fresh = _fresh_python(NO_MPMATH_SCRIPT, json.dumps(commands))
    for argv, (code, out) in zip(commands, fresh, strict=True):
        assert code == 0, argv[:2]
        assert out == run(capsys, *argv)[1], argv[:2]


# -- lazy library modules -------------------------------------------------------------
# A lazy module sits in sys.modules before its body runs; it has run once
# its type is the plain module type.

RAN_SCRIPT = """
import contextlib, io, json, sys, types
from mergeruns import cli
argv = json.loads(sys.argv[1])
if argv is not None:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run_cli(argv) == 0, argv
print(json.dumps([name for name in ("trees", "counts", "profiles", "sampling")
                  if type(sys.modules["mergeruns." + name]) is types.ModuleType]))
"""

RUNS_SAMPLING = ["trees", "counts", "sampling"]
RUNS_PROFILES = ["trees", "profiles"]


@pytest.mark.parametrize("argv, ran", [
    (None, []),  # import mergeruns.cli alone
    (["--version"], []),
    (["seq", "catalan", "--to", "5"], ["counts"]),
    (["seq", "mean_width", "--to", "5"], ["counts"]),
    (["count", TERM], RUNS_SAMPLING),
    (["prob", TERM, "--prefix", "a,b,d"], RUNS_SAMPLING),
    (["sample", TERM, "--samples", "3"], RUNS_SAMPLING),
    (["gen", "--size", "9"], RUNS_SAMPLING),
    (["profile", TERM], RUNS_PROFILES),
    (["profile", TERM, "--oracle"], RUNS_PROFILES),
    (["semantic", TERM], RUNS_PROFILES),
    (["seq", "m_cuts", "--to", "6"], RUNS_PROFILES),
    (["selftest"], ["trees", "counts", "profiles", "sampling"]),
])
def test_each_command_runs_only_the_modules_it_uses(argv, ran):
    assert _fresh_python(RAN_SCRIPT, json.dumps(argv)) == ran


PUBLIC_NAMES = {
    "trees": ["BudgetError", "FOREST_ROOT_LABEL", "ParseError", "SemanticTree",
              "SuspendedView", "SyntaxTree", "degree_sequence_of_tree", "parse_process",
              "suspended_view", "tree_from_degree_sequence", "validate_run_prefix"],
    "counts": ["Approx", "asymptotic_size", "catalan", "cumulative_size",
               "geometric_mean_width", "hook_count", "increasing_count", "log_constant_L",
               "mean_level_width", "mean_size", "mean_width", "mean_width_asymptotic",
               "nonplane_count", "r_sequence"],
    "profiles": ["build_semantic_tree", "count_admissible_cuts", "cut_count_sequence",
                 "cut_profile", "level_profile", "limit_profile", "limit_profile_error_bound",
                 "semantic_size"],
    "sampling": ["PartialSumTree", "Rng", "count_runs_via_probability",
                 "prefix_probability", "sample_run", "uniform_random_tree"],
}


def test_package_serves_its_public_names_from_their_modules():
    import mergeruns

    modules = {"trees": trees, "counts": counts, "profiles": profiles, "sampling": sampling}
    names = sorted(name for names in PUBLIC_NAMES.values() for name in names)
    assert len(names) == 39 and sorted(mergeruns.__all__) == names
    star = {}
    exec("from mergeruns import *", star)
    listed = set(dir(mergeruns))
    for module, module_names in PUBLIC_NAMES.items():
        for name in module_names:
            obj = getattr(modules[module], name)
            assert getattr(mergeruns, name) is obj and star[name] is obj
            assert name in listed
    with pytest.raises(AttributeError, match="module 'mergeruns' has no attribute 'nope'"):
        mergeruns.nope


PACKAGE_SCRIPT = """
import json, sys, types
def ran():
    return [name for name in ("trees", "counts", "profiles", "sampling")
            if type(sys.modules["mergeruns." + name]) is types.ModuleType]
import mergeruns
seen = {"import mergeruns": ran()}
import mergeruns.cli
# the read perfbench/spans.py makes to wrap a function
fn = getattr(sys.modules["mergeruns.profiles"], "level_profile")
seen["level_profile"] = [fn.__module__, fn.__name__, ran()]
print(json.dumps(seen))
"""


def test_package_import_runs_no_library_module():
    assert _fresh_python(PACKAGE_SCRIPT) == {
        "import mergeruns": [],
        "level_profile": ["mergeruns.profiles", "level_profile", RUNS_PROFILES],
    }


class _CountingSink:
    """A stdout that keeps only the number of characters written to it, so
    no file buffer shows in a traced peak."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)
        return len(text)

    def flush(self):
        pass


def _traced_peak(argv):
    """Exit code, tracemalloc peak and printed characters of one in-process
    command, stdout dropped."""
    sink = _CountingSink()
    with contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            return cli.run_cli(argv), tracemalloc.get_traced_memory()[1], sink.chars
        finally:
            tracemalloc.stop()


def _peak_stays_flat(argv, few, many):
    """After a warm-up call, argv + [many] peaks at most 64 KB of
    tracemalloc above argv + [few]: 16 times the draws hold nothing more."""
    _traced_peak(argv + ["1"])  # first-call imports and caches
    code_few, peak_few, _ = _traced_peak(argv + [str(few)])
    code_many, peak_many, _ = _traced_peak(argv + [str(many)])
    assert code_few == code_many == 0
    assert peak_many < peak_few + 64 * 2 ** 10, (peak_few, peak_many)


def test_sample_text_prints_as_it_draws():
    # without --freq no run is held
    _peak_stays_flat(["sample", "a.b", "--samples"], 500, 8000)


def test_sample_json_prints_as_it_draws():
    _peak_stays_flat(["sample", "a.b", "--format", "json", "--samples"], 500, 8000)


@pytest.mark.parametrize("fmt", ["term", "dot", "json"])
def test_gen_text_prints_as_it_draws(fmt):
    # no format holds a shape
    _peak_stays_flat(["gen", "--size", "30", "--format", fmt, "--count"], 250, 4000)


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("name", ["catalan", "increasing", "mean_width"])
def test_seq_prints_as_it_computes(name, fmt):
    # no format holds the rows: the peak is a small share of the output
    argv = ["seq", name, "--to", "1200", "--format", fmt]
    assert cli.run_cli(argv[:3] + ["1"]) == 0  # first-call imports and caches
    code, peak, printed = _traced_peak(argv)
    assert code == 0
    assert peak < printed / 20, (peak, printed)


# -- the README ---------------------------------------------------------------------

README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_examples():
    """(argv, stdout lines) of every `$ mergeruns ...` line in the README's
    sh blocks whose full output is shown: lines with a redirection or a
    comment, and outputs elided with `...`, are left out."""
    examples = []
    text = README.read_text(encoding="utf-8")
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.MULTILINE | re.DOTALL):
        for chunk in re.split(r"^\$ ", block, flags=re.MULTILINE)[1:]:
            command, *output = chunk.splitlines()
            argv = shlex.split(command)
            if (argv[0] != "mergeruns" or argv != shlex.split(command, comments=True)
                    or {">", ">>", "<", "|"} & set(argv) or "..." in output):
                continue
            examples.append((argv[1:], output))
    return examples


def test_readme_examples_print_what_they_show(capsys):
    examples = _readme_examples()
    assert len(examples) >= 7
    for argv, want in examples:
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        assert out.splitlines() == want, argv
