"""Self-tests of the benchmark's checkers and generators.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py

Each checker must accept the program's answers on small terms and reject a
value that is off by one.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import sys
from collections import Counter
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import pytest  # noqa: E402
from mergeruns import cli, counts, profiles, sampling, trees  # noqa: E402

import oracle  # noqa: E402
import run  # noqa: E402
import shapes  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SMALL = [shapes.uniform_shape(n, random.Random(n)) for n in range(1, 10)] + [
    shapes.star_shape(7), shapes.chain_shape(7), shapes.wide_shape(9, random.Random(1)),
    shapes.deep_shape(9, random.Random(2)), workloads.REFERENCE_PARENTS]


def program_tree(parents):
    return trees.parse_process(shapes.render(parents))


def cli_summary(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.run_cli(argv)
    return {"rc": rc, "out": out.getvalue(), "err": err.getvalue()}


def bump_last_number(text: str) -> str:
    """The same output with its last integer one larger."""
    i = len(text)
    while not text[i - 1].isdigit():
        i -= 1
    j = i
    while j > 0 and text[j - 1].isdigit():
        j -= 1
    return text[:j] + str(int(text[j:i]) + 1) + text[i:]


@pytest.mark.parametrize("parents", SMALL)
def test_generated_shapes_parse_back(parents):
    t = program_tree(parents)
    assert [t.parent(v) for v in range(1, t.size + 1)] == parents
    assert shapes.read_term(t.to_term())[0] == parents
    assert shapes.digest(parents, t.labels) == shapes.digest(
        parents, [shapes.label(v) for v in range(1, len(parents) + 1)])


def test_uniform_shape_is_uniform():
    rnd = random.Random(7)
    seen = Counter(shapes.canonical(shapes.uniform_shape(5, rnd)) for _ in range(2800))
    assert len(seen) == 14 and oracle.chi2(seen, 14, 2800) < oracle.CHI2_Q999[13]


@pytest.mark.parametrize("parents", SMALL)
def test_count_and_prefix_checkers(parents):
    t = program_tree(parents)
    hook = counts.hook_count(t)
    assert oracle.residues(hook) == oracle.hook_residues(parents)
    assert oracle.residues(hook + 1) != oracle.hook_residues(parents)
    assert sampling.count_runs_via_probability(t) == oracle.exact_count(parents) == hook
    prefix = shapes.linear_extension(parents, len(parents), random.Random(3))
    rho = sampling.prefix_probability(t, prefix)
    factors = oracle.prefix_factors(parents, prefix)
    assert rho == Fraction(1, hook)  # a complete run
    assert oracle.prefix_matches(oracle.residues(rho.numerator), oracle.residues(rho.denominator), *factors)
    assert not oracle.prefix_matches(oracle.residues(rho.numerator + 1),
                                     oracle.residues(rho.denominator), *factors)


@pytest.mark.parametrize("parents", SMALL)
def test_profile_checkers(parents):
    prof = list(profiles.level_profile(program_tree(parents)))
    assert prof == oracle.brute_profile(parents)
    assert prof[:3] == oracle.first_levels(parents)
    assert workloads._profile_partial_ok(prof, parents)
    assert not workloads._profile_partial_ok(prof[:-1] + [prof[-1] + 1], parents)
    summary = cli_summary(["profile", shapes.render(parents)])
    for kind in ("small", "random"):
        check = workloads._profile_check(kind, parents, "csv")
        assert check(summary)
        assert not check(dict(summary, out=bump_last_number(summary["out"])))


def test_star_and_chain_profiles():
    for n in (1, 2, 6, 40):
        assert list(profiles.level_profile(program_tree(shapes.star_shape(n)))) == oracle.star_profile(n)
        assert list(profiles.level_profile(program_tree(shapes.chain_shape(n)))) == [1] * n
    star = shapes.star_shape(30)
    for fmt in ("csv", "json", "text"):
        argv = ["profile", shapes.render(star)] + ([] if fmt == "csv" else ["--format", fmt])
        summary = cli_summary(argv)
        check = workloads._profile_check("star", star, fmt)
        assert check(summary)
        if fmt == "csv":
            assert not check(dict(summary, out=bump_last_number(summary["out"])))
        elif fmt == "text":
            lines = summary["out"].splitlines()
            level, count, *rest = lines[-1].split(" ")
            lines[-1] = " ".join([level, str(int(count) + 1)] + rest)
            assert not check(dict(summary, out="\n".join(lines)))
        else:
            doc = json.loads(summary["out"])
            doc["levels"][-1] += 1
            assert not check(dict(summary, out=json.dumps(doc)))


def test_run_checkers():
    parents = shapes.uniform_shape(12, random.Random(5))
    summary = cli_summary(["sample", shapes.render(parents), "--samples", "50", "--seed", "3"])
    assert workloads._sample_check(parents, 50)(summary)
    lines = summary["out"].splitlines()
    swapped = " ".join(reversed(lines[0].split()))
    assert not workloads._sample_check(parents, 50)(dict(summary, out="\n".join([swapped] + lines[1:])))
    js = cli_summary(["sample", shapes.render(parents), "--samples", "5", "--format", "json"])
    assert workloads._sample_json_check(parents, 5)(js)
    doc = json.loads(js["out"])
    doc["runs"][0]["step_probabilities"][-1][0] += 1
    assert not workloads._sample_json_check(parents, 5)(dict(js, out=json.dumps(doc)))


def test_chi_square_checkers():
    summary = cli_summary(["sample", workloads.REFERENCE_TERM, "--samples", "800", "--seed", "1"])
    assert workloads._chi2_runs_check(800)(summary)
    one_run = summary["out"].splitlines()[0]
    assert not workloads._chi2_runs_check(800)(dict(summary, out="\n".join([one_run] * 800)))
    gen = cli_summary(["gen", "--size", "5", "--count", "700", "--seed", "1"])
    assert workloads._chi2_shapes_check(5, 700)(gen)
    first = gen["out"].splitlines()[0]
    assert not workloads._chi2_shapes_check(5, 700)(dict(gen, out="\n".join([first] * 700)))


def test_count_and_prob_text_checkers():
    ref = workloads.REFERENCE_TERM
    summary = cli_summary(["count", ref])
    assert workloads._count_text_check(8)(summary)
    assert not workloads._count_text_check(9)(summary)
    assert workloads._count_residue_check(workloads.REFERENCE_PARENTS)(summary)
    assert not workloads._count_residue_check(workloads.REFERENCE_PARENTS)(
        dict(summary, out=summary["out"].replace("8", "9", 1)))
    prob = cli_summary(["prob", ref, "--prefix", "a,b,d"])
    assert workloads._prob_text_check(Fraction(3, 4))(prob)
    assert not workloads._prob_text_check(Fraction(4, 4))(prob)


def test_semantic_and_selftest_checkers():
    parents = shapes.uniform_shape(7, random.Random(9))
    dot = cli_summary(["semantic", shapes.render(parents)])
    assert workloads._semantic_dot_check(parents)(dot)
    assert not workloads._semantic_dot_check(parents)(dict(dot, out=dot["out"] + '\n  n0 [label="x"];'))
    js = cli_summary(["semantic", shapes.render(parents), "--format", "json"])
    assert workloads._semantic_json_check(parents)(js)
    doc = json.loads(js["out"])
    doc["nodes"] += 1
    assert not workloads._semantic_json_check(parents)(dict(js, out=json.dumps(doc)))
    assert workloads._selftest_check({"rc": 0, "out": "ok a\nok b\nall 2 checks passed\n"})
    assert not workloads._selftest_check({"rc": 0, "out": "ok a\nFAIL b: x\nall 2 checks passed\n"})


@pytest.mark.parametrize("name,first,to,fmt", [
    ("catalan", 1, 30, "text"), ("increasing", 1, 20, "csv"), ("mean_width", 1, 25, "text"),
    ("mean_size", 0, 25, "csv"), ("r_seq", 3, 25, "json"), ("nonplane", 1, 40, "text"),
    ("geomean", 2, 12, "text"), ("m_cuts", 4, 30, "csv")])
def test_sequence_checkers(name, first, to, fmt):
    argv = ["seq", name, "--to", str(to)] + ([] if fmt == "text" else ["--format", fmt])
    summary = cli_summary(argv)
    check = workloads._seq_check(name, first, to, fmt)
    assert check(summary)
    out = summary["out"]
    if name == "geomean":
        bad = out.replace(out.split()[-1], str(float(out.split()[-1]) * (1 + 1e-8)))
    elif fmt == "json":
        doc = json.loads(out)
        doc["values"][-1]["numerator"] = str(int(doc["values"][-1]["numerator"]) + 1)
        bad = json.dumps(doc)
    else:
        last = out.rstrip("\n").splitlines()[-1]
        sep = "," if fmt == "csv" else " "
        parts = last.split(sep)
        parts[1] = str(int(parts[1].split("/")[0]) + 1) + (
            "/" + parts[1].split("/")[1] if "/" in parts[1] else "")
        bad = out.replace(last, sep.join(parts))
    assert not check(dict(summary, out=bad))


def parent_closed_sets(parents) -> int:
    """Root-containing node sets closed under parents, by trying every set."""
    n = len(parents)
    found = 0
    for mask in range(1, 1 << n, 2):  # the root, bit 0, always in
        found += all(not mask >> (v - 1) & 1 or parents[v - 1] == 0 or mask >> (parents[v - 1] - 1) & 1
                     for v in range(1, n + 1))
    return found


def test_sequence_formulas_by_brute_force():
    for n in range(1, 8):
        every = oracle.all_shapes(n)
        assert len(every) == oracle.catalan(n)
        runs = [oracle.exact_count(p) for p in every]
        assert sum(runs) == oracle.increasing(n)
        assert oracle.mean_size(n) == Fraction(sum(sum(oracle.brute_profile(p)) for p in every), len(every))
        cuts = sum(parent_closed_sets(p) for p in every)
        assert cuts == oracle.m_cuts_seq(n)[n]
        geo = float(oracle.geomean(n)) if n >= 2 else 1.0
        assert abs(geo - math.exp(sum(map(math.log, runs)) / len(runs))) < 1e-9 * geo
    assert oracle.nonplane_seq(10)[1:] == [1, 1, 2, 4, 9, 20, 48, 115, 286, 719]
    assert oracle.m_cuts_seq(6) == [0, 1, 2, 7, 29, 131, 625]


def test_tracer_self_time_and_counters():
    tracer = spans.Tracer()
    tracer.install()
    try:
        cli_summary(["profile", workloads.REFERENCE_TERM])
        cli_summary(["sample", workloads.REFERENCE_TERM, "--samples", "4"])
    finally:
        tracer.uninstall()
    assert cli.run_cli.__name__ == "run_cli"  # originals are back
    summary = tracer.summary()
    assert summary["counts"]["trees.parse_process.nodes"] == 12
    assert summary["counts"]["sampling.sample_run.runs"] == 4
    assert summary["counts"]["sampling.sample_run.steps"] == 20
    assert summary["counts"]["profiles.level_profile.merge_terms"] == spans.merge_terms(
        trees.parse_process(workloads.REFERENCE_TERM))
    total = sum(end - start for name, start, end, parent in tracer.spans if parent < 0)
    assert abs(sum(summary["self_s"].values()) - total) < 1e-9


def test_benchmark_json_matches_run():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in bench["workloads"]] == run.WORKLOADS


def test_latencies_are_scaled_per_round_medians():
    ref = speed.KERNEL_REFERENCE_S
    rounds = [
        {"times": [[1.0, 0.8], [2.0]], "kernel": [ref, ref], "peak_rss_kb": 2048,
         "traced": False},                                                  # reference speed
        {"times": [[1.0, 1.0], [3.0]], "kernel": [2 * ref, 2 * ref], "peak_rss_kb": 1024,
         "traced": False},                                                  # machine at half speed
        {"times": [[0.1, 0.1], [0.1]], "kernel": [ref, ref], "peak_rss_kb": 4096, "traced": True},
    ]
    assert run.latencies(rounds, ref) == pytest.approx([0.65, 1.75])  # of 1, 0.8, 0.5, 0.5; of 2, 1.5
    e2e = run.end_to_end(rounds, ref, 0.5, setup=0.3)
    assert e2e == pytest.approx({"setup_s": 0.3, "wall_s": 2.4, "op_p50_s": 1.2, "op_tail_s": 0.65,
                                 "peak_rss_mb": 2.0})


def test_judge_checks_every_execution():
    plan = workloads.Plan("inproc")
    plan.add("a", ({}, lambda s: s["out"] == "1"), ({}, lambda s: s["out"] == "1"))
    plan.single("b", {}, lambda s: True)
    summaries = [[{"rc": 0, "out": "1"}, {"rc": 0, "out": "2"}], [{"rc": 1, "out": ""}]]
    attempted, failed, wrong = run.judge(plan, summaries, 0)
    assert (attempted, failed) == (3, 2)
    assert wrong == ["a, round 1: wrong output"]  # an exit code of 1 fails, but is not wrong


def test_inputs_hand_out_no_shape_twice():
    inputs = workloads.Inputs("test", 1, 0)
    small = [shapes.canonical(inputs.shape("random", 5)) for _ in range(14)]
    assert len(set(small)) == 14  # every plane tree of 5 nodes, once
    stars = [len(inputs.shape("star", 400)) for _ in range(10)]
    assert len(set(stars)) == 10 and all(380 <= n <= 420 for n in stars)


@pytest.mark.parametrize("name", ["profile-shapes", "sample-runs"])
def test_rounds_repeat_operations_on_fresh_inputs(name):
    first, second = (workloads.BUILDERS[name](1, r, "work") for r in (0, 1))
    assert first.names == second.names
    assert [len(ops) for ops in first.ops] == [len(ops) for ops in second.ops]
    argvs = [op["argv"] for ops in first.ops for op in ops]
    terms = [argv[1] for argv in argvs if argv[0] in ("profile", "sample") and argv[1] != workloads.REFERENCE_TERM]
    assert len(set(terms)) == len(terms)
    assert len({json.dumps(a) for a in argvs}) == len(argvs)
    assert argvs != [op["argv"] for ops in second.ops for op in ops]


def test_fixed_chi_square_draws_pass():
    """The fixed seeds of the chi-square executions, for runs of up to 12 rounds."""
    for k in range(12 * workloads.SAMPLE_REPS):
        seed = str(workloads.CHI2_SEED + k)
        runs = cli_summary(["sample", workloads.REFERENCE_TERM, "--samples",
                            str(workloads.CHI2_DRAWS["runs"]), "--seed", seed])
        assert workloads._chi2_runs_check(workloads.CHI2_DRAWS["runs"])(runs), seed
        gen = cli_summary(["gen", "--size", "5", "--count", str(workloads.CHI2_DRAWS["shapes"]),
                           "--seed", seed])
        assert workloads._chi2_shapes_check(5, workloads.CHI2_DRAWS["shapes"])(gen), seed
