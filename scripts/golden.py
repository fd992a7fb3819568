"""Golden corpus of command line outputs.

For each command below the corpus records the exit code, the SHA-256 of
stdout and the first line of stderr, so a change that must leave the
program's output byte-identical can be checked against it.

    PYTHONPATH=src python3 scripts/golden.py            # compare with the corpus
    PYTHONPATH=src python3 scripts/golden.py --update   # rewrite the corpus

tests/test_golden.py runs the same comparison inside the test suite.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import sys
from itertools import accumulate
from pathlib import Path

from mergeruns.cli import run_cli
from mergeruns.trees import SyntaxTree

CORPUS = Path(__file__).resolve().parent.parent / "tests" / "golden.json"

REF = "a.b.(c || d.(e || f))"
STAR = "a.(" + " || ".join(f"x{i}" for i in range(15)) + ")"
STAR18 = "r.(" + " || ".join(f"x{i}" for i in range(17)) + ")"  # at the cut enumeration cap
WIDE = "r.(a.b || c || d.e.f || g.(h || i) || j)"
FOREST = "a.b || c.(d || e) || f"
STAR8 = "r.(a || b || c || d || e || f || g || h)"  # 109601 semantic nodes
SPACED = " a\t.\n( b || c.d ) "


def _term(degrees: list[int]) -> str:
    return SyntaxTree.from_degree_word(degrees).to_term()


def _wide(n: int) -> list[int]:
    """Degree word of a root carrying chains of 1, 2, 3, 1, 2, 3, ... nodes."""
    lengths, left = [], n - 1
    while left:
        lengths.append(min(len(lengths) % 3 + 1, left))
        left -= lengths[-1]
    return [len(lengths)] + [d for k in lengths for d in [1] * (k - 1) + [0]]


def _caterpillar(spine: int) -> list[int]:
    """Degree word of a spine whose nodes each carry one leaf, placed
    before and after the next spine node in turn."""
    head, tail = [], []
    for k in range(spine - 1):
        head.append(2)
        (head if k % 2 else tail).append(0)
    return head + [1, 0] + tail


def _random(n: int, seed: int) -> list[int]:
    """Degree word of a uniform plane tree with n nodes (cycle lemma)."""
    steps = [1] * (n - 1) + [-1] * n
    random.Random(seed).shuffle(steps)
    sums = list(accumulate(steps))
    cut = sums.index(min(sums)) + 1
    degrees, ups = [], 0
    for s in steps[cut:] + steps[:cut]:
        if s > 0:
            ups += 1
        else:
            degrees.append(ups)
            ups = 0
    return degrees


def _repeated(sub: list[int], k: int, leaves: int) -> list[int]:
    """Degree word of a root over k copies of the shape sub, with the leaves
    spread over the gaps before, between and after the copies."""
    gaps = [0] * (k + 1)
    for i in range(leaves):
        gaps[i * k // max(leaves - 1, 1)] += 1
    word = [k + leaves] + [0] * gaps[0]
    for g in gaps[1:]:
        word += sub + [0] * g
    return word


# 23299 characters, so the parser splits it into two chunks; the second copy
# doubles the first '.' from character 17474 on, a fault in the second chunk
LONG = _term(_random(4000, 17))
LONG_FAULT = LONG[:17474] + LONG[17474:].replace(".", "..", 1)

COMMANDS = [
    ["--version"],
    # count
    ["count", REF],
    ["count", REF, "--format", "json"],
    ["count", STAR],
    ["count", WIDE, "--format", "json"],
    ["count", FOREST, "--forest"],
    ["count", SPACED],
    ["count", "a.b.c.d"],
    # a count of 4745 digits, past Python's 4300-digit str limit (options
    # first, so that the two test ids differ)
    ["count", _term(_random(2000, 17))],
    ["count", "--format", "json", _term(_random(2000, 17))],
    # a term of two parser chunks, and a fault in its second chunk (options
    # first, so that the two test ids differ)
    ["count", LONG],
    ["count", "--format", "text", LONG_FAULT],
    # parse and usage errors
    ["count", "a.(b || "],
    ["count", "a | b"],
    ["count", FOREST],
    ["count", "1a"],
    ["count", "a.(b || c).d"],
    ["count", "a.é"],
    ["count", "   "],
    ["count", "a)"],
    ["count", "a.(b"],
    ["count", "a."],
    ["count", "a b"],
    ["count", "a.(b) c"],
    ["count", "(a)"],
    ["count", "--forest", "a || b.)"],
    ["count", "a) || b"],
    ["count", "a.(b || c)) $"],
    ["count", "--forest", "|| a"],
    ["count"],
    ["count", REF, "--input", "term.txt"],
    # prob
    ["prob", REF, "--prefix", "a,b,d"],
    ["prob", REF, "--prefix", "a,b,d", "--format", "json"],
    ["prob", REF, "--prefix", "#1,#2,#4,#6"],
    ["prob", "a.(b || b)", "--prefix", "a,b"],
    ["prob", REF, "--prefix", "a,c#2"],
    ["prob", REF, "--prefix", "a,d"],
    # a probability past the float range: 1/200! keeps six digits (options
    # first, so that the two test ids differ)
    *[["prob", "--format", fmt, "--prefix", ",".join(f"#{v}" for v in range(1, 202)),
       _term([200] + [0] * 200)] for fmt in ["text", "json"]],
    # sample
    ["sample", REF, "--samples", "3", "--seed", "7"],
    ["sample", REF, "--samples", "64", "--seed", "3", "--freq"],
    ["sample", REF, "--samples", "4", "--seed", "5", "--format", "json", "--freq"],
    ["sample", FOREST, "--forest", "--samples", "5"],
    ["sample", REF, "--samples", "0"],
    ["sample", _term(_random(150, 11)), "--samples", "20", "--seed", "9"],
    ["sample", _term(_wide(300)), "--samples", "5", "--seed", "4", "--freq"],
    ["sample", _term(_caterpillar(150)), "--samples", "3", "--format", "json"],
    ["sample", _term([200] + [0] * 200), "--samples", "10", "--seed", "12"],
    ["sample", "a.b", "--samples", "1000000000000"],
    # profile
    ["profile", REF],
    ["profile", REF, "--format", "json"],
    ["profile", STAR, "--format", "text"],
    ["profile", WIDE, "--oracle"],
    # the admissible-cut route at its cap of 18 nodes (options first, so
    # that the star's two test ids differ), and refused one node past it
    ["profile", "--oracle", STAR18],
    ["profile", "--oracle", "--format", "json", STAR18],
    ["profile", _term(_random(18, 3)), "--oracle", "--format", "text"],
    ["profile", _term([1] * 18 + [0]), "--oracle"],
    # one node past the profile cap of 5000 nodes (options first, so that its
    # test id differs from the 150-node chain's)
    ["profile", "--format", "csv", _term([1] * 5000 + [0])],
    ["profile", FOREST, "--forest", "--format", "json"],
    ["profile", _term([200] + [0] * 200), "--format", "text"],
    ["profile", _term(_wide(300)), "--format", "csv"],
    ["profile", _term(_caterpillar(150)), "--format", "csv"],
    ["profile", _term([1] * 149 + [0])],
    ["profile", _term(_random(150, 7)), "--format", "json"],
    # the largest values of the log10 column (options first, so that their
    # test ids, which keep 60 characters, differ from the entries above)
    ["profile", "--format", "json", _term([600] + [0] * 600)],
    ["profile", "--format", "json", _term(_random(1000, 13))],
    ["profile", "--format", "json", _term(_wide(400))],
    # repeated children: 12 copies of a 9-node shape among 5 leaves, and
    # two copies of a 60-node shape
    ["profile", "--format", "csv", _term(_repeated(_random(9, 1), 12, 5))],
    ["profile", "--format", "json", _term(_repeated(_random(9, 1), 12, 5))],
    ["profile", "--format", "text", _term(_repeated(_random(60, 5), 2, 0))],
    # 300 leaves beside two copies of a 60-node shape
    ["profile", "--format", "csv", _term(_repeated(_random(60, 5), 2, 300))],
    # semantic
    ["semantic", REF],
    ["semantic", REF, "--format", "json"],
    ["semantic", "r.(a.b || c || d.(e || f))", "--format", "text"],
    ["semantic", WIDE, "--budget", "100"],
    # the exact count 287967 decides, past both lower bounds
    ["semantic", "--budget", "200000", WIDE],
    # a chain of 1000 nodes has a node per level, past a budget of 999
    ["semantic", "--budget", "999", _term([1] * 999 + [0])],
    # a computation tree of many write chunks in every format (options
    # first, so that the three test ids differ)
    *[["semantic", "--format", fmt, STAR8] for fmt in ["dot", "json", "text"]],
    # seq, every name in every format
    *[["seq", name, "--to", "12", "--format", fmt]
      for name in ["catalan", "geomean", "increasing", "m_cuts", "mean_size",
                   "mean_width", "nonplane", "r_seq"]
      for fmt in ["text", "json", "csv"]],
    ["seq", "mean_size", "--to", "6", "--format", "csv"],
    ["seq", "m_cuts", "--to", "2"],
    # one row: the first value, with no step taken
    ["seq", "catalan", "--to", "1"],
    ["seq", "increasing", "--to", "1", "--format", "json"],
    # the ratio past n = 197 and the digits past 1e308
    ["seq", "mean_width", "--to", "220", "--format", "json"],
    ["seq", "mean_size", "--to", "210"],
    *[["seq", "geomean", "--to", "220", "--format", fmt] for fmt in ["csv", "text", "json"]],
    # gen
    ["gen", "--size", "6", "--seed", "2", "--count", "2"],
    ["gen", "--size", "9", "--seed", "4", "--format", "json"],
    ["gen", "--size", "7", "--format", "dot"],
    ["gen", "--size", "0"],
    ["gen", "--size", "300", "--seed", "8", "--count", "5"],
    ["gen", "--size", "120", "--seed", "3", "--count", "3", "--format", "json"],
    ["gen", "--size", "100000", "--format", "json"],  # 550 levels, over 1000 nested containers
    ["gen", "--size", "1000000000"],
    # the term writer's edges: a lone root, one edge, many short shapes and
    # a 10^5-node term
    ["gen", "--size", "1", "--count", "3"],
    ["gen", "--size", "2", "--seed", "4", "--count", "2"],
    ["gen", "--size", "12", "--seed", "9", "--count", "200"],
    ["gen", "--size", "100000", "--seed", "7"],
    ["selftest"],
]


def record(argv: list[str]) -> dict:
    """One command's exit code, stdout digest and first stderr line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(argv)
    lines = err.getvalue().splitlines()
    return {"argv": argv, "exit": code,
            "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "stderr": lines[0] if lines else ""}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--update", action="store_true", help="rewrite the corpus")
    args = ap.parse_args()
    if args.update:
        entries = [record(argv) for argv in COMMANDS]
        lines = ",\n".join(json.dumps(e, ensure_ascii=False) for e in entries)
        CORPUS.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
        print(f"wrote {len(entries)} entries to {CORPUS}")
        return 0
    entries = json.loads(CORPUS.read_text(encoding="utf-8"))
    changed = 0
    for old in entries:
        new = record(old["argv"])
        if new != old:
            changed += 1
            print("changed:", json.dumps(old["argv"], ensure_ascii=False))
            for field in ("exit", "stdout_sha256", "stderr"):
                if new[field] != old[field]:
                    print(f"  {field}: {json.dumps(old[field], ensure_ascii=False)}"
                          f" -> {json.dumps(new[field], ensure_ascii=False)}")
    print(f"{len(entries) - changed} of {len(entries)} entries unchanged")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
