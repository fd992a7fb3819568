"""Command line front end.

One subcommand per task: exact run counting (the hook formula, checked by
the run probability method modulo 2^61 - 1), prefix probabilities, run and
shape sampling, level profiles, explicit computation trees, the counting
sequences, and a selftest of two checks (the reference-term anchors and a
chi-square test of run sampling).  Output is deterministic byte for byte
given the same arguments and seeds; all diagnostics go to stderr.

Exit codes: 0 ok, 1 usage or parse problem, or stdout closed early (with
nothing on stderr), 2 size budget exceeded, 3 a self-check failed
(selftest, or count's residue check).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from collections import Counter
from decimal import Decimal
from itertools import accumulate

from . import RNG_ALGORITHM, __version__
from . import counts, profiles, sampling, trees

SCI_SUFFIX_DIGITS = 10  # counts from 10^9 up get a scientific suffix
DEFAULT_SEED = 1


# every sequence `seq` prints: its first index, its values at the indices
# first..N (a range), and its asymptotic estimate at n (None: no ratio column).
# Entries look their function up when called, so a wrapper put on the module
# sees the calls and importing this module runs no library module.  catalan and
# increasing call theirs at the first index only: step(v, n) makes the value at
# n + 1 from v, the value at n, by one product with a small factor
SEQ_TABLE = {
    "catalan": (1, lambda idx: accumulate(idx[:-1], lambda v, n: v * (4 * n - 2) // (n + 1),
                                          initial=counts.catalan(idx[0])), None),
    "increasing": (1, lambda idx: accumulate(idx[:-1], lambda v, n: v * (2 * n - 1),
                                             initial=counts.increasing_count(idx[0])), None),
    "mean_width": (1, lambda idx: map(counts.mean_width, idx),
                   lambda n: counts.mean_width_asymptotic(n)),
    "mean_size": (0, lambda idx: map(counts.mean_size, idx),
                  lambda n: counts.asymptotic_size(n) if n else None),
    "m_cuts": (4, lambda idx: profiles.cut_count_sequence(idx[-1])[idx[0]:], None),
    "r_seq": (3, lambda idx: counts.r_sequence(idx[-1])[idx[0]:], None),
    "nonplane": (1, lambda idx: counts._nonplane_table(idx[-1])[idx[0]:], None),
    "geomean": (2, lambda idx: map(counts.geometric_mean_width, idx), None),
}


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; this tool reserves 2 for budget
    # overruns, so usage problems are remapped to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


@functools.cache
def _build_parser() -> _Parser:
    p = _Parser(prog="mergeruns",
                description="Exact counting, profiling and sampling of interleaved runs.")
    p.add_argument("--version", action="version",
                   version=f"mergeruns {__version__} (rng {RNG_ALGORITHM})")
    sub = p.add_subparsers(dest="command", required=True)

    def term_args(sp):
        sp.add_argument("term", nargs="?", help="process term, e.g. 'a.(b || c.d)'")
        sp.add_argument("--input", metavar="PATH",
                        help="read the term from a file instead")
        sp.add_argument("--forest", action="store_true",
                        help="allow '||' at top level under a synthetic root")

    sp = sub.add_parser("count", help="number of complete runs, checked mod 2^61 - 1")
    sp.set_defaults(run=_cmd_count)
    term_args(sp)
    sp.add_argument("--format", choices=["text", "json"], default="text")

    sp = sub.add_parser("prob", help="probability of a run prefix under uniform-run sampling")
    sp.set_defaults(run=_cmd_prob)
    term_args(sp)
    sp.add_argument("--prefix", required=True, metavar="A,B,...",
                    help="comma-separated actions: label, label#id, or #id")
    sp.add_argument("--format", choices=["text", "json"], default="text")

    sp = sub.add_parser("sample", help="draw uniform complete runs")
    sp.set_defaults(run=_cmd_sample)
    term_args(sp)
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sp.add_argument("--samples", type=int, default=1, metavar="K")
    sp.add_argument("--freq", action="store_true",
                    help="append an empirical frequency table")
    sp.add_argument("--format", choices=["text", "json"], default="text")

    sp = sub.add_parser("profile", help="run prefix counts per level")
    sp.set_defaults(run=_cmd_profile)
    term_args(sp)
    sp.add_argument("--oracle", action="store_true",
                    help="force the admissible-cut enumeration route")
    sp.add_argument("--format", choices=["csv", "json", "text"], default="csv")

    sp = sub.add_parser("semantic", help="expand the explicit computation tree")
    sp.set_defaults(run=_cmd_semantic)
    term_args(sp)
    sp.add_argument("--budget", type=int,  # None: profiles.SEMANTIC_NODE_BUDGET
                    help="maximum node count to materialize")
    sp.add_argument("--format", choices=["dot", "json", "text"], default="dot")

    sp = sub.add_parser("seq", help="counting sequences up to an index")
    sp.set_defaults(run=_cmd_seq)
    sp.add_argument("name", choices=sorted(SEQ_TABLE))
    sp.add_argument("--to", type=int, required=True, metavar="N")
    sp.add_argument("--format", choices=["text", "json", "csv"], default="text")

    sp = sub.add_parser("gen", help="draw uniform random shapes")
    sp.set_defaults(run=_cmd_gen)
    sp.add_argument("--size", type=int, required=True, metavar="N")
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sp.add_argument("--count", type=int, default=1, metavar="K")
    sp.add_argument("--format", choices=["term", "dot", "json"], default="term")

    sp = sub.add_parser("selftest", help="run the built-in consistency checks")
    sp.set_defaults(run=_cmd_selftest)
    return p


def _fmt_digits(s: str) -> str:
    # int-to-decimal is quadratic in CPython, so the suffix is read off the
    # digits the count was turned into once
    if len(s) < SCI_SUFFIX_DIGITS:
        return s
    return f"{s} (~{Decimal(s):.6e})"


def _sig_digits(x, digits: int) -> str:
    """x, a Fraction or a Decimal, to ``digits`` significant digits.

    The float's "g" form while float(x) is a normal float.  Past the float
    range, where it would read 0 or inf, x's exact digits rounded half to
    even, written d.ddde+N with trailing zeros stripped down to d.0.
    """
    f = float(x)
    if sys.float_info.min <= abs(f) < math.inf:
        return f"{f:.{digits}g}"
    if not x:
        return "0.0"
    # int arithmetic, not a Decimal division: Context(prec=digits).divide of
    # Decimal(p) by Decimal(q) gives the same digits, but converting q to a
    # Decimal is quadratic in its digits (0.167 s against 0.006 s at 10^5
    # digits, 1.55 s against 0.041 s at 3 * 10^5, on a shared 2-core x86_64
    # with Python 3.11.7)
    p, q = abs(x).as_integer_ratio()
    # the exponent of x's leading digit, corrected where the logarithms,
    # taken of each int whole, straddle a power of ten
    e = math.floor(math.log10(p) - math.log10(q))
    scale = digits - 1 - e
    a, b = (p * 10 ** scale, q) if scale >= 0 else (p, q * 10 ** -scale)
    if a < b * 10 ** (digits - 1):
        e, a = e - 1, a * 10
    elif a >= b * 10 ** digits:
        e, b = e + 1, b * 10
    m, r = divmod(a, b)
    if 2 * r > b or (2 * r == b and m % 2):
        m += 1
    if m == 10 ** digits:  # rounded up to the next power of ten
        e, m = e + 1, m // 10
    s = str(m)
    return f"{'-' if x < 0 else ''}{s[0]}.{s[1:].rstrip('0') or '0'}e{e:+d}"


def _parse_term(args) -> trees.SyntaxTree:
    if args.input is not None:
        if args.term is not None:
            raise ValueError("give a term or --input, not both")
        with open(args.input, encoding="utf-8-sig") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise ValueError(f"{args.input}: {exc}") from None
    elif args.term is not None:
        text = args.term
    else:
        raise ValueError("a term is required (positional or --input)")
    return trees.parse_process(text, allow_forest=args.forest)


def _resolve_action(t: trees.SyntaxTree, label_ids: dict, token: str) -> int:
    """label, label#id or #id -> node id.  The whole token is tried as a
    label first: parsed labels hold no '#', so only the forest root's does."""
    token = token.strip()
    ids = label_ids.get(token)
    if ids is None and "#" in token:
        label, _, raw = token.rpartition("#")
        try:
            v = int(raw)
        except ValueError:
            raise ValueError(f"bad node id in {token!r}") from None
        if not 1 <= v <= t.size:
            raise ValueError(f"node id {v} out of range 1..{t.size}")
        if label and t.label(v) != label:
            raise ValueError(f"node {v} is labelled {t.label(v)!r}, not {label!r}")
        return v
    if ids is None:
        raise ValueError(f"no action labelled {token!r}")
    if len(ids) > 1:
        raise ValueError(f"label {token!r} is ambiguous (ids {', '.join(map(str, ids))}); use label#id")
    return ids[0]


def _prod_mod(factors, p: int) -> int:
    """prod(factors) % p, 64 factors to a math.prod at a time."""
    out = 1
    for i in range(0, len(factors), 64):
        out = out * math.prod(factors[i:i + 64]) % p
    return out


def _digits_mod(s: str, p: int) -> int:
    """int(s) % p for a decimal string s, by Horner's rule over 18-digit
    chunks; leading zeros make the first chunk whole."""
    s, out = s.zfill(len(s) + -len(s) % 18), 0
    for i in range(0, len(s), 18):
        out = (out * 10 ** 18 + int(s[i:i + 18])) % p
    return out


def _cmd_count(args) -> int:
    t = _parse_term(args)
    # the count is turned into decimal once, and the digits printed are the
    # ones checked
    digits = str(counts.hook_count(t))
    # the run probability method mod the prime p = 2^61 - 1: 1/rho of the
    # preorder run is (n - 1)! over the non-root subtree sizes.  Every factor
    # is at most n < p, so a unit; only the sizes are shared with hook_count
    sizes, p = t.subtree_sizes(), 2 ** 61 - 1
    num, den = _prod_mod(range(1, len(sizes)), p), _prod_mod(sizes[1:], p)
    if _digits_mod(digits, p) != num * pow(den, -1, p) % p:
        print("mergeruns: error: the run count failed its residue check "
              "(run probability method, mod 2^61 - 1)", file=sys.stderr)
        return 3
    if args.format == "json":
        # this is the line json.dumps(..., sort_keys=True) writes
        print(f'{{"actions": {t.size}, "agree": true, "runs": {digits}, '
              f'"runs_via_probability": {digits}}}')
    else:
        shown = _fmt_digits(digits)
        print(shown)
        print(f"cross-check (run probability method): {shown}, agree")
    return 0


def _cmd_prob(args) -> int:
    t = _parse_term(args)
    label_ids = {}
    for v, label in enumerate(t.labels, start=1):
        label_ids.setdefault(label, []).append(v)
    sigma = [_resolve_action(t, label_ids, tok) for tok in args.prefix.split(",")]
    rho = sampling.prefix_probability(t, sigma)
    if args.format == "json":
        # the line json.dumps(..., sort_keys=True) writes, except that a
        # probability below the normal floats keeps its digits
        approx = float(rho)
        literal = repr(approx) if approx >= sys.float_info.min else _sig_digits(rho, 6)
        print(f'{{"approx": {literal}, "prefix": {json.dumps(sigma)}, '
              f'"probability": [{rho.numerator}, {rho.denominator}]}}')
    else:
        print(f"{rho} (~{_sig_digits(rho, 6)})")  # a Fraction prints as p/q, or p when q is 1
    return 0


# most sampling steps one `sample` or `gen` command may take: runs times
# actions drawn per run, or shapes times nodes per shape.  Every format prints
# each run or shape as it is drawn, so this bounds time, not memory: 10^6 steps
# took 0.9-3 s at 16 MB max RSS on a shared 2-core x86_64 with Python 3.11
# (`gen` the fastest), and 5 s for `sample a.b --samples 10^6 --format json`,
# which writes one JSON record per step.
SAMPLING_STEP_BUDGET = 10 ** 7


def _check_sampling_steps(steps: int, what: str) -> None:
    """Refuse a sampling command before its first draw when its predicted
    steps exceed SAMPLING_STEP_BUDGET."""
    if steps > SAMPLING_STEP_BUDGET:
        raise trees.BudgetError(f"{what} predicts {steps} sampling steps, over the limit of "
                                f"{SAMPLING_STEP_BUDGET}", steps, SAMPLING_STEP_BUDGET)


def _print_items(head: str, items, tail: str) -> None:
    """Print head, then the items joined by ", " as each is made, then tail:
    json.dumps(doc, sort_keys=True) of a document without holding its list."""
    print(head, end="")
    for i, item in enumerate(items):
        print(", " + item if i else item, end="")
    print(tail)


def _cmd_sample(args) -> int:
    t = _parse_term(args)
    if args.samples < 1:
        raise ValueError("--samples must be at least 1")
    n = t.size
    # a run of a lone root still costs a step; JSON with --freq draws every run twice
    passes = 2 if args.freq and args.format == "json" else 1
    _check_sampling_steps(passes * args.samples * max(n - 1, 1),
                          f"--samples {args.samples} on a {n}-action term")

    def draws():  # the seeded stream, afresh at each call
        rng = sampling.Rng(args.seed)
        return (sampling.sample_run(t, rng) for _ in range(args.samples))

    # the label#id token of every node, indexed by node id
    tokens = [""] + [f"{label}#{v}" for v, label in enumerate(t.labels, start=1)]
    if args.format == "json":
        sizes = t.subtree_sizes()
        quoted = [json.dumps(tok) for tok in tokens]  # each token's JSON string, made once

        def record(run) -> str:  # json.dumps(..., sort_keys=True) of the run's record
            steps = []
            for k, v in enumerate(run):  # v drawn with probability |T(v)| / (n - k)
                g = math.gcd(sizes[v - 1], n - k)
                steps.append(f"[{sizes[v - 1] // g}, {(n - k) // g}]")
            return (f'{{"actions": [{", ".join([quoted[v] for v in run])}], '
                    f'"step_probabilities": [{", ".join(steps)}]}}')

        head = "{"
        if args.freq:  # "frequency" sorts before "runs": its tally takes a pass of its own
            freq = Counter(" ".join([tokens[v] for v in run]) for run in draws())
            head += f'"frequency": {json.dumps(freq, sort_keys=True)}, '
        _print_items(head + '"runs": [', map(record, draws()), f'], "seed": {args.seed}}}')
        return 0
    # each run is printed as it is drawn; only the --freq tally is kept
    freq = Counter()
    for run in draws():
        line = " ".join([tokens[v] for v in run])
        print(line)
        if args.freq:
            freq[line] += 1
    for key in sorted(freq):
        print(f"freq {freq[key]} {key}")
    return 0


def _cmd_profile(args) -> int:
    t = _parse_term(args)
    # --oracle: the admissible-cut enumeration, exponential and for cross-checking
    prof = profiles.cut_profile(t) if args.oracle else profiles.level_profile(t)
    if args.format == "json":
        # math.log10 takes an int of any size, where float(c) overflows
        print(json.dumps({"levels": list(prof),
                          "log10": [round(math.log10(c), 6) for c in prof]}))
    elif args.format == "text":
        for level, c in enumerate(prof):
            print(f"{level} {_fmt_digits(str(c))}")
    else:
        print("level,count")
        for level, c in enumerate(prof):
            print(f"{level},{c}")
    return 0


_JSON_ITEMS = 1 << 14  # list items `semantic` joins into one string at a time


def _write_json_items(write, items, show) -> None:
    """Write show(x) for every x of items, joined by ", ", a chunk at a time."""
    for i in range(0, len(items), _JSON_ITEMS):
        if i:
            write(", ")
        write(", ".join(map(show, items[i:i + _JSON_ITEMS])))


def _cmd_semantic(args) -> int:
    t = _parse_term(args)
    budget = profiles.SEMANTIC_NODE_BUDGET if args.budget is None else args.budget
    if budget < 1:
        raise ValueError("--budget must be at least 1")
    # node counts per level, the last one a leaf per run: text needs no expansion
    levels = profiles.semantic_levels(t, node_budget=budget)
    if args.format == "text":
        print(f"nodes {sum(levels)}")
        print(f"branches {levels[-1]}")
        print("levels " + " ".join(map(str, levels)))
        return 0
    parents, actions = profiles.semantic_expansion(t)
    write = sys.stdout.write
    if args.format == "json":
        # the text json.dumps(..., sort_keys=True) writes of the document
        # {"nodes", "branches", "levels", "labels", "parents"}
        quoted = [""] + [json.dumps(label) for label in t.labels]  # by syntax id
        write(f'{{"branches": {levels[-1]}, "labels": [')
        _write_json_items(write, actions, quoted.__getitem__)
        write(f'], "levels": {json.dumps(list(levels))}, "nodes": {len(parents)}, "parents": [')
        _write_json_items(write, parents, str)
        write("]}\n")
    else:
        trees._dot("semantic_tree", t.labels, parents, actions, write)
        write("\n")
    return 0


def _seq_rows(idx: range, values, estimate):
    """(n, numerator, denominator, asymptotic ratio or None) at each index of
    idx, each row made as it is asked for."""
    for n, v in zip(idx, values(idx)):
        if isinstance(v, Decimal):  # more digits than a float (geometric mean)
            num, den = _sig_digits(v, 12), 1
        else:  # an int or a Fraction
            num, den = v.as_integer_ratio()
        est = estimate(n) if estimate else None
        if est is None:
            yield n, num, den, None
            continue
        # the exact value over the estimate p/q, correctly rounded: one int
        # true division, with no Decimal made of the big numerator
        p, q = est.value.as_integer_ratio()
        yield n, num, den, (num * q) / (den * p)


def _cmd_seq(args) -> int:
    name = args.name
    first, values, estimate = SEQ_TABLE[name]
    if args.to < first:
        raise ValueError(f"{name} needs --to at least {first}")
    rows = _seq_rows(range(first, args.to + 1), values, estimate)
    if args.format == "json":
        def item(row) -> str:  # json.dumps(..., sort_keys=True) of the row's record
            n, num, den, ratio = row
            head = "{" if ratio is None else f'{{"asymptotic_ratio": {json.dumps(ratio)}, '
            return f'{head}"denominator": "{den}", "n": {n}, "numerator": "{num}"}}'

        _print_items(f'{{"name": "{name}", "values": [', map(item, rows), "]}")
    elif args.format == "csv":
        header = "n,value_numerator,value_denominator"
        print(header + ",asymptotic_ratio" if estimate else header)
        for n, num, den, ratio in rows:
            tail = f",{ratio:.9f}" if ratio is not None else ("," if estimate else "")
            print(f"{n},{num},{den}{tail}")
    else:
        for n, num, den, ratio in rows:
            val = str(num) if den == 1 else f"{num}/{den}"
            tail = f"  ratio {ratio:.9f}" if ratio is not None else ""
            print(f"{n} {val}{tail}")
    return 0


def _cmd_gen(args) -> int:
    if args.count < 1:
        raise ValueError("--count must be at least 1")
    _check_sampling_steps(args.count * args.size, f"--count {args.count} at --size {args.size}")
    rng = sampling.Rng(args.seed)
    # a tuple, so every tree shares it instead of copying a list
    labels = tuple(trees.default_labels(args.size))
    # each shape is printed as it is drawn; a term or a record is written
    # straight from the sampled degree word, with no tree built
    if args.format == "dot":
        for _ in range(args.count):
            print(sampling.uniform_random_tree(args.size, rng, labels).to_dot())
        return 0
    as_json = args.format == "json"
    texts = (trees._write_nested(sampling._uniform_degree_word(args.size, rng), labels, as_json)
             for _ in range(args.count))
    if as_json:
        _print_items(f'{{"seed": {args.seed}, "trees": [', texts, "]}")
    else:
        for text in texts:
            print(text)
    return 0


# -- selftest -----------------------------------------------------------------

CHI2_Q999_DF7 = 24.3219
REFERENCE_TERM = "a.b.(c || d.(e || f))"


def _expect(anchors: dict) -> None:
    """Raise, also under python -O, naming each anchor whose value differs from
    the expected one; anchors maps a name to (value, expected)."""
    wrong = [f"{name} is {got!r}, expected {want!r}"
             for name, (got, want) in anchors.items() if got != want]
    if wrong:
        raise AssertionError("; ".join(wrong))


def _check_reference_term():
    t = trees.parse_process(REFERENCE_TERM)
    # counted off the expansion: a preorder parent comes before its children,
    # and the distinct parents are the inner nodes and the root's parent 0
    parents, _ = profiles.semantic_expansion(t)
    depths = [-1]
    for p in parents:
        depths.append(depths[p] + 1)
    _expect({"size": (t.size, 6), "hook_count": (counts.hook_count(t), 8),
             "count_runs_via_probability": (sampling.count_runs_via_probability(t), 8),
             "level_profile": (profiles.level_profile(t), (1, 1, 2, 4, 8, 8)),
             "semantic_size": (profiles.semantic_size(t), 24),
             "cut_profile": (profiles.cut_profile(t), (1, 1, 2, 4, 8, 8)),
             "prefix_probability": (sampling.prefix_probability(t, (1, 2, 4)).as_integer_ratio(), (3, 4)),
             "expansion nodes and branches": ((len(parents), len(parents) - len(set(parents)) + 1), (24, 8)),
             "expansion levels": (tuple(Counter(depths[1:]).values()), (1, 1, 2, 4, 8, 8))})


def _check_run_sampling_uniform():
    t = trees.parse_process(REFERENCE_TERM)
    rng = sampling.Rng(2024)
    draws = 400
    hits = Counter(sampling.sample_run(t, rng) for _ in range(draws))
    expected = draws / 8
    stat = sum((c - expected) ** 2 / expected for c in hits.values())
    _expect({"distinct runs": (len(hits), 8),
             f"chi-square {stat:.4f} < {CHI2_Q999_DF7}": (stat < CHI2_Q999_DF7, True)})


SELFTEST_CHECKS = [
    ("reference-term", _check_reference_term),
    ("run-sampling-uniformity", _check_run_sampling_uniform),
]


def _cmd_selftest(args) -> int:
    failed = 0
    for name, check in SELFTEST_CHECKS:
        try:
            check()
        except Exception as exc:  # noqa: BLE001 - report and keep going
            failed += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"ok {name}")
    if failed:
        print(f"{failed} of {len(SELFTEST_CHECKS)} checks failed", file=sys.stderr)
        return 3
    print(f"all {len(SELFTEST_CHECKS)} checks passed")
    return 0


def run_cli(argv) -> int:
    """Run one command; returns the exit code instead of calling sys.exit.

    Integers of any length are printed: Python's limit on int-to-decimal
    conversion is lifted while the command runs and restored afterwards.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse handles --version/--help by exiting 0; usage errors are 1
        return int(e.code or 0)
    digits = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if digits is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.run(args)
    except trees.BudgetError as exc:
        print(f"mergeruns: budget exceeded: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:             # main's to handle
        raise
    except (OSError, ValueError) as exc:  # ParseError is a ValueError
        print(f"mergeruns: error: {exc}", file=sys.stderr)
        return 1
    finally:
        if digits is not None:
            sys.set_int_max_str_digits(digits)


def main() -> None:
    try:
        code = run_cli(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout closed early: the flush at exit writes to devnull instead
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
