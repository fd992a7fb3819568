"""Spans around the program's public functions, for the traced run only.

install() replaces each target function, wherever a mergeruns module holds
it as an attribute, by a wrapper that records a span (name, start, end,
parent) in memory, so the calls cli makes are caught as well as direct
ones.  A layer's self time is its spans' time minus the time their child
spans cover.  Nothing is written until the caller asks for the summary.
"""

from __future__ import annotations

import sys
import time

SEQUENCES = "counts.sequences"

# (module, attribute, span name); the sequence functions share one name
TARGETS = [
    ("trees", "parse_process", "trees.parse_process"),
    ("counts", "hook_count", "counts.hook_count"),
    ("profiles", "level_profile", "profiles.level_profile"),
    ("sampling", "count_runs_via_probability", "sampling.count_runs_via_probability"),
    ("sampling", "prefix_probability", "sampling.prefix_probability"),
    ("sampling", "sample_run", "sampling.sample_run"),
    ("sampling", "uniform_random_tree", "sampling.uniform_random_tree"),
    ("cli", "run_cli", "cli.run_cli"),
] + [("counts", f, SEQUENCES) for f in (
    "catalan", "increasing_count", "mean_width", "mean_size", "nonplane_count",
    "geometric_mean_width", "r_sequence", "mean_width_asymptotic", "asymptotic_size")
] + [("profiles", "cut_count_sequence", SEQUENCES)]

SPAN_NAMES = sorted({name for _, _, name in TARGETS})


class Tracer:
    def __init__(self):
        self.spans: list[list] = []        # [name, start, end, parent index]
        self.open: list[int] = []
        self.counts: dict[str, int] = {}
        self.profiled: list = []           # trees given to the fast profile
        self._undo: list = []

    def add(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.open, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            span = [name, clock(), 0.0, parent]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            self._count(name, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, name: str, args, kwargs, result) -> None:
        if name == "trees.parse_process":
            self.add("trees.parse_process.nodes", result.size)
        elif name == "counts.hook_count":
            self.add("counts.hook_count.bits", result.bit_length())
        elif name == "profiles.level_profile":
            self.add("profiles.level_profile.bits", max(result).bit_length())
            if kwargs.get("method", args[1] if len(args) > 1 else "fast") == "fast":
                self.profiled.append(args[0])
        elif name == "sampling.prefix_probability":
            self.add("sampling.prefix_probability.steps", len(args[1]) - 1)
        elif name == "sampling.sample_run":
            self.add("sampling.sample_run.runs", 1)
            self.add("sampling.sample_run.steps", args[0].size - 1)
        elif name == "sampling.uniform_random_tree":
            self.add("sampling.uniform_random_tree.nodes", args[0])

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items()
                   if k == "mergeruns" or k.startswith("mergeruns.")]
        for mod_name, attr, name in TARGETS:
            orig = getattr(sys.modules[f"mergeruns.{mod_name}"], attr)
            wrapper = self._wrap(name, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, orig))

    def uninstall(self) -> None:
        for mod, key, orig in reversed(self._undo):
            setattr(mod, key, orig)
        self._undo.clear()

    def summary(self) -> dict:
        """Self time per span name, the counters, and the merge work."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s = {name: 0.0 for name in SPAN_NAMES}
        for (name, start, end, _), child in zip(self.spans, covered):
            self_s[name] += end - start - child
        counts = dict(self.counts)
        counts["profiles.level_profile.merge_terms"] = sum(merge_terms(t) for t in self.profiled)
        return {"self_s": self_s, "counts": counts, "spans": len(self.spans)}


def merge_terms(t) -> int:
    """Sum of len(acc) * len(child vector) over the profile's merges.

    At node v the accumulator starts at length 1 and grows by |T(c)| with
    each child c, whose own vector has length |T(c)| + 1.
    """
    sizes = t.subtree_sizes()
    total = 0
    for v in range(1, t.size + 1):
        acc = 1
        for c in t.children(v):
            total += acc * (sizes[c - 1] + 1)
            acc += sizes[c - 1]
    return total


def merge(summaries: list[dict]) -> dict:
    """Add up summaries from several traced processes."""
    out = {"self_s": {name: 0.0 for name in SPAN_NAMES}, "counts": {}, "spans": 0}
    for s in summaries:
        for k, v in s["self_s"].items():
            out["self_s"][k] += v
        for k, v in s["counts"].items():
            out["counts"][k] = out["counts"].get(k, 0) + v
        out["spans"] += s["spans"]
    return out
