"""Runs one round of an in-process workload, one operation at a time.

    python perfbench/worker.py REQUEST.json RESULT.json

The request holds one round's executions (made by workloads.py in the
benchmark process) and whether to trace.  Each round runs in a fresh
worker, so no state the program keeps carries from one round to the next.
The worker runs the warm-up probe, then every execution, and writes the
execution times and output summaries.  Only the program call itself is
timed; summaries and hashing happen outside it.  A traced round runs the
probe and the executions under spans.Tracer.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import sys
import time

from mergeruns import cli, counts, sampling, trees

import oracle
import shapes
import speed
import spans
import warm


def _call(op: dict, terms: list[dict], state: dict):
    """One timed program call of count-large; returns (seconds, summary)."""
    kind, term = op["call"], terms[op["term"]]
    clock = time.perf_counter
    t0 = clock()
    try:
        if kind == "parse":
            state.pop("tree", None)  # one term's tree alive at a time
            t0 = clock()
            tree = trees.parse_process(term["text"])
            dt = clock() - t0
            state["tree"] = tree
            parents = [tree.parent(v) for v in range(1, tree.size + 1)]
            return dt, {"n": tree.size, "digest": shapes.digest(parents, tree.labels)}
        tree = state["tree"]
        if kind == "prefix":
            t0 = clock()
            rho = sampling.prefix_probability(tree, term["prefix"])
            dt = clock() - t0
            return dt, {"num": oracle.residues(rho.numerator), "den": oracle.residues(rho.denominator)}
        fn = counts.hook_count if kind == "hook" else sampling.count_runs_via_probability
        t0 = clock()
        value = fn(tree)
        dt = clock() - t0
        return dt, {"res": oracle.residues(value), "bits": value.bit_length()}
    except Exception as exc:  # noqa: BLE001 - a failed operation is reported, not fatal
        return clock() - t0, {"error": repr(exc)}


def _cli(op: dict):
    """One timed cli.run_cli call with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.run_cli(op["argv"])
        except Exception as exc:  # noqa: BLE001 - counted as a failed operation
            rc = -1
            err.write(repr(exc))
        dt = time.perf_counter() - t0
    text = out.getvalue()
    return dt, {"rc": rc, "out": text, "err": err.getvalue(), "bytes": len(text.encode())}


def peak_rss_kb() -> int:
    """This process's own peak resident memory (VmHWM).

    Unlike getrusage's ru_maxrss it does not start from the memory of the
    process that forked this one.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_round(req: dict) -> dict:
    """Every execution of every operation; per operation the list of
    execution times and of output summaries, and one kernel sample."""
    times, summaries, kernel = [], [], []
    state: dict = {}
    gc.collect()
    for executions in req["ops"]:
        times.append([])
        summaries.append([])
        for op in executions:
            if req["mode"] == "calls":
                dt, summary = _call(op, req["terms"], state)
            else:
                dt, summary = _cli(op)
            times[-1].append(dt)
            summaries[-1].append(summary)
        kernel.append(speed.sample())
    return {"times": times, "summaries": summaries, "kernel": kernel}


def main(request_path: str, result_path: str) -> None:
    with open(request_path, encoding="utf-8") as fh:
        req = json.load(fh)
    tracer = spans.Tracer() if req["trace"] else None
    if tracer:
        tracer.install()
    probe_bytes = warm.probe()
    result = run_round(req)
    result["peak_rss_kb"] = peak_rss_kb()
    if tracer:
        tracer.uninstall()
        result["trace"] = tracer.summary()
        printed = sum(s.get("bytes", 0) for op in result["summaries"] for s in op)
        result["trace"]["stdout_bytes"] = probe_bytes + printed
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
