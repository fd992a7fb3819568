"""The mergeruns benchmark: one workload per call, or all of them.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run it from the root of a source checkout; the program is imported from
./src.  The operations run one at a time from a single process (closed
loop, one client).  Each workload's operations form a round; a run makes
S // (the workload's round length) whole rounds, at least one, each on
inputs of its own and in fresh interpreters.  Outputs are checked outside
the timed regions, and end-to-end times are in reference seconds
(speed.py).  The last line of standard output is one JSON object: correct,
attempted, failed and the metrics (end-to-end with --trace 0, per-layer
with --trace 1).  A result file with the same figures, the measured
seconds and the environment goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 7
IMPORTTIME_SAMPLES = 3
WORKLOADS = list(workloads.BUILDERS)
END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "op_tail_s": "s", "peak_rss_mb": "MB"}


def environment() -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None
    return {
        "python": platform.python_version(),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "numpy": version("numpy"),
        "mpmath": version("mpmath"),
    }


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list[str], out_path: str, err_path: str) -> tuple[float, int, int]:
    """Run one child to completion; (seconds, exit code, peak RSS in KiB)."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env())
        _, status, usage = os.wait4(proc.pid, 0)
        dt = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    return dt, proc.returncode, usage.ru_maxrss


def read(path: str) -> str:
    with open(path, encoding="utf-8", errors="replace") as fh:
        return fh.read()


# -- set-up and imports -------------------------------------------------------------

def setup_seconds(probe: bool, work: str) -> tuple[list[float], float]:
    """Fresh interpreters importing mergeruns.cli, plus the warm-up probe;
    returns the samples and the factor to reference seconds.

    Each sample is followed by a reference start, a fresh interpreter that
    imports numpy (speed.IMPORT_REFERENCE_S).
    """
    samples, reference_starts = [], []
    for _ in range(SETUP_SAMPLES):
        dt, rc, _ = spawn([sys.executable, os.path.join(HERE, "warm.py")] + ["probe"] * probe,
                          f"{work}/setup.out", f"{work}/setup.err")
        if rc != 0:
            raise RuntimeError(f"set-up failed: {read(f'{work}/setup.err')}")
        samples.append(dt)
        reference_starts.append(spawn([sys.executable, "-c", "import numpy"],
                                      f"{work}/setup.out", f"{work}/setup.err")[0])
    return samples, speed.scale(reference_starts, speed.IMPORT_REFERENCE_S)


def import_times(work: str) -> dict:
    """Cumulative import seconds from `python -X importtime`, median of runs."""
    samples: dict[str, list[float]] = {"cli.import.s": [], "cli.import.numpy.s": [],
                                       "cli.import.mpmath.s": []}
    for _ in range(IMPORTTIME_SAMPLES):
        spawn([sys.executable, "-X", "importtime", "-c", "import mergeruns.cli"],
              f"{work}/imp.out", f"{work}/imp.err")
        found = {"mergeruns": 0.0, "mergeruns.cli": 0.0, "numpy": 0.0, "mpmath": 0.0}
        for line in read(f"{work}/imp.err").splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, name = line.split("|")
            if name.strip() in found and cumulative.strip().isdigit():
                found[name.strip()] = int(cumulative) / 1e6
        samples["cli.import.s"].append(found["mergeruns"] + found["mergeruns.cli"])
        samples["cli.import.numpy.s"].append(found["numpy"])
        samples["cli.import.mpmath.s"].append(found["mpmath"])
    return {k: statistics.median(v) for k, v in samples.items()}


# -- running one round ---------------------------------------------------------------
# A round result holds, per operation, the execution times and output
# summaries, a kernel sample per operation (speed.py), the peak RSS, and
# for a traced round the span summary.

def run_worker(plan, traced: bool, work: str) -> dict:
    """An in-process round, in a fresh worker interpreter (worker.py)."""
    req = {"mode": plan.mode, "ops": plan.ops, "terms": plan.terms, "trace": traced}
    with open(f"{work}/request.json", "w", encoding="utf-8") as fh:
        json.dump(req, fh)
    _, rc, _ = spawn([sys.executable, os.path.join(HERE, "worker.py"),
                      f"{work}/request.json", f"{work}/result.json"],
                     f"{work}/worker.out", f"{work}/worker.err")
    if rc != 0:
        raise RuntimeError(f"worker failed: {read(f'{work}/worker.err')[-2000:]}")
    with open(f"{work}/result.json", encoding="utf-8") as fh:
        return json.load(fh)


class Commands:
    """cli-commands rounds: one fresh interpreter per execution.

    The children are started by spawner.py, a small helper process, so
    that their peak RSS does not start from the benchmark's memory.
    """

    def __init__(self, work: str):
        self.work = work
        self.spawner = subprocess.Popen([sys.executable, os.path.join(HERE, "spawner.py")],
                                        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def close(self) -> None:
        self.spawner.stdin.close()
        self.spawner.wait()

    def child(self, argv: list[str]) -> tuple[float, int, int]:
        self.spawner.stdin.write(json.dumps([argv, f"{self.work}/cmd.out", f"{self.work}/cmd.err",
                                             child_env()]) + "\n")
        self.spawner.stdin.flush()
        return tuple(json.loads(self.spawner.stdout.readline()))

    def run_round(self, plan, traced: bool) -> dict:
        for path, text in plan.files.items():
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        times, summaries, kernel, peak, layer = [], [], [], 0, []
        for i, executions in enumerate(plan.ops):
            times.append([])
            summaries.append([])
            for op in executions:
                if traced:
                    spans_path = f"{self.work}/spans-{i}.json"
                    argv = [sys.executable, os.path.join(HERE, "launch.py"), spans_path] + op["argv"]
                else:
                    argv = [sys.executable, "-m", "mergeruns"] + op["argv"]
                dt, rc, rss = self.child(argv)
                text = read(f"{self.work}/cmd.out")
                summaries[-1].append({"rc": rc, "out": text, "err": read(f"{self.work}/cmd.err"),
                                      "bytes": len(text.encode())})
                if traced:
                    with open(spans_path, encoding="utf-8") as fh:
                        layer.append(json.load(fh))
                times[-1].append(dt)
                peak = max(peak, rss)
            kernel.append(self.child([sys.executable, "-c", "pass"])[0])
        result = {"times": times, "summaries": summaries, "kernel": kernel, "peak_rss_kb": peak}
        if traced:
            result["trace"] = spans.merge(layer)
            result["trace"]["stdout_bytes"] = sum(s["bytes"] for op in summaries for s in op)
        return result


# -- judging and metrics ----------------------------------------------------------

def judge(plan, summaries: list[list[dict]], round_: int) -> tuple[int, int, list[str]]:
    """(attempted, failed, descriptions of wrong outputs) of one round.

    Every execution is checked in full.  It fails when it raises or exits
    non-zero, or when its output is wrong; only a wrong output counts
    against `correct`.
    """
    attempted = failed = 0
    wrong: list[str] = []
    for name, checks, executions in zip(plan.names, plan.checks, summaries):
        for check, summary in zip(checks, executions):
            attempted += 1
            if "error" in summary or summary.get("rc", 0) != 0:
                failed += 1
                continue
            try:
                ok = check(summary)
            except Exception as exc:  # noqa: BLE001 - a checker that cannot read the output rejects it
                ok = False
                wrong.append(f"{name}, round {round_ + 1}: unreadable output ({exc!r})")
            else:
                if not ok:
                    wrong.append(f"{name}, round {round_ + 1}: wrong output")
            failed += not ok
    return attempted, failed, wrong


def round_seconds(rnd: dict) -> float:
    return sum(map(sum, rnd["times"]))


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def reference(mode: str) -> float:
    """Reference time of a workload's speed samples (speed.py)."""
    return speed.PROCESS_REFERENCE_S if mode == "subproc" else speed.KERNEL_REFERENCE_S


def untraced(rounds: list[dict]) -> list[dict]:
    return [r for r in rounds if not r["traced"]]


def latencies(rounds: list[dict], ref: float) -> list[float]:
    """Each operation's latency: the median of its untraced executions, each
    in reference seconds (speed.py) by its round's kernel samples.

    The machine switches for seconds at a time between a normal and a
    faster state that the kernel follows only in part (big-integer work
    runs up to 1.6 times faster in it).  The least of an operation's
    executions reads whichever faster window came up during them; the
    median reads the state most of the run was in.
    """
    plain = untraced(rounds)
    scales = [speed.scale(r["kernel"], ref) for r in plain]
    return [statistics.median(t * f for r, f in zip(plain, scales) for t in r["times"][i])
            for i in range(len(plain[0]["times"]))]


def end_to_end(rounds: list[dict], ref: float, tail_quantile: float, setup: float) -> dict:
    """setup: the median set-up sample, already in reference seconds.

    wall_s is the time to complete the list once at each operation's
    latency: the sum of the latencies.
    """
    latency = latencies(rounds, ref)
    return {
        "setup_s": setup,
        "wall_s": sum(latency),
        "op_p50_s": statistics.median(latency),
        "op_tail_s": nearest_rank(latency, tail_quantile),
        "peak_rss_mb": max(r["peak_rss_kb"] for r in untraced(rounds)) / 1024,
    }


def measured(rounds: list[dict], tail_quantile: float, setup: list[float]) -> dict:
    """The same figures in measured seconds, for the result file."""
    plain = untraced(rounds)
    latency = [statistics.median(t for r in plain for t in r["times"][i])
               for i in range(len(plain[0]["times"]))]
    return {"setup_s": statistics.median(setup), "wall_s": sum(latency),
            "op_p50_s": statistics.median(latency),
            "op_tail_s": nearest_rank(latency, tail_quantile),
            "kernel_median_s": statistics.median(k for r in plain for k in r["kernel"])}


PER_LAYER_UNITS = {
    "trees.parse_process.s": "s", "trees.parse_process.nodes": "count",
    "counts.hook_count.s": "s", "counts.hook_count.bits": "bits",
    "counts.sequences.s": "s",
    "profiles.level_profile.s": "s", "profiles.level_profile.bits": "bits",
    "profiles.level_profile.merge_terms": "count",
    "sampling.count_runs_via_probability.s": "s",
    "sampling.prefix_probability.s": "s", "sampling.prefix_probability.steps": "count",
    "sampling.sample_run.s": "s", "sampling.sample_run.runs": "count",
    "sampling.sample_run.steps": "count",
    "sampling.uniform_random_tree.s": "s", "sampling.uniform_random_tree.nodes": "count",
    "cli.import.s": "s", "cli.import.numpy.s": "s", "cli.import.mpmath.s": "s",
    "cli.run_cli.self_s": "s", "cli.stdout_bytes": "bytes",
    "trace.overhead_pct": "%",
}


def per_layer(rounds: list[dict], ref: float, imports: dict) -> dict:
    traced = next(r for r in rounds if r["traced"])
    trace = traced["trace"]
    out = {}
    for name in PER_LAYER_UNITS:
        if name in imports:
            out[name] = imports[name]
        elif name == "cli.run_cli.self_s":
            out[name] = trace["self_s"]["cli.run_cli"]
        elif name == "cli.stdout_bytes":
            out[name] = trace["stdout_bytes"]
        elif name == "trace.overhead_pct":
            # rounds in reference seconds, so a change of machine speed
            # between them does not read as overhead
            def seconds(r):
                return round_seconds(r) * speed.scale(r["kernel"], ref)
            plain = statistics.median(seconds(r) for r in untraced(rounds))
            out[name] = 100.0 * (seconds(traced) / plain - 1.0)
        elif name.endswith(".s"):
            out[name] = trace["self_s"][name[:-2]]
        else:
            out[name] = trace["counts"].get(name, 0)
    return out


# -- one workload ------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set-up samples, then the run's rounds, each built, run and judged in
    turn; a traced run ends with one traced round."""
    results_dir = os.path.join(HERE, "results")
    work = os.path.join(results_dir, f"work-{os.getpid()}-{name}")
    os.makedirs(work, exist_ok=True)
    build = workloads.BUILDERS[name]
    plain_rounds = max(1, int((seconds / 2 if trace else seconds) // workloads.ROUND_S[name]))
    commands = Commands(work) if name == "cli-commands" else None
    rounds: list[dict] = []
    attempted = failed = 0
    wrong: list[str] = []
    try:
        setup, setup_factor = setup_seconds(commands is None, work)
        imports = import_times(work) if trace else {}
        for r in range(plain_rounds + trace):
            plan = build(seed, r, os.path.relpath(work))
            traced = r == plain_rounds
            rnd = commands.run_round(plan, traced) if commands else run_worker(plan, traced, work)
            a, f, w = judge(plan, rnd.pop("summaries"), r)
            attempted, failed, wrong = attempted + a, failed + f, wrong + w
            rounds.append(dict(rnd, traced=traced))
    finally:
        if commands:
            commands.close()
        shutil.rmtree(work, ignore_errors=True)
    ref = reference(plan.mode)
    e2e = end_to_end(rounds, ref, plan.tail_quantile, statistics.median(setup) * setup_factor)
    units = PER_LAYER_UNITS if trace else END_TO_END
    values = per_layer(rounds, ref, imports) if trace else e2e
    line = {"correct": not wrong, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": values[k], "unit": units[k]} for k in units}}
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(),
        "result": line,
        "end_to_end_of_untraced_rounds": e2e,
        "measured_seconds": measured(rounds, plan.tail_quantile, setup),
        "setup_samples_s": setup,
        "setup_factor": setup_factor,
        "tail_quantile": plan.tail_quantile,
        "rounds": len(rounds),
        "round_s": [round_seconds(r) for r in rounds],
        "round_kernel_median_s": [statistics.median(r["kernel"]) for r in rounds],
        "wrong": wrong,
        "ops": [{"name": n, "s": [r["times"][i] for r in rounds]}
                for i, n in enumerate(plan.names)],
    }
    if trace:
        record["spans"] = next(r for r in rounds if r["traced"])["trace"]["spans"]
    with open(os.path.join(results_dir, f"{name}-seed{seed}-trace{int(trace)}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return line


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=18)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join("src", "mergeruns", "__init__.py")):
        print("run.py: no src/mergeruns here; run from the root of a mergeruns checkout",
              file=sys.stderr)
        return 2
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # reading the program's long answers
    names = WORKLOADS if args.workload == "all" else [args.workload]
    line = None
    for name in names:
        line = run_workload(name, args.seed, args.seconds, bool(args.trace))
        if args.workload == "all":
            print(f"{name}: attempted {line['attempted']}, failed {line['failed']}, "
                  f"correct {line['correct']}")
            for metric, m in line["metrics"].items():
                print(f"  {metric:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
