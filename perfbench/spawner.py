"""Starts the cli-commands children on behalf of the benchmark process.

    python perfbench/spawner.py

Reads one JSON request per line on stdin, [argv, stdout path, stderr path,
env], runs the command to completion, and answers one JSON line:
[seconds from spawn to exit, exit code, peak RSS in KiB].  Linux counts a
child's peak RSS from the memory of the process that forked it, so the
children are forked from this small process rather than from the
benchmark, whose inputs and checks would otherwise read as their memory.
"""

import json
import os
import subprocess
import sys
import time

for line in sys.stdin:
    argv, out_path, err_path, env = json.loads(line)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        dt = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps([dt, proc.returncode, usage.ru_maxrss]), flush=True)
