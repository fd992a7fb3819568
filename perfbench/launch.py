"""Traced stand-in for ``python -m mergeruns`` in the cli-commands workload.

    python perfbench/launch.py SPANS.json ARGS...

Installs the same wrappers as the in-process traced run, runs
mergeruns.cli.main with ARGS, and writes the span summary to SPANS.json
when the command ends, whatever its exit code.
"""

from __future__ import annotations

import json
import sys

import mergeruns.cli

import spans

if __name__ == "__main__":
    path = sys.argv[1]
    sys.argv = ["mergeruns"] + sys.argv[2:]
    tracer = spans.Tracer()
    tracer.install()
    try:
        mergeruns.cli.main()
    finally:
        tracer.uninstall()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(), fh)
