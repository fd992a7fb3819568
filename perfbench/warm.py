"""Set-up of one fresh interpreter: import mergeruns.cli, then warm up.

Run as a script (``warm.py [probe]``) it is one set-up sample: the
benchmark times it from spawn to exit.  The warm-up probe, which the
in-process workloads run before timing, answers one small question per
layer on the reference term through cli.run_cli with its output captured,
so lazy state in every layer is built before timing starts.
"""

from __future__ import annotations

import contextlib
import io
import sys

REFERENCE_TERM = "a.b.(c || d.(e || f))"
PROBE = [
    ["count", REFERENCE_TERM],
    ["prob", REFERENCE_TERM, "--prefix", "a,b,d"],
    ["profile", REFERENCE_TERM],
    ["sample", REFERENCE_TERM, "--samples", "3"],
    ["gen", "--size", "6"],
    ["seq", "catalan", "--to", "12"],
]


def probe() -> int:
    """Run the probe; returns the bytes it printed."""
    from mergeruns import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        for argv in PROBE:
            if cli.run_cli(argv) != 0:
                raise RuntimeError(f"warm-up probe failed: {argv}")
    return len(out.getvalue().encode())


if __name__ == "__main__":
    import mergeruns.cli  # noqa: F401  (the import is what is timed)

    if sys.argv[1:] == ["probe"]:
        probe()
