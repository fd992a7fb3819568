"""The machine's speed of the moment, read off a fixed reference kernel.

On a small machine shared with other tenants (the 2-core x86_64 host the
reference figures in README.md come from), speed moves by 20-55 % over
stretches of seconds to minutes, longer than a run.  No
estimate taken within one run sees through a stretch that long, so every
time the benchmark reports is scaled to the machine's reference speed: the
kernel runs after each operation, outside the timed regions, and a round's
times are multiplied by KERNEL_REFERENCE_S / (the round's median kernel
time).  The kernel is the benchmark's own code, so no change to the program
can change what it measures.  It mixes an interpreted loop with
big-integer products, as the program's own work does.
"""

from __future__ import annotations

import statistics
import time

# the kernel's median time on that host when it runs fast; it sets only
# the scale of the reported figures
KERNEL_REFERENCE_S = 0.008
# Process start slows on its own schedule, which the kernel does not
# follow, so the cli-commands workload scales by the start of a bare
# interpreter (`python -c pass`, no mergeruns import) instead.
PROCESS_REFERENCE_S = 0.050
# Set-up is mostly process start and imports, which slow on a schedule of
# their own again, so set-up is scaled by a start that imports numpy (the
# program's largest dependency, not the program) instead.
IMPORT_REFERENCE_S = 0.200

_MODULUS = 7 ** 8_000


def kernel() -> int:
    acc = 0
    for i in range(40_000):
        acc += i * i
    x = 3 ** 5_000 + acc
    for _ in range(6):
        x = x * x % _MODULUS
    return x


def sample() -> float:
    """Seconds one kernel run takes now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def scale(samples: list[float], reference: float = KERNEL_REFERENCE_S) -> float:
    """Factor from measured seconds to reference seconds."""
    return reference / statistics.median(samples)
