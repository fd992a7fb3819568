#!/usr/bin/env python3
"""Level-profile experiment: exact means vs the limit formula vs sampling.

For a chosen size n this prints, per relative level c = i/n (i counted from
the deep end of the profile), three log-scale quantities:

  exact      ln of the average level count over all shapes (exact rational)
  limit      the closed-form large-n approximation
  sampled    mean ln of the level count over uniformly drawn shapes

plus the |exact - limit| gap and the calibrated bound it must stay under.
Sizes above 200 take a while through the exact column; they are gated
behind --large so a typo does not start a long run by accident.
"""

from __future__ import annotations

import argparse
import math
import sys

from mergeruns import counts, profiles, sampling


def ln_fraction(q) -> float:
    # math.log takes an int of any size, where float(q) can overflow
    return math.log(q.numerator) - math.log(q.denominator)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--size", type=int, default=60, help="shape size n")
    ap.add_argument("--samples", type=int, default=200,
                    help="random shapes for the sampled column")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--points", type=int, default=9,
                    help="number of interior levels to report")
    ap.add_argument("--large", action="store_true",
                    help="allow sizes above 200")
    args = ap.parse_args()

    n = args.size
    if n < 8:
        ap.error("--size must be at least 8")
    if n > 200 and not args.large:
        ap.error(f"size {n} needs --large (exact column gets slow)")
    if n > profiles.PROFILE_FAST_LIMIT:
        ap.error(f"size over the profile cap {profiles.PROFILE_FAST_LIMIT}")

    rng = sampling.Rng(args.seed)
    sampled_logs = [[] for _ in range(n)]
    for _ in range(args.samples):
        t = sampling.uniform_random_tree(n, rng)
        prof = profiles.level_profile(t)
        for l, v in enumerate(prof):
            sampled_logs[l].append(math.log(v))

    print(f"# size {n}, {args.samples} samples, seed {args.seed}")
    print("c,i,exact,limit,sampled,|exact-limit|,bound")
    for step in range(1, args.points + 1):
        c = step / (args.points + 1)
        i = round(c * n)
        if not 2 <= i <= n - 2:
            continue
        c = i / n
        exact = ln_fraction(counts.mean_level_width(n, i))
        limit = profiles.limit_profile(c, n)
        level = n - 1 - i  # profile index measured from the root
        sampled = math.fsum(sampled_logs[level]) / len(sampled_logs[level])
        gap = abs(exact - limit)
        bound = profiles.limit_profile_error_bound(c, n)
        print(f"{c:.4f},{i},{exact:.6f},{limit:.6f},{sampled:.6f},"
              f"{gap:.2e},{bound:.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
