"""Drawing uniform random quadrangulations, and watching distances grow.

Usage:
    python3 demos/uniform_sampler.py [--samples N] [--seed S]

The sampler never rejects: a uniform plane tree (cycle lemma) with
independent edge labels closes into a uniform rooted pointed planar
quadrangulation.  The script shows the exact class frequencies at one
face, then tracks how the maximum distance label grows with size; the
observed exponent hugs 1/4.
"""

from __future__ import annotations

import argparse
import math
import random
from collections import Counter

from surfmaps import (
    check_quadrangulation,
    distance_profile,
    open_rooted_pointed,
    sample_quadrangulation,
)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--samples", type=int, default=6000)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    rng = random.Random(args.seed)

    print(f"{args.samples} draws with one face; there are exactly 6")
    print("rooted pointed planar quadrangulations of that size:\n")
    counts: Counter = Counter()
    for _ in range(args.samples):
        res = sample_quadrangulation(1, rng)
        q, v0 = res.quad.quad, res.quad.basepoint
        check_quadrangulation(q)
        # rooted pointed isomorphism class: rooted key + marked vertex
        counts[q.rooted_pointed_key(v0)] += 1
    assert len(counts) == 6
    for i, (_, c) in enumerate(sorted(counts.items())):
        bar = "#" * round(60 * c / args.samples)
        print(f"  class {i}: {c:6d}  {bar}")
    low, high = min(counts.values()), max(counts.values())
    print(f"\nspread {low}..{high} around the fair share "
          f"{args.samples // 6}\n")

    # each sample remembers the tree and sign it was closed from
    res = sample_quadrangulation(40, rng)
    tree, sign = open_rooted_pointed(res.quad.quad, res.quad.basepoint)
    assert sign == res.sign
    print("every sample reopens to its generating tree and sign\n")

    print("maximum distance label against size (48 samples each):")
    print(f"  {'faces':>6}  {'mean max label':>14}")
    sizes = [2 ** k for k in range(6, 13, 2)]
    means = []
    for n in sizes:
        prof = distance_profile(n, 48, seed=args.seed)
        means.append(prof.mean_max_label)
        print(f"  {n:6d}  {prof.mean_max_label:14.2f}")
    slope = ((math.log(means[-1]) - math.log(means[0]))
             / (math.log(sizes[-1]) - math.log(sizes[0])))
    print(f"\nlog-log slope {slope:.3f}; distances in a size-n map "
          "scale like n^(1/4)")
    assert 0.1 < slope < 0.4

    print("\nall claims checked")


if __name__ == "__main__":
    main()
