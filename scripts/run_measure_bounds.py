#!/usr/bin/env python3
"""Stress the intersection-bound theorems on random rational measure spaces.

Every witness returned by find_k_intersection must meet the eps^(3^(k-1))
bound, and the truncated inclusion-exclusion inequality must hold in every
sampled space. Any violation is a bug and exits nonzero.
"""

import argparse
import json
import random
import sys
from fractions import Fraction

from pfdim.measure import (FiniteMeasureSpace, HypothesisError,
                           find_k_intersection, mu,
                           truncated_inclusion_exclusion_ok)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--spaces", type=int, default=1000)
    ap.add_argument("--max-atoms", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    rng = random.Random(args.seed)

    violations = 0
    witnesses = 0
    for _ in range(args.spaces):
        n = rng.randint(1, args.max_atoms)
        raw = [rng.randint(1, 10) for _ in range(n)]
        total = sum(raw)
        space = FiniteMeasureSpace(tuple(Fraction(w, total) for w in raw))
        events = [frozenset(a for a in range(n) if rng.random() < 0.5)
                  for _ in range(rng.randint(1, 8))]
        if not truncated_inclusion_exclusion_ok(space, events):
            violations += 1
        measures = [mu(space, e) for e in events]
        if min(measures) == 0 or min(measures) > Fraction(1, 2):
            continue
        for k in (1, 2, 3, 4):
            try:
                w = find_k_intersection(space, events, k)
            except HypothesisError:
                continue
            witnesses += 1
            if w.measure < w.bound:
                violations += 1

    json.dump({"spaces": args.spaces, "witnesses": witnesses,
               "violations": violations}, sys.stdout, indent=2)
    print()
    return 1 if violations else 0


if __name__ == "__main__":
    raise SystemExit(main())
