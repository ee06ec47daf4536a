#!/usr/bin/env python3
"""Reproduce the growth-rate classification examples on the built-in families.

Runs the four headline experiments (pairwise comparison, chain drop,
spectrum clustering, normalized measure) and prints one JSON document.
The pairwise class-rank comparison runs twice: on ``E(x, y)``, and on the
equivalent quantified ``exists z:S. E(x, z) & E(z, y)``.
"""

import argparse
import json
import sys

from pfdim.dimension import chain_detect, delta_compare, fmv_spectrum
from pfdim.families import count_family, get_family
from pfdim.measure import mu_D_sequence


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--indices", default="8,16,32,64",
                    help="comma-separated family indices for the comparisons")
    ap.add_argument("--spectrum-indices", default="8,16,32,64")
    args = ap.parse_args(argv)
    indices = [int(t) for t in args.indices.split(",")]
    spec_indices = [int(t) for t in args.spectrum_indices.split(",")]

    out = {}

    fam = get_family("stablenonattainability")
    # the same comparison with E(x, y) written through a quantifier, which
    # the small model counts as exactly: the classifications must agree
    for key, formula in (("classRankComparisons", "E(x, y)"),
                         ("quantifiedClassRankComparisons",
                          "exists z:S. E(x, z) & E(z, y)")):
        out[key] = []
        for t in (1, 2):
            memo: dict = {}     # X and Y are one request, as in dim-compare
            X = count_family(formula, fam, indices,
                             selector=f"class-rank-{t}", memo=memo)
            Y = count_family(formula, fam, indices,
                             selector=f"class-rank-{t + 1}", memo=memo)
            v = delta_compare(X, Y)
            out[key].append({"t": t, "formula": formula,
                             "classification": v.classification})

    fam = get_family("convsupersimple")
    report = chain_detect(fam, [(f"P{i}(x)", None) for i in range(1, 5)],
                          indices)
    out["nestedChain"] = {"dropLength": report.drop_length,
                          "verdicts": list(report.verdicts)}

    fam = get_family("findelta")
    spec = fmv_spectrum(fam, "E(x, y)", spec_indices)
    out["spectrum"] = {"clusterCounts": list(spec.cluster_counts),
                       "unbounded": spec.unbounded}

    fam = get_family("rank2classes")
    ratios = mu_D_sequence(fam, "E(x, x)", "E(x, y)", spec_indices,
                           x_selector="big-class")
    out["bigClassMeasure"] = [str(r) for r in ratios]

    json.dump(out, sys.stdout, indent=2)
    print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
