#!/usr/bin/env python3
"""Survey word-map images and triple-product covering over the built-in groups."""

import argparse
import json
import sys

from pfdim.groups import (builtin_group, parse_word, triple_product_covers,
                          word_image)

GROUPS = ["C6", "S3", "A4", "S4", "A5", "PSL(2,7)"]
WORDS = ["x*x", "x*x*x", "[x,y]"]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--groups", action="append",
                    help="built-in group name, repeatable "
                         "(default: C6, S3, A4, S4, A5, PSL(2,7))")
    ap.add_argument("--word", action="append",
                    help="group word, repeatable (default: x*x, x*x*x, [x,y])")
    args = ap.parse_args(argv)
    names = args.groups or GROUPS
    words = args.word or WORDS

    rows = []
    for name in names:
        G = builtin_group(name.strip())
        for text in words:
            w = parse_word(text.strip())
            img = word_image(w, G)
            covers, missing = triple_product_covers(img, img, img, G)
            rows.append({"group": name.strip(), "word": text.strip(),
                         "order": G.n, "imageSize": len(img),
                         "tripleProductCovers": covers,
                         "missingCount": len(missing)})
    json.dump(rows, sys.stdout, indent=2)
    print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
