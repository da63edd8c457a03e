"""The gysin-sweep program: push generated classes forward and check them.

    python -m gysin_sweep CLASSES.json

Builds the SO(4) geometry at the bound the input names, pushes every class
forward along its map and compares each image, at the integer
specializations the input carries, with the `subset_symmetrization` oracle.
The generated inputs use only "fiber-G2S"; "tower-G3" (TowerLevel.gysin on
G(3, wedge^2 S)) stays so that its known defect can be reproduced: it raises
`TowerError` on valid classes such as c1^6*f1^3, whose pushforward is 0.
Prints one JSON object: the number of pushforwards attempted, those that
raised a library error (counted, not dropped), and any image the oracle
disagrees with.
"""

from __future__ import annotations

import json
import sys
from collections import Counter

from chowcalc import BundleError, GradedError, PolyError, TowerError
from chowcalc.grasstower import subset_symmetrization
from chowcalc.so4pipeline import So4Pipeline

LIBRARY_ERRORS = (BundleError, GradedError, PolyError, TowerError)


def run_sweep(spec):
    pipeline = So4Pipeline(degree_bound=spec["degree_bound"]).build_geometry()
    maps = {
        "fiber-G2S": (
            pipeline.GG.table,
            lambda p: pipeline.GG.gysin(1, p),
            pipeline.B_VARS,
        ),
        "tower-G3": (pipeline.G3.table, pipeline.G3.gysin, pipeline.F_VARS),
    }
    attempted = 0
    errors = Counter()
    wrong = []
    for cls in spec["classes"]:
        table, push, sub_names = maps[cls["map"]]
        terms = {}
        for mono, coeff in cls["terms"]:
            expo = [0] * table.nvars
            for name, e in mono.items():
                expo[table.index[name]] = e
            terms[tuple(expo)] = coeff
        p = table.poly(terms)
        attempted += 1
        try:
            image = push(p)
        except LIBRARY_ERRORS as exc:
            errors["%s: %s" % (type(exc).__name__, exc)] += 1
            continue
        for point in cls["points"]:
            want = subset_symmetrization(
                p, sub_names, point["roots"], point["values"]
            )
            if image.eval(point["values"]) != want:
                wrong.append(
                    {"map": cls["map"], "class": str(p), "image": str(image),
                     "roots": point["roots"]}
                )
    return {
        "attempted": attempted,
        "failed": sum(errors.values()),
        "errors": dict(sorted(errors.items())),
        "wrong": wrong,
    }


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python -m gysin_sweep CLASSES.json", file=sys.stderr)
        return 2
    with open(argv[0]) as fh:
        spec = json.load(fh)
    print(json.dumps(run_sweep(spec), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
