"""The trees-n16 workload: every free tree on 16 vertices, its exact
sum-connectivity index, and the exact maximum with its argmax.

No CLI command covers indices at n=16, so this calls the library.  Layers
are reached through their modules (``enumeration.enumerate_trees``,
``indices.sum_connectivity``) so the tracer sees each call.  Prints one
JSON line::

    PYTHONPATH=src python3 perfbench/trees_n16.py
"""

from __future__ import annotations

import json
import sys

import sumconn.enumeration as enumeration
import sumconn.graph6 as graph6
import sumconn.indices as indices

N = 16


def main() -> int:
    trees = enumeration.enumerate_trees(N)
    best = None
    argmax = []
    for g in trees:
        value = indices.sum_connectivity(g)
        if best is None or value > best:
            best, argmax = value, [g]
        elif value == best:
            argmax.append(g)
    report = {
        "n": N,
        "trees": len(trees),
        "max": best.to_json_dict()["terms"],
        "argmax": [graph6.emit_graph6(g) for g in argmax],
    }
    sys.stdout.write(json.dumps(report, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
