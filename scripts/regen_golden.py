#!/usr/bin/env python
"""Regenerate the golden regression fixtures in tests/golden/.

Usage (from the repository root)::

    PYTHONPATH=src python scripts/regen_golden.py [--check]

``--check`` recomputes every table and exits non-zero on any bitwise
drift instead of rewriting the file — the same comparison the loader
test makes, available as a standalone command.

The fixtures pin the exact float64 tables each (method, algebra) pair
commits on fixed instances. They are *regression* anchors, not ground
truth: if an intentional change legitimately alters a table (it should
not — the engine's tables are bitwise-stable by design), regenerate and
review the diff. JSON serialisation round-trips float64 exactly
(``repr``-based shortest form; ``Infinity`` tokens for unreached
cells), so comparisons are bitwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "tests" / "golden"
GOLDEN_FILE = GOLDEN_PATH / "golden_tables.json"

#: methods pinned per instance, except on the BST case: knuth runs only
#: over min-plus and on families that declare the quadrangle inequality
METHODS = ("sequential", "huang", "huang-banded", "huang-compact", "rytter")

#: huang-banded (min-plus) below its default band and with the
#: size-class pebble window, as (case, problem spec, solver keywords).
#: Both chains' default band is 6. On the second chain bands 0 and 1
#: commit tables that differ from the sequential one, as narrow bands
#: may by design, so only these entries pin them.
_CLRS_CHAIN = {"kind": "chain", "dims": [30, 35, 15, 5, 10, 20, 25]}
_NARROW_CHAIN = {"kind": "chain", "dims": [86, 64, 52, 27, 31, 5, 8, 2, 18]}
BANDED_CELLS = (
    ("clrs_chain", _CLRS_CHAIN, {"band": 0}),
    ("clrs_chain", _CLRS_CHAIN, {"band": 1}),
    ("clrs_chain", _CLRS_CHAIN, {"band": 3}),
    ("clrs_chain", _CLRS_CHAIN, {"size_band": True}),
    ("narrow_band_chain", _NARROW_CHAIN, {"band": 0}),
    ("narrow_band_chain", _NARROW_CHAIN, {"band": 1}),
)


def golden_cases():
    """The (case_name, problem_spec, problem, algebras, methods) grid.
    Specs are JSON-serialisable so the loader can rebuild problems
    without importing this script."""
    from repro.problems import (
        BottleneckChainProblem,
        MatrixChainProblem,
        OptimalBSTProblem,
        ReliabilityBSTProblem,
    )

    from repro.core.algebra import list_algebras

    chain_dims = [30, 35, 15, 5, 10, 20, 25]  # the CLRS instance, n = 6
    bottleneck_weights = [7, 2, 9, 4, 8, 3, 6]
    connectors = [0.9, 0.75, 0.95, 0.8, 0.85]
    leaves = [0.99, 0.9, 0.97, 0.92, 0.96, 0.94]
    # the CLRS optimal-BST instance (tests/conftest.py), cost 2.75
    bst_p = [0.15, 0.10, 0.05, 0.10, 0.20]
    bst_q = [0.05, 0.10, 0.05, 0.05, 0.05, 0.10]
    return [
        (
            "clrs_chain",
            {"kind": "chain", "dims": chain_dims},
            MatrixChainProblem(chain_dims),
            list(list_algebras()),
            METHODS,
        ),
        (
            "bottleneck_chain",
            {"kind": "bottleneck", "weights": bottleneck_weights},
            BottleneckChainProblem(bottleneck_weights),
            ["minimax", "min_plus"],
            METHODS,
        ),
        (
            "reliability_tree",
            {"kind": "reliability", "connectors": connectors, "leaves": leaves},
            ReliabilityBSTProblem(connectors, leaves),
            ["maxmin", "minimax"],
            METHODS,
        ),
        (
            "clrs_bst",
            {"kind": "bst", "p": bst_p, "q": bst_q},
            OptimalBSTProblem(bst_p, bst_q),
            ["min_plus"],
            ("sequential", "knuth"),
        ),
    ]


def problem_from_spec(spec: dict):
    """Rebuild a golden problem instance from its JSON spec (shared with
    the loader test via import)."""
    from repro.problems import (
        BottleneckChainProblem,
        MatrixChainProblem,
        OptimalBSTProblem,
        ReliabilityBSTProblem,
    )

    kind = spec["kind"]
    if kind == "chain":
        return MatrixChainProblem(spec["dims"])
    if kind == "bst":
        return OptimalBSTProblem(spec["p"], spec["q"])
    if kind == "bottleneck":
        return BottleneckChainProblem(spec["weights"])
    if kind == "reliability":
        return ReliabilityBSTProblem(spec["connectors"], spec["leaves"])
    raise ValueError(f"unknown golden problem kind {kind!r}")


def compute_entries() -> list[dict]:
    from repro.core import solve

    cells = [
        (case_name, spec, problem, method, algebra, {})
        for case_name, spec, problem, algebras, methods in golden_cases()
        for algebra in algebras
        for method in methods
    ]
    cells += [
        (case_name, spec, problem_from_spec(spec), "huang-banded", "min_plus", kwargs)
        for case_name, spec, kwargs in BANDED_CELLS
    ]
    entries = []
    for case_name, spec, problem, method, algebra, kwargs in cells:
        result = solve(problem, method=method, algebra=algebra, **kwargs)
        entry = {"case": case_name, "problem": spec, "method": method}
        if kwargs:
            entry["kwargs"] = kwargs
        entry.update(
            algebra=algebra,
            value=result.value,
            iterations=result.iterations,
            w=[list(row) for row in result.w],
        )
        entries.append(entry)
    return entries


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="verify fixtures against freshly computed tables; do not write",
    )
    args = parser.parse_args(argv)

    entries = compute_entries()
    if args.check:
        import numpy as np

        if not GOLDEN_FILE.exists():
            print(f"missing {GOLDEN_FILE}", file=sys.stderr)
            return 2
        stored = json.loads(GOLDEN_FILE.read_text())
        if len(stored) != len(entries):
            print(
                f"entry count drift: stored {len(stored)}, computed {len(entries)}",
                file=sys.stderr,
            )
            return 1
        drift = 0
        for old, new in zip(stored, entries):
            same = (
                old["value"] == new["value"]
                and old["iterations"] == new["iterations"]
                and np.array_equal(np.asarray(old["w"]), np.asarray(new["w"]))
            )
            if not same:
                drift += 1
                print(
                    f"drift: {old['case']} {old['method']} {old['algebra']} "
                    f"{old.get('kwargs', {})}",
                    file=sys.stderr,
                )
        print(f"{len(entries)} entries checked, {drift} drifted")
        return 1 if drift else 0

    GOLDEN_PATH.mkdir(parents=True, exist_ok=True)
    GOLDEN_FILE.write_text(json.dumps(entries, indent=1) + "\n")
    print(f"wrote {len(entries)} golden entries to {GOLDEN_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
