"""The correctness oracle: a reference value for every distinct instance.

References come from ``repro.core.solve(problem, method="sequential")``
with no cache, computed by the benchmark before any fleet starts, so
they cost nothing inside a timed window. Responses are compared
exactly: every method commits bitwise-identical tables, and a float
survives the JSON round trip unchanged.

Large instance sets are split across worker processes, each this file
run as a script (``python3 oracle.py SPECS.json VALUES.json``), which
the benchmark starts and waits for.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

#: fewer distinct instances than this are solved inline
_INLINE_LIMIT = 24


def spec_key(spec: dict) -> str:
    """Canonical identity of a problem spec (request ids excluded)."""
    return json.dumps({k: v for k, v in spec.items() if k != "rid"}, sort_keys=True)


def reference_value(spec: dict) -> float:
    from repro.core import solve
    from repro.problems.specs import problem_from_spec

    return solve(problem_from_spec(spec), method="sequential").value


def reference_values(specs, src: str, workers: int = 2) -> dict[str, float]:
    """``spec_key -> value`` for every distinct spec in ``specs``;
    ``src`` is the directory the ``repro`` package is imported from."""
    distinct = {spec_key(spec): spec for spec in specs}
    keys = list(distinct)
    if len(keys) < _INLINE_LIMIT:
        return {k: reference_value(distinct[k]) for k in keys}
    chunks = [keys[w::workers] for w in range(workers)]
    env = dict(os.environ, PYTHONPATH=src)
    with tempfile.TemporaryDirectory(prefix="oracle-") as tmp:
        procs = []
        for w, chunk in enumerate(chunks):
            spec_path = os.path.join(tmp, f"specs-{w}.json")
            with open(spec_path, "w", encoding="utf-8") as fh:
                json.dump([distinct[k] for k in chunk], fh)
            out_path = os.path.join(tmp, f"values-{w}.json")
            procs.append((subprocess.Popen([sys.executable, __file__, spec_path, out_path], env=env), out_path))
        for proc, _ in procs:
            proc.wait()
        if any(proc.returncode != 0 for proc, _ in procs):
            raise RuntimeError("an oracle worker failed")
        values: dict[str, float] = {}
        for chunk, (_, out_path) in zip(chunks, procs):
            with open(out_path, encoding="utf-8") as fh:
                values.update(zip(chunk, json.load(fh)))
    return values


if __name__ == "__main__":
    with open(sys.argv[1], encoding="utf-8") as fh:
        todo = json.load(fh)
    with open(sys.argv[2], "w", encoding="utf-8") as fh:
        json.dump([reference_value(spec) for spec in todo], fh)
