"""Golden regression fixtures: solver × algebra tables pinned bitwise.

``tests/golden/golden_tables.json`` stores the exact float64 ``w``
table and decoded value for every (instance, method, algebra) cell of
the golden grid, plus ``huang-banded`` below its default band (see
``scripts/regen_golden.py``, which regenerates the file). This test recomputes each entry and fails on *any* bitwise
drift — the engine's tables are deterministic by design, so any diff
here is a behaviour change that must be reviewed, not noise.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import solve

GOLDEN_FILE = Path(__file__).parent / "golden_tables.json"

# Single source of truth for spec -> problem: the regeneration script
# itself (loaded by path; scripts/ is not a package).
_SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "regen_golden.py"
_spec_obj = importlib.util.spec_from_file_location("regen_golden", _SCRIPT)
_regen = importlib.util.module_from_spec(_spec_obj)
_spec_obj.loader.exec_module(_regen)
_problem_from_spec = _regen.problem_from_spec


def _entries():
    return json.loads(GOLDEN_FILE.read_text())


def _kwargs(entry) -> dict:
    return entry.get("kwargs", {})


def test_fixture_file_exists_and_covers_the_grid():
    entries = _entries()
    assert len(entries) == 53
    seen = {
        (e["case"], e["method"], e["algebra"], json.dumps(_kwargs(e), sort_keys=True))
        for e in entries
    }
    assert len(seen) == len(entries)
    # The flagship grid: every method × every algebra on the CLRS chain.
    clrs = {(m, a) for c, m, a, kw in seen if c == "clrs_chain" and kw == "{}"}
    assert len(clrs) == 25
    # huang-banded at bands 0, 1 and 3 and with the size-class window
    # on the CLRS chain, and at bands 0 and 1 on a second chain.
    banded = [(e["case"], e["method"], _kwargs(e)) for e in entries if _kwargs(e)]
    assert banded == [
        ("clrs_chain", "huang-banded", {"band": 0}),
        ("clrs_chain", "huang-banded", {"band": 1}),
        ("clrs_chain", "huang-banded", {"band": 3}),
        ("clrs_chain", "huang-banded", {"size_band": True}),
        ("narrow_band_chain", "huang-banded", {"band": 0}),
        ("narrow_band_chain", "huang-banded", {"band": 1}),
    ]


def test_narrow_bands_pin_tables_the_sequential_dp_does_not():
    """Below its default band huang-banded may commit another table than
    the sequential DP, by design; on the second chain it does, so these
    entries are the only reference for it."""
    narrow = [e for e in _entries() if e["case"] == "narrow_band_chain"]
    assert narrow
    for entry in narrow:
        sequential = solve(_problem_from_spec(entry["problem"]), method="sequential")
        assert not np.array_equal(sequential.w, np.asarray(entry["w"])), entry["kwargs"]


def test_knuth_pins_the_sequential_table():
    """Knuth's split windows commit bitwise the sequential DP's table."""
    bst = {e["method"]: e for e in _entries() if e["case"] == "clrs_bst"}
    assert set(bst) == {"sequential", "knuth"}
    assert bst["knuth"]["w"] == bst["sequential"]["w"]
    assert bst["knuth"]["value"] == bst["sequential"]["value"]


@pytest.mark.parametrize(
    "entry",
    _entries(),
    ids=lambda e: "-".join(
        [e["case"], e["method"], e["algebra"]]
        + [f"{k}={v}" for k, v in _kwargs(e).items()]
    ),
)
def test_no_bitwise_drift(entry):
    problem = _problem_from_spec(entry["problem"])
    result = solve(
        problem, method=entry["method"], algebra=entry["algebra"], **_kwargs(entry)
    )
    assert result.value == entry["value"]
    assert result.iterations == entry["iterations"]
    golden_w = np.asarray(entry["w"], dtype=np.float64)
    assert golden_w.shape == result.w.shape
    # Bitwise: array_equal on float64 (inf == inf holds; no NaNs exist).
    assert np.array_equal(result.w, golden_w), (
        f"golden drift at {entry['case']}/{entry['method']}/{entry['algebra']}: "
        "regenerate with scripts/regen_golden.py only if the change is intended"
    )
