"""The n = 12 half of the grid of ``scripts/solve_signatures.py``, checked
in: every one of its 384 solves must match its recorded signature to the
last bit.

A change that moves a solve on purpose re-records the file, and says why:

    python3 tests/test_signatures.py
"""

import importlib.util
import json
from pathlib import Path

TESTS = Path(__file__).resolve().parent
RECORDED = TESTS / "data" / "signatures_n12.json"


def signatures():
    """The signature of every solve of the grid's n = 12 cells, by key."""
    spec = importlib.util.spec_from_file_location(
        "solve_signatures", TESTS.parent / "scripts" / "solve_signatures.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    # the n = 12 cells come first in the grid, so their seeds stay the same
    script.N_VALUES = (12,)
    return {key: script.signature(script.branch_and_bound(inst, params))
            for key, inst, params in script.solves()}


def test_solves_match_the_recorded_signatures():
    want = json.loads(RECORDED.read_text())
    got = signatures()
    assert len(want) == 384
    moved = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
    assert not moved, f"{len(moved)} of {len(want)} signatures moved: {moved}"


if __name__ == "__main__":
    RECORDED.parent.mkdir(exist_ok=True)
    RECORDED.write_text(json.dumps(signatures(), indent=1, sort_keys=True) + "\n")
