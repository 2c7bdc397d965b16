"""Solves checked in to the last bit: the n = 12 half of the grid of
``scripts/solve_signatures.py`` (384 solves), and the paper cell at
n = 500 (12 solves).

A change that moves a solve on purpose re-records both files, and says why:

    python3 tests/test_signatures.py
"""

import importlib.util
import json
from pathlib import Path

TESTS = Path(__file__).resolve().parent
RECORDED = TESTS / "data" / "signatures_n12.json"
RECORDED_PAPER = TESTS / "data" / "signatures_n500.json"


def _script():
    spec = importlib.util.spec_from_file_location(
        "solve_signatures", TESTS.parent / "scripts" / "solve_signatures.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def signatures():
    """The signature of every solve of the grid's n = 12 cells, by key."""
    script = _script()
    # the n = 12 cells come first in the grid, so their seeds stay the same
    script.N_VALUES = (12,)
    return {key: script.signature(script.branch_and_bound(inst, params))
            for key, inst, params in script.solves()}


def paper_signatures():
    """The signature of each solve of the paper cell n = 500, epsilon 0.1,
    xi 0.75, by key: the instance that ``batch(paper_cells(n_values=[500]),
    1, base_seed=0)`` draws in each correlation class, as generated, in
    both formulations at node limits 0 and 3."""
    script = _script()
    from mixopt import GenConfig, generate, mix_seed, paper_cells

    out = {}
    for index, cell in enumerate(paper_cells(n_values=(500,))):
        if (cell.epsilon, cell.xi) != (0.1, 0.75):
            continue
        seed = mix_seed(0, index, 0)
        inst = generate(GenConfig(cell.correlation, 500, 0.1, 0.75, seed))
        for form in script.FORMS:
            for limit in (0, 3):
                out[f"{cell.correlation}_n500_e0.1_x0.75_s{seed}_{form}_nl{limit}"] = (
                    script.signature(script.branch_and_bound(
                        inst, script.SolveParams(formulation=form, node_limit=limit))))
    return out


def _moved(want, got):
    return sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))


def test_solves_match_the_recorded_signatures():
    want = json.loads(RECORDED.read_text())
    got = signatures()
    assert len(want) == 384
    moved = _moved(want, got)
    assert not moved, f"{len(moved)} of {len(want)} signatures moved: {moved}"


def test_paper_cell_solves_match_the_recorded_signatures():
    want = json.loads(RECORDED_PAPER.read_text())
    got = paper_signatures()
    assert len(want) == 12
    moved = _moved(want, got)
    assert not moved, f"{len(moved)} of {len(want)} signatures moved: {moved}"


if __name__ == "__main__":
    RECORDED.parent.mkdir(exist_ok=True)
    for path, record in ((RECORDED, signatures), (RECORDED_PAPER, paper_signatures)):
        path.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
