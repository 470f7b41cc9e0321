"""Golden-results corpus: every pinned cell must reproduce exactly.

The corpus (``tests/golden/corpus.json``) pins the observable outputs of a
fixed set of small scenarios — ``flatten_run`` rows with ``events_fired``,
run summaries without wall time, and recorded-trace hashes — across every
routing algorithm.  Any change in simulator output fails here as an
explicit per-key diff; an intended model change regenerates the corpus with
``tests/golden/regenerate.py`` and commits the reviewed diff.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from golden.cells import CELLS, canonical, measure

CORPUS = json.loads((Path(__file__).parent / "golden" / "corpus.json").read_text())


def _diff(expected, actual, path=""):
    """Human-readable paths where two JSON values differ."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        lines = []
        for key in sorted(set(expected) | set(actual)):
            where = f"{path}/{key}"
            if key not in actual:
                lines.append(f"{where}: missing")
            elif key not in expected:
                lines.append(f"{where}: unexpected {actual[key]!r}")
            else:
                lines.extend(_diff(expected[key], actual[key], where))
        return lines
    if canonical(expected) != canonical(actual):
        return [f"{path}: expected {expected!r}, got {actual!r}"]
    return []


def test_corpus_covers_exactly_the_cells():
    assert sorted(CORPUS) == sorted(name for name, _ in CELLS)


@pytest.mark.parametrize("name", [name for name, _ in CELLS])
def test_golden_cell_reproduces_exactly(name):
    actual = measure(name)
    expected = CORPUS[name]
    if canonical(actual) != canonical(expected):
        pytest.fail(f"golden cell {name!r} changed:\n" + "\n".join(_diff(expected, actual)))


def test_golden_cells_are_not_vacuous():
    for name, cell in CORPUS.items():
        if "flat" in cell:
            assert cell["flat"]["events_fired"] > 0, name
            assert cell["flat"]["packets_ejected"] > 0, name
        else:
            assert cell["trace_hashes"], name
