"""Rewrite ``tests/golden/corpus.json`` from the current simulator.

Run from the repository root::

    PYTHONPATH=src python tests/golden/regenerate.py

Regenerate only for an intended model change, and review the diff of
``corpus.json`` like any other code change: every changed value is a change
in simulator output.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from golden.cells import CELLS  # noqa: E402


def render(corpus: dict) -> str:
    """The corpus as JSON with one line per output of a cell (sorted keys).

    A changed value changes the line of its cell output, so a review sees
    which cell and which output moved; the test reports the exact keys.
    """
    cells = []
    for name in sorted(corpus):
        outputs = corpus[name]
        body = ",\n".join(
            f"  {json.dumps(key)}: {json.dumps(outputs[key], sort_keys=True)}"
            for key in sorted(outputs)
        )
        cells.append(f" {json.dumps(name)}: {{\n{body}\n }}")
    return "{\n" + ",\n".join(cells) + "\n}\n"


def main() -> int:
    corpus = {}
    for name, run in CELLS:
        corpus[name] = run()
        print(f"  {name}", flush=True)
    (HERE / "corpus.json").write_text(render(corpus))
    print(f"wrote {len(corpus)} cells to {HERE / 'corpus.json'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
