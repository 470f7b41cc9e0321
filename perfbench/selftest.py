"""The benchmark's own tests, at tiny sizes.

Run from the repository root (about a minute)::

    PYTHONPATH=src python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the tier-1 collection.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Tuple

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from perfbench import spec  # noqa: E402


def run_bench(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT) -> Tuple[int, List[str]]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=300,
    )
    return proc.returncode, proc.stdout.splitlines()


def parse(lines: List[str]) -> Tuple[Dict, str]:
    """The result line and the output digest of one run."""
    digest = next(line.split(": ", 1)[1] for line in lines if line.startswith("output digest: "))
    return json.loads(lines[-1]), digest


@pytest.fixture(scope="module")
def runs() -> Dict[Tuple[str, int], List[Tuple[int, List[str]]]]:
    """Per workload: one untraced run and two traced runs at one seed."""
    out = {}
    for workload in spec.WORKLOAD_NAMES:
        out[(workload, 0)] = [run_bench(workload, 0)]
        out[(workload, 1)] = [run_bench(workload, 1), run_bench(workload, 1)]
    return out


def test_benchmark_json_matches_spec():
    from repro.core.events import EventKind

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(spec.WORKLOAD_NAMES)
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]} == spec.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == spec.PER_LAYER
    assert spec.EVENT_KINDS == tuple(kind.name.lower() for kind in EventKind)
    bounds = {name: bound for name, (_, _, bound) in spec.END_TO_END.items()}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", spec.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_emits_every_metric_with_unit(runs, workload, trace):
    code, lines = runs[(workload, trace)][0]
    assert code == 0, "\n".join(lines)
    result, _ = parse(lines)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = (
        spec.PER_LAYER if trace else {name: unit for name, (unit, _, _) in spec.END_TO_END.items()}
    )
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(
            line.startswith(f"{workload} {name} = ") and line.endswith(")") and f" {unit} (n=" in line
            for line in lines
        ), name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", spec.WORKLOAD_NAMES)
def test_traced_counts_and_digest_repeat(runs, workload):
    (code_a, lines_a), (code_b, lines_b) = runs[(workload, 1)]
    assert code_a == code_b == 0
    (first, digest_a), (second, digest_b) = parse(lines_a), parse(lines_b)
    assert digest_a == digest_b
    # Tracing must not change what the model computes.
    assert digest_a == parse(runs[(workload, 0)][0][1])[1]
    for name in spec.EXACT_COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["core.events"]["value"] > 0
    assert first["metrics"]["mpi.msgs"]["value"] > 0
    assert first["metrics"]["results.hit_ratio"]["value"] == 1.0


def _snapshot() -> Dict[Tuple[str, str], object]:
    """Identity of every attribute of the traced modules and their classes."""
    import inspect

    seen = {}
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro"):
            continue
        for attr, value in vars(module).items():
            seen[(name, attr)] = value
            if inspect.isclass(value):
                for cls_attr, raw in vars(value).items():
                    seen[(f"{name}.{value.__qualname__}", cls_attr)] = raw
    return seen


def test_wrappers_leave_no_class_patched(tmp_path):
    from perfbench import workloads
    from perfbench.child import Bench
    from perfbench.tracer import LAYERS, Tracer, layer_modules

    for layer in LAYERS:
        layer_modules(layer)
    before = _snapshot()
    bench = Bench(workloads.build("paper_qadaptive", 1, "tiny"), tmp_path)
    tracer = Tracer()
    with tracer:
        bench.probes.install()
        assert _snapshot() != before
        bench.cold_round()
        bench.probes.uninstall()
    bench.store.close()
    assert tracer.call_count("repro.core.engine:Simulator.schedule") > 0
    after = _snapshot()
    assert [key for key in before if after.get(key) is not before[key]] == []


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, lines = run_bench("paper_qadaptive", 0, cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
