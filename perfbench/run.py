"""The repository benchmark: one command, every workload, checked outputs.

Run from the repository root::

    python3 perfbench/run.py --seed 1                          # every workload
    python3 perfbench/run.py --workload paper_tables --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload flow_100k --seed 1 --trace 1   # per-layer

Each workload runs in a fresh interpreter (``perfbench/child.py``) with
``src`` on ``PYTHONPATH`` and the ``REPRO_BACKEND``, ``REPRO_FIDELITY`` and
``REPRO_BENCH_*`` overrides removed from its environment.  This process
prints the provenance, the output digest, every metric with its unit and
sample count, any failed check, and last a JSON line::

    {"correct": true, "attempted": 61, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones (see ``perfbench/README.md``).  The exit code is 0 only
when every check passed; a workload that crashes or times out prints no
result line.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from perfbench import spec  # noqa: E402

#: A child must finish within this many seconds (the run itself is bounded
#: by ``--seconds``; the rest is start-up and the last round).
CHILD_TIMEOUT_S = 170
#: ``personality(2)`` flag that turns off address-space randomisation.
ADDR_NO_RANDOMIZE = 0x0040000
#: Environment overrides that would change what a run executes.
CLEARED_ENV = ("REPRO_BACKEND", "REPRO_FIDELITY")
CLEARED_ENV_PREFIX = "REPRO_BENCH_"


def child_env() -> Dict[str, str]:
    """This process's environment, pinned for a workload child."""
    env = {
        key: value
        for key, value in os.environ.items()
        if key not in CLEARED_ENV and not key.startswith(CLEARED_ENV_PREFIX)
    }
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["PYTHONHASHSEED"] = "0"
    return env


def fixed_layout() -> None:
    """Turn off address-space randomisation for the child about to exec.

    With it on, each process places the interpreter's memory differently,
    and sub-millisecond operations then differ by up to ~15% between runs.
    Where ``personality(2)`` is refused the child runs randomised.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    libc.personality.argtypes = [ctypes.c_ulong]
    libc.personality.restype = ctypes.c_int
    current = libc.personality(0xFFFFFFFF)
    if current != -1:
        libc.personality(current | ADDR_NO_RANDOMIZE)


def run_child(args: argparse.Namespace, workload: str) -> Optional[Dict[str, Any]]:
    """Run one workload in a fresh interpreter; ``None`` if it failed."""
    command = [
        sys.executable, "-m", "perfbench.child",
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--size", args.size,
        "--out", str(HERE / "out"),
    ]
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            text=True, timeout=CHILD_TIMEOUT_S, preexec_fn=fixed_layout,
        )
    except subprocess.TimeoutExpired:
        print(f"{workload}: timed out after {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{workload}: child exited with code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def result_line(child: Dict[str, Any], trace: int) -> Dict[str, Any]:
    """The contract's JSON result of one workload child."""
    units = (
        {name: unit for name, unit in spec.PER_LAYER.items()}
        if trace
        else {name: unit for name, (unit, _, _) in spec.END_TO_END.items()}
    )
    measured = child["metrics"]
    missing = sorted(set(units) - set(measured))
    if missing:
        raise ValueError(f"{child['workload']}: metrics missing from the run: {missing}")
    return {
        "correct": not child["failures"],
        "attempted": child["attempted"],
        "failed": len(child["failures"]),
        "metrics": {
            name: {"value": measured[name]["value"], "unit": unit} for name, unit in units.items()
        },
    }


def report(child: Dict[str, Any], line: Dict[str, Any]) -> None:
    """Human-readable lines for one workload."""
    name = child["workload"]
    print(f"== {name}")
    print(f"provenance: {json.dumps(child['provenance'], sort_keys=True)}")
    print(f"output digest: {child['digest']}")
    for index, entry in enumerate(child["rounds"]):
        print(f"round {index}: " + ", ".join(f"{k} {v:.4g}" for k, v in entry.items()))
    if child.get("spans_file"):
        print(f"spans: {child['spans_file']}")
    for metric, entry in line["metrics"].items():
        samples = child["metrics"][metric]["samples"]
        value = entry["value"]
        shown = str(value) if isinstance(value, int) else f"{value:.6g}"
        print(f"{name} {metric} = {shown} {entry['unit']} (n={samples})")
    error_rate = line["failed"] / line["attempted"]
    print(f"{name} error_rate = {error_rate:.6g} (failed {line['failed']} of {line['attempted']})")
    for failure in child["failures"]:
        print(f"{name} FAILED: {failure}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Run the repository benchmark.")
    parser.add_argument("--workload", default="all", choices=("all",) + spec.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny: small inputs for the benchmark's own tests",
    )
    args = parser.parse_args(argv)

    names = spec.WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    status = 0
    for name in names:
        child = run_child(args, name)
        if child is None:
            return 2
        line = result_line(child, args.trace)
        report(child, line)
        print(json.dumps(line))
        if not line["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
