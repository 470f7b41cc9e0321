"""Tests of the parallel sweep runner: grid building, caching, determinism."""

import json

import pytest

from repro.cli import main
from repro.config import SimulationConfig, tiny_system
from repro.experiments.configs import AppSpec
from repro.experiments.scenario import CACHE_VERSION, Scenario, load_scenarios, scenario_hash
from repro.experiments.sweep import run_sweep
from repro.results import ResultStore


def _tiny_cell(routing="par", seed=1) -> Scenario:
    """Small-but-real sweep cell: tiny system, so every run finishes in well
    under a second."""
    return Scenario(
        name="sweep/UR",
        jobs=(AppSpec("UR", 8, {"scale": 0.2}),),
        config=SimulationConfig(system=tiny_system(), seed=seed).with_routing(routing),
    )


def _tiny_grid():
    return [
        _tiny_cell(routing=routing, seed=seed)
        for routing in ("par", "q-adaptive")
        for seed in (1, 2)
    ]


# ------------------------------------------------------------------ grid/hash
#: Scenario hashes of the ``sweep --workloads`` grid below, in grid order
#: (workload x routing x placement x seed).  Every stored ``--workloads``
#: cell is keyed by one of these forms, so a change to how the CLI builds
#: the grid must leave them unchanged or existing stores stop hitting.
PINNED_WORKLOAD_GRID_HASHES = {
    "tiny": [
        "7bebf35f60e7f64228eaea09", "929ba52516694fb548b6c0c6",
        "faa71f0a8d46a19b255eba79", "3f81c496106178d8118cac8e",
        "bfda5bfa7490607b4a3238d1", "db3ff0fff05cfd32fb044533",
        "28a4945315a11481f6c91f64", "4b9efe75f6a2d803b338f6e5",
        "8114fb882c3cd78aea016287", "4ba4915368dcdf83d03e5dda",
        "79a98745f2817355a5808057", "da8eb0790e1c2314120e7a0f",
        "5eb383b67fe5322e4da99f30", "4337857c671773e92b971146",
        "6aeddd0b5eaef96c7ea76ef1", "99690ad298929301be08c024",
    ],
    "small": [
        "d3ab2b3db68d36b8cb0ca929", "3537e30a453b74a59532bd99",
        "0a83a3a12177f80cfbda048b", "da4e147f4495e1333d7505cf",
        "ca1275879fe3d3d8ab6cbee7", "1536ae79a3600e9e66ddc192",
        "b500579667fb11dbf495b15a", "1769e4900b50ca127d44b54d",
        "e32bcb34a3ff8b20b048f514", "2bf438ec81b8b1ad3047e440",
        "540a9a69c80ad2e5f357c63d", "573e7b8eaa4ae1d2b423b16e",
        "320ee7a6d7a523c7f275c63d", "dbc331ab13f1ba4a834c990b",
        "520ddac2efd66bd30888b55b", "f32aa412fa4374df2809eef4",
    ],
}


@pytest.mark.parametrize("system", sorted(PINNED_WORKLOAD_GRID_HASHES))
def test_cli_workloads_grid_hashes_are_pinned(system, tmp_path, capsys):
    path = tmp_path / "grid.json"
    assert main(
        ["sweep", "--workloads", "UR", "ml.ring_allreduce",
         "--routings", "par", "ugal", "--placements", "random", "Contiguous",
         "--seeds", "1", "2", "--system", system, "--dump-scenario", str(path)]
    ) == 0
    capsys.readouterr()
    grid = load_scenarios(path)
    assert [scenario_hash(cell) for cell in grid] == PINNED_WORKLOAD_GRID_HASHES[system]
    assert [cell.name for cell in grid] == ["sweep/UR"] * 8 + ["sweep/ml.ring_allreduce"] * 8


def _forbid_simulation(monkeypatch):
    def run(self, *args, **kwargs):
        raise AssertionError(f"{self.name} simulated before the grid was validated")

    monkeypatch.setattr(Scenario, "run", run)


def test_cli_workloads_grid_rejects_bad_axes_before_simulating(tmp_path, monkeypatch):
    _forbid_simulation(monkeypatch)
    argv = ["sweep", "--workloads", "UR", "--system", "tiny", "--scale", "0.1",
            "--workers", "1", "--store", str(tmp_path / "r.sqlite")]
    for bad in (
        ["--workloads", "UR", "NotAnApp"],
        ["--workloads", "UR", "hotspot"],  # an application, but not a grid workload
        ["--routings", "par", "qadaptiv"],  # typo'd algorithm
        ["--placements", "random", "spread"],
    ):
        with pytest.raises(ValueError):
            main(argv + bad)
    assert not (tmp_path / "r.sqlite").exists()


def test_cli_workloads_grid_rejects_unknown_system(tmp_path, monkeypatch, capsys):
    _forbid_simulation(monkeypatch)
    with pytest.raises(SystemExit):
        main(["sweep", "--workloads", "UR", "--system", "huge",
              "--store", str(tmp_path / "r.sqlite")])
    assert "invalid choice" in capsys.readouterr().err


def test_cli_workloads_grid_canonicalizes_ugal_into_one_cache_entry(tmp_path, capsys):
    store_path = tmp_path / "r.sqlite"
    argv = ["sweep", "--workloads", "UR", "--system", "tiny", "--scale", "0.1",
            "--placements", "Random", "--workers", "1", "--store", str(store_path)]
    dump = tmp_path / "grid.json"
    assert main(argv + ["--routings", "ugal", "--dump-scenario", str(dump)]) == 0
    (cell,) = load_scenarios(dump)
    assert cell.config.routing.algorithm == "ugal-g"
    assert cell.placement == "random"
    assert main(argv + ["--routings", "ugal"]) == 0
    assert "(cache)" not in capsys.readouterr().err
    assert main(argv + ["--routings", "ugal-g"]) == 0
    assert "sweep/UR ugal-g random seed=1 (cache)" in capsys.readouterr().err
    with ResultStore(store_path) as store:
        assert len(store) == 1
        assert store.get(cell) is not None


def test_cli_sweep_empty_store_disables_caching(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = ["sweep", "--workloads", "UR", "--system", "tiny", "--scale", "0.1",
            "--routings", "par", "--workers", "1", "--store", ""]
    assert main(argv) == 0
    assert main(argv) == 0
    assert "(cache)" not in capsys.readouterr().err
    assert not (tmp_path / ".sweep-cache").exists()  # the default store is not opened


def test_cli_sweep_unreadable_store_fails_cleanly(tmp_path, capsys):
    broken = tmp_path / "broken.sqlite"
    broken.write_bytes(b"not a sqlite database" * 100)
    assert main(["sweep", "--workloads", "UR", "--system", "tiny", "--scale", "0.1",
                 "--routings", "par", "--workers", "1", "--store", str(broken)]) == 2
    err = capsys.readouterr().err
    assert f"result store {str(broken)!r} is unreadable" in err


# ------------------------------------------------------------------ execution
def test_run_sweep_serial_produces_metrics():
    results = run_sweep([_tiny_cell()], workers=1)
    assert len(results) == 1
    metrics = results[0].metrics
    assert metrics["makespan_ns"] > 0
    assert metrics["packets_injected"] == metrics["packets_ejected"] > 0
    assert not results[0].cached
    row = results[0].as_row()
    assert row["scenario"] == "sweep/UR" and row["jobs"] == "UR"
    assert row["routing"] == "par" and row["seed"] == 1 and row["makespan_ns"] > 0


def test_run_sweep_rejects_non_scenario_cells():
    with pytest.raises(TypeError, match="expects Scenario cells"):
        run_sweep([_tiny_cell().to_dict()])


def test_run_sweep_caches_results_in_store(tmp_path):
    store_path = tmp_path / "results.sqlite"
    cell = _tiny_cell()
    first = run_sweep([cell], workers=1, store=store_path)
    assert not first[0].cached
    with ResultStore(store_path) as store:
        stored = store.get(cell)
        assert stored is not None
        assert stored.scenario == cell.to_dict()
        assert stored.metrics == first[0].metrics

    second = run_sweep([cell], workers=1, store=store_path)
    assert second[0].cached
    assert second[0].metrics == first[0].metrics


def test_run_sweep_accepts_open_store(tmp_path):
    cell = _tiny_cell()
    with ResultStore(tmp_path / "r.sqlite") as store:
        first = run_sweep([cell], workers=1, store=store)
        second = run_sweep([cell], workers=1, store=store)
    assert not first[0].cached and second[0].cached


def test_run_sweep_never_reads_pre_store_json_cache(tmp_path):
    """A <hash>.json entry from the pre-store cache sitting next to the store
    (the old default layout) is ignored: the cell re-simulates."""
    cache = tmp_path / ".sweep-cache"
    cache.mkdir()
    cell = _tiny_cell()
    payload = {
        "version": CACHE_VERSION,
        "scenario": cell.to_dict(),
        "metrics": {"makespan_ns": 123.0, "mean_comm_time_ns": 1.0},
        "wall_seconds": 2.0,
    }
    (cache / f"{scenario_hash(cell)}.json").write_text(json.dumps(payload))
    (result,) = run_sweep([cell], workers=1, store=cache / "results.sqlite")
    assert not result.cached
    assert result.metrics["makespan_ns"] != 123.0
    with ResultStore(cache / "results.sqlite") as store:
        assert store.get(cell).metrics == result.metrics


def test_run_sweep_ignores_and_heals_stale_cache_entries(tmp_path):
    import sqlite3

    store_path = tmp_path / "results.sqlite"
    cell = _tiny_cell()
    run_sweep([cell], workers=1, store=store_path)
    conn = sqlite3.connect(store_path)
    # Simulate a stale layout under the same hash: stored scenario != requested.
    conn.execute("UPDATE runs SET scenario_json = replace(scenario_json, '\"seed\":1', '\"seed\":999')")
    conn.commit()
    conn.close()
    results = run_sweep([cell], workers=1, store=store_path)
    assert not results[0].cached
    # Recording the re-simulated result replaced the stale row (self-heal),
    # so the next sweep is warm again instead of re-simulating forever.
    healed = run_sweep([cell], workers=1, store=store_path)
    assert healed[0].cached
    assert healed[0].metrics == results[0].metrics


def test_run_sweep_parallel_matches_serial_exactly():
    """Same seeds => bit-identical metrics, serial vs. multiprocessing."""
    grid = _tiny_grid()
    serial = run_sweep(grid, workers=1)
    parallel = run_sweep(grid, workers=4)
    assert [r.scenario for r in serial] == grid
    assert [r.scenario for r in parallel] == grid
    for s, p in zip(serial, parallel):
        assert s.metrics == p.metrics  # exact float equality, not approx


def test_run_sweep_reports_progress():
    seen = []
    run_sweep(
        [_tiny_cell(), _tiny_cell(seed=2)],
        workers=1,
        progress=lambda done, total, result: seen.append((done, total, result.cached)),
    )
    assert seen == [(1, 2, False), (2, 2, False)]


# ------------------------------------------------------- failure isolation
def _failing_scenario(seed=1):
    """A scenario that raises inside run(): continuous injection, no bound."""
    return Scenario(
        name=f"sweep/unbounded-{seed}",
        jobs=(AppSpec("shift", 6, {"offered_load": 0.5}),),
        config=SimulationConfig(system=tiny_system(), seed=seed),
    )


def test_failing_cell_does_not_kill_the_sweep(tmp_path):
    """Regression: one crashing scenario used to abort the whole grid."""
    from repro.experiments.sweep import SweepError

    store_path = tmp_path / "results.sqlite"
    grid = [_tiny_cell(seed=1), _failing_scenario(), _tiny_cell(seed=2)]
    with pytest.raises(SweepError) as excinfo:
        run_sweep(grid, workers=1, store=store_path)
    error = excinfo.value
    # The raise happens only after the whole grid ran: all three cells are
    # present, in input order, with the good ones fully simulated.
    assert len(error.results) == 3
    good_first, failed, good_last = error.results
    assert good_first.metrics["makespan_ns"] > 0
    assert good_last.metrics["makespan_ns"] > 0
    assert failed.failed and not good_first.failed and not good_last.failed
    assert failed.error.startswith("ValueError")
    assert "Traceback" in failed.traceback
    assert failed.metrics == {}
    assert error.failures == [failed]
    assert "1 of 3 sweep cells failed" in str(error)
    assert "sweep/unbounded-1" in str(error)
    # The failed cell surfaces in report rows via an error column.
    assert failed.as_row()["error"] == failed.error
    assert "error" not in good_first.as_row()

    # Successes are cached; the failure is not (it must be re-attempted).
    with ResultStore(store_path) as store:
        assert store.get(grid[0]) is not None
        assert store.get(grid[1]) is None
        assert store.get(grid[2]) is not None
    with pytest.raises(SweepError) as again:
        run_sweep(grid, workers=1, store=store_path)
    assert [r.cached for r in again.value.results] == [True, False, True]


def test_failing_cell_is_isolated_across_worker_processes():
    """The failure comes back as a result through the pool, not a raise."""
    from repro.experiments.sweep import SweepError

    grid = [_failing_scenario(), _tiny_cell(seed=1), _tiny_cell(seed=2)]
    with pytest.raises(SweepError) as excinfo:
        run_sweep(grid, workers=2)
    results = excinfo.value.results
    assert len(results) == 3
    assert results[0].failed and results[0].error.startswith("ValueError")
    assert results[1].metrics["makespan_ns"] > 0
    assert results[2].metrics["makespan_ns"] > 0


def test_fail_fast_stops_at_the_first_failure():
    from repro.experiments.sweep import SweepError

    seen = []
    grid = [_tiny_cell(seed=1), _failing_scenario(), _tiny_cell(seed=2)]
    with pytest.raises(SweepError) as excinfo:
        run_sweep(
            grid,
            workers=1,
            fail_fast=True,
            progress=lambda done, total, result: seen.append(result.failed),
        )
    # The third cell never ran: partial results stop at the failure.
    assert seen == [False, True]
    assert len(excinfo.value.results) == 2
    assert excinfo.value.results[-1].failed


def test_interrupting_a_parallel_sweep_terminates_instead_of_draining(tmp_path):
    """Regression: Ctrl-C used to close()+join() the pool, which blocks until
    every queued scenario simulated to completion.  The sweep must exit
    promptly (pool.terminate) while surfacing the KeyboardInterrupt."""
    import os
    import signal
    import subprocess
    import sys
    import threading
    import time
    from pathlib import Path

    if os.name != "posix":
        pytest.skip("POSIX signal semantics required")

    script = tmp_path / "interrupt_sweep.py"
    script.write_text(
        """
import sys
from repro.config import SimulationConfig, tiny_system
from repro.experiments.configs import AppSpec
from repro.experiments.scenario import Scenario
from repro.experiments.sweep import run_sweep

# ~2s per cell: long enough that draining the queue after the interrupt
# (the old bug) takes tens of seconds, far beyond the parent's bound.
grid = [
    Scenario(
        name=f"slow/{seed}",
        jobs=(AppSpec("UR", 16, {"scale": 1.0, "iterations": 500, "seed": seed}),),
        config=SimulationConfig(system=tiny_system(), seed=seed),
    )
    for seed in range(1, 17)
]

try:
    run_sweep(
        grid,
        workers=2,
        progress=lambda done, total, result: print(f"DONE {done}", flush=True),
    )
except KeyboardInterrupt:
    print("INTERRUPTED", flush=True)
    sys.exit(42)
print("DRAINED", flush=True)
sys.exit(0)
"""
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.Popen(
        [sys.executable, str(script)],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    watchdog = threading.Timer(120.0, proc.kill)
    watchdog.start()
    try:
        # Wait for the first completed cell, then interrupt the parent only
        # (the workers keep running unless the sweep terminates them).
        line = proc.stdout.readline()
        assert line.strip() == "DONE 1", f"unexpected first line {line!r}"
        interrupted_at = time.monotonic()
        os.kill(proc.pid, signal.SIGINT)
        remaining = proc.communicate(timeout=60)[0]
        elapsed = time.monotonic() - interrupted_at
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
    assert proc.returncode == 42, f"exit {proc.returncode}, output: {remaining!r}"
    assert "INTERRUPTED" in remaining
    assert "DRAINED" not in remaining
    # Draining ~14 queued 2s-cells over 2 workers would take >10s; a
    # terminated pool exits in well under that.
    assert elapsed < 8.0, f"sweep took {elapsed:.1f}s to exit after SIGINT (drained?)"
