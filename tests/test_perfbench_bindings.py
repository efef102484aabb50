"""The benchmark in perfbench/ wraps names of the package by attribute.

One traced seed-0 episode of each gated workload, with and without the
preconditioner, runs every wrapper, so a refactor that removes or
reshapes a name the benchmark binds fails here, not only in the
benchmark's own (slower) tests.
"""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("workload", ["closed_loop_n20", "closed_loop_n20_noprecond"])
def test_traced_benchmark_episode_runs_clean(monkeypatch, workload):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from episodes import run_episode, sim_config
    from spans import Tracer

    tracer = Tracer()
    ep = run_episode(0, sim_config(workload, 0), 0, tracer)
    assert ep.failures == []
    counters = tracer.episode_counters[0]
    assert counters["hemisphere.callbacks.calls"] > 0
    # traced_gmres binds gmres_solve's `op` and `precond` by name and reads
    # their .dim and .apply: a rename there drops these counts and spans
    assert counters["gmres.iters.total"] > 0
    names = {span[0] for span in tracer.spans}
    assert {"solver.jvp", "gmres.op_apply"} <= names
    # without the preconditioner, traced_gmres passes precond=None through
    assert ("gmres.precond_apply" in names) == (workload == "closed_loop_n20")
