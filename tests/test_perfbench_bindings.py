"""The benchmark in perfbench/ wraps names of the package by attribute.

One traced seed-0 episode runs every wrapper, so a refactor that removes
or reshapes a name the benchmark binds fails here, not only in the
benchmark's own (slower) tests.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_benchmark_episode_runs_clean(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from episodes import run_episode, sim_config
    from spans import Tracer

    tracer = Tracer()
    ep = run_episode(0, sim_config("closed_loop_n20", 0), 0, tracer)
    assert ep.failures == []
    counters = tracer.episode_counters[0]
    assert counters["hemisphere.callbacks.calls"] > 0
    assert any(span[0] == "solver.jvp" for span in tracer.spans)
