"""In-memory span recorder and the attribute patching the benchmark uses.

A span is ``[name, start, end, parent index, episode id]``.  The controller
is single-threaded, so spans nest: a stack gives each span its parent, and
a span's self time is its duration minus that of its direct children.
Spans stay in memory until the run ends; ``write_csv`` writes them out.

Leaf calls that happen hundreds of thousands of times per episode (the
problem callbacks) are not spans: ``timed`` adds their count and time to
the episode's counters instead, which keeps memory and overhead small.
"""

import csv
import inspect
from contextlib import contextmanager
from time import perf_counter

NAME, START, END, PARENT, EPISODE = range(5)


class Tracer:
    def __init__(self):
        self.spans = []
        self.episode = -1
        self.counters = {}
        self.episode_counters = {}
        self._stack = []

    def begin_episode(self, episode: int) -> None:
        self.episode = episode
        self.counters = {}

    def end_episode(self) -> None:
        self.episode_counters[self.episode] = self.counters

    def add(self, name: str, value: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def peak(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, value), value)

    def wrap(self, name: str, fn):
        """Return fn recording one span per call."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), None,
                          stack[-1] if stack else -1, self.episode])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][END] = perf_counter()

        return traced

    def timed(self, name: str, fn):
        """Return fn adding its call count and seconds to the counters."""
        calls, secs = name + ".calls", name + ".s"

        def call(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                counters = self.counters
                counters[secs] = counters.get(secs, 0.0) + perf_counter() - t0
                counters[calls] = counters.get(calls, 0.0) + 1.0

        return call

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("index", "name", "start_s", "end_s", "parent", "episode"))
            for idx, (name, start, end, parent, episode) in enumerate(self.spans):
                out.writerow((idx, name, repr(start), repr(end), parent, episode))


class OperatorProxy:
    """Stands in for a LinearOperator whose ``apply`` is recorded."""

    def __init__(self, dim: int, apply):
        self.dim = dim
        self.apply = apply


def traced_gmres(tracer: Tracer, gmres_solve):
    """Wrap gmres_solve: spans for the solve and for each operator and
    preconditioner apply, counters for iterations and convergence."""
    signature = inspect.signature(gmres_solve)
    solve = tracer.wrap("gmres.solve", gmres_solve)

    def call(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        op = bound.arguments["op"]
        bound.arguments["op"] = OperatorProxy(
            op.dim, tracer.wrap("gmres.op_apply", op.apply))
        precond = bound.arguments.get("precond")
        if precond is not None:
            bound.arguments["precond"] = OperatorProxy(
                precond.dim, tracer.wrap("gmres.precond_apply", precond.apply))
        report = solve(*bound.args, **bound.kwargs)
        tracer.add("gmres.solves")
        tracer.add("gmres.iters.total", report.iters_used)
        tracer.peak("gmres.iters.max", report.iters_used)
        tracer.add("gmres.converged", float(report.converged))
        return report

    return call


def counted_linalg(tracer: Tracer, name: str, fn, flops):
    """Wrap a dense kernel: one span per call, and the flop count that
    ``flops(*args)`` computes from the operand sizes."""
    traced = tracer.wrap("linalg." + name, fn)
    key = f"linalg.{name}.flop"

    def call(*args):
        tracer.add(key, flops(*args))
        return traced(*args)

    return call


@contextmanager
def patched(patches):
    """Apply ``(owner, attr, make)`` patches in order, restoring on exit.

    ``make`` receives the attribute's current value and returns the
    replacement, so several patches of one attribute compose.
    """
    saved = []
    try:
        for owner, attr, make in patches:
            current = getattr(owner, attr)
            saved.append((owner, attr, current))
            setattr(owner, attr, make(current))
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)
