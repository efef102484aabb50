"""Closed-loop simulator: plant advance, per-sample telemetry, CSV artifacts.

The predictor works on a horizon of normalized length scaled by the free
time-to-go variable, but the plant advances in physical time, so the plant
step integrates the chart dynamics without that scaling.  No manual decrement
of the time-to-go is applied; re-solving at each sample shrinks it naturally.
"""

from dataclasses import dataclass, replace
from pathlib import Path
from typing import List, Sequence

import numpy as np

from .config import SimConfig
from .errors import GeonmpcError, SimulationAborted
from .hemisphere import chart_height, initial_guess, make_problem, plant_step
from .solver import NmpcController


@dataclass(frozen=True)
class TrajectoryRecord:
    t: float
    x: float
    y: float
    z: float
    u: float
    u_s0: float
    p: float
    norm_f: float
    gmres_iters: int
    precond_age: float
    sphere_defect: float


@dataclass(frozen=True)
class PrecondComparison:
    iters_with: Sequence[int]
    iters_without: Sequence[int]
    mean_with: float
    mean_without: float
    max_state_gap: float


def _make_record(t: float, x, u_apply, p: float, telemetry) -> TrajectoryRecord:
    z = chart_height(x)
    defect = abs(x[0] ** 2 + x[1] ** 2 + z ** 2 - 1.0)
    return TrajectoryRecord(
        t=t,
        x=float(x[0]),
        y=float(x[1]),
        z=z,
        u=float(u_apply[0]),
        u_s0=float(u_apply[1]),
        p=p,
        norm_f=telemetry.residual_norm,
        gmres_iters=telemetry.gmres_iters,
        precond_age=telemetry.precond_age,
        sphere_defect=defect,
    )


def run_simulation(cfg: SimConfig, write_output: bool = True
                   ) -> List[TrajectoryRecord]:
    """Run the controller against the plant until p <= p_stop or max_samples.

    Each sample: solve for the control, clip its heading to the band
    [c_u - r_u, c_u + r_u], record telemetry at the measured state, then
    advance the plant one physical dt step.  A controller or
    integrator error aborts the loop; the partial records are still written
    and attached to the raised SimulationAborted.
    """
    problem = make_problem(cfg.params, cfg.n_steps)
    controller = NmpcController(problem, cfg.solver, precondition=cfg.precond_enabled)
    x = np.array([cfg.params.x0, cfg.params.y0])
    heading_band = (cfg.params.c_u - cfg.params.r_u, cfg.params.c_u + cfg.params.r_u)
    records: List[TrajectoryRecord] = []

    try:
        controller.initialize(x, 0.0, initial_guess(problem.layout, cfg.params))
        t = 0.0
        for _ in range(cfg.max_samples):
            u_apply, telemetry = controller.sample_update(x, t)
            # the plant gets a heading inside its band even when the one
            # Newton step per sample leaves the warm start slightly outside
            u_apply[0] = np.clip(u_apply[0], *heading_band)
            p = float(problem.layout.p(controller.U)[0])
            records.append(_make_record(t, x, u_apply, p, telemetry))
            if p <= cfg.p_stop:
                break
            x = plant_step(x, float(u_apply[0]), cfg.dt)
            t += cfg.dt
    except GeonmpcError as exc:
        if write_output and cfg.output_dir is not None:
            emit_plot_data(records, cfg.output_dir)
        last = (f"last good sample t={records[-1].t:.17g}, "
                f"state=({records[-1].x:.17g}, {records[-1].y:.17g})"
                if records else "no samples completed")
        raise SimulationAborted(
            f"simulation aborted: {exc} ({last})", records=records,
            cause=exc) from exc

    if write_output and cfg.output_dir is not None:
        emit_plot_data(records, cfg.output_dir)
    return records


def compare_preconditioning(cfg: SimConfig) -> PrecondComparison:
    """Run the loop twice, preconditioner on then off, and compare iterations.

    Raises GeonmpcError if preconditioning does not lower the mean GMRES
    iteration count.  The largest chart-state gap between the two runs is
    measured over the common sample range and recorded in the summary.
    """
    rec_on = run_simulation(replace(cfg, precond_enabled=True),
                            write_output=False)
    rec_off = run_simulation(replace(cfg, precond_enabled=False),
                             write_output=False)

    iters_on = [r.gmres_iters for r in rec_on]
    iters_off = [r.gmres_iters for r in rec_off]
    mean_on = float(np.mean(iters_on)) if iters_on else 0.0
    mean_off = float(np.mean(iters_off)) if iters_off else 0.0

    n_common = min(len(rec_on), len(rec_off))
    gap = 0.0
    for a, b in zip(rec_on[:n_common], rec_off[:n_common]):
        gap = max(gap, float(np.hypot(a.x - b.x, a.y - b.y)))

    if not mean_on < mean_off:
        raise GeonmpcError(
            f"preconditioning did not help: mean iterations "
            f"{mean_on:.3f} (on) vs {mean_off:.3f} (off)")

    summary = PrecondComparison(
        iters_with=iters_on,
        iters_without=iters_off,
        mean_with=mean_on,
        mean_without=mean_off,
        max_state_gap=gap,
    )
    if cfg.output_dir is not None:
        _write_comparison(summary, cfg.output_dir)
    return summary


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _write_rows(path: Path, header: str, rows) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise GeonmpcError(f"cannot create output dir {path.parent}: {exc}") from exc
    try:
        with open(path, "w") as fh:
            fh.write(header + "\n")
            for row in rows:
                fh.write(",".join(row) + "\n")
    except OSError as exc:
        raise GeonmpcError(f"cannot write {path}: {exc}") from exc


def emit_plot_data(records: Sequence[TrajectoryRecord],
                   output_dir: str) -> List[str]:
    """Write the plotting CSVs; an empty record set yields header-only files.

    Floats are serialized with 17 significant digits so repeated runs with
    the same config are byte-identical.
    """
    out = Path(output_dir)
    tables = {
        "trajectory.csv": ("t,x,y,z,p", lambda r: (
            _fmt(r.t), _fmt(r.x), _fmt(r.y), _fmt(r.z), _fmt(r.p))),
        "control.csv": ("t,u,u_s0", lambda r: (
            _fmt(r.t), _fmt(r.u), _fmt(r.u_s0))),
        "gmres.csv": ("t,iters,precond_age", lambda r: (
            _fmt(r.t), str(r.gmres_iters), _fmt(r.precond_age))),
        "residual.csv": ("t,normF", lambda r: (_fmt(r.t), _fmt(r.norm_f))),
        "trajectory3d.csv": ("t,x,y,z", lambda r: (
            _fmt(r.t), _fmt(r.x), _fmt(r.y), _fmt(r.z))),
    }
    written = []
    for name, (header, row_of) in tables.items():
        path = out / name
        _write_rows(path, header, (row_of(r) for r in records))
        written.append(str(path))
    return written


def _write_comparison(summary: PrecondComparison, output_dir: str) -> None:
    n = max(len(summary.iters_with), len(summary.iters_without))
    rows = []
    for i in range(n):
        a = summary.iters_with[i] if i < len(summary.iters_with) else ""
        b = summary.iters_without[i] if i < len(summary.iters_without) else ""
        rows.append((str(i), str(a), str(b)))
    _write_rows(Path(output_dir) / "compare_precond.csv",
                "sample,iters_precond,iters_noprecond", rows)
