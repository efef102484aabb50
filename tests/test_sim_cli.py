import ast
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import geonmpc
from geonmpc.cli import build_parser, main
from geonmpc.config import KEYS, SimConfig, _parse_file, load_config
from geonmpc import gmres, solver
from geonmpc.errors import (ChartDomainViolation, ConfigError, GeonmpcError,
                            InitializationFailure, SimulationAborted)
from geonmpc.simulate import (TrajectoryRecord, compare_preconditioning,
                              emit_plot_data, run_simulation)
from geonmpc.solver import NmpcController


def short_config(tmp_path=None, max_samples=25, **kwargs) -> SimConfig:
    out = str(tmp_path) if tmp_path is not None else None
    return replace(SimConfig(), max_samples=max_samples, output_dir=out,
                   **kwargs)


# ---------------------------------------------------------------- config


class TestLoadConfig:
    def test_defaults_without_file(self):
        cfg = load_config(None)
        assert cfg.n_steps == 20
        assert cfg.dt == 0.00625
        assert cfg.p_stop == 0.02
        assert cfg.precond_enabled
        assert cfg.params.c_u == 0.5

    def test_full_file_round_trip(self, tmp_path):
        text = """\
# closed-loop settings
n = 12
dt = 0.01
max_samples = 77
p_stop = 0.1
precond = false
output_dir = results
c_u = 0.4          # band center
r_u = 0.2
w_s = 0.001
x0 = -0.3
y0 = -0.4
x_f = 0.6
y_f = 0.1
"""
        path = tmp_path / "sim.ini"
        path.write_text(text)
        cfg = load_config(str(path))
        assert cfg.n_steps == 12
        assert cfg.dt == 0.01
        assert cfg.max_samples == 77
        assert cfg.p_stop == 0.1
        assert not cfg.precond_enabled
        assert cfg.output_dir == "results"
        assert cfg.params.c_u == 0.4
        assert cfg.params.r_u == 0.2
        assert cfg.params.w_s == 0.001
        assert (cfg.params.x0, cfg.params.y0) == (-0.3, -0.4)
        assert (cfg.params.x_f, cfg.params.y_f) == (0.6, 0.1)

    def test_comment_only_lines_and_blanks(self, tmp_path):
        path = tmp_path / "sim.ini"
        path.write_text("# header comment\n\nn = 8\n# trailing\n")
        assert load_config(str(path)).n_steps == 8

    @pytest.mark.parametrize("line", [
        "mystery = 1",
        "dt = fast",
        "n = 2.5",
        "precond = sometimes",
        # the chart guard, the p floor and the solver's numerical
        # constants are module constants; t_max is not a key
        "z_min = 0.05",
        "p_min = 1e-3",
        "t_max = 1",
        "fd_step = 1e-8",
        "gmres_max_iters = 20",
        "gmres_abs_tol = 1e-5",
        "precond_period = 0.2",
        "init_tol = 1e-8",
        "init_max_iters = 100",
        # keys are case-sensitive and '=' is the only delimiter
        "DT: 0.01",
        "DT = 0.01",
        # an indented line is a line of its own, not a continuation
        pytest.param("output_dir = run\n  more", id="continuation"),
        "; comment",
        pytest.param("n = 8\nn = 9", id="duplicate-key"),
    ])
    def test_unknown_key_or_bad_value(self, tmp_path, line):
        path = tmp_path / "sim.ini"
        path.write_text(line + "\n")
        with pytest.raises(ConfigError) as info:
            load_config(str(path))
        # the error names the case's last line, as path:line and as text
        lines = line.splitlines()
        assert f"{path}:{len(lines)}:" in str(info.value)
        assert lines[-1].strip() in str(info.value)

    @pytest.mark.parametrize("line", [
        "dt = 0",
        "dt = -0.25",
        "n = 0",
        "p_stop = 0",
        "max_samples = 0",
        "r_u = -0.1",   # problem-parameter validation surfaces as ConfigError
        # inside the unit disc (0.99829 < 1) but past the chart guard (0.9975)
        "x0 = -0.706\ny0 = -0.707",
        "x_f = -0.706\ny_f = -0.707",
        # NaN fails every check, not only the chart guard
        "dt = nan",
        "p_stop = nan",
        "r_u = nan",
        "x0 = nan",
        "y_f = nan",
        # non-finite problem and loop parameters are config errors, not solver runs
        "c_u = nan",
        "c_u = inf",
        "r_u = inf",
        "w_s = nan",
        "dt = inf",
        "p_stop = inf",
        # an empty directory would put the CSVs in the working directory
        "output_dir =",
    ])
    def test_invariant_violations(self, tmp_path, line):
        path = tmp_path / "sim.ini"
        path.write_text(line + "\n")
        with pytest.raises(ConfigError):
            load_config(str(path))

    @pytest.mark.parametrize("value", ["out%dir", "run_%(n)s", "100%"])
    def test_percent_in_a_value_loads_verbatim(self, tmp_path, value):
        path = tmp_path / "sim.ini"
        path.write_text(f"n = 30\noutput_dir = {value}\n")
        assert load_config(str(path)).output_dir == value

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "absent.ini"))

    def test_start_point_is_checked_as_a_pair(self, tmp_path):
        # x0 = 0.9 next to the default y0 = -0.5 would leave the chart
        path = tmp_path / "sim.ini"
        path.write_text("x0 = 0.9\ny0 = 0.1\n")
        cfg = load_config(str(path))
        assert (cfg.params.x0, cfg.params.y0) == (0.9, 0.1)

    def test_replace_is_validated(self):
        with pytest.raises(ConfigError, match="^n must be >= 1$"):
            replace(SimConfig(), n_steps=0)

    def test_readme_config_block_lists_the_defaults(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
        path = tmp_path / "readme.ini"
        path.write_text(block)
        assert load_config(str(path)) == load_config(None)
        assert set(_parse_file(str(path))) == set(KEYS)


class TestOverrides:
    def test_flags_take_precedence(self):
        cfg = load_config(None, {"precond": False, "output_dir": "d",
                                 "max_samples": 7})
        assert not cfg.precond_enabled
        assert cfg.output_dir == "d"
        assert cfg.max_samples == 7

    def test_no_overrides_is_identity(self):
        assert load_config(None, {}) == SimConfig()

    def test_override_is_validated(self):
        with pytest.raises(ConfigError):
            load_config(None, {"max_samples": 0})


# ---------------------------------------------------------- run_simulation


@pytest.fixture(scope="module")
def short_run():
    return run_simulation(short_config(max_samples=25), write_output=False)


class TestRunSimulation:
    def test_row_count_capped_by_max_samples(self, short_run):
        assert len(short_run) == 25

    def test_time_grid(self, short_run):
        t = np.array([r.t for r in short_run])
        assert t[0] == 0.0
        assert np.all(np.diff(t) > 0)
        assert np.max(np.abs(np.diff(t) - 0.00625)) < 1e-12

    def test_sphere_defect_tiny(self, short_run):
        assert max(r.sphere_defect for r in short_run) <= 1e-12

    def test_residual_small_after_first_sample(self, short_run):
        assert all(r.norm_f <= 1.0 for r in short_run[1:])
        assert all(math.isfinite(r.norm_f) for r in short_run)

    def test_stop_rule_on_time_to_go(self):
        records = run_simulation(
            short_config(max_samples=400, p_stop=1.0), write_output=False)
        assert len(records) < 400
        assert records[-1].p <= 1.0
        assert all(r.p > 1.0 for r in records[:-1])

    def test_controls_stay_in_band(self, short_run):
        assert all(0.4 - 1e-3 <= r.u <= 0.6 + 1e-3 for r in short_run)

    def test_no_files_when_output_suppressed(self, tmp_path):
        cfg = short_config(tmp_path / "never", max_samples=3)
        run_simulation(cfg, write_output=False)
        assert not (tmp_path / "never").exists()

    def test_deterministic_csv_bytes(self, tmp_path):
        cfg_a = short_config(tmp_path / "a", max_samples=12)
        cfg_b = short_config(tmp_path / "b", max_samples=12)
        run_simulation(cfg_a)
        run_simulation(cfg_b)
        for name in ("trajectory.csv", "control.csv", "gmres.csv",
                     "residual.csv", "trajectory3d.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes()

    def test_abort_keeps_partial_records(self, tmp_path, monkeypatch):
        original = NmpcController.sample_update
        calls = {"n": 0}

        def failing(self, x, t):
            calls["n"] += 1
            if calls["n"] > 3:
                raise GeonmpcError("synthetic blow-up")
            return original(self, x, t)

        monkeypatch.setattr(NmpcController, "sample_update", failing)
        cfg = short_config(tmp_path / "out", max_samples=10)
        with pytest.raises(SimulationAborted) as info:
            run_simulation(cfg)
        assert len(info.value.records) == 3
        assert "last good sample" in str(info.value)
        # partial artifacts still land on disk
        lines = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
        assert len(lines) == 1 + 3

    def test_abort_before_first_sample(self, monkeypatch):
        def fail(self, x, t):
            raise GeonmpcError("dead on arrival")

        monkeypatch.setattr(NmpcController, "sample_update", fail)
        with pytest.raises(SimulationAborted, match="no samples completed"):
            run_simulation(short_config(max_samples=5), write_output=False)

    @pytest.mark.parametrize("entry", [0.0, np.nan])
    def test_degenerate_jacobian_aborts_classified(self, monkeypatch, entry):
        real = solver.exact_jacobian
        monkeypatch.setattr(solver, "exact_jacobian", lambda *args: np.full_like(
            real(*args), entry))
        with pytest.raises(SimulationAborted, match="singular") as info:
            run_simulation(short_config(max_samples=3), write_output=False)
        assert isinstance(info.value.__cause__, InitializationFailure)

    def test_degenerate_lifted_jacobian_at_the_start_exits_2(self, tmp_path, monkeypatch,
                                                              capsys):
        # the cold start solves the condensed system; a singular lifted
        # Jacobian at its lift leaves the preconditioned controller nothing
        # to precondition with, so the run fails and names the way out
        real_init, real_jac = solver.initialize, solver.exact_jacobian
        in_init = {"now": False}

        def init(*args):
            in_init["now"] = True
            try:
                return real_init(*args)
            finally:
                in_init["now"] = False

        def jac(*args):
            out = real_jac(*args)
            return out if in_init["now"] else np.zeros_like(out)

        monkeypatch.setattr(solver, "initialize", init)
        monkeypatch.setattr(solver, "exact_jacobian", jac)
        with pytest.raises(SimulationAborted, match="no samples completed") as info:
            run_simulation(short_config(max_samples=5), write_output=False)
        assert isinstance(info.value.__cause__, InitializationFailure)
        assert main(["--max-samples", "5", "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "solver failure" in err
        assert "singular lifted Jacobian at the start" in err
        assert "--no-precond" in err

    def test_nan_step_aborts_at_the_chart_guard(self, monkeypatch):
        # a GMRES step that turns NaN at sample 3 makes the horizon rollout
        # leave the chart, so the run stops there instead of logging NaN
        real = solver.gmres_solve
        calls = {"n": 0}

        def poisoned(*args):
            report = real(*args)
            calls["n"] += 1
            if calls["n"] == 3:
                report.solution = np.full_like(report.solution, np.nan)
            return report

        monkeypatch.setattr(solver, "gmres_solve", poisoned)
        with pytest.raises(SimulationAborted) as info:
            run_simulation(short_config(max_samples=50), write_output=False)
        assert len(info.value.records) == 2
        assert isinstance(info.value.__cause__, ChartDomainViolation)


# ---------------------------------------------------------- emit_plot_data

EXPECTED_HEADERS = {
    "trajectory.csv": "t,x,y,z,p",
    "control.csv": "t,u,u_s0",
    "gmres.csv": "t,iters,precond_age",
    "residual.csv": "t,normF",
    "trajectory3d.csv": "t,x,y,z",
}


def make_record(t=0.0):
    return TrajectoryRecord(t=t, x=-0.5, y=-0.5, z=0.7071, u=0.57,
                            u_s0=0.02, p=1.239, norm_f=1.5e-10,
                            gmres_iters=4, precond_age=0.0125,
                            sphere_defect=1.1e-16)


class TestEmitPlotData:
    def test_empty_records_header_only(self, tmp_path):
        written = emit_plot_data([], tmp_path / "plots")
        assert len(written) == 5
        for name, header in EXPECTED_HEADERS.items():
            assert (tmp_path / "plots" / name).read_text() == header + "\n"

    def test_one_record_one_row(self, tmp_path):
        emit_plot_data([make_record()], tmp_path)
        for name in EXPECTED_HEADERS:
            lines = (tmp_path / name).read_text().splitlines()
            assert len(lines) == 2

    def test_row_count_matches_records(self, tmp_path):
        records = [make_record(t=0.00625 * i) for i in range(9)]
        emit_plot_data(records, tmp_path)
        lines = (tmp_path / "residual.csv").read_text().splitlines()
        assert len(lines) == 10

    def test_values_round_trip_at_full_precision(self, tmp_path):
        record = make_record(t=1.0 / 3.0)
        emit_plot_data([record], tmp_path)
        row = (tmp_path / "trajectory.csv").read_text().splitlines()[1]
        t, x, y, z, p = (float(v) for v in row.split(","))
        assert t == record.t
        assert (x, y, z, p) == (record.x, record.y, record.z, record.p)

    def test_io_failure_reports_path(self, tmp_path):
        blocker = tmp_path / "taken"
        blocker.write_text("a file, not a directory")
        with pytest.raises(GeonmpcError, match="taken"):
            emit_plot_data([], blocker)


# ------------------------------------------------- compare_preconditioning


class TestComparePreconditioning:
    def test_preconditioning_lowers_mean_iterations(self, tmp_path):
        cfg = short_config(tmp_path, max_samples=40)
        summary = compare_preconditioning(cfg)
        assert summary.mean_with < summary.mean_without
        assert max(summary.iters_without) <= gmres.MAX_ITERS
        assert summary.max_state_gap <= 1e-3
        lines = (tmp_path / "compare_precond.csv").read_text().splitlines()
        assert lines[0] == "sample,iters_precond,iters_noprecond"
        assert len(lines) == 1 + max(len(summary.iters_with),
                                     len(summary.iters_without))

    def test_refresh_every_sample_makes_gmres_trivial(self, monkeypatch):
        # near-perfect preconditioner: rebuild the exact-Jacobian inverse at
        # every sample, so each solve starts essentially converged
        monkeypatch.setattr(solver, "PRECOND_PERIOD", 1e-6)
        records = run_simulation(short_config(max_samples=30), write_output=False)
        assert all(r.gmres_iters <= 3 for r in records)

    def test_raises_when_no_improvement(self):
        # p starts below p_stop, both runs stop after one trivial sample
        cfg = short_config(max_samples=10, p_stop=2.0)
        with pytest.raises(GeonmpcError, match="did not help"):
            compare_preconditioning(cfg)


# --------------------------------------------------------------------- CLI


class TestCli:
    def test_simulate_default_command(self, tmp_path, capsys):
        code = main(["--out", str(tmp_path / "run"), "--max-samples", "8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "samples: 8" in out
        assert (tmp_path / "run" / "trajectory.csv").exists()

    def test_flags_override_config_file(self, tmp_path, capsys):
        path = tmp_path / "sim.ini"
        path.write_text("max_samples = 500\nprecond = true\n")
        code = main(["--config", str(path), "--max-samples", "6",
                     "--no-precond", "--out", str(tmp_path / "o")])
        assert code == 0
        assert "samples: 6" in capsys.readouterr().out
        rows = (tmp_path / "o" / "gmres.csv").read_text().splitlines()[1:]
        ages = [row.split(",")[2] for row in rows]
        assert all(age == "nan" for age in ages)  # preconditioner disabled

    def test_init_only_prints_residual_and_decision_vector(self, capsys):
        assert main(["init-only"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("normF = ")
        assert float(lines[0].split("=")[1]) < 1e-8
        assert lines[1].startswith("p = ")
        assert float(lines[1].split("=")[1]) > 0
        assert lines[2] == "U ="
        # N=20 horizon: 2*20 controls + 20 multipliers + 2 terminal + 1 time
        assert len(lines) == 3 + 63

    def test_init_only_runs_a_one_step_horizon(self, tmp_path, capsys):
        # n = 1 is the smallest horizon HorizonProblem accepts, and the
        # config takes the same rule
        path = tmp_path / "sim.ini"
        path.write_text("n = 1\n")
        assert main(["init-only", "--config", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert float(lines[0].split("=")[1]) < 1e-8
        # 2 controls + 1 multiplier + 2 terminal + 1 time
        assert len(lines) == 3 + 6

    def test_init_only_builds_no_lifted_jacobian(self, capsys, monkeypatch):
        # the command prints the condensed solution only, so it has no use
        # for the lifted preconditioner the controller would build
        lengths = []
        exact_jacobian = solver.exact_jacobian

        def recorded(problem, x0, U):
            lengths.append(np.shape(U)[-1])
            return exact_jacobian(problem, x0, U)

        monkeypatch.setattr(solver, "exact_jacobian", recorded)
        assert main(["init-only"]) == 0
        # 63 is the condensed dim at N = 20; the lifted one is 143
        assert lengths and set(lengths) == {63}

    def test_compare_precond_flag_and_command(self, tmp_path, capsys):
        code = main(["compare-precond", "--max-samples", "25",
                     "--out", str(tmp_path / "c")])
        assert code == 0
        out = capsys.readouterr().out
        assert "mean gmres iters" in out
        assert (tmp_path / "c" / "compare_precond.csv").exists()

    @pytest.mark.parametrize("content", [
        "dt = 0\n",
        "who = 1\n",
        # a header would hide the keys after it, the unknown one included
        pytest.param("dt = 0.01\n[extra]\nn = 5\nbogus = 1\n", id="section-header"),
        pytest.param("[DEFAULT]\nn = 5\n", id="default-header"),
        pytest.param(b"dt = 0.01\nn = \xff\n", id="not-utf-8"),
    ])
    def test_bad_config_exits_3(self, tmp_path, content, capsys):
        path = tmp_path / "sim.ini"
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)
        assert main(["--config", str(path)]) == 3
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, code", [
        (["--max-samples", "abc"], 3),
        (["--bogus"], 3),
        (["no-such-command"], 3),
        (["-h"], 0),
    ])
    def test_usage_exit_codes(self, argv, code, capsys):
        # 2 means solver failure, so a usage error is a configuration error
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == code
        assert ("error:" in capsys.readouterr().err) == (code == 3)

    def test_every_flag_names_a_config_key(self):
        # a flag writes the key it overrides, so flags and file share KEYS
        dests = {action.dest for action in build_parser()._actions}
        flags = dests - {"help", "command", "config"}
        assert flags and flags <= set(KEYS)

    def test_empty_out_exits_3_and_writes_nothing(self, tmp_path, capsys,
                                                  monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["--out", "", "--max-samples", "2"]) == 3
        assert "config error" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_missing_config_exits_3(self, tmp_path, capsys):
        assert main(["--config", str(tmp_path / "nope.ini")]) == 3
        assert "config error" in capsys.readouterr().err

    def test_solver_failure_exits_2(self, tmp_path, capsys):
        # mirrored start is infeasible for these dynamics: its chart
        # heading lies outside the band, and the CLI must report a solver
        # failure that says the target is unreachable
        path = tmp_path / "sim.ini"
        path.write_text("y0 = 0.5\n")
        assert main(["init-only", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "solver failure" in err
        assert "unreachable" in err

    def test_start_at_the_target_exits_2_and_says_so(self, tmp_path, capsys):
        path = tmp_path / "sim.ini"
        path.write_text("x0 = 0.5\ny0 = 0\n")
        assert main(["init-only", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "solver failure" in err
        assert "start (0.5, 0) is at the target" in err

    @pytest.mark.parametrize("source, name", [
        ("operator", "jacobian_vector_product"),
        ("preconditioner", "matrix_operator"),
    ])
    def test_non_finite_gmres_data_exits_2(self, tmp_path, capsys, monkeypatch,
                                           source, name):
        # NaN from GMRES's operator (the JVP) or preconditioner stops the
        # third sample inside GMRES, with a message naming the source,
        # instead of after a NaN step has left the chart
        real_sample, real = NmpcController.sample_update, getattr(solver, name)
        samples = {"n": 0}

        def counted(self, *args):
            samples["n"] += 1
            return real_sample(self, *args)

        def poisoned(*args):
            out = real(*args)
            if samples["n"] < 3:
                return out
            if source == "preconditioner":
                return real(np.full_like(args[0], np.nan))
            return np.full_like(out, np.nan)

        monkeypatch.setattr(NmpcController, "sample_update", counted)
        monkeypatch.setattr(solver, name, poisoned)
        code = main(["--out", str(tmp_path / "x"), "--max-samples", "6"])
        err = capsys.readouterr().err
        assert code == 2
        step = 0 if source == "preconditioner" else 1
        assert f"GMRES step {step}: the {source}'s output holds NaN or inf" in err
        rows = (tmp_path / "x" / "gmres.csv").read_text().splitlines()
        assert len(rows) == 1 + 2

    def test_midrun_failure_exits_2(self, tmp_path, capsys, monkeypatch):
        def fail(self, x, t):
            raise GeonmpcError("synthetic")

        monkeypatch.setattr(NmpcController, "sample_update", fail)
        code = main(["--out", str(tmp_path / "x"), "--max-samples", "4"])
        assert code == 2
        assert "solver failure" in capsys.readouterr().err


def test_package_all_resolves():
    namespace = {}
    exec("from geonmpc import *", namespace)
    assert set(geonmpc.__all__) <= namespace.keys()


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    namespace = {}
    exec(re.search(r"```python\n(.*?)```", section, re.S).group(1), namespace)
    assert namespace["k"] == 99
    assert namespace["telemetry"].residual_norm <= 1.0


def test_readme_constants_match_the_code():
    # every code span ending in `module.NAME = value` is the module's value
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    quoted = re.findall(r"`[^`\n]*?\b(\w+)\.([A-Z][A-Z0-9_]*) = ([^`\n]+)`",
                        readme)
    assert {(module, name) for module, name, _ in quoted} >= {
        ("hemisphere", "Z_MIN"), ("solver", "P_MIN"),
        ("solver", "FD_STEP"), ("solver", "PRECOND_PERIOD"),
        ("linalg", "MIN_RCOND"),
        ("solver", "INIT_TOL"), ("solver", "INIT_MAX_ITERS"),
        ("gmres", "MAX_ITERS"), ("gmres", "ABS_TOL")}
    for module, name, value in quoted:
        actual = getattr(getattr(geonmpc, module), name)
        assert actual == ast.literal_eval(value), f"{module}.{name}"
