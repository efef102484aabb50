"""Simulator configuration: defaults, flat key=value files, validation.

The file format is one `key = value` per line with `#` comments; every
simulator field is addressable.  Unknown keys are rejected so typos fail
loudly instead of silently running defaults.
"""

import configparser
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

from .errors import ConfigError
from .gmres import GmresConfig
from .hemisphere import HemisphereParams
from .solver import SolverConfig


@dataclass(frozen=True)
class SimConfig:
    n_steps: int = 20
    dt: float = 0.00625
    max_samples: int = 1000
    # Stop once time-to-go drops to p_stop.  Near the target the plant moves
    # at unit speed, so the remaining chart distance is about p; 0.02 leaves
    # the run within 0.02 of the destination.
    p_stop: float = 0.02
    precond_enabled: bool = True
    output_dir: Optional[str] = "out"
    params: HemisphereParams = field(default_factory=HemisphereParams)
    solver: SolverConfig = field(default_factory=SolverConfig)

    def validate(self) -> "SimConfig":
        if self.n_steps < 2:
            raise ConfigError("n must be >= 2")
        if self.dt <= 0:
            raise ConfigError("dt must be positive")
        if self.p_stop <= 0:
            raise ConfigError("p_stop must be positive")
        if self.max_samples < 1:
            raise ConfigError("max_samples must be >= 1")
        return self


_INT_KEYS = {"n", "max_samples", "gmres_max_iters",
             "newton_iters_per_sample", "init_max_iters"}
_FLOAT_KEYS = {"dt", "t_max", "p_stop", "c_u", "r_u", "w_s", "x0", "y0",
               "x_f", "y_f", "z_min", "fd_step", "gmres_abs_tol",
               "precond_period", "init_tol", "p_min"}
_BOOL_KEYS = {"precond"}
_STR_KEYS = {"output_dir"}
KNOWN_KEYS = _INT_KEYS | _FLOAT_KEYS | _BOOL_KEYS | _STR_KEYS


def _parse_file(path: str) -> dict:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        parser.read_string("[sim]\n" + text, source=path)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc

    raw = dict(parser["sim"])
    values = {}
    for key, text_value in raw.items():
        if key not in KNOWN_KEYS:
            raise ConfigError(f"unknown config key '{key}' in {path}")
        try:
            if key in _INT_KEYS:
                values[key] = int(text_value)
            elif key in _FLOAT_KEYS:
                values[key] = float(text_value)
            elif key in _BOOL_KEYS:
                values[key] = parser["sim"].getboolean(key)
            else:
                values[key] = text_value
        except ValueError as exc:
            raise ConfigError(f"bad value for '{key}': {text_value!r}") from exc
    return values


def load_config(path: Optional[str] = None) -> SimConfig:
    """Build a validated SimConfig from defaults plus an optional file."""
    values = _parse_file(path) if path is not None else {}

    try:
        params = HemisphereParams(
            c_u=values.get("c_u", 0.5),
            r_u=values.get("r_u", 0.1),
            w_s=values.get("w_s", 0.005),
            x0=values.get("x0", -0.5),
            y0=values.get("y0", -0.5),
            x_f=values.get("x_f", 0.5),
            y_f=values.get("y_f", 0.0),
            z_min=values.get("z_min", 0.05),
        )
        gmres_cfg = GmresConfig(
            max_iters=values.get("gmres_max_iters", 20),
            abs_tol=values.get("gmres_abs_tol", 1e-5),
        )
        solver = SolverConfig(
            fd_step=values.get("fd_step", 1e-8),
            gmres_cfg=gmres_cfg,
            precond_period=values.get("precond_period", 0.2),
            newton_iters_per_sample=values.get("newton_iters_per_sample", 1),
            init_tol=values.get("init_tol", 1e-8),
            init_max_iters=values.get("init_max_iters", 100),
            p_min=values.get("p_min", 1e-3),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    dt = values.get("dt", 0.00625)
    if "t_max" in values:
        if dt <= 0:
            raise ConfigError("dt must be positive")
        max_samples = max(1, int(round(values["t_max"] / dt)))
    else:
        max_samples = values.get("max_samples", 1000)

    cfg = SimConfig(
        n_steps=values.get("n", 20),
        dt=dt,
        max_samples=max_samples,
        p_stop=values.get("p_stop", 0.02),
        precond_enabled=values.get("precond", True),
        output_dir=values.get("output_dir", "out"),
        params=params,
        solver=solver,
    )
    return cfg.validate()


def with_overrides(cfg: SimConfig, no_precond: bool = False,
                   output_dir: Optional[str] = None,
                   max_samples: Optional[int] = None) -> SimConfig:
    """Apply command-line overrides on top of a loaded config."""
    if no_precond:
        cfg = replace(cfg, precond_enabled=False)
    if output_dir is not None:
        cfg = replace(cfg, output_dir=output_dir)
    if max_samples is not None:
        cfg = replace(cfg, max_samples=max_samples)
    return cfg.validate()
