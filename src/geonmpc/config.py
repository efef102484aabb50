"""Simulator configuration: defaults, flat key=value files, validation.

The file format is one `key = value` per line with `#` comments; every
simulator field is addressable.  Unknown keys are rejected so typos fail
loudly instead of silently running defaults.
"""

import configparser
from collections import defaultdict
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

    def __post_init__(self):
        if self.n_steps < 2:
            raise ConfigError("n must be >= 2")
        if self.dt <= 0:
            raise ConfigError("dt must be positive")
        if self.p_stop <= 0:
            raise ConfigError("p_stop must be positive")
        if self.max_samples < 1:
            raise ConfigError("max_samples must be >= 1")


# Config key -> (owning dataclass, field).  The field's default is the key's
# default, and the type of that default is the type the file value parses to.
KEYS = {
    "n": (SimConfig, "n_steps"),
    "dt": (SimConfig, "dt"),
    "max_samples": (SimConfig, "max_samples"),
    "p_stop": (SimConfig, "p_stop"),
    "precond": (SimConfig, "precond_enabled"),
    "output_dir": (SimConfig, "output_dir"),
    "c_u": (HemisphereParams, "c_u"),
    "r_u": (HemisphereParams, "r_u"),
    "w_s": (HemisphereParams, "w_s"),
    "x0": (HemisphereParams, "x0"),
    "y0": (HemisphereParams, "y0"),
    "x_f": (HemisphereParams, "x_f"),
    "y_f": (HemisphereParams, "y_f"),
    "fd_step": (SolverConfig, "fd_step"),
    "gmres_max_iters": (GmresConfig, "max_iters"),
    "gmres_abs_tol": (GmresConfig, "abs_tol"),
    "precond_period": (SolverConfig, "precond_period"),
    "init_tol": (SolverConfig, "init_tol"),
    "init_max_iters": (SolverConfig, "init_max_iters"),
}


def _parse_file(path: str) -> dict:
    """Key -> typed value for every key the file sets."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        parser.read_string("[sim]\n" + text, source=path)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc

    section = parser["sim"]
    values = {}
    for key, text_value in section.items():
        if key not in KEYS:
            raise ConfigError(f"unknown config key '{key}' in {path}")
        cls, name = KEYS[key]
        # a plain dataclass default is also the class attribute
        kind = type(getattr(cls, name))
        try:
            values[key] = section.getboolean(key) if kind is bool else kind(text_value)
        except ValueError as exc:
            raise ConfigError(f"bad value for '{key}': {text_value!r}") from exc
    return values


def load_config(path: Optional[str] = None) -> SimConfig:
    """Build a validated SimConfig from defaults plus an optional file.

    Each dataclass is built once from all of its file values, so checks
    that span several keys (the start point's x0, y0) see the file's pair.
    """
    values = _parse_file(path) if path is not None else {}
    given = defaultdict(dict)
    for key, value in values.items():
        cls, name = KEYS[key]
        given[cls][name] = value

    try:
        solver = SolverConfig(gmres_cfg=GmresConfig(**given[GmresConfig]),
                              **given[SolverConfig])
        return SimConfig(params=HemisphereParams(**given[HemisphereParams]),
                         solver=solver, **given[SimConfig])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


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
    return cfg
