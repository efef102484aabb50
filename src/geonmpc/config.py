"""Simulator configuration: defaults, flat key=value files, validation.

A file is UTF-8 text with one `key = value` per line, split at the first
`=`; values are read verbatim.  Blank lines are skipped, and a `#` at the
start of a line or after whitespace opens a comment.  Keys are
case-sensitive, each is set at most once, and every key is in `KEYS`; any
other line is a ConfigError naming `path:line`, and a file that is not
UTF-8 is a ConfigError naming its path.  The keys address the sampling,
stopping and problem settings.  The solver's numerical constants are
module constants of solver and gmres, not keys.
"""

import math
import operator
import re
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .errors import ConfigError
from .hemisphere import HemisphereParams


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

    def __post_init__(self):
        # the counts are read as HorizonProblem reads n_steps: an int or a
        # numpy integer, never a float, even an integral one
        for key, value in (("n", self.n_steps), ("max_samples", self.max_samples)):
            try:
                operator.index(value)
            except TypeError:
                raise ConfigError(f"{key} must be an integer, got {value!r}") from None
        # the float checks are negated so that NaN fails them too
        if self.n_steps < 1:
            raise ConfigError("n must be >= 1")
        if not 0 < self.dt < math.inf:
            raise ConfigError("dt must be positive and finite")
        if not 0 < self.p_stop < math.inf:
            raise ConfigError("p_stop must be positive and finite")
        if self.max_samples < 1:
            raise ConfigError("max_samples must be >= 1")
        if self.output_dir == "":
            raise ConfigError("output_dir must not be empty")


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
}


_BOOLEANS = {"1": True, "yes": True, "true": True, "on": True,
             "0": False, "no": False, "false": False, "off": False}


def _parse_file(path: str) -> dict:
    """Key -> typed value for every key the file sets."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    values = {}
    for number, line in enumerate(lines, start=1):
        key, eq, text = re.split(r"(?:^|\s)#", line, maxsplit=1)[0].partition("=")
        key, text = key.strip(), text.strip()
        if not (key or eq):
            continue  # blank or comment only
        where = f"{path}:{number}: {line.strip()!r}"
        if not eq:
            raise ConfigError(f"{where}: expected 'key = value'")
        if key not in KEYS:
            raise ConfigError(f"{where}: unknown config key '{key}'")
        if key in values:
            raise ConfigError(f"{where}: '{key}' is already set")
        cls, name = KEYS[key]
        # a plain dataclass default is also the class attribute
        kind = type(getattr(cls, name))
        try:
            values[key] = _BOOLEANS[text.lower()] if kind is bool else kind(text)
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"{where}: bad value for '{key}'") from exc
    return values


def load_config(path: Optional[str] = None,
                overrides: Optional[dict] = None) -> SimConfig:
    """Build a validated SimConfig from defaults, an optional file, and
    overrides (config key -> typed value) that take precedence over it.

    Each dataclass is built once from all of its values, so checks that
    span several keys (the start point's x0, y0) see the final pair.
    """
    values = _parse_file(path) if path is not None else {}
    values.update(overrides or {})
    given = defaultdict(dict)
    for key, value in values.items():
        cls, name = KEYS[key]
        given[cls][name] = value

    try:
        return SimConfig(params=HemisphereParams(**given[HemisphereParams]),
                         **given[SimConfig])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
