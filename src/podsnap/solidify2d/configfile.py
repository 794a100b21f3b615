"""Plain-text configuration files for the 2D cavity cases.

``key = value`` lines grouped under bracketed section headers.
:data:`_SCHEMA` is the whole format: it maps each section's keys onto
(dotted) :class:`SimConfig` field paths, and parsing, validation and
:func:`config_text` are all derived from it. A value is read as an
``int`` or ``str`` when its field is declared so, otherwise as a finite
float.

Every key is optional (defaults apply); unknown sections or keys are
format errors.
"""

from __future__ import annotations

import configparser
import dataclasses
import functools
import math
import typing

from ..errors import FormatError
from .model import SimConfig

_SCHEMA = {
    "grid": {"nx": "grid.nx", "ny": "grid.ny", "lx": "grid.lx", "ly": "grid.ly"},
    "time": {"dt": "dt", "n_steps": "n_steps"},
    "material": {
        "viscosity_model": "viscosity.kind",
        "mu_liquid": "viscosity.mu_liquid",
        "t_freeze": "viscosity.t_freeze",
        "jump_factor": "viscosity.jump_factor",
        "thermal_diffusivity": "thermal_diffusivity",
        "buoyancy_coeff": "buoyancy_coeff",
        "t_ref": "t_ref",
        "initial_temp": "initial_temp",
    },
    "boundary": {
        "h": "right_wall.h",
        "t_ambient": "right_wall.t_ambient",
        "wall_tangential": "wall_tangential",
    },
    "output": {"snap_every": "snap_every"},
}


def finite_float(text: str) -> float:
    """``float(text)``, with NaN and infinities rejected as ``ValueError``."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def _converter(path: str):
    field_type = SimConfig
    for name in path.split("."):
        field_type = typing.get_type_hints(field_type)[name]
    return {int: int, str: str}.get(field_type, finite_float)


_CONVERT = {path: _converter(path) for keys in _SCHEMA.values() for path in keys.values()}


def parse_config_text(text: str) -> SimConfig:
    """Build a :class:`SimConfig` from config-file text.

    Values override the package defaults of :class:`SimConfig`. All
    overrides are applied together, so cross-field checks see the final
    values.
    """
    # no section is special, so [DEFAULT] is an unknown one like any other
    parser = configparser.ConfigParser(delimiters=("=",), interpolation=None,
                                       default_section=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise FormatError(f"malformed config file: {exc}") from exc

    # nested dataclass name ("" for SimConfig itself) -> field -> value
    overrides: dict[str, dict[str, object]] = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise FormatError(
                f"unknown section [{section}]; expected one of {sorted(_SCHEMA)}"
            )
        for key, raw in parser.items(section):
            path = _SCHEMA[section].get(key)
            if path is None:
                raise FormatError(f"unknown key {key!r} in section [{section}]")
            try:
                value = _CONVERT[path](raw)
            except ValueError as exc:
                raise FormatError(f"bad value for {key!r}: {raw!r}") from exc
            owner, _, name = path.rpartition(".")
            overrides.setdefault(owner, {})[name] = value

    base = SimConfig()
    top = overrides.pop("", {})
    for owner, values in overrides.items():
        top[owner] = dataclasses.replace(getattr(base, owner), **values)
    return dataclasses.replace(base, **top)


def read_config(path) -> SimConfig:
    """:func:`parse_config_text` of the file ``path``; its format errors name it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config_text(fh.read())
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: config file is not UTF-8 text: {exc.reason}") from exc
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def write_config(cfg: SimConfig, path) -> None:
    """Write the full configuration (inverse of :func:`read_config`)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(config_text(cfg))


def config_text(cfg: SimConfig) -> str:
    lines = []
    for section, keys in _SCHEMA.items():
        lines.append(f"[{section}]")
        for key, path in keys.items():
            lines.append(f"{key} = {functools.reduce(getattr, path.split('.'), cfg)}")
        lines.append("")
    return "\n".join(lines)
