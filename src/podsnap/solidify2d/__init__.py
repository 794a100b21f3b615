"""2D freezing-cavity solver: fractional-step flow with temperature-
dependent viscosity, in mushy-alloy and sharp pure-metal variants."""

from .model import (
    CoolingWall,
    FlowState,
    SimConfig,
    ViscosityModel,
    default_mushy_config,
    default_pure_metal_config,
    initial_state,
    viscosity_of,
    with_viscosity,
)
from .solver import CavitySolver, run_case
from .configfile import parse_config_text, read_config, write_config

__all__ = [
    "CavitySolver",
    "CoolingWall",
    "FlowState",
    "SimConfig",
    "ViscosityModel",
    "default_mushy_config",
    "default_pure_metal_config",
    "initial_state",
    "parse_config_text",
    "read_config",
    "run_case",
    "viscosity_of",
    "with_viscosity",
    "write_config",
]
