"""Configuration and state types for the 2D freezing-cavity solver."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ArgumentError, DataError
from ..grids import StaggeredGrid2D

FREEZE_DEFAULT = 650.0

# Coefficient of the quadratic subcooling law mu = mu_liquid + 10 (T - T_f)^2.
MUSHY_COEFF = 10.0


@dataclass(frozen=True)
class ViscosityModel:
    """Temperature-dependent dynamic viscosity.

    ``mushy`` ramps quadratically below the freezing point,
    ``mu_liquid + 10 (T - t_freeze)^2``, clamped at ``mu_cap``; the
    liquid baseline keeps the law positive at the freezing point
    itself. ``sharp_jump`` multiplies the liquid viscosity by
    ``jump_factor`` for any subcooling, modelling a pure metal with a
    sharp solid-liquid interface.
    """

    kind: str = "mushy"
    mu_liquid: float = 100.0
    t_freeze: float = FREEZE_DEFAULT
    jump_factor: float = 1e6
    mu_cap: float | None = None

    def __post_init__(self):
        if self.kind not in ("mushy", "sharp_jump"):
            raise ArgumentError(f"unknown viscosity model {self.kind!r}")
        if self.mu_liquid <= 0:
            raise ArgumentError(f"mu_liquid must be positive, got {self.mu_liquid}")
        if self.jump_factor < 1e3:
            raise ArgumentError(
                f"jump_factor must span at least three decades, got {self.jump_factor}"
            )
        if self.mu_cap is None:
            object.__setattr__(self, "mu_cap", 1e7 * self.mu_liquid)
        if self.mu_cap < self.mu_liquid:
            raise ArgumentError("mu_cap below the liquid viscosity")


def viscosity_of(model: ViscosityModel, temp) -> np.ndarray:
    """Evaluate the viscosity law at one temperature or an array."""
    temp = np.asarray(temp, dtype=np.float64)
    if not np.all(np.isfinite(temp)):
        raise DataError("temperature contains non-finite values")
    if model.kind == "mushy":
        ramp = model.mu_liquid + MUSHY_COEFF * (temp - model.t_freeze) ** 2
        below = np.minimum(model.mu_cap, ramp)
    else:
        below = np.full_like(temp, model.mu_liquid * model.jump_factor)
    return np.where(temp < model.t_freeze, below, model.mu_liquid)[()]


@dataclass(frozen=True)
class CoolingWall:
    """Right-wall cooling: Robin ``-k dT/dn = h (T - t_ambient)`` or a
    fixed Dirichlet wall temperature. ``h = 0`` disables cooling."""

    kind: str = "robin"
    h: float = 10.0
    t_ambient: float = 550.0
    t_cold: float = 550.0

    def __post_init__(self):
        if self.kind not in ("robin", "dirichlet"):
            raise ArgumentError(f"unknown wall condition {self.kind!r}")
        if self.h < 0:
            raise ArgumentError(f"heat transfer coefficient must be >= 0, got {self.h}")

    @property
    def cold_reference(self) -> float:
        return self.t_ambient if self.kind == "robin" else self.t_cold


@dataclass(frozen=True)
class SimConfig:
    """Full description of one freezing-cavity run.

    Defaults are the desk-scale alloy case: unit square at 64 x 64,
    liquid start at 700 degC cooled through the right wall towards
    550 degC, freezing point 650 degC, 500 snapshots over 1000 steps
    (the front crosses about two thirds of the cavity). The timestep
    must keep the advective CFL number below one; this is checked every
    step against the current velocity.
    """

    grid: StaggeredGrid2D = field(default_factory=lambda: StaggeredGrid2D(64, 64))
    dt: float = 2e-2
    n_steps: int = 1000
    snap_every: int = 2
    viscosity: ViscosityModel = field(default_factory=ViscosityModel)
    buoyancy_coeff: float = 10.0
    t_ref: float = 700.0
    thermal_diffusivity: float = 1e-2
    initial_temp: float = 700.0
    right_wall: CoolingWall = field(default_factory=CoolingWall)
    inner_iterations: int = 1
    wall_tangential: str = "no_slip"

    def __post_init__(self):
        if self.dt <= 0:
            raise ArgumentError(f"dt must be positive, got {self.dt}")
        if self.n_steps < 1 or self.snap_every < 1:
            raise ArgumentError("n_steps and snap_every must be at least 1")
        if self.snap_every > self.n_steps:
            raise ArgumentError(
                f"snap_every = {self.snap_every} exceeds n_steps = {self.n_steps}; "
                "the run would collect no snapshots"
            )
        if self.inner_iterations < 1:
            raise ArgumentError("inner_iterations must be at least 1")
        if self.buoyancy_coeff <= 0 or self.thermal_diffusivity <= 0:
            raise ArgumentError("physical coefficients must be positive")
        if self.initial_temp <= self.viscosity.t_freeze:
            raise ArgumentError(
                f"initial temperature {self.initial_temp} must exceed the freezing "
                f"point {self.viscosity.t_freeze} (run starts fully liquid)"
            )
        if self.wall_tangential not in ("no_slip", "free_slip"):
            raise ArgumentError(f"unknown tangential condition {self.wall_tangential!r}")


@dataclass(frozen=True)
class FlowState:
    """Discrete fields of one time level on the staggered grid.

    ``p_star`` is the pressure guess for the next momentum solve (the
    current pressure, once a step has completed) and ``phi`` the last
    pressure correction. ``u_prev``/``v_prev`` hold the previous level
    for the Adams-Bashforth convecting velocity.
    """

    u: np.ndarray
    v: np.ndarray
    p_star: np.ndarray
    phi: np.ndarray
    temp: np.ndarray
    u_prev: np.ndarray
    v_prev: np.ndarray
    time: float = 0.0
    step: int = 0

    def __post_init__(self):
        for name in ("u", "v", "p_star", "phi", "temp", "u_prev", "v_prev"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if not np.all(np.isfinite(arr)):
                raise DataError(f"state field {name} contains non-finite values")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def initial_state(cfg: SimConfig) -> FlowState:
    """Quiescent liquid at the initial temperature."""
    grid = cfg.grid
    return FlowState(
        u=np.zeros(grid.u_shape),
        v=np.zeros(grid.v_shape),
        p_star=np.zeros(grid.cell_shape),
        phi=np.zeros(grid.cell_shape),
        temp=np.full(grid.cell_shape, cfg.initial_temp),
        u_prev=np.zeros(grid.u_shape),
        v_prev=np.zeros(grid.v_shape),
    )


def default_mushy_config(**overrides) -> SimConfig:
    """Desk-scale alloy (mushy zone) case."""
    return SimConfig(**overrides)


def default_pure_metal_config(**overrides) -> SimConfig:
    """Desk-scale pure-metal case: identical to the mushy default except
    for the viscosity model."""
    overrides.setdefault("viscosity", ViscosityModel(kind="sharp_jump"))
    return SimConfig(**overrides)
