"""Run configuration for the verification suites.

Configs come from explicit-field JSON (no positional conventions); every
field has a default, unknown fields are rejected, and the resolved config is
hashed canonically so a report can be traced to the exact settings that
produced it.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field
from hashlib import sha256

import numpy as np

from .indices import MAX_LEVEL_COEFFS, check_level
from .levy import CellGrid, LevyModel

__all__ = ["DEFAULT_TOLERANCES", "SUITES", "RunConfig"]

SUITES = ("fock", "sim", "chaos", "malliavin", "all")

DEFAULT_TOLERANCES = {
    "algebraic": 1e-12,
    "identity": 1e-11,
    "spectral": 1e-10,
    "pathwise": 1e-10,
    "quadrature": 1e-8,
    "mc_sigmas": 4.0,
    "euler_slope": 0.3,
    "gram_ratio": 1.0,
}


def _finite_real(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


@dataclass
class RunConfig:
    suite: str = "all"
    d: int = 2
    truncation: int = 5
    max_degree: int = 6
    n_time: int = 64
    chaos_n_time: int = 8
    chaos_truncation: int = 4
    b: float = 0.0
    sigma: float = 1.0
    atoms: list = field(default_factory=lambda: [[1.0, 1.0]])
    horizon: float = 1.0
    n_paths: int = 100_000
    seed: int = 42
    out_dir: str = "runs"
    tolerances: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.suite not in SUITES:
            raise ValueError(f"unknown suite {self.suite!r}, pick one of {SUITES}")
        for name, lo in (
            ("d", 1),
            ("truncation", 0),
            ("max_degree", 1),
            ("n_time", 1),
            ("chaos_n_time", 1),
            # chaos.engines expands a second-order power of a field
            ("chaos_truncation", 2),
            ("n_paths", 2),
            ("seed", 0),
        ):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < lo:
                raise ValueError(f"{name} must be >= {lo}")
        for name in ("n_time", "chaos_n_time"):
            # each time step is at least one grid cell; the cap keeps the grids
            # built below within the coefficient budget
            if getattr(self, name) > MAX_LEVEL_COEFFS:
                raise ValueError(f"{name} must be <= {MAX_LEVEL_COEFFS}")
        for name in ("b", "sigma", "horizon"):
            value = getattr(self, name)
            if not _finite_real(value):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")
        if not isinstance(self.atoms, (list, tuple)) or not all(
            isinstance(a, (list, tuple)) and len(a) == 2 and all(map(_finite_real, a))
            for a in self.atoms
        ):
            raise ValueError(
                f"atoms must be a list of [size, intensity] pairs of finite numbers, "
                f"got {self.atoms!r}"
            )
        if self.sigma == 0 and not self.atoms:
            raise ValueError("model needs a diffusion part or at least one atom")
        if not isinstance(self.out_dir, str):
            raise ValueError(f"out_dir must be a string, got {self.out_dir!r}")
        if not isinstance(self.tolerances, dict):
            raise ValueError(f"tolerances must be an object, got {self.tolerances!r}")
        unknown = set(self.tolerances) - set(DEFAULT_TOLERANCES)
        if unknown:
            raise ValueError(f"unknown tolerance keys {sorted(unknown, key=str)}")
        for key, value in self.tolerances.items():
            # a record passes when its gap is <= its tolerance, so a negative
            # tolerance fails every record
            if not _finite_real(value) or value < 0:
                raise ValueError(
                    f"tolerance {key} must be a finite number >= 0, got {value!r}"
                )
        merged = dict(DEFAULT_TOLERANCES)
        merged.update({k: float(v) for k, v in self.tolerances.items()})
        self.tolerances = merged
        self.atoms = [[float(x), float(lam)] for x, lam in self.atoms]
        # LevyModel and CellGrid own the remaining model rules (distinct
        # nonzero sizes, positive intensities); meet them here, not mid-run
        model = self.mixed_model()
        try:
            finite = all(
                np.all(np.isfinite(CellGrid(model, n_time).cell_masses))
                for n_time in (self.n_time, self.chaos_n_time)
            )
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError("the model's cell masses overflow the float range")

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config fields {sorted(unknown, key=str)}")
        return cls(**data)

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("config file must hold a JSON object")
        return cls.from_dict(data)

    def mixed_model(self) -> LevyModel:
        return LevyModel(
            b=self.b,
            sigma=self.sigma,
            atoms=tuple((x, lam) for x, lam in self.atoms),
            horizon=self.horizon,
        )

    def to_dict(self) -> dict:
        return asdict(self)

    def config_hash(self) -> str:
        payload = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return sha256(payload.encode()).hexdigest()

    def validate_guards(self) -> None:
        """Probe every coefficient budget the suites will touch.

        Raises GuardLimitError up front instead of mid-suite; run_suite turns
        that into a failing record rather than a crash.
        """
        check_level(self.d, self.truncation + 2)
        chaos_grid = CellGrid(self.mixed_model(), self.chaos_n_time)
        check_level(max(chaos_grid.n_cells, 1), self.chaos_truncation + 2)

    def resolve_out_dir(self) -> str:
        return os.path.abspath(self.out_dir)
