"""Tolerances, grid sizes and caps shared by all condition checks."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

from .oracle import GridSpec


@dataclass
class CheckConfig:
    # activity / condition tolerances
    tol_act: float = 1e-8
    tol_kkt: float = 1e-8
    tol_licq: float = 1e-8
    tol_sc: float = 1e-8
    tol_pd: float = 1e-8
    tol_mfcq: float = 1e-8
    tol_newton: float = 1e-10
    # Newton / FD
    newton_max_iter: int = 30
    fd_step: float = 1e-5
    fd_hess_step: float = 1e-3
    # caps
    beta_grid_resolution: int = 5  # Clarke grid points per beta index (subdiff only)
    selector_cap: int = 16  # max |beta| for B-selector enumeration
    clarke_grid_cap: int = 4096  # max Clarke grid selectors (subdiff only)
    # oracle defaults, those of GridSpec
    oracle_delta0: float = GridSpec.delta0
    oracle_step: float = GridSpec.step
    oracle_eta_factor: float = GridSpec.eta_factor
    oracle_tol: float = GridSpec.tol
    run_oracle: bool = False

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite")
            if f.name.startswith(("tol_", "fd_")) and not value > 0:
                raise ValueError(f"{f.name} must be positive")
        for name in ("newton_max_iter", "beta_grid_resolution", "selector_cap",
                     "clarke_grid_cap"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, not {value!r}")
            if value < 1:
                raise ValueError(f"{name} must be >= 1")
        if not isinstance(self.run_oracle, bool):
            raise ValueError(f"run_oracle must be a bool, not {self.run_oracle!r}")
        self.oracle_grid()  # the oracle_* keys follow GridSpec's rules

    def oracle_grid(self) -> GridSpec:
        """The oracle grid, judging feasibility at `tol_act` as the pipeline does."""
        return GridSpec(delta0=self.oracle_delta0, step=self.oracle_step,
                        eta_factor=self.oracle_eta_factor, tol=self.oracle_tol,
                        feas_tol=self.tol_act)

    def replace(self, **kw) -> "CheckConfig":
        data = self.as_dict()
        data.update(kw)
        return CheckConfig(**data)

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in _FIELD_NAMES}

    @classmethod
    def from_file(cls, path: str) -> "CheckConfig":
        """key=value lines; '#' comments; values typed per field annotation."""
        overrides = {}
        valid = {f.name: f.type for f in fields(cls)}
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected key=value")
                key, _, value = line.partition("=")
                key = key.strip()
                value = value.strip()
                if key not in valid:
                    raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
                if key in overrides:
                    raise ValueError(f"{path}:{lineno}: duplicate config key {key!r}")
                overrides[key] = _coerce(value, valid[key])
        return cls(**overrides)


# in declaration order; read by as_dict on every report, so listed once
_FIELD_NAMES = tuple(f.name for f in fields(CheckConfig))


def _coerce(text: str, annotation) -> object:
    name = str(annotation)
    if "bool" in name:
        low = text.lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"cannot parse boolean from {text!r}")
    if "int" in name:
        return int(text)
    return float(text)
