"""Run configuration: seeds, ladders, tolerances, quadrature settings.

Values load from an optional flat key=value file; the SAMPLERLANG_SEED
environment variable overrides the file's seed, and CLI flags override both.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field, fields

from .kernels import DEFAULT_SEED


@dataclass
class Config:
    seed: int = DEFAULT_SEED
    n_ladder: tuple[int, ...] = (1000, 10000, 100000)
    tol_final: float = 0.02
    tol_floor: float = 5e-3
    quad_abs_tol: float = 1e-9
    quad_rel_tol: float = 1e-9
    grid_nodes_3d: int = 96
    subtype_depth: int = 32
    equiv_depth: int = 8
    equiv_size_factor: int = 4
    ladder_slack: float = 2.0

    def tol_schedule(self, n: int) -> float:
        """Default tolerance at ladder rung n: max(floor, 3/sqrt(n))."""
        return max(self.tol_floor, 3.0 / (n ** 0.5))

    def quad_settings(self):
        from .quadrature import QuadSettings

        return QuadSettings(
            abs_tol=self.quad_abs_tol,
            rel_tol=self.quad_rel_tol,
            grid_nodes_3d=self.grid_nodes_3d,
        )

    @classmethod
    def load(cls, path: str | None = None, overrides: dict | None = None) -> "Config":
        values: dict = {}
        if path:
            values.update(_read_config_file(path))
        env_seed = os.environ.get("SAMPLERLANG_SEED")
        if env_seed is not None:
            values["seed"] = int(env_seed, 0)
        if overrides:
            values.update({k: v for k, v in overrides.items() if v is not None})
        known = {f.name for f in fields(cls)}
        unknown = set(values) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**values)

    def dump(self) -> str:
        lines = []
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, tuple):
                v = ",".join(map(str, v))
            lines.append(f"{f.name} = {v}")
        return "\n".join(lines)


def _read_config_file(path: str) -> dict:
    out: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {raw.rstrip()}")
            key, value = (part.strip() for part in line.split("=", 1))
            out[key] = _coerce(key, value)
    return out


def _coerce(key: str, value: str):
    if key == "n_ladder":
        return tuple(int(x) for x in value.split(","))
    if key in ("seed", "grid_nodes_3d", "subtype_depth", "equiv_depth", "equiv_size_factor"):
        return int(value, 0)
    return float(value)
