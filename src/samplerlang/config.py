"""Run configuration: the seed, the test-target tolerance, quadrature settings.

Values load from an optional flat key=value file; the SAMPLERLANG_SEED
environment variable overrides the file's seed, and CLI flags override both.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, fields

from .kernels import DEFAULT_SEED


class ConfigError(ValueError):
    """A configuration file or SAMPLERLANG_SEED that cannot be read."""


@dataclass
class Config:
    seed: int = DEFAULT_SEED
    tol_final: float = 0.02
    quad_abs_tol: float = 1e-9
    quad_rel_tol: float = 1e-9
    grid_nodes_3d: int = 96

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
            values["seed"] = _coerce("seed", env_seed, "SAMPLERLANG_SEED")
        for key, value in (overrides or {}).items():
            if isinstance(value, str):  # a command-line flag
                value = _coerce(key, value, f"--{key}")
            if value is not None:
                values[key] = value
        known = {f.name for f in fields(cls)}
        unknown = set(values) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**values)

    def dump(self) -> str:
        return "\n".join(f"{f.name} = {getattr(self, f.name)}" for f in fields(self))


def _read_config_file(path: str) -> dict:
    out: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}: bad config line: {raw.rstrip()}")
            key, value = (part.strip() for part in line.split("=", 1))
            out[key] = _coerce(key, value, path)
    return out


def _coerce(key: str, value: str, where: str):
    try:
        return int(value, 0) if key in ("seed", "grid_nodes_3d") else float(value)
    except ValueError:
        raise ConfigError(f"{where}: bad value for {key}: {value!r}") from None
