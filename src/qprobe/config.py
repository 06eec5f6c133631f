"""Flat key=value configuration for models and interval distributions.

A config document is a sequence of ``key=value`` lines ('#' starts a
comment).  Model keys:

    kind=ring            L, gamma, x_in, x_d
    kind=dense           n, hamiltonian (2*n^2 reals, row-major,
                         real/imag interleaved), then either x_in/x_d
                         site indices or psi_in/psi_d (2*n reals each,
                         interleaved)

Distribution keys: ``dist=fixed|exp|gamma`` with ``tau`` (fixed),
``mean`` (exp, gamma) and ``alpha`` (gamma).  ``seed`` is an unsigned
64-bit integer.  CLI flags override file values.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .intervals import (ExponentialInterval, FixedInterval, GammaInterval,
                        IntervalDistribution)
from .model import QuantumModel, basis_state, build_dense, build_ring

_MAX_SEED = 2**64 - 1


def parse_kv_text(text: str) -> dict[str, str]:
    """Parse key=value lines into a flat dict (later keys win)."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def load_config_file(path: str) -> dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_kv_text(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc


def _get(cfg: dict, key: str, cast=float):
    """cfg[key] converted by ``cast`` (float or int), else a ConfigError."""
    try:
        return cast(cfg[key])
    except KeyError:
        raise ConfigError(f"missing required key {key!r}") from None
    except ValueError:
        what = "an integer" if cast is int else "a number"
        raise ConfigError(f"key {key!r} must be {what}, got {cfg[key]!r}") from None


def _parse_reals(value: str, expected: int, key: str) -> np.ndarray:
    parts = value.replace(",", " ").split()
    if len(parts) != expected:
        raise ConfigError(f"key {key!r} needs {expected} reals, got {len(parts)}")
    try:
        return np.array([float(p) for p in parts])
    except ValueError:
        raise ConfigError(f"key {key!r} contains a non-numeric entry") from None


def _interleaved_complex(values: np.ndarray) -> np.ndarray:
    return values[0::2] + 1j * values[1::2]


def ring_from_config(cfg: dict[str, str]) -> tuple[int, float, int, int] | None:
    """(L, gamma, x_in, x_d) of a ring config, None for any other kind."""
    if cfg.get("kind", "ring") != "ring":
        return None
    return _get(cfg, "L", int), _get(cfg, "gamma"), _get(cfg, "x_in", int), _get(cfg, "x_d", int)


def model_from_config(cfg: dict[str, str]) -> QuantumModel:
    ring = ring_from_config(cfg)
    if ring is not None:
        return build_ring(*ring)
    kind = cfg["kind"]
    if kind == "dense":
        n = _get(cfg, "n", int)
        if n < 1:
            raise ConfigError(f"dense model needs n >= 1, got {n}")
        if "hamiltonian" not in cfg:
            raise ConfigError("dense model needs the 'hamiltonian' key")
        flat = _parse_reals(cfg["hamiltonian"], 2 * n * n, "hamiltonian")
        h = _interleaved_complex(flat).reshape(n, n)
        if "psi_in" in cfg:
            vin = _interleaved_complex(_parse_reals(cfg["psi_in"], 2 * n, "psi_in"))
        else:
            vin = basis_state(n, _get(cfg, "x_in", int))
        if "psi_d" in cfg:
            vd = _interleaved_complex(_parse_reals(cfg["psi_d"], 2 * n, "psi_d"))
        else:
            vd = basis_state(n, _get(cfg, "x_d", int))
        return build_dense(h, vin, vd)
    raise ConfigError(f"unknown model kind {kind!r} (expected ring or dense)")


def distribution_from_config(cfg: dict[str, str]) -> IntervalDistribution:
    dist = cfg.get("dist")
    if dist is None:
        raise ConfigError("missing required key 'dist'")
    try:
        if dist == "fixed":
            return FixedInterval(_get(cfg, "tau"))
        if dist == "exp":
            return ExponentialInterval(_get(cfg, "mean"))
        if dist == "gamma":
            return GammaInterval(_get(cfg, "alpha"), _get(cfg, "mean"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown dist {dist!r} (expected fixed, exp or gamma)")


def seed_from_config(cfg: dict[str, str], default: int = 0) -> int:
    if "seed" not in cfg:
        return default
    seed = _get(cfg, "seed", int)
    if not 0 <= seed <= _MAX_SEED:
        raise ConfigError(f"seed must fit in unsigned 64 bits, got {seed}")
    return seed


def merge_overrides(file_cfg: dict[str, str], overrides: dict[str, object]) -> dict[str, str]:
    """Overlay non-None CLI flag values on top of a config file dict."""
    merged = dict(file_cfg)
    for key, value in overrides.items():
        if value is not None:
            merged[key] = str(value)
    return merged
