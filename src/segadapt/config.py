"""Flat ``key = value`` config files with [data]/[pretrain]/[adapt] sections.

Unknown sections or keys are hard errors; values are converted by the field
types of the config dataclasses. Any section (or the file itself) may be
omitted, in which case defaults apply.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, fields
from pathlib import Path

from .model import MAX_HEADS


class ConfigError(Exception):
    pass


@dataclass
class DataConfig:
    benchmark: str = "syn-a2b"
    n_cases: int = 20
    image_size: int = 64


@dataclass
class PretrainConfig:
    epochs: int = 400
    lr: float = 0.01
    lr_decay: float = 0.9
    decay_every: int = 4
    batch: str = "volume"


@dataclass
class AdaptConfig:
    heads: int = 4
    tau: float = 0.95
    entropy_weight: float = 1.0
    lr: float = 1e-4
    epochs: int = 20
    batch: str = "volume"
    cleanup: bool = True


@dataclass
class Config:
    data: DataConfig
    pretrain: PretrainConfig
    adapt: AdaptConfig


_SECTIONS = {"data": DataConfig, "pretrain": PretrainConfig, "adapt": AdaptConfig}

_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def _convert(raw: str, target_type, section: str, key: str):
    raw = raw.strip()
    try:
        if target_type is bool:
            low = raw.lower()
            if low in _TRUE:
                return True
            if low in _FALSE:
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        return target_type(raw)
    except ValueError as e:
        raise ConfigError(f"[{section}] {key}: {e}") from e


def default_config() -> Config:
    return Config(DataConfig(), PretrainConfig(), AdaptConfig())


def parse_config(path) -> Config:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser()
    try:
        cp.read_string(path.read_text(encoding="utf-8"), source=str(path))
    except configparser.Error as e:
        raise ConfigError(str(e)) from e
    cfg = default_config()
    for section in cp.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        target = getattr(cfg, section)
        known = {f.name: f.type for f in fields(target)}
        types = {"int": int, "float": float, "str": str, "bool": bool}
        for key, raw in cp.items(section):
            if key not in known:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            ftype = known[key]
            if isinstance(ftype, str):  # postponed annotations
                ftype = types[ftype]
            setattr(target, key, _convert(raw, ftype, section, key))
    for section in ("pretrain", "adapt"):
        _check_schedule(getattr(cfg, section), section)
    check_adapt(cfg.adapt)
    return cfg


def _check_schedule(sc, section: str):
    """epochs >= 0; batch is 'volume' or an integer >= 1."""
    if sc.epochs < 0:
        raise ConfigError(f"[{section}] epochs: must be >= 0, got {sc.epochs}")
    if sc.batch != "volume" and not (sc.batch.isdigit() and int(sc.batch) >= 1):
        raise ConfigError(
            f"[{section}] batch: must be 'volume' or an integer >= 1, got {sc.batch!r}")


# [adapt] key -> (predicate, requirement); every predicate is False for nan
_ADAPT_BOUNDS = {
    "heads": (lambda v: 1 <= v <= MAX_HEADS, f"in 1..{MAX_HEADS}"),
    "tau": (lambda v: 0.0 < v < 1.0, "finite and in (0, 1)"),
    "lr": (lambda v: 0.0 <= v < math.inf, "finite and >= 0"),
    "entropy_weight": (lambda v: 0.0 <= v < math.inf, "finite and >= 0"),
}


def check_adapt(ac, where: str = "[adapt]"):
    """Range-check the adaptation values; ``where`` prefixes the key in errors."""
    for key, (ok, need) in _ADAPT_BOUNDS.items():
        v = getattr(ac, key)
        if not ok(v):
            raise ConfigError(f"{where} {key}: must be {need}, got {v}")


def check_tau(tau: float, num_classes: int, where: str = "[adapt]"):
    """A reliability threshold at or below 1/C would pass every pixel."""
    if tau <= 1.0 / num_classes:
        raise ConfigError(
            f"{where} tau: must exceed 1/num_classes = 1/{num_classes} for this "
            f"checkpoint, got {tau}")


def snapshot(cfg: Config) -> dict:
    """Plain dict form for manifests."""
    return {
        section: {f.name: getattr(getattr(cfg, section), f.name)
                  for f in fields(getattr(cfg, section))}
        for section in _SECTIONS
    }
