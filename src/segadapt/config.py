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

from .model import MAX_HEADS, ArchConfig
from .synthdata import BENCHMARKS, SPLIT_RATIOS, split_counts


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
    cp = configparser.ConfigParser()
    try:
        cp.read_string(path.read_text(encoding="utf-8"), source=str(path))
    except configparser.Error as e:
        raise ConfigError(str(e)) from e
    except UnicodeDecodeError as e:
        raise ConfigError(f"config file {path} is not UTF-8 ({e})") from e
    except OSError as e:
        raise ConfigError(f"config file {path} cannot be read ({e.strerror})") from e
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
    for section in _SECTIONS:
        check_bounds(getattr(cfg, section), section)
    return cfg


_BATCH_BOUND = (lambda v: v == "volume" or (v.isascii() and v.isdigit() and int(v) >= 1),
                "'volume' or an integer >= 1")
_SIZE_STEP = 2 ** ArchConfig().levels  # each encoder level halves the image
# at both caps the float32 slices of the two domains take about 1.6 GB
_MAX_CASES, _MAX_SIZE = 1000, 128

# section -> key -> (predicate, requirement); every predicate is False for nan
_BOUNDS = {
    "data": {
        "benchmark": (lambda v: v in BENCHMARKS, f"one of {sorted(BENCHMARKS)}"),
        "n_cases": (lambda v: min(split_counts(v)) >= 1 and v <= _MAX_CASES,
                    f"at least one case in each split of {SPLIT_RATIOS}, i.e. >= 10, "
                    f"and <= {_MAX_CASES}"),
        "image_size": (lambda v: 32 <= v <= _MAX_SIZE and v % _SIZE_STEP == 0,
                       f"a multiple of {_SIZE_STEP} in 32..{_MAX_SIZE}"),
    },
    "pretrain": {
        # a model trained for no epoch has BatchNorm layers that never saw a batch
        "epochs": (lambda v: v >= 1, ">= 1"),
        "batch": _BATCH_BOUND,
        "lr": (lambda v: 0.0 < v < math.inf, "finite and > 0"),
        "lr_decay": (lambda v: 0.0 < v < math.inf, "finite and > 0"),
        "decay_every": (lambda v: v >= 1, ">= 1"),
    },
    "adapt": {
        "epochs": (lambda v: v >= 0, ">= 0"),
        "batch": _BATCH_BOUND,
        "heads": (lambda v: 1 <= v <= MAX_HEADS, f"in 1..{MAX_HEADS}"),
        "tau": (lambda v: 0.0 < v < 1.0, "finite and in (0, 1)"),
        "lr": (lambda v: 0.0 <= v < math.inf, "finite and >= 0"),
        "entropy_weight": (lambda v: 0.0 <= v < math.inf, "finite and >= 0"),
    },
}


def check_bounds(sc, section: str, where: str | None = None):
    """Range-check one section's values; ``where`` (default ``[section]``)
    prefixes the key in errors."""
    where = where or f"[{section}]"
    for key, (ok, need) in _BOUNDS[section].items():
        v = getattr(sc, key)
        if not ok(v):
            raise ConfigError(f"{where} {key}: must be {need}, got {v!r}")


def check_tau(tau: float, num_classes: int, where: str = "[adapt]"):
    """A reliability threshold at or below 1/C would pass every pixel."""
    if tau <= 1.0 / num_classes:
        raise ConfigError(
            f"{where} tau: must exceed 1/num_classes = 1/{num_classes} for this "
            f"checkpoint, got {tau}")
