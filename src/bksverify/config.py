"""Run configuration: plain-text key = value files with sections.

A config file has three optional sections, all keys shown with their
defaults in RunConfig below.  Unknown sections or keys are rejected so a
typo cannot silently fall back to a default.  Values in [tolerances]
other than `scale` override the default bar of one identity family in
FAMILIES below; absent keys defer to those.  Every tolerance must be
finite and positive.

Example::

    [run]
    group = su2
    hbar0 = 1.0
    seed = 0
    s_grid = 0.25, 1.0, 3.0

    [quadrature]
    points_per_panel = 14

    [tolerances]
    scale = 1.0
    unitarity = 1e-6
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields
from typing import NamedTuple

GROUP_KINDS = ("torus", "su2", "su3")


class Family(NamedTuple):
    """What the suite knows of one identity family.

    ``bar`` is the default tolerance: one number, or one per route or
    group kind.  A report's ``residual`` must be at or below it, or, when
    ``inverted``, exceed it.  ``groups`` are the group kinds the family
    runs on.
    """

    bar: float | dict
    inverted: bool = False
    groups: tuple = GROUP_KINDS


FAMILIES = {
    "wedge": Family(1e-8),
    "phi-flatness": Family(1e-6),
    "cst-unitarity": Family({"analytic": 1e-10, "quadrature": 1e-4}),
    "pairing": Family({"random": 1e-6, "orthogonal": 1e-8}),
    "bks-factor": Family({"torus": 1e-10, "su2": 1e-6, "su3": 1e-6}),
    "unitarity": Family(1e-6),
    "factorization": Family(1e-14),
    "vertical-limit": Family(1e-6),
    "continuity": Family(1e-10),
    "delta": Family({"torus": 1e-8, "su2": 1e-3, "su3": 1e-3}),
    # phi is identically 1 on tori: there is no contrast to show
    "prequantum": Family(1e-3, inverted=True, groups=("su2", "su3")),
}
IDENTITY_FAMILIES = tuple(FAMILIES)
NORMALIZATIONS = ("unit_volume", "reference")
FORMATS = ("json", "csv")


class ConfigError(ValueError):
    """Malformed config text, unknown key, or out-of-range value."""


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters with documented defaults."""

    # [run]
    group: str = "su2"
    torus_rank: int = 1
    normalization: str = "unit_volume"
    hbar0: float = 1.0
    seed: int = 0
    band_limit: float | None = None  # Casimir cutoff; None -> per-group default
    s_grid: tuple[float, ...] = (0.25, 1.0, 3.0)
    s_prime_grid: tuple[float, ...] = (0.0, 0.5, 3.0)
    pairs_per_cell: int = 2
    identities: tuple[str, ...] = IDENTITY_FAMILIES
    out_dir: str = "reports"
    format: str = "json"
    threads: int = 0  # 0 or 1, the same: the suite runs on one thread

    # [quadrature]
    points_per_panel: int = 14
    panels: int = 10
    hermite_points: int = 64
    hl2_points_torus: int = 300
    hl2_points_su2: int = 40
    delta_points_torus: int = 48
    delta_points_su2: int = 44

    # [tolerances]
    tolerance_scale: float = 1.0
    tolerance_overrides: dict = field(default_factory=dict)

    def echo(self) -> dict:
        """Flat, JSON-ready view of every field in declaration order but
        ``out_dir``, so the report bytes do not depend on where they go."""
        out = {}
        for f in fields(self):
            if f.name == "out_dir":
                continue
            v = getattr(self, f.name)
            if isinstance(v, tuple):
                v = list(v)
            out[f.name] = v
        return out


def _floats(text: str) -> tuple[float, ...]:
    items = [p.strip() for p in text.split(",") if p.strip()]
    return tuple(float(p) for p in items)


def _names(text: str) -> tuple[str, ...]:
    if text.strip() == "all":
        return IDENTITY_FAMILIES
    items = tuple(p.strip() for p in text.split(",") if p.strip())
    for name in items:
        if name not in IDENTITY_FAMILIES:
            raise ConfigError(
                f"unknown identity {name!r}; choose from {', '.join(IDENTITY_FAMILIES)}"
            )
    return items


# the [quadrature] keys; every other field but the two [tolerances] ones
# is a [run] key, under its own name
_QUADRATURE_KEYS = (
    "points_per_panel", "panels", "hermite_points", "hl2_points_torus",
    "hl2_points_su2", "delta_points_torus", "delta_points_su2",
)

# declared field type -> parser of the config value
_PARSERS = {"str": str, "int": int, "float": float, "float | None": float,
            "tuple[float, ...]": _floats, "tuple[str, ...]": _names}
_KEYS = {
    f.name: _PARSERS[f.type] for f in fields(RunConfig) if not f.name.startswith("tolerance_")
}

# section -> key -> parser
_SCHEMA = {
    "run": {key: parse for key, parse in _KEYS.items() if key not in _QUADRATURE_KEYS},
    "quadrature": {key: _KEYS[key] for key in _QUADRATURE_KEYS},
}

# counts that select nothing, or index an empty rule, at 0: every int
# field but the three with bars of their own
_POSITIVE_COUNTS = tuple(
    f.name for f in fields(RunConfig)
    if f.type == "int" and f.name not in ("seed", "threads", "points_per_panel")
)

_CHOICE_FIELDS = {
    "group": GROUP_KINDS,
    "normalization": NORMALIZATIONS,
    "format": FORMATS,
}


def _validate(cfg: RunConfig) -> RunConfig:
    for name, choices in _CHOICE_FIELDS.items():
        value = getattr(cfg, name)
        if value not in choices:
            raise ConfigError(f"{name} must be one of {', '.join(choices)}, got {value!r}")
    if not cfg.out_dir:
        raise ConfigError("out_dir must not be empty")
    if not (math.isfinite(cfg.hbar0) and cfg.hbar0 > 0.0):
        raise ConfigError(f"hbar0 must be finite and positive, got {cfg.hbar0!r}")
    if cfg.seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {cfg.seed}")
    if cfg.band_limit is not None and not (
            math.isfinite(cfg.band_limit) and cfg.band_limit >= 0.0):
        raise ConfigError(f"band_limit must be finite and nonnegative, got {cfg.band_limit!r}")
    if cfg.threads not in (0, 1):
        raise ConfigError(
            f"threads must be 0 or 1, got {cfg.threads}: the suite runs on one thread"
        )
    if not all(math.isfinite(s) and s >= 0.0 for s in cfg.s_grid + cfg.s_prime_grid):
        raise ConfigError("grid values must be finite and nonnegative")
    if not cfg.s_grid:
        raise ConfigError("s_grid must not be empty")
    for name in ("s_grid", "s_prime_grid"):
        if not any(s > 0.0 for s in getattr(cfg, name)):
            raise ConfigError(f"{name} needs at least one positive value")
    for name in _POSITIVE_COUNTS:
        if getattr(cfg, name) < 1:
            raise ConfigError(f"{name} must be at least 1")
    if cfg.points_per_panel < 2 or cfg.points_per_panel % 2:
        # an odd rule puts a node on a root hyperplane, with zero weight
        raise ConfigError("points_per_panel must be even and at least 2")
    for key in cfg.tolerance_overrides:
        if key not in IDENTITY_FAMILIES:
            raise ConfigError(f"unknown key {key!r} in section [tolerances]")
    # an infinite bar passes every check, a nan bar fails every one, and a
    # bar at or below 0 passes the inverted check whatever the contrast
    for key, value in (("scale", cfg.tolerance_scale), *cfg.tolerance_overrides.items()):
        if not (math.isfinite(value) and value > 0.0):
            raise ConfigError(f"[tolerances] {key} must be finite and positive, got {value!r}")
    # two finite factors can still overflow to an infinite bar, or
    # underflow to 0
    for key, family in FAMILIES.items():
        bars = family.bar.values() if isinstance(family.bar, dict) else (family.bar,)
        for bar in bars:
            bar = cfg.tolerance_overrides.get(key, bar) * cfg.tolerance_scale
            if not (math.isfinite(bar) and bar > 0.0):
                raise ConfigError(
                    f"[tolerances] {key} times scale must be finite and positive, got {bar!r}")
    return cfg


def parse_config(text: str) -> RunConfig:
    """Parse config text; reject unknown sections, keys, and bad values."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc

    values: dict = {}
    overrides: dict = {}
    for section in parser.sections():
        if section == "tolerances":
            for key, raw in parser.items(section):
                try:
                    value = float(raw)
                except ValueError as exc:
                    raise ConfigError(f"[tolerances] {key}: not a number: {raw!r}") from exc
                if key == "scale":
                    values["tolerance_scale"] = value
                else:
                    overrides[key] = value
            continue
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        table = _SCHEMA[section]
        for key, raw in parser.items(section):
            if key not in table:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            try:
                values[key] = table[key](raw)
            except ConfigError:
                raise
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key}: bad value {raw!r}") from exc
    values["tolerance_overrides"] = overrides
    return _validate(RunConfig(**values))


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def default_config(**replacements) -> RunConfig:
    """Programmatic construction with the same validation as parsing."""
    return _validate(RunConfig(**replacements))
