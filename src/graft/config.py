"""Pipeline configuration shared by the transfer stages and the CLI."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import GraftError


def check_field_types(obj) -> None:
    """Reject a dataclass field of the wrong type, naming it: ``int`` fields take
    ints, the others ints or floats, ``... | None`` fields also None. Booleans,
    Python's (an int subclass) or numpy's, are rejected in every field."""
    for f in dataclasses.fields(obj):
        v = getattr(obj, f.name)
        if isinstance(v, (bool, np.bool_)):
            raise GraftError(f"{f.name} must be a number, not a boolean, got {v!r}")
        if v is None and f.type.endswith("| None"):
            continue
        want = int if f.type == "int" else (int, float)
        if not isinstance(v, want):
            kind = "an integer" if want is int else "a number"
            raise GraftError(f"{f.name} must be {kind}, got {v!r}")


@dataclass
class TransferConfig:
    """Knobs for the full transfer pipeline. Defaults are the recommended values.

    ``lam`` is the regularization weight of both model-fitting stages.
    ``mu`` is the smoothness/consistency mix of the construction stage; None
    selects it automatically from the entity counts. ``eta0`` is the first
    trial step of the construction's descent; each later iteration starts from
    the step the previous one accepted, doubled if it took no halving.
    """

    lam: float = 0.1
    d1: int = 16
    d2: int = 16
    z_entity: float = 1.96
    z_edge: float = 1.96
    max_path_len: int = 3
    mu: float | None = None
    construction_max_iters: int = 500
    eta0: float = 0.01
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise GraftError(f"lam must be nonnegative and finite, got {self.lam!r}")
        for name in ("z_entity", "z_edge", "eta0"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise GraftError(f"{name} must be positive and finite, got {v!r}")
        for name in ("d1", "d2", "construction_max_iters"):
            if getattr(self, name) < 1:
                raise GraftError(f"{name} must be a positive integer, got {getattr(self, name)!r}")
        if self.max_path_len < 2:
            raise GraftError(f"max_path_len must be an integer >= 2, got {self.max_path_len!r}")
        if self.mu is not None and not (math.isfinite(self.mu) and 0.0 <= self.mu <= 1.0):
            raise GraftError(f"mu must be in [0, 1] or None for automatic, got {self.mu!r}")
        if self.seed < 0:
            raise GraftError(f"seed must be a nonnegative integer, got {self.seed!r}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


CONFIG_KEYS = tuple(f.name for f in dataclasses.fields(TransferConfig))
# annotations are strings under ``from __future__ import annotations``
_INT_KEYS = frozenset(f.name for f in dataclasses.fields(TransferConfig) if f.type == "int")


def _parse_value(name: str, raw: str):
    """Parse one key=value string from a config file into the field's type."""
    text = raw.strip()
    if name not in CONFIG_KEYS:
        raise GraftError(f"unknown config key {name!r}")
    if text.lower() in ("none", "auto"):
        return None
    if name in _INT_KEYS:
        try:
            return int(text)
        except ValueError:
            raise GraftError(f"config key {name!r} expects an integer, got {text!r}") from None
    try:
        return float(text)
    except ValueError:
        raise GraftError(f"config key {name!r} expects a number, got {text!r}") from None


def parse_config_file(text: str) -> dict:
    """Parse 'key = value' lines ('#' comments allowed) into config overrides; a key may appear once."""
    out: dict = {}
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise GraftError(f"config line {lineno}: expected 'key = value', got {line!r}")
        name, _, value = line.partition("=")
        name = name.strip()
        first = first_line.setdefault(name, lineno)
        if first != lineno:
            raise GraftError(f"config line {lineno}: key {name!r} is already set on line {first}")
        out[name] = _parse_value(name, value)
    return out


def build_config(file_overrides: dict | None = None, flag_overrides: dict | None = None) -> TransferConfig:
    """Defaults, overlaid with config-file values, overlaid with explicit flags.

    Every key present in ``flag_overrides`` wins, even when its value is None
    (e.g. an explicit automatic mu), so callers should include only the flags
    the user actually provided.
    """
    merged = {**(file_overrides or {}), **(flag_overrides or {})}
    unknown = set(merged) - set(CONFIG_KEYS)
    if unknown:
        raise GraftError(f"unknown config keys: {sorted(unknown)}")
    return TransferConfig(**merged)
