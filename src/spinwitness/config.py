"""Run-configuration parsing and validation for the command-line interface.

Configs are YAML files.  ``SCHEMA`` holds each key's converter (type and
range) and default.  Unknown keys are rejected so a typo never silently falls
back to a default.  Site indices in configs and reports are 1-based to match
the conventional ring labelling; the library API is 0-based.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import yaml

from .eigensolvers import DEFAULT_SEED
from .hamiltonians import CHAIN, RING, Arc, SpinSystem, defected_ring
from .operators import MAX_PRODUCT_DIM, parse_spin, spin_str


class ConfigError(ValueError):
    """A malformed or inconsistent run configuration."""


REQUIRED = object()  # default of a key that must be given
ABSENT = object()  # default of a key that stays out of the parsed block
# every site has >= 2 states, so more sites than this exceed MAX_PRODUCT_DIM
MAX_SITES = MAX_PRODUCT_DIM.bit_length() - 1
MAX_POINTS = 10_000  # largest temperature or field-angle grid


def _in_range(value, low, high=None):
    if low is not None and value < low:
        raise ValueError(f"must be >= {low}")
    if high is not None and value > high:
        raise ValueError(f"must be <= {high}")
    return value


def _integer(low=None, high=None):
    def parse(value) -> int:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError("expected an integer")
        if isinstance(value, float) and not value.is_integer():
            raise ValueError("expected a whole number")
        return _in_range(int(value), low, high)
    return parse


def _real(low=None):
    def parse(value) -> float:
        # strings too: YAML 1.1 reads an exponent without a dot (1e-8) as one
        if isinstance(value, bool):
            raise TypeError("expected a number")
        number = float(value)
        if not math.isfinite(number):
            raise ValueError("must be finite")
        return _in_range(number, low)
    return parse


def _spin(value) -> str:
    if isinstance(value, bool):
        raise TypeError("expected a spin length")
    return spin_str(parse_spin(value))


def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError("expected a string")
    return value


def _one_of(*options):
    def parse(value):
        if value not in options:
            raise ValueError(f"expected one of {list(options)}")
        return value
    return parse


def _list(convert):
    def parse(value) -> tuple:
        if not isinstance(value, list):
            raise TypeError("expected a list")
        return tuple(convert(x) for x in value)
    return parse


def _block(name: str):
    return lambda value: _parse(name, value)


# block ("" is the top level) -> key -> (converter, default); a default is
# converted like a written value
SCHEMA = {
    "": {"model": (_block("model"), ABSENT), "seed": (_integer(0), DEFAULT_SEED),
         "map": (_block("map"), {}),
         "defect_series": (_block("defect_series"), ABSENT),
         "thermal": (_block("thermal"), {}),
         "verdict": (_block("verdict"), ABSENT), "bisep": (_block("bisep"), ABSENT)},
    "model": {"topology": (_one_of(RING, CHAIN), REQUIRED),
              "N": (_integer(2, MAX_SITES), REQUIRED),
              "spin": (_spin, ABSENT), "spins": (_list(_spin), ABSENT),
              "defect": (_block("model.defect"), ABSENT)},
    "model.defect": {"site": (_integer(1), REQUIRED), "spin": (_spin, REQUIRED)},
    "map": {"lengths": (_list(_integer(1, MAX_SITES)), [3, 4]), "spin": (_spin, "1/2"),
            "theta_points": (_integer(0, MAX_POINTS), 13),
            "moduli": (_list(_real()), [0.5, 0.25, 0.05]),
            "modulus_diffs": (_list(_real()), [0.0, 0.25, 0.45])},
    "defect_series": {"site": (_integer(1), REQUIRED),
                      "spins": (_list(_spin), REQUIRED),
                      "labels": (_list(_text), ABSENT)},
    "thermal": {"t_min": (_real(0.0), 0.0), "t_max": (_real(0.0), 2.0),
                "points": (_integer(0, MAX_POINTS), 21), "thresholds": (_list(_real()), [])},
    "verdict": {"energy": (_real(), REQUIRED)},
    "bisep": {"n_a": (_integer(), REQUIRED), "offset": (_integer(), 1)},
}


def _parse(name: str, block) -> dict:
    """One block of SCHEMA: every key converted, unset ones defaulted."""
    where = name or "config"
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be a mapping")
    schema = SCHEMA[name]
    unknown = set(block) - set(schema)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown, key=str)}")
    parsed = {}
    for key, (convert, default) in schema.items():
        value = default if block.get(key) is None else block[key]
        if value is REQUIRED:
            raise ConfigError(f"{where} needs '{key}'")
        if value is ABSENT:
            continue
        try:
            parsed[key] = convert(value)
        except ConfigError:
            raise
        except (TypeError, ValueError, OverflowError) as exc:
            path = f"{name}.{key}" if name else key
            raise ConfigError(f"invalid {path} {value!r}: {exc}") from exc
    return parsed


@dataclass
class RunConfig:
    raw: dict
    seed: int
    blocks: dict

    def digest(self) -> str:
        blob = json.dumps(self.raw, sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def build_system(self):
        """Instantiate the SpinSystem (resolving a possible spinless defect).

        Returns (system, site_labels) with 0-based original positions.
        """
        m = self.block("model")
        n, defect = m["N"], m.get("defect")
        spins = m["spins"] if "spins" in m else (m["spin"],) * n
        if len(spins) != n:
            raise ConfigError("'spins' length must equal N")
        try:
            system = SpinSystem.from_spins(m["topology"], spins)
            if defect is None:
                return system, list(range(n))
            return defected_ring(system, defect["site"] - 1, defect["spin"])
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def bisep_arc(self, system: SpinSystem) -> Arc:
        """The bisep block's arc (1-based offset), checked against the system."""
        block = self.block("bisep")
        arc = Arc(block["offset"] - 1, block["n_a"])
        try:
            arc.sites(system)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        return arc

    def block(self, name: str) -> dict:
        if name not in self.blocks:
            raise ConfigError(f"config needs a '{name}' block for this command")
        return self.blocks[name]


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML: {exc}") from exc
    return parse_config({} if raw is None else raw)


def parse_config(raw: dict) -> RunConfig:
    blocks = _parse("", raw)
    model = blocks.get("model")
    if model is not None and ("spin" in model) == ("spins" in model):
        raise ConfigError("model needs exactly one of 'spin' or 'spins'")
    return RunConfig(raw=raw, seed=blocks.pop("seed"), blocks=blocks)
