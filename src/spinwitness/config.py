"""Run-configuration parsing and validation for the command-line interface.

Configs are YAML files.  Unknown keys are rejected so a typo never silently
falls back to a default.  Site indices in configs and reports are 1-based to
match the conventional ring labelling; the library API is 0-based.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import yaml

from .hamiltonians import Arc, SpinSystem, defected_ring
from .operators import parse_spin, spin_str
from .scf import ScfConfig


class ConfigError(ValueError):
    """A malformed or inconsistent run configuration."""


_MODEL_KEYS = {"topology", "N", "spin", "spins", "defect", "coupling"}
_DEFECT_KEYS = {"site", "spin"}
_TOP_KEYS = {"model", "seed", "scf", "map", "defect_series", "thermal",
             "verdict", "bisep"}
_SCF_KEYS = {"damping", "tol", "max_iter", "init_grid", "etas"}
_MAP_KEYS = {"lengths", "spin", "theta_points", "moduli", "modulus_diffs"}
_SERIES_KEYS = {"site", "spins", "labels"}
_THERMAL_KEYS = {"t_min", "t_max", "points", "thresholds"}
_VERDICT_KEYS = {"energy"}
_BISEP_KEYS = {"n_a", "offset"}
_BLOCK_KEYS = {"scf": _SCF_KEYS, "map": _MAP_KEYS,
               "defect_series": _SERIES_KEYS, "thermal": _THERMAL_KEYS,
               "verdict": _VERDICT_KEYS, "bisep": _BISEP_KEYS}


def _list(convert):
    def parse(value) -> tuple:
        if not isinstance(value, list):
            raise TypeError("expected a list")
        return tuple(convert(x) for x in value)
    return parse


def _spin(value) -> str:
    return spin_str(parse_spin(value))


def _at_least(low: int):
    def parse(value) -> int:
        if int(value) < low:
            raise ValueError(f"must be >= {low}")
        return int(value)
    return parse


def _etas(value) -> tuple:
    etas = tuple(int(e) for e in value)
    if any(e not in (1, -1) for e in etas):
        raise ValueError("etas must be +1 or -1")
    return etas


# typed keys, converted once at parse time: a malformed value is a config
# error here, and the commands read plain numbers and canonical spin strings
_NUMERIC = {
    "model": {"coupling": float, "spin": _spin, "spins": _list(_spin)},
    "model.defect": {"site": int, "spin": _spin},
    "scf": {"damping": float, "tol": float, "max_iter": int,
            "init_grid": _list(float), "etas": _etas},
    "map": {"lengths": _list(_at_least(1)), "spin": _spin,
            "theta_points": _at_least(0),
            "moduli": _list(float), "modulus_diffs": _list(float)},
    "defect_series": {"site": int, "spins": _list(_spin)},
    "thermal": {"t_min": float, "t_max": float, "points": _at_least(0),
                "thresholds": _list(float)},
    "verdict": {"energy": float},
    "bisep": {"n_a": int, "offset": int},
}


def _check_keys(block: dict, allowed: set, where: str):
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be a mapping")
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


@dataclass
class RunConfig:
    raw: dict
    model: dict | None
    seed: int
    blocks: dict

    def digest(self) -> str:
        blob = json.dumps(self.raw, sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def build_system(self):
        """Instantiate the SpinSystem (resolving a possible spinless defect).

        Returns (system, site_labels) with 0-based original positions.
        """
        if self.model is None:
            raise ConfigError("config needs a 'model' block for this command")
        m = self.model
        topology = m["topology"]
        n = m["N"]
        coupling = m.get("coupling", 1.0)
        if "spins" in m:
            spins = [parse_spin(s) for s in m["spins"]]
            if len(spins) != n:
                raise ConfigError("'spins' length must equal N")
        else:
            spins = [parse_spin(m["spin"])] * n
        defect = m.get("defect")
        if defect:
            if topology != "ring":
                raise ConfigError("defects are only supported on rings")
            site = defect["site"] - 1
            if not 0 <= site < n:
                raise ConfigError("defect site out of range")
            base = spins[0]
            sm = parse_spin(defect["spin"])
            if len(set(spins)) != 1:
                raise ConfigError("defect requires a homogeneous base ring")
            return defected_ring(n, base, site, sm, coupling)
        try:
            system = SpinSystem(topology, tuple(spins), coupling)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        return system, list(range(n))

    def scf_config(self, seed: int | None = None) -> ScfConfig:
        block = self.block("scf")
        kwargs = {key: block[key] for key in _SCF_KEYS if key in block}
        try:
            return ScfConfig(seed=seed if seed is not None else self.seed,
                             **kwargs)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def bisep_arc(self, system: SpinSystem) -> Arc:
        """The bisep block's arc (1-based offset), checked against the system."""
        block = self.block("bisep")
        if "n_a" not in block:
            raise ConfigError("bisep needs bisep.n_a")
        arc = Arc(block.get("offset", 1) - 1, block["n_a"])
        try:
            arc.sites(system)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        return arc

    def block(self, name: str) -> dict:
        return self.blocks.get(name, {})


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML: {exc}") from exc
    if raw is None:
        raw = {}
    return parse_config(raw)


def parse_config(raw: dict) -> RunConfig:
    _check_keys(raw, _TOP_KEYS, "config")
    model = raw.get("model")
    if model is not None:
        _check_keys(model, _MODEL_KEYS, "model")
        model = dict(model)
        if "topology" not in model or model["topology"] not in ("ring", "chain"):
            raise ConfigError("model.topology must be 'ring' or 'chain'")
        if "N" not in model or not isinstance(model["N"], int) or model["N"] < 2:
            raise ConfigError("model.N must be an integer >= 2")
        if ("spin" in model) == ("spins" in model):
            raise ConfigError("model needs exactly one of 'spin' or 'spins'")
        if "defect" in model and model["defect"] is not None:
            _check_keys(model["defect"], _DEFECT_KEYS, "model.defect")
            for key in _DEFECT_KEYS:
                if key not in model["defect"]:
                    raise ConfigError(f"model.defect needs '{key}'")
            model["defect"] = dict(model["defect"])
    blocks = {} if model is None else {"model": model}
    for name, keys in _BLOCK_KEYS.items():
        if raw.get(name) is not None:
            _check_keys(raw[name], keys, name)
            blocks[name] = dict(raw[name])
    for name, converters in _NUMERIC.items():
        block = blocks
        for part in name.split("."):
            block = block.get(part) or {}
        for key, convert in converters.items():
            if key in block:
                try:
                    block[key] = convert(block[key])
                except (TypeError, ValueError) as exc:
                    raise ConfigError(f"invalid {name}.{key} {block[key]!r}: "
                                      f"{exc}") from exc
    seed = raw.get("seed", 42)
    if not isinstance(seed, int):
        raise ConfigError("seed must be an integer")
    return RunConfig(raw=raw, model=model, seed=seed, blocks=blocks)
