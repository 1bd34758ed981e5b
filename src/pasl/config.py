"""Logic configurations: which frame properties / rules are active."""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache


class ConfigError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class LogicConfig:
    partial_determinism: bool = False
    cancellativity: bool = False
    indivisible_unit: bool = False
    disjointness: bool = False
    splittability: bool = False
    cross_split: bool = False
    heap_extension: bool = False

    def name(self) -> str:
        return "+".join(["bbi"] + [k for k, field in _FLAGS.items()
                                   if getattr(self, field)])


BBI = LogicConfig()
PASL = LogicConfig(partial_determinism=True, cancellativity=True)
SEPARATA = replace(PASL, disjointness=True, heap_extension=True)

_PRESETS = {
    "bbi": BBI,
    "pasl": PASL,
    "separata+": SEPARATA,
}

_FLAGS = {
    "p": "partial_determinism",
    "c": "cancellativity",
    "iu": "indivisible_unit",
    "d": "disjointness",
    "s": "splittability",
    "cs": "cross_split",
    "heap": "heap_extension",
}


@lru_cache(maxsize=64)
def preset(name: str) -> LogicConfig:
    """Parse a logic name like "bbi", "pasl+d" or "separata+".  Cached:
    a LogicConfig is frozen, so one object serves every caller, and a
    bad name raises anew on each call, since errors are not cached."""
    key = name.strip().lower()
    if key in _PRESETS:
        return _validate(_PRESETS[key], name)
    parts = key.split("+")
    if parts[0] not in ("bbi", "pasl"):
        raise ConfigError("unknown logic %r" % name)
    cfg = _PRESETS[parts[0]]
    for part in parts[1:]:
        if part not in _FLAGS:
            raise ConfigError("unknown logic flag %r in %r" % (part, name))
        cfg = replace(cfg, **{_FLAGS[part]: True})
    return _validate(cfg, name)


def _validate(cfg: LogicConfig, name: str) -> LogicConfig:
    if cfg.heap_extension:
        if not cfg.disjointness:
            cfg = replace(cfg, disjointness=True)
        if not (cfg.partial_determinism and cfg.cancellativity):
            raise ConfigError("heap model requires pasl semantics: %r" % name)
    if cfg.heap_extension and (cfg.splittability or cfg.cross_split):
        raise ConfigError("splittability/cross-split not supported with heap: %r" % name)
    return cfg
