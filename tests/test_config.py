"""Logic presets and flag combinations."""
from itertools import combinations

import pytest

from pasl.config import _FLAGS, BBI, PASL, SEPARATA, ConfigError, preset


def test_base_presets():
    assert preset("bbi") == BBI
    assert preset("pasl") == PASL
    assert preset("separata+") == SEPARATA
    assert PASL.partial_determinism and PASL.cancellativity
    assert SEPARATA.disjointness and SEPARATA.heap_extension


def test_flag_suffixes():
    cfg = preset("bbi+p+iu")
    assert cfg.partial_determinism and cfg.indivisible_unit
    assert not cfg.cancellativity
    assert preset("pasl+d").disjointness
    assert preset("pasl+s").splittability
    assert preset("BBI+CS").cross_split     # case insensitive


def test_names_round_trip():
    # every flag combination over both bases that preset accepts
    accepted = set()
    for base in ("bbi", "pasl"):
        for n in range(len(_FLAGS) + 1):
            for flags in combinations(_FLAGS, n):
                try:
                    cfg = preset("+".join((base,) + flags))
                except ConfigError:
                    continue
                assert preset(cfg.name()) == cfg
                accepted.add(cfg)
    assert len(accepted) == 66 and BBI in accepted and PASL in accepted


def test_heap_requires_pasl_semantics():
    with pytest.raises(ConfigError):
        preset("bbi+heap")
    assert preset("pasl+heap").disjointness   # heap composition is disjoint


def test_heap_excludes_splittability():
    with pytest.raises(ConfigError):
        preset("pasl+heap+s")
    with pytest.raises(ConfigError):
        preset("pasl+heap+cs")


def test_unknown_names_rejected():
    for bad in ("foo", "bbi+q", "pasl+"):
        with pytest.raises(ConfigError):
            preset(bad)


def test_preset_is_cached_and_errors_are_not():
    # a LogicConfig is frozen, so every caller may share one object
    assert preset("bbi+p+iu") is preset("bbi+p+iu")
    with pytest.raises(AttributeError):
        preset("pasl").cancellativity = False
    # a bad name raises on every call, not only the first
    for _ in range(3):
        with pytest.raises(ConfigError):
            preset("bbi+q")
        with pytest.raises(ConfigError):
            preset("bbi+heap")
