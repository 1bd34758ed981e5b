"""The names perfbench/probes.py looks up in pasl under --trace 1.

The benchmark wraps pasl's functions by name from outside, so renaming
or deleting one breaks every traced run while the other tests pass.
"""
import importlib
import importlib.util
import os

from pasl.config import preset
from pasl.formula import parse
from pasl.search import Prover

PROBES = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "probes.py")


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_probes", PROBES)
    probes = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probes)
    return probes.LAYERS


def test_every_probed_name_resolves():
    layers = _layers()
    assert layers
    for name, module, owner, attr in layers:
        target = importlib.import_module(module)
        if owner is not None:
            target = getattr(target, owner)
        # a method is wrapped in its class's own namespace
        assert callable(vars(target).get(attr)), name


def test_prover_has_what_the_probes_read():
    p = Prover(preset("pasl"))
    assert p.replays == 0
    p.prove(parse("(a * b) -> (b * a)"))
    assert p.round_cap >= 1
