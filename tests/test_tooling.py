"""The benchmark's per-layer tracer still finds every name it patches.

``perfbench/tracer.py`` wraps the program's layer functions by name. Entering
and leaving a ``Tracer`` patches and restores them without running anything,
so a refactor that renames or deletes one of those names fails here, not
only in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def owner_and_attr(site):
    module_name, path = site.split(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def test_tracer_patches_and_restores_every_layer():
    tracer = load_tracer()
    sites = [owner_and_attr(site) for _, _, layer_sites in tracer.LAYERS
             for site in layer_sites]
    originals = [vars(owner)[attr] for owner, attr in sites]
    with tracer.Tracer():
        for (owner, attr), original in zip(sites, originals):
            assert vars(owner)[attr].__wrapped__ is original, f"{owner.__name__}.{attr}"
    for (owner, attr), original in zip(sites, originals):
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr}"
