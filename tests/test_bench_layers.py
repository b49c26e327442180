"""The benchmark's layer tracer finds every traced function by name.

``bench/run.py --trace 1`` rebinds each ``(module, fn)`` of
``bench/layers.py`` ``LAYERS`` through ``getattr``; a traced public
function that is renamed or deleted breaks only that run, so it is
checked here.
"""

import importlib

from oracles import bench_module


def test_every_traced_layer_resolves():
    layers = bench_module("layers").LAYERS
    assert layers
    for module, fn in layers:
        assert callable(getattr(importlib.import_module("mpcsr." + module), fn)), f"{module}.{fn}"
