"""Every program name the repository benchmark hooks into still resolves.

``perfbench/spans.py`` times layers by wrapping functions at the names
their callers look up (its ``LAYERS`` table), and ``perfbench/worker.py``
reads ``repro.noc.batchengine.DIRTY_REDOS``. A rename in the program would
break the benchmark only when it next runs; this test breaks first. The
table is read from the file's source, without importing ``perfbench`` (no
bytecode is written there).
"""

import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _layers():
    namespace = {"__name__": "perfbench_spans"}
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), namespace)
    return namespace["LAYERS"]


def test_every_traced_layer_resolves():
    layers = _layers()
    assert layers
    for module_name, path, _layer in layers:
        owner = importlib.import_module(module_name)
        for attr in path.split("."):
            assert hasattr(owner, attr), f"{module_name}.{path}"
            owner = getattr(owner, attr)
        assert callable(owner), f"{module_name}.{path}"


def test_dirty_redos_counter_resolves():
    from repro.noc import batchengine

    assert isinstance(batchengine.DIRTY_REDOS, int)
