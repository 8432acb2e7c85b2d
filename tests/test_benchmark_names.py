"""The names perfbench's tracer wraps exist in nleig.

perfbench/spans.py replaces each function of FUNCTION_LAYERS by a recording
wrapper and sets each method of METHOD_LAYERS on its class; a name that is
gone fails only a traced benchmark run, so this checks them here.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_exists():
    spans = _spans()
    missing = []
    for name, module, attr, _ in spans.FUNCTION_LAYERS:
        if not callable(getattr(importlib.import_module(module), attr, None)):
            missing.append(f"{name}: {module}.{attr}")
    for name, module, cls_name, attr, _ in spans.METHOD_LAYERS:
        cls = getattr(importlib.import_module(module), cls_name, None)
        # install() wraps cls.__dict__[attr], so an inherited method is not enough
        if cls is None or attr not in vars(cls):
            missing.append(f"{name}: {module}.{cls_name}.{attr}")
    assert missing == []
