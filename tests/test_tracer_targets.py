"""The benchmark's tracer (perfbench/tracer.py) wraps pgconics functions and
methods by name; every name it lists must still exist, or a traced run fails."""

import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = tracer._targets()
    # a method is wrapped on its own class, a function wherever the module has it
    missing = [(prefix, attr) for prefix, owner, attr, _kind, _items in targets
               if not (attr in owner.__dict__ if isinstance(owner, type)
                       else hasattr(owner, attr))]
    assert targets and not missing
