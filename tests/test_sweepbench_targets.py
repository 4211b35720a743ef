"""The traced benchmark run's hooks still resolve against ``src/``.

``sweepbench/tracer.py`` wraps module and class attributes by name and
imports ``supports_fast_split`` to tag engine paths.  A rename under
``src/`` would otherwise only fail in the separate benchmark self-test.
The tracer is loaded from its source without writing bytecode next to
it, so the benchmark directory stays untouched.
"""

import importlib
import pathlib
import types

from repro.sim.fastsplit import supports_fast_split
from repro.sim.policies import available_policies
from repro.sim.prefetch import available_prefetchers

TRACER = pathlib.Path(__file__).resolve().parent.parent / "sweepbench" / "tracer.py"


def _load_tracer() -> types.ModuleType:
    module = types.ModuleType("sweepbench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def test_every_target_resolves():
    tracer = _load_tracer()
    assert tracer.TARGETS
    for module_name, class_name, attr, span in tracer.TARGETS:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        assert attr in owner.__dict__, f"{span}: {module_name}.{attr} is gone"
        assert callable(owner.__dict__[attr])


def test_fast_split_supports_every_registered_pair():
    for policy in available_policies():
        for prefetch in available_prefetchers():
            assert supports_fast_split(policy, prefetch), (policy, prefetch)
