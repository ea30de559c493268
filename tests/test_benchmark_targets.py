"""The benchmark tracer wraps library functions by name; every name must resolve.

`perfbench/tracer.py` replaces each `TARGETS` entry ("<module>:<qualified
name>") by a timing wrapper, and a name that no longer exists crashes every
traced benchmark run.  The tracer is loaded by path and only read here.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_targets() -> tuple[str, ...]:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


def test_every_tracer_target_resolves_to_a_library_function():
    targets = _tracer_targets()
    assert targets
    for target in targets:
        module_name, _, qualname = target.partition(":")
        owner = importlib.import_module(f"galois_span.{module_name}")
        for attr in qualname.split("."):
            assert hasattr(owner, attr), target
            owner = getattr(owner, attr)
        assert callable(owner), target
