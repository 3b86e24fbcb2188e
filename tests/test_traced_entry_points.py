"""The layered benchmark wraps ``src/`` by name.

``benchmarks/layered/tracing.py::WRAPPED`` lists ``(module, owner class,
attribute, span name)`` entry points the tracer replaces with timing
wrappers; a rename under ``src/`` makes the traced pass die at install
time, which only the ``service-smoke`` CI job would notice.  This holds
the names in tier-1 — it reads the tuple and resolves it, nothing is
installed.
"""

from __future__ import annotations

import importlib

from benchmarks.layered.tracing import WRAPPED


def test_every_wrapped_entry_point_resolves():
    assert WRAPPED
    broken = []
    for module, owner, attribute, span in WRAPPED:
        try:
            target = importlib.import_module(module)
            if owner is not None:
                target = getattr(target, owner)
            if not callable(getattr(target, attribute)):
                raise AttributeError(f"{attribute} is not callable")
        except (ImportError, AttributeError) as error:
            broken.append(f"{span}: {module}:{owner}.{attribute} ({error})")
    assert not broken, "\n".join(broken)
