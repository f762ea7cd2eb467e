"""Execute the runnable examples embedded in module docstrings.

The newest planes (serving, scheduler, shared-memory graph, evolving graph)
document themselves with small executable examples; this hook runs them
as part of tier-1 so a drifting API breaks the docs loudly instead of
silently.  Each listed module must contain at least one example — an
empty doctest run would mean the documentation was deleted, which is as
much a failure as a wrong one.
"""

from __future__ import annotations

import doctest

import pytest

import repro
import repro.cache.evolving
import repro.engine
import repro.engine.scheduler
import repro.graph.evolving
import repro.graph.shared
import repro.kernels
import repro.prims.scan
import repro.serve.service

MODULES = [
    repro,
    repro.cache.evolving,
    repro.engine,
    repro.engine.scheduler,
    repro.graph.evolving,
    repro.graph.shared,
    repro.kernels,
    repro.prims.scan,
    repro.serve.service,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    result = doctest.testmod(
        module, verbose=False, optionflags=doctest.NORMALIZE_WHITESPACE
    )
    assert result.attempted > 0, (
        f"{module.__name__} documents no runnable examples; add one to its "
        "docstring (and keep this hook honest)"
    )
    assert result.failed == 0
