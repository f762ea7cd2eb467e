"""Shared fixtures and hypothesis configuration for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from repro.graph import (
    barbell_graph,
    cycle_graph,
    paper_figure1_graph,
    planted_partition,
)

# Hypothesis: the property tests exercise numpy-heavy code whose first call
# can be slow (allocation, caching); disable the deadline and the
# too-slow health check so CI machines of any speed pass deterministically.
settings.register_profile(
    "repro",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.load_profile("repro")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def figure1():
    """The paper's Figure 1 example graph (n=8, m=8, vertices A..H = 0..7)."""
    return paper_figure1_graph()


@pytest.fixture
def barbell():
    """Two 10-cliques joined by one bridge edge; the clique is the best cut."""
    return barbell_graph(10)


@pytest.fixture
def small_cycle():
    return cycle_graph(12)


@pytest.fixture(scope="session")
def planted():
    """Planted-partition graph: 20 communities of 100 vertices each.

    Session-scoped: several modules use it for end-to-end recovery tests
    and it is deterministic.
    """
    return planted_partition(2000, 20, intra_degree=8.0, inter_degree=1.0, seed=7)


@pytest.fixture(scope="session")
def planted_community():
    """Ground-truth community of vertex 0 in the ``planted`` fixture."""
    return np.arange(100, dtype=np.int64)


@pytest.fixture
def pools_opened(monkeypatch):
    """Every process pool (``PoolSession``) constructed during the test."""
    from repro.engine.executor import PoolSession

    opened = []
    init = PoolSession.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        opened.append(self)

    monkeypatch.setattr(PoolSession, "__init__", spy)
    return opened


@pytest.fixture
def forced_pool(monkeypatch, pools_opened):
    """One-shot process-backend batches open a real pool: the break-even
    is patched to 0.0, so a batch of two or more jobs runs its first job
    in-process and pools every job after it.  Asserts at teardown that a
    pool opened, so a test of the pool cannot pass in-process."""
    from repro.engine import scheduler

    monkeypatch.setattr(scheduler, "POOL_BREAK_EVEN_SECONDS", 0.0)
    yield pools_opened
    assert pools_opened, "the test's batches never opened a process pool"
