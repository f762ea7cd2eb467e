"""A graph served from memory-mapped ``.npy`` files is a plain CSRGraph.

The recipe for a graph larger than memory (``docs/architecture.md``,
"Serving a graph larger than memory") is

    CSRGraph(np.load("offsets.npy", mmap_mode="r"),
             np.load("neighbors.npy", mmap_mode="r"))

The file's pages enter the page cache on first touch; the kernel can
reclaim them and share them between processes, so the graph does not add
to a process's anonymous memory.  These tests pin that the recipe needs
nothing else: the graph wraps the maps without a copy, has the same
fingerprint as the in-memory graph, runs the compiled kernels on the
default kernel, and gives bit-identical outcomes for every method, in
process and through a ``spawn`` pool, which leaves no shared-memory
segment behind.
"""

from __future__ import annotations

import multiprocessing
import os

import numpy as np
import pytest

from repro.engine import BatchEngine, DiffusionJob, ProcessPoolBackend, run_job
from repro.graph import CSRGraph, load_proxy
from repro.graph.shared import SEGMENT_PREFIX
from repro.kernels import available_kernels, get_kernels

METHODS = {
    "pr-nibble": {"alpha": 0.05, "eps": 1e-5},
    "nibble": {"eps": 1e-5},
    "hk-pr": {"t": 5.0, "eps": 1e-5},
    "rand-hk-pr": {"t": 5.0, "num_walks": 5000},
}

SEEDS = (0, 777, 1999)


def jobs():
    return [
        DiffusionJob.make(seed, method=method, params=params, rng=seed)
        for method, params in METHODS.items()
        for seed in SEEDS
    ]


def assert_outcomes_identical(got, want):
    assert np.array_equal(got.vector_keys, want.vector_keys)
    assert np.array_equal(got.vector_values, want.vector_values)
    assert got.pushes == want.pushes
    assert got.touched_edges == want.touched_edges
    assert got.residual_mass == want.residual_mass
    assert got.work == want.work and got.depth == want.depth
    assert got.conductance == want.conductance
    assert np.array_equal(got.cluster, want.cluster)


def shm_segments():
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-POSIX host
        pytest.skip("no /dev/shm to audit on this platform")
    return {name for name in os.listdir("/dev/shm") if name.startswith(SEGMENT_PREFIX)}


@pytest.fixture(scope="module")
def in_memory():
    return load_proxy("soc-LJ", scale=0.05)


@pytest.fixture(scope="module")
def maps(in_memory, tmp_path_factory):
    directory = tmp_path_factory.mktemp("csr")
    np.save(directory / "offsets.npy", in_memory.offsets)
    np.save(directory / "neighbors.npy", in_memory.neighbors)
    return (
        np.load(directory / "offsets.npy", mmap_mode="r"),
        np.load(directory / "neighbors.npy", mmap_mode="r"),
    )


@pytest.fixture(scope="module")
def mapped(maps):
    return CSRGraph(*maps)


class TestRecipe:
    def test_graph_wraps_the_maps_without_a_copy(self, maps, mapped):
        offsets, neighbors = maps
        assert isinstance(offsets, np.memmap) and isinstance(neighbors, np.memmap)
        assert np.shares_memory(mapped.offsets, offsets)
        assert np.shares_memory(mapped.neighbors, neighbors)

    def test_fingerprint_matches_the_in_memory_graph(self, in_memory, mapped):
        assert mapped.fingerprint() == in_memory.fingerprint()

    @pytest.mark.skipif("c" not in available_kernels(), reason="no compiled kernel")
    def test_default_kernel_runs_the_compiled_rounds_on_the_maps(
        self, maps, mapped, monkeypatch
    ):
        kernels = get_kernels("c")
        seen = []
        compiled = kernels.ppr_bsp

        def spy(offsets, neighbors, *args):
            seen.append((offsets, neighbors))
            return compiled(offsets, neighbors, *args)

        monkeypatch.setattr(kernels, "ppr_bsp", spy)
        run_job(mapped, DiffusionJob.make(0, params=METHODS["pr-nibble"]))
        assert len(seen) == 1
        assert np.shares_memory(seen[0][0], maps[0])
        assert np.shares_memory(seen[0][1], maps[1])

    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_every_method_is_bit_identical(self, in_memory, mapped, method):
        for seed in SEEDS:
            job = DiffusionJob.make(seed, method=method, params=METHODS[method], rng=seed)
            assert_outcomes_identical(
                run_job(mapped, job, include_vector=True),
                run_job(in_memory, job, include_vector=True),
            )


class TestSpawnPool:
    def test_session_matches_serial_and_leaks_no_segment(self, in_memory, mapped):
        if "spawn" not in multiprocessing.get_all_start_methods():  # pragma: no cover
            pytest.skip("spawn start method unavailable on this platform")
        before = shm_segments()
        serial = BatchEngine(in_memory).run(jobs())
        engine = BatchEngine(mapped, backend=ProcessPoolBackend(start_method="spawn", workers=2))
        with engine.open_session() as session:
            # spawn workers cannot inherit the maps: the arrays go to /dev/shm
            assert session.shared is not None
            pooled = list(session.run(jobs()))
        assert [outcome.index for outcome in pooled] == list(range(len(serial)))
        for got, want in zip(pooled, serial):
            assert_outcomes_identical(got, want)
        assert shm_segments() - before == set()
