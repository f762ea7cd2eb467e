"""Unit tests for the kernel plane's selection machinery (repro.kernels).

The contract: ``kernel=None`` (the default) resolves like ``"auto"``,
which degrades gracefully (never raises, silently picks ``"python"``
when no compiled backend exists), explicitly requesting an unavailable
backend fails loudly with an actionable message, and unknown names are a
``ValueError`` everywhere the knob surfaces (core, engine, serve, CLI).

Availability-dependent behaviour is tested twice: once against whatever
this environment really provides, and once against *simulated*
availability (monkeypatched probe caches), so hosts with and without a C
compiler both exercise every branch.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.kernels as kernels_mod
from repro.engine import BatchEngine, DiffusionJob
from repro.engine.scheduler import (
    KERNEL_COST_SCALE,
    estimate_cost,
    kernel_cost_scale,
    resolved_kernel_name,
)
from repro.graph import CSRGraph, barbell_graph
from repro.kernels import (
    KERNELS,
    KernelUnavailableError,
    available_kernels,
    ensure_warm,
    get_kernels,
    resolve_kernel,
)
from repro.runtime.cost_model import CostModel


def simulate(monkeypatch, available: tuple[str, ...]) -> None:
    """Pretend exactly ``available`` compiled backends probe successfully."""
    sets = {"python": kernels_mod._SETS["python"]}
    errors: dict[str, Exception] = {}
    if "c" in available:
        sets["c"] = kernels_mod._SETS.get("c", object())
    else:
        errors["c"] = KernelUnavailableError(
            kernels_mod._unavailable_message("c", ImportError("simulated"))
        )
    monkeypatch.setattr(kernels_mod, "_SETS", sets)
    monkeypatch.setattr(kernels_mod, "_ERRORS", errors)
    monkeypatch.setattr(kernels_mod, "_AUTO", None)


class TestResolveKernel:
    def test_none_means_auto_and_python_means_python(self):
        assert resolve_kernel(None) == resolve_kernel("auto")
        assert resolve_kernel("python") == "python"

    def test_none_follows_availability(self, monkeypatch):
        simulate(monkeypatch, ("c",))
        assert resolve_kernel(None) == "c"
        simulate(monkeypatch, ())
        assert resolve_kernel(None) == "python"

    def test_unknown_kernel_raises_value_error(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            resolve_kernel("fortran")

    def test_auto_resolves_to_an_available_kernel(self):
        assert resolve_kernel("auto") in available_kernels()

    def test_python_always_available(self):
        assert "python" in available_kernels()
        assert set(available_kernels()) <= set(KERNELS)

    def test_auto_prefers_c_then_python(self, monkeypatch):
        simulate(monkeypatch, ("c",))
        assert resolve_kernel("auto") == "c"

    def test_auto_silently_falls_back_to_python(self, monkeypatch):
        simulate(monkeypatch, ())
        assert resolve_kernel("auto") == "python"
        # memoised: the second resolution must not re-probe
        assert resolve_kernel("auto") == "python"

    def test_explicit_c_raises_actionable_error_when_missing(self, monkeypatch):
        simulate(monkeypatch, ())
        with pytest.raises(KernelUnavailableError, match="compiler"):
            resolve_kernel("c")

    def test_environment_matches_probe(self):
        # Whatever this host really has: requesting each available kernel
        # succeeds, requesting each unavailable one raises.
        ready = available_kernels()
        for name in KERNELS:
            if name in ready:
                assert resolve_kernel(name) == name
                assert get_kernels(name) is not None
            else:
                with pytest.raises(KernelUnavailableError):
                    resolve_kernel(name)


class TestEnsureWarm:
    def test_memoised_second_call_is_free(self):
        first = ensure_warm("python")
        assert first >= 0.0
        assert ensure_warm("python") == 0.0
        for name in available_kernels():
            ensure_warm(name)
            assert ensure_warm(name) == 0.0

    def test_unknown_kernel_still_raises(self):
        with pytest.raises(ValueError):
            ensure_warm("fortran")


class TestExtraCflags:
    """The sanitizer hook: extra build flags come from the environment,
    land in the cache tag, and can never relax IEEE-754 strictness."""

    def test_absent_env_means_no_extra_flags(self, monkeypatch):
        from repro.kernels import _ckernels

        monkeypatch.delenv(_ckernels.EXTRA_CFLAGS_ENV, raising=False)
        assert _ckernels._extra_cflags() == []

    def test_flags_are_shlex_split(self, monkeypatch):
        from repro.kernels import _ckernels

        monkeypatch.setenv(
            _ckernels.EXTRA_CFLAGS_ENV, "-g -fsanitize=address,undefined"
        )
        assert _ckernels._extra_cflags() == ["-g", "-fsanitize=address,undefined"]

    @pytest.mark.parametrize(
        "flag", ["-ffast-math", "-Ofast", "-ffp-contract=fast"]
    )
    def test_fast_math_injection_rejected(self, monkeypatch, flag):
        """Regression (invariant `fast-math`): the determinism contract is
        not environment-overridable — a value-changing FP flag raises
        before any compiler runs."""
        from repro.kernels import _ckernels

        monkeypatch.setenv(_ckernels.EXTRA_CFLAGS_ENV, f"-g {flag}")
        with pytest.raises(_ckernels.KernelBuildError, match="bit-identity"):
            _ckernels._extra_cflags()

    def test_cflags_keep_the_determinism_pins(self):
        from repro.kernels import _ckernels

        assert "-ffp-contract=off" in _ckernels.CFLAGS
        assert "-fno-fast-math" in _ckernels.CFLAGS
        for flag in _ckernels.CFLAGS:
            assert flag not in _ckernels._FORBIDDEN_CFLAGS


class TestSchedulerScale:
    def test_python_and_none_scale_is_unity(self, monkeypatch):
        # None scales at unity where it resolves to python: no compiler.
        simulate(monkeypatch, ())
        assert kernel_cost_scale(None) == 1.0
        assert kernel_cost_scale("python") == 1.0

    @pytest.mark.parametrize("available", [("c",), ()])
    def test_default_job_keys_and_scales_like_resolved_default(
        self, monkeypatch, available
    ):
        simulate(monkeypatch, available)
        default = resolve_kernel(None)
        params = {"alpha": 0.05, "eps": 1e-6}
        assert resolved_kernel_name(None) == default
        assert kernel_cost_scale(None) == KERNEL_COST_SCALE[default]
        assert estimate_cost(DiffusionJob.make(0, params=params)) == estimate_cost(
            DiffusionJob.make(0, params=params, kernel=default)
        )
        model = CostModel()
        model.observe(
            "pr-nibble", resolved_kernel_name(None), 1.0, 1e-6, static=1.0
        )
        assert list(model.snapshot()) == [f"pr-nibble/{default}"]

    def test_compiled_kernels_scale_below_unity(self, monkeypatch):
        simulate(monkeypatch, ("c",))
        assert kernel_cost_scale("c") == KERNEL_COST_SCALE["c"] < 1.0

    def test_bad_kernels_never_raise_in_scheduling(self, monkeypatch):
        simulate(monkeypatch, ())
        assert kernel_cost_scale("fortran") == 1.0
        assert kernel_cost_scale("c") == 1.0  # unavailable -> python-like

    def test_estimate_cost_scales_by_job_kernel(self, monkeypatch):
        simulate(monkeypatch, ("c",))
        python_job = DiffusionJob.make(
            0, params={"alpha": 0.05, "eps": 1e-6}, kernel="python"
        )
        compiled_job = DiffusionJob.make(
            0, params={"alpha": 0.05, "eps": 1e-6}, kernel="c"
        )
        assert estimate_cost(compiled_job) == pytest.approx(
            KERNEL_COST_SCALE["c"] * estimate_cost(python_job)
        )


class TestKnobSurfaces:
    """The knob is validated eagerly at every layer it surfaces."""

    def test_engine_rejects_unknown_kernel(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            BatchEngine(barbell_graph(4), kernel="fortran")

    def test_engine_rejects_unavailable_kernel(self, monkeypatch):
        simulate(monkeypatch, ())
        with pytest.raises(KernelUnavailableError):
            BatchEngine(barbell_graph(4), kernel="c")

    def test_local_cluster_rejects_unknown_kernel(self):
        from repro import local_cluster

        with pytest.raises(ValueError, match="unknown kernel"):
            local_cluster(barbell_graph(4), 0, kernel="fortran")

    def test_parallel_paths_validate_but_ignore(self):
        # Every parallel path validates the knob, whether or not the graph
        # lets it reach a compiled twin: never silently dropped.
        from repro import local_cluster

        with pytest.raises(ValueError, match="unknown kernel"):
            local_cluster(barbell_graph(4), 0, parallel=True, kernel="fortran")
        result = local_cluster(barbell_graph(4), 0, parallel=True, kernel="auto")
        assert result.size > 0

    @pytest.mark.parametrize("parallel", [True, False])
    def test_c_rejects_out_of_range_seeds(self, parallel):
        # The C loops index by seed unchecked and numpy wraps a negative
        # id, so every method must refuse ids outside [0, n) on every
        # kernel before any array is indexed by them.
        from repro import local_cluster

        graph = barbell_graph(6)
        for method in ("pr-nibble", "nibble", "hk-pr", "rand-hk-pr"):
            for kernel in available_kernels():
                for seeds in (-2, [-1, 3], [graph.num_vertices]):
                    with pytest.raises(ValueError, match="out of range"):
                        local_cluster(
                            graph, seeds, method=method, parallel=parallel,
                            kernel=kernel,
                        )

    @pytest.mark.parametrize("parallel", [True, False])
    def test_sweep_rejects_out_of_range_keys(self, parallel):
        from repro.core import sweep_cut

        graph = barbell_graph(6)
        for kernel in available_kernels():
            for vector in ({-2: 1.0, 3: 0.5}, {3: 0.5, graph.num_vertices: 1.0}):
                with pytest.raises(ValueError, match="out of range"):
                    sweep_cut(graph, vector, parallel=parallel, kernel=kernel)

    @pytest.mark.skipif("c" not in available_kernels(), reason="no C compiler")
    def test_c_guards_its_id_arrays(self):
        # The compiled scan, walk filter, walk step and endpoint count
        # refuse ids that would index outside their arrays, whoever calls
        # them.
        c = get_kernels("c")
        graph = barbell_graph(6)
        offsets, neighbors = graph.offsets, graph.neighbors
        degrees = np.asarray([5], dtype=np.int64)
        for ordered in ([-2], [graph.num_vertices]):
            with pytest.raises(ValueError, match="out of range"):
                c.sweep_scan(offsets, neighbors, np.asarray(ordered), degrees)
        current = np.asarray([0, 3], dtype=np.int64)
        with pytest.raises(ValueError, match="out of range"):
            c.walk_filter(offsets, current, np.asarray([2]))
        with pytest.raises(ValueError, match="out of range"):
            c.walk_filter(offsets, np.asarray([0, -2]), np.asarray([1]))
        with pytest.raises(ValueError, match="out of range"):
            c.endpoint_count(graph.num_vertices, np.asarray([1, graph.num_vertices]))
        # The walk step writes current[lane] and reads a neighbor picked by
        # the uniform: every lane, vertex and uniform must keep both in
        # bounds.  Vertex 2 of this CSR has no edges to pick from.
        offsets = np.asarray([0, 1, 2, 2], dtype=np.int64)
        neighbors = np.asarray([1, 0], dtype=np.int64)
        for active, vertices, uniform in (
            ([2], [0], 0.5),  # lane past len(current)
            ([-1], [0], 0.5),
            ([0], [3], 0.5),  # vertex past n
            ([0], [-1], 0.5),
            ([0], [2], 0.5),  # vertex without edges
            ([0], [0], 1.0),  # uniform outside [0, 1)
            ([0], [0], -0.25),
            ([0], [0], np.nan),
        ):
            current = np.asarray([0, 1], dtype=np.int64)
            with pytest.raises(ValueError, match="out of range"):
                c.walk_advance(
                    offsets, neighbors, current, np.asarray(active),
                    np.asarray(vertices), np.asarray([uniform]),
                )
        current = np.asarray([0, 1], dtype=np.int64)
        for vertices, uniforms in (([0, 1], [0.5]), ([0], [0.5, 0.5])):
            with pytest.raises(ValueError, match="one vertex and one uniform"):
                c.walk_advance(
                    offsets, neighbors, current, np.asarray([0]),
                    np.asarray(vertices), np.asarray(uniforms),
                )
        c.walk_advance(
            offsets, neighbors, current, np.asarray([0, 1]),
            np.asarray([0, 1]), np.asarray([0.0, 0.999]),
        )
        assert current.tolist() == [1, 0]

    def test_methods_without_twins_accept_the_knob(self):
        from repro import local_cluster

        for method in ("nibble", "hk-pr"):
            plain = local_cluster(barbell_graph(6), 0, method=method, parallel=False)
            knobbed = local_cluster(
                barbell_graph(6), 0, method=method, parallel=False, kernel="auto"
            )
            assert np.array_equal(plain.cluster, knobbed.cluster)
            with pytest.raises(ValueError, match="unknown kernel"):
                local_cluster(
                    barbell_graph(6), 0, method=method, parallel=False, kernel="fortran"
                )

    def test_service_validates_kernel_synchronously(self):
        import asyncio

        from repro.serve import DiffusionService

        async def scenario():
            async with DiffusionService(barbell_graph(6)) as service:
                with pytest.raises(ValueError, match="unknown kernel"):
                    service.submit_query(0, kernel="fortran")
                outcome = await service.submit_query(0, kernel="auto", eps=1e-4)
                return outcome.size

        assert asyncio.run(scenario()) > 0

    def test_cli_kernels_command(self, capsys):
        from repro.cli import main

        assert main(["kernels"]) == 0
        out = capsys.readouterr().out
        assert "python" in out and "auto ->" in out

    def test_cli_cluster_accepts_kernel_flag(self, capsys, tmp_path):
        from repro.cli import main

        graph = barbell_graph(8)
        from repro.graph import save_npz

        path = tmp_path / "g.npz"
        save_npz(graph, path)
        assert main(["cluster", str(path), "--kernel", "auto", "--param", "eps=1e-5"]) == 0
        assert "cluster:" in capsys.readouterr().out


class TestGraphIntegration:
    def test_kernels_see_shared_memory_graphs(self):
        # A zero-copy attached graph is a plain CSRGraph over the segments,
        # so the default kernel runs on it exactly as on the original.
        from repro.core import PRNibbleParams, pr_nibble
        from repro.graph.shared import SharedCSR

        graph = barbell_graph(8)
        params = PRNibbleParams(alpha=0.1, eps=1e-5)
        want = pr_nibble(graph, 0, params)
        with graph.share() as shared:
            with SharedCSR.attach(shared.handle()) as attached:
                assert isinstance(attached.graph, CSRGraph)
                assert np.array_equal(attached.graph.offsets, graph.offsets)
                got = pr_nibble(attached.graph, 0, params)
                assert got.vector.to_dict() == want.vector.to_dict()
                assert got.pushes == want.pushes
