"""Tests for the unified options layer (repro.core.options).

The load-bearing properties: one validation path attributes every failure
to the canonical field name (RequestError is still a ValueError, so the
historical except-clauses keep working); the wire schema round-trips
verbatim and rejects unknown fields under ``"v": 1``; EngineOptions
carries the whole knob surface with the engine's historical conflict
messages; ``options=`` composes with — but never silently overrides —
the loose kwargs on BatchEngine/resolve_engine/cluster_many/
DiffusionService/local_cluster; and no knob is silently dropped, whether
it needs a pool the engine lacks or sits next to a prebuilt engine.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.cache import keys as cache_keys
from repro.cli import main
from repro.core import cluster_many, local_cluster, ncp_profile
from repro.core.options import (
    PRIORITIES,
    ClusterRequest,
    EngineOptions,
    RequestError,
    canonical_params,
    validate_params,
)
from repro.engine import BatchEngine, DiffusionJob
from repro.engine.executor import resolve_engine
from repro.graph import barbell_graph, planted_partition, save_npz


@pytest.fixture(scope="module")
def graph():
    return planted_partition(200, 4, intra_degree=8.0, inter_degree=1.0, seed=3)


class TestRequestError:
    def test_is_a_value_error_with_field_and_code(self):
        error = RequestError("params.alpha", "alpha must be in (0, 1)")
        assert isinstance(error, ValueError)
        assert error.field == "params.alpha"
        assert error.code == 400
        assert str(error) == "alpha must be in (0, 1)"
        assert error.to_wire() == {
            "message": "alpha must be in (0, 1)",
            "code": 400,
            "field": "params.alpha",
        }

    def test_fieldless_errors_omit_the_field(self):
        wire = RequestError(None, "queue full", code=429).to_wire()
        assert wire == {"message": "queue full", "code": 429}


class TestValidateParams:
    def test_unknown_method_names_the_method_field(self):
        with pytest.raises(RequestError, match="unknown method") as info:
            validate_params("page-rank", {})
        assert info.value.field == "method"

    def test_unknown_parameter_named_canonically(self):
        with pytest.raises(RequestError, match="invalid pr-nibble parameter 'epsilon'") as info:
            validate_params("pr-nibble", {"epsilon": 1e-4})
        assert info.value.field == "params.epsilon"
        assert "choose from" in str(info.value)

    def test_bad_value_attributed_to_its_own_field(self):
        with pytest.raises(RequestError) as info:
            validate_params("pr-nibble", {"alpha": 0.05, "eps": 2.0})
        assert info.value.field == "params.eps"

    def test_valid_params_return_the_dataclass(self):
        params = validate_params("pr-nibble", {"alpha": 0.05})
        assert params.alpha == 0.05

    def test_canonical_params_shared_with_cache_keys(self):
        # One canonicaliser: the cache module re-exports this function, so
        # the wire schema and the cache key cannot disagree about identity.
        assert cache_keys.canonical_params is canonical_params
        assert canonical_params("hk-pr", {"t": 4}) == canonical_params(
            "hk-pr", {"t": 4.0}
        )
        filled = dict(canonical_params("pr-nibble", {}))
        assert "eps" in filled and "alpha" in filled


class TestClusterRequestWire:
    def test_round_trip_is_identity(self):
        request = ClusterRequest.make(
            [5, 3], method="hk-pr", params={"t": 4.0}, rng=7,
            priority="bulk", kernel="auto", include_cluster=True, id="q-1",
        )
        assert ClusterRequest.from_wire(request.to_wire()) == request

    def test_wire_payload_is_versioned_and_minimal(self):
        wire = ClusterRequest.make(5).to_wire()
        assert wire == {
            "v": 1,
            "seeds": [5],
            "method": "pr-nibble",
            "params": {},
            "rng": 0,
            "priority": "interactive",
        }

    def test_v1_rejects_unknown_fields(self):
        with pytest.raises(RequestError, match="unknown field 'bogus'") as info:
            ClusterRequest.from_wire({"v": 1, "seeds": [1], "bogus": 3})
        assert info.value.field == "bogus"

    def test_legacy_payloads_ignore_unknown_fields(self):
        request = ClusterRequest.from_wire({"seeds": 1, "bogus": 3})
        assert request.seeds == (1,)

    def test_graph_version_round_trips_and_is_lenient_when_absent(self):
        # The evolving-plane extension rides wire v1 leniently: absent
        # means "the current version" (so pre-extension clients keep
        # working against pre-extension servers and vice versa), present
        # round-trips exactly, and None is never written.
        request = ClusterRequest.make(5, graph_version=3)
        wire = request.to_wire()
        assert wire["graph_version"] == 3
        assert ClusterRequest.from_wire(wire) == request
        unversioned = ClusterRequest.make(5).to_wire()
        assert "graph_version" not in unversioned
        assert ClusterRequest.from_wire(unversioned).graph_version is None

    def test_graph_version_must_be_a_nonnegative_integer(self):
        for bad in (-1, 1.5, "2", True):
            with pytest.raises(RequestError, match="graph_version") as info:
                ClusterRequest.from_wire({"v": 1, "seeds": [5], "graph_version": bad})
            assert info.value.field == "graph_version"
        with pytest.raises(RequestError, match="graph_version"):
            EngineOptions(graph_version=-2).validate()

    def test_unsupported_version_rejected(self):
        with pytest.raises(RequestError, match="unsupported wire version"):
            ClusterRequest.from_wire({"v": 2, "seeds": [1]})

    def test_missing_seeds_and_type_errors_name_their_field(self):
        for payload, field in (
            ({"v": 1}, "seeds"),
            ({"seeds": [1], "method": 7}, "method"),
            ({"seeds": [1], "params": [1]}, "params"),
            ({"seeds": [1], "rng": "x"}, "rng"),
            ({"seeds": [1], "rng": True}, "rng"),
            ({"seeds": [1], "priority": 3}, "priority"),
            ({"seeds": [1], "kernel": 3}, "kernel"),
            ({"seeds": [1], "include_cluster": "yes"}, "include_cluster"),
            ({"seeds": "zero"}, "seeds"),
            ({"seeds": []}, "seeds"),
        ):
            with pytest.raises(RequestError) as info:
                ClusterRequest.from_wire(payload)
            assert info.value.field == field, payload
        with pytest.raises(RequestError, match="JSON object"):
            ClusterRequest.from_wire([1, 2])

    def test_scalar_and_array_seeds_normalise(self):
        assert ClusterRequest.make(np.int64(4)).seeds == (4,)
        assert ClusterRequest.make(np.array([4, 2])).seeds == (4, 2)


class TestClusterRequestSemantics:
    def test_validate_names_each_offending_field(self, graph):
        cases = [
            (ClusterRequest.make(0, method="page-rank"), "method"),
            (ClusterRequest.make(0, params={"alpha": 5.0}), "params.alpha"),
            (ClusterRequest.make(0, priority="urgent"), "priority"),
            (ClusterRequest.make(0, kernel="fortran"), "kernel"),
            (ClusterRequest.make(10**6), "seeds"),
        ]
        for request, field in cases:
            with pytest.raises(RequestError) as info:
                request.validate(num_vertices=graph.num_vertices)
            assert info.value.field == field

    def test_priorities_canonical_home(self):
        from repro.serve import PRIORITIES as serve_priorities

        assert PRIORITIES == ("interactive", "bulk")
        assert serve_priorities is PRIORITIES

    def test_job_round_trip(self):
        request = ClusterRequest.make(3, method="hk-pr", params={"t": 4.0}, rng=9)
        job = request.job()
        assert isinstance(job, DiffusionJob)
        assert ClusterRequest.from_job(job, priority="bulk") == ClusterRequest.make(
            3, method="hk-pr", params={"t": 4.0}, rng=9, priority="bulk"
        )


class TestEngineOptions:
    def test_backend_inference_matches_engine(self):
        assert EngineOptions().resolved_backend() == "serial"
        assert EngineOptions(workers=1).resolved_backend() == "serial"
        assert EngineOptions(workers=2).resolved_backend() == "process"

    def test_validate_keeps_the_engine_conflict_messages(self):
        with pytest.raises(ValueError, match="unknown backend"):
            EngineOptions(backend="cluster").validate()
        with pytest.raises(ValueError, match="unknown kernel"):
            EngineOptions(kernel="fortran").validate()

    def test_coerce_drops_unset_knobs_and_rejects_unknown_names(self):
        assert EngineOptions.coerce(workers=2, cache=False, kernel=None) == (
            EngineOptions(workers=2)
        )
        options = EngineOptions(start_method="spawn", workers=2)
        assert EngineOptions.coerce(options, workers=None) is options
        with pytest.raises(TypeError, match="worker"):
            EngineOptions.coerce(worker=2)


class TestNoSilentlyDroppedKnob:
    def test_pool_knobs_without_a_pool_raise(self, graph, tmp_path):
        """start_method needs the process backend; every entry point used
        to accept it on a serial engine and ignore it."""
        with pytest.raises(ValueError, match="configures the worker pool"):
            BatchEngine(graph, start_method="spawn")
        with pytest.raises(ValueError, match="configures the worker pool"):
            ncp_profile(graph, seeds=[0], start_method="spawn")
        with pytest.raises(ValueError, match="configures the worker pool"):
            cluster_many(graph, [0], eps=1e-4, start_method="spawn")
        path = tmp_path / "graph.npz"
        save_npz(graph, path)
        for command in (
            ["batch", str(path), str(tmp_path / "batch.csv"), "--seed", "0"],
            ["ncp", str(path), str(tmp_path / "ncp.csv"), "--seeds", "1"],
        ):
            with pytest.raises(
                SystemExit,
                match="--start-method configures the worker pool; pass --workers > 1",
            ):
                main([*command, "--start-method", "spawn"])

    def test_removed_schedule_knob_is_refused(self, graph, tmp_path, capsys):
        """The pool has one dispatch, heaviest-first steal units, so the
        ``schedule`` knob is gone from every entry point; a stale caller
        fails loudly instead of being silently ignored."""
        from repro.serve import DiffusionService

        for build in (
            lambda: EngineOptions.coerce(workers=2, schedule="fifo"),
            lambda: BatchEngine(graph, workers=2, schedule="fifo"),
            lambda: DiffusionService(graph, workers=2, schedule="fifo"),
        ):
            with pytest.raises(TypeError, match="unexpected engine option.*schedule"):
                build()
        with pytest.raises(TypeError, match="schedule"):
            ncp_profile(graph, seeds=[0], workers=2, schedule="fifo")
        path = tmp_path / "graph.npz"
        save_npz(graph, path)
        with pytest.raises(SystemExit) as info:
            main(["batch", str(path), str(tmp_path / "batch.csv"), "--seed", "0",
                  "--workers", "2", "--schedule", "fifo"])
        assert info.value.code == 2
        assert "--schedule" in capsys.readouterr().err

    def test_prebuilt_engine_rejects_parallel_and_include_vectors(self, graph):
        engine = BatchEngine(graph)
        for knobs in ({"parallel": False}, {"include_vectors": False}):
            with pytest.raises(ValueError, match="already constructed"):
                resolve_engine(graph, engine, **knobs)
        with pytest.raises(ValueError, match="already constructed.*parallel"):
            cluster_many(graph, [0], engine=engine, parallel=False, eps=1e-4)

    def test_ncp_profile_accepts_a_prebuilt_engine(self, graph):
        prebuilt = ncp_profile(graph, seeds=[0, 50], engine=BatchEngine(graph))
        built = ncp_profile(graph, seeds=[0, 50])
        assert prebuilt.runs == built.runs == 8
        assert np.array_equal(prebuilt.conductance, built.conductance)


class TestOptionsThreadedThroughTheStack:
    def test_engine_accepts_options(self, graph):
        engine = BatchEngine(graph, options=EngineOptions(include_vectors=False))
        assert engine.include_vectors is False and engine.parallel is True
        outcome = engine.run([DiffusionJob.make(0, params={"eps": 1e-4})])[0]
        assert outcome.support_size > 0

    def test_engine_rejects_loose_conflicts(self, graph):
        options = EngineOptions(workers=2)
        for loose in (
            {"workers": 2},
            {"parallel": False},
            {"cache": True},
            {"kernel": "auto"},
            {"backend": "process"},
        ):
            with pytest.raises(ValueError, match="silently ignored") as info:
                BatchEngine(graph, options=options, **loose)
            assert next(iter(loose)) in str(info.value)

    def test_resolve_engine_rejects_options_on_a_prebuilt_engine(self, graph):
        engine = BatchEngine(graph)
        with pytest.raises(ValueError, match="already constructed.*options"):
            resolve_engine(graph, engine, options=EngineOptions())

    def test_cluster_many_accepts_options(self, graph):
        loose = cluster_many(graph, [0, 50], eps=1e-4)
        via_options = cluster_many(
            graph, [0, 50], options=EngineOptions(), eps=1e-4
        )
        for a, b in zip(loose, via_options):
            assert np.array_equal(a.cluster, b.cluster)
            assert a.conductance == b.conductance
        with pytest.raises(ValueError, match="silently ignored"):
            cluster_many(graph, [0], options=EngineOptions(), workers=2, eps=1e-4)

    def test_service_accepts_options_and_rejects_conflicts(self, graph):
        from repro.serve import DiffusionService

        async def scenario():
            async with DiffusionService(
                graph, options=EngineOptions(include_vectors=False)
            ) as service:
                assert service.engine.include_vectors is False
                outcome = await service.submit_query(0, eps=1e-4)
                return outcome.size

        assert asyncio.run(scenario()) > 0
        with pytest.raises(ValueError, match="silently ignored"):
            DiffusionService(graph, options=EngineOptions(), workers=2)

    def test_local_cluster_accepts_a_request(self, graph):
        request = ClusterRequest.make(0, method="pr-nibble", params={"eps": 1e-4})
        from_request = local_cluster(graph, request)
        loose = local_cluster(graph, 0, method="pr-nibble", eps=1e-4)
        assert np.array_equal(from_request.cluster, loose.cluster)
        assert from_request.conductance == loose.conductance

    def test_local_cluster_rejects_loose_knobs_next_to_a_request(self, graph):
        request = ClusterRequest.make(0, params={"eps": 1e-4})
        with pytest.raises(ValueError, match="silently ignored"):
            local_cluster(graph, request, method="hk-pr")
        with pytest.raises(ValueError, match="silently ignored"):
            local_cluster(graph, request, eps=1e-5)

    def test_local_cluster_validates_the_request(self):
        tiny = barbell_graph(4)
        with pytest.raises(RequestError, match="out of range"):
            local_cluster(tiny, ClusterRequest.make(500))
