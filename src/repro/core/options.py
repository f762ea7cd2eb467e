"""The unified request/engine option surface — one knob dialect, one validator.

Before this module the same knob surface was re-spelled three times: the
Python API took loose kwargs (``local_cluster(graph, 5, eps=1e-5)``), the
CLI took flags (``--param eps=1e-5 --workers 4``), and ``repro serve``
grew an ad-hoc JSON dialect on stdin.  Each spelling validated (or
silently ignored) knobs its own way.  This module canonicalises both
halves of the surface into frozen records with **one validation path**:

* :class:`ClusterRequest` — *what to compute*: seeds, method, method
  parameters, rng, priority class, kernel, and a client correlation id.
  It is the typed twin of the versioned wire schema (``{"v": 1, ...}``)
  spoken by the network transport (:mod:`repro.serve.net`) and the stdin
  loop (``repro serve``): :meth:`ClusterRequest.to_wire` serializes it
  verbatim, :meth:`ClusterRequest.from_wire` parses and type-checks it,
  and :meth:`ClusterRequest.validate` applies the full semantic checks —
  every failure a :class:`RequestError` naming the offending field.
* :class:`EngineOptions` — *how to execute*: backend, workers,
  start-method, kernel, cache, graph version.  Every engine
  entry point turns its loose keyword knobs (or its ``options=`` record)
  into one of these with :meth:`EngineOptions.coerce`; combining both
  spellings raises (the no-silently-ignored-knob rule).

:func:`canonical_params` — defaults filled from the method's parameter
dataclass, numerics normalised, sorted — is shared with the result cache
(:mod:`repro.cache.keys`), so the wire schema, the validator and the
cache key all agree on what "the same query" means.

>>> request = ClusterRequest.make(5, method="pr-nibble", params={"eps": 1e-5})
>>> request.to_wire() == {"v": 1, "seeds": [5], "method": "pr-nibble",
...                       "params": {"eps": 1e-5}, "rng": 0,
...                       "priority": "interactive"}
True
>>> ClusterRequest.from_wire(request.to_wire()) == request
True
>>> try:
...     validate_params("pr-nibble", {"epsilon": 1e-5})
... except RequestError as error:
...     (error.field, "choose from" in str(error))
('params.epsilon', True)
"""

from __future__ import annotations

import numbers
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Mapping

__all__ = [
    "PRIORITIES",
    "WIRE_VERSION",
    "RequestError",
    "ClusterRequest",
    "EngineOptions",
    "canonical_params",
    "validate_params",
]

#: recognised submission priority classes, highest first (the serving
#: plane drains every queued interactive job ahead of any bulk job).
PRIORITIES = ("interactive", "bulk")

#: version stamped on (and required of) wire payloads — see
#: :meth:`ClusterRequest.to_wire` / :meth:`ClusterRequest.from_wire`.
WIRE_VERSION = 1

#: engine backends constructible by name (``EngineOptions.backend`` also
#: takes a prebuilt backend instance).
BACKENDS = ("serial", "process")


class RequestError(ValueError):
    """A request (or options record) failed validation.

    Carries the dotted path of the offending field (``"seeds"``,
    ``"params.alpha"``; ``None`` when the payload as a whole is
    malformed) and an HTTP-ish status ``code`` the transports map onto
    replies: 400 for invalid requests, 429 for backpressure rejections,
    503 while draining.  ``str(error)`` is the human message alone.
    """

    def __init__(self, field: str | None, message: str, code: int = 400) -> None:
        super().__init__(message)
        self.field = field
        self.code = code

    def to_wire(self) -> dict[str, Any]:
        """The structured error object carried in wire replies."""
        payload: dict[str, Any] = {"message": str(self), "code": self.code}
        if self.field is not None:
            payload["field"] = self.field
        return payload


def _canonical_value(value: Any) -> Any:
    """Collapse numeric types so equal numbers compare and hash equal."""
    if isinstance(value, bool):
        return value
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return float(value)
    return value


def _algorithms() -> dict[str, Any]:
    # Imported lazily: repro.core.api is the heavyweight algorithm table
    # and importing it at module load would cycle through this module.
    from .api import ALGORITHMS

    return ALGORITHMS


def validate_params(method: str, params: Mapping[str, Any]) -> Any:
    """Validate ``params`` for ``method``; return the params dataclass.

    The single semantic checkpoint for method parameters — the engine,
    the serving plane and the wire codec all funnel through it.  Every
    failure is a :class:`RequestError` whose ``field`` is the canonical
    parameter path (``"params.alpha"``), so error replies name the knob
    the client actually got wrong instead of echoing a raw ``TypeError``.
    """
    algorithms = _algorithms()
    if method not in algorithms:
        raise RequestError(
            "method", f"unknown method {method!r}; choose from {sorted(algorithms)}"
        )
    params_cls = algorithms[method][0]
    valid = [item.name for item in fields(params_cls)]
    for name in params:
        if name not in valid:
            raise RequestError(
                f"params.{name}",
                f"invalid {method} parameter {name!r}: unknown parameter; "
                f"choose from {', '.join(valid)}",
            )
    # Each parameter dataclass validates its fields independently in
    # __post_init__, so instantiating one override at a time attributes
    # a bad value to the exact parameter that carried it.
    for name, value in params.items():
        try:
            params_cls(**{name: value})
        except (TypeError, ValueError) as error:
            raise RequestError(
                f"params.{name}", f"invalid {method} parameter {name!r}: {error}"
            ) from None
    try:
        return params_cls(**params)
    except (TypeError, ValueError) as error:  # pragma: no cover - cross-field
        raise RequestError("params", f"invalid {method} parameters: {error}") from None


def canonical_params(method: str, params: Mapping[str, Any]) -> tuple[tuple[str, Any], ...]:
    """Defaults-filled, numerically normalised, sorted parameter tuple.

    Shared between the wire/request validator and the result cache's key
    canonicaliser (:mod:`repro.cache.keys`): two requests canonicalising
    equal must produce bit-identical outcomes, and may share one cache
    entry.
    """
    filled = asdict(validate_params(method, dict(params)))
    return tuple(sorted((name, _canonical_value(value)) for name, value in filled.items()))


def _check_graph_version(version: Any) -> None:
    """Structural check shared by the request and options validators."""
    if version is None:
        return
    if isinstance(version, bool) or not isinstance(version, numbers.Integral):
        raise RequestError(
            "graph_version",
            f"graph_version must be a non-negative integer, got {version!r}",
        )
    if version < 0:
        raise RequestError(
            "graph_version",
            f"graph_version must be a non-negative integer, got {version!r}",
        )


def _check_seeds(seeds: Any) -> tuple[int, ...]:
    if isinstance(seeds, (bool, str)):
        raise RequestError("seeds", "seeds must be a vertex id or a list of vertex ids")
    if isinstance(seeds, numbers.Integral):
        seeds = [seeds]
    try:
        items = list(seeds)
    except TypeError:
        raise RequestError(
            "seeds", "seeds must be a vertex id or a list of vertex ids"
        ) from None
    if not items:
        raise RequestError("seeds", "at least one seed vertex is required")
    normalised = []
    for item in items:
        if isinstance(item, bool) or not isinstance(item, numbers.Integral):
            raise RequestError("seeds", f"seed {item!r} is not a vertex id")
        normalised.append(int(item))
    return tuple(normalised)


@dataclass(frozen=True)
class ClusterRequest:
    """One local-clustering query, canonicalised — the wire schema's twin.

    Attributes
    ----------
    seeds:
        The seed vertex ids.
    method:
        A key of :data:`repro.core.ALGORITHMS`.
    params:
        Overrides for the method's parameter dataclass.
    rng:
        Integer randomness seed (``rand-hk-pr``; ignored by the
        deterministic methods).
    priority:
        Serving-plane priority class (one of :data:`PRIORITIES`).
    kernel:
        Loop implementation (:mod:`repro.kernels`), or ``None`` for the
        engine default.  Never changes results, only speed.
    graph_version:
        Which version of an evolving graph (:mod:`repro.graph.evolving`)
        to solve on; ``None`` means the current version.  Services built
        over a frozen graph reject any explicit value.
    include_cluster:
        Ask the transport to include the cluster's member vertices in
        the reply (off by default: replies stay small).
    id:
        Free-form client correlation id, echoed verbatim in replies.

    ``params`` is stored as a plain dict (like
    :class:`~repro.engine.jobs.DiffusionJob`): the record is frozen by
    convention, cheap to build, and hashable via :meth:`canonical`.
    """

    seeds: tuple[int, ...]
    method: str = "pr-nibble"
    params: dict[str, Any] = field(default_factory=dict)
    rng: int = 0
    priority: str = "interactive"
    kernel: str | None = None
    graph_version: int | None = None
    include_cluster: bool = False
    id: Any = None

    @staticmethod
    def make(
        seeds: Any,
        method: str = "pr-nibble",
        params: Mapping[str, Any] | None = None,
        rng: int = 0,
        priority: str = "interactive",
        kernel: str | None = None,
        graph_version: int | None = None,
        include_cluster: bool = False,
        id: Any = None,
    ) -> "ClusterRequest":
        """Normalise loose seed specs (scalar, list, array) into a request."""
        return ClusterRequest(
            seeds=_check_seeds(seeds),
            method=method,
            params=dict(params or {}),
            rng=int(rng),
            priority=priority,
            kernel=kernel,
            graph_version=graph_version,
            include_cluster=include_cluster,
            id=id,
        )

    @staticmethod
    def from_job(job: Any, priority: str = "interactive") -> "ClusterRequest":
        """Lift a :class:`~repro.engine.jobs.DiffusionJob` into a request."""
        return ClusterRequest(
            seeds=tuple(job.seeds),
            method=job.method,
            params=dict(job.params),
            rng=int(job.rng),
            priority=priority,
            kernel=job.kernel,
        )

    def job(self) -> Any:
        """The :class:`~repro.engine.jobs.DiffusionJob` this request asks for."""
        from ..engine.jobs import DiffusionJob

        return DiffusionJob.make(
            list(self.seeds),
            method=self.method,
            params=self.params,
            rng=self.rng,
            kernel=self.kernel,
        )

    def canonical_params(self) -> tuple[tuple[str, Any], ...]:
        """Defaults-filled canonical parameters (the cache-key view)."""
        return canonical_params(self.method, self.params)

    def validate(self, num_vertices: int | None = None) -> "ClusterRequest":
        """Run the full semantic checks; returns ``self`` for chaining.

        Raises :class:`RequestError` naming the offending field: unknown
        method or priority, invalid parameters, unknown/unavailable
        kernel, out-of-range seeds (when ``num_vertices`` is given).
        """
        object.__setattr__(self, "seeds", _check_seeds(self.seeds))
        validate_params(self.method, self.params)
        if self.priority not in PRIORITIES:
            raise RequestError(
                "priority",
                f"unknown priority {self.priority!r}; choose from {PRIORITIES}",
            )
        if not isinstance(self.rng, numbers.Integral) or isinstance(self.rng, bool):
            raise RequestError("rng", f"rng must be an integer seed, got {self.rng!r}")
        if self.kernel is not None:
            from ..kernels import KernelUnavailableError, resolve_kernel

            try:
                resolve_kernel(self.kernel)
            except (ValueError, KernelUnavailableError) as error:
                raise RequestError("kernel", str(error)) from None
        _check_graph_version(self.graph_version)
        if num_vertices is not None:
            for seed in self.seeds:
                if not 0 <= seed < num_vertices:
                    raise RequestError(
                        "seeds",
                        f"seed {seed} out of range for a {num_vertices}-vertex graph",
                    )
        return self

    # ------------------------------------------------------------------
    # The versioned wire schema
    # ------------------------------------------------------------------
    def to_wire(self) -> dict[str, Any]:
        """Serialize verbatim as wire schema v1 (JSON-compatible dict)."""
        payload: dict[str, Any] = {
            "v": WIRE_VERSION,
            "seeds": list(self.seeds),
            "method": self.method,
            "params": dict(self.params),
            "rng": self.rng,
            "priority": self.priority,
        }
        if self.kernel is not None:
            payload["kernel"] = self.kernel
        if self.graph_version is not None:
            payload["graph_version"] = self.graph_version
        if self.include_cluster:
            payload["include_cluster"] = True
        if self.id is not None:
            payload["id"] = self.id
        return payload

    @classmethod
    def from_wire(
        cls, payload: Any, default_method: str = "pr-nibble"
    ) -> "ClusterRequest":
        """Parse one wire request; type errors name the offending field.

        An explicit ``"v"`` must equal :data:`WIRE_VERSION` and makes the
        parse strict: unknown fields are rejected (so schema typos fail
        loudly instead of being silently ignored).  Payloads without
        ``"v"`` are accepted as the legacy loose dialect of the original
        stdin loop — known fields are honoured, unknown ones ignored.
        Semantic validation is :meth:`validate`'s job.
        """
        if not isinstance(payload, Mapping):
            raise RequestError(None, "request must be a JSON object")
        version = payload.get("v")
        if version is not None and version != WIRE_VERSION:
            raise RequestError(
                "v", f"unsupported wire version {version!r}; this server speaks v1"
            )
        # "graph_version" is the lenient v1 extension for evolving graphs:
        # optional on the wire (absent means "current version"), so v1
        # clients that never send it keep working unchanged.
        known = ("v", "id", "seeds", "method", "params", "rng", "priority",
                 "kernel", "graph_version", "include_cluster")
        if version is not None:
            for name in payload:
                if name not in known:
                    raise RequestError(
                        str(name),
                        f"unknown field {name!r} under wire schema v1; "
                        f"expected a subset of {known}",
                    )
        if "seeds" not in payload:
            raise RequestError("seeds", "request is missing the 'seeds' field")
        method = payload.get("method", default_method)
        if not isinstance(method, str):
            raise RequestError("method", f"method must be a string, got {method!r}")
        params = payload.get("params", {})
        if not isinstance(params, Mapping):
            raise RequestError("params", "params must be an object of overrides")
        for name in params:
            if not isinstance(name, str):
                raise RequestError(
                    "params", f"parameter names must be strings, got {name!r}"
                )
        rng = payload.get("rng", 0)
        if isinstance(rng, bool) or not isinstance(rng, numbers.Integral):
            raise RequestError("rng", f"rng must be an integer seed, got {rng!r}")
        priority = payload.get("priority", "interactive")
        if not isinstance(priority, str):
            raise RequestError(
                "priority", f"priority must be a string, got {priority!r}"
            )
        kernel = payload.get("kernel")
        if kernel is not None and not isinstance(kernel, str):
            raise RequestError("kernel", f"kernel must be a string, got {kernel!r}")
        graph_version = payload.get("graph_version")
        _check_graph_version(graph_version)
        include_cluster = payload.get("include_cluster", False)
        if not isinstance(include_cluster, bool):
            raise RequestError(
                "include_cluster",
                f"include_cluster must be a boolean, got {include_cluster!r}",
            )
        return cls(
            seeds=_check_seeds(payload["seeds"]),
            method=method,
            params=dict(params),
            rng=int(rng),
            priority=priority,
            kernel=kernel,
            graph_version=None if graph_version is None else int(graph_version),
            include_cluster=include_cluster,
            id=payload.get("id"),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ClusterRequest):
            return NotImplemented
        return (
            self.seeds == other.seeds
            and self.method == other.method
            and self.params == other.params
            and self.rng == other.rng
            and self.priority == other.priority
            and self.kernel == other.kernel
            and self.graph_version == other.graph_version
            and self.include_cluster == other.include_cluster
            and self.id == other.id
        )

    def canonical(self) -> tuple:
        """A hashable canonical identity (seeds sorted, params filled).

        ``graph_version`` is deliberately excluded (like ``kernel``): it
        is resolved to a concrete graph — whose content fingerprint is the
        cache's graph identity — before any result is keyed.
        """
        return (
            tuple(sorted(set(self.seeds))),
            self.method,
            self.canonical_params(),
            self.rng,
        )


@dataclass(frozen=True)
class EngineOptions:
    """The engine's whole configuration as one frozen, validated record.

    This docstring is the one per-knob reference.  Every engine entry
    point — :class:`repro.engine.BatchEngine`,
    :func:`repro.engine.resolve_engine`,
    :class:`repro.serve.DiffusionService`, :func:`repro.core.cluster_many`,
    :func:`repro.core.ncp_profile` and the CLI — turns its knobs into one
    of these with a single :meth:`coerce` call, and :meth:`validate` is the
    only structural check.  ``None`` means "engine default".

    Fields
    ------
    backend:
        ``"serial"``, ``"process"``, a prebuilt backend instance, or
        ``None`` to pick ``"process"`` when ``workers`` asks for more than
        one worker and ``"serial"`` otherwise.  A prebuilt instance
        already carries its own pool configuration, so setting
        ``workers`` or ``start_method`` next to it raises.
    workers:
        Worker count for the process backend (default: all cores).
    parallel:
        Use the intra-query parallel implementations inside each job
        (``False`` selects the sequential references).
    include_vectors:
        Retain each job's diffusion vector on its outcome.  Disable for
        pure profile/statistics batches (e.g. NCP) to keep inter-process
        traffic and reducer memory proportional to the sweep alone.
    cache:
        Memoise job outcomes keyed by (graph fingerprint, method,
        canonical params, seed set): ``True`` for a fresh in-memory
        :class:`repro.cache.ResultCache`, a directory path for a
        disk-backed one, or a ready ``ResultCache`` (shared across
        engines).  Only cache misses are dispatched to the backend;
        outcomes still stream back in job order.  ``False`` equals
        ``None``: no cache.
    start_method:
        ``multiprocessing`` start method of the process backend's pool
        (``"fork"``, ``"spawn"``, ``"forkserver"``).  Any of them fans out
        for real — non-fork methods attach the graph through shared
        memory.  Default: ``$REPRO_START_METHOD``, else ``fork`` where
        available.
    kernel:
        Default loop implementation for jobs that do not carry their own
        ``DiffusionJob.kernel`` (:mod:`repro.kernels`): ``None`` (keep the
        jobs' setting, ultimately ``"auto"``), ``"python"``, ``"c"`` or
        ``"auto"``.  Outcomes are bit-identical across kernels, and the
        kernel is excluded from cache keys.
    graph_version:
        Which version of an :class:`~repro.graph.evolving.EvolvingGraph`
        to execute against.  An integer **pins** the engine to that
        version forever; ``None`` **tracks** the chain: every dispatch
        after the chain advances raises a :class:`RequestError` (code
        409) instead of answering against stale edges.

    ``start_method`` needs the process backend.  Each conflict raises
    ``ValueError`` rather than silently dropping a knob.

    >>> EngineOptions.coerce(workers=4, start_method="spawn").resolved_backend()
    'process'
    >>> try:
    ...     EngineOptions.coerce(start_method="spawn")
    ... except ValueError as error:
    ...     print(error)
    start_method configures the worker pool; pass workers > 1
    """

    backend: Any = None
    workers: int | None = None
    parallel: bool = True
    include_vectors: bool = True
    cache: Any = None
    start_method: str | None = None
    kernel: str | None = None
    graph_version: int | None = None

    @classmethod
    def coerce(
        cls, options: "EngineOptions | None" = None, **knobs: Any
    ) -> "EngineOptions":
        """One validated record from an entry point's ``options=`` and knobs.

        ``knobs`` are the loose keyword spellings of the fields; one left
        at ``None`` is unset.  Setting any of them next to ``options``
        raises ``ValueError`` instead of silently preferring one spelling.
        """
        given = _given(knobs)
        if options is None:
            return cls(**given).validate()
        if given:
            raise ValueError(
                f"options= already carries the engine configuration; "
                f"{', '.join(given)} would be silently ignored — set "
                "them on EngineOptions instead"
            )
        return options.validate()

    def resolved_backend(self) -> Any:
        """The backend after the inference described under ``backend``."""
        if self.backend is not None:
            return self.backend
        return "process" if self.workers is not None and self.workers > 1 else "serial"

    def validate(self) -> "EngineOptions":
        """The one structural validation path for the knob surface.

        Raises ``ValueError`` on unknown backends, knobs next to a prebuilt
        backend, ``start_method`` without the process backend, and
        unknown/unavailable kernels.  Returns ``self``.
        """
        from ..engine.executor import PoolBackend

        backend = self.resolved_backend()
        if isinstance(backend, PoolBackend):
            built = [
                name for name in ("workers", "start_method")
                if getattr(self, name) is not None
            ]
            if built:
                raise ValueError(
                    f"backend is already constructed; {', '.join(built)} "
                    "would be silently ignored — configure them on the "
                    "backend instance (or pass the backend by name)"
                )
        elif backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; expected 'serial', 'process' "
                "or a backend instance"
            )
        if backend == "serial" and self.start_method is not None:
            raise ValueError(
                "start_method configures the worker pool; pass workers > 1"
            )
        if self.kernel is not None:
            from ..kernels import resolve_kernel

            resolve_kernel(self.kernel)  # unknown -> ValueError, unavailable raises
        _check_graph_version(self.graph_version)
        return self


_FIELDS = frozenset(item.name for item in fields(EngineOptions))


def _given(knobs: Mapping[str, Any]) -> dict[str, Any]:
    """The engine knobs a caller actually set, by name.

    ``None`` is the universal "engine default", and ``cache=False`` means
    the same as no cache.  An unknown name raises ``TypeError``, exactly
    like an unexpected keyword argument.
    """
    unknown = sorted(set(knobs) - _FIELDS)
    if unknown:
        raise TypeError(f"unexpected engine option(s): {', '.join(unknown)}")
    return {
        name: value
        for name, value in knobs.items()
        if value is not None and not (name == "cache" and value is False)
    }
