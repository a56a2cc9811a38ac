"""Query and outcome containers of the query service.

A :class:`JoinQuery` is one client request: which two datasets to join,
under which :class:`~repro.core.join_types.JoinSpec`, with which device and
wire configuration -- and, optionally, which algorithm (``algorithm=None``
lets the broker's calibrated cost-model front-end choose).  Queries are
plain immutable descriptions; all execution state (servers, channels,
device) is owned by the broker, which is what lets many queries over the
same datasets share one server build while keeping their metering ledgers
fully isolated.

A :class:`QueryOutcome` pairs the query with its measured
:class:`~repro.core.result.JoinResult`, the plan decision that picked its
algorithm, and the service-level provenance (which wave ran it, whether it
was served from the result cache).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.core.base import AlgorithmParameters
from repro.core.join_types import JoinSpec
from repro.core.planner import PlanDecision
from repro.core.result import JoinResult
from repro.datasets.dataset import SpatialDataset, default_join_window
from repro.geometry.rect import Rect
from repro.network.config import NetworkConfig
from repro.network.faults import FaultPlan, RetryPolicy
from repro.server.server import SpatialServer

__all__ = ["JoinQuery", "QueryOutcome"]


@dataclass(frozen=True, eq=False)
class JoinQuery:
    """One join request submitted to the broker.

    Identity note: queries compare (and hash) by object identity -- the
    dataset fields hold arrays, so structural equality lives in the result
    cache's content-derived keys instead
    (:func:`repro.service.cache.dataset_token`).

    Parameters
    ----------
    dataset_r, dataset_s:
        The two relations.  Queries over the same pair share one cached
        server build inside the broker (each execution gets its own
        statistics view).
    spec:
        The join query (intersection / distance / iceberg).
    algorithm:
        Explicit registry algorithm, or ``None`` to let the calibrated
        cost-model front-end choose among
        :data:`~repro.core.planner.SELECTABLE_ALGORITHMS`.
    buffer_size:
        Device buffer capacity in objects for this query.
    params:
        Algorithm tunables; defaults to :class:`AlgorithmParameters`.
    window:
        Joined region; defaults to the union MBR of both datasets.
    config:
        Wire constants / tariffs; ``None`` inherits the broker's config.
    execution:
        Execution-mode override forwarded to algorithms that accept one
        (``"frontier"``/``"recursive"`` for the engine-driven algorithms,
        ``"batch"``/``"scalar"`` for SemiJoin); ``None`` keeps each
        algorithm's default.
    servers:
        Optional pre-built base ``(server_r, server_s)`` pair (e.g. from
        the experiment harness's workload cache); the broker still hands
        the execution its own statistics views of them.
    faults:
        Optional seeded :class:`~repro.network.faults.FaultPlan` to inject
        into this query's channels (chaos testing / resilience drills).
    retry:
        Optional :class:`~repro.network.faults.RetryPolicy`; defaults to
        the standard policy when a resilience stack is attached.
    deadline_s:
        Optional per-query deadline budget in simulated seconds; crossing
        it fails the query with a typed ``QueryTimeout``.
    shards_r, shards_s, shard_scheme:
        Shard counts per side and the partitioning scheme.  A count > 1
        makes the broker build (and cache) that side as a partitioned
        :class:`~repro.server.sharded.ShardedSpatialServer` fleet with
        per-shard channels, ledgers, breakers and fault substreams; join
        pairs stay bit-identical to the unsharded run.  SemiJoin queries
        must stay unsharded.
    replicas:
        Replication factor per shard.  A factor > 1 publishes every shard
        on R replica servers sharing one index build (per-replica
        channels, breakers and fault substreams); the connection tries the
        replicas healthy-first and fails a lost exchange over to a sibling
        replica mid-query.  SemiJoin queries must stay unreplicated.
    """

    dataset_r: SpatialDataset
    dataset_s: SpatialDataset
    spec: JoinSpec
    algorithm: Optional[str] = None
    buffer_size: int = 800
    params: Optional[AlgorithmParameters] = None
    window: Optional[Rect] = None
    config: Optional[NetworkConfig] = None
    execution: Optional[str] = None
    servers: Optional[Tuple[SpatialServer, SpatialServer]] = field(
        default=None, compare=False
    )
    faults: Optional["FaultPlan"] = None
    retry: Optional["RetryPolicy"] = None
    deadline_s: Optional[float] = None
    shards_r: int = 1
    shards_s: int = 1
    shard_scheme: str = "grid"
    replicas: int = 1

    def __post_init__(self) -> None:
        if self.buffer_size <= 0:
            raise ValueError("buffer_size must be positive")
        if self.shards_r < 1 or self.shards_s < 1:
            raise ValueError("shard counts must be >= 1")
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")
        from repro.datasets.partition import PARTITION_SCHEMES

        if self.shard_scheme not in PARTITION_SCHEMES:
            raise ValueError(
                f"unknown partition scheme {self.shard_scheme!r}; "
                f"available: {PARTITION_SCHEMES}"
            )

    def resolved_window(self) -> Rect:
        """The joined region (defaults to :func:`default_join_window`).

        The default-window computation is memoised on the (frozen) query:
        planning, cache-key derivation and wave execution all consult it,
        possibly from different service threads, and must always see one
        identical Rect object.
        """
        if self.window is not None:
            return self.window
        window = self.__dict__.get("_resolved_window_cache")
        if window is None:
            window = default_join_window(self.dataset_r, self.dataset_s)
            object.__setattr__(self, "_resolved_window_cache", window)
        return window

    def resolved_params(self) -> AlgorithmParameters:
        return self.params if self.params is not None else AlgorithmParameters()


@dataclass
class QueryOutcome:
    """One executed (or cache-served) query, with full provenance.

    ``status`` is the degradation contract of PR 7: ``"ok"`` outcomes
    carry a result exactly as before; ``"failed"`` / ``"timeout"``
    outcomes carry ``result=None`` plus the typed ``error`` that isolated
    this query from its wave (the rest of the wave completed untouched).
    """

    query: JoinQuery
    result: Optional[JoinResult]
    plan: PlanDecision
    #: ``"ok"``, ``"failed"`` (unrecoverable fault / retry exhaustion) or
    #: ``"timeout"`` (per-query deadline budget exceeded).
    status: str = "ok"
    #: The typed error that failed the query (``None`` when ``ok``).
    error: Optional[BaseException] = None
    #: True when the result came from the cache (warm hit or an identical
    #: query earlier in the same submission); the result object is shared
    #: with the execution that produced it.
    cached: bool = False
    #: Index of the wave that executed the query (-1 for cache hits).
    wave: int = -1
    #: ``(R, S)`` channel ledger fingerprints of the execution that
    #: produced the result (:meth:`~repro.network.channel.Channel.
    #: ledger_fingerprint`); ``None`` for cache-served outcomes.  The
    #: equivalence suite pins these record for record against standalone
    #: runs -- coalescing may share evaluations, never the attributed
    #: ledger.
    ledger_fingerprints: Optional[Tuple[Tuple, Tuple]] = None
    #: Ticket of the asynchronous submission that produced this outcome
    #: (:meth:`~repro.service.executor.QueryService.submit`); ``None`` for
    #: synchronous ``run_batch`` outcomes.
    ticket: Optional[int] = None
    #: Submission-to-completion seconds measured by the service lane
    #: (queueing + execution); ``None`` outside the async front-end.
    service_latency_s: Optional[float] = None

    @property
    def algorithm(self) -> str:
        return self.plan.algorithm
