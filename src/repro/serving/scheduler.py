"""QueryServer: concurrent admission, batching and backpressure.

The serving layer's front door.  Client threads :meth:`~QueryServer.submit`
SSB queries or point-lookup requests; a single scheduler drains a
**bounded** queue (a full queue rejects — backpressure instead of
unbounded buffering), groups compatible requests, and executes each group
once:

* identical SSB queries in one drain window ride the same fused fact
  kernel — one execution, every requester gets the result;
* point lookups against the same column coalesce their indices into one
  :func:`~repro.core.random_access.gather`, touching each compressed tile
  at most once per window.

Every group runs through the server's
:class:`~repro.serving.sharding.ShardRouter`.  A single device is one
shard spanning every tile (the default, ``num_shards=1``); more shards
split the tile grid across simulated devices.  Before a group runs, its
columns are placed through each shard's
:class:`~repro.serving.pool.ColumnPool` (charging PCIe transfer on
misses, evicting under pressure) and pinned for the duration, so device
capacity holds even while decoded images come and go.  ``engine``,
``pool``, ``device`` and ``semcache`` are shard 0's.

Time is the simulator's: the server keeps a serving clock advanced by
each group's simulated transfer + kernel milliseconds.  A request's
latency is its simulated queue wait (clock at dispatch minus clock at
admission) plus its group's execution time, and a request whose wait
exceeds its timeout is answered with a ``timeout`` result instead of
being executed.  Bad lookups (unknown column, non-integer or
out-of-range indices) are refused at admission with :class:`ValueError`;
a group that fails unexpectedly is answered with an ``error`` result
and the scheduler keeps serving.  Latencies, queue depth, and
hit/eviction counters all land in the shared
:class:`~repro.serving.metrics.MetricsRegistry`.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field

import numpy as np

# Served lookups call ``gather`` through this module's namespace (the
# router imports it from here), so instrumentation can wrap it in one place.
from repro.core.random_access import gather  # noqa: F401
from repro.engine.crystal import SSBQuery
from repro.engine.ssb_queries import QUERIES
from repro.formats import kernels
from repro.formats.validate import CorruptTileError
from repro.serving.faults import TransientDecodeError
from repro.serving.metrics import MetricsRegistry
from repro.serving.pool import PoolAdmissionError
from repro.query.compiler import QueryCompiler
from repro.query.model import Query
from repro.serving.sharding import ShardRouter
from repro.serving.tiering import CodecTieringManager, TieringPolicy
from repro.ssb.dbgen import SSBDatabase
from repro.ssb.loader import ColumnStore


class ServerSaturated(RuntimeError):
    """The bounded admission queue is full — back off and retry."""


class ServerClosed(RuntimeError):
    """The server no longer accepts requests."""


@dataclass
class ServeRequest:
    """One client request: an SSB query or a point lookup."""

    kind: str  # "query" | "lookup"
    name: str  # SSB query name, or the column a lookup targets
    indices: np.ndarray | None = None
    #: Simulated ms this request will wait in queue before giving up
    #: (``None``: wait forever).
    timeout_ms: float | None = None
    #: The query object itself — an ad-hoc :class:`SSBQuery` not in the
    #: registry, or resolved from ``name`` at admission.
    query: SSBQuery | None = None
    #: Stamped at admission: request id and the serving clock.
    id: int = field(default=-1, compare=False)
    submitted_ms: float = field(default=0.0, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in ("query", "lookup"):
            raise ValueError(f"unknown request kind {self.kind!r}")
        if self.kind == "query":
            if self.query is None:
                if self.name not in QUERIES:
                    raise ValueError(f"unknown SSB query {self.name!r}")
                self.query = QUERIES[self.name]
            else:
                self.name = self.query.name
        if self.kind == "lookup":
            if self.indices is None:
                raise ValueError("lookup requests need indices")
            # Checked (integers in range) and made int64 at admission.
            self.indices = np.asarray(self.indices)

    @property
    def batch_key(self) -> tuple:
        """Requests sharing this key execute as one group.

        Queries group by :meth:`SSBQuery.semantic_key`, not by name: two
        requests whose predicates canonicalize identically (however
        differently they were spelled) coalesce into one execution.
        """
        if self.kind == "query":
            return ("query", self.query.semantic_key())
        return ("lookup", self.name)


@dataclass
class ServedResult:
    """What a request resolves to."""

    request: ServeRequest
    status: str  # "ok" | "timeout" | "rejected" | "error"
    groups: dict[int, int] | None = None
    values: np.ndarray | None = None
    queue_wait_ms: float = 0.0
    execute_ms: float = 0.0
    #: Requests that shared this execution (1 = ran alone).
    batch_size: int = 1
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def latency_ms(self) -> float:
        """Simulated end-to-end latency: queue wait + execution."""
        return self.queue_wait_ms + self.execute_ms


@dataclass
class _Ticket:
    request: ServeRequest
    future: Future


class QueryServer:
    """Admits, batches and executes requests through one shard router."""

    def __init__(
        self,
        db: SSBDatabase,
        store: ColumnStore,
        budget_bytes: int | None = None,
        max_queue: int = 64,
        batch_window: int = 8,
        default_timeout_ms: float | None = None,
        metrics: MetricsRegistry | None = None,
        streaming: bool = False,
        stream_workers: int = 4,
        morsel_tiles: int | None = None,
        max_retries: int = 2,
        retry_backoff_ms: float = 5.0,
        verify_cached: bool = False,
        trim_arenas_when_idle: bool = True,
        semantic_cache: bool = False,
        semcache_budget_bytes: int | None = None,
        num_shards: int = 1,
        interconnect_gbps: float = 50.0,
        replicate_columns: tuple[str, ...] = (),
        tiering: "TieringPolicy | bool | None" = None,
        compiler: QueryCompiler | None = None,
    ):
        if max_queue <= 0:
            raise ValueError(f"max_queue must be positive, got {max_queue}")
        if batch_window <= 0:
            raise ValueError(f"batch_window must be positive, got {batch_window}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be non-negative, got {max_retries}")
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: Every group runs through the router: ``num_shards`` tile-range
        #: shards, each with its own device, pool and engine.
        self.router = ShardRouter(
            db,
            store,
            num_shards,
            budget_bytes=budget_bytes,
            metrics=self.metrics,
            stream_workers=stream_workers,
            morsel_tiles=morsel_tiles,
            interconnect_gbps=interconnect_gbps,
            streaming=streaming,
            verify_cached=verify_cached,
            semantic_cache=semantic_cache,
            semcache_budget_bytes=semcache_budget_bytes,
            replicate_columns=replicate_columns,
        )
        self.store = store
        # Shard 0 is the introspection point (pushdown flags, fault
        # hooks, ...); at one shard it is the whole device.
        shard = self.router.shards[0]
        self.device = shard.device
        self.engine = shard.engine
        self.pool = shard.pool
        self.semcache = shard.engine.semcache
        #: Workload-adaptive codec tiering: a background maintenance task
        #: that re-encodes columns between hot/warm/cold tiers from the
        #: decayed access counters this server records per group.  Pass
        #: ``True`` for the default policy or a :class:`TieringPolicy`.
        #: Maintenance runs on the scheduler thread's idle ticks (and on
        #: demand via ``tiering.run_once``); swaps publish through
        #: :meth:`_invalidate_column`, so engine caches, semantic-cache
        #: epochs, and every shard observe one consistent epoch.
        self.tiering: CodecTieringManager | None = None
        if tiering:
            policy = tiering if isinstance(tiering, TieringPolicy) else TieringPolicy()
            self.tiering = CodecTieringManager(
                store=store,
                engines=tuple(s.engine for s in self.router.shards),
                device=self.engine.device,
                metrics=self.metrics,
                policy=policy,
                invalidate=self._invalidate_column,
                clock=lambda: self.clock_ms,
            )
        #: Release streaming decode-arena scratch when the scheduler
        #: thread has seen the queue empty for consecutive waits.
        self.trim_arenas_when_idle = trim_arenas_when_idle
        # The process-global bit-packing backend, visible to scrapes next
        # to the latency series.
        self.metrics.set_info("kernel_backend", kernels.backend_name())
        self.max_queue = max_queue
        self.batch_window = batch_window
        self.default_timeout_ms = default_timeout_ms
        #: Bounded retries for transient decode failures, with simulated
        #: exponential backoff added to the group's execution time.
        self.max_retries = max_retries
        self.retry_backoff_ms = retry_backoff_ms
        #: Columns whose compressed source failed verification twice
        #: (initial decode and the re-decode-from-source fallback):
        #: requests touching them are answered with a structured error
        #: until :meth:`release_quarantine`.
        self._quarantined: dict[str, str] = {}

        #: Declarative front end: with a :class:`QueryCompiler` attached,
        #: :meth:`query` accepts ad-hoc :class:`~repro.query.model.Query`
        #: specs the registry has never seen.  Compilations cache per
        #: spec object; batching still keys on the *compiled plan's*
        #: canonical semantic key, so two structurally identical specs
        #: compiled separately coalesce into one execution.
        self.compiler = compiler
        self._compile_cache: dict[Query, "object"] = {}
        self._compile_lock = threading.Lock()

        self._state_lock = threading.Lock()
        self._not_empty = threading.Condition(self._state_lock)
        self._space_freed = threading.Condition(self._state_lock)
        self._queue: deque[_Ticket] = deque()
        self._engine_lock = threading.Lock()
        self._clock_ms = 0.0
        self._next_id = 0
        self._closed = False
        self._thread: threading.Thread | None = None

    # -- admission ---------------------------------------------------------

    @property
    def clock_ms(self) -> float:
        """The serving clock: simulated ms of work dispatched so far."""
        with self._state_lock:
            return self._clock_ms

    @property
    def queue_depth(self) -> int:
        with self._state_lock:
            return len(self._queue)

    def submit(self, request: ServeRequest, block_s: float | None = None) -> Future:
        """Admit one request; resolves to a :class:`ServedResult`.

        A full queue raises :class:`ServerSaturated` immediately, or
        after really waiting up to ``block_s`` seconds for space — the
        backpressure contract: the caller, not the server, buffers.  A
        lookup on an unknown column, or with indices that are not
        integers in ``[0, num_rows)``, raises :class:`ValueError`.
        """
        if request.kind == "lookup":
            if request.name not in self.store.columns:
                raise ValueError(f"unknown lookup column {request.name!r}")
            request.indices = self.router.check_indices(request.indices)
        with self._state_lock:
            if self._closed:
                raise ServerClosed("server is closed")
            if len(self._queue) >= self.max_queue and block_s is not None:
                deadline = time.monotonic() + block_s
                while len(self._queue) >= self.max_queue and not self._closed:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not self._space_freed.wait(remaining):
                        break
                if self._closed:
                    raise ServerClosed("server closed while waiting for space")
            if len(self._queue) >= self.max_queue:
                self.metrics.inc("server_rejected")
                raise ServerSaturated(
                    f"queue full ({self.max_queue} requests waiting)"
                )
            if request.timeout_ms is None:
                request.timeout_ms = self.default_timeout_ms
            request.id = self._next_id
            self._next_id += 1
            request.submitted_ms = self._clock_ms
            ticket = _Ticket(request, Future())
            self._queue.append(ticket)
            self.metrics.inc("server_admitted")
            self.metrics.gauge("server_queue_depth", len(self._queue))
            self.metrics.gauge_max("server_peak_queue_depth", len(self._queue))
            self._not_empty.notify()
            return ticket.future

    def compile(self, spec: Query) -> SSBQuery:
        """Compile a declarative spec through the attached compiler.

        Compiled plans cache per spec (specs are frozen/hashable), so a
        client resubmitting the same spec object — or an equal one —
        pays compilation once.
        """
        if self.compiler is None:
            raise ValueError(
                "this server has no QueryCompiler attached; pass compiler= "
                "to QueryServer to serve declarative Query specs"
            )
        with self._compile_lock:
            compiled = self._compile_cache.get(spec)
            if compiled is None:
                compiled = self.compiler.compile(spec)
                self._compile_cache[spec] = compiled
        return compiled

    def query(self, name: "str | SSBQuery | Query",
              timeout_ms: float | None = None,
              block_s: float | None = None) -> Future:
        """Submit one query: registry name, plan object, or declarative
        :class:`~repro.query.model.Query` spec (compiled on admission)."""
        if isinstance(name, Query):
            name = self.compile(name)
        if isinstance(name, SSBQuery):
            request = ServeRequest("query", name.name, query=name,
                                   timeout_ms=timeout_ms)
        else:
            request = ServeRequest("query", name, timeout_ms=timeout_ms)
        return self.submit(request, block_s=block_s)

    def lookup(self, column: str, indices: np.ndarray,
               timeout_ms: float | None = None,
               block_s: float | None = None) -> Future:
        """Submit one point lookup over a fact column."""
        return self.submit(
            ServeRequest("lookup", column, indices=indices, timeout_ms=timeout_ms),
            block_s=block_s,
        )

    def serve(self, requests: list[ServeRequest]) -> list[ServedResult]:
        """Synchronously push a workload through and collect every result.

        Works with or without a running scheduler thread: without one the
        caller's thread drains the queue whenever backpressure trips, and
        completely at the end.
        """
        futures: list[Future] = []
        for request in requests:
            while True:
                try:
                    futures.append(self.submit(request))
                    break
                except ServerSaturated:
                    if self._thread is None:
                        self.drain()
                    else:
                        time.sleep(0.001)
        if self._thread is None:
            self.drain()
        return [f.result() for f in futures]

    # -- scheduling --------------------------------------------------------

    def start(self) -> None:
        """Run the scheduler in a background thread."""
        with self._state_lock:
            if self._closed:
                raise ServerClosed("server is closed")
            if self._thread is not None:
                return
            self._thread = threading.Thread(
                target=self._serve_loop, name="query-server", daemon=True
            )
        self._thread.start()

    def stop(self, drain: bool = True) -> None:
        """Stop accepting requests; optionally finish the queued ones."""
        with self._state_lock:
            self._closed = True
            self._not_empty.notify_all()
            self._space_freed.notify_all()
            thread = self._thread
            self._thread = None
        if thread is not None:
            thread.join()
        if self.tiering is not None:
            self.tiering.stop()
        if drain:
            self.drain()
        else:
            while True:
                batch = self._take_batch()
                if not batch:
                    break
                for ticket in batch:
                    ticket.future.set_result(
                        ServedResult(ticket.request, "rejected",
                                     error="server stopped")
                    )
        self.router.close()

    def drain(self) -> int:
        """Process everything currently queued on the calling thread."""
        processed = 0
        while True:
            batch = self._take_batch()
            if not batch:
                return processed
            self._process(batch)
            processed += len(batch)

    def _serve_loop(self) -> None:
        idle_waits = 0
        while True:
            with self._state_lock:
                while not self._queue and not self._closed:
                    self._not_empty.wait(0.05)
                    idle_waits += 1
                    if idle_waits == 2 and self.trim_arenas_when_idle:
                        # Two consecutive empty waits: the burst is over.
                        # Release decode-arena scratch exactly once per
                        # idle period (the counter keeps climbing until
                        # work arrives, so longer idling never re-trims).
                        break
                else:
                    idle_waits = 0
                if self._closed and not self._queue:
                    return
                stop_after = self._closed
            if idle_waits == 2 and not self.queue_depth:
                self.trim_idle()
                if self.tiering is not None:
                    self.tiering.maybe_run()
                continue
            batch = self._take_batch()
            if batch:
                self._process(batch)
            if stop_after and not self.queue_depth:
                return

    def trim_idle(self, max_bytes: int = 0) -> int:
        """Release streaming decode-arena scratch down to ``max_bytes``.

        Called by the scheduler thread when the queue has stayed empty,
        and callable directly between workload bursts.  Worker arenas
        grow to the largest column chunk ever decoded; between bursts
        that memory serves nobody.  Returns the bytes released.
        """
        with self._engine_lock:
            released = self.router.trim_arenas(max_bytes)
        if released:
            self.metrics.inc("arena_trim_releases")
            self.metrics.inc("arena_trimmed_bytes", released)
        return released

    def _take_batch(self) -> list[_Ticket]:
        with self._state_lock:
            batch = []
            while self._queue and len(batch) < self.batch_window:
                batch.append(self._queue.popleft())
            if batch:
                self.metrics.gauge("server_queue_depth", len(self._queue))
                self._space_freed.notify_all()
            return batch

    # -- execution ---------------------------------------------------------

    def _process(self, batch: list[_Ticket]) -> None:
        groups: dict[tuple, list[_Ticket]] = {}
        for ticket in batch:
            groups.setdefault(ticket.request.batch_key, []).append(ticket)
        for tickets in groups.values():
            # Any member's request describes the whole group: equal batch
            # keys mean semantically identical work.
            rep = tickets[0].request
            with self._state_lock:
                start_ms = self._clock_ms
            live = self._expire(tickets, start_ms)
            if not live:
                continue
            if self.tiering is not None:
                self.tiering.record_access(
                    self._group_columns(rep), amount=float(len(live)), at=start_ms
                )
            blocked = [
                c for c in self._group_columns(rep) if c in self._quarantined
            ]
            if blocked:
                reason = self._quarantined[blocked[0]]
                for ticket in live:
                    self.metrics.inc("server_quarantine_rejections")
                    ticket.future.set_result(
                        ServedResult(
                            ticket.request,
                            "error",
                            error=f"column {blocked[0]!r} quarantined: {reason}",
                        )
                    )
                continue
            try:
                execute_ms, payloads = self._execute_group_resilient(rep, live)
            except PoolAdmissionError as exc:
                for ticket in live:
                    self.metrics.inc("server_pool_rejections")
                    ticket.future.set_result(
                        ServedResult(ticket.request, "rejected", error=str(exc))
                    )
                continue
            except CorruptTileError as exc:
                # Persistent corruption: the re-decode-from-source
                # fallback failed too, so the source bytes themselves are
                # bad.  Quarantine the column and answer with a
                # structured error instead of crashing the scheduler.
                self._quarantine(exc)
                for ticket in live:
                    ticket.future.set_result(
                        ServedResult(ticket.request, "error", error=str(exc))
                    )
                continue
            except TransientDecodeError as exc:
                # Still failing after max_retries backoffs.
                for ticket in live:
                    self.metrics.inc("server_transient_failures")
                    ticket.future.set_result(
                        ServedResult(ticket.request, "error", error=str(exc))
                    )
                continue
            except Exception as exc:
                # Anything else is a bug in one group's execution: answer
                # its requesters and keep the scheduler serving the rest.
                for ticket in live:
                    self.metrics.inc("server_errors")
                    ticket.future.set_result(
                        ServedResult(
                            ticket.request,
                            "error",
                            error=f"{type(exc).__name__}: {exc}",
                        )
                    )
                continue
            with self._state_lock:
                self._clock_ms = start_ms + execute_ms
                self.metrics.gauge("server_clock_ms", self._clock_ms)
            self.metrics.inc("server_batches")
            if len(live) > 1:
                self.metrics.inc("server_batched_requests", len(live) - 1)
            for ticket, payload in zip(live, payloads):
                wait = start_ms - ticket.request.submitted_ms
                result = ServedResult(
                    ticket.request,
                    "ok",
                    queue_wait_ms=wait,
                    execute_ms=execute_ms,
                    batch_size=len(live),
                    **payload,
                )
                self.metrics.inc("server_served")
                self.metrics.observe("latency_ms", result.latency_ms)
                self.metrics.observe("queue_wait_ms", wait)
                self.metrics.observe("execute_ms", execute_ms)
                ticket.future.set_result(result)
        # Tier maintenance between batches: re-encoding runs here, off
        # the query path (no ticket is waiting on this thread), and
        # publication is the store's atomic epoch-checked swap.
        if self.tiering is not None:
            self.tiering.maybe_run()

    def _expire(self, tickets: list[_Ticket], now_ms: float) -> list[_Ticket]:
        live = []
        for ticket in tickets:
            timeout = ticket.request.timeout_ms
            wait = now_ms - ticket.request.submitted_ms
            if timeout is not None and wait > timeout:
                self.metrics.inc("server_timeouts")
                ticket.future.set_result(
                    ServedResult(ticket.request, "timeout", queue_wait_ms=wait)
                )
            else:
                live.append(ticket)
        return live

    @staticmethod
    def _group_columns(request: ServeRequest) -> tuple[str, ...]:
        """The store columns a request's group will touch."""
        if request.kind == "query":
            return request.query.columns
        return (request.name,)

    def _execute_group_resilient(
        self, rep: ServeRequest, live: list[_Ticket]
    ) -> tuple[float, list[dict]]:
        """Run one group with bounded retry and corruption recovery.

        Transient failures (:class:`TransientDecodeError`) are retried up
        to ``max_retries`` times with simulated exponential backoff added
        to the group's execution time.  Corruption
        (:class:`CorruptTileError`) triggers one re-decode-from-source
        per column — the cached decoded image is invalidated and the
        group re-executes against the compressed bytes; if the same
        column fails again the source itself is bad and the error
        propagates (the caller quarantines it).
        """
        attempts = 0
        backoff_ms = 0.0
        redecoded: set[str] = set()
        while True:
            try:
                with self._engine_lock:
                    if rep.kind == "query":
                        execute_ms, payloads = self._run_query_group(rep.query, live)
                    else:
                        execute_ms, payloads = self._run_lookup_group(rep.name, live)
                return execute_ms + backoff_ms, payloads
            except TransientDecodeError:
                self.metrics.inc("server_transient_retries")
                if attempts >= self.max_retries:
                    raise
                backoff_ms += self.retry_backoff_ms * (2.0 ** attempts)
                attempts += 1
            except CorruptTileError as exc:
                self.metrics.inc("server_checksum_failures")
                if exc.column in redecoded:
                    raise
                redecoded.add(exc.column)
                self.metrics.inc("server_corruption_redecodes")
                self._invalidate_column(exc.column)

    def _invalidate_column(self, column: str) -> None:
        """Drop cached derivatives of a column — on every shard."""
        self.router.invalidate_column(column)

    def _quarantine(self, exc: CorruptTileError) -> None:
        """Record a column as persistently corrupt and drop its images."""
        self._quarantined[exc.column] = exc.reason
        self.metrics.inc("server_quarantines")
        self.metrics.gauge("server_quarantined_columns", len(self._quarantined))
        self._invalidate_column(exc.column)

    def quarantined_columns(self) -> dict[str, str]:
        """Currently quarantined columns mapped to their failure reason."""
        return dict(self._quarantined)

    def release_quarantine(self, column: str) -> bool:
        """Lift a quarantine (e.g. after the source bytes were repaired).

        Returns True if the column was quarantined.
        """
        present = self._quarantined.pop(column, None) is not None
        self.metrics.gauge("server_quarantined_columns", len(self._quarantined))
        return present

    def _run_query_group(
        self, query: SSBQuery, tickets: list[_Ticket]
    ) -> tuple[float, list[dict]]:
        # Placement pins each shard's slice; the router's clock (slowest
        # routed shard + interconnect merge) is the group's execution time.
        with self.router.pinned(query.columns) as place_ms:
            groups, sim_ms = self.router.execute(query)
        return place_ms + sim_ms, [{"groups": dict(groups)} for _ in tickets]

    def _run_lookup_group(
        self, name: str, tickets: list[_Ticket]
    ) -> tuple[float, list[dict]]:
        all_indices = np.concatenate([t.request.indices for t in tickets])
        with self.router.pinned((name,)) as place_ms:
            fetched, sim_ms = self.router.lookup(name, all_indices)
        payloads = []
        offset = 0
        for ticket in tickets:
            n = ticket.request.indices.size
            payloads.append({"values": fetched[offset : offset + n]})
            offset += n
        return place_ms + sim_ms, payloads

    def metrics_snapshot(self) -> dict:
        """Server + pool metrics as one flat dict."""
        return self.metrics.snapshot()
