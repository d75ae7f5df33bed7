"""Span recorder installed at runtime on the program's public entry points.

Nothing under ``src/`` knows about it: :meth:`Tracer.install` replaces
methods with timing wrappers and :meth:`Tracer.uninstall` restores them.
Wrapped, by layer:

* ``formats`` - every registered :class:`TileCodec`'s decode and encode
  methods, and the active bit-unpacking backend's ``unpack*`` methods;
* ``core`` - ``choose_gpu_star`` where ``ssb.loader`` and ``core.updates``
  import it, ``gather`` where ``serving.scheduler`` imports it, and
  ``UpdatableColumn.flush``;
* ``query`` - ``QueryCompiler.compile``;
* ``engine`` - ``CrystalEngine.run`` / ``build_lookup`` /
  ``invalidate_column``, the :class:`FactPipeline` operators together
  with every subclass override, and ``TileStreamExecutor.plan`` /
  ``run_morsels`` / ``merge_parts``.

A span is ``(id, parent, name, start, end, op, thread, n)``: ``n`` is a
work count (values decoded, tiles gathered, morsels run, ...) or ``None``.
Spans nest through a per-thread stack; a span opened on a morsel worker
thread with an empty stack is parented to the ``run_morsels`` span that
fanned the work out.  Spans are appended to an in-memory list and written
once, at the end of the run.
"""

from __future__ import annotations

import bisect
import functools
import inspect
import itertools
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np

from repro.core import updates
from repro.engine.crystal import CrystalEngine, FactPipeline
from repro.engine.streaming import TileStreamExecutor
from repro.formats import kernels
from repro.formats.base import TileCodec
from repro.formats.registry import codec_names, get_codec, is_tile_codec
from repro.query.compiler import QueryCompiler
from repro.serving import scheduler
from repro.ssb import loader

SPAN_FIELDS = ("id", "parent", "name", "start", "end", "op", "thread", "n")

DECODE_METHODS = (
    "decode", "decode_tile", "decode_tiles", "decode_range",
    "decode_tiles_into", "decode_range_into",
)
#: FactPipeline operator -> span name.
PIPELINE_OPS = {
    "load": "engine.load",
    "filter_pushdown": "engine.pushdown",
    "filter": "engine.filter",
    "filter_predicate": "engine.filter",
    "probe": "engine.probe",
    "group_sum": "engine.aggregate",
    "total_sum": "engine.aggregate",
    "total_sum_product": "engine.aggregate",
    "group_aggregate": "engine.aggregate",
}
#: Spans a served request's execution is one of (the service time).
SERVICE_SPANS = ("engine.run", "core.gather")


def _size(result) -> int:
    return int(result) if isinstance(result, (int, np.integer)) else int(result.size)


def _unpack_count(args, result) -> int:
    return int(args[1])


def _strided_count(args, result) -> int:
    return int(args[2]) * int(args[5])


def _pushdown_tiles(args, result):
    """(active, total) tiles after a full-table pushdown; None on morsels."""
    pipe = args[0]
    active = getattr(pipe, "global_tile_active", None)
    if active is None:
        if type(pipe) is not FactPipeline:
            return None  # a morsel's slice of a plan already counted
        active = pipe.tile_active
    return (int(np.count_nonzero(active)), int(pipe.engine.num_tiles))


class Tracer:
    """Records spans around the program's layer boundaries."""

    def __init__(self):
        self.spans: list[tuple] = []
        #: ``last_stream_stats`` after every streaming ``engine.run``.
        self.stream_stats: list[dict] = []
        #: Id stamped on spans: the benchmark sets it before each op of a
        #: closed loop; it stays -1 where requests are batched.
        self.op = -1
        self._ids = itertools.count()
        self._tls = threading.local()
        self._main = threading.main_thread().ident
        self._fanout: tuple[int, int] | None = None
        self._undo: list[tuple[object, str, object, bool]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int | None:
        if stack:
            return stack[-1]
        fanout = self._fanout
        ident = threading.get_ident()
        if fanout is not None and ident != fanout[1] and ident != self._main:
            return fanout[0]
        return None

    def wrap(self, fn, name, count=None, after=None, fanout=False):
        """A timing wrapper around ``fn``.

        ``name`` is a span name or a function of the call's arguments;
        ``count(args, result)`` gives the span's work count; ``after(args)``
        runs once the call returns; ``fanout`` marks ``run_morsels``.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = tracer._parent(stack)
            sid = next(tracer._ids)
            label = name if isinstance(name, str) else name(args)
            stack.append(sid)
            if fanout:
                outer, tracer._fanout = tracer._fanout, (sid, threading.get_ident())
            n = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    n = count(args, result)
            finally:
                end = perf_counter()
                if fanout:
                    tracer._fanout = outer
                stack.pop()
                tracer.spans.append(
                    (sid, parent, label, start, end, tracer.op, threading.get_ident(), n)
                )
            if after is not None:
                after(args)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        own = vars(owner)
        self._undo.append((owner, attr, own.get(attr), attr in own))
        setattr(owner, attr, value)

    def _patch_method(self, cls, attr: str, name, count=None, after=None, fanout=False):
        raw = inspect.getattr_static(cls, attr)
        if isinstance(raw, staticmethod):
            wrapped = staticmethod(self.wrap(raw.__func__, name, count, after, fanout))
        else:
            wrapped = self.wrap(raw, name, count, after, fanout)
        self._patch(cls, attr, wrapped)

    def install(self) -> None:
        """Wrap every traced entry point; :meth:`uninstall` restores them."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        codec_classes = {TileCodec} | {
            type(get_codec(n)) for n in codec_names() if is_tile_codec(n)
        }
        for cls in codec_classes:
            own = vars(cls)
            for attr in DECODE_METHODS:
                if attr in own:
                    self._patch_method(
                        cls, attr, lambda a: "formats.decode:" + a[0].name,
                        count=lambda a, r: _size(r),
                    )
            if "decode_filter_tiles_into" in own:
                self._patch_method(
                    cls, "decode_filter_tiles_into",
                    lambda a: "formats.decode_filter:" + a[0].name,
                    count=lambda a, r: _size(r),
                )
            if "encode" in own:
                self._patch_method(
                    cls, "encode", lambda a: "formats.encode:" + a[0].name,
                    count=lambda a, r: int(np.asarray(a[1]).size),
                )
        backend = kernels.get_backend()
        for attr, count in (
            ("unpack", _unpack_count), ("unpack_into", _unpack_count),
            ("unpack_strided", _strided_count), ("unpack_strided_into", _strided_count),
        ):
            self._patch(backend, attr, self.wrap(getattr(backend, attr), "formats.unpack", count))

        choose = self.wrap(loader.choose_gpu_star, "core.choose_codec")
        self._patch(loader, "choose_gpu_star", choose)
        self._patch(updates, "choose_gpu_star", choose)
        self._patch(scheduler, "gather", self.wrap(
            scheduler.gather, "core.gather", count=lambda a, r: r.tiles_touched
        ))
        self._patch_method(updates.UpdatableColumn, "flush", "core.flush")
        self._patch_method(QueryCompiler, "compile", "query.compile")

        self._patch_method(CrystalEngine, "run", "engine.run", after=self._after_run)
        self._patch_method(CrystalEngine, "build_lookup", "engine.build_lookup")
        self._patch_method(CrystalEngine, "invalidate_column", "engine.invalidate")
        pipelines, pending = [], [FactPipeline]
        while pending:
            cls = pending.pop()
            pipelines.append(cls)
            pending.extend(cls.__subclasses__())
        for cls in pipelines:
            for attr, name in PIPELINE_OPS.items():
                if attr in vars(cls):
                    count = _pushdown_tiles if attr == "filter_pushdown" else None
                    self._patch_method(cls, attr, name, count=count)
        self._patch_method(TileStreamExecutor, "plan", "engine.stream.plan")
        self._patch_method(
            TileStreamExecutor, "run_morsels", "engine.stream.morsels",
            count=lambda a, r: len(a[2]), fanout=True,
        )
        self._patch_method(TileStreamExecutor, "merge_parts", "engine.stream.merge")

    def uninstall(self) -> None:
        for owner, attr, old, had in reversed(self._undo):
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)
        self._undo.clear()

    def _after_run(self, args) -> None:
        engine = args[0]
        if engine.uses_streaming():
            self.stream_stats.append(dict(engine.last_stream_stats))

    # -- analysis ----------------------------------------------------------

    def service_times(self) -> tuple[list[float], list[float]]:
        """End times and durations of request-executing spans, by end time."""
        spans = sorted(
            (s[4], s[4] - s[3]) for s in self.spans
            if s[1] is None and s[2] in SERVICE_SPANS
        )
        return [s[0] for s in spans], [s[1] for s in spans]

    def rows(self) -> list[list]:
        """Spans as JSON-ready rows (times in ms from the first span)."""
        if not self.spans:
            return []
        t0 = min(s[3] for s in self.spans)
        return [
            [s[0], s[1], s[2], round((s[3] - t0) * 1e3, 4), round((s[4] - t0) * 1e3, 4),
             s[5], s[6], s[7]]
            for s in sorted(self.spans, key=lambda s: s[0])
        ]


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> duration minus the part its children's union covers."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s[1] is not None:
            children[s[1]].append((s[3], s[4]))
    out = {}
    for sid, _, _, start, end, *_ in spans:
        covered, reach = 0.0, start
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[sid] = (end - start) - covered
    return out


def queue_waits(tracer: Tracer, due: list[float], done: list[float]) -> tuple[list, list]:
    """Wall-clock queue wait and service time of each served request.

    Service is the duration of the last request-executing span that ended
    before the request's future resolved; the wait is the rest of
    ``done - due``.
    """
    ends, durations = tracer.service_times()
    waits, services = [], []
    for d, t in zip(due, done):
        i = bisect.bisect_right(ends, t) - 1
        service = durations[i] if i >= 0 else 0.0
        services.append(service * 1e3)
        waits.append((t - d - service) * 1e3)
    return waits, services


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced phase, normalized per op.

    ``*.ms`` metrics are self time (duration minus traced children) per op,
    except ``formats.decode.ms``, ``formats.decode_filter.ms``,
    ``formats.unpack.ms`` and ``formats.encode.ms``, which time the
    outermost span of their kind including its unpack children.
    """
    spans = tracer.spans
    ops = max(ops, 1)
    selfs = self_times(spans)
    by_id = {s[0]: s for s in spans}

    def kind(name: str) -> str:
        return name.split(":", 1)[0]

    def parent_kind(s) -> str:
        parent = by_id.get(s[1])
        return "" if parent is None else kind(parent[2])

    self_ms: dict[str, float] = defaultdict(float)
    outer_ms: dict[str, float] = defaultdict(float)
    outer_n: dict[str, int] = defaultdict(int)
    decode_family = ("formats.decode", "formats.decode_filter")
    for s in spans:
        name, k = s[2], kind(s[2])
        self_ms[name] += selfs[s[0]] * 1e3
        if k in decode_family:
            self_ms["codec:" + name.split(":", 1)[1]] += selfs[s[0]] * 1e3
        pk = parent_kind(s)
        if (pk not in decode_family) if k in decode_family else (pk != k):
            outer_ms[k] += (s[4] - s[3]) * 1e3
            if isinstance(s[7], (int, np.integer)):
                outer_n[k] += int(s[7])

    def per_op(value: float) -> float:
        return value / ops

    m: dict[str, tuple[float, str]] = {}
    for k in ("formats.decode", "formats.decode_filter", "formats.unpack", "formats.encode"):
        m[k + ".ms"] = (per_op(outer_ms[k]), "ms/op")
        m[k + ".values"] = (per_op(outer_n[k]), "values/op")
    decode_s = outer_ms["formats.decode"] / 1e3
    m["formats.decode.gvals_s"] = (
        outer_n["formats.decode"] / decode_s / 1e9 if decode_s else 0.0, "Gvalues/s"
    )
    for codec in ("gpu-for", "gpu-dfor", "gpu-rfor"):
        m[f"formats.decode.{codec}.ms"] = (per_op(self_ms["codec:" + codec]), "ms/op")

    for metric, span in (
        ("core.choose_codec.ms", "core.choose_codec"),
        ("core.flush.ms", "core.flush"),
        ("core.gather.ms", "core.gather"),
        ("query.compile.ms", "query.compile"),
        ("engine.run.ms", "engine.run"),
        ("engine.load.ms", "engine.load"),
        ("engine.pushdown.ms", "engine.pushdown"),
        ("engine.filter.ms", "engine.filter"),
        ("engine.probe.ms", "engine.probe"),
        ("engine.aggregate.ms", "engine.aggregate"),
        ("engine.build_lookup.ms", "engine.build_lookup"),
        ("engine.invalidate.ms", "engine.invalidate"),
        ("engine.stream.plan.ms", "engine.stream.plan"),
        ("engine.stream.morsels.ms", "engine.stream.morsels"),
        ("engine.stream.merge.ms", "engine.stream.merge"),
    ):
        m[metric] = (per_op(self_ms[span]), "ms/op")

    gathered = sum(s[7] for s in spans if s[2] == "core.gather" and s[7] is not None)
    m["core.gather.tiles"] = (per_op(gathered), "tiles/op")
    pushdowns = [s[7] for s in spans if s[2] == "engine.pushdown" and s[7] is not None]
    total = sum(t for _, t in pushdowns)
    m["engine.tiles_active_frac"] = (
        sum(a for a, _ in pushdowns) / total if total else 0.0, "frac"
    )
    morsels = sum(s[7] for s in spans if s[2] == "engine.stream.morsels")
    m["engine.stream.morsels"] = (per_op(morsels), "morsels/op")
    stats = tracer.stream_stats
    morsel_ms = [ms for st in stats for ms in st.get("morsel_ms", ())]
    m["engine.stream.morsel_ms"] = (
        float(np.mean(morsel_ms)) if morsel_ms else 0.0, "ms"
    )
    execute_ms = sum(st.get("execute_ms", 0.0) for st in stats)
    m["engine.stream.concurrency"] = (
        sum(morsel_ms) / execute_ms if execute_ms else 0.0, "ratio"
    )
    m["engine.stream.peak_decoded_bytes"] = (
        float(max((st.get("peak_decoded_bytes", 0) for st in stats), default=0)),
        "B",
    )
    return m
