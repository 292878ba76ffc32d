"""Span tracing of pacloud's layers from outside the program.

``Tracer.install()`` replaces each traced callable where its callers look
it up: a module-level function in every ``pacloud`` module that binds it
(``pacloud.client.resolve_runtime_closure``, not only the resolver's own
name), and a method or classmethod on its class. ``Tracer.restore()`` puts
every original back. Nothing under ``src/`` is edited.

Each call becomes a span: name, start, end, parent span and op id. Spans
are kept in memory (up to a cap, beyond which only the aggregates grow)
and written out by ``dump_spans``. A span's self time is its duration
minus the time its child spans cover; the op's own span is the root of
each op, so the self times of an op's spans sum to its traced wall time
and the root's self time is the part no wrapped callable covers
(``unattributed``). A ``handle_request`` running on the server thread has
no parent on its own thread; it takes the client's open ``exchange`` span
as its parent, which is blocked for the whole time the handler runs.
"""
from __future__ import annotations

import functools
import json
import sys
import threading
import time
import weakref
from collections import Counter, defaultdict
from pathlib import Path

SPAN_CAP = 100_000

# (layer, span name, "module:attribute path"). A module-level function is
# replaced in every pacloud module that binds the same object.
WRAPS: tuple[tuple[str, str, str], ...] = (
    ("core", "core.parse", "pacloud.core:BuildKey.parse"),
    ("core", "core.parse", "pacloud.core:PackageId.parse"),
    ("core", "core.parse", "pacloud.core:parse_version"),
    ("depparse", "depparse.parse", "pacloud.depparse:parse_dep_string"),
    ("depparse", "depparse.eval", "pacloud.depparse:eval_use_conditionals"),
    ("resolver", "resolver.resolve", "pacloud.resolver:resolve_runtime_closure"),
    ("resolver", "resolver.orphans", "pacloud.resolver:compute_orphans"),
    ("localdb", "localdb.get_metadata", "pacloud.localdb:LocalDb.get_metadata"),
    ("localdb", "localdb.iter_packages", "pacloud.localdb:LocalDb.iter_packages"),
    ("localdb", "localdb.metadata_read", "pacloud.localdb:PackageMetadata.from_document"),
    ("localdb", "localdb.metadata_write", "pacloud.localdb:dump_document"),
    ("localdb", "localdb.record_install", "pacloud.localdb:LocalDb.record_install"),
    ("localdb", "localdb.record_removal", "pacloud.localdb:LocalDb.record_removal"),
    ("localdb", "localdb.search", "pacloud.localdb:LocalDb.search"),
    ("localdb", "localdb.sync", "pacloud.localdb:LocalDb.sync"),
    ("localdb", "localdb.archive_get", "pacloud.localdb:LocalDb.archive_get"),
    ("localdb", "localdb.archive_put", "pacloud.localdb:LocalDb.archive_put"),
    ("client", "client.verb", "pacloud.client:Client.install"),
    ("client", "client.verb", "pacloud.client:Client.remove"),
    ("client", "client.verb", "pacloud.client:Client.search"),
    ("client", "client.verb", "pacloud.client:Client.update"),
    ("client", "client.await", "pacloud.client:await_package"),
    ("client", "client.request", "pacloud.client:request_package"),
    ("client", "client.fetch", "pacloud.localdb:DirectoryStore.fetch_artifact"),
    ("client", "client.unpack", "pacloud.client:unpack_archive"),
    ("wire", "wire.exchange", "pacloud.client:TcpTransport.exchange"),
    ("service", "service.handle", "pacloud.farm.service:RequestService.handle_request"),
    ("queue", "queue.send", "pacloud.farm.queue:CompileQueue.send"),
    ("queue", "queue.receive", "pacloud.farm.queue:CompileQueue.receive"),
    ("queue", "queue.renew", "pacloud.farm.queue:CompileQueue.renew"),
    ("queue", "queue.delete", "pacloud.farm.queue:CompileQueue.delete"),
    ("stores", "records.pending_keys", "pacloud.farm.stores:BuildRecordStore.pending_keys"),
    ("stores", "records.create_pending", "pacloud.farm.stores:BuildRecordStore.create_pending"),
    ("stores", "records.finalize", "pacloud.farm.stores:BuildRecordStore.finalize_built"),
    ("stores", "records.finalize", "pacloud.farm.stores:BuildRecordStore.finalize_failed"),
    ("stores", "artifacts.put", "pacloud.farm.stores:ArtifactStore.put"),
    ("farm", "farm.init", "pacloud.farm:BuildFarm.__init__"),
    ("farm", "farm.loop", "pacloud.farm:BuildFarm.run_until_settled"),
    ("farm", "farm.loop", "pacloud.farm:BuildFarm.advance_to"),
    ("farm", "farm.next_event", "pacloud.farm:BuildFarm.next_event_time"),
    ("farm", "farm.step", "pacloud.farm.worker:Worker.step"),
    ("farm", "farm.executor", "pacloud.farm.worker:ExecutorFactory.__call__"),
    ("bench", "bench.makespan", "pacloud.bench:run_makespan"),
)

LAYER_OF = {name: layer for layer, name, _ in WRAPS}
LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in WRAPS))
OP_LAYER = "op"

# Generator functions: their body runs in the consumer's frames, so they
# are counted, not timed.
COUNT_ONLY = {"localdb.iter_packages"}
QUEUE_MUTATORS = {"queue.send", "queue.receive", "queue.renew", "queue.delete"}


def _wchar() -> int:
    """Bytes this process has passed to write(2) so far (Linux only)."""
    with open("/proc/self/io", "rb") as fh:
        for line in fh:
            if line.startswith(b"wchar:"):
                return int(line.split()[1])
    raise OSError("no wchar line in /proc/self/io")


class Tracer:
    """Wraps pacloud callables, records spans and per-name aggregates."""

    def __init__(self, count_io: bool = False):
        self.count_io = count_io
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.buckets: dict[str, dict] = {}
        self.bucket: dict | None = None  # set by use_bucket before any call
        self.op_id = 0
        self.exchange_frame: list | None = None
        self._local = threading.local()
        self._seq = 0
        self._restore: list[tuple[object, str, object]] = []
        self._queues: "weakref.WeakKeyDictionary[object, int]" = (
            weakref.WeakKeyDictionary()
        )

    # --- buckets: setup and measured cycles are aggregated apart ---

    def use_bucket(self, name: str) -> dict:
        self.bucket = self.buckets.setdefault(
            name,
            {
                # (span name, parent span name) -> [count, inclusive, self]
                "stats": defaultdict(lambda: [0, 0.0, 0.0]),
                "counts": Counter(),
                "samples": defaultdict(list),
                "docs": [],
                "depth_max": 0,
            },
        )
        return self.bucket

    # --- frames ---

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else self.exchange_frame
        self._seq += 1
        # [span id, name, start, covered by children, parent frame]
        frame = [self._seq, name, 0.0, 0.0, parent]
        stack.append(frame)
        frame[2] = time.perf_counter()
        return frame

    def _close(self, frame: list) -> float:
        end = time.perf_counter()
        self._stack().pop()
        span_id, name, start, covered, parent = frame
        duration = end - start
        parent_name = None
        if parent is not None:
            parent[3] += duration
            parent_name = parent[1]
        stat = self.bucket["stats"][(name, parent_name)]
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - covered
        if len(self.spans) < SPAN_CAP:
            self.spans.append(
                (span_id, name, start, end,
                 parent[0] if parent is not None else None, self.op_id)
            )
        else:
            self.spans_dropped += 1
        return duration

    def op(self, op_name: str) -> "_OpSpan":
        """Root span of one timed op; its self time is unattributed."""
        self.op_id += 1
        return _OpSpan(self, f"op.{op_name}")

    # --- wrapping ---

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        for _layer, name, target in WRAPS:
            module_name, _, path = target.partition(":")
            module = sys.modules[module_name]
            if "." in path:
                class_name, attr = path.split(".")
                owner = getattr(module, class_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrapper(raw.__func__, name))
                else:
                    wrapped = self._wrapper(raw, name)
                self._replace(owner, attr, raw, wrapped)
            else:
                original = getattr(module, path)
                wrapped = self._wrapper(original, name)
                for mod_name, mod in sorted(sys.modules.items()):
                    if mod_name.split(".")[0] != "pacloud":
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._replace(mod, attr, original, wrapped)

    def _replace(self, owner: object, attr: str, raw: object, wrapped: object) -> None:
        self._restore.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def restore(self) -> None:
        """Put back every original callable, newest replacement first."""
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _wrapper(self, fn, name: str):
        tracer = self
        if name in COUNT_ONLY:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                tracer.bucket["counts"][name] += 1
                return fn(*args, **kwargs)

            counted.__perfbench_wrapped__ = fn
            return counted

        before_hook, after_hook = _OBSERVERS.get(name, (None, None))
        measure_io = self.count_io and name in QUEUE_MUTATORS
        is_exchange = name == "wire.exchange"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = before_hook(tracer, args) if before_hook else None
            io_start = _wchar() if measure_io else 0
            frame = tracer._open(name)
            if is_exchange:
                outer, tracer.exchange_frame = tracer.exchange_frame, frame
            try:
                result = fn(*args, **kwargs)
            finally:
                if is_exchange:
                    tracer.exchange_frame = outer
                duration = tracer._close(frame)
            if measure_io:
                tracer.bucket["counts"]["queue.persist_bytes"] += _wchar() - io_start
            if after_hook:
                after_hook(tracer.bucket, args, result, before, frame, duration)
            return result

        wrapper.__perfbench_wrapped__ = fn
        return wrapper

    # --- queue bookkeeping that needs the instances ---

    def note_queue(self, queue) -> None:
        if queue not in self._queues:
            self._queues[queue] = len(queue.dead_letters())

    def collect_dead_letters(self) -> None:
        """Count dead letters added since the queues were last seen."""
        for queue in list(self._queues.keys()):
            now = len(queue.dead_letters())
            self.bucket["counts"]["queue.dead_letters"] += now - self._queues[queue]
            self._queues[queue] = now

    # --- output ---

    def dump_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, op in self.spans:
                fh.write(
                    json.dumps(
                        {"id": span_id, "name": name, "start": start,
                         "end": end, "parent": parent, "op": op}
                    )
                    + "\n"
                )


class _OpSpan:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name
        self.frame: list | None = None
        self.duration = 0.0

    def __enter__(self) -> "_OpSpan":
        self.frame = self.tracer._open(self.name)
        return self

    def __exit__(self, *exc) -> None:
        self.duration = self.tracer._close(self.frame)
        self.tracer.collect_dead_letters()


def _status_counter(prefix: str):
    def after(bucket, args, result, before, frame, duration):
        bucket["counts"][f"{prefix}.{result.status}"] += 1
        if frame[4] is not None and frame[4][1] == "client.await":
            bucket["counts"]["client.polls"] += 1
            if result.status == "pending":
                bucket["counts"]["client.polls_pending"] += 1

    return after


def _queue_seen(tracer, args):
    tracer.note_queue(args[0])


def _after_send(bucket, args, result, before, frame, duration):
    bucket["depth_max"] = max(bucket["depth_max"], args[0].depth())


def _after_receive(bucket, args, result, before, frame, duration):
    if result is None:
        bucket["counts"]["queue.receive_empty"] += 1
        if frame[4] is not None and frame[4][1] == "farm.step":
            bucket["counts"]["farm.idle_polls"] += 1
    elif result[0].receive_count > 1:
        bucket["counts"]["queue.redeliveries"] += 1


def _after_handle_op(bucket, args, result, before, frame, duration):
    if result is False:
        bucket["counts"]["queue.stale_handles"] += 1


def _after_create(bucket, args, result, before, frame, duration):
    if result:
        bucket["counts"]["records.writes"] += 1


def _after_finalize(bucket, args, result, before, frame, duration):
    bucket["counts"]["records.writes"] += 1


def _before_put(tracer, args):
    store, key = args[0], args[1]
    return store.get(key) is not None


def _after_put(bucket, args, result, duplicate, frame, duration):
    if duplicate:
        bucket["counts"]["artifacts.duplicate_puts"] += 1


def _after_archive_get(bucket, args, result, before, frame, duration):
    bucket["counts"]["localdb.archive_hits" if result is not None
                     else "localdb.archive_misses"] += 1


def _after_fetch(bucket, args, result, before, frame, duration):
    bucket["counts"]["client.fetch_bytes"] += len(result)


def _after_exchange(bucket, args, result, before, frame, duration):
    bucket["samples"]["wire.exchange"].append(duration)
    bucket["docs"].append((args[1], result))


# Per-name hooks that turn arguments and results into counters:
# span name -> (before(tracer, args), after(bucket, args, result, before,
# frame, duration)); either may be None.
_OBSERVERS = {
    "client.request": (None, _status_counter("client.status")),
    "service.handle": (None, _status_counter("service")),
    "queue.send": (_queue_seen, _after_send),
    "queue.receive": (_queue_seen, _after_receive),
    "queue.renew": (None, _after_handle_op),
    "queue.delete": (None, _after_handle_op),
    "records.create_pending": (None, _after_create),
    "records.finalize": (None, _after_finalize),
    "artifacts.put": (_before_put, _after_put),
    "localdb.archive_get": (None, _after_archive_get),
    "client.fetch": (None, _after_fetch),
    "wire.exchange": (None, _after_exchange),
}


def wrapped_attributes() -> list[str]:
    """Every pacloud attribute that is currently a tracer wrapper."""
    found = []
    for mod_name, module in sorted(sys.modules.items()):
        if mod_name.split(".")[0] != "pacloud":
            continue
        for attr, value in vars(module).items():
            if hasattr(value, "__perfbench_wrapped__"):
                found.append(f"{mod_name}.{attr}")
            if isinstance(value, type) and value.__module__ == mod_name:
                for cattr, raw in vars(value).items():
                    inner = raw.__func__ if isinstance(raw, classmethod) else raw
                    if hasattr(inner, "__perfbench_wrapped__"):
                        found.append(f"{mod_name}.{attr}.{cattr}")
    return found
