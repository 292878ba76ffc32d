"""Per-layer metrics derived from a traced run.

Counts and times are per cycle of the workload (one pass of its op
sequence), so runs of different length compare directly; ``_ms`` metrics
are inclusive times (a call directly inside a call of the same name is
not counted twice), ``self_ms`` the layer's self time. ``localdb.sync_ms`` comes from the traced set-up, the
only place a sync happens, and is per set-up. ``unattributed_ms`` is op
time that no wrapped callable covers; with the layers' ``self_ms`` it sums
to ``trace.cycle_ms``.
"""
from __future__ import annotations

import json
import statistics

from spans import LAYER_OF, LAYERS, OP_LAYER


class _View:
    """Queries over one tracer bucket."""

    def __init__(self, bucket: dict):
        self.stats = bucket["stats"]
        self.counts = bucket["counts"]
        self.bucket = bucket

    def calls(self, name: str) -> int:
        if name in self.counts:
            return self.counts[name]
        return sum(s[0] for (n, _), s in self.stats.items() if n == name)

    def calls_under(self, name: str, parent_layer: str) -> int:
        return sum(
            s[0]
            for (n, parent), s in self.stats.items()
            if n == name and parent is not None
            and LAYER_OF.get(parent) == parent_layer
        )

    def ms(self, name: str) -> float:
        """Inclusive time of the calls of ``name`` that are not directly
        inside another call of ``name``."""
        return 1e3 * sum(
            s[1] for (n, parent), s in self.stats.items()
            if n == name and parent != name
        )

    def self_ms(self, names) -> float:
        return 1e3 * sum(s[2] for (n, _), s in self.stats.items() if n in names)

    def layer_self_ms(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        out[OP_LAYER] = 0.0
        for (name, _), s in self.stats.items():
            layer = LAYER_OF.get(name, OP_LAYER if name.startswith("op.") else None)
            if layer is None:
                raise KeyError(f"span {name} has no layer")
            out[layer] += 1e3 * s[2]
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _wire_bytes(docs) -> tuple[int, int]:
    """Bytes of the request and response lines as the wire carries them."""
    sent = received = 0
    for request, response in docs:
        sent += len((json.dumps(request) + "\n").encode("utf-8"))
        received += len((json.dumps(response) + "\n").encode("utf-8"))
    return sent, received


# name -> unit, in the order BENCHMARK.json lists them
UNITS = {
    "core.parse_calls": "count/cycle",
    "core.parse_ms": "ms/cycle",
    "depparse.parse_calls": "count/cycle",
    "depparse.parse_ms": "ms/cycle",
    "depparse.eval_calls": "count/cycle",
    "resolver.resolve_calls": "count/cycle",
    "resolver.resolve_ms": "ms/cycle",
    "resolver.get_metadata_calls": "count/cycle",
    "resolver.orphans_ms": "ms/cycle",
    "localdb.metadata_reads": "count/cycle",
    "localdb.metadata_writes": "count/cycle",
    "localdb.iter_packages_calls": "count/cycle",
    "localdb.record_install_ms": "ms/cycle",
    "localdb.record_removal_ms": "ms/cycle",
    "localdb.search_ms": "ms/cycle",
    "localdb.sync_ms": "ms",
    "localdb.archive_hits": "count/cycle",
    "localdb.archive_misses": "count/cycle",
    "localdb.archive_put_ms": "ms/cycle",
    "client.await_ms": "ms/cycle",
    "client.polls": "count/cycle",
    "client.polls_pending_ratio": "ratio",
    "client.fetch_ms": "ms/cycle",
    "client.fetch_bytes": "B/cycle",
    "client.unpack_ms": "ms/cycle",
    "wire.exchanges": "count/cycle",
    "wire.exchange_ms": "ms/cycle",
    "wire.exchange_p50_us": "us",
    "wire.request_bytes": "B/cycle",
    "wire.response_bytes": "B/cycle",
    "service.requests": "count/cycle",
    "service.handle_ms": "ms/cycle",
    "service.available": "count/cycle",
    "service.pending": "count/cycle",
    "service.failed": "count/cycle",
    "service.enqueued": "count/cycle",
    "queue.sends": "count/cycle",
    "queue.receives": "count/cycle",
    "queue.receive_empty": "count/cycle",
    "queue.receive_hit_ratio": "ratio",
    "queue.renews": "count/cycle",
    "queue.deletes": "count/cycle",
    "queue.stale_handles": "count/cycle",
    "queue.redeliveries": "count/cycle",
    "queue.dead_letters": "count/cycle",
    "queue.depth_max": "count",
    "queue.ms": "ms/cycle",
    "queue.persist_bytes": "B/cycle",
    "records.pending_keys_calls": "count/cycle",
    "records.pending_keys_ms": "ms/cycle",
    "records.finalize_ms": "ms/cycle",
    "records.writes": "count/cycle",
    "artifacts.put_ms": "ms/cycle",
    "artifacts.put_attempts": "count/cycle",
    "artifacts.duplicate_puts": "count/cycle",
    "farm.loop_ms": "ms/cycle",
    "farm.loop_self_ms": "ms/cycle",
    "farm.next_event_calls": "count/cycle",
    "farm.step_calls": "count/cycle",
    "farm.events": "count/cycle",
    "farm.events_per_s": "1/s",
    "farm.idle_polls": "count/cycle",
    "farm.executors_created": "count/cycle",
    "farm.utilization_mean": "ratio",
    **{f"{layer}.self_ms": "ms/cycle" for layer in LAYERS},
    "unattributed_ms": "ms/cycle",
    "trace.cycle_ms": "ms/cycle",
    "trace.untraced_cycle_ms": "ms/cycle",
    "trace.overhead_ms": "ms/cycle",
    "trace.overhead_pct": "%",
    "trace.spans": "count/cycle",
}

QUEUE_CALLS = ("queue.send", "queue.receive", "queue.renew", "queue.delete")


def per_layer(tracer, traced, plain, workload) -> dict:
    """Every per-layer metric of a traced run, keyed as in ``UNITS``."""
    view = _View(tracer.buckets["cycles"])
    setup = _View(tracer.buckets["setup"])
    n = max(len(traced.cycles), 1)
    receives = view.calls("queue.receive")
    empty = view.counts["queue.receive_empty"]
    loop_ms = view.ms("farm.loop")
    events = receives + view.calls("queue.renew") + view.calls("queue.delete")
    polls = view.counts["client.polls"]
    exchange_samples = view.bucket["samples"]["wire.exchange"]
    sent, received = _wire_bytes(view.bucket["docs"])
    layer_self = view.layer_self_ms()
    cycle_ms = 1e3 * sum(traced.raw_cycles)
    untraced = 1e3 * statistics.median(plain.cycles) if plain.cycles else 0.0
    traced_median = 1e3 * statistics.median(traced.cycles)

    total = {
        "core.parse_calls": view.calls("core.parse"),
        "core.parse_ms": view.ms("core.parse"),
        "depparse.parse_calls": view.calls("depparse.parse"),
        "depparse.parse_ms": view.ms("depparse.parse"),
        "depparse.eval_calls": view.calls("depparse.eval"),
        "resolver.resolve_calls": view.calls("resolver.resolve"),
        "resolver.resolve_ms": view.ms("resolver.resolve"),
        "resolver.get_metadata_calls": view.calls_under("localdb.get_metadata", "resolver"),
        "resolver.orphans_ms": view.ms("resolver.orphans"),
        "localdb.metadata_reads": view.calls("localdb.metadata_read"),
        "localdb.metadata_writes": view.calls("localdb.metadata_write"),
        "localdb.iter_packages_calls": view.calls("localdb.iter_packages"),
        "localdb.record_install_ms": view.ms("localdb.record_install"),
        "localdb.record_removal_ms": view.ms("localdb.record_removal"),
        "localdb.search_ms": view.ms("localdb.search"),
        "localdb.archive_hits": view.counts["localdb.archive_hits"],
        "localdb.archive_misses": view.counts["localdb.archive_misses"],
        "localdb.archive_put_ms": view.ms("localdb.archive_put"),
        "client.await_ms": view.ms("client.await"),
        "client.polls": polls,
        "client.fetch_ms": view.ms("client.fetch"),
        "client.fetch_bytes": view.counts["client.fetch_bytes"],
        "client.unpack_ms": view.ms("client.unpack"),
        "wire.exchanges": view.calls("wire.exchange"),
        "wire.exchange_ms": view.ms("wire.exchange"),
        "wire.request_bytes": sent,
        "wire.response_bytes": received,
        "service.requests": view.calls("service.handle"),
        "service.handle_ms": view.ms("service.handle"),
        "service.available": view.counts["service.available"],
        "service.pending": view.counts["service.pending"],
        "service.failed": view.counts["service.failed"],
        "service.enqueued": view.calls_under("queue.send", "service"),
        "queue.sends": view.calls("queue.send"),
        "queue.receives": receives,
        "queue.receive_empty": empty,
        "queue.renews": view.calls("queue.renew"),
        "queue.deletes": view.calls("queue.delete"),
        "queue.stale_handles": view.counts["queue.stale_handles"],
        "queue.redeliveries": view.counts["queue.redeliveries"],
        "queue.dead_letters": view.counts["queue.dead_letters"],
        "queue.ms": sum(view.ms(name) for name in QUEUE_CALLS),
        "queue.persist_bytes": view.counts["queue.persist_bytes"],
        "records.pending_keys_calls": view.calls("records.pending_keys"),
        "records.pending_keys_ms": view.ms("records.pending_keys"),
        "records.finalize_ms": view.ms("records.finalize"),
        "records.writes": view.counts["records.writes"],
        "artifacts.put_ms": view.ms("artifacts.put"),
        "artifacts.put_attempts": view.calls("artifacts.put"),
        "artifacts.duplicate_puts": view.counts["artifacts.duplicate_puts"],
        "farm.loop_ms": loop_ms,
        "farm.loop_self_ms": view.self_ms({"farm.loop", "farm.next_event"}),
        "farm.next_event_calls": view.calls("farm.next_event"),
        "farm.step_calls": view.calls("farm.step"),
        "farm.events": events,
        "farm.idle_polls": view.counts["farm.idle_polls"],
        "farm.executors_created": view.calls("farm.executor"),
        **{f"{layer}.self_ms": layer_self[layer] for layer in LAYERS},
        "unattributed_ms": layer_self["op"],
        "trace.cycle_ms": cycle_ms,
        "trace.spans": sum(s[0] for s in view.stats.values()),
    }
    metrics = {name: value / n for name, value in total.items()}
    metrics.update({
        "localdb.sync_ms": setup.ms("localdb.sync"),
        "client.polls_pending_ratio": _ratio(view.counts["client.polls_pending"], polls),
        "wire.exchange_p50_us": (
            1e6 * statistics.median(exchange_samples) if exchange_samples else 0.0
        ),
        "queue.receive_hit_ratio": _ratio(receives - empty, receives),
        "queue.depth_max": view.bucket["depth_max"],
        "farm.events_per_s": _ratio(events, loop_ms / 1e3),
        "farm.utilization_mean": workload.utilization,
        "trace.untraced_cycle_ms": untraced,
        "trace.overhead_ms": traced_median - untraced,
        "trace.overhead_pct": 100.0 * _ratio(traced_median - untraced, untraced),
    })
    attributed = sum(layer_self.values())
    if abs(attributed - cycle_ms) > 1e-6 * max(cycle_ms, 1.0):
        traced.errors.append(
            f"self times sum to {attributed} ms, traced ops took {cycle_ms} ms"
        )
    return {name: {"value": metrics[name], "unit": unit} for name, unit in UNITS.items()}
