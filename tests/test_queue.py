import json
import random

import pytest

from pacloud.errors import FarmStateError
from pacloud.files import json_line
from pacloud.farm import queue as queue_module
from pacloud.farm.queue import (
    COMPACTION_MIN_BYTES,
    COMPACTION_RATIO,
    MAX_DELIVERIES,
    RENEWAL_INTERVAL,
    VISIBILITY_TIMEOUT,
    CompileQueue,
)

BODY = "sys-libs/ncurses-6.1-r2[]"


class TestVisibility:
    def test_invisible_for_fifteen_seconds(self):
        q = CompileQueue()
        q.send(BODY, now=0.0)
        message, _ = q.receive(now=0.0)
        assert message.body == BODY
        assert message.receive_count == 1
        assert q.receive(now=10.0) is None
        assert q.receive(now=14.999) is None
        redelivered, _ = q.receive(now=16.0)
        assert redelivered.id == message.id
        assert redelivered.receive_count == 2

    def test_eligible_exactly_at_deadline(self):
        q = CompileQueue()
        q.send(BODY, now=0.0)
        q.receive(now=0.0)
        message, _ = q.receive(now=VISIBILITY_TIMEOUT)
        assert message is not None

    def test_renew_extends_to_now_plus_window(self):
        q = CompileQueue()
        q.send(BODY, now=0.0)
        _, handle = q.receive(now=0.0)
        assert q.renew(handle, now=10.0) is True
        assert q.receive(now=24.999) is None
        message, _ = q.receive(now=25.0)
        assert message is not None

    def test_delete_removes_permanently(self):
        q = CompileQueue()
        q.send(BODY, now=0.0)
        _, handle = q.receive(now=0.0)
        assert q.delete(handle) is True
        assert q.receive(now=100.0) is None
        assert q.depth() == 0

    def test_ten_second_cadence_never_redelivers_even_with_jitter(self):
        # A 15 s window renewed every 10 s leaves no visible gap as long as
        # the renewal is at most 5 s late.
        rng = random.Random(7)
        for _ in range(50):
            q = CompileQueue()
            q.send(BODY, now=0.0)
            _, handle = q.receive(now=0.0)
            last = 0.0
            renewals = [
                (i + 1) * RENEWAL_INTERVAL + rng.uniform(0.0, 4.999)
                for i in range(10)
            ]
            for at in renewals:
                probe = rng.uniform(last, at)
                assert q.receive(now=probe) is None
                assert q.renew(handle, now=at) is True
                last = at
            assert q.receive(now=last + VISIBILITY_TIMEOUT - 0.01) is None


class TestDeadLettering:
    def test_fourth_eligibility_dead_letters(self):
        q = CompileQueue()
        q.send(BODY, now=0.0)
        times = [0.0, 20.0, 40.0]
        for i, t in enumerate(times, start=1):
            message, _ = q.receive(now=t)
            assert message.receive_count == i
        assert q.receive(now=60.0) is None
        dead = q.dead_letters()
        assert len(dead) == 1
        assert dead[0].receive_count == MAX_DELIVERIES
        assert dead[0].body == BODY
        assert q.depth() == 0

    def test_dead_lettering_does_not_starve_other_messages(self):
        q = CompileQueue()
        q.send("a/a-1[]", now=0.0)
        q.send("b/b-1[]", now=0.0)
        for t in (0.0, 20.0, 40.0):
            message, _ = q.receive(now=t)
            assert message.body == "a/a-1[]"  # oldest eligible wins each time
        # first message exhausted; the receive should serve the second
        message, _ = q.receive(now=60.0)
        assert message.body == "b/b-1[]"
        assert [d.body for d in q.dead_letters()] == ["a/a-1[]"]


class TestHandles:
    def test_stale_after_redelivery(self):
        q = CompileQueue()
        q.send(BODY, now=0.0)
        _, old_handle = q.receive(now=0.0)
        _, new_handle = q.receive(now=20.0)
        assert q.renew(old_handle, now=21.0) is False
        assert q.delete(old_handle) is False
        assert q.renew(new_handle, now=21.0) is True

    def test_stale_after_dead_letter(self):
        q = CompileQueue()
        q.send(BODY, now=0.0)
        handle = None
        for t in (0.0, 20.0, 40.0):
            _, handle = q.receive(now=t)
        assert q.receive(now=60.0) is None  # moves to the dead-letter queue
        assert q.renew(handle, now=61.0) is False
        assert q.delete(handle) is False

    def test_stale_after_delete(self):
        q = CompileQueue()
        q.send(BODY, now=0.0)
        _, handle = q.receive(now=0.0)
        assert q.delete(handle) is True
        assert q.delete(handle) is False


class TestOrderingAndDepth:
    def test_fifo_among_deliverable(self):
        q = CompileQueue()
        q.send("a/a-1[]", now=0.0)
        q.send("b/b-1[]", now=1.0)
        first, _ = q.receive(now=2.0)
        second, _ = q.receive(now=2.0)
        assert first.body == "a/a-1[]"
        assert second.body == "b/b-1[]"

    def test_invisible_skipped_in_favor_of_later(self):
        q = CompileQueue()
        q.send("a/a-1[]", now=0.0)
        q.send("b/b-1[]", now=0.0)
        q.receive(now=0.0)  # takes a
        message, _ = q.receive(now=5.0)
        assert message.body == "b/b-1[]"

    def test_depth_counts_invisible_messages(self):
        q = CompileQueue()
        q.send(BODY, now=0.0)
        assert q.depth() == 1
        q.receive(now=0.0)
        assert q.depth() == 1


def state(queue):
    """The queue's persisted state, as its snapshot would hold it."""
    return json.loads(json.dumps(queue._state()))


class TestPersistence:
    def test_state_survives_restart(self, tmp_path):
        path = tmp_path / "queue.jsonl"
        q = CompileQueue(path)
        q.send(BODY, now=0.0)
        q.send("b/b-1[]", now=1.0)
        q.receive(now=2.0)
        q.close()
        reloaded = CompileQueue(path)
        assert reloaded.depth() == 2
        # in-flight delivery is not transferable; visibility still applies
        assert reloaded.receive(now=3.0)[0].body == "b/b-1[]"
        message, _ = reloaded.receive(now=30.0)
        reloaded.close()
        assert message.body == BODY
        assert message.receive_count == 2

    def test_dead_letters_persisted(self, tmp_path):
        path = tmp_path / "queue.jsonl"
        q = CompileQueue(path)
        q.send(BODY, now=0.0)
        for t in (0.0, 20.0, 40.0):
            q.receive(now=t)
        q.receive(now=60.0)
        q.close()
        reloaded = CompileQueue(path)
        assert [d.body for d in reloaded.dead_letters()] == [BODY]

    def test_document_bytes_are_stable(self, tmp_path):
        """queue.jsonl replays to exactly the live state: messages in send
        order with their visibility and receive counts, dead letters in the
        order they died, and the sequence number."""
        path = tmp_path / "queue.jsonl"
        q = CompileQueue(path)
        q.send("a/one-1.0[]", now=0.0)
        q.send("a/two-1.0[]", now=0.0)
        q.send("a/three-1.0[]", now=1.0)
        _, one = q.receive(now=1.0)
        _, two = q.receive(now=1.0)
        assert q.renew(one, now=5.0) is True
        assert q.delete(two) is True
        for t in (16.0, 31.0, 46.0, 61.0):
            q.receive(now=t)
        q.close()
        three = {"id": "m3", "body": "a/three-1.0[]", "visible_at": 76.0,
                 "receive_count": 2}
        dead = {"id": "m1", "body": "a/one-1.0[]", "visible_at": 61.0,
                "receive_count": 3}
        expected = {"seq": 9, "messages": [three], "dead_letters": [dead]}
        assert state(q) == expected
        reloaded = CompileQueue(path)
        assert state(reloaded) == expected
        reloaded.send("a/four-1.0[]", now=62.0)
        _, four = reloaded.receive(now=62.0)
        assert reloaded.delete(four) is True
        reloaded.close()
        expected["seq"] = 11
        assert state(CompileQueue(path)) == expected


def mixed_operations(q):
    """Sends, deliveries, renewals, deletes and a dead letter; yields after
    each call that changes the state."""
    for i in range(4):
        q.send(f"cat/p{i}-1.0[]", now=float(i))
        yield
    handles = []
    for t in (4.0, 4.0, 5.0):
        handles.append(q.receive(now=t)[1])
        yield
    q.renew(handles[0], now=12.0)
    yield
    q.delete(handles[1])
    yield
    for t in (21.0, 37.0, 53.0, 69.0):
        q.receive(now=t)  # m1 and m3 come back until m1 dies
        yield
    q.send("cat/late-1.0[]", now=70.0)
    yield
    _, handle = q.receive(now=70.0)
    yield
    q.renew(handle, now=75.0)
    yield
    q.delete(handle)
    yield


@pytest.fixture
def no_compaction_floor(monkeypatch):
    """Compact as soon as the ratio allows, so short runs compact too."""
    monkeypatch.setattr(queue_module, "COMPACTION_MIN_BYTES", 0)


class TestJournal:
    def test_every_truncation_replays_to_a_prefix(
        self, tmp_path, no_compaction_floor
    ):
        path = tmp_path / "queue.jsonl"
        q = CompileQueue(path)
        prefixes = [state(q)]
        for _ in mixed_operations(q):
            prefixes.append(state(q))
        q.close()
        data = path.read_bytes()
        entries = [json.loads(line) for line in data.splitlines()]
        kinds = {entry[0] for entry in entries}
        assert kinds == {"snapshot", "send", "receive", "renew", "delete"}
        assert ["m1"] in (entry[1] for entry in entries if entry[0] == "receive")
        cut = tmp_path / "cut" / "queue.jsonl"
        cut.parent.mkdir()
        last = 0
        for offset in range(len(data) + 1):
            cut.write_bytes(data[:offset])
            reopened = CompileQueue(cut)
            got = state(reopened)
            assert got in prefixes[last:], offset
            last = prefixes.index(got, last)
            reopened.send("cat/after-1.0[]", now=100.0)
            _, handle = reopened.receive(now=100.0)
            assert reopened.renew(handle, now=101.0) is True
            reopened.close()
            assert state(CompileQueue(cut)) == state(reopened), offset
        assert last == len(prefixes) - 1

    def test_renewals_keep_the_journal_within_the_ratio(
        self, tmp_path, no_compaction_floor
    ):
        path = tmp_path / "queue.jsonl"
        q = CompileQueue(path)
        for i in range(3):
            q.send(f"cat/p{i}-1.0[]", now=0.0)
        handles = [q.receive(now=0.0)[1] for _ in range(3)]
        compactions = 0
        size = path.stat().st_size
        for n in range(10_000):
            assert q.renew(handles[n % 3], now=float(n)) is True
            grown, size = size, path.stat().st_size
            compactions += size < grown
            snapshot = len(json_line(["snapshot", q._state()]))
            assert size <= COMPACTION_RATIO * snapshot, n
        q.close()
        assert compactions > 100
        assert state(CompileQueue(path)) == state(q)

    def test_small_journals_wait_for_the_floor(self, tmp_path):
        """A queue holding one message compacts when its journal passes
        COMPACTION_MIN_BYTES, not every few renewals."""
        path = tmp_path / "queue.jsonl"
        q = CompileQueue(path)
        q.send(BODY, now=0.0)
        _, handle = q.receive(now=0.0)
        sizes = []
        for n in range(COMPACTION_MIN_BYTES // 10):
            assert q.renew(handle, now=float(n)) is True
            sizes.append(path.stat().st_size)
        q.close()
        peaks = [a for a, b in zip(sizes, sizes[1:]) if b < a]
        assert len(peaks) >= 2
        for peak in peaks:
            # the renewal that took the journal past the floor compacted it
            assert COMPACTION_MIN_BYTES - 64 < peak <= COMPACTION_MIN_BYTES
        assert state(CompileQueue(path)) == state(q)

    def test_damage_before_the_last_line_is_refused(self, tmp_path):
        path = tmp_path / "queue.jsonl"
        q = CompileQueue(path)
        q.send(BODY, now=0.0)
        q.send(BODY, now=1.0)
        q.close()
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"garbage\n" + lines[1])
        with pytest.raises(FarmStateError, match="queue.jsonl: line 1"):
            CompileQueue(path)
        path.write_bytes(lines[0] + b'["renew","m9",3.0]\n')
        with pytest.raises(FarmStateError, match="line 2"):
            CompileQueue(path)
