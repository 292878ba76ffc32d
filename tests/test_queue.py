import random
from collections import Counter

from conftest import assert_frozen
from reference_queue import ReferenceQueue

from pacloud.core import BuildKey
from pacloud.farm.queue import (
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

    def test_the_sent_key_is_the_body_delivered_and_dead_lettered(self):
        key = BuildKey.parse(BODY)
        heard = []
        q = CompileQueue(on_dead_letter=lambda body, now: heard.append(body))
        q.send(key, now=0.0)
        for t in (0.0, 20.0, 40.0):
            message, _ = q.receive(now=t)
            assert message.body is key
        assert q.receive(now=60.0) is None
        [dead] = q.dead_letters()
        assert dead.body is key
        assert len(heard) == 1 and heard[0] is key


class TestHandles:
    def test_received_and_dead_lettered_messages_are_frozen(self):
        q = CompileQueue()
        q.send(BODY, now=0.0)
        for t in (0.0, 20.0, 40.0):
            received, _ = q.receive(now=t)
            assert_frozen(received)
        assert q.receive(now=60.0) is None
        [dead] = q.dead_letters()
        assert dead.receive_count == MAX_DELIVERIES
        assert_frozen(dead)

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


class TestHolds:
    def test_a_held_message_is_neither_delivered_nor_visible(self):
        q = CompileQueue()
        q.send("a/a-1[]", now=0.0)
        q.send("b/b-1[]", now=0.0)
        _, handle = q.receive(now=0.0)  # takes a
        assert q.hold(handle) is True
        assert q.next_visible_at() == 0.0  # b
        message, _ = q.receive(now=1.0)
        assert message.body == "b/b-1[]"
        assert q.next_visible_at() == 1.0 + VISIBILITY_TIMEOUT
        far = 1000 * VISIBILITY_TIMEOUT
        redelivered, _ = q.receive(now=far)
        assert redelivered.body == "b/b-1[]"  # never a
        assert q.next_visible_at() == far + VISIBILITY_TIMEOUT
        assert q.depth() == 2

    def test_a_held_message_only_is_never_visible(self):
        q = CompileQueue()
        q.send(BODY, now=0.0)
        _, handle = q.receive(now=0.0)
        q.hold(handle)
        assert q.next_visible_at() is None
        assert q.receive(now=1e9) is None

    def test_lapse_resurfaces_at_the_last_renewal_plus_the_window(self):
        q = CompileQueue()
        q.send(BODY, now=0.0)
        _, handle = q.receive(now=0.0)
        q.hold(handle)
        assert q.renew(handle, now=20.0) is True
        assert q.lapse(handle) is True
        assert q.next_visible_at() == 20.0 + VISIBILITY_TIMEOUT
        assert q.receive(now=34.999) is None
        message, new_handle = q.receive(now=35.0)
        assert message.receive_count == 2
        assert q.renew(handle, now=36.0) is False
        assert q.renew(new_handle, now=36.0) is True

    def test_a_lapse_long_after_the_window_resurfaces_at_once(self):
        q = CompileQueue()
        q.send(BODY, now=0.0)
        _, handle = q.receive(now=0.0)
        q.hold(handle)
        q.lapse(handle)
        assert q.next_visible_at() == VISIBILITY_TIMEOUT
        message, _ = q.receive(now=500.0)
        assert message.receive_count == 2

    def test_hold_and_lapse_on_a_stale_handle(self):
        q = CompileQueue()
        q.send(BODY, now=0.0)
        _, old_handle = q.receive(now=0.0)
        _, new_handle = q.receive(now=20.0)
        assert q.hold(old_handle) is False
        assert q.receive(now=40.0) is not None  # the stale hold held nothing
        assert q.hold(new_handle) is False
        q.send("b/b-1[]", now=40.0)
        _, handle = q.receive(now=40.0)
        q.hold(handle)
        assert q.lapse(old_handle) is False
        assert q.receive(now=1000.0) is None  # a stale lapse ends no hold
        assert q.delete(handle) is True
        assert q.hold(handle) is False
        assert q.lapse(handle) is False

    def test_a_held_message_is_never_dead_lettered(self):
        q = CompileQueue()
        q.send(BODY, now=0.0)
        handle = None
        for t in (0.0, 20.0, 40.0):
            _, handle = q.receive(now=t)
        q.hold(handle)
        assert q.receive(now=1000.0) is None
        assert q.dead_letters() == []
        assert q.depth() == 1
        assert q.delete(handle) is True  # still its own delivery
        assert q.dead_letters() == []

    def test_a_lapsed_message_past_its_deliveries_is_dead_lettered(self):
        q = CompileQueue()
        q.send(BODY, now=0.0)
        handle = None
        for t in (0.0, 20.0, 40.0):
            _, handle = q.receive(now=t)
        q.hold(handle)
        q.lapse(handle)
        assert q.receive(now=1000.0) is None
        assert [d.body for d in q.dead_letters()] == [BODY]
        assert q.depth() == 0

    def test_a_plain_receive_holds_nothing(self):
        q = CompileQueue()
        q.send(BODY, now=0.0)
        _, handle = q.receive(now=0.0)
        assert q.next_visible_at() == VISIBILITY_TIMEOUT
        message, _ = q.receive(now=VISIBILITY_TIMEOUT)
        assert message.receive_count == 2
        assert q.hold(handle) is False



def drive_both(seed, steps, tally):
    """Make the same random calls on a queue and on the scan queue, and
    check that they answer each alike."""
    rng = random.Random(seed)
    heard, heard_reference = [], []
    queue = CompileQueue(on_dead_letter=lambda body, now: heard.append((body, now)))
    reference = ReferenceQueue(
        on_dead_letter=lambda body, now: heard_reference.append((body, now))
    )
    # every handle the queues gave out, and some they never could
    handles = ["", "m1", "m1#0", "m1#4", "m99#1", "#1"]
    now = 0.0
    for step in range(steps):
        roll = rng.random()
        if roll < 0.1:
            now -= rng.choice((0.5, 1.0, VISIBILITY_TIMEOUT, 40.0))
            tally["earlier"] += 1
        elif roll < 0.6:
            now += rng.choice((0.0, 0.5, 1.0, RENEWAL_INTERVAL, VISIBILITY_TIMEOUT))
        op = rng.choices(
            ("send", "receive", "hold", "renew", "lapse", "delete"),
            weights=(2, 4, 2, 1, 2, 1),
        )[0]
        where = f"seed {seed}, step {step}: {op}"
        if op == "send":
            body = f"cat/p{step}-1[]"
            assert queue.send(body, now) == reference.send(body, now), where
        elif op == "receive":
            got = queue.receive(now)
            assert got == reference.receive(now), where
            if got is None:
                tally["empty"] += 1
            else:
                handles.append(got[1])
                tally["redelivered"] += got[0].receive_count > 1
        else:
            handle = rng.choice(handles)
            if op == "renew":
                got = queue.renew(handle, now)
                assert got == reference.renew(handle, now), where
            else:
                got = getattr(queue, op)(handle)
                assert got == getattr(reference, op)(handle), where
            tally[f"{op} {got}"] += 1
        assert queue.depth() == reference.depth(), where
        assert queue.next_visible_at() == reference.next_visible_at(), where
        assert queue.dead_letters() == reference.dead_letters(), where
        assert heard == heard_reference, where
    tally["dead"] += len(heard)


def test_every_answer_matches_the_scan_queue():
    tally = Counter()
    for seed in range(300):
        drive_both(seed, 80, tally)
    # the calls reached every rule: stale handles, holds that lapse,
    # redeliveries, dead letters and a clock that goes back
    for case in (
        "earlier", "empty", "redelivered", "dead", "hold True", "hold False",
        "lapse True", "lapse False", "renew True", "renew False",
        "delete True", "delete False",
    ):
        assert tally[case] > 0, case
