"""Unit tests for the request-resilience building blocks."""

import random

import pytest

from repro.resilience import (STALE, ReplyCache, RequestTimeout, RetryPolicy,
                              SessionIssuer, with_timeout)
from repro.smr import Command, Reply, ReplyStatus


class TestRetryPolicy:
    def test_backoff_grows_exponentially_and_caps(self):
        policy = RetryPolicy(backoff_base_ms=5.0, backoff_factor=2.0,
                             backoff_max_ms=40.0, jitter=0.0)
        assert [policy.backoff_ms(a) for a in (1, 2, 3, 4, 5)] \
            == [5.0, 10.0, 20.0, 40.0, 40.0]

    def test_jitter_shrinks_backoff_deterministically(self):
        policy = RetryPolicy(backoff_base_ms=10.0, jitter=0.5)
        values = [policy.backoff_ms(1, random.Random(7)) for _ in range(2)]
        assert values[0] == values[1]          # same seed, same draw
        assert 5.0 <= values[0] <= 10.0        # at most half shaved off

    def test_gives_up_only_with_finite_budget(self):
        assert not RetryPolicy(max_attempts=0).gives_up(10 ** 6)
        policy = RetryPolicy(max_attempts=3)
        assert not policy.gives_up(2)
        assert policy.gives_up(3)

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(timeout_ms=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)


class TestWithTimeout:
    def test_event_fires_first(self, env):
        event = env.event()
        env.schedule_callback(1.0, lambda: event.succeed("reply"))
        outcome = []

        def waiter():
            outcome.append((yield from with_timeout(env, event, 10.0)))

        env.process(waiter())
        env.run()
        assert outcome == [(True, "reply")]

    def test_timeout_fires_first(self, env):
        event = env.event()
        outcome = []

        def waiter():
            outcome.append((yield from with_timeout(env, event, 2.0)))

        env.process(waiter())
        env.run()
        assert outcome == [(False, None)]
        assert env.now == 2.0

    def test_none_means_block_forever(self, env):
        event = env.event()
        env.schedule_callback(500.0, lambda: event.succeed("late"))
        outcome = []

        def waiter():
            outcome.append((yield from with_timeout(env, event, None)))

        env.process(waiter())
        env.run()
        assert outcome == [(True, "late")]


def command(cid="c1", seq=1, acked=1, client="cl"):
    return Command(op="incr", cid=cid, client=client, seq=seq, acked=acked)


class TestReplyCache:
    def make_reply(self, cid="c1"):
        return Reply(cid=cid, status=ReplyStatus.OK, value=7, attempt=1)

    def test_lookup_retags_attempt(self):
        cache = ReplyCache()
        assert cache.classify(command()) is None          # fresh
        cache.store(command(), self.make_reply())
        resent = cache.classify(command(), attempt=3)
        assert resent.attempt == 3
        assert resent.value == 7
        assert cache.hits == 1
        # The stored reply is untouched (classify returns a copy).
        assert cache.classify(command()).attempt == 1

    def test_miss_returns_none(self):
        cache = ReplyCache()
        assert cache.classify(command("nope")) is None
        assert cache.hits == 0

    def test_contains_and_len(self):
        cache = ReplyCache()
        cache.store(command(), self.make_reply())
        cache.store(command("c9", client="other"), self.make_reply("c9"))
        assert command() in cache
        assert command("c2") not in cache
        assert command("c1", client="other") not in cache
        assert len(cache) == 2

    def test_disabled_cache_is_inert(self):
        cache = ReplyCache(enabled=False)
        cache.store(command(), self.make_reply())
        assert command() not in cache
        # The stale test is off too: a copy below the watermark is fresh.
        assert cache.classify(command("c2", seq=2, acked=2)) is None
        assert cache.classify(command()) is None
        assert cache.stale == 0 and len(cache) == 0

    def test_watermark_drops_acknowledged_replies_and_makes_copies_stale(
            self):
        cache = ReplyCache()
        cache.store(command("c1", seq=1, acked=1), self.make_reply("c1"))
        cache.store(command("c2", seq=2, acked=1), self.make_reply("c2"))
        assert cache.classify(command("c3", seq=3, acked=2)) is None
        assert command("c1") not in cache and len(cache) == 1
        assert cache.classify(command("c1", seq=1, acked=1)) is STALE
        assert cache.classify(command("c2", seq=2, acked=1)).value == 7
        assert (cache.stale, cache.hits) == (1, 1)
        assert cache.sessions["cl"][0] == 2

    def test_store_below_the_watermark_is_dropped(self):
        cache = ReplyCache()
        cache.classify(command("c2", seq=2, acked=2))
        cache.store(command("c1", seq=1, acked=1), self.make_reply())
        assert len(cache) == 0

    def test_sessions_are_per_issuer(self):
        cache = ReplyCache()
        cache.store(command(client="a"), self.make_reply())
        cache.classify(command("c5", seq=5, acked=5, client="b"))
        assert command(client="a") in cache
        assert cache.classify(command(client="a")) is not STALE

    def test_a_command_without_an_issuer_has_no_session(self):
        cache = ReplyCache()
        orphan = Command(op="move", cid="m:evac")
        cache.store(orphan, self.make_reply("m:evac"))
        assert cache.classify(orphan) is None
        assert cache.sessions == {}

    def test_an_issued_command_without_a_sequence_number_raises(self):
        with pytest.raises(ValueError, match="no session sequence number"):
            ReplyCache().classify(command(seq=0))


class TestSessionIssuer:
    def test_closed_loop_acknowledges_everything_before_its_command(self):
        issuer = SessionIssuer()
        first, second = command(), command("c2")
        issuer.begin(first)
        issuer.finish(first)
        issuer.begin(second)
        assert (first.seq, first.acked) == (1, 1)
        assert (second.seq, second.acked) == (2, 2)

    def test_open_loop_watermark_is_the_oldest_open_command(self):
        issuer = SessionIssuer()
        stamped = [command(f"c{n}") for n in range(4)]
        for cmd in stamped[:3]:
            issuer.begin(cmd)
        issuer.finish(stamped[1])
        issuer.begin(stamped[3])
        assert [(c.seq, c.acked) for c in stamped] == \
            [(1, 1), (2, 1), (3, 1), (4, 1)]
        issuer.finish(stamped[0])
        later = command("c9")
        issuer.begin(later)
        assert (later.seq, later.acked) == (5, 3)
        assert list(issuer.open) == [3, 4, 5]


class TestRequestTimeout:
    def test_carries_cid_and_attempts(self):
        error = RequestTimeout("cmd-1", 4)
        assert error.cid == "cmd-1"
        assert error.attempts == 4
        assert "4 attempt(s)" in str(error)
