"""Tests for the fault-injection plan, with_timeout, and the retry layer."""

import math

import pytest

from repro.core.store import PolicyStore
from repro.crypto.primitives import DeterministicRandom
from repro.errors import (
    AccessDeniedError,
    DeadlineExceededError,
    RetryExhaustedError,
    StorageFaultError,
)
from repro.fs.blockstore import BlockStore
from repro.obs.telemetry import NULL_TELEMETRY
from repro.sim.core import ProcessInterrupt, Simulator
from repro.sim.faults import FaultPlan, LinkFault, Window
from repro.sim.network import Network, Site
from repro.sim.resources import Store
from repro.sim.retry import (
    BACKOFF_MULTIPLIER,
    DEFAULT_RETRYABLE,
    JITTER_FRACTION,
    MAX_BACKOFF_SECONDS,
    RetryPolicy,
)

from tests.doubles import tamper


class TestWindow:
    def test_half_open(self):
        window = Window(1.0, 2.0)
        assert not window.active(0.999)
        assert window.active(1.0)
        assert window.active(1.999)
        assert not window.active(2.0)

    def test_default_is_forever(self):
        assert Window().active(0.0)
        assert Window().active(1e12)


class TestLinkFault:
    def test_matches_either_direction(self):
        fault = LinkFault(a="x", b="y")
        assert fault.matches("x", "y")
        assert fault.matches("y", "x")
        assert not fault.matches("x", "z")


class TestFaultPlanQueries:
    def test_drop_window(self):
        sim = Simulator()
        plan = FaultPlan(sim, NULL_TELEMETRY).drop_link("a", "b", start=0.0,
                                                        end=2.0)
        assert plan.message_fate("a", "b") == ("drop", 0.0)
        sim.run(until=3.0)
        assert plan.message_fate("a", "b") == ("deliver", 0.0)
        assert plan.summary() == {"drop": 1}

    def test_blackout_beats_link_state(self):
        sim = Simulator()
        plan = FaultPlan(sim, NULL_TELEMETRY).blackout_endpoint(
            "a", start=0.0, end=1.0)
        assert plan.message_fate("a", "b") == ("drop", 0.0)
        assert plan.message_fate("c", "a") == ("drop", 0.0)
        assert plan.message_fate("b", "c") == ("deliver", 0.0)
        assert plan.injected["blackout"] == 2

    def test_delay_accumulates(self):
        sim = Simulator()
        plan = (FaultPlan(sim, NULL_TELEMETRY)
                .delay_link("a", "b", 0.5)
                .delay_link("a", "b", 0.25))
        assert plan.message_fate("a", "b") == ("deliver", 0.75)

    def test_probabilistic_drop_is_seed_deterministic(self):
        def fates(seed):
            plan = FaultPlan(Simulator(), NULL_TELEMETRY, seed=seed)
            plan.drop_link("a", "b", probability=0.5)
            return [plan.message_fate("a", "b")[0] for _ in range(64)]

        assert fates(b"s1") == fates(b"s1")
        assert fates(b"s1") != fates(b"s2")
        assert set(fates(b"s1")) == {"drop", "deliver"}

    def test_counter_and_store_windows(self):
        sim = Simulator()
        plan = (FaultPlan(sim, NULL_TELEMETRY)
                .counter_outage("ctr", start=0.0, end=1.0)
                .fail_store("vol", start=0.0, end=1.0))
        assert plan.injects("counter_outage", "ctr")
        assert plan.injects("store_fault", "vol:write")
        assert not plan.injects("counter_outage", "other")
        assert not plan.injects("store_fault", "vol:read")
        assert not plan.injects("store_fault", "ctr")  # kinds do not mix
        sim.run(until=1.0)
        assert not plan.injects("counter_outage", "ctr")
        assert not plan.injects("store_fault", "vol:write")
        assert plan.summary() == {"counter_outage": 1, "store_fault": 1}

    def test_fail_store_rejects_unknown_operation(self):
        with pytest.raises(ValueError):
            FaultPlan(Simulator(), NULL_TELEMETRY).fail_store(
                "s", operation="chmod")


class TestAttachment:
    def test_commit_fails_during_store_window(self):
        sim = Simulator()
        rng = DeterministicRandom(b"store-window")
        volume = BlockStore("vol")
        db = PolicyStore(sim, volume, rng.fork(b"key").bytes(32),
                         rng.fork(b"store"))
        plan = FaultPlan(sim, NULL_TELEMETRY).fail_store(
            "vol", end=1.0).attach(volume)

        def attempt():
            db.put("tags", "app", b"tag")
            yield from db.commit()

        with pytest.raises(StorageFaultError):
            sim.run_process(attempt())
        assert db.get("tags", "app") is None
        assert volume.list() == []
        sim.run(until=1.0)
        sim.run_process(attempt())  # window over: commits succeed
        assert db.get("tags", "app") == b"tag"
        assert plan.injected["store_fault"] == 1

    def test_blockstore_hook(self):
        sim = Simulator()
        store = BlockStore("vol")
        plan = FaultPlan(sim, NULL_TELEMETRY).fail_store("vol", "write",
                                                         end=1.0)
        plan.attach(store)
        tamper(store, "/f", b"old")
        with pytest.raises(StorageFaultError):
            store.write("/f", b"x")
        assert store.read("/f") == b"old"  # reads unaffected
        sim.run(until=1.0)
        store.write("/f", b"x")
        assert store.read("/f") == b"x"
        assert plan.summary() == {"store_fault": 1}

    def test_network_drop_then_heal(self):
        sim = Simulator()
        network = Network(sim, DeterministicRandom(b"net"))
        FaultPlan(sim, NULL_TELEMETRY).drop_link(
            "a", "b", end=1.0).attach(network)
        a = network.endpoint("a", Site.SAME_RACK)
        b = network.endpoint("b", Site.SAME_RACK)

        def exchange():
            a.send(b, "hello", size_bytes=64)
            pending = b.receive()
            try:
                got = yield sim.with_timeout(pending, 0.5)
            except DeadlineExceededError:
                # Withdraw the abandoned getter so it cannot steal the
                # message the next exchange is waiting for.
                b.inbox.cancel(pending)
                raise
            return got

        with pytest.raises(DeadlineExceededError):
            sim.run_process(exchange())
        sim.run(until=1.0)
        message = sim.run_process(exchange())
        assert message.payload == "hello"


class TestWithTimeout:
    def test_inner_wins(self):
        sim = Simulator()

        def fast():
            yield sim.timeout(0.1)
            return "done"

        def main():
            value = yield sim.with_timeout(sim.process(fast()), 1.0)
            return value

        assert sim.run_process(main()) == "done"

    def test_deadline_wins_and_interrupts(self):
        sim = Simulator()
        seen = []

        def slow():
            try:
                yield sim.timeout(10.0)
            except ProcessInterrupt as exc:
                seen.append(str(exc))
                raise

        def main():
            yield sim.with_timeout(sim.process(slow()), 0.5)

        with pytest.raises(DeadlineExceededError):
            sim.run_process(main())
        assert seen  # the abandoned attempt was told to clean up

    def test_interrupted_getter_can_cancel(self):
        """The message-stealing hazard: an abandoned getter must not
        consume an item that arrives after its deadline."""
        sim = Simulator()
        store = Store(sim)

        def abandoned():
            get = store.get()
            try:
                yield get
            except ProcessInterrupt:
                store.cancel(get)
                raise

        def main():
            try:
                yield sim.with_timeout(sim.process(abandoned()), 0.5)
            except DeadlineExceededError:
                pass
            # The interrupt reaches the abandoned getter one event-cycle
            # after the deadline fires; real retries always re-send over
            # a link with non-zero latency, so give the cascade that one
            # cycle before the late item arrives.
            yield sim.timeout(0.0)
            store.put("late-item")
            value = yield store.get()
            return value

        assert sim.run_process(main()) == "late-item"


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1.0)

    def test_backoff_shape(self):
        policy = RetryPolicy(base_delay=0.1)
        rng = DeterministicRandom(b"jitter")
        delays = [policy.backoff_delay(n, rng) for n in range(7)]
        unjittered = [min(0.1 * BACKOFF_MULTIPLIER ** n, MAX_BACKOFF_SECONDS)
                      for n in range(7)]
        assert unjittered == [0.1, 0.2, 0.4, 0.8, 1.6, 2.0, 2.0]  # capped
        for delay, floor in zip(delays, unjittered):
            assert floor <= delay < floor * (1 + JITTER_FRACTION)

    def test_jitter_is_bounded_and_deterministic(self):
        policy = RetryPolicy(base_delay=1.0)
        first = [policy.backoff_delay(0, DeterministicRandom(b"j"))
                 for _ in range(3)]
        second = [policy.backoff_delay(0, DeterministicRandom(b"j"))
                  for _ in range(3)]
        assert first == second
        assert all(1.0 <= delay < 1.0 + JITTER_FRACTION for delay in first)

    def test_recovers_after_transient_failures(self):
        sim = Simulator()
        calls = []

        def attempt():
            calls.append(sim.now)
            if len(calls) < 3:
                raise StorageFaultError("transient")
            yield sim.timeout(0.01)
            return "ok"

        policy = RetryPolicy(max_attempts=5, base_delay=0.1)
        result = sim.run_process(policy.call(
            sim, attempt, DeterministicRandom(b"r"), operation="op",
            telemetry=NULL_TELEMETRY))
        assert result == "ok"
        assert len(calls) == 3
        # The same seed draws the same jitter: base_delay, then twice it.
        rng = DeterministicRandom(b"r")
        first, second = (policy.backoff_delay(n, rng) for n in range(2))
        assert 0.1 <= first < 0.1 * (1 + JITTER_FRACTION)
        assert 0.2 <= second < 0.2 * (1 + JITTER_FRACTION)
        assert calls[1] == pytest.approx(first)
        assert calls[2] == pytest.approx(first + second)

    def test_gives_up_with_chained_error(self):
        sim = Simulator()

        def attempt():
            raise StorageFaultError("still broken")
            yield  # pragma: no cover

        policy = RetryPolicy(max_attempts=3, base_delay=0.01)
        with pytest.raises(RetryExhaustedError) as info:
            sim.run_process(policy.call(
                sim, attempt, DeterministicRandom(b"r"), operation="op",
                telemetry=NULL_TELEMETRY))
        assert info.value.attempts == 3
        assert isinstance(info.value.last_error, StorageFaultError)

    def test_verdicts_are_not_retried(self):
        sim = Simulator()
        calls = []

        def attempt():
            calls.append(1)
            raise AccessDeniedError("no")
            yield  # pragma: no cover

        policy = RetryPolicy(max_attempts=5, base_delay=0.01)
        with pytest.raises(AccessDeniedError):
            sim.run_process(policy.call(
                sim, attempt, DeterministicRandom(b"r"), operation="op",
                telemetry=NULL_TELEMETRY))
        assert calls == [1]  # a security verdict propagates immediately

    def test_attempt_timeout_turns_hang_into_retry(self):
        sim = Simulator()
        calls = []

        def attempt():
            calls.append(sim.now)
            if len(calls) == 1:
                yield sim.timeout(100.0)  # first attempt hangs
            return "ok"

        policy = RetryPolicy(max_attempts=3, base_delay=0.1,
                             attempt_timeout=0.5)
        assert sim.run_process(policy.call(
            sim, attempt, DeterministicRandom(b"r"),
            operation="op", telemetry=NULL_TELEMETRY)) == "ok"
        assert len(calls) == 2
        # deadline + backoff, not 100s
        backoff = policy.backoff_delay(0, DeterministicRandom(b"r"))
        assert calls[1] == pytest.approx(0.5 + backoff)
        assert 0.6 <= calls[1] < 0.6 + 0.1 * JITTER_FRACTION

    def test_no_retry_policy_is_single_shot(self):
        sim = Simulator()
        calls = []

        def attempt():
            calls.append(sim.now)
            raise DeadlineExceededError("lost")
            yield  # pragma: no cover

        policy = RetryPolicy(max_attempts=1, base_delay=0.0)
        assert policy.attempt_timeout is None
        with pytest.raises(RetryExhaustedError) as info:
            sim.run_process(policy.call(
                sim, attempt, DeterministicRandom(b"r"), operation="op",
                telemetry=NULL_TELEMETRY))
        assert calls == [0.0]
        assert info.value.attempts == 1
        assert DeadlineExceededError in DEFAULT_RETRYABLE
        assert math.isinf(Window().end)
