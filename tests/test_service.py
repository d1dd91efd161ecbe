"""The autotune service layer: deterministic retry jitter, deadline
propagation, per-backend circuit breakers, bounded admission with
backpressure, single-flight coalescing, the write-ahead recovery
journal (including a real SIGKILL mid-flight), graceful drain, and the
hammer soak's bitwise contract under a chaos fault plan."""

import json
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time

import numpy as np
import pytest

import repro
from repro import faultinject, obs
from repro.arith import Var
from repro.backend import ledger
from repro.cache import TuningCache
from repro.compiler.kernel import compile_and_run
from repro.compiler.options import CompilerOptions
from repro.ir.dsl import map_
from repro.ir.nodes import Lambda, Param, UserFun
from repro.opencl import Buffer, OpenCLProgram, launch
from repro.resilience import (
    Cancelled,
    CancellationToken,
    Deadline,
    DeadlineExceeded,
    RetryPolicy,
    deterministic_jitter,
)
from repro.rewrite import lower_to_global
from repro.rewrite.explore import ExploreConfig, explore_program
from repro.service import (
    AdmissionQueue,
    BreakerBoard,
    BreakerConfig,
    CircuitBreaker,
    JournalEntry,
    RecoveryJournal,
    ServiceClosed,
    ServiceConfig,
    ServiceOverloaded,
    ServiceRequest,
    ServiceResponse,
    ServiceStats,
    TuningService,
    board_installed,
)
from repro.types import ArrayType, FLOAT


@pytest.fixture(autouse=True)
def _clean_slate():
    """Injection off and an empty ledger around every test; any ambient
    plan (the chaos CI job's REPRO_FAULT_PLAN) is restored afterwards."""
    with faultinject.plan_installed(None):
        ledger.clear()
        yield
    ledger.clear()


def _toy_program():
    n = Var("N")
    x = Param(ArrayType(FLOAT, n), "x")
    double = UserFun("dbl", ["v"], "return v * 2.0f;", [FLOAT], FLOAT,
                     py=lambda v: v * 2.0)
    return Lambda([x], map_(double)(x))


def _toy_payload(n=32, scale=1.0):
    """Submission kwargs for one toy run request (distinct ``scale``
    values give distinct request identities)."""
    return dict(
        program=lower_to_global(_toy_program()),
        inputs={"x": scale * np.arange(n, dtype=float)},
        size_env={"N": n},
        global_size=(n, 1, 1),
        local_size=(8, 1, 1),
        options=CompilerOptions(local_size=(8, 1, 1)),
    )


def _toy_baseline(payload):
    result = compile_and_run(
        payload["program"], payload["inputs"], payload["size_env"],
        payload["global_size"], options=payload["options"],
        local_size=payload["local_size"],
    )
    return result.output, result.counters


def _service(tmp_path, **overrides):
    kwargs = dict(
        workers=2,
        max_queue=8,
        journal_dir=str(tmp_path / "journal"),
        drain_timeout=5.0,
    )
    kwargs.update(overrides)
    return TuningService(
        cache=TuningCache(tmp_path / "cache"), config=ServiceConfig(**kwargs)
    )


# ---------------------------------------------------------------------------
# deterministic jitter (satellite: RetryPolicy backoff)
# ---------------------------------------------------------------------------

class TestDeterministicJitter:
    def test_pure_function_of_key_and_attempt(self):
        assert deterministic_jitter("req-1", 0, 0.25) == deterministic_jitter(
            "req-1", 0, 0.25
        )
        assert deterministic_jitter("req-1", 0, 0.25) != deterministic_jitter(
            "req-1", 1, 0.25
        )
        assert deterministic_jitter("req-1", 0, 0.25) != deterministic_jitter(
            "req-2", 0, 0.25
        )

    def test_bounded_by_spread(self):
        for attempt in range(32):
            m = deterministic_jitter("key", attempt, 0.25)
            assert 0.75 <= m <= 1.25

    def test_zero_spread_is_identity(self):
        assert deterministic_jitter("key", 3, 0.0) == 1.0

    def test_policy_delays_replay_per_key(self):
        policy = RetryPolicy(attempts=4, base_delay=0.1, jitter=0.5)
        a = list(policy.delays("request-a"))
        assert a == list(policy.delays("request-a"))
        assert a != list(policy.delays("request-b"))
        bare = list(RetryPolicy(attempts=4, base_delay=0.1).delays())
        assert a != bare
        for jittered, base in zip(a, bare):
            assert 0.5 * base <= jittered <= 1.5 * base

    def test_policy_call_uses_jittered_delays(self):
        slept = []
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise OSError("transient")
            return "done"

        policy = RetryPolicy(attempts=3, base_delay=0.1, jitter=0.5)
        assert policy.call(flaky, sleep=slept.append, key="req") == "done"
        assert slept == list(policy.delays("req"))[:2]


# ---------------------------------------------------------------------------
# deadline propagation (satellite: remaining budget bounds each stage)
# ---------------------------------------------------------------------------

class TestDeadlinePropagation:
    def test_clamp_is_min_of_timeout_and_remaining(self):
        deadline = Deadline.after(10.0)
        assert deadline.clamp(1.0) == 1.0
        assert 9.0 < deadline.clamp(None) <= 10.0
        assert 9.0 < deadline.clamp(100.0) <= 10.0
        assert Deadline.after(-1.0).clamp(5.0) == 0.0

    def test_expired_deadline_aborts_exploration(self):
        config = ExploreConfig(
            depth=2, max_eval=4, deadline=Deadline.after(0.0),
            candidate_timeout=5.0,
        )
        result = explore_program(
            _toy_program(), {"x": np.arange(32, dtype=float)}, {"N": 32},
            config=config,
        )
        assert result.stats.aborted
        assert not result.candidates
        assert result.failures
        assert all(f.kind == "timeout" for f in result.failures)

    def test_generous_deadline_matches_unbounded_search(self):
        inputs = {"x": np.arange(32, dtype=float)}
        free = explore_program(
            _toy_program(), inputs, {"N": 32},
            config=ExploreConfig(depth=2, max_eval=4),
        )
        bounded = explore_program(
            _toy_program(), inputs, {"N": 32},
            config=ExploreConfig(
                depth=2, max_eval=4, deadline=Deadline.after(120.0),
                candidate_timeout=30.0,
            ),
        )
        assert [c.trace for c in bounded.candidates] == [
            c.trace for c in free.candidates
        ]
        assert not bounded.stats.aborted


# ---------------------------------------------------------------------------
# circuit breakers
# ---------------------------------------------------------------------------

class TestCircuitBreaker:
    def _breaker(self, **cfg):
        clock = {"now": 0.0}
        breaker = CircuitBreaker(
            "fused",
            BreakerConfig(**cfg) if cfg else BreakerConfig(),
            clock=lambda: clock["now"],
        )
        return breaker, clock

    def test_trips_after_consecutive_failures(self):
        breaker, _ = self._breaker(failure_threshold=3)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open" and not breaker.allow()

    def test_success_resets_the_failure_streak(self):
        breaker, _ = self._breaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_probe_success_closes(self):
        breaker, clock = self._breaker(
            failure_threshold=1, reset_timeout=10.0, half_open_probes=1
        )
        breaker.record_failure()
        assert not breaker.allow()
        clock["now"] = 11.0
        assert breaker.state == "half-open"
        assert breaker.allow()  # the probe
        assert not breaker.allow()  # only one probe admitted
        breaker.record_success()
        assert breaker.state == "closed" and breaker.allow()

    def test_half_open_probe_failure_reopens(self):
        breaker, clock = self._breaker(failure_threshold=1, reset_timeout=10.0)
        breaker.record_failure()
        clock["now"] = 11.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()

    def test_no_verdict_probe_releases_its_slot(self):
        """A probed launch that ends in a static/dynamic decline —
        neither success nor failure — must give the slot back, or the
        breaker would reject every launch forever."""
        breaker, clock = self._breaker(
            failure_threshold=1, reset_timeout=10.0, half_open_probes=1
        )
        breaker.record_failure()
        clock["now"] = 11.0
        assert breaker.allow()  # the probe slot
        assert not breaker.allow()
        breaker.release_probe()  # launch declined with no health verdict
        assert breaker.allow()  # the slot is free again
        breaker.record_success()
        assert breaker.state == "closed"

    def test_release_probe_outside_half_open_is_a_no_op(self):
        breaker, _ = self._breaker(failure_threshold=1)
        breaker.release_probe()  # closed: no slot was consumed
        assert breaker.allow()
        assert breaker.allow()  # closed launches are unlimited

    def test_stale_half_open_probe_reclaimed_after_cooldown(self):
        """Backstop: a probe whose launch never reports any verdict at
        all is reclaimed after another ``reset_timeout``."""
        breaker, clock = self._breaker(
            failure_threshold=1, reset_timeout=10.0, half_open_probes=1
        )
        breaker.record_failure()
        clock["now"] = 11.0
        assert breaker.allow()  # probe consumed; verdict never arrives
        assert not breaker.allow()
        clock["now"] = 22.0  # a full cool-down later
        assert breaker.state == "half-open"
        assert breaker.allow()  # the lost slot was reclaimed

    def test_board_snapshot_and_open_count(self):
        board = BreakerBoard(BreakerConfig(failure_threshold=1))
        board.failure("fused")
        board.success("compiled")
        snap = board.snapshot()
        assert snap["fused"]["state"] == "open"
        assert snap["compiled"]["state"] == "closed"
        assert board.open_count() == 1


SAXPY = """
kernel void SAXPY(const global float * restrict x,
                  const global float * restrict y,
                  global float *out, float a, int n) {
  int i = get_global_id(0);
  if (i < n) { out[i] = a * x[i] + y[i]; }
}
"""


def _run_saxpy(engine=None, n=32, local=8):
    program = OpenCLProgram(SAXPY)
    args = {
        "x": Buffer.from_array(np.arange(n, dtype=float)),
        "y": Buffer.from_array(np.ones(n)),
        "out": Buffer.zeros(n),
        "a": 2.0,
        "n": n,
    }
    launch(program, n, local, args, engine=engine)
    return args["out"].data.copy()


class TestBreakerChainIntegration:
    def test_open_breaker_skips_tier_and_is_ledgered(self):
        clean = _run_saxpy(engine="auto")
        board = BreakerBoard(
            BreakerConfig(failure_threshold=2, reset_timeout=60.0)
        )
        with board_installed(board):
            with faultinject.plan_installed("seed=1;backend-run=1.0"):
                # Certain injection: every launch declines the non-final
                # members with a fault, feeding their breakers.
                for _ in range(2):
                    out = _run_saxpy(engine="auto")
                    np.testing.assert_array_equal(out, clean)
            assert board.open_count() >= 1
            # Injection off again: the open breaker (not a fault) now
            # skips the tier pre-emptively, the result stays identical.
            out = _run_saxpy(engine="auto")
        np.testing.assert_array_equal(out, clean)
        counts = ledger.counts()
        breaker_declines = {
            key: n for key, n in counts.items() if key[2] == "breaker"
        }
        assert breaker_declines, f"no breaker declines in {counts}"

    def test_no_board_installed_is_a_no_op(self):
        clean = _run_saxpy(engine="auto")
        assert not any(k[2] == "breaker" for k in ledger.counts())
        np.testing.assert_array_equal(clean, _run_saxpy(engine="auto"))

    def test_static_decline_probe_does_not_wedge_the_breaker(self):
        """A half-open probe that ends in a static capability refusal
        (no health verdict) must release its slot: the tier keeps being
        probed instead of staying half-open, rejected forever."""
        from repro.backend import (
            Backend,
            CompileUnsupported,
            register_backend,
            register_engine,
        )
        from repro.backend import registry as registry_mod

        class Refuser(Backend):
            name = "test-refuser"

            def plan(self, parsed, kernel):
                raise CompileUnsupported("always declines")

        clock = {"now": 0.0}
        board = BreakerBoard(
            BreakerConfig(
                failure_threshold=1, reset_timeout=10.0, half_open_probes=1
            ),
            clock=lambda: clock["now"],
        )
        clean = _run_saxpy(engine="scalar")
        try:
            register_backend(Refuser())
            register_engine(
                "test-refuser-chain", ("test-refuser", "scalar")
            )
            board.failure("test-refuser")  # breaker opens
            clock["now"] = 11.0  # half-open: launches are probes now
            with board_installed(board):
                for _ in range(3):
                    out = _run_saxpy(engine="test-refuser-chain")
                    np.testing.assert_array_equal(out, clean)
            # Every static decline released its probe slot, so the
            # breaker never rejected a launch pre-emptively.
            assert not any(
                key[2] == "breaker" for key in ledger.counts()
            ), ledger.counts()
            assert board.breaker("test-refuser").state == "half-open"
        finally:
            registry_mod._BACKENDS.pop("test-refuser", None)
            registry_mod._ENGINES.pop("test-refuser-chain", None)


# ---------------------------------------------------------------------------
# admission queue + response promise
# ---------------------------------------------------------------------------

def _request(key="k", request_id="r-1"):
    return ServiceRequest(
        id=request_id, kind="run", key=key, work=lambda req: None,
        response=ServiceResponse(request_id), token=CancellationToken(),
    )


class TestAdmission:
    def test_bounded_queue_rejects_when_full(self):
        queue = AdmissionQueue(capacity=2)
        queue.submit(_request(request_id="a"))
        queue.submit(_request(request_id="b"))
        with pytest.raises(ServiceOverloaded):
            queue.submit(_request(request_id="c"))
        assert queue.depth() == 2

    def test_closed_queue_rejects_but_drains(self):
        queue = AdmissionQueue(capacity=4)
        queue.submit(_request(request_id="a"))
        queue.close()
        with pytest.raises(ServiceClosed):
            queue.submit(_request(request_id="b"))
        assert queue.pop(timeout=0.1).id == "a"
        assert queue.pop(timeout=0.1) is None  # closed + empty

    def test_paused_queue_hands_out_nothing(self):
        queue = AdmissionQueue(capacity=4)
        queue.submit(_request(request_id="a"))
        queue.set_paused(True)
        assert queue.pop(timeout=0.05) is None
        queue.set_paused(False)
        assert queue.pop(timeout=0.1).id == "a"

    def test_drain_pending_empties_the_queue(self):
        queue = AdmissionQueue(capacity=4)
        queue.submit(_request(request_id="a"))
        queue.submit(_request(request_id="b"))
        drained = queue.drain_pending()
        assert [r.id for r in drained] == ["a", "b"]
        assert queue.depth() == 0

    def test_response_result_times_out(self):
        response = ServiceResponse("r-1")
        with pytest.raises(TimeoutError):
            response.result(timeout=0.05)
        response.complete(42)
        assert response.result(timeout=0.05) == 42
        assert response.ok

    def test_response_fail_reraises(self):
        response = ServiceResponse("r-1")
        response.fail(ValueError("boom"))
        assert response.done and not response.ok
        with pytest.raises(ValueError):
            response.result(timeout=0.05)


# ---------------------------------------------------------------------------
# recovery journal
# ---------------------------------------------------------------------------

class TestRecoveryJournal:
    def test_begin_pending_commit_roundtrip(self, tmp_path):
        journal = RecoveryJournal(tmp_path)
        entry = JournalEntry("r-1", "run", "hash", {"benchmark": "nn"})
        assert journal.begin(entry)
        assert len(journal) == 1
        [pending] = journal.pending()
        assert pending.request_id == "r-1"
        assert pending.spec == {"benchmark": "nn"}
        journal.commit("r-1")
        assert len(journal) == 0 and not journal.pending()
        journal.commit("r-1")  # idempotent

    def test_pending_sorted_by_sequence(self, tmp_path):
        journal = RecoveryJournal(tmp_path)
        for rid in ("r-z", "r-a", "r-m"):
            journal.begin(JournalEntry(rid, "run", "h", None))
        assert [e.request_id for e in journal.pending()] == [
            "r-z", "r-a", "r-m"
        ]

    def test_corrupt_entry_quarantined_not_dropped(self, tmp_path):
        journal = RecoveryJournal(tmp_path)
        journal.begin(JournalEntry("r-1", "run", "h", None))
        (tmp_path / "r-2.journal").write_text("{not json")
        (tmp_path / "r-3.journal").write_text(
            json.dumps({"version": 99, "id": "r-3"})
        )
        assert [e.request_id for e in journal.pending()] == ["r-1"]
        leftovers = sorted(p.name for p in tmp_path.glob("*.corrupt"))
        assert leftovers == ["r-2.journal.corrupt", "r-3.journal.corrupt"]

    def test_injected_journal_fault_degrades_to_unjournaled(self, tmp_path):
        journal = RecoveryJournal(tmp_path)
        with faultinject.plan_installed(
            "seed=1;service-journal=1.0;attempts=1"
        ):
            assert not journal.begin(JournalEntry("r-1", "run", "h", None))
        assert journal.skipped_writes == 1
        assert len(journal) == 0

    def test_quarantine_moves_entry_aside(self, tmp_path):
        journal = RecoveryJournal(tmp_path)
        journal.begin(JournalEntry("r-1", "run", "h", None))
        journal.quarantine("r-1")
        assert not journal.pending()
        assert (tmp_path / "r-1.journal.unrecoverable").exists()


# ---------------------------------------------------------------------------
# the service daemon
# ---------------------------------------------------------------------------

class TestTuningService:
    def test_run_result_matches_one_shot_path(self, tmp_path):
        payload = _toy_payload()
        base_out, base_counters = _toy_baseline(payload)
        with _service(tmp_path) as service:
            out, counters = service.submit_run(**payload).result(30.0)
        assert out.tobytes() == base_out.tobytes()
        assert counters == base_counters

    def test_warm_hit_bypasses_the_queue(self, tmp_path):
        payload = _toy_payload()
        with _service(tmp_path) as service:
            first = service.submit_run(**payload).result(30.0)
            admits_after_first = service.stats.admits
            second = service.submit_run(**payload).result(1.0)
            assert service.stats.warm_hits == 1
            assert service.stats.admits == admits_after_first
        assert first[0].tobytes() == second[0].tobytes()
        assert first[1] == second[1]

    def test_concurrent_duplicates_coalesce(self, tmp_path):
        payload = _toy_payload()
        with _service(tmp_path) as service:
            service.pause()
            responses = [
                service.submit_run(**payload) for _ in range(4)
            ]
            assert service.stats.coalesced == 3
            assert service.queue_depth() == 1
            service.resume()
            results = [r.result(30.0) for r in responses]
        assert len({out.tobytes() for out, _ in results}) == 1

    def test_full_queue_rejects_with_backpressure(self, tmp_path):
        with _service(tmp_path, workers=1, max_queue=1) as service:
            service.pause()
            service.submit_run(**_toy_payload(scale=1.0))
            with pytest.raises(ServiceOverloaded):
                service.submit_run(**_toy_payload(scale=2.0))
            assert service.stats.rejects == 1
            # The rejected request's journal entry was committed: only
            # the admitted one is on disk.
            assert len(service.journal) == 1
            service.resume()

    def test_submit_after_shutdown_raises_closed(self, tmp_path):
        service = _service(tmp_path)
        service.shutdown()
        with pytest.raises(ServiceClosed):
            service.submit_run(**_toy_payload())

    def test_expired_deadline_fails_with_timeout(self, tmp_path):
        with _service(tmp_path) as service:
            service.pause()
            response = service.submit_run(**_toy_payload(), timeout=0.01)
            time.sleep(0.05)
            service.resume()
            with pytest.raises(DeadlineExceeded):
                response.result(10.0)
            assert service.stats.timeouts == 1

    def test_injected_worker_faults_never_escape(self, tmp_path):
        payload = _toy_payload()
        base_out, base_counters = _toy_baseline(payload)
        with faultinject.plan_installed("seed=3;service-worker=0.4"):
            with _service(tmp_path) as service:
                out, counters = service.submit_run(**payload).result(30.0)
        assert out.tobytes() == base_out.tobytes()
        assert counters == base_counters

    def test_drain_cancels_queued_and_commits_their_journal(self, tmp_path):
        service = _service(tmp_path, workers=1)
        service.pause()
        responses = [
            service.submit_run(**_toy_payload(scale=float(i)))
            for i in range(1, 4)
        ]
        assert len(service.journal) == 3
        assert service.shutdown()  # drains: queued work is cancelled
        for response in responses:
            assert isinstance(response.error, Cancelled)
        assert service.stats.drained == 3
        # No orphaned journal entries after a graceful drain.
        assert len(service.journal) == 0

    def test_metrics_snapshot_carries_service_state(self, tmp_path):
        with _service(tmp_path) as service:
            service.submit_run(**_toy_payload()).result(30.0)
            doc = obs.snapshot()["service"]
            assert doc["active"]
            assert doc["stats"]["completed"] == 1
            assert doc["queue"]["capacity"] == 8
            assert "breakers" in doc and "journal" in doc
        assert not obs.snapshot()["service"]["active"]

    def test_shutdown_restores_the_previous_metrics_view(self, tmp_path):
        with _service(tmp_path / "outer") as outer:
            outer.submit_run(**_toy_payload()).result(30.0)
            inner = _service(tmp_path / "inner")
            inner.shutdown()
            # The inner shutdown restores the still-running outer
            # service's view rather than clobbering the slot.
            doc = obs.snapshot()["service"]
            assert doc["active"]
            assert doc["stats"]["completed"] == 1
        # The last shutdown leaves no stale stats in the snapshot.
        doc = obs.snapshot()["service"]
        assert not doc["active"]
        assert "stats" not in doc

    def test_stats_bump_is_thread_safe(self):
        stats = ServiceStats()

        def hammer():
            for _ in range(5000):
                stats.bump("admits")

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert stats.admits == 40000
        assert stats.as_dict()["admits"] == 40000

    def test_tune_request_runs_exploration(self, tmp_path):
        with _service(tmp_path) as service:
            result = service.submit_tune(
                _toy_program(), {"x": np.arange(32, dtype=float)}, {"N": 32},
                depth=2, max_eval=4,
            ).result(120.0)
        assert result.candidates
        assert result.best().runtime is not None


# ---------------------------------------------------------------------------
# crash recovery
# ---------------------------------------------------------------------------

def _toy_resolver(entry):
    spec = entry.spec or {}
    if spec.get("kind") != "toy":
        return None
    return _toy_payload(n=spec["n"], scale=spec["scale"])


class TestRecovery:
    def test_recover_reenqueues_orphans(self, tmp_path):
        journal_dir = tmp_path / "journal"
        journal = RecoveryJournal(journal_dir)
        for i in (1, 2):
            journal.begin(
                JournalEntry(
                    f"orphan-{i}", "run", "",
                    {"kind": "toy", "n": 32, "scale": float(i)},
                )
            )
        with _service(tmp_path) as service:
            assert service.recover(_toy_resolver) == 2
            assert service.stats.replayed == 2
            deadline = time.monotonic() + 30.0
            while service.stats.completed < 2:
                assert time.monotonic() < deadline
                time.sleep(0.01)
        # Replay is idempotent through the cache and commits on
        # completion: nothing pending afterwards.
        assert not RecoveryJournal(journal_dir).pending()
        for i in (1, 2):
            payload = _toy_payload(scale=float(i))
            base_out, _ = _toy_baseline(payload)
            cache = TuningCache(tmp_path / "cache")
            kernel_key = cache.kernel_key(
                payload["program"], payload["options"], payload["size_env"]
            )
            from repro.cache import fingerprint_inputs

            run_key = cache.run_key(
                kernel_key, fingerprint_inputs(payload["inputs"]),
                payload["global_size"], payload["local_size"], None,
            )
            hit = cache.get_run(run_key)
            assert hit is not None
            assert hit[0].tobytes() == base_out.tobytes()

    def test_rejected_recovery_reenqueue_keeps_the_orphan(self, tmp_path):
        """A recovery re-enqueue that hits a full queue must leave the
        orphan's journal entry on disk for a later recover() — the
        rejection handler may only unlink entries it created itself."""
        with _service(tmp_path, workers=1, max_queue=1) as service:
            service.pause()
            # Fill the single queue slot with an unrelated cold request.
            filler = service.submit_run(**_toy_payload(scale=9.0))
            entry = JournalEntry(
                "orphan-1", "run", "",
                {"kind": "toy", "n": 32, "scale": 1.0},
            )
            assert service.journal.begin(entry)
            with pytest.raises(ServiceOverloaded):
                service.submit_run(
                    **_toy_payload(scale=1.0), _recover_entry=entry
                )
            assert "orphan-1" in [
                e.request_id for e in service.journal.pending()
            ], "overloaded recovery deleted the orphan from disk"
            service.resume()
            filler.result(30.0)
            # With the queue free again, a later recover() replays it.
            assert service.recover(_toy_resolver) == 1
            deadline = time.monotonic() + 30.0
            while (
                service.stats.completed + service.stats.warm_hits < 2
            ):
                assert time.monotonic() < deadline
                time.sleep(0.01)
        assert not RecoveryJournal(tmp_path / "journal").pending()

    def test_unresolvable_orphan_is_quarantined(self, tmp_path):
        journal_dir = tmp_path / "journal"
        journal = RecoveryJournal(journal_dir)
        journal.begin(JournalEntry("mystery-1", "run", "", {"kind": "???"}))
        journal.begin(JournalEntry("specless-1", "run", "", None))
        with _service(tmp_path) as service:
            assert service.recover(_toy_resolver) == 0
            assert service.stats.unrecoverable == 2
        assert not RecoveryJournal(journal_dir).pending()
        leftovers = sorted(p.name for p in journal_dir.glob("*.unrecoverable"))
        assert leftovers == [
            "mystery-1.journal.unrecoverable",
            "specless-1.journal.unrecoverable",
        ]

    def test_sigkill_mid_flight_loses_no_request(self, tmp_path):
        """A real SIGKILL: a child process admits and journals requests,
        is killed before the workers finish, and a fresh service on the
        same journal directory re-enqueues exactly the orphans."""
        journal_dir = tmp_path / "journal"
        child = textwrap.dedent(
            """
            import sys, time
            sys.path.insert(0, sys.argv[2])
            from tests.test_service import _service, _toy_payload  # noqa
            import pathlib
            tmp = pathlib.Path(sys.argv[1])
            service = _service(tmp, workers=1)
            service.pause()  # keep every request in-flight (journaled)
            for i in (1, 2, 3):
                service.submit_run(
                    **_toy_payload(scale=float(i)),
                    spec={"kind": "toy", "n": 32, "scale": float(i)},
                )
            print("READY", flush=True)
            service.resume()
            time.sleep(60)  # killed long before this returns
            """
        )
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(
                [os.path.dirname(os.path.dirname(repro.__file__)),
                 os.environ.get("PYTHONPATH", "")]
            ),
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", child, str(tmp_path),
             os.path.dirname(os.path.dirname(os.path.abspath(__file__)))],
            stdout=subprocess.PIPE, env=env, text=True,
        )
        try:
            line = proc.stdout.readline()
            assert line.strip() == "READY"
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10)
        finally:
            if proc.poll() is None:
                proc.kill()

        orphans = RecoveryJournal(journal_dir).pending()
        assert orphans, "the kill left no journal entries to recover"
        with _service(tmp_path) as service:
            replayed = service.recover(_toy_resolver)
            assert replayed == len(orphans)
            deadline = time.monotonic() + 30.0
            while (
                service.stats.completed + service.stats.warm_hits < replayed
            ):
                assert time.monotonic() < deadline
                time.sleep(0.01)
        assert not RecoveryJournal(journal_dir).pending()
        # Zero lost requests: every orphan's result is bitwise-identical
        # to the solo path.
        cache = TuningCache(tmp_path / "cache")
        from repro.cache import fingerprint_inputs

        for entry in orphans:
            payload = _toy_payload(
                n=entry.spec["n"], scale=entry.spec["scale"]
            )
            base_out, base_counters = _toy_baseline(payload)
            kernel_key = cache.kernel_key(
                payload["program"], payload["options"], payload["size_env"]
            )
            run_key = cache.run_key(
                kernel_key, fingerprint_inputs(payload["inputs"]),
                payload["global_size"], payload["local_size"], None,
            )
            hit = cache.get_run(run_key)
            assert hit is not None
            assert hit[0].tobytes() == base_out.tobytes()
            assert hit[1] == base_counters


# ---------------------------------------------------------------------------
# the hammer soak (the acceptance gate, in miniature)
# ---------------------------------------------------------------------------

class TestHammer:
    def test_hammer_bitwise_under_chaos_plan(self, tmp_path):
        from repro.benchsuite.hammer import run_hammer

        with faultinject.plan_installed("seed=11;rate=0.05"):
            report = run_hammer(
                clients=8,
                requests_per_client=2,
                cache_dir=str(tmp_path / "cache"),
                journal_dir=str(tmp_path / "journal"),
                benchmarks=("nn", "gemv"),
            )
        assert report["ok"], report
        assert report["mismatches"] == []
        assert report["client_errors"] == []
        assert report["overload_rejected"]
        assert report["replayed"] >= 1
        assert report["coalesced"] >= 7
        assert report["orphans_after_drain"] == 0
