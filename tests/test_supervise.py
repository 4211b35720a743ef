"""Tests for supervised cell execution (repro.perf.supervise).

The chaos harness (repro.perf.chaos) scripts the faults: every retry,
reap, crash-recovery, and quarantine scenario here is deterministic and
replayable — no flaky sleeps racing real failures.
"""

import time

import pytest

from repro.perf import chaos
from repro.perf.supervise import (
    CellTimeout,
    RetryPolicy,
    Supervision,
    TooManyFailures,
    WorkerCrash,
    classify_failure,
    exception_names,
    supervised_indexed,
)


def _square(params):
    return params["x"] * params["x"]


#: Module-level so pool workers can unpickle it; reads the chaos plan
#: from the environment inside the worker.
_chaos_square = chaos.wrap(_square)


def _sleep_then_square(params):
    time.sleep(params.get("sleep_s", 0.0))
    if params.get("fail"):
        raise RuntimeError(f"scripted failure for {params['x']}")
    return params["x"] * params["x"]


def _items(count):
    return [{"x": i} for i in range(count)]


def _by_index(outcomes):
    return sorted(outcomes, key=lambda outcome: outcome.index)


class TestRetryPolicy:
    def test_max_attempts_validated(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)

    def test_default_is_single_attempt(self):
        assert not RetryPolicy().should_retry(("ValueError",), 1)

    def test_attempt_budget(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.should_retry(("ValueError",), 1)
        assert policy.should_retry(("ValueError",), 2)
        assert not policy.should_retry(("ValueError",), 3)

    def test_deny_list_wins_over_allow_list(self):
        policy = RetryPolicy(
            max_attempts=5,
            retry_on=("ChaosTransientError",),
            no_retry_on=("ChaosTransientError",),
        )
        assert not policy.should_retry(("ChaosTransientError",), 1)

    def test_allow_list_filters(self):
        policy = RetryPolicy(max_attempts=5, retry_on=("TimeoutError",))
        assert policy.should_retry(("TimeoutError",), 1)
        assert not policy.should_retry(("ValueError",), 1)

    def test_mro_names_let_policies_match_base_classes(self):
        names = exception_names(chaos.ChaosTransientError("x"))
        assert "ChaosTransientError" in names
        assert "ChaosFault" in names  # base class matches too
        assert "RuntimeError" in names
        assert "object" not in names
        policy = RetryPolicy(max_attempts=5, retry_on=("ChaosFault",))
        assert policy.should_retry(names, 1)

    def test_backoff_grows_exponentially(self):
        policy = RetryPolicy(
            max_attempts=5, backoff_base_s=0.1, backoff_factor=2.0, jitter=0.0
        )
        assert policy.delay_s(1) == pytest.approx(0.1)
        assert policy.delay_s(2) == pytest.approx(0.2)
        assert policy.delay_s(3) == pytest.approx(0.4)

    def test_jitter_is_deterministic_and_seeded(self):
        a = RetryPolicy(max_attempts=5, seed=1)
        b = RetryPolicy(max_attempts=5, seed=1)
        c = RetryPolicy(max_attempts=5, seed=2)
        assert a.delay_s(1, token="7") == b.delay_s(1, token="7")
        assert a.delay_s(1, token="7") != c.delay_s(1, token="7")
        # Distinct cells de-synchronize.
        assert a.delay_s(1, token="7") != a.delay_s(1, token="8")

    def test_jitter_bounded_by_fraction(self):
        policy = RetryPolicy(max_attempts=5, backoff_base_s=1.0, jitter=0.25)
        for token in map(str, range(20)):
            assert 1.0 <= policy.delay_s(1, token=token) <= 1.25


class TestClassifyFailure:
    def test_kinds(self):
        assert classify_failure(ValueError("x"), 1).kind == "exception"
        assert classify_failure(CellTimeout("x"), 2).kind == "timeout"
        assert classify_failure(WorkerCrash("x"), 3).kind == "crash"

    def test_record_fields(self):
        failure = classify_failure(ValueError("boom"), 4)
        record = failure.as_record()
        assert record["exception_type"] == "ValueError"
        assert record["message"] == "boom"
        assert record["attempts"] == 4
        assert len(record["traceback_digest"]) == 12


class TestSerialSupervision:
    def test_fault_free_identity(self):
        outcomes = list(
            supervised_indexed(_square, _items(5), supervision=Supervision())
        )
        assert [o.index for o in outcomes] == list(range(5))
        assert [o.value for o in outcomes] == [i * i for i in range(5)]
        assert all(o.ok and o.attempts == 1 for o in outcomes)

    def test_transient_fault_retried(self, tmp_path):
        plan = chaos.ChaosPlan.scripted(
            [{"fault": "transient", "match": {"x": 2}, "times": 2}],
            state_dir=tmp_path,
        )
        supervision = Supervision(
            retry=RetryPolicy(max_attempts=3, backoff_base_s=0.0)
        )
        with chaos.active(plan):
            outcomes = _by_index(
                supervised_indexed(
                    _chaos_square, _items(4), supervision=supervision
                )
            )
        assert [o.value for o in outcomes] == [0, 1, 4, 9]
        assert outcomes[2].attempts == 3
        assert all(o.ok for o in outcomes)

    def test_poison_cell_quarantined_run_continues(self, tmp_path):
        plan = chaos.ChaosPlan.scripted([{"fault": "raise", "match": {"x": 1}}])
        supervision = Supervision(
            retry=RetryPolicy(max_attempts=2, backoff_base_s=0.0)
        )
        with chaos.active(plan):
            outcomes = _by_index(
                supervised_indexed(
                    _chaos_square, _items(3), supervision=supervision
                )
            )
        assert outcomes[0].ok and outcomes[2].ok
        failure = outcomes[1].failure
        assert failure.kind == "exception"
        assert failure.exception_type == "ChaosFault"
        assert failure.attempts == 2

    def test_max_failures_aborts(self):
        plan = chaos.ChaosPlan.scripted(
            [
                {"fault": "raise", "match": {"x": 1}},
                {"fault": "raise", "match": {"x": 2}},
            ]
        )
        supervision = Supervision(max_failures=1)
        with chaos.active(plan):
            with pytest.raises(TooManyFailures):
                list(
                    supervised_indexed(
                        _chaos_square, _items(4), supervision=supervision
                    )
                )

    def test_max_failures_boundary_is_inclusive(self):
        plan = chaos.ChaosPlan.scripted([{"fault": "raise", "match": {"x": 1}}])
        with chaos.active(plan):
            outcomes = list(
                supervised_indexed(
                    _chaos_square,
                    _items(3),
                    supervision=Supervision(max_failures=1),
                )
            )
        assert sum(1 for o in outcomes if not o.ok) == 1


class TestPoolSupervision:
    SUPERVISION = Supervision(retry=RetryPolicy(max_attempts=3, backoff_base_s=0.01))

    def test_fault_free_identity(self):
        outcomes = _by_index(
            supervised_indexed(
                _square, _items(6), supervision=Supervision(), workers=3
            )
        )
        assert [o.value for o in outcomes] == [i * i for i in range(6)]
        assert all(o.ok and o.attempts == 1 for o in outcomes)

    def test_transient_fault_retried_in_pool(self, tmp_path):
        plan = chaos.ChaosPlan.scripted(
            [{"fault": "transient", "match": {"x": 1}, "times": 1}],
            state_dir=tmp_path,
        )
        with chaos.active(plan):
            outcomes = _by_index(
                supervised_indexed(
                    _chaos_square, _items(4), supervision=self.SUPERVISION,
                    workers=2,
                )
            )
        assert [o.value for o in outcomes] == [0, 1, 4, 9]
        assert outcomes[1].attempts == 2

    def test_poison_cell_quarantined_in_pool(self, tmp_path):
        plan = chaos.ChaosPlan.scripted([{"fault": "raise", "match": {"x": 2}}])
        with chaos.active(plan):
            outcomes = _by_index(
                supervised_indexed(
                    _chaos_square, _items(5), supervision=self.SUPERVISION,
                    workers=2,
                )
            )
        assert [o.ok for o in outcomes] == [True, True, False, True, True]
        assert outcomes[2].failure.attempts == 3

    def test_hung_cell_reaped_within_timeout(self, tmp_path):
        plan = chaos.ChaosPlan.scripted(
            [{"fault": "hang", "match": {"x": 1}, "times": 1, "hang_s": 120.0}],
            state_dir=tmp_path,
        )
        supervision = Supervision(
            retry=RetryPolicy(max_attempts=2, backoff_base_s=0.01),
            cell_timeout_s=2.0,
        )
        start = time.monotonic()
        with chaos.active(plan):
            outcomes = _by_index(
                supervised_indexed(
                    _chaos_square, _items(4), supervision=supervision, workers=2
                )
            )
        elapsed = time.monotonic() - start
        # Reaped at ~2s (not the 120s hang), then retried clean.
        assert elapsed < 60.0
        assert all(o.ok for o in outcomes)
        assert outcomes[1].attempts == 2

    def test_perpetually_hung_cell_times_out_terminally(self, tmp_path):
        plan = chaos.ChaosPlan.scripted(
            [{"fault": "hang", "match": {"x": 1}, "times": 10, "hang_s": 120.0}],
            state_dir=tmp_path,
        )
        supervision = Supervision(
            retry=RetryPolicy(max_attempts=2, backoff_base_s=0.01),
            cell_timeout_s=1.5,
        )
        with chaos.active(plan):
            outcomes = _by_index(
                supervised_indexed(
                    _chaos_square, _items(3), supervision=supervision, workers=2
                )
            )
        assert outcomes[0].ok and outcomes[2].ok
        assert not outcomes[1].ok
        assert outcomes[1].failure.kind == "timeout"
        assert outcomes[1].failure.exception_type == "CellTimeout"

    def test_worker_exit_broken_pool_recovered(self, tmp_path):
        plan = chaos.ChaosPlan.scripted(
            [{"fault": "exit", "match": {"x": 2}, "times": 1, "exit_code": 9}],
            state_dir=tmp_path,
        )
        with chaos.active(plan):
            outcomes = _by_index(
                supervised_indexed(
                    _chaos_square, _items(5), supervision=self.SUPERVISION,
                    workers=2,
                )
            )
        # The pool was rebuilt and every cell (the killer and any
        # innocent in-flight siblings) resubmitted and completed.
        assert [o.value for o in outcomes] == [0, 1, 4, 9, 16]
        assert outcomes[2].attempts >= 2

    def test_repeated_crashes_classified_terminally(self, tmp_path):
        plan = chaos.ChaosPlan.scripted(
            [{"fault": "exit", "match": {"x": 1}, "times": 10, "exit_code": 9}],
            state_dir=tmp_path,
        )
        with chaos.active(plan):
            outcomes = _by_index(
                supervised_indexed(
                    _chaos_square, _items(3), supervision=self.SUPERVISION,
                    workers=2,
                )
            )
        assert outcomes[0].ok and outcomes[2].ok
        assert not outcomes[1].ok
        assert outcomes[1].failure.kind == "crash"
        assert outcomes[1].failure.attempts == 3

    def test_max_failures_aborts_pool_run(self):
        plan = chaos.ChaosPlan.scripted(
            [
                {"fault": "raise", "match": {"x": 1}},
                {"fault": "raise", "match": {"x": 3}},
            ]
        )
        supervision = Supervision(max_failures=1)
        with chaos.active(plan):
            with pytest.raises(TooManyFailures):
                list(
                    supervised_indexed(
                        _chaos_square,
                        _items(5),
                        supervision=supervision,
                        workers=2,
                    )
                )

    def test_cell_timeout_forces_pool_even_serial(self, tmp_path):
        """Deadlines need a reapable child even with workers=1."""
        plan = chaos.ChaosPlan.scripted(
            [{"fault": "hang", "match": {"x": 0}, "times": 1, "hang_s": 120.0}],
            state_dir=tmp_path,
        )
        supervision = Supervision(
            retry=RetryPolicy(max_attempts=2, backoff_base_s=0.01),
            cell_timeout_s=2.0,
        )
        with chaos.active(plan):
            outcomes = _by_index(
                supervised_indexed(
                    _chaos_square, _items(2), supervision=supervision, workers=1
                )
            )
        assert all(o.ok for o in outcomes)
        assert outcomes[0].attempts == 2

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError):
            supervised_indexed(
                _square, _items(2), supervision=Supervision(), workers=-1
            )

    def test_successes_yield_before_failures_of_one_wake_up(self):
        # A fail-fast consumer stops at the first failure it sees, so a
        # cell that finished alongside it must come out first.
        items = [
            {"x": 0},
            {"x": 1, "sleep_s": 0.5, "fail": True},
            {"x": 2, "sleep_s": 0.5},
        ]
        outcomes = supervised_indexed(
            _sleep_then_square, items, supervision=Supervision(), workers=3
        )
        assert next(outcomes).index == 0
        time.sleep(2.0)  # both slow cells finish before the next wait
        rest = list(outcomes)
        assert [(o.index, o.ok) for o in rest] == [(2, True), (1, False)]
        assert isinstance(rest[1].exception, RuntimeError)
        assert rest[1].failure.message == "scripted failure for 1"

    def test_closing_early_leaves_no_worker_behind(self):
        import multiprocessing

        before = set(multiprocessing.active_children())
        items = [{"x": 0}] + [{"x": x, "sleep_s": 5.0} for x in range(1, 4)]
        outcomes = supervised_indexed(
            _sleep_then_square, items, supervision=Supervision(), workers=2
        )
        assert next(outcomes).index == 0
        started = time.monotonic()
        outcomes.close()
        assert time.monotonic() - started < 4.0  # reaped, not waited out
        assert set(multiprocessing.active_children()) <= before
