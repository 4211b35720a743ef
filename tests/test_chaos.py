"""Tests for the deterministic fault-injection harness (repro.perf.chaos)."""

import json
import os

import pytest
from oracles.chaos import ChaosWrapped

from repro.perf import chaos
from repro.perf.chaos import (
    CHAOS_ENV,
    ChaosFault,
    ChaosPlan,
    ChaosTransientError,
    Fault,
)
from repro.sweep.runner import _BatchKernel


def _square(params):
    return params["x"] * params["x"]


class TestFault:
    def test_make_validates_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            Fault.make("meteor", {"x": 1})

    def test_raise_defaults_to_poison(self):
        assert Fault.make("raise", {"x": 1}).times is None

    def test_bounded_kinds_default_to_once(self):
        for kind in ("transient", "hang", "exit", "corrupt"):
            assert Fault.make(kind, {"x": 1}).times == 1

    def test_matches_on_param_subset(self):
        fault = Fault.make("raise", {"policy": "lru", "prefetch": "none"})
        assert fault.matches({"policy": "lru", "prefetch": "none", "depth": 2})
        assert not fault.matches({"policy": "lru", "prefetch": "next_k"})
        assert not fault.matches({"policy": "lru"})  # missing key != match

    def test_match_order_is_canonical(self):
        a = Fault.make("raise", {"a": 1, "b": 2})
        b = Fault.make("raise", {"b": 2, "a": 1})
        assert a == b


class TestChaosPlan:
    def test_scripted_accepts_dicts_and_faults(self, tmp_path):
        plan = ChaosPlan.scripted(
            [
                Fault.make("raise", {"x": 1}),
                {"fault": "transient", "match": {"x": 2}, "times": 3},
            ],
            state_dir=tmp_path,
        )
        assert plan.faults[0].kind == "raise"
        assert plan.faults[1].times == 3

    def test_json_roundtrip(self, tmp_path):
        plan = ChaosPlan.scripted(
            [
                {"fault": "hang", "match": {"x": 3}, "hang_s": 12.5},
                {"fault": "exit", "match": {"x": 4}, "exit_code": 7},
            ],
            state_dir=tmp_path,
        )
        assert ChaosPlan.from_json(plan.to_json()) == plan
        # The wire format is plain JSON an operator can write by hand.
        spec = json.loads(plan.to_json())
        assert spec["faults"][0]["fault"] == "hang"

    def test_times_bounded_faults_require_state_dir(self):
        with pytest.raises(ValueError, match="state_dir"):
            ChaosPlan.scripted([{"fault": "transient", "match": {"x": 1}}])

    def test_pure_poison_plan_needs_no_state(self):
        plan = ChaosPlan.scripted([{"fault": "raise", "match": {"x": 1}}])
        assert plan.state_dir is None

    def test_fault_for_first_match_wins(self, tmp_path):
        plan = ChaosPlan.scripted(
            [
                {"fault": "transient", "match": {"x": 1}},
                {"fault": "raise", "match": {"x": 1}},
            ],
            state_dir=tmp_path,
        )
        assert plan.fault_for({"x": 1}).kind == "transient"
        assert plan.fault_for({"x": 2}) is None


class TestBeforeCell:
    def test_poison_raises_every_time(self):
        plan = ChaosPlan.scripted([{"fault": "raise", "match": {"x": 1}}])
        for _ in range(3):
            with pytest.raises(ChaosFault):
                plan.before_cell({"x": 1, "y": 9})
        plan.before_cell({"x": 2})  # non-matching cells untouched

    def test_transient_stops_after_times(self, tmp_path):
        plan = ChaosPlan.scripted(
            [{"fault": "transient", "match": {"x": 1}, "times": 2}],
            state_dir=tmp_path,
        )
        for _ in range(2):
            with pytest.raises(ChaosTransientError):
                plan.before_cell({"x": 1})
        plan.before_cell({"x": 1})  # third attempt clean

    def test_attempt_counts_survive_reparse(self, tmp_path):
        """A re-parsed plan (another process) continues the same count."""
        spec = {"fault": "transient", "match": {"x": 1}, "times": 2}
        first = ChaosPlan.scripted([spec], state_dir=tmp_path)
        with pytest.raises(ChaosTransientError):
            first.before_cell({"x": 1})
        second = ChaosPlan.from_json(first.to_json())
        with pytest.raises(ChaosTransientError):
            second.before_cell({"x": 1})
        second.before_cell({"x": 1})

    def test_distinct_cells_count_separately(self, tmp_path):
        plan = ChaosPlan.scripted(
            [{"fault": "transient", "match": {"depth": 2}, "times": 1}],
            state_dir=tmp_path,
        )
        with pytest.raises(ChaosTransientError):
            plan.before_cell({"depth": 2, "policy": "lru"})
        # A different matching cell has its own attempt counter.
        with pytest.raises(ChaosTransientError):
            plan.before_cell({"depth": 2, "policy": "fifo"})
        plan.before_cell({"depth": 2, "policy": "lru"})


class TestCorruptAfterWrite:
    def test_truncates_matching_record(self, tmp_path):
        plan = ChaosPlan.scripted(
            [{"fault": "corrupt", "match": {"x": 1}}], state_dir=tmp_path
        )
        record = tmp_path / "cell.json"
        record.write_text(json.dumps({"value": [1, 2, 3], "meta": {}}))
        assert plan.corrupt_after_write(record, {"x": 1})
        with pytest.raises(ValueError):
            json.loads(record.read_text())

    def test_fires_only_times_times(self, tmp_path):
        plan = ChaosPlan.scripted(
            [{"fault": "corrupt", "match": {"x": 1}, "times": 1}],
            state_dir=tmp_path,
        )
        record = tmp_path / "cell.json"
        record.write_text(json.dumps({"value": 1}))
        assert plan.corrupt_after_write(record, {"x": 1})
        record.write_text(json.dumps({"value": 1}))
        assert not plan.corrupt_after_write(record, {"x": 1})
        assert json.loads(record.read_text()) == {"value": 1}

    def test_non_matching_record_untouched(self, tmp_path):
        plan = ChaosPlan.scripted(
            [{"fault": "corrupt", "match": {"x": 1}}], state_dir=tmp_path
        )
        record = tmp_path / "cell.json"
        record.write_text(json.dumps({"value": 1}))
        assert not plan.corrupt_after_write(record, {"x": 2})
        assert json.loads(record.read_text()) == {"value": 1}


class TestActivation:
    def test_runner_hook_fires_only_under_a_plan(self):
        """The sweep runner's dispatcher is the one production hook: it
        runs ``before_cell`` on every cell, and on every member of a
        traffic group, while a plan is installed."""
        kernel = _BatchKernel(_square, lambda group: [_square(p) for p in group])
        plan = ChaosPlan.scripted([{"fault": "raise", "match": {"x": 1}}])
        assert CHAOS_ENV not in os.environ
        assert kernel(("cell", {"x": 1})) == [1]
        with chaos.active(plan):
            with pytest.raises(ChaosFault):
                kernel(("cell", {"x": 1}))
            with pytest.raises(ChaosFault):
                kernel(("group", ({"x": 3}, {"x": 1})))
            assert kernel(("group", ({"x": 2}, {"x": 3}))) == [4, 9]

    def test_active_installs_and_restores_env(self):
        plan = ChaosPlan.scripted([{"fault": "raise", "match": {"x": 1}}])
        assert chaos.active_plan() is None
        with chaos.active(plan):
            assert os.environ[CHAOS_ENV] == plan.to_json()
            assert chaos.active_plan() == plan
            wrapped = ChaosWrapped(_square)
            with pytest.raises(ChaosFault):
                wrapped({"x": 1})
            assert wrapped({"x": 3}) == 9
        assert CHAOS_ENV not in os.environ
        assert chaos.active_plan() is None

    def test_active_none_masks_ambient_plan(self):
        plan = ChaosPlan.scripted([{"fault": "raise", "match": {"x": 1}}])
        with chaos.active(plan):
            with chaos.active(None):
                assert chaos.active_plan() is None
                ChaosWrapped(_square)({"x": 1})  # wrapped but inert
            assert chaos.active_plan() == plan

    def test_wrapped_kernel_is_chaos_free_without_env(self):
        wrapped = ChaosWrapped(_square)
        assert wrapped({"x": 5}) == 25

    def test_malformed_plan_raises_loudly(self, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV, "{not json")
        with pytest.raises(ValueError):
            chaos.active_plan()
