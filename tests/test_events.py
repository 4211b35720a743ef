"""The discrete-event kernel, port servers, and engine invariants.

Unit tests for the reference engines' event kernel
(``tests/oracles/events.py``: event ordering, greedy
reservations with cancellation, split-transaction dispatch) plus the
engine-level invariants of the split-transaction transfer model:
qubit conservation across levels, prefetched qubits never evicted
before first use, port occupancy never exceeding the configured
parallel transfers, and exact prefetching never losing to demand
fetching under the same transfer model.
"""

import heapq

import pytest

from oracles.events import EventKernel, PortServer
from oracles.levels import simulate_hierarchy_run_audited
from repro.circuits.workloads import available_workloads, build_workload
from repro.sim.cache import simulate_optimized
from repro.sim.levels import simulate_hierarchy_run, standard_stack
from repro.sim.policies import available_policies
from repro.sim.prefetch import (
    available_prefetchers,
    make_prefetcher,
    validate_prefetcher,
)

#: The engine-study geometry (small enough to pressure the caches).
STACK = dict(compute_qubits=12, cache_factor=1.0)

#: Workload sizes for the invariant runs: big enough that every level
#: and both transfer directions see traffic, small enough to stay fast.
SIZES = {"draper_adder": 32, "qft": 32, "modexp_trace": 24}


class TestEventKernel:
    def test_events_run_in_time_order(self):
        kernel = EventKernel()
        seen = []
        kernel.schedule(3.0, seen.append, "c")
        kernel.schedule(1.0, seen.append, "a")
        kernel.schedule(2.0, seen.append, "b")
        kernel.run()
        assert seen == ["a", "b", "c"]
        assert kernel.now == 3.0

    def test_equal_times_run_in_schedule_order(self):
        kernel = EventKernel()
        seen = []
        for tag in "abcd":
            kernel.schedule(1.0, seen.append, tag)
        kernel.run()
        assert seen == list("abcd")

    def test_events_can_schedule_events(self):
        kernel = EventKernel()
        seen = []

        def chain(tag, depth):
            seen.append((kernel.now, tag))
            if depth:
                kernel.schedule(kernel.now + 1.0, chain, tag + "'", depth - 1)

        kernel.schedule(0.0, chain, "x", 2)
        kernel.run()
        assert seen == [(0.0, "x"), (1.0, "x'"), (2.0, "x''")]

    def test_scheduling_in_the_past_raises(self):
        kernel = EventKernel()
        kernel.schedule(5.0, lambda: None)
        kernel.step()
        with pytest.raises(ValueError, match="past"):
            kernel.schedule(4.0, lambda: None)

    def test_step_on_empty_heap_raises(self):
        with pytest.raises(RuntimeError, match="empty"):
            EventKernel().step()


class TestGreedyReservations:
    def test_matches_manual_float_heap(self):
        """reserve() must replay the PR 2 pop/max/push arithmetic."""
        server = PortServer(3)
        heap = [0.0, 0.0, 0.0]
        heapq.heapify(heap)
        jobs = [(0.0, 5.0, 0.0), (2.0, 1.0, 3.0), (9.0, 2.0, 0.0),
                (1.0, 4.0, 1.5), (0.0, 0.5, 0.0)]
        for ready, duration, hold in jobs:
            free = heapq.heappop(heap)
            start = free if free > ready else ready
            heapq.heappush(heap, start + duration + hold)
            assert server.reserve(ready, duration, hold) == start
        assert server.lane_free_times() == sorted(heap)

    def test_cancel_restores_the_lane(self):
        server = PortServer(1)
        handle = server.reserve_handle(0.0, 10.0)
        assert handle.start == 0.0
        handle.cancel()
        # The lane is free again: the next reservation starts at its
        # ready time, not behind the cancelled hold.
        assert server.reserve(2.0, 1.0) == 2.0

    def test_cancel_is_idempotent(self):
        server = PortServer(2)
        handle = server.reserve_handle(0.0, 4.0)
        handle.cancel()
        handle.cancel()
        assert server.reserve(0.0, 1.0) == 0.0
        assert server.reserve(0.0, 1.0) == 0.0

    def test_cancel_under_a_later_reservation_is_refused(self):
        # On a single lane, a second reservation's start was computed
        # from the first one's hold; unwinding the first out of order
        # would overbook the lane, so the server must refuse.
        server = PortServer(1)
        first = server.reserve_handle(0.0, 10.0)
        second = server.reserve_handle(0.0, 5.0)
        assert second.start == 10.0
        with pytest.raises(ValueError, match="most recent"):
            first.cancel()
        # The lane is still single-booked: last-in cancels fine, and
        # then the first becomes cancellable again.
        second.cancel()
        first.cancel()
        assert server.reserve(3.0, 1.0) == 3.0

    def test_lanes_must_be_positive(self):
        with pytest.raises(ValueError, match="lane"):
            PortServer(0)


class TestSplitTransactionDispatch:
    def test_occupancy_never_exceeds_lanes(self):
        kernel = EventKernel()
        server = PortServer(2, kernel=kernel, record=True)
        done = []
        for i in range(7):
            server.request(0.0, 3.0, done.append)
        kernel.run()
        assert len(done) == 7
        assert server.max_active <= 2
        assert server.max_concurrency() <= 2
        # 7 transfers x 3s over 2 lanes: ceil(7/2) waves of 3s.
        assert done[-1] == 12.0

    def test_backfill_uses_idle_windows(self):
        """A short transfer ready early runs before a long one that is
        not ready yet — the split-transaction win over greedy holds."""
        kernel = EventKernel()
        server = PortServer(1, kernel=kernel)
        done = {}
        server.request(5.0, 10.0, lambda t: done.setdefault("late", t))
        server.request(0.0, 2.0, lambda t: done.setdefault("early", t))
        kernel.run()
        assert done["early"] == 2.0
        assert done["late"] == 15.0

    def test_priority_orders_queued_requests(self):
        # While the only lane is busy, a later-enqueued demand request
        # must overtake an already-queued prefetch when the lane frees.
        kernel = EventKernel()
        server = PortServer(1, kernel=kernel)
        order = []
        server.request(0.0, 1.0, lambda t: order.append("blocker"))
        kernel.step()  # blocker dispatches, lane busy until t=1
        server.request(0.0, 1.0, lambda t: order.append("prefetch"),
                       priority=2)
        server.request(0.0, 1.0, lambda t: order.append("demand"),
                       priority=0)
        kernel.run()
        assert order == ["blocker", "demand", "prefetch"]

    def test_withdraw_before_dispatch(self):
        kernel = EventKernel()
        server = PortServer(1, kernel=kernel)
        done = []
        blocker = server.request(0.0, 5.0, done.append)
        queued = server.request(0.0, 5.0, done.append)
        kernel.step()  # dispatches the blocker
        assert server.withdraw(queued) is True
        assert server.withdraw(blocker) is False  # already active
        kernel.run()
        assert done == [5.0]

    def test_request_needs_a_kernel(self):
        with pytest.raises(RuntimeError, match="EventKernel"):
            PortServer(1).request(0.0, 1.0, lambda t: None)


class TestPrefetchRegistry:
    def test_shipped_prefetchers_registered(self):
        names = available_prefetchers()
        for expected in ("none", "next_k", "distance"):
            assert expected in names

    def test_unknown_prefetcher_raises(self):
        with pytest.raises(ValueError, match="unknown prefetcher"):
            validate_prefetcher("oracle")
        with pytest.raises(ValueError, match="unknown prefetcher"):
            make_prefetcher("oracle")

    def test_fresh_instances(self):
        assert make_prefetcher("next_k") is not make_prefetcher("next_k")


def _audited(workload, prefetch, policy="lru", depth=3):
    stack = standard_stack("steane", depth, **STACK)
    circuit = build_workload(workload, SIZES[workload])
    return simulate_hierarchy_run_audited(
        stack, circuit, policy=policy, prefetch=prefetch,
        pipeline=True,
    )


class TestEngineInvariants:
    @pytest.mark.parametrize("workload", sorted(SIZES))
    @pytest.mark.parametrize("prefetch", ["none", "next_k", "distance"])
    def test_qubit_conservation_across_levels(self, workload, prefetch):
        result, audit = _audited(workload, prefetch)
        assert audit.conservation_ok
        circuit = build_workload(workload, SIZES[workload])
        total = sum(s.final_occupancy for s in result.level_stats)
        assert total == len(circuit.touched_qubits())

    @pytest.mark.parametrize("workload", sorted(SIZES))
    @pytest.mark.parametrize("prefetch", ["next_k", "distance"])
    @pytest.mark.parametrize("policy", available_policies())
    def test_prefetched_qubits_never_evicted_before_use(
        self, workload, prefetch, policy
    ):
        _, audit = _audited(workload, prefetch, policy=policy)
        assert audit.pinned_evictions == 0

    @pytest.mark.parametrize("workload", sorted(SIZES))
    @pytest.mark.parametrize("prefetch", ["none", "next_k", "distance"])
    def test_port_occupancy_within_parallel_transfers(
        self, workload, prefetch
    ):
        _, audit = _audited(workload, prefetch)
        for peak, lanes in zip(audit.port_peak_concurrency,
                               audit.port_lanes):
            assert peak <= lanes

    def test_every_prefetch_is_used(self):
        """Exact prefetching: the walk follows the static schedule, so
        every issued prefetch is eventually demanded."""
        result, _ = _audited("draper_adder", "next_k")
        assert result.prefetches_issued > 0
        assert result.prefetches_used == result.prefetches_issued

    @pytest.mark.parametrize("workload", sorted(SIZES))
    @pytest.mark.parametrize("policy", available_policies())
    def test_next_k_never_loses_to_demand(self, workload, policy):
        """Exact prefetching must only ever overlap transfers earlier:
        under the same transfer model, next_k runtime <= demand-fetch
        runtime on every registered workload and policy."""
        demand, _ = _audited(workload, "none", policy=policy)
        prefetched, _ = _audited(workload, "next_k", policy=policy)
        assert prefetched.total_time_s <= demand.total_time_s + 1e-9

    @pytest.mark.parametrize("policy", available_policies())
    def test_prefetch_never_displaces_the_issuing_gate(self, policy):
        """Regression: a prefetch issued while a gate's operands are
        being gathered must not evict one of those operands (a last-use
        operand has no next use, making it the lookahead policies'
        favorite victim — evicting it stalled the gate on its own
        prefetch-induced write-back, 3.6x under belady)."""
        stack = standard_stack("steane", 3, **STACK)
        circuit = build_workload("draper_adder", 16)
        order = simulate_optimized(circuit, stack.levels[0].capacity).order
        demand = simulate_hierarchy_run(stack, circuit, policy=policy,
                                        order=order)
        prefetched = simulate_hierarchy_run(stack, circuit, policy=policy,
                                            order=order, prefetch="next_k")
        assert prefetched.total_time_s <= 1.25 * demand.total_time_s

    def test_registered_workloads_cover_the_invariant_matrix(self):
        # SIZES must track the registry, or a new workload would
        # silently skip the invariant suite.
        assert sorted(SIZES) == sorted(available_workloads())


class TestSplitTransactionSpeedup:
    def test_adder_benchmark_kernel_speedup(self):
        """Acceptance: on the 3-level Draper-adder benchmark kernel,
        pipelining + next_k prefetch yields >= 1.3x lower simulated
        makespan than the PR 2 reservation model."""
        stack = standard_stack("steane", 3, **STACK)
        circuit = build_workload("draper_adder", 256)
        order = simulate_optimized(circuit, stack.levels[0].capacity).order
        demand = simulate_hierarchy_run(stack, circuit, order=order)
        prefetched = simulate_hierarchy_run(
            stack, circuit, order=order, prefetch="next_k"
        )
        assert demand.total_time_s >= 1.3 * prefetched.total_time_s

    def test_prefetch_fields_default_off(self):
        stack = standard_stack("steane", 3, **STACK)
        run = simulate_hierarchy_run(stack, "draper_adder", policy="lru")
        assert run.prefetch == "none"
        assert run.prefetches_issued == 0
        assert run.prefetches_used == 0
