"""Property pins for the traffic/price factorization and the fast DES.

Two invariants carry the whole batched-sweep design:

* **Traffic invariance** — reservation-model replacement traffic is a
  function of geometry (capacities, depth), policy, and the gate trace
  alone.  Stacks that differ only in code assignment (which codes
  encode which levels, how many parallel transfer channels) must
  produce the *byte-identical* serialized movement trace, which is why
  one simulation can be re-priced across the whole code axis.
* **Pricing exactness** — replaying that trace through the re-pricer
  must equal the direct simulator with ``==`` on every row field (the
  floats come out of the same arithmetic, not a tolerance away from
  it), for both the scalar loop and the vectorized pricer.

Plus the split-transaction pin: the flattened event loop
(:mod:`repro.sim.fastsplit`) dispatched by ``simulate_hierarchy_run``
is held bit-identical to the reference engine (``tests/oracles/``)
across a policy × prefetcher × stack matrix, including test-local
user-registered policies and prefetchers, which run on the flattened
loop (and, for the policies, on replay extraction) through their real
registry objects.  The shared replacement kernel's two paths
(:mod:`repro.sim.flatpolicy`: flattened state, real policy objects)
are pinned equal to each other in both engines.
"""

import dataclasses
import random
from collections import OrderedDict

import pytest

from repro.circuits.workloads import build_workload
from oracles.levels import simulate_hierarchy_run_audited
from repro.sim import fastsplit, policies
from repro.sim import prefetch as prefetch_mod
from repro.sim.cache import simulate_optimized
from repro.sim.fastsplit import supports_fast_split
from repro.sim.levels import (
    DEFAULT_COMPUTE_QUBITS,
    mixed_stack,
    simulate_hierarchy_run,
    standard_stack,
)
from repro.sim.flatpolicy import flat_policy
from repro.sim.policies import (
    BeladyPolicy,
    EvictionPolicy,
    FifoPolicy,
    LruPolicy,
    ScorePolicy,
    available_policies,
)
from repro.sim.prefetch import (
    NextKPrefetcher,
    Prefetcher,
    available_prefetchers,
)
from repro.sim.replay import (
    NUMPY_PRICING_CELLS,
    _price_multi_numpy,
    _scan_program,
    extract_movement_trace,
    price_movement_trace,
    price_movement_trace_batch,
    price_movement_traces_multi,
)


def _code_variants(depth, compute_qubits, cache_factor, parallel_transfers):
    """Every code assignment of one fixed geometry."""
    kwargs = dict(depth=depth, compute_qubits=compute_qubits,
                  cache_factor=cache_factor,
                  parallel_transfers=parallel_transfers)
    return [
        standard_stack("steane", **kwargs),
        standard_stack("bacon_shor", **kwargs),
        mixed_stack("steane", "bacon_shor", **kwargs),
        mixed_stack("bacon_shor", "steane", **kwargs),
    ]


def _random_cases(count, seed=2006):
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        cases.append(dict(
            workload=rng.choice(["draper_adder", "qft", "modexp_trace"]),
            n_bits=rng.choice([12, 16, 24, 32]),
            depth=rng.choice([2, 3, 4]),
            compute_qubits=rng.choice([8, 12, 17]),
            cache_factor=rng.choice([1.0, 1.5]),
            parallel_transfers=rng.choice([5, 10]),
            policy=rng.choice(available_policies()),
        ))
    return cases


class TestTrafficInvariance:
    @pytest.mark.parametrize("case", _random_cases(10),
                             ids=lambda c: f"{c['workload']}-{c['n_bits']}-"
                                           f"d{c['depth']}-{c['policy']}")
    def test_trace_bytes_and_pricing_exact(self, case):
        circuit = build_workload(case["workload"], case["n_bits"])
        stacks = _code_variants(case["depth"], case["compute_qubits"],
                                case["cache_factor"],
                                case["parallel_transfers"])
        order = simulate_optimized(
            circuit, stacks[0].levels[0].capacity
        ).order
        traces = [
            extract_movement_trace(stack, circuit, case["policy"],
                                   order=order)
            for stack in stacks
        ]
        blobs = {trace.to_bytes() for trace in traces}
        assert len(blobs) == 1, "movement trace depends on code assignment"

        direct = [
            simulate_hierarchy_run(stack, circuit, case["policy"],
                                   order=order)
            for stack in stacks
        ]
        scalar = [price_movement_trace(traces[0], stack) for stack in stacks]
        assert scalar == direct

    def test_numpy_engine_exact(self):
        # One case through the vectorized pricer, above the threshold:
        # replicating the stack list must replicate the rows exactly —
        # the numpy path is arithmetic-identical, not close.
        circuit = build_workload("draper_adder", 24)
        stacks = _code_variants(3, 12, 1.0, 10) * 16
        assert len(stacks) >= NUMPY_PRICING_CELLS
        order = simulate_optimized(
            circuit, stacks[0].levels[0].capacity
        ).order
        trace = extract_movement_trace(stacks[0], circuit, "lru",
                                       order=order)
        batched = price_movement_trace_batch(trace, stacks)
        direct = [
            simulate_hierarchy_run(stack, circuit, "lru", order=order)
            for stack in stacks
        ]
        assert batched == direct


class TestMultiGroupPricing:
    """Multi-group one-pass pricing vs the scalar loop.

    ``_price_multi_numpy`` pads variable-length traces from many
    traffic groups into one structured batch; it must return rows
    ``==``-identical to ``price_movement_trace`` run per cell, and so
    must the public entry points on either side of the threshold.  The
    group set is deliberately ragged — different
    workloads, sizes, depths, policies, and *unequal config counts* —
    so the padding tail, and groups whose trailing gates are miss-free
    (the ``reduceat`` fold's boundary case), are all exercised.
    """

    # (workload, n_bits, depth, policy, widths); qft-12-d2 has ~11
    # trailing miss-free gates, modexp is the longest trace, and the
    # widths lists give groups 8, 4, and 12 priced configurations.
    GROUP_SPECS = [
        ("draper_adder", 16, 3, "lru", (5, 10)),
        ("qft", 12, 2, "belady", (7,)),
        ("modexp_trace", 12, 2, "fifo", (4, 8, 12)),
    ]

    @staticmethod
    def _build(specs):
        groups = []
        for workload, n_bits, depth, policy, widths in specs:
            circuit = build_workload(workload, n_bits)
            stacks = [
                stack
                for width in widths
                for stack in _code_variants(depth, 12, 1.0, width)
            ]
            order = simulate_optimized(
                circuit, stacks[0].levels[0].capacity
            ).order
            trace = extract_movement_trace(stacks[0], circuit, policy,
                                           order=order)
            groups.append((trace, stacks))
        return groups

    def test_trailing_missfree_gates_present(self):
        # The boundary case must actually be in the fixture: a group
        # whose last gates incur no misses (the fold must leave their
        # arrival rows at zero, not clip into the prior gate's segment).
        groups = self._build(self.GROUP_SPECS)
        assert any(
            trace.n_misses > 0 and trace.gate_nmiss[-1] == 0
            for trace, _ in groups
        )

    @staticmethod
    def _scalar(groups):
        return [
            [price_movement_trace(trace, stack) for stack in stacks]
            for trace, stacks in groups
        ]

    @staticmethod
    def _priced(pricer, groups):
        """(groups, rows) through one pricing path: the public entry
        below the threshold, the public entry at or above it (every
        group's stacks replicated), or the vectorized pricer directly."""
        n_cells = sum(len(stacks) for _, stacks in groups)
        if pricer == "public":
            assert n_cells < NUMPY_PRICING_CELLS
        if pricer == "public_vectorized":
            reps = -(-NUMPY_PRICING_CELLS // n_cells)
            groups = [(trace, stacks * reps) for trace, stacks in groups]
        if pricer == "numpy":
            return groups, _price_multi_numpy(groups)
        return groups, price_movement_traces_multi(groups)

    @pytest.mark.parametrize("pricer", ["public", "public_vectorized",
                                        "numpy"])
    def test_exact_vs_per_group(self, pricer):
        groups, priced = self._priced(pricer, self._build(self.GROUP_SPECS))
        assert priced == self._scalar(groups)

    @pytest.mark.parametrize("pricer", ["public", "public_vectorized",
                                        "numpy"])
    def test_single_group_and_empty(self, pricer):
        groups, priced = self._priced(pricer,
                                      self._build(self.GROUP_SPECS[:1]))
        assert priced == self._scalar(groups)
        assert price_movement_trace_batch(*groups[0]) == priced[0]
        trace = groups[0][0]
        assert price_movement_traces_multi([(trace, [])]) == [[]]
        assert price_movement_traces_multi([]) == []


class TestFastSplitEquivalence:
    """The flattened split-transaction loop vs the retained reference."""

    # The 12-qubit cases keep the pin budget at most 8, far below the
    # walks' k=64; the paper's 81-qubit region is where a walk reaches
    # its k-candidate exit.
    CASES = [
        ("draper_adder", 48, 2, 12), ("draper_adder", 48, 3, 12),
        ("qft", 32, 3, 12), ("draper_adder", 48, 3, DEFAULT_COMPUTE_QUBITS),
    ]

    @pytest.mark.parametrize("policy", available_policies())
    @pytest.mark.parametrize("prefetch", available_prefetchers())
    @pytest.mark.parametrize("workload,n_bits,depth,compute_qubits", CASES)
    def test_bit_identical_to_reference(self, workload, n_bits, depth,
                                        compute_qubits, policy, prefetch):
        circuit = build_workload(workload, n_bits)
        for stack in (
            standard_stack("steane", depth, compute_qubits=compute_qubits),
            mixed_stack("bacon_shor", "steane", depth=depth,
                        compute_qubits=compute_qubits),
        ):
            order = simulate_optimized(
                circuit, stack.levels[0].capacity
            ).order
            fast = simulate_hierarchy_run(
                stack, circuit, policy, order=order, prefetch=prefetch,
                pipeline=True,
            )
            reference, _ = simulate_hierarchy_run_audited(
                stack, circuit, policy, order=order, prefetch=prefetch,
                pipeline=True,
            )
            assert fast == reference


class _MruPolicy(EvictionPolicy):
    """Evict the most recently used unpinned resident."""

    name = "test_mru"

    def reset(self, capacity, trace):
        self._order = OrderedDict()

    def on_insert(self, qubit, pos):
        self._order[qubit] = None

    def on_hit(self, qubit, pos):
        self._order.move_to_end(qubit)

    def on_remove(self, qubit):
        del self._order[qubit]

    def victim(self, pos, pinned=()):
        for qubit in reversed(self._order):
            if qubit not in pinned:
                return qubit
        return next(reversed(self._order))  # unsatisfiable pin


class _SeededRandomPolicy(_MruPolicy):
    """Evict a seeded-random unpinned resident.  ``victim`` draws from
    an RNG, so it is not a pure query: an engine that asks the policy
    more or less often than the reference diverges."""

    name = "test_random"

    def reset(self, capacity, trace):
        super().reset(capacity, trace)
        self._rng = random.Random(capacity)

    def victim(self, pos, pinned=()):
        free = [q for q in self._order if q not in pinned]
        return self._rng.choice(free or list(self._order))


class _ReversedNextKPrefetcher(Prefetcher):
    """The next_k candidates, farthest first."""

    name = "test_reversed_next_k"

    def __init__(self):
        self._walker = NextKPrefetcher()

    def reset(self, trace, index, depth):
        super().reset(trace, index, depth)
        self._walker.reset(trace, index, depth)

    def candidates(self, pos, location):
        return self._walker.candidates(pos, location)[::-1]


class TestFastSplitUserExtensions:
    """User-registered policies and prefetchers run on the flattened
    engine through their real registry objects, and the policies on
    replay extraction too (the reservation case, ``pipeline=False``).
    Registrations are test-local."""

    @pytest.fixture
    def fast_calls(self, monkeypatch):
        for cls in (_MruPolicy, _SeededRandomPolicy):
            monkeypatch.setitem(policies._REGISTRY, cls.name, cls)
        monkeypatch.setitem(
            prefetch_mod._REGISTRY, _ReversedNextKPrefetcher.name,
            _ReversedNextKPrefetcher,
        )
        calls = []
        real = fastsplit.simulate_split_fast

        def spy(*args, **kwargs):
            calls.append(args[3:5])
            return real(*args, **kwargs)

        monkeypatch.setattr(fastsplit, "simulate_split_fast", spy)
        return calls

    @staticmethod
    def _pin(policy, prefetch_name, pipeline=True):
        circuit = build_workload("draper_adder", 48)
        results = []
        for stack in (
            standard_stack("steane", 3, compute_qubits=12),
            mixed_stack("bacon_shor", "steane", depth=3, compute_qubits=12),
        ):
            order = simulate_optimized(
                circuit, stack.levels[0].capacity
            ).order
            fast = simulate_hierarchy_run(
                stack, circuit, policy, order=order,
                prefetch=prefetch_name, pipeline=pipeline,
            )
            reference, _ = simulate_hierarchy_run_audited(
                stack, circuit, policy, order=order,
                prefetch=prefetch_name, pipeline=pipeline,
            )
            assert fast == reference
            results.append(reference)
        return results

    @pytest.mark.parametrize("policy", ["test_mru", "test_random"])
    @pytest.mark.parametrize("prefetch_name,pipeline", [
        ("none", True), ("next_k", True), ("distance", True),
        ("none", False),
    ])
    def test_user_policy_runs_fastsplit(self, fast_calls, policy,
                                        prefetch_name, pipeline):
        assert supports_fast_split(policy, prefetch_name)
        results = self._pin(policy, prefetch_name, pipeline)
        # The reservation model runs on replay extraction instead.
        assert fast_calls == [(policy, prefetch_name)] * (2 if pipeline else 0)
        for result in results:
            assert result.level_stats[0].evictions > 0
            if prefetch_name != "none":
                assert result.prefetches_issued > 0

    @pytest.mark.parametrize("policy", ["lru", "belady", "fidelity",
                                        "test_mru"])
    def test_user_prefetcher_runs_fastsplit(self, fast_calls, policy):
        name = _ReversedNextKPrefetcher.name
        assert supports_fast_split(policy, name)
        results = self._pin(policy, name)
        assert fast_calls == [(policy, name)] * 2
        assert all(result.prefetches_issued > 0 for result in results)

    def test_unregistered_names_not_supported(self):
        assert not supports_fast_split("lru", "no_such_prefetcher")
        assert not supports_fast_split("no_such_policy", "next_k")


#: Each shipped policy with flattened state, re-registered under a new
#: name so that it runs through its real objects instead.
_ADAPTER_TWINS = {
    shipped: type(f"_Adapter{cls.__name__}", (cls,),
                  {"name": f"test_adapter_{shipped}"})
    for shipped, cls in (("lru", LruPolicy), ("fifo", FifoPolicy),
                         ("score", ScorePolicy), ("belady", BeladyPolicy))
}


class TestGenericAdapterExactness:
    """The replacement kernel's real-object path decides exactly like
    its flattened state, in both engines: each shipped policy's twin
    reproduces the shipped policy's movement trace (reservation model)
    and its ``next_k`` split-transaction result."""

    @pytest.fixture(autouse=True)
    def _twins(self, monkeypatch):
        for cls in _ADAPTER_TWINS.values():
            monkeypatch.setitem(policies._REGISTRY, cls.name, cls)

    @pytest.mark.parametrize("shipped", sorted(_ADAPTER_TWINS))
    @pytest.mark.parametrize("workload,n_bits,depth", [
        ("draper_adder", 48, 3), ("draper_adder", 64, 4),
    ])
    def test_twin_matches_flattened(self, shipped, workload, n_bits, depth):
        twin = _ADAPTER_TWINS[shipped].name
        circuit = build_workload(workload, n_bits)
        stack = standard_stack("steane", depth, compute_qubits=12)
        order = simulate_optimized(circuit, stack.levels[0].capacity).order
        caps = [level.capacity for level in stack.levels[:-1]]
        program = _scan_program(circuit, order)
        assert not flat_policy(shipped, caps, program, circuit.n_qubits).pols
        assert flat_policy(twin, caps, program, circuit.n_qubits).pols

        flat = extract_movement_trace(stack, circuit, shipped, order=order)
        adapter = extract_movement_trace(stack, circuit, twin, order=order)
        # The cascade reaches the last finite level.
        assert flat.level_evictions[-1] > 0
        assert (dataclasses.replace(adapter, policy=shipped).to_bytes()
                == flat.to_bytes())

        flat_run, adapter_run = (
            simulate_hierarchy_run(stack, circuit, name, order=order,
                                   prefetch="next_k")
            for name in (shipped, twin)
        )
        assert flat_run.prefetches_issued > 0
        assert dataclasses.replace(adapter_run, policy=shipped) == flat_run
