"""Mixed-code hierarchy stacks: cross-code pricing, engine runs, sweeps.

The tentpole invariants of the multi-backend-codes change:

* a cross-code ``TransferNetwork`` prices both directions from both
  endpoints' EC periods — the *off-diagonal* Table 3 cells, pinned
  against the published values;
* replacement decisions are a function of (capacity, policy, trace)
  only, so a mixed stack and a pure stack of identical geometry produce
  identical traffic counters while their makespans diverge per the
  boundary pricing;
* pure-code stacks and grids are bit-identical to the pre-mixed-stack
  engine (the same-code equivalence tests elsewhere stay unmodified).
"""

import pytest

from oracles.levels import (
    simulate_hierarchy_run_audited,
    simulate_hierarchy_run_reference,
)
from repro.analysis import paper_values, table3_text_from_store
from repro.core.cqla import CqlaDesign
from repro.core.design_space import (
    TransferRow,
    engine_grid,
    engine_sweep,
    transfer_cell,
    transfer_grid,
    transfer_sweep,
)
from repro.core.hierarchy import MemoryHierarchy
from repro.ecc.transfer import CodePoint, TransferNetwork, transfer_time_s
from repro.sim.levels import (
    HierarchyStack,
    MemoryLevel,
    mixed_stack,
    simulate_hierarchy_run,
    standard_stack,
)
from repro.sim.policies import available_policies
from repro.sweep.cli import main as sweep_main

#: Small, policy-separating engine geometry (matches the engine study).
SMALL = dict(compute_qubits=12, cache_factor=1.0)


class TestCrossCodeNetwork:
    def test_off_diagonal_cells_match_paper(self):
        """Every cross-code Table 3 cell within the same 35% tolerance
        the same-code reproduction meets."""
        for (src, dst), paper in paper_values.TRANSFER_S.items():
            if src[0] == dst[0] or paper == 0.0:
                continue  # same code family (or diagonal): covered elsewhere
            code = {"7": "steane", "9": "bacon_shor"}
            ours = transfer_time_s(
                CodePoint(code[src[0]], int(src[-1])),
                CodePoint(code[dst[0]], int(dst[-1])),
            )
            assert 0.65 <= ours / paper <= 1.35, (src, dst, ours, paper)

    def test_network_prices_from_both_codes(self):
        net = TransferNetwork("bacon_shor", memory_code_key="steane")
        assert net.is_cross_code
        assert net.demote_time_s == transfer_time_s(
            CodePoint("steane", 2), CodePoint("bacon_shor", 1)
        )
        assert net.promote_time_s == transfer_time_s(
            CodePoint("bacon_shor", 1), CodePoint("steane", 2)
        )

    def test_cross_code_direction_asymmetry(self):
        """4 EC(source) + 2 EC(dest) is direction-asymmetric whenever
        the endpoints' EC periods differ, even at equal code levels."""
        a, b = CodePoint("steane", 1), CodePoint("bacon_shor", 1)
        assert transfer_time_s(a, b) != transfer_time_s(b, a)
        # ... but the round trip depends only on the endpoint set: both
        # directions together cost 6 EC periods of each endpoint.
        assert transfer_time_s(a, b) + transfer_time_s(b, a) == pytest.approx(
            6 * (a.ec_time_s() + b.ec_time_s())
        )

    def test_channels_take_the_wider_requirement(self):
        cross = TransferNetwork("steane", memory_code_key="bacon_shor",
                                parallel_transfers=9)
        assert cross.channels_per_transfer == 3
        assert cross.effective_concurrency == pytest.approx(3.0)
        pure = TransferNetwork("steane", parallel_transfers=9)
        assert pure.channels_per_transfer == 1

    def test_same_code_spelled_out_normalizes(self):
        assert (TransferNetwork("steane", memory_code_key="steane")
                == TransferNetwork("steane"))

    def test_unknown_memory_code_rejected(self):
        with pytest.raises(ValueError, match="unknown code key"):
            TransferNetwork("steane", memory_code_key="shor_code")


class TestMixedStacks:
    def test_builder_shapes(self):
        stack = mixed_stack("bacon_shor", "steane", depth=3, **SMALL)
        assert stack.code_keys == ("bacon_shor", "steane", "steane")
        assert stack.is_mixed
        assert [lvl.code_level for lvl in stack.levels] == [1, 2, 3]
        # Same geometry as the pure standard stack.
        pure = standard_stack("steane", 3, **SMALL)
        assert [lvl.capacity for lvl in stack.levels] == \
               [lvl.capacity for lvl in pure.levels]

    def test_same_code_pair_equals_standard_stack(self):
        from repro.sim.levels import two_level_stack

        assert (mixed_stack("steane", "steane", depth=3, **SMALL)
                == standard_stack("steane", 3, **SMALL))
        assert (mixed_stack("steane", "steane", **SMALL)
                == two_level_stack("steane", **SMALL))

    def test_boundary_networks_use_level_codes(self):
        stack = mixed_stack("bacon_shor", "steane", depth=3, **SMALL)
        top_net, lower_net = stack.networks()
        assert top_net.is_cross_code
        assert (top_net.memory_point.label, top_net.cache_point.label) == \
               ("7-L2", "9-L1")
        assert not lower_net.is_cross_code  # steane L3 -> steane L2

    def test_starved_cross_code_network_names_the_boundary(self):
        with pytest.raises(ValueError, match="network 0") as exc:
            mixed_stack("bacon_shor", "steane", parallel_transfers=2)
        message = str(exc.value)
        assert "steane memory" in message
        assert "bacon_shor L1" in message
        assert "3 channels" in message
        # The wider requirement applies whichever side needs it: a
        # Steane compute level over Bacon-Shor memory is starved too.
        with pytest.raises(ValueError, match="network 0"):
            mixed_stack("steane", "bacon_shor", parallel_transfers=2)
        # At exactly the wider requirement both directions are legal.
        assert mixed_stack("bacon_shor", "steane", parallel_transfers=3)
        assert mixed_stack("steane", "bacon_shor", parallel_transfers=3)

    def test_hand_built_arbitrary_mix_is_legal(self):
        stack = HierarchyStack((
            MemoryLevel("L1", "steane", 1, 24),
            MemoryLevel("L2", "bacon_shor", 2, 48),
            MemoryLevel("memory", "steane", 3, None),
        ))
        assert stack.is_mixed
        assert all(net.is_cross_code for net in stack.networks())


class TestMixedEngineRuns:
    @pytest.mark.parametrize("policy", available_policies())
    def test_reservation_model_matches_reference(self, policy):
        stack = mixed_stack("bacon_shor", "steane", **SMALL)
        engine = simulate_hierarchy_run(stack, "draper_adder", policy=policy)
        reference = simulate_hierarchy_run_reference(
            stack, "draper_adder", policy=policy
        )
        assert engine == reference  # field-for-field, float-for-float

    def test_traffic_invariant_under_code_mix(self):
        """Replacement sees only (capacity, policy, trace): a mixed and
        a pure stack of equal geometry move the same qubits, while the
        cross-code boundary reprices the time domain."""
        mixed = simulate_hierarchy_run(
            mixed_stack("bacon_shor", "steane", **SMALL), "draper_adder"
        )
        pure = simulate_hierarchy_run(
            standard_stack("steane", 2, **SMALL), "draper_adder"
        )
        assert mixed.fetches == pure.fetches
        assert mixed.writebacks == pure.writebacks
        assert mixed.level_stats == pure.level_stats
        assert mixed.total_time_s != pure.total_time_s

    @pytest.mark.parametrize("prefetch", ["none", "next_k"])
    def test_audit_invariants_hold_on_mixed_stacks(self, prefetch):
        stack = mixed_stack("bacon_shor", "steane", depth=3, **SMALL)
        run, audit = simulate_hierarchy_run_audited(
            stack, "qft", prefetch=prefetch
        )
        assert audit.conservation_ok
        assert audit.pinned_evictions == 0
        assert all(
            peak <= lanes for peak, lanes
            in zip(audit.port_peak_concurrency, audit.port_lanes)
        )
        # The cross-code boundary's lanes reflect the 3-channel cost.
        assert audit.port_lanes[0] == 3

    def test_cross_code_boundary_reprices_the_makespan(self):
        """The mixed run's transfer waits follow the off-diagonal
        pricing: with Steane memory behind a Bacon-Shor compute level,
        demotions cost ~3x a pure Bacon-Shor stack's, and the makespan
        orders accordingly."""
        mixed = simulate_hierarchy_run(
            mixed_stack("bacon_shor", "steane", **SMALL), "draper_adder"
        )
        pure_bs = simulate_hierarchy_run(
            standard_stack("bacon_shor", 2, **SMALL), "draper_adder"
        )
        assert mixed.transfer_wait_s > pure_bs.transfer_wait_s
        assert mixed.total_time_s > pure_bs.total_time_s


class TestMixedSweepAxis:
    GRID_KWARGS = dict(
        workloads=("draper_adder",), sizes=(16,), depths=(2,),
        policies=("lru",), prefetches=("none",),
    )

    def test_pure_rows_unchanged_by_the_axis(self):
        base = engine_sweep(**self.GRID_KWARGS)
        with_pairs = engine_sweep(
            **self.GRID_KWARGS, code_pairs=[("bacon_shor", "steane")],
        )
        pure = [row for row in with_pairs
                if row.memory_code_key == row.code_key]
        assert pure == base  # bit-identical diagonal cells
        mixed = [row for row in with_pairs
                 if row.memory_code_key != row.code_key]
        assert [(r.code_key, r.memory_code_key) for r in mixed] == \
               [("bacon_shor", "steane")]

    def test_mixed_row_matches_direct_simulation(self):
        (row,) = [
            r for r in engine_sweep(
                **self.GRID_KWARGS, code_pairs=[("bacon_shor", "steane")],
            )
            if r.memory_code_key != r.code_key
        ]
        from repro.circuits.workloads import build_workload

        run = simulate_hierarchy_run(
            mixed_stack("bacon_shor", "steane", **SMALL),
            build_workload("draper_adder", 16),
        )
        # ENGINE_COMPUTE_QUBITS/ENGINE_CACHE_FACTOR == SMALL by design.
        assert row.makespan_s == run.total_time_s
        assert row.hit_rate == run.hit_rate

    def test_pure_pairs_rejected(self):
        with pytest.raises(ValueError, match="not mixed"):
            engine_grid(code_pairs=[("steane", "steane")])

    def test_sharded_cli_round_trip_with_code_pairs(self, tmp_path):
        args = ["--workloads", "draper_adder", "--sizes", "16",
                "--depths", "2", "--policies", "lru",
                "--prefetches", "none", "--code-pairs", "bacon_shor:steane"]
        store = str(tmp_path / "store")
        for index in range(2):
            assert sweep_main(["run", "--shard", f"{index}/2",
                               "--store", store, *args]) == 0
        assert sweep_main(["merge", "--store", store, "--verify",
                           "--output", str(tmp_path / "rows.json"),
                           *args]) == 0

    @pytest.mark.parametrize("spec", [
        "bacon_shor",                # not a pair
        "steane:steane",             # not mixed
        "shor_code:steane",          # unknown compute code
        "bacon_shor:shor_code",      # unknown memory code
    ])
    def test_bad_code_pairs_fail_at_parse_time(self, tmp_path, spec):
        """Bad pairs die with a clean usage error before any cell runs
        (every subcommand, not just run)."""
        for command in (["run", "--shard", "0/1"], ["status"]):
            with pytest.raises(SystemExit):
                sweep_main([*command, "--store", str(tmp_path / "store"),
                            "--code-pairs", spec])

    def test_unknown_pair_codes_fail_at_grid_build(self):
        with pytest.raises(ValueError, match="unknown code key"):
            engine_grid(code_pairs=[("shor_code", "steane")])


class TestTransferKernel:
    def test_grid_covers_the_full_matrix_once(self):
        grid = transfer_grid()
        assert len(grid) == 16
        pairs = [(c.as_dict()["source_code_key"], c.as_dict()["source_level"],
                  c.as_dict()["dest_code_key"], c.as_dict()["dest_level"])
                 for c in grid]
        assert len(set(pairs)) == 16

    def test_rows_match_the_matrix(self):
        from repro.analysis.tables import table3

        matrix = table3()
        rows = transfer_sweep()
        assert len(rows) == 16
        for row in rows:
            assert row.transfer_s == matrix[(row.source, row.dest)]

    def test_cell_kernel_is_pure(self):
        row = transfer_cell(dict(
            source_code_key="steane", source_level=2,
            dest_code_key="bacon_shor", dest_level=1,
        ))
        assert isinstance(row, TransferRow)
        assert (row.source, row.dest) == ("7-L2", "9-L1")
        assert row.channels_per_transfer == 3

    def test_sharded_table3_from_store(self, tmp_path):
        store = str(tmp_path / "store")
        for index in range(2):
            assert sweep_main(["run", "--kernel", "transfer_cell",
                               "--shard", f"{index}/2",
                               "--store", store]) == 0
        text = table3_text_from_store(store)
        assert "Table 3" in text
        for label in ("7-L1", "7-L2", "9-L1", "9-L2"):
            assert label in text

    def test_engine_only_options_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="sizes"):
            sweep_main(["run", "--kernel", "transfer_cell",
                        "--store", str(tmp_path / "store"),
                        "--sizes", "16"])


class TestMixedHierarchyObject:
    def test_l1_code_key_builds_a_mixed_stack(self):
        design = CqlaDesign("steane", 256, 49)
        hierarchy = MemoryHierarchy(design, l1_code_key="bacon_shor")
        stack = hierarchy.stack()
        assert stack.is_mixed
        assert stack.code_keys == ("bacon_shor", "steane")
        assert hierarchy.l1_speedup() > 1.0
        assert hierarchy.l1_speedup() != MemoryHierarchy(design).l1_speedup()

    def test_same_code_l1_normalizes(self):
        design = CqlaDesign("steane", 256, 49)
        assert (MemoryHierarchy(design, l1_code_key="steane")
                == MemoryHierarchy(design))

    def test_unknown_l1_code_fails_at_construction(self):
        from repro.sim.hierarchy_sim import simulate_l1_run

        design = CqlaDesign("steane", 256, 49)
        with pytest.raises(ValueError, match="unknown code key"):
            MemoryHierarchy(design, l1_code_key="shor_code")
        # ... and before any stack is built on the simulate path too.
        with pytest.raises(ValueError, match="unknown code key"):
            simulate_l1_run("steane", 256, l1_code_key="shor_code")

    def test_floorplan_routes_cross_code_ports(self):
        from repro.arch.regions import CqlaFloorplan
        from repro.ecc.concatenated import by_key

        assert (CqlaFloorplan("steane", 1000, 49, l1_blocks=9,
                              l1_code_key="steane")
                == CqlaFloorplan("steane", 1000, 49, l1_blocks=9))
        plan = CqlaFloorplan("steane", 1000, 49, l1_blocks=9,
                             l1_code_key="bacon_shor")
        net = plan.transfer_network
        assert net.is_cross_code
        assert (net.memory_point.label, net.cache_point.label) == \
               ("7-L2", "9-L1")
        assert plan.cache.code_key == "bacon_shor"
        expected_port = (by_key("steane").qubit_area_mm2(2)
                         + by_key("bacon_shor").qubit_area_mm2(1))
        assert plan.transfer_area_mm2() == pytest.approx(
            plan.parallel_transfers * expected_port
        )
        same = CqlaFloorplan("steane", 1000, 49, l1_blocks=9)
        assert plan.area_mm2() != same.area_mm2()
