"""Executable specifications the production engines are pinned against.

Each module keeps a retained reference implementation of one fast
path in ``src/``; the equivalence tests compare the two with ``==``:

* ``levels`` — the original sequential reservation loop, the
  event-kernel reservation and split-transaction engines, and
  ``simulate_hierarchy_run_audited`` with its ``EngineAudit``
  invariant counters (oracles for ``repro.sim.replay`` and
  ``repro.sim.fastsplit``);
* ``events`` — the discrete-event kernel and port servers those
  engines run on;
* ``policycache`` — ``PolicyCache``, the policy-driven resident set
  each of those engines keeps per finite level (the production engines
  flatten it through ``repro.sim.flatpolicy``);
* ``policies`` — the reference classes of the five shipped eviction
  policies (oracles for ``repro.sim.flatpolicy``) and the
  ``oracle_policy`` name lookup;
* ``prefetch`` — the reference classes of the shipped prefetchers
  (oracles for the ``next_k``/``distance`` walks in
  ``repro.sim.fastsplit``) and the ``oracle_prefetcher`` name lookup;
* ``cache`` — the O(ready) rescan fetch scheduler (oracle for
  ``repro.sim.cache.simulate_optimized``);
* ``hierarchy_sim`` — the original two-level Table 5 loop (oracle for
  ``repro.sim.hierarchy_sim.simulate_l1_run``);
* ``montecarlo`` — the scalar Monte Carlo estimator (oracle for
  ``repro.ecc.montecarlo.logical_error_rate``);
* ``chaos`` — ``ChaosWrapped``, the sweep runner dispatcher's chaos
  hook around a bare cell function, for the supervisor tests that
  bypass the runner.

Test modules import them as ``oracles.<module>`` (pytest puts
``tests/`` on ``sys.path``).  Nothing under ``src/`` imports this
package (``tests/test_layering.py`` walks every ``src/repro`` module
to check).
"""
