"""Scenario libraries whose gates pytest holds.

* :mod:`repro.bench.attack` — goodput-under-attack runs with their
  survivability gates (``tests/integration/test_attack_scenarios.py``).
* :mod:`repro.bench.shard` — flow-group-sharded connscale runs
  (``tests/integration/test_shard_determinism.py``).

Host time, peak RSS and events-per-op numbers have one source,
``python3 perf/run.py``; nothing here writes a report or gates on time.
"""
