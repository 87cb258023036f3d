"""Static and runtime safety analysis for the FlexTOE data-path.

FlexTOE's correctness argument rests on two mechanical invariants
(paper §3.1/§3.3): extension modules are one-shot and verified before
load, and only the atomic protocol stage mutates per-connection
protocol state while replicated pre/post stages stay read-only. This
package makes both checkable:

* :mod:`repro.analysis.cfg` — instruction successors of XDP VM programs.
* :mod:`repro.analysis.dataflow` — the abstract domain (register typing,
  stack initialization, verified packet bounds) and its meet operator.
* :mod:`repro.analysis.verifier` — the one-pass CFG program verifier
  backing :func:`repro.xdp.verify`.
* :mod:`repro.analysis.stagelint` — the ``hb-race`` lint: per-stage
  read/write sets of connection-state partitions, through helper calls,
  and one verdict per field (immutable, atomic, or owned per Table 5).
* :mod:`repro.analysis.simlint` — lint for simulation processes
  (wall-clock and global-RNG use that bypasses :mod:`repro.sim`,
  yielding non-events).
* :mod:`repro.analysis.sanitizer` — opt-in runtime ownership sanitizer
  (``REPRO_SANITIZE=1``) instrumenting partition writes.
* :mod:`repro.analysis.hbmonitor` — under the same switch, the run-time
  check of the ordering devices (fences, sequencers, write-ahead rule).
* :mod:`repro.analysis.report`/:mod:`repro.analysis.cli` — findings,
  machine-readable reports, and ``python -m repro lint``.

This module deliberately imports only the dependency-light submodules;
:mod:`repro.analysis.verifier` pulls in :mod:`repro.xdp` and is imported
lazily by its users to keep package import cycles impossible.
"""

from repro.analysis.report import Finding, render_json, render_text

__all__ = ["Finding", "render_json", "render_text"]
