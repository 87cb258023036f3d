"""Static and runtime safety analysis for the FlexTOE data-path.

FlexTOE's correctness argument rests on two mechanical invariants
(paper §3.1/§3.3): extension modules are one-shot and verified before
load, and only the atomic protocol stage mutates per-connection
protocol state while replicated pre/post stages stay read-only. This
package makes both checkable:

* XDP programs: :mod:`~repro.analysis.cfg` (instruction successors),
  :mod:`~repro.analysis.dataflow` (the abstract domain) and
  :mod:`~repro.analysis.verifier` (the one-pass verifier behind
  :func:`repro.xdp.verify`);
* lints: :mod:`~repro.analysis.stagelint` (``hb-race``: one Table 5
  verdict per stage-touched field) and :mod:`~repro.analysis.simlint`
  (simulation processes);
* ``REPRO_SANITIZE=1``: :mod:`~repro.analysis.sanitizer` (ownership,
  the kernel's in-place rules) and :mod:`~repro.analysis.hbmonitor`
  (the ordering devices);
* :mod:`~repro.analysis.report`/:mod:`~repro.analysis.cli`: findings,
  reports and ``python -m repro lint``.

This module deliberately imports only the dependency-light submodules;
:mod:`repro.analysis.verifier` pulls in :mod:`repro.xdp` and is imported
lazily by its users to keep package import cycles impossible.
"""

from repro.analysis.report import Finding, render_json, render_text

__all__ = ["Finding", "render_json", "render_text"]
