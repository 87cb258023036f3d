"""End-to-end invariants asserted under fault injection.

The fault layer's value is that every run is an *asserted* test. These
helpers state what must still hold no matter which plan ran:

* **Exact delivery** — application byte streams arrive complete and
  uncorrupted (:func:`assert_exact_delivery`).
* **Liveness** — the workload finishes within a wedge bound; a
  connection that stalls past the deadline is a bug, not bad luck
  (:func:`run_until`).
* **Recovery accounting** — loss-inducing plans must move the right
  recovery counters (retransmissions for FlexTOE's control plane /
  baseline engines), and checksum-caught corruption must surface as
  checksum drops, never as delivered bytes (:func:`counters_snapshot`,
  :func:`total_retransmits`).
* **Ownership** — running the suite with ``REPRO_SANITIZE=1`` arms the
  runtime sanitizer, so any fault-provoked stage-ownership violation
  raises :class:`repro.analysis.sanitizer.SanitizerError` on its own.
"""


class InvariantViolation(AssertionError):
    """An end-to-end fault invariant failed."""


class DeliveryViolation(InvariantViolation):
    """Delivered bytes differ from the bytes sent."""


class LivenessViolation(InvariantViolation):
    """The workload failed to finish within the wedge bound."""


def assert_exact_delivery(expected, actual, label=""):
    """Byte-exact stream comparison with a useful first-difference."""
    if actual == expected:
        return
    prefix = "{}: ".format(label) if label else ""
    if len(actual) != len(expected):
        raise DeliveryViolation(
            "{}length mismatch: got {} bytes, expected {}".format(prefix, len(actual), len(expected))
        )
    for offset, (got, want) in enumerate(zip(actual, expected)):
        if got != want:
            raise DeliveryViolation(
                "{}first corrupt byte at offset {}: got {!r}, expected {!r}".format(
                    prefix, offset, got, want
                )
            )
    raise DeliveryViolation("{}streams differ".format(prefix))


def run_until(testbed, predicate, deadline_ns, step_ns=1_000_000, label=""):
    """Step the sim until ``predicate()`` or the wedge bound.

    Returns the sim time at which the predicate first held (checked at
    ``step_ns`` granularity). Raises :class:`LivenessViolation` when
    the deadline passes first — the "no connection wedges" invariant.
    """
    sim = testbed.sim
    while True:
        if predicate():
            return sim.now
        if sim.now >= deadline_ns:
            raise LivenessViolation(
                "{}: workload did not finish within {} ns (wedged?)".format(
                    label or "fault run", deadline_ns
                )
            )
        sim.run(until=min(deadline_ns, sim.now + step_ns))


def counters_snapshot(testbed):
    """Deterministic recovery/drop counters for every host + the wire.

    Works across all four stacks: FlexTOE hosts report control-plane
    retransmission counters and NIC drop/fault counters; baseline hosts
    report their engine's per-connection recovery counters.
    """
    snap = {}
    for name in testbed.hosts:
        host = testbed.hosts[name]
        entry = {}
        control = getattr(host, "control_plane", None)
        if control is not None:
            entry["retransmits"] = control.retransmits_posted
            entry["probes"] = control.probes_posted
            entry["syn_retransmits"] = control.syn_retransmits
            entry["aborts"] = control.aborts
            entry["resets_received"] = control.resets_received
            entry["syn_dropped"] = control.syn_dropped
            entry["cookies_sent"] = control.cookies_sent
            entry["cookies_validated"] = control.cookies_validated
            entry["embryonic_reaped"] = control.embryonic_reaped
            entry["challenge_acks"] = control.challenge_acks
            recovery = getattr(control, "recovery", None)
            if recovery is not None:
                entry["watchdog_fired"] = recovery.watchdog_fired
                entry["recoveries"] = recovery.recoveries
                entry["reoffloaded"] = recovery.reoffloaded_connections
                entry["slowpath_acks"] = recovery.shim.acks_sent
        nic = getattr(host, "nic", None)
        if nic is not None:
            dp = nic.datapath
            entry["csum_drops"] = sum(pre.csum_drops for pre in dp.pre_stages)
            entry["fast_retransmits"] = sum(post.fast_retransmits for post in dp.post_stages)
            entry["dma_retries"] = nic.chip.dma.transient_failures
            entry["doorbells_lost"] = nic.chip.pcie.doorbells_lost
            entry["nic_reboots"] = nic.reboots
        engine = getattr(host, "engine", None)
        if engine is not None:
            entry["fast_retransmits"] = sum(
                conn.fast_retransmits for conn in engine.conns.values()
            )
            entry["retransmitted_bytes"] = sum(
                conn.retransmitted_bytes for conn in engine.conns.values()
            )
            entry["csum_drops"] = host.csum_drops
        station = getattr(host, "station", None)
        if station is not None:
            entry["fcs_drops"] = station.port.rx_fcs_drops
            entry["link_down_drops"] = station.port.link.drops_link_down
        snap[name] = entry
    return snap


def total_retransmits(snapshot):
    """Sum of retransmission events across every host in a snapshot."""
    total = 0
    for entry in snapshot.values():
        total += entry.get("retransmits", 0)
        total += entry.get("syn_retransmits", 0)
        total += entry.get("fast_retransmits", 0)
        total += entry.get("retransmitted_bytes", 0)
    return total
