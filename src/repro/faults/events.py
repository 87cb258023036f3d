"""Typed fault specifications.

A *spec* describes one fault: what it does (the subclass), where it
applies (``target``), and when it is active (``start_ns`` /
``duration_ns`` / an optional ``when`` predicate polled on sim time).
Specs are inert descriptions; the
:class:`~repro.faults.controller.FaultController` resolves targets,
derives a dedicated RNG stream per spec, and drives the lifecycle:

``activate(ctx, obj)`` / ``deactivate(ctx, obj)``
    called once when the active window opens/closes (steady-state
    faults: loss rates, installed hooks, shrunk ring capacities);

``tick(ctx, obj)``
    called every ``tick_ns`` while active (pulsed faults: FPC stalls,
    cache flushes, link flaps, core jitter);

``admit_one(ctx, frame)``
    wire specs only — per-frame transformation, composed by
    :class:`~repro.faults.wire.WireFaultInjector`.

``ctx`` is the spec's :class:`~repro.faults.controller.FaultContext`
(RNG stream, injection log, sim clock). All randomness must come from
``ctx.rng`` so identical seeds yield identical event traces.

Layers and default targets:

========  =====================  ===========================
layer     resolves to            target syntax
========  =====================  ===========================
wire      switch fault hook      ``"switch"``
link      host-switch links      ``"*"`` or ``"link:<host>"``
nic       FlexTOE NIC internals  ``"*"`` or ``"host:<host>"``
host      host machines          ``"*"`` or ``"host:<host>"``
========  =====================  ===========================
"""

from repro.faults.log import describe_frame


class FaultSpec:
    """Base class: scheduling fields shared by every fault."""

    layer = "wire"
    default_target = "switch"
    #: Pulse period in ns; None means the fault is steady-state.
    tick_ns = None

    def __init__(self, label=None, target=None, start_ns=0, duration_ns=None, when=None, poll_ns=50_000):
        self.label = label or type(self).__name__.lower()
        self.target = target if target is not None else self.default_target
        self.start_ns = start_ns
        self.duration_ns = duration_ns
        self.when = when
        self.poll_ns = poll_ns

    def activate(self, ctx, obj):
        pass

    def deactivate(self, ctx, obj):
        pass

    def tick(self, ctx, obj):
        pass

    def __repr__(self):
        return "<{} target={!r} start={} dur={}>".format(
            type(self).__name__, self.target, self.start_ns, self.duration_ns
        )


# -- wire faults (composed by WireFaultInjector) ---------------------------


class WireFault(FaultSpec):
    """A per-frame transformation applied at the switch ingress."""

    layer = "wire"
    default_target = "switch"

    def admit_one(self, ctx, frame):
        """Return ``[(frame, extra_delay_ns), ...]`` for one input frame."""
        raise NotImplementedError


class BurstLoss(WireFault):
    """Correlated loss: each trigger drops a short run of frames.

    With probability ``probability`` a frame starts a burst of
    ``burst_min``..``burst_max`` consecutive drops — the Gilbert-style
    pattern that separates go-back-N from SACK-less fast retransmit far
    more than independent loss at the same average rate.
    """

    def __init__(self, probability=0.01, burst_min=2, burst_max=4, **kwargs):
        super().__init__(**kwargs)
        if not 0.0 <= probability <= 1.0:
            raise ValueError("loss probability must be within [0, 1]")
        self.probability = probability
        self.burst_min = burst_min
        self.burst_max = burst_max
        self.dropped = 0
        self._burst_left = 0

    def admit_one(self, ctx, frame):
        if self._burst_left > 0:
            self._burst_left -= 1
            self.dropped += 1
            ctx.log_event("drop", "switch", describe_frame(frame))
            return []
        if ctx.rng.random() < self.probability:
            self._burst_left = ctx.rng.randint(self.burst_min, self.burst_max) - 1
            self.dropped += 1
            ctx.log_event("drop", "switch", describe_frame(frame))
            return []
        return [(frame, 0)]


class Corruption(WireFault):
    """Bit corruption in flight.

    ``fcs=True`` models corruption the receiving MAC's frame checksum
    catches (dropped at :meth:`repro.net.link.Port.deliver` before the
    device sees it). ``fcs=False`` models the rarer FCS-passing flip
    that only the TCP checksum catches — marked ``csum_bad`` and dropped
    by the pre-stage Val step / the baseline NIC checksum offload.
    """

    def __init__(self, probability=0.01, fcs=True, **kwargs):
        super().__init__(**kwargs)
        self.probability = probability
        self.fcs = fcs
        self.corrupted = 0

    def admit_one(self, ctx, frame):
        if ctx.rng.random() < self.probability:
            bad = frame.copy()
            bad.set_meta("fcs_bad" if self.fcs else "csum_bad", True)
            self.corrupted += 1
            ctx.log_event("corrupt", "switch", describe_frame(frame))
            return [(bad, 0)]
        return [(frame, 0)]


class Duplication(WireFault):
    """Frame duplication (e.g. a flapping LAG rehash)."""

    def __init__(self, probability=0.01, **kwargs):
        super().__init__(**kwargs)
        self.probability = probability
        self.duplicated = 0

    def admit_one(self, ctx, frame):
        if ctx.rng.random() < self.probability:
            self.duplicated += 1
            ctx.log_event("duplicate", "switch", describe_frame(frame))
            return [(frame, 0), (frame.copy(), 0)]
        return [(frame, 0)]


class ReorderWindow(WireFault):
    """Reordering: selected frames are held back ``delay_ns`` (plus
    uniform jitter), letting later frames overtake them."""

    def __init__(self, probability=0.05, delay_ns=25_000, jitter_ns=0, **kwargs):
        super().__init__(**kwargs)
        self.probability = probability
        self.delay_ns = delay_ns
        self.jitter_ns = jitter_ns
        self.delayed = 0

    def admit_one(self, ctx, frame):
        if ctx.rng.random() < self.probability:
            delay = self.delay_ns
            if self.jitter_ns:
                delay += ctx.rng.randrange(self.jitter_ns)
            self.delayed += 1
            ctx.log_event("delay", "switch", "{} +{}ns".format(describe_frame(frame), delay))
            return [(frame, delay)]
        return [(frame, 0)]


class LinkFlap(FaultSpec):
    """Administrative link flap: every ``tick_ns`` the link goes down
    for ``down_ns`` (frames offered meanwhile are lost, both ways)."""

    layer = "link"
    default_target = "*"

    def __init__(self, down_ns=100_000, period_ns=5_000_000, **kwargs):
        super().__init__(**kwargs)
        self.down_ns = down_ns
        self.tick_ns = period_ns

    def tick(self, ctx, obj):
        name, link = obj
        link.set_up(False)
        ctx.log_event("link-down", name, "for {}ns".format(self.down_ns))

        def back_up():
            link.set_up(True)
            ctx.log_event("link-up", name, "")

        ctx.after(self.down_ns, back_up)


# -- NIC faults -------------------------------------------------------------


class NicFault(FaultSpec):
    """Faults on the FlexTOE NIC; non-FlexTOE hosts are skipped."""

    layer = "nic"
    default_target = "*"


class FpcStall(NicFault):
    """Periodically wedge the issue pipeline of a stage's FPCs.

    Models firmware assists / ECC scrubs stealing the single-issue slot
    (paper §4: "an FPC is a wimpy 800 MHz core"). Targets the FPCs the
    datapath registered for ``stage`` in ``stage_fpcs``.
    """

    def __init__(self, stage="proto", stall_ns=50_000, period_ns=500_000, **kwargs):
        super().__init__(**kwargs)
        self.stage = stage
        self.stall_ns = stall_ns
        self.tick_ns = period_ns

    def tick(self, ctx, obj):
        name, host = obj
        stage_fpcs = host.nic.datapath.stage_fpcs
        if self.stage not in stage_fpcs:
            raise ValueError("unknown stage {!r}".format(self.stage))
        for fpc in stage_fpcs[self.stage]:
            fpc.stall(self.stall_ns)
            ctx.log_event("stall", "{}:{}".format(name, fpc.name), "{}ns".format(self.stall_ns))


class DmaFlake(NicFault):
    """Transient DMA failures: an operation fails and is retried after
    ``retry_delay_ns`` (PCIe replay), delaying completion."""

    def __init__(self, probability=0.02, retry_delay_ns=3_000, **kwargs):
        super().__init__(**kwargs)
        self.probability = probability
        self.retry_delay_ns = retry_delay_ns
        self._saved = {}

    def activate(self, ctx, obj):
        name, host = obj
        dma = host.nic.chip.dma

        def hook(nbytes, _ctx=ctx, _name=name):
            if _ctx.rng.random() < self.probability:
                _ctx.log_event("dma-retry", _name, "{}B +{}ns".format(nbytes, self.retry_delay_ns))
                return self.retry_delay_ns
            return 0

        self._saved[name] = dma.fault_hook
        dma.fault_hook = hook

    def deactivate(self, ctx, obj):
        name, host = obj
        host.nic.chip.dma.fault_hook = self._saved.pop(name, None)


class StateCacheEvict(NicFault):
    """Periodically flush every protocol FPC's state cache, forcing the
    cold EMEM path (the Figure 14 worst case) at runtime."""

    def __init__(self, period_ns=1_000_000, **kwargs):
        super().__init__(**kwargs)
        self.tick_ns = period_ns

    def tick(self, ctx, obj):
        name, host = obj
        for stage in host.nic.datapath.protocol_stages:
            stage.state_cache.flush()
            ctx.log_event("flush", "{}:proto-g{}".format(name, stage.flow_group), "")


class QueueBackpressure(NicFault):
    """Shrink inter-stage ring capacity to ``capacity`` slots while
    active, forcing blocking puts and upstream backpressure."""

    def __init__(self, ring="post", capacity=1, **kwargs):
        super().__init__(**kwargs)
        self.ring = ring
        self.capacity = capacity
        self._saved = {}

    def _rings(self, host):
        """The rings the ``ring`` stage kind drains (the data path's table)."""
        dp = host.nic.datapath
        for attr, (consumer, _producers) in dp.RINGS.items():
            if consumer == self.ring:
                return dp.rings(attr)
        raise ValueError("unknown ring {!r}".format(self.ring))

    def activate(self, ctx, obj):
        name, host = obj
        saved = []
        for ring in self._rings(host):
            saved.append(ring.capacity)
            ring.set_capacity(self.capacity)
        self._saved[name] = saved
        ctx.log_event("backpressure", "{}:{}".format(name, self.ring), "capacity={}".format(self.capacity))

    def deactivate(self, ctx, obj):
        name, host = obj
        saved = self._saved.pop(name, [])
        for ring, capacity in zip(self._rings(host), saved):
            ring.set_capacity(capacity)
        ctx.log_event("backpressure-end", "{}:{}".format(name, self.ring), "")


class DoorbellLoss(NicFault):
    """Lose host MMIO doorbell writes with some probability.

    Posted writes give the host no error; liveness relies on the
    control plane's RTO loop re-posting the descriptor and ringing
    again (repro.control), which this fault exercises.
    """

    def __init__(self, probability=0.1, **kwargs):
        super().__init__(**kwargs)
        self.probability = probability
        self._saved = {}

    def activate(self, ctx, obj):
        name, host = obj
        pcie = host.nic.chip.pcie
        prev = pcie.mmio_fault

        def hook(key, _ctx=ctx, _name=name, _prev=prev):
            if _ctx.rng.random() < self.probability:
                _ctx.log_event("doorbell-drop", _name, str(key))
                return None
            if _prev is not None:
                return _prev(key)
            return 0

        self._saved[name] = prev
        pcie.mmio_fault = hook

    def deactivate(self, ctx, obj):
        name, host = obj
        host.nic.chip.pcie.mmio_fault = self._saved.pop(name, None)


class MmioDelay(NicFault):
    """Stretch MMIO doorbell writes by ``extra_ns`` (congested PCIe
    root port / IOMMU contention)."""

    def __init__(self, extra_ns=2_000, probability=1.0, **kwargs):
        super().__init__(**kwargs)
        self.extra_ns = extra_ns
        self.probability = probability
        self._saved = {}

    def activate(self, ctx, obj):
        name, host = obj
        pcie = host.nic.chip.pcie
        prev = pcie.mmio_fault

        def hook(key, _ctx=ctx, _name=name, _prev=prev):
            extra = 0
            if _prev is not None:
                extra = _prev(key)
                if extra is None:
                    return None
            if self.probability >= 1.0 or _ctx.rng.random() < self.probability:
                _ctx.log_event("mmio-delay", _name, "+{}ns".format(self.extra_ns))
                return extra + self.extra_ns
            return extra

        self._saved[name] = prev
        pcie.mmio_fault = hook

    def deactivate(self, ctx, obj):
        name, host = obj
        host.nic.chip.pcie.mmio_fault = self._saved.pop(name, None)


class NicCrash(NicFault):
    """Hard data-path crash: firmware wedge / PCIe FLR-worthy fault.

    One-shot — when the active window opens the NIC's datapath is
    killed outright (stages stop, heartbeats freeze, the MAC drops RX).
    Nothing here restarts it: detection and re-offload are the control
    plane's job (:mod:`repro.control.recovery`), which is exactly what
    this fault exists to exercise.
    """

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.crashes = 0

    def activate(self, ctx, obj):
        name, host = obj
        nic = getattr(host, "nic", None)
        if nic is None or not hasattr(nic, "crash"):
            return  # non-FlexTOE stack: nothing to crash
        if nic.crashed:
            return
        nic.crash()
        self.crashes += 1
        ctx.log_event("nic-crash", name, "datapath killed")


# -- host faults ------------------------------------------------------------


class HostFault(FaultSpec):
    """Faults on host machines (any stack with a ``machine``)."""

    layer = "host"
    default_target = "*"


class CoreJitter(HostFault):
    """Periodically steal a core for ``busy_ns`` (noisy neighbor, SMI,
    kernel housekeeping) — app and driver work queues behind it."""

    def __init__(self, core=0, busy_ns=20_000, period_ns=500_000, **kwargs):
        super().__init__(**kwargs)
        self.core = core
        self.busy_ns = busy_ns
        self.tick_ns = period_ns

    def tick(self, ctx, obj):
        name, host = obj
        cores = host.machine.cores
        core = cores[self.core % len(cores)]
        core.steal(self.busy_ns)
        ctx.log_event("steal", "{}:{}".format(name, core.name), "{}ns".format(self.busy_ns))
