"""Congestion-control framework (paper §3.4).

The control plane iterates over active flows roughly once per RTT,
reads the data-path's per-flow statistics (acked bytes, ECN bytes,
fast-retransmit count, RTT estimate), asks the algorithm for a new rate,
and programs the flow scheduler. Algorithms subclass
:class:`CongestionControl` and implement :meth:`update`; "active" is a
flow the data path recorded feedback for since its last poll, or every
flow if the algorithm does not declare ``idle_is_identity``.
"""


class FlowCcState:
    """Per-flow algorithm state plus the currently programmed rate."""

    __slots__ = ("rate_bps", "algo_state")

    def __init__(self, rate_bps):
        self.rate_bps = rate_bps
        self.algo_state = None


class CcStats:
    """One control-interval's data-path statistics for a flow."""

    __slots__ = ("acked_bytes", "ecn_bytes", "fast_retransmits", "rtt_us")

    def __init__(self, acked_bytes, ecn_bytes, fast_retransmits, rtt_us):
        self.acked_bytes = acked_bytes
        self.ecn_bytes = ecn_bytes
        self.fast_retransmits = fast_retransmits
        self.rtt_us = rtt_us


class CongestionControl:
    """Base class: algorithms compute a new rate from interval stats."""

    #: Flows at or above this rate bypass the rate limiter entirely
    #: (work-conserving round-robin in the scheduler, §3.5).
    uncongested_bps = 39_000_000_000

    #: True when :meth:`update` with no feedback (nothing acked, no fast
    #: retransmit) on a flow it has seen before changes nothing: the control
    #: plane then polls a flow only after the data path recorded feedback.
    idle_is_identity = False

    def __init__(self, init_rate_bps=10_000_000_000, min_rate_bps=1_000_000, max_rate_bps=40_000_000_000):
        self.init_rate_bps = init_rate_bps
        self.min_rate_bps = min_rate_bps
        self.max_rate_bps = max_rate_bps

    def new_flow(self):
        return FlowCcState(self.init_rate_bps)

    def update(self, flow, stats):
        """Return the new rate in bits per second."""
        raise NotImplementedError

    def clamp(self, rate_bps):
        return max(self.min_rate_bps, min(self.max_rate_bps, int(rate_bps)))

    def scheduler_rate(self, flow):
        """Rate to program: 0 means unlimited (bypass)."""
        if flow.rate_bps >= self.uncongested_bps:
            return 0
        return flow.rate_bps // 8  # scheduler paces in bytes/sec
