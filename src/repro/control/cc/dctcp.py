"""DCTCP-style rate control (Alizadeh et al., adapted to a rate loop).

The data-path's post-processor counts acknowledged and ECN-marked bytes
(paper Table 5: cnt_ackb/cnt_ecnb); the control plane computes the
marked fraction F per interval, maintains the EWMA alpha, and adjusts
the flow's rate multiplicatively on congestion / additively otherwise —
the same structure TAS uses for its rate-based DCTCP (paper §3.4).
"""

from repro.control.cc.base import CongestionControl


class DctcpState:
    __slots__ = ("alpha", "slow_start")

    def __init__(self):
        self.alpha = 0.0
        self.slow_start = True


class Dctcp(CongestionControl):
    """Rate-based DCTCP: alpha-EWMA over the ECN-marked byte fraction."""

    idle_is_identity = True  # "no feedback this interval": clamp(rate) == rate

    def __init__(self, g=1.0 / 16.0, additive_bps=20_000_000, **kwargs):
        super().__init__(**kwargs)
        self.g = g
        self.additive_bps = additive_bps

    def update(self, flow, stats):
        if flow.algo_state is None:
            flow.algo_state = DctcpState()
        state = flow.algo_state
        rate = flow.rate_bps
        if stats.fast_retransmits > 0:
            # Loss: halve, leave slow start.
            state.slow_start = False
            return self.clamp(rate / 2)
        if stats.acked_bytes == 0:
            return self.clamp(rate)  # no feedback this interval
        fraction = min(1.0, stats.ecn_bytes / stats.acked_bytes)
        state.alpha = (1.0 - self.g) * state.alpha + self.g * fraction
        if fraction > 0.0:
            state.slow_start = False
            rate = rate * (1.0 - state.alpha / 2.0)
        elif state.slow_start:
            rate = rate * 2
        else:
            rate = rate + self.additive_bps
        return self.clamp(rate)
