"""Composition point for wire faults at the switch ingress.

The :class:`~repro.net.switch.Switch` consults ``switch.faults`` (when
set) for every ingressing frame; :class:`WireFaultInjector` implements
that hook by threading the frame through every *active* wire spec in
plan order. Each spec maps one frame to zero (drop), one (pass, corrupt
or delay), or several (duplicate) frames; delays compose additively, so
a duplicated frame can also be held back by a later reorder spec.

Control traffic (SYN/RST segments and ARP: :func:`is_control_frame`, the
one control-frame policy, which :class:`repro.net.loss.LossInjector`
applies too) is exempt by default — the paper's robustness experiments
measure established connections, and plans that want to attack
handshakes can pass ``protect_control=False``.
"""

from repro.proto.tcp import FLAG_RST, FLAG_SYN


def is_control_frame(frame):
    if frame.arp is not None:
        return True
    if frame.tcp is not None and frame.tcp.flags & (FLAG_SYN | FLAG_RST):
        return True
    return False


class WireFaultInjector:
    """The ``switch.faults`` hook: composes active wire fault specs."""

    def __init__(self, protect_control=True):
        self.protect_control = protect_control
        self._effects = []  # [(spec, ctx)] in activation order
        self.frames_seen = 0
        self.frames_touched = 0

    def add_effect(self, spec, ctx):
        self._effects.append((spec, ctx))

    def remove_effect(self, spec):
        self._effects = [(s, c) for s, c in self._effects if s is not spec]

    @property
    def active_effects(self):
        return [spec for spec, _ctx in self._effects]

    def admit(self, frame):
        """Switch hook: ``[(frame, extra_delay_ns), ...]`` per ingress frame."""
        self.frames_seen += 1
        if not self._effects:
            return [(frame, 0)]
        if self.protect_control and is_control_frame(frame):
            return [(frame, 0)]
        out = [(frame, 0)]
        for spec, ctx in self._effects:
            passed = []
            for item, delay in out:
                for mangled, extra in spec.admit_one(ctx, item):
                    passed.append((mangled, delay + extra))
            out = passed
            if not out:
                break
        if len(out) != 1 or out[0][0] is not frame or out[0][1] != 0:
            self.frames_touched += 1
        return out
