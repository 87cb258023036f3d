"""Random loss injection (paper §5.3, Figure 15).

The paper induces loss "by randomly dropping packets at the switch with a
fixed probability"; :class:`LossInjector` reproduces that as the switch's
ingress hook (``switch.faults``), with an option to protect control
frames (:func:`repro.faults.wire.is_control_frame`) so handshakes
complete (the paper measures established-connection throughput).
"""

from repro.faults.wire import is_control_frame


class LossInjector:
    """Drops frames with fixed probability, using a dedicated RNG stream."""

    def __init__(self, rng, probability=0.0, protect_control=True):
        if not 0.0 <= probability <= 1.0:
            raise ValueError("loss probability must be within [0, 1]")
        self.rng = rng
        self.probability = probability
        self.protect_control = protect_control
        self.dropped = 0
        self.passed = 0

    def admit(self, frame):
        """Switch hook: ``[]`` drops ``frame``, ``[(frame, 0)]`` passes it."""
        if (
            self.probability == 0.0
            or (self.protect_control and is_control_frame(frame))
            or self.rng.random() >= self.probability
        ):
            self.passed += 1
            return [(frame, 0)]
        self.dropped += 1
        return []

    @property
    def observed_rate(self):
        total = self.dropped + self.passed
        return self.dropped / total if total else 0.0
