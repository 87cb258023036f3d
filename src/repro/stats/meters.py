"""Throughput meters: all traffic, and benign traffic under attack."""


class ThroughputMeter:
    """Counts events/bytes over a window of simulated time."""

    __slots__ = ("sim", "started_at", "events", "bytes")

    def __init__(self, sim):
        self.sim = sim
        self.started_at = sim.now
        self.events = 0
        self.bytes = 0

    def record(self, nbytes=0):
        self.events += 1
        self.bytes += nbytes

    def reset(self):
        self.started_at = self.sim.now
        self.events = 0
        self.bytes = 0

    @property
    def elapsed_ns(self):
        return max(1, self.sim.now - self.started_at)

    @property
    def ops_per_sec(self):
        return self.events * 1_000_000_000 / self.elapsed_ns

    @property
    def bits_per_sec(self):
        return self.bytes * 8 * 1_000_000_000 / self.elapsed_ns


class GoodputMeter:
    """Goodput accounting under mixed benign/hostile load.

    *Goodput* is application-level payload bytes delivered for **benign**
    traffic only — attack bytes, retransmissions of attack payloads, and
    junk that reached the app anyway are tallied separately and never
    inflate the headline number. One meter per testbed; workloads tag
    their completions benign, attack generators tag theirs hostile.
    """

    __slots__ = ("sim", "started_at", "benign_bytes", "benign_ops", "attack_bytes", "attack_ops")

    def __init__(self, sim):
        self.sim = sim
        self.started_at = sim.now
        self.benign_bytes = 0
        self.benign_ops = 0
        self.attack_bytes = 0
        self.attack_ops = 0

    def record(self, nbytes, benign=True):
        if benign:
            self.benign_ops += 1
            self.benign_bytes += nbytes
        else:
            self.attack_ops += 1
            self.attack_bytes += nbytes

    @property
    def elapsed_ns(self):
        return max(1, self.sim.now - self.started_at)

    @property
    def goodput_bps(self):
        """Benign app-level bits per second — the defended quantity."""
        return self.benign_bytes * 8 * 1_000_000_000 / self.elapsed_ns

    @property
    def offered_bytes(self):
        """Everything delivered, hostile included (for ratio reporting)."""
        return self.benign_bytes + self.attack_bytes

