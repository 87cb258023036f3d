"""Seeded random-number management.

Every stochastic component (loss injectors, workload generators, jitter)
draws from its own named stream derived from a single experiment seed, so
experiments are reproducible and components do not perturb each other.
"""

import random
import zlib


class RngPool:
    """Derives independent ``random.Random`` streams from one master seed."""

    def __init__(self, seed=0):
        self.seed = int(seed)
        self._streams = {}

    def stream(self, name):
        """Return (creating if needed) the stream for ``name``."""
        if name not in self._streams:
            derived = self.seed ^ zlib.crc32(name.encode("utf-8"))
            self._streams[name] = random.Random(derived)
        return self._streams[name]
