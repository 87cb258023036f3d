"""Cycle/time conversion helpers.

Simulation time is integer nanoseconds. Hardware components express costs
in clock cycles at their own frequency; a :class:`Clock` converts between
the two domains (always rounding cycle durations up, so that a modeled cost
is never optimistic).
"""

SCALE_US = 1_000
SCALE_S = 1_000_000_000


def us_to_ns(us):
    """Convert microseconds (float ok) to integer nanoseconds."""
    return int(round(us * SCALE_US))


def ns_to_us(ns):
    """Convert nanoseconds to float microseconds."""
    return ns / SCALE_US


class Clock:
    """A fixed-frequency clock domain.

    >>> Clock(800_000_000).cycles_to_ns(8)
    10
    """

    __slots__ = ("hz", "_ns_num", "_ns_den", "_ns_cache")

    #: cycles_to_ns memo bound; stage costs and memory latencies are a
    #: small set of constants, so the cache converges within a few events.
    CACHE_MAX = 4096

    def __init__(self, hz):
        if hz <= 0:
            raise ValueError("clock frequency must be positive")
        self.hz = int(hz)
        # cycles -> ns multiplier as a rational: ns = cycles * 1e9 / hz
        self._ns_num = SCALE_S
        self._ns_den = self.hz
        self._ns_cache = {}

    def cycles_to_ns(self, cycles):
        """Duration of ``cycles`` clock cycles, in ns (rounded up).

        Memoized: the hot path converts the same per-stage cycle
        constants (LMEM/CLS/CTM/IMEM/EMEM latencies, stage costs)
        millions of times per run.
        """
        cache = self._ns_cache
        ns = cache.get(cycles)
        if ns is None:
            ns = -(-int(cycles) * self._ns_num // self._ns_den)
            if len(cache) < self.CACHE_MAX:
                cache[cycles] = ns
        return ns

    def ns_to_cycles(self, ns):
        """Number of full cycles elapsing in ``ns`` nanoseconds."""
        return int(ns) * self._ns_den // self._ns_num

    def __repr__(self):
        return "Clock({} MHz)".format(self.hz // 1_000_000)


#: The NFP-4000 flow-processing-core clock (800 MHz).
CYCLES_800MHZ = Clock(800_000_000)

#: The testbed host CPU clock (2 GHz Xeon Gold 6138).
CYCLES_2GHZ = Clock(2_000_000_000)
