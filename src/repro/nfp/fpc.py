"""Flow-processing cores with hardware multithreading.

An FPC is a single-issue 32-bit core at 800 MHz with 8 hardware thread
contexts. Exactly one thread occupies the issue pipeline at a time;
threads voluntarily swap out on memory/IO waits, which is how the NFP
hides its long memory latencies. The model enforces this with a
capacity-1 issue slot (:class:`~repro.sim.resources.Slots`) held for the
one event :meth:`FpcThread.compute` returns, and released during the wait
of :meth:`FpcThread.mem_read`; a program waits on IO (a DMA, a ring) by
yielding its event, holding no slot.
"""

from repro.sim.clock import CYCLES_800MHZ
from repro.sim.resources import Hold, Occupancy, Slots

#: Cycles to issue a memory/IO command before swapping out.
ISSUE_CYCLES = 2


class FpcThread:
    """One hardware thread context; programs call its waiting helpers:
    ``yield thread.compute(cycles)``, ``yield from thread.mem_read(...)``.
    """

    __slots__ = ("fpc", "thread_id", "process")

    def __init__(self, fpc, thread_id):
        self.fpc = fpc
        self.thread_id = thread_id
        self.process = None

    @property
    def sim(self):
        return self.fpc.sim

    def compute(self, cycles):
        """The event of executing ``cycles`` instructions, holding the issue
        slot; the program yields it at once. No cycles wait for nothing."""
        if cycles <= 0:
            return self.fpc.sim._passed()
        fpc = self.fpc
        return Hold(fpc.issue_slot, fpc.cycles_to_ns(cycles), cycles)

    def mem_read(self, latency_cycles, issue_cycles=ISSUE_CYCLES):
        """Read from a memory ``latency_cycles`` away: brief issue, then
        the wait with the issue slot released (another thread may run)."""
        yield self.compute(issue_cycles)
        yield self.sim.timeout(self.fpc.cycles_to_ns(latency_cycles))


class Fpc:
    """A flow-processing core hosting up to ``n_threads`` programs."""

    def __init__(self, sim, name, clock=CYCLES_800MHZ, n_threads=8, code_store=32 * 1024):
        self.sim = sim
        self.name = name
        self.clock = clock
        #: Bound memoized converter (see Clock.cycles_to_ns); saves an
        #: attribute hop on every compute/mem wait.
        self.cycles_to_ns = clock.cycles_to_ns
        self.n_threads = n_threads
        self.code_store = code_store
        self.code_used = 0
        self.issue_slot = Slots(sim, capacity=1, name="{}.issue".format(name))
        self._threads = []
        self.stalls = 0
        self.stalled_ns = 0

    def spawn(self, program_factory, name=None):
        """Start a program on a fresh hardware thread.

        ``program_factory(thread)`` must return a generator. Raises when
        all 8 thread contexts are taken.
        """
        if len(self._threads) >= self.n_threads:
            raise RuntimeError("{}: all {} hardware threads in use".format(self.name, self.n_threads))
        thread = FpcThread(self, len(self._threads))
        self._threads.append(thread)
        label = name or "{}.t{}".format(self.name, thread.thread_id)
        thread.process = self.sim.process(program_factory(thread), name=label)
        return thread

    @property
    def busy_cycles(self):
        """Cycles spent issuing instructions (charged as each compute ends)."""
        return self.issue_slot.busy_cycles

    def stall(self, duration_ns):
        """Occupy the issue pipeline for ``duration_ns`` (fault injection).

        Models a thread wedged in the issue stage — e.g. an ECC scrub,
        a firmware assist, or a microcode loop — during which no hardware
        thread on this FPC can issue instructions. Memory waits already
        in flight still complete. The stall queues for the slot like a
        thread and is counted when it gets it.
        """
        Occupancy(self.issue_slot, duration_ns, self._stalled)

    def _stalled(self, duration_ns):
        self.stalls += 1
        self.stalled_ns += duration_ns

    def load_code(self, nbytes):
        """Account code-store usage; FPC code stores are only 32 KB."""
        if self.code_used + nbytes > self.code_store:
            raise MemoryError("{}: code store exhausted".format(self.name))
        self.code_used += nbytes

    def utilization(self, elapsed_ns):
        """Fraction of cycles spent issuing instructions."""
        if elapsed_ns <= 0:
            return 0.0
        total_cycles = self.clock.ns_to_cycles(elapsed_ns)
        return min(1.0, self.busy_cycles / total_cycles) if total_cycles else 0.0

    def __repr__(self):
        return "<Fpc {} threads={}/{}>".format(self.name, len(self._threads), self.n_threads)
