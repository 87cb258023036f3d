"""State costs what it holds (DESIGN §12, §13): building the NIC model
allocates for what is installed and queued, not for capacity nobody has
used yet. Measured with ``tracemalloc`` as the bytes a construction still
holds once it returns, so a structure that is pre-built again fails here
and not only in ``perf/``'s ``peak_rss_mb``."""

import gc
import tracemalloc

from repro.flextoe import CarouselScheduler
from repro.harness import Testbed
from repro.sim import Simulator

#: Two FlexTOE hosts, nothing connected: reads 2.06 MiB (2.3 MiB under
#: REPRO_SANITIZE=1), 1 MiB of it the two chips' lookup-engine bucket
#: lists. With a 4 096-slot wheel built up front per host it read 8.06 MiB.
TESTBED_BUDGET = 3 << 20
#: One idle flow scheduler: reads 1.4 KB; 3 074 KB with every slot's
#: queue built up front.
SCHEDULER_BUDGET = 16 << 10


def held_by(build):
    """Bytes still allocated after ``build()`` returns."""
    gc.collect()
    tracemalloc.start()
    try:
        built = build()  # noqa: F841  (alive until counted)
        gc.collect()
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def two_host_testbed():
    bed = Testbed(seed=1)
    bed.add_flextoe_host("server")
    bed.add_flextoe_host("client")
    bed.seed_all_arp()
    return bed


def test_bare_two_host_testbed_stays_within_its_footprint():
    held = held_by(two_host_testbed)
    assert held <= TESTBED_BUDGET, "%.2f MiB" % (held / (1 << 20))


def test_idle_flow_scheduler_holds_no_empty_slots():
    sim = Simulator()
    held = held_by(lambda: CarouselScheduler(sim, trigger_tx=None))
    assert held <= SCHEDULER_BUDGET, "%.1f KiB" % (held / 1024)
