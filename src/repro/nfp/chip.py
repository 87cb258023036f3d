"""The assembled NFP-4000 chip (paper Figure 1).

Five general-purpose islands of 12 FPCs, chip-wide IMEM/EMEM with the
EMEM SRAM cache, the IMEM hash-lookup engine, the PCIe block (doorbell +
DMA), and the MAC block. An :class:`NfpConfig` captures the knobs that
distinguish the Agilio CX40 from the LX (frequency, island count).
"""

from repro.nfp.cam import HashLookupEngine
from repro.nfp.island import Island
from repro.nfp.mac import MacBlock
from repro.nfp.memory import MEM_EMEM, MEM_EMEM_CACHE, MEM_IMEM
from repro.nfp.pcie import PcieBlock
from repro.sim.clock import Clock


class NfpConfig:
    """Chip parameters. Defaults model the Agilio CX40's NFP-4000."""

    def __init__(self, n_islands=5, fpcs_per_island=12, fpc_hz=800_000_000, name="NFP-4000"):
        self.n_islands = n_islands
        self.fpcs_per_island = fpcs_per_island
        self.fpc_hz = fpc_hz
        self.name = name

    @classmethod
    def agilio_cx40(cls):
        return cls()

    @classmethod
    def agilio_lx(cls):
        """The LX doubles islands and runs FPCs at 1.2 GHz (paper fn. 6)."""
        return cls(n_islands=10, fpc_hz=1_200_000_000, name="NFP-6000/LX")


class Nfp4000:
    """The chip: islands + memories + engines."""

    def __init__(self, sim, config=None):
        self.sim = sim
        self.config = config or NfpConfig.agilio_cx40()
        clock = Clock(self.config.fpc_hz)
        self.clock = clock
        self.islands = [
            Island(sim, i, n_fpcs=self.config.fpcs_per_island, clock=clock)
            for i in range(self.config.n_islands)
        ]
        self.imem = MEM_IMEM()
        self.emem = MEM_EMEM()
        self.emem_cache = MEM_EMEM_CACHE()
        self.lookup_engine = HashLookupEngine()
        self.pcie = PcieBlock(sim)
        self.mac = MacBlock(sim)

    @property
    def dma(self):
        return self.pcie.dma

    def total_fpcs(self):
        return sum(len(island.fpcs) for island in self.islands)

    def free_fpcs(self):
        return sum(island.free_fpcs for island in self.islands)

    def __repr__(self):
        return "<{} islands={} fpcs={}>".format(self.config.name, len(self.islands), self.total_fpcs())
