"""The FlexTOE offloaded TCP data-path (paper §3-4).

The data-path runs entirely on the simulated NFP-4000: a data-parallel
pipeline of pre-processing, protocol, post-processing, DMA, and
context-queue stages, with segment sequencing/reordering, flow-group
islands, a Carousel flow scheduler, and XDP/module extension hooks.
"""

from repro.flextoe.config import PipelineConfig
from repro.flextoe.state import (
    ConnectionRecord,
    ConnectionTable,
    PostprocState,
    PreprocState,
    ProtocolState,
)
from repro.flextoe.descriptors import (
    HC_FIN,
    HC_RETRANSMIT,
    HC_RX_UPDATE,
    HC_TX_UPDATE,
    NOTIFY_FIN,
    NOTIFY_RX,
    NOTIFY_TX_ACKED,
    HostControlDescriptor,
    Notification,
    SegWork,
)
from repro.flextoe.seqr import KeyedFence, ReorderBuffer, Sequencer
from repro.flextoe.scheduler import CarouselScheduler
from repro.flextoe.nic import FlexToeNic

__all__ = [
    "CarouselScheduler",
    "ConnectionRecord",
    "ConnectionTable",
    "FlexToeNic",
    "HC_FIN",
    "HC_RETRANSMIT",
    "HC_RX_UPDATE",
    "HC_TX_UPDATE",
    "HostControlDescriptor",
    "KeyedFence",
    "NOTIFY_FIN",
    "NOTIFY_RX",
    "NOTIFY_TX_ACKED",
    "Notification",
    "PipelineConfig",
    "PostprocState",
    "PreprocState",
    "ProtocolState",
    "ReorderBuffer",
    "SegWork",
    "Sequencer",
]
