"""Flit-level wormhole network-on-chip substrate.

Implements the paper's router microarchitecture (Section 3.1) and network
fabric: virtual-channel wormhole routers with credit-based flow control,
the single-cycle optimizations (lookahead routing, buffer bypassing,
speculative switch allocation, arbitration precomputation are modeled
collectively as a one-cycle hop), and hybrid multicast replication into
free VCs of less-utilized physical channels.
"""

from repro.noc.flit import Flit, FlitType
from repro.noc.packet import MessageType, Packet
from repro.noc.routing import (
    Direction,
    RouteComputer,
    XYRouting,
    XYXRouting,
    channel_dependency_graph,
    xyx_channel_number,
)
from repro.noc.topology import (
    Channel,
    HaloTopology,
    MeshTopology,
    SimplifiedMeshTopology,
    Topology,
)
from repro.noc.arraycore import ArrayNetwork, FlitPool
from repro.noc.network import (
    CORES,
    Network,
    NetworkStats,
    make_network,
    normalize_core,
)
from repro.noc.router import Router

__all__ = [
    "Flit",
    "FlitType",
    "MessageType",
    "Packet",
    "Direction",
    "RouteComputer",
    "XYRouting",
    "XYXRouting",
    "xyx_channel_number",
    "channel_dependency_graph",
    "Topology",
    "Channel",
    "MeshTopology",
    "SimplifiedMeshTopology",
    "HaloTopology",
    "Network",
    "NetworkStats",
    "Router",
    "ArrayNetwork",
    "FlitPool",
    "CORES",
    "make_network",
    "normalize_core",
]
