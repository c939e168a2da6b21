"""Hardware and protocol presets matching the paper's testbed.

The paper's evaluation platform (§4): DEC Alpha 3000 model 300 clients and
servers with 32 MB of RAM, a 10 Mbit/s shared Ethernet, a DEC RZ55 local
swap disk (10 Mbit/s media rate, 16 ms average seek), 8 KB operating-system
pages, and a measured TCP/IP protocol-processing cost of 1.6 ms per page.

All constants live here (not scattered through the models) so that an
experiment can swap in a different machine or network by constructing a
different preset.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .units import MB, megabits_per_second, microseconds, milliseconds

__all__ = [
    "MachineSpec",
    "EthernetSpec",
    "SwitchedNetworkSpec",
    "DiskSpec",
    "ProtocolSpec",
    "EngineConfig",
    "PAGE_SIZE",
    "DEC_ALPHA_3000_300",
    "ETHERNET_10MBPS",
    "DEC_RZ55",
    "TCP_IP_1996",
    "fast_network",
]

#: Operating-system page size used throughout the paper (bytes).
PAGE_SIZE = 8192


@dataclass(frozen=True)
class MachineSpec:
    """A workstation model.

    ``cpu_speed`` scales workload compute cost: a workload calibrated for
    ``cpu_speed=1.0`` runs in half the user time on ``cpu_speed=2.0``.
    ``kernel_resident_bytes`` approximates the memory the OS and daemons pin,
    which is why a "32 MB" machine starts paging well before a 32 MB working
    set (the paper's FFT cliff sits near 18 MB of input on a 32 MB Alpha).
    """

    name: str = "workstation"
    ram_bytes: int = 32 * MB
    cpu_speed: float = 1.0
    kernel_resident_bytes: int = 13 * MB
    page_size: int = PAGE_SIZE
    #: CPU cost charged by the VM system per page fault (trap, driver entry,
    #: queueing) — the "systime" component of the paper's breakdown.
    fault_service_cpu: float = microseconds(500)

    def __post_init__(self) -> None:
        if self.ram_bytes <= 0 or self.page_size <= 0:
            raise ValueError("ram_bytes and page_size must be positive")
        if self.kernel_resident_bytes >= self.ram_bytes:
            raise ValueError("kernel resident share exceeds RAM")
        if self.cpu_speed <= 0:
            raise ValueError("cpu_speed must be positive")

    @property
    def total_frames(self) -> int:
        """Page frames in physical memory."""
        return self.ram_bytes // self.page_size

    @property
    def user_frames(self) -> int:
        """Frames available to the application after the kernel's share."""
        return (self.ram_bytes - self.kernel_resident_bytes) // self.page_size


@dataclass(frozen=True)
class EthernetSpec:
    """A shared-medium CSMA/CD Ethernet (IEEE 802.3 parameters)."""

    bandwidth: float = megabits_per_second(10)
    mtu: int = 1500
    frame_overhead: int = 26  # preamble+SFD(8) + header(14) + FCS(4)
    interframe_gap: float = microseconds(9.6)
    slot_time: float = microseconds(51.2)
    jam_time: float = microseconds(3.2)  # 32-bit jam at 10 Mbit/s
    max_backoff_exponent: int = 10
    max_attempts: int = 16

    def __post_init__(self) -> None:
        if self.bandwidth <= 0 or self.mtu <= 0:
            raise ValueError("bandwidth and mtu must be positive")

    def frame_time(self, payload: int) -> float:
        """Wire time of one frame carrying ``payload`` bytes."""
        return (payload + self.frame_overhead) / self.bandwidth


@dataclass(frozen=True)
class SwitchedNetworkSpec:
    """A full-duplex switched network (FDDI/ATM stand-in): no collisions."""

    bandwidth: float = megabits_per_second(100)
    mtu: int = 1500
    frame_overhead: int = 26
    per_hop_latency: float = microseconds(50)

    def __post_init__(self) -> None:
        if self.bandwidth <= 0 or self.mtu <= 0:
            raise ValueError("bandwidth and mtu must be positive")


@dataclass(frozen=True)
class DiskSpec:
    """A magnetic disk modelled as seek + rotation + media transfer.

    ``bandwidth`` is the *burst* media rate the datasheet quotes;
    ``interleave`` models the sector interleaving common on drives and
    controllers of the era, which halves (interleave 2:1) the sustained
    multi-sector rate.  With the RZ55's quoted 10 Mbit/s burst rate and
    2:1 interleave, a streamed 8 KB page takes ~13 ms and a random-access
    page ~26 ms — blending to the paper's "about 17 ms" per page (§3.1)
    and to the swap-write throughput its §4.7 write-through comparison
    implies.
    """

    name: str = "disk"
    bandwidth: float = megabits_per_second(10)
    avg_seek: float = milliseconds(16)
    rpm: float = 3600.0
    track_bytes: int = 32 * 1024
    capacity_bytes: int = 300 * MB
    interleave: float = 2.0

    def __post_init__(self) -> None:
        if self.bandwidth <= 0 or self.rpm <= 0:
            raise ValueError("bandwidth and rpm must be positive")
        if self.interleave < 1:
            raise ValueError("interleave must be >= 1")

    @property
    def sustained_bandwidth(self) -> float:
        """Multi-sector transfer rate after interleaving (bytes/second)."""
        return self.bandwidth / self.interleave

    @property
    def rotation_time(self) -> float:
        """One full revolution, seconds."""
        return 60.0 / self.rpm

    @property
    def avg_rotational_latency(self) -> float:
        """Expected wait for the target sector: half a revolution."""
        return self.rotation_time / 2


@dataclass(frozen=True)
class ProtocolSpec:
    """Transport-protocol costs charged on the client CPU.

    ``per_page_cpu`` is the paper's measured 1.6 ms of TCP/IP processing
    per page transfer (§4.3); it is bandwidth-independent, which is exactly
    why the extrapolation model keeps it fixed while scaling ``btime``.

    ``compression_ratio``/``compression_cpu`` are a **beyond-the-paper**
    postscript: modern far-memory systems (Infiniswap-era) compress pages
    before shipping them.  A ratio of 2.0 halves the bytes on the wire at
    ``compression_cpu`` extra CPU per page each way; 1.0 (the default and
    the paper's configuration) disables it.

    ``batch_cpu_fraction`` models OSF/1-style pageout clustering (and the
    PR 4 write-behind queue): pages after the first in one clustered
    drain batch ride an already-open stream, so they skip the
    per-message syscall/connection share of the 1.6 ms and pay only this
    fraction of ``per_page_cpu``.  Only the drain path opts in (see
    :meth:`~repro.net.protocol.ProtocolStack.begin_cluster`); a fraction
    of 1.0 disables the amortisation.
    """

    name: str = "tcp/ip"
    per_page_cpu: float = milliseconds(1.6)
    header_bytes: int = 40  # TCP + IP headers per segment
    request_bytes: int = 64  # pagein request / control message size
    compression_ratio: float = 1.0
    compression_cpu: float = 0.0
    batch_cpu_fraction: float = 0.4

    def __post_init__(self) -> None:
        if self.per_page_cpu < 0:
            raise ValueError("per_page_cpu must be non-negative")
        if self.compression_ratio < 1.0:
            raise ValueError("compression_ratio must be >= 1.0")
        if self.compression_cpu < 0:
            raise ValueError("compression_cpu must be non-negative")
        if not 0.0 < self.batch_cpu_fraction <= 1.0:
            raise ValueError(
                f"batch_cpu_fraction must be in (0, 1]: {self.batch_cpu_fraction}"
            )


@dataclass(frozen=True)
class EngineConfig:
    """Which host-side fast paths the simulator may take.

    Every axis is an A/B switch over the *same* simulation: reports,
    metrics and telemetry are byte-identical whichever way each is set
    (DESIGN.md §13).  Each axis has exactly one switch — this field —
    which the CLI sets from its ``--no-*`` flags and passes explicitly
    to :func:`~repro.core.builder.build_cluster`, ``build_fleet`` and
    the runner (``RunSpec.engine``, so it keys the result cache too).

    * ``compile`` — replay precompiled fault schedules where eligible
      (``repro.compile``); off interprets every reference stream.
    * ``analytic_switched`` — serve uncontended switched-fabric port
      pairs analytically; off walks every uplink/hop/drain step.
    """

    compile: bool = True
    analytic_switched: bool = True


#: The paper's client/server workstation: DEC Alpha 3000 model 300, 32 MB.
DEC_ALPHA_3000_300 = MachineSpec(name="dec-alpha-3000/300")

#: The paper's interconnect: standard 10 Mbit/s Ethernet.
ETHERNET_10MBPS = EthernetSpec()

#: The paper's local swap disk: DEC RZ55 (10 Mbit/s, 16 ms average seek).
DEC_RZ55 = DiskSpec(name="dec-rz55")

#: The paper's measured TCP/IP protocol costs.
TCP_IP_1996 = ProtocolSpec()


def fast_network(factor: float) -> SwitchedNetworkSpec:
    """A switched network ``factor``× faster than the 10 Mbit/s Ethernet.

    Used by the Fig 4 experiments ("ETHERNET*10") to validate the paper's
    extrapolation model against a directly simulated faster network.
    """
    if factor <= 0:
        raise ValueError(f"factor must be positive, got {factor}")
    return SwitchedNetworkSpec(bandwidth=megabits_per_second(10 * factor))


def scaled(spec: MachineSpec, ram_bytes: int) -> MachineSpec:
    """A copy of ``spec`` with a different RAM size."""
    return replace(spec, ram_bytes=ram_bytes)
