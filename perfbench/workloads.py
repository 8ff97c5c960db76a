"""The benchmark's four traffic mixes.

Each workload knows how to set itself up (backend construction and
warm-up), build the fresh, untimed objects for one repeat, make the one
timed call into the public entry point, and read the repeat's transcript
back out for the correctness checks.  README.md says why each mix
exists and which layers it loads and bypasses.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis.throughput import PAPER_TABLE2, WorkloadReport
from repro.core.params import Algorithm, Direction
from repro.crypto.fast import clear_caches, make_backend
from repro.mccp.channel import FlushPolicy
from repro.radio.admission import AdmissionPolicy
from repro.radio.sdr_platform import ChannelConfig, SdrPlatform, WorkloadSpec
from repro.radio.sessions import (
    SessionManager,
    SessionWorkload,
    build_session_plans,
    session_key_material,
)
from repro.radio.standards import STANDARD_PROFILES, RadioStandard
from repro.radio.traffic import TrafficGenerator, TrafficPattern

#: Seed the benchmark uses when none is given, and the held-out seed the
#: correctness checks must also pass on (never used while tuning).
DEFAULT_SEED = 1
HELDOUT_SEED = 7919

#: The paper's Table II cell for GCM 4x1, 128-bit keys, 2 KB packets.
PAPER_GCM_4X1_MBPS = PAPER_TABLE2[("gcm_4x1", 128)][1]


def derive_key(seed: int, index: int, nbytes: int) -> bytes:
    """Channel *index*'s key under *seed* (distinct per channel)."""
    return hashlib.sha256(f"perfbench-key|{seed}|{index}".encode()).digest()[:nbytes]


def expected_nonce(seed: int, algorithm: Algorithm, channel_id: int, sequence: int) -> bytes:
    """The nonce packet *sequence* of *channel_id* must carry: the marker
    bit 95, 15 bits of the platform seed, 16 of the channel id and 64 of
    the sequence, as 12 bytes for GCM and 13 for CCM."""
    value = (
        (1 << 95)
        | ((seed & 0x7FFF) << 80)
        | ((channel_id & 0xFFFF) << 64)
        | (sequence & 0xFFFFFFFFFFFFFFFF)
    )
    return value.to_bytes(12 if algorithm is Algorithm.GCM else 13, "big")


def session_payload(sid: int, index: int, size: int) -> bytes:
    """Packet *index* of session *sid* in the pinned storm: its SHA-256
    block repeated to *size* bytes."""
    block = hashlib.sha256(f"session-payload|{STORM_SEED}|{sid}|{index}".encode()).digest()
    return (block * (size // len(block) + 1))[:size]


@dataclass
class Entry:
    """One completed packet as the dataplane reported it, plus its inputs."""

    channel: int
    sequence: int
    direction: Direction
    ok: bool
    payload: bytes
    tag: Optional[bytes]
    #: Inputs the dataplane secured the packet with.
    nonce: bytes
    data: bytes
    aad: bytes
    tag_in: Optional[bytes]
    #: What the benchmark independently expects.
    algorithm: Algorithm
    key: bytes
    tag_length: int
    expected_nonce: bytes
    expected_aad: bytes
    plaintext: bytes


class Repeat:
    """The untimed objects one timed call runs on."""

    def __init__(
        self,
        seed: int,
        platform: SdrPlatform,
        spec: Optional[WorkloadSpec] = None,
        manager: Optional[SessionManager] = None,
    ):
        self.seed = seed
        self.platform = platform
        self.spec = spec
        self.manager = manager
        self.report: Optional[WorkloadReport] = None


class Workload:
    """Shared shape of a workload; subclasses fill in the specifics."""

    name = ""
    why = ""

    def setup(self, seed: int) -> None:
        """Construct the backend and warm up; called several times."""
        raise NotImplementedError

    def fresh(self, seed: int) -> Repeat:
        raise NotImplementedError

    def call(self, repeat: Repeat) -> WorkloadReport:
        """The timed call into the public entry point."""
        raise NotImplementedError

    def offered(self, repeat: Repeat) -> int:
        """Packets offered to the platform (channel losses excluded)."""
        raise NotImplementedError

    def entries(self, repeat: Repeat) -> List[Entry]:
        raise NotImplementedError

    #: The execution backend set-up built (None on the cores dataplane).
    backend = None

    def backend_name(self) -> str:
        return self.backend.name if self.backend is not None else "none"

    def backend_workers(self) -> int:
        return self.backend.workers if self.backend is not None else 0

    def close(self) -> None:
        if self.backend is not None:
            self.backend.close()
            self.backend = None

    def before_call(self) -> None:
        """Untimed hook right before each timed call."""


class PlatformWorkload(Workload):
    """A fixed channel set replayed through ``SdrPlatform.run_workload``."""

    def __init__(
        self,
        name: str,
        why: str,
        channels,
        packets: int,
        warm_packets: int,
        dataplane: str,
        backend: Optional[str] = None,
        rx: bool = False,
    ):
        self.name = name
        self.why = why
        #: (standard, key bytes) per channel.
        self.channels = tuple(channels)
        self.packets = packets
        self.warm_packets = warm_packets
        self.dataplane = dataplane
        self.backend_spec = backend
        self.rx = rx

    def configs(self, seed: int, packets: int) -> List[ChannelConfig]:
        return [
            ChannelConfig(
                standard,
                derive_key(seed, index, key_bytes),
                TrafficPattern.SATURATING,
                packets=packets,
            )
            for index, (standard, key_bytes) in enumerate(self.channels)
        ]

    def spec(self, seed: int, packets: int) -> WorkloadSpec:
        batched = self.dataplane != "cores"
        return WorkloadSpec(
            self.configs(seed, packets),
            dataplane=self.dataplane,
            backend=self.backend,
            flush_policy=FlushPolicy(coalesce_limit=32) if batched else None,
            rx_fraction=1.0 if self.rx else 0.0,
            loss_rate=0.01 if self.rx else 0.0,
            corrupt_rate=0.02 if self.rx else 0.0,
        )

    def setup(self, seed: int) -> None:
        clear_caches()
        self.close()
        if self.backend_spec is not None:
            self.backend = make_backend(self.backend_spec)
        # Warm-up on the same keys: key schedules, GHASH tables and
        # round-key arrays are built here, not in the timed call.
        SdrPlatform(seed=seed).run_workload(self.spec(seed, self.warm_packets))

    def fresh(self, seed: int) -> Repeat:
        return Repeat(seed, SdrPlatform(seed=seed), spec=self.spec(seed, self.packets))

    def call(self, repeat: Repeat) -> WorkloadReport:
        return repeat.platform.run_workload(repeat.spec)

    def offered(self, repeat: Repeat) -> int:
        return len(self.channels) * self.packets - repeat.report.rx_lost

    def entries(self, repeat: Repeat) -> List[Entry]:
        platform = repeat.platform
        seed = repeat.seed
        configs = repeat.spec.configs
        scheduler = platform.mccp.scheduler
        sent: Dict[int, list] = {}
        out = []
        for transfer in platform.comm.completed.values():
            job = transfer.job
            channel = scheduler.get_channel(transfer.channel_id)
            # A fresh platform numbers session keys 0, 1, ... in config order.
            config = configs[channel.key_id]
            if channel.channel_id not in sent:
                sent[channel.channel_id] = TrafficGenerator(
                    channel.channel_id,
                    STANDARD_PROFILES[config.standard],
                    config.pattern,
                    seed=seed,
                    priority=config.priority,
                ).generate(config.packets)
            packet = sent[channel.channel_id][transfer.sequence].packet
            standard = STANDARD_PROFILES[config.standard]
            out.append(
                Entry(
                    channel=transfer.channel_id,
                    sequence=transfer.sequence,
                    direction=job.direction,
                    ok=transfer.ok,
                    payload=transfer.payload,
                    tag=transfer.tag,
                    nonce=job.nonce,
                    data=job.data,
                    aad=job.aad,
                    tag_in=job.tag,
                    algorithm=standard.algorithm,
                    key=config.key,
                    tag_length=standard.tag_length,
                    expected_nonce=expected_nonce(
                        seed, standard.algorithm, transfer.channel_id, transfer.sequence
                    ),
                    expected_aad=packet.header,
                    plaintext=packet.payload,
                )
            )
        return out


#: The session storm's shape is pinned by this seed (see README.md).
#: It was picked for a storm that exercises every session-layer path:
#: 1 rekey, 2 handoffs, 204 admission deferrals and 6 sheds.
STORM_SEED = 121


def storm(sessions: int = 16, backend=None) -> SessionWorkload:
    """Bursty sessions of the default mix over 50k cycles, admission
    rate-limited to 4 packets per kcycle, queues bounded at 24.

    Built afresh for every run: session channels share the workload's
    FlushPolicy object and the autotune controller retunes it in place,
    so a reused workload would start its next run from retuned knobs.
    """
    return SessionWorkload(
        sessions=sessions,
        horizon_cycles=50_000,
        arrival="bursty",
        dataplane="pipelined",
        backend=backend,
        flush_policy=FlushPolicy(mode="auto"),
        queue_capacity=24,
        admission=AdmissionPolicy(rate_per_kcycle=4.0),
    )


class SessionChurn(Workload):
    """The pinned storm through ``SessionManager.run`` with cold caches."""

    name = "session_churn"

    def __init__(self, why: str):
        self.why = why

    def manager(self, seed: int, workload: SessionWorkload) -> SessionManager:
        # SessionManager.provisioned() with the platform seed split from
        # the storm seed: --seed drives nonces and autotune seeds.
        slots = sum(len(p.segments) for p in build_session_plans(workload, STORM_SEED))
        platform = SdrPlatform(
            core_count=4,
            seed=seed,
            key_slots=max(32, slots),
            max_channels=max(16, slots),
        )
        return SessionManager(platform, workload, STORM_SEED)

    def setup(self, seed: int) -> None:
        clear_caches()
        self.close()
        self.backend = make_backend("thread:1")
        self.manager(seed, storm(sessions=4, backend=self.backend)).run()

    def before_call(self) -> None:
        # Real sessions bring fresh keys: every timed call starts cold.
        clear_caches()

    def fresh(self, seed: int) -> Repeat:
        manager = self.manager(seed, storm(backend=self.backend))
        return Repeat(seed, manager.platform, manager=manager)

    def call(self, repeat: Repeat) -> WorkloadReport:
        return repeat.manager.run()

    def offered(self, repeat: Repeat) -> int:
        return sum(plan.total_packets for plan in repeat.manager.plans)

    def entries(self, repeat: Repeat) -> List[Entry]:
        manager = repeat.manager
        by_channel = {}
        for plan in manager.plans:
            offset = 0
            for segment in plan.segments:
                channel = manager.channels[(plan.sid, segment.segment)]
                by_channel[channel.channel_id] = (plan, segment.segment, offset)
                offset += segment.packets
        out = []
        for transfer in manager.platform.comm.completed.values():
            job = transfer.job
            plan, segment, offset = by_channel[transfer.channel_id]
            standard = STANDARD_PROFILES[plan.profile.standard]
            size = plan.profile.payload_bytes
            if size is None:
                size = standard.payload_bytes
            # The key epoch in force: rekeys fire at packet-index
            # multiples of the interval, from the segment's first packet.
            index = offset + transfer.sequence
            interval = plan.profile.rekey_interval
            boundary = index // interval * interval if interval else 0
            epoch = index // interval if 0 < boundary and offset <= boundary else 0
            out.append(
                Entry(
                    channel=transfer.channel_id,
                    sequence=transfer.sequence,
                    direction=job.direction,
                    ok=transfer.ok,
                    payload=transfer.payload,
                    tag=transfer.tag,
                    nonce=job.nonce,
                    data=job.data,
                    aad=job.aad,
                    tag_in=job.tag,
                    algorithm=standard.algorithm,
                    key=session_key_material(
                        STORM_SEED, plan.sid, segment, epoch, manager.workload.key_bytes
                    ),
                    tag_length=standard.tag_length or 16,
                    expected_nonce=expected_nonce(
                        repeat.seed, standard.algorithm, transfer.channel_id, transfer.sequence
                    ),
                    # Sessions carry the session id as the packet header.
                    expected_aad=plan.sid.to_bytes(4, "big"),
                    plaintext=session_payload(plan.sid, index, size),
                )
            )
        return out


_WIFI = (RadioStandard.WIFI, 16)
_WIMAX = (RadioStandard.WIMAX, 16)
_SATCOM = (RadioStandard.SATCOM, 32)
#: CCM WiFi/WiMax and GCM-256 SATCOM, eight distinct keys.
_BULK_CHANNELS = (_WIFI, _WIMAX, _SATCOM, _WIFI, _WIFI, _WIMAX, _SATCOM, _WIFI)
#: SATCOM's 2 KB GCM packets under 128-bit keys: the Table II cell.
_GCM128_2KB = (RadioStandard.SATCOM, 16)


def build_workloads() -> Dict[str, Workload]:
    """Fresh instances of the four workloads, by name."""
    workloads = [
        PlatformWorkload(
            "bulk_tx",
            "8 saturating tx channels, distinct keys, batched width 32: "
            "steady-state crypto kernels dominate",
            _BULK_CHANNELS,
            packets=64,
            warm_packets=8,
            dataplane="batched",
            backend="inline",
        ),
        PlatformWorkload(
            "bulk_rx",
            "same channels, every packet arrives secured with loss and "
            "corruption: the batch open path and auth-failure isolation",
            _BULK_CHANNELS,
            # 48 = a batch of 32 plus one of 16 per channel: the median
            # packet then sits mid-batch, so channel losses cannot flip
            # the p50 between two batches' completion times.
            packets=48,
            warm_packets=8,
            dataplane="batched",
            backend="inline",
            rx=True,
        ),
        SessionChurn(
            "bursty session storm with a rekey, handoffs, admission and "
            "autotune on cold caches: per-packet and per-dispatch overhead"
        ),
        PlatformWorkload(
            "cores_table2",
            "4 saturating GCM-128 2 KB channels on 4 simulated cores: the "
            "cycle-accurate model behind the paper's Table II",
            (_GCM128_2KB,) * 4,
            # Every packet of this saturating mix sees the same simulated
            # latency and throughput from 4 packets a channel on; short
            # calls mean more host-speed samples per run.
            packets=4,
            warm_packets=1,
            dataplane="cores",
        ),
    ]
    return {w.name: w for w in workloads}

