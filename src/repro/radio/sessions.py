"""Session layer: deterministic session churn above the channel layer.

The paper's SDR carries *sessions* — a voice call, a data transfer, a
control exchange — each living on a crypto channel for a while, being
rekeyed periodically, sometimes handed off to a fresh channel
mid-life, and finally torn down.  This module models that traffic at
scale on top of :class:`repro.radio.sdr_platform.SdrPlatform`:

- :class:`SessionWorkload` describes a storm of sessions — how many,
  how they arrive (Poisson / bursty / diurnal profiles), and the mix
  of :class:`SessionProfile` classes (control > interactive > bulk);
- :func:`build_session_plans` turns (workload, seed) into a fully
  deterministic plan — arrival cycles, per-session packet counts,
  rekey epochs and handoff splits are all pure functions of the seed,
  so a replay through another dataplane or execution backend runs the
  byte-identical storm;
- :class:`SessionManager` pre-provisions every planned channel *before
  simulated time starts* (deterministic channel/key ids regardless of
  how admission control later reshapes the run), then drives one sim
  process per session: setup (key-schedule expansion charged in
  cycles), gated packet submission through the shared
  :class:`~repro.radio.admission.AdmissionController`, rekeys through
  the key scheduler (flush barrier, key-memory rewrite, memo
  invalidation, expansion delay), mid-life handoffs, and teardown.

Session key material is derived per ``(seed, session, segment,
epoch)`` — rekeying changes the bytes on the air deterministically,
and the key scheduler's memo is explicitly invalidated so stale round
keys can never serve the new epoch.
"""

from __future__ import annotations

import enum
import hashlib
import math
import random
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.analysis.throughput import WorkloadReport
from repro.core.params import Direction
from repro.crypto.fast.exec import BackendSpec
from repro.mccp.channel import Channel, FlushPolicy
from repro.mccp.mccp import BATCHABLE_ALGORITHMS
from repro.radio.admission import AdmissionController, AdmissionPolicy
from repro.radio.packet import Packet
from repro.radio.sdr_platform import SdrPlatform, _RunAccounting
from repro.radio.standards import STANDARD_PROFILES, RadioStandard
from repro.sim.kernel import Delay

__all__ = [
    "PriorityClass",
    "SessionProfile",
    "SessionWorkload",
    "SessionPlan",
    "SegmentPlan",
    "ARRIVAL_PROFILES",
    "DEFAULT_MIX",
    "build_session_plans",
    "session_key_material",
    "SessionManager",
    "run_sessions",
]

#: The arrival processes :func:`build_session_plans` can generate.
ARRIVAL_PROFILES = ("poisson", "bursty", "diurnal")

#: Dataplanes sessions can ride (both share the PacketJob pipeline).
SESSION_DATAPLANES = ("batched", "pipelined")


class PriorityClass(enum.IntEnum):
    """The three session priority classes (lower = more important)."""

    CONTROL = 0
    INTERACTIVE = 1
    BULK = 2


@dataclass(frozen=True)
class SessionProfile:
    """One class of session in the workload mix."""

    #: Display name ("control", "voice", "bulk-transfer", ...).
    name: str
    #: Radio standard the session's channel speaks (must be an AEAD
    #: standard — the session layer rides the batched dataplane).
    standard: RadioStandard
    #: Priority class (:class:`PriorityClass`; control > interactive >
    #: bulk, matching :attr:`repro.radio.packet.Packet.priority`).
    priority: int
    #: Relative share of sessions drawn from this profile.
    weight: float = 1.0
    #: Mean packets per session (drawn per session from the seed).
    packets_mean: int = 16
    #: Mean simulated-cycle gap between a session's packets.
    packet_gap_cycles: int = 4_000
    #: Packets per key epoch (a rekey runs at each epoch boundary;
    #: None = the session keeps its setup key for life).
    rekey_interval: Optional[int] = None
    #: Share of this profile's sessions that hand off to a fresh
    #: channel mid-life (flush + close + continue on the next segment).
    handoff_fraction: float = 0.0
    #: Payload bytes per packet (None = the standard's nominal MPDU).
    payload_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError(f"weight must be > 0, got {self.weight}")
        if self.packets_mean < 1:
            raise ValueError(
                f"packets_mean must be >= 1, got {self.packets_mean}"
            )
        if self.packet_gap_cycles < 1:
            raise ValueError(
                f"packet_gap_cycles must be >= 1, got "
                f"{self.packet_gap_cycles}"
            )
        if self.rekey_interval is not None and self.rekey_interval < 1:
            raise ValueError(
                f"rekey_interval must be >= 1 or None, got "
                f"{self.rekey_interval}"
            )
        if not 0.0 <= self.handoff_fraction <= 1.0:
            raise ValueError(
                f"handoff_fraction must be within [0.0, 1.0], got "
                f"{self.handoff_fraction}"
            )
        profile = STANDARD_PROFILES[self.standard]
        if profile.algorithm not in BATCHABLE_ALGORITHMS:
            raise ValueError(
                f"session profile {self.name!r} uses "
                f"{profile.algorithm.name}, but sessions ride the "
                "batched dataplane (AEAD standards only)"
            )


#: A representative three-class mix: latency-critical control frames,
#: interactive Wi-Fi style traffic, and bulk SATCOM transfers that
#: absorb the shedding when the platform overloads.
DEFAULT_MIX: Tuple[SessionProfile, ...] = (
    SessionProfile(
        name="control",
        standard=RadioStandard.TACTICAL_VOICE,
        priority=PriorityClass.CONTROL,
        weight=1.0,
        packets_mean=8,
        packet_gap_cycles=3_000,
        rekey_interval=16,
    ),
    SessionProfile(
        name="interactive",
        standard=RadioStandard.WIFI,
        priority=PriorityClass.INTERACTIVE,
        weight=2.0,
        packets_mean=12,
        packet_gap_cycles=5_000,
        handoff_fraction=0.25,
    ),
    SessionProfile(
        name="bulk",
        standard=RadioStandard.SATCOM,
        priority=PriorityClass.BULK,
        weight=3.0,
        packets_mean=20,
        packet_gap_cycles=2_000,
        handoff_fraction=0.1,
    ),
)


@dataclass(frozen=True)
class SessionWorkload:
    """A storm of sessions to run through one platform."""

    #: Number of sessions to arrive over the horizon.
    sessions: int = 32
    #: Arrival window in simulated cycles.
    horizon_cycles: int = 200_000
    #: Arrival process: "poisson", "bursty" or "diurnal".
    arrival: str = "poisson"
    #: The profile mix sessions are drawn from (by weight).
    mix: Tuple[SessionProfile, ...] = DEFAULT_MIX
    #: "batched" or "pipelined" (sessions ride the PacketJob pipeline).
    dataplane: str = "batched"
    #: Execution backend for the dispatches (None = platform default).
    backend: BackendSpec = None
    #: Flush policy for the session channels (None = default).  Each
    #: manager copies it once and shares the copy across its channels,
    #: so auto-mode retuning never changes the workload's own policy.
    flush_policy: Optional[FlushPolicy] = None
    #: Bounded-queue high watermark per session channel (None =
    #: unbounded).
    queue_capacity: Optional[int] = None
    #: Admission-control policy shared by every session (None = admit
    #: everything).
    admission: Optional[AdmissionPolicy] = None
    #: Pipelined-dataplane overlap bound.
    pipeline_depth: int = 2
    #: Simulated-cycle budget per awaited completion.
    limit: int = 2_000_000_000
    #: Session key size in bytes (16/24/32).
    key_bytes: int = 16

    def __post_init__(self) -> None:
        if self.sessions < 1:
            raise ValueError(f"sessions must be >= 1, got {self.sessions}")
        if self.horizon_cycles < 1:
            raise ValueError(
                f"horizon_cycles must be >= 1, got {self.horizon_cycles}"
            )
        if self.arrival not in ARRIVAL_PROFILES:
            raise ValueError(
                f"unknown arrival profile {self.arrival!r}; valid: "
                + ", ".join(ARRIVAL_PROFILES)
            )
        if not self.mix:
            raise ValueError("the session mix cannot be empty")
        if self.dataplane not in SESSION_DATAPLANES:
            raise ValueError(
                f"sessions run on {' or '.join(SESSION_DATAPLANES)}, "
                f"not {self.dataplane!r}"
            )
        if self.pipeline_depth < 1:
            raise ValueError(
                f"pipeline_depth must be >= 1, got {self.pipeline_depth}"
            )
        if self.queue_capacity is not None and self.queue_capacity < 1:
            raise ValueError(
                f"queue_capacity must be >= 1 or None, got "
                f"{self.queue_capacity}"
            )
        if self.key_bytes not in (16, 24, 32):
            raise ValueError(
                f"key_bytes must be 16, 24 or 32, got {self.key_bytes}"
            )


@dataclass(frozen=True)
class SegmentPlan:
    """One channel-lifetime segment of a session."""

    #: Segment index within the session (0, then 1 after a handoff).
    segment: int
    #: Packets this segment carries.
    packets: int


@dataclass(frozen=True)
class SessionPlan:
    """Everything one session will do, fixed before sim time starts."""

    sid: int
    profile: SessionProfile
    arrival_cycle: int
    segments: Tuple[SegmentPlan, ...]

    @property
    def total_packets(self) -> int:
        return sum(s.packets for s in self.segments)


def session_key_material(
    seed: int, sid: int, segment: int, epoch: int, key_bytes: int = 16
) -> bytes:
    """Deterministic session key for one (session, segment, epoch).

    A hash over the coordinates, so every rekey installs fresh,
    reproducible material — the storm's bytes on the air are a pure
    function of the seed.
    """
    digest = hashlib.sha256(
        f"session-key|{seed}|{sid}|{segment}|{epoch}".encode()
    ).digest()
    return digest[:key_bytes]


def _arrival_cycles(workload: SessionWorkload, seed: int) -> List[int]:
    """Deterministic session arrival cycles for the chosen profile."""
    rng = random.Random((seed << 8) ^ 0x5E5510)
    n = workload.sessions
    horizon = workload.horizon_cycles
    mean = max(1.0, horizon / n)
    cycles: List[int] = []
    t = 0
    for i in range(n):
        if workload.arrival == "poisson":
            gap = rng.expovariate(1.0 / mean)
        elif workload.arrival == "bursty":
            # Clusters: most arrivals pile on quickly, every few
            # sessions a long quiet gap separates the bursts.
            if i % 4 == 0:
                gap = rng.expovariate(1.0 / (3.0 * mean))
            else:
                gap = rng.expovariate(1.0 / (mean / 3.0))
        else:  # diurnal
            phase = i / max(1, n)
            load = 0.2 + 0.8 * (0.5 - 0.5 * math.cos(2 * math.pi * phase))
            gap = rng.expovariate(load / mean)
        t += max(1, int(gap))
        cycles.append(min(t, horizon))
    return cycles


def build_session_plans(
    workload: SessionWorkload, seed: int = 0
) -> List[SessionPlan]:
    """The full deterministic plan: a pure function of (workload, seed).

    Profile draws, packet counts, handoff decisions and arrival cycles
    all come from seeded generators, so the same (workload, seed) pair
    always yields the identical storm — the reproducibility the
    overload suite leans on.
    """
    rng = random.Random((seed << 8) ^ 0x5E5520)
    arrivals = _arrival_cycles(workload, seed)
    weights = [p.weight for p in workload.mix]
    plans: List[SessionPlan] = []
    for sid, arrival in enumerate(arrivals):
        profile = rng.choices(workload.mix, weights=weights)[0]
        packets = 1 + int(rng.expovariate(1.0 / profile.packets_mean))
        handoff = rng.random() < profile.handoff_fraction and packets >= 2
        if handoff:
            first = packets // 2
            segments = (
                SegmentPlan(0, first),
                SegmentPlan(1, packets - first),
            )
        else:
            segments = (SegmentPlan(0, packets),)
        plans.append(SessionPlan(sid, profile, arrival, segments))
    return plans


class SessionManager:
    """Drives one :class:`SessionWorkload` through a platform.

    Construction pre-provisions every planned (session, segment)
    channel — key material loaded, channel opened, flush policy and
    queue capacity installed — in deterministic plan order *before*
    simulated time starts, so channel and key ids never depend on how
    admission control or backpressure later reshape the run.
    :meth:`run` then spawns one simulator process per session and
    returns the same :class:`~repro.analysis.throughput.WorkloadReport`
    a workload replay produces, with the session counters filled in.
    """

    def __init__(
        self,
        platform: SdrPlatform,
        workload: SessionWorkload,
        seed: Optional[int] = None,
    ):
        self.platform = platform
        self.workload = workload
        self.seed = platform.seed if seed is None else seed
        self.plans = build_session_plans(workload, self.seed)
        self.controller = (
            AdmissionController(workload.admission)
            if workload.admission is not None
            else None
        )
        #: (sid, segment) -> pre-opened Channel.
        self.channels: Dict[Tuple[int, int], Channel] = {}
        self.sessions_started = 0
        self.sessions_completed = 0
        self.handoffs = 0
        self.rekeys = 0
        self._provision()

    @classmethod
    def provisioned(
        cls,
        workload: SessionWorkload,
        seed: int = 0,
        core_count: int = 4,
    ) -> "SessionManager":
        """A manager on a fresh platform sized for the whole plan."""
        plans = build_session_plans(workload, seed)
        slots = sum(len(p.segments) for p in plans)
        platform = SdrPlatform(
            core_count=core_count,
            seed=seed,
            key_slots=max(32, slots),
            max_channels=max(16, slots),
        )
        return cls(platform, workload, seed)

    # -- provisioning ------------------------------------------------------

    def _provision(self) -> None:
        """Open every planned segment channel with its epoch-0 key.

        The workload's flush policy is copied once per manager and the
        copy is shared by all of its channels: auto mode retunes the
        policy in place, and that must not leak into the next run of
        the same workload.
        """
        mccp = self.platform.mccp
        policy = self.workload.flush_policy
        if policy is not None:
            policy = replace(policy)
        for plan in self.plans:
            std = STANDARD_PROFILES[plan.profile.standard]
            for seg in plan.segments:
                key_id = self.platform._next_key_id
                self.platform._next_key_id += 1
                mccp.load_session_key(
                    key_id,
                    session_key_material(
                        self.seed, plan.sid, seg.segment, 0,
                        self.workload.key_bytes,
                    ),
                )
                channel = mccp.open_channel(
                    std.algorithm, key_id, tag_length=std.tag_length or 16
                )
                if policy is not None:
                    channel.flush_policy = policy
                if self.workload.queue_capacity is not None:
                    channel.capacity = self.workload.queue_capacity
                self.channels[(plan.sid, seg.segment)] = channel

    # -- execution ---------------------------------------------------------

    def run(self) -> WorkloadReport:
        """Run every session to teardown; returns the filled report."""
        workload = self.workload
        platform = self.platform
        comm = platform.comm
        report = WorkloadReport(total_cycles=0, packets_done=0, payload_bytes=0)
        report.dataplane = workload.dataplane
        accounting = _RunAccounting(platform)
        previous_backend = comm.backend
        previous_pipeline = (comm.pipelined, comm.pipeline_depth)
        if workload.backend is not None:
            comm.backend = workload.backend
        comm.pipelined = workload.dataplane == "pipelined"
        comm.pipeline_depth = workload.pipeline_depth
        comm.pipeline_in_flight_peak = 0
        done_events = []
        channels = list(self.channels.values())
        try:
            for plan in self.plans:
                finished = platform.sim.event(f"session{plan.sid}.done")
                done_events.append(finished)
                platform.sim.add_process(
                    self._session_process(plan, report, finished),
                    name=f"session{plan.sid}",
                )
            for event in done_events:
                platform.sim.run_until_event(event, limit=workload.limit)
        finally:
            comm.backend = previous_backend
            comm.pipelined, comm.pipeline_depth = previous_pipeline
        accounting.fill(report, channels, self.controller)
        report.sessions_started = self.sessions_started
        report.sessions_completed = self.sessions_completed
        report.handoffs = self.handoffs
        report.rekeys = self.rekeys
        return report

    def _payload_for(self, plan: SessionPlan, index: int) -> bytes:
        """Deterministic packet payload (profile-sized, seed-derived)."""
        std = STANDARD_PROFILES[plan.profile.standard]
        size = (
            plan.profile.payload_bytes
            if plan.profile.payload_bytes is not None
            else std.payload_bytes
        )
        block = hashlib.sha256(
            f"session-payload|{self.seed}|{plan.sid}|{index}".encode()
        ).digest()
        reps = size // len(block) + 1
        return (block * reps)[:size]

    def _expansion_delay(self, channel: Channel) -> Delay:
        """The key scheduler's charged cycles for this channel's key."""
        scheduler = self.platform.mccp.key_scheduler
        return Delay(scheduler.schedule_cycles(channel.key_bits))

    def _rekey(
        self, plan: SessionPlan, channel: Channel, segment: int, epoch: int
    ):
        """Process: epoch boundary — barrier, rewrite, invalidate, expand.

        The flush barrier drains (and, pipelined, reaps) everything
        still secured under the old epoch's key *before* the key memory
        is rewritten; the key scheduler's memo is invalidated so the
        next dispatch expands the new material rather than serving
        stale round keys.
        """
        mccp = self.platform.mccp
        yield from self.platform.comm.flush_now(channel)
        mccp.load_session_key(
            channel.key_id,
            session_key_material(
                self.seed, plan.sid, segment, epoch, self.workload.key_bytes
            ),
        )
        mccp.key_scheduler.invalidate(channel.key_id)
        self.rekeys += 1
        yield self._expansion_delay(channel)

    def _session_process(self, plan, report, finished):
        """One session's life: setup, packets, rekeys, handoff, teardown."""
        sim = self.platform.sim
        comm = self.platform.comm
        profile = plan.profile
        rng = random.Random((self.seed << 16) ^ (plan.sid << 2) ^ 0x5E5530)
        if sim.now < plan.arrival_cycle:
            yield Delay(plan.arrival_cycle - sim.now)
        self.sessions_started += 1
        packet_index = 0
        for seg_index, seg_plan in enumerate(plan.segments):
            channel = self.channels[(plan.sid, seg_plan.segment)]
            # Setup (or handoff target): round keys expand into the
            # core cache off the per-packet critical path.
            yield self._expansion_delay(channel)
            jobs = []
            sequence = 0
            for _ in range(seg_plan.packets):
                if (
                    profile.rekey_interval is not None
                    and packet_index > 0
                    and packet_index % profile.rekey_interval == 0
                ):
                    # Epoch boundary: the rekey's flush barrier runs
                    # every already-submitted packet under the old key
                    # before the new material lands.
                    yield from self._rekey(
                        plan, channel, seg_plan.segment,
                        packet_index // profile.rekey_interval,
                    )
                payload = self._payload_for(plan, packet_index)
                packet = Packet(
                    channel_id=channel.channel_id,
                    header=plan.sid.to_bytes(4, "big"),
                    payload=payload,
                    sequence=sequence,
                    created_cycle=sim.now,
                    priority=int(profile.priority),
                )
                job = yield from self.platform._submit_gated(
                    channel, packet, self.controller,
                    direction=Direction.ENCRYPT,
                )
                if job is not None:
                    jobs.append(job)
                sequence += 1
                packet_index += 1
                gap = max(
                    1, int(rng.expovariate(1.0 / profile.packet_gap_cycles))
                )
                yield Delay(gap)
            # Segment teardown: drain, await completions, close.
            yield from comm.flush_now(channel)
            for job in jobs:
                if job.transfer is None:
                    yield job.completion
                self.platform._account(report, channel, len(job.data))
            self.platform.mccp.close_channel(channel.channel_id)
            if seg_index + 1 < len(plan.segments):
                self.handoffs += 1
        self.sessions_completed += 1
        finished.trigger()


def run_sessions(
    workload: SessionWorkload, seed: int = 0, core_count: int = 4
) -> WorkloadReport:
    """Convenience: provision a fresh platform and run the storm."""
    return SessionManager.provisioned(
        workload, seed=seed, core_count=core_count
    ).run()
