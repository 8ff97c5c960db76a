"""The secure SDR platform model (paper sections I and III.A).

Assembles the full system: main controller (session-key provisioning
into the key memory), the MCCP red/black boundary, the communication
controller, and per-channel traffic.  The platform's
:meth:`run_workload` is the workhorse of the multi-channel benchmarks.
It replays generated traffic through one of two dataplanes, both built
on the same :class:`repro.mccp.channel.PacketJob` pipeline:

- ``dataplane="cores"`` (default) — every packet runs the
  cycle-accurate simulated-core path at batch width 1, blocking
  per-channel and retrying on core exhaustion (the radio-side
  queueing the paper leaves to the communication controller);
- ``dataplane="batched"`` — packets are formatted into jobs and
  enqueued per channel; the channel's :class:`repro.mccp.channel
  .FlushPolicy` coalesces same-key jobs and dispatches them through
  the multi-packet batch engine, with per-packet completions fanning
  back out for latency accounting.  Channels the batch engine cannot
  serve (CTR streams, two-core CCM) transparently fall back to the
  cores path;
- ``dataplane="pipelined"`` — the same drain, but each submitted
  batch may stay in flight (up to ``WorkloadSpec.pipeline_depth`` per
  channel) while the simulator keeps coalescing the next one and
  thread/process workers run the current one.  ``"batched"`` is this
  drain at pipeline depth 0: every dispatch is collected in the step
  that submitted it.  Same bytes, same per-channel completion order,
  same cycle stamps at any depth — only wall-clock overlaps.

Every run is described by one :class:`WorkloadSpec` —
``platform.run_workload(WorkloadSpec(configs, dataplane="pipelined"))``.

Both dataplanes secure every packet under the same deterministic
per-(channel, sequence) nonce, so they produce byte-identical secured
packets — the equivalence the dataplane test suite pins.

Receive-side traffic: a channel (or the whole run) may declare an
``rx_fraction`` — that share of its packets arrive as *secured*
packets off the air and flow through the dataplane as DECRYPT jobs.
The platform plays the peer radio: it pre-seals the payload under the
channel key and the deterministic per-(channel, sequence) nonce, then
degrades the transmission per the channel model — ``loss_rate``
packets never arrive (counted, never submitted) and ``corrupt_rate``
of the arrivals carry a flipped tag byte, exercising the batch
engine's early-reject/verify paths under realistic traffic.  Failed
authentications are per-packet isolated and tallied in
:attr:`WorkloadReport.auth_failures`.  The rx decisions derive only
from ``(seed, channel, sequence)``, so both dataplanes and every
execution backend replay the identical mixed workload.

``WorkloadSpec.backend`` selects where the batched dispatches'
seal/open sweeps execute (:mod:`repro.crypto.fast.exec`): inline,
a thread pool, or a process pool — outputs and completion order are
identical across all three.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Union

from repro.analysis.throughput import WorkloadReport
from repro.core.params import Algorithm, Direction
from repro.crypto.fast.exec import BackendSpec, resolve_backend
from repro.errors import BackpressureError, NoResourceError
from repro.mccp.autotune import AutotuneConfig, TrafficProfile, advise_backend
from repro.mccp.channel import Channel, FlushPolicy
from repro.mccp.key_memory import KeyMemory
from repro.mccp.mccp import BATCHABLE_ALGORITHMS, Mccp
from repro.radio.admission import AdmissionController, AdmissionPolicy
from repro.radio.comm_controller import CommController
from repro.radio.packet import Packet
from repro.radio.standards import STANDARD_PROFILES, RadioStandard
from repro.radio.traffic import GeneratedPacket, TrafficGenerator, TrafficPattern
from repro.resilience import stats as resilience_stats
from repro.sim.kernel import Delay, Simulator

__all__ = ["ChannelConfig", "SdrPlatform", "WorkloadReport", "WorkloadSpec"]

#: The dataplanes :meth:`SdrPlatform.run_workload` can replay through.
DATAPLANES = ("cores", "batched", "pipelined")


@dataclass
class ChannelConfig:
    """One channel of the workload."""

    standard: RadioStandard
    key: bytes
    pattern: TrafficPattern = TrafficPattern.SATURATING
    packets: int = 8
    priority: int = 1
    two_core_ccm: bool = False
    #: Per-channel flush-policy override for the batched dataplane
    #: (None = the run_workload-level policy, or the channel default).
    flush_policy: Optional[FlushPolicy] = None
    #: Fraction of this channel's packets that are receive-side
    #: (DECRYPT) traffic; 0.0 defers to the run_workload-level knob.
    #: Only AEAD channels generate rx traffic (CTR streams have no tag
    #: to verify and keep transmitting).
    rx_fraction: float = 0.0
    #: Channel model for the rx share: fraction of secured packets
    #: lost before arrival (never submitted, counted in the report).
    loss_rate: float = 0.0
    #: Fraction of *arriving* rx packets whose tag is corrupted in
    #: flight (fails authentication; the dataplane must reject it
    #: without disturbing batch-mates).
    corrupt_rate: float = 0.0
    #: High watermark of this channel's coalescing queue (None = the
    #: run-level :attr:`WorkloadSpec.queue_capacity`, or unbounded).
    #: A bounded queue raises :class:`repro.errors.BackpressureError`
    #: at the mark and feeds the admission controller's shed logic.
    queue_capacity: Optional[int] = None


@dataclass
class WorkloadSpec:
    """Everything one :meth:`SdrPlatform.run_workload` replay needs.

    The channels plus every run-level knob.  A spec is a value object,
    so the same workload can be replayed across dataplanes/backends
    with ``dataclasses.replace(spec, dataplane=...)``.
    """

    #: The channels to provision and their traffic.
    configs: Sequence[ChannelConfig] = field(default_factory=tuple)
    #: Simulated-cycle budget per channel-drained wait.
    limit: int = 2_000_000_000
    #: ``"cores"``, ``"batched"`` or ``"pipelined"`` (module docstring).
    dataplane: str = "cores"
    #: Run-level flush-policy override (per-config policies win).
    flush_policy: Optional[FlushPolicy] = None
    #: Where batched dispatches' crypto sweeps execute for this run
    #: (:mod:`repro.crypto.fast.exec`; None keeps the platform's own).
    backend: BackendSpec = None
    #: Run-level receive-side traffic mix (per-config non-zero wins).
    rx_fraction: float = 0.0
    loss_rate: float = 0.0
    corrupt_rate: float = 0.0
    #: Dispatches a channel may keep in flight under the pipelined
    #: dataplane before its drain blocks to reap the oldest.
    pipeline_depth: int = 2
    #: Run-level bounded-queue high watermark (per-config capacities
    #: win; None = unbounded queues, the historical behaviour).
    queue_capacity: Optional[int] = None
    #: Admission-control policy for the run (None = admit everything;
    #: bounded queues then surface as BackpressureError retries).
    admission: Optional[AdmissionPolicy] = None
    #: Adaptive dataplane tuning (:mod:`repro.mccp.autotune`).  ``True``
    #: or an :class:`AutotuneConfig` installs the config on the
    #: communication controller and defaults the run-level flush policy
    #: to ``FlushPolicy(mode="auto")`` when none is given; with
    #: ``advise_backend`` set and no pinned :attr:`backend`, the scored
    #: policy table also picks the run's backend and pipeline depth.
    autotune: Union[bool, AutotuneConfig, None] = None

    def __post_init__(self) -> None:
        if self.autotune is True:
            self.autotune = AutotuneConfig()
        elif self.autotune is False:
            self.autotune = None
        elif self.autotune is not None and not isinstance(
            self.autotune, AutotuneConfig
        ):
            raise TypeError(
                "autotune must be True, False, None or an AutotuneConfig, "
                f"got {self.autotune!r}"
            )
        if self.dataplane not in DATAPLANES:
            raise ValueError(
                f"unknown dataplane {self.dataplane!r}; valid: "
                + ", ".join(DATAPLANES)
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


@dataclass(frozen=True)
class _RxPlan:
    """One receive-side packet as the channel delivered it."""

    nonce: bytes
    ciphertext: bytes
    tag: bytes
    lost: bool
    corrupted: bool


def _check_rate(name: str, value: float) -> float:
    """Validate a probability knob (rx_fraction/loss_rate/corrupt_rate)."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be within [0.0, 1.0], got {value}")
    return value


def _arrived_packet(item: GeneratedPacket, now: int) -> Packet:
    """Re-stamp creation at actual arrival for latency accounting.

    The single place a packet's ``created_cycle`` is set on its way
    into the dataplane — ``dataclasses.replace`` keeps every other
    field, so adding a field to :class:`Packet` can't silently drop it
    here.
    """
    return replace(item.packet, created_cycle=now)


def _traffic_profile(configs: Sequence[ChannelConfig]) -> TrafficProfile:
    """Summarise a workload's shape for the backend advisor.

    Built from the channel configs alone (standard payload sizes,
    packet counts, patterns, priorities) — nothing measured — so the
    advisor's pick is known before any traffic flows and is identical
    on every repeat.
    """
    total_packets = 0
    total_bytes = 0
    sustained = 0
    control = 0
    for config in configs:
        profile = STANDARD_PROFILES[config.standard]
        total_packets += config.packets
        total_bytes += config.packets * profile.payload_bytes
        if config.pattern is TrafficPattern.SATURATING:
            sustained += config.packets
        if config.priority == 0:
            control += config.packets
    packets = max(1, total_packets)
    return TrafficProfile(
        channels=len(configs),
        total_packets=total_packets,
        mean_packet_bytes=total_bytes / packets,
        sustained_fraction=sustained / packets,
        control_fraction=control / packets,
    )


def _worker_expansions(comm) -> int:
    """Cumulative arena-worker key-schedule expansions for *comm*'s backend.

    Arena dispatch shards report the ``expand_key_cached`` misses each
    one observed; the process backend accumulates them in
    ``worker_expansions``.  Backends without the counter (inline,
    thread — their expansions land in the shared parent LRU and are
    not per-worker events) read as zero.
    """
    backend = resolve_backend(comm.backend)
    return getattr(backend, "worker_expansions", 0)


class _RunAccounting:
    """Snapshot of the platform-cumulative counters one run starts from.

    The scheduler/comm/resilience counters accumulate across runs on a
    reused platform; constructing one of these before the run and
    calling :meth:`fill` after yields a report scoped to just that
    run's activity.  Shared by :meth:`SdrPlatform.run_workload` and the
    session layer (:mod:`repro.radio.sessions`), so workload replays
    and session storms account identically.
    """

    def __init__(self, platform: "SdrPlatform"):
        self._platform = platform
        comm = platform.comm
        self.base_submits = platform.mccp.scheduler.requests_submitted
        self.base_retries = comm.backpressure_retries
        self.base_latencies = len(comm.latencies)
        self.base_class_latencies = {
            priority: len(samples)
            for priority, samples in comm.class_latencies.items()
        }
        self.base_auth_failures = comm.auth_failures
        # Resilience counters are process-wide (recovery fires deep in
        # the backend layer); the before/after delta is this run's.
        self.base_resilience = resilience_stats.snapshot()
        self.base_worker_expansions = _worker_expansions(comm)

    def fill(
        self,
        report: WorkloadReport,
        channels: Sequence[Channel],
        controller: Optional[AdmissionController] = None,
    ) -> WorkloadReport:
        """Scope the cumulative counters into *report* (and return it)."""
        platform = self._platform
        comm = platform.comm
        report.total_cycles = platform.sim.now
        report.pipeline_in_flight_peak = comm.pipeline_in_flight_peak
        report.latencies = list(comm.latencies[self.base_latencies:])
        for priority, samples in comm.class_latencies.items():
            start = self.base_class_latencies.get(priority, 0)
            if len(samples) > start:
                report.per_class_latencies[priority] = list(samples[start:])
        report.core_submits = (
            platform.mccp.scheduler.requests_submitted - self.base_submits
        )
        report.backpressure_retries = (
            comm.backpressure_retries - self.base_retries
        )
        report.auth_failures = comm.auth_failures - self.base_auth_failures
        accrued = resilience_stats.delta(self.base_resilience)
        report.retries = accrued["retries"]
        report.watchdog_fires = accrued["watchdog_fires"]
        report.degradations = accrued["degradations"]
        report.degradation_reasons = accrued["degradation_reasons"]
        report.quarantined = accrued["quarantined"]
        report.dead_lettered = accrued["dead_lettered"]
        report.faults_injected = accrued["faults_injected"]
        report.key_schedule_expansions = (
            _worker_expansions(comm) - self.base_worker_expansions
        )
        report.breaker_trips = accrued["breaker_trips"]
        report.breaker_bypasses = accrued["breaker_bypasses"]
        report.breaker_recoveries = accrued["breaker_recoveries"]
        for channel in channels:
            stats = channel.stats
            report.per_channel_queue_peak[channel.channel_id] = stats.get(
                "queue_peak", 0
            )
            report.per_channel_batches[channel.channel_id] = stats.get(
                "batches", 0
            )
            report.backpressure_signals += stats.get(
                "backpressure_signals", 0
            )
            for cause in ("size", "deadline", "forced"):
                count = stats.get(f"flush_{cause}", 0)
                if count:
                    report.flush_causes[cause] = (
                        report.flush_causes.get(cause, 0) + count
                    )
            if channel.autotune is not None:
                report.autotune_adjustments += channel.autotune.adjustments
                report.autotune_traces[channel.channel_id] = (
                    channel.autotune.trace_dicts()
                )
        if controller is not None:
            report.admitted_by_class = dict(controller.admitted)
            report.shed_by_class = controller.shed_by_class()
            report.shed_causes = controller.shed_causes()
            report.shed_packets = sorted(controller.shed_set())
            report.deferrals = controller.deferrals
        return report


class SdrPlatform:
    """Main controller + MCCP + communication controller."""

    def __init__(
        self,
        sim: Optional[Simulator] = None,
        core_count: int = 4,
        policy=None,
        seed: int = 0,
        backend: BackendSpec = None,
        key_slots: Optional[int] = None,
        max_channels: Optional[int] = None,
    ):
        self.sim = sim if sim is not None else Simulator()
        # Session-scale runs outgrow the hardware's 32-slot key memory
        # and 16-entry channel table; both stay the defaults unless a
        # caller (e.g. the session layer) asks for more.
        key_memory = KeyMemory(slots=key_slots) if key_slots is not None else None
        self.mccp = Mccp(
            self.sim,
            core_count=core_count,
            policy=policy,
            key_memory=key_memory,
            max_channels=max_channels,
        )
        self.comm = CommController(self.sim, self.mccp, seed=seed, backend=backend)
        self._next_key_id = 0
        self.seed = seed

    # -- provisioning ------------------------------------------------------------

    def provision_channel(self, config: ChannelConfig):
        """Load the session key and OPEN a channel for *config*."""
        profile = STANDARD_PROFILES[config.standard]
        key_id = self._next_key_id
        self._next_key_id += 1
        self.mccp.load_session_key(key_id, config.key)
        channel = self.mccp.open_channel(
            profile.algorithm, key_id, tag_length=profile.tag_length or 16
        )
        return channel, profile

    # -- workload execution ---------------------------------------------------------

    def run_workload(self, spec: WorkloadSpec) -> WorkloadReport:
        """Replay every channel's traffic to completion; returns the report.

        *spec* carries the channels and every run parameter: dataplane,
        flush policy, backend, rx mix, pipeline depth, queue bounds,
        admission and autotune.  Every engine reports into the same
        :class:`WorkloadReport`, which additionally carries the queue
        depth / backpressure statistics of the batched pipeline, the
        rx loss/auth-failure tallies, and the pipelined dataplane's
        in-flight overlap peak.
        """
        if not isinstance(spec, WorkloadSpec):
            raise TypeError(
                "run_workload takes a WorkloadSpec, e.g. "
                f"run_workload(WorkloadSpec(configs)); got {type(spec).__name__}"
            )
        configs = spec.configs
        flush_policy = spec.flush_policy
        backend = spec.backend
        pipeline_depth = spec.pipeline_depth
        report = WorkloadReport(total_cycles=0, packets_done=0, payload_bytes=0)
        report.dataplane = spec.dataplane
        done_events = []
        channels: List[Channel] = []
        controller = (
            AdmissionController(spec.admission)
            if spec.admission is not None
            else None
        )
        autotune = spec.autotune  # AutotuneConfig or None (normalized)
        previous_autotune = self.comm.autotune_config
        if autotune is not None:
            self.comm.autotune_config = autotune
            if flush_policy is None:
                # Adaptive runs default every channel onto the
                # controller; per-config policies still win.
                flush_policy = FlushPolicy(mode="auto")
            if autotune.advise_backend and backend is None:
                advice = advise_backend(
                    _traffic_profile(configs), cpu_count=autotune.cpu_count
                )
                backend = advice.backend
                pipeline_depth = advice.pipeline_depth
                report.autotune_backend = advice.backend
                report.autotune_policy = advice.policy
                report.autotune_pipeline_depth = advice.pipeline_depth
        try:
            with self.comm.use_dataplane(
                backend, spec.dataplane, pipeline_depth
            ):
                # Snapshot *after* the spec's backend is installed and
                # fill *before* it is restored: the worker-expansion
                # counter lives on the backend the run dispatched to.
                accounting = _RunAccounting(self)
                self._launch_channels(
                    configs, spec.dataplane, flush_policy, report,
                    done_events, channels, spec.rx_fraction, spec.loss_rate,
                    spec.corrupt_rate, spec.queue_capacity, controller,
                )
                for event in done_events:
                    self.sim.run_until_event(event, limit=spec.limit)
                return accounting.fill(report, channels, controller)
        finally:
            self.comm.autotune_config = previous_autotune

    def _launch_channels(
        self,
        configs: Sequence[ChannelConfig],
        dataplane: str,
        flush_policy: Optional[FlushPolicy],
        report: WorkloadReport,
        done_events: list,
        channels: List[Channel],
        rx_fraction: float,
        loss_rate: float,
        corrupt_rate: float,
        queue_capacity: Optional[int] = None,
        controller: Optional[AdmissionController] = None,
    ) -> None:
        """Provision every channel and spawn its traffic process."""
        for config in configs:
            channel, profile = self.provision_channel(config)
            channels.append(channel)
            policy = config.flush_policy or flush_policy
            if policy is not None:
                channel.flush_policy = replace(policy)
            capacity = config.queue_capacity or queue_capacity
            if capacity is not None:
                channel.capacity = capacity
            generator = TrafficGenerator(
                channel_id=channel.channel_id,
                profile=profile,
                pattern=config.pattern,
                seed=self.seed,
                priority=config.priority,
            )
            schedule = generator.generate(config.packets)
            plans = self._rx_plans(
                channel,
                schedule,
                _check_rate(
                    "rx_fraction", config.rx_fraction or rx_fraction
                ),
                _check_rate("loss_rate", config.loss_rate or loss_rate),
                _check_rate(
                    "corrupt_rate", config.corrupt_rate or corrupt_rate
                ),
            )
            finished = self.sim.event(f"chan{channel.channel_id}.drained")
            done_events.append(finished)
            batched = (
                dataplane in ("batched", "pipelined")
                and channel.algorithm in BATCHABLE_ALGORITHMS
                and not (
                    config.two_core_ccm and channel.algorithm is Algorithm.CCM
                )
            )
            process = (
                self._batched_channel_process
                if batched
                else self._core_channel_process
            )
            self.sim.add_process(
                process(
                    channel, config, schedule, plans, report, finished,
                    controller,
                ),
                name=f"chan{channel.channel_id}",
            )

    # -- receive-side traffic --------------------------------------------------------

    def _rx_plans(
        self,
        channel: Channel,
        schedule: Sequence[GeneratedPacket],
        rx_fraction: float,
        loss_rate: float,
        corrupt_rate: float,
    ) -> List[Optional[_RxPlan]]:
        """Per-packet rx decisions and pre-sealed arrivals (None = tx).

        The platform plays the peer radio here, outside simulated time:
        the rx packets are sealed under the channel key and the
        deterministic per-(channel, sequence) nonce, then the channel
        model decides loss and tag corruption.  All randomness derives
        from ``(seed, channel_id)`` and is drawn in sequence order
        before any sealing, so the same mixed workload replays
        identically through either dataplane and any execution backend.
        The channel's rx packets are sealed as one inline ``*_seal_many``
        batch, byte-identical to sealing them one by one.
        """
        if rx_fraction <= 0.0 or channel.algorithm not in BATCHABLE_ALGORITHMS:
            return [None] * len(schedule)
        from repro.crypto.fast.batch import ccm_seal_many, gcm_seal_many
        from repro.resilience.faults import injected_faults

        seal_many = (
            gcm_seal_many if channel.algorithm is Algorithm.GCM else ccm_seal_many
        )
        key = self.mccp.key_memory.fetch_for_scheduler(channel.key_id)
        rng = random.Random(
            (self.seed << 20) ^ (channel.channel_id << 4) ^ 0x52585F
        )
        received = []  # (schedule index, nonce, lost, corrupted)
        for index, item in enumerate(schedule):
            if rng.random() >= rx_fraction:
                continue
            lost = rng.random() < loss_rate
            corrupted = not lost and rng.random() < corrupt_rate
            nonce = self.comm.nonce_for(channel, item.packet.sequence)
            received.append((index, nonce, lost, corrupted))
        # The peer is not the device under test: a fault plan's poisoned
        # nonces (which persist on the plan across runs) must not fail it.
        with injected_faults(None):
            sealed = seal_many(
                key,
                [
                    (nonce, schedule[index].packet.payload,
                     schedule[index].packet.header)
                    for index, nonce, _, _ in received
                ],
                channel.tag_length,
                backend="inline",
            )
        plans: List[Optional[_RxPlan]] = [None] * len(schedule)
        for (index, nonce, lost, corrupted), (ciphertext, tag) in zip(
            received, sealed
        ):
            if corrupted:
                tag = tag[:-1] + bytes([tag[-1] ^ 0xFF])
            plans[index] = _RxPlan(nonce, ciphertext, tag, lost, corrupted)
        return plans

    def _rx_arrival(
        self, report: WorkloadReport, packet: Packet, plan: _RxPlan
    ) -> Optional[Packet]:
        """Count one rx packet; returns its arrived form (None = lost)."""
        report.rx_packets += 1
        if plan.lost:
            report.rx_lost += 1
            return None
        return replace(packet, payload=plan.ciphertext)

    # -- channel processes ----------------------------------------------------------

    def _account(self, report: WorkloadReport, channel: Channel, nbytes: int):
        report.packets_done += 1
        report.payload_bytes += nbytes
        report.per_channel_bytes[channel.channel_id] = (
            report.per_channel_bytes.get(channel.channel_id, 0) + nbytes
        )

    def _core_channel_process(
        self, channel, config, schedule, plans, report, finished,
        controller=None,
    ):
        """Width-1 pipeline on the simulated cores (cycle model)."""
        for item, plan in zip(schedule, plans):
            if self.sim.now < item.arrival_cycle:
                yield Delay(item.arrival_cycle - self.sim.now)
            packet = _arrived_packet(item, self.sim.now)
            direction = Direction.ENCRYPT
            nonce = self.comm.nonce_for(channel, packet.sequence)
            tag = None
            if plan is not None:
                arrived = self._rx_arrival(report, packet, plan)
                if arrived is None:
                    continue
                packet, direction, nonce, tag = (
                    arrived, Direction.DECRYPT, plan.nonce, plan.tag,
                )
            if controller is not None:
                admitted = yield from controller.gate(
                    self.sim, channel, packet.priority, packet.sequence
                )
                if not admitted:
                    continue
                controller.note_admitted(packet.priority)
            while True:
                try:
                    yield from self.comm.process_packet(
                        channel,
                        packet,
                        direction,
                        nonce=nonce,
                        tag=tag,
                        two_core=config.two_core_ccm
                        and channel.algorithm is Algorithm.CCM,
                    )
                    break
                except NoResourceError:
                    # All cores busy: radio-side queueing, retry shortly.
                    self.comm.backpressure_retries += 1
                    yield Delay(50)
            self._account(report, channel, len(packet.payload))
        finished.trigger()

    def _submit_gated(self, channel, packet, controller, **kwargs):
        """Process: admission-gate + enqueue one packet (None = shed).

        The single producer-side funnel into a bounded channel.  With a
        controller, its :meth:`~repro.radio.admission
        .AdmissionController.gate` decides admit/defer/shed before the
        enqueue ever happens; without one, a full queue surfaces as
        :class:`~repro.errors.BackpressureError` and the producer backs
        off in simulated time until the drain makes room — bounded
        queues never grow past their watermark either way.
        """
        if controller is not None:
            admitted = yield from controller.gate(
                self.sim, channel, packet.priority, packet.sequence
            )
            if not admitted:
                return None
            job = self.comm.submit_job(channel, packet, **kwargs)
            controller.note_admitted(packet.priority)
            return job
        while True:
            try:
                return self.comm.submit_job(channel, packet, **kwargs)
            except BackpressureError:
                # Queue at its high watermark: radio-side back-off,
                # retried once the flush machinery has drained room.
                self.comm.backpressure_retries += 1
                yield Delay(50)

    def _batched_channel_process(
        self, channel, config, schedule, plans, report, finished,
        controller=None,
    ):
        """Coalescing pipeline through the batch engine.

        Packets become jobs as they arrive — no per-packet blocking —
        and the flush policy (size threshold + idle deadline) decides
        when each batch dispatches.  The tail is force-flushed so the
        last under-filled batch never waits out its deadline.
        """
        jobs = []
        for item, plan in zip(schedule, plans):
            if self.sim.now < item.arrival_cycle:
                yield Delay(item.arrival_cycle - self.sim.now)
            packet = _arrived_packet(item, self.sim.now)
            if plan is None:
                job = yield from self._submit_gated(
                    channel, packet, controller,
                    direction=Direction.ENCRYPT,
                )
            else:
                arrived = self._rx_arrival(report, packet, plan)
                if arrived is None:
                    continue
                job = yield from self._submit_gated(
                    channel, arrived, controller,
                    direction=Direction.DECRYPT,
                    nonce=plan.nonce,
                    tag=plan.tag,
                )
            if job is not None:
                jobs.append(job)
        yield from self.comm.flush_now(channel)
        for job in jobs:
            if job.transfer is None:
                yield job.completion
            self._account(report, channel, len(job.data))
        finished.trigger()
