"""Hot-path kernel definitions shared by the bench CLI and scenarios.

This module is the single home of the microbenchmark kernels that used
to live inline in ``benchmarks/run_bench.py``: the same name -> callable
mapping now feeds three consumers —

- ``benchmarks/run_bench.py`` (the standalone ``BENCH_<date>.json``
  snapshot CLI, kept as a thin wrapper for backwards compatibility),
- the ``bench_kernels`` scenario in
  :mod:`repro.experiments.scenarios.bench` (CI's perf-smoke sweep), and
- :func:`correctness_check`, which pairs every kernel with a
  cross-path verification so a perf run doubles as a crypto-equivalence
  gate: timing may drift on shared CI runners, byte-exactness may not.

Kernel names are a stable schema: the committed ``BENCH_*.json``
baselines key on them, and ``<name>_fast`` / ``<name>_reference`` pairs
derive the speedup table.
"""

from __future__ import annotations

import itertools
import random
import re
import time
from typing import Callable, Dict, Tuple

from repro.crypto import AES, ccm_encrypt, gcm_encrypt
from repro.crypto.fast import clear_caches
from repro.crypto.fast.batch import ccm_seal_many, gcm_seal_many
from repro.crypto.fast.bulk import ccm_seal, ctr_xcrypt_bulk, gcm_seal
from repro.crypto.fast.exec import resolve_backend
from repro.crypto.fast.gf128_tables import gf128_mul_tabulated, ghash_tables
from repro.crypto.gf128 import gf128_mul
from repro.crypto.ghash import GHash
from repro.crypto.modes.ctr import ctr_xcrypt
from repro.sim.kernel import Delay, Simulator


def deterministic_bytes(n: int, seed: int) -> bytes:
    """Seeded pseudorandom byte string (stable run to run).

    One generator must serve the whole string: re-seeding per byte
    would collapse the output to a single repeated value, and
    constant-byte packets are both unrepresentative of radio traffic
    and ~2x slower through numpy's fancy-indexing gathers than
    realistic data, which understated every gather-based kernel.
    """
    return random.Random(seed).randbytes(n)


KEY = bytes(range(16))
BLOCK = deterministic_bytes(16, 11)
PACKET = deterministic_bytes(2048, 12)
ICB = deterministic_bytes(16, 16)
H = deterministic_bytes(16, 17)
IV = deterministic_bytes(12, 18)
NONCE = deterministic_bytes(13, 19)
GF_X = int.from_bytes(deterministic_bytes(16, 13), "big")
GF_Y = int.from_bytes(deterministic_bytes(16, 14), "big")

#: Packets per batch-kernel iteration (the `_batch<N>_` name infix).
BATCH_PACKETS = 32
GCM_BATCH = tuple(((i + 1).to_bytes(12, "big"), PACKET) for i in range(BATCH_PACKETS))
CCM_BATCH = tuple(((i + 1).to_bytes(13, "big"), PACKET) for i in range(BATCH_PACKETS))

#: Packets per *pipelined* radio-kernel iteration: four coalesced
#: batches per op, so the async dataplane actually has a next batch to
#: coalesce while workers run the current one (a single-batch stream
#: submits and immediately barriers — no overlap to measure).
PIPELINE_STREAM_PACKETS = 4 * BATCH_PACKETS

#: Events per process in the sim-kernel benchmark (4 processes).
_KERNEL_EVENTS = 2000


def bench_backend(spec: str):
    """Shared backend instance for *spec* ("thread" / "process").

    The process-wide spec memo in :func:`repro.crypto.fast.exec
    .resolve_backend`: every iteration of one kernel reuses the same
    warm pool, and the bench shares it with any dispatch that stored
    the same spec string.  Process pools degrade to inline inside
    daemonic sweep workers (the kernels stay byte-correct; their ops/s
    then simply matches inline, which the warn-only gate tolerates).
    """
    return resolve_backend(spec)


def _radio_ccm_setup(
    width: int,
    npackets: int,
    backend: str = None,
    pipelined: bool = False,
    auto: bool = False,
):
    """One CCM radio-dataplane rig: (sim, comm, channel, packets).

    Shared by the bench kernels and their correctness twin so the perf
    number and the gate always measure the same pipeline
    (coalesce width *width*, 8-byte tags, 2 KB packets, dispatches on
    *backend* when given, async submit/reap dataplane when *pipelined*).
    *auto* starts the same policy in adaptive mode: the ``_auto_``
    kernels reuse one rig across bench iterations, so the controller's
    knob choices converge over the first iterations and the steady
    state is what gets measured.
    """
    from repro.core.params import Algorithm
    from repro.mccp.channel import FlushPolicy
    from repro.mccp.mccp import Mccp
    from repro.radio.comm_controller import CommController
    from repro.radio.packet import Packet

    sim = Simulator()
    mccp = Mccp(sim)
    mccp.load_session_key(0, KEY)
    channel = mccp.open_channel(Algorithm.CCM, 0, tag_length=8)
    channel.flush_policy = FlushPolicy(
        coalesce_limit=width,
        flush_deadline=None,
        mode="auto" if auto else "fixed",
    )
    comm = CommController(
        sim, mccp, backend=bench_backend(backend) if backend else None
    )
    if pipelined:
        comm.pipelined = True
        comm.pipeline_depth = 2
    packets = [
        Packet(channel.channel_id, b"", PACKET, sequence=i)
        for i in range(npackets)
    ]
    return sim, comm, channel, packets


def _radio_ccm_round(sim, comm, channel, packets) -> None:
    """Enqueue every packet, force-flush, run the sim to completion."""
    finished = sim.event("bench.flush")

    def proc():
        for packet in packets:
            comm.submit_job(channel, packet)
        yield from comm.flush_now(channel)
        finished.trigger()

    sim.add_process(proc())
    sim.run_until_event(finished)


def _radio_ccm_dataplane(
    width: int,
    npackets: int,
    backend: str = None,
    pipelined: bool = False,
    auto: bool = False,
):
    """Zero-arg kernel: *npackets* 2 KB CCM packets through the batched
    radio dataplane at coalesce width *width*.

    One op = one enqueue-all + flush round trip through the real
    pipeline (CommController jobs, flush policy, channel queue, batch
    engine, per-packet completion stamping, simulated control/transfer
    time), so ops/s x npackets is end-to-end radio packets/s — the
    number the ``radio_ccm_2kb_batch32_per_packet`` speedup compares
    against the width-1 (sequential) path.  *backend* routes the
    dispatches through a worker pool (the ``_thread`` kernel variant);
    *pipelined* switches the CommController to the async submit/reap
    dataplane (the ``_pipelined_<backend>`` variants stream
    ``PIPELINE_STREAM_PACKETS`` so batches overlap).
    """
    sim, comm, channel, packets = _radio_ccm_setup(
        width, npackets, backend, pipelined, auto
    )

    def run() -> int:
        _radio_ccm_round(sim, comm, channel, packets)
        # Bound the per-iteration completion records the bench retains.
        comm.completed.clear()
        comm.latencies.clear()
        return npackets

    return run


def measure_pipelined(
    width: int, window: float, backend: str = "thread"
) -> dict:
    """Pipelined vs synchronous radio dataplane on one backend.

    Both rigs stream ``PIPELINE_STREAM_PACKETS`` 2 KB CCM packets per
    op at coalesce width *width* on *backend*; the only difference is
    ``CommController.pipelined``.  Returns packets/s ``rates``
    ("synchronous" / "pipelined"), the byte/order/stamp equality
    ``identical`` bool (payload, tag, per-channel fan-out order,
    completion cycles and final sim time must all match — the async
    dataplane's determinism contract), plus ``cpu_count``.  Shared by
    ``benchmarks/gate_backends.py``'s warn-level pipelined check so the
    gate measures exactly what the bench kernels measure.
    """
    import os

    def _transcript(pipelined: bool):
        sim, comm, channel, packets = _radio_ccm_setup(
            width, PIPELINE_STREAM_PACKETS, backend, pipelined
        )
        _radio_ccm_round(sim, comm, channel, packets)
        return (
            [
                (t.job.sequence, t.payload, t.tag, t.job.completed_cycle)
                for t in comm.completed.values()
            ],
            list(comm.latencies),
            sim.now,
        )

    identical = _transcript(False) == _transcript(True)
    rates = {}
    for name, pipelined in (("synchronous", False), ("pipelined", True)):
        fn = _radio_ccm_dataplane(
            width, PIPELINE_STREAM_PACKETS, backend, pipelined
        )
        ops_per_s, _ = measure(fn, window)
        rates[name] = ops_per_s * PIPELINE_STREAM_PACKETS
    return {
        "identical": identical,
        "rates": rates,
        "cpu_count": os.cpu_count() or 1,
    }


def measure_autotune(width: int, window: float) -> dict:
    """Adaptive-vs-static radio dataplane, shared with the CI gate.

    Streams ``PIPELINE_STREAM_PACKETS`` 2 KB CCM packets per op on the
    thread and process backends, once with the static width-*width*
    policy and once with ``FlushPolicy(mode="auto")`` starting from the
    same knobs (the auto rig persists across iterations, so the
    controller's decisions converge before the steady state is
    measured).  Returns per-leg packets/s ``rates``
    (``{static,auto}_{thread,process}``), the byte-identity bool
    ``identical`` (the auto transcript must match the static one —
    the controller moves batching geometry, never bytes), the auto
    rig's decision ``trace`` (JSON-safe dicts, for the bench artifact),
    and ``cpu_count``.  ``benchmarks/gate_backends.py`` consumes this
    so its auto gate measures exactly what the ``_auto_`` bench
    kernels measure.
    """
    import os

    def _transcript(auto: bool):
        sim, comm, channel, packets = _radio_ccm_setup(
            width, PIPELINE_STREAM_PACKETS, "thread", auto=auto
        )
        _radio_ccm_round(sim, comm, channel, packets)
        transcript = [
            (t.job.sequence, t.payload, t.tag)
            for t in comm.completed.values()
        ]
        trace = channel.autotune.trace_dicts() if channel.autotune else []
        return transcript, trace

    static_transcript, _ = _transcript(False)
    auto_transcript, trace = _transcript(True)
    rates = {}
    for backend in ("thread", "process"):
        for variant, auto in (("static", False), ("auto", True)):
            fn = _radio_ccm_dataplane(
                width, PIPELINE_STREAM_PACKETS, backend, auto=auto
            )
            ops_per_s, _ = measure(fn, window)
            rates[f"{variant}_{backend}"] = ops_per_s * PIPELINE_STREAM_PACKETS
    return {
        "identical": auto_transcript == static_transcript,
        "rates": rates,
        "trace": trace,
        "cpu_count": os.cpu_count() or 1,
    }


def measure_chaos_identity(width: int) -> dict:
    """Worker-crash chaos leg shared with ``benchmarks/gate_backends.py``.

    Injects one scripted ``worker_crash`` while an arena slab is in
    flight on the process backend and replays the radio CCM stream on
    both dataplanes.  Per dataplane: ``identical`` pins the surviving
    transcript (sequence, payload, tag, ok) byte-for-byte against a
    no-fault inline run, ``slab_reclaimed`` pins the arena generation
    count back at zero — a crash must cost a retry, never bytes or
    shared-memory segments.  Both fail the gate hard anywhere.
    """
    from repro.crypto.fast.exec import ProcessPoolBackend, ResiliencePolicy
    from repro.resilience import FaultPlan, ScriptedFault, set_fault_plan

    def _transcript(backend, pipelined, plan=None):
        previous = set_fault_plan(plan)
        try:
            sim, comm, channel, packets = _radio_ccm_setup(
                width, PIPELINE_STREAM_PACKETS, backend, pipelined
            )
            _radio_ccm_round(sim, comm, channel, packets)
            return [
                (t.job.sequence, t.payload, t.tag, t.ok)
                for t in comm.completed.values()
            ]
        finally:
            set_fault_plan(previous)

    results = {}
    for pipelined in (False, True):
        baseline = _transcript(None, pipelined)
        # A fresh backend per leg: the crash may stick a degradation to
        # the instance, which must never leak into the shared bench
        # pools resolve_backend memoizes.
        backend = ProcessPoolBackend(workers=2, arena=True)
        backend.resilience = ResiliencePolicy(
            max_retries=2, backoff_base=0.0, backoff_cap=0.0
        )
        plan = FaultPlan(scripted=(ScriptedFault("worker_crash", times=1),))
        try:
            chaotic = _transcript(backend, pipelined, plan)
        finally:
            arena = backend._arena
            backend.close()
        results["pipelined" if pipelined else "batched"] = {
            "identical": chaotic == baseline,
            "slab_reclaimed": arena is None or arena.live_generations == 0,
        }
    return results


def _kernel_events() -> int:
    sim = Simulator()

    def proc():
        for _ in range(_KERNEL_EVENTS):
            yield Delay(1)

    for _ in range(4):
        sim.add_process(proc())
    sim.run()
    return sim.now


def _gcm_cold_key() -> Callable[[], object]:
    """One 2 KB GCM seal per op under a fresh key on cleared caches.

    Every op pays the whole per-key set-up (key schedule, Shoup tables,
    H-power tables) that a newly opened or rekeyed channel pays.
    """
    seeds = itertools.count(1000)

    def run():
        clear_caches()
        key = deterministic_bytes(16, next(seeds))
        return gcm_seal_many(key, GCM_BATCH[:1], 16)

    return run


def build_kernels() -> Dict[str, Callable[[], object]]:
    """Name -> zero-arg callable for one benchmark iteration."""
    ref_cipher = AES(KEY, use_fast=False)
    fast_cipher = AES(KEY, use_fast=True)
    ghash_tables(int.from_bytes(H, "big"))  # pre-build (memoized per subkey)
    return {
        "aes_block_reference": lambda: ref_cipher.encrypt_block(BLOCK),
        "aes_block_fast": lambda: fast_cipher.encrypt_block(BLOCK),
        "gf128_mul_reference": lambda: gf128_mul(GF_X, GF_Y),
        "gf128_mul_fast": lambda: gf128_mul_tabulated(GF_X, GF_Y),
        "ghash_2kb_reference": lambda: GHash(H, use_fast=False)
        .update_blocks(PACKET)
        .digest(),
        "ghash_2kb_fast": lambda: GHash(H, use_fast=True)
        .update_blocks(PACKET)
        .digest(),
        "aes_ctr_2kb_reference": lambda: ctr_xcrypt(
            ref_cipher, ICB, PACKET, 16, False
        ),
        "aes_ctr_2kb_fast": lambda: ctr_xcrypt_bulk(KEY, ICB, PACKET, 16),
        "gcm_2kb_reference": lambda: gcm_encrypt(
            KEY, IV, PACKET, b"", 16, False
        ),
        "gcm_2kb_fast": lambda: gcm_encrypt(KEY, IV, PACKET, b"", 16, True),
        "ccm_2kb_reference": lambda: ccm_encrypt(
            KEY, NONCE, PACKET, b"", 8, False
        ),
        "ccm_2kb_fast": lambda: ccm_encrypt(KEY, NONCE, PACKET, b"", 8, True),
        # One iteration seals BATCH_PACKETS packets; ops/s is batches/s,
        # so per-packet throughput is ops/s x BATCH_PACKETS (run_bench
        # derives the `<base>_batch<N>_per_packet` speedups from this).
        "gcm_2kb_cold_key_fast": _gcm_cold_key(),
        "gcm_2kb_batch32_fast": lambda: gcm_seal_many(KEY, GCM_BATCH, 16),
        "ccm_2kb_batch32_fast": lambda: ccm_seal_many(KEY, CCM_BATCH, 8),
        # Backend-parametrized twins of the batch kernels: same packets
        # sharded across a worker pool (run_bench derives the
        # `<base>_batch<N>_<backend>_over_inline` speedups; the CI gate
        # requires thread >= 1.3x inline on the 2-vCPU runner).
        "gcm_2kb_batch32_thread_fast": lambda: gcm_seal_many(
            KEY, GCM_BATCH, 16, backend=bench_backend("thread")
        ),
        "ccm_2kb_batch32_thread_fast": lambda: ccm_seal_many(
            KEY, CCM_BATCH, 8, backend=bench_backend("thread")
        ),
        "ccm_2kb_batch32_process_fast": lambda: ccm_seal_many(
            KEY, CCM_BATCH, 8, backend=bench_backend("process")
        ),
        # Dataplane-pinned process twins: `_arena_` ships descriptors
        # over a shared-memory slab (zero payload pickling), the plain
        # `_process_` kernel above rides the backend default.  The CI
        # gate requires arena >= 1.5x the pickling path on >= 4 CPUs.
        "gcm_2kb_batch32_arena_fast": lambda: gcm_seal_many(
            KEY, GCM_BATCH, 16, backend=bench_backend("process-arena")
        ),
        "ccm_2kb_batch32_arena_fast": lambda: ccm_seal_many(
            KEY, CCM_BATCH, 8, backend=bench_backend("process-arena")
        ),
        # End-to-end radio dataplane: one op = enqueue + flush through
        # the MCCP channel layer (sequential width-1 vs coalesced 32,
        # plus the coalesced dispatch on the thread backend).
        "radio_ccm_2kb_fast": _radio_ccm_dataplane(1, 1),
        "radio_ccm_2kb_batch32_fast": _radio_ccm_dataplane(32, BATCH_PACKETS),
        "radio_ccm_2kb_batch32_thread_fast": _radio_ccm_dataplane(
            32, BATCH_PACKETS, backend="thread"
        ),
        "radio_ccm_2kb_batch32_arena_fast": _radio_ccm_dataplane(
            32, BATCH_PACKETS, backend="process-arena"
        ),
        # Pipelined twins: same dataplane in async submit/reap mode,
        # streaming PIPELINE_STREAM_PACKETS (4 batches) per op so the
        # simulator coalesces batch N+1 while workers run batch N.
        # run_bench derives `<base>_pipelined_<backend>_over_sync` from
        # the packets/s ratio against the synchronous backend twin.
        "radio_ccm_2kb_batch32_pipelined_thread_fast": _radio_ccm_dataplane(
            32, PIPELINE_STREAM_PACKETS, backend="thread", pipelined=True
        ),
        "radio_ccm_2kb_batch32_pipelined_process_fast": _radio_ccm_dataplane(
            32, PIPELINE_STREAM_PACKETS, backend="process", pipelined=True
        ),
        # Adaptive twins: FlushPolicy(mode="auto") starting from the
        # static width-32 knobs on the same 4-batch stream.  The rig
        # persists across iterations, so the controller converges in
        # the warm-up and the steady state is what gets measured; the
        # CI gate requires auto within 5% of the best static kernel.
        "radio_ccm_2kb_auto_thread_fast": _radio_ccm_dataplane(
            32, PIPELINE_STREAM_PACKETS, backend="thread", auto=True
        ),
        "radio_ccm_2kb_auto_process_fast": _radio_ccm_dataplane(
            32, PIPELINE_STREAM_PACKETS, backend="process", auto=True
        ),
        "sim_kernel_8k_events": _kernel_events,
    }


#: Stable kernel-name schema (what BENCH_*.json baselines key on).
#: Declared literally — deriving it from build_kernels() would run two
#: key expansions and a Shoup-table build at import time; a test pins
#: it to build_kernels()'s actual keys.
KERNEL_NAMES = (
    "aes_block_reference",
    "aes_block_fast",
    "gf128_mul_reference",
    "gf128_mul_fast",
    "ghash_2kb_reference",
    "ghash_2kb_fast",
    "aes_ctr_2kb_reference",
    "aes_ctr_2kb_fast",
    "gcm_2kb_reference",
    "gcm_2kb_fast",
    "ccm_2kb_reference",
    "ccm_2kb_fast",
    "gcm_2kb_cold_key_fast",
    "gcm_2kb_batch32_fast",
    "ccm_2kb_batch32_fast",
    "gcm_2kb_batch32_thread_fast",
    "ccm_2kb_batch32_thread_fast",
    "ccm_2kb_batch32_process_fast",
    "gcm_2kb_batch32_arena_fast",
    "ccm_2kb_batch32_arena_fast",
    "radio_ccm_2kb_fast",
    "radio_ccm_2kb_batch32_fast",
    "radio_ccm_2kb_batch32_thread_fast",
    "radio_ccm_2kb_batch32_arena_fast",
    "radio_ccm_2kb_batch32_pipelined_thread_fast",
    "radio_ccm_2kb_batch32_pipelined_process_fast",
    "radio_ccm_2kb_auto_thread_fast",
    "radio_ccm_2kb_auto_process_fast",
    "sim_kernel_8k_events",
)


def correctness_check(name: str) -> bool:
    """Cross-path verification for kernel *name*.

    Fast kernels are checked byte-for-byte against their reference
    twins; reference kernels and the sim kernel are checked against
    invariants (decrypt round-trip, final simulated time).  This is the
    signal the CI perf-smoke job *fails* on — ops/s only ever warns.
    """
    ref_cipher = AES(KEY, use_fast=False)
    fast_cipher = AES(KEY, use_fast=True)
    if name in ("aes_block_reference", "aes_block_fast"):
        ct = fast_cipher.encrypt_block(BLOCK)
        return ct == ref_cipher.encrypt_block(BLOCK) and (
            ref_cipher.decrypt_block(ct) == BLOCK
        )
    if name in ("gf128_mul_reference", "gf128_mul_fast"):
        return gf128_mul(GF_X, GF_Y) == gf128_mul_tabulated(GF_X, GF_Y)
    if name in ("ghash_2kb_reference", "ghash_2kb_fast"):
        ref = GHash(H, use_fast=False).update_blocks(PACKET).digest()
        return ref == GHash(H, use_fast=True).update_blocks(PACKET).digest()
    if name in ("aes_ctr_2kb_reference", "aes_ctr_2kb_fast"):
        ref = ctr_xcrypt(ref_cipher, ICB, PACKET, 16, False)
        return ref == ctr_xcrypt_bulk(KEY, ICB, PACKET, 16)
    if name in ("gcm_2kb_reference", "gcm_2kb_fast"):
        return gcm_encrypt(KEY, IV, PACKET, b"", 16, False) == gcm_encrypt(
            KEY, IV, PACKET, b"", 16, True
        )
    if name in ("ccm_2kb_reference", "ccm_2kb_fast"):
        return ccm_encrypt(KEY, NONCE, PACKET, b"", 8, False) == ccm_encrypt(
            KEY, NONCE, PACKET, b"", 8, True
        )
    if name == "gcm_2kb_cold_key_fast":
        key = deterministic_bytes(16, 999)
        clear_caches()
        (sealed,) = gcm_seal_many(key, GCM_BATCH[:1], 16)
        return sealed == gcm_encrypt(key, GCM_BATCH[0][0], PACKET, b"", 16, False)
    if name == "gcm_2kb_batch32_fast":
        # Whole batch against the sequential fast API, plus one packet
        # against the reference path (reference GCM is ~100x slower, so
        # the full-batch reference check lives in the equivalence suite).
        batch = gcm_seal_many(KEY, GCM_BATCH, 16)
        sequential = [gcm_seal(KEY, iv, data, b"", 16) for iv, data in GCM_BATCH]
        reference = gcm_encrypt(KEY, GCM_BATCH[0][0], PACKET, b"", 16, False)
        return batch == sequential and batch[0] == reference
    if name == "ccm_2kb_batch32_fast":
        batch = ccm_seal_many(KEY, CCM_BATCH, 8)
        sequential = [ccm_seal(KEY, nonce, data, b"", 8) for nonce, data in CCM_BATCH]
        reference = ccm_encrypt(KEY, CCM_BATCH[0][0], PACKET, b"", 8, False)
        return batch == sequential and batch[0] == reference
    backend_kernel = re.fullmatch(
        r"(gcm|ccm)_2kb_batch32_(thread|process|arena)_fast", name
    )
    if backend_kernel:
        # The sharded batch must merge byte-identical to the inline run
        # (the arena kernel additionally crosses the descriptor
        # dataplane: payloads come back out of the shared-memory slab).
        spec = {"arena": "process-arena"}.get(
            backend_kernel[2], backend_kernel[2]
        )
        backend = bench_backend(spec)
        if backend_kernel[1] == "gcm":
            inline = gcm_seal_many(KEY, GCM_BATCH, 16)
            return gcm_seal_many(KEY, GCM_BATCH, 16, backend=backend) == inline
        inline = ccm_seal_many(KEY, CCM_BATCH, 8)
        return ccm_seal_many(KEY, CCM_BATCH, 8, backend=backend) == inline
    if name in (
        "radio_ccm_2kb_fast",
        "radio_ccm_2kb_batch32_fast",
        "radio_ccm_2kb_batch32_thread_fast",
        "radio_ccm_2kb_batch32_arena_fast",
        "radio_ccm_2kb_batch32_pipelined_thread_fast",
        "radio_ccm_2kb_batch32_pipelined_process_fast",
        "radio_ccm_2kb_auto_thread_fast",
        "radio_ccm_2kb_auto_process_fast",
    ):
        # The full dataplane (jobs, flush policy, batch engine) must
        # reproduce the sequential one-call fast path byte-for-byte.
        # The pipelined variants run their own rig (async submit/reap,
        # 4-batch stream) and must additionally fan out in sequence
        # order per channel; the _auto_ variants run the adaptive
        # controller, whose knob moves must never change bytes.
        width = 1 if name == "radio_ccm_2kb_fast" else 32
        pipelined = "_pipelined_" in name
        auto = "_auto_" in name
        backend = None
        if name.endswith("_thread_fast"):
            backend = "thread"
        elif name.endswith("_arena_fast"):
            backend = "process-arena"
        elif name.endswith("_process_fast"):
            backend = "process"
        npackets = (
            PIPELINE_STREAM_PACKETS if (pipelined or auto) else BATCH_PACKETS
        )
        sim, comm, channel, packets = _radio_ccm_setup(
            width, npackets, backend, pipelined, auto
        )
        _radio_ccm_round(sim, comm, channel, packets)
        transfers = list(comm.completed.values())
        in_order = [t.job.sequence for t in transfers] == list(range(npackets))
        return in_order and len(transfers) == npackets and all(
            t.ok
            and (t.payload, t.tag)
            == ccm_seal(KEY, t.job.nonce, t.job.data, b"", 8)
            for t in transfers
        )
    if name == "sim_kernel_8k_events":
        return _kernel_events() == _KERNEL_EVENTS
    raise KeyError(f"unknown kernel {name!r}")


def measure(fn: Callable[[], object], target_seconds: float) -> Tuple[float, int]:
    """Run *fn* until *target_seconds* elapse; returns (ops_per_s, iters)."""
    fn()  # warm-up (table builds, key-schedule memos)
    iters = 0
    start = time.perf_counter()
    deadline = start + target_seconds
    while True:
        fn()
        iters += 1
        now = time.perf_counter()
        if now >= deadline:
            return iters / (now - start), iters
