"""Per-layer metrics of one traced repeat.

:func:`layer_metrics` turns a :class:`tracing.Tracer`, the repeat's
``WorkloadReport`` and the memo-cache deltas into the full layer table
(times in seconds, counts exact).  :func:`visible` converts it into the
form ``BENCHMARK.json`` lists under ``per_layer``: every time becomes its
share of the traced wall in percent, so a layer a workload bypasses
reads 0 % rather than a constant time, and shares stay comparable across
machines.
"""

from __future__ import annotations

from typing import Dict, Tuple

from tracing import ROOT, Tracer

Metrics = Dict[str, Tuple[float, str]]

#: The width every batched workload's flush policy starts from; the
#: ``batch_fill`` metric is the realised mean width over it.
COALESCE_LIMIT = 32

_BATCH_APIS = [f"{m}_{op}_many" for m in ("ccm", "gcm") for op in ("seal", "open")]


def cache_snapshot() -> Dict[str, Tuple[int, int]]:
    """(hits, misses) of the three per-key memo caches."""
    from repro.crypto.fast import aes_ttable, gf128_tables, ghash_hpower

    caches = {
        "crypto.fast.aes_ttable.expand_key_cached": aes_ttable.expand_key_cached,
        "crypto.fast.ghash_hpower.hpower_tables_vec": ghash_hpower.hpower_tables_vec,
        "crypto.fast.gf128_tables.ghash_tables": gf128_tables.ghash_tables,
    }
    return {name: fn.cache_info()[:2] for name, fn in caches.items()}


def layer_metrics(
    tracer: Tracer,
    report,
    wall_s: float,
    caches_before: Dict[str, Tuple[int, int]],
    caches_after: Dict[str, Tuple[int, int]],
    events: int,
    channels_opened: int,
) -> Metrics:
    """The full per-layer table of one traced repeat."""
    own = tracer.self_seconds
    calls = tracer.calls
    out: Metrics = {}

    def put(name: str, value: float, unit: str = "count") -> None:
        out[name] = (float(value), unit)

    put("radio.traffic.generate_s", own("radio.traffic.generate"), "s")
    put("radio.traffic.packets", tracer.counted("radio.traffic.packets"))

    entry = tracer.first_start("radio.sdr_platform.run_workload")
    first_run = tracer.first_start("sim.kernel.run")
    prepare = (first_run - entry) / 1e9 if entry is not None and first_run else 0.0
    put("radio.sdr_platform.prepare_s", prepare, "s")
    put("radio.sdr_platform.peer_seal_s", tracer.inclusive_seconds("crypto.fast.bulk.seal"), "s")

    put("radio.sessions.rekeys", calls("mccp.key_scheduler.invalidate"))
    put("radio.sessions.handoffs", report.handoffs)
    put("radio.sessions.channels_opened", channels_opened)

    put("radio.admission.decide_calls", calls("radio.admission.decide"))
    put("radio.admission.decide_s", own("radio.admission.decide"), "s")
    put("radio.admission.deferrals", report.deferrals)
    for cause in ("watermark", "pressure", "defer_budget"):
        put(f"radio.admission.shed.{cause}", report.shed_causes.get(cause, 0))

    put("radio.comm_controller.submit_job_calls", calls("radio.comm_controller.submit_job"))
    put("radio.comm_controller.submit_job_s", own("radio.comm_controller.submit_job"), "s")
    put("radio.comm_controller.flush_now_calls", calls("radio.comm_controller.flush_now"))
    put("radio.formatting.build_job_calls", calls("radio.formatting.build_job"))
    put("radio.formatting.build_job_s", own("radio.formatting.build_job"), "s")

    width = report.mean_batch_width()
    put("mccp.channel.enqueue_calls", calls("mccp.channel.enqueue"))
    put("mccp.channel.enqueue_s", own("mccp.channel.enqueue"), "s")
    put("mccp.channel.batches", report.batches)
    put("mccp.channel.batch_width_mean", width, "packets")
    put("mccp.channel.batch_fill", width / COALESCE_LIMIT, "ratio")
    put("mccp.channel.queue_peak", report.queue_peak(), "packets")
    for cause in ("size", "deadline", "forced"):
        put(f"mccp.channel.flush.{cause}", report.flush_causes.get(cause, 0))
    put("mccp.channel.backpressure_signals", report.backpressure_signals)
    put("mccp.autotune.adjustments", report.autotune_adjustments)

    put("mccp.mccp.dispatch_calls", calls("mccp.mccp.dispatch_submit"))
    put("mccp.mccp.dispatch_submit_s", own("mccp.mccp.dispatch_submit"), "s")
    put("mccp.mccp.collect_s", own("mccp.mccp.collect"), "s")

    put("crypto.fast.exec.submit_calls", calls("crypto.fast.exec.submit"))
    put("crypto.fast.exec.submit_s", own("crypto.fast.exec.submit"), "s")
    put("crypto.fast.exec.result_wait_s", own("crypto.fast.exec.result_wait"), "s")
    put("crypto.fast.exec.retries", report.retries)
    put("crypto.fast.exec.degradations", report.degradations)
    put("crypto.fast.exec.watchdog_fires", report.watchdog_fires)

    for api in _BATCH_APIS:
        name = f"crypto.fast.batch.{api}"
        put(f"{name}.calls", calls(name))
        put(f"{name}.packets", tracer.counted(f"{name}.packets"))
        put(f"{name}.s", own(name), "s")
    put("crypto.fast.batch.cbc_mac_many.calls", calls("crypto.fast.batch.cbc_mac_many"))
    put("crypto.fast.batch.cbc_mac_many.s", own("crypto.fast.batch.cbc_mac_many"), "s")
    put("crypto.fast.batch.auth_failures", report.auth_failures)

    vector = "crypto.fast.aes_vector.encrypt_state_vector"
    lanes = tracer.counted(f"{vector}.lanes")
    put(f"{vector}.calls", calls(vector))
    put(f"{vector}.lanes", lanes)
    put(f"{vector}.s", own(vector), "s")
    put("crypto.fast.aes_vector.lanes_per_call", lanes / max(1, calls(vector)), "lanes")
    keystream = "crypto.fast.aes_vector.ctr_keystream_vector"
    put(f"{keystream}.calls", calls(keystream))
    put(f"{keystream}.blocks", tracer.counted(f"{keystream}.blocks"))
    put(f"{keystream}.s", own(keystream), "s")

    put("crypto.fast.aes_ttable.encrypt_words_tt.calls", calls("crypto.fast.aes_ttable.encrypt_words_tt"))
    put("crypto.fast.aes_ttable.encrypt_words_tt.s", own("crypto.fast.aes_ttable.encrypt_words_tt"), "s")
    ghash = "crypto.fast.ghash_hpower.ghash_blocks_hpower"
    put(f"{ghash}.calls", calls(ghash))
    put(f"{ghash}.blocks", tracer.counted(f"{ghash}.blocks"))
    put(f"{ghash}.s", own(ghash), "s")
    for name, (hits, misses) in caches_after.items():
        put(f"{name}.hits", hits - caches_before[name][0])
        put(f"{name}.misses", misses - caches_before[name][1])
    put(
        "crypto.fast.ghash_hpower.hpower_tables_vec.build_s",
        own("crypto.fast.ghash_hpower.hpower_tables_vec"),
        "s",
    )

    put("sim.kernel.events", events)
    put("sim.kernel.run_s", tracer.inclusive_seconds("sim.kernel.run"), "s")
    put("sim.kernel.self_s", own("sim.kernel.run"), "s")
    put("sim.kernel.process_s", own("sim.kernel.process"), "s")

    put("mccp.task_scheduler.submits", calls("mccp.task_scheduler.submit"))
    put("mccp.task_scheduler.core_retries", report.backpressure_retries)
    put("mccp.task_scheduler.cores_s", own("core.fw"), "s")

    worker_s = sum(sum(s.self_ns.values()) for s in tracer.workers()) / 1e9
    put("trace.wall_s", wall_s, "s")
    put("trace.unattributed_s", own(ROOT), "s")
    put("trace.worker_s", worker_s, "s")
    put("trace.spans", len(tracer.spans) + tracer.dropped)
    return out


def main_thread_sum_ns(tracer: Tracer) -> int:
    """Main-thread self times (``unattributed`` included), in ns."""
    return sum(tracer.main().self_ns.values())


def visible(metrics: Metrics, wall_s: float) -> Metrics:
    """Times as a share of the traced wall (``%``); counts unchanged."""
    out: Metrics = {}
    for name, (value, unit) in metrics.items():
        if name == "trace.wall_s":
            continue
        if unit == "s":
            stem = name[: -len(".s")] + ".pct" if name.endswith(".s") else name[:-2] + "_pct"
            out[stem] = (100.0 * value / wall_s, "%")
        else:
            out[name] = (value, unit)
    return out


def host_per_event(untraced_wall_s: float, events: int) -> float:
    """Host microseconds per simulator event over a whole timed call."""
    return 1e6 * untraced_wall_s / max(1, events)
