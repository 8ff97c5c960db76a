#!/usr/bin/env python
"""CI gate: pooled backends must beat inline on multi-core runners.

Runs the ``backend_sweep`` scenario's exact measurement
(:func:`repro.experiments.scenarios.backends.measure_backends` — the
mixed seal+open 2 KB CCM batch on the inline, thread and process
backends, the process leg on both the shared-memory arena and the
legacy pickling dataplane) and enforces the acceptance ratios::

    PYTHONPATH=src python benchmarks/gate_backends.py \\
        --min-thread-speedup 1.3 --min-arena-over-pickle 1.5 --width 32

Two perf gates, each scoped to hosts that can actually express it:

- **thread over inline** (>= 2 CPUs): thread/inline must reach
  ``--min-thread-speedup``; a 1-CPU runner cannot overlap numpy sweeps
  so it reports and passes.
- **process over thread, arena over pickling** (>= 4 CPUs, hard-fail):
  the zero-copy arena is what makes the process backend *win* — it
  must beat the thread backend at the gate width and beat its own old
  pickling path by ``--min-arena-over-pickle``.  Below 4 CPUs the
  process workers cannot outnumber the GIL-sharing threads
  meaningfully, so the gate reports and skips.
- **adaptive controller** (``FlushPolicy(mode="auto")``): auto must
  reach 95% of the best static kernel's packets/s (warn below — the
  ISSUE's "within 5%" bar), and on >= 4-CPU runners it hard-fails
  under ``--min-auto-over-default`` (default 0.9) of the same-backend
  static default — the 10% margin absorbs wall-clock jitter on shared
  runners; the byte-identity half of the check fails hard anywhere.

Byte equality across every backend leg, the pipelined-dataplane
identity (pipeline depth 2 against depth 0, the batched drain), and the worker-crash chaos leg (survivor transcripts
byte-identical, arena slab reclaimed) are checked unconditionally and
fail hard anywhere — correctness has no CPU-count excuse.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

if __package__ is None and __name__ == "__main__":  # script invocation
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.experiments.kernels import (
    measure_autotune,
    measure_chaos_identity,
    measure_pipelined,
)
from repro.experiments.scenarios.backends import measure_backends


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--min-thread-speedup", type=float, default=1.3,
        help="required thread-over-inline packets/s ratio (>= 2 CPUs only)",
    )
    parser.add_argument(
        "--min-arena-over-pickle", type=float, default=1.5,
        help="required arena-over-pickling packets/s ratio (>= 4 CPUs only)",
    )
    parser.add_argument(
        "--min-auto-over-default", type=float, default=0.9,
        help="required auto-over-static packets/s ratio per backend "
        "(>= 4 CPUs only; the margin under 1.0 absorbs wall-clock "
        "jitter on shared runners)",
    )
    parser.add_argument(
        "--width", type=int, default=32, help="packets per coalesced batch"
    )
    parser.add_argument(
        "--seconds", type=float, default=0.5,
        help="measurement window per backend",
    )
    args = parser.parse_args(argv)

    measured = measure_backends(args.width, args.seconds)
    cpu_count = measured["cpu_count"]
    print(f"cpu_count={cpu_count} width={args.width} window={args.seconds}s")
    for name, rate in measured["rates"].items():
        print(
            f"{name:14s} {rate:10.1f} packets/s "
            f"({measured['workers'][name]} worker(s))"
        )
    if measured["process_degraded"]:
        print(f"note: process backend degraded: {measured['process_degraded']}")
    if measured["arena_degraded"]:
        print(f"note: arena degraded: {measured['arena_degraded']}")
    print(f"arena_active={measured['arena_active']}")

    failures = []

    if not measured["correct"]:
        failures.append("backends disagree byte-for-byte")

    rates = measured["rates"]
    thread_speedup = rates["thread"] / rates["inline"]
    process_speedup = rates["process"] / rates["inline"]
    process_over_thread = rates["process"] / rates["thread"]
    arena_over_pickle = rates["process"] / rates["process_pickle"]
    print(f"thread  speedup over inline: {thread_speedup:.2f}x")
    print(f"process speedup over inline: {process_speedup:.2f}x")
    print(f"process over thread:         {process_over_thread:.2f}x")
    print(f"arena over pickling path:    {arena_over_pickle:.2f}x")

    # Pipelined dataplane check: byte/order/stamp identity of pipeline
    # depth 2 against depth 0 ("synchronous": each dispatch collected
    # as it is submitted) fails hard anywhere; the packets/s ratio is
    # warn-only (and only meaningful on >= 2 CPUs, where sim-time
    # coalescing can genuinely overlap worker crypto).
    piped = measure_pipelined(args.width, args.seconds)
    pipe_rates = piped["rates"]
    for name, rate in pipe_rates.items():
        print(f"{name:12s} {rate:10.1f} packets/s (thread dataplane)")
    if not piped["identical"]:
        failures.append("pipelined dataplane diverges from synchronous")
    pipelined_speedup = pipe_rates["pipelined"] / pipe_rates["synchronous"]
    print(
        f"pipelined speedup over synchronous: {pipelined_speedup:.2f}x "
        "(warn-only)"
    )
    if cpu_count >= 2 and pipelined_speedup < 1.0:
        print(
            "warn: pipelined dataplane slower than synchronous on a "
            "multi-core host (expected overlap did not materialise)"
        )

    # Adaptive-controller leg: FlushPolicy(mode="auto") vs the static
    # width on the same stream.  Byte identity fails hard anywhere;
    # auto within 5% of the best static leg warns below; on >= 4 CPUs
    # auto must hold --min-auto-over-default of the same-backend
    # static rate or the gate fails.
    tuned = measure_autotune(args.width, args.seconds)
    for name, rate in tuned["rates"].items():
        print(f"{name:14s} {rate:10.1f} packets/s (auto leg)")
    if not tuned["identical"]:
        failures.append("adaptive flush controller changed payload bytes")
    best_static = max(
        tuned["rates"]["static_thread"], tuned["rates"]["static_process"]
    )
    best_auto = max(
        tuned["rates"]["auto_thread"], tuned["rates"]["auto_process"]
    )
    print(
        f"auto over best static: {best_auto / best_static:.2f}x "
        f"(adjustments traced: {sum(1 for d in tuned['trace'] if d['cause'].startswith(('widen', 'deadline')))})"
    )
    if best_auto < 0.95 * best_static:
        print(
            f"warn: auto {best_auto:.1f} packets/s under 95% of the best "
            f"static kernel ({best_static:.1f})"
        )

    # Chaos leg: one worker_crash while an arena slab is in flight, on
    # both dataplanes.  Survivors byte-identical and slab reclaimed, or
    # the gate fails — anywhere, any CPU count.
    chaos = measure_chaos_identity(args.width)
    for dataplane, verdict in chaos.items():
        print(
            f"chaos {dataplane:10s} identical={verdict['identical']} "
            f"slab_reclaimed={verdict['slab_reclaimed']}"
        )
        if not verdict["identical"]:
            failures.append(
                f"worker_crash on the {dataplane} dataplane changed bytes"
            )
        if not verdict["slab_reclaimed"]:
            failures.append(
                f"worker_crash on the {dataplane} dataplane leaked an "
                "arena generation"
            )

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1

    if cpu_count < 2:
        print(
            f"thread gate skipped: {cpu_count} CPU(s) cannot overlap sweeps "
            f"(threshold {args.min_thread_speedup:.2f}x applies on >= 2)"
        )
    elif thread_speedup < args.min_thread_speedup:
        print(
            f"FAIL: thread speedup {thread_speedup:.2f}x < "
            f"{args.min_thread_speedup:.2f}x"
        )
        return 1

    if cpu_count < 4:
        print(
            f"process gate skipped: {cpu_count} CPU(s) (hard-fail floor "
            "applies on >= 4: process >= thread and arena >= "
            f"{args.min_arena_over_pickle:.2f}x pickling)"
        )
    else:
        if process_over_thread < 1.0:
            print(
                f"FAIL: process backend {process_over_thread:.2f}x thread "
                f"at width {args.width} on {cpu_count} CPUs"
            )
            return 1
        if arena_over_pickle < args.min_arena_over_pickle:
            print(
                f"FAIL: arena {arena_over_pickle:.2f}x pickling path < "
                f"{args.min_arena_over_pickle:.2f}x"
            )
            return 1
        for leg in ("thread", "process"):
            ratio = tuned["rates"][f"auto_{leg}"] / tuned["rates"][f"static_{leg}"]
            print(f"auto over static ({leg}): {ratio:.2f}x")
            if ratio < args.min_auto_over_default:
                print(
                    f"FAIL: auto {ratio:.2f}x static on the {leg} backend < "
                    f"{args.min_auto_over_default:.2f}x on {cpu_count} CPUs"
                )
                return 1

    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
