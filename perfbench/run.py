"""Workload-level benchmark of the MCCP reproduction.

Runs one fixed traffic mix through the public entry points
(``SdrPlatform.run_workload`` / ``SessionManager.run``), repeats the
timed call for ``--seconds``, checks every output byte outside the timed
region, and prints each metric by name and unit.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` — the end-to-end metrics with ``--trace 0``, the per-layer
split of a traced run with ``--trace 1``.  Run from the repository root::

    python3 perfbench/run.py --workload bulk_tx --seed 1 --seconds 10 --trace 0

Exit status: 0 when every check passed, 1 on a correctness mismatch,
2 when the library cannot be imported (no result is printed then).
Full reports and Chrome trace-event files go to ``.perfbench_out/``.
See ``perfbench/README.md`` for the workloads and metrics.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

WORKLOADS = ("bulk_tx", "bulk_rx", "session_churn", "cores_table2")

#: Cold set-ups per run, each from process start: this process's own and
#: ``COLD_SETUPS - 1`` fresh processes.  ``setup_s`` is their median.
COLD_SETUPS = 5
#: Timed calls per run at least, whatever ``--seconds`` says (``--trace 1``
#: alternates untraced and traced calls and needs two of each).
MIN_REPEATS = 3
MIN_TRACED_REPEATS = 4
#: Hard cap on the timed loop, far inside the 180 s a run may take.
MAX_MEASURE_S = 100.0
CLOCK_HZ = 190e6
#: Calibration time of the reference host: ``setup_s`` is reported in
#: seconds of a host whose :func:`calibrate` takes exactly this long.
CAL_REFERENCE_S = 0.010


def gated_units() -> dict:
    """name -> unit of the end-to-end metrics ``BENCHMARK.json`` gates:
    what ``--trace 0`` prints as ``metrics``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec["end_to_end"]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None, help="default: DEFAULT_SEED")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=OUT_DIR)
    # Internal: set up once from process start, print the time, exit.
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _limit_threads() -> None:
    # At most two threads do work: the main thread and, on session_churn,
    # the one thread-backend worker.  Keep numpy's libraries single-threaded.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")


def calibrate() -> float:
    """Seconds this host currently takes for a fixed pure-Python loop.

    The unit ``cal`` of ``packets_per_cal`` and the scale of ``setup_s``.
    The vCPUs this benchmark was built on change speed by up to 40 % for
    tens of seconds at a time; timing the same loop right before and
    after each call and dividing it out leaves the program's own speed
    (best of three).
    """
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        acc, table = 0, {}
        for i in range(60_000):
            acc += i * i
            table[i & 255] = acc & 1023
        best = min(best, time.perf_counter() - started)
    return best


def tail(values):
    """(value, percentile, samples): the highest nearest-rank percentile
    with at least 10 samples beyond it.  Below 11 samples no percentile
    qualifies; the maximum is reported as the 100th."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def sim_metrics(report, workload_name: str) -> dict:
    """Simulated metrics of one repeat: pure functions of the seed."""
    from repro.analysis.latency import nearest_rank_percentile
    from workloads import PAPER_GCM_4X1_MBPS

    to_us = 1e6 / CLOCK_HZ
    latencies = report.latencies
    value, pct, n = tail(latencies)
    control_value, control_pct, control_n = tail(report.per_class_latencies.get(0, []))
    out = {
        "sim_mbps": report.throughput_mbps(CLOCK_HZ),
        "sim_latency_p50_us": nearest_rank_percentile(latencies, 0.5) * to_us,
        "sim_latency_tail_us": value * to_us,
        "sim_latency_tail_percentile": pct,
        "sim_latency_samples": n,
        "control_latency_tail_us": control_value * to_us,
        "control_latency_tail_percentile": control_pct,
        "control_latency_samples": control_n,
        "total_cycles": report.total_cycles,
    }
    if workload_name == "cores_table2":
        out["paper_error_pct"] = (
            100.0 * abs(out["sim_mbps"] - PAPER_GCM_4X1_MBPS) / PAPER_GCM_4X1_MBPS
        )
    return out


def environment(workload) -> dict:
    import platform

    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {
        "cpu_count": os.cpu_count(),
        "backend": workload.backend_name(),
        "backend_workers": workload.backend_workers(),
        "numpy": numpy_version,
        "python": platform.python_version(),
        "machine": platform.machine(),
        **{var: os.environ.get(var, "unset") for var in ("REPRO_FAST", "REPRO_BACKEND", "REPRO_ARENA")},
    }


def timed_repeat(workload, seed: int, traced: bool, out_path=None) -> dict:
    """Build a fresh repeat (untimed), time the call, summarise it."""
    from checks import transcript_digest
    from layers import cache_snapshot, layer_metrics, main_thread_sum_ns
    from tracing import ROOT as ROOT_SPAN
    from tracing import Tracer, find_wrappers, install, uninstall

    repeat = workload.fresh(seed)
    workload.before_call()
    gc.collect()
    sim = repeat.platform.sim
    events_before = sim._seq  # the kernel's count of every entry ever scheduled
    record = {"traced": traced}
    if traced:
        tracer = Tracer()
        caches_before = cache_snapshot()
        patches = install(tracer)
        tracer.enter(ROOT_SPAN)
        try:
            report = workload.call(repeat)
        finally:
            wall_ns = tracer.exit()
            uninstall(patches)
        wall = wall_ns / 1e9
        channels = (
            len(repeat.manager.channels) if repeat.manager else len(repeat.spec.configs)
        )
        record["layers"] = layer_metrics(
            tracer, report, wall, caches_before, cache_snapshot(),
            sim._seq - events_before, channels,
        )
        record["sum_ok"] = main_thread_sum_ns(tracer) == wall_ns
        record["partition"] = {
            "main": {k: v / 1e9 for k, v in tracer.main().self_ns.items()},
            "workers": {
                k: v / 1e9 for state in tracer.workers() for k, v in state.self_ns.items()
            },
        }
        if out_path is not None:
            tracer.write_chrome_trace(out_path)
    else:
        record["wrappers"] = find_wrappers()
        cal_before = calibrate()
        started = time.perf_counter()
        report = workload.call(repeat)
        wall = time.perf_counter() - started
        record["cal"] = (cal_before + calibrate()) / 2
    repeat.report = report
    record.update(
        wall=wall,
        events=sim._seq - events_before,
        digest=transcript_digest(repeat.platform.comm.completed),
        shed=sorted(report.shed_packets),
        sim=sim_metrics(report, workload.name),
        repeat=repeat,
    )
    return record


def cold_setup(workload, seed: int) -> dict:
    """This process's set-up, timed from its start: imports, backend
    construction and warm-up, with the host's ``cal`` right after."""
    workload.setup(seed)
    return {"wall": time.perf_counter() - _T0, "cal": calibrate()}


def cold_setup_in_child(workload, seed: int) -> dict:
    """:func:`cold_setup` in a fresh interpreter, which exits after it."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload.name,
        "--seed", str(seed), "--setup-only",
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True
    )
    return json.loads(done.stdout.splitlines()[-1])


def measure(workload, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    from checks import TranscriptCheck

    setups = [cold_setup(workload, seed)]
    setups += [cold_setup_in_child(workload, seed) for _ in range(COLD_SETUPS - 1)]
    setup_done = time.perf_counter()

    runs = []
    minimum = MIN_TRACED_REPEATS if trace else MIN_REPEATS
    # One Chrome trace per workload, overwritten by each traced run (up
    # to ~20 MB each), so repeated runs do not pile up trace files.
    chrome = out_dir / f"{workload.name}.trace.json"
    while True:
        traced = trace and len(runs) % 2 == 1
        first_traced = traced and not any(r["traced"] for r in runs)
        record = timed_repeat(workload, seed, traced, chrome if first_traced else None)
        if runs:
            record.pop("repeat")  # only the first repeat's objects are checked
        runs.append(record)
        measured = sum(r["wall"] for r in runs)
        if len(runs) >= minimum and measured >= seconds:
            break
        if time.perf_counter() - setup_done > MAX_MEASURE_S:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    first = runs[0]["repeat"]
    entries = workload.entries(first)
    check = TranscriptCheck(entries)
    offered = workload.offered(first)
    shed = len(runs[0]["shed"])
    missing = abs(offered - shed - len(entries))
    key = ("digest", "shed", "sim", "events")
    diverged = sum(
        any(r[k] != runs[0][k] for k in key) for r in runs[1:]
    )
    wrapped = sorted({w for r in runs for w in r.get("wrappers", ())})
    sums_ok = all(r.get("sum_ok", True) for r in runs)
    failed = (check.failed + missing) * len(runs) + diverged * offered
    return {
        "setups": setups,
        "runs": runs,
        "peak_rss_mb": peak_rss_mb,
        "check": check,
        "offered": offered,
        "shed": shed,
        "missing": missing,
        "diverged": diverged,
        "wrapped": wrapped,
        "sums_ok": sums_ok,
        "attempted": offered * len(runs),
        "failed": failed,
        "correct": failed == 0 and not wrapped and sums_ok,
    }


def end_to_end(result: dict, import_s: float) -> dict:
    """Every end-to-end figure of the run (the JSON subset and the rest)."""
    check = result["check"]
    offered = result["offered"]
    untraced = [r for r in result["runs"] if not r["traced"]]
    sim = result["runs"][0]["sim"]
    setups = result["setups"]
    wall_mean = statistics.mean(r["wall"] for r in untraced)
    cal_mean = statistics.mean(r["cal"] for r in untraced)
    out = {
        # Totals over the run's calls, not a per-call median: the host's
        # speed swings within a call, where the cal around it cannot see,
        # and the mean evens that out better (see README.md).
        "packets_per_cal": check.correct * cal_mean / wall_mean,
        "packets_per_s": check.correct / wall_mean,
        "cal_s": cal_mean,
        "delivered_fraction": check.correct / offered,
        "failed_fraction": 1.0 - check.correct / offered,
        "setup_s": statistics.median(s["wall"] * CAL_REFERENCE_S / s["cal"] for s in setups),
        "setup_host_s": statistics.median(s["wall"] for s in setups),
        "import_s": import_s,
        "peak_rss_mb": result["peak_rss_mb"],
        "timed_calls": len(untraced),
        "wall_mean_s": wall_mean,
        **sim,
    }
    return out


def per_layer(result: dict) -> tuple:
    """(full table in seconds, the visible per-layer metrics) of a traced run."""
    from layers import host_per_event, visible

    runs = result["runs"]
    traced = [r for r in runs if r["traced"]]
    untraced = [r for r in runs if not r["traced"]]
    names = traced[0]["layers"]
    full = {
        name: (statistics.median(r["layers"][name][0] for r in traced), unit)
        for name, (_, unit) in names.items()
    }
    traced_wall = statistics.median(r["wall"] for r in traced)
    untraced_wall = statistics.median(r["wall"] for r in untraced)
    shown = visible(full, full["trace.wall_s"][0])
    shown["trace.overhead_pct"] = (100.0 * (traced_wall / untraced_wall - 1.0), "%")
    events = runs[0]["events"]
    shown["sim.kernel.host_us_per_event"] = (host_per_event(untraced_wall, events), "us")
    full["trace.overhead_pct"] = shown["trace.overhead_pct"]
    full["sim.kernel.host_us_per_event"] = shown["sim.kernel.host_us_per_event"]
    full["trace.untraced_wall_s"] = (untraced_wall, "s")
    return full, shown


def main(argv=None) -> int:
    args = parse_args(argv)
    _limit_threads()
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    try:
        import repro
        import workloads as workload_defs
    except ImportError as exc:
        print(f"perfbench: cannot import the library from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if Path(repro.__file__).resolve().parent.parent != ROOT / "src":
        print(f"perfbench: repro was imported from {repro.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _T0
    seed = workload_defs.DEFAULT_SEED if args.seed is None else args.seed
    workload = workload_defs.build_workloads()[args.workload]
    if args.setup_only:
        try:
            print(json.dumps(cold_setup(workload, seed)))
        finally:
            workload.close()
        return 0
    args.out.mkdir(parents=True, exist_ok=True)
    try:
        result = measure(workload, seed, args.seconds, bool(args.trace), args.out)
        env = environment(workload)
    finally:
        workload.close()
    e2e = end_to_end(result, import_s)
    units = gated_units()
    check = result["check"]
    print(f"# perfbench workload={workload.name} seed={seed} trace={args.trace}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# why: {workload.why}")
    print(
        f"# checks: offered={result['offered']} entries={check.entries} "
        f"correct={check.correct} rejected_forgeries={check.rejected} shed={result['shed']} "
        f"missing={result['missing']} failures={dict(check.failures)} "
        f"diverged_repeats={result['diverged']} wrappers_in_measured_run={result['wrapped']}"
    )
    extra_units = {
        "packets_per_s": "packets/s",
        "cal_s": "s",
        "setup_host_s": "s",
        "failed_fraction": "ratio",
        "control_latency_tail_us": "sim_us",
        "paper_error_pct": "%",
        "import_s": "s",
        "wall_mean_s": "s",
    }
    for name, value in e2e.items():
        print(f"# {name} = {value:.6g} {units.get(name) or extra_units.get(name, '')}".rstrip())
    report = {
        "workload": workload.name,
        "seed": seed,
        "trace": args.trace,
        "env": env,
        "end_to_end": e2e,
        "cold_setups": result["setups"],
        "walls_s": [r["wall"] for r in result["runs"]],
        "cals_s": [r.get("cal") for r in result["runs"]],
        "traced": [r["traced"] for r in result["runs"]],
        "digest": result["runs"][0]["digest"],
        "checks": {
            "offered": result["offered"],
            "correct": check.correct,
            "failures": dict(check.failures),
            "diverged_repeats": result["diverged"],
            "layer_sums_exact": result["sums_ok"],
        },
    }
    if args.trace:
        full, shown = per_layer(result)
        for name, (value, unit) in full.items():
            print(f"# layer {name} = {value:.6g} {unit}")
        unattributed = 100.0 * full["trace.unattributed_s"][0] / full["trace.wall_s"][0]
        print(
            f"# trace overhead {shown['trace.overhead_pct'][0]:.1f}% "
            f"unattributed {unattributed:.1f}% of the traced wall; "
            f"main-thread self times + unattributed == traced wall: {result['sums_ok']}"
        )
        partition = next(r["partition"] for r in result["runs"] if r["traced"])
        for thread, spans in partition.items():
            for name, seconds in sorted(spans.items(), key=lambda kv: -kv[1]):
                print(f"# self {thread} {name} = {seconds:.6g} s")
        report["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in full.items()}
        report["self_time_partition_s"] = partition
        metrics = shown
    else:
        metrics = {name: (e2e[name], unit) for name, unit in units.items()}
    out_file = args.out / f"{workload.name}-seed{seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(report, indent=1, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
