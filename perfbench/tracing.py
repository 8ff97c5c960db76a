"""Span tracer for the benchmark's traced run.

The traced run wraps public functions of every layer from *outside* the
library: :func:`install` swaps each target for a timing wrapper in every
``repro`` module namespace (and in module-level dispatch tables such as
``batch._SEAL_MANY``) or on its class, and :func:`uninstall` puts the
originals back.  Nothing under ``src/`` is edited, and the untraced,
measured run executes with no wrapper in place — :func:`find_wrappers`
proves it before every measured call.

Each wrapped call records a span ``(name, start_ns, end_ns, parent_id,
thread_id)``.  Self time is a span's duration minus the time its direct
child spans cover, accumulated online per thread with a per-thread span
stack, so it is exact however many spans the in-memory buffer keeps.
The caller opens a root span named :data:`ROOT` around the traced call;
the root's self time is the ``unattributed`` remainder, so the main
thread's self times sum to the traced wall *exactly* (integer
nanoseconds).  Spans recorded on other threads (the ``thread:1``
backend's worker) are reported separately.

Spans are kept in memory up to :data:`SPAN_CAP` and exported after the
run as Chrome trace-event JSON (stdlib ``json`` only), which Perfetto
and ``chrome://tracing`` open directly.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Tuple

#: Name of the root span; its self time is the unattributed remainder.
ROOT = "unattributed"

#: Spans kept in memory for the Chrome export.  Self-time accounting is
#: exact beyond the cap; only the exported timeline is truncated (the
#: export records how many spans were dropped).
SPAN_CAP = 150_000

#: Attribute every wrapper carries, pointing at the wrapped original.
MARKER = "__perfbench_wrapped__"


class _ThreadState:
    """One thread's span stack and accumulators."""

    __slots__ = ("ident", "stack", "self_ns", "incl_ns", "first_start", "calls", "counts")

    def __init__(self, ident: int):
        self.ident = ident
        #: Open frames: [name, start_ns, child_ns, span_id].
        self.stack: List[list] = []
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.incl_ns: Dict[str, int] = defaultdict(int)
        self.first_start: Dict[str, int] = {}
        self.calls: Counter = Counter()
        #: Extra per-name counters (packets, lanes, blocks, ...).
        self.counts: Counter = Counter()


class Tracer:
    """Collects spans and per-thread self times for one traced call."""

    def __init__(self):
        self.main_ident = threading.get_ident()
        self.spans: List[Tuple[str, int, int, Optional[int], int, int]] = []
        self.dropped = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: Dict[int, _ThreadState] = {}

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.get_ident())
            self._local.state = state
            with self._lock:
                self._threads[state.ident] = state
        return state

    def enter(self, name: str) -> None:
        state = self._state()
        start = perf_counter_ns()
        state.first_start.setdefault(name, start)
        state.stack.append([name, start, 0, next(self._ids)])

    def exit(self) -> int:
        """Close the innermost span; returns its duration in ns."""
        end = perf_counter_ns()
        state = self._state()
        name, start, child_ns, span_id = state.stack.pop()
        duration = end - start
        state.self_ns[name] += duration - child_ns
        state.incl_ns[name] += duration
        state.calls[name] += 1
        parent = None
        if state.stack:
            frame = state.stack[-1]
            frame[2] += duration
            parent = frame[3]
        if len(self.spans) < SPAN_CAP:
            self.spans.append((name, start, end, parent, state.ident, span_id))
        else:
            self.dropped += 1
        return duration

    def count(self, key: str, amount: int = 1) -> None:
        self._state().counts[key] += amount

    # -- results -----------------------------------------------------------

    def main(self) -> _ThreadState:
        return self._threads.get(self.main_ident) or _ThreadState(self.main_ident)

    def workers(self) -> List[_ThreadState]:
        return [s for i, s in self._threads.items() if i != self.main_ident]

    def self_seconds(self, name: str) -> float:
        """Self time of *name* in seconds, summed over every thread."""
        return sum(s.self_ns.get(name, 0) for s in self._threads.values()) / 1e9

    def inclusive_seconds(self, name: str) -> float:
        return sum(s.incl_ns.get(name, 0) for s in self._threads.values()) / 1e9

    def first_start(self, name: str) -> Optional[int]:
        """Earliest main-thread start of *name* in ns (None if never entered)."""
        return self.main().first_start.get(name)

    def calls(self, name: str) -> int:
        return sum(s.calls.get(name, 0) for s in self._threads.values())

    def counted(self, key: str) -> int:
        return sum(s.counts.get(key, 0) for s in self._threads.values())

    def chrome_trace(self) -> dict:
        """The spans as a Chrome trace-event document (Perfetto-readable)."""
        tids = {self.main_ident: 0}
        for ident in self._threads:
            tids.setdefault(ident, len(tids))
        origin = min((s[1] for s in self.spans), default=0)
        events = [
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": tid,
                "args": {"name": "main" if tid == 0 else f"worker-{tid}"},
            }
            for tid in tids.values()
        ]
        for name, start, end, parent, ident, span_id in self.spans:
            events.append(
                {
                    "name": name,
                    "cat": name.rsplit(".", 1)[0],
                    "ph": "X",
                    "pid": 1,
                    "tid": tids[ident],
                    "ts": (start - origin) / 1000.0,
                    "dur": (end - start) / 1000.0,
                    "args": {"id": span_id, "parent": parent},
                }
            )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"dropped_spans": self.dropped},
        }

    def write_chrome_trace(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle)


# -- wrappers ----------------------------------------------------------------


def _wrap(tracer: Tracer, name, fn: Callable, counter=None) -> Callable:
    """A timing wrapper around *fn*; *name* may be a ``callable(args)``."""
    enter, exit_ = tracer.enter, tracer.exit

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        enter(name(args) if callable(name) else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            exit_()
        if counter is not None:
            counter(tracer, args, kwargs, result)
        return result

    setattr(wrapper, MARKER, fn)
    for attr in ("cache_info", "cache_clear"):  # lru_cache-wrapped targets
        if hasattr(fn, attr):
            setattr(wrapper, attr, getattr(fn, attr))
    return wrapper


def _arg(args, kwargs, index: int, keyword: str):
    return args[index] if len(args) > index else kwargs.get(keyword)


def _count_packets(prefix):
    def counter(tracer, args, kwargs, result):
        tracer.count(prefix + ".packets", len(_arg(args, kwargs, 1, "packets")))

    return counter


def _count_generated(tracer, args, kwargs, result):
    tracer.count("radio.traffic.packets", len(result))


def _count_lanes(tracer, args, kwargs, result):
    tracer.count("crypto.fast.aes_vector.encrypt_state_vector.lanes", args[0].shape[1])


def _count_keystream(tracer, args, kwargs, result):
    if result is not None:
        tracer.count(
            "crypto.fast.aes_vector.ctr_keystream_vector.blocks",
            _arg(args, kwargs, 2, "nblocks"),
        )


def _count_ghash(tracer, args, kwargs, result):
    tracer.count(
        "crypto.fast.ghash_hpower.ghash_blocks_hpower.blocks",
        len(_arg(args, kwargs, 2, "data")) // 16,
    )


def _process_name(args) -> str:
    # Simulated-core firmware runs as one "<core>.fw" process per task.
    return "core.fw" if args[0].name.endswith(".fw") else "sim.kernel.process"


def targets():
    """``(span name, owner, attribute, counter)`` for every wrapped function.

    ``owner`` is a class (the attribute is patched on it) or a module
    (the function is replaced wherever a ``repro`` module refers to it).
    """
    from repro.crypto.fast import aes_ttable, aes_vector, batch, bulk, ghash_hpower
    from repro.crypto.fast.exec import BatchHandle, ExecutionBackend
    from repro.mccp.channel import Channel
    from repro.mccp.key_scheduler import KeyScheduler
    from repro.mccp.mccp import DispatchHandle, Mccp
    from repro.mccp.task_scheduler import TaskScheduler
    from repro.radio import formatting
    from repro.radio.admission import AdmissionController
    from repro.radio.comm_controller import CommController
    from repro.radio.sdr_platform import SdrPlatform
    from repro.radio.sessions import SessionManager
    from repro.radio.traffic import TrafficGenerator
    from repro.sim.kernel import Process, Simulator

    out = [
        ("radio.sdr_platform.run_workload", SdrPlatform, "run_workload", None),
        ("radio.sessions.run", SessionManager, "run", None),
        ("radio.traffic.generate", TrafficGenerator, "generate", _count_generated),
        ("radio.admission.decide", AdmissionController, "decide", None),
        ("radio.comm_controller.submit_job", CommController, "submit_job", None),
        ("radio.comm_controller.flush_now", CommController, "flush_now", None),
        ("radio.formatting.build_job", formatting, "build_job", None),
        ("mccp.key_scheduler.invalidate", KeyScheduler, "invalidate", None),
        ("mccp.channel.enqueue", Channel, "enqueue", None),
        ("mccp.mccp.dispatch_submit", Mccp, "dispatch_jobs_async", None),
        ("mccp.mccp.collect", DispatchHandle, "result", None),
        ("mccp.task_scheduler.submit", TaskScheduler, "submit", None),
        ("crypto.fast.exec.submit", ExecutionBackend, "submit", None),
        ("crypto.fast.exec.result_wait", BatchHandle, "result", None),
        ("crypto.fast.bulk.seal", bulk, "gcm_seal", None),
        ("crypto.fast.bulk.seal", bulk, "ccm_seal", None),
        ("crypto.fast.batch.cbc_mac_many", batch, "cbc_mac_many", None),
        ("crypto.fast.aes_vector.encrypt_state_vector", aes_vector,
         "encrypt_state_vector", _count_lanes),
        ("crypto.fast.aes_vector.ctr_keystream_vector", aes_vector,
         "ctr_keystream_vector", _count_keystream),
        ("crypto.fast.aes_ttable.encrypt_words_tt", aes_ttable, "encrypt_words_tt", None),
        ("crypto.fast.ghash_hpower.ghash_blocks_hpower", ghash_hpower,
         "ghash_blocks_hpower", _count_ghash),
        ("crypto.fast.ghash_hpower.hpower_tables_vec", ghash_hpower,
         "hpower_tables_vec", None),
        ("sim.kernel.run", Simulator, "run_until_event", None),
        ("sim.kernel.run", Simulator, "run", None),
        (_process_name, Process, "_step", None),
    ]
    for mode in ("gcm", "ccm"):
        for op in ("seal", "open"):
            name = f"crypto.fast.batch.{mode}_{op}_many"
            out.append((name, batch, f"{mode}_{op}_many", _count_packets(name)))
    return out


def _repro_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def install(tracer: Tracer) -> List[tuple]:
    """Wrap every :func:`targets` entry; returns the patches to undo,
    as ``(container, key, original, is_mapping)``."""
    patches: List[tuple] = []
    modules = _repro_modules()
    for name, owner, attr, counter in targets():
        if isinstance(owner, type):
            original = owner.__dict__[attr]
            setattr(owner, attr, _wrap(tracer, name, original, counter))
            patches.append((owner, attr, original, False))
            continue
        original = getattr(owner, attr)
        wrapper = _wrap(tracer, name, original, counter)
        for module in modules:
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if value is original:
                    namespace[key] = wrapper
                    patches.append((namespace, key, original, True))
                elif type(value) is dict and key.isupper():
                    # Module-level dispatch tables (``_SEAL_MANY`` ...).
                    for slot, entry in list(value.items()):
                        if entry is original:
                            value[slot] = wrapper
                            patches.append((value, slot, original, True))
    return patches


def uninstall(patches: List[tuple]) -> None:
    for container, key, original, is_mapping in reversed(patches):
        if is_mapping:
            container[key] = original
        else:
            setattr(container, key, original)
    patches.clear()


def find_wrappers() -> List[str]:
    """Every benchmark wrapper still reachable from a ``repro`` module.

    Scans module namespaces, their upper-case dispatch tables, and the
    ``__dict__`` of every class they define.  The measured run asserts
    this is empty before each timed call.
    """
    found = []
    for module in _repro_modules():
        for key, value in vars(module).items():
            if callable(value) and hasattr(value, MARKER):
                found.append(f"{module.__name__}.{key}")
            elif type(value) is dict and key.isupper():
                found.extend(
                    f"{module.__name__}.{key}[{slot!r}]"
                    for slot, entry in value.items()
                    if callable(entry) and hasattr(entry, MARKER)
                )
            elif isinstance(value, type) and value.__module__ == module.__name__:
                found.extend(
                    f"{module.__name__}.{key}.{attr}"
                    for attr, entry in vars(value).items()
                    if callable(entry) and hasattr(entry, MARKER)
                )
    return found
