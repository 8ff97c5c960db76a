"""The asynchronous backend half: submit()/done()/result().

The contract under test is :class:`repro.crypto.fast.exec.BatchHandle`:
``submit()`` returns immediately, ``result()`` blocks and returns
exactly what ``run()`` would have (same results in submission order,
same exceptions, same recovery behaviour), ``done()`` never blocks,
and both results and errors are memoized — one execution no matter
how often the handle is drained.  ``seal_open_submit`` rides the
same contract at the batch-AEAD layer.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.crypto.fast.batch import seal_open_many, seal_open_submit
from repro.crypto.fast.exec import (
    BatchHandle,
    InlineBackend,
    ProcessPoolBackend,
    ResiliencePolicy,
    ThreadPoolBackend,
)
from repro.errors import WorkerCrashError

#: No-backoff budget so retry tests don't sleep.
FAST = ResiliencePolicy(max_retries=2, backoff_base=0.0, backoff_cap=0.0)

KEY = bytes(range(16))


@pytest.fixture(scope="module")
def thread_backend():
    backend = ThreadPoolBackend(workers=3)
    yield backend
    backend.close()


@pytest.fixture(scope="module")
def process_backend():
    backend = ProcessPoolBackend(workers=2)
    yield backend
    backend.close()


@pytest.fixture(params=["inline", "thread", "process"])
def any_backend(request, thread_backend, process_backend):
    if request.param == "inline":
        backend = InlineBackend()
        yield backend
        backend.close()
    else:
        yield thread_backend if request.param == "thread" else process_backend


def _ccm_packets(count, size=256):
    return [
        ((i + 1).to_bytes(13, "big"), bytes([i & 0xFF]) * size)
        for i in range(count)
    ]


# -- handle semantics ---------------------------------------------------------


def test_submit_matches_run_in_submission_order(any_backend):
    calls = [(int, (str(n),)) for n in range(20)]
    handle = any_backend.submit(calls)
    assert isinstance(handle, BatchHandle)
    assert handle.result() == any_backend.run(calls) == list(range(20))


def test_empty_submit_is_immediately_done(any_backend):
    handle = any_backend.submit([])
    assert handle.done()
    assert handle.result() == []


def test_result_is_memoized_single_execution(thread_backend):
    counter = {"calls": 0}

    def bump(value):
        counter["calls"] += 1
        return value

    handle = thread_backend.submit([(bump, (1,)), (bump, (2,))])
    assert handle.result() == [1, 2]
    assert handle.result() == [1, 2]
    assert counter["calls"] == 2  # one execution per call, not per drain
    assert handle.done()


def test_serial_guard_defers_single_calls_to_result(thread_backend):
    """A one-call batch is never launched: done() reports True (nothing
    in flight) and result() computes in the draining thread."""
    ident = {}

    def record(value):
        ident["thread"] = threading.get_ident()
        return value

    handle = thread_backend.submit([(record, (7,))])
    assert handle.done()  # unlaunched — nothing to wait on
    assert "thread" not in ident  # ...and nothing ran yet
    assert handle.result() == [7]
    assert ident["thread"] == threading.get_ident()


def test_done_transitions_without_blocking(thread_backend):
    release = threading.Event()

    def gated(value):
        release.wait(timeout=30)
        return value

    handle = thread_backend.submit([(gated, (1,)), (gated, (2,))])
    assert not handle.done()
    release.set()
    assert handle.result() == [1, 2]
    assert handle.done()


def test_errors_are_memoized_and_reraised(thread_backend):
    def boom(_):
        raise ValueError("non-retryable")

    handle = thread_backend.submit([(boom, (1,)), (int, ("2",))])
    with pytest.raises(ValueError, match="non-retryable"):
        handle.result()
    with pytest.raises(ValueError, match="non-retryable"):
        handle.result()  # memoized, not re-executed
    assert handle.done()


class _FlakyCall:
    """Raises WorkerCrashError the first *failures* invocations."""

    def __init__(self, failures):
        self.failures = failures
        self.calls = 0

    def __call__(self, value):
        self.calls += 1
        if self.calls <= self.failures:
            raise WorkerCrashError("transient")
        return value * 2


def test_recovery_runs_inside_result(thread_backend):
    """Retries happen when the handle is drained, with the same policy
    semantics as the synchronous run() path."""
    flaky = _FlakyCall(failures=1)
    handle = thread_backend.submit([(flaky, (21,)), (int, ("7",))], policy=FAST)
    assert handle.result() == [42, 7]
    assert flaky.calls == 2


def test_submit_on_degraded_backend_delegates():
    backend = ProcessPoolBackend(workers=2)
    try:
        backend.degraded_reason = "test-injected"
        handle = backend.submit([(len, (b"abc",)), (len, (b"de",))])
        assert handle.result() == [3, 2]
    finally:
        backend.close()


def test_overlap_with_submitting_thread(thread_backend):
    """The point of submit(): the caller makes progress while workers
    run the batch."""
    started = threading.Event()

    def slow(value):
        started.set()
        time.sleep(0.05)
        return value

    handle = thread_backend.submit([(slow, (1,)), (slow, (2,))])
    assert started.wait(timeout=10)  # workers running...
    overlapped = not handle.done()  # ...while we still hold the thread
    assert handle.result() == [1, 2]
    assert overlapped or handle.done()


# -- seal_open_submit ---------------------------------------------------------


def test_seal_open_submit_matches_sync(any_backend):
    packets = _ccm_packets(24)
    sealed_sync, _ = seal_open_many("ccm", KEY, packets, [], 8)
    opens = [
        (nonce, ct, tag)
        for (nonce, _), (ct, tag) in zip(packets, sealed_sync)
    ]
    expected = seal_open_many(
        "ccm", KEY, packets, opens, 8, backend=any_backend
    )
    handle = seal_open_submit(
        "ccm", KEY, packets, opens, 8, backend=any_backend
    )
    assert handle.result() == expected
    assert handle.result() == expected  # memoized
    assert handle.done()


def test_seal_open_submit_single_packet_serial(any_backend):
    packets = _ccm_packets(1)
    handle = seal_open_submit("ccm", KEY, packets, [], 8, backend=any_backend)
    sealed, opened = handle.result()
    assert opened == []
    assert (sealed, []) == seal_open_many("ccm", KEY, packets, [], 8)


def test_seal_open_submit_rejects_unknown_mode(thread_backend):
    with pytest.raises(ValueError, match="unknown batch mode"):
        seal_open_submit("ctr", KEY, [], [], 16, backend=thread_backend)
