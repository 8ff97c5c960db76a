#!/usr/bin/env python
"""Width sweep of the packed-state vector AES kernel.

Times :func:`repro.crypto.fast.aes_vector.encrypt_state_vector` on one
``(4, width)`` state per call and prints microseconds per call and per
block (lane) for each width, with the host's ``cpu_count``, numpy and
Python versions::

    PYTHONPATH=src python benchmarks/bench_vector_aes_width.py

Narrow widths show the kernel's fixed per-call cost (CBC-MAC steps run
a few dozen lanes per call); wide ones its per-lane cost.  Each figure
is the median over ``REPEATS`` timed loops of at least ``MIN_SECONDS``
each, under an AES-128 schedule.
"""

from __future__ import annotations

import os
import platform
import statistics
import sys
import time

WIDTHS = (1, 8, 32, 128, 512, 4096)
REPEATS = 7
MIN_SECONDS = 0.05


def measure(width: int) -> float:
    """Median seconds per call of one ``(4, width)`` sweep."""
    import numpy as np

    from repro.crypto.fast.aes_ttable import expand_key_cached
    from repro.crypto.fast.aes_vector import encrypt_state_vector

    round_keys = expand_key_cached(bytes(range(16)))
    state = np.arange(4 * width, dtype=np.uint32).reshape(4, width)
    encrypt_state_vector(state, round_keys)  # warm the schedule memo
    loops = 1
    while True:
        start = time.perf_counter()
        for _ in range(loops):
            encrypt_state_vector(state, round_keys)
        if time.perf_counter() - start >= MIN_SECONDS:
            break
        loops *= 2
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(loops):
            encrypt_state_vector(state, round_keys)
        samples.append((time.perf_counter() - start) / loops)
    return statistics.median(samples)


def main() -> int:
    from repro.crypto.fast.aes_vector import HAVE_NUMPY

    if not HAVE_NUMPY:
        print("numpy is not installed: the vector kernel is unavailable")
        return 1
    import numpy as np

    print(
        f"cpu_count={os.cpu_count()} numpy={np.__version__} "
        f"python={platform.python_version()} ({sys.byteorder}-endian)"
    )
    print(f"{'width':>6} {'us/call':>10} {'us/block':>10}")
    for width in WIDTHS:
        per_call = measure(width)
        print(f"{width:>6} {per_call * 1e6:>10.1f} {per_call * 1e6 / width:>10.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
