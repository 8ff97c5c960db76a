"""H-power GHASH: fold k blocks per Horner step.

The GHASH chain ``Y_i = (Y_{i-1} xor X_i) * H`` is a Horner evaluation
of the polynomial ``sum X_i * H^(n-i+1)``, so any k consecutive blocks
can be absorbed in one step once the powers ``H^1..H^k`` are known:

    Y' = (Y xor B_0)*H^k  xor  B_1*H^(k-1)  xor ... xor  B_{k-1}*H

The k products are mutually independent — this is the software shape of
the paper's observation that a GHASH tree of multipliers trades area
for latency, with SIMD gathers standing in for parallel digit-serial
cores.  Each power gets its own Shoup byte tables
(:mod:`repro.crypto.fast.gf128_tables`), so one fold is ``16*k``
independent table lookups:

- **numpy variant** — the per-power tables live in two ``(k, 16, 256)``
  ``uint64`` arrays (high/low halves of each 128-bit entry); a whole
  fold is two fancy-indexed gathers over a ``(k, 16)`` index grid plus
  two XOR reductions.
- **pure-Python fold** — walks the same per-power tables with plain
  lookups.  It exists for the no-numpy environments and for the
  equivalence tests; per block it costs the same 16 lookups as the
  serial tabulated chain, so the scalar dispatcher prefers the chain.

Both variants are byte-identical to the serial chain; the dispatcher
(:func:`ghash_blocks_hpower`) picks per message size and numpy
availability.  Table sets are LRU-memoized per ``(subkey, k)`` and
dropped by :func:`repro.crypto.fast.clear_caches`.

Every new or rekeyed GCM channel brings a fresh subkey and so pays one
table build.  The numpy tables are therefore built for all k powers at
once, one byte-position row at a time: row 0 from the single-bit
products ``H^p * x^j`` plus XOR doubling (the linearity
:mod:`~repro.crypto.fast.gf128_tables` documents), each later row as
the one before times ``x^8``, a one-byte shift plus a gather from a
numpy copy of the byte-reduction table.  At the default fold that costs
a few milliseconds, where k separate pure-Python table sets cost ~0.1 s.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Tuple

from repro.crypto.fast.gf128_tables import (
    _R_BYTE,
    build_ghash_tables,
    gf128_mul_tabulated,
    ghash_blocks_tabulated,
)
from repro.crypto.gf128 import MASK128, R_POLY

try:  # pragma: no cover - exercised implicitly by every import
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is present in CI
    _np = None

HAVE_NUMPY = _np is not None

BLOCK_BYTES = 16

#: Fold width (blocks per Horner step) for the vectorised engine.
DEFAULT_FOLD = 64

#: Fold width cap for the pure-Python fold: per-power tables are ~16 x
#: 256 128-bit ints each, and the scalar fold gains nothing from wide k,
#: so the cap bounds the memo footprint.
PY_FOLD_MAX = 8

#: Messages shorter than this many blocks stay on the serial tabulated
#: chain (table-gather setup would dominate).
MIN_FOLD_BLOCKS = 16

#: Capacity of the per-(subkey, fold) H-power memo caches.  One numpy
#: entry at the default fold is ~4 MiB (64 x 16 x 256 x 16 bytes), so
#: the bound keys the worst-case footprint, not the key-churn rate.
HPOWER_SLOTS = 8

_MASK64 = 0xFFFFFFFFFFFFFFFF

if HAVE_NUMPY:
    # Every x^8 reduction lies in the top 16 bits (``R_POLY`` shifted
    # right at most 7 times), so only its high half is tabulated.
    _R_BYTE_HI = _np.array([v >> 64 for v in _R_BYTE], dtype=_np.uint64)


def _powers(h: int, k: int) -> List[int]:
    """``[H^1, H^2, .., H^k]`` via the tabulated multiplier."""
    if not 0 <= h <= MASK128:
        raise ValueError("subkey must be a 128-bit non-negative integer")
    if k < 1:
        raise ValueError(f"fold width must be >= 1, got {k}")
    powers = [h]
    for _ in range(k - 1):
        powers.append(gf128_mul_tabulated(powers[-1], h))
    return powers


@lru_cache(maxsize=HPOWER_SLOTS)
def hpower_tables(h: int, k: int = PY_FOLD_MAX) -> Tuple[Tuple[Tuple[int, ...], ...], ...]:
    """Per-power Shoup tables: ``tables[p-1]`` multiplies by ``H^p``.

    Pure-Python representation (tuples of 128-bit ints), used by the
    scalar fold; bounded LRU per ``(subkey, k)``.
    """
    return tuple(build_ghash_tables(p) for p in _powers(h, k))


@lru_cache(maxsize=HPOWER_SLOTS)
def hpower_tables_vec(h: int, k: int = DEFAULT_FOLD):
    """The H-power tables as two ``(k, 16, 256)`` uint64 numpy arrays.

    ``hi[p-1, pos, b]`` / ``lo[p-1, pos, b]`` hold the high/low halves
    of byte value *b* at byte position *pos* multiplied by ``H^p``.
    Each byte-position row is built for all k powers at once, with the
    same GF(2)-linear steps as
    :func:`~repro.crypto.fast.gf128_tables.build_ghash_tables`:

    - row 0's eight single-bit entries are ``H^p * x^j`` (j = 0..7),
      each a shift plus a conditional ``R_POLY`` XOR on length-k
      hi/lo vectors; the other 248 entries fill by XOR doubling;
    - row *pos* is row *pos-1* times ``x^8``: a 128-bit shift right by
      one byte plus a gather of the shifted-out byte's reduction.

    The working row is a ``(k, 256)`` hi/lo pair copied into place after
    each step, so no temporary grows to the size of the result.
    """
    if not HAVE_NUMPY:
        raise RuntimeError("hpower_tables_vec requires numpy")
    powers = _powers(h, k)
    hi = _np.empty((k, 16, 256), dtype=_np.uint64)
    lo = _np.empty((k, 16, 256), dtype=_np.uint64)
    row_hi = _np.zeros((k, 256), dtype=_np.uint64)
    row_lo = _np.zeros((k, 256), dtype=_np.uint64)
    cur_hi = _np.array([p >> 64 for p in powers], dtype=_np.uint64)
    cur_lo = _np.array([p & _MASK64 for p in powers], dtype=_np.uint64)
    for bit in (128, 64, 32, 16, 8, 4, 2, 1):
        row_hi[:, bit], row_lo[:, bit] = cur_hi, cur_lo
        carry = cur_lo & 1
        cur_lo = (cur_lo >> 1) | (cur_hi << 63)
        cur_hi = (cur_hi >> 1) ^ (carry * (R_POLY >> 64))
    for bit in (2, 4, 8, 16, 32, 64, 128):
        row_hi[:, bit + 1 : 2 * bit] = row_hi[:, 1:bit] ^ row_hi[:, bit, None]
        row_lo[:, bit + 1 : 2 * bit] = row_lo[:, 1:bit] ^ row_lo[:, bit, None]
    hi[:, 0], lo[:, 0] = row_hi, row_lo
    for pos in range(1, 16):
        reduction = _R_BYTE_HI.take(row_lo & 255)
        row_lo >>= 8
        row_lo |= row_hi << 56
        row_hi >>= 8
        row_hi ^= reduction
        hi[:, pos], lo[:, pos] = row_hi, row_lo
    return hi, lo


def clear_hpower_caches() -> None:
    """Drop both H-power memos (hooked into ``fast.clear_caches``)."""
    hpower_tables.cache_clear()
    hpower_tables_vec.cache_clear()


def _fold_python(h: int, acc: int, data: bytes, fold: int) -> int:
    """Scalar k-block Horner fold (the pure-Python fallback)."""
    k = max(1, min(fold, PY_FOLD_MAX))
    tables = hpower_tables(h, k)
    nblocks = len(data) // BLOCK_BYTES
    offset = 0
    group = nblocks % k or k  # ragged head, then full k-groups
    while offset < nblocks:
        acc_next = 0
        for j in range(group):
            start = BLOCK_BYTES * (offset + j)
            x = int.from_bytes(data[start : start + BLOCK_BYTES], "big")
            if j == 0:
                x ^= acc
            rows = tables[group - j - 1]
            shift = 120
            for row in rows:
                acc_next ^= row[(x >> shift) & 255]
                shift -= 8
        acc = acc_next
        offset += group
        group = k
    return acc


def _fold_vector(h: int, acc: int, data: bytes, fold: int) -> int:
    """Vectorised fold: two gathers + two XOR reductions per k-group."""
    hi, lo = hpower_tables_vec(h, fold)
    nblocks = len(data) // BLOCK_BYTES
    buf = _np.frombuffer(data, dtype=_np.uint8).reshape(nblocks, BLOCK_BYTES)
    positions = _np.arange(16)
    offset = 0
    group = nblocks % fold or fold
    lanes = _np.arange(group - 1, -1, -1).reshape(group, 1)
    while offset < nblocks:
        x = buf[offset : offset + group]
        if acc:
            x = x.copy()
            x[0] ^= _np.frombuffer(acc.to_bytes(16, "big"), dtype=_np.uint8)
        acc_hi = int(_np.bitwise_xor.reduce(hi[lanes, positions, x], axis=None))
        acc_lo = int(_np.bitwise_xor.reduce(lo[lanes, positions, x], axis=None))
        acc = (acc_hi << 64) | acc_lo
        offset += group
        if group != fold:
            group = fold
            lanes = _np.arange(fold - 1, -1, -1).reshape(fold, 1)
    return acc


def ghash_blocks_hpower(
    h: int, acc: int, data: bytes, fold: int = DEFAULT_FOLD
) -> int:
    """Absorb whole 16-byte blocks of *data* with H-power folding.

    Byte-identical to :func:`ghash_blocks_tabulated`; dispatches to the
    vectorised fold for long-enough messages when numpy is present, and
    to the serial tabulated chain otherwise (the scalar fold pays the
    same 16 lookups per block as the chain, so it is kept for explicit
    use and the fallback tests rather than the scalar hot path).
    """
    if len(data) // BLOCK_BYTES < MIN_FOLD_BLOCKS or fold < 2:
        return ghash_blocks_tabulated(h, acc, data)
    if HAVE_NUMPY:
        return _fold_vector(h, acc, data, fold)
    return ghash_blocks_tabulated(h, acc, data)
