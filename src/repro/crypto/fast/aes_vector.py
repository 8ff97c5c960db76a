"""Vectorised bulk AES over packed lane states (numpy-gated).

Counter-mode keystream blocks, the lanes of a batched CBC-MAC and a
batch's fused counter runs are mutually independent blocks, so they are
encrypted as one sweep over a packed ``(4, N)`` uint32 state: row *i*
holds column word *i* of every block (lane).  This is the software
analogue of the paper's observation that CTR-style modes parallelise
freely while feedback modes do not (section II.B) — here the "parallel
cores" are SIMD lanes instead of FPGA slices.

Each T-table round is 9 numpy calls that touch data, whatever the
width: one advanced-index gather pulls the 16 ShiftRows-permuted state
bytes of every lane out of the state's byte view (a free reinterpret),
four ``TE*.take`` lookups are XORed together in place (three XORs), and
one XOR adds the round key.  The last round takes the uint8 S-box on
the same gather and scatters the bytes back into words.  Narrow sweeps
(CBC-MAC steps are a few dozen lanes) are bound by this fixed per-call
count, not by the lane count.

The gather works on the state's native in-memory bytes, so the offset
of a word's most significant byte depends on :data:`sys.byteorder`;
:data:`WORD` and :data:`BYTE` are built once at import for the host
order.  States wider than :data:`TILE_LANES` are swept tile by tile so
transient arrays stay bounded whatever the batch width.

numpy is optional: :data:`HAVE_NUMPY` gates the path and the bulk APIs
in :mod:`repro.crypto.fast.bulk` fall back to the scalar T-table loop,
so the package never *requires* the dependency.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from typing import Optional, Sequence, Tuple

try:  # pragma: no cover - exercised implicitly by every import
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is present in CI
    _np = None

HAVE_NUMPY = _np is not None

#: Below this many blocks the scalar loop wins (array setup dominates).
MIN_VECTOR_BLOCKS = 4

#: Lanes per sweep tile: wider states run tile by tile, which bounds the
#: per-round gather and lookup temporaries (about 200 bytes per lane).
TILE_LANES = 1024


def shift_rows_offsets(byteorder: str) -> Tuple[list, list]:
    """``(word, byte)`` offsets of the ShiftRows gather, as ``[k][c]`` lists.

    Output column *c* of a T-table round reads AES byte *k* (0 = most
    significant) of input column ``(c + k) % 4``.  In the byte view of
    a ``(4, N)`` uint32 state that byte lives in row ``word[k][c]`` at
    in-word offset ``byte[k][c]``: ``3 - k`` on little-endian hosts,
    ``k`` on big-endian ones.
    """
    word = [[(c + k) % 4 for c in range(4)] for k in range(4)]
    byte = [[3 - k if byteorder == "little" else k] * 4 for k in range(4)]
    return word, byte


if HAVE_NUMPY:
    from repro.crypto.aes_tables import SBOX
    from repro.crypto.fast.aes_ttable import TE0, TE1, TE2, TE3

    _TE0 = _np.array(TE0, dtype=_np.uint32)
    _TE1 = _np.array(TE1, dtype=_np.uint32)
    _TE2 = _np.array(TE2, dtype=_np.uint32)
    _TE3 = _np.array(TE3, dtype=_np.uint32)
    _SBOX = _np.array(SBOX, dtype=_np.uint8)
    #: ShiftRows gather offsets for this host's byte order (``[k, c]``).
    WORD, BYTE = (_np.array(a) for a in shift_rows_offsets(sys.byteorder))

#: Capacity of the round-key-array memo (mirrors ``expand_key_cached``).
ROUND_KEY_ARRAY_SLOTS = 256


@lru_cache(maxsize=ROUND_KEY_ARRAY_SLOTS)
def _round_keys_array(round_keys):
    """``(rounds + 1, 4, 1)`` uint32 schedule, memoized per schedule.

    The lane-parallel CBC-MAC calls :func:`encrypt_state_vector` once
    per block step under one unchanging schedule, so the tuple->array
    conversion must not sit inside that loop.  The trailing axis
    broadcasts each round key across the lanes.
    """
    return _np.array(round_keys, dtype=_np.uint32)[:, :, None]


def clear_vector_caches() -> None:
    """Drop the round-key-array memo."""
    _round_keys_array.cache_clear()


def _shift_rows_bytes(s):
    """``(4, 4, n)`` uint8: ``[k, c]`` is AES byte *k* of column ``c + k``."""
    return s.view(_np.uint8).reshape(4, s.shape[1], 4)[WORD, :, BYTE]


def encrypt_state_vector(state, round_keys: Sequence[Sequence[int]]):
    """Encrypt a batch of blocks held as one packed ``(4, N)`` state.

    Row *i* holds column word *i* of every block (lane); *state* may be
    any ``(4, N)`` uint32 array of either byte order, including a
    non-contiguous column slice, and is not modified.  Returns a new
    C-contiguous ``(4, N)`` array; the caller owns byte packing.

    Per tile of at most :data:`TILE_LANES` lanes: the initial
    AddRoundKey writes a native-order C-contiguous copy, so its byte
    view has the layout :data:`WORD`/:data:`BYTE` assume; each middle
    round is one ShiftRows gather, four T-table takes XORed in place
    and the round-key XOR (9 numpy calls); the last round S-boxes the
    same gather and scatters the bytes straight into the output's byte
    view.  The final round key is added once over the whole output.
    """
    if not isinstance(round_keys, tuple):
        round_keys = tuple(tuple(words) for words in round_keys)
    rk = _round_keys_array(round_keys)
    lanes = state.shape[1]
    out = _np.empty((4, lanes), dtype=_np.uint32)
    out_bytes = out.view(_np.uint8).reshape(4, lanes, 4)
    for lo in range(0, lanes, TILE_LANES):
        s = _np.bitwise_xor(state[:, lo : lo + TILE_LANES], rk[0], order="C")
        for key in rk[1:-1]:
            # uint8 indices never leave a 256-entry table, so "wrap"
            # only skips the bounds check.
            g = _shift_rows_bytes(s)
            s = _TE0.take(g[0], mode="wrap")
            s ^= _TE1.take(g[1], mode="wrap")
            s ^= _TE2.take(g[2], mode="wrap")
            s ^= _TE3.take(g[3], mode="wrap")
            s ^= key
        tile = out_bytes[:, lo : lo + TILE_LANES].transpose(2, 0, 1)
        tile[BYTE[:, 0]] = _SBOX.take(_shift_rows_bytes(s), mode="wrap")
    out ^= rk[-1]
    return out


def state_to_bytes(state) -> bytes:
    """Serialise a packed ``(4, N)`` state to N big-endian 16-byte blocks."""
    return state.T.astype(">u4").tobytes()


def _encrypt_words_vector(w0, w1, w2, w3, round_keys: Sequence[Sequence[int]]) -> bytes:
    """Encrypt a batch given as four uint32 word arrays; returns bytes."""
    return state_to_bytes(encrypt_state_vector(_np.stack((w0, w1, w2, w3)), round_keys))


def ctr_keystream_vector(
    round_keys: Sequence[Sequence[int]],
    initial_counter: int,
    nblocks: int,
    inc_bits: int,
) -> Optional[bytes]:
    """Keystream for *nblocks* counters starting at *initial_counter*.

    The counter's low *inc_bits* bits increment by one per block,
    wrapping modulo ``2**inc_bits`` (matching
    :func:`repro.crypto.modes.ctr.increment_counter` and GCM's inc32).
    Returns ``None`` when the batch shape is outside what this engine
    vectorises (no numpy, tiny batches, or an increment field wider
    than 64 bits) — the caller falls back to the scalar loop.
    """
    if not HAVE_NUMPY or nblocks < MIN_VECTOR_BLOCKS or not 0 < inc_bits <= 64:
        return None
    c0 = initial_counter
    low0 = c0 & ((1 << inc_bits) - 1)
    hi = c0 >> inc_bits << inc_bits
    lows = low0 + _np.arange(nblocks, dtype=_np.uint64)
    if inc_bits < 64:
        lows &= _np.uint64((1 << inc_bits) - 1)
    # (uint64 addition already wraps mod 2^64 for inc_bits == 64.)
    w0 = _np.full(nblocks, (hi >> 96) & 0xFFFFFFFF, dtype=_np.uint32)
    w1 = _np.full(nblocks, (hi >> 64) & 0xFFFFFFFF, dtype=_np.uint32)
    if inc_bits <= 32:
        w2 = _np.full(nblocks, (hi >> 32) & 0xFFFFFFFF, dtype=_np.uint32)
        w3 = _np.uint32(hi & 0xFFFFFFFF) | lows.astype(_np.uint32)
    else:
        w2 = _np.uint32((hi >> 32) & 0xFFFFFFFF) | (lows >> _np.uint64(32)).astype(_np.uint32)
        w3 = lows.astype(_np.uint32)
    return _encrypt_words_vector(w0, w1, w2, w3, round_keys)


def encrypt_blocks_vector(blocks: bytes, round_keys: Sequence[Sequence[int]]) -> Optional[bytes]:
    """ECB-encrypt a whole number of 16-byte *blocks* in one sweep.

    Used by the CCM counter path when the counter blocks are already
    materialised.  Returns ``None`` when vectorisation does not apply.
    """
    nblocks = len(blocks) // 16
    if not HAVE_NUMPY or nblocks < MIN_VECTOR_BLOCKS:
        return None
    words = _np.frombuffer(blocks, dtype=">u4").reshape(nblocks, 4)
    return state_to_bytes(encrypt_state_vector(words.T, round_keys))
