"""The packed-state vector AES kernel against the scalar T-table oracle.

:func:`repro.crypto.fast.aes_vector.encrypt_state_vector` runs every
lane of a ``(4, N)`` state through byte-gather T-table rounds, tile by
tile.  The oracle is :func:`repro.crypto.fast.aes_ttable.encrypt_words_tt`
applied lane by lane.  Widths straddle the SIMD-friendly sizes and the
tile boundary; the ShiftRows byte offsets are pinned for both host byte
orders; and the kernel's transient memory must not grow with the width.
"""

import random
import sys
import tracemalloc

import pytest

from repro.crypto.fast import aes_vector
from repro.crypto.fast.aes_ttable import encrypt_words_tt, expand_key_cached

try:
    import numpy as np
except ImportError:  # the no-numpy leg still runs the offset tests
    np = None

needs_numpy = pytest.mark.skipif(not aes_vector.HAVE_NUMPY, reason="needs numpy")

WIDTHS = [1, 7, 8, 31, 32, 33, 1023, 1024, 1025, 4160]
KEY_BYTES = {"aes128": 16, "aes192": 24, "aes256": 32}


def _random_state(width, seed):
    rng = random.Random(seed)
    return np.array(
        [[rng.getrandbits(32) for _ in range(width)] for _ in range(4)],
        dtype=np.uint32,
    )


def _oracle(state, round_keys):
    lanes = [
        encrypt_words_tt(*(int(word) for word in state[:, lane]), round_keys)
        for lane in range(state.shape[1])
    ]
    return np.array(lanes, dtype=np.uint32).T


@needs_numpy
@pytest.mark.parametrize("key_name", sorted(KEY_BYTES))
@pytest.mark.parametrize("width", WIDTHS)
def test_matches_per_lane_ttable(key_name, width):
    key = bytes(range(7, 7 + KEY_BYTES[key_name]))
    round_keys = expand_key_cached(key)
    state = _random_state(width, seed=width * 31 + len(key))
    out = aes_vector.encrypt_state_vector(state, round_keys)
    assert out.shape == (4, width) and out.flags.c_contiguous
    assert (out == _oracle(state, round_keys)).all()


@needs_numpy
def test_accepts_list_schedules():
    round_keys = expand_key_cached(bytes(16))
    state = _random_state(9, seed=3)
    as_lists = [list(words) for words in round_keys]
    out = aes_vector.encrypt_state_vector(state, as_lists)
    assert (out == aes_vector.encrypt_state_vector(state, round_keys)).all()


@needs_numpy
@pytest.mark.parametrize("active", [1, 5, 33, 1025])
def test_column_slice_input_is_encrypted_and_left_untouched(active):
    """CBC-MAC steps encrypt the leading ``active`` lanes of a wider
    state: a non-contiguous column slice of a C-ordered array."""
    round_keys = expand_key_cached(bytes(range(32)))
    full = _random_state(active + 7, seed=active)
    before = full.copy()
    view = full[:, :active]
    assert not view.flags.c_contiguous
    out = aes_vector.encrypt_state_vector(view, round_keys)
    assert (full == before).all()
    assert (out == _oracle(before[:, :active], round_keys)).all()


@needs_numpy
def test_transposed_big_endian_input():
    """A Fortran-ordered big-endian ``(4, N)`` state -- the transposed
    ``(N, 4)`` word view ``encrypt_blocks_vector`` passes -- gathers the
    same bytes as its native C-ordered copy."""
    round_keys = expand_key_cached(bytes(16))
    state = _random_state(40, seed=11)
    transposed = np.ascontiguousarray(state.T).astype(">u4").T
    assert not transposed.flags.c_contiguous
    out = aes_vector.encrypt_state_vector(transposed, round_keys)
    assert (out == _oracle(state, round_keys)).all()


# Output column c reads AES byte k of column (c + k) % 4 (ShiftRows);
# AES byte 0 is a word's most significant byte.
HAND_WORD = [
    [0, 1, 2, 3],
    [1, 2, 3, 0],
    [2, 3, 0, 1],
    [3, 0, 1, 2],
]
HAND_BYTE = {
    "little": [[3] * 4, [2] * 4, [1] * 4, [0] * 4],
    "big": [[0] * 4, [1] * 4, [2] * 4, [3] * 4],
}


@pytest.mark.parametrize("byteorder", ["little", "big"])
def test_shift_rows_offsets_for_both_byte_orders(byteorder):
    word, byte = aes_vector.shift_rows_offsets(byteorder)
    assert word == HAND_WORD
    assert byte == HAND_BYTE[byteorder]


@pytest.mark.parametrize("byteorder", ["little", "big"])
def test_offsets_address_the_shifted_bytes(byteorder):
    """Reading a word's bytes as laid out in *byteorder* memory at the
    offsets yields exactly the bytes the scalar round looks up."""
    rng = random.Random(byteorder)
    words = [rng.getrandbits(32) for _ in range(4)]
    memory = [w.to_bytes(4, byteorder) for w in words]
    word, byte = aes_vector.shift_rows_offsets(byteorder)
    for k in range(4):
        for c in range(4):
            expected = (words[(c + k) % 4] >> (24 - 8 * k)) & 0xFF
            assert memory[word[k][c]][byte[k][c]] == expected


@needs_numpy
def test_host_offsets_match_sys_byteorder():
    word, byte = aes_vector.shift_rows_offsets(sys.byteorder)
    assert aes_vector.WORD.tolist() == word
    assert aes_vector.BYTE.tolist() == byte


def _transient_peak(width, round_keys):
    """Bytes allocated during one call beyond those its result keeps."""
    state = np.zeros((4, width), dtype=np.uint32)
    tracemalloc.start()
    try:
        out = aes_vector.encrypt_state_vector(state, round_keys)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (4, width)
    return peak - kept


@needs_numpy
def test_transient_memory_does_not_grow_with_width():
    """Wide states sweep tile by tile: 16x the lanes of one tile must
    not take more than 1.5x the temporaries."""
    round_keys = expand_key_cached(bytes(16))
    aes_vector.encrypt_state_vector(_random_state(8, seed=0), round_keys)
    narrow = _transient_peak(1024, round_keys)
    wide = _transient_peak(16384, round_keys)
    assert wide <= 1.5 * narrow, (narrow, wide)
