"""The numpy H-power table builder against the per-power construction.

``hpower_tables_vec`` builds all k powers' Shoup tables at once in
numpy.  The oracle here is the straightforward construction: one
pure-Python :func:`build_ghash_tables` per power, packed into the same
``(k, 16, 256)`` hi/lo arrays.
"""

import random

import pytest

import repro.crypto.fast.ghash_hpower as hpower
from repro.crypto.fast.gf128_tables import (
    _R_BYTE,
    build_ghash_tables,
    ghash_blocks_tabulated,
)
from repro.crypto.gf128 import MASK128, R_POLY

np = pytest.importorskip("numpy")

_MASK64 = (1 << 64) - 1

_RNG = random.Random(0x4B1D)
#: Edge subkeys, then 20 seeded random ones.
SUBKEYS = [0, 1, 1 << 127, MASK128, R_POLY] + [
    _RNG.getrandbits(128) for _ in range(20)
]


def _oracle(h, k):
    hi = np.empty((k, 16, 256), dtype=np.uint64)
    lo = np.empty((k, 16, 256), dtype=np.uint64)
    for index, power in enumerate(hpower._powers(h, k)):
        flat = [value for row in build_ghash_tables(power) for value in row]
        hi[index] = np.array([v >> 64 for v in flat], dtype=np.uint64).reshape(
            16, 256
        )
        lo[index] = np.array(
            [v & _MASK64 for v in flat], dtype=np.uint64
        ).reshape(16, 256)
    return hi, lo


def test_reduction_table_has_no_low_half():
    # The builder gathers only the high half of each x^8 reduction.
    assert all(value & _MASK64 == 0 for value in _R_BYTE)


@pytest.mark.parametrize("k", (1, 2, 3, 16, 17, 64))
def test_builder_matches_per_power_tables(k):
    for h in SUBKEYS:
        hi, lo = hpower.hpower_tables_vec.__wrapped__(h, k)
        want_hi, want_lo = _oracle(h, k)
        for got in (hi, lo):
            assert got.dtype == np.uint64
            assert got.shape == (k, 16, 256)
            assert got.flags.c_contiguous
        assert np.array_equal(hi, want_hi), hex(h)
        assert np.array_equal(lo, want_lo), hex(h)


@pytest.mark.parametrize("nblocks", (15, 16, 63, 64, 65, 129))
def test_fold_on_built_tables_matches_serial_chain(nblocks):
    rng = random.Random(0x70AD + nblocks)
    h = rng.getrandbits(128)
    acc = rng.getrandbits(128) | 1
    data = rng.randbytes(16 * nblocks)
    assert hpower.ghash_blocks_hpower(h, acc, data) == ghash_blocks_tabulated(
        h, acc, data
    )


@pytest.mark.parametrize("h, k", ((-1, 4), (MASK128 + 1, 4), (5, 0), (5, -3)))
def test_builder_rejects_bad_arguments(h, k):
    with pytest.raises(ValueError):
        hpower.hpower_tables_vec(h, k)
