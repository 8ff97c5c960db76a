"""TrafficGenerator payload bytes against the per-byte generator oracle.

``_payload`` draws all of a payload's bytes in one ``getrandbits``
call.  The oracle is the original one-``getrandbits(8)``-per-byte
expression: both consume one 32-bit generator word per byte, so the
bytes and the generator state afterwards must match exactly.
"""

import random

import pytest

from repro.radio.packet import MAX_PAYLOAD_BYTES
from repro.radio.standards import STANDARD_PROFILES
from repro.radio.traffic import TrafficGenerator

_PROFILE_SIZES = sorted(
    {p.header_bytes for p in STANDARD_PROFILES.values()}
    | {p.payload_bytes for p in STANDARD_PROFILES.values()}
)
SIZES = sorted({0, 1, 5, *_PROFILE_SIZES})


def _oracle_payload(rng: random.Random, size: int) -> bytes:
    return bytes(rng.getrandbits(8) for _ in range(size))


@pytest.mark.parametrize("seed", [0, 1, 12345])
@pytest.mark.parametrize("size", SIZES)
def test_payload_matches_per_byte_oracle_and_rng_state(seed, size):
    profile = next(iter(STANDARD_PROFILES.values()))
    generator = TrafficGenerator(0, profile, seed=seed)
    oracle = random.Random(seed << 8)
    assert generator._payload(size) == _oracle_payload(oracle, size)
    assert generator._rng.getrandbits(64) == oracle.getrandbits(64)


def test_generated_schedule_matches_per_byte_oracle():
    """Whole saturating schedules replay the oracle's headers and payloads."""
    for standard, profile in STANDARD_PROFILES.items():
        generator = TrafficGenerator(3, profile, seed=7)
        oracle = random.Random((7 << 8) ^ 3)
        size = min(profile.payload_bytes, MAX_PAYLOAD_BYTES)
        for item in generator.generate(4):
            header = _oracle_payload(oracle, profile.header_bytes)
            assert item.packet.header == header, standard
            assert item.packet.payload == _oracle_payload(oracle, size), standard
