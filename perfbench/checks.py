"""Correctness checks, run outside the timed region.

Every completed packet of a repeat is checked against the sequential,
one-call ``repro.crypto.fast.bulk`` seal under the key, nonce and header
the benchmark derives on its own.  A deterministic sample is re-derived
on the reference ``repro.crypto`` path (``use_fast=False``) to check the
fast oracle itself.  On receive traffic exactly the packets whose tag
was corrupted in flight must fail authentication.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from typing import List, Optional

from repro.core.params import Algorithm, Direction
from repro.crypto import ccm_decrypt, ccm_encrypt, gcm_decrypt, gcm_encrypt
from repro.crypto.fast.bulk import ccm_seal, gcm_seal
from repro.errors import CryptoError

from workloads import Entry

#: Entries re-derived on the reference path per checked repeat.
REFERENCE_SAMPLE = 6


def transcript_digest(completed) -> str:
    """SHA-256 over (channel, sequence, direction, ok, payload, tag) in
    completion order, read straight from ``CommController.completed``."""
    digest = hashlib.sha256()
    for transfer in completed.values():
        head = (
            f"{transfer.channel_id}|{transfer.sequence}|"
            f"{transfer.job.direction.name}|{transfer.ok}|"
        )
        digest.update(head.encode() + transfer.payload + b"|" + (transfer.tag or b""))
    return digest.hexdigest()


def _seal(entry: Entry):
    seal = gcm_seal if entry.algorithm is Algorithm.GCM else ccm_seal
    return seal(
        entry.key, entry.expected_nonce, entry.plaintext, entry.expected_aad,
        entry.tag_length,
    )


def check_entry(entry: Entry) -> Optional[str]:
    """Why *entry* is wrong, or None when it is right."""
    if entry.nonce != entry.expected_nonce:
        return "nonce"
    if entry.aad != entry.expected_aad:
        return "aad"
    ciphertext, tag = _seal(entry)
    if entry.direction is Direction.ENCRYPT:
        if entry.data != entry.plaintext:
            return "plaintext"
        if not entry.ok or entry.payload != ciphertext or entry.tag != tag:
            return "seal bytes"
        return None
    if entry.data != ciphertext:
        return "rx ciphertext"
    if entry.tag_in == tag:
        if not entry.ok or entry.payload != entry.plaintext:
            return "open bytes"
        return None
    # A tag corrupted in flight: correct only if it was rejected.
    return None if not entry.ok else "forgery accepted"


def _reference_mismatch(entry: Entry) -> bool:
    """Does the reference path disagree with the fast oracle?"""
    encrypt, decrypt = (
        (gcm_encrypt, gcm_decrypt)
        if entry.algorithm is Algorithm.GCM
        else (ccm_encrypt, ccm_decrypt)
    )
    ciphertext, tag = _seal(entry)
    reference = encrypt(
        entry.key, entry.expected_nonce, entry.plaintext, entry.expected_aad,
        tag_length=entry.tag_length, use_fast=False,
    )
    if reference != (ciphertext, tag):
        return True
    if entry.direction is Direction.DECRYPT and entry.tag_in != tag:
        try:
            decrypt(
                entry.key, entry.expected_nonce, entry.data, entry.tag_in,
                entry.expected_aad, use_fast=False,
            )
        except CryptoError:
            return False
        return True
    return False


class TranscriptCheck:
    """Outcome of checking one repeat's transcript."""

    def __init__(self, entries: List[Entry]):
        self.entries = len(entries)
        self.failures: Counter = Counter()
        self.correct = 0
        self.rejected = 0
        seen = set()
        for entry in entries:
            reason = check_entry(entry)
            if (entry.key, entry.nonce) in seen:
                reason = reason or "nonce reuse"
            seen.add((entry.key, entry.nonce))
            if reason is None:
                self.correct += 1
                self.rejected += entry.direction is Direction.DECRYPT and not entry.ok
            else:
                self.failures[reason] += 1
        step = max(1, len(entries) // REFERENCE_SAMPLE)
        for entry in entries[::step][:REFERENCE_SAMPLE]:
            if _reference_mismatch(entry):
                self.failures["reference"] += 1

    @property
    def failed(self) -> int:
        return sum(self.failures.values())
