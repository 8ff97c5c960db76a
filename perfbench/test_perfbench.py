"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench -q``.
They use small versions of the workloads, so they take seconds.
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import run  # noqa: E402
from checks import TranscriptCheck, check_entry  # noqa: E402
from layers import visible  # noqa: E402
from tracing import Tracer, find_wrappers, install, uninstall  # noqa: E402
from workloads import HELDOUT_SEED, build_workloads  # noqa: E402

SEED = 3


@pytest.fixture(scope="module")
def small_rx():
    workload = build_workloads()["bulk_rx"]
    workload.packets = 24
    workload.setup(SEED)
    yield workload
    workload.close()


@pytest.fixture(scope="module")
def traced(small_rx):
    return run.timed_repeat(small_rx, SEED, traced=True)


@pytest.fixture(scope="module")
def untraced(small_rx):
    return run.timed_repeat(small_rx, SEED, traced=False)


def test_self_times_plus_unattributed_equal_traced_wall(traced):
    assert traced["sum_ok"]
    layers = traced["layers"]
    assert layers["trace.spans"][0] > 0
    assert layers["crypto.fast.batch.ccm_open_many.calls"][0] > 0


def test_measured_run_carries_no_wrapper(traced, untraced):
    assert untraced["wrappers"] == []
    assert find_wrappers() == []


def test_find_wrappers_sees_an_installed_tracer():
    patches = install(Tracer())
    try:
        found = find_wrappers()
    finally:
        uninstall(patches)
    assert any("batch._SEAL_MANY" in name for name in found)
    assert any("SdrPlatform.run_workload" in name for name in found)
    assert find_wrappers() == []


def test_tracing_does_not_change_the_transcript(traced, untraced):
    for key in ("digest", "shed", "sim", "events"):
        assert traced[key] == untraced[key]


def test_checks_pass_and_catch_tampering(small_rx, untraced):
    entries = small_rx.entries(untraced["repeat"])
    check = TranscriptCheck(entries)
    assert check.failed == 0
    assert check.correct == len(entries) == small_rx.offered(untraced["repeat"])
    good = entries[0]
    assert check_entry(good) is None
    flipped = bytes([good.payload[0] ^ 1]) + good.payload[1:]
    assert check_entry(replace(good, payload=flipped)) == "open bytes"
    forged = replace(good, tag_in=bytes(len(good.tag_in)), ok=True)
    assert check_entry(forged) == "forgery accepted"
    assert check_entry(replace(good, nonce=bytes(len(good.nonce)))) == "nonce"


def test_session_checks_derive_their_own_plaintext_and_nonce():
    workload = build_workloads()["session_churn"]
    try:
        workload.setup(SEED)
        record = run.timed_repeat(workload, SEED, traced=False)
        entries = workload.entries(record["repeat"])
    finally:
        workload.close()
    check = TranscriptCheck(entries)
    assert check.failed == 0 and check.correct == len(entries) > 200
    good = entries[len(entries) // 2]
    # The dataplane sealing another payload than the session's packet.
    other = entries[len(entries) // 2 + 1].data
    assert check_entry(replace(good, data=other)) == "plaintext"
    truncated = replace(good, data=good.data[:-1])
    assert check_entry(truncated) == "plaintext"
    assert check_entry(replace(good, nonce=entries[0].nonce)) == "nonce"


def test_checks_pass_on_the_held_out_seed():
    workload = build_workloads()["bulk_tx"]
    workload.packets = 8
    try:
        workload.setup(HELDOUT_SEED)
        record = run.timed_repeat(workload, HELDOUT_SEED, traced=False)
        entries = workload.entries(record["repeat"])
    finally:
        workload.close()
    check = TranscriptCheck(entries)
    assert check.failed == 0 and check.correct == 64


def test_tail_rule():
    assert run.tail(list(range(1, 101))) == (90, 90.0, 100)
    assert run.tail([5, 1, 3]) == (5, 100.0, 3)


def test_printed_metrics_match_benchmark_json(tmp_path, capsys):
    assert run.main(["--workload", "cores_table2", "--seconds", "0", "--out", str(tmp_path)]) == 0
    printed = json.loads(capsys.readouterr().out.splitlines()[-1])
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {name: m["unit"] for name, m in printed["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]
    }
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_per_layer_names_match_benchmark_json(traced):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    shown = visible(traced["layers"], traced["wall"])
    shown["trace.overhead_pct"] = (0.0, "%")
    shown["sim.kernel.host_us_per_event"] = (0.0, "us")
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (_, unit) in shown.items()
    }
