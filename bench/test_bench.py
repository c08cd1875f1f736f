"""Tests of the benchmark itself, at tiny workload sizes.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys

import pytest

import run

run.use_checkout_library()

import layers  # noqa: E402
import workloads  # noqa: E402
from wfdsim import cli, commitment, learning, protocol, simulation  # noqa: E402

SPEC = json.loads((run.BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
PATCHABLE = (cli, simulation, learning, protocol, commitment,
             learning.PeerProfile, protocol.VendorIe)

TINY = {
    "pair_minute": lambda seed: workloads.pair_minute(seed, horizon_days=3),
    "crowd_hour": lambda seed: workloads.crowd_hour(seed, horizon_days=3, seeds=1),
    "handshake_codec": lambda seed: workloads.HandshakeCodec(seed, handshakes=30, frames=10),
}


def snapshot():
    return {(owner, name): value for owner in PATCHABLE for name, value in vars(owner).items()}


def wrapped_names(before):
    return sorted(f"{getattr(owner, '__name__', owner)}.{name}"
                  for (owner, name), value in before.items()
                  if vars(owner).get(name) is not value)


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [layer["name"] for layer in SPEC["per_layer"]] == list(layers.UNITS)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(name):
    workload = TINY[name](3)
    checks = workloads.Checks()
    passes, _, _ = run.measure(workload, 0, False, checks)
    metrics = run.end_to_end([r for _, r in passes], [0.1, 0.2])
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        k: unit for k, (_, unit) in metrics.items()}
    assert all(value > 0 for value, _ in metrics.values())

    passes, traced_stats, _ = run.measure(workload, 0, True, checks)
    metrics = run.per_layer(passes, traced_stats, checks)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        k: unit for k, (_, unit) in metrics.items()}
    assert checks.failed == 0, checks.failures
    # layer self times plus the benchmark's own add up to the traced wall time
    wall = metrics["trace.wall_s"][0]
    own = metrics["bench.self_s"][0] / wall
    assert metrics["trace.layer_self_frac"][0] + own == pytest.approx(1.0, abs=0.02)


def test_end_to_end_times_are_in_reference_seconds():
    def result(seconds, ref_second):
        return workloads.PassResult(seconds, 10, "", {}, {}, ref_second=ref_second)

    # the same pass on a host at half speed takes twice the wall time and
    # twice the wall time per reference second
    fast = run.end_to_end([result(1.0, 0.5)], [0.2])
    slow = run.end_to_end([result(2.0, 1.0)], [0.4])
    for name in ("ops_per_s", "setup_s"):
        assert fast[name] == slow[name]
    assert fast["ops_per_s"][0] == 5.0 and fast["setup_s"][0] == 0.4


def test_trace_wrappers_are_gone_before_every_bare_pass(monkeypatch):
    workload = TINY["pair_minute"](1)
    before = snapshot()
    seen = []
    inner = workload.run_pass

    def spy(checks, tracer=None):
        seen.append((tracer is not None, wrapped_names(before)))
        return inner(checks, tracer)

    monkeypatch.setattr(workload, "run_pass", spy)
    passes, _, _ = run.measure(workload, 0.5, True, workloads.Checks())
    assert [traced for traced, _ in seen] == [traced for traced, _ in passes]
    assert seen[0][0] and not seen[-1][0]
    for traced, names in seen:
        if traced:
            assert "wfdsim.cli.run_experiment" in names and "PeerProfile.roll_to" in names
        else:
            assert names == []
    assert wrapped_names(before) == []


@pytest.mark.parametrize("name", ("pair_minute", "handshake_codec"))
def test_counts_repeat_between_traced_runs(name):
    rows = []
    for _ in range(2):
        checks = workloads.Checks()
        passes, traced_stats, _ = run.measure(TINY[name](7), 0, True, checks)
        metrics = run.per_layer(passes, traced_stats, checks)
        rows.append({k: metrics[k][0] for k in layers.COUNTS})
    assert rows[0] == rows[1]
    assert any(rows[0].values())


def test_wrong_digest_counts_as_failure(monkeypatch):
    workload = TINY["handshake_codec"](workloads.DEFAULT_SEED)
    checks = workloads.Checks()
    passes, _, _ = run.measure(workload, 0, False, checks)
    assert checks.failed == 0
    monkeypatch.setitem(workloads.PINNED_DIGESTS, "handshake_codec", passes[0][1].digest)
    run.check_digests(workload, workloads.DEFAULT_SEED, passes, checks)
    assert checks.failed == 0
    monkeypatch.setitem(workloads.PINNED_DIGESTS, "handshake_codec", "0" * 64)
    attempted = checks.attempted
    run.check_digests(workload, workloads.DEFAULT_SEED, passes, checks)
    assert checks.attempted == attempted + len(passes)
    assert checks.failed == len(passes)


def test_unbalanced_energy_book_counts_as_failure(monkeypatch):
    real_run = cli.run

    def leaky_run(*args, **kwargs):
        result = real_run(*args, **kwargs)
        victim = dataclasses.replace(result.devices[0], remaining=result.devices[0].remaining - 1)
        return dataclasses.replace(result, devices=(victim,) + result.devices[1:])

    monkeypatch.setattr(cli, "run", leaky_run)
    checks = workloads.Checks()
    result = TINY["pair_minute"](2).run_pass(checks)
    assert result.ops == 4
    assert checks.failed == 4
    assert all("energy books" in failure for failure in checks.failures)


def test_forged_negotiation_outcome_is_caught():
    from random import Random

    mode = protocol.NegotiationMode.PROBE_COMMIT
    a, b = protocol.Party("a", intent=7, tie_bit=1), protocol.Party("b", intent=7, tie_bit=1)
    outcome, transcript = protocol.negotiate(mode, a, b, Random(1))
    assert outcome.kind is protocol.OutcomeKind.RESPONDER_IS_GO   # 1 XOR 1 = 0
    checks = workloads.Checks()
    workloads._check_negotiation(checks, mode, a, b, outcome, transcript)
    assert checks.failed == 0
    forged = protocol.NegotiationOutcome(protocol.OutcomeKind.INITIATOR_IS_GO)
    workloads._check_negotiation(checks, mode, a, b, forged, transcript)
    assert checks.failed == 1

    tamperer = protocol.Party("a", intent=7, tamper_opening=True)
    outcome, transcript = protocol.negotiate(mode, tamperer, b, Random(1))
    not_aborted = protocol.NegotiationOutcome(protocol.OutcomeKind.RESPONDER_IS_GO)
    workloads._check_negotiation(checks, mode, tamperer, b, not_aborted, transcript)
    assert checks.failed == 2


def test_command_prints_one_json_line():
    done = subprocess.run([sys.executable, str(run.BENCH / "run.py"), "--workload",
                           "handshake_codec", "--seed", "4", "--seconds", "0", "--trace", "0"],
                          capture_output=True, text=True, timeout=300, check=True)
    lines = done.stdout.splitlines()
    assert all(line.startswith("# ") for line in lines[:-1])
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0


def test_command_fails_without_the_library(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for path in run.BENCH.glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "pair_minute",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
