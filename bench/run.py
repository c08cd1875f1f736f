"""Benchmark for wfdsim: one workload per invocation, timed from outside.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/`` of
that checkout and nowhere else.  See ``bench/README.md`` for the
workloads, the metrics and the output format.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones from wrapped entry points.  Lines before it are a readable
report (prefixed ``#``), including each pass's output digest.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
WORKLOADS = ("pair_minute", "crowd_hour", "handshake_codec")

# Set-up is measured this many more times in fresh interpreters, so its
# median does not hang on one import.
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120

# The shared host this benchmark was built on changes speed by up to 1.7x
# within minutes, for every process alike.  So the benchmark times a fixed
# reference loop (standard library only, no wfdsim code) before and after
# every pass, and reports end-to-end times in reference seconds: one
# reference second is the time the host takes, at that moment, for
# REF_RUNS runs of the loop (about a second on that host).  A faster
# library gives proportionally more operations per reference second; a
# faster or slower host does not.
REF_RUNS = 100
_REF_ITERATIONS = 8000


class _RefNode:
    __slots__ = ("key", "count")

    def __init__(self, key: int):
        self.key = key
        self.count = 0


def _reference_loop() -> int:
    # the kind of work the library does: slotted objects, dicts, a heap
    heap, table, rnd = [], {}, 12345
    for i in range(_REF_ITERATIONS):
        rnd = (rnd * 1103515245 + 12345) & 0x7FFFFFFF
        key = rnd & 63
        node = table.get(key)
        if node is None:
            node = table[key] = _RefNode(key)
        node.count += 1
        heapq.heappush(heap, (rnd % 1000, i, key))
        if len(heap) > 32:
            heapq.heappop(heap)
    return len(table)


def reference_seconds() -> float:
    """Wall seconds of one reference second right now (median of five)."""
    times = []
    for _ in range(5):
        start = perf_counter()
        _reference_loop()
        times.append(perf_counter() - start)
    return REF_RUNS * statistics.median(times)


class SetupError(Exception):
    """The library or the benchmark modules cannot be loaded from this checkout."""


def use_checkout_library() -> None:
    """Put this checkout's ``src/`` and ``bench/`` first on the import path."""
    if not (SRC / "wfdsim" / "__init__.py").is_file():
        raise SetupError(f"no wfdsim package under {SRC}")
    for path in (str(BENCH), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import wfdsim
    if Path(wfdsim.__file__).resolve().parent != SRC / "wfdsim":
        raise SetupError(f"wfdsim imported from {wfdsim.__file__}, not from {SRC}")


def load(name: str, seed: int):
    """Import wfdsim from this checkout and build the workload's inputs.

    Returns the workload and the seconds this took (the set-up time).
    """
    start = perf_counter()
    use_checkout_library()
    import workloads
    workload = workloads.build(name, seed)
    return workload, perf_counter() - start


def probe_setups(name: str, seed: int) -> list[float]:
    """Set-up times of fresh interpreters, one after another."""
    command = [sys.executable, str(BENCH / "run.py"), "--setup-probe",
               "--workload", name, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=False)
        if done.returncode != 0:
            raise SetupError(f"set-up probe failed: {done.stderr.strip()}")
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def measure(workload, seconds: float, trace: bool, checks):
    """Closed-loop passes until ``seconds`` have gone by.

    Untraced runs time every pass bare.  Traced runs alternate a pass with
    every entry point wrapped and a bare pass, starting traced and ending
    bare, so the tracing overhead is measured on the same inputs.
    Returns the passes as (traced, result) pairs and each traced pass's
    aggregates.
    """
    import layers
    from tracer import Tracer

    workload.warm_up()
    tracer = Tracer() if trace else None
    passes, traced_stats = [], []
    deadline = perf_counter() + seconds
    while True:
        # each pass starts with the previous pass's garbage collected, so
        # a pass pays only for the collections its own allocations cause
        gc.collect()
        before = reference_seconds()
        if passes:
            passes[-1][1].ref_second = (passes[-1][1].ref_second + before) / 2
        if passes and perf_counter() >= deadline and not (trace and len(passes) % 2):
            break
        traced = trace and len(passes) % 2 == 0
        if traced:
            tracer.run_id = len(passes)
            layers.install(tracer)
            try:
                result = workload.run_pass(checks, tracer)
            finally:
                tracer.restore()
            traced_stats.append(tracer.take_stats())
        else:
            if tracer is not None and tracer.active:
                raise RuntimeError("trace wrappers still installed before a bare pass")
            result = workload.run_pass(checks)
        result.ref_second = before
        passes.append((traced, result))
    return passes, traced_stats, tracer


def _rate(result, phase=None) -> float:
    """Operations per wall second."""
    ops, seconds = result.phases[phase] if phase else (result.ops, result.seconds)
    return ops / seconds


def end_to_end(bare, setups: list[float]) -> dict[str, tuple[float, str]]:
    """End-to-end metrics, times in reference seconds."""
    ref_second = statistics.median(r.ref_second for r in bare)
    return {
        "setup_s": (statistics.median(setups) / ref_second, "s"),
        "ops_per_s": (statistics.median(_rate(r) * r.ref_second for r in bare), "1/s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def per_layer(passes, traced_stats, checks) -> dict[str, tuple[float, str]]:
    import layers

    traced = [r for t, r in passes if t]
    bare = [r for t, r in passes if not t]
    rows = [layers.pass_metrics(stats, r.tally) for stats, r in zip(traced_stats, traced)]
    for row in rows[1:]:
        for name in layers.COUNTS:
            checks.check(row[name] == rows[0][name], "{} differs between traced passes: {} {}",
                         name, row[name], rows[0][name])
    values = {name: (rows[0][name] if name in layers.COUNTS
                     else statistics.median(row[name] for row in rows))
              for name in rows[0]}
    p50, ptail, pct = layers.tail([s for r in traced for s in r.run_seconds])
    values["simulation.run.p50_s"] = p50
    values["simulation.run.ptail_s"] = ptail
    values["simulation.run.ptail_pct"] = pct
    values["trace.overhead_frac"] = (statistics.median(r.seconds for r in traced)
                                     / statistics.median(r.seconds for r in bare) - 1)
    return {name: (values[name], unit) for name, unit in layers.UNITS.items()}


def report(workload, seed: int, passes, setups, checks) -> list[str]:
    import workloads

    bare = [r for t, r in passes if not t]
    lines = [f"workload={workload.name} seed={seed} passes={len(passes)} "
             f"bare_passes={len(bare)} python={platform.python_version()} "
             f"cpus={os.cpu_count()}"]
    pinned = workloads.PINNED_DIGESTS[workload.name] if seed == workloads.DEFAULT_SEED else None
    lines.append(f"digest {workload.name} seed={seed} sha256={passes[0][1].digest}"
                 + ("" if pinned is None else
                    f" pinned={'match' if pinned == passes[0][1].digest else 'MISMATCH'}"))
    ref_second = statistics.median(r.ref_second for r in bare)
    lines.append(f"reference second {ref_second:.6g} s of wall time (median of {len(bare)} "
                 f"passes); rates below per wall second, then per reference second")
    for phase, unit_name in (("runs", "runs_per_s"), ("handshakes", "handshakes_per_s"),
                             ("decodes", "decodes_per_s")):
        if phase in bare[0].phases:
            rates = [_rate(r, phase) for r in bare]
            scaled = [_rate(r, phase) * r.ref_second for r in bare]
            lines.append(f"{unit_name} {statistics.median(rates):.6g} 1/s, "
                         f"{statistics.median(scaled):.6g} 1/ref_s (median of {len(rates)} "
                         f"passes, {bare[0].phases[phase][0]} per pass; wall min "
                         f"{min(rates):.6g}, max {max(rates):.6g})")
    lines.append(f"setup_s {statistics.median(setups):.6g} s, "
                 f"{statistics.median(setups) / ref_second:.6g} ref_s "
                 f"(median of {len(setups)} set-ups)")
    frac = checks.failed / checks.attempted if checks.attempted else 0.0
    ops = sum(r.ops for _, r in passes)
    lines.append(f"failed_frac {frac:.6g} ({checks.failed} of {checks.attempted} output "
                 f"checks failed) ops_attempted={ops}")
    lines.extend(f"FAILED {what}" for what in checks.failures)
    return ["# " + line for line in lines]


def check_digests(workload, seed: int, passes, checks) -> None:
    import workloads

    if seed == workloads.DEFAULT_SEED:
        reference = workloads.PINNED_DIGESTS[workload.name]
    else:
        reference = passes[0][1].digest
    for _, result in passes:
        checks.check(result.digest == reference, "{} output digest {} != {}",
                     workload.name, result.digest, reference)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        workload, setup = load(args.workload, args.seed)
        if args.setup_probe:
            print(repr(setup))
            return 0
        setups = [setup] + probe_setups(args.workload, args.seed)
    except (SetupError, ImportError, subprocess.TimeoutExpired) as exc:
        print(f"bench: cannot set up: {exc}", file=sys.stderr)
        return 2
    import workloads

    checks = workloads.Checks()
    passes, traced_stats, tracer = measure(workload, args.seconds, bool(args.trace), checks)
    check_digests(workload, args.seed, passes, checks)
    bare = [r for t, r in passes if not t]
    if args.trace:
        metrics = per_layer(passes, traced_stats, checks)
        out = BENCH / "out" / f"trace-{workload.name}-seed{args.seed}.json"
        tracer.write(out, traced_stats)
    else:
        metrics = end_to_end(bare, setups)
    for line in report(workload, args.seed, passes, setups, checks):
        print(line)
    if args.trace:
        print(f"# trace written to {out.relative_to(BENCH.parent)}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
