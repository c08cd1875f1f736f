"""Which library entry points the traced run wraps, and the per-layer metrics.

Layers are the package's modules: ``cli``, ``simulation``, ``learning``,
``protocol`` and ``commitment``.  Each entry point is wrapped where its
callers look it up, so the library itself is not edited: ``run_experiment``
finds ``run`` in ``wfdsim.cli``, the simulator finds ``assess`` and
``should_reject`` in ``wfdsim.simulation``, ``assess`` finds ``posterior``
in ``wfdsim.learning``, and the handshakes find ``commit`` and ``verify``
in ``wfdsim.protocol``.
"""

from __future__ import annotations

import statistics

from wfdsim import cli, commitment, learning, protocol, simulation
from workloads import SESSION_KINDS

_NEGOTIATION_MODES = tuple(m.value for m in protocol.NegotiationMode)


def _settled(args, outcome, error):
    if error is None:
        return "settled" if outcome[0].kind.value.endswith("_is_go") else "unsettled"
    return None


def _accepted(args, result, error):
    return "accepted" if error is None else None


def _rejected(args, result, error):
    return "reject" if result else None


def _mismatch(args, result, error):
    return "mismatch" if error is None and not result else None


def install(tracer) -> None:
    """Wrap every layer entry point; ``tracer.restore()`` undoes it."""
    wrap = tracer.wrap
    wrap(cli, "run_experiment", "cli.run_experiment", span=True)
    wrap(cli, "emit_csv", "cli.emit_csv", span=True)
    wrap(cli, "run", "simulation.run", span=True)
    wrap(simulation, "assess", "learning.assess")
    wrap(simulation, "should_reject", "learning.should_reject", outcome=_rejected)
    wrap(learning, "posterior", "learning.posterior")
    wrap(learning.PeerProfile, "record_negotiation", "learning.profile_record")
    wrap(learning.PeerProfile, "record_group_time", "learning.profile_record")
    wrap(learning.PeerProfile, "roll_to", "learning.roll_to")
    wrap(protocol, "negotiate", lambda args, kwargs: "protocol.negotiate." + args[0].value,
         outcome=_settled)
    wrap(protocol, "decode_vendor_ie", "protocol.decode.vendor_ie", outcome=_accepted)
    wrap(protocol, "parse_p2p_attributes", "protocol.decode.p2p_attributes", outcome=_accepted)
    wrap(protocol.VendorIe, "encode", "protocol.encode")
    wrap(protocol, "encode_p2p_attributes", "protocol.encode")
    wrap(protocol, "commit", "commitment.commit")
    wrap(protocol, "verify", "commitment.verify", outcome=_mismatch)
    wrap(commitment, "decode_opening", "commitment.decode_opening", outcome=_accepted)


# Metric name -> unit, in the order they are reported.  Every traced run
# reports all of them; a layer a workload does not use reads 0.
UNITS = {
    "cli.run_experiment.busy_s": "s",
    "cli.run_experiment.self_s": "s",
    "cli.emit_csv.busy_s": "s",
    "cli.self_s": "s",
    "simulation.run.calls": "count",
    "simulation.run.busy_s": "s",
    "simulation.run.self_s": "s",
    "simulation.run.p50_s": "s",
    "simulation.run.ptail_s": "s",
    "simulation.run.ptail_pct": "%",
    **{f"simulation.sessions.{kind}": "count" for kind in SESSION_KINDS},
    "simulation.tie_rounds": "count",
    "simulation.skips_busy": "count",
    "simulation.retry_ratio": "ratio",
    "simulation.us_per_session": "us",
    "simulation.session_log.max_entries": "count",
    "learning.assess.calls": "count",
    "learning.assess.busy_s": "s",
    "learning.assess.reject_ratio": "ratio",
    "learning.posterior.calls": "count",
    "learning.posterior.busy_s": "s",
    "learning.profile_record.calls": "count",
    "learning.profile_record.busy_s": "s",
    "learning.roll_to.calls": "count",
    "learning.roll_to.busy_s": "s",
    "learning.self_s": "s",
    **{f"protocol.negotiate.{mode}.{field}": unit for mode in _NEGOTIATION_MODES
       for field, unit in (("calls", "count"), ("busy_s", "s"))},
    "protocol.negotiate.settled_ratio": "ratio",
    **{f"protocol.decode.{codec}.{field}": unit for codec in ("vendor_ie", "p2p_attributes")
       for field, unit in (("calls", "count"), ("busy_s", "s"))},
    "protocol.decode.accept_ratio": "ratio",
    "protocol.encode.calls": "count",
    "protocol.encode.busy_s": "s",
    "protocol.self_s": "s",
    "commitment.commit.calls": "count",
    "commitment.commit.busy_s": "s",
    "commitment.verify.calls": "count",
    "commitment.verify.busy_s": "s",
    "commitment.verify.mismatch_ratio": "ratio",
    "commitment.decode_opening.calls": "count",
    "commitment.decode_opening.busy_s": "s",
    "commitment.self_s": "s",
    "bench.self_s": "s",
    "trace.wall_s": "s",
    "trace.layer_self_frac": "ratio",
    "trace.overhead_frac": "ratio",
}

# Metrics that count work; they must repeat exactly from pass to pass.
COUNTS = tuple(name for name, unit in UNITS.items() if unit == "count")


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def tail(samples: list[float]) -> tuple[float, float, float]:
    """Median, and the highest of p75/p90/p95/p99 with ten samples beyond it.

    Below twenty samples no percentile above the median has ten beyond
    it, so the tail reads as the median (percentile 50).
    """
    if not samples:
        return 0.0, 0.0, 50.0
    ordered = sorted(samples)
    n = len(ordered)
    p50 = statistics.median(ordered)
    pct, value = 50.0, p50
    for q in (75.0, 90.0, 95.0, 99.0):
        if n * (1 - q / 100) >= 10:
            pct, value = q, ordered[min(n - 1, int(q / 100 * n))]
    return p50, value, pct


def pass_metrics(stats: dict, tally: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass (no percentiles, no overhead)."""

    def calls(name):
        return stats[name].calls if name in stats else 0

    def busy(name):
        return stats[name].busy if name in stats else 0.0

    def own(name):
        return stats[name].self if name in stats else 0.0

    def outcome(name, key):
        return stats[name].outcomes.get(key, 0) if name in stats else 0

    def layer_self(prefix):
        return sum(s.self for name, s in stats.items() if name.startswith(prefix))

    m: dict[str, float] = {
        "cli.run_experiment.busy_s": busy("cli.run_experiment"),
        "cli.run_experiment.self_s": own("cli.run_experiment"),
        "cli.emit_csv.busy_s": busy("cli.emit_csv"),
        "cli.self_s": layer_self("cli."),
        "simulation.run.calls": calls("simulation.run"),
        "simulation.run.busy_s": busy("simulation.run"),
        "simulation.run.self_s": own("simulation.run"),
    }
    for kind in SESSION_KINDS:
        m[f"simulation.sessions.{kind}"] = tally.get(kind, 0)
    negotiations = sum(tally.get(k, 0) for k in ("group", "declined", "exhausted"))
    m["simulation.tie_rounds"] = tally.get("tie_rounds", 0)
    m["simulation.skips_busy"] = tally.get("skips_busy", 0)
    m["simulation.retry_ratio"] = _ratio(tally.get("tie_rounds", 0), negotiations)
    m["simulation.us_per_session"] = 1e6 * _ratio(busy("simulation.run"),
                                                  tally.get("sessions", 0))
    m["simulation.session_log.max_entries"] = tally.get("max_log", 0)
    for name in ("assess", "posterior", "profile_record", "roll_to"):
        m[f"learning.{name}.calls"] = calls(f"learning.{name}")
        m[f"learning.{name}.busy_s"] = busy(f"learning.{name}")
    m["learning.assess.reject_ratio"] = _ratio(outcome("learning.should_reject", "reject"),
                                               calls("learning.assess"))
    m["learning.self_s"] = layer_self("learning.")
    settled = attempted = 0
    for mode in _NEGOTIATION_MODES:
        name = f"protocol.negotiate.{mode}"
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.busy_s"] = busy(name)
        settled += outcome(name, "settled")
        attempted += calls(name)
    m["protocol.negotiate.settled_ratio"] = _ratio(settled, attempted)
    accepted = decodes = 0
    for codec in ("vendor_ie", "p2p_attributes"):
        name = f"protocol.decode.{codec}"
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.busy_s"] = busy(name)
        accepted += outcome(name, "accepted")
        decodes += calls(name)
    m["protocol.decode.accept_ratio"] = _ratio(accepted, decodes)
    m["protocol.encode.calls"] = calls("protocol.encode")
    m["protocol.encode.busy_s"] = busy("protocol.encode")
    m["protocol.self_s"] = layer_self("protocol.")
    for name in ("commit", "verify", "decode_opening"):
        m[f"commitment.{name}.calls"] = calls(f"commitment.{name}")
        m[f"commitment.{name}.busy_s"] = busy(f"commitment.{name}")
    m["commitment.verify.mismatch_ratio"] = _ratio(outcome("commitment.verify", "mismatch"),
                                                   calls("commitment.verify"))
    m["commitment.self_s"] = layer_self("commitment.")
    m["bench.self_s"] = layer_self("bench.")
    wall = m["trace.wall_s"] = busy("bench.pass")
    library = sum(m[f"{layer}.self_s"] for layer in ("cli", "learning", "protocol", "commitment"))
    m["trace.layer_self_frac"] = _ratio(library + m["simulation.run.self_s"], wall)
    return m
