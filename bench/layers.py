"""Per-layer metrics of a traced run, computed from aggregated spans.

Names read <side>.<module>.<function>[.<variant>].<stat>, where side is
daemon_side or client_side.  Stats: calls (count), self_ms (span time
minus child spans), bytes (encoded size), rows (factor rows rebuilt),
wait_ms (client round trip minus the daemon's dispatch of that message).
"""

from tracing import eval_count

CASES = ("new-input", "repeat-global", "repeat-task")

UNITS = {"calls": "count", "rows": "count", "bytes": "bytes", "self_ms": "ms",
         "wait_ms": "ms", "lock_wait_ms": "ms", "calls_per_epoch": "ratio",
         "factor_rows_useful_ratio": "ratio"}
HIGHER = {"factor_rows_useful_ratio"}

# (side, span name, stats); one metric per stat
TABLE = [
    ("daemon", "kernels.eval_kernel", ("calls",)),
    ("daemon", "linalg.ldl_append", ("calls", "self_ms")),
    ("daemon", "linalg.SymMatrix.matvec", ("calls", "self_ms")),
    ("daemon", "linalg.SymMatrix.add_scaled_outer", ("calls", "self_ms")),
    ("daemon", "linalg.SymMatrix.append_border_row", ("calls", "self_ms")),
    ("daemon", "linalg.UnitLowerFactor.rows_t_matvec", ("calls", "self_ms")),
] + [
    ("daemon", "server.receive_example." + case, ("calls", "self_ms")) for case in CASES
] + [
    ("daemon", "daemon.dispatch." + m, ("calls", "self_ms"))
    for m in ("SubmitExample", "GetDisclosed", "GetTaskCoeffs")
] + [
    ("daemon", "protocol.decode.SubmitExample", ("calls", "self_ms")),
    ("daemon", "protocol.encode.Ack", ("calls", "self_ms")),
    ("daemon", "daemon", ("lock_wait_ms",)),
    ("daemon", "server.get_disclosed", ("calls", "self_ms")),
    ("daemon", "protocol.encode.Disclosed", ("bytes", "self_ms")),
    ("daemon", "server.shared_coefficients", ("calls", "self_ms", "calls_per_epoch")),
    ("daemon", "protocol.load_snapshot", ("bytes", "self_ms")),
    ("daemon", "protocol.save_snapshot", ("bytes", "self_ms")),
] + [
    ("client", "daemon.RemoteServer." + m, ("calls", "self_ms", "wait_ms"))
    for m in ("submit", "get_disclosed", "task_coefficients")
] + [
    ("client", "protocol.decode.Disclosed", ("calls", "self_ms")),
    ("client", "offline.build_factors", ("calls", "rows", "self_ms")),
    ("client", "kernels.eval_kernel", ("calls",)),
    ("client", "linalg.ldl_append", ("calls", "self_ms")),
    ("client", "server.shared_coefficients", ("calls", "self_ms")),
    ("client", "client", ("factor_rows_useful_ratio",)),
] + [
    ("client", "server.receive_example." + case, ("calls", "self_ms")) for case in CASES
] + [
    ("client", "client.predict_client", ("calls", "self_ms")),
]

# which client call waits on which daemon dispatch
_WAITS_ON = {"submit": "SubmitExample", "get_disclosed": "GetDisclosed",
             "task_coefficients": "GetTaskCoeffs"}


def names():
    """[(metric name, unit, better)] in table order."""
    out = []
    for side, span, stats in TABLE:
        for st in stats:
            out.append(("%s_side.%s.%s" % (side, span, st), UNITS[st],
                        "higher" if st in HIGHER else "lower"))
    return out


def values(daemon, client, setup, useful_ratio):
    """Metric values from aggregated spans.

    daemon, client: aggregates of the timed phase on each side; setup:
    aggregate of the set-up daemons' spans (snapshot save and load);
    useful_ratio: factor rows that were new to that user over rows
    rebuilt, counted by the session loop.
    """
    empty = {"calls": 0, "total_ns": 0, "self_ns": 0, "extra": 0, "extras": set()}
    out = {}
    for side, span, stats in TABLE:
        agg = daemon if side == "daemon" else client
        if span.startswith("protocol.") and span.endswith("_snapshot"):
            agg = setup
        st = agg.get(span, empty)
        for stat in stats:
            if stat == "calls":
                v = eval_count(agg) if span == "kernels.eval_kernel" else st["calls"]
            elif stat == "self_ms":
                v = st["self_ns"] / 1e6
            elif stat in ("bytes", "rows"):
                v = st["extra"]
            elif stat == "wait_ms":
                m = _WAITS_ON[span.rsplit(".", 1)[1]]
                v = (st["self_ns"] - daemon.get("daemon.dispatch." + m, empty)["total_ns"]) / 1e6
            elif stat == "lock_wait_ms":
                v = daemon.get("daemon.lock_wait", empty)["total_ns"] / 1e6
            elif stat == "calls_per_epoch":
                epochs = daemon.get("server.get_task_coefficients", empty)["extras"]
                v = st["calls"] / len(epochs) if epochs else 0.0
            else:
                v = useful_ratio
            out["%s_side.%s.%s" % (side, span, stat)] = {"value": v, "unit": UNITS[stat]}
    return out
