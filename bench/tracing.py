"""Spans around the public functions of mtfuse's layers.

install() replaces functions and methods of the kernels, linalg,
offline, server, client, protocol and daemon modules with wrappers that
record one span per call: (name, start, end, id, parent id, kernel
evaluations inside, extra).  Names a module imported from another
(`from .kernels import eval_kernel`) are patched where they are looked
up.  Scalar kernel evaluations get no span of their own, only a
per-thread count, so their time stays in the enclosing span's self time.

Spans stay in memory and are written out once, by dump(), when the
process ends.  Times are CLOCK_MONOTONIC nanoseconds, so spans from the
daemon and from the load process share one time axis.
"""

import functools
import itertools
import json
import threading
import time

clock = time.monotonic_ns


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _state(self):
        loc = self._local
        if not hasattr(loc, "stack"):
            loc.stack = []
            loc.evals = 0
        return loc

    def record(self, name, t0, t1, evals=0, extra=0):
        """A leaf span measured by the caller, parented to the open span."""
        stack = self._state().stack
        self.spans.append((name, t0, t1, next(self._ids), stack[-1] if stack else 0,
                           evals, extra))

    def span(self, name, fn, variant=None, extra=None):
        """Wrap fn so each call records a span.

        variant(args, result) names a sub-case appended to the span name;
        extra(args, result) is a number kept with the span (bytes, rows).
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            loc = tracer._state()
            sid = next(tracer._ids)
            stack = loc.stack
            parent = stack[-1] if stack else 0
            stack.append(sid)
            e0 = loc.evals
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                tracer.spans.append((name + ".raised", t0, clock(), sid, parent,
                                     loc.evals - e0, 0))
                raise
            t1 = clock()
            stack.pop()
            full = name if variant is None else name + "." + variant(args, result)
            tracer.spans.append((full, t0, t1, sid, parent, loc.evals - e0,
                                 extra(args, result) if extra else 0))
            return result

        return wrapper

    def counter(self, fn):
        """Wrap fn so each call only bumps the thread's evaluation count."""
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args):
            try:
                local.evals += 1
            except AttributeError:
                self._state().evals += 1
            return fn(*args)

        return wrapper

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans}, fh)


class TimedLock:
    """Stand-in for the daemon's engine lock that records acquire waits."""

    def __init__(self, tracer, lock):
        self._tracer = tracer
        self._lock = lock

    def __enter__(self):
        t0 = clock()
        self._lock.acquire()
        self._tracer.record("daemon.lock_wait", t0, clock())
        return self

    def __exit__(self, *exc):
        self._lock.release()
        return False


def _type_name(obj):
    return type(obj).__name__


def install(tracer):
    """Patch every traced name in mtfuse's modules; call before serving."""
    from mtfuse import client, daemon, kernels, linalg, offline, protocol, server

    mods = (kernels, linalg, offline, server, client, protocol, daemon)

    def patch(attr, wrapped_of):
        orig = None
        for m in mods:
            if hasattr(m, attr):
                orig = orig or getattr(m, attr)
        wrapped = wrapped_of(orig)
        for m in mods:
            if getattr(m, attr, None) is orig:
                setattr(m, attr, wrapped)

    def method(cls, attr, name, **kw):
        setattr(cls, attr, tracer.span(name, getattr(cls, attr), **kw))

    size = lambda args, result: len(result)  # noqa: E731

    patch("eval_kernel", tracer.counter)
    patch("ldl_append", lambda f: tracer.span("linalg.ldl_append", f))
    patch("build_factors", lambda f: tracer.span(
        "offline.build_factors", f, extra=lambda a, r: r.n))
    patch("shared_coefficients", lambda f: tracer.span("server.shared_coefficients", f))
    patch("predict_client", lambda f: tracer.span("client.predict_client", f))
    patch("encode", lambda f: tracer.span(
        "protocol.encode", f, variant=lambda a, r: _type_name(a[0]), extra=size))
    patch("decode", lambda f: tracer.span(
        "protocol.decode", f, variant=lambda a, r: _type_name(r),
        extra=lambda a, r: len(a[0])))
    patch("save_snapshot", lambda f: tracer.span("protocol.save_snapshot", f, extra=size))
    patch("load_snapshot", lambda f: tracer.span(
        "protocol.load_snapshot", f, extra=lambda a, r: len(a[0])))

    for attr in ("matvec", "add_scaled_outer", "append_border_row"):
        method(linalg.SymMatrix, attr, "linalg.SymMatrix." + attr)
    method(linalg.UnitLowerFactor, "rows_t_matvec", "linalg.UnitLowerFactor.rows_t_matvec")
    method(server.ServerEngine, "receive_example", "server.receive_example",
           variant=lambda a, r: r.case)
    method(server.ServerEngine, "get_disclosed", "server.get_disclosed")
    method(server.ServerEngine, "get_task_coefficients", "server.get_task_coefficients",
           extra=lambda a, r: a[0].epoch)
    method(client.Client, "active_refresh", "client.Client.active_refresh")
    method(client.Client, "passive_refresh", "client.Client.passive_refresh")
    method(daemon.DaemonServer, "dispatch", "daemon.dispatch",
           variant=lambda a, r: _type_name(a[1]))
    for attr in ("submit", "get_disclosed", "task_coefficients"):
        method(daemon.RemoteServer, attr, "daemon.RemoteServer." + attr)

    init = daemon.DaemonServer.__init__

    @functools.wraps(init)
    def timed_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.lock = TimedLock(tracer, self.lock)

    daemon.DaemonServer.__init__ = timed_init


# ===== aggregation =======================================================


def load(path):
    with open(path, encoding="utf-8") as fh:
        return [tuple(s) for s in json.load(fh)["spans"]]


def aggregate(spans, window=None):
    """Per-name figures over the spans whose root span started in window.

    Returns {name: {"calls", "total_ns", "self_ns", "extra", "extras",
    "evals"}}, where self time is duration minus the direct children's
    durations and evals counts kernel evaluations under root spans.
    """
    by_id = {s[3]: s for s in spans}
    root_of = {}

    def root(sid):
        chain = []
        while sid not in root_of:
            parent = by_id[sid][4] if sid in by_id else 0
            if parent == 0 or parent not in by_id:
                root_of[sid] = sid
                break
            chain.append(sid)
            sid = parent
        r = root_of[sid]
        for c in chain:
            root_of[c] = r
        return r

    child_ns = {}
    for s in spans:
        if s[4]:
            child_ns[s[4]] = child_ns.get(s[4], 0) + (s[2] - s[1])
    out = {}
    for name, t0, t1, sid, parent, evals, extra in spans:
        r = by_id[root(sid)]
        if window is not None and not window[0] <= r[1] <= window[1]:
            continue
        st = out.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0,
                                   "extra": 0, "extras": set(), "evals": 0})
        st["calls"] += 1
        st["total_ns"] += t1 - t0
        st["self_ns"] += (t1 - t0) - child_ns.get(sid, 0)
        st["extra"] += extra
        st["extras"].add(extra)
        if r[3] == sid:
            st["evals"] += evals
    return out


def eval_count(agg):
    return sum(st["evals"] for st in agg.values())
