"""Benchmark of mtfuse's daemon under three traffic mixes.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; mtfuse is imported from ./src.  Workloads:
steady-ratings, recommend-sessions (see README.md).

Each run sets up three times (generate the plan, stream the pool into a
fresh daemon, let it snapshot on SIGTERM, start a second daemon from the
snapshot and wait until it answers) and keeps the last daemon.  The
timed phase then plays the plan's schedule from this single-threaded
process over two loopback connections: a writer for submits and a
reader for the users' sessions.  The schedule is fixed by --seconds, so
two runs do identical work; it lasts about --seconds on a 2-vCPU VM.
Afterwards the daemon's disclosed state and the clients' predictions
are checked against an independent numpy solve.

The last stdout line is one JSON object: correct, attempted, failed and
metrics (end-to-end metrics with --trace 0, per-layer metrics with
--trace 1).  The line before it carries details: the environment, the
submit tail, case counts and the checks' errors.  Exit status is 0 when
the checks pass, 1 when they fail, 2 when the program is missing.
"""

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

# one BLAS thread per process, so the daemon and the load each keep a core
PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPS = 3
TOL = 1e-8  # the acceptance suite's agreement tolerance (criteria 1-3)
PROBE_EVERY_S = 0.25
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9, 99.95, 99.99)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny pools and schedules, for the schema test")
    ap.add_argument("--perturb-reference", action="store_true",
                    help="shift one response in the reference; the checks must fail")
    return ap.parse_args(argv)


# ===== process and host readings =========================================


def thread_cpu_ns(pid):
    """On-CPU nanoseconds (user+sys) of each live thread of a process."""
    out = {}
    for path in glob.glob("/proc/%d/task/*/schedstat" % pid):
        try:
            with open(path) as fh:
                out[path] = int(fh.read().split()[0])
        except OSError:  # the thread ended meanwhile
            pass
    return out


def cpu_s_since(pid, before):
    """CPU seconds the process's threads used since thread_cpu_ns(pid)."""
    now = thread_cpu_ns(pid)
    return sum(v - before.get(k, 0) for k, v in now.items()) / 1e9


def peak_rss_mb(pid="self"):
    with open("/proc/%s/status" % pid) as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/%s/status" % pid)


def self_cpu_s():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def host_ticks():
    """(steal, total) jiffies of all CPUs, from /proc/stat."""
    with open("/proc/stat") as fh:
        vals = [int(v) for v in fh.readline().split()[1:]]
    # guest time is already counted in user time
    return vals[7], sum(vals[:8])


def speed_probe_ms():
    """Time of a fixed loop shaped like the clients' scalar kernel path.

    CPU time on a shared VM drifts with load from other tenants even when
    steal reads zero; the timed phase runs this probe a few times a
    second, between operations, and records its median next to the
    steal share so that an outlier run can be explained.
    """
    import numpy as np

    a = np.linspace(-1.0, 1.0, 64) / 8.0
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(300):
        acc += math.exp(float(np.dot(a, a)))
    return (time.perf_counter() - t0) * 1e3


def blas_threads():
    import numpy

    base = os.path.dirname(os.path.dirname(numpy.__file__))
    for lib in glob.glob(os.path.join(base, "numpy.libs", "*openblas*")):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(lib), sym)
            except (AttributeError, OSError):
                continue
            fn.restype = ctypes.c_int
            return fn()
    return None


def environment(steal_share, probe_ms):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("openblas configuration", blas.get("version")))
    except (KeyError, TypeError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": blas_threads(),
        "pin": PIN,
        "steal_share": steal_share,
        "speed_probe_ms": probe_ms,
        "loadavg": os.getloadavg(),
    }


def tail(samples):
    """Highest ladder percentile with at least ten samples beyond it."""
    n = len(samples)
    best = None
    for p in TAIL_LADDER:
        if n * (1.0 - p / 100.0) >= 10:
            best = p
    if best is None or n < 40:
        return None
    q = statistics.quantiles(samples, n=10000, method="inclusive")
    return {"percentile": best, "value": q[int(round(best * 100)) - 1], "samples": n}


# ===== daemons ===========================================================


def _die_with_parent():
    # Linux prctl(PR_SET_PDEATHSIG, SIGTERM): a daemon never outlives this process
    ctypes.CDLL(None, use_errno=True).prctl(1, signal.SIGTERM)


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class Daemon:
    """One `mtfuse.daemon.serve` process on a loopback port."""

    def __init__(self, rundir, name, plan, snapshot, trace):
        from plan import ALPHA, LAM

        self.port = free_port()
        self.trace_path = os.path.join(rundir, name + ".trace.json") if trace else None
        config = {
            "alpha": ALPHA,
            "lam": LAM,
            "shared_kernel": "rbf-tags",
            "individual_kernel": "linear-tags",
            "bias": "constant",
            "listen": {"host": "127.0.0.1", "port": self.port},
            "snapshot": snapshot,
            "tokens": {str(t): tok.decode() for t, tok in plan.tokens.items()},
        }
        cfg_path = os.path.join(rundir, name + ".json")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        cmd = [sys.executable, os.path.join(BENCH, "daemon_main.py"), "--config", cfg_path]
        if self.trace_path:
            cmd += ["--trace-out", self.trace_path]
        self.log_path = os.path.join(rundir, name + ".log")
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(cmd, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                                         stdin=subprocess.DEVNULL, preexec_fn=_die_with_parent)

    @property
    def pid(self):
        return self.proc.pid

    def connect(self, timeout=60.0):
        """A connection once the daemon answers GetConfig."""
        from mtfuse.daemon import RemoteServer

        deadline = time.monotonic() + timeout
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError("daemon exited with %s: %s" % (self.proc.returncode, self.log()))
            try:
                conn = RemoteServer(("127.0.0.1", self.port))
            except OSError:
                if time.monotonic() > deadline:
                    raise RuntimeError("daemon did not answer: %s" % self.log())
                time.sleep(0.005)
                continue
            conn.get_config()
            return conn

    def log(self):
        with open(self.log_path, "rb") as fh:
            return fh.read()[-2000:].decode("utf-8", "replace")

    def stop(self, timeout=120.0):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        return self.proc.returncode


# ===== phases ============================================================


def points(plan):
    from mtfuse import InputPoint

    return [InputPoint(k, f) for k, f in zip(plan.keys, plan.features)]


def set_up(args, rundir, started):
    """One set-up: plan, pool build and snapshot, serving daemon answering."""
    from plan import make_plan

    t0 = time.perf_counter()
    plan = make_plan(args.workload, args.seed, args.seconds, args.smoke)
    pts = points(plan)
    os.makedirs(rundir, exist_ok=True)
    snapshot = os.path.join(rundir, "pool.snap")
    build = Daemon(rundir, "build", plan, snapshot, args.trace)
    started.append(build)
    cases = []
    with build.connect() as conn:
        for r in plan.pool:
            ack = conn.submit(pts[r.item], r.y, r.w, task=r.task, token=plan.tokens[r.task])
            cases.append(ack.case)
    if build.stop() != 0:
        raise RuntimeError("pool daemon failed: %s" % build.log())
    serve = Daemon(rundir, "serve", plan, snapshot, args.trace)
    started.append(serve)
    serve.connect().close()
    return plan, pts, build, serve, time.perf_counter() - t0, cases


class Load:
    """The timed schedule, played from this process in a closed loop."""

    def __init__(self, plan, pts, daemon):
        from mtfuse.client import Client
        from mtfuse.daemon import RemoteServer

        addr = ("127.0.0.1", daemon.port)
        self.plan = plan
        self.pts = pts
        self.writer = RemoteServer(addr)
        self.reader = RemoteServer(addr)
        self.cfg = self.reader.get_config()
        self.slate = [pts[i] for i in plan.slate]
        self.active = {u: Client(u, self.cfg, plan.tokens[u]) for u in plan.active_users}
        self.passive = {u: Client(u, self.cfg) for u in plan.passive_users}
        self.cases = []
        self.last = {}  # user -> (session, ratings sent before it, scores, top)
        self.last_n = {}
        self.rows = 0
        self.useful = 0
        self.reset()

    def reset(self):
        """Forget timings so far; the warm-up ends here."""
        self.samples = {"submit": [], "refresh": [], "passive": [], "recommend": []}
        self.probes = []
        self._next_probe = 0.0

    def close(self):
        self.writer.close()
        self.reader.close()

    def submit(self, r):
        t0 = time.perf_counter_ns()
        ack = self.writer.submit(self.pts[r.item], r.y, r.w, task=r.task,
                                 token=self.plan.tokens[r.task])
        self.samples["submit"].append(time.perf_counter_ns() - t0)
        self.cases.append(ack.case)

    def refresh(self, user):
        self.reader.token = self.plan.tokens[user]
        return self.active[user].active_refresh(self.reader)

    def private(self, session):
        from mtfuse.client import PrivateData

        return PrivateData([(self.pts[r.item], r.y, r.w) for r in session.private])

    def scores(self, model):
        from mtfuse import client

        return [client.predict_client(model, self.cfg, x) for x in self.slate]

    def _rows(self, user, n):
        self.rows += n
        self.useful += n - self.last_n.get(user, 0)
        self.last_n[user] = n

    def session(self, s):
        import numpy as np
        from plan import TOP

        if s.passive:
            private = self.private(s)
            t0 = time.perf_counter_ns()
            db = self.reader.get_disclosed()
            model = self.passive[s.user].passive_refresh(db, private)
            self.samples["passive"].append(time.perf_counter_ns() - t0)
            self._rows(s.user, len(db.inputs))
        else:
            for r in s.ratings:
                self.submit(r)
            t0 = time.perf_counter_ns()
            model = self.refresh(s.user)
            self.samples["refresh"].append(time.perf_counter_ns() - t0)
            self._rows(s.user, len(model.inputs))
        t0 = time.perf_counter_ns()
        scores = np.asarray(self.scores(model))
        top = np.argsort(-scores, kind="stable")[:TOP]
        self.samples["recommend"].append(time.perf_counter_ns() - t0)
        self.last[s.user] = (s, len(self.plan.pool) + len(self.cases), scores, top)

    def play(self, ops):
        """Run ops; returns how many raised."""
        from mtfuse.errors import EngineError
        from plan import Rating

        failed = 0
        for op in ops:
            if time.perf_counter() >= self._next_probe:
                self.probes.append(speed_probe_ms())
                self._next_probe = time.perf_counter() + PROBE_EVERY_S
            try:
                if isinstance(op, Rating):
                    self.submit(op)
                else:
                    self.session(op)
            except (EngineError, OSError) as exc:
                failed += 1
                print("bench: operation failed: %r" % (exc,), file=sys.stderr)
        return failed


def check(load, pool_cases, perturb):
    """Compare the daemon and the clients with the numpy reference."""
    import numpy as np
    from plan import ALPHA, LAM, TOP
    from reference import Reference, rel_err

    plan = load.plan
    out = {}

    def triples(ratings, shift=0.0):
        t = [(r.task, plan.keys[r.item], plan.features[r.item], r.y, r.w) for r in ratings]
        if shift:
            task, key, f, y, w = t[0]
            t[0] = (task, key, f, y + shift, w)
        return t

    shift = 1e-6 if perturb else 0.0
    acked = pool_cases + load.cases
    want = [r.case for r in plan.submitted]
    out["cases_match"] = acked == want
    out["cases"] = {c: want.count(c) for c in sorted(set(want))}
    db = load.reader.get_disclosed()
    out["epoch"] = db.epoch
    out["epoch_match"] = db.epoch == len(plan.submitted)
    ref = Reference(triples(plan.submitted, shift), ALPHA, LAM)
    out["keys_match"] = [x.key for x in db.inputs] == ref.keys
    out["n"] = len(db.inputs)
    errs = {"y_cond": rel_err(db.y_cond, ref.y_cond) if out["keys_match"] else 1.0,
            "H": rel_err(db.H.to_dense(), ref.H) if out["keys_match"] else 1.0}
    slate = plan.features[plan.slate]
    top_ok = True

    def compare(label, got, top, want_):
        nonlocal top_ok
        errs[label] = rel_err(got, want_)
        order = np.argsort(-want_, kind="stable")
        if want_[order[TOP - 1]] - want_[order[TOP]] > 1e-6:
            top_ok &= set(top) == set(order[:TOP])

    # each user's last timed recommendation, against the data sent before it
    for u, (s, sent, scores, top) in sorted(load.last.items()):
        data = triples(plan.submitted[:sent], shift)
        if s.passive:
            data += triples(s.private)
        compare("%s-%d" % ("passive" if s.passive else "active", u), scores, top,
                Reference(data, ALPHA, LAM).predict(u, slate))
    out["top_match"] = top_ok
    out["errors"] = errs
    out["correct"] = bool(out["cases_match"] and out["epoch_match"] and out["keys_match"]
                          and top_ok and max(errs.values()) < TOL)
    return out


def median_ms(ns):
    return statistics.median(ns) / 1e6


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mtfuse", "daemon.py")):
        print("bench: mtfuse sources not found under %s" % SRC, file=sys.stderr)
        return 2
    os.environ.update(PIN)
    sys.path.insert(0, SRC)
    import tracing
    from plan import WORKLOADS

    if args.workload not in WORKLOADS:
        print("bench: unknown workload %r (one of %s)" % (args.workload, ", ".join(WORKLOADS)),
              file=sys.stderr)
        return 2
    # a terminated run still stops its daemons and removes its files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    rundir = os.path.join(ROOT, ".bench_out", "%s-seed%d-trace%d-%d" % (
        args.workload, args.seed, args.trace, os.getpid()))
    started = []
    try:
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracing.install(tracer)
        setups = []
        for rep in range(SETUP_REPS):
            plan, pts, build, serve, dt, pool_cases = set_up(
                args, os.path.join(rundir, "setup%d" % rep), started)
            setups.append(dt)
            if rep < SETUP_REPS - 1:
                serve.stop()

        load = Load(plan, pts, serve)
        load.play(plan.warmup)
        load.reset()
        steal0, total0 = host_ticks()
        dcpu0, ccpu0 = thread_cpu_ns(serve.pid), self_cpu_s()
        t_start = tracing.clock()
        failed = load.play(plan.timed)
        t_end = tracing.clock()
        dcpu, ccpu = cpu_s_since(serve.pid, dcpu0), self_cpu_s() - ccpu0
        steal1, total1 = host_ticks()
        daemon_rss, client_rss = peak_rss_mb(serve.pid), peak_rss_mb()

        checks = check(load, pool_cases, args.perturb_reference)
        load.close()
        if serve.stop() != 0:
            raise RuntimeError("serving daemon failed: %s" % serve.log())

        end_to_end = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "submit_p50_ms": {"value": median_ms(load.samples["submit"]), "unit": "ms"},
            "refresh_p50_ms": {"value": median_ms(load.samples["refresh"]), "unit": "ms"},
            "passive_p50_ms": {"value": median_ms(load.samples["passive"]), "unit": "ms"},
            "recommend_p50_ms": {"value": median_ms(load.samples["recommend"]), "unit": "ms"},
            "daemon_cpu_s": {"value": dcpu, "unit": "s"},
            "client_cpu_s": {"value": ccpu, "unit": "s"},
            "daemon_rss_mb": {"value": daemon_rss, "unit": "MB"},
            "client_rss_mb": {"value": client_rss, "unit": "MB"},
        }
        ratio = load.useful / load.rows if load.rows else 0.0
        if args.trace:
            import layers

            window = (t_start, t_end)
            served = tracing.load(serve.trace_path)
            setup = dict(tracing.aggregate(tracing.load(build.trace_path)))
            setup.update((k, v) for k, v in tracing.aggregate(served).items()
                         if k == "protocol.load_snapshot")
            metrics = layers.values(tracing.aggregate(served, window),
                                    tracing.aggregate(tracer.spans, window), setup, ratio)
        else:
            metrics = end_to_end

        submit_ms = [v / 1e6 for v in load.samples["submit"]]
        detail = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "smoke": args.smoke,
            "timed_s": (t_end - t_start) / 1e9,
            "setup_s": setups,
            "samples": {k: len(v) for k, v in load.samples.items()},
            "submit_tail_ms": tail(submit_ms),
            "factor_rows_useful_ratio": ratio,
            "end_to_end": {k: v["value"] for k, v in end_to_end.items()},
            "checks": checks,
            "env": environment((steal1 - steal0) / max(1, total1 - total0),
                               statistics.median(load.probes)),
        }
        print(json.dumps({"detail": detail}, default=str))
        print(json.dumps({
            "correct": checks["correct"],
            "attempted": sum(plan.ops().values()),
            "failed": failed,
            "metrics": metrics,
        }))
        return 0 if checks["correct"] else 1
    finally:
        for d in started:
            d.stop()
        shutil.rmtree(rundir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(rundir))
        except OSError:  # another run is using it
            pass


if __name__ == "__main__":
    sys.exit(main())
