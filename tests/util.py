"""Shared helpers for the test suite.

The oracles here are written independently of the solver internals they
check: `naive_predictions` assembles and solves the raw dense system
straight from the model definition, and `single_task_ridge` is a
minimal one-kernel ridge fit.  Both touch only the kernels module and
numpy.
"""

import numpy as np

from mtfuse.client import Client, predict_client
from mtfuse.errors import UnknownTask
from mtfuse.kernels import (
    BiasBasis,
    InputPoint,
    KernelSpec,
    MixedEffectConfig,
    Pool,
    eval_kernel,
    eval_mixed,
    kernel_row,
)
from mtfuse import protocol as proto
from mtfuse.offline import Dataset
from mtfuse.server import (
    CASE_NEW_INPUT,
    CASE_REPEAT_GLOBAL,
    CASE_REPEAT_TASK,
    shared_coefficients,
)

ALPHAS = (0.0, 0.25, 0.5, 0.75, 1.0)
LAMBDAS = (1e-3, 1e-1, 1.0)


def make_inputs(rng, n, dim=4, prefix=b"x", unit=False):
    """n InputPoints with distinct keys and random feature vectors."""
    feats = rng.normal(size=(n, dim))
    if unit:
        feats /= np.linalg.norm(feats, axis=1)[:, None]
    return [
        InputPoint(b"%s-%04d" % (prefix, i), feats[i]) for i in range(n)
    ]


def make_config(alpha, lam, d=0):
    bias = BiasBasis.constant() if d else BiasBasis.empty()
    return MixedEffectConfig(
        alpha=alpha,
        lam=lam,
        shared=KernelSpec.rbf_tags(),
        individual=KernelSpec.linear_tags(),
        bias=bias,
    )


def random_instance(rng, m_max=10, ell_max=20, n_max=30, d=None,
                    alpha=None, lam=None, repeat_prob=0.3):
    """A random dataset plus config, sized per the core-oracle family.

    Features are drawn on the unit sphere (the exponential kernel's
    documented domain); unconstrained gaussian features produce Gram
    entries up to e^{|z|^2} ~ 1e5 whose conditioning drowns every
    solver's agreement in roundoff.
    """
    m = int(rng.integers(1, m_max + 1))
    pool = make_inputs(rng, int(rng.integers(2, n_max + 1)),
                       dim=int(rng.integers(3, 7)), unit=True)
    if d is None:
        d = int(rng.integers(0, 2))
    alpha = float(rng.choice(ALPHAS)) if alpha is None else alpha
    lam = float(rng.choice(LAMBDAS)) if lam is None else lam
    cfg = make_config(alpha, lam, d)
    ds = Dataset()
    for task in range(m):
        ell = int(rng.integers(1, ell_max + 1))
        last = None
        for _ in range(ell):
            if last is not None and rng.random() < repeat_prob:
                x = last  # guaranteed repeated (task, input) pair
            else:
                x = pool[int(rng.integers(0, len(pool)))]
            last = x
            ds.add(task, x, float(rng.normal()), float(rng.uniform(0.5, 2.0)))
    return ds, cfg, pool


def probe_points(rng, pool, n_fresh=3, dim=None):
    """A mix of seen inputs and fresh ones to predict at."""
    dim = dim if dim is not None else pool[0].features.shape[0]
    fresh = make_inputs(rng, n_fresh, dim=dim, prefix=b"probe", unit=True)
    take = min(len(pool), 4)
    return list(pool[:take]) + fresh


def rel_err(got, want):
    """max_i |got - want| / max(1, |want|); the suite's agreement metric."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.size == 0:
        return 0.0
    return float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))


# ===== independent oracles ==============================================


def naive_predictions(ds, cfg, tasks, xs):
    """Dense solve of the raw saddle system, then first-form prediction.

    Everything is assembled entry by entry from the model definition:
    K_ij = mixed kernel on (x_i, t_i), (x_j, t_j); the bias block is
    unpenalized; with alpha = 0 the bias is dropped.
    """
    triples = ds.triples
    ell = len(triples)
    d = cfg.bias_dim if cfg.alpha > 0.0 else 0
    kmat = np.empty((ell, ell))
    for i, ti in enumerate(triples):
        for j, tj in enumerate(triples):
            kmat[i, j] = eval_mixed(cfg, ti.x, ti.task, tj.x, tj.task)
    wdiag = np.diag([cfg.lam * t.w for t in triples])
    y = np.array([t.y for t in triples])
    if d:
        psi = np.vstack([cfg.bias.row(t.x) for t in triples])
        top = np.hstack([kmat + wdiag, psi])
        bot = np.hstack([psi.T, np.zeros((d, d))])
        sol = np.linalg.solve(np.vstack([top, bot]), np.concatenate([y, np.zeros(d)]))
        a, b = sol[:ell], sol[ell:] / cfg.alpha
    else:
        a = np.linalg.solve(kmat + wdiag, y)
        b = np.zeros(0)
    out = np.empty((len(tasks), len(xs)))
    for r, task in enumerate(tasks):
        for c, x in enumerate(xs):
            val = sum(
                ai * eval_mixed(cfg, t.x, t.task, x, task)
                for ai, t in zip(a, triples)
            )
            if d:
                val += cfg.alpha * float(np.dot(b, cfg.bias.row(x)))
            out[r, c] = val
    return out


def single_task_ridge(triples, kspec, lam):
    """Independent one-kernel ridge fit; returns a predict(x) closure."""
    ell = len(triples)
    kmat = np.empty((ell, ell))
    for i, ti in enumerate(triples):
        for j, tj in enumerate(triples):
            kmat[i, j] = eval_kernel(kspec, ti.x, tj.x)
    wdiag = np.diag([lam * t.w for t in triples])
    y = np.array([t.y for t in triples])
    a = np.linalg.solve(kmat + wdiag, y)

    def predict(x):
        return float(sum(ai * eval_kernel(kspec, t.x, x) for ai, t in zip(a, triples)))

    return predict


def pooled_saddle(triples, kspec, lam, bias):
    """Independent pooled fit (one kernel + unpenalized bias block)."""
    ell, d = len(triples), bias.dim
    kmat = np.empty((ell, ell))
    for i, ti in enumerate(triples):
        for j, tj in enumerate(triples):
            kmat[i, j] = eval_kernel(kspec, ti.x, tj.x)
    wdiag = np.diag([lam * t.w for t in triples])
    y = np.array([t.y for t in triples])
    if d:
        psi = np.vstack([bias.row(t.x) for t in triples])
        top = np.hstack([kmat + wdiag, psi])
        bot = np.hstack([psi.T, np.zeros((d, d))])
        sol = np.linalg.solve(np.vstack([top, bot]), np.concatenate([y, np.zeros(d)]))
        a, b = sol[:ell], sol[ell:]
    else:
        a, b = np.linalg.solve(kmat + wdiag, y), np.zeros(0)

    def predict(x):
        val = sum(ai * eval_kernel(kspec, t.x, x) for ai, t in zip(a, triples))
        if d:
            val += float(np.dot(b, bias.row(x)))
        return float(val)

    return predict


# ===== engine plumbing ===================================================


def stream_into_engine(engine, triples, order=None):
    for i in (order if order is not None else range(len(triples))):
        t = triples[i]
        engine.receive_example(t.task, t.x, t.y, t.w)
    return engine


def engine_state_predictions(engine, cfg, tasks, xs):
    """Predictions straight from engine state, without a client rebuild.

    Same numbers as the client path, but reuses the engine's own factors,
    so per-prefix streaming checks stay quadratic instead of
    refactorizing from scratch every step.
    """
    out = np.zeros((len(tasks), len(xs)))
    n = engine.n
    b = a_cond = None
    if n and cfg.alpha > 0.0:
        b, a_cond, _ = shared_coefficients(
            np.asarray(engine.y_cond.values, dtype=float),
            engine.H,
            engine.factors,
            cfg.alpha,
        )
    for r, task in enumerate(tasks):
        try:
            a = engine.get_task_coefficients(task)
            slots = list(engine.tasks[task].slots)
        except UnknownTask:
            a, slots = np.zeros(0), []
        spec = cfg.individual_for(task)
        own = [engine.inputs[s] for s in slots]
        for c, x in enumerate(xs):
            # kernel_row entries equal eval_kernel's pair values bit for bit
            val = 0.0
            if a_cond is not None:
                sh = sum(
                    ai * float(ki)
                    for ai, ki in zip(a_cond, kernel_row(cfg.shared, x, engine.inputs))
                )
                if cfg.bias_dim:
                    sh += float(np.dot(b, cfg.bias.row(x)))
                val += cfg.alpha * sh
            if cfg.alpha < 1.0 and len(a):
                val += (1.0 - cfg.alpha) * sum(
                    ai * float(ki) for ai, ki in zip(a, kernel_row(spec, x, own))
                )
            out[r, c] = val
    return out


def engine_predictions(engine, cfg, tasks, xs):
    """Predictions recovered the client way, one active client per task."""
    out = np.empty((len(tasks), len(xs)))
    for r, task in enumerate(tasks):
        model = Client(task, cfg).active_refresh(engine)
        out[r] = [predict_client(model, cfg, x) for x in xs]
    return out


# ===== wire-message fuzzing =============================================


def _rand_bytes(rng, max_len=12):
    n = int(rng.integers(0, max_len + 1))
    return bytes(rng.integers(0, 256, size=n, dtype=np.uint8))


def _rand_kernel_spec(rng):
    roll = rng.random()
    if roll < 0.4:
        return KernelSpec.rbf_tags()
    if roll < 0.8:
        return KernelSpec.linear_tags()
    n = int(rng.integers(1, 5))
    keys = [b"k%d-" % i + _rand_bytes(rng, 4) for i in range(n)]
    a = rng.standard_normal((n, n))
    return KernelSpec.lookup(keys, a + a.T)


def _rand_text(rng, max_len=20):
    # stay below the surrogate range so utf-8 round-trips cleanly
    n = int(rng.integers(0, max_len + 1))
    return "".join(chr(int(c)) for c in rng.integers(32, 0x2FFF, size=n))


def pool_of(keys, feats):
    """The Pool of inputs with these keys and feature vectors (None for
    an input without features)."""
    return Pool([InputPoint(k, f) for k, f in zip(keys, feats)])


def random_message(rng):
    """One arbitrary well-formed wire message, for round-trip fuzzing."""
    kind = int(rng.integers(0, 9))
    if kind == 0:
        feats = (None if rng.random() < 0.3
                 else rng.standard_normal(int(rng.integers(0, 6))))
        return proto.SubmitExample(
            task=int(rng.integers(-3, 50)),
            token=_rand_bytes(rng),
            key=_rand_bytes(rng),
            features=feats,
            y=float(rng.normal()),
            w=float(rng.uniform(0.1, 5.0)),
        )
    if kind == 1:
        case = (CASE_REPEAT_TASK, CASE_REPEAT_GLOBAL, CASE_NEW_INPUT)[
            int(rng.integers(0, 3))
        ]
        return proto.Ack(epoch=int(rng.integers(0, 1 << 40)), case=case)
    # since, and what it sizes, is drawn from a generator spawned from
    # rng, which does not advance rng: the messages that have no since
    # keep the bytes they had before it
    if kind == 2:
        (extra,) = rng.spawn(1)
        return proto.GetDisclosed(since=int(extra.integers(0, 1 << 32)))
    if kind == 3:
        (extra,) = rng.spawn(1)
        since = int(extra.integers(0, 4))
        n = int(rng.integers(0, 6))
        keys = tuple(b"in%d-" % i + _rand_bytes(rng, 4) for i in range(n))
        feats = tuple(
            (None if rng.random() < 0.3
             else rng.standard_normal(int(rng.integers(0, 5))))
            for _ in range(n)
        )
        epoch = int(rng.integers(0, 1000))
        y_cond = rng.standard_normal(n)
        h_packed = rng.standard_normal(n * (n + 1) // 2)
        total, width = since + n, int(extra.integers(0, 3))
        return proto.Disclosed(
            epoch=epoch,
            since=since,
            inputs=pool_of(keys, feats),
            y_cond=np.append(extra.standard_normal(since), y_cond),
            h_packed=np.append(
                extra.standard_normal(total * (total + 1) // 2 - len(h_packed)), h_packed),
            # lower keeps the count of wire version 4 (strict rows, no
            # slots), so each message keeps its version-4 bytes but the
            # version byte; it is codec fuzz, not an L that Seen.disclosed
            # takes, and the version-5 layout of L is pinned by the snapshots
            lower=extra.standard_normal((total * (total - 1) - since * (since - 1)) // 2),
            d=extra.standard_normal(n),
            m=extra.standard_normal(n * width),
        )
    if kind == 4:
        task, token = int(rng.integers(-3, 50)), _rand_bytes(rng)
        (extra,) = rng.spawn(1)
        return proto.GetTaskCoeffs(task=task, token=token,
                                   since=int(extra.integers(0, 1 << 32)))
    if kind == 5:
        # the epoch, a and the task's own keys are drawn from rng, the
        # rest from a spawned generator, which does not advance rng: the
        # other messages of a stream keep their bytes whatever is drawn here
        ell = int(rng.integers(0, 6))
        epoch = int(rng.integers(0, 1000))
        a = rng.standard_normal(ell)
        keys = tuple(b"c%d-" % i + _rand_bytes(rng, 4) for i in range(ell))
        (more,) = rng.spawn(1)
        since = int(more.integers(0, 4))
        keys += tuple(b"p%d-" % i + _rand_bytes(more, 4)
                      for i in range(int(more.integers(0, 3))))
        n = len(keys)
        feats = tuple(
            (None if more.random() < 0.3
             else more.standard_normal(int(more.integers(0, 5))))
            for _ in range(n)
        )
        # a third of these pools have D features on every input (the
        # feature block), drawn from a second generator spawned from more
        (block,) = more.spawn(1)
        if block.random() < 1 / 3:
            feats = tuple(block.standard_normal((n, int(block.integers(0, 5)))))
        return proto.TaskCoeffs(
            epoch=epoch,
            since=since,
            inputs=pool_of(keys, feats),
            b=more.standard_normal(int(more.integers(0, 3))),
            a_cond=more.standard_normal(since + n),
            a=a,
            slots=tuple(int(s) for s in more.permutation(since + n)[:ell]),
        )
    if kind == 6:
        return proto.GetConfig()
    if kind == 7:
        return proto.Config(
            alpha=float(rng.uniform(0.0, 1.0)),
            lam=float(rng.uniform(1e-6, 10.0)),
            shared=_rand_kernel_spec(rng),
            individual=_rand_kernel_spec(rng),
            bias_kind=(BiasBasis.NONE, BiasBasis.CONSTANT)[
                int(rng.integers(0, 2))
            ],
        )
    return proto.Error(code=int(rng.integers(1, 12)), detail=_rand_text(rng))
