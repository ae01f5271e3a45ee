"""Client model recovery: factor rebuild, bias/condensed coefficients,
active and passive refresh, and prediction."""

import numpy as np
from scipy.special import expit

from mtfuse import protocol as proto
from mtfuse.client import (
    Client,
    PrivateData,
    client_predictions,
    predict_client,
    preference_score,
    squash,
)
from mtfuse.kernels import eval_kernel
from mtfuse.linalg import _tri
from mtfuse.offline import (
    Dataset,
    build_factors,
    build_index_structures,
    merge_repeats,
    predictions_grid,
    solve_condensed,
    solve_full_system,
)
from mtfuse.server import ServerEngine, shared_coefficients

from util import (
    ALPHAS,
    make_config,
    make_inputs,
    probe_points,
    random_instance,
    rel_err,
    stream_into_engine,
)


def refreshed_client(engine, task):
    cli = Client(task, engine.cfg)
    return cli, cli.active_refresh(engine)


def recovery_identity_residual(model, state):
    """|| D L^T acheck - H (y + M b) + D M b || -- zero when the model's
    b, acheck were recovered correctly from the state (an engine) whose
    factors and disclosed pair (y, H) they were solved from."""
    n = state.factors.n
    if n == 0:
        return 0.0
    L = state.factors.L.dense()
    D = np.asarray(state.factors.D.values, dtype=float)
    M = np.asarray(state.factors.M, dtype=float)
    H = state.H.to_dense()
    y = np.asarray(state.y_cond.values, dtype=float)
    lhs = D * (L.T @ model.a_cond)
    rhs = H @ (y + M @ model.b) - D * (M @ model.b)
    return float(np.max(np.abs(lhs - rhs)))


def residual_scale(state):
    return max(1.0, float(np.max(np.abs(state.y_cond.values), initial=0.0)))


class TestReconstructFactors:
    def test_empty(self):
        cfg = make_config(0.5, 0.1)
        fac = build_factors([], cfg)
        assert fac.n == 0
        assert fac.L.n == 0 and fac.D.n == 0

    def test_single_input(self):
        rng = np.random.default_rng(0)
        cfg = make_config(0.5, 0.1, d=1)
        (x,) = make_inputs(rng, 1, unit=True)
        fac = build_factors([x], cfg)
        k_self = eval_kernel(cfg.shared, x, x)
        assert fac.L.dense() == np.array([[1.0]])
        assert tuple(fac.D.values) == (k_self,)
        assert np.allclose(fac.M, [[1.0 / k_self]])

    def test_matches_server_bitwise(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            ds, cfg, _ = random_instance(rng, d=1)
            eng = stream_into_engine(ServerEngine(cfg), ds.triples)
            fac = build_factors(eng.inputs, cfg)
            assert fac.L.dense().tobytes() == eng.factors.L.dense().tobytes()
            assert np.asarray(fac.D.values).tobytes() == np.asarray(eng.factors.D.values).tobytes()
            assert np.asarray(fac.M).tobytes() == np.asarray(eng.factors.M).tobytes()


class TestBiasAndAcheck:
    def test_zero_responses(self):
        rng = np.random.default_rng(2)
        ds, cfg, _ = random_instance(rng, d=1, alpha=0.5)
        zeroed = Dataset()
        for t in ds.triples:
            zeroed.add(t.task, t.x, 0.0, t.w)
        eng = stream_into_engine(ServerEngine(cfg), zeroed.triples)
        b, a_cond, _ = shared_coefficients(
            np.asarray(eng.y_cond.values), eng.H, eng.factors, cfg.alpha
        )
        assert np.all(b == 0.0)
        assert np.all(a_cond == 0.0)

    def test_no_bias_reduces_to_plain_solve(self):
        rng = np.random.default_rng(3)
        ds, cfg, _ = random_instance(rng, d=0, alpha=0.5)
        eng = stream_into_engine(ServerEngine(cfg), ds.triples)
        y = np.asarray(eng.y_cond.values)
        b, a_cond, _ = shared_coefficients(y, eng.H, eng.factors, cfg.alpha)
        assert b.shape == (0,)
        L = eng.factors.L.dense()
        D = np.asarray(eng.factors.D.values)
        want = np.linalg.solve((L * D).T, eng.H.to_dense() @ y)
        assert rel_err(a_cond, want) < 1e-10

    def test_acheck_is_group_summed_raw_coefficients(self):
        # The condensed vector folds the one-shot solver's per-observation
        # coefficients onto unique inputs; the client must recover it from
        # the disclosed pieces alone.
        rng = np.random.default_rng(4)
        for _ in range(10):
            ds, cfg, _ = random_instance(rng, d=1)
            full = solve_full_system(ds, cfg)
            st = build_index_structures(merge_repeats(ds))
            want = np.zeros(len(st.unique_inputs))
            for i, tr in enumerate(ds.triples):
                want[st.unique_inputs.slot(tr.x.key)] += full.a_raw[i]
            eng = stream_into_engine(ServerEngine(cfg), ds.triples)
            _, a_cond, _ = shared_coefficients(
                np.asarray(eng.y_cond.values), eng.H, eng.factors, cfg.alpha
            )
            assert rel_err(a_cond, want) < 1e-8


class TestActiveRefresh:
    def test_fresh_server_empty_model(self):
        rng = np.random.default_rng(5)
        cfg = make_config(0.5, 0.1, d=1)
        eng = ServerEngine(cfg)
        cli, model = refreshed_client(eng, 0)
        assert model.epoch == 0
        assert len(model.inputs) == 0
        for x in make_inputs(rng, 4, unit=True):
            assert predict_client(model, cfg, x) == 0.0

    def test_own_data_matches_condensed_solver(self):
        rng = np.random.default_rng(6)
        for alpha in ALPHAS:
            ds, cfg, _ = random_instance(rng, m_max=1, ell_max=5, alpha=alpha,
                                         d=1)
            eng = stream_into_engine(ServerEngine(cfg), ds.triples)
            _, model = refreshed_client(eng, 0)
            coeffs = solve_condensed(ds, cfg)
            st = build_index_structures(merge_repeats(ds))
            xs = probe_points(rng, st.unique_inputs)
            want = predictions_grid(coeffs, cfg, [0], xs)[0]
            got = [predict_client(model, cfg, x) for x in xs]
            assert rel_err(got, want) < 1e-8

    def test_foreign_data_enters_only_through_disclosed(self):
        # Task 0's prediction is a function of (y_cond, H, b, a_cond) and
        # its own a_task; recomputing it from those pieces by hand must
        # agree exactly, even with other tasks' data on the server.
        rng = np.random.default_rng(7)
        ds, cfg, _ = random_instance(rng, m_max=4, alpha=0.5, d=1)
        if len(ds.tasks) < 2:
            ds.add(1, make_inputs(rng, 1, prefix=b"f", unit=True)[0], 0.3, 1.0)
        eng = stream_into_engine(ServerEngine(cfg), ds.triples)
        _, model = refreshed_client(eng, 0)
        spec = cfg.individual_for(0)
        for x in probe_points(rng, eng.inputs):
            shared = sum(
                a * eval_kernel(cfg.shared, xi, x)
                for a, xi in zip(model.a_cond, model.inputs)
            )
            shared += float(np.dot(model.b, cfg.bias.row(x)))
            own = sum(
                a * eval_kernel(spec, model.inputs[s], x)
                for a, s in zip(model.a_task, model.slots)
            )
            want = cfg.alpha * shared + (1.0 - cfg.alpha) * own
            assert abs(predict_client(model, cfg, x) - want) < 1e-12

    def test_unknown_task_gives_empty_coefficients(self):
        rng = np.random.default_rng(8)
        ds, cfg, _ = random_instance(rng, m_max=2, alpha=0.5)
        eng = stream_into_engine(ServerEngine(cfg), ds.triples)
        _, model = refreshed_client(eng, 999)
        assert model.a_task.shape == (0,)
        # still benefits from the shared pool
        assert len(model.a_cond) == eng.n

    def test_refresh_idempotent_same_epoch(self):
        rng = np.random.default_rng(9)
        ds, cfg, _ = random_instance(rng, alpha=0.5)
        eng = stream_into_engine(ServerEngine(cfg), ds.triples)
        cli = Client(0, cfg)
        m1 = cli.active_refresh(eng)
        m2 = cli.active_refresh(eng)
        assert m1 is m2
        # a new client at the same epoch rebuilds bitwise-equal arrays
        m3 = Client(0, cfg).active_refresh(eng)
        assert m3.a_cond.tobytes() == m1.a_cond.tobytes()
        assert m3.a_task.tobytes() == m1.a_task.tobytes()
        assert m3.b.tobytes() == m1.b.tobytes()

    def test_one_model_read_per_refresh(self):
        # the task's model read is all an active refresh needs: a server
        # without get_disclosed serves it, one call per refresh
        rng = np.random.default_rng(24)
        ds, cfg, pool = random_instance(rng, alpha=0.5, d=1)
        eng = stream_into_engine(ServerEngine(cfg), ds.triples)
        task = ds.tasks[0]

        class ModelReadOnly:
            calls = 0

            def task_coefficients(self, task):
                self.calls += 1
                return eng.task_coefficients(task)

        stub = ModelReadOnly()
        cli = Client(task, cfg)
        model = cli.active_refresh(stub)
        assert stub.calls == 1
        assert model.epoch == eng.epoch and len(model.inputs) == eng.n
        assert model.a_task.tobytes() == eng.get_task_coefficients(task).tobytes()
        assert cli.active_refresh(stub) is model and stub.calls == 2
        eng.receive_example(task, pool[0], 1.0, 1.0)
        assert cli.active_refresh(stub).epoch == eng.epoch and stub.calls == 3

    def test_recovery_identity_on_refreshed_models(self):
        rng = np.random.default_rng(10)
        for _ in range(15):
            ds, cfg, _ = random_instance(rng)
            eng = stream_into_engine(ServerEngine(cfg), ds.triples)
            for task in ds.tasks:
                _, model = refreshed_client(eng, task)
                assert (recovery_identity_residual(model, eng)
                        < 1e-8 * residual_scale(eng))


class TestPassiveRefresh:
    def test_zero_private_triples_is_pure_download(self):
        rng = np.random.default_rng(11)
        ds, cfg, _ = random_instance(rng, alpha=0.5, d=1)
        eng = stream_into_engine(ServerEngine(cfg), ds.triples)
        db = eng.get_disclosed()
        model = Client(999, cfg).passive_refresh(db, PrivateData([]))
        assert model.a_task.shape == (0,)
        active = Client(999, cfg).active_refresh(eng)
        assert model.a_cond.tobytes() == active.a_cond.tobytes()
        assert model.b.tobytes() == active.b.tobytes()

    def test_union_equals_active_on_full_data(self):
        # Replaying the private tail locally must reproduce the model an
        # active client gets from a server that ingested the union.
        rng = np.random.default_rng(12)
        for alpha in (0.0, 0.4, 1.0):
            ds, cfg, _ = random_instance(rng, m_max=4, ell_max=8, alpha=alpha,
                                         d=1)
            mine = max(ds.tasks)
            public = [t for t in ds.triples if t.task != mine]
            private = [(t.x, t.y, t.w) for t in ds.triples if t.task == mine]
            eng_public = stream_into_engine(ServerEngine(cfg), public)
            passive = Client(mine, cfg).passive_refresh(
                eng_public.get_disclosed(), PrivateData(private)
            )
            # union server sees the same triples but interleaved by task,
            # so condensed layouts may differ; compare predictions
            eng_union = stream_into_engine(ServerEngine(cfg), ds.triples)
            active = Client(mine, cfg).active_refresh(eng_union)
            st = build_index_structures(merge_repeats(ds))
            xs = probe_points(rng, st.unique_inputs)
            got = [predict_client(passive, cfg, x) for x in xs]
            want = [predict_client(active, cfg, x) for x in xs]
            assert rel_err(got, want) < 1e-8

    def test_task_last_matches_active_bitwise(self):
        # a server that receives the task's triples last holds the inputs
        # and slots a passive refresh builds, bit for bit; its rank-one
        # updates and the passive rank-l correction give one model to
        # rounding
        rng = np.random.default_rng(23)
        for alpha in (0.0, 0.5, 1.0):
            for d in (0, 1):
                for _ in range(4):
                    ds, cfg, _ = random_instance(rng, m_max=4, ell_max=8,
                                                 alpha=alpha, d=d)
                    mine = max(ds.tasks)
                    public = [t for t in ds.triples if t.task != mine]
                    private = [t for t in ds.triples if t.task == mine]
                    eng = stream_into_engine(ServerEngine(cfg), public)
                    passive = Client(mine, cfg).passive_refresh(
                        eng.get_disclosed(),
                        PrivateData([(t.x, t.y, t.w) for t in private]),
                    )
                    active = Client(mine, cfg).active_refresh(
                        stream_into_engine(eng, private)
                    )
                    assert _pool_bytes(passive.inputs) == _pool_bytes(active.inputs)
                    for f in ("b", "a_cond", "a_task", "slots"):
                        got, want = getattr(passive, f), getattr(active, f)
                        assert got.dtype == want.dtype
                        if f == "slots":
                            assert got.tobytes() == want.tobytes(), (alpha, d)
                        else:
                            assert rel_err(got, want) <= 1e-10, (alpha, d, f)

    def test_union_matches_offline_solver(self):
        rng = np.random.default_rng(13)
        ds, cfg, _ = random_instance(rng, m_max=3, ell_max=6, alpha=0.5, d=1)
        mine = max(ds.tasks)
        public = [t for t in ds.triples if t.task != mine]
        private = [(t.x, t.y, t.w) for t in ds.triples if t.task == mine]
        eng = stream_into_engine(ServerEngine(cfg), public)
        model = Client(mine, cfg).passive_refresh(
            eng.get_disclosed(), PrivateData(private)
        )
        coeffs = solve_condensed(ds, cfg)
        st = build_index_structures(merge_repeats(ds))
        xs = probe_points(rng, st.unique_inputs)
        want = predictions_grid(coeffs, cfg, [mine], xs)[0]
        got = [predict_client(model, cfg, x) for x in xs]
        assert rel_err(got, want) < 1e-8

    def test_known_inputs_do_not_grow_pool(self):
        rng = np.random.default_rng(14)
        ds, cfg, _ = random_instance(rng, alpha=0.5)
        eng = stream_into_engine(ServerEngine(cfg), ds.triples)
        db = eng.get_disclosed()
        # private triples revisit inputs the server already disclosed
        private = [(x, 0.7, 1.0) for x in db.inputs[:3]]
        model = Client(999, cfg).passive_refresh(db, PrivateData(private))
        assert len(model.inputs) == len(db.inputs)
        assert model.a_task.shape == (min(3, len(db.inputs)),)

    def test_server_state_untouched(self):
        rng = np.random.default_rng(15)
        ds, cfg, pool = random_instance(rng, alpha=0.5)
        eng = stream_into_engine(ServerEngine(cfg), ds.triples)
        before = eng.get_disclosed()
        dim = pool[0].features.shape[0]
        private = [(make_inputs(rng, 1, dim=dim, prefix=b"p", unit=True)[0],
                    1.0, 1.0)]
        Client(999, cfg).passive_refresh(before, PrivateData(private))
        after = eng.get_disclosed()
        assert after.epoch == before.epoch
        assert len(after.inputs) == len(before.inputs)
        assert np.asarray(after.y_cond).tobytes() == np.asarray(before.y_cond).tobytes()

    def test_replay_never_writes_into_the_server(self):
        # an in-process summary shares the server's factor buffers: a
        # replay that appends an input copies them first, and so never
        # overwrites the row the server appended after the summary
        rng = np.random.default_rng(32)
        for d in (0, 1):
            for _ in range(4):
                ds, cfg, pool = random_instance(rng, alpha=0.5, d=d, n_max=12)
                eng = stream_into_engine(ServerEngine(cfg), ds.triples)
                twin = stream_into_engine(ServerEngine(cfg), ds.triples)
                new = make_inputs(rng, 3, dim=len(pool[0].features), prefix=b"n",
                                  unit=True)
                db = eng.get_disclosed()
                for e in (eng, twin):
                    e.receive_example(0, new[0], 0.5, 1.0)
                before = proto.save_snapshot(eng)
                Client(999, cfg).passive_refresh(db, PrivateData([(new[1], 1.0, 1.0)]))
                assert proto.save_snapshot(eng) == before
                for e in (eng, twin):
                    e.receive_example(1, new[2], -0.5, 1.0)
                assert proto.save_snapshot(eng) == proto.save_snapshot(twin)

    def test_recovery_identity_after_replay(self):
        rng = np.random.default_rng(16)
        ds, cfg, _ = random_instance(rng, alpha=0.6, d=1)
        mine = max(ds.tasks)
        public = [t for t in ds.triples if t.task != mine]
        private = [(t.x, t.y, t.w) for t in ds.triples if t.task == mine]
        eng = stream_into_engine(ServerEngine(cfg), public)
        db = eng.get_disclosed()
        model = Client(mine, cfg).passive_refresh(db, PrivateData(private))
        # the passive model was solved from a local engine replaying the
        # private triples on top of the disclosed snapshot
        replayed = ServerEngine.from_disclosed(db, cfg)
        for x, y, w in private:
            replayed.receive_example(mine, x, y, w)
        assert (recovery_identity_residual(model, replayed)
                < 1e-8 * residual_scale(replayed))


class TestPassiveCorrection:
    """The rank-l passive refresh against its oracle: the replay of the
    private triples through an engine seeded from the same summary."""

    def test_matches_the_replay(self):
        # known inputs, new ones and repeats of both, at every alpha, with
        # and without a bias, on a reader's summary of 28 inputs, whose
        # room holds the 3 new ones.  lam = 0.1: at 1e-3 the replay's own
        # rank-one updates can stray past 1e-10
        rng = np.random.default_rng(71)
        pool = make_inputs(rng, 28, dim=5, unit=True)
        own = make_inputs(rng, 3, dim=5, prefix=b"own", unit=True)
        private = PrivateData([
            (pool[0], 0.3, 1.0), (own[0], -0.7, 2.0), (pool[3], 1.1, 0.5),
            (own[0], 0.1, 0.5), (own[1], 1.2, 1.0), (pool[0], -0.4, 1.5),
            (own[2], 0.2, 1.0), (own[1], 0.9, 2.0), (pool[7], -1.3, 1.0),
        ])
        for alpha in (0.0, 0.5, 1.0):
            for d in (0, 1):
                cfg = make_config(alpha, 0.1, d=d)
                eng = ServerEngine(cfg)
                for i in range(70):
                    x = pool[i] if i < 28 else pool[int(rng.integers(0, 28))]
                    eng.receive_example(int(rng.integers(0, 4)), x, float(rng.normal()),
                                        float(rng.uniform(0.5, 2.0)))
                seen = proto.Seen()
                db = seen.disclosed(proto.decode(proto.encode(
                    proto.disclosed_to_message(eng.get_disclosed()))))
                buf = seen.factors.L._buf
                got = Client(7, cfg).passive_refresh(db, private)
                # the rows the refresh appended, in place past the Seen's
                appended = buf[_tri(28) : _tri(31)].copy()
                assert seen.factors.L._buf is buf

                local = ServerEngine.from_disclosed(db, cfg)
                for x, y, w in private.triples:
                    local.receive_example(7, x, y, w)
                want = local.task_coefficients(7)
                assert got.epoch == db.epoch
                assert _pool_bytes(got.inputs) == _pool_bytes(want.inputs)
                assert got.slots.dtype == want.slots.dtype
                assert got.slots.tobytes() == want.slots.tobytes()
                assert appended.tobytes() == local.factors.L.rows(28).tobytes()
                for f in ("b", "a_cond", "a_task"):
                    assert rel_err(getattr(got, f), getattr(want, f)) <= 1e-10, (alpha, d, f)
                xs = probe_points(rng, pool)
                assert rel_err(client_predictions(got, cfg, xs),
                               client_predictions(want, cfg, xs)) <= 1e-10, (alpha, d)


def _pool_bytes(pool):
    # everything a Pool holds, as bytes
    return pool.keys, pool.lengths.tobytes(), pool.values.tobytes()


def _root(a):
    # the object that owns the memory of an array
    while isinstance(a, np.ndarray) and a.base is not None:
        a = a.base
    return a


class _View:
    # a server whose task_coefficients is one decoded view
    def __init__(self, view):
        self.view = view

    def task_coefficients(self, task):
        return self.view


class TestSharedFeatureRows:
    def test_decoded_rows_shared_never_written(self):
        # a reply's inputs are appended once, to the reader's Seen, whose
        # block the view and the model share; an append to the model's
        # pool, to a view of it, or to a local engine seeded from a
        # decoded summary copies it first
        rng = np.random.default_rng(34)
        for d in (0, 1):
            ds, cfg, pool = random_instance(rng, alpha=0.5, d=d, n_max=12)
            eng = stream_into_engine(ServerEngine(cfg), ds.triples)
            task = ds.triples[0].task
            new = make_inputs(rng, 2, dim=len(pool[0].features), prefix=b"n", unit=True)

            seen = proto.Seen()
            msg = proto.decode(proto.encode(proto.task_coeffs_to_message(
                eng.task_coefficients(task))))
            view = seen.task_coeffs(msg, task)
            block = seen.inputs.prefix()
            assert block.tobytes() == msg.inputs.values.tobytes()
            model = Client(task, cfg).active_refresh(_View(view))
            assert model.inputs is view.inputs
            assert np.shares_memory(model.inputs.prefix(), block)
            before = block.tobytes()
            grown = model.inputs.view()
            grown.append(new[0])
            assert block.tobytes() == before
            assert not np.shares_memory(grown.prefix(), block)
            assert np.shares_memory(model.inputs.prefix(), block)
            assert len(model.inputs) == len(grown) - 1
            model.inputs.append(new[1])
            assert block.tobytes() == before
            assert not np.shares_memory(model.inputs.prefix(), block)

            # the summary repeats the inputs held, and appends none
            reply = proto.decode(proto.encode(proto.disclosed_to_message(eng.get_disclosed())))
            db = seen.disclosed(reply)
            assert seen.inputs.prefix() is not None
            assert np.shares_memory(seen.inputs.prefix(), block)
            local = ServerEngine.from_disclosed(db, cfg)
            other = ServerEngine.from_disclosed(db, cfg)
            assert np.shares_memory(local.inputs.prefix(), block)
            local.receive_example(task, new[1], 0.5, 1.0)
            assert block.tobytes() == before
            assert not np.shares_memory(local.inputs.prefix(), block)
            assert len(other.inputs) == len(db.inputs) == len(local.inputs) - 1
            assert other.inputs.slot(new[1].key) is None and other.H == db.H
            assert np.shares_memory(other.inputs.prefix(), block)

            # a passive model shares the block until a private input is
            # appended; it holds no array of the payload (H is a view of it)
            cli = Client(999, cfg)
            kept = cli.passive_refresh(db, PrivateData([]))
            assert np.shares_memory(kept.inputs.prefix(), block)
            grown = cli.passive_refresh(db, PrivateData([(new[0], 1.0, 1.0)]))
            assert not np.shares_memory(grown.inputs.prefix(), block)
            assert block.tobytes() == before and len(seen.inputs) == len(db.inputs)
            assert not isinstance(_root(db.H.packed), np.ndarray)
            for m in (kept, grown):
                arrays = (m.b, m.a_cond, m.a_task, m.inputs.values, m.inputs.lengths,
                          m.inputs.prefix())
                assert all(isinstance(_root(a), np.ndarray) for a in arrays)


class TestPredict:
    def test_alpha_one_predictions_task_independent(self):
        rng = np.random.default_rng(17)
        ds, cfg, _ = random_instance(rng, m_max=4, alpha=1.0, d=1)
        eng = stream_into_engine(ServerEngine(cfg), ds.triples)
        xs = probe_points(rng, eng.inputs)
        models = [refreshed_client(eng, t)[1] for t in ds.tasks]
        base = [predict_client(models[0], cfg, x) for x in xs]
        for model in models[1:]:
            got = [predict_client(model, cfg, x) for x in xs]
            assert rel_err(got, base) < 1e-12

    def test_catalog_call_matches_one_point_calls(self):
        # one call over many points sums in gemv order, one point at a
        # time in another, so the two agree to rounding
        rng = np.random.default_rng(24)
        for alpha in ALPHAS:
            ds, cfg, pool = random_instance(rng, m_max=4, alpha=alpha)
            eng = stream_into_engine(ServerEngine(cfg), ds.triples)
            xs = probe_points(rng, pool)
            for task in (max(ds.tasks), 999):
                _, model = refreshed_client(eng, task)
                got = client_predictions(model, cfg, xs)
                want = [predict_client(model, cfg, x) for x in xs]
                assert got.shape == (len(xs),)
                assert rel_err(got, want) < 1e-12

    def test_training_point_recovery_small_ridge(self):
        # single task, tiny ridge: predictions at the training inputs
        # come close to the responses
        rng = np.random.default_rng(18)
        cfg = make_config(0.5, 1e-6, d=0)
        xs = make_inputs(rng, 6, unit=True)
        ys = rng.standard_normal(6)
        eng = ServerEngine(cfg)
        for x, y in zip(xs, ys):
            eng.receive_example(0, x, float(y), 1.0)
        _, model = refreshed_client(eng, 0)
        got = [predict_client(model, cfg, x) for x in xs]
        assert rel_err(got, ys) < 1e-3


class TestPreferenceScore:
    def test_zero_prediction_scores_half(self):
        cfg = make_config(0.5, 0.1)
        eng = ServerEngine(cfg)
        _, model = refreshed_client(eng, 0)
        x = make_inputs(np.random.default_rng(19), 1, unit=True)[0]
        assert preference_score(model, cfg, x) == 0.5

    def test_squash_values(self):
        # the squash is s = 1 / (1 + exp(-f/2)); spot-check f = 2 and
        # agreement with the model's own prediction
        cfg = make_config(0.0, 1e-6)
        rng = np.random.default_rng(20)
        x = make_inputs(rng, 1, unit=True)[0]
        eng = ServerEngine(cfg)
        eng.receive_example(0, x, 2.0, 1.0)
        _, model = refreshed_client(eng, 0)
        fhat = predict_client(model, cfg, x)
        score = preference_score(model, cfg, x)
        assert abs(score - float(expit(fhat / 2.0))) < 1e-15
        assert abs(float(expit(2.0 / 2.0)) - 0.7310585786300049) < 1e-12

    def test_squash_edges_match_expit_without_a_warning(self):
        # exp(800) overflows to inf, which gives the exact 0; the errstate
        # keeps numpy's overflow warning out, which this suite makes an error
        f = np.array([1600.0, -1600.0, np.inf, -np.inf, np.nan])
        assert np.array_equal(squash(f), expit(f / 2.0), equal_nan=True)
        for v in f:
            assert np.array_equal(squash(v), expit(v / 2.0), equal_nan=True)

    def test_monotone_in_prediction(self):
        rng = np.random.default_rng(21)
        ds, cfg, _ = random_instance(rng, alpha=0.5)
        eng = stream_into_engine(ServerEngine(cfg), ds.triples)
        _, model = refreshed_client(eng, 0)
        xs = probe_points(rng, eng.inputs, n_fresh=6)
        pairs = sorted(
            (predict_client(model, cfg, x), preference_score(model, cfg, x))
            for x in xs
        )
        scores = [s for _, s in pairs]
        assert all(a <= b for a, b in zip(scores, scores[1:]))
        assert all(0.0 < s < 1.0 for s in scores)
