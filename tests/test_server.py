"""Incremental engine: case dispatch, update formulas, state invariants."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mtfuse import kernels
from mtfuse import protocol as proto
from mtfuse import server
from mtfuse.errors import DegenerateGram, InvalidInput, NonPositiveWeight, UnknownTask
from mtfuse.kernels import InputPoint, KernelSpec, MixedEffectConfig, eval_kernel, kernel_matrix
from mtfuse.offline import (
    Dataset,
    Triple,
    build_factors,
    build_index_structures,
    merge_repeats,
    predictions_grid,
    solve_condensed,
)
from mtfuse.protocol import save_snapshot
from mtfuse.server import (
    CASE_NEW_INPUT,
    CASE_REPEAT_GLOBAL,
    CASE_REPEAT_TASK,
    ServerEngine,
)

from util import (
    engine_predictions,
    make_config,
    make_inputs,
    probe_points,
    random_instance,
    rel_err,
    stream_into_engine,
)


def batch_state(ds, cfg):
    """Dense oracle for the engine's internal state on a dataset.

    Computes (y_cond, H, per-task R) straight from the definitions,
    using the dataset's own first-appearance orderings.
    """
    merged = merge_repeats(ds)
    ms = build_index_structures(merged)
    n = len(ms.unique_inputs)
    factors = build_factors(ms.unique_inputs, cfg)
    ldense = factors.L.dense()
    dvals = factors.D.values
    r_blocks = {}
    scatter = np.zeros((n, n))
    y_big = np.zeros(n)
    ys = {t: [] for t in merged.tasks}
    ws = {t: [] for t in merged.tasks}
    for tr in merged.triples:
        ys[tr.task].append(tr.y)
        ws[tr.task].append(tr.w)
    for task in merged.tasks:
        slots = ms.task_slots[task]
        kt = kernel_matrix(
            [ms.unique_inputs[s] for s in slots],
            [ms.unique_inputs[s] for s in slots],
            cfg.individual_for(task),
        )
        block = (1.0 - cfg.alpha) * kt + cfg.lam * np.diag(ws[task])
        r = np.linalg.inv(block)
        r_blocks[task] = r
        p = np.zeros((len(slots), n))
        for i, s in enumerate(slots):
            p[i, s] = 1.0
        scatter += p.T @ r @ p
        y_big += p.T @ r @ np.asarray(ys[task])
    y_cond = ldense.T @ y_big
    h = np.linalg.inv(np.diag(1.0 / dvals) + cfg.alpha * ldense.T @ scatter @ ldense)
    return y_cond, h, r_blocks, ms


class TestCaseDispatch:
    def test_first_triple_scalar_state(self):
        rng = np.random.default_rng(0)
        x = make_inputs(rng, 1, unit=True)[0]
        cfg = make_config(0.3, 0.5, d=1)
        eng = ServerEngine(cfg)
        receipt = eng.receive_example(4, x, 2.0, 1.5)
        assert receipt.case == CASE_NEW_INPUT
        assert receipt.epoch == 1 and eng.epoch == 1
        assert eng.n == 1
        kbar = eval_kernel(cfg.shared, x, x)
        ktil = eval_kernel(cfg.individual_for(4), x, x)
        r11 = 1.0 / ((1.0 - cfg.alpha) * ktil + cfg.lam * 1.5)
        st = eng.tasks[4]
        assert_allclose(st.R.to_dense(), [[r11]], rtol=1e-14, atol=0)
        assert_allclose(eng.factors.D.values, [kbar], rtol=0, atol=0)
        assert eng.factors.L.n == 1
        assert_allclose(eng.factors.M, [[1.0 / kbar]], rtol=0, atol=1e-15)
        # y_cond = L^T P^T R y collapses to R11 * y for a single input
        assert_allclose(eng.y_cond.values, [r11 * 2.0], rtol=1e-14, atol=0)

    def test_repeat_same_task_merges(self):
        rng = np.random.default_rng(1)
        x = make_inputs(rng, 1, unit=True)[0]
        eng = ServerEngine(make_config(0.3, 0.5, d=0))
        eng.receive_example(0, x, 1.0, 1.0)
        receipt = eng.receive_example(0, x, 3.0, 1.0)
        assert receipt.case == CASE_REPEAT_TASK
        st = eng.tasks[0]
        assert_allclose(st.w.values, [0.5], rtol=0, atol=1e-15)
        assert_allclose(st.y.values, [2.0], rtol=0, atol=1e-15)
        assert eng.n == 1  # no growth

    def test_known_input_new_task(self):
        rng = np.random.default_rng(2)
        x = make_inputs(rng, 1, unit=True)[0]
        eng = ServerEngine(make_config(0.3, 0.5, d=0))
        eng.receive_example(0, x, 1.0, 1.0)
        receipt = eng.receive_example(1, x, -1.0, 2.0)
        assert receipt.case == CASE_REPEAT_GLOBAL
        assert eng.n == 1
        assert set(eng.tasks) == {0, 1}

    def test_new_input_extends_factors(self):
        rng = np.random.default_rng(3)
        xs = make_inputs(rng, 2, unit=True)
        eng = ServerEngine(make_config(0.3, 0.5, d=1))
        eng.receive_example(0, xs[0], 1.0, 1.0)
        receipt = eng.receive_example(0, xs[1], 2.0, 1.0)
        assert receipt.case == CASE_NEW_INPUT
        assert eng.n == 2
        assert [x.key for x in eng.inputs] == [xs[0].key, xs[1].key]

    def test_alpha_one_task_block_is_diagonal(self):
        rng = np.random.default_rng(4)
        xs = make_inputs(rng, 3, unit=True)
        cfg = make_config(1.0, 0.7, d=0)
        eng = ServerEngine(cfg)
        ws = [1.0, 2.0, 0.5]
        for x, w in zip(xs, ws):
            eng.receive_example(0, x, 1.0, w)
        want = np.diag([1.0 / (cfg.lam * w) for w in ws])
        assert_allclose(eng.tasks[0].R.to_dense(), want, rtol=1e-14, atol=1e-16)


class TestUpdateFormulas:
    def test_state_matches_batch_oracle(self):
        rng = np.random.default_rng(5)
        for alpha in (0.0, 0.3, 1.0):
            pool = make_inputs(rng, 6, unit=True)
            cfg = make_config(alpha, 0.2, d=1)
            ds = Dataset()
            for _ in range(30):
                ds.add(int(rng.integers(0, 3)),
                       pool[int(rng.integers(0, 6))],
                       float(rng.normal()), float(rng.uniform(0.5, 2.0)))
            eng = stream_into_engine(ServerEngine(cfg), ds.triples)
            y_cond, h, r_blocks, ms = batch_state(ds, cfg)
            assert rel_err(eng.y_cond.values, y_cond) < 1e-8
            assert rel_err(eng.H.to_dense(), h) < 1e-8
            for task, r in r_blocks.items():
                assert rel_err(eng.tasks[task].R.to_dense(), r) < 1e-8

    def test_task_block_inverse_invariant(self):
        rng = np.random.default_rng(6)
        ds, cfg, _ = random_instance(rng, m_max=4, ell_max=12, n_max=8,
                                     repeat_prob=0.5)
        eng = stream_into_engine(ServerEngine(cfg), ds.triples)
        for task, st in eng.tasks.items():
            pts = [eng.inputs[s] for s in st.slots]
            kt = kernel_matrix(pts, pts, cfg.individual_for(task))
            block = (1.0 - cfg.alpha) * kt + cfg.lam * np.diag(st.w.values)
            assert rel_err(st.R.to_dense() @ block, np.eye(len(pts))) < 1e-8

    def test_weights_strictly_decrease_under_merges(self):
        rng = np.random.default_rng(7)
        x = make_inputs(rng, 1, unit=True)[0]
        eng = ServerEngine(make_config(0.5, 1.0, d=0))
        seen = []
        for k in range(5):
            eng.receive_example(0, x, float(rng.normal()), 1.0)
            seen.append(eng.tasks[0].w.values[0])
        assert all(b < a for a, b in zip(seen, seen[1:]))
        assert_allclose(seen[-1], 1.0 / 5.0, rtol=0, atol=1e-15)

    def test_batch_merge_is_the_streams_bit_for_bit(self):
        # up to four repeats per (task, input), in a shuffled arrival order
        rng = np.random.default_rng(30)
        pool = make_inputs(rng, 5, unit=True)
        ds = Dataset()
        arrivals = [(task, i) for task in range(3) for i in range(5)
                    for _ in range(int(rng.integers(1, 5)))]
        for p in rng.permutation(len(arrivals)):
            task, i = arrivals[p]
            ds.add(task, pool[i], float(rng.normal()), float(rng.choice([0.5, 1.0, 2.0, 3.0])))
        eng = stream_into_engine(ServerEngine(make_config(0.5, 0.1, d=1)), ds.triples)
        merged = merge_repeats(ds)
        assert len(merged) < len(ds)
        for task, st in eng.tasks.items():
            want = [tr for tr in merged.triples if tr.task == task]
            assert [eng.inputs[s].key for s in st.slots] == [tr.x.key for tr in want]
            assert st.y.values.tobytes() == np.array([tr.y for tr in want]).tobytes()
            assert st.w.values.tobytes() == np.array([tr.w for tr in want]).tobytes()

    def test_bias_compatibility_after_streaming(self):
        rng = np.random.default_rng(8)
        ds, _, _ = random_instance(rng, m_max=3, ell_max=8, n_max=6)
        cfg = make_config(0.4, 0.3, d=1)
        eng = stream_into_engine(ServerEngine(cfg), ds.triples)
        lhs = eng.factors.L.dense() @ np.diag(eng.factors.D.values) @ eng.factors.M
        psi = np.ones((eng.n, 1))
        assert_allclose(lhs, psi, rtol=0, atol=1e-9)


class TestMasterInvariant:
    def test_every_prefix_matches_condensed_solver(self):
        rng = np.random.default_rng(9)
        for alpha in (0.0, 0.3, 1.0):
            ds, _, pool = random_instance(rng, m_max=3, ell_max=8, n_max=6,
                                          repeat_prob=0.4)
            cfg = make_config(alpha, 0.5, d=1)
            xs = probe_points(rng, pool)
            eng = ServerEngine(cfg)
            for k, tr in enumerate(ds.triples, start=1):
                eng.receive_example(tr.task, tr.x, tr.y, tr.w)
                prefix = Dataset()
                for p in ds.triples[:k]:
                    prefix.add(p.task, p.x, p.y, p.w)
                want = predictions_grid(
                    solve_condensed(prefix, cfg), cfg, prefix.tasks, xs
                )
                got = engine_predictions(eng, cfg, prefix.tasks, xs)
                assert rel_err(got, want) < 1e-8

    def test_order_robustness(self):
        rng = np.random.default_rng(10)
        ds, cfg, pool = random_instance(rng, m_max=4, ell_max=10, n_max=8,
                                        repeat_prob=0.4)
        xs = probe_points(rng, pool)
        eng1 = stream_into_engine(ServerEngine(cfg), ds.triples)
        order = rng.permutation(len(ds.triples))
        eng2 = stream_into_engine(ServerEngine(cfg), ds.triples, order)
        got1 = engine_predictions(eng1, cfg, ds.tasks, xs)
        got2 = engine_predictions(eng2, cfg, ds.tasks, xs)
        assert rel_err(got2, got1) < 1e-8


class TestTransactionality:
    def _state_fingerprint(self, eng):
        return (
            eng.epoch,
            tuple(x.key for x in eng.inputs),
            eng.y_cond.values.tobytes(),
            eng.H.packed.tobytes(),
            eng.factors.D.values.tobytes(),
            eng.factors.M.tobytes(),
            {
                t: (tuple(st.slots), st.y.values.tobytes(),
                    st.w.values.tobytes(), st.R.packed.tobytes())
                for t, st in eng.tasks.items()
            },
        )

    def test_bad_weight_leaves_state_bitwise(self):
        rng = np.random.default_rng(11)
        ds, cfg, pool = random_instance(rng, m_max=3, ell_max=6, n_max=5)
        eng = stream_into_engine(ServerEngine(cfg), ds.triples)
        before = self._state_fingerprint(eng)
        with pytest.raises(NonPositiveWeight):
            eng.receive_example(0, pool[0], 1.0, -2.0)
        assert self._state_fingerprint(eng) == before
        # non-finite features of a new input
        dim = pool[0].features.shape[0]
        for bad in (np.nan, np.inf, -np.inf):
            feats = np.zeros(dim)
            feats[0] = bad
            with pytest.raises(InvalidInput, match="finite"):
                eng.receive_example(0, InputPoint(b"bad", feats), 1.0, 1.0)
            assert self._state_fingerprint(eng) == before
        fresh = make_inputs(rng, 1, dim=dim, prefix=b"fresh", unit=True)[0]
        assert eng.receive_example(0, fresh, 1.0, 1.0).case == CASE_NEW_INPUT

    def test_nonfinite_response_refused_as_invalid_input(self):
        rng = np.random.default_rng(23)
        ds, cfg, pool = random_instance(rng, m_max=3, ell_max=6, n_max=5)
        eng = stream_into_engine(ServerEngine(cfg), ds.triples)
        before = save_snapshot(eng)
        fresh = make_inputs(rng, 1, dim=len(pool[0].features), prefix=b"f", unit=True)[0]
        task = ds.triples[0].task
        # a new input, an input new to the task and a repeat of the pair
        for x, t in ((fresh, task), (ds.triples[0].x, 99), (ds.triples[0].x, task)):
            for y in (np.nan, np.inf, -np.inf):
                with pytest.raises(InvalidInput, match="response must be finite"):
                    eng.receive_example(t, x, y, 1.0)
                assert save_snapshot(eng) == before
        assert proto.exception_to_code(InvalidInput("x")) == proto.ERR_INVALID_INPUT

    @pytest.mark.parametrize("w", [1e155, 1e-200])
    def test_merge_to_a_refused_weight_refused_and_snapshot_kept(self, w):
        # two observations of one (task, input) whose merged weight
        # w * w / (w + w) overflows to inf or underflows to 0
        xs = make_inputs(np.random.default_rng(24), 3, dim=4, unit=True)
        eng = ServerEngine(make_config(0.5, 0.1, d=1))
        for t, x in enumerate(xs):
            eng.receive_example(t, x, 1.0, 1.0)
        eng.receive_example(0, xs[1], 1.0, w)
        before = save_snapshot(eng)
        with pytest.raises(NonPositiveWeight, match="weight must be finite and > 0"):
            eng.receive_example(0, xs[1], 1.0, w)
        assert save_snapshot(eng) == before
        assert eng.receive_example(0, xs[2], 0.5, 1.0).case == CASE_REPEAT_GLOBAL
        db = eng.get_disclosed()
        assert np.isfinite(db.y_cond).all() and np.isfinite(db.H.packed).all()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("case", [CASE_NEW_INPUT, CASE_REPEAT_GLOBAL])
    def test_response_overflow_refused_and_snapshot_kept(self, case):
        # y = 1.7e308 is finite, but the y_cond step it would make is not
        xs = make_inputs(np.random.default_rng(24), 4, dim=4, unit=True)
        eng = ServerEngine(make_config(0.5, 0.1, d=1))
        for t, x in enumerate(xs[:3]):
            eng.receive_example(t, x, 1.0, 1.0)
        before = save_snapshot(eng)
        x = xs[3] if case == CASE_NEW_INPUT else xs[1]
        with pytest.raises(InvalidInput, match="non-finite"):
            eng.receive_example(0, x, 1.7e308, 1.0)
        assert save_snapshot(eng) == before
        assert eng.receive_example(0, x, 0.5, 1.0).case == case
        db = eng.get_disclosed()
        f = db.factors
        for arr in (db.y_cond, db.H.packed, f.L.rows(), f.D.values, f.M):
            assert np.isfinite(arr).all()

    def test_wrong_feature_length_rejected_and_state_kept(self):
        rng = np.random.default_rng(18)
        ds, cfg, pool = random_instance(rng, m_max=3, ell_max=6, n_max=5)
        eng = stream_into_engine(ServerEngine(cfg), ds.triples)
        dim = pool[0].features.shape[0]
        before = save_snapshot(eng)
        for width in (0, dim - 1, dim + 1):
            bad = InputPoint(b"bad", np.full(width, 0.1))
            with pytest.raises(InvalidInput, match="%d features" % width):
                eng.receive_example(0, bad, 1.0, 1.0)
            assert save_snapshot(eng) == before
        # a known key is not a new input: its submitted features are not read
        known = InputPoint(pool[0].key, np.zeros(dim + 3))
        assert eng.receive_example(0, known, 1.0, 1.0).case != CASE_NEW_INPUT

    def test_lookup_pool_takes_inputs_of_any_length(self):
        keys = [b"a", b"b", b"c", b"d"]
        a = np.random.default_rng(19).standard_normal((4, 4))
        spec = KernelSpec.lookup(keys, a @ a.T + 4.0 * np.eye(4))
        eng = ServerEngine(MixedEffectConfig(0.5, 0.1, spec, spec))
        for key, feats in zip(keys, (np.ones(2), None, np.ones(5), np.zeros(0))):
            assert eng.receive_example(0, InputPoint(key, feats), 1.0, 1.0).case \
                == CASE_NEW_INPUT
        assert [x.key for x in eng.inputs] == keys
        assert eng.inputs[2].features.tobytes() == np.ones(5).tobytes()
        with pytest.raises(InvalidInput, match="finite"):
            eng.receive_example(0, InputPoint(b"a2", [np.nan]), 1.0, 1.0)

    def test_kernel_overflow_rejected_and_snapshot_kept(self):
        # exp(1e400) is inf and inf - inf is NaN: both must raise before
        # the pivot test, which NaN would pass
        cfg = make_config(0.5, 0.1, d=1)
        eng = ServerEngine(cfg)
        eng.receive_example(0, InputPoint(b"p", [0.0, 1.0, 0.0, 0.0]), 1.0, 1.0)
        eng.receive_example(0, InputPoint(b"q", [0.0, 0.0, 2.0, -2.0]), 1.0, 1.0)
        before = save_snapshot(eng)
        for feats in ([1e200, 0.0, 0.0, 0.0], [0.0, 0.0, 1e308, 1e308]):
            with pytest.raises(OverflowError):
                eng.receive_example(1, InputPoint(b"huge", feats), 0.1, 1.0)
            assert save_snapshot(eng) == before
        assert eng.receive_example(1, InputPoint(b"ok", [0.5, 0.5, 0.5, 0.5]),
                                   0.1, 1.0).case == CASE_NEW_INPUT

    def test_degenerate_input_rejected_and_state_kept(self):
        rng = np.random.default_rng(12)
        xs = make_inputs(rng, 3, unit=True)
        clone = InputPoint(b"clone-of-0", xs[0].features)  # new key, same tags
        cfg = make_config(0.5, 1.0, d=0)
        eng = stream_into_engine(
            ServerEngine(cfg), [Triple(0, x, 1.0, 1.0) for x in xs]
        )
        before = self._state_fingerprint(eng)
        with pytest.raises(DegenerateGram):
            eng.receive_example(1, clone, 1.0, 1.0)
        assert self._state_fingerprint(eng) == before


class TestReads:
    def test_empty_disclosed(self):
        eng = ServerEngine(make_config(0.5, 1.0, d=0))
        db = eng.get_disclosed()
        assert db.epoch == 0
        assert len(db.inputs) == 0
        assert db.y_cond.shape == (0,)
        assert db.H.n == 0

    def test_epoch_counts_accepted_triples(self):
        rng = np.random.default_rng(13)
        ds, cfg, _ = random_instance(rng, m_max=3, ell_max=5, n_max=6)
        eng = ServerEngine(cfg)
        for k, tr in enumerate(ds.triples, start=1):
            eng.receive_example(tr.task, tr.x, tr.y, tr.w)
            assert eng.epoch == k
        assert eng.get_disclosed().epoch == len(ds.triples)

    def test_snapshot_copy_semantics(self):
        rng = np.random.default_rng(14)
        ds, cfg, pool = random_instance(rng, m_max=2, ell_max=5, n_max=5)
        eng = stream_into_engine(ServerEngine(cfg), ds.triples)
        db = eng.get_disclosed()
        y_before = db.y_cond.copy()
        h_before = db.H.to_dense().copy()
        eng.receive_example(0, pool[-1], 1.0, 1.0)
        assert np.array_equal(db.y_cond, y_before)
        assert np.array_equal(db.H.to_dense(), h_before)

    @staticmethod
    def _rated(n=20):
        rng = np.random.default_rng(26)
        pool = make_inputs(rng, n + 10, dim=4, unit=True)
        eng = ServerEngine(make_config(0.5, 0.1, d=1))
        for t, x in enumerate(pool[:n]):
            eng.receive_example(t % 4, x, float(rng.normal()), 1.0)
        return eng, pool, rng

    def test_a_held_read_keeps_its_bytes_across_commits(self):
        # H is lent: 50 commits of all three cases, new inputs included,
        # leave a summary read before them as it was
        eng, pool, rng = self._rated()
        db = eng.get_disclosed()
        h, y = db.H.packed.tobytes(), db.y_cond.tobytes()
        cases = set()
        for i in range(50):
            x = pool[20 + i // 5] if i % 5 == 0 else pool[int(rng.integers(0, 20))]
            cases.add(eng.receive_example(int(rng.integers(0, 4)), x, float(rng.normal()),
                                          1.0).case)
        assert cases == {CASE_NEW_INPUT, CASE_REPEAT_GLOBAL, CASE_REPEAT_TASK}
        assert db.H.packed.tobytes() == h and db.y_cond.tobytes() == y
        assert eng.H.packed.tobytes() != h

    def test_two_reads_at_one_epoch_share_one_lent_h(self):
        eng, _, _ = self._rated()
        first, second = eng.get_disclosed(), eng.get_disclosed()
        assert first.H._buf is second.H._buf
        assert np.shares_memory(first.H._buf, eng.H._buf)

    def test_a_commit_patches_h_in_place_once_no_read_is_held(self):
        eng, pool, _ = self._rated()
        db, buf = eng.get_disclosed(), eng.H._buf
        eng.receive_example(0, pool[0], 0.5, 1.0)  # a repeat: H's update, no border
        assert eng.H._buf is not buf  # moved to a copy: the read is held
        del db
        buf = eng.H._buf
        eng.receive_example(0, pool[0], 0.25, 1.0)
        assert eng.H._buf is buf

    def test_a_read_allocates_no_copy_of_h(self):
        eng, _, _ = self._rated(300)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            db = eng.get_disclosed()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert db.H == eng.H
        assert peak < 0.1 * eng.H.packed.nbytes, peak

    def test_an_engine_seeded_from_a_read_leaves_the_servers_l_alone(self):
        # a server's summary lends L without the right to append in place
        eng, pool, _ = self._rated()
        buf = eng.factors.L._buf
        before = buf.tobytes()
        local = ServerEngine.from_disclosed(eng.get_disclosed(), eng.cfg)
        for x in pool[20:23]:
            local.receive_example(9, x, 0.5, 1.0)
        assert local.n == eng.n + 3 and local.factors.L._buf is not buf
        assert eng.factors.L._buf is buf and buf.tobytes() == before

    def test_task_coefficients_alpha_zero(self):
        rng = np.random.default_rng(15)
        ds, _, _ = random_instance(rng, m_max=3, ell_max=6, n_max=6)
        cfg = make_config(0.0, 0.4, d=0)
        eng = stream_into_engine(ServerEngine(cfg), ds.triples)
        for task, st in eng.tasks.items():
            want = st.R.to_dense() @ st.y.values
            assert_allclose(eng.get_task_coefficients(task), want,
                            rtol=1e-12, atol=1e-14)

    def test_task_coefficients_match_condensed_solver(self):
        rng = np.random.default_rng(16)
        for trial in range(4):
            ds, cfg, _ = random_instance(rng, m_max=4, ell_max=8, n_max=8,
                                         repeat_prob=0.4)
            eng = stream_into_engine(ServerEngine(cfg), ds.triples)
            coeffs = solve_condensed(ds, cfg)
            for task in ds.tasks:
                got = eng.get_task_coefficients(task)
                assert rel_err(got, coeffs.a_task[task]) < 1e-8

    def test_reads_and_seeding_make_no_input_objects(self, monkeypatch):
        # a read under the daemon's lock, its encoding and a passive
        # seeding hand the pool over whole: no input is made per entry
        rng = np.random.default_rng(17)
        ds, cfg, _ = random_instance(rng, m_max=3, ell_max=8, n_max=8)
        eng = stream_into_engine(ServerEngine(cfg), ds.triples)
        made = []

        class Counted(InputPoint):
            __slots__ = ()

            def __init__(self, key, features=None):
                made.append(key)
                super().__init__(key, features)

        monkeypatch.setattr(kernels, "InputPoint", Counted)
        db = eng.get_disclosed()
        model = eng.task_coefficients(ds.tasks[0])
        proto.encode(proto.disclosed_to_message(db))
        proto.encode(proto.task_coeffs_to_message(model))
        local = ServerEngine.from_disclosed(db, cfg)
        assert len(local.inputs) == eng.n > 0 and made == []
        assert isinstance(local.inputs[0], Counted) and len(made) == 1

    def test_shared_solve_runs_once_per_epoch(self, monkeypatch):
        # every read at one epoch shares one shared solve, and a commit
        # drops it; the models are the bytes of reads without the cache
        rng = np.random.default_rng(24)
        for alpha in (0.0, 0.5):
            ds, _, pool = random_instance(rng, m_max=4, ell_max=6, n_max=6)
            cfg = make_config(alpha, 0.1, d=1)
            eng = stream_into_engine(ServerEngine(cfg), ds.triples)
            calls = []
            solve = server.shared_coefficients
            monkeypatch.setattr(server, "shared_coefficients",
                                lambda *a: calls.append(1) or solve(*a))

            def models():
                out = [eng.task_coefficients(t) for t in ds.tasks + [99]]
                return out + [eng.get_task_coefficients(t) for t in ds.tasks]

            def uncached():
                # a revived engine has no solve of its own yet
                revived = proto.load_snapshot(save_snapshot(eng))
                out = [revived.task_coefficients(t) for t in ds.tasks + [99]]
                return out + [revived.get_task_coefficients(t) for t in ds.tasks]

            def same(got, want):
                for g, w in zip(got, want):
                    if isinstance(g, np.ndarray):
                        assert g.tobytes() == w.tobytes()
                        continue
                    assert g.epoch == w.epoch and g.slots.tobytes() == w.slots.tobytes()
                    for f in ("b", "a_cond", "a_task"):
                        assert getattr(g, f).tobytes() == getattr(w, f).tobytes()

            first = models()
            assert len(calls) == 1 and models() and len(calls) == 1
            assert not first[0].b.flags.writeable
            same(first, uncached())
            eng.receive_example(ds.triples[0].task, pool[0], 0.25, 1.0)
            after = models()
            assert len(calls) == 3  # one for the uncached reads, one here
            same(after, uncached())
            # a refused submit keeps the epoch, and so its solve
            with pytest.raises(InvalidInput):
                eng.receive_example(0, pool[0], np.nan, 1.0)
            models()
            assert len(calls) == 4
            monkeypatch.undo()

    def test_unknown_task(self):
        eng = ServerEngine(make_config(0.5, 1.0, d=0))
        with pytest.raises(UnknownTask):
            eng.get_task_coefficients(3)
        model = eng.task_coefficients(3)
        assert model.a_task.shape == (0,) and model.slots.shape == (0,)
