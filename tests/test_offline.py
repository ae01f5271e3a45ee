"""Batch solvers: index structures, merging, the three solve routes."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import lu_factor, lu_solve

from mtfuse.errors import (
    DegenerateGram,
    InvalidInput,
    NonPositiveWeight,
    SingularSystem,
    UnknownTask,
)
from mtfuse.kernels import (
    InputPoint,
    KernelSpec,
    MixedEffectConfig,
    Pool,
    basis_matrix,
    eval_mixed,
)
from mtfuse.offline import (
    Dataset,
    _refined_solve,
    build_index_structures,
    merge_repeats,
    predict,
    predictions_grid,
    solve_backfit,
    solve_condensed,
    solve_full_system,
)

from util import (
    make_config,
    make_inputs,
    naive_predictions,
    pooled_saddle,
    probe_points,
    random_instance,
    rel_err,
    single_task_ridge,
)


def merged_structures(ds):
    return build_index_structures(merge_repeats(ds))


class TestDataset:
    def test_rejects_bad_weight(self):
        ds = Dataset()
        x = InputPoint(b"a", np.ones(2))
        for w in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(NonPositiveWeight):
                ds.add(0, x, 1.0, w)

    def test_rejects_nonfinite_response(self):
        ds = Dataset()
        x = InputPoint(b"a", np.ones(2))
        with pytest.raises(InvalidInput):
            ds.add(0, x, float("nan"), 1.0)

    def test_tasks_in_first_appearance_order(self):
        ds = Dataset()
        xs = make_inputs(np.random.default_rng(0), 3)
        for task in (5, 1, 5, 3):
            ds.add(task, xs[0], 0.0, 1.0)
        assert ds.tasks == [5, 1, 3]


class TestIndexStructures:
    def test_repeat_within_task(self):
        xs = make_inputs(np.random.default_rng(1), 2)
        ds = Dataset()
        for x in (xs[0], xs[0], xs[1]):
            ds.add(0, x, 0.0, 1.0)
        ms = build_index_structures(ds)
        assert len(ms.unique_inputs) == 2
        assert list(ms.task_slots[0]) == [0, 0, 1]

    def test_shared_input_across_tasks_appears_once(self):
        xs = make_inputs(np.random.default_rng(2), 1)
        ds = Dataset()
        ds.add(0, xs[0], 1.0, 1.0)
        ds.add(1, xs[0], 2.0, 1.0)
        ms = build_index_structures(ds)
        assert len(ms.unique_inputs) == 1

    def test_slot_round_trip(self):
        rng = np.random.default_rng(3)
        ds, _, _ = random_instance(rng, m_max=4, ell_max=5, n_max=8)
        ms = build_index_structures(ds)
        flat = [
            ms.unique_inputs[s] for task in ds.tasks for s in ms.task_slots[task]
        ]
        by_task = [tr.x for task in ds.tasks for tr in ds.triples if tr.task == task]
        assert [x.key for x in flat] == [x.key for x in by_task]


class TestMergeRepeats:
    def test_equal_weights_halve(self):
        x = make_inputs(np.random.default_rng(4), 1)[0]
        ds = Dataset()
        ds.add(0, x, 1.0, 2.0)
        ds.add(0, x, 3.0, 2.0)
        merged = merge_repeats(ds)
        assert len(merged) == 1
        tr = merged.triples[0]
        assert tr.w == pytest.approx(1.0, abs=0)
        assert tr.y == pytest.approx(2.0, abs=1e-15)  # equal-weight mean

    def test_weights_stay_positive_and_order_kept(self):
        rng = np.random.default_rng(5)
        ds, _, _ = random_instance(rng, m_max=3, ell_max=15, n_max=4,
                                   repeat_prob=0.7)
        merged = merge_repeats(ds)
        assert all(tr.w > 0 for tr in merged.triples)
        seen = set()
        first_occurrence = []
        for tr in ds.triples:
            k = (tr.task, tr.x.key)
            if k not in seen:
                seen.add(k)
                first_occurrence.append(k)
        assert [(tr.task, tr.x.key) for tr in merged.triples] == first_occurrence

    def test_merge_preserves_predictions(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            ds, cfg, pool = random_instance(rng, m_max=3, ell_max=10, n_max=5,
                                            repeat_prob=0.6)
            merged = merge_repeats(ds)
            xs = probe_points(rng, pool)
            raw = naive_predictions(ds, cfg, ds.tasks, xs)
            collapsed = naive_predictions(merged, cfg, ds.tasks, xs)
            assert rel_err(collapsed, raw) < 1e-10


class TestFullSystem:
    def test_scalar_closed_form(self):
        x = InputPoint(b"a", np.array([1.0]))  # linear self-kernel = 1
        ds = Dataset()
        ds.add(0, x, 2.0, 1.0)
        cfg = make_config(0.0, 1.0, d=0)
        coeffs = solve_full_system(ds, cfg)
        assert_allclose(coeffs.a_raw, [1.0], rtol=0, atol=1e-14)

    def test_alpha_one_duplicate_tasks_match_pooled(self):
        rng = np.random.default_rng(7)
        pool = make_inputs(rng, 6)
        cfg = make_config(1.0, 0.1, d=1)
        ds = Dataset()
        base = [(pool[i], float(rng.normal())) for i in rng.integers(0, 6, size=5)]
        for task in (0, 1):
            for x, y in base:
                ds.add(task, x, y, 1.0)
        oracle = pooled_saddle(ds.triples, cfg.shared, cfg.lam, cfg.bias)
        coeffs = solve_full_system(ds, cfg)
        xs = probe_points(rng, pool)
        for task in (0, 1):
            got = [predict(coeffs, cfg, task, x) for x in xs]
            want = [oracle(x) for x in xs]
            assert rel_err(got, want) < 1e-8

    def test_saddle_residual(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            ds, cfg, _ = random_instance(rng, m_max=3, ell_max=4, n_max=8,
                                         d=1, alpha=0.5)
            coeffs = solve_full_system(ds, cfg)
            triples = ds.triples
            ell = len(triples)
            kmat = np.array(
                [
                    [
                        eval_mixed(cfg, a.x, a.task, b.x, b.task)
                        for b in triples
                    ]
                    for a in triples
                ]
            )
            wdiag = np.diag([cfg.lam * t.w for t in triples])
            psi = basis_matrix([t.x for t in triples], cfg.bias)
            y = np.array([t.y for t in triples])
            top = (kmat + wdiag) @ coeffs.a_raw + psi @ (cfg.alpha * coeffs.b) - y
            bottom = psi.T @ coeffs.a_raw
            assert np.max(np.abs(np.concatenate([top, bottom]))) < 1e-10


class TestRefinedSolve:
    def test_singular_system_raises_with_no_warning(self):
        # an exactly zero pivot, and a step that overflows
        cases = (([[1.0, 1.0], [1.0, 1.0]], [1.0, 1.0], "exactly zero"),
                 ([[0.0]], [1.0], "exactly zero"),
                 ([[1e-300, 0.0], [0.0, 1.0]], [1e10, 1.0], "non-finite"))
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            for a, rhs, match in cases:
                with pytest.raises(SingularSystem, match=match):
                    _refined_solve(np.array(a), np.array(rhs))
        assert seen == []

    def test_regular_system_keeps_its_bits(self):
        # the same factor, solve and refinement steps, written out
        rng = np.random.default_rng(21)
        for n, k in ((1, 1), (6, 1), (40, 3)):
            a = rng.normal(size=(n, n)) + n * np.eye(n)
            rhs = rng.normal(size=n if k == 1 else (n, k))
            lu = lu_factor(a)
            want = lu_solve(lu, rhs)
            for _ in range(2):
                res = rhs - a @ want
                if np.max(np.abs(res)) <= 1e-12:
                    break
                want += lu_solve(lu, res)
            assert _refined_solve(a, rhs).tobytes() == want.tobytes()


class TestBackfit:
    def test_no_bias_reduces_to_plain_solve(self):
        rng = np.random.default_rng(9)
        ds, cfg, _ = random_instance(rng, m_max=3, ell_max=6, n_max=8, d=0,
                                     alpha=0.5)
        coeffs = solve_backfit(ds, cfg)
        triples = ds.triples
        kmat = np.array(
            [
                [eval_mixed(cfg, a.x, a.task, b.x, b.task) for b in triples]
                for a in triples
            ]
        )
        wdiag = np.diag([cfg.lam * t.w for t in triples])
        y = np.array([t.y for t in triples])
        assert_allclose(coeffs.a_raw, np.linalg.solve(kmat + wdiag, y),
                        rtol=1e-10, atol=1e-12)

    def test_agrees_with_full_system(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            ds, cfg, pool = random_instance(rng, m_max=5, ell_max=8, n_max=10)
            xs = probe_points(rng, pool)
            a = predictions_grid(solve_full_system(ds, cfg), cfg, ds.tasks, xs)
            b = predictions_grid(solve_backfit(ds, cfg), cfg, ds.tasks, xs)
            assert rel_err(b, a) < 1e-8

    def test_alpha_one_matches_pooled_ridge(self):
        rng = np.random.default_rng(11)
        ds, cfg, pool = random_instance(rng, m_max=4, ell_max=6, n_max=8, d=0,
                                        alpha=1.0, lam=0.1)
        oracle = single_task_ridge(merge_repeats(ds).triples, cfg.shared, cfg.lam)
        coeffs = solve_backfit(ds, cfg)
        xs = probe_points(rng, pool)
        for task in ds.tasks:
            got = [predict(coeffs, cfg, task, x) for x in xs]
            want = [oracle(x) for x in xs]
            assert rel_err(got, want) < 1e-8


class TestModelInputs:
    def test_every_solver_holds_the_merged_pool(self):
        # a model carries the unique inputs its a_cond lives on, so
        # prediction needs nothing but the model
        rng = np.random.default_rng(20)
        for _ in range(5):
            ds, cfg, _ = random_instance(rng, repeat_prob=0.5)
            want = merged_structures(ds).unique_inputs
            for solver in (solve_condensed, solve_backfit, solve_full_system):
                coeffs = solver(ds, cfg)
                assert isinstance(coeffs.inputs, Pool) and coeffs.inputs == want
                assert len(coeffs.a_cond) == len(want)


class TestCondensed:
    def test_alpha_zero_is_independent_ridge(self):
        rng = np.random.default_rng(12)
        ds, cfg, pool = random_instance(rng, m_max=5, ell_max=6, n_max=8, d=0,
                                        alpha=0.0, lam=0.1)
        coeffs = solve_condensed(ds, cfg)
        xs = probe_points(rng, pool)
        merged = merge_repeats(ds)
        for task in ds.tasks:
            own = [tr for tr in merged.triples if tr.task == task]
            oracle = single_task_ridge(own, cfg.individual_for(task), cfg.lam)
            got = [predict(coeffs, cfg, task, x) for x in xs]
            want = [oracle(x) for x in xs]
            assert rel_err(got, want) < 1e-8

    def test_alpha_zero_builds_no_shared_factors(self):
        # two keys with one feature vector: the shared rbf Gram is
        # singular, so factors over the pool cannot be built.  At alpha = 0
        # the shared kernel has no weight and the solve needs no factors;
        # at alpha = 0.5 the factors refuse the second key
        f = np.array([0.6, 0.8, 0.0])
        twins = [InputPoint(b"a", f), InputPoint(b"b", f.copy())]
        ds = Dataset([(0, twins[0], 1.0, 1.0), (1, twins[1], -0.5, 2.0),
                      (0, twins[1], 0.3, 1.0)])
        xs = twins + make_inputs(np.random.default_rng(22), 2, dim=3, prefix=b"p",
                                 unit=True)
        for d in (0, 1):
            cfg = make_config(0.0, 0.1, d=d)
            got = predictions_grid(solve_condensed(ds, cfg), cfg, ds.tasks, xs)
            want = predictions_grid(solve_full_system(ds, cfg), cfg, ds.tasks, xs)
            assert rel_err(got, want) < 1e-8
            with pytest.raises(DegenerateGram):
                solve_condensed(ds, make_config(0.5, 0.1, d=d))

    def test_agrees_with_oracle_and_independent_assembly(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            ds, cfg, pool = random_instance(rng)
            xs = probe_points(rng, pool)
            got = predictions_grid(solve_condensed(ds, cfg), cfg, ds.tasks, xs)
            via_full = predictions_grid(
                solve_full_system(ds, cfg), cfg, ds.tasks, xs
            )
            assert rel_err(got, via_full) < 1e-8
            independent = naive_predictions(ds, cfg, ds.tasks, xs)
            assert rel_err(got, independent) < 1e-8

    def test_single_example_with_bias(self):
        # saddle system forces a = 0, alpha*b = y: the fit is the constant y
        rng = np.random.default_rng(14)
        x = make_inputs(rng, 1)[0]
        ds = Dataset()
        ds.add(0, x, 3.7, 1.0)
        cfg = make_config(0.5, 1.0, d=1)
        coeffs = solve_condensed(ds, cfg)
        probe = make_inputs(rng, 1, prefix=b"probe")[0]
        assert predict(coeffs, cfg, 0, x) == pytest.approx(3.7, abs=1e-10)
        assert predict(coeffs, cfg, 0, probe) == pytest.approx(3.7, abs=1e-10)

    def test_acheck_is_group_summed_raw_a(self):
        rng = np.random.default_rng(15)
        for _ in range(5):
            ds, cfg, _ = random_instance(rng, m_max=4, ell_max=10, n_max=6,
                                         repeat_prob=0.5)
            cond = solve_condensed(ds, cfg)
            full = solve_full_system(merge_repeats(ds), cfg)
            ms = merged_structures(ds)
            merged = merge_repeats(ds)
            acc = np.zeros(len(ms.unique_inputs))
            for tr, a in zip(merged.triples, full.a_raw):
                acc[ms.unique_inputs.slot(tr.x.key)] += a
            assert rel_err(cond.a_cond, acc) < 1e-8


class TestPredict:
    def test_zero_responses_give_zero(self):
        rng = np.random.default_rng(16)
        ds, cfg, pool = random_instance(rng, m_max=3, ell_max=5, n_max=6)
        zero = Dataset()
        for tr in ds.triples:
            zero.add(tr.task, tr.x, 0.0, tr.w)
        coeffs = solve_condensed(zero, cfg)
        for x in probe_points(rng, pool):
            assert predict(coeffs, cfg, zero.tasks[0], x) == 0.0

    def test_alpha_one_task_independent(self):
        rng = np.random.default_rng(17)
        ds, cfg, pool = random_instance(rng, m_max=4, ell_max=6, n_max=8,
                                        alpha=1.0)
        coeffs = solve_condensed(ds, cfg)
        xs = probe_points(rng, pool)
        rows = [
            [predict(coeffs, cfg, task, x) for x in xs] for task in ds.tasks
        ]
        for row in rows[1:]:
            assert_allclose(row, rows[0], rtol=0, atol=1e-12)

    def test_unknown_task(self):
        rng = np.random.default_rng(18)
        ds, cfg, pool = random_instance(rng, m_max=2, ell_max=4, n_max=5)
        coeffs = solve_condensed(ds, cfg)
        with pytest.raises(UnknownTask):
            predict(coeffs, cfg, 999, pool[0])

    def test_rows_scored_together_equal_rows_scored_alone(self):
        # the query points are read once per individual kernel, and each
        # entry is still one vecdot of the same two vectors: a row's
        # bytes do not depend on the rows scored with it
        rng = np.random.default_rng(20)
        pool = make_inputs(rng, 10, dim=4, unit=True)
        base = make_config(0.5, 0.1, d=1)
        cfg = MixedEffectConfig(base.alpha, base.lam, base.shared, base.individual,
                                individual_overrides={2: KernelSpec.rbf_tags()},
                                bias=base.bias)
        ds = Dataset()
        for task in range(4):
            for _ in range(5):
                ds.add(task, pool[int(rng.integers(0, 10))], float(rng.normal()), 1.0)
        coeffs = solve_condensed(ds, cfg)
        xs = probe_points(rng, pool)
        grid = predictions_grid(coeffs, cfg, ds.tasks, xs)
        for r, task in enumerate(ds.tasks):
            alone = predictions_grid(coeffs, cfg, [task], xs)
            assert grid[r].tobytes() == alone[0].tobytes()
        # the override is what task 2's row was scored with
        plain = predictions_grid(coeffs, base, [2], xs)
        assert not np.allclose(grid[ds.tasks.index(2)], plain[0])

    def test_grid_matches_scalar_loop(self):
        rng = np.random.default_rng(19)
        ds, cfg, pool = random_instance(rng, m_max=3, ell_max=6, n_max=8)
        coeffs = solve_condensed(ds, cfg)
        xs = probe_points(rng, pool)
        grid = predictions_grid(coeffs, cfg, ds.tasks, xs)
        for r, task in enumerate(ds.tasks):
            for c, x in enumerate(xs):
                assert grid[r, c] == pytest.approx(
                    predict(coeffs, cfg, task, x), abs=1e-12
                )
