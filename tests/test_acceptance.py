"""Acceptance gate: nine end-to-end criteria, one printed line each.

Each criterion writes a single PASS/FAIL line past pytest's capture so
the verdict is visible in the terminal and in piped logs alike.  The
line carries the measured runtime and the worst observed error.  Every
criterion asserts its own tolerance, and the timed ones assert their
runtime budget — an overrun fails even when the numbers agree.
"""

import sys
import time
from dataclasses import fields

import numpy as np
import pytest

from util import (
    engine_state_predictions,
    make_config,
    make_inputs,
    pooled_saddle,
    probe_points,
    random_instance,
    random_message,
    rel_err,
    single_task_ridge,
)

from mtfuse import protocol as proto
from mtfuse.client import Client, PrivateData, predict_client
from mtfuse.linalg import (
    SymMatrix,
    schur_enlarge_inverse,
    smw_rank_one_inverse_update,
)
from mtfuse.offline import (
    Dataset,
    build_index_structures,
    merge_repeats,
    predictions_grid,
    solve_backfit,
    solve_condensed,
    solve_full_system,
)
from mtfuse.server import (
    CASE_NEW_INPUT,
    CASE_REPEAT_GLOBAL,
    CASE_REPEAT_TASK,
    ServerEngine,
)
from mtfuse.sim import (
    DESK_ALPHA_GRID,
    DESK_LAMBDA_GRID,
    DESK_SCALE,
    generate_world,
    sweep,
)

SEED_CORE = 1001  # criteria 1 and 2 run on the identical instance family

_CAPTURE = None


@pytest.fixture(autouse=True)
def _grab_capture_manager(request):
    global _CAPTURE
    _CAPTURE = request.config.pluginmanager.getplugin("capturemanager")
    yield


def _say(text):
    # step around fd-level capture so the verdict lines always reach the
    # terminal (and piped logs), pass or fail
    if _CAPTURE is not None:
        with _CAPTURE.global_and_fixture_disabled():
            sys.stdout.write(text + "\n")
            sys.stdout.flush()
    else:
        sys.stdout.write(text + "\n")
        sys.stdout.flush()


def _gate(num, desc, budget_s, worker):
    t0 = time.perf_counter()
    try:
        detail = worker()
        elapsed = time.perf_counter() - t0
        if elapsed >= budget_s:
            raise AssertionError(
                "runtime %.1fs exceeded the %.0fs budget" % (elapsed, budget_s)
            )
    except BaseException as exc:
        elapsed = time.perf_counter() - t0
        _say(
            "[criterion %d] FAIL (%5.1fs): %s -- %s: %s"
            % (num, elapsed, desc, type(exc).__name__, exc)
        )
        raise
    _say("[criterion %d] PASS (%5.1fs): %s -- %s" % (num, elapsed, desc, detail))


def _core_instances():
    rng = np.random.default_rng(SEED_CORE)
    return [random_instance(rng) for _ in range(100)]


# --------------------------------------------------------------------------
# 1. the three exact solvers agree on the core instance family


def test_criterion_1_solver_agreement():
    def worker():
        instances = _core_instances()
        prng = np.random.default_rng(2001)
        worst = 0.0
        for ds, cfg, pool in instances:
            xs = probe_points(prng, pool)[:6]
            ms = build_index_structures(merge_repeats(ds))
            preds = []
            for solver in (solve_condensed, solve_backfit, solve_full_system):
                coeffs = solver(ds, cfg)
                preds.append(predictions_grid(coeffs, cfg, ms, ds.tasks, xs))
            for i in range(3):
                for j in range(i + 1, 3):
                    worst = max(worst, rel_err(preds[i], preds[j]))
        assert worst < 1e-8, "worst pairwise rel err %.3e" % worst
        return "100 instances, worst pairwise rel err %.1e (tol 1e-8)" % worst

    _gate(1, "condensed, backfit and full-system solvers agree", 30.0, worker)


# --------------------------------------------------------------------------
# 2. streaming server state matches an offline re-solve after every prefix


def test_criterion_2_streaming_matches_offline():
    def worker():
        instances = _core_instances()
        prng = np.random.default_rng(2002)
        counts = {CASE_REPEAT_TASK: 0, CASE_REPEAT_GLOBAL: 0, CASE_NEW_INPUT: 0}
        worst = 0.0
        for ds, cfg, pool in instances:
            xs = probe_points(prng, pool, n_fresh=2)[:5]
            for _ in range(3):
                order = prng.permutation(len(ds.triples))
                eng = ServerEngine(cfg)
                prefix = Dataset()
                for idx in order:
                    tr = ds.triples[int(idx)]
                    receipt = eng.receive_example(tr.task, tr.x, tr.y, tr.w)
                    counts[receipt.case] += 1
                    prefix.add(tr.task, tr.x, tr.y, tr.w)
                    coeffs = solve_condensed(prefix, cfg)
                    ms = build_index_structures(merge_repeats(prefix))
                    want = predictions_grid(coeffs, cfg, ms, prefix.tasks, xs)
                    got = engine_state_predictions(eng, cfg, prefix.tasks, xs)
                    worst = max(worst, rel_err(got, want))
        assert worst < 1e-8, "worst prefix rel err %.3e" % worst
        for case, n in sorted(counts.items()):
            assert n >= 50, "update case %d hit only %d times" % (case, n)
        return (
            "every prefix of 3 orders x 100 instances, worst rel err %.1e; "
            "case hits: new-input=%d repeat-task=%d repeat-global=%d"
            % (
                worst,
                counts[CASE_NEW_INPUT],
                counts[CASE_REPEAT_TASK],
                counts[CASE_REPEAT_GLOBAL],
            )
        )

    _gate(2, "incremental updates match offline re-solves", 120.0, worker)


# --------------------------------------------------------------------------
# 3. a passive client reproduces its own active run from disclosed data


def test_criterion_3_passive_equals_active():
    def worker():
        rng = np.random.default_rng(1003)
        worst = 0.0
        checked = 0
        while checked < 20:
            ds, cfg, pool = random_instance(rng, m_max=6, ell_max=12)
            if len(ds.tasks) < 2:
                continue
            checked += 1
            mine = ds.tasks[int(rng.integers(0, len(ds.tasks)))]
            public = [t for t in ds.triples if t.task != mine]
            private = [t for t in ds.triples if t.task == mine]

            eng_pub = ServerEngine(cfg)
            for t in public:
                eng_pub.receive_example(t.task, t.x, t.y, t.w)
            passive = Client(mine, cfg).passive_refresh(
                eng_pub.get_disclosed(),
                PrivateData([(t.x, t.y, t.w) for t in private]),
            )

            # the union server sees everything in a shuffled order, so the
            # replayed state and the served state differ in update sequence
            eng_union = ServerEngine(cfg)
            for idx in rng.permutation(len(ds.triples)):
                t = ds.triples[int(idx)]
                eng_union.receive_example(t.task, t.x, t.y, t.w)
            active = Client(mine, cfg).active_refresh(eng_union)

            xs = probe_points(rng, pool)[:6]
            got = [predict_client(passive, cfg, x) for x in xs]
            want = [predict_client(active, cfg, x) for x in xs]
            worst = max(worst, rel_err(got, want))
        assert worst < 1e-8, "worst rel err %.3e" % worst
        return "%d instances, worst rel err %.1e (tol 1e-8)" % (checked, worst)

    _gate(3, "passive client equals its active run", 60.0, worker)


# --------------------------------------------------------------------------
# 4. mixing-weight endpoints reduce to independent minimal solvers


def test_criterion_4_endpoint_reductions():
    def worker():
        rng = np.random.default_rng(1004)
        worst0 = worst1 = 0.0
        for _ in range(10):
            ds, cfg, pool = random_instance(rng, alpha=0.0)
            xs = probe_points(rng, pool)[:6]
            ms = build_index_structures(merge_repeats(ds))
            grid = predictions_grid(solve_condensed(ds, cfg), cfg, ms, ds.tasks, xs)
            for row, task in enumerate(ds.tasks):
                ridge = single_task_ridge(
                    [t for t in ds.triples if t.task == task],
                    cfg.individual_for(task),
                    cfg.lam,
                )
                worst0 = max(worst0, rel_err(grid[row], [ridge(x) for x in xs]))

            ds, cfg, pool = random_instance(rng, alpha=1.0)
            xs = probe_points(rng, pool)[:6]
            ms = build_index_structures(merge_repeats(ds))
            grid = predictions_grid(solve_condensed(ds, cfg), cfg, ms, ds.tasks, xs)
            pooled = pooled_saddle(ds.triples, cfg.shared, cfg.lam, cfg.bias)
            want = [pooled(x) for x in xs]
            for row in range(len(ds.tasks)):
                worst1 = max(worst1, rel_err(grid[row], want))
        assert worst0 < 1e-8, "per-task ridge mismatch %.3e" % worst0
        assert worst1 < 1e-8, "pooled mismatch %.3e" % worst1
        return (
            "independent ridge %.1e at weight 0, pooled %.1e at weight 1 (tol 1e-8)"
            % (worst0, worst1)
        )

    _gate(4, "mixing endpoints reduce to single-task solvers", 60.0, worker)


# --------------------------------------------------------------------------
# 5. repeated triples collapse to the single merged observation


def test_criterion_5_repeat_merge_identity():
    def worker():
        rng = np.random.default_rng(1005)
        worst = 0.0
        for r in (2, 3, 5):
            for _ in range(5):
                ds, cfg, pool = random_instance(rng, m_max=4, ell_max=6)
                task = int(rng.integers(0, len(ds.tasks) + 1))  # may be new
                x = pool[int(rng.integers(0, len(pool)))]
                ys = rng.normal(size=r)
                ws = rng.uniform(0.5, 2.0, size=r)
                w_merged = 1.0 / float(np.sum(1.0 / ws))
                y_merged = w_merged * float(np.sum(ys / ws))

                eng_many = ServerEngine(cfg)
                eng_one = ServerEngine(cfg)
                for t in ds.triples:
                    eng_many.receive_example(t.task, t.x, t.y, t.w)
                    eng_one.receive_example(t.task, t.x, t.y, t.w)
                for y, w in zip(ys, ws):
                    eng_many.receive_example(task, x, float(y), float(w))
                eng_one.receive_example(task, x, y_merged, w_merged)

                tasks = ds.tasks if task in ds.tasks else ds.tasks + [task]
                xs = probe_points(rng, pool)[:5]
                pa = engine_state_predictions(eng_many, cfg, tasks, xs)
                pb = engine_state_predictions(eng_one, cfg, tasks, xs)
                worst = max(worst, rel_err(pa, pb))
        assert worst < 1e-10, "worst rel err %.3e" % worst
        return "r in {2,3,5} x 5 draws each, worst rel err %.1e (tol 1e-10)" % worst

    _gate(5, "repeat streams equal the merged observation", 60.0, worker)


# --------------------------------------------------------------------------
# 6. the two inverse-update primitives match dense-inversion oracles


def _sym_inv(mat):
    inv = np.linalg.inv(mat)
    return (inv + inv.T) / 2.0


def test_criterion_6_inverse_update_lemmas():
    def worker():
        rng = np.random.default_rng(1006)
        worst_smw = worst_schur = 0.0
        for _ in range(100):
            n = int(rng.integers(1, 9))
            while True:
                a = rng.normal(size=(n, n))
                base = a @ a.T + n * np.eye(n)
                v = rng.normal(size=n)
                sigma = float(rng.uniform(0.2, 2.0)) * (1 if rng.random() < 0.5 else -1)
                bumped = base + sigma * np.outer(v, v)
                if np.linalg.cond(bumped) < 1e6:
                    break
            h = SymMatrix.from_dense(_sym_inv(base))
            got = smw_rank_one_inverse_update(h, v, sigma).to_dense()
            worst_smw = max(worst_smw, rel_err(got, _sym_inv(bumped)))
        for _ in range(100):
            n = int(rng.integers(2, 9))
            c = rng.normal(size=(n, n))
            kernel_part = c @ c.T
            lam_ws = rng.uniform(0.1, 2.0, size=n)
            full = kernel_part + np.diag(lam_ws)
            r_small = SymMatrix.from_dense(_sym_inv(full[:-1, :-1]))
            _, _, r_new = schur_enlarge_inverse(
                r_small, kernel_part[:, -1], float(lam_ws[-1])
            )
            worst_schur = max(worst_schur, rel_err(r_new.to_dense(), _sym_inv(full)))
        assert worst_smw < 1e-10, "rank-one update err %.3e" % worst_smw
        assert worst_schur < 1e-10, "enlargement err %.3e" % worst_schur
        return (
            "200 matrices of order <= 8: rank-one %.1e, enlargement %.1e (tol 1e-10)"
            % (worst_smw, worst_schur)
        )

    _gate(6, "inverse-update primitives match dense oracles", 60.0, worker)


# --------------------------------------------------------------------------
# 7. desk-scale recommendation sweep favors an interior mixing weight


def test_criterion_7_desk_scale_sweep():
    def worker():
        world = generate_world(DESK_SCALE)
        res = sweep(world, DESK_ALPHA_GRID, DESK_LAMBDA_GRID, mode="offline", k=20)
        n_a, n_l = len(DESK_ALPHA_GRID), len(DESK_LAMBDA_GRID)
        for ia in range(n_a):
            for il in range(n_l):
                cell = res.cell(ia, il)
                assert cell.ok, "cell alpha=%g lambda=%g failed: %s" % (
                    cell.alpha,
                    cell.lam,
                    cell.error,
                )
        best = res.best_cell()
        assert 0.0 < best.alpha < 1.0, "best alpha %.4f is an endpoint" % best.alpha
        rmse0 = min(res.cell(0, j).rmse for j in range(n_l))
        rmse1 = min(res.cell(n_a - 1, j).rmse for j in range(n_l))
        assert best.rmse < rmse0, "interior best does not beat weight-0 column"
        assert best.rmse < rmse1, "interior best does not beat weight-1 column"
        return (
            "best alpha=%.4f lambda=%.2e rmse=%.4f top-20 hits=%.2f; "
            "endpoint column minima %.4f (weight 0) / %.4f (weight 1)"
            % (best.alpha, best.lam, best.rmse, best.top20hits, rmse0, rmse1)
        )

    _gate(7, "recommendation sweep peaks strictly inside (0,1)", 300.0, worker)


# --------------------------------------------------------------------------
# 8. ingest cost scales with state size, not with stream length


def _repeat_phase_seconds(n_updates):
    rng = np.random.default_rng(81)
    cfg = make_config(alpha=0.5, lam=0.1)
    pool = make_inputs(rng, 60, dim=4, unit=True)
    eng = ServerEngine(cfg)
    pairs = []
    for i, x in enumerate(pool):
        task = i % 30
        eng.receive_example(task, x, float(rng.normal()), 1.0)
        pairs.append((task, x))
    ys = rng.normal(size=n_updates)
    ws = rng.uniform(0.5, 2.0, size=n_updates)
    t0 = time.perf_counter()
    for j in range(n_updates):
        task, x = pairs[j % len(pairs)]
        eng.receive_example(task, x, float(ys[j]), float(ws[j]))
    return time.perf_counter() - t0


def _fresh_phase_seconds(n_points):
    # dim 16: a low-dimensional unit sphere saturates the exponential
    # kernel's Gram spectrum near n ~ 300 and the append pivot degenerates
    rng = np.random.default_rng(82)
    cfg = make_config(alpha=0.5, lam=0.1)
    pts = make_inputs(rng, n_points, dim=16, unit=True)
    ys = rng.normal(size=n_points)
    ws = rng.uniform(0.5, 2.0, size=n_points)
    eng = ServerEngine(cfg)
    t0 = time.perf_counter()
    for i, x in enumerate(pts):
        eng.receive_example(i % 10, x, float(ys[i]), float(ws[i]))
    return time.perf_counter() - t0


def test_criterion_8_update_cost_scaling():
    def worker():
        rep1 = min(_repeat_phase_seconds(600) for _ in range(3))
        rep2 = min(_repeat_phase_seconds(1200) for _ in range(3))
        fresh1 = min(_fresh_phase_seconds(300) for _ in range(3))
        fresh2 = min(_fresh_phase_seconds(600) for _ in range(3))
        ratio_rep = rep2 / rep1
        ratio_fresh = fresh2 / fresh1
        # doubling repeats at fixed pool must stay well under 4x (per-update
        # cost is independent of stream length); doubling the pool is cubic
        # in total (~8x expected) — reported, with a loose 16x ceiling
        assert ratio_rep < 4.0, "repeat-doubling ratio %.2f >= 4" % ratio_rep
        assert ratio_fresh < 16.0, "pool-doubling ratio %.2f >= 16" % ratio_fresh
        return (
            "repeat stream 600->1200: %.2fs -> %.2fs (x%.2f, bound 4); "
            "fresh pool 300->600: %.2fs -> %.2fs (x%.2f, ~8 expected, ceiling 16)"
            % (rep1, rep2, ratio_rep, fresh1, fresh2, ratio_fresh)
        )

    _gate(8, "ingest cost scales with state size, not history", 120.0, worker)


# --------------------------------------------------------------------------
# 9. snapshots resume bit-exactly; the wire format round-trips; outbound
#    schemas cannot carry raw responses


def test_criterion_9_snapshots_and_wire_format():
    def worker():
        rng = np.random.default_rng(1009)
        for alpha in (0.0, 0.5, 1.0):
            ds, cfg, _ = random_instance(rng, alpha=alpha)
            triples = list(ds.triples)
            half = len(triples) // 2
            eng = ServerEngine(cfg)
            for t in triples[:half]:
                eng.receive_example(t.task, t.x, t.y, t.w)
            revived = proto.load_snapshot(proto.save_snapshot(eng))
            for t in triples[half:]:
                eng.receive_example(t.task, t.x, t.y, t.w)
                revived.receive_example(t.task, t.x, t.y, t.w)
            assert proto.save_snapshot(revived) == proto.save_snapshot(eng)
            for task in ds.tasks:
                assert (
                    revived.get_task_coefficients(task).tobytes()
                    == eng.get_task_coefficients(task).tobytes()
                )

        for _ in range(1000):
            msg = random_message(rng)
            assert proto.decode(proto.encode(msg)) == msg, msg

        for cls in (proto.Disclosed, proto.Config, proto.Ack, proto.TaskCoeffs):
            names = {f.name for f in fields(cls)}
            assert not names & {"y", "w", "responses", "weights"}, cls
        assert {f.name for f in fields(proto.Disclosed)} == {
            "epoch",
            "since",
            "keys",
            "features",
            "y_cond",
            "h_packed",
            "lower",
            "d",
            "m",
        }
        return (
            "mid-stream resume bit-exact at mixing weights {0, 0.5, 1}; "
            "1000 fuzzed round-trips clean; outbound schemas have no "
            "per-example response or weight fields"
        )

    _gate(9, "snapshots, wire format and schema hygiene hold", 60.0, worker)
