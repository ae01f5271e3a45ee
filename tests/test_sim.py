"""Synthetic world generation, metrics, the grid sweep, reports, CLI."""

import argparse
import hashlib
import os

import numpy as np
import pytest

from mtfuse import cli, protocol, sim
from mtfuse.client import client_predictions
from mtfuse.kernels import BiasBasis, KernelSpec, kernel_matrix
from mtfuse.offline import Dataset
from mtfuse.sim import (
    SynthConfig,
    emit_report,
    generate_world,
    load_result,
    load_tag_file,
    rmse,
    save_result,
    squash,
    sweep,
    top_k,
    top_k_hits,
)

from util import pooled_saddle, single_task_ridge


TINY = dict(num_artists=25, tag_dim=6, num_users=6, samples_per_user=4,
            noise_sd=0.01, seed=3)


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestGenerateWorld:
    def test_tags_unit_norm_and_keys_are_names(self):
        world = generate_world(SynthConfig(**TINY))
        norms = np.linalg.norm(world.tags, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-12)
        assert world.inputs[0].key == b"artist-0000"
        assert len(world.inputs) == 25
        assert world.f_true.shape == (6, 25)
        assert np.array_equal(world.s_true, squash(world.f_true))

    def test_same_seed_same_world(self):
        w1 = generate_world(SynthConfig(**TINY))
        w2 = generate_world(SynthConfig(**TINY))
        assert w1.f_true.tobytes() == w2.f_true.tobytes()
        assert w1.tags.tobytes() == w2.tags.tobytes()
        assert len(w1.ds.triples) == len(w2.ds.triples)
        for a, b in zip(w1.ds.triples, w2.ds.triples):
            assert (a.task, a.x.key, a.y, a.w) == (b.task, b.x.key, b.y, b.w)

    def test_zero_noise_training_outputs_equal_truth(self):
        cfg = SynthConfig(**{**TINY, "noise_sd": 0.0})
        world = generate_world(cfg)
        index = {x.key: i for i, x in enumerate(world.inputs)}
        for tr in world.ds.triples:
            assert tr.y == world.f_true[tr.task, index[tr.x.key]]

    def test_no_individual_mix_makes_users_identical(self):
        cfg = SynthConfig(**{**TINY, "mix_shared": 0.25, "mix_individual": 0.0})
        world = generate_world(cfg)
        for j in range(1, world.cfg.num_users):
            assert world.f_true[j].tobytes() == world.f_true[0].tobytes()

    def test_individual_draw_covariance_matches_kernel(self):
        # with only the individual component, user rows are independent
        # draws whose covariance at two fixed artists is the individual
        # kernel entry; check the sample covariance within 3 SE
        cfg = SynthConfig(num_artists=6, tag_dim=4, num_users=600,
                          samples_per_user=1, noise_sd=0.0,
                          mix_shared=0.0, mix_individual=1.0, seed=123)
        world = generate_world(cfg)
        ktil = kernel_matrix(world.inputs, world.inputs,
                             KernelSpec.linear_tags())
        f = world.f_true
        n = cfg.num_users
        for p, q in ((0, 1), (2, 5), (3, 3)):
            sample = float(np.cov(f[:, p], f[:, q], ddof=1)[0, 1])
            want = ktil[p, q]
            if p == q:
                se = want * np.sqrt(2.0 / (n - 1))
            else:
                se = np.sqrt((ktil[p, p] * ktil[q, q] + want**2) / (n - 1))
            assert abs(sample - want) < 3.0 * se

    def test_all_zero_tag_row_rejected(self):
        tags = np.array([[0.0, 0.0], [1.0, 2.0]])
        with pytest.raises(ValueError):
            generate_world(SynthConfig(num_artists=2, tag_dim=2, num_users=1),
                           tag_source=(["a", "b"], tags))


class TestTagFile:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "tags.tsv"
        p.write_text("alice\t0.5\t0.25\n\nbob\t1.0\t0.0\n", encoding="utf-8")
        names, tags = load_tag_file(str(p))
        assert names == ["alice", "bob"]
        assert np.array_equal(tags, [[0.5, 0.25], [1.0, 0.0]])
        world = generate_world(
            SynthConfig(num_artists=2, tag_dim=2, num_users=2,
                        samples_per_user=2, seed=0),
            tag_source=(names, tags),
        )
        assert [x.key for x in world.inputs] == [b"alice", b"bob"]
        assert np.allclose(np.linalg.norm(world.tags, axis=1), 1.0)

    def test_malformed_lines(self, tmp_path):
        for content in ("alice\n", "alice\tx\n", "a\t1.0\nb\t1.0\t2.0\n"):
            p = tmp_path / "bad.tsv"
            p.write_text(content, encoding="utf-8")
            with pytest.raises(ValueError):
                load_tag_file(str(p))

    def test_file_without_artists_refused(self, tmp_path):
        p = tmp_path / "empty.tsv"
        for content in ("", "\n\n"):
            p.write_text(content, encoding="utf-8")
            with pytest.raises(ValueError) as err:
                load_tag_file(str(p))
            assert str(err.value) == "%s: no artists" % p


class TestMetrics:
    def test_rmse_exact_cases(self):
        s = np.random.default_rng(0).random((4, 7))
        assert rmse(s, s) == 0.0
        assert abs(rmse(s, s + 0.1) - 0.1) < 1e-12

    def test_rmse_double_loop(self):
        rng = np.random.default_rng(1)
        s = rng.random((5, 9))
        t = rng.random((5, 9))
        acc = 0.0
        for j in range(5):
            for i in range(9):
                acc += (s[j, i] - t[j, i]) ** 2
        assert abs(rmse(s, t) - np.sqrt(acc / 45.0)) < 1e-12

    def test_rmse_shape_mismatch(self):
        with pytest.raises(ValueError):
            rmse(np.zeros((2, 3)), np.zeros((3, 2)))

    def test_top_k_tie_break_deterministic(self):
        assert top_k([1.0, 2.0, 2.0, 0.5], 2).tolist() == [1, 2]
        assert top_k([3.0, 3.0, 3.0], 2).tolist() == [0, 1]
        assert top_k([0.1, 0.9, 0.5], 3).tolist() == [1, 2, 0]

    def test_hits_identical_scores_max_out(self):
        rng = np.random.default_rng(2)
        s = rng.standard_normal((3, 45))
        hits, mean = top_k_hits(s, s.copy(), k=20)
        assert hits.tolist() == [20, 20, 20]
        assert mean == 20.0

    def test_hits_negated_scores_miss_everything(self):
        rng = np.random.default_rng(3)
        s = rng.standard_normal((3, 45))
        assert all(len(set(row)) == 45 for row in s)  # no ties
        hits, mean = top_k_hits(s, -s, k=20)
        assert hits.tolist() == [0, 0, 0]
        assert mean == 0.0

    def test_hits_requires_enough_items(self):
        with pytest.raises(ValueError):
            top_k_hits(np.zeros((2, 10)), np.zeros((2, 10)), k=20)


class TestSweep:
    def test_single_cell_equals_direct_run(self):
        from mtfuse.kernels import BiasBasis
        from mtfuse.offline import predictions_grid, solve_condensed

        world = generate_world(SynthConfig(**TINY))
        res = sweep(world, [0.5], [0.01], k=5)
        cell = res.cell(0, 0)
        assert cell.ok
        mcfg = sim._model_config(0.5, 0.01, BiasBasis.empty())
        coeffs = solve_condensed(world.ds, mcfg)
        est = predictions_grid(coeffs, mcfg, list(range(world.cfg.num_users)), world.inputs)
        s_est = squash(est)
        assert cell.rmse == rmse(world.s_true, s_est)
        assert cell.top20hits == top_k_hits(world.s_true, s_est, 5)[1]
        assert res.best_index == (0, 0)

    def test_alpha_endpoints_match_independent_solvers(self):
        world = generate_world(SynthConfig(**TINY))
        lam = 0.05
        res = sweep(world, [0.0, 1.0], [lam], k=5)
        by_task = {}
        for tr in world.ds.triples:
            by_task.setdefault(tr.task, []).append(tr)

        # alpha = 0: each user alone, individual kernel only
        sep = np.vstack([
            [single_task_ridge(by_task[j], KernelSpec.linear_tags(), lam)(x)
             for x in world.inputs]
            for j in range(world.cfg.num_users)
        ])
        cell0 = res.cell(0, 0)
        assert cell0.ok
        assert abs(cell0.rmse - rmse(world.s_true, squash(sep))) < 1e-8

        # alpha = 1: everything pooled through the shared kernel
        from mtfuse.kernels import BiasBasis
        pooled = pooled_saddle(world.ds.triples, KernelSpec.rbf_tags(), lam,
                               BiasBasis.empty())
        pooled_row = np.array([pooled(x) for x in world.inputs])
        est1 = np.tile(pooled_row, (world.cfg.num_users, 1))
        cell1 = res.cell(1, 0)
        assert cell1.ok
        assert abs(cell1.rmse - rmse(world.s_true, squash(est1))) < 1e-8

    def test_failing_cell_marked_not_fatal(self):
        # two artists with identical tags: the world draw survives via
        # jitter, but the engine rejects the collinear Gram row
        rng = np.random.default_rng(4)
        t = rng.random(4)
        tags = np.vstack([t, t, rng.random(4)])
        world = generate_world(
            SynthConfig(num_artists=3, tag_dim=4, num_users=2,
                        samples_per_user=2, noise_sd=0.0, seed=1),
            tag_source=(["a", "b", "c"], tags),
        )
        ds = Dataset()
        ds.add(0, world.inputs[0], 0.5, 1.0)
        ds.add(0, world.inputs[1], 0.4, 1.0)
        ds.add(1, world.inputs[2], 0.3, 1.0)
        world.ds = ds
        res = sweep(world, [0.5], [0.1], k=2)
        cell = res.cell(0, 0)
        assert not cell.ok
        assert cell.error != ""
        assert np.isnan(cell.rmse)
        assert res.best_index is None and res.best_cell() is None

    @pytest.mark.parametrize("mode", ["offline", "client-server"])
    def test_world_with_a_user_without_data_refused(self, mode, monkeypatch):
        # no users, no observations, or one user without any: both modes
        # refuse the world with one ValueError before any cell runs
        cells = []
        monkeypatch.setattr(sim, "_model_config", lambda *a: cells.append(a))
        worlds = [(generate_world(SynthConfig(**{**TINY, "num_users": 0})),
                   "the world has no users"),
                  (generate_world(SynthConfig(**{**TINY, "num_users": 3,
                                                  "samples_per_user": 0})),
                   "user 0 has no observations")]
        world = generate_world(SynthConfig(**TINY))
        world.ds = Dataset(t for t in world.ds.triples if t.task != 2)
        worlds.append((world, "user 2 has no observations"))
        for world, message in worlds:
            with pytest.raises(ValueError) as err:
                sweep(world, [0.5], [0.1], mode=mode, k=5)
            assert str(err.value) == message
        assert cells == []

    def test_unknown_mode_rejected(self):
        world = generate_world(SynthConfig(**TINY))
        with pytest.raises(ValueError):
            sweep(world, [0.5], [0.1], mode="telepathy")

    def test_client_server_mode_agrees_with_offline(self):
        cfg = SynthConfig(num_artists=24, tag_dim=5, num_users=4,
                          samples_per_user=3, noise_sd=0.01, seed=6)
        world = generate_world(cfg)
        alphas, lambdas = [0.3, 0.8], [1e-3, 1e-1]
        off = sweep(world, alphas, lambdas, mode="offline", k=5)
        live = sweep(world, alphas, lambdas, mode="client-server", k=5)
        for c_off, c_live in zip(off.cells, live.cells):
            assert c_off.ok and c_live.ok
            assert abs(c_off.rmse - c_live.rmse) < 1e-8
            assert abs(c_off.top20hits - c_live.top20hits) < 1e-8
            assert c_off.hits_per_user.tolist() == c_live.hits_per_user.tolist()

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_one_scoring_call_equals_per_user_calls(self, alpha, monkeypatch):
        # the cell scores every user's model in one call; each row is the
        # bytes of that user's own call over the same model
        world = generate_world(SynthConfig(num_artists=20, tag_dim=19, num_users=6,
                                           samples_per_user=3, noise_sd=0.01, seed=8))
        mcfg = sim._model_config(alpha, 1e-2, BiasBasis.empty())
        models, read = [], sim.Client.active_refresh

        def recorded(client, server):
            models.append(read(client, server))
            return models[-1]

        monkeypatch.setattr(sim.Client, "active_refresh", recorded)
        est = sim._estimate_via_daemon(world, mcfg)
        assert [m.task for m in models] == list(range(6))
        rows = [client_predictions(m, mcfg, world.inputs) for m in models]
        assert est.tobytes() == np.vstack(rows).tobytes()


class TestPersistenceAndReports:
    def sweep_small(self):
        world = generate_world(SynthConfig(**TINY))
        return sweep(world, [0.0, 0.5], [1e-3, 1e-1], k=5)

    def test_save_load_round_trip(self, tmp_path):
        res = self.sweep_small()
        path = tmp_path / "result.json"
        save_result(res, str(path))
        back = load_result(str(path))
        assert back.mode == res.mode and back.k == res.k
        assert back.best_index == res.best_index
        for a, b in zip(res.cells, back.cells):
            assert (a.alpha, a.lam, a.ok) == (b.alpha, b.lam, b.ok)
            assert a.rmse == b.rmse  # repr round-trip is exact
            assert a.top20hits == b.top20hits
            assert a.hits_per_user.tolist() == b.hits_per_user.tolist()
        assert np.array_equal(back.best_top_true, res.best_top_true)
        assert np.array_equal(back.best_top_est, res.best_top_est)

    def test_reports_deterministic_and_reloadable(self, tmp_path):
        res = self.sweep_small()
        d1, d2, d3 = (tmp_path / n for n in ("r1", "r2", "r3"))
        emit_report(res, str(d1))
        emit_report(res, str(d2))
        save_result(res, str(tmp_path / "result.json"))
        emit_report(load_result(str(tmp_path / "result.json")), str(d3))
        for name in ("grid_metrics.tsv", "hits_histogram.tsv", "user_topk.tsv"):
            b1 = read_bytes(str(d1 / name))
            assert b1 == read_bytes(str(d2 / name))
            assert b1 == read_bytes(str(d3 / name))

    def test_grid_metrics_rows_match_cells(self, tmp_path):
        res = self.sweep_small()
        emit_report(res, str(tmp_path))
        lines = read_bytes(str(tmp_path / "grid_metrics.tsv")).decode().splitlines()
        assert lines[0] == "alpha\tlambda\trmse\ttop20hits\tstatus"
        assert len(lines) == 1 + len(res.cells)
        for line, cell in zip(lines[1:], res.cells):
            alpha, lam, r, hits, status = line.split("\t")
            assert float(alpha) == cell.alpha
            assert float(lam) == cell.lam
            assert float(r) == cell.rmse
            assert float(hits) == cell.top20hits
            assert status == "ok"

    def test_histogram_counts_users(self, tmp_path):
        res = self.sweep_small()
        emit_report(res, str(tmp_path))
        lines = read_bytes(str(tmp_path / "hits_histogram.tsv")).decode().splitlines()
        assert lines[0] == "hits\tusers"
        counts = {int(h): int(c) for h, c in (l.split("\t") for l in lines[1:])}
        best = res.best_cell()
        assert sum(counts.values()) == len(best.hits_per_user)
        for h, cnt in counts.items():
            assert cnt == int(np.sum(best.hits_per_user == h))

    def test_user_topk_marks_hits(self, tmp_path):
        res = self.sweep_small()
        emit_report(res, str(tmp_path))
        lines = read_bytes(str(tmp_path / "user_topk.tsv")).decode().splitlines()
        assert lines[0] == "user\trank\ttrue_artist\test_artist\thit"
        assert len(lines) == 1 + res.best_top_true.shape[0] * res.k
        name_idx = {n: i for i, n in enumerate(res.names)}
        best = res.best_cell()
        starred = {}
        for line in lines[1:]:
            user, rank, tname, ename, mark = (line.split("\t") + [""])[:5]
            j = int(user)
            true_set = set(res.best_top_true[j].tolist())
            assert (name_idx[ename] in true_set) == (mark == "*")
            starred[j] = starred.get(j, 0) + (mark == "*")
        for j, cnt in starred.items():
            assert cnt == best.hits_per_user[j]

    def test_failed_sweep_report_header_only(self, tmp_path):
        rng = np.random.default_rng(5)
        t = rng.random(4)
        world = generate_world(
            SynthConfig(num_artists=2, tag_dim=4, num_users=1,
                        samples_per_user=2, noise_sd=0.0, seed=2),
            tag_source=(["a", "b"], np.vstack([t, t])),
        )
        ds = Dataset()
        ds.add(0, world.inputs[0], 0.5, 1.0)
        ds.add(0, world.inputs[1], 0.4, 1.0)
        world.ds = ds
        res = sweep(world, [0.5], [0.1], k=1)
        emit_report(res, str(tmp_path))
        grid = read_bytes(str(tmp_path / "grid_metrics.tsv")).decode().splitlines()
        assert len(grid) == 2 and grid[1].split("\t")[4].startswith("failed: ")
        hist = read_bytes(str(tmp_path / "hits_histogram.tsv")).decode().splitlines()
        assert hist == ["hits\tusers"]
        topk = read_bytes(str(tmp_path / "user_topk.tsv")).decode().splitlines()
        assert topk == ["user\trank\ttrue_artist\test_artist\thit"]


class TestCli:
    WORLD_FLAGS = ["--num-artists", "25", "--tag-dim", "5", "--num-users", "4",
                   "--samples-per-user", "3", "--seed", "7"]

    def test_generate_written_files_reingest(self, tmp_path, capsys):
        out = tmp_path / "world"
        rc = cli.main(["generate", *self.WORLD_FLAGS, "--out", str(out)])
        assert rc == 0
        for name in ("artists.tsv", "triples.tsv", "true_scores.tsv"):
            assert (out / name).exists()
        names, tags = load_tag_file(str(out / "artists.tsv"))
        world = generate_world(
            SynthConfig(num_artists=25, tag_dim=5, num_users=4,
                        samples_per_user=3, seed=7)
        )
        assert names == world.names
        # written tags are the normalized rows; repr round-trips exactly
        assert np.array_equal(tags, world.tags)
        triples = (out / "triples.tsv").read_text().splitlines()
        assert len(triples) == 1 + len(world.ds.triples)

    def test_sweep_then_report_byte_identical(self, tmp_path, capsys):
        out1 = tmp_path / "s1"
        rc = cli.main([
            "sweep", *self.WORLD_FLAGS, "--k", "5",
            "--alpha-grid", "0.0,0.5,1.0", "--lambda-grid", "0.001,0.1",
            "--out", str(out1),
        ])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "best: alpha=" in stdout
        out2 = tmp_path / "s2"
        rc = cli.main(["report", "--result", str(out1 / "result.json"),
                       "--out", str(out2)])
        assert rc == 0
        for name in ("grid_metrics.tsv", "hits_histogram.tsv", "user_topk.tsv"):
            assert read_bytes(str(out1 / name)) == read_bytes(str(out2 / name))

    def test_bias_choices_are_the_wire_table_names(self):
        # the one name <-> tag <-> object table in protocol serves the CLI
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        choices = {name: a.choices for name, p in sub.choices.items()
                   for a in p._actions if "--bias" in a.option_strings}
        names = list(protocol._BIASES)
        assert names == [BiasBasis.NONE, BiasBasis.CONSTANT]
        assert {name: list(c) for name, c in choices.items()} == {
            "sweep": names, "serve-demo": names}

    def test_grid_spec_parsing(self):
        got = cli._parse_grid("lin:3", None)
        assert np.allclose(got, [0.0, 0.5, 1.0])
        got = cli._parse_grid("lin:3:1:2", None)
        assert np.allclose(got, [1.0, 1.5, 2.0])
        got = cli._parse_grid("log:3:0.01:1", None)
        assert np.allclose(got, [0.01, 0.1, 1.0])
        got = cli._parse_grid("0.25,0.75", None)
        assert got.tolist() == [0.25, 0.75]
        default = np.array([1.0])
        assert cli._parse_grid(None, default) is default
        for spec in ("lin:3:1", "lin:3:1:2:9"):
            with pytest.raises(ValueError, match="lin grid"):
                cli._parse_grid(spec, None)

    def test_serve_demo_smoke(self, tmp_path, capsys):
        rc = cli.main([
            "serve-demo", "--num-artists", "21", "--tag-dim", "4",
            "--num-users", "3", "--samples-per-user", "2", "--seed", "5",
            "--alpha", "0.5", "--lam", "0.01", "--k", "3",
        ])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "rmse" in stdout and "top3hits" in stdout

    def test_world_with_a_user_without_data_exits_2(self, tmp_path, capsys):
        world = ["--num-artists", "25", "--tag-dim", "5", "--seed", "7"]
        for knobs, message in ((["--num-users", "0"], "the world has no users"),
                               (["--num-users", "3", "--samples-per-user", "0"],
                                "user 0 has no observations")):
            for command in (["sweep", "--out", str(tmp_path / "o")],
                            ["sweep", "--mode", "client-server", "--out",
                             str(tmp_path / "o")],
                            ["serve-demo"]):
                assert cli.main([*command, *world, *knobs]) == 2
                captured = capsys.readouterr()
                assert captured.err == "error: %s\n" % message
                assert "Traceback" not in captured.out
        assert not (tmp_path / "o").exists()

    def test_empty_tag_file_exits_2(self, tmp_path, capsys):
        tags = tmp_path / "empty.tsv"
        tags.write_text("", encoding="utf-8")
        for command in ("generate", "sweep"):
            rc = cli.main([command, "--tags", str(tags), "--out", str(tmp_path / "w")])
            assert rc == 2
            assert capsys.readouterr().err == "error: %s: no artists\n" % tags

    def test_missing_result_file_reports_error(self, tmp_path, capsys):
        rc = cli.main(["report", "--result", str(tmp_path / "absent.json"),
                       "--out", str(tmp_path / "r")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_report_refuses_json_that_is_not_a_result(self, tmp_path, capsys):
        for text in ('{"mode": "offline"}', "[1]", "not json"):
            path = tmp_path / "not_a_result.json"
            path.write_text(text)
            rc = cli.main(["report", "--result", str(path),
                           "--out", str(tmp_path / "r")])
            assert rc == 2
            assert capsys.readouterr().err.startswith(
                "error: %s is not a saved sweep result: " % path)


class TestHarnessGoldenBytes:
    """Result, report and generated-world bytes pinned by SHA-256.

    The digests were computed before the harness schemas were declared
    once each; a change that moves one byte of these files fails here.
    The result and report digests involve no solver arithmetic.  The
    generate digests pin the world draw, so they hold on one numpy and
    OpenBLAS build only (numpy 2.4, OpenBLAS 0.3, x86-64).
    """

    RESULT = "2794dfe4c1e30b2f35cddeb61d5f8880da30d1e4afdbdbf6074feebe01c2af00"
    REPORTS = {
        "grid_metrics.tsv": "6a5cc409479c9f54b03194b8e58c361db76a0af256ab059234d92b84180cafbc",
        "hits_histogram.tsv": "546bd281df9aba5399681d2719c09ea3306f361b91ab8d76f63ad4b56ae61996",
        "user_topk.tsv": "fa49bebaa16339df1d1cbe165ed7589d274e96fbad08f16b162e23456a77d972",
    }
    GENERATE = {
        "artists.tsv": "d1afaebf822b32c9318eccdc90b9a090933101b65138f1218289bd23703f0bca",
        "triples.tsv": "d7f6cb5662eeb8fc7300a3dd5219eb8d4af378c328f330d408a77c5afcc25a98",
        "true_scores.tsv": "4ef91629373bae18451ffc294a6f3cdda325b772b3efff703ff098b29ce526e2",
    }

    @staticmethod
    def hand_built_result():
        def ints(rows):
            return np.asarray(rows, dtype=np.intp)

        cells = [
            sim.CellResult(alpha=0.0, lam=1e-07, ok=True, rmse=0.123456789,
                           top20hits=0.75, hits_per_user=ints([1, 0, 2, 0])),
            sim.CellResult(alpha=0.0, lam=0.1, ok=True, rmse=1.0 / 3.0,
                           top20hits=1.25, hits_per_user=ints([2, 1, 2, 0])),
            sim.CellResult(alpha=1.0, lam=1e-07, ok=False,
                           error="Gram factor\tfailed:\nsingular pivot"),
            sim.CellResult(alpha=1.0, lam=0.1, ok=True, rmse=2.5e-17,
                           top20hits=2.0, hits_per_user=ints([2, 2, 2, 2])),
        ]
        return sim.SweepResult(
            mode="client-server", k=2,
            names=["Björk", "Sigur Rós", "Motörhead", "坂本龍一",
                   "Ólafur Arnalds", "artist-0005"],
            alphas=np.array([0.0, 1.0]), lambdas=np.array([1e-07, 0.1]),
            cells=cells, best_index=(0, 1),
            best_top_true=ints([[0, 3], [1, 2], [5, 4], [3, 0]]),
            best_top_est=ints([[3, 0], [1, 4], [5, 4], [2, 1]]),
        )

    @staticmethod
    def digests(directory, names):
        return {n: hashlib.sha256(read_bytes(os.path.join(directory, n)))
                .hexdigest() for n in names}

    def test_result_and_report_bytes(self, tmp_path):
        res = self.hand_built_result()
        path = str(tmp_path / "result.json")
        save_result(res, path)
        saved = read_bytes(path)
        assert hashlib.sha256(saved).hexdigest() == self.RESULT
        back = load_result(path)
        save_result(back, path)
        assert read_bytes(path) == saved
        for i, r in enumerate((res, back)):
            out = str(tmp_path / ("r%d" % i))
            emit_report(r, out)
            assert self.digests(out, self.REPORTS) == self.REPORTS

    def test_generate_bytes(self, tmp_path, capsys):
        out = str(tmp_path / "world")
        rc = cli.main(["generate", "--num-artists", "24", "--tag-dim", "3",
                       "--num-users", "5", "--samples-per-user", "3",
                       "--noise-sd", "0.05", "--mix-shared", "0.5",
                       "--seed", "11", "--out", out])
        assert rc == 0
        assert self.digests(out, self.GENERATE) == self.GENERATE

    # at the desk and full-scale tag width, where a kernel that sums an
    # entry differently (a GEMM) moves the world; 3 tags do not show it
    GENERATE_19 = {
        "artists.tsv": "d51b1ebc060525d8dbb8670f945254cbdf573f62771125dbe713f1c635a00c9c",
        "triples.tsv": "bd9dfb9f5fd90d72b5562d9c2345acf964e72f11c0e9808f51e97bf08f4569cc",
        "true_scores.tsv": "7fe2ec665b05d823131b3a3b4ecce90a9e2f27c22cae9bcb46f281e4256bb85c",
    }

    def test_generate_bytes_at_19_tags(self, tmp_path, capsys):
        out = str(tmp_path / "world")
        rc = cli.main(["generate", "--num-artists", "24", "--tag-dim", "19",
                       "--num-users", "5", "--samples-per-user", "3",
                       "--noise-sd", "0.05", "--mix-shared", "0.5",
                       "--seed", "11", "--out", out])
        assert rc == 0
        assert self.digests(out, self.GENERATE_19) == self.GENERATE_19
