"""The package's public names, and README's tour of them."""

import os
import re
import subprocess
import sys
import textwrap

import mtfuse


def test_every_export_resolves_and_star_import_works():
    assert [name for name in mtfuse.__all__ if not hasattr(mtfuse, name)] == []
    assert len(set(mtfuse.__all__)) == len(mtfuse.__all__)
    namespace = {}
    exec("from mtfuse import *", namespace)
    assert set(mtfuse.__all__) <= set(namespace)


def test_readme_quick_tour_runs():
    # the Quick tour's python blocks, run in order in one namespace, as a
    # reader pastes them
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        section = fh.read().split("\n## Quick tour (Python)\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, re.M | re.S)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert isinstance(namespace["model"], mtfuse.ClientModel)


def _modules_after(script, roots):
    # the modules of the packages roots loaded once script has run in a
    # fresh process
    script = textwrap.dedent(script) + textwrap.dedent("""
        import sys
        print(sorted(m for m in sys.modules if m.split(".")[0] in %r))
    """ % (roots,))
    src = os.path.dirname(os.path.dirname(mtfuse.__file__))
    run = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                         timeout=120, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return run.stdout


def _scipy_modules_after(script):
    return _modules_after(script, ("scipy",))


def test_serving_and_both_refreshes_load_no_scipy():
    # a daemon and its clients in one fresh process, over TCP: the engine's
    # BLAS is numpy's, and scipy is imported only where it is needed
    assert _scipy_modules_after("""
        import numpy as np
        from mtfuse import (BiasBasis, Client, InputPoint, KernelSpec, MixedEffectConfig,
                            PrivateData, ServerEngine, predict_client)
        from mtfuse.daemon import RemoteServer, start_server
        cfg = MixedEffectConfig(alpha=0.5, lam=0.1, shared=KernelSpec.rbf_tags(),
                                individual=KernelSpec.linear_tags(), bias=BiasBasis.constant())
        points = [InputPoint(b"item-%d" % i, f / np.linalg.norm(f))
                  for i, f in enumerate(np.random.default_rng(0).normal(size=(3, 4)))]
        srv = start_server(ServerEngine(cfg), ("127.0.0.1", 0), {0: b"tok"})
        try:
            with RemoteServer(srv.address, task=0, token=b"tok") as conn:
                conn.submit(points[0], 1.0, 1.0)
                active = Client(0, cfg).active_refresh(conn)
                passive = Client(1, cfg).passive_refresh(
                    conn.get_disclosed(), PrivateData([(points[1], 0.5, 1.0)]))
        finally:
            srv.shutdown()
            srv.server_close()
        for model in (active, passive):
            assert np.isfinite(predict_client(model, cfg, points[2]))
    """) == "[]\n"


def test_offline_solve_with_a_bias_loads_no_scipy():
    # the production offline solve and its predictions, with a constant
    # bias: the bias is the engine's shared solve, and LU is the oracles' alone
    assert _scipy_modules_after("""
        import numpy as np
        from mtfuse import BiasBasis, InputPoint, KernelSpec, MixedEffectConfig
        from mtfuse.offline import Dataset, predictions_grid, solve_condensed
        cfg = MixedEffectConfig(alpha=0.5, lam=0.1, shared=KernelSpec.rbf_tags(),
                                individual=KernelSpec.linear_tags(), bias=BiasBasis.constant())
        points = [InputPoint(b"item-%d" % i, f / np.linalg.norm(f))
                  for i, f in enumerate(np.random.default_rng(1).normal(size=(3, 4)))]
        ds = Dataset([(0, points[0], 1.0, 1.0), (1, points[1], -0.5, 2.0),
                      (1, points[0], 0.2, 1.0)])
        grid = predictions_grid(solve_condensed(ds, cfg), cfg, [0, 1], points)
        assert grid.shape == (2, 3) and np.all(np.isfinite(grid))
    """) == "[]\n"


def test_harness_and_oracles_load_no_scipy():
    # generate, a one-cell desk sweep with a bias in both modes, the
    # preference score and both dense oracles with a bias, in one fresh
    # process: scipy is the tests' reference alone
    assert _scipy_modules_after("""
        import contextlib, io, os, tempfile
        import numpy as np
        from mtfuse import (BiasBasis, Client, InputPoint, KernelSpec, MixedEffectConfig,
                            ServerEngine, cli, preference_score)
        from mtfuse.offline import Dataset, solve_backfit, solve_full_system
        with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["generate", "--out", os.path.join(out, "world")]) == 0
            for mode in ("offline", "client-server"):
                assert cli.main(["sweep", "--mode", mode, "--bias", "constant",
                                 "--alpha-grid", "0.5", "--lambda-grid", "0.01",
                                 "--out", os.path.join(out, mode)]) == 0
        cfg = MixedEffectConfig(alpha=0.5, lam=0.1, shared=KernelSpec.rbf_tags(),
                                individual=KernelSpec.linear_tags(), bias=BiasBasis.constant())
        points = [InputPoint(b"item-%d" % i, f / np.linalg.norm(f))
                  for i, f in enumerate(np.random.default_rng(2).normal(size=(3, 4)))]
        ds = Dataset([(0, points[0], 1.0, 1.0), (1, points[1], -0.5, 2.0),
                      (1, points[0], 0.2, 1.0)])
        for solve in (solve_full_system, solve_backfit):
            assert np.all(np.isfinite(solve(ds, cfg).b))
        engine = ServerEngine(cfg)
        for task, x, y, w in ds.triples:
            engine.receive_example(task, x, y, w)
        model = Client(1, cfg).active_refresh(engine)
        assert 0.0 < preference_score(model, cfg, points[2]) < 1.0
    """) == "[]\n"


def test_serving_loads_no_openssl():
    # the daemon compares tokens with CPython's own constant-time compare:
    # a process that serves an authorized and a refused submit maps no
    # OpenSSL
    assert _modules_after("""
        import numpy as np
        from mtfuse import InputPoint, KernelSpec, MixedEffectConfig, ServerEngine
        from mtfuse.daemon import RemoteServer, start_server
        from mtfuse.errors import Unauthorized
        cfg = MixedEffectConfig(alpha=0.5, lam=0.1, shared=KernelSpec.rbf_tags(),
                                individual=KernelSpec.linear_tags())
        x = InputPoint(b"item", np.array([0.6, 0.8]))
        srv = start_server(ServerEngine(cfg), ("127.0.0.1", 0), {0: b"tok"})
        try:
            with RemoteServer(srv.address, task=0, token=b"tok") as conn:
                assert conn.submit(x, 1.0, 1.0).epoch == 1
                try:
                    conn.submit(x, 1.0, 1.0, token=b"tok!")
                    raise AssertionError("a wrong token was taken")
                except Unauthorized:
                    pass
        finally:
            srv.shutdown()
            srv.server_close()
    """, ("_hashlib", "ssl", "_ssl")) == "[]\n"
