"""Factor containers, triangular solves, and the two inverse updates."""

import math
import os
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import mtfuse
from mtfuse import linalg
from mtfuse.errors import DegenerateGram, SingularUpdate
from mtfuse.kernels import KernelSpec, kernel_matrix
from mtfuse.linalg import (
    FactorSet,
    GrowVec,
    SymMatrix,
    UnitLowerFactor,
    ldl_append,
    schur_enlarge_inverse,
    smw_rank_one_inverse_update,
    tri_solve_dlt,
    tri_solve_ldl,
)

from util import make_inputs


def random_spd(rng, n, ridge=0.5):
    a = rng.normal(size=(n, n))
    return a @ a.T + ridge * np.eye(n)


def sym_inv(a):
    # float inverses of symmetric matrices are not bitwise symmetric
    inv = np.linalg.inv(a)
    return (inv + inv.T) / 2.0


class TestContainers:
    def test_growvec_append_and_view(self):
        v = GrowVec([1.0, 2.0])
        for k in range(20):
            v.append(float(k))
        assert_allclose(v.values, [1.0, 2.0] + [float(k) for k in range(20)])
        # a vector over another's values copies them out on its first append
        c = GrowVec.over(v.values)
        c.append(99.0)
        assert not np.shares_memory(c.values, v.values)
        assert len(v.values) == 22 and c.values.tolist() == v.values.tolist() + [99.0]

    def test_unit_lower_row_lengths(self):
        rng = np.random.default_rng(0)
        lf = UnitLowerFactor()
        for i in range(12):
            lf.append_row(rng.normal(size=i))
        for i in range(12):
            row = lf.rows(i)[: len(lf.rows(i)) - len(lf.rows(i + 1))]
            assert row.shape == (i + 1,) and row[i] == 0.0  # i entries, then the slot
        dense = lf.dense()
        assert_allclose(np.diag(dense), 1.0)
        assert_allclose(np.triu(dense, 1), 0.0)

    def test_unit_lower_solves_and_matvecs(self):
        rng = np.random.default_rng(1)
        lf = UnitLowerFactor()
        for i in range(7):
            lf.append_row(rng.normal(size=i))
        dense = lf.dense()
        b = rng.normal(size=7)
        assert_allclose(lf.solve_unit_lower(b), np.linalg.solve(dense, b),
                        rtol=0, atol=1e-12)
        assert_allclose(lf.solve_unit_upper_t(b), np.linalg.solve(dense.T, b),
                        rtol=0, atol=1e-12)
        idx = np.array([4, 1, 1, 6], dtype=np.intp)
        u = rng.normal(size=4)
        assert_allclose(lf.rows_t_matvec(idx, u), dense[idx].T @ u,
                        rtol=0, atol=1e-12)
        assert_allclose(lf.rows_matvec(idx, b), dense[idx] @ b,
                        rtol=0, atol=1e-12)

    def test_symmatrix_round_trip_and_ops(self):
        rng = np.random.default_rng(2)
        a = random_spd(rng, 6)
        s = SymMatrix.from_dense(a)
        assert s.n == 6
        assert_allclose(s.to_dense(), a, rtol=0, atol=0)
        assert s == SymMatrix.from_packed(s.packed.copy(), 6)
        x = rng.normal(size=6)
        assert_allclose(s.matvec(x), a @ x, rtol=0, atol=1e-12)
        for i in range(6):
            for j in range(6):
                assert s.entry(i, j) == a[i, j]
            assert_allclose(s.column(i), a[:, i], rtol=0, atol=0)
        u = rng.normal(size=6)
        s.add_scaled_outer(-0.25, u)
        assert_allclose(s.to_dense(), a - 0.25 * np.outer(u, u),
                        rtol=0, atol=1e-12)

    def test_symmatrix_border_growth(self):
        rng = np.random.default_rng(3)
        a = random_spd(rng, 4)
        s = SymMatrix.from_dense(a)
        row = rng.normal(size=5)
        s.append_border_row(row)
        want = np.zeros((5, 5))
        want[:4, :4] = a
        want[4, :] = row
        want[:, 4] = row
        assert_allclose(s.to_dense(), want, rtol=0, atol=0)

    def test_symmatrix_copy_is_detached(self):
        s = SymMatrix.from_dense(np.eye(3))
        c = s.copy()
        c.add_scaled_outer(1.0, np.ones(3))
        assert s == SymMatrix.from_dense(np.eye(3))
        assert s != c


class TestTriSolves:
    def test_identity_factors(self):
        lf = UnitLowerFactor()
        d = GrowVec()
        for i in range(3):
            lf.append_row(np.zeros(i))
            d.append(1.0)
        b = np.array([3.0, -1.0, 2.0])
        assert_allclose(tri_solve_ldl(lf, d, b), b, rtol=0, atol=0)
        assert_allclose(tri_solve_dlt(lf, d, b), b, rtol=0, atol=0)

    def test_scalar_case(self):
        lf = UnitLowerFactor()
        lf.append_row(np.zeros(0))
        d = GrowVec([2.0])
        assert_allclose(tri_solve_ldl(lf, d, [4.0]), [2.0], rtol=0, atol=0)
        assert_allclose(tri_solve_dlt(lf, d, [4.0]), [2.0], rtol=0, atol=0)

    def test_round_trip_order_4(self):
        rng = np.random.default_rng(4)
        lf = UnitLowerFactor()
        d = GrowVec()
        for i in range(4):
            lf.append_row(rng.normal(size=i))
            d.append(float(rng.uniform(0.5, 2.0)))
        dense_l, dvals = lf.dense(), d.values
        b = rng.normal(size=4)
        x = tri_solve_ldl(lf, d, b)
        assert_allclose(dense_l @ (dvals * x), b, rtol=0, atol=1e-12)
        x = tri_solve_dlt(lf, d, b)
        assert_allclose(dvals * (dense_l.T @ x), b, rtol=0, atol=1e-12)

    def test_nonpositive_pivot_rejected(self):
        lf = UnitLowerFactor()
        lf.append_row(np.zeros(0))
        d = GrowVec([0.0])
        with pytest.raises(DegenerateGram):
            tri_solve_ldl(lf, d, [1.0])
        with pytest.raises(DegenerateGram):
            tri_solve_dlt(lf, d, [1.0])


class TestLdlAppend:
    def test_first_input_beta_is_self_kernel(self):
        lf, d = UnitLowerFactor(), GrowVec()
        r, beta = ldl_append(lf, d, np.zeros(0), math.e)
        assert r.shape == (0,)
        assert beta == math.e

    def test_orthogonal_second_input(self):
        lf, d = UnitLowerFactor(), GrowVec()
        r, beta = ldl_append(lf, d, np.zeros(0), 1.7)
        lf.append_row(r)
        d.append(beta)
        r, beta = ldl_append(lf, d, np.array([0.0]), 2.5)
        assert_allclose(r, [0.0], rtol=0, atol=0)
        assert beta == 2.5

    def test_three_by_three_reproduces_gram(self):
        rng = np.random.default_rng(5)
        xs = make_inputs(rng, 3, dim=3, unit=True)
        gram = kernel_matrix(xs, xs, KernelSpec.rbf_tags())
        lf, d = UnitLowerFactor(), GrowVec()
        for i in range(3):
            r, beta = ldl_append(lf, d, gram[i, :i], gram[i, i])
            lf.append_row(r)
            d.append(beta)
        rebuilt = lf.dense() @ np.diag(d.values) @ lf.dense().T
        assert_allclose(rebuilt, gram, rtol=0, atol=1e-12)

    def test_long_append_sequence_reproduces_gram(self):
        rng = np.random.default_rng(6)
        for trial in range(5):
            xs = make_inputs(rng, 12, dim=5)
            gram = kernel_matrix(xs, xs, KernelSpec.rbf_tags())
            lf, d = UnitLowerFactor(), GrowVec()
            for i in range(12):
                r, beta = ldl_append(lf, d, gram[i, :i], gram[i, i])
                lf.append_row(r)
                d.append(beta)
            assert np.all(d.values > 0)
            rebuilt = lf.dense() @ np.diag(d.values) @ lf.dense().T
            assert_allclose(rebuilt, gram, rtol=0, atol=1e-10)

    def test_duplicate_input_rejected(self):
        rng = np.random.default_rng(7)
        xs = make_inputs(rng, 4, dim=3)
        xs.append(xs[2])  # exact feature repeat => dependent Gram row
        gram = kernel_matrix(xs, xs, KernelSpec.rbf_tags())
        lf, d = UnitLowerFactor(), GrowVec()
        for i in range(4):
            r, beta = ldl_append(lf, d, gram[i, :i], gram[i, i])
            lf.append_row(r)
            d.append(beta)
        with pytest.raises(DegenerateGram):
            ldl_append(lf, d, gram[4, :4], gram[4, 4])


def _stored(rows):
    # rows as a UnitLowerFactor stores them: each row's entries, then
    # its 0.0 diagonal slot
    return np.concatenate([np.zeros(0)] + [np.append(r, 0.0) for r in rows])


class TestSharedFactors:
    def test_decoded_factor_solves_alike(self):
        # a factor written from its entries, at once or as a head and
        # then the rows since it, has the buffer its appends would have
        # grown, so its solves give the same bits
        rng = np.random.default_rng(33)
        for n in (0, 1, 3, 8, 9, 66, 130, 257):
            grown = UnitLowerFactor()
            for i in range(n):
                grown.append_row(rng.normal(size=i) / max(i, 1))
            for since in sorted({0, n // 3, n - 1 if n else 0, n}):
                back = UnitLowerFactor()
                back.append_rows(grown.view(since).rows(), since)
                back.append_rows(grown.rows(since), n - since)
                assert back.n == n and back._buf.shape == grown._buf.shape
                assert back.dense().tobytes() == grown.dense().tobytes()
                b = rng.normal(size=n)
                for solve in ("solve_unit_lower", "solve_unit_upper_t"):
                    got, want = getattr(back, solve)(b), getattr(grown, solve)(b)
                    assert got.tobytes() == want.tobytes()

    def test_rows_that_do_not_fit_refused_with_nothing_appended(self):
        lf = UnitLowerFactor()
        lf.append_rows(_stored([[], [0.0], [1.0, 2.0]]), 3)
        with pytest.raises(ValueError):
            lf.append_rows(np.ones(8), 2)  # rows 3 and 4 hold 9 entries with slots
        assert lf.n == 3 and lf.rows().tolist() == [0.0, 0.0, 0.0, 1.0, 2.0, 0.0]
        assert lf.rows(2).tolist() == [1.0, 2.0, 0.0]
        assert len(lf.rows(3)) == 0

    def test_rows_are_views_of_the_buffer(self):
        # what encode writes, as one piece, with nothing joined before it
        lf = UnitLowerFactor()
        for i in range(5):
            lf.append_row(np.arange(float(i)))
        rows = lf.rows(1)
        assert rows.tolist() == _stored([np.arange(float(i)) for i in range(1, 5)]).tolist()
        assert np.shares_memory(rows, lf._buf)

    def test_view_copies_before_appending(self):
        rng = np.random.default_rng(34)
        lf = UnitLowerFactor()
        for i in range(5):
            lf.append_row(rng.normal(size=i))
        view = lf.view(3)
        assert view.n == 3 and np.shares_memory(view._buf, lf._buf)
        assert view.dense().tobytes() == lf.dense()[:3, :3].tobytes()
        row3 = lf.rows(3)[:4].copy()  # row 3's three entries and its slot
        view.append_row(rng.normal(size=3))
        assert lf.rows(3)[:4].tobytes() == row3.tobytes()
        assert not np.shares_memory(view._buf, lf._buf)
        assert view._buf.shape == lf._buf.shape  # the same capacity

    def test_view_copies_its_rows_and_no_more(self):
        # a view's first append allocates the packed rows of its capacity
        # (not a square buffer) and copies its own n(n+1)/2 entries, not
        # the rows its source appended past them
        rng = np.random.default_rng(37)
        lf = UnitLowerFactor()
        lf.append_rows(_stored([rng.normal(size=i) for i in range(300)]), 300)
        view = lf.view(290)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            view.append_row(rng.normal(size=290))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        packed = 512 * 513 // 2  # room for 512 rows, as lf has
        assert len(view._buf) == len(lf._buf) == packed
        assert packed * 8 <= peak < packed * 8 + 10_000  # 512 * 512 * 8 is twice
        assert view._buf[: 290 * 291 // 2].tobytes() == lf._buf[: 290 * 291 // 2].tobytes()
        assert not view._buf[291 * 292 // 2 - 1 :].any()  # row 290's slot on

    def test_take_passes_the_right_to_append_in_place(self):
        rng = np.random.default_rng(35)
        lf = UnitLowerFactor()
        lf.append_rows(_stored([rng.normal(size=i) for i in range(4)]), 4)
        first = lf.take()
        first.append_row(rng.normal(size=4))
        assert np.shares_memory(first._buf, lf._buf)  # appended in place
        row4 = first.rows(4).copy()
        second = lf.take()
        second.append_row(rng.normal(size=4))
        assert not np.shares_memory(second._buf, lf._buf)
        assert first.rows(4).tobytes() == row4.tobytes()
        assert lf.n == 4

    def test_factor_set_view_is_frozen(self):
        rng = np.random.default_rng(36)
        xs = make_inputs(rng, 6, dim=4)
        gram = kernel_matrix(xs, xs, KernelSpec.rbf_tags())
        fs = FactorSet(bias_dim=1)
        for i in range(4):
            fs.append(gram[i, :i], gram[i, i], np.ones(1))
        view = fs.view()
        dense, d, m = view.L.dense(), view.D.values.copy(), view.M.copy()
        for i in range(4, 6):
            fs.append(gram[i, :i], gram[i, i], np.ones(1))
        assert view.n == 4
        assert view.L.dense().tobytes() == dense.tobytes()
        assert view.D.values.tobytes() == d.tobytes()
        assert view.M.tobytes() == m.tobytes()
        # the view's own append leaves the set's fifth row alone
        row4 = (fs.L.rows(4)[:5].copy(), fs.D.values[4], fs.M[4].copy())
        view.append(gram[5, :4], gram[5, 5], np.ones(1))
        assert fs.L.rows(4)[:5].tobytes() == row4[0].tobytes()
        assert fs.D.values[4] == row4[1] and fs.M[4].tobytes() == row4[2].tobytes()


class TestFactorSet:
    def test_bias_compatibility_after_every_append(self):
        rng = np.random.default_rng(8)
        xs = make_inputs(rng, 9, dim=4)
        gram = kernel_matrix(xs, xs, KernelSpec.rbf_tags())
        fs = FactorSet(bias_dim=1)
        for i in range(9):
            fs.append(gram[i, :i], gram[i, i], np.ones(1))
            lhs = fs.L.dense() @ np.diag(fs.D.values) @ fs.M
            assert_allclose(lhs, np.ones((i + 1, 1)), rtol=0, atol=1e-10)

    def test_zero_bias_dim_keeps_empty_m(self):
        rng = np.random.default_rng(9)
        xs = make_inputs(rng, 5, dim=4)
        gram = kernel_matrix(xs, xs, KernelSpec.rbf_tags())
        fs = FactorSet(bias_dim=0)
        for i in range(5):
            fs.append(gram[i, :i], gram[i, i], np.zeros(0))
        assert fs.M.shape == (5, 0)

    def test_precomputed_append_matches(self):
        rng = np.random.default_rng(10)
        xs = make_inputs(rng, 6, dim=4)
        gram = kernel_matrix(xs, xs, KernelSpec.rbf_tags())
        fs1 = FactorSet(bias_dim=1)
        fs2 = FactorSet(bias_dim=1)
        for i in range(6):
            r, beta = fs1.append(gram[i, :i], gram[i, i], np.ones(1))
            fs2.append_precomputed(r, beta, fs1.M[i].copy())
        assert np.array_equal(fs1.L.dense(), fs2.L.dense())
        assert np.array_equal(fs1.D.values, fs2.D.values)
        assert np.array_equal(fs1.M, fs2.M)

    def test_forward_solve_independent_of_buffer(self):
        # server and client factors share bits only if the solves and the
        # rows appended through them do not depend on how the buffer was
        # grown, copied, rebuilt or reserved
        rng = np.random.default_rng(30)
        for n in (1, 3, 9, 66, 70, 130, 257):
            xs = make_inputs(rng, n + 40, dim=6, unit=True)
            gram = kernel_matrix(xs, xs, KernelSpec.rbf_tags())
            grown = FactorSet(bias_dim=1)
            for i in range(n):
                grown.append(gram[i, :i], gram[i, i], [1.0])
            # a view's first append copies its rows out of grown's buffer
            copied = grown.view(n - 1)
            copied.append_precomputed(grown.L.rows(n - 1)[:-1], grown.D.values[n - 1],
                                      grown.M[n - 1])
            assert not np.shares_memory(copied.L._buf, grown.L._buf)
            rebuilt, reserved = FactorSet(bias_dim=1), FactorSet(bias_dim=1)
            reserved.L._reserve(2048)
            for i in range(n):
                for other in (rebuilt, reserved):
                    other.append_precomputed(grown.L.rows(i)[:i], grown.D.values[i],
                                             grown.M[i])
            assert len(reserved.L._buf) == 2048 * 2049 // 2
            others = (copied, rebuilt, reserved)
            b = rng.normal(size=n)
            for solve, dense in (("solve_unit_lower", grown.L.dense()),
                                 ("solve_unit_upper_t", grown.L.dense().T)):
                want = getattr(grown.L, solve)(b)
                for other in others:
                    assert getattr(other.L, solve)(b).tobytes() == want.tobytes()
                assert_allclose(want, np.linalg.solve(dense, b), rtol=0,
                                atol=1e-9 * max(1.0, float(np.max(np.abs(want)))))
            for i in range(n, n + 40):
                r, _ = grown.append(gram[i, :i], gram[i, i], [1.0])
                for other in others:
                    r2, _ = other.append(gram[i, :i], gram[i, i], [1.0])
                    assert r2.tobytes() == r.tobytes()
            b = rng.normal(size=n + 40)
            for solve in ("solve_unit_lower", "solve_unit_upper_t"):
                want = getattr(grown.L, solve)(b).tobytes()
                assert all(getattr(o.L, solve)(b).tobytes() == want for o in others)

    def test_solves_alike_under_one_and_two_blas_threads(self):
        # the factor's rows and both solves, at sizes where OpenBLAS's
        # level-2 calls may split work between threads, in two children
        # that differ only in OPENBLAS_NUM_THREADS
        script = textwrap.dedent("""
            import hashlib
            import numpy as np
            from mtfuse.kernels import InputPoint, KernelSpec, kernel_matrix
            from mtfuse.linalg import FactorSet
            for n in (100, 1015):
                rng = np.random.default_rng(n)
                z = rng.normal(size=(n, 8))
                z /= np.linalg.norm(z, axis=1)[:, None]
                xs = [InputPoint(b"%d" % i, row) for i, row in enumerate(z)]
                gram = kernel_matrix(xs, xs, KernelSpec.rbf_tags())
                f = FactorSet(bias_dim=0)
                for i in range(n):
                    f.append(gram[i, :i], gram[i, i], np.zeros(0))
                b = rng.normal(size=n)
                h = hashlib.sha256(f.L.dense().tobytes())
                h.update(f.L.solve_unit_lower(b).tobytes())
                h.update(f.L.solve_unit_upper_t(b).tobytes())
                print(n, h.hexdigest())
        """)
        src = os.path.dirname(os.path.dirname(mtfuse.__file__))
        got = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            run = subprocess.run([sys.executable, "-c", script], env=env, timeout=300,
                                 capture_output=True, text=True, check=True)
            got.append(run.stdout.split())
        assert got[0][::2] == ["100", "1015"]
        assert got[0] == got[1]


# dspmv, dspr and both dtpsv solves through SymMatrix and UnitLowerFactor,
# against scipy's wrappers of the same routines, byte for byte
_BLAS_VS_SCIPY = textwrap.dedent("""
    import numpy as np
    from scipy.linalg import blas
    from mtfuse.linalg import SymMatrix, UnitLowerFactor
    for n in (1, 5, 100, 489, 1015):
        rng = np.random.default_rng(n)
        ap, x, u = rng.normal(size=n * (n + 1) // 2), rng.normal(size=n), rng.normal(size=n)
        x0, u0 = x.tobytes(), u.tobytes()
        h = SymMatrix.from_packed(ap, n)
        assert h.matvec(x).tobytes() == blas.dspmv(n, 1.0, ap, x, lower=0).tobytes()
        h = SymMatrix.from_packed(ap.copy(), n)
        h.add_scaled_outer(-0.375, u)
        assert h.packed.tobytes() == blas.dspr(n, -0.375, u, ap, lower=0).tobytes()
        rows = [rng.normal(size=i) / n for i in range(n)]
        lt = np.concatenate([np.append(r, 0.0) for r in rows])
        f = UnitLowerFactor()
        f.append_rows(lt, n)
        for solve, trans in ((f.solve_unit_lower, 1), (f.solve_unit_upper_t, 0)):
            want = blas.dtpsv(n, lt, x, trans=trans, diag=1)
            assert solve(x).tobytes() == want.tobytes()
        assert (x.tobytes(), u.tobytes()) == (x0, u0)
    print("alike")
""")


class TestBlasBinding:
    def test_matches_scipy_bitwise_in_process(self):
        exec(_BLAS_VS_SCIPY, {})

    def test_matches_scipy_bitwise_under_one_and_two_blas_threads(self):
        src = os.path.dirname(os.path.dirname(mtfuse.__file__))
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            run = subprocess.run([sys.executable, "-c", _BLAS_VS_SCIPY], env=env,
                                 timeout=300, capture_output=True, text=True)
            assert (run.returncode, run.stdout) == (0, "alike\n"), run.stderr

    def test_missing_symbol_names_itself(self):
        with pytest.raises(ImportError, match="scipy_cblas_nosuch64_"):
            linalg._cblas("scipy_cblas_nosuch64_")

    def test_read_only_matrix_refuses_update_and_keeps_its_bytes(self):
        # a matrix over a payload view, as a decoded Disclosed holds H
        payload = np.frombuffer(np.arange(1.0, 7.0).tobytes(), dtype="<f8")
        h = SymMatrix.from_packed(payload, 3)
        with pytest.raises(ValueError, match="read-only"):
            h.add_scaled_outer(2.0, np.ones(3))
        assert payload.tobytes() == np.arange(1.0, 7.0).tobytes()
        assert h.matvec(np.ones(3)).tolist() == [1.0 + 2.0 + 4.0, 2.0 + 3.0 + 5.0,
                                                 4.0 + 5.0 + 6.0]

    def test_strided_vectors_reach_blas_as_contiguous_copies(self):
        rng = np.random.default_rng(11)
        a = random_spd(rng, 7)
        wide = rng.normal(size=(7, 3))
        before = wide.tobytes()
        got, want = SymMatrix.from_dense(a), SymMatrix.from_dense(a)
        assert got.matvec(wide[:, 1]).tobytes() == want.matvec(wide[:, 1].copy()).tobytes()
        got.add_scaled_outer(0.5, wide[:, 2])
        want.add_scaled_outer(0.5, wide[:, 2].copy())
        assert got == want
        f = FactorSet(bias_dim=0)
        for i in range(7):
            f.append(a[i, :i], a[i, i], np.zeros(0))
        for solve in (f.L.solve_unit_lower, f.L.solve_unit_upper_t):
            assert solve(wide[:, 0]).tobytes() == solve(wide[:, 0].copy()).tobytes()
        assert wide.tobytes() == before


class TestSmw:
    def test_zero_vector_keeps_h(self):
        h = SymMatrix.from_dense(random_spd(np.random.default_rng(11), 4))
        out = smw_rank_one_inverse_update(h, np.zeros(4), 0.7)
        assert out == h
        assert out is not h

    def test_identity_example(self):
        h = SymMatrix.from_dense(np.eye(2))
        out = smw_rank_one_inverse_update(h, np.array([1.0, 0.0]), 1.0)
        assert_allclose(out.to_dense(), np.diag([0.5, 1.0]), rtol=0, atol=1e-15)

    def test_against_dense_inversion(self):
        rng = np.random.default_rng(12)
        done = 0
        while done < 50:
            n = int(rng.integers(1, 9))
            h = random_spd(rng, n)
            v = rng.normal(size=n)
            sigma = float(rng.uniform(0.2, 2.0) * rng.choice([-1.0, 1.0]))
            if abs(1.0 / sigma + v @ h @ v) < 1e-6:
                continue  # resample near-singular draws
            want = np.linalg.inv(np.linalg.inv(h) + sigma * np.outer(v, v))
            got = smw_rank_one_inverse_update(SymMatrix.from_dense(h), v, sigma)
            assert_allclose(got.to_dense(), want, rtol=0, atol=1e-10)
            done += 1

    def test_singular_denominator(self):
        h = SymMatrix.from_dense(np.eye(1))
        with pytest.raises(SingularUpdate):
            smw_rank_one_inverse_update(h, np.array([1.0]), -1.0)


class TestSchurEnlarge:
    def test_scalar_base_case(self):
        r0 = SymMatrix()
        k = 0.3
        u, gamma, r_new = schur_enlarge_inverse(r0, np.array([k]), 1.0)
        assert_allclose(u, [-1.0], rtol=0, atol=0)
        assert gamma == pytest.approx(1.0 / (1.0 + k), abs=1e-15)
        assert_allclose(r_new.to_dense(), [[1.0 / (1.0 + k)]], rtol=0, atol=1e-15)

    def test_decoupled_new_row(self):
        rng = np.random.default_rng(13)
        block = random_spd(rng, 3)
        r = SymMatrix.from_dense(sym_inv(block))
        k_self, lam_w = 0.8, 1.4
        ktilde = np.array([0.0, 0.0, 0.0, k_self])
        _, _, r_new = schur_enlarge_inverse(r, ktilde, lam_w)
        want = np.zeros((4, 4))
        want[:3, :3] = sym_inv(block)
        want[3, 3] = 1.0 / (lam_w + k_self)
        assert_allclose(r_new.to_dense(), want, rtol=0, atol=1e-12)

    def test_inverse_of_enlarged_block(self):
        rng = np.random.default_rng(14)
        for trial in range(50):
            n = int(rng.integers(0, 8))
            kernel_part = random_spd(rng, n + 1, ridge=0.1)
            lam_ws = rng.uniform(0.5, 1.5, size=n + 1)
            full = kernel_part + np.diag(lam_ws)
            r = SymMatrix.from_dense(sym_inv(full[:n, :n])) if n else SymMatrix()
            _, _, r_new = schur_enlarge_inverse(
                r, kernel_part[n, : n + 1], float(lam_ws[n])
            )
            assert_allclose(r_new.to_dense() @ full, np.eye(n + 1),
                            rtol=0, atol=1e-9)

    def test_not_positive_definite(self):
        r = SymMatrix.from_dense(np.eye(1))
        # lambda*w smaller than u^T ktilde makes the Schur complement <= 0
        with pytest.raises(SingularUpdate):
            schur_enlarge_inverse(r, np.array([2.0, 1.0]), 0.5)
