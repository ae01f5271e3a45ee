"""Input identity, the input pool, kernel evaluation and bias bases."""

import hashlib
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mtfuse.errors import InvalidInput, MissingFeatures, UnknownKey
from mtfuse.kernels import (
    BiasBasis,
    InputPoint,
    KernelSpec,
    LookupTable,
    MixedEffectConfig,
    Pool,
    basis_matrix,
    eval_kernel,
    eval_mixed,
    kernel_matrix,
    kernel_row,
)

from util import make_config, make_inputs


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


class TestInputPoint:
    def test_identity_is_key_equality(self):
        a = InputPoint(b"k", np.array([1.0, 2.0]))
        b = InputPoint(b"k", np.array([9.0, 9.0]))
        c = InputPoint(b"other", np.array([1.0, 2.0]))
        assert a == b and hash(a) == hash(b)
        assert a != c

    def test_features_read_only(self):
        a = InputPoint(b"k", np.array([1.0, 2.0]))
        with pytest.raises((ValueError, TypeError)):
            a.features[0] = 5.0

    def test_featureless_point_allowed(self):
        a = InputPoint(b"k")
        assert a.features is None


class TestEvalKernel:
    def test_rbf_self_on_unit_vector(self):
        x = InputPoint(b"a", unit([1.0, 1.0, 1.0]))
        assert eval_kernel(KernelSpec.rbf_tags(), x, x) == pytest.approx(
            math.e, abs=1e-12
        )

    def test_linear_orthogonal(self):
        x = InputPoint(b"a", np.array([1.0, 0.0]))
        y = InputPoint(b"b", np.array([0.0, 3.0]))
        assert eval_kernel(KernelSpec.linear_tags(), x, y) == 0.0

    def test_rbf_half_inner_product(self):
        x = InputPoint(b"a", np.array([1.0, 0.0]))
        y = InputPoint(b"b", np.array([0.5, math.sqrt(0.75)]))
        assert eval_kernel(KernelSpec.rbf_tags(), x, y) == pytest.approx(
            math.exp(0.5), abs=1e-12
        )

    def test_missing_features(self):
        x = InputPoint(b"a")
        y = InputPoint(b"b", np.array([1.0]))
        for spec in (KernelSpec.rbf_tags(), KernelSpec.linear_tags()):
            with pytest.raises(MissingFeatures):
                eval_kernel(spec, x, y)

    def test_lookup_kernel(self):
        tbl = np.array([[2.0, 0.5], [0.5, 3.0]])
        spec = KernelSpec.lookup([b"a", b"b"], tbl)
        a, b = InputPoint(b"a"), InputPoint(b"b")
        assert eval_kernel(spec, a, b) == 0.5
        assert eval_kernel(spec, b, b) == 3.0
        with pytest.raises(UnknownKey):
            eval_kernel(spec, a, InputPoint(b"zzz"))

    def test_lookup_table_must_be_symmetric(self):
        with pytest.raises(ValueError):
            LookupTable([b"a", b"b"], np.array([[1.0, 0.2], [0.3, 1.0]]))


class TestEvalMixed:
    def _lookup_cfg(self, alpha, shared_val, indiv_val):
        keys = [b"a", b"b"]
        shared = KernelSpec.lookup(keys, np.full((2, 2), shared_val))
        indiv = KernelSpec.lookup(keys, np.full((2, 2), indiv_val))
        return MixedEffectConfig(alpha=alpha, lam=1.0, shared=shared,
                                 individual=indiv, bias=BiasBasis.empty())

    def test_alpha_one_is_pooled(self):
        rng = np.random.default_rng(0)
        cfg = make_config(1.0, 1.0)
        xs = make_inputs(rng, 4)
        for t1 in range(3):
            for t2 in range(3):
                assert eval_mixed(cfg, xs[0], t1, xs[1], t2) == eval_kernel(
                    cfg.shared, xs[0], xs[1]
                )

    def test_alpha_zero_cross_task_is_zero(self):
        cfg = make_config(0.0, 1.0)
        xs = make_inputs(np.random.default_rng(1), 2)
        assert eval_mixed(cfg, xs[0], 0, xs[1], 1) == 0.0

    def test_half_mix_convex_combination(self):
        cfg = self._lookup_cfg(0.5, 2.0, 1.0)
        a, b = InputPoint(b"a"), InputPoint(b"b")
        assert eval_mixed(cfg, a, 3, b, 3) == pytest.approx(1.5, abs=0)

    def test_symmetry_in_pairs(self):
        rng = np.random.default_rng(2)
        cfg = make_config(0.3, 1.0)
        xs = make_inputs(rng, 5)
        for _ in range(30):
            i, j = rng.integers(0, 5, size=2)
            t1, t2 = rng.integers(0, 4, size=2)
            assert eval_mixed(cfg, xs[i], t1, xs[j], t2) == eval_mixed(
                cfg, xs[j], t2, xs[i], t1
            )

    def test_mixed_gram_is_psd(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            alpha = float(rng.uniform(0.05, 1.0))
            cfg = make_config(alpha, 1.0)
            sz = int(rng.integers(2, 11))
            xs = make_inputs(rng, sz, dim=int(rng.integers(2, 6)))
            tasks = rng.integers(0, 3, size=sz)
            gram = np.array(
                [
                    [
                        eval_mixed(cfg, xs[i], tasks[i], xs[j], tasks[j])
                        for j in range(sz)
                    ]
                    for i in range(sz)
                ]
            )
            assert np.min(np.linalg.eigvalsh(gram)) >= -1e-8

    def test_per_task_override(self):
        keys = [b"a"]
        override = KernelSpec.lookup(keys, np.array([[7.0]]))
        cfg = MixedEffectConfig(
            alpha=0.0, lam=1.0, shared=KernelSpec.lookup(keys, np.array([[1.0]])),
            individual=KernelSpec.lookup(keys, np.array([[1.0]])),
            individual_overrides={2: override}, bias=BiasBasis.empty(),
        )
        a = InputPoint(b"a")
        assert eval_mixed(cfg, a, 2, a, 2) == 7.0
        assert eval_mixed(cfg, a, 1, a, 1) == 1.0


class TestKernelMatrix:
    def test_empty_inputs_give_empty_matrix(self):
        rng = np.random.default_rng(4)
        xs = make_inputs(rng, 3)
        spec = KernelSpec.rbf_tags()
        assert kernel_matrix([], xs, spec).shape == (0, 3)
        assert kernel_matrix(xs, [], spec).shape == (3, 0)
        assert kernel_matrix([], [], spec).shape == (0, 0)

    def test_single_self_entry(self):
        x = InputPoint(b"a", unit([2.0, 1.0]))
        m = kernel_matrix([x], [x], KernelSpec.rbf_tags())
        assert_allclose(m, [[math.e]], rtol=0, atol=1e-12)

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(5)
        xs, ys = make_inputs(rng, 2), make_inputs(rng, 3, prefix=b"y")
        spec = KernelSpec.linear_tags()
        m = kernel_matrix(xs, ys, spec)
        for i in range(2):
            for j in range(3):
                assert m[i, j] == eval_kernel(spec, xs[i], ys[j])

    def test_block_concatenation(self):
        rng = np.random.default_rng(6)
        xs, ys = make_inputs(rng, 5), make_inputs(rng, 4, prefix=b"y")
        spec = KernelSpec.rbf_tags()
        whole = kernel_matrix(xs, ys, spec)
        parts = np.vstack(
            [kernel_matrix(xs[:2], ys, spec), kernel_matrix(xs[2:], ys, spec)]
        )
        assert np.array_equal(whole, parts)


class TestKernelRow:
    """Server/client factor parity rests on these: the same pair gives
    the same bits wherever it sits in a row."""

    SPECS = (KernelSpec.rbf_tags(), KernelSpec.linear_tags())

    def test_entry_independent_of_row_length_and_gather(self):
        rng = np.random.default_rng(20)
        for dim in (4, 19, 64):
            pool = make_inputs(rng, 70, dim=dim, unit=True)
            rows = Pool(pool)
            slots = [int(s) for s in rng.integers(0, len(pool), size=12)]
            for x in make_inputs(rng, 3, dim=dim, prefix=b"q", unit=True) + pool[:2]:
                for spec in self.SPECS:
                    full = kernel_row(spec, x, rows)
                    pairs = np.array([eval_kernel(spec, x, p) for p in pool])
                    assert full.tobytes() == pairs.tobytes()
                    # the block of a growing pool, read in place at each size
                    grown = Pool()
                    for m, p in enumerate(pool, 1):
                        grown.append(p)
                        part = kernel_row(spec, x, grown)
                        assert part.tobytes() == full[:m].tobytes()
                    task = kernel_row(spec, x, rows, slots)
                    assert task.tobytes() == full[slots].tobytes()
                    stacked = kernel_row(spec, x, pool)
                    assert stacked.tobytes() == full.tobytes()

    def test_feature_rows_grow_and_match_inputs(self):
        rng = np.random.default_rng(21)
        pool = make_inputs(rng, 37, dim=5)
        rows = Pool()
        for i, x in enumerate(pool):
            rows.append(x)
            assert np.array_equal(rows.prefix(), [p.features for p in pool[: i + 1]])
            assert rows.slot(x.key) == i and rows[i] == x
            assert rows[i].features.tobytes() == x.features.tobytes()
        assert np.array_equal(rows.take([3, 0, 3]),
                              [pool[3].features, pool[0].features, pool[3].features])
        assert [p.key for p in rows] == [p.key for p in pool]
        assert rows.slot(b"absent") is None

    def test_rows_stop_at_an_input_without_usable_features(self):
        rng = np.random.default_rng(22)
        pool = make_inputs(rng, 3)
        tail = make_inputs(rng, 2, prefix=b"z")
        rows = Pool(pool + [InputPoint(b"bare")] + tail)
        assert len(rows) == 6
        assert rows.prefix(3) is not None
        assert rows.prefix(4) is None and rows.take([0]) is None
        # every input is still there, features past the bare one included
        assert rows[3].features is None
        assert rows[5].features.tobytes() == tail[1].features.tobytes()
        short = Pool(pool + make_inputs(rng, 1, dim=3, prefix=b"s"))
        assert short.prefix(3) is not None and short.prefix() is None
        x = make_inputs(rng, 1, prefix=b"q")[0]
        with pytest.raises(MissingFeatures):
            kernel_row(KernelSpec.rbf_tags(), x, Pool(pool + [InputPoint(b"bare")]))
        with pytest.raises(ValueError):
            kernel_row(KernelSpec.linear_tags(), x, short)

    def test_lookup_row_gathers_the_table(self):
        tbl = np.array([[2.0, 0.5, 0.1], [0.5, 3.0, 0.2], [0.1, 0.2, 1.0]])
        spec = KernelSpec.lookup([b"a", b"b", b"c"], tbl)
        pool = [InputPoint(b"c"), InputPoint(b"a"), InputPoint(b"c")]
        row = kernel_row(spec, InputPoint(b"b"), pool)
        assert row.tolist() == [0.2, 0.5, 0.2]
        with pytest.raises(UnknownKey):
            kernel_row(spec, InputPoint(b"b"), pool + [InputPoint(b"zzz")])

    def test_non_finite_values_raise_overflow(self):
        pool = [InputPoint(b"p", np.array([0.0, 1.0, 0.0, 0.0])),
                InputPoint(b"q", np.array([2.0, -2.0, 0.0, 0.0]))]
        huge = InputPoint(b"huge", np.array([1e200, 0.0, 0.0, 0.0]))
        nan_dot = InputPoint(b"nan", np.array([1e308, 1e308, 0.0, 0.0]))
        for spec in self.SPECS:
            with pytest.raises(OverflowError):
                eval_kernel(spec, huge, huge)  # 1e400 overflows the dot
            with pytest.raises(OverflowError):
                kernel_row(spec, nan_dot, pool)  # inf - inf is NaN
        # a finite dot product whose exp overflows; exp(709) still is a value
        one = InputPoint(b"o", np.array([1.0, 0.0, 0.0, 0.0]))
        with pytest.raises(OverflowError):
            eval_kernel(KernelSpec.rbf_tags(), one, InputPoint(b"b", [710.0, 0, 0, 0]))
        edge = InputPoint(b"e", np.array([709.0, 0.0, 0.0, 0.0]))
        assert math.isfinite(eval_kernel(KernelSpec.rbf_tags(), edge, one))


class TestKernelBlock:
    """kernel_matrix is the one kernel body: every entry of a block is
    its pair evaluated alone, whatever the block's shape or sides."""

    # kernel_matrix and kernel_row over the seeded pool below, computed
    # before kernel_row and eval_kernel became cases of kernel_matrix
    DIGEST = "9851d92a2c4993cff622e83a64b0e15a743536a702759e9950b927f13e7bb4cd"

    @staticmethod
    def specs(inputs, rng):
        table = rng.normal(size=(len(inputs), len(inputs)))
        return (KernelSpec.rbf_tags(), KernelSpec.linear_tags(),
                KernelSpec.lookup([x.key for x in inputs], table + table.T))

    def test_every_entry_is_its_pair_alone(self):
        rng = np.random.default_rng(25)
        pool = make_inputs(rng, 64, dim=19, unit=True)
        queries = make_inputs(rng, 5, dim=19, prefix=b"q", unit=True)
        whole = Pool(pool)
        for spec in self.specs(pool + queries, rng):
            for n_left in (0, 1, 7, 64):
                idx = [int(s) for s in rng.integers(0, 64, size=n_left)]
                idx[-1:] = idx[:1]  # a repeat, from two rows on
                lefts = ((whole.view(n_left), None, pool[:n_left]),
                         (whole, idx, [pool[i] for i in idx]),
                         (pool[:n_left], None, pool[:n_left]))
                for n_right in (0, 1, 5):
                    ys = queries[:n_right]
                    for xs, at, items in lefts:
                        block = kernel_matrix(xs, ys, spec, at)
                        assert block.shape == (n_left, n_right)
                        pairs = np.array([[eval_kernel(spec, x, y) for y in ys]
                                          for x in items]).reshape(n_left, n_right)
                        assert block.tobytes() == pairs.tobytes()
                        for j, y in enumerate(ys):
                            row = kernel_row(spec, y, xs, at)
                            assert row.tobytes() == block[:, j].tobytes()

    def test_bits_as_before_the_block_body(self):
        rng = np.random.default_rng(1717)
        pool = make_inputs(rng, 64, dim=19, unit=True)
        queries = make_inputs(rng, 5, dim=19, prefix=b"q", unit=True)
        rows = Pool(pool)
        slots = [int(s) for s in rng.integers(0, 64, size=9)]
        h = hashlib.sha256()
        for spec in (KernelSpec.rbf_tags(), KernelSpec.linear_tags()):
            h.update(kernel_matrix(rows, queries, spec).tobytes())
            h.update(kernel_matrix(pool, pool, spec).tobytes())
            h.update(kernel_matrix(rows, queries, spec, slots).tobytes())
            for q in queries:
                h.update(kernel_row(spec, q, rows).tobytes())
                h.update(kernel_row(spec, q, rows, slots).tobytes())
        assert h.hexdigest() == self.DIGEST

    def test_errors(self):
        rng = np.random.default_rng(26)
        xs = make_inputs(rng, 3)
        bare, short = InputPoint(b"bare"), make_inputs(rng, 1, dim=3, prefix=b"s")[0]
        rbf = KernelSpec.rbf_tags()
        for left, right in ((xs + [bare], xs), (xs, [bare]), (Pool(xs + [bare]), xs)):
            with pytest.raises(MissingFeatures):
                kernel_matrix(left, right, rbf)
        for left, right in ((xs + [short], xs), (xs, [short]), (Pool(xs + [short]), xs)):
            with pytest.raises(ValueError):
                kernel_matrix(left, right, KernelSpec.linear_tags())
        huge = InputPoint(b"huge", np.array([1e200, 0.0, 0.0, 0.0]))
        for spec in (rbf, KernelSpec.linear_tags()):
            with pytest.raises(OverflowError):
                kernel_matrix(xs + [huge], xs + [huge], spec)
        lookup = self.specs(xs, rng)[2]
        for left, right in ((xs, [bare]), ([bare], xs), (Pool(xs + [bare]), xs)):
            with pytest.raises(UnknownKey):
                kernel_matrix(left, right, lookup)


class TestPool:
    def test_key_listed_twice_refused(self):
        rng = np.random.default_rng(23)
        xs = make_inputs(rng, 3)
        pool = Pool(xs)
        with pytest.raises(ValueError, match="input key b'x-0001' listed twice"):
            pool.append(InputPoint(b"x-0001", np.ones(4)))
        assert len(pool) == 3 and pool.keys == tuple(x.key for x in xs)
        with pytest.raises(ValueError, match="listed twice"):
            Pool(xs + xs[1:2])
        with pytest.raises(ValueError, match="input key b'b' listed twice"):
            Pool.from_columns((b"a", b"b", b"b"), np.full(3, -1), np.zeros(0))

    def test_view_copies_before_its_first_append(self):
        rng = np.random.default_rng(24)
        xs = make_inputs(rng, 6, unit=True)
        pool = Pool(xs[:3])
        view = pool.view()
        block = pool.prefix()
        assert np.shares_memory(view.prefix(), block)
        # the pool grows in place; the view still holds three inputs
        pool.append(xs[3])
        assert len(view) == 3 and view.slot(xs[3].key) is None
        assert np.shares_memory(pool.prefix(), block)
        # the view's append copies out: the pool's entries do not move
        before = pool.prefix().tobytes()
        view.append(xs[4])
        assert not np.shares_memory(view.prefix(), block)
        assert pool.prefix().tobytes() == before and len(pool) == 4
        assert pool.slot(xs[4].key) is None and view.slot(xs[4].key) == 3
        assert view.slot(xs[3].key) is None
        assert [x.key for x in view] == [x.key for x in xs[:3] + xs[4:5]]
        # so does the pool's, once its buffer is full
        for x in make_inputs(rng, 4, unit=True, prefix=b"y"):
            pool.append(x)
        assert len(pool) == 8 and len(view) == 4
        assert not np.shares_memory(pool.prefix(), block)

    def test_check_refuses_features_that_do_not_fit(self):
        pool = Pool([InputPoint(b"a", np.ones(4))])
        for bad in ([np.nan, 0, 0, 0], [0, np.inf, 0, 0], [0, 0, 0, -np.inf]):
            with pytest.raises(InvalidInput, match="finite"):
                pool.check(InputPoint(b"b", bad), True)
            with pytest.raises(InvalidInput, match="finite"):
                pool.check(InputPoint(b"b", bad), False)
        for width in (0, 3, 5):
            with pytest.raises(InvalidInput, match="%d features" % width):
                pool.check(InputPoint(b"b", np.ones(width)), True)
            pool.check(InputPoint(b"b", np.ones(width)), False)
        pool.check(InputPoint(b"b", np.ones(4)), True)
        pool.check(InputPoint(b"b"), True)
        Pool().check(InputPoint(b"b", np.ones(7)), True)


class TestBias:
    def test_constant_column(self):
        xs = make_inputs(np.random.default_rng(7), 3)
        assert_allclose(basis_matrix(xs, BiasBasis.constant()), np.ones((3, 1)),
                        rtol=0, atol=0)

    def test_empty_basis(self):
        xs = make_inputs(np.random.default_rng(8), 4)
        assert basis_matrix(xs, BiasBasis.empty()).shape == (4, 0)

    def test_custom_basis_matches_direct(self):
        xs = make_inputs(np.random.default_rng(9), 4)
        basis = BiasBasis.custom([lambda x: float(x.features[0])])
        m = basis_matrix(xs, basis)
        want = np.array([[x.features[0]] for x in xs])
        assert_allclose(m, want, rtol=0, atol=0)


class TestConfigValidation:
    def test_alpha_range(self):
        for bad in (-0.1, 1.1):
            with pytest.raises(ValueError):
                make_config(bad, 1.0)

    def test_lam_positive_finite(self):
        for bad in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(ValueError):
                make_config(0.5, bad)

    def test_bias_dim(self):
        assert make_config(0.5, 1.0, d=0).bias_dim == 0
        assert make_config(0.5, 1.0, d=1).bias_dim == 1

    def test_kernel_spec_equality(self):
        assert KernelSpec.rbf_tags() == KernelSpec.rbf_tags()
        assert KernelSpec.rbf_tags() != KernelSpec.linear_tags()
        t1 = KernelSpec.lookup([b"a"], np.array([[1.0]]))
        t2 = KernelSpec.lookup([b"a"], np.array([[1.0]]))
        t3 = KernelSpec.lookup([b"a"], np.array([[2.0]]))
        assert t1 == t2 and t1 != t3
