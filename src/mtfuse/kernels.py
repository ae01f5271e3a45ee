"""Input identity, kernel evaluation and the mixed-effect combination.

An input is identified by an opaque byte key; two inputs are the same
point iff their keys are byte-equal.

Every kernel value in the system comes from one function, kernel_row:
the values of one input against a pool of inputs, computed as one
vector.  Entry i depends only on the input and pool[i], never on how
many rows are evaluated with it or where they sit in memory, so the
server's row over its whole pool, a client's row over a prefix of it, a
gather of one task's rows and a single pair (eval_kernel) all give
bit-identical numbers for the same pair of inputs.  Feature kernels get
that from np.vecdot, which takes one dot product per row; a
matrix-vector product (F @ f) may sum a row differently depending on
the rows around it.
"""

import math
from collections.abc import Sequence

import numpy as np

from .errors import MissingFeatures, UnknownKey
from .linalg import _grown

_F64 = np.float64

# kernel variants
RBF_TAGS = "rbf-tags"        # exp(z1 . z2) on feature vectors
LINEAR_TAGS = "linear-tags"  # z1 . z2 on feature vectors
LOOKUP = "lookup"            # precomputed symmetric table keyed by input key


class InputPoint:
    """One input: a byte key plus an optional feature vector.

    Equality and hashing go by key only; the feature vector is payload
    for the feature-based kernels.
    """

    __slots__ = ("key", "features")

    def __init__(self, key, features=None):
        if not isinstance(key, bytes):
            raise TypeError("key must be bytes, got %r" % type(key).__name__)
        self.key = key
        if features is not None:
            features = np.ascontiguousarray(features, dtype=_F64)
            if features.ndim != 1:
                raise ValueError("features must be a flat vector")
            features.flags.writeable = False
        self.features = features

    @classmethod
    def _prechecked(cls, key, features):
        # key is bytes and features a read-only float64 vector or None,
        # as InputColumns holds them: nothing to convert
        out = cls.__new__(cls)
        out.key = key
        out.features = features
        return out

    def __eq__(self, other):
        if not isinstance(other, InputPoint):
            return NotImplemented
        return self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):  # pragma: no cover
        return "InputPoint(%r)" % (self.key,)


class LookupTable:
    """Symmetric kernel values for a fixed key set."""

    __slots__ = ("index", "matrix")

    def __init__(self, keys, matrix):
        matrix = np.ascontiguousarray(matrix, dtype=_F64)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("table matrix must be square")
        if len(keys) != matrix.shape[0]:
            raise ValueError("key count does not match table order")
        if not np.array_equal(matrix, matrix.T):
            raise ValueError("table matrix must be symmetric")
        self.index = {}
        for i, k in enumerate(keys):
            if not isinstance(k, bytes):
                raise TypeError("table keys must be bytes")
            if k in self.index:
                raise ValueError("duplicate table key %r" % (k,))
            self.index[k] = i
        self.matrix = matrix

    @property
    def keys(self):
        return tuple(self.index.keys())

    def position(self, key):
        try:
            return self.index[key]
        except KeyError:
            raise UnknownKey("key %r not in lookup table" % (key,)) from None


class KernelSpec:
    """Which kernel to evaluate, plus its table when variant is lookup."""

    __slots__ = ("variant", "table")

    def __init__(self, variant, table=None):
        if variant not in (RBF_TAGS, LINEAR_TAGS, LOOKUP):
            raise ValueError("unknown kernel variant %r" % (variant,))
        if variant == LOOKUP:
            if table is None:
                raise ValueError("lookup kernel needs a table")
        elif table is not None:
            raise ValueError("table only valid for the lookup variant")
        self.variant = variant
        self.table = table

    @classmethod
    def rbf_tags(cls):
        return cls(RBF_TAGS)

    @classmethod
    def linear_tags(cls):
        return cls(LINEAR_TAGS)

    @classmethod
    def lookup(cls, keys, matrix):
        return cls(LOOKUP, LookupTable(keys, matrix))

    def __eq__(self, other):
        if not isinstance(other, KernelSpec):
            return NotImplemented
        if self.variant != other.variant:
            return False
        if self.variant != LOOKUP:
            return True
        return (
            self.table.keys == other.table.keys
            and np.array_equal(self.table.matrix, other.table.matrix)
        )

    def __hash__(self):  # pragma: no cover
        return hash(self.variant)

    def __repr__(self):  # pragma: no cover
        return "KernelSpec(%r)" % (self.variant,)


class FeatureRows:
    """Feature vectors of a growing pool as one n x D float64 matrix.

    Row i holds the features of the pool's i-th input.  A pool given
    at construction is allocated once; later appends double the buffer
    like linalg's, so an append is amortized O(D) and a prefix is a
    view.  Rows are kept while every input has features of one length;
    past the first input that breaks this, prefix and take return None,
    and kernel_row then stacks the inputs themselves and raises what a
    pair would (MissingFeatures, or ValueError on a length mismatch).
    """

    __slots__ = ("_buf", "n", "good")

    def __init__(self, inputs=()):
        self._buf = np.zeros((8, 0), dtype=_F64)
        self.n = 0
        self.good = 0  # leading rows that are stored
        for x in inputs:
            self.append(x, reserve=len(inputs))

    def append(self, x, reserve=8):
        # reserve: rows to allocate when the first row fixes the length
        f = x.features
        if self.good == self.n and f is not None:
            if self.n == 0:
                self._buf = np.zeros((max(reserve, 8), len(f)), dtype=_F64)
            if len(f) == self._buf.shape[1]:
                self._buf = _grown(self._buf, self.n + 1)
                self._buf[self.n] = f
                self.good += 1
        self.n += 1

    @classmethod
    def over(cls, rows, n):
        """The rows of n inputs whose leading len(rows) rows are the
        matrix rows, sharing it: its capacity is len(rows), so its first
        append copies the rows out."""
        out = cls.__new__(cls)
        out._buf = rows
        out.n = n
        out.good = len(rows)
        return out

    def prefix(self, m=None):
        """Rows 0..m-1 (all rows by default) as a view, or None."""
        m = self.n if m is None else m
        return self._buf[:m] if 0 < m <= self.good else None

    def take(self, idx):
        """The rows at positions idx, gathered into a new matrix, or None."""
        return self._buf[idx] if 0 < self.good == self.n else None


class FeatureColumn(Sequence):
    """The feature vectors of a pool's inputs, held in two arrays.

    lengths holds each input's feature count (-1 for an input without
    features), and values every present vector in pool order, one after
    another: when every input has D features, values is the n x D block,
    row after row.  values is read-only; rows are FeatureRows over it,
    and an input's features are a view of it.
    """

    __slots__ = ("lengths", "values", "_ends", "_block")

    def __init__(self, lengths, values):
        self.lengths = lengths
        self.values = values
        values.flags.writeable = False
        self._ends = np.cumsum(np.maximum(lengths, 0))
        # the rows of the leading inputs whose features share one length d
        n = len(lengths)
        good = d = 0
        if n and lengths[0] >= 0:
            d = int(lengths[0])
            breaks = np.flatnonzero(lengths != d)
            good = int(breaks[0]) if len(breaks) else n
        self._block = values[: good * d].reshape(good, d)

    @classmethod
    def of(cls, features):
        """The column of an n x D block, which it shares, or of a sequence
        of per-input vectors (None for an input without features)."""
        if isinstance(features, cls):
            return features
        if isinstance(features, np.ndarray):
            n, d = features.shape
            return cls(np.full(n, d, dtype=np.int64), features.reshape(-1))
        lengths = np.array([-1 if f is None else len(f) for f in features],
                           dtype=np.int64)
        present = [np.asarray(f, dtype=_F64) for f in features if f is not None]
        return cls(lengths, np.concatenate(present + [np.zeros(0)]))

    @property
    def rows(self):
        """FeatureRows of their own over values (see FeatureRows.over)."""
        return FeatureRows.over(self._block, len(self))

    def __len__(self):
        return len(self.lengths)

    def __getitem__(self, i):
        k, end = int(self.lengths[i]), int(self._ends[i])
        return None if k < 0 else self.values[end - k : end]

    def __iter__(self):
        values = self.values
        for k, end in zip(self.lengths.tolist(), self._ends.tolist()):
            yield None if k < 0 else values[end - k : end]


class InputColumns(Sequence):
    """The inputs of a pool, held as columns: keys, the keys in pool
    order, and features, their FeatureColumn.  An input is made on
    demand, once (a model's prediction reads its task's inputs at every
    call); two pools are equal when their keys are, as for inputs.
    """

    __slots__ = ("keys", "features", "_made")

    def __init__(self, keys, features):
        self.keys = tuple(keys)
        self.features = features
        self._made = None  # the inputs made so far, by position

    @classmethod
    def of(cls, inputs, rows=None):
        """The columns of a sequence of inputs; rows, when given, are
        their FeatureRows, whose block the columns then share."""
        if isinstance(inputs, cls):
            return inputs
        n = len(inputs)
        block = rows.prefix(n) if rows is not None and rows.good == n else None
        features = [x.features for x in inputs] if block is None else block
        return cls([x.key for x in inputs], FeatureColumn.of(features))

    @property
    def rows(self):
        return self.features.rows

    def __len__(self):
        return len(self.keys)

    def take(self, idx):
        """The inputs at positions idx, as a list."""
        if isinstance(idx, np.ndarray):
            idx = idx.tolist()
        made = self._made
        if made is None:
            made = self._made = [None] * len(self.keys)
        out = [made[i] for i in idx]
        if not all(out):
            for k, i in enumerate(idx):
                if out[k] is None:
                    x = InputPoint._prechecked(self.keys[i], self.features[i])
                    out[k] = made[i] = x
        return out

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self.take(range(*i.indices(len(self)))))
        return self.take((i,))[0]

    def __iter__(self):
        made = self._made or [None] * len(self.keys)
        self._made = [x or InputPoint._prechecked(k, f)
                      for x, k, f in zip(made, self.keys, self.features)]
        return iter(self._made)

    def __eq__(self, other):
        if not isinstance(other, InputColumns):
            return NotImplemented
        return self.keys == other.keys

    __hash__ = None


def kernel_row(spec, x, pool, feats=None):
    """Kernel values of input x against each input of pool, as a vector.

    feats, when given, holds the feature vectors of pool as the rows of
    a float64 matrix (a FeatureRows prefix or gather); otherwise they
    are stacked from pool.  Entry i is the same for any pool holding
    pool[i], at any position.  Raises OverflowError when a value is not
    finite, MissingFeatures when a feature kernel meets an input without
    features.
    """
    variant = spec.variant
    if variant == LOOKUP:
        tbl = spec.table
        out = tbl.matrix[tbl.position(x.key), [tbl.position(p.key) for p in pool]]
    else:
        f = x.features
        if f is None or feats is None and any(p.features is None for p in pool):
            raise MissingFeatures(
                "kernel %r needs feature vectors on both inputs" % variant
            )
        if feats is None:
            feats = np.array([p.features for p in pool], dtype=_F64)
            feats = feats.reshape(len(pool), len(f))
        # an overflow is reported below, as an exception, not as a warning
        with np.errstate(over="ignore", invalid="ignore"):
            out = np.vecdot(feats, f)
            if variant == RBF_TAGS:
                np.exp(out, out=out)
    if not np.isfinite(out).all():
        raise OverflowError("kernel %r value is not finite" % variant)
    return out


def eval_kernel(spec, x1, x2):
    """Kernel value for a pair of inputs: the one-row case of kernel_row."""
    f2 = x2.features
    return float(kernel_row(spec, x1, (x2,), None if f2 is None else f2[None])[0])


class BiasBasis:
    """Unpenalized bias functions; the constant-1 basis is the default."""

    NONE = "none"
    CONSTANT = "constant"
    CUSTOM = "custom"

    __slots__ = ("kind", "_evals")

    def __init__(self, kind, evals):
        self.kind = kind
        self._evals = tuple(evals)

    @classmethod
    def empty(cls):
        return cls(cls.NONE, ())

    @classmethod
    def constant(cls):
        return cls(cls.CONSTANT, (lambda x: 1.0,))

    @classmethod
    def custom(cls, evals):
        return cls(cls.CUSTOM, tuple(evals))

    @property
    def dim(self):
        return len(self._evals)

    def row(self, x):
        return np.array([f(x) for f in self._evals], dtype=_F64)

    def __eq__(self, other):
        if not isinstance(other, BiasBasis):
            return NotImplemented
        if self.kind != other.kind:
            return False
        if self.kind == self.CUSTOM:
            return self._evals == other._evals
        return True

    def __hash__(self):  # pragma: no cover
        return hash(self.kind)


class MixedEffectConfig:
    """Mixing weight, ridge weight and the kernels of the mixed model.

    alpha in [0, 1] blends the shared component (kernel `shared`, plus
    the bias) against the per-task individual components (kernel
    `individual`, overridable per task).  lam > 0 is the ridge weight.
    Both are fixed for the lifetime of a model or server.
    """

    __slots__ = ("alpha", "lam", "shared", "individual", "individual_overrides", "bias")

    def __init__(
        self,
        alpha,
        lam,
        shared,
        individual,
        individual_overrides=None,
        bias=None,
    ):
        alpha = float(alpha)
        lam = float(lam)
        if not 0.0 <= alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1], got %g" % alpha)
        if not lam > 0.0 or not math.isfinite(lam):
            raise ValueError("lam must be finite and > 0, got %g" % lam)
        self.alpha = alpha
        self.lam = lam
        self.shared = shared
        self.individual = individual
        self.individual_overrides = dict(individual_overrides or {})
        self.bias = bias if bias is not None else BiasBasis.constant()

    def individual_for(self, task):
        return self.individual_overrides.get(task, self.individual)

    @property
    def bias_dim(self):
        return self.bias.dim


def eval_shared(cfg, x1, x2):
    """Shared-kernel value (unscaled by alpha)."""
    return eval_kernel(cfg.shared, x1, x2)


def eval_mixed(cfg, x1, t1, x2, t2):
    """Full mixed-effect kernel between (input, task) pairs.

    alpha * shared(x1, x2) plus, when both observations belong to the
    same task, (1 - alpha) * individual_t(x1, x2).
    """
    val = cfg.alpha * eval_kernel(cfg.shared, x1, x2)
    if t1 == t2:
        val += (1.0 - cfg.alpha) * eval_kernel(cfg.individual_for(t1), x1, x2)
    return val


def kernel_matrix(xs, ys, spec, feats=None):
    """Kernel matrix, shape (len(xs), len(ys)), one kernel_row per column.

    feats optionally holds the feature vectors of xs as matrix rows.
    """
    if feats is None:
        feats = FeatureRows(xs).prefix()
    out = np.empty((len(xs), len(ys)), dtype=_F64)
    for j, y in enumerate(ys):
        out[:, j] = kernel_row(spec, y, xs, feats)
    return out


def basis_matrix(xs, basis):
    """Bias matrix, shape (len(xs), basis.dim)."""
    out = np.empty((len(xs), basis.dim), dtype=_F64)
    for i, x in enumerate(xs):
        out[i] = basis.row(x)
    return out


def find(x, xs):
    """1-based position of the first key match of x in xs; len+1 if absent."""
    for i, other in enumerate(xs):
        if other.key == x.key:
            return i + 1
    return len(xs) + 1
