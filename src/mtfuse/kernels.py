"""Input identity, the input pool, kernel evaluation and the
mixed-effect combination.

An input is identified by an opaque byte key; two inputs are the same
point iff their keys are byte-equal.  A pool of unique inputs is held in
one place, a Pool: keys, a key -> position index and the features as
one buffer.

Every kernel value in the system comes from one block body,
kernel_matrix: the values of some inputs against others, computed as
one matrix; kernel_row (one input against a pool) and eval_kernel (a
single pair) are its one-column and one-entry cases.  Entry (i, j)
depends only on the pair of inputs, never on the block around it or
where it sits in memory, so the server's row over its whole pool, a
client's row over a prefix of it, a gather of one task's rows, a block
of predictions and a single pair all give bit-identical numbers for the
same pair of inputs.  Feature kernels get that from np.vecdot, which
takes one dot product per entry; a matrix product (X @ Y.T) may sum an
entry differently depending on the entries around it.
"""

import math
from collections.abc import Sequence

import numpy as np

from .errors import InvalidInput, MissingFeatures, NonPositiveWeight, UnknownKey
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

    def __eq__(self, other):
        if not isinstance(other, InputPoint):
            return NotImplemented
        return self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):  # pragma: no cover
        return "InputPoint(%r)" % (self.key,)


def check_observation(y, w):
    """An observation's response and weight as floats; a weight that is
    not finite and > 0, or a response that is not finite, is refused."""
    y, w = float(y), float(w)
    if not w > 0.0 or not math.isfinite(w):
        raise NonPositiveWeight("weight must be finite and > 0, got %g" % w)
    if not math.isfinite(y):
        raise InvalidInput("response must be finite, got %g" % y)
    return y, w


def merge_observation(y_old, w_old, y, w):
    """A repeated (task, input) observation folded into the one held: the
    merged weight w_old * w / (w_old + w), whose reciprocal is the sum of
    the two, and the response moved toward y by the merged weight over w."""
    w_new = w_old * w / (w_old + w)
    return y_old + (w_new / w) * (y - y_old), w_new


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


class Pool(Sequence):
    """The unique inputs of a pool, held once: their keys in pool order,
    a key -> position index, and their features as lengths (-1 for an
    input without features) plus one float64 buffer of every present
    vector in pool order, which is the n x D block while every input
    has D features.

    A pool is append-only and refuses a key it holds; appends double
    its buffers like linalg's.  view() shares the buffers, sliced to the
    pool's size: entries below n never change, and an append to a full
    buffer, as a view's first append is, copies them out first.  A pool
    is also a Sequence of InputPoints, made on demand.
    """

    __slots__ = ("n", "_keys", "_index", "_lengths", "_values", "_used", "_good")

    def __init__(self, inputs=()):
        self.n = self._used = self._good = 0  # _good: leading block rows
        self._keys, self._index = [], {}
        self._lengths = np.zeros(0, dtype=np.int64)
        self._values = np.zeros(0, dtype=_F64)
        for x in inputs:
            self.append(x)

    @classmethod
    def from_columns(cls, keys, lengths, values):
        """The pool of the inputs with these keys, feature lengths and
        feature values (laid out as above), sharing the arrays; a key
        listed twice raises ValueError."""
        out = cls.__new__(cls)
        out.n = n = len(keys)
        out._keys, out._index = keys, dict(zip(keys, range(n)))
        if len(out._index) < n:
            dup = next(k for i, k in enumerate(keys) if out._index[k] != i)
            raise ValueError("input key %r listed twice" % (dup,))
        out._lengths, out._values, out._used = lengths, values, len(values)
        values.flags.writeable = False
        out._good = 0
        if n and lengths[0] >= 0:
            breaks = np.flatnonzero(lengths != lengths[0])
            out._good = int(breaks[0]) if len(breaks) else n
        return out

    def view(self, n=None):
        """The first n inputs (all by default), sharing this pool's
        buffers (see above)."""
        n = self.n if n is None else n
        out = Pool.__new__(Pool)
        out.n, out._used, out._good = n, self._start(n), min(self._good, n)
        out._keys, out._index = self._keys, self._index
        out._lengths = self._lengths[:n]
        out._values = self._values[: out._used]
        return out

    def tail(self, start):
        """The inputs from position start on, as a pool sharing this
        one's feature arrays."""
        return Pool.from_columns(tuple(self._keys[start : self.n]),
                                 self.lengths[start:], self.values[self._start(start) :])

    @property
    def keys(self):
        return tuple(self._keys[: self.n])

    @property
    def lengths(self):
        return self._lengths[: self.n]

    @property
    def values(self):
        return self._values[: self._used]

    def slot(self, key):
        """The position of the input with this key, or None."""
        s = self._index.get(key)
        return s if s is not None and s < self.n else None

    def check(self, x, same_width):
        """Raise InvalidInput unless x's features are finite and, with
        same_width, as long as those of the pool's inputs."""
        f = x.features
        if f is None:
            return
        if not np.isfinite(f).all():
            raise InvalidInput("features must be finite")
        if same_width and self.n and len(f) != self._lengths[0]:
            raise InvalidInput("%d features, the pool's inputs have %d"
                               % (len(f), self._lengths[0]))

    def append(self, x):
        """Add input x last; a key the pool holds raises ValueError."""
        f = x.features
        if f is None:
            self._append((x.key,), np.array([-1]), ())
        else:
            self._append((x.key,), np.array([len(f)]), f)

    def extend(self, start, tail):
        """Continue this pool with tail, a pool of its inputs from
        position start on: the ones this pool holds must equal tail's
        first ones, and the rest are appended.  A gap, an input other
        than the one held, or a key held elsewhere raises ValueError
        with nothing appended."""
        if start > self.n:
            raise ValueError("inputs from %d do not continue the %d held"
                             % (start, self.n))
        k = min(self.n - start, len(tail))
        end = tail._start(k)
        if (tuple(self._keys[start : start + k]) != tail.keys[:k]
                or not np.array_equal(self._lengths[start : start + k], tail.lengths[:k])
                or not np.array_equal(self._values[self._start(start) : self._start(start + k)],
                                      tail.values[:end])):
            raise ValueError("inputs %d..%d are not the ones held" % (start, start + k))
        self._append(tail.keys[k:], tail.lengths[k:], tail.values[end:])

    def _append(self, keys, lengths, values):
        # add inputs with these keys, feature lengths and values last
        n, m = self.n, len(keys)
        held = [key for key in keys if self.slot(key) is not None]
        if held:
            raise ValueError("input key %r listed twice" % (held[0],))
        if n + m > len(self._lengths):
            # a full buffer (a view's always is) moves to buffers of its own
            grown = np.zeros(max(8, 1 << (n + m - 1).bit_length()), dtype=np.int64)
            grown[:n] = self._lengths[:n]
            self._lengths = grown
            self._keys = list(self._keys[:n])
            self._index = dict(zip(self._keys, range(n)))
        used = self._used + len(values)
        self._values = _grown(self._values, used)
        self._values[self._used : used] = values
        self._used = used
        if self._good == n and m:
            d = int(self._lengths[0] if n else lengths[0])
            breaks = np.flatnonzero(lengths != d) if d >= 0 else [0]
            self._good += int(breaks[0]) if len(breaks) else m
        self._lengths[n : n + m] = lengths
        self._keys.extend(keys)
        self._index.update(zip(keys, range(n, n + m)))
        self.n = n + m

    def _start(self, i):
        # where input i's features start in the values buffer
        if i <= self._good:
            return i * int(self._lengths[0]) if i else 0
        return int(np.maximum(self._lengths[:i], 0).sum())

    def prefix(self, m=None):
        """The features of the first m inputs (all by default) as matrix
        rows, a view of the block; None unless all m are block rows."""
        m = self.n if m is None else m
        if not 0 < m <= self._good:
            return None
        d = int(self._lengths[0])
        return self._values[: m * d].reshape(m, d)

    def take(self, idx):
        """The features of the inputs at positions idx, gathered into a
        new matrix; None unless the whole pool is the block."""
        block = self.prefix()
        return None if block is None else block[idx]

    def __len__(self):
        return self.n

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(self.n))]
        i = range(self.n)[i]
        k = int(self._lengths[i])
        if k < 0:
            return InputPoint(self._keys[i])
        start = self._start(i)
        return InputPoint(self._keys[i], self._values[start : start + k])

    def __eq__(self, other):
        if not isinstance(other, Pool):
            return NotImplemented
        return (self.keys == other.keys
                and np.array_equal(self.lengths, other.lengths)
                and np.array_equal(self.values, other.values))

    __hash__ = None


def _missing(spec):
    return MissingFeatures("kernel %r needs feature vectors on both inputs"
                           % spec.variant)


def operand(spec, xs, idx=None):
    """What one side of a spec block reads of the inputs xs[idx] (all by
    default): table positions for a lookup kernel, else feature vectors
    as matrix rows (a Pool's block or its gather, or the inputs' vectors
    stacked, which raises MissingFeatures, or ValueError on ragged
    lengths).  An operand built before for spec is taken as it is."""
    if isinstance(xs, np.ndarray):
        return xs if idx is None else xs[idx]
    if spec.variant == LOOKUP:
        keys = xs._keys if isinstance(xs, Pool) else [x.key for x in xs]
        keys = keys[: len(xs)] if idx is None else [keys[i] for i in idx]
        return np.array([spec.table.position(k) for k in keys], dtype=np.intp)
    if isinstance(xs, Pool):
        rows = xs.prefix() if idx is None else xs.take(idx)
        if rows is not None:
            return rows
    items = xs if idx is None else [xs[i] for i in idx]
    if any(x.features is None for x in items):
        raise _missing(spec)
    return np.array([x.features for x in items])  # float64, as InputPoint holds them


def kernel_matrix(xs, ys, spec, idx=None):
    """Kernel values of the inputs xs[idx] (all by default) against the
    inputs ys, as a matrix: the one kernel body (see above).

    Each side is a Pool, whose block is read in place (or gathered, for
    idx), a sequence of inputs, whose feature vectors are stacked, or
    their operand(spec, ...), stacked once for many blocks.
    Raises OverflowError when a value is not finite, MissingFeatures
    when a feature kernel meets an input without features, ValueError
    on feature vectors of different lengths and UnknownKey when a
    lookup kernel meets a key not in its table.
    """
    left, right = operand(spec, xs, idx), operand(spec, ys)
    if spec.variant == LOOKUP:
        out = spec.table.matrix[np.ix_(left, right)]
    elif not (len(left) and len(right)):
        return np.zeros((len(left), len(right)), dtype=_F64)
    else:
        # an overflow is reported below, as an exception, not as a warning
        with np.errstate(over="ignore", invalid="ignore"):
            out = np.vecdot(left[:, None], right)
            if spec.variant == RBF_TAGS:
                np.exp(out, out=out)
    if np.count_nonzero(np.isfinite(out)) < out.size:  # cheaper than .all()
        raise OverflowError("kernel %r value is not finite" % spec.variant)
    return out


def kernel_row(spec, x, pool, idx=None):
    """Kernel values of input x against the inputs of pool at positions
    idx (all by default), as a vector: the one-column kernel_matrix."""
    return kernel_matrix(pool, (x,), spec, idx)[:, 0]


def eval_kernel(spec, x1, x2):
    """Kernel value for a pair of inputs: the one-entry kernel_matrix."""
    return float(kernel_matrix((x1,), (x2,), spec)[0, 0])


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


def eval_mixed(cfg, x1, t1, x2, t2):
    """Full mixed-effect kernel between (input, task) pairs.

    alpha * shared(x1, x2) plus, when both observations belong to the
    same task, (1 - alpha) * individual_t(x1, x2).
    """
    val = cfg.alpha * eval_kernel(cfg.shared, x1, x2)
    if t1 == t2:
        val += (1.0 - cfg.alpha) * eval_kernel(cfg.individual_for(t1), x1, x2)
    return val


def basis_matrix(xs, basis):
    """Bias matrix, shape (len(xs), basis.dim)."""
    out = np.empty((len(xs), basis.dim), dtype=_F64)
    for i, x in enumerate(xs):
        out[i] = basis.row(x)
    return out

