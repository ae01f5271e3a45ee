"""Input identity, kernel evaluation and the mixed-effect combination.

An input is identified by an opaque byte key; two inputs are the same
point iff their keys are byte-equal.  Kernel values are always computed
entrywise through the same scalar path so that every component of the
system (server, clients, offline solvers) sees bit-identical numbers for
the same pair of inputs.
"""

import math

import numpy as np

from .errors import MissingFeatures, UnknownKey

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

    def value(self, key1, key2):
        try:
            i = self.index[key1]
            j = self.index[key2]
        except KeyError as exc:
            raise UnknownKey("key %r not in lookup table" % (exc.args[0],)) from None
        return float(self.matrix[i, j])


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


def eval_kernel(spec, x1, x2):
    """Scalar kernel value for a pair of inputs."""
    if spec.variant == LOOKUP:
        return spec.table.value(x1.key, x2.key)
    z1, z2 = x1.features, x2.features
    if z1 is None or z2 is None:
        raise MissingFeatures(
            "kernel %r needs feature vectors on both inputs" % spec.variant
        )
    # scalar dot keeps the value independent of any surrounding matrix shape
    dot = float(np.dot(z1, z2))
    if spec.variant == RBF_TAGS:
        return math.exp(dot)
    return dot


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


def kernel_matrix(xs, ys, spec):
    """Entrywise kernel matrix, shape (len(xs), len(ys))."""
    out = np.empty((len(xs), len(ys)), dtype=_F64)
    for j, y in enumerate(ys):
        out[:, j] = [eval_kernel(spec, x, y) for x in xs]
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
