"""Canonical binary encoding for messages and server snapshots.

Everything is little-endian: u8/u32/u64 and i64 integers, IEEE-754
binary64 floats, length-prefixed byte strings, and symmetric matrices as
packed lower triangles (row-major).  Encoding is canonical — the same
value always produces the same bytes — so snapshots can be compared for
bit-exactness.

Snapshot layout: magic ``MTLS``, u32 format version, config block,
engine state, and a trailing CRC-32 over everything before it.
"""

import struct
import zlib
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from . import errors
from .kernels import (
    LINEAR_TAGS,
    LOOKUP,
    RBF_TAGS,
    BiasBasis,
    FeatureRows,
    InputPoint,
    KernelSpec,
    MixedEffectConfig,
)
from .linalg import FactorSet, GrowVec, SymMatrix
from .server import (
    CASE_NEW_INPUT,
    CASE_REPEAT_GLOBAL,
    CASE_REPEAT_TASK,
    DisclosedDB,
    ServerEngine,
    TaskState,
)

_F64 = np.float64

MAGIC = b"MTLS"
WIRE_VERSION = 1
SNAPSHOT_VERSION = 1
MAX_FRAME = 1 << 30

# message type tags
_T_SUBMIT = 1
_T_ACK = 2
_T_GET_DISCLOSED = 3
_T_DISCLOSED = 4
_T_GET_TASK_COEFFS = 5
_T_TASK_COEFFS = 6
_T_GET_CONFIG = 7
_T_CONFIG = 8
_T_ERROR = 9

# error codes on the wire
ERR_MALFORMED = 1
ERR_UNSUPPORTED_VERSION = 2
ERR_UNAUTHORIZED = 3
ERR_UNKNOWN_TASK = 4
ERR_NON_POSITIVE_WEIGHT = 5
ERR_DEGENERATE_GRAM = 6
ERR_SINGULAR_UPDATE = 7
ERR_SINGULAR_SYSTEM = 8
ERR_MISSING_FEATURES = 9
ERR_UNKNOWN_KEY = 10
ERR_INTERNAL = 11

_ERR_CLASS = {
    ERR_MALFORMED: errors.MalformedFrame,
    ERR_UNSUPPORTED_VERSION: errors.UnsupportedVersion,
    ERR_UNAUTHORIZED: errors.Unauthorized,
    ERR_UNKNOWN_TASK: errors.UnknownTask,
    ERR_NON_POSITIVE_WEIGHT: errors.NonPositiveWeight,
    ERR_DEGENERATE_GRAM: errors.DegenerateGram,
    ERR_SINGULAR_UPDATE: errors.SingularUpdate,
    ERR_SINGULAR_SYSTEM: errors.SingularSystem,
    ERR_MISSING_FEATURES: errors.MissingFeatures,
    ERR_UNKNOWN_KEY: errors.UnknownKey,
}
_CLASS_ERR = {v: k for k, v in _ERR_CLASS.items()}

_CASE_TAG = {CASE_REPEAT_TASK: 1, CASE_REPEAT_GLOBAL: 2, CASE_NEW_INPUT: 3}
_TAG_CASE = {v: k for k, v in _CASE_TAG.items()}


def exception_to_code(exc):
    for cls, code in _CLASS_ERR.items():
        if isinstance(exc, cls):
            return code
    return ERR_INTERNAL


def raise_for_error(msg):
    cls = _ERR_CLASS.get(msg.code, errors.ProtocolError)
    raise cls(msg.detail)


# ===== message dataclasses ===============================================


def _values_equal(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray)
            and isinstance(b, np.ndarray)
            and a.shape == b.shape
            and np.array_equal(a, b)
        )
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(
            _values_equal(u, v) for u, v in zip(a, b)
        )
    return a == b


class _Msg:
    def __eq__(self, other):
        if type(self) is not type(other):
            return NotImplemented
        return all(
            _values_equal(getattr(self, f.name), getattr(other, f.name))
            for f in fields(self)
        )

    def __hash__(self):  # pragma: no cover
        return object.__hash__(self)


@dataclass(eq=False)
class SubmitExample(_Msg):
    task: int
    token: bytes
    key: bytes
    features: Optional[np.ndarray]
    y: float
    w: float


@dataclass(eq=False)
class Ack(_Msg):
    epoch: int
    case: str


@dataclass(eq=False)
class GetDisclosed(_Msg):
    pass


@dataclass(eq=False)
class Disclosed(_Msg):
    epoch: int
    keys: tuple
    features: tuple
    y_cond: np.ndarray
    h_packed: np.ndarray


@dataclass(eq=False)
class GetTaskCoeffs(_Msg):
    task: int
    token: bytes


@dataclass(eq=False)
class TaskCoeffs(_Msg):
    epoch: int
    a: np.ndarray
    keys: tuple


@dataclass(eq=False)
class GetConfig(_Msg):
    pass


@dataclass(eq=False)
class Config(_Msg):
    alpha: float
    lam: float
    shared: KernelSpec
    individual: KernelSpec
    bias_kind: str


@dataclass(eq=False)
class Error(_Msg):
    code: int
    detail: str


# ===== primitive writers/readers =========================================


class _Writer:
    def __init__(self):
        self.parts = []

    def u8(self, v):
        self.parts.append(struct.pack("<B", v))

    def u32(self, v):
        self.parts.append(struct.pack("<I", v))

    def u64(self, v):
        self.parts.append(struct.pack("<Q", v))

    def i64(self, v):
        self.parts.append(struct.pack("<q", v))

    def f64(self, v):
        self.parts.append(struct.pack("<d", v))

    def raw(self, b):
        self.parts.append(bytes(b))

    def bytestr(self, b):
        self.u32(len(b))
        self.raw(b)

    def f64s(self, arr):
        arr = np.ascontiguousarray(arr, dtype=_F64)
        self.raw(arr.tobytes())

    def getvalue(self):
        return b"".join(self.parts)


class _Reader:
    def __init__(self, data):
        self.data = data
        self.pos = 0

    def take(self, n):
        if n < 0 or self.pos + n > len(self.data):
            raise errors.MalformedFrame("truncated payload")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u8(self):
        return struct.unpack("<B", self.take(1))[0]

    def u32(self):
        return struct.unpack("<I", self.take(4))[0]

    def u64(self):
        return struct.unpack("<Q", self.take(8))[0]

    def i64(self):
        return struct.unpack("<q", self.take(8))[0]

    def f64(self):
        return struct.unpack("<d", self.take(8))[0]

    def bytestr(self):
        n = self.u32()
        if n > MAX_FRAME:
            raise errors.MalformedFrame("byte string too long")
        return bytes(self.take(n))

    def f64s(self, count):
        if count > MAX_FRAME // 8:
            raise errors.MalformedFrame("array too long")
        buf = self.take(8 * count)
        return np.frombuffer(buf, dtype="<f8").astype(_F64, copy=True)

    def done(self):
        if self.pos != len(self.data):
            raise errors.MalformedFrame(
                "%d trailing bytes" % (len(self.data) - self.pos)
            )


def _write_features(w, feats):
    if feats is None:
        w.u8(0)
    else:
        w.u8(1)
        w.u32(len(feats))
        w.f64s(feats)


def _read_features(r):
    flag = r.u8()
    if flag == 0:
        return None
    if flag != 1:
        raise errors.MalformedFrame("bad features flag %d" % flag)
    n = r.u32()
    return r.f64s(n)


# built-in kernels and bias kinds: name (as in the daemon config file and
# on the command line) -> (wire tag, constructor); the lookup kernel has
# no constructor by name, its table travels with it on the wire
_KERNELS = {
    RBF_TAGS: (1, KernelSpec.rbf_tags),
    LINEAR_TAGS: (2, KernelSpec.linear_tags),
    LOOKUP: (3, None),
}
_BIASES = {
    BiasBasis.NONE: (0, BiasBasis.empty),
    BiasBasis.CONSTANT: (1, BiasBasis.constant),
}
_TAG_KERNEL = {tag: name for name, (tag, _) in _KERNELS.items()}
_TAG_BIAS = {tag: name for name, (tag, _) in _BIASES.items()}


def _by_name(table, what, name):
    make = table.get(name, (None, None))[1]
    if make is None:
        raise ValueError("unknown %s %r" % (what, name))
    return make()


def kernel_from_name(name):
    """The built-in kernel called name ("rbf-tags" or "linear-tags")."""
    return _by_name(_KERNELS, "kernel", name)


def bias_from_name(name):
    """The built-in bias basis called name ("none" or "constant")."""
    return _by_name(_BIASES, "bias", name)


def _write_kernel_spec(w, spec):
    w.u8(_KERNELS[spec.variant][0])
    if spec.variant == LOOKUP:
        keys = spec.table.keys
        w.u32(len(keys))
        for k in keys:
            w.bytestr(k)
        w.f64s(SymMatrix.from_dense(spec.table.matrix).packed)


def _read_kernel_spec(r):
    tag = r.u8()
    name = _TAG_KERNEL.get(tag)
    if name is None:
        raise errors.MalformedFrame("bad kernel variant tag %d" % tag)
    if name != LOOKUP:
        return kernel_from_name(name)
    n = r.u32()
    keys = [r.bytestr() for _ in range(n)]
    packed = r.f64s(n * (n + 1) // 2)
    return KernelSpec.lookup(keys, SymMatrix.from_packed(packed, n).to_dense())


def _write_config(w, msg):
    w.f64(msg.alpha)
    w.f64(msg.lam)
    _write_kernel_spec(w, msg.shared)
    _write_kernel_spec(w, msg.individual)
    w.u8(_BIASES[msg.bias_kind][0])


def _read_config(r):
    alpha = r.f64()
    lam = r.f64()
    shared = _read_kernel_spec(r)
    individual = _read_kernel_spec(r)
    bias_tag = r.u8()
    if bias_tag not in _TAG_BIAS:
        raise errors.MalformedFrame("bad bias tag %d" % bias_tag)
    return Config(
        alpha=alpha,
        lam=lam,
        shared=shared,
        individual=individual,
        bias_kind=_TAG_BIAS[bias_tag],
    )


# ===== message encode/decode =============================================


def encode(msg):
    """Canonical bytes for one message."""
    w = _Writer()
    w.u8(WIRE_VERSION)
    if isinstance(msg, SubmitExample):
        w.u8(_T_SUBMIT)
        w.i64(msg.task)
        w.bytestr(msg.token)
        w.bytestr(msg.key)
        _write_features(w, msg.features)
        w.f64(msg.y)
        w.f64(msg.w)
    elif isinstance(msg, Ack):
        w.u8(_T_ACK)
        w.u64(msg.epoch)
        w.u8(_CASE_TAG[msg.case])
    elif isinstance(msg, GetDisclosed):
        w.u8(_T_GET_DISCLOSED)
    elif isinstance(msg, Disclosed):
        w.u8(_T_DISCLOSED)
        w.u64(msg.epoch)
        n = len(msg.keys)
        w.u32(n)
        for key, feats in zip(msg.keys, msg.features):
            w.bytestr(key)
            _write_features(w, feats)
        w.f64s(msg.y_cond)
        w.f64s(msg.h_packed)
    elif isinstance(msg, GetTaskCoeffs):
        w.u8(_T_GET_TASK_COEFFS)
        w.i64(msg.task)
        w.bytestr(msg.token)
    elif isinstance(msg, TaskCoeffs):
        w.u8(_T_TASK_COEFFS)
        w.u64(msg.epoch)
        w.u32(len(msg.a))
        w.f64s(msg.a)
        for key in msg.keys:
            w.bytestr(key)
    elif isinstance(msg, GetConfig):
        w.u8(_T_GET_CONFIG)
    elif isinstance(msg, Config):
        w.u8(_T_CONFIG)
        _write_config(w, msg)
    elif isinstance(msg, Error):
        w.u8(_T_ERROR)
        w.u32(msg.code)
        w.bytestr(msg.detail.encode("utf-8"))
    else:
        raise TypeError("cannot encode %r" % type(msg).__name__)
    return w.getvalue()


def decode(data):
    """Parse one message; raises MalformedFrame / UnsupportedVersion."""
    r = _Reader(bytes(data))
    version = r.u8()
    if version != WIRE_VERSION:
        raise errors.UnsupportedVersion("wire version %d" % version)
    tag = r.u8()
    if tag == _T_SUBMIT:
        msg = SubmitExample(
            task=r.i64(),
            token=r.bytestr(),
            key=r.bytestr(),
            features=_read_features(r),
            y=r.f64(),
            w=r.f64(),
        )
    elif tag == _T_ACK:
        epoch = r.u64()
        case_tag = r.u8()
        if case_tag not in _TAG_CASE:
            raise errors.MalformedFrame("bad case tag %d" % case_tag)
        msg = Ack(epoch=epoch, case=_TAG_CASE[case_tag])
    elif tag == _T_GET_DISCLOSED:
        msg = GetDisclosed()
    elif tag == _T_DISCLOSED:
        epoch = r.u64()
        n = r.u32()
        keys, feats = [], []
        for _ in range(n):
            keys.append(r.bytestr())
            feats.append(_read_features(r))
        y_cond = r.f64s(n)
        h_packed = r.f64s(n * (n + 1) // 2)
        msg = Disclosed(
            epoch=epoch,
            keys=tuple(keys),
            features=tuple(feats),
            y_cond=y_cond,
            h_packed=h_packed,
        )
    elif tag == _T_GET_TASK_COEFFS:
        msg = GetTaskCoeffs(task=r.i64(), token=r.bytestr())
    elif tag == _T_TASK_COEFFS:
        epoch = r.u64()
        count = r.u32()
        a = r.f64s(count)
        keys = tuple(r.bytestr() for _ in range(count))
        msg = TaskCoeffs(epoch=epoch, a=a, keys=keys)
    elif tag == _T_GET_CONFIG:
        msg = GetConfig()
    elif tag == _T_CONFIG:
        msg = _read_config(r)
    elif tag == _T_ERROR:
        code = r.u32()
        msg = Error(code=code, detail=r.bytestr().decode("utf-8"))
    else:
        raise errors.MalformedFrame("unknown message tag %d" % tag)
    r.done()
    return msg


# ===== stream framing ====================================================


def write_message(stream, msg):
    payload = encode(msg)
    stream.write(struct.pack("<I", len(payload)) + payload)
    stream.flush()


def read_message(stream):
    """Next message from a stream, or None on clean end-of-stream."""
    header = stream.read(4)
    if header == b"":
        return None
    if len(header) != 4:
        raise errors.MalformedFrame("truncated frame header")
    (size,) = struct.unpack("<I", header)
    if size > MAX_FRAME:
        raise errors.MalformedFrame("frame too large (%d bytes)" % size)
    payload = stream.read(size)
    if len(payload) != size:
        raise errors.MalformedFrame("truncated frame payload")
    return decode(payload)


# ===== conversions to engine-level objects ===============================


def disclosed_to_message(db):
    return Disclosed(
        epoch=db.epoch,
        keys=tuple(x.key for x in db.inputs),
        features=tuple(
            None if x.features is None else np.asarray(x.features, dtype=_F64)
            for x in db.inputs
        ),
        y_cond=np.asarray(db.y_cond, dtype=_F64).copy(),
        h_packed=db.H.packed.copy(),
    )


def disclosed_from_message(msg):
    inputs = tuple(
        InputPoint(k, f) for k, f in zip(msg.keys, msg.features)
    )
    y = msg.y_cond.copy()
    y.flags.writeable = False
    return DisclosedDB(
        inputs=inputs,
        y_cond=y,
        H=SymMatrix.from_packed(msg.h_packed, len(inputs)),
        epoch=msg.epoch,
    )


def config_to_message(cfg):
    if cfg.individual_overrides:
        raise ValueError("per-task kernel overrides are not wire-encodable")
    if cfg.bias.kind not in _BIASES:
        raise ValueError("custom bias bases are not wire-encodable")
    return Config(
        alpha=cfg.alpha,
        lam=cfg.lam,
        shared=cfg.shared,
        individual=cfg.individual,
        bias_kind=cfg.bias.kind,
    )


def config_from_message(msg):
    return MixedEffectConfig(
        alpha=msg.alpha,
        lam=msg.lam,
        shared=msg.shared,
        individual=msg.individual,
        bias=bias_from_name(msg.bias_kind),
    )


# ===== snapshots =========================================================


def save_snapshot(engine):
    """Serialize full server state; bit-exact under load + save."""
    w = _Writer()
    w.raw(MAGIC)
    w.u32(SNAPSHOT_VERSION)

    _write_config(w, config_to_message(engine.cfg))

    w.u64(engine.epoch)
    n = engine.n
    w.u32(n)
    for x in engine.inputs:
        w.bytestr(x.key)
        _write_features(w, x.features)
    w.f64s(engine.y_cond.values)
    w.f64s(engine.H.packed)
    for i in range(n):
        w.f64s(engine.factors.L.row_strict(i))
    w.f64s(engine.factors.D.values)
    w.f64s(engine.factors.M.ravel())

    w.u32(len(engine.tasks))
    for task, st in engine.tasks.items():
        w.i64(task)
        ell = len(st.slots)
        w.u32(ell)
        for s in st.slots:
            w.u32(s)
        w.f64s(st.y.values)
        w.f64s(st.w.values)
        w.f64s(st.R.packed)

    body = w.getvalue()
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


def load_snapshot(data):
    """Rebuild a ServerEngine from snapshot bytes."""
    data = bytes(data)
    if len(data) < 12 or data[:4] != MAGIC:
        raise errors.MalformedFrame("not a snapshot (bad magic)")
    (version,) = struct.unpack("<I", data[4:8])
    if version != SNAPSHOT_VERSION:
        raise errors.UnsupportedVersion("snapshot version %d" % version)
    body, crc_bytes = data[:-4], data[-4:]
    (crc_stored,) = struct.unpack("<I", crc_bytes)
    if zlib.crc32(body) & 0xFFFFFFFF != crc_stored:
        raise errors.ChecksumMismatch("snapshot CRC does not match")

    r = _Reader(body)
    r.take(8)  # magic + version already checked
    cfg = config_from_message(_read_config(r))

    engine = ServerEngine(cfg)
    engine.epoch = r.u64()
    n = r.u32()
    inputs = []
    for _ in range(n):
        key = r.bytestr()
        feats = _read_features(r)
        inputs.append(InputPoint(key, feats))
    y_cond = r.f64s(n)
    h_packed = r.f64s(n * (n + 1) // 2)

    factors = FactorSet(cfg.bias_dim)
    rows = [r.f64s(i) for i in range(n)]
    dvals = r.f64s(n)
    m_flat = r.f64s(n * cfg.bias_dim)
    m_rows = m_flat.reshape(n, cfg.bias_dim) if n else m_flat.reshape(0, cfg.bias_dim)
    for i in range(n):
        factors.append_precomputed(rows[i], dvals[i], m_rows[i])

    engine.inputs = inputs
    engine.feats = FeatureRows(inputs)
    engine.key_slot = {x.key: i for i, x in enumerate(inputs)}
    engine.y_cond = GrowVec(y_cond)
    engine.H = SymMatrix.from_packed(h_packed, n)
    engine.factors = factors

    task_count = r.u32()
    for _ in range(task_count):
        task = r.i64()
        ell = r.u32()
        st = TaskState()
        for _ in range(ell):
            s = r.u32()
            if s >= n:
                raise errors.MalformedFrame("task slot %d out of range" % s)
            if s in st.pos:
                raise errors.MalformedFrame("task slot %d listed twice" % s)
            st.pos[s] = len(st.slots)
            st.slots.append(s)
        st.y = GrowVec(r.f64s(ell))
        st.w = GrowVec(r.f64s(ell))
        st.R = SymMatrix.from_packed(r.f64s(ell * (ell + 1) // 2), ell)
        engine.tasks[task] = st
    r.done()
    return engine
