"""Canonical binary encoding for messages and server snapshots.

Everything is little-endian: u8/u32/u64 and i64 integers, IEEE-754
binary64 floats, length-prefixed byte strings, and symmetric matrices as
packed lower triangles (row-major).  Encoding is canonical — the same
value always produces the same bytes — so snapshots can be compared for
bit-exactness.

Each record is declared once, by one _Row: its name and its fields in
byte order, each with the codec of its type, from which the row makes
its dataclass.  A message is a record with a wire tag, declared by one
_message call, which adds its row to the message table.  A record's
body is written and read by one loop over its row; a payload that
decode cannot turn into a message raises MalformedFrame.

An array field is counted, its u32 element count first, or sized: its
count follows from the fields before it, and it has none of its own.
An f64 field reads as an array of its own, a u32 field as a tuple of
ints.  A record is read field by field from a binary stream, each array
straight into its own array (or into the start of the room that its
holder grows it to, see _Reader.values), within a byte budget: a count
that claims more than the frame or the file has left is malformed
before anything is allocated, so neither a frame nor a snapshot is ever
held whole.  A message is written as its pieces: runs of small fields
joined, and each array of _RUN bytes or more as it is, so that a reply
is written from the server's own arrays, with no second copy of them.

The server's pool of inputs and its LDL^T factor rows are append-only
in server order, so a read sends only what the reader lacks: GetDisclosed
and GetTaskCoeffs carry since, the number of inputs (factor rows, for
GetDisclosed) the reader holds, and the reply carries since and the
inputs from since on.  Disclosed is
    epoch u64, since u32, inputs[since:], y_cond (n f64), H (n(n+1)/2
    f64, packed), then counted f64s: lower (L's rows since..n-1 as
    stored, row i its i entries and then its diagonal slot, 0.0), d
    (D's since..n-1), m (M's rows since..n-1)
and TaskCoeffs is
    epoch u64, since u32, inputs[since:], b (counted f64s), a_cond
    (n f64), a (counted, l f64s), slots (l u32)
where n = since + the number of inputs sent.  y_cond, H, b, a_cond and
a are sent whole: a commit can change every entry.  A since past the
pool is refused (ERR_MALFORMED).  A reader keeps what it has read in a
Seen, which appends each reply's tail and hands out views of itself at
the reply's n; see Seen.

A pool's inputs travel as columns: the count, the u32 key lengths and
the keys' bytes, the u32 feature lengths (0xFFFFFFFF for an input
without features), and one counted f64 array of every present feature
vector in pool order, which is the count x D block when every input has
D features.  In those messages the one field inputs holds the
kernels.Pool of the inputs sent.  The pool's arrays are written as they
are, and decode into a pool with a fixed number of numpy calls plus one
slice per key and the pool's key index.  A pool that lists a key twice
is malformed.  This is wire version 5.

Privacy: a TaskCoeffs reply tells its task nothing new.  Its inputs, b
and a_cond are deterministic functions of the public Disclosed summary
at the same epoch.  Its a is the task's own coefficient vector, read
only with the task's token, and its slots name the task's inputs by
position among the inputs of the pool, which a Disclosed lists anyway.
The factors in a Disclosed disclose nothing new either: L, D and M are
deterministic functions of the public inputs and the Config, which
anyone can rebuild bit for bit (linalg.FactorSet).  A request's since
is the caller's own count of public inputs that it has read, so it
tells the server nothing about the caller.

Snapshot layout (version 5): the bodies of a SnapshotHead (magic
``MTLS``, u32 format version), a Config, a Disclosed with since = 0, a
TaskCount and one TaskBlock per task, then a CRC-32 over all of them.
"""

import io
import struct
import zlib
from dataclasses import fields, make_dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import errors
from .kernels import (
    LINEAR_TAGS,
    LOOKUP,
    RBF_TAGS,
    BiasBasis,
    KernelSpec,
    MixedEffectConfig,
    Pool,
)
from .linalg import FactorSet, SymMatrix, UnitLowerFactor, _tri
from .server import (
    CASE_NEW_INPUT,
    CASE_REPEAT_GLOBAL,
    CASE_REPEAT_TASK,
    ClientModel,
    DisclosedDB,
    ServerEngine,
    TaskState,
)

_F8, _U4 = np.dtype("<f8"), np.dtype("<u4")

MAGIC = b"MTLS"
WIRE_VERSION = 5
SNAPSHOT_VERSION = 5
MAX_FRAME = 1 << 30

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
ERR_INVALID_INPUT = 12

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
    ERR_INVALID_INPUT: errors.InvalidInput,
}
_CLASS_ERR = {v: k for k, v in _ERR_CLASS.items()}

_CASE_TAG = {CASE_REPEAT_TASK: 1, CASE_REPEAT_GLOBAL: 2, CASE_NEW_INPUT: 3}


def exception_to_code(exc):
    for cls, code in _CLASS_ERR.items():
        if isinstance(exc, cls):
            return code
    return ERR_INTERNAL


def raise_for_error(msg):
    cls = _ERR_CLASS.get(msg.code, errors.ProtocolError)
    raise cls(msg.detail)


# ===== field codecs ======================================================
#
# A codec is one kind of wire field: write(w, value) appends the value's
# bytes to the list w, an array's as a byte view of it (_piece), and
# read(r) returns the next value.  While a message is read, r.got holds
# its fields read so far, so that an array can take its element count
# from an earlier field.


class _Codec(NamedTuple):
    write: Callable
    read: Callable


# an array of this many bytes or more is written as its own piece, and
# smaller pieces are joined into runs of about this size; a frame is
# skipped and a snapshot's CRC taken in reads of this size
_RUN = 1 << 16


class _Reader:
    """Reads records from a binary stream, at most left bytes of it: a
    field past them is malformed, and so is a stream that ends before
    them."""

    def __init__(self, stream, left, rooms=False):
        self.stream = stream
        self.left = left
        self.rooms = rooms  # read packed matrices into room (see _packed)
        self.got = None

    def _budget(self, n):
        if not 0 <= n <= self.left:
            raise errors.MalformedFrame("truncated payload")

    def take(self, n):
        """The next n bytes."""
        self._budget(n)
        out = self.stream.read(n)
        self.left -= len(out)
        if len(out) != n:
            raise errors.MalformedFrame("truncated frame payload")
        return out

    def values(self, dtype, count, room=None):
        """The next count values of dtype, read into an array of their own.
        Given room (count or more), they are read into the start of room
        zeros, allocated once count has passed the budget: the array
        returned is that start, and its base the whole, which a holder
        grows in place (see Seen.disclosed and load_snapshot_from)."""
        self._budget(dtype.itemsize * count)
        out = np.empty(count, dtype=dtype) if room is None else np.zeros(room, dtype)[:count]
        view = memoryview(out).cast("B")
        while len(view):
            got = self.stream.readinto(view)
            if not got:
                raise errors.MalformedFrame("truncated frame payload")
            self.left -= got
            view = view[got:]
        return out

    def skip(self):
        """Read the rest, to its end or the stream's: one cut short is
        malformed, whatever its fields said."""
        while self.left:
            self.take(min(self.left, _RUN))

    def done(self):
        if self.left:
            raise errors.MalformedFrame("%d trailing bytes" % self.left)


def _fixed(fmt):
    st = struct.Struct("<" + fmt)
    return _Codec(lambda w, v: w.append(st.pack(v)),
                  lambda r: st.unpack(r.take(st.size))[0])


_u8, _u32, _u64, _i64, _f64 = (_fixed(fmt) for fmt in "BIQqd")


def _write_bytes(w, b):
    _u32.write(w, len(b))
    w.append(bytes(b))


def _read_bytes(r):
    return r.take(_u32.read(r))


_bytes = _Codec(_write_bytes, _read_bytes)


def _read_text(r):
    try:
        return _read_bytes(r).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise errors.MalformedFrame("text is not UTF-8: %s" % exc.reason) from None


_text = _Codec(lambda w, s: _write_bytes(w, s.encode("utf-8")), _read_text)


def _piece(values, dtype):
    # the bytes of values as an array of dtype: a view of values when
    # they are one already
    return memoryview(np.ascontiguousarray(values, dtype=dtype)).cast("B")


def _f64s(count=None, room=None):
    """An f64 array field: counted, or, given count, sized by count(got).
    It is written from one array, as its own piece, and read into an
    array of its own: given room, into the start of room(r, size)
    entries when that is not None (see _Reader.values)."""

    def write(w, arr):
        if count is None:
            _u32.write(w, len(arr))
        w.append(_piece(arr, _F8))

    def read(r):
        size = _u32.read(r) if count is None else count(r.got)
        return r.values(_F8, size, room and room(r, size))

    return _Codec(write, read)


def _u32s(count=None):
    """A u32 array field, counted or sized as _f64s, read as a tuple of ints."""

    def write(w, values):
        if count is None:
            _u32.write(w, len(values))
        w.append(_piece(values, _U4))

    size = _u32.read if count is None else lambda r: count(r.got)
    return _Codec(write, lambda r: tuple(r.values(_U4, size(r)).tolist()))


_counted_f64s = _f64s()


def _packed(order):
    """A symmetric matrix of order(got) as its packed lower triangle, an
    f64 array sized by it; a reader with rooms, which reads an engine's
    own state, reads it into the room that SymMatrix grows it to, so that
    the engine keeps it there."""
    return _f64s(lambda got: _tri(order(got)),
                 lambda r, size: SymMatrix.room(order(r.got)) if r.rooms else None)


def _tag(tags, what):
    """A value from a fixed set, sent as its u8 tag; tags maps value -> tag."""
    values = {tag: v for v, tag in tags.items()}

    def read(r):
        tag = _u8.read(r)
        if tag not in values:
            raise errors.MalformedFrame("bad %s tag %d" % (what, tag))
        return values[tag]

    return _Codec(lambda w, v: _u8.write(w, tags[v]), read)


_case = _tag(_CASE_TAG, "case")
_present = _tag({False: 0, True: 1}, "features flag")


def _write_features(w, feats):
    _present.write(w, feats is not None)
    if feats is not None:
        _counted_f64s.write(w, feats)


# optional features: a flag byte, then the counted array when present
_features = _Codec(_write_features,
                   lambda r: _counted_f64s.read(r) if _present.read(r) else None)


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
_variant = _tag({name: tag for name, (tag, _) in _KERNELS.items()}, "kernel variant")
_bias = _tag({name: tag for name, (tag, _) in _BIASES.items()}, "bias")
BIAS_NAMES = tuple(_BIASES)  # the --bias choices


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


def _write_kernel(w, spec):
    _variant.write(w, spec.variant)
    if spec.variant == LOOKUP:
        keys = spec.table.keys
        _u32.write(w, len(keys))
        for k in keys:
            _write_bytes(w, k)
        w.append(_piece(SymMatrix.from_dense(spec.table.matrix).packed, _F8))


def _read_kernel(r):
    name = _variant.read(r)
    if name != LOOKUP:
        return kernel_from_name(name)
    n = _u32.read(r)
    if 4 * n + 8 * _tri(n) > r.left:  # its keys' lengths and table
        raise errors.MalformedFrame("lookup table of %d keys past the payload" % n)
    keys = [_read_bytes(r) for _ in range(n)]
    packed = r.values(_F8, _tri(n))
    try:
        return KernelSpec.lookup(keys, SymMatrix.from_packed(packed, n).to_dense())
    except ValueError as exc:  # a repeated key, or a NaN that breaks symmetry
        raise errors.MalformedFrame("bad lookup table: %s" % exc) from None


_kernel = _Codec(_write_kernel, _read_kernel)


# a feature length that marks an input without features
_NO_FEATURES = 0xFFFFFFFF


def _write_inputs(w, pool):
    keys, lengths = pool.keys, pool.lengths
    _u32.write(w, len(keys))
    w.append(_piece(np.fromiter(map(len, keys), dtype=_U4, count=len(keys)), _U4))
    w.append(b"".join(keys))
    w.append(_piece(np.where(lengths < 0, _NO_FEATURES, lengths), _U4))
    _counted_f64s.write(w, pool.values)


def _read_inputs(r):
    n = _u32.read(r)
    ends = np.cumsum(r.values(_U4, n), dtype=np.int64).tolist()
    blob = r.take(ends[-1] if n else 0)
    keys = tuple(map(blob.__getitem__, map(slice, [0] + ends[:-1], ends)))
    lengths = r.values(_U4, n).astype(np.int64)
    lengths[lengths == _NO_FEATURES] = -1
    values = _counted_f64s.read(r)
    if len(values) != int(np.maximum(lengths, 0).sum()):
        raise errors.MalformedFrame("%d feature values do not fit the feature lengths"
                                    % len(values))
    try:
        return Pool.from_columns(keys, lengths, values)
    except ValueError as exc:  # a key listed twice
        raise errors.MalformedFrame(str(exc)) from None


# a pool's inputs as columns: a u32 count n, n u32 key lengths and the
# keys' bytes, n u32 feature lengths (_NO_FEATURES for an input without
# features), and every present feature vector in pool order as one
# counted f64 array, the pool's own
_inputs = _Codec(_write_inputs, _read_inputs)


# ===== the message table =================================================


def _values_equal(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and np.array_equal(a, b)
    return a == b


class _Msg:
    def __eq__(self, other):
        if type(self) is not type(other):
            return NotImplemented
        return all(_values_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self))

    def __hash__(self):  # pragma: no cover
        return object.__hash__(self)


class _Row:
    """One record, declared once: its class, a dataclass of its fields, and
    its fields in byte order, each a (name, codec) pair; a message's row
    also holds its wire tag."""

    __slots__ = ("tag", "cls", "fields")

    def __init__(self, name, *fields, tag=None):
        self.tag = tag
        self.cls = make_dataclass(name, [n for n, _ in fields], bases=(_Msg,), eq=False,
                                  namespace={"__module__": __name__})
        self.fields = fields


_ROWS = []


def _message(tag, name, *fields):
    """Declare one message, a record with a wire tag: add its row to _ROWS
    and return its class."""
    _ROWS.append(_Row(name, *fields, tag=tag))
    return _ROWS[-1].cls


def _n_inputs(got):
    # the inputs held before the reply and the ones it sends
    return got["since"] + len(got["inputs"])


def _lower_room(r, size):
    # a reply to a reader that holds no rows reads all of L's into the
    # room that its factor grows to, so that the reader keeps them there
    n = _n_inputs(r.got)
    return UnitLowerFactor.room(n) if r.got["since"] == 0 and size == _tri(n) else None


SubmitExample = _message(1, "SubmitExample", ("task", _i64), ("token", _bytes),
                         ("key", _bytes), ("features", _features), ("y", _f64),
                         ("w", _f64))
Ack = _message(2, "Ack", ("epoch", _u64), ("case", _case))
GetDisclosed = _message(3, "GetDisclosed", ("since", _u32))
Disclosed = _message(4, "Disclosed", ("epoch", _u64), ("since", _u32),
                     ("inputs", _inputs), ("y_cond", _f64s(_n_inputs)),
                     ("h_packed", _packed(_n_inputs)),
                     ("lower", _f64s(room=_lower_room)), ("d", _counted_f64s),
                     ("m", _counted_f64s))
GetTaskCoeffs = _message(5, "GetTaskCoeffs", ("task", _i64), ("token", _bytes),
                         ("since", _u32))
TaskCoeffs = _message(6, "TaskCoeffs", ("epoch", _u64), ("since", _u32),
                      ("inputs", _inputs), ("b", _counted_f64s),
                      ("a_cond", _f64s(_n_inputs)), ("a", _counted_f64s),
                      ("slots", _u32s(lambda got: len(got["a"]))))
GetConfig = _message(7, "GetConfig")
Config = _message(8, "Config", ("alpha", _f64), ("lam", _f64), ("shared", _kernel),
                  ("individual", _kernel), ("bias_kind", _bias))
Error = _message(9, "Error", ("code", _u32), ("detail", _text))
_ROW_OF_TAG = {row.tag: row for row in _ROWS}
_ROW_OF_CLASS = {row.cls: row for row in _ROWS}


def _write_body(w, row, msg):
    for name, codec in row.fields:
        codec.write(w, getattr(msg, name))


def _read_body(r, row):
    got = r.got = {}
    for name, codec in row.fields:
        got[name] = codec.read(r)
    r.got = None  # the message alone holds its fields now
    return row.cls(**got)


# ===== message encode/decode =============================================


def _pieces(msg):
    # the message's bytes as pieces: the version and tag, then its body
    row = _ROW_OF_CLASS.get(type(msg))
    if row is None:
        raise TypeError("cannot encode %r" % type(msg).__name__)
    w = [bytes((WIRE_VERSION, row.tag))]
    _write_body(w, row, msg)
    return w


def _write_pieces(stream, pieces):
    """Write pieces to stream: each of _RUN bytes or more as it is, the
    rest joined into runs of about _RUN bytes."""
    run, size = [], 0
    for piece in pieces:
        if len(piece) >= _RUN:
            if run:
                stream.write(b"".join(run))
                run, size = [], 0
            stream.write(piece)
            continue
        run.append(piece)
        size += len(piece)
        if size >= _RUN:
            stream.write(b"".join(run))
            run, size = [], 0
    if run:
        stream.write(b"".join(run))


def encode(msg):
    """Canonical bytes for one message, joined from its pieces."""
    return b"".join(_pieces(msg))


def _decode(r, accept):
    version = _u8.read(r)
    if version != WIRE_VERSION:
        raise errors.UnsupportedVersion("wire version %d" % version)
    tag = _u8.read(r)
    row = _ROW_OF_TAG.get(tag)
    if row is None:
        raise errors.MalformedFrame("unknown message tag %d" % tag)
    if accept is not None and row.cls not in accept:
        raise errors.UnexpectedMessage("unexpected message %s" % row.cls.__name__)
    msg = _read_body(r, row)
    r.done()
    return msg


def decode(data, accept=None):
    """Parse one message from its bytes, through the reader that
    read_message runs on a stream; raises MalformedFrame /
    UnsupportedVersion.  With accept, the message classes the reader
    takes, one of another type raises UnexpectedMessage before its body
    is read."""
    return _decode(_Reader(io.BytesIO(data), len(data)), accept)


# ===== stream framing ====================================================


def write_message(stream, msg):
    """Write msg's frame, the u32 length of its bytes and then the
    bytes, as its pieces (see _write_pieces), and flush."""
    w = _pieces(msg)
    size = sum(map(len, w))
    w.insert(0, struct.pack("<I", size))
    if size < _RUN:  # one write, as _write_pieces would make it
        stream.write(b"".join(w))
    else:
        _write_pieces(stream, w)
    stream.flush()


def read_message(stream, max_frame=MAX_FRAME, accept=None):
    """Next message from a stream, or None on clean end-of-stream.

    A frame longer than max_frame bytes is refused from its header, so
    nothing of its payload is read or allocated.  The payload is decoded
    straight from the stream (see decode for accept); a frame refused
    for its content is first read to its end, so that a stream that
    ends before it raises MalformedFrame, and a refused type leaves the
    stream at the next frame.
    """
    header = stream.read(4)
    if header == b"":
        return None
    if len(header) != 4:
        raise errors.MalformedFrame("truncated frame header")
    (size,) = struct.unpack("<I", header)
    if size > max_frame:
        raise errors.MalformedFrame("frame too large (%d bytes)" % size)
    r = _Reader(stream, size)
    try:
        return _decode(r, accept)
    except errors.ProtocolError:
        r.skip()
        raise


# ===== conversions to engine-level objects ===============================


def _tail(inputs, since):
    if since > len(inputs):
        raise errors.MalformedFrame("inputs from %d asked for, the pool has %d"
                                    % (since, len(inputs)))
    return inputs.tail(since)


def disclosed_to_message(db, since=0):
    """The Disclosed message of db for a reader holding its first since
    inputs and factor rows; it shares db's arrays, L's rows since..n-1
    included (one view, see UnitLowerFactor.rows).  A since past db's
    inputs is malformed."""
    tail, f = _tail(db.inputs, since), db.factors
    return Disclosed(db.epoch, since, tail, db.y_cond, db.H.packed,
                     f.L.rows(since), f.D.values[since:], f.M[since:].ravel())


def task_coeffs_to_message(model, since=0):
    """The TaskCoeffs message of a ClientModel for a reader holding its
    first since inputs; it shares model's arrays.  A since past the
    model's inputs is malformed."""
    return TaskCoeffs(model.epoch, since, _tail(model.inputs, since), model.b,
                      model.a_cond, model.a_task, model.slots)


def _room_of(values, size):
    # the array of size entries that values was read into the start of
    # (see _Reader.values), or None; values is made read-only, so that
    # its room is handed to one holder
    room = values.base
    if not (values.flags.writeable and isinstance(room, np.ndarray)
            and room.shape == (size,) and room.ctypes.data == values.ctypes.data):
        return None
    values.flags.writeable = False
    return room


class Seen:
    """What one reader has read of the server's append-only arrays: the
    pool's inputs (a kernels.Pool) and the factor rows (a FactorSet), in
    server order.  Each reply's tail is appended to them, and a reply's
    DisclosedDB or ClientModel holds views of them at its own n, which
    take O(1) and never change: the reader's next append goes past them.

    A reply must continue what is held: a Disclosed's factor rows start
    at the rows held, each diagonal slot of L is 0.0, and the inputs a
    reply repeats must be the ones held.  A reply that does not fit is
    malformed, and leaves what is held as it was.  The factor set takes
    its bias dimension from the first reply that has rows.  A
    DisclosedDB shares this set's right to append to L in place
    (FactorSet.take), so an engine seeded from it appends its own rows
    in this buffer without copying L.  This set keeps its buffer across
    reads: it writes its next rows over the engine's once that engine is
    gone, and copies its rows out only while the engine lives.

    A reply read from nothing (since = 0, a first read) holds L once:
    the reader read its rows into the room of a factor (see
    _Reader.values), and this set's L is that factor, over the reply's
    own array, with D and M shared with the reply.  A reply not read so
    (one made in process, say) is copied, as every later read's rows are.
    """

    def __init__(self):
        self.inputs = Pool()
        self.factors = FactorSet(0)

    def disclosed(self, msg):
        """The DisclosedDB of msg, after appending its tail."""
        since, count, f = msg.since, len(msg.inputs), self.factors
        n, lower = since + count, msg.lower
        if since != f.n:
            raise errors.MalformedFrame("factor rows from %d, but %d are held"
                                        % (since, f.n))
        if len(msg.d) != count:
            raise errors.MalformedFrame("factors of %d inputs, not %d"
                                        % (len(msg.d), count))
        if len(lower) != _tri(n) - _tri(since):  # rows since..n-1 as stored
            raise errors.MalformedFrame("%d entries of L do not fit rows %d..%d"
                                        % (len(lower), since, n))
        # each row's slot is 0.0, bit for bit, so that L has one encoding
        slots = lower[_tri(np.arange(since + 1, n + 1)) - 1 - _tri(since)]
        if slots.view(np.uint64).any():
            raise errors.MalformedFrame("a diagonal slot of L is not 0.0")
        width = len(msg.m) // count if count else f.bias_dim
        if len(msg.m) != count * width:
            raise errors.MalformedFrame("%d entries of M are not a multiple of %d"
                                        " inputs" % (len(msg.m), count))
        if width != f.bias_dim:
            if f.n:
                raise errors.MalformedFrame("rows of M with %d entries, not %d"
                                            % (width, f.bias_dim))
            f = FactorSet(width)
        inputs = self._inputs(msg)
        room = None if f.n else _room_of(lower, UnitLowerFactor.room(n))
        if room is None:
            f.append_rows(lower, msg.d, msg.m)
        else:  # rows read from nothing stay where they were read
            f = FactorSet.of(UnitLowerFactor.over(room, n), msg.d, msg.m.reshape(count, width))
        self.factors = f
        msg.y_cond.flags.writeable = msg.h_packed.flags.writeable = False
        return DisclosedDB(inputs=inputs, y_cond=msg.y_cond,
                           H=SymMatrix.from_packed(msg.h_packed, n), epoch=msg.epoch,
                           factors=f.take())

    def task_coeffs(self, msg, task):
        """The ClientModel of task from msg, after appending its tail; a
        slot past its inputs is malformed."""
        top = max(msg.slots, default=-1)
        if top >= msg.since + len(msg.inputs):
            raise errors.MalformedFrame("task slot %d out of range" % top)
        return ClientModel(task, msg.epoch, self._inputs(msg), msg.b, msg.a_cond,
                           msg.a, np.asarray(msg.slots, dtype=np.intp))

    def _inputs(self, msg):
        # the pool at msg's n, after appending msg's tail
        try:
            self.inputs.extend(msg.since, msg.inputs)
        except ValueError as exc:
            raise errors.MalformedFrame(str(exc)) from None
        return self.inputs.view(msg.since + len(msg.inputs))


def config_to_message(cfg):
    if cfg.individual_overrides:
        raise ValueError("per-task kernel overrides are not wire-encodable")
    if cfg.bias.kind not in _BIASES:
        raise ValueError("custom bias bases are not wire-encodable")
    return Config(cfg.alpha, cfg.lam, cfg.shared, cfg.individual, cfg.bias.kind)


def config_from_message(msg):
    """The MixedEffectConfig of msg; an alpha or lam it refuses is
    malformed."""
    try:
        return MixedEffectConfig(msg.alpha, msg.lam, msg.shared, msg.individual,
                                 bias=bias_from_name(msg.bias_kind))
    except ValueError as exc:
        raise errors.MalformedFrame(str(exc)) from None


# ===== snapshots =========================================================
#
# Every byte of a snapshot but its CRC is a record body.  A TaskBlock
# holds a task's raw responses and weights, so no snapshot record has a
# tag or a row in _ROWS: encode refuses them.

_HEAD = _Row("SnapshotHead", ("magic", _fixed("4s")), ("version", _u32))
_CONFIG = _ROW_OF_CLASS[Config]
_DISCLOSED = _ROW_OF_CLASS[Disclosed]
_TASK_COUNT = _Row("TaskCount", ("count", _u32))


def _ell(got):
    return len(got["slots"])


_TASK_BLOCK = _Row("TaskBlock", ("task", _i64), ("slots", _u32s()), ("y", _f64s(_ell)),
                   ("w", _f64s(_ell)), ("r_packed", _packed(_ell)))


def _snapshot_pieces(engine):
    # the snapshot's bytes as pieces, its CRC, over all the others, last
    w = []
    _write_body(w, _HEAD, _HEAD.cls(MAGIC, SNAPSHOT_VERSION))
    _write_body(w, _CONFIG, config_to_message(engine.cfg))
    _write_body(w, _DISCLOSED, disclosed_to_message(engine.get_disclosed()))
    _write_body(w, _TASK_COUNT, _TASK_COUNT.cls(len(engine.tasks)))
    for task, st in engine.tasks.items():
        _write_body(w, _TASK_BLOCK, _TASK_BLOCK.cls(task, st.slots, st.y.values,
                                                     st.w.values, st.R.packed))
    crc = 0
    for piece in w:
        crc = zlib.crc32(piece, crc)
    w.append(struct.pack("<I", crc))
    return w


def save_snapshot(engine):
    """Serialize full server state; bit-exact under load + save."""
    return b"".join(_snapshot_pieces(engine))


def save_snapshot_to(stream, engine):
    """Write save_snapshot's bytes to a binary stream as their pieces
    (see _write_pieces), the engine's arrays uncopied."""
    _write_pieces(stream, _snapshot_pieces(engine))


def _add_task(tasks, n, block):
    """Add the TaskState of a TaskBlock over n inputs to tasks; a task
    listed twice, a slot out of range or listed twice, a response that
    is not finite or a weight that is not finite and > 0 is malformed."""
    if block.task in tasks:
        raise errors.MalformedFrame("task %d listed twice" % block.task)
    top = max(block.slots, default=-1)
    if top >= n:
        raise errors.MalformedFrame("task slot %d out of range" % top)
    y, w = block.y, block.w
    if not (np.isfinite(y).all() and np.isfinite(w).all() and (w > 0).all()):
        raise errors.MalformedFrame("task %d has a response that is not finite or a "
                                    "weight that is not finite and > 0" % block.task)
    ell = len(block.slots)
    st = TaskState(block.slots, block.y, block.w,
                   SymMatrix.from_packed(block.r_packed.base, ell))
    if len(st.pos) != ell:  # pos holds each slot once
        twice = next(s for p, s in enumerate(st.slots) if st.pos[s] != p)
        raise errors.MalformedFrame("task slot %d listed twice" % twice)
    tasks[block.task] = st


def load_snapshot(data):
    """Rebuild a ServerEngine from snapshot bytes."""
    return load_snapshot_from(io.BytesIO(data))


def load_snapshot_from(stream):
    """Rebuild a ServerEngine from a seekable binary stream holding a
    snapshot from its position to its end.  The head is checked first,
    then the CRC, in one pass of reads of _RUN bytes, before any other
    field is parsed; the fields are then read one by one, so that the
    snapshot is never held whole.  Each array is held once: L's rows,
    H and each task's R are read into the room that the engine grows
    them to, and the engine keeps them there (see Seen and
    ServerEngine.from_disclosed)."""
    start = stream.tell()
    body = stream.seek(0, io.SEEK_END) - start - 4
    stream.seek(start)
    r = _Reader(stream, max(body, 0), rooms=True)
    head = _read_body(r, _HEAD)
    if head.magic != MAGIC:
        raise errors.MalformedFrame("not a snapshot (bad magic)")
    if head.version != SNAPSHOT_VERSION:
        raise errors.UnsupportedVersion("snapshot version %d" % head.version)
    at, crc, whole = stream.tell(), 0, _Reader(stream, body + 4)
    stream.seek(start)
    while whole.left > 4:
        crc = zlib.crc32(whole.take(min(whole.left - 4, _RUN)), crc)
    if crc != _u32.read(whole):
        raise errors.ChecksumMismatch("snapshot CRC does not match")
    stream.seek(at)
    cfg = config_from_message(_read_body(r, _CONFIG))
    msg = _read_body(r, _DISCLOSED)
    # the engine keeps H where it was read, and lends it to the summary
    # it is seeded from, which is gone before the engine's first commit
    h_mat = SymMatrix.from_packed(msg.h_packed.base, len(msg.y_cond))
    msg.h_packed = h_mat.packed
    engine = ServerEngine.from_disclosed(Seen().disclosed(msg), cfg, h_mat)
    for _ in range(_read_body(r, _TASK_COUNT).count):
        _add_task(engine.tasks, engine.n, _read_body(r, _TASK_BLOCK))
    r.done()
    return engine
